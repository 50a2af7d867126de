//! Canonical in-memory trace model.
//!
//! A [`Trace`] is a time-ordered sequence of read/write system calls
//! ([`TraceRecord`]) over a set of files ([`FileSet`]). Timestamps and
//! durations come from the *collection* run; the replayer preserves only
//! the **think times** between calls (the paper argues these are
//! device-independent, §2.1) and re-derives service times from the device
//! models.

use ff_base::{Bytes, Dur, Error, Result, SimTime};
use std::collections::BTreeMap;

/// A file identity — the inode number recorded by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Read or write — the two call types the scheme profiles (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A `read()` system call.
    Read,
    /// A `write()` system call.
    Write,
}

/// Metadata for one traced file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Inode number.
    pub id: FileId,
    /// Path name as recorded by the collector.
    pub name: String,
    /// File size in bytes.
    pub size: Bytes,
}

/// The set of files referenced by a trace, keyed by inode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSet {
    files: BTreeMap<FileId, FileMeta>,
}

impl FileSet {
    /// Empty file set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a file's metadata.
    pub fn insert(&mut self, meta: FileMeta) {
        self.files.insert(meta.id, meta);
    }

    /// Look up a file by inode.
    pub fn get(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(&id)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True iff no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Sum of all file sizes.
    pub fn total_size(&self) -> Bytes {
        self.files.values().map(|f| f.size).sum()
    }

    /// Iterate files in inode order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.values()
    }

    /// Merge another file set in. Colliding inodes must describe the same
    /// file (same size); otherwise the merge is rejected, because two
    /// different files sharing an inode would corrupt the disk layout.
    pub fn merge(&mut self, other: &FileSet) -> Result<()> {
        for meta in other.files.values() {
            match self.files.get(&meta.id) {
                Some(existing) if existing.size != meta.size => {
                    return Err(Error::Config(format!(
                        "inode {} maps to files of different sizes ({} vs {})",
                        meta.id.0, existing.size, meta.size
                    )));
                }
                _ => {
                    self.files.insert(meta.id, meta.clone());
                }
            }
        }
        Ok(())
    }
}

/// One read/write system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Process id.
    pub pid: u32,
    /// Process group id (§2.1: all processes of one program — e.g. make
    /// and its gcc children — share a group; the replayer runs one
    /// closed loop per group).
    pub pgid: u32,
    /// File accessed.
    pub file: FileId,
    /// Call type.
    pub op: IoOp,
    /// Byte offset within the file.
    pub offset: u64,
    /// Request length.
    pub len: Bytes,
    /// Issue timestamp in the collection run.
    pub ts: SimTime,
    /// Observed service duration in the collection run. Used only to
    /// compute think times (gap to the *next* call); replay re-derives
    /// service times from the simulated device.
    pub dur: Dur,
}

impl TraceRecord {
    /// Instant the call completed in the collection run.
    pub fn end(&self) -> SimTime {
        self.ts + self.dur
    }

    /// Exclusive end offset of the byte range touched, saturating at
    /// `u64::MAX` ([`Trace::validate`] rejects a range that overflows).
    pub fn end_offset(&self) -> u64 {
        self.offset.saturating_add(self.len.get())
    }
}

/// Aggregate statistics, matching the columns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of distinct files (Table 3 "# File").
    pub files: usize,
    /// Total size of the file set (Table 3 "Size(MB)").
    pub footprint: Bytes,
    /// Number of read/write records.
    pub records: usize,
    /// Total bytes requested (reads + writes, before cache effects).
    pub requested: Bytes,
    /// Bytes read.
    pub read_bytes: Bytes,
    /// Bytes written.
    pub written_bytes: Bytes,
    /// Wall-clock span of the collection run.
    pub span: Dur,
}

/// A complete application trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Human-readable workload name ("grep", "make", …).
    pub name: String,
    /// Files referenced.
    pub files: FileSet,
    /// Time-ordered records.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// New empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            files: FileSet::new(),
            records: Vec::new(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Completion instant of the last record (epoch for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total bytes requested across all records.
    pub fn total_bytes(&self) -> Bytes {
        self.records.iter().map(|r| r.len).sum()
    }

    /// Table-3-style statistics.
    pub fn stats(&self) -> TraceStats {
        let read_bytes = self
            .records
            .iter()
            .filter(|r| r.op == IoOp::Read)
            .map(|r| r.len)
            .sum();
        let written_bytes = self
            .records
            .iter()
            .filter(|r| r.op == IoOp::Write)
            .map(|r| r.len)
            .sum();
        let start = self.records.first().map(|r| r.ts).unwrap_or(SimTime::ZERO);
        TraceStats {
            files: self.files.len(),
            footprint: self.files.total_size(),
            records: self.records.len(),
            requested: self.total_bytes(),
            read_bytes,
            written_bytes,
            span: self.end_time().saturating_since(start),
        }
    }

    /// Validate internal consistency: timestamps non-decreasing, no
    /// record ending past the end of time, every record references a
    /// known file and stays within its bounds, and no zero-length
    /// requests. A record-level [`Error::Parse`] carries the 1-based
    /// record index as its `line`.
    pub fn validate(&self) -> Result<()> {
        self.file_sizes().map(|_| ())
    }

    /// [`Trace::validate`], returning the size of each record's file
    /// by record index: the one file-table lookup per record a replay
    /// needs, made by the pass that checks it.
    pub fn file_sizes(&self) -> Result<Vec<Bytes>> {
        let mut sizes = Vec::with_capacity(self.records.len());
        let mut prev = SimTime::ZERO;
        for (i, r) in self.records.iter().enumerate() {
            if r.ts < prev {
                return Err(Error::Parse {
                    line: i + 1,
                    msg: format!("timestamp goes backwards: {} after {}", r.ts, prev),
                });
            }
            prev = r.ts;
            if r.ts.checked_add(r.dur).is_none() {
                return Err(Error::Parse {
                    line: i + 1,
                    msg: format!("record end overflows: {} + {}", r.ts, r.dur),
                });
            }
            if r.len.is_zero() {
                return Err(Error::Parse {
                    line: i + 1,
                    msg: "zero-length request".into(),
                });
            }
            let meta = self.files.get(r.file).ok_or(Error::UnknownFile(r.file.0))?;
            let end = r.offset.checked_add(r.len.get());
            if end.is_none_or(|end| end > meta.size.get()) {
                return Err(Error::OutOfBounds {
                    inode: r.file.0,
                    end: r.end_offset(),
                    size: meta.size.get(),
                });
            }
            sizes.push(meta.size);
        }
        Ok(sizes)
    }

    /// Sequential composition: run `other` after `self`, separated by
    /// `gap` of think time (the paper's grep→make programming scenario).
    /// File sets are merged; colliding inodes must agree.
    pub fn concat(&self, other: &Trace, gap: Dur) -> Result<Trace> {
        let mut files = self.files.clone();
        files.merge(&other.files)?;
        let shift = self.end_time() + gap;
        let mut records = self.records.clone();
        records.extend(other.records.iter().map(|r| TraceRecord {
            ts: SimTime(shift.as_micros() + r.ts.as_micros()),
            ..*r
        }));
        let t = Trace {
            name: format!("{}+{}", self.name, other.name),
            files,
            records,
        };
        Ok(t)
    }

    /// Concurrent composition: interleave two traces on their original
    /// timestamps (the paper's grep+make ∥ xmms scenario). Record order is
    /// stable on ties (records of `self` first).
    pub fn merge(&self, other: &Trace) -> Result<Trace> {
        let mut files = self.files.clone();
        files.merge(&other.files)?;
        let mut records = Vec::with_capacity(self.records.len() + other.records.len());
        let (mut i, mut j) = (0, 0);
        while i < self.records.len() && j < other.records.len() {
            if other.records[j].ts < self.records[i].ts {
                records.push(other.records[j]);
                j += 1;
            } else {
                records.push(self.records[i]);
                i += 1;
            }
        }
        records.extend_from_slice(&self.records[i..]);
        records.extend_from_slice(&other.records[j..]);
        Ok(Trace {
            name: format!("{}||{}", self.name, other.name),
            files,
            records,
        })
    }

    /// The set of pids appearing in the trace, in first-appearance order.
    pub fn pids(&self) -> Vec<u32> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.pid) {
                seen.push(r.pid);
            }
        }
        seen
    }

    /// The set of process groups, in first-appearance order. Each group
    /// is one program (§2.1) and replays as one closed loop.
    pub fn groups(&self) -> Vec<u32> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.pgid) {
                seen.push(r.pgid);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u64, size: u64) -> FileMeta {
        FileMeta {
            id: FileId(id),
            name: format!("f{id}"),
            size: Bytes(size),
        }
    }

    fn rec(pid: u32, id: u64, off: u64, len: u64, ts_us: u64, dur_us: u64) -> TraceRecord {
        TraceRecord {
            pid,
            pgid: pid / 100 * 100,
            file: FileId(id),
            op: IoOp::Read,
            offset: off,
            len: Bytes(len),
            ts: SimTime(ts_us),
            dur: Dur(dur_us),
        }
    }

    fn tiny_trace() -> Trace {
        let mut t = Trace::new("t");
        t.files.insert(file(1, 1000));
        t.files.insert(file(2, 500));
        t.records.push(rec(10, 1, 0, 100, 0, 50));
        t.records.push(rec(10, 2, 0, 500, 1_000, 30));
        t
    }

    #[test]
    fn stats_count_table3_columns() {
        let t = tiny_trace();
        let s = t.stats();
        assert_eq!(s.files, 2);
        assert_eq!(s.footprint, Bytes(1500));
        assert_eq!(s.records, 2);
        assert_eq!(s.requested, Bytes(600));
        assert_eq!(s.read_bytes, Bytes(600));
        assert_eq!(s.written_bytes, Bytes::ZERO);
        assert_eq!(s.span, Dur(1_030));
    }

    #[test]
    fn validate_accepts_good_trace() {
        tiny_trace().validate().unwrap();
    }

    #[test]
    fn validate_rejects_unknown_file() {
        let mut t = tiny_trace();
        t.records.push(rec(10, 99, 0, 1, 2_000, 1));
        assert!(matches!(t.validate(), Err(Error::UnknownFile(99))));
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let mut t = tiny_trace();
        t.records.push(rec(10, 2, 400, 200, 2_000, 1));
        assert!(matches!(
            t.validate(),
            Err(Error::OutOfBounds { inode: 2, .. })
        ));
    }

    #[test]
    fn validate_rejects_an_overflowing_end() {
        // Even a file as large as u64::MAX cannot hold a range that wraps.
        let mut t = tiny_trace();
        t.files.insert(file(3, u64::MAX));
        t.records.push(rec(10, 3, u64::MAX, 10, 2_000, 1));
        assert!(matches!(
            t.validate(),
            Err(Error::OutOfBounds { inode: 3, .. })
        ));
    }

    #[test]
    fn validate_rejects_an_overflowing_end_in_time() {
        let mut t = tiny_trace();
        t.records.push(rec(10, 1, 0, 1, u64::MAX, 5));
        assert!(matches!(t.validate(), Err(Error::Parse { line: 3, .. })));
        // The last representable end is fine.
        t.records.last_mut().unwrap().dur = Dur::ZERO;
        t.validate().unwrap();
        t.stats();
    }

    #[test]
    fn validate_rejects_time_reversal() {
        let mut t = tiny_trace();
        t.records.push(rec(10, 1, 0, 1, 500, 1)); // before previous ts 1000
        assert!(matches!(t.validate(), Err(Error::Parse { line: 3, .. })));
    }

    #[test]
    fn validate_rejects_zero_length() {
        let mut t = tiny_trace();
        t.records.push(rec(10, 1, 0, 0, 2_000, 1));
        assert!(t.validate().is_err());
    }

    #[test]
    fn concat_shifts_second_trace() {
        let a = tiny_trace();
        let mut b = Trace::new("b");
        b.files.insert(file(3, 100));
        b.records.push(rec(20, 3, 0, 100, 0, 10));
        let c = a.concat(&b, Dur::from_secs(1)).unwrap();
        assert_eq!(c.records.len(), 3);
        // a ends at 1030us; gap 1s; b's record lands at 1_001_030us.
        assert_eq!(c.records[2].ts, SimTime(1_001_030));
        assert_eq!(c.files.len(), 3);
        c.validate().unwrap();
        assert_eq!(c.name, "t+b");
    }

    #[test]
    fn concat_rejects_conflicting_inodes() {
        let a = tiny_trace();
        let mut b = Trace::new("b");
        b.files.insert(file(1, 42)); // inode 1 already size 1000
        assert!(a.concat(&b, Dur::ZERO).is_err());
    }

    #[test]
    fn merge_interleaves_by_timestamp() {
        let a = tiny_trace(); // ts 0, 1000
        let mut b = Trace::new("b");
        b.files.insert(file(3, 100));
        b.records.push(rec(20, 3, 0, 50, 500, 10));
        b.records.push(rec(20, 3, 50, 50, 1_500, 10));
        let m = a.merge(&b).unwrap();
        let ts: Vec<u64> = m.records.iter().map(|r| r.ts.as_micros()).collect();
        assert_eq!(ts, vec![0, 500, 1_000, 1_500]);
        m.validate().unwrap();
    }

    #[test]
    fn merge_is_stable_on_ties() {
        let a = tiny_trace();
        let mut b = Trace::new("b");
        b.files.insert(file(3, 100));
        b.records.push(rec(20, 3, 0, 50, 0, 10)); // tie with a's first record
        let m = a.merge(&b).unwrap();
        assert_eq!(m.records[0].pid, 10, "self's record wins ties");
        assert_eq!(m.records[1].pid, 20);
    }

    #[test]
    fn pids_in_first_appearance_order() {
        let mut t = tiny_trace();
        t.records.push(rec(99, 1, 0, 1, 2_000, 1));
        t.records.push(rec(10, 1, 0, 1, 3_000, 1));
        assert_eq!(t.pids(), vec![10, 99]);
    }

    #[test]
    fn fileset_total_and_merge() {
        let mut fs = FileSet::new();
        fs.insert(file(1, 10));
        let mut fs2 = FileSet::new();
        fs2.insert(file(1, 10)); // identical duplicate is fine
        fs2.insert(file(2, 20));
        fs.merge(&fs2).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.total_size(), Bytes(30));
    }

    #[test]
    fn record_end_helpers() {
        let r = rec(1, 1, 100, 50, 7, 3);
        assert_eq!(r.end(), SimTime(10));
        assert_eq!(r.end_offset(), 150);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.end_time(), SimTime::ZERO);
        assert_eq!(t.total_bytes(), Bytes::ZERO);
        t.validate().unwrap();
    }
}
