//! Shared machinery for trace generators.

use crate::model::{FileId, FileMeta, IoOp, Trace, TraceRecord};
use ff_base::{Bytes, BytesPerSec, Dur, SimTime};

/// Incremental trace construction with a virtual clock.
///
/// Timestamps/durations emitted here describe the *collection run* — the
/// run on which the profile was recorded. We assume collection happened on
/// the local disk (the common case for a hoarding setup), so read service
/// times are `seek+rotation` for the first access of a file plus transfer
/// at the disk's peak bandwidth; writes land in the page cache and take
/// ~1 µs/page. What the replayer later consumes are the **gaps** between
/// calls, which are device-independent think times (§2.1).
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    /// Process group all emitted records belong to (one program).
    pgid: u32,
    /// Virtual collection-run clock.
    now: SimTime,
    /// Next inode to hand out.
    next_inode: u64,
    /// File whose last byte was the previous read's end (sequential run
    /// detection for collection durations).
    last_read: Option<(FileId, u64)>,
}

/// Collection-run disk characteristics (Hitachi DK23DA, Table 1 text).
const COLLECT_SEEK_ROT: Dur = Dur::from_millis(20);
const COLLECT_BW_MB_S: f64 = 35.0;
/// Collection-run write cost: page-cache memcpy, ~1 µs per 4 KiB page.
const WRITE_US_PER_PAGE: u64 = 1;

impl TraceBuilder {
    /// Start a trace named `name`, handing out inodes from `base_inode`.
    ///
    /// Each workload uses a disjoint inode namespace so composite
    /// scenarios (grep+make ∥ xmms) can merge file sets without
    /// collisions.
    pub fn new(name: impl Into<String>, base_inode: u64) -> Self {
        TraceBuilder {
            trace: Trace::new(name),
            pgid: 0,
            now: SimTime::ZERO,
            next_inode: base_inode,
            last_read: None,
        }
    }

    /// Current virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a file and return its id.
    pub fn add_file(&mut self, name: impl Into<String>, size: Bytes) -> FileId {
        let id = FileId(self.next_inode);
        self.next_inode += 1;
        self.trace.files.insert(FileMeta {
            id,
            name: name.into(),
            size,
        });
        id
    }

    /// Size of a registered file. Asking for an id this builder never
    /// handed out is a workload-generator bug: debug builds assert,
    /// release builds degrade to zero (the caller then emits no I/O for
    /// the phantom file instead of aborting the simulation).
    pub fn file_size(&self, id: FileId) -> Bytes {
        let size = self.trace.files.get(id).map(|m| m.size);
        debug_assert!(size.is_some(), "unregistered file {id:?}");
        size.unwrap_or(Bytes::ZERO)
    }

    /// Advance the clock without I/O (application think/compute time).
    pub fn think(&mut self, d: Dur) {
        self.now += d;
    }

    /// Emit one read; advances the clock by the collection-run service
    /// time (seek+rotation unless sequential with the previous read, plus
    /// transfer at peak disk bandwidth).
    pub fn read(&mut self, pid: u32, file: FileId, offset: u64, len: Bytes) {
        debug_assert!(!len.is_zero(), "zero-length read");
        let sequential = self.last_read == Some((file, offset));
        let mut dur = BytesPerSec::from_mb_per_sec(COLLECT_BW_MB_S).transfer_time(len);
        if !sequential {
            dur += COLLECT_SEEK_ROT;
        }
        self.push(pid, file, IoOp::Read, offset, len, dur);
        self.last_read = Some((file, offset + len.get()));
    }

    /// Emit one write; advances the clock by the page-cache copy time.
    pub fn write(&mut self, pid: u32, file: FileId, offset: u64, len: Bytes) {
        debug_assert!(!len.is_zero(), "zero-length write");
        let dur = Dur::from_micros(len.pages().max(1) * WRITE_US_PER_PAGE);
        self.push(pid, file, IoOp::Write, offset, len, dur);
    }

    fn push(&mut self, pid: u32, file: FileId, op: IoOp, offset: u64, len: Bytes, dur: Dur) {
        if self.pgid == 0 {
            self.pgid = pid;
        }
        let pgid = self.pgid;
        self.trace.records.push(TraceRecord {
            pid,
            pgid,
            file,
            op,
            offset,
            len,
            ts: self.now,
            dur,
        });
        self.now += dur;
    }

    /// Read a whole byte range sequentially in `chunk`-sized calls with
    /// `inter_chunk_think` between them (zero keeps the range in one
    /// burst).
    pub fn read_range(
        &mut self,
        pid: u32,
        file: FileId,
        start: u64,
        len: Bytes,
        chunk: Bytes,
        inter_chunk_think: Dur,
    ) {
        debug_assert!(!chunk.is_zero());
        let mut off = start;
        let end = start + len.get();
        while off < end {
            let n = chunk.get().min(end - off);
            self.read(pid, file, off, Bytes(n));
            off += n;
            if off < end && !inter_chunk_think.is_zero() {
                self.think(inter_chunk_think);
            }
        }
    }

    /// Read an entire file sequentially in one burst.
    pub fn read_file(&mut self, pid: u32, file: FileId, chunk: Bytes) {
        let size = self.file_size(file);
        self.read_range(pid, file, 0, size, chunk, Dur::ZERO);
    }

    /// Finish and return the trace (debug-asserts validity).
    pub fn finish(self) -> Trace {
        debug_assert!(
            self.trace.validate().is_ok(),
            "builder produced invalid trace"
        );
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_service_time_and_think() {
        let mut b = TraceBuilder::new("t", 100);
        let f = b.add_file("a", Bytes::kib(64));
        b.read(1, f, 0, Bytes::kib(32));
        let after_first = b.now();
        // Random access: 20 ms + 32 KiB / 35 MB/s (~0.94 ms).
        assert!(after_first > SimTime::from_millis(20));
        assert!(after_first < SimTime::from_millis(22));
        b.think(Dur::from_secs(1));
        b.read(1, f, 32 * 1024, Bytes::kib(32));
        let t = b.finish();
        assert_eq!(t.records.len(), 2);
        // Second read is sequential with the first: no seek component.
        assert!(
            t.records[1].dur < Dur::from_millis(2),
            "dur {}",
            t.records[1].dur
        );
        // Gap between records is at least the think time.
        let gap = t.records[1].ts - t.records[0].end();
        assert_eq!(gap, Dur::from_secs(1));
    }

    #[test]
    fn non_contiguous_read_pays_seek_again() {
        let mut b = TraceBuilder::new("t", 100);
        let f = b.add_file("a", Bytes::mib(1));
        b.read(1, f, 0, Bytes::kib(4));
        b.read(1, f, 512 * 1024, Bytes::kib(4)); // jump
        let t = b.finish();
        assert!(t.records[1].dur >= Dur::from_millis(20));
    }

    #[test]
    fn read_range_covers_exactly_and_stays_in_bounds() {
        let mut b = TraceBuilder::new("t", 100);
        let f = b.add_file("a", Bytes(100_000));
        b.read_range(1, f, 0, Bytes(100_000), Bytes::kib(32), Dur::ZERO);
        let t = b.finish();
        let total: u64 = t.records.iter().map(|r| r.len.get()).sum();
        assert_eq!(total, 100_000);
        // Last chunk is the remainder, not a full chunk.
        assert_eq!(t.records.last().unwrap().len, Bytes(100_000 % (32 * 1024)));
        t.validate().unwrap();
    }

    #[test]
    fn read_file_reads_whole_file() {
        let mut b = TraceBuilder::new("t", 100);
        let f = b.add_file("a", Bytes::kib(100));
        b.read_file(1, f, Bytes::kib(32));
        let t = b.finish();
        assert_eq!(t.total_bytes(), Bytes::kib(100));
    }

    #[test]
    fn inodes_are_handed_out_from_base() {
        let mut b = TraceBuilder::new("t", 5_000);
        let a = b.add_file("a", Bytes(1));
        let c = b.add_file("c", Bytes(1));
        assert_eq!(a, FileId(5_000));
        assert_eq!(c, FileId(5_001));
    }

    #[test]
    fn writes_are_cheap_in_collection_run() {
        let mut b = TraceBuilder::new("t", 100);
        let f = b.add_file("a", Bytes::mib(1));
        b.write(1, f, 0, Bytes::kib(40));
        let t = b.finish();
        assert!(t.records[0].dur <= Dur::from_micros(10));
    }
}
