//! I/O burst extraction (§2.1).
//!
//! *"We define an I/O burst as a sequence of read/write system calls
//! where the think time is less than the I/O burst threshold. In our
//! experiments we set the threshold as the disk access time … Multiple
//! requests that sequentially access the same file are merged into one
//! request of size up to 128 KB, the maximum prefetching window size in
//! Linux, to simulate the prefetch effects."*

use ff_base::{Bytes, Dur, SimTime};
use ff_trace::{FileId, IoOp, Trace};

/// One merged request inside a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedRequest {
    /// The file accessed.
    pub file: FileId,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset of the merged range.
    pub offset: u64,
    /// Merged length (≤ the merge window unless a single call was bigger).
    pub len: Bytes,
}

impl MergedRequest {
    /// Exclusive end offset.
    pub fn end_offset(&self) -> u64 {
        self.offset + self.len.get()
    }
}

/// A sequence of system calls with sub-threshold think gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct IoBurst {
    /// Issue time of the first call (collection run).
    pub start: SimTime,
    /// Completion time of the last call (collection run).
    pub end: SimTime,
    /// Merged requests, in order.
    pub requests: Vec<MergedRequest>,
}

impl IoBurst {
    /// Total bytes requested in the burst.
    pub fn bytes(&self) -> Bytes {
        self.requests.iter().map(|r| r.len).sum()
    }

    /// Collection-run duration of the burst.
    pub fn duration(&self) -> Dur {
        self.end.saturating_since(self.start)
    }

    /// Number of merged requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True iff the burst holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// A burst plus the think time separating it from the next one.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledBurst {
    /// The burst.
    pub burst: IoBurst,
    /// Think time until the next burst (zero for the final burst).
    pub gap_after: Dur,
}

impl ProfiledBurst {
    /// Wall-clock contribution of this entry: burst duration + gap.
    pub fn span(&self) -> Dur {
        self.burst.duration() + self.gap_after
    }
}

/// Burst extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstExtractor {
    /// Think gaps at or above this end the burst (§2.1: the disk access
    /// time — 13 ms seek + 7 ms rotation = 20 ms).
    pub threshold: Dur,
    /// Maximum merged-request size (§2.1: 128 KiB, the Linux prefetch
    /// window).
    pub merge_window: Bytes,
}

impl Default for BurstExtractor {
    fn default() -> Self {
        BurstExtractor {
            threshold: Dur::from_millis(20),
            merge_window: Bytes::kib(128),
        }
    }
}

impl BurstExtractor {
    /// Extract the burst sequence (with inter-burst think times) from a
    /// trace by feeding every record, in order, through an
    /// [`OnlineBurstBuilder`]: the offline profiler and the on-line one
    /// share one burst rule. The trailing entry's `gap_after` is zero.
    pub fn extract(&self, trace: &Trace) -> Vec<ProfiledBurst> {
        let mut online = OnlineBurstBuilder::new(*self);
        for r in &trace.records {
            // Type-qualified so ff-lint's call graph links this one
            // `observe`, not every workspace method of that name.
            OnlineBurstBuilder::observe(&mut online, r.ts, r.end(), r.file, r.op, r.offset, r.len);
        }
        online.flush()
    }
}

/// Incremental burst construction from live events (§2.3.1: *"a new
/// profile is being generated for the current execution"*).
///
/// Feed completed application requests in time order; bursts are
/// closed when a think gap at or above the threshold is observed. The
/// gap is measured from the latest completion seen so far, and a burst
/// ends at the latest completion among its calls: when process groups
/// interleave, a short call nested inside another group's long one
/// neither opens a false gap nor pulls the burst's end back.
#[derive(Debug, Clone)]
pub struct OnlineBurstBuilder {
    params: BurstExtractor,
    current: Option<IoBurst>,
    prev_end: SimTime,
    completed: Vec<ProfiledBurst>,
}

impl OnlineBurstBuilder {
    /// Builder with the given extraction parameters.
    pub fn new(params: BurstExtractor) -> Self {
        OnlineBurstBuilder {
            params,
            current: None,
            prev_end: SimTime::ZERO,
            completed: Vec::new(),
        }
    }

    /// Record one application request: issued at `start`, completed at
    /// `end`.
    pub fn observe(
        &mut self,
        start: SimTime,
        end: SimTime,
        file: FileId,
        op: IoOp,
        offset: u64,
        len: Bytes,
    ) {
        let gap = start.saturating_since(self.prev_end);
        if gap >= self.params.threshold {
            if let Some(burst) = self.current.take() {
                self.completed.push(ProfiledBurst {
                    burst,
                    gap_after: gap,
                });
            }
        }
        let rec = MergedRequest {
            file,
            op,
            offset,
            len,
        };
        match &mut self.current {
            Some(burst) => {
                burst.end = end.max(burst.end);
                push_merged(&mut burst.requests, rec, self.params.merge_window);
            }
            None => {
                self.current = Some(IoBurst {
                    start,
                    end,
                    requests: vec![rec],
                });
            }
        }
        self.prev_end = self.prev_end.max(end);
    }

    /// Bursts fully closed so far (drains them).
    pub fn take_completed(&mut self) -> Vec<ProfiledBurst> {
        std::mem::take(&mut self.completed)
    }

    /// Force-close the currently open burst (zero trailing gap) — used at
    /// evaluation-stage boundaries so a burst spanning the boundary is
    /// split and the finished part becomes visible to the stage's audit.
    pub fn split_now(&mut self) {
        if let Some(burst) = self.current.take() {
            self.completed.push(ProfiledBurst {
                burst,
                gap_after: Dur::ZERO,
            });
        }
    }

    /// All bursts including the still-open one (gap zero), draining state.
    pub fn flush(&mut self) -> Vec<ProfiledBurst> {
        let mut out = std::mem::take(&mut self.completed);
        if let Some(burst) = self.current.take() {
            out.push(ProfiledBurst {
                burst,
                gap_after: Dur::ZERO,
            });
        }
        out
    }

    /// Bytes observed so far (closed + open bursts).
    pub fn observed_bytes(&self) -> Bytes {
        let closed: Bytes = self.completed.iter().map(|b| b.burst.bytes()).sum();
        closed
            + self
                .current
                .as_ref()
                .map(|b| b.bytes())
                .unwrap_or(Bytes::ZERO)
    }
}

fn push_merged(reqs: &mut Vec<MergedRequest>, rec: MergedRequest, window: Bytes) {
    if let Some(last) = reqs.last_mut() {
        let contiguous =
            last.file == rec.file && last.op == rec.op && last.end_offset() == rec.offset;
        if contiguous && last.len.get() + rec.len.get() <= window.get() {
            last.len += rec.len;
            return;
        }
    }
    reqs.push(rec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_trace::TraceRecord;

    fn rec(ts_us: u64, dur_us: u64, file: u64, off: u64, len: u64) -> TraceRecord {
        TraceRecord {
            pid: 1,
            pgid: 1,
            file: FileId(file),
            op: IoOp::Read,
            offset: off,
            len: Bytes(len),
            ts: SimTime(ts_us),
            dur: Dur(dur_us),
        }
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        // Tests here don't need a valid file set; extraction never looks
        // at file metadata.
        Trace {
            name: "t".into(),
            files: Default::default(),
            records,
        }
    }

    #[test]
    fn single_burst_from_dense_calls() {
        let t = trace(vec![
            rec(0, 100, 1, 0, 1000),
            rec(200, 100, 1, 5000, 1000), // 100 us gap
            rec(400, 100, 2, 0, 1000),    // 100 us gap
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].burst.bytes(), Bytes(3000));
        assert_eq!(bursts[0].gap_after, Dur::ZERO);
    }

    #[test]
    fn threshold_splits_bursts() {
        let t = trace(vec![
            rec(0, 100, 1, 0, 1000),
            // gap = 25 ms ≥ 20 ms threshold → new burst
            rec(25_100, 100, 1, 5000, 1000),
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].gap_after, Dur::from_millis(25));
        assert_eq!(bursts[1].gap_after, Dur::ZERO);
    }

    #[test]
    fn gap_is_measured_from_call_end_not_start() {
        // Call takes 30 ms; next call starts 5 ms after it ENDS. The
        // inter-call distance from issue to issue is 35 ms but the think
        // time is only 5 ms — same burst.
        let t = trace(vec![
            rec(0, 30_000, 1, 0, 1000),
            rec(35_000, 100, 1, 1000, 1000),
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts.len(), 1);
    }

    #[test]
    fn sequential_same_file_merges() {
        let t = trace(vec![
            rec(0, 10, 1, 0, 4096),
            rec(20, 10, 1, 4096, 4096),
            rec(40, 10, 1, 8192, 4096),
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts[0].burst.requests.len(), 1);
        assert_eq!(bursts[0].burst.requests[0].len, Bytes(3 * 4096));
    }

    #[test]
    fn merge_caps_at_window() {
        let window = Bytes::kib(128);
        // 40 sequential 4 KiB reads = 160 KiB > 128 KiB window.
        let records: Vec<_> = (0..40)
            .map(|i| rec(i * 20, 10, 1, i * 4096, 4096))
            .collect();
        let bursts = BurstExtractor::default().extract(&trace(records));
        let reqs = &bursts[0].burst.requests;
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].len, window);
        assert_eq!(reqs[1].len, Bytes(40 * 4096 - window.get()));
    }

    #[test]
    fn non_contiguous_or_cross_file_do_not_merge() {
        let t = trace(vec![
            rec(0, 10, 1, 0, 4096),
            rec(20, 10, 1, 100_000, 4096), // jump within file
            rec(40, 10, 2, 104_096, 4096), // different file
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts[0].burst.requests.len(), 3);
    }

    #[test]
    fn writes_do_not_merge_with_reads() {
        let mut w = rec(20, 10, 1, 4096, 4096);
        w.op = IoOp::Write;
        let t = trace(vec![rec(0, 10, 1, 0, 4096), w]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts[0].burst.requests.len(), 2);
    }

    #[test]
    fn empty_trace_gives_no_bursts() {
        let bursts = BurstExtractor::default().extract(&trace(vec![]));
        assert!(bursts.is_empty());
    }

    #[test]
    fn burst_spans_and_bytes() {
        let t = trace(vec![
            rec(0, 1000, 1, 0, 500),
            rec(30_000, 2000, 1, 500, 700),
        ]);
        let bursts = BurstExtractor::default().extract(&t);
        assert_eq!(bursts[0].burst.duration(), Dur::from_millis(1));
        assert_eq!(
            bursts[0].span(),
            Dur::from_micros(1000) + Dur::from_micros(29_000)
        );
        assert_eq!(bursts[1].burst.bytes(), Bytes(700));
    }

    #[test]
    fn overlapping_groups_measure_gaps_from_the_latest_completion() {
        // Group 1 issues a 100 ms call; group 2's 1 ms call runs inside
        // it; group 1's next call starts 10 ms after the long call ends.
        // Measured from the nested call's end the gap would be 109 ms.
        let mut short = rec(50_000, 1_000, 2, 0, 1000);
        short.pid = 2;
        short.pgid = 2;
        let records = vec![
            rec(0, 100_000, 1, 0, 1000),
            short,
            rec(110_000, 100, 1, 1000, 1000),
        ];
        let x = BurstExtractor::default();
        let nested = x.extract(&trace(records[..2].to_vec()));
        assert_eq!(nested.len(), 1);
        assert_eq!(
            nested[0].burst.end,
            SimTime(100_000),
            "ends with the long call"
        );
        let bursts = x.extract(&trace(records));
        assert_eq!(bursts.len(), 1, "the nested call must not split the burst");
        assert_eq!(bursts[0].burst.end, SimTime(110_100));
        assert_eq!(bursts[0].burst.bytes(), Bytes(3000));
    }

    #[test]
    fn online_builder_tracks_bytes_and_drains() {
        let mut b = OnlineBurstBuilder::new(BurstExtractor::default());
        b.observe(
            SimTime(0),
            SimTime(10),
            FileId(1),
            IoOp::Read,
            0,
            Bytes(100),
        );
        assert_eq!(b.observed_bytes(), Bytes(100));
        // Big gap closes the first burst.
        b.observe(
            SimTime(100_000),
            SimTime(100_010),
            FileId(1),
            IoOp::Read,
            100,
            Bytes(50),
        );
        assert_eq!(b.observed_bytes(), Bytes(150));
        let closed = b.take_completed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].gap_after, Dur::from_micros(99_990));
        // Bytes counter unaffected by draining closed bursts? It counts
        // only what remains.
        assert_eq!(b.observed_bytes(), Bytes(50));
        let rest = b.flush();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn split_now_closes_the_open_burst() {
        let mut b = OnlineBurstBuilder::new(BurstExtractor::default());
        b.observe(
            SimTime(0),
            SimTime(10),
            FileId(1),
            IoOp::Read,
            0,
            Bytes(100),
        );
        assert!(b.take_completed().is_empty(), "burst still open");
        b.split_now();
        let closed = b.take_completed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].gap_after, Dur::ZERO);
        // Continuing I/O starts a fresh burst.
        b.observe(
            SimTime(20),
            SimTime(30),
            FileId(1),
            IoOp::Read,
            100,
            Bytes(50),
        );
        b.split_now();
        assert_eq!(b.take_completed().len(), 1);
        assert_eq!(b.observed_bytes(), Bytes::ZERO);
    }

    #[test]
    fn grep_trace_is_one_burst_make_is_many() {
        use ff_trace::{Grep, Make, Workload};
        let x = BurstExtractor::default();
        let grep = x.extract(
            &Grep {
                files: 50,
                total_bytes: 2_000_000,
                ..Default::default()
            }
            .build(1),
        );
        assert_eq!(grep.len(), 1, "grep must profile as a single burst");
        let make = x.extract(
            &Make {
                units: 10,
                headers: 20,
                misc: 2,
                input_bytes: 1_000_000,
                ..Default::default()
            }
            .build(1),
        );
        assert!(
            make.len() > 10,
            "make must profile as many bursts, got {}",
            make.len()
        );
    }
}
