//! The buffer-cache front end.
//!
//! [`BufferCache`] is what the replayer talks to: application reads and
//! writes land here first, and only *misses* (plus readahead and
//! write-back traffic) ever reach a storage device — the prerequisite for
//! FlexFetch's cache-effect handling (§2.3.2).

use crate::page::{pages_covering, PageKey};
use crate::readahead::Readahead;
use crate::twoq::TwoQ;
use crate::writeback::{Writeback, WritebackConfig};
use ff_base::{Bytes, SimTime};
use ff_trace::FileId;

/// Buffer-cache tuning.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Resident capacity in 4 KiB pages (default 32768 = 128 MiB, a
    /// plausible 2007-laptop memory budget for page cache).
    pub capacity_pages: usize,
    /// Maximum readahead window in pages (paper/Linux: 32 = 128 KiB).
    pub readahead_max_pages: u64,
    /// Write-back behaviour.
    pub writeback: WritebackConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_pages: 32_768,
            readahead_max_pages: 32,
            writeback: WritebackConfig::default(),
        }
    }
}

/// What a read did at the cache level.
#[derive(Debug, Clone, Default)]
pub struct ReadOutcome {
    /// Pages found resident.
    pub hit_pages: u64,
    /// Demand misses as contiguous page runs `(first_page, n_pages)` —
    /// these must be fetched synchronously from a device.
    pub demand: Vec<(u64, u64)>,
    /// Readahead pages to fetch alongside (already counted resident).
    pub prefetch: Vec<(u64, u64)>,
    /// Dirty pages evicted to make room — must be written out.
    pub evicted_dirty: Vec<PageKey>,
}

impl ReadOutcome {
    /// Total pages that must be fetched (demand + prefetch).
    pub fn fetch_pages(&self) -> u64 {
        self.demand.iter().map(|&(_, n)| n).sum::<u64>()
            + self.prefetch.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// True iff every demand page was resident.
    pub fn fully_hit(&self) -> bool {
        self.demand.is_empty()
    }
}

/// What a write did at the cache level.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Dirty pages evicted to make room — must be written out now.
    pub evicted_dirty: Vec<PageKey>,
}

/// Lifetime activity counters, as sampled by [`BufferCache::stats`].
///
/// These are cumulative since construction; the observability layer
/// diffs successive samples to attribute activity to simulation stages.
///
/// ```
/// use ff_base::{Bytes, SimTime};
/// use ff_cache::{BufferCache, CacheConfig};
/// use ff_trace::FileId;
///
/// let mut c = BufferCache::new(CacheConfig::default());
/// c.read(SimTime::ZERO, FileId(1), 0, Bytes(4096), Bytes(40 * 4096));
/// let s = c.stats();
/// assert_eq!((s.hits, s.misses), (0, 1));
/// assert!(s.readahead_pages > 0, "sequential start should prefetch");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand pages found resident.
    pub hits: u64,
    /// Demand pages that required device I/O.
    pub misses: u64,
    /// Pages fetched speculatively by the readahead engine.
    pub readahead_pages: u64,
    /// Write-back flush rounds that produced at least one page.
    pub flushes: u64,
    /// Dirty pages pushed out by those flush rounds (including the
    /// final sync performed by [`BufferCache::flush_all`]).
    pub flushed_pages: u64,
}

/// The combined 2Q + readahead + write-back cache.
#[derive(Debug, Clone)]
pub struct BufferCache {
    twoq: TwoQ,
    readahead: Readahead,
    writeback: Writeback,
    hits: u64,
    misses: u64,
    readahead_pages: u64,
    flushes: u64,
    flushed_pages: u64,
}

impl BufferCache {
    /// Build from config.
    pub fn new(config: CacheConfig) -> Self {
        BufferCache {
            twoq: TwoQ::new(config.capacity_pages),
            readahead: Readahead::new(config.readahead_max_pages),
            writeback: Writeback::new(config.writeback),
            hits: 0,
            misses: 0,
            readahead_pages: 0,
            flushes: 0,
            flushed_pages: 0,
        }
    }

    /// Application read of `len` bytes at `offset` in `file` (whose total
    /// size is `file_size`). Returns hits, demand-miss runs, and the
    /// readahead to issue.
    pub fn read(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: Bytes,
        file_size: Bytes,
    ) -> ReadOutcome {
        let _ = now;
        let mut out = ReadOutcome::default();
        if len.is_zero() {
            return out;
        }
        let mut evicted = Vec::new();
        let pages = pages_covering(offset, len.get());
        let (first, last) = (*pages.start(), *pages.end());

        // Demand pages: classify hits vs misses, merging misses into runs.
        let mut run: Option<(u64, u64)> = None;
        for p in pages {
            let key = PageKey { file, index: p };
            let access = self.twoq.touch(key, &mut evicted);
            if access.is_hit() {
                self.hits += 1;
                out.hit_pages += 1;
                if let Some(r) = run.take() {
                    out.demand.push(r);
                }
            } else {
                self.misses += 1;
                match &mut run {
                    Some((_, n)) => *n += 1,
                    None => run = Some((p, 1)),
                }
            }
        }
        if let Some(r) = run.take() {
            out.demand.push(r);
        }

        // Readahead: ask the engine, clamp to the file, and make the
        // prefetched pages resident (they ride the same device I/O).
        if let Some((start, n)) = self.readahead.on_access(file, first, last) {
            let file_pages = file_size.pages();
            let mut pstart = None;
            let mut plen = 0;
            for p in start..start + n {
                if p >= file_pages {
                    break;
                }
                let key = PageKey { file, index: p };
                if !self.twoq.contains(key) {
                    self.twoq.touch(key, &mut evicted);
                    if pstart.is_none() {
                        pstart = Some(p);
                    }
                    plen += 1;
                } else if let Some(s) = pstart.take() {
                    out.prefetch.push((s, plen));
                    plen = 0;
                }
            }
            if let Some(s) = pstart {
                out.prefetch.push((s, plen));
            }
        }
        self.readahead_pages += out.prefetch.iter().map(|&(_, n)| n).sum::<u64>();
        out.evicted_dirty = evicted
            .into_iter()
            .filter(|k| self.writeback.on_evict(*k))
            .collect();
        out
    }

    /// Application write (write-allocate, dirty in cache).
    pub fn write(&mut self, now: SimTime, file: FileId, offset: u64, len: Bytes) -> WriteOutcome {
        let mut out = WriteOutcome::default();
        if len.is_zero() {
            return out;
        }
        let mut evicted = Vec::new();
        for p in pages_covering(offset, len.get()) {
            let key = PageKey { file, index: p };
            self.twoq.touch(key, &mut evicted);
            self.writeback.mark_dirty(key, now);
        }
        out.evicted_dirty = evicted
            .into_iter()
            .filter(|k| self.writeback.on_evict(*k))
            .collect();
        out
    }

    /// Run the flusher: dirty pages due for write-back at `now`, given
    /// the disk's spin state (laptop-mode rules).
    pub fn flush_due(&mut self, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
        let due = self.writeback.collect_due(now, disk_ready);
        if !due.is_empty() {
            self.flushes += 1;
            self.flushed_pages += due.len() as u64;
        }
        due
    }

    /// Remaining dirty pages (final sync).
    pub fn flush_all(&mut self) -> Vec<PageKey> {
        let drained = self.writeback.drain_all();
        if !drained.is_empty() {
            self.flushes += 1;
            self.flushed_pages += drained.len() as u64;
        }
        drained
    }

    /// Fraction of the byte range currently resident, in [0, 1] — the
    /// §2.3.2 probe ("remove the requests on data that are resident").
    pub fn resident_fraction(&self, file: FileId, offset: u64, len: Bytes) -> f64 {
        if len.is_zero() {
            return 1.0;
        }
        let pages = pages_covering(offset, len.get());
        let (first, last) = (*pages.start(), *pages.end());
        let resident = self.twoq.resident_in(file, first, last);
        resident as f64 / (last - first + 1) as f64
    }

    /// Lifetime hit/miss counters (demand pages only).
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Full lifetime activity counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            readahead_pages: self.readahead_pages,
            flushes: self.flushes,
            flushed_pages: self.flushed_pages,
        }
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.twoq.resident()
    }

    /// Dirty page count.
    pub fn dirty(&self) -> usize {
        self.writeback.dirty_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(7);
    const SZ: Bytes = Bytes(100 * 4096);

    fn cache(pages: usize) -> BufferCache {
        BufferCache::new(CacheConfig {
            capacity_pages: pages,
            ..Default::default()
        })
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut c = cache(64);
        let out = c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        assert_eq!(out.hit_pages, 0);
        assert_eq!(out.demand, vec![(0, 1)]);
        let out = c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        assert!(out.fully_hit());
        assert_eq!(out.hit_pages, 1);
    }

    #[test]
    fn miss_runs_are_contiguous() {
        // Disable readahead so residency is exactly what we planted.
        let mut c = BufferCache::new(CacheConfig {
            capacity_pages: 64,
            readahead_max_pages: 0,
            ..Default::default()
        });
        // Pre-load page 2 so a 5-page read splits into two runs.
        c.read(SimTime::ZERO, F, 2 * 4096, Bytes(4096), SZ);
        let out = c.read(SimTime::ZERO, F, 0, Bytes(5 * 4096), SZ);
        assert_eq!(out.hit_pages, 1);
        assert_eq!(out.demand, vec![(0, 2), (3, 2)]);
    }

    #[test]
    fn readahead_makes_next_pages_resident() {
        let mut c = cache(256);
        let out = c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        assert!(!out.prefetch.is_empty(), "sequential start should prefetch");
        // The prefetched page hits without device I/O.
        let out2 = c.read(SimTime::ZERO, F, 4096, Bytes(4096), SZ);
        assert!(out2.fully_hit(), "page 1 was prefetched");
    }

    #[test]
    fn sequential_scan_mostly_hits_after_warmup() {
        let mut c = cache(256);
        let mut demand_pages = 0u64;
        for p in 0..100u64 {
            let out = c.read(SimTime::ZERO, F, p * 4096, Bytes(4096), SZ);
            demand_pages += out.demand.iter().map(|&(_, n)| n).sum::<u64>();
        }
        // Without readahead this would be 100; windows cut it drastically.
        assert!(
            demand_pages <= 10,
            "demand pages {demand_pages} — readahead inert"
        );
    }

    #[test]
    fn prefetch_clamps_at_eof() {
        let mut c = cache(256);
        let size = Bytes(3 * 4096);
        let out = c.read(SimTime::ZERO, F, 0, Bytes(4096), size);
        let total: u64 = out.prefetch.iter().map(|&(_, n)| n).sum();
        assert!(total <= 2, "prefetched past EOF: {total} pages");
    }

    #[test]
    fn writes_dirty_pages_and_flush_collects_them() {
        let mut c = cache(64);
        c.write(SimTime::ZERO, F, 0, Bytes(8192));
        assert_eq!(c.dirty(), 2);
        // Laptop mode + spinning disk → eager flush at the next wakeup.
        let due = c.flush_due(SimTime::from_secs(6), true);
        assert_eq!(due.len(), 2);
        assert_eq!(c.dirty(), 0);
    }

    #[test]
    fn eviction_of_dirty_page_is_reported() {
        let mut c = cache(4);
        c.write(SimTime::ZERO, F, 0, Bytes(4096));
        // Flood the tiny cache with reads to force the dirty page out.
        let mut reported = Vec::new();
        for p in 10..30u64 {
            let out = c.read(SimTime::ZERO, F, p * 4096, Bytes(4096), SZ);
            reported.extend(out.evicted_dirty);
        }
        assert!(
            reported.contains(&PageKey { file: F, index: 0 }),
            "dirty eviction lost — data-loss bug"
        );
    }

    #[test]
    fn resident_fraction_probe() {
        let mut c = cache(64);
        c.read(SimTime::ZERO, F, 0, Bytes(2 * 4096), SZ);
        assert!((c.resident_fraction(F, 0, Bytes(2 * 4096)) - 1.0).abs() < 1e-12);
        // Pages 0..2 resident (+ prefetch beyond); far range is cold.
        assert_eq!(c.resident_fraction(F, 90 * 4096, Bytes(4 * 4096)), 0.0);
        assert_eq!(c.resident_fraction(F, 0, Bytes::ZERO), 1.0);
    }

    #[test]
    fn hit_stats_accumulate() {
        let mut c = cache(64);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        let (h, m) = c.hit_stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn flush_all_drains_everything() {
        let mut c = cache(64);
        c.write(SimTime::ZERO, F, 0, Bytes(4 * 4096));
        assert_eq!(c.flush_all().len(), 4);
        assert_eq!(c.dirty(), 0);
    }

    #[test]
    fn written_pages_hit_on_subsequent_reads() {
        let mut c = cache(64);
        c.write(SimTime::ZERO, F, 0, Bytes(8192));
        let out = c.read(SimTime::ZERO, F, 0, Bytes(8192), SZ);
        assert!(out.fully_hit(), "write-allocated pages must be readable");
    }

    #[test]
    fn partial_page_write_then_read_of_full_page_hits() {
        // Write-allocate covers the whole page even for a partial write
        // (the simulator models residency, not byte validity — the page
        // would have been read-modify-written in a real kernel).
        let mut c = cache(64);
        c.write(SimTime::ZERO, F, 100, Bytes(50));
        let out = c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        assert!(out.fully_hit());
    }

    #[test]
    fn flusher_respects_wakeup_cadence_across_calls() {
        let mut c = cache(64);
        c.write(SimTime::ZERO, F, 0, Bytes(4096));
        // First wakeup at 6 s flushes (laptop mode, disk ready).
        assert_eq!(c.flush_due(SimTime::from_secs(6), true).len(), 1);
        c.write(SimTime::from_secs(7), F, 4096, Bytes(4096));
        // 2 s later: the flusher is still asleep.
        assert!(c.flush_due(SimTime::from_secs(8), true).is_empty());
        assert_eq!(c.dirty(), 1);
    }

    #[test]
    fn interleaved_files_keep_independent_readahead() {
        let mut c = cache(1024);
        let g = FileId(8);
        let mut demand = 0u64;
        for i in 0..20u64 {
            demand += c
                .read(SimTime::ZERO, F, i * 4096, Bytes(4096), SZ)
                .fetch_pages();
            demand += c
                .read(SimTime::ZERO, g, i * 4096, Bytes(4096), SZ)
                .fetch_pages();
        }
        // Both streams keep their readahead through the interleave: the
        // fetch total is dominated by the doubling windows (4+8+16+32 per
        // stream), not by per-call demand misses.
        assert!(
            demand <= 130,
            "interleaved streams broke readahead: {demand} pages"
        );
        let (h, m) = c.hit_stats();
        assert!(h > m, "most demand pages should hit ({h} vs {m})");
    }

    #[test]
    fn stats_track_readahead_and_flushes() {
        let mut c = cache(256);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), c.hit_stats());
        assert!(s.readahead_pages > 0, "sequential start should prefetch");
        assert_eq!((s.flushes, s.flushed_pages), (0, 0));

        c.write(SimTime::ZERO, F, 50 * 4096, Bytes(2 * 4096));
        c.flush_due(SimTime::from_secs(6), true);
        let s = c.stats();
        assert_eq!((s.flushes, s.flushed_pages), (1, 2));
        // An empty flush round is not counted.
        c.flush_due(SimTime::from_secs(7), true);
        assert_eq!(c.stats().flushes, 1);
        c.write(SimTime::from_secs(8), F, 60 * 4096, Bytes(4096));
        c.flush_all();
        let s = c.stats();
        assert_eq!((s.flushes, s.flushed_pages), (2, 3));
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut c = cache(64);
        let r = c.read(SimTime::ZERO, F, 0, Bytes::ZERO, SZ);
        assert!(r.fully_hit());
        assert_eq!(r.fetch_pages(), 0);
        let w = c.write(SimTime::ZERO, F, 0, Bytes::ZERO);
        assert!(w.evicted_dirty.is_empty());
    }
}
