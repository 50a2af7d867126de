//! The buffer-cache front end.
//!
//! [`BufferCache`] is what the replayer talks to: application reads and
//! writes land here first, and only *misses* (plus readahead and
//! write-back traffic) ever reach a storage device — the prerequisite for
//! FlexFetch's cache-effect handling (§2.3.2).

use crate::page::{pages_covering, push_run, PageKey};
use crate::readahead::Readahead;
use crate::twoq::{TwoQ, Victim};
use crate::writeback::{Writeback, WritebackConfig};
use ff_base::{Bytes, SimTime};
use ff_trace::FileId;
use std::collections::BTreeSet;

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    stats: CacheStats,
    /// 2Q's victims of the current call, kept across calls so a call
    /// that evicts allocates nothing once this has grown.
    victims: Vec<Victim>,
}

impl BufferCache {
    /// Build from config.
    pub fn new(config: CacheConfig) -> Self {
        BufferCache {
            twoq: TwoQ::new(config.capacity_pages),
            readahead: Readahead::new(config.readahead_max_pages),
            writeback: Writeback::new(config.writeback),
            stats: CacheStats::default(),
            victims: Vec::new(),
        }
    }

    /// Application read of `len` bytes at `offset` in `file` (whose total
    /// size is `file_size`). Returns hits, demand-miss runs, and the
    /// readahead to issue. See [`BufferCache::read_into`], which reuses
    /// the caller's buffers.
    pub fn read(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: Bytes,
        file_size: Bytes,
    ) -> ReadOutcome {
        let mut out = ReadOutcome::default();
        self.read_into(now, file, offset, len, file_size, &mut out);
        out
    }

    /// [`BufferCache::read`] into `out`, which is cleared first and
    /// keeps its capacity from call to call.
    pub fn read_into(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: Bytes,
        file_size: Bytes,
        out: &mut ReadOutcome,
    ) {
        let _ = now;
        out.hit_pages = 0;
        out.demand.clear();
        out.prefetch.clear();
        out.evicted_dirty.clear();
        if len.is_zero() {
            return;
        }
        self.victims.clear();
        let pages = pages_covering(offset, len.get());
        let (first, last) = (*pages.start(), *pages.end());

        // Demand pages: classify hits vs misses, merging misses into runs.
        for p in pages {
            let key = PageKey { file, index: p };
            if self.twoq.touch(key, &mut self.victims).is_hit() {
                self.stats.hits += 1;
                out.hit_pages += 1;
            } else {
                self.stats.misses += 1;
                push_run(&mut out.demand, p);
            }
        }

        // Readahead: ask the engine, clamp to the file, and make the
        // prefetched pages resident (they ride the same device I/O).
        if let Some((start, n)) = self.readahead.on_access(file, first, last) {
            for p in start..(start + n).min(file_size.pages()) {
                let key = PageKey { file, index: p };
                if self.twoq.prefetch(key, &mut self.victims) {
                    self.stats.readahead_pages += 1;
                    push_run(&mut out.prefetch, p);
                }
            }
        }
        let dirty = self.victims.iter().filter_map(|v| v.dirty.then_some(v.key));
        out.evicted_dirty.extend(dirty);
    }

    /// Application write (write-allocate, dirty in cache).
    ///
    /// Victims are judged as if every page of the request were dirtied
    /// before any of them left: a page of the written range that is
    /// evicted is reported once, at its first eviction, whether or not
    /// it was dirty then, and ends the request clean even when it was
    /// written again after that eviction. See
    /// [`BufferCache::write_into`], which reuses the caller's buffer.
    pub fn write(&mut self, now: SimTime, file: FileId, offset: u64, len: Bytes) -> WriteOutcome {
        let mut out = WriteOutcome::default();
        self.write_into(now, file, offset, len, &mut out);
        out
    }

    /// [`BufferCache::write`] into `out`, which is cleared first and
    /// keeps its capacity from call to call.
    pub fn write_into(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: Bytes,
        out: &mut WriteOutcome,
    ) {
        out.evicted_dirty.clear();
        if len.is_zero() {
            return;
        }
        self.victims.clear();
        let pages = pages_covering(offset, len.get());
        for p in pages.clone() {
            self.twoq
                .write(PageKey { file, index: p }, now, &mut self.victims);
        }
        // Only a write longer than the cache evicts its own pages, so
        // this set stays empty, and unallocated, on the common path.
        let mut reported = BTreeSet::new();
        for &Victim { key, dirty } in &self.victims {
            if key.file == file && pages.contains(&key.index) {
                if reported.insert(key.index) {
                    self.twoq.clean(key);
                    out.evicted_dirty.push(key);
                }
            } else if dirty {
                out.evicted_dirty.push(key);
            }
        }
    }

    /// Run the flusher: dirty pages due for write-back at `now`, given
    /// the disk's spin state (laptop-mode rules).
    pub fn flush_due(&mut self, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
        let due = self.writeback.collect_due(now, disk_ready, &mut self.twoq);
        if !due.is_empty() {
            self.stats.flushes += 1;
            self.stats.flushed_pages += due.len() as u64;
        }
        due
    }

    /// Remaining dirty pages (final sync).
    pub fn flush_all(&mut self) -> Vec<PageKey> {
        let drained = self.twoq.take_dirty(|_| true);
        if !drained.is_empty() {
            self.stats.flushes += 1;
            self.stats.flushed_pages += drained.len() as u64;
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

    /// Lifetime activity counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Dirty page count.
    pub fn dirty(&self) -> usize {
        self.twoq.dirty_count()
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
    fn a_hostile_range_costs_one_pass_over_the_chunks() {
        let mut c = BufferCache::new(CacheConfig {
            capacity_pages: 512,
            readahead_max_pages: 0,
            ..Default::default()
        });
        let size = Bytes(2_000 * 4096);
        for page in [0, 1, 63, 64, 200, 1_000, 1_001] {
            c.read(SimTime::ZERO, F, page * 4096, Bytes(4096), size);
        }
        c.read(SimTime::ZERO, FileId(8), 0, Bytes(4 * 4096), size);
        let by_page = (0..1_100)
            .filter(|&p| c.resident_fraction(F, p * 4096, Bytes(4096)) == 1.0)
            .count();
        assert_eq!(by_page, 7);
        let small = c.resident_fraction(F, 0, Bytes(1_100 * 4096));
        assert!((small * 1_100.0 - 7.0).abs() < 1e-9, "{small}");
        // 2^62 bytes are 2^50 pages, or 2^44 chunk keys to probe; the
        // count scans the live chunks instead, and the fraction is that
        // count over a power of two, exactly.
        assert_eq!(
            c.resident_fraction(F, 0, Bytes(1 << 62)),
            7.0 / (1_u64 << 50) as f64
        );
    }

    #[test]
    fn demand_stats_accumulate() {
        let mut c = cache(64);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
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
        let CacheStats {
            hits: h, misses: m, ..
        } = c.stats();
        assert!(h > m, "most demand pages should hit ({h} vs {m})");
    }

    #[test]
    fn stats_track_readahead_and_flushes() {
        let mut c = cache(256);
        c.read(SimTime::ZERO, F, 0, Bytes(4096), SZ);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
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
    fn a_write_longer_than_the_cache_reports_its_own_victims_once() {
        let keys = |ks: &[u64]| {
            ks.iter()
                .map(|&i| PageKey { file: F, index: i })
                .collect::<Vec<_>>()
        };
        for (pages, reported, still_dirty) in [
            // Page 5 is pushed out clean by page 0's write, then written
            // at its turn: reported, at its first eviction, and clean.
            (8, keys(&[5, 101, 0, 1, 2, 3]), keys(&[4, 6, 7])),
            // Page 5 is pushed out a second time, dirty, by page 9's
            // write: still reported only once.
            (10, keys(&[5, 101, 0, 1, 2, 3, 4]), keys(&[6, 7, 8, 9])),
        ] {
            // Capacity 4 (Kin 1, Kout 2), no readahead, so every page of
            // the write pushes A1in's oldest page out. A1in holds pages
            // 5, 100, 101 and 102; only 101 is dirty.
            let mut c = BufferCache::new(CacheConfig {
                capacity_pages: 4,
                readahead_max_pages: 0,
                ..Default::default()
            });
            for p in [5, 100, 101, 102] {
                if p == 101 {
                    c.write(SimTime::ZERO, F, p * 4096, Bytes(4096));
                } else {
                    c.read(SimTime::ZERO, F, p * 4096, Bytes(4096), SZ);
                }
            }
            let out = c.write(SimTime::from_secs(1), F, 0, Bytes(pages * 4096));
            assert_eq!(out.evicted_dirty, reported, "{pages}-page write");
            assert_eq!(c.flush_all(), still_dirty, "{pages}-page write");
        }
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

    #[test]
    fn reused_outcomes_are_cleared_before_they_are_filled() {
        // Two identical caches, small enough that reads push written
        // pages out: one fills outcomes left over from other calls, the
        // other returns fresh ones.
        let mut reused = cache(4);
        let mut fresh = cache(4);
        let key = |index| PageKey { file: F, index };
        let mut r = ReadOutcome {
            hit_pages: 9,
            demand: vec![(1, 2)],
            prefetch: vec![(3, 4)],
            evicted_dirty: vec![key(5)],
        };
        let mut w = WriteOutcome {
            evicted_dirty: vec![key(6)],
        };
        let t = SimTime::ZERO;
        let mut dirty_evictions = 0;
        for (page, pages, write) in [
            (0, 2, true),
            (0, 1, false),
            (20, 3, false),
            (40, 1, true),
            (60, 4, false),
            (60, 0, false),
            (61, 6, true),
            (80, 0, true),
        ] {
            let (offset, len) = (page * 4096, Bytes(pages * 4096));
            if write {
                reused.write_into(t, F, offset, len, &mut w);
                assert_eq!(w, fresh.write(t, F, offset, len), "write at {page}");
                dirty_evictions += w.evicted_dirty.len();
            } else {
                reused.read_into(t, F, offset, len, SZ, &mut r);
                assert_eq!(r, fresh.read(t, F, offset, len, SZ), "read at {page}");
                dirty_evictions += r.evicted_dirty.len();
            }
        }
        assert!(dirty_evictions > 0, "no call evicted a dirty page");
        assert_eq!(reused.stats(), fresh.stats());
    }
}
