//! Property tests for the buffer-cache substrate.

use ff_base::{Bytes, SimTime};
use ff_cache::cscan::{BlockRequest, CScanQueue};
use ff_cache::{BufferCache, CacheConfig, FlashCache, PageKey, TwoQ};
use ff_trace::FileId;
use proptest::prelude::*;

proptest! {
    /// 2Q never holds more residents than its capacity, and `contains`
    /// agrees with what `touch` reports.
    #[test]
    fn twoq_capacity_and_coherence(
        cap in 4usize..128,
        accesses in proptest::collection::vec(0u64..256, 1..500),
    ) {
        let mut q = TwoQ::new(cap);
        let mut ev = Vec::new();
        for page in accesses {
            let key = PageKey { file: FileId(1), index: page };
            let before = q.contains(key);
            let access = q.touch(key, &mut ev);
            prop_assert_eq!(before, access.is_hit(), "contains/touch disagree");
            prop_assert!(q.contains(key), "a just-touched page must be resident");
            prop_assert!(q.resident() <= cap, "capacity violated");
        }
    }

    /// Every page evicted was resident earlier, and no page is evicted
    /// twice without an interleaving re-touch.
    #[test]
    fn twoq_evictions_are_accounted(
        accesses in proptest::collection::vec(0u64..64, 1..400),
    ) {
        let mut q = TwoQ::new(8);
        let mut live = std::collections::HashSet::new();
        for page in accesses {
            let key = PageKey { file: FileId(1), index: page };
            let mut ev = Vec::new();
            q.touch(key, &mut ev);
            live.insert(key);
            for victim in ev {
                prop_assert!(live.remove(&victim), "evicted {victim:?} was not live");
                prop_assert!(!q.contains(victim));
            }
        }
        prop_assert_eq!(live.len(), q.resident());
    }

    /// C-SCAN dispatches exactly the set of blocks pushed (as a union of
    /// ranges) and each sweep segment is ascending.
    #[test]
    fn cscan_conserves_blocks(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..64), 1..60),
    ) {
        let mut q = CScanQueue::new();
        let mut expect = std::collections::BTreeSet::new();
        for (i, &(start, blocks)) in reqs.iter().enumerate() {
            q.push(BlockRequest { start, blocks, tag: i as u64 });
            expect.extend(start..start + blocks);
        }
        let drained = q.drain_sweep();
        let mut got = std::collections::BTreeSet::new();
        for r in &drained {
            for b in r.start..r.end() {
                prop_assert!(got.insert(b), "block {b} dispatched twice");
            }
        }
        prop_assert_eq!(got, expect);
        // At most one wrap: starts ascend, then may drop once and ascend.
        let starts: Vec<u64> = drained.iter().map(|r| r.start).collect();
        let wraps = starts.windows(2).filter(|w| w[1] < w[0]).count();
        prop_assert!(wraps <= 1, "C-SCAN wrapped {wraps} times: {starts:?}");
    }

    /// The cache front end: reading the same range twice produces no new
    /// demand misses, and fetch totals stay within readahead bounds.
    #[test]
    fn cache_rereads_hit(
        reads in proptest::collection::vec((0u64..200, 1u64..64), 1..50),
    ) {
        let size = Bytes(256 * 4096);
        let mut cache = BufferCache::new(CacheConfig {
            capacity_pages: 4096, // larger than the file — no evictions
            ..CacheConfig::default()
        });
        for &(page, n) in &reads {
            let off = page * 4096;
            let len = Bytes((n * 4096).min(size.get() - off));
            if len.is_zero() { continue; }
            cache.read(SimTime::ZERO, FileId(9), off, len, size);
            let again = cache.read(SimTime::ZERO, FileId(9), off, len, size);
            prop_assert!(again.fully_hit(), "re-read missed at page {page}+{n}");
        }
    }

    /// `resident_fraction`'s range count equals a page-by-page residency
    /// probe after reads and writes over three adjacent files: the range
    /// never counts a neighbouring file's pages, and no page is counted
    /// twice (A1in and Am stay disjoint).
    #[test]
    fn resident_fraction_matches_per_page_probe(
        cap in 8usize..48,
        ops in proptest::collection::vec((0u64..3, 0u64..40, 1u64..12, any::<bool>()), 1..120),
        ranges in proptest::collection::vec((0u64..3, 0u64..40 * 4096, 1u64..20 * 4096), 1..20),
    ) {
        // Every page an op or a range can reach lies below PAGES.
        const PAGES: u64 = 64;
        let size = Bytes(PAGES * 4096);
        let mut cache = BufferCache::new(CacheConfig {
            capacity_pages: cap,
            ..CacheConfig::default()
        });
        for (i, &(file, page, n, write)) in ops.iter().enumerate() {
            let (now, file) = (SimTime::from_secs(i as u64), FileId(10 + file));
            let len = Bytes(n * 4096);
            if write {
                cache.write(now, file, page * 4096, len);
            } else {
                cache.read(now, file, page * 4096, len, size);
            }
        }
        // Probe each page by reading it from a copy: the touch hits
        // exactly when the page is resident.
        let resident = |file: FileId, page: u64| {
            cache.clone().read(SimTime::ZERO, file, page * 4096, Bytes(4096), size).hit_pages == 1
        };
        let map: Vec<Vec<bool>> = (0..3)
            .map(|f| (0..PAGES).map(|p| resident(FileId(10 + f), p)).collect())
            .collect();
        for (file, offset, len) in ranges {
            let (first, last) = (offset / 4096, (offset + len - 1) / 4096);
            let hits = (first..=last)
                .filter(|&p| map[file as usize][p as usize])
                .count();
            let expect = hits as f64 / (last - first + 1) as f64;
            let got = cache.resident_fraction(FileId(10 + file), offset, Bytes(len));
            prop_assert_eq!(got.to_bits(), expect.to_bits(), "file {} pages {}..={}", file, first, last);
        }
    }

    /// Dirty accounting: every written page is either still dirty or was
    /// surfaced through an eviction/flush — nothing is lost.
    #[test]
    fn writeback_never_loses_pages(
        writes in proptest::collection::vec(0u64..512, 1..200),
    ) {
        let mut cache = BufferCache::new(CacheConfig {
            capacity_pages: 64,
            ..CacheConfig::default()
        });
        let mut surfaced = std::collections::HashSet::new();
        let mut written = std::collections::HashSet::new();
        for (i, &page) in writes.iter().enumerate() {
            let out = cache.write(
                SimTime::from_secs(i as u64),
                FileId(3),
                page * 4096,
                Bytes(4096),
            );
            written.insert(page);
            for k in out.evicted_dirty {
                surfaced.insert(k.index);
            }
        }
        for k in cache.flush_all() {
            surfaced.insert(k.index);
        }
        prop_assert!(
            written.is_subset(&surfaced),
            "lost dirty pages: {:?}",
            written.difference(&surfaced).collect::<Vec<_>>()
        );
    }

    /// Flash cache: capacity bound, dirty accounting, and no lost dirty
    /// pages under arbitrary read/write interleavings.
    #[test]
    fn flashcache_invariants(
        cap in 1usize..64,
        ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..300),
    ) {
        let mut f = FlashCache::new(cap);
        let mut dirty_live: std::collections::HashSet<u64> = Default::default();
        let mut spilled: std::collections::HashSet<u64> = Default::default();
        for (page, write) in ops {
            let key = PageKey { file: ff_trace::FileId(1), index: page };
            let out = if write {
                dirty_live.insert(page);
                f.buffer_write(key)
            } else {
                f.insert_clean(key)
            };
            for k in out {
                prop_assert!(dirty_live.remove(&k.index), "spilled page was not dirty");
                spilled.insert(k.index);
            }
            prop_assert!(f.resident() <= cap);
            prop_assert_eq!(f.dirty_count(), dirty_live.len());
        }
        // Destage surfaces exactly the still-dirty set.
        let destaged: std::collections::HashSet<u64> =
            f.take_destage().into_iter().map(|k| k.index).collect();
        prop_assert_eq!(&destaged, &dirty_live);
        prop_assert_eq!(f.dirty_count(), 0);
        // Spilled and destaged sets never overlap at the same instant of
        // dirtiness: a page spilled earlier may have been re-dirtied, but
        // every spill was accounted above.
        prop_assert!(spilled.iter().all(|p| *p < 128));
    }

    /// Flash lookups agree with insert history within capacity.
    #[test]
    fn flashcache_recency(pages in proptest::collection::vec(0u64..32, 1..100)) {
        let mut f = FlashCache::new(16);
        for &p in &pages {
            f.insert_clean(PageKey { file: ff_trace::FileId(2), index: p });
        }
        // The most recently inserted page is always resident.
        let last = *pages.last().unwrap();
        let key = PageKey { file: ff_trace::FileId(2), index: last };
        let hit = f.lookup(key);
        prop_assert!(hit);
    }
}
