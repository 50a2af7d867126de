//! Property tests for the buffer-cache substrate.

use ff_base::{Bytes, Dur, SimTime};
use ff_cache::cscan::{BlockRequest, CScanQueue};
use ff_cache::{BufferCache, CacheConfig, FlashCache, PageKey, TwoQ, WritebackConfig};
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

/// The list code `TwoQ` and `FlashCache` ran on before the page table:
/// A1in and A1out as a `VecDeque` plus a `BTreeSet`, Am and the flash
/// LRU as a seq↔key `BTreeMap` pair, flash dirtiness as a key set.
/// `BufferCache` keeps the front end's read and write loops on that 2Q,
/// with readahead probing `contains` before each `touch`, and its own
/// `Readahead` (a lookup, then an insert for a new stream) and
/// `Writeback` (a full scan at every wake-up). Kept as references the
/// crate's types must match call for call.
mod reference {
    use ff_base::{Bytes, Dur, SimTime};
    use ff_cache::page::{pages_covering, push_run};
    use ff_cache::{
        Access, CacheConfig, CacheStats, PageKey, ReadOutcome, WriteOutcome, WritebackConfig,
    };
    use ff_trace::FileId;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    #[derive(Clone, Copy)]
    struct Stream {
        cur_start: u64,
        cur_len: u64,
        ahead_len: u64,
        next_expected: u64,
    }

    pub struct Readahead {
        max_pages: u64,
        initial_pages: u64,
        streams: BTreeMap<FileId, Stream>,
    }

    impl Readahead {
        pub fn new(max_pages: u64) -> Self {
            Readahead {
                max_pages,
                initial_pages: 4.min(max_pages),
                streams: BTreeMap::new(),
            }
        }

        pub fn on_access(&mut self, file: FileId, first: u64, last: u64) -> Option<(u64, u64)> {
            if self.max_pages == 0 {
                return None;
            }
            match self.streams.get_mut(&file) {
                Some(s) if first <= s.next_expected && last >= first => {
                    s.next_expected = s.next_expected.max(last + 1);
                    let ahead_start = s.cur_start + s.cur_len;
                    let ahead_end = ahead_start + s.ahead_len;
                    if s.ahead_len > 0 && s.next_expected > ahead_start {
                        let new_ahead_len = (s.ahead_len * 2).min(self.max_pages);
                        s.cur_start = ahead_start;
                        s.cur_len = s.ahead_len;
                        s.ahead_len = new_ahead_len;
                        return Some((ahead_end, new_ahead_len));
                    }
                    None
                }
                _ => {
                    let ahead_len = self.initial_pages.min(self.max_pages);
                    self.streams.insert(
                        file,
                        Stream {
                            cur_start: first,
                            cur_len: last - first + 1,
                            ahead_len,
                            next_expected: last + 1,
                        },
                    );
                    Some((last + 1, ahead_len))
                }
            }
        }
    }

    pub struct Writeback {
        config: WritebackConfig,
        dirty: BTreeMap<PageKey, SimTime>,
        last_wakeup: SimTime,
    }

    impl Writeback {
        pub fn new(config: WritebackConfig) -> Self {
            Writeback {
                config,
                dirty: BTreeMap::new(),
                last_wakeup: SimTime::ZERO,
            }
        }

        pub fn mark_dirty(&mut self, key: PageKey, now: SimTime) {
            self.dirty.entry(key).or_insert(now);
        }

        pub fn on_evict(&mut self, key: PageKey) -> bool {
            self.dirty.remove(&key).is_some()
        }

        pub fn collect_due(&mut self, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
            if now.saturating_since(self.last_wakeup) < self.config.wakeup_interval {
                return Vec::new();
            }
            self.last_wakeup = now;
            let take_all = self.config.laptop_mode && disk_ready;
            let age_limit: Dur = if self.config.laptop_mode && !disk_ready {
                self.config.laptop_max_age
            } else {
                self.config.dirty_expire
            };
            let due: Vec<PageKey> = self
                .dirty
                .iter()
                .filter(|&(_, &since)| take_all || now.saturating_since(since) >= age_limit)
                .map(|(&k, _)| k)
                .collect();
            for k in &due {
                self.dirty.remove(k);
            }
            due
        }

        pub fn drain_all(&mut self) -> Vec<PageKey> {
            std::mem::take(&mut self.dirty).into_keys().collect()
        }
    }

    pub struct BufferCache {
        twoq: TwoQ,
        readahead: Readahead,
        writeback: Writeback,
        stats: CacheStats,
    }

    impl BufferCache {
        pub fn new(config: CacheConfig) -> Self {
            BufferCache {
                twoq: TwoQ::new(config.capacity_pages),
                readahead: Readahead::new(config.readahead_max_pages),
                writeback: Writeback::new(config.writeback),
                stats: CacheStats::default(),
            }
        }

        pub fn read(
            &mut self,
            file: FileId,
            offset: u64,
            len: Bytes,
            file_size: Bytes,
        ) -> ReadOutcome {
            let mut out = ReadOutcome::default();
            if len.is_zero() {
                return out;
            }
            let mut evicted = Vec::new();
            let pages = pages_covering(offset, len.get());
            let (first, last) = (*pages.start(), *pages.end());
            for p in pages {
                let key = PageKey { file, index: p };
                if self.twoq.touch(key, &mut evicted).is_hit() {
                    self.stats.hits += 1;
                    out.hit_pages += 1;
                } else {
                    self.stats.misses += 1;
                    push_run(&mut out.demand, p);
                }
            }
            if let Some((start, n)) = self.readahead.on_access(file, first, last) {
                for p in start..(start + n).min(file_size.pages()) {
                    let key = PageKey { file, index: p };
                    if !self.twoq.contains(key) {
                        self.twoq.touch(key, &mut evicted);
                        self.stats.readahead_pages += 1;
                        push_run(&mut out.prefetch, p);
                    }
                }
            }
            out.evicted_dirty = evicted
                .into_iter()
                .filter(|k| self.writeback.on_evict(*k))
                .collect();
            out
        }

        pub fn write(
            &mut self,
            now: SimTime,
            file: FileId,
            offset: u64,
            len: Bytes,
        ) -> WriteOutcome {
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

        pub fn flush_due(&mut self, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
            let due = self.writeback.collect_due(now, disk_ready);
            if !due.is_empty() {
                self.stats.flushes += 1;
                self.stats.flushed_pages += due.len() as u64;
            }
            due
        }

        pub fn flush_all(&mut self) -> Vec<PageKey> {
            let drained = self.writeback.drain_all();
            if !drained.is_empty() {
                self.stats.flushes += 1;
                self.stats.flushed_pages += drained.len() as u64;
            }
            drained
        }

        pub fn resident_fraction(&self, file: FileId, offset: u64, len: Bytes) -> f64 {
            if len.is_zero() {
                return 1.0;
            }
            let pages = pages_covering(offset, len.get());
            let (first, last) = (*pages.start(), *pages.end());
            let resident = self.twoq.resident_in(file, first, last);
            resident as f64 / (last - first + 1) as f64
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }
    }

    pub struct TwoQ {
        capacity: usize,
        kin: usize,
        kout: usize,
        a1in: VecDeque<PageKey>,
        fifo_set: BTreeSet<PageKey>,
        a1out: VecDeque<PageKey>,
        ghost_set: BTreeSet<PageKey>,
        am: BTreeMap<u64, PageKey>,
        lru_index: BTreeMap<PageKey, u64>,
        seq: u64,
    }

    impl TwoQ {
        pub fn new(capacity: usize) -> Self {
            TwoQ {
                capacity,
                kin: (capacity / 4).max(1),
                kout: (capacity / 2).max(1),
                a1in: VecDeque::new(),
                fifo_set: BTreeSet::new(),
                a1out: VecDeque::new(),
                ghost_set: BTreeSet::new(),
                am: BTreeMap::new(),
                lru_index: BTreeMap::new(),
                seq: 0,
            }
        }

        fn resident(&self) -> usize {
            self.a1in.len() + self.am.len()
        }

        pub fn contains(&self, key: PageKey) -> bool {
            self.fifo_set.contains(&key) || self.lru_index.contains_key(&key)
        }

        pub fn resident_in(&self, file: FileId, first: u64, last: u64) -> usize {
            let lo = PageKey { file, index: first };
            let hi = PageKey { file, index: last };
            self.fifo_set.range(lo..=hi).count() + self.lru_index.range(lo..=hi).count()
        }

        pub fn touch(&mut self, key: PageKey, evicted: &mut Vec<PageKey>) -> Access {
            if let Some(old) = self.lru_index.get(&key).copied() {
                self.am.remove(&old);
                self.push_lru(key);
                return Access::Hit;
            }
            if self.fifo_set.contains(&key) {
                return Access::Hit;
            }
            if self.ghost_set.remove(&key) {
                self.a1out.retain(|k| *k != key);
                self.make_room(evicted);
                self.push_lru(key);
                return Access::GhostMiss;
            }
            self.make_room(evicted);
            self.a1in.push_back(key);
            self.fifo_set.insert(key);
            Access::Miss
        }

        fn push_lru(&mut self, key: PageKey) {
            self.seq += 1;
            self.am.insert(self.seq, key);
            self.lru_index.insert(key, self.seq);
        }

        fn demote(&mut self, evicted: &mut Vec<PageKey>) {
            if let Some(victim) = self.a1in.pop_front() {
                self.fifo_set.remove(&victim);
                self.a1out.push_back(victim);
                self.ghost_set.insert(victim);
                if self.a1out.len() > self.kout {
                    if let Some(g) = self.a1out.pop_front() {
                        self.ghost_set.remove(&g);
                    }
                }
                evicted.push(victim);
            }
        }

        fn make_room(&mut self, evicted: &mut Vec<PageKey>) {
            if self.resident() < self.capacity {
                return;
            }
            if self.a1in.len() > self.kin {
                self.demote(evicted);
                return;
            }
            if let Some((&seq, &victim)) = self.am.iter().next() {
                self.am.remove(&seq);
                self.lru_index.remove(&victim);
                evicted.push(victim);
            } else {
                self.demote(evicted);
            }
        }
    }

    pub struct FlashCache {
        capacity_pages: usize,
        lru: BTreeMap<u64, PageKey>,
        index: BTreeMap<PageKey, u64>,
        dirty: BTreeMap<PageKey, ()>,
        seq: u64,
    }

    impl FlashCache {
        pub fn new(capacity_pages: usize) -> Self {
            FlashCache {
                capacity_pages,
                lru: BTreeMap::new(),
                index: BTreeMap::new(),
                dirty: BTreeMap::new(),
                seq: 0,
            }
        }

        pub fn lookup(&mut self, page: PageKey) -> bool {
            let Some(seq) = self.index.get(&page).copied() else {
                return false;
            };
            self.lru.remove(&seq);
            self.seq += 1;
            self.lru.insert(self.seq, page);
            self.index.insert(page, self.seq);
            true
        }

        pub fn insert(&mut self, page: PageKey, dirty: bool) -> Vec<PageKey> {
            if let Some(seq) = self.index.get(&page).copied() {
                self.lru.remove(&seq);
            }
            self.seq += 1;
            self.lru.insert(self.seq, page);
            self.index.insert(page, self.seq);
            if dirty {
                self.dirty.insert(page, ());
            }
            let mut spilled = Vec::new();
            while self.lru.len() > self.capacity_pages {
                let Some((&seq, &victim)) = self.lru.iter().next() else {
                    break;
                };
                self.lru.remove(&seq);
                self.index.remove(&victim);
                if self.dirty.remove(&victim).is_some() {
                    spilled.push(victim);
                }
            }
            spilled
        }

        pub fn take_destage(&mut self) -> Vec<PageKey> {
            let pages = self.dirty.keys().copied().collect();
            self.dirty.clear();
            pages
        }

        pub fn dirty_count(&self) -> usize {
            self.dirty.len()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `TwoQ` on the page table matches the reference list code touch
    /// for touch: same access class, same evictions in the same order,
    /// and the same residency answers. Indices span 2–4× the capacity
    /// over 2–3 files, so ghost hits, Am evictions and freed chunks all
    /// occur.
    #[test]
    fn twoq_matches_reference_lists(
        cap in 4usize..64,
        files in 2u64..4,
        span in 2u64..5,
        touches in proptest::collection::vec((0u64..3, 0u64..256, any::<bool>(), 0u64..256, 0u64..256), 1..800),
    ) {
        let pages = span * cap as u64;
        // A hot set of a quarter of the capacity, touched about half the
        // time, keeps refreshing Am pages.
        let hot = (cap as u64 / 4).max(1);
        let mut q = TwoQ::new(cap);
        let mut r = reference::TwoQ::new(cap);
        for (i, &(file, index, is_hot, lo, len)) in touches.iter().enumerate() {
            let file = FileId(file % files);
            let index = if is_hot { index % hot } else { index % pages };
            let key = PageKey { file, index };
            let (mut ev, mut rev) = (Vec::new(), Vec::new());
            prop_assert_eq!(q.touch(key, &mut ev), r.touch(key, &mut rev), "touch {}", i);
            prop_assert_eq!(&ev, &rev, "evictions at touch {}", i);
            let probe = PageKey { file, index: lo % pages };
            prop_assert_eq!(q.contains(probe), r.contains(probe));
            let (first, last) = (lo % pages, lo % pages + len % pages);
            prop_assert_eq!(q.resident_in(file, first, last), r.resident_in(file, first, last));
        }
        for file in 0..files {
            for index in 0..pages {
                let key = PageKey { file: FileId(file), index };
                prop_assert_eq!(q.contains(key), r.contains(key), "{:?}", key);
            }
        }
    }

    /// `FlashCache` on the page table matches the reference LRU: same
    /// hit flags, same spilled dirty pages, same destage lists, and the
    /// same dirty count after every op. Three files sit at page 0,
    /// across the chunk boundary at page 192, or ending at the last page
    /// a `u64` byte offset reaches (slot 63 of its chunk), so marks move
    /// between chunks and destage lists cross files.
    #[test]
    fn flashcache_matches_reference_lru(
        cap in 1usize..32,
        span in 2u64..5,
        regions in proptest::collection::vec(0usize..3, 3),
        ops in proptest::collection::vec((0u64..4, 0u64..3, 0u64..256, any::<bool>()), 1..600),
    ) {
        const LAST: u64 = u64::MAX / 4096;
        let pages = span * cap as u64;
        let base = |file: u64| match regions[file as usize] {
            0 => 0,
            1 => 192 - pages / 2,
            _ => LAST + 1 - pages,
        };
        // Hits on a hot half of the capacity move pages within the LRU
        // between evictions.
        let hot = (cap as u64 / 2).max(1);
        let mut f = FlashCache::new(cap);
        let mut r = reference::FlashCache::new(cap);
        for (i, &(op, file, index, is_hot)) in ops.iter().enumerate() {
            let index = base(file) + if is_hot { index % hot } else { index % pages };
            let page = PageKey { file: FileId(file), index };
            match op {
                0 => prop_assert_eq!(f.lookup(page), r.lookup(page), "lookup {}", i),
                1 => prop_assert_eq!(f.insert_clean(page), r.insert(page, false), "insert {}", i),
                2 => prop_assert_eq!(f.buffer_write(page), r.insert(page, true), "write {}", i),
                _ => prop_assert_eq!(f.take_destage(), r.take_destage(), "destage {}", i),
            }
            prop_assert_eq!(f.dirty_count(), r.dirty_count(), "dirty count after op {}", i);
        }
        prop_assert_eq!(f.take_destage(), r.take_destage());
    }

    /// `BufferCache` matches the reference front end call for call:
    /// every `ReadOutcome` and `WriteOutcome` field, every flush list,
    /// `stats()` and `resident_fraction`. Capacities of 4–63 pages with
    /// requests of up to 80 pages put evictions inside a request's own
    /// range; short requests on a hot set of one to four quarters of the
    /// capacity build up Am, which readahead windows then cover. Each file's pages sit in
    /// one of four regions: at page 0, across the chunk boundaries
    /// around page 192 or 64,000, or ending at the last page a `u64`
    /// byte offset reaches. Time mostly advances by less than the 5 s
    /// wake-up interval but sometimes jumps past the 30 s expiry or the
    /// 600 s laptop age, in laptop mode or not, so the flusher sleeps,
    /// finds nothing due, and flushes under both rules.
    #[test]
    fn buffer_cache_matches_reference(
        cap in 4usize..64,
        span in 1u64..4,
        hot_quarters in 1u64..5,
        laptop_mode in any::<bool>(),
        regions in proptest::collection::vec(0usize..4, 3),
        ops in proptest::collection::vec(
            (0u64..8, 0u64..3, 0u64..1024, 1u64..80, 0u64..4096, 0u64..8, 0usize..16),
            1..300,
        ),
    ) {
        const LAST: u64 = u64::MAX / 4096;
        // Milliseconds from one op to the next.
        const GAP_MS: [u64; 16] = [
            700, 700, 700, 700, 700, 700, 700, 700, 700, 700, 5_000, 5_000, 31_000, 31_000, 150_000,
            300_000,
        ];
        let pages = span * cap as u64;
        let hot = (cap as u64 * hot_quarters / 4).max(1);
        let base = |file: u64| match regions[file as usize] {
            0 => 0,
            1 => 192 - pages / 2,
            2 => 64_000 - pages / 2,
            _ => LAST + 1 - pages,
        };
        // File sizes end mid-region, so readahead is sometimes clamped.
        let size = |file: u64| match regions[file as usize] {
            3 => Bytes(u64::MAX),
            _ => Bytes((base(file) + pages * 3 / 4) * 4096),
        };
        let config = CacheConfig {
            capacity_pages: cap,
            writeback: WritebackConfig {
                laptop_mode,
                ..WritebackConfig::default()
            },
            ..CacheConfig::default()
        };
        let mut cache = BufferCache::new(config.clone());
        let mut r = reference::BufferCache::new(config);
        let mut now = SimTime::ZERO;
        for (i, &(op, file, page, n, skew, shape, gap)) in ops.iter().enumerate() {
            let (is_hot, is_long, ready) = (shape & 1 == 1, shape & 2 == 2, shape & 4 == 4);
            now += Dur::from_millis(GAP_MS[gap]);
            let first = base(file) + if is_hot { page % hot } else { page % pages };
            let n = if is_long { n } else { n % 4 + 1 }.min(LAST + 1 - first);
            // A byte range over pages first..first + n, starting `skew`
            // bytes into the first page.
            let (offset, len) = (first * 4096 + skew, Bytes(n * 4096 - skew));
            let fid = FileId(file);
            match op {
                0..=4 => {
                    let got = cache.read(now, fid, offset, len, size(file));
                    let want = r.read(fid, offset, len, size(file));
                    prop_assert_eq!(got.hit_pages, want.hit_pages, "hits at op {}", i);
                    prop_assert_eq!(&got.demand, &want.demand, "demand at op {}", i);
                    prop_assert_eq!(&got.prefetch, &want.prefetch, "prefetch at op {}", i);
                    prop_assert_eq!(&got.evicted_dirty, &want.evicted_dirty, "evicted at op {}", i);
                }
                5 | 6 => {
                    let got = cache.write(now, fid, offset, len);
                    let want = r.write(now, fid, offset, len);
                    prop_assert_eq!(&got.evicted_dirty, &want.evicted_dirty, "write at op {}", i);
                }
                _ if ready && page % 4 == 0 => {
                    prop_assert_eq!(cache.flush_all(), r.flush_all(), "flush_all at op {}", i);
                }
                _ => {
                    prop_assert_eq!(cache.flush_due(now, ready), r.flush_due(now, ready), "flush at op {}", i);
                }
            }
            prop_assert_eq!(cache.stats(), r.stats(), "stats at op {}", i);
            for probe in [fid, FileId((file + 1) % 3)] {
                let (got, want) = (
                    cache.resident_fraction(probe, offset, len),
                    r.resident_fraction(probe, offset, len),
                );
                prop_assert_eq!(got.to_bits(), want.to_bits(), "fraction at op {}", i);
            }
        }
        prop_assert_eq!(cache.flush_all(), r.flush_all());
        prop_assert_eq!(cache.stats(), r.stats());
    }
}
