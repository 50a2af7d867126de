//! The 2Q-like page replacement algorithm.
//!
//! The classic 2Q structure (Johnson & Shasha, VLDB'94) that Linux 2.4/2.6
//! approximated with its active/inactive lists:
//!
//! * **A1in** — a FIFO holding pages seen once, sized `Kin` (25 % of
//!   capacity).
//! * **A1out** — a *ghost* FIFO of keys recently evicted from A1in, sized
//!   `Kout` (50 % of capacity); holds no data.
//! * **Am** — an LRU holding pages re-referenced while in A1out.
//!
//! A first touch enters A1in; a touch while ghosted promotes to Am; a
//! touch in Am refreshes its LRU position. Eviction prefers A1in overflow
//! (to the ghost queue), then the LRU tail of Am.

use crate::page::PageKey;
use ff_trace::FileId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Result of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was resident (in A1in or Am).
    Hit,
    /// Page was only ghost-remembered; data must be fetched, and the page
    /// enters Am (it has proven re-reference).
    GhostMiss,
    /// Cold miss; data must be fetched, and the page enters A1in.
    Miss,
}

impl Access {
    /// Whether the data was resident.
    pub fn is_hit(self) -> bool {
        self == Access::Hit
    }
}

/// 2Q replacement state over page keys (data-less — residency only).
#[derive(Debug, Clone)]
pub struct TwoQ {
    capacity: usize,
    kin: usize,
    kout: usize,
    a1in: VecDeque<PageKey>,
    a1in_set: BTreeSet<PageKey>,
    a1out: VecDeque<PageKey>,
    a1out_set: BTreeSet<PageKey>,
    /// LRU: sequence number → key, plus reverse index.
    am: BTreeMap<u64, PageKey>,
    am_index: BTreeMap<PageKey, u64>,
    seq: u64,
}

impl TwoQ {
    /// New cache holding at most `capacity` resident pages.
    ///
    /// Uses the canonical tuning: `Kin` = 25 % of capacity, `Kout` = 50 %.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "2Q needs at least 4 pages");
        TwoQ {
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: VecDeque::new(),
            a1in_set: BTreeSet::new(),
            a1out: VecDeque::new(),
            a1out_set: BTreeSet::new(),
            am: BTreeMap::new(),
            am_index: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is the page resident (no state change)?
    pub fn contains(&self, key: PageKey) -> bool {
        self.a1in_set.contains(&key) || self.am_index.contains_key(&key)
    }

    /// Resident pages of `file` with index in `first..=last` (no state
    /// change). A1in and Am never share a key, so the two range counts
    /// add up; `PageKey` orders by file first, so the range never
    /// reaches a neighbouring file's pages.
    pub fn resident_in(&self, file: FileId, first: u64, last: u64) -> usize {
        let lo = PageKey { file, index: first };
        let hi = PageKey { file, index: last };
        self.a1in_set.range(lo..=hi).count() + self.am_index.range(lo..=hi).count()
    }

    /// Touch `key`; returns the access class and appends any evicted
    /// (previously resident) pages to `evicted`.
    pub fn touch(&mut self, key: PageKey, evicted: &mut Vec<PageKey>) -> Access {
        if self.am_index.contains_key(&key) {
            self.refresh_am(key);
            return Access::Hit;
        }
        if self.a1in_set.contains(&key) {
            // 2Q leaves A1in order alone on repeat touches.
            return Access::Hit;
        }
        if self.a1out_set.contains(&key) {
            self.remove_ghost(key);
            self.make_room(evicted);
            self.insert_am(key);
            return Access::GhostMiss;
        }
        self.make_room(evicted);
        self.a1in.push_back(key);
        self.a1in_set.insert(key);
        Access::Miss
    }

    /// Drop a page outright (e.g. file truncation); no ghost entry.
    pub fn discard(&mut self, key: PageKey) {
        if self.a1in_set.remove(&key) {
            self.a1in.retain(|k| *k != key);
        }
        if let Some(seq) = self.am_index.remove(&key) {
            self.am.remove(&seq);
        }
        self.remove_ghost(key);
    }

    /// Iterate resident pages (A1in then Am, oldest first) — used by the
    /// FlexFetch cache filter to ask "is this profiled data resident?".
    pub fn resident_pages(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.a1in.iter().copied().chain(self.am.values().copied())
    }

    fn refresh_am(&mut self, key: PageKey) {
        let old = self.am_index[&key];
        self.am.remove(&old);
        self.seq += 1;
        self.am.insert(self.seq, key);
        self.am_index.insert(key, self.seq);
    }

    fn insert_am(&mut self, key: PageKey) {
        self.seq += 1;
        self.am.insert(self.seq, key);
        self.am_index.insert(key, self.seq);
    }

    fn remove_ghost(&mut self, key: PageKey) {
        if self.a1out_set.remove(&key) {
            self.a1out.retain(|k| *k != key);
        }
    }

    /// Ensure there is room for one more resident page.
    fn make_room(&mut self, evicted: &mut Vec<PageKey>) {
        if self.resident() < self.capacity {
            return;
        }
        // Prefer evicting from an over-full A1in into the ghost queue.
        if self.a1in.len() > self.kin {
            if let Some(victim) = self.a1in.pop_front() {
                self.a1in_set.remove(&victim);
                self.a1out.push_back(victim);
                self.a1out_set.insert(victim);
                if self.a1out.len() > self.kout {
                    if let Some(g) = self.a1out.pop_front() {
                        self.a1out_set.remove(&g);
                    }
                }
                evicted.push(victim);
                return;
            }
        }
        // Otherwise evict the Am LRU tail (no ghost for Am in classic 2Q).
        if let Some((&seq, &victim)) = self.am.iter().next() {
            self.am.remove(&seq);
            self.am_index.remove(&victim);
            evicted.push(victim);
        } else if let Some(victim) = self.a1in.pop_front() {
            // Degenerate: everything lives in A1in.
            self.a1in_set.remove(&victim);
            self.a1out.push_back(victim);
            self.a1out_set.insert(victim);
            if self.a1out.len() > self.kout {
                if let Some(g) = self.a1out.pop_front() {
                    self.a1out_set.remove(&g);
                }
            }
            evicted.push(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_trace::FileId;

    fn key(i: u64) -> PageKey {
        PageKey {
            file: FileId(1),
            index: i,
        }
    }

    fn touch(q: &mut TwoQ, i: u64) -> Access {
        let mut ev = Vec::new();
        q.touch(key(i), &mut ev)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut q = TwoQ::new(8);
        assert_eq!(touch(&mut q, 1), Access::Miss);
        assert_eq!(touch(&mut q, 1), Access::Hit);
        assert_eq!(q.resident(), 1);
    }

    #[test]
    fn capacity_is_respected() {
        let mut q = TwoQ::new(8);
        let mut ev = Vec::new();
        for i in 0..100 {
            q.touch(key(i), &mut ev);
        }
        assert!(q.resident() <= 8);
        assert_eq!(ev.len(), 100 - q.resident());
    }

    #[test]
    fn ghost_promotion_goes_to_am() {
        let mut q = TwoQ::new(8); // kin = 2
        let mut ev = Vec::new();
        // Fill beyond capacity so page 0 falls out of A1in into the ghost.
        for i in 0..9 {
            q.touch(key(i), &mut ev);
        }
        assert!(!q.contains(key(0)), "page 0 must have been evicted");
        // Touch page 0 again: ghost hit → promoted to Am.
        assert_eq!(touch(&mut q, 0), Access::GhostMiss);
        assert!(q.contains(key(0)));
        // It is now protected: another sweep of one-timers must not evict
        // it before the A1in pages go.
        for i in 100..120 {
            q.touch(key(i), &mut ev);
        }
        assert!(q.contains(key(0)), "Am page evicted by scan — 2Q broken");
    }

    #[test]
    fn scan_resistance() {
        // The signature 2Q property: a huge one-shot scan must not flush
        // the hot set.
        let mut q = TwoQ::new(32);
        let mut ev = Vec::new();
        // Build a hot set in Am: touch, evict to ghost, re-touch.
        for i in 0..4 {
            q.touch(key(i), &mut ev);
        }
        for i in 1000..1040 {
            q.touch(key(i), &mut ev);
        }
        for i in 0..4 {
            q.touch(key(i), &mut ev); // ghost hits → Am
        }
        assert!((0..4).all(|i| q.contains(key(i))));
        // One-shot scan of 10 000 pages.
        for i in 2000..12_000 {
            q.touch(key(i), &mut ev);
        }
        let survivors = (0..4).filter(|&i| q.contains(key(i))).count();
        assert_eq!(survivors, 4, "hot set flushed by scan");
    }

    #[test]
    fn am_lru_order() {
        let mut q = TwoQ::new(8);
        let mut ev = Vec::new();
        // Get pages 0..3 into Am via the ghost path.
        for round in 0..2 {
            for i in 0..3 {
                q.touch(key(i), &mut ev);
            }
            if round == 0 {
                for i in 10..19 {
                    q.touch(key(i), &mut ev); // push 0..3 through A1in to ghosts
                }
            }
        }
        assert!((0..3).all(|i| q.contains(key(i))));
        // Refresh page 0; then force Am evictions and check 0 outlives 1.
        touch(&mut q, 0);
        ev.clear();
        for i in 20..40 {
            q.touch(key(i), &mut ev);
        }
        // Page 1 (LRU) must fall before page 0 (MRU).
        if !q.contains(key(1)) {
            assert!(q.contains(key(0)) || !q.contains(key(1)));
        }
    }

    #[test]
    fn discard_removes_everywhere() {
        let mut q = TwoQ::new(8);
        touch(&mut q, 1);
        q.discard(key(1));
        assert!(!q.contains(key(1)));
        assert_eq!(
            touch(&mut q, 1),
            Access::Miss,
            "discard must not leave a ghost"
        );
    }

    #[test]
    fn resident_pages_iterates_all() {
        let mut q = TwoQ::new(8);
        for i in 0..5 {
            touch(&mut q, i);
        }
        let pages: Vec<_> = q.resident_pages().collect();
        assert_eq!(pages.len(), q.resident());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_capacity_rejected() {
        TwoQ::new(2);
    }

    #[test]
    fn repeat_touch_in_a1in_is_hit_but_no_promotion() {
        let mut q = TwoQ::new(8);
        touch(&mut q, 1);
        assert_eq!(touch(&mut q, 1), Access::Hit);
        // Correlated references inside A1in do not count as re-reference:
        // push it out and verify it ghosts rather than being in Am.
        let mut ev = Vec::new();
        for i in 10..19 {
            q.touch(key(i), &mut ev);
        }
        assert!(!q.contains(key(1)), "A1in page survived as if promoted");
    }
}
