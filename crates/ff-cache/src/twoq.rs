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

use crate::page::{PageKey, PageList, PageTable, Slot};
use ff_trace::FileId;

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

/// List tags in the page table.
const A1IN: u8 = 0;
const A1OUT: u8 = 1;
const AM: u8 = 2;

/// 2Q replacement state over page keys (data-less — residency only):
/// one page table holding the A1in, A1out and Am lists.
#[derive(Debug, Clone)]
pub struct TwoQ {
    capacity: usize,
    kin: usize,
    kout: usize,
    table: PageTable,
    a1in: PageList,
    a1out: PageList,
    am: PageList,
}

impl TwoQ {
    /// The smallest capacity [`TwoQ::new`] accepts.
    pub const MIN_CAPACITY: usize = 4;

    /// New cache holding at most `capacity` resident pages.
    ///
    /// Uses the canonical tuning: `Kin` = 25 % of capacity, `Kout` = 50 %.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= Self::MIN_CAPACITY, "2Q needs at least 4 pages");
        TwoQ {
            capacity,
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            table: PageTable::default(),
            a1in: PageList::new(A1IN),
            a1out: PageList::new(A1OUT),
            am: PageList::new(AM),
        }
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.a1in.len() + self.am.len()
    }

    /// Is the page resident (no state change)?
    pub fn contains(&self, key: PageKey) -> bool {
        matches!(self.table.tag_of(key), Some(A1IN | AM))
    }

    /// Resident pages of `file` with index in `first..=last` (no state
    /// change): the table's pages there, less A1out's ghosts.
    pub fn resident_in(&self, file: FileId, first: u64, last: u64) -> usize {
        self.table.count_in(file, first, last, |tag| tag != A1OUT)
    }

    /// Touch `key`; returns the access class and appends any evicted
    /// (previously resident) pages to `evicted`.
    pub fn touch(&mut self, key: PageKey, evicted: &mut Vec<PageKey>) -> Access {
        match self.table.find(key) {
            Some((slot, AM)) => {
                self.table.unlink(&mut self.am, slot);
                self.table.push_back(&mut self.am, slot);
                Access::Hit
            }
            // 2Q leaves A1in order alone on repeat touches.
            Some((_, A1IN)) => Access::Hit,
            ghost => self.fetch(key, ghost.map(|(slot, _)| slot), evicted),
        }
    }

    /// Make `key` resident if it is not, exactly as [`TwoQ::touch`]
    /// would; a resident page is left where it is. Returns whether the
    /// page was fetched. Readahead's one lookup per page.
    pub fn prefetch(&mut self, key: PageKey, evicted: &mut Vec<PageKey>) -> bool {
        match self.table.find(key) {
            Some((_, A1IN | AM)) => false,
            ghost => {
                self.fetch(key, ghost.map(|(slot, _)| slot), evicted);
                true
            }
        }
    }

    /// Fetch a non-resident page: a ghost (`ghost` is its A1out slot)
    /// leaves A1out and enters Am, anything else enters A1in, after
    /// `make_room` in both cases.
    fn fetch(&mut self, key: PageKey, ghost: Option<Slot>, evicted: &mut Vec<PageKey>) -> Access {
        match ghost {
            Some(slot) => {
                self.table.unlink(&mut self.a1out, slot);
                self.make_room(evicted);
                self.table.push_back(&mut self.am, slot);
                Access::GhostMiss
            }
            None => {
                self.make_room(evicted);
                self.table.insert(&mut self.a1in, key);
                Access::Miss
            }
        }
    }

    /// Ensure there is room for one more resident page: evict the Am LRU
    /// page unless A1in is over `Kin` (or Am is empty), in which case
    /// A1in's oldest page moves to the ghost queue. Am pages leave no
    /// ghost, as in classic 2Q.
    fn make_room(&mut self, evicted: &mut Vec<PageKey>) {
        if self.resident() < self.capacity {
            return;
        }
        if self.a1in.len() <= self.kin {
            if let Some(victim) = self.table.pop_front(&mut self.am) {
                evicted.push(victim);
                return;
            }
        }
        if let Some((slot, victim)) = self.table.take_front(&mut self.a1in) {
            self.table.push_back(&mut self.a1out, slot);
            if self.a1out.len() > self.kout {
                self.table.pop_front(&mut self.a1out);
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
