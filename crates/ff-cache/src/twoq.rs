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
//!
//! The same page table keeps the dirty set: a written page is marked
//! and put on a list ordered by the time it was first dirtied, and a
//! page that leaves memory leaves that list in the same step, its
//! dirtiness going out with it as a [`Victim`].

use crate::page::{PageKey, PageList, PageTable, Slot, StampList};
use ff_base::SimTime;
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

/// A page 2Q pushed out of memory, and whether it was dirty then: a
/// dirty victim must be written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The page.
    pub key: PageKey,
    /// Whether it was dirty when it left (its mark is cleared).
    pub dirty: bool,
}

/// List tags in the page table.
const A1IN: u8 = 0;
const A1OUT: u8 = 1;
const AM: u8 = 2;

/// 2Q replacement state over page keys (data-less — residency and
/// dirtiness only): one page table holding the A1in, A1out and Am
/// lists, and the dirty pages on a list by first-dirtied time.
#[derive(Debug, Clone)]
pub struct TwoQ {
    capacity: usize,
    kin: usize,
    kout: usize,
    table: PageTable,
    a1in: PageList,
    a1out: PageList,
    am: PageList,
    dirty: StampList,
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
            dirty: StampList::new(),
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

    /// Dirty page count.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Touch `key`; returns the access class and appends any pages
    /// pushed out of memory to `evicted`.
    pub fn touch(&mut self, key: PageKey, evicted: &mut Vec<Victim>) -> Access {
        self.access(key, evicted).1
    }

    /// Touch `key` as [`TwoQ::touch`] does and mark it dirty at `now`.
    /// A page already dirty keeps its first-dirtied time.
    pub fn write(&mut self, key: PageKey, now: SimTime, evicted: &mut Vec<Victim>) -> Access {
        let (slot, access) = self.access(key, evicted);
        self.table.stamp(&mut self.dirty, slot, now);
        access
    }

    /// Mark `key` clean if it is dirty (no other state change).
    pub fn clean(&mut self, key: PageKey) {
        if let Some((slot, _)) = self.table.find(key) {
            self.table.unstamp(&mut self.dirty, slot);
        }
    }

    /// Take the dirty pages whose first-dirtied time `due` accepts and
    /// mark them clean; they stay resident. `due` must accept every time
    /// at or before some instant (an age limit), so those pages are a
    /// prefix of the dirty list. Returned ascending by key.
    pub fn take_dirty(&mut self, due: impl Fn(SimTime) -> bool) -> Vec<PageKey> {
        let mut pages = Vec::new();
        self.table.take_stamped(&mut self.dirty, due, &mut pages);
        pages.sort_unstable();
        pages
    }

    /// The touch behind [`TwoQ::touch`] and [`TwoQ::write`], with the
    /// page's slot.
    fn access(&mut self, key: PageKey, evicted: &mut Vec<Victim>) -> (Slot, Access) {
        match self.table.find(key) {
            Some((slot, AM)) => {
                self.table.unlink(&mut self.am, slot);
                self.table.push_back(&mut self.am, slot);
                (slot, Access::Hit)
            }
            // 2Q leaves A1in order alone on repeat touches.
            Some((slot, A1IN)) => (slot, Access::Hit),
            ghost => self.fetch(key, ghost.map(|(slot, _)| slot), evicted),
        }
    }

    /// Make `key` resident if it is not, exactly as [`TwoQ::touch`]
    /// would; a resident page is left where it is. Returns whether the
    /// page was fetched. Readahead's one lookup per page.
    pub fn prefetch(&mut self, key: PageKey, evicted: &mut Vec<Victim>) -> bool {
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
    fn fetch(
        &mut self,
        key: PageKey,
        ghost: Option<Slot>,
        evicted: &mut Vec<Victim>,
    ) -> (Slot, Access) {
        match ghost {
            Some(slot) => {
                self.table.unlink(&mut self.a1out, slot);
                self.make_room(evicted);
                self.table.push_back(&mut self.am, slot);
                (slot, Access::GhostMiss)
            }
            None => {
                self.make_room(evicted);
                (self.table.insert(&mut self.a1in, key), Access::Miss)
            }
        }
    }

    /// Ensure there is room for one more resident page: evict the Am LRU
    /// page unless A1in is over `Kin` (or Am is empty), in which case
    /// A1in's oldest page moves to the ghost queue. Am pages leave no
    /// ghost, as in classic 2Q. Either way the victim leaves the dirty
    /// list and takes its dirtiness with it.
    fn make_room(&mut self, evicted: &mut Vec<Victim>) {
        if self.resident() < self.capacity {
            return;
        }
        if self.a1in.len() <= self.kin {
            if let Some((slot, key)) = self.table.take_front(&mut self.am) {
                let dirty = self.unstamp(slot);
                self.table.remove(slot);
                evicted.push(Victim { key, dirty });
                return;
            }
        }
        if let Some((slot, key)) = self.table.take_front(&mut self.a1in) {
            let dirty = self.unstamp(slot);
            self.table.push_back(&mut self.a1out, slot);
            if self.a1out.len() > self.kout {
                self.table.pop_front(&mut self.a1out);
            }
            evicted.push(Victim { key, dirty });
        }
    }

    /// Clear the page's dirty mark; returns whether it was dirty. With
    /// no dirty page at all — every read-only run — this reads nothing
    /// of the page.
    fn unstamp(&mut self, slot: Slot) -> bool {
        !self.dirty.is_empty() && self.table.unstamp(&mut self.dirty, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn victims_carry_dirtiness_through_demotion_and_am_eviction() {
        // Capacity 4: Kin 1, Kout 2.
        let mut q = TwoQ::new(4);
        let mut ev = Vec::new();
        let v = |i, dirty| Victim { key: key(i), dirty };
        let at = SimTime::from_secs;
        q.write(key(0), at(1), &mut ev);
        for i in 1..=4 {
            q.touch(key(i), &mut ev);
        }
        assert_eq!(ev, [v(0, true)], "an A1in demotion takes the dirt along");
        assert_eq!(q.dirty_count(), 0);
        ev.clear();
        // Page 0 comes back clean from its ghost into Am, and is dirtied
        // there; page 3 is dirtied in A1in.
        assert_eq!(q.touch(key(0), &mut ev), Access::GhostMiss);
        q.write(key(0), at(2), &mut ev);
        q.write(key(3), at(3), &mut ev);
        assert_eq!(q.dirty_count(), 2);
        // Pages 1 and 2 follow page 0 into Am; page 3 is demoted.
        q.touch(key(1), &mut ev);
        q.touch(key(2), &mut ev);
        assert_eq!(ev, [v(1, false), v(2, false), v(3, true)]);
        // A1in is down to Kin, so the next miss evicts Am's LRU page.
        q.touch(key(5), &mut ev);
        q.touch(key(6), &mut ev);
        assert_eq!(
            ev,
            [
                v(1, false),
                v(2, false),
                v(3, true),
                v(0, true),
                v(4, false)
            ]
        );
        assert_eq!(q.dirty_count(), 0);
        assert_eq!(q.take_dirty(|_| true), vec![]);
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
