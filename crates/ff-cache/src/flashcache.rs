//! Flash cache tier (extension — §4's SmartSaver, simplified).
//!
//! Sits between the RAM buffer cache and the storage devices:
//!
//! * **read cache** — pages fetched from either device are copied into
//!   flash (LRU); later RAM misses that hit flash never touch the disk
//!   or the WNIC;
//! * **write buffer** — dirty pages destined for a *sleeping* disk are
//!   parked in flash instead of forcing a spin-up, and destaged in bulk
//!   once the disk is awake for other reasons.
//!
//! This type tracks *membership only* (like [`crate::twoq::TwoQ`]); the
//! simulator owns the flash device model and pays the transfer costs.

use crate::page::{PageKey, PageList, PageTable, Slot};

/// Page-granular LRU flash cache with a destage queue: one page table
/// holding one LRU list, with a page's table mark set while it is
/// buffered for destage.
#[derive(Debug, Clone)]
pub struct FlashCache {
    capacity_pages: usize,
    table: PageTable,
    lru: PageList,
    /// Marked pages: buffered for destage to the disk (still resident).
    dirty: usize,
}

impl FlashCache {
    /// Cache holding at most `capacity_pages` 4 KiB pages.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "flash capacity must be positive");
        FlashCache {
            capacity_pages,
            table: PageTable::default(),
            lru: PageList::new(0),
            dirty: 0,
        }
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.lru.len()
    }

    /// Dirty (buffered-write) page count.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Is `page` resident? Refreshes its LRU position.
    pub fn lookup(&mut self, page: PageKey) -> bool {
        self.refresh(page).is_some()
    }

    /// Move a resident `page` to the LRU's back and return its slot.
    fn refresh(&mut self, page: PageKey) -> Option<Slot> {
        let (slot, _) = self.table.find(page)?;
        self.table.unlink(&mut self.lru, slot);
        self.table.push_back(&mut self.lru, slot);
        Some(slot)
    }

    /// Insert a clean page fetched from a device; returns evicted pages
    /// that were dirty (they must be written out before being dropped).
    pub fn insert_clean(&mut self, page: PageKey) -> Vec<PageKey> {
        self.insert(page, false)
    }

    /// Buffer a dirty page (a write aimed at a sleeping disk); returns
    /// evicted dirty pages.
    pub fn buffer_write(&mut self, page: PageKey) -> Vec<PageKey> {
        self.insert(page, true)
    }

    fn insert(&mut self, page: PageKey, dirty: bool) -> Vec<PageKey> {
        let slot = match self.refresh(page) {
            Some(slot) => slot,
            None => self.table.insert(&mut self.lru, page),
        };
        if dirty && !self.table.marked(slot) {
            self.table.set_mark(slot);
            self.dirty += 1;
        }
        let mut spilled = Vec::new();
        while self.lru.len() > self.capacity_pages {
            let Some((victim, marked)) = self.table.pop_front_marked(&mut self.lru) else {
                break;
            };
            if marked {
                self.dirty -= 1;
                spilled.push(victim);
            }
        }
        spilled
    }

    /// Drain the destage queue (the disk is awake), ascending: the
    /// pages remain cached but are clean afterwards.
    pub fn take_destage(&mut self) -> Vec<PageKey> {
        let mut pages = Vec::with_capacity(self.dirty);
        if self.dirty > 0 {
            self.table.take_marked(&mut pages);
            self.dirty = 0;
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_trace::FileId;

    fn page(i: u64) -> PageKey {
        PageKey {
            file: FileId(1),
            index: i,
        }
    }

    #[test]
    fn lookup_after_insert_hits() {
        let mut f = FlashCache::new(8);
        assert!(!f.lookup(page(1)));
        f.insert_clean(page(1));
        assert!(f.lookup(page(1)));
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut f = FlashCache::new(3);
        for i in 0..3 {
            f.insert_clean(page(i));
        }
        f.lookup(page(0)); // refresh 0
        f.insert_clean(page(9)); // evicts 1 (coldest)
        assert!(f.lookup(page(0)));
        assert!(!f.lookup(page(1)));
        assert!(f.resident() <= 3);
    }

    #[test]
    fn dirty_eviction_is_surfaced() {
        let mut f = FlashCache::new(2);
        f.buffer_write(page(1));
        let spilled = f.insert_clean(page(2));
        assert!(spilled.is_empty());
        let spilled = f.insert_clean(page(3)); // evicts dirty page 1
        assert_eq!(spilled, vec![page(1)]);
        assert_eq!(f.dirty_count(), 0);
    }

    #[test]
    fn destage_clears_dirty_but_keeps_pages() {
        let mut f = FlashCache::new(8);
        f.buffer_write(page(1));
        f.buffer_write(page(2));
        let d = f.take_destage();
        assert_eq!(d.len(), 2);
        assert_eq!(f.dirty_count(), 0);
        assert!(f.lookup(page(1)), "destaged page remains cached");
    }

    #[test]
    fn reinsert_promotes_without_duplicating() {
        let mut f = FlashCache::new(4);
        f.insert_clean(page(1));
        f.insert_clean(page(1));
        assert_eq!(f.resident(), 1);
        // Dirty upgrade on rewrite.
        f.buffer_write(page(1));
        assert_eq!(f.dirty_count(), 1);
        assert_eq!(f.resident(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        FlashCache::new(0);
    }
}
