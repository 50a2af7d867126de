//! Page identity, page runs, and the one ordered page list every
//! replacement queue is built from.

use ff_base::size::PAGE_SIZE;
use ff_trace::FileId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// One 4 KiB page of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey {
    /// The file (inode).
    pub file: FileId,
    /// Page index within the file (offset / 4096).
    pub index: u64,
}

/// Iterate the page indices covering `len` bytes at `offset`.
pub fn pages_covering(offset: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    debug_assert!(len > 0);
    let first = offset / PAGE_SIZE;
    let last = (offset + len - 1) / PAGE_SIZE;
    first..=last
}

/// Append `page` to a list of `(first_page, n_pages)` runs: extend the
/// last run when `page` directly follows it, else start a new run.
pub fn push_run(runs: &mut Vec<(u64, u64)>, page: u64) {
    match runs.last_mut() {
        Some((first, n)) if *first + *n == page => *n += 1,
        _ => runs.push((page, 1)),
    }
}

/// Stale entries `order` may carry beyond twice the live count before
/// [`PageQueue`] compacts it.
const STALE_SLACK: usize = 32;

/// An insertion-ordered set of pages: a FIFO when pages are only pushed
/// and popped, an LRU when hits [`refresh`](PageQueue::refresh) them.
///
/// `order` holds `(stamp, page)` oldest first and `pos` maps each queued
/// page to its current stamp. An `order` entry is live iff `pos` maps
/// its page to its stamp. `remove` drops only the `pos` entry, and a
/// re-push or `refresh` appends the page under a new stamp; either way
/// the old entry goes stale. `pop_front` skips stale entries, and
/// `compact` drops them once `order` outgrows `2 * len + STALE_SLACK`.
#[derive(Debug, Clone, Default)]
pub struct PageQueue {
    order: VecDeque<(u64, PageKey)>,
    pos: BTreeMap<PageKey, u64>,
    stamp: u64,
}

impl PageQueue {
    /// Number of queued pages.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether no page is queued.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Is `key` queued?
    pub fn contains(&self, key: PageKey) -> bool {
        self.pos.contains_key(&key)
    }

    /// Queue `key` at the back, moving it there if already queued.
    pub fn push_back(&mut self, key: PageKey) {
        self.stamp += 1;
        self.pos.insert(key, self.stamp);
        self.order.push_back((self.stamp, key));
        self.compact();
    }

    /// Move `key` to the back if it is queued; returns whether it was.
    pub fn refresh(&mut self, key: PageKey) -> bool {
        let Some(stamp) = self.pos.get_mut(&key) else {
            return false;
        };
        self.stamp += 1;
        *stamp = self.stamp;
        self.order.push_back((self.stamp, key));
        self.compact();
        true
    }

    /// Dequeue the oldest page.
    pub fn pop_front(&mut self) -> Option<PageKey> {
        while let Some((stamp, key)) = self.order.pop_front() {
            if let Entry::Occupied(live) = self.pos.entry(key) {
                if *live.get() == stamp {
                    live.remove();
                    return Some(key);
                }
            }
        }
        None
    }

    /// Dequeue `key` wherever it is; returns whether it was queued.
    pub fn remove(&mut self, key: PageKey) -> bool {
        self.pos.remove(&key).is_some()
    }

    /// Queued pages of `file` with index in `first..=last`. `PageKey`
    /// orders by file first, so the range never reaches a neighbouring
    /// file's pages.
    pub fn count_in(&self, file: FileId, first: u64, last: u64) -> usize {
        let lo = PageKey { file, index: first };
        let hi = PageKey { file, index: last };
        self.pos.range(lo..=hi).count()
    }

    fn compact(&mut self) {
        if self.order.len() > 2 * self.pos.len() + STALE_SLACK {
            let pos = &self.pos;
            self.order
                .retain(|(stamp, key)| pos.get(key) == Some(stamp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, index: u64) -> PageKey {
        PageKey {
            file: FileId(file),
            index,
        }
    }

    fn drain(q: &mut PageQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_front())
            .map(|k| k.index)
            .collect()
    }

    #[test]
    fn covering_ranges() {
        assert_eq!(pages_covering(0, 1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(pages_covering(0, 4096).collect::<Vec<_>>(), vec![0]);
        assert_eq!(pages_covering(0, 4097).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_covering(4095, 2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pages_covering(8192, 8192).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn push_run_extends_only_a_directly_following_page() {
        let mut runs = Vec::new();
        for p in [3, 4, 5, 7, 8, 2] {
            push_run(&mut runs, p);
        }
        assert_eq!(runs, vec![(3, 3), (7, 2), (2, 1)]);
    }

    #[test]
    fn refresh_remove_and_repush_reorder() {
        let mut q = PageQueue::default();
        for i in 0..5 {
            q.push_back(key(1, i));
        }
        assert!(q.refresh(key(1, 1)));
        assert!(!q.refresh(key(1, 9)), "refresh must not queue a new page");
        assert!(q.remove(key(1, 3)));
        assert!(!q.remove(key(1, 3)), "a removed page is gone");
        q.push_back(key(1, 0)); // re-push moves to the back
        assert_eq!(q.len(), 4);
        assert!(!q.contains(key(1, 3)));
        assert_eq!(drain(&mut q), vec![2, 4, 1, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_front_skips_stale_entries() {
        let mut q = PageQueue::default();
        for i in 0..4 {
            q.push_back(key(1, i));
        }
        q.remove(key(1, 0));
        q.refresh(key(1, 1));
        assert_eq!(q.pop_front(), Some(key(1, 2)));
        assert_eq!(q.pop_front(), Some(key(1, 3)));
        assert_eq!(q.pop_front(), Some(key(1, 1)));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn compaction_keeps_order_and_bounds_the_deque() {
        let mut q = PageQueue::default();
        for i in 0..8 {
            q.push_back(key(1, i));
        }
        // Thousands of refreshes would leave thousands of stale entries
        // without compaction.
        for round in 0..1000u64 {
            q.refresh(key(1, round % 4));
            assert!(q.order.len() <= 2 * q.len() + STALE_SLACK);
        }
        // 0..4 were refreshed in rotation, ending with page 3.
        assert_eq!(drain(&mut q), vec![4, 5, 6, 7, 0, 1, 2, 3]);
    }

    #[test]
    fn count_in_stays_inside_one_file() {
        let mut q = PageQueue::default();
        for (file, index) in [(1, 0), (1, u64::MAX), (2, 0), (2, 5), (2, 9), (3, 0)] {
            q.push_back(key(file, index));
        }
        assert_eq!(q.count_in(FileId(2), 0, u64::MAX), 3);
        assert_eq!(q.count_in(FileId(2), 1, 9), 2);
        assert_eq!(q.count_in(FileId(1), 1, u64::MAX), 1);
        q.remove(key(2, 5));
        assert_eq!(q.count_in(FileId(2), 0, u64::MAX), 2);
    }
}
