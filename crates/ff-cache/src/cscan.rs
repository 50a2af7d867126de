//! C-SCAN request scheduling with contiguous merging.
//!
//! §3.1: the simulator emulates *"the C-SCAN I/O request scheduling
//! mechanism"*; §2.1 notes that schedulers *"re-arrange pending requests
//! and merge requests for contiguous data blocks"*. The elevator sweeps
//! block addresses in one direction only: it dispatches the lowest-
//! addressed pending request at or above the head position, and when the
//! sweep passes the highest request it jumps back to the lowest pending
//! address (the "circular" in C-SCAN).

/// One pending disk request in block units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// First block.
    pub start: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Opaque tag the caller uses to map completions back (request id).
    pub tag: u64,
}

impl BlockRequest {
    /// Exclusive end block.
    pub fn end(&self) -> u64 {
        self.start + self.blocks
    }
}

/// A C-SCAN elevator queue over block addresses.
#[derive(Debug, Clone, Default)]
pub struct CScanQueue {
    /// Pending requests sorted by start block (one per start; merges
    /// fold contiguous neighbours together). A batch holds a handful of
    /// runs, so a sorted array beats a tree, and `clear` keeps its
    /// capacity for the next batch.
    pending: Vec<BlockRequest>,
    /// Current head position (block address of the last dispatch end).
    head: u64,
}

impl CScanQueue {
    /// Empty queue with the head at block 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending (possibly merged) requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True iff nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Current head position.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Drop every pending request and park the head at block 0, as
    /// [`CScanQueue::new`] does, keeping the allocation.
    pub fn clear(&mut self) {
        self.pending.clear();
        self.head = 0;
    }

    /// Enqueue a request, merging with block-contiguous neighbours
    /// (front and back). Overlapping requests are merged conservatively
    /// into their union, which takes the tag of `req`.
    pub fn push(&mut self, req: BlockRequest) {
        let mut start = req.start;
        let mut end = req.end();
        // Everything from `after` on starts past `req.start`.
        let after = self.pending.partition_point(|r| r.start <= start);
        let mut lo = after;
        // Merge with a predecessor that touches or overlaps us.
        let prev = after.checked_sub(1).and_then(|i| self.pending.get(i));
        if let Some(prev) = prev.filter(|p| p.end() >= start) {
            start = prev.start;
            end = end.max(prev.end());
            lo -= 1;
        }
        // Merge with successors we touch or overlap.
        let mut hi = after;
        while let Some(next) = self.pending.get(hi).filter(|n| n.start <= end) {
            end = end.max(next.end());
            hi += 1;
        }
        let merged = BlockRequest {
            start,
            blocks: end - start,
            tag: req.tag,
        };
        self.pending.splice(lo..hi, [merged]);
    }

    /// Dispatch the next request per C-SCAN order: the lowest start at or
    /// above the head, wrapping to the lowest overall when the sweep is
    /// exhausted. Advances the head past the dispatched request.
    pub fn pop(&mut self) -> Option<BlockRequest> {
        if self.pending.is_empty() {
            return None;
        }
        let next = self.pending.partition_point(|r| r.start < self.head);
        let req = self
            .pending
            .remove(if next == self.pending.len() { 0 } else { next });
        self.head = req.end();
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Dispatch order of everything pending.
    fn drain(q: &mut CScanQueue) -> Vec<BlockRequest> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    fn req(start: u64, blocks: u64) -> BlockRequest {
        BlockRequest {
            start,
            blocks,
            tag: start,
        }
    }

    #[test]
    fn dispatches_in_ascending_order_from_head() {
        let mut q = CScanQueue::new();
        q.push(req(50, 1));
        q.push(req(10, 1));
        q.push(req(90, 1));
        let order: Vec<u64> = drain(&mut q).iter().map(|r| r.start).collect();
        assert_eq!(order, vec![10, 50, 90]);
    }

    #[test]
    fn wraps_around_like_cscan_not_scan() {
        let mut q = CScanQueue::new();
        q.push(req(50, 1));
        let first = q.pop().unwrap();
        assert_eq!(first.start, 50);
        // Head is now 51; a request below must wait for the wrap but is
        // still served (ascending from the bottom, not reversing).
        q.push(req(10, 1));
        q.push(req(60, 1));
        let order: Vec<u64> = drain(&mut q).iter().map(|r| r.start).collect();
        assert_eq!(
            order,
            vec![60, 10],
            "C-SCAN serves upward first, then wraps to lowest"
        );
    }

    #[test]
    fn contiguous_requests_merge() {
        let mut q = CScanQueue::new();
        q.push(req(10, 5)); // 10..15
        q.push(req(15, 5)); // 15..20 — back-contiguous
        assert_eq!(q.len(), 1);
        let r = q.pop().unwrap();
        assert_eq!((r.start, r.blocks), (10, 10));
    }

    #[test]
    fn front_merge_works_too() {
        let mut q = CScanQueue::new();
        q.push(req(15, 5)); // 15..20
        q.push(req(10, 5)); // 10..15 — front-contiguous
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().start, 10);
    }

    #[test]
    fn overlapping_requests_take_the_union() {
        let mut q = CScanQueue::new();
        q.push(req(10, 10)); // 10..20
        q.push(req(15, 10)); // 15..25
        assert_eq!(q.len(), 1);
        let r = q.pop().unwrap();
        assert_eq!((r.start, r.end()), (10, 25));
    }

    #[test]
    fn merge_chain_across_several_pending() {
        let mut q = CScanQueue::new();
        q.push(req(10, 2));
        q.push(req(14, 2));
        q.push(req(18, 2));
        assert_eq!(q.len(), 3);
        // 12..18 touches all three.
        q.push(req(12, 6));
        assert_eq!(q.len(), 1);
        let r = q.pop().unwrap();
        assert_eq!((r.start, r.end()), (10, 20));
    }

    #[test]
    fn non_contiguous_stay_separate() {
        let mut q = CScanQueue::new();
        q.push(req(10, 2));
        q.push(req(20, 2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = CScanQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_nothing_and_parks_the_head() {
        let mut q = CScanQueue::new();
        q.push(req(50, 2));
        q.push(req(10, 1));
        assert_eq!(q.pop().unwrap().start, 10);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.head(), 0);
        q.push(req(5, 1));
        assert_eq!(q.pop().unwrap().start, 5);
    }

    /// The tree-backed queue this one replaced: the reference for merge
    /// order, tags and dispatch order.
    #[derive(Default)]
    struct Reference {
        pending: BTreeMap<u64, BlockRequest>,
        head: u64,
    }

    impl Reference {
        fn push(&mut self, req: BlockRequest) {
            let mut start = req.start;
            let mut end = req.end();
            if let Some((&pstart, prev)) = self.pending.range(..=start).next_back() {
                if prev.end() >= start {
                    start = pstart;
                    end = end.max(prev.end());
                    self.pending.remove(&pstart);
                }
            }
            while let Some((&nstart, next)) = self.pending.range(start..).next() {
                if nstart > end {
                    break;
                }
                end = end.max(next.end());
                self.pending.remove(&nstart);
            }
            let blocks = end - start;
            self.pending.insert(
                start,
                BlockRequest {
                    start,
                    blocks,
                    tag: req.tag,
                },
            );
        }

        fn pop(&mut self) -> Option<BlockRequest> {
            let key = self
                .pending
                .range(self.head..)
                .next()
                .or_else(|| self.pending.iter().next())
                .map(|(&k, _)| k)?;
            let req = self.pending.remove(&key)?;
            self.head = req.end();
            Some(req)
        }
    }

    proptest! {
        /// Random pushes over a narrow span (so they overlap, touch,
        /// share starts and leave zero gaps), some of zero length,
        /// interleaved with pops that move the head and wrap it: every
        /// pop and every length agrees with the tree-backed reference.
        #[test]
        fn matches_the_tree_backed_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..120, 0u64..10), 1..200),
        ) {
            let mut q = CScanQueue::new();
            let mut r = Reference::default();
            for (i, &(op, start, blocks)) in ops.iter().enumerate() {
                if op == 0 {
                    prop_assert_eq!(q.pop(), r.pop(), "pop {}", i);
                    prop_assert_eq!(q.head(), r.head, "head after pop {}", i);
                } else {
                    let tag = i as u64;
                    q.push(BlockRequest { start, blocks, tag });
                    r.push(BlockRequest { start, blocks, tag });
                }
                prop_assert_eq!(q.len(), r.pending.len(), "len after op {}", i);
            }
            while let Some(want) = r.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert!(q.is_empty());
        }
    }
}
