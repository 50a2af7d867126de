//! C-SCAN elevator ordering invariants (§2.1/§3.1).
//!
//! The unit tests in `cscan.rs` pin individual behaviours; these
//! integration tests check the *invariants* that make the elevator a
//! C-SCAN over arbitrary seeded workloads:
//!
//! 1. a full drain is at most two ascending runs (one sweep up, one
//!    wrap back to the lowest pending address — never SCAN's reversal),
//! 2. pending requests are always disjoint and non-adjacent after
//!    merging,
//! 3. dispatch covers exactly the union of the pushed block ranges.

use ff_cache::cscan::{BlockRequest, CScanQueue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_requests(seed: u64, n: usize, span: u64) -> Vec<BlockRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| BlockRequest {
            start: rng.gen_range(0..span),
            blocks: rng.gen_range(1..64),
            tag: i as u64,
        })
        .collect()
}

/// Pop everything pending, in dispatch order.
fn drain(q: &mut CScanQueue) -> Vec<BlockRequest> {
    std::iter::from_fn(|| q.pop()).collect()
}

/// Split a dispatch order into ascending runs by start address.
fn ascending_runs(order: &[BlockRequest]) -> usize {
    if order.is_empty() {
        return 0;
    }
    1 + order.windows(2).filter(|w| w[1].start < w[0].start).count()
}

#[test]
fn drain_is_at_most_two_ascending_runs() {
    for seed in 0..20 {
        let mut q = CScanQueue::new();
        // Park the head mid-span so the wrap case actually occurs.
        q.push(BlockRequest {
            start: 5_000,
            blocks: 1,
            tag: u64::MAX,
        });
        let _ = q.pop();
        for r in random_requests(seed, 50, 10_000) {
            q.push(r);
        }
        let order = drain(&mut q);
        let runs = ascending_runs(&order);
        assert!(
            runs <= 2,
            "seed {seed}: C-SCAN must wrap at most once per drain, saw {runs} runs: \
             {:?}",
            order.iter().map(|r| r.start).collect::<Vec<_>>()
        );
        // The first run serves addresses at or above the parked head.
        if runs == 2 {
            assert!(
                order[0].start >= 5_001,
                "seed {seed}: sweep must start at the head, not below it"
            );
        }
    }
}

#[test]
fn pending_requests_stay_disjoint_after_merging() {
    for seed in 20..40 {
        let mut q = CScanQueue::new();
        for r in random_requests(seed, 80, 2_000) {
            q.push(r);
        }
        let mut segments: Vec<(u64, u64)> =
            drain(&mut q).iter().map(|r| (r.start, r.end())).collect();
        segments.sort_unstable();
        for w in segments.windows(2) {
            assert!(
                w[1].0 > w[0].1,
                "seed {seed}: merged queue holds touching segments {w:?}"
            );
        }
    }
}

#[test]
fn dispatch_covers_exactly_the_pushed_blocks() {
    for seed in 40..60 {
        let reqs = random_requests(seed, 60, 3_000);
        let mut q = CScanQueue::new();
        let mut expected = BTreeSet::new();
        for r in &reqs {
            q.push(*r);
            expected.extend(r.start..r.end());
        }
        let mut served = BTreeSet::new();
        for r in drain(&mut q) {
            for b in r.start..r.end() {
                assert!(served.insert(b), "seed {seed}: block {b} dispatched twice");
            }
        }
        assert_eq!(served, expected, "seed {seed}: coverage mismatch");
    }
}

#[test]
fn head_advances_past_each_dispatch() {
    let mut q = CScanQueue::new();
    for r in random_requests(99, 30, 1_000) {
        q.push(r);
    }
    while let Some(r) = q.pop() {
        assert_eq!(
            q.head(),
            r.end(),
            "head must land after the dispatched request"
        );
    }
    assert!(q.is_empty());
}

#[test]
fn two_identical_workloads_drain_identically() {
    let build = || {
        let mut q = CScanQueue::new();
        for r in random_requests(7, 100, 5_000) {
            q.push(r);
        }
        drain(&mut q)
    };
    assert_eq!(build(), build(), "elevator order must be deterministic");
}
