//! The parallel deterministic batch-execution engine.
//!
//! Every sweep, fault matrix, and ablation in this crate is an
//! embarrassingly-parallel grid of independent simulations. This module
//! runs such a grid on a **work-stealing pool** of scoped std threads
//! (no new dependencies: per-worker deques behind mutexes, results over
//! an mpsc channel) while keeping the batch **byte-deterministic**:
//!
//! * tasks never share mutable state — any randomness a task needs
//!   comes from its own derived stream
//!   ([`ff_base::rng::derive_seed`]`(base, task_key)`), never from an
//!   RNG consumed in scheduling order;
//! * each worker pops from the *front* of its own deque and, when dry,
//!   steals from the *back* of a sibling's, so an unbalanced shard
//!   (one long mplayer cell among thirty) cannot idle the pool;
//! * results carry their task index and are merged by sorting into
//!   **canonical task order** before they escape, so the output is
//!   byte-identical whether the grid ran on one worker or sixteen.
//!
//! The engine is exercised by `tests/parallel.rs` (same grid at
//! `--jobs 1` and `--jobs 8` must serialise identically) and measured
//! by the `benchpar` binary (`bench/BENCH_parallel.json`).

use ff_base::{Error, Result};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// The pool size used when a `--jobs` request is absent or `0`: one
/// worker per hardware thread the host grants us.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Resolve a `--jobs N` request: `0` means [`default_jobs`], anything
/// else is taken literally (oversubscription is allowed — determinism
/// never depends on it).
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// Pop a task index for worker `me`: own queue first (front), then
/// steal from the back of the nearest non-empty sibling.
fn pop_or_steal(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Ok(mut own) = queues[me].lock() {
        if let Some(i) = own.pop_front() {
            return Some(i);
        }
    }
    for off in 1..queues.len() {
        let victim = (me + off) % queues.len();
        if let Ok(mut q) = queues[victim].lock() {
            if let Some(i) = q.pop_back() {
                return Some(i);
            }
        }
    }
    None
}

/// Run `work` over every item on `jobs` workers and return the results
/// **in item order**, regardless of thread count or scheduling.
///
/// `jobs` is resolved via [`resolve_jobs`] and clamped to the item
/// count; `jobs == 1` (after resolution) runs inline on the caller's
/// thread — the serial reference path the `benchpar` speedup compares
/// against. `work` receives `(index, &item)` and must be deterministic
/// in those inputs alone for the batch to replay byte-identically.
///
/// A panicking worker surfaces as `Err` (the scope result), never as a
/// silently missing slot.
///
/// ```
/// use ff_bench::pool::run_ordered;
/// let squares = run_ordered(8, &[1u64, 2, 3, 4, 5], |i, &x| {
///     assert_eq!(i as u64 + 1, x);
///     x * x
/// })
/// .unwrap();
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn run_ordered<I, T, F>(jobs: usize, items: &[I], work: F) -> Result<Vec<T>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len()).max(1);
    if jobs == 1 {
        return Ok(items
            .iter()
            .enumerate()
            .map(|(i, it)| work(i, it))
            .collect());
    }

    // Round-robin shard the task indices across per-worker deques; the
    // shard only seeds locality, stealing rebalances the rest.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w..items.len()).step_by(jobs).collect()))
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let scope_result = crossbeam::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let queues = &queues;
            let work = &work;
            s.spawn(move |_| {
                while let Some(i) = pop_or_steal(queues, w) {
                    if tx.send((i, work(i, &items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    scope_result.map_err(|_| Error::Internal("parallel grid worker panicked".into()))?;

    let mut merged: Vec<(usize, T)> = rx.into_iter().collect();
    // Canonical-order merge: results leave this function sorted by task
    // index, independent of which worker finished when.
    merged.sort_by_key(|&(i, _)| i);
    if merged.len() != items.len() {
        return Err(Error::Internal(format!(
            "parallel grid lost results: {} of {}",
            merged.len(),
            items.len()
        )));
    }
    Ok(merged.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn order_is_canonical_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = run_ordered(1, &items, |_, &x| x * 3 + 1).unwrap();
        for jobs in [2, 3, 8, 64, 200] {
            let par = run_ordered(jobs, &items, |_, &x| x * 3 + 1).unwrap();
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        let out = run_ordered(7, &items, |i, &x| {
            assert_eq!(i, x);
            hits.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn stealing_drains_an_unbalanced_shard() {
        // One task is 1000x the others; the pool must still finish and
        // keep canonical order.
        let items: Vec<u64> = (0..16).collect();
        let out = run_ordered(4, &items, |_, &x| {
            let spins = if x == 0 { 200_000 } else { 200 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        })
        .unwrap();
        let keys: Vec<u64> = out.iter().map(|&(x, _)| x).collect();
        assert_eq!(keys, items);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u8> = run_ordered(8, &[] as &[u8], |_, &x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_is_an_error_not_a_hang() {
        let items: Vec<u32> = (0..8).collect();
        let r = run_ordered(4, &items, |_, &x| {
            assert!(x != 5, "injected failure");
            x
        });
        assert!(r.is_err());
    }

    #[test]
    fn jobs_zero_resolves_to_the_host_default() {
        assert_eq!(resolve_jobs(0), default_jobs());
        assert_eq!(resolve_jobs(3), 3);
        assert!(default_jobs() >= 1);
    }
}
