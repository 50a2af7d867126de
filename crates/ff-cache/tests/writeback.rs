//! Laptop-mode write-back batching (§3.1, laptop-mode.txt).
//!
//! The invariant under test: laptop mode converts a steady drip of
//! dirty pages into a few large batches aligned with disk activity —
//! flush *everything* while the disk happens to spin, defer everything
//! (up to `laptop_max_age`) while it sleeps — instead of the normal
//! 30-second drip that would keep spinning the disk up.

use ff_base::{Bytes, SimTime};
use ff_cache::{BufferCache, CacheConfig, PageKey, WritebackConfig};
use ff_trace::FileId;

fn key(file: u64, index: u64) -> PageKey {
    PageKey {
        file: FileId(file),
        index,
    }
}

/// A cache of `pages` pages without readahead, so a read makes exactly
/// its own page resident.
fn cache(pages: usize, laptop_mode: bool) -> BufferCache {
    BufferCache::new(CacheConfig {
        capacity_pages: pages,
        readahead_max_pages: 0,
        writeback: WritebackConfig {
            laptop_mode,
            ..Default::default()
        },
    })
}

fn laptop() -> BufferCache {
    cache(256, true)
}

/// Dirty one page at `at`; nothing may be evicted.
fn dirty(c: &mut BufferCache, k: PageKey, at: SimTime) {
    let out = c.write(at, k.file, k.index * 4096, Bytes(4096));
    assert!(out.evicted_dirty.is_empty());
}

#[test]
fn steady_drip_becomes_one_batch_on_disk_wake() {
    let mut c = laptop();
    // One page dirtied every second for 20 s.
    for i in 0..20 {
        dirty(&mut c, key(1, i), SimTime::from_secs(i));
    }
    // Disk asleep: repeated flusher wake-ups flush nothing.
    for t in (25..100).step_by(5) {
        assert!(
            c.flush_due(SimTime::from_secs(t), false).is_empty(),
            "t={t}: laptop mode must not spin the disk up for young pages"
        );
    }
    assert_eq!(c.dirty(), 20);
    // The disk spins up (for a read); the next wake-up flushes the whole
    // backlog in one batch.
    let batch = c.flush_due(SimTime::from_secs(105), true);
    assert_eq!(batch.len(), 20, "eager flush must batch every dirty page");
    assert_eq!(c.dirty(), 0);
}

#[test]
fn batches_are_sorted_and_deterministic() {
    let run = || {
        let mut c = laptop();
        for i in [5u64, 1, 9, 3, 7] {
            dirty(&mut c, key(2, i), SimTime::ZERO);
        }
        c.flush_due(SimTime::from_secs(10), true)
    };
    let batch = run();
    let mut sorted = batch.clone();
    sorted.sort();
    assert_eq!(batch, sorted, "flush order must follow the page-key order");
    assert_eq!(batch, run(), "flush order must be reproducible");
}

#[test]
fn deferred_pages_force_out_at_laptop_max_age() {
    let mut c = laptop();
    dirty(&mut c, key(1, 0), SimTime::ZERO);
    // Far beyond the normal 30 s expiry, still deferred…
    assert!(c.flush_due(SimTime::from_secs(599), false).is_empty());
    // …but the laptop ceiling (600 s) caps data-loss exposure.
    assert_eq!(c.flush_due(SimTime::from_secs(605), false), vec![key(1, 0)]);
}

#[test]
fn normal_mode_drips_by_age_instead_of_batching() {
    let mut c = cache(256, false);
    dirty(&mut c, key(1, 0), SimTime::from_secs(0));
    dirty(&mut c, key(1, 1), SimTime::from_secs(20));
    // At t=35 only the 35-second-old page is past dirty_expire (30 s);
    // an active disk does not trigger an eager flush without laptop mode.
    let due = c.flush_due(SimTime::from_secs(35), true);
    assert_eq!(due, vec![key(1, 0)], "normal mode flushes by age only");
    assert_eq!(c.dirty(), 1);
}

#[test]
fn wakeup_cadence_limits_batch_frequency() {
    let mut c = laptop();
    dirty(&mut c, key(1, 0), SimTime::ZERO);
    assert_eq!(c.flush_due(SimTime::from_secs(10), true).len(), 1);
    dirty(&mut c, key(1, 1), SimTime::from_secs(10));
    // 2 s later the flusher has not woken again, even with the disk
    // ready and laptop mode eager.
    assert!(c.flush_due(SimTime::from_secs(12), true).is_empty());
    assert_eq!(c.flush_due(SimTime::from_secs(15), true), vec![key(1, 1)]);
}

#[test]
fn eviction_and_final_drain_interact_with_batching() {
    // Capacity 8 (2Q's A1in limit is 2 pages): page 2, written first,
    // is the first page later reads push out.
    let mut c = cache(8, true);
    for i in [2, 0, 1, 3, 4] {
        dirty(&mut c, key(3, i), SimTime::ZERO);
    }
    // An eviction writes one page out-of-band; it must leave the batch.
    let size = Bytes(u64::MAX);
    let evicted: Vec<PageKey> = (100..104)
        .flat_map(|i| {
            c.read(SimTime::ZERO, FileId(3), i * 4096, Bytes(4096), size)
                .evicted_dirty
        })
        .collect();
    assert_eq!(evicted, vec![key(3, 2)]);
    let batch = c.flush_due(SimTime::from_secs(10), true);
    assert_eq!(batch.len(), 4);
    assert!(!batch.contains(&key(3, 2)));
    // Nothing left for the end-of-simulation sync.
    assert!(c.flush_all().is_empty());
}
