//! Asynchronous write-back with Linux laptop-mode rules.
//!
//! Normal kernel behaviour: dirty pages age in memory and a flusher
//! thread writes back pages older than `dirty_expire` on a
//! `wakeup_interval` cadence. Laptop mode changes the triggers (§3.1,
//! laptop-mode.txt):
//!
//! * **eager flush** — when the disk is already spinning because of a
//!   read, flush *all* dirty pages while it is awake, so the write-back
//!   does not force a later spin-up of its own;
//! * **deferred flush** — while the disk is in standby, let dirty pages
//!   age up to `laptop_max_age` (minutes, not seconds) before forcing a
//!   spin-up.

use crate::page::PageKey;
use ff_base::{Dur, SimTime};
use std::collections::BTreeMap;

/// Write-back tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackConfig {
    /// Age at which a dirty page must be written back under normal
    /// (non-laptop) rules (Linux `dirty_expire_centisecs` = 30 s).
    pub dirty_expire: Dur,
    /// Flusher wake-up cadence (Linux: 5 s).
    pub wakeup_interval: Dur,
    /// Laptop-mode: maximum dirty age while the disk sleeps (we use
    /// 10 min, laptop-mode.txt's suggested `MAX_LOST_WORK_SECONDS` scale).
    pub laptop_max_age: Dur,
    /// Laptop-mode master switch.
    pub laptop_mode: bool,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig {
            dirty_expire: Dur::from_secs(30),
            wakeup_interval: Dur::from_secs(5),
            laptop_max_age: Dur::from_secs(600),
            laptop_mode: true,
        }
    }
}

/// Dirty-page registry.
#[derive(Debug, Clone, Default)]
pub struct Writeback {
    config: WritebackConfig,
    /// Dirty pages → instant first dirtied (age anchor; re-dirtying does
    /// not reset the clock, matching the kernel).
    dirty: BTreeMap<PageKey, SimTime>,
    /// No dirty page was first dirtied before this (`SimTime::MAX` when
    /// none is dirty): lowered by `mark_dirty`, made exact by each scan.
    /// Evictions leave it low, which only costs a scan.
    oldest: SimTime,
    last_wakeup: SimTime,
}

impl Writeback {
    /// New registry.
    pub fn new(config: WritebackConfig) -> Self {
        Writeback {
            config,
            dirty: BTreeMap::new(),
            oldest: SimTime::MAX,
            last_wakeup: SimTime::ZERO,
        }
    }

    /// Mark a page dirty at `now`.
    pub fn mark_dirty(&mut self, key: PageKey, now: SimTime) {
        self.dirty.entry(key).or_insert(now);
        self.oldest = self.oldest.min(now);
    }

    /// A page left memory (evicted) — it must be written out regardless;
    /// returns true if it was dirty.
    pub fn on_evict(&mut self, key: PageKey) -> bool {
        self.dirty.remove(&key).is_some()
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The flusher's decision at `now`: which pages to write back, given
    /// whether the disk is currently spinning (`disk_ready`).
    ///
    /// Returns the pages to flush (removed from the registry — the caller
    /// owns issuing the actual writes).
    pub fn collect_due(&mut self, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
        if now.saturating_since(self.last_wakeup) < self.config.wakeup_interval {
            return Vec::new();
        }
        self.last_wakeup = now;

        let take_all = self.config.laptop_mode && disk_ready && !self.dirty.is_empty();
        let age_limit = if self.config.laptop_mode && !disk_ready {
            self.config.laptop_max_age
        } else {
            self.config.dirty_expire
        };

        // No page is older than the oldest: nothing can be due.
        if !take_all && now.saturating_since(self.oldest) < age_limit {
            return Vec::new();
        }

        // One pass in key order: due pages leave the registry as they
        // are pushed, so the list comes out ascending.
        let mut due = Vec::new();
        let mut oldest = SimTime::MAX;
        self.dirty.retain(|&k, &mut since| {
            let keep = !take_all && now.saturating_since(since) < age_limit;
            if keep {
                oldest = oldest.min(since);
            } else {
                due.push(k);
            }
            keep
        });
        self.oldest = oldest;
        due
    }

    /// Everything still dirty, ascending (final sync at simulation end).
    pub fn drain_all(&mut self) -> Vec<PageKey> {
        self.oldest = SimTime::MAX;
        std::mem::take(&mut self.dirty).into_keys().collect()
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

    fn wb(laptop: bool) -> Writeback {
        Writeback::new(WritebackConfig {
            laptop_mode: laptop,
            ..Default::default()
        })
    }

    #[test]
    fn young_pages_are_not_flushed() {
        let mut w = wb(false);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        let due = w.collect_due(SimTime::from_secs(10), true);
        assert!(due.is_empty(), "10 s < 30 s dirty_expire");
        assert_eq!(w.dirty_count(), 1);
    }

    #[test]
    fn expired_pages_flush_under_normal_rules() {
        let mut w = wb(false);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        w.mark_dirty(key(2), SimTime::from_secs(25));
        let due = w.collect_due(SimTime::from_secs(31), true);
        assert_eq!(due, vec![key(1)]);
        assert_eq!(w.drain_all(), vec![key(2)]);
    }

    #[test]
    fn laptop_mode_flushes_everything_on_active_disk() {
        let mut w = wb(true);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        w.mark_dirty(key(2), SimTime::from_secs(9));
        let due = w.collect_due(SimTime::from_secs(10), true);
        assert_eq!(due.len(), 2, "eager flush while the disk spins");
    }

    #[test]
    fn laptop_mode_defers_on_standby_disk() {
        let mut w = wb(true);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        // 100 s old — far past dirty_expire, but the disk sleeps and the
        // laptop max age is 600 s.
        let due = w.collect_due(SimTime::from_secs(100), false);
        assert!(due.is_empty(), "laptop mode must not wake the disk early");
        // Past the laptop age it does flush.
        let due = w.collect_due(SimTime::from_secs(601), false);
        assert_eq!(due, vec![key(1)]);
    }

    #[test]
    fn wakeup_interval_gates_the_flusher() {
        let mut w = wb(false);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        let _ = w.collect_due(SimTime::from_secs(31), true);
        w.mark_dirty(key(2), SimTime::from_secs(0));
        // Only 1 s after the previous wake-up: flusher stays asleep even
        // though key(2) is over-age.
        let due = w.collect_due(SimTime::from_secs(32), true);
        assert!(due.is_empty());
        let due = w.collect_due(SimTime::from_secs(37), true);
        assert_eq!(due, vec![key(2)]);
    }

    #[test]
    fn redirty_does_not_reset_age() {
        let mut w = wb(false);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        w.mark_dirty(key(1), SimTime::from_secs(29)); // re-dirty
        let due = w.collect_due(SimTime::from_secs(31), true);
        assert_eq!(due, vec![key(1)], "age anchored at first dirtying");
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut w = wb(true);
        w.mark_dirty(key(1), SimTime::ZERO);
        assert!(w.on_evict(key(1)));
        assert!(!w.on_evict(key(1)), "second evict sees it clean");
        assert!(!w.on_evict(key(2)));
    }

    #[test]
    fn due_pages_come_out_ascending_under_both_rules() {
        // Dirtied out of key order, at ages on both sides of the 30 s
        // expiry and of the 600 s laptop age.
        let dirty = [(9, 0), (2, 500), (7, 5), (4, 0), (1, 620), (5, 30)];
        let fill = |laptop| {
            let mut w = wb(laptop);
            for (i, at) in dirty {
                w.mark_dirty(key(i), SimTime::from_secs(at));
            }
            w
        };
        let keys = |ks: &[u64]| ks.iter().map(|&i| key(i)).collect::<Vec<_>>();
        let now = SimTime::from_secs(640);
        // Normal rules: everything at least 30 s old.
        let mut w = fill(false);
        assert_eq!(w.collect_due(now, false), keys(&[2, 4, 5, 7, 9]));
        assert_eq!(w.drain_all(), keys(&[1]));
        // Laptop mode, disk asleep: only past the laptop age.
        let mut w = fill(true);
        assert_eq!(w.collect_due(now, false), keys(&[4, 5, 7, 9]));
        assert_eq!(w.drain_all(), keys(&[1, 2]));
        // Laptop mode, disk spinning: everything, young pages included.
        let mut w = fill(true);
        assert_eq!(w.collect_due(now, true), keys(&[1, 2, 4, 5, 7, 9]));
        assert_eq!(w.dirty_count(), 0);
    }

    /// The due pages by a plain scan of the registry, with no bound.
    fn scan(w: &Writeback, now: SimTime, disk_ready: bool) -> Vec<PageKey> {
        let c = &w.config;
        let limit = if c.laptop_mode && !disk_ready {
            c.laptop_max_age
        } else {
            c.dirty_expire
        };
        w.dirty
            .iter()
            .filter(|&(_, &since)| {
                (c.laptop_mode && disk_ready) || now.saturating_since(since) >= limit
            })
            .map(|(&k, _)| k)
            .collect()
    }

    #[test]
    fn sleeping_disk_with_young_pages_skips_the_scan() {
        let mut w = wb(true);
        for (i, at) in [(3, 40), (1, 10), (2, 599)] {
            w.mark_dirty(key(i), SimTime::from_secs(at));
        }
        assert_eq!(w.oldest, SimTime::from_secs(10));
        // Every wake-up before page 1 is 600 s old returns nothing.
        for now in (15..610).step_by(5) {
            assert_eq!(w.collect_due(SimTime::from_secs(now), false), vec![]);
            assert_eq!(w.last_wakeup, SimTime::from_secs(now), "wake-up recorded");
        }
        assert_eq!(w.dirty_count(), 3);
        assert_eq!(w.collect_due(SimTime::from_secs(610), false), vec![key(1)]);
        assert_eq!(w.oldest, SimTime::from_secs(40), "rebuilt by the scan");
    }

    #[test]
    fn evicting_the_oldest_page_leaves_the_due_set_exact() {
        for laptop in [false, true] {
            let mut w = wb(laptop);
            for (i, at) in [(5, 0), (1, 300), (3, 500), (4, 510)] {
                w.mark_dirty(key(i), SimTime::from_secs(at));
            }
            // The bound is left at 0 s, below every page still dirty.
            assert!(w.on_evict(key(5)));
            for now in (515..1200).step_by(5) {
                let (now, ready) = (SimTime::from_secs(now), now % 3 == 0);
                let want = scan(&w, now, ready);
                assert_eq!(
                    w.collect_due(now, ready),
                    want,
                    "laptop {laptop} at {now:?}"
                );
                if w.dirty_count() == 0 {
                    break;
                }
            }
            assert_eq!(w.dirty_count(), 0);
        }
    }

    #[test]
    fn drain_all_leaves_a_fresh_bound() {
        let mut w = wb(true);
        w.mark_dirty(key(1), SimTime::from_secs(0));
        assert_eq!(w.drain_all(), vec![key(1)]);
        assert_eq!(w.oldest, SimTime::MAX);
        w.mark_dirty(key(2), SimTime::from_secs(1000));
        w.mark_dirty(key(3), SimTime::from_secs(1200));
        assert_eq!(w.oldest, SimTime::from_secs(1000));
        assert_eq!(w.collect_due(SimTime::from_secs(1599), false), vec![]);
        assert_eq!(w.collect_due(SimTime::from_secs(1604), false), vec![key(2)]);
        assert_eq!(w.oldest, SimTime::from_secs(1200));
    }

    #[test]
    fn drain_all_empties() {
        let mut w = wb(true);
        w.mark_dirty(key(1), SimTime::ZERO);
        w.mark_dirty(key(2), SimTime::ZERO);
        assert_eq!(w.drain_all().len(), 2);
        assert_eq!(w.dirty_count(), 0);
    }
}
