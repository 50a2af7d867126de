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
//!
//! The dirty pages themselves live in 2Q's page table ([`TwoQ`]), on a
//! list ordered by the time each page was first dirtied. Every rule
//! above flushes the pages at least some age old — laptop mode's eager
//! flush is an age of zero — so the pages due at a wake-up are always a
//! prefix of that list: the flusher pops them, with no scan, and sorts
//! them by key. A page that leaves memory leaves the list in the same
//! step, and 2Q hands its dirtiness back with it.

use crate::page::PageKey;
use crate::twoq::TwoQ;
use ff_base::{Dur, SimTime};

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

/// The flusher: its tuning and when it last woke.
#[derive(Debug, Clone, Default)]
pub struct Writeback {
    config: WritebackConfig,
    last_wakeup: SimTime,
}

impl Writeback {
    /// New flusher.
    pub fn new(config: WritebackConfig) -> Self {
        Writeback {
            config,
            last_wakeup: SimTime::ZERO,
        }
    }

    /// The flusher's decision at `now`: which of `pages`' dirty pages to
    /// write back, given whether the disk is currently spinning
    /// (`disk_ready`).
    ///
    /// Returns the pages to flush, ascending by key, marked clean and
    /// still resident — the caller owns issuing the actual writes.
    pub fn collect_due(
        &mut self,
        now: SimTime,
        disk_ready: bool,
        pages: &mut TwoQ,
    ) -> Vec<PageKey> {
        if now.saturating_since(self.last_wakeup) < self.config.wakeup_interval {
            return Vec::new();
        }
        self.last_wakeup = now;
        let age_limit = match (self.config.laptop_mode, disk_ready) {
            // Laptop mode's eager flush while the disk spins: every page.
            (true, true) => Dur::ZERO,
            (true, false) => self.config.laptop_max_age,
            (false, _) => self.config.dirty_expire,
        };
        pages.take_dirty(|since| now.saturating_since(since) >= age_limit)
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::{BufferCache, CacheConfig};
    use crate::page::PageKey;
    use crate::writeback::WritebackConfig;
    use ff_base::{Bytes, SimTime};
    use ff_trace::FileId;
    use std::collections::BTreeMap;

    const F: FileId = FileId(1);

    fn key(i: u64) -> PageKey {
        PageKey { file: F, index: i }
    }

    /// A cache of `pages` pages without readahead, so reads evict in
    /// 2Q's order and nothing else.
    fn cache_of(pages: usize, laptop: bool) -> BufferCache {
        BufferCache::new(CacheConfig {
            capacity_pages: pages,
            readahead_max_pages: 0,
            writeback: WritebackConfig {
                laptop_mode: laptop,
                ..Default::default()
            },
        })
    }

    fn cache(laptop: bool) -> BufferCache {
        cache_of(64, laptop)
    }

    /// Dirty page `i` at `at` seconds; nothing may be evicted.
    fn dirty(c: &mut BufferCache, i: u64, at: u64) {
        let out = c.write(SimTime::from_secs(at), F, i * 4096, Bytes(4096));
        assert!(out.evicted_dirty.is_empty());
    }

    /// Read page `i`, returning the dirty pages it evicted.
    fn read(c: &mut BufferCache, i: u64) -> Vec<PageKey> {
        let size = Bytes(u64::MAX);
        c.read(SimTime::ZERO, F, i * 4096, Bytes(4096), size)
            .evicted_dirty
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn young_pages_are_not_flushed() {
        let mut c = cache(false);
        dirty(&mut c, 1, 0);
        let due = c.flush_due(at(10), true);
        assert!(due.is_empty(), "10 s < 30 s dirty_expire");
        assert_eq!(c.dirty(), 1);
    }

    #[test]
    fn expired_pages_flush_under_normal_rules() {
        let mut c = cache(false);
        dirty(&mut c, 1, 0);
        dirty(&mut c, 2, 25);
        assert_eq!(c.flush_due(at(31), true), vec![key(1)]);
        assert_eq!(c.flush_all(), vec![key(2)]);
    }

    #[test]
    fn laptop_mode_flushes_everything_on_active_disk() {
        let mut c = cache(true);
        dirty(&mut c, 1, 0);
        dirty(&mut c, 2, 9);
        let due = c.flush_due(at(10), true);
        assert_eq!(due.len(), 2, "eager flush while the disk spins");
    }

    #[test]
    fn laptop_mode_defers_on_standby_disk() {
        let mut c = cache(true);
        dirty(&mut c, 1, 0);
        // 100 s old — far past dirty_expire, but the disk sleeps and the
        // laptop max age is 600 s.
        let due = c.flush_due(at(100), false);
        assert!(due.is_empty(), "laptop mode must not wake the disk early");
        // Past the laptop age it does flush.
        assert_eq!(c.flush_due(at(601), false), vec![key(1)]);
    }

    #[test]
    fn wakeup_interval_gates_the_flusher() {
        let mut c = cache(false);
        dirty(&mut c, 1, 0);
        let _ = c.flush_due(at(31), true);
        dirty(&mut c, 2, 0);
        // Only 1 s after the previous wake-up: flusher stays asleep even
        // though page 2 is over-age.
        assert!(c.flush_due(at(32), true).is_empty());
        assert_eq!(c.flush_due(at(37), true), vec![key(2)]);
    }

    #[test]
    fn redirty_does_not_reset_age() {
        let mut c = cache(false);
        dirty(&mut c, 1, 0);
        dirty(&mut c, 1, 29); // re-dirty
        let due = c.flush_due(at(31), true);
        assert_eq!(due, vec![key(1)], "age anchored at first dirtying");
    }

    #[test]
    fn eviction_reports_dirtiness() {
        // Capacity 4, Kin 1: page 1 is A1in's oldest, so the read that
        // finds the cache full demotes it.
        let mut c = cache_of(4, true);
        dirty(&mut c, 1, 0);
        let mut reported = Vec::new();
        for i in 10..14 {
            reported.extend(read(&mut c, i));
        }
        assert_eq!(reported, vec![key(1)]);
        assert_eq!(c.dirty(), 0);
        // Once its ghost is gone, read back (clean, into A1in) and pushed
        // out again: it leaves clean, and no clean page is reported.
        for i in 20..24 {
            assert!(read(&mut c, i).is_empty());
        }
        assert!(read(&mut c, 1).is_empty());
        for i in 30..40 {
            assert!(read(&mut c, i).is_empty(), "second evict sees it clean");
        }
        assert_eq!(c.resident_fraction(F, 4096, Bytes(4096)), 0.0);
    }

    #[test]
    fn due_pages_come_out_ascending_under_both_rules() {
        // Dirtied out of key order, at ages on both sides of the 30 s
        // expiry and of the 600 s laptop age.
        let pages = [(9, 0), (2, 500), (7, 5), (4, 0), (1, 620), (5, 30)];
        let fill = |laptop| {
            let mut c = cache(laptop);
            for (i, t) in pages {
                dirty(&mut c, i, t);
            }
            c
        };
        let keys = |ks: &[u64]| ks.iter().map(|&i| key(i)).collect::<Vec<_>>();
        let now = at(640);
        // Normal rules: everything at least 30 s old.
        let mut c = fill(false);
        assert_eq!(c.flush_due(now, false), keys(&[2, 4, 5, 7, 9]));
        assert_eq!(c.flush_all(), keys(&[1]));
        // Laptop mode, disk asleep: only past the laptop age.
        let mut c = fill(true);
        assert_eq!(c.flush_due(now, false), keys(&[4, 5, 7, 9]));
        assert_eq!(c.flush_all(), keys(&[1, 2]));
        // Laptop mode, disk spinning: everything, young pages included.
        let mut c = fill(true);
        assert_eq!(c.flush_due(now, true), keys(&[1, 2, 4, 5, 7, 9]));
        assert_eq!(c.dirty(), 0);
    }

    /// The pages due at `now` by a plain scan of a model of the dirty
    /// set (page → first-dirtied time), removed from the model.
    fn scan(
        model: &mut BTreeMap<PageKey, SimTime>,
        config: &WritebackConfig,
        now: SimTime,
        disk_ready: bool,
    ) -> Vec<PageKey> {
        let limit = if config.laptop_mode && !disk_ready {
            config.laptop_max_age
        } else {
            config.dirty_expire
        };
        let due: Vec<PageKey> = model
            .iter()
            .filter(|&(_, &since)| {
                (config.laptop_mode && disk_ready) || now.saturating_since(since) >= limit
            })
            .map(|(&k, _)| k)
            .collect();
        for k in &due {
            model.remove(k);
        }
        due
    }

    #[test]
    fn sleeping_disk_with_young_pages_skips_the_scan() {
        let mut c = cache(true);
        for (i, t) in [(3, 40), (1, 10), (2, 599)] {
            dirty(&mut c, i, t);
        }
        // Every wake-up before page 1 is 600 s old takes nothing.
        for now in (15..610).step_by(5) {
            assert_eq!(c.flush_due(at(now), false), vec![]);
        }
        assert_eq!(c.dirty(), 3);
        // The last of those wake-ups was recorded: 4 s later even an
        // eager flush waits.
        assert_eq!(c.flush_due(at(609), true), vec![]);
        assert_eq!(c.flush_due(at(610), false), vec![key(1)]);
        assert_eq!(c.flush_due(at(635), false), vec![]);
        assert_eq!(c.flush_due(at(640), false), vec![key(3)]);
        assert_eq!(c.dirty(), 1);
    }

    #[test]
    fn evicting_the_oldest_page_leaves_the_due_set_exact() {
        for laptop in [false, true] {
            // Capacity 8, Kin 2: page 5, written first, is the first
            // page the reads push out.
            let mut c = cache_of(8, laptop);
            let config = WritebackConfig {
                laptop_mode: laptop,
                ..Default::default()
            };
            let mut model = BTreeMap::new();
            for (i, t) in [(5, 0), (1, 300), (3, 500), (4, 510)] {
                dirty(&mut c, i, t);
                model.insert(key(i), at(t));
            }
            let evicted: Vec<PageKey> = (100..105).flat_map(|i| read(&mut c, i)).collect();
            assert_eq!(evicted, vec![key(5)]);
            model.remove(&key(5));
            for now in (515..1200).step_by(5) {
                let (now, ready) = (at(now), now % 3 == 0);
                let want = scan(&mut model, &config, now, ready);
                assert_eq!(c.flush_due(now, ready), want, "laptop {laptop} at {now:?}");
                if c.dirty() == 0 {
                    break;
                }
            }
            assert_eq!(c.dirty(), 0);
        }
    }

    #[test]
    fn drain_all_leaves_a_fresh_bound() {
        let mut c = cache(true);
        dirty(&mut c, 1, 0);
        assert_eq!(c.flush_all(), vec![key(1)]);
        dirty(&mut c, 2, 1000);
        dirty(&mut c, 3, 1200);
        assert_eq!(c.flush_due(at(1599), false), vec![]);
        assert_eq!(c.flush_due(at(1604), false), vec![key(2)]);
        assert_eq!(c.dirty(), 1);
        assert_eq!(c.flush_due(at(1799), false), vec![]);
        assert_eq!(c.flush_due(at(1804), false), vec![key(3)]);
    }

    #[test]
    fn drain_all_empties() {
        let mut c = cache(true);
        dirty(&mut c, 1, 0);
        dirty(&mut c, 2, 0);
        assert_eq!(c.flush_all().len(), 2);
        assert_eq!(c.dirty(), 0);
        assert!(c.flush_all().is_empty());
    }

    #[test]
    fn dirty_list_order_matches_a_model_under_non_monotone_times() {
        // Writes at times that jump back and forth across the 30 s and
        // 600 s ages, re-dirtying, reads that evict dirty pages from a
        // small cache, and wake-ups under every rule; after each step
        // the flushed lists and the dirty count agree with a model.
        let mut rng = 0x853c_49e6_748f_ea9b_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for laptop in [false, true] {
            let config = WritebackConfig {
                laptop_mode: laptop,
                ..Default::default()
            };
            let mut c = cache_of(48, laptop);
            let mut model: BTreeMap<PageKey, SimTime> = BTreeMap::new();
            let (mut now, mut flushed, mut out_of_order) = (1_000u64, 0, 0);
            let mut last_write = 0;
            for step in 0..3_000 {
                match next(8) {
                    0..=3 => {
                        // Up to 700 s back or 20 s ahead of the clock.
                        let t = now - next(700) + next(20);
                        out_of_order += usize::from(t < last_write);
                        last_write = t;
                        let k = key(next(64));
                        let out = c.write(at(t), F, k.index * 4096, Bytes(4096));
                        for v in out.evicted_dirty {
                            assert!(model.remove(&v).is_some(), "step {step}: {v:?} was clean");
                        }
                        model.entry(k).or_insert(at(t));
                    }
                    4 | 5 => {
                        for v in read(&mut c, 64 + next(64)) {
                            assert!(model.remove(&v).is_some(), "step {step}: {v:?} was clean");
                        }
                    }
                    _ => {
                        // Wake-ups 5 s apart or more, so none is skipped.
                        now += 5 + next(40);
                        let ready = next(2) == 0;
                        let want = scan(&mut model, &config, at(now), ready);
                        flushed += want.len();
                        assert_eq!(c.flush_due(at(now), ready), want, "step {step}");
                    }
                }
                assert_eq!(c.dirty(), model.len(), "step {step}");
            }
            let rest: Vec<PageKey> = model.keys().copied().collect();
            assert_eq!(c.flush_all(), rest);
            assert!(flushed > 500, "{flushed} pages flushed");
            assert!(out_of_order > 500, "{out_of_order} writes back in time");
        }
    }
}
