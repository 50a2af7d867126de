//! Two-window readahead (Linux 2.6 style).
//!
//! §3.1 names *"the two-window readahead policy that prefetches up to 32
//! pages"*; §2.1 pins the maximum window at 128 KiB. The kernel keeps,
//! per open file, a *current window* (pages the application is consuming)
//! and an *ahead window* (pages already submitted for prefetch). When the
//! application's sequential stream crosses into the ahead window, the
//! ahead window becomes current and a new, doubled ahead window is
//! submitted — so a steady stream pays one device round-trip per window,
//! not per call. A non-sequential access shrinks the state back to
//! nothing.

use ff_trace::FileId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Per-file readahead state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// First page of the current window.
    cur_start: u64,
    /// Pages in the current window.
    cur_len: u64,
    /// First page of the ahead window (== cur_start + cur_len when armed).
    ahead_len: u64,
    /// Next page index expected for a sequential continuation.
    next_expected: u64,
}

/// The readahead engine. Tracks one stream per file.
#[derive(Debug, Clone)]
pub struct Readahead {
    max_pages: u64,
    initial_pages: u64,
    streams: BTreeMap<FileId, Stream>,
}

impl Default for Readahead {
    fn default() -> Self {
        Readahead::new(32)
    }
}

impl Readahead {
    /// Engine with the given maximum window (paper/Linux: 32 pages).
    /// `max_pages == 0` disables readahead entirely (ablation switch).
    pub fn new(max_pages: u64) -> Self {
        Readahead {
            max_pages,
            initial_pages: 4.min(max_pages),
            streams: BTreeMap::new(),
        }
    }

    /// Record an application access to pages `[first, last]` of `file`
    /// and return the page range to prefetch *in addition to* the demand
    /// pages, if any.
    ///
    /// Returns `Some((start_page, len_pages))` when a new ahead window
    /// should be submitted.
    pub fn on_access(&mut self, file: FileId, first: u64, last: u64) -> Option<(u64, u64)> {
        debug_assert!(first <= last);
        if self.max_pages == 0 {
            return None;
        }
        // New or broken stream: a fresh window pair.
        let fresh = Stream {
            cur_start: first,
            cur_len: last - first + 1,
            ahead_len: self.initial_pages.min(self.max_pages),
            next_expected: last + 1,
        };
        let restart = Some((last + 1, fresh.ahead_len));
        let s = match self.streams.entry(file) {
            Entry::Vacant(e) => {
                e.insert(fresh);
                return restart;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        if first > s.next_expected {
            *s = fresh;
            return restart;
        }
        // Sequential continuation (allow overlap with already-read
        // pages — re-reads of the tail are common).
        s.next_expected = s.next_expected.max(last + 1);
        let ahead_start = s.cur_start + s.cur_len;
        let ahead_end = ahead_start + s.ahead_len; // exclusive
        if s.ahead_len > 0 && s.next_expected > ahead_start {
            // Crossed into the ahead window: rotate windows and submit a
            // new, doubled ahead window.
            let new_ahead_len = (s.ahead_len * 2).min(self.max_pages);
            s.cur_start = ahead_start;
            s.cur_len = s.ahead_len;
            s.ahead_len = new_ahead_len;
            return Some((ahead_end, new_ahead_len));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(9);

    #[test]
    fn first_access_arms_initial_window() {
        let mut ra = Readahead::default();
        let got = ra.on_access(F, 0, 0);
        assert_eq!(got, Some((1, 4)), "initial 4-page ahead window");
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn windows_double_up_to_max() {
        let mut ra = Readahead::default();
        let mut submitted = vec![ra.on_access(F, 0, 0).unwrap().1];
        let mut next = 1;
        // Consume sequentially for a while, recording each new window.
        for _ in 0..2000 {
            if let Some((_, len)) = ra.on_access(F, next, next) {
                submitted.push(len);
            }
            next += 1;
        }
        // 4, 8, 16, 32, 32, 32 ...
        assert_eq!(&submitted[..4], &[4, 8, 16, 32]);
        assert!(
            submitted[4..].iter().all(|&l| l == 32),
            "window exceeded max"
        );
    }

    #[test]
    fn random_access_resets_stream() {
        let mut ra = Readahead::default();
        ra.on_access(F, 0, 0);
        ra.on_access(F, 1, 1);
        // Jump far away: new stream, fresh initial window.
        let got = ra.on_access(F, 1000, 1000);
        assert_eq!(got, Some((1001, 4)));
    }

    #[test]
    fn streams_are_per_file() {
        let mut ra = Readahead::default();
        ra.on_access(FileId(1), 0, 0);
        ra.on_access(FileId(2), 40, 40);
        // File 2's access did not break file 1's stream.
        assert_eq!(ra.on_access(FileId(1), 1, 1), Some((5, 8)));
        assert_eq!(ra.on_access(FileId(2), 41, 41), Some((45, 8)));
    }

    #[test]
    fn steady_stream_is_quiet_between_windows() {
        // Between window submissions, sequential accesses return None —
        // the data is already in flight.
        let mut ra = Readahead::default();
        ra.on_access(F, 0, 0).unwrap(); // ahead = pages 1..5
        assert_eq!(ra.on_access(F, 1, 1), Some((5, 8)), "entered ahead window");
        assert_eq!(ra.on_access(F, 2, 2), None);
        assert_eq!(ra.on_access(F, 3, 3), None);
        assert_eq!(ra.on_access(F, 4, 4), None);
        // Page 5 enters the new ahead window (5..13): rotate again.
        assert_eq!(ra.on_access(F, 5, 5), Some((13, 16)));
    }

    #[test]
    fn multi_page_calls_advance_the_stream() {
        let mut ra = Readahead::default();
        ra.on_access(F, 0, 7); // 32 KiB read = 8 pages
        let got = ra.on_access(F, 8, 15);
        assert!(
            got.is_some(),
            "sequential 32 KiB chunks must keep readahead going"
        );
    }

    #[test]
    fn zero_max_disables_readahead() {
        let mut ra = Readahead::new(0);
        assert_eq!(ra.on_access(F, 0, 0), None);
        assert_eq!(ra.on_access(F, 1, 1), None);
    }
}
