//! Transfer rates and transfer-time math.
//!
//! The paper quotes the disk bandwidth in **MB/s** (10^6 bytes) and the
//! wireless bandwidth in **Mbit/s** (10^6 bits), matching vendor data
//! sheets; both constructors are provided and normalise to bytes/second.

use crate::size::Bytes;
use crate::time::Dur;
use std::fmt;

/// A transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BytesPerSec(pub f64);

impl BytesPerSec {
    /// The slowest link rate a run accepts, in Mbit/s (1 kbit/s). Below
    /// it one request's [`transfer_time`](Self::transfer_time) can
    /// saturate the microsecond clock; committed scenarios use at least
    /// 1 Mbit/s.
    pub const MIN_LINK_MBIT: f64 = 0.001;

    /// Rate from megabytes per second (10^6 bytes, disk data-sheet units).
    #[inline]
    pub fn from_mb_per_sec(mb: f64) -> Self {
        BytesPerSec(mb * 1e6)
    }

    /// Rate from megabits per second (10^6 bits, 802.11 data-sheet units).
    #[inline]
    pub fn from_mbit_per_sec(mbit: f64) -> Self {
        BytesPerSec(mbit * 1e6 / 8.0)
    }

    /// Raw bytes/second.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Time to transfer `n` bytes at this rate, rounded up to the next
    /// microsecond so transfers never take zero simulated time.
    #[inline]
    pub fn transfer_time(self, n: Bytes) -> Dur {
        if n.is_zero() {
            return Dur::ZERO;
        }
        debug_assert!(self.0 > 0.0, "transfer at non-positive bandwidth");
        let us = (n.get() as f64) / self.0 * 1e6;
        Dur::from_micros(us.ceil() as u64)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2}MB/s", self.0 / 1e6)
        } else {
            write!(f, "{:.0}B/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_bandwidth_units() {
        // 35 MB/s (Table: Hitachi DK23DA peak bandwidth).
        let bw = BytesPerSec::from_mb_per_sec(35.0);
        assert_eq!(bw.get(), 35e6);
    }

    #[test]
    fn wireless_bandwidth_units() {
        // 11 Mbps 802.11b = 1.375e6 bytes/s.
        let bw = BytesPerSec::from_mbit_per_sec(11.0);
        assert!((bw.get() - 1.375e6).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_rounds_up() {
        let bw = BytesPerSec(1e6); // 1 byte per microsecond
        assert_eq!(bw.transfer_time(Bytes(1)), Dur::from_micros(1));
        assert_eq!(bw.transfer_time(Bytes(1_000_000)), Dur::from_secs(1));
        assert_eq!(bw.transfer_time(Bytes::ZERO), Dur::ZERO);
        // 1.5 us worth of data takes 2 us.
        let bw2 = BytesPerSec(2e6);
        assert_eq!(bw2.transfer_time(Bytes(3)), Dur::from_micros(2));
    }

    #[test]
    fn transfer_examples_from_paper_scale() {
        // 128 KiB at 11 Mbps takes ~95 ms; at 35 MB/s ~3.7 ms.
        let wnic = BytesPerSec::from_mbit_per_sec(11.0);
        let disk = BytesPerSec::from_mb_per_sec(35.0);
        let t_w = wnic.transfer_time(Bytes::kib(128)).as_secs_f64();
        let t_d = disk.transfer_time(Bytes::kib(128)).as_secs_f64();
        assert!((t_w - 0.0953).abs() < 0.001, "wnic {t_w}");
        assert!((t_d - 0.00375).abs() < 0.0002, "disk {t_d}");
    }

    #[test]
    fn transfer_time_rounds_up_to_a_whole_microsecond() {
        let bw = BytesPerSec::from_mbit_per_sec(2.0);
        let n = Bytes::kib(64);
        let exact_us = n.get() as f64 / bw.get() * 1e6;
        let t = bw.transfer_time(n).as_micros() as f64;
        assert!(t >= exact_us && t < exact_us + 1.0, "{t} vs {exact_us}");
    }
}
