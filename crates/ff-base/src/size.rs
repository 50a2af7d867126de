//! Data sizes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

/// The page size used throughout the buffer-cache substrate (Linux x86).
pub const PAGE_SIZE: u64 = 4096;

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` kibibytes.
    #[inline]
    pub const fn kib(n: u64) -> Bytes {
        Bytes(n * KIB)
    }

    /// `n` mebibytes.
    #[inline]
    pub const fn mib(n: u64) -> Bytes {
        Bytes(n * MIB)
    }

    /// Raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Number of whole-or-partial 4 KiB pages covering this many bytes.
    #[inline]
    pub const fn pages(self) -> u64 {
        self.0.div_ceil(PAGE_SIZE)
    }

    /// Size as MiB, for reporting.
    #[inline]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// True iff zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Sum clamped at `u64::MAX` instead of wrapping.
    #[inline]
    pub fn saturating_add(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

/// Totals saturate at `u64::MAX` instead of overflowing: a trace may
/// legitimately hold several files or requests near the 64-bit limit.
impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Bytes::saturating_add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MIB {
            write!(f, "{:.1}MiB", self.as_mib_f64())
        } else if self.0 >= KIB {
            write!(f, "{:.1}KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bytes::kib(128).get(), 131_072);
        assert_eq!(Bytes::mib(2).get(), 2 * 1024 * 1024);
    }

    #[test]
    fn page_rounding() {
        assert_eq!(Bytes(0).pages(), 0);
        assert_eq!(Bytes(1).pages(), 1);
        assert_eq!(Bytes(4096).pages(), 1);
        assert_eq!(Bytes(4097).pages(), 2);
        // 128 KiB (Linux max readahead window) is exactly 32 pages.
        assert_eq!(Bytes::kib(128).pages(), 32);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Bytes = [Bytes(10), Bytes::kib(1)].into_iter().sum();
        assert_eq!(total, Bytes(1034));
        let huge: Bytes = [Bytes(u64::MAX), Bytes(1)].into_iter().sum();
        assert_eq!(huge, Bytes(u64::MAX), "sums saturate");
        assert_eq!(Bytes(10).saturating_sub(Bytes(20)), Bytes::ZERO);
        assert_eq!(Bytes(30) - Bytes(20), Bytes(10));
        assert_eq!(Bytes(5).min(Bytes(3)), Bytes(3));
    }

    #[test]
    fn display_units() {
        assert_eq!(Bytes(12).to_string(), "12B");
        assert_eq!(Bytes::kib(2).to_string(), "2.0KiB");
        assert_eq!(Bytes::mib(3).to_string(), "3.0MiB");
    }
}
