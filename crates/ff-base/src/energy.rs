//! Energy and power bookkeeping.
//!
//! Power models express state power draw in [`Watts`]; integrating a power
//! over a [`Dur`] yields [`Joules`]. Both are thin `f64` newtypes — the
//! accumulation is always single-threaded inside one simulation, so results
//! are deterministic.
//!
//! Energy spent only accumulates, and the type says so: `Joules` adds,
//! scales and sums, and the one difference it offers is
//! [`Joules::saturating_sub`], floored at zero. This compiles:
//!
//! ```
//! use ff_base::Joules;
//! let (mark, cost) = (Joules(3.0), Joules(0.5));
//! let mut total = mark;
//! total += cost;
//! let spent = total.saturating_sub(mark);
//! # let _ = (mark, cost, total, spent);
//! ```
//!
//! Decrementing an accumulator does not:
//!
//! ```compile_fail
//! use ff_base::Joules;
//! let (mark, cost) = (Joules(3.0), Joules(0.5));
//! let mut total = mark;
//! total -= cost;
//! let spent = total.saturating_sub(mark);
//! # let _ = (mark, cost, total, spent);
//! ```
//!
//! Nor does negating an energy:
//!
//! ```compile_fail
//! use ff_base::Joules;
//! let (mark, cost) = (Joules(3.0), Joules(0.5));
//! let mut total = mark;
//! total += -cost;
//! let spent = total.saturating_sub(mark);
//! # let _ = (mark, cost, total, spent);
//! ```
//!
//! Nor does a bare difference, which could go negative:
//!
//! ```compile_fail
//! use ff_base::Joules;
//! let (mark, cost) = (Joules(3.0), Joules(0.5));
//! let mut total = mark;
//! total += cost;
//! let spent = total - mark;
//! # let _ = (mark, cost, total, spent);
//! ```

use crate::time::Dur;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// An amount of energy, in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// A power draw, in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Raw joule value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// True iff the value is a finite, non-negative energy.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Relative difference `(self - other) / self`, the paper's
    /// "x% energy saving" metric. Returns 0 when `self` is zero.
    #[inline]
    pub fn relative_saving(self, other: Joules) -> f64 {
        if self.0.abs() > 0.0 {
            (self.0 - other.0) / self.0
        } else {
            0.0
        }
    }

    /// The energy spent since an earlier reading `mark`: `self - mark`,
    /// floored at zero (a NaN difference floors too).
    #[inline]
    pub fn saturating_sub(self, mark: Joules) -> Joules {
        Joules((self.0 - mark.0).max(0.0))
    }

    /// The smaller of two energies.
    #[inline]
    pub fn min(self, other: Joules) -> Joules {
        Joules(self.0.min(other.0))
    }

    /// The larger of two energies.
    #[inline]
    pub fn max(self, other: Joules) -> Joules {
        Joules(self.0.max(other.0))
    }
}

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Raw watt value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Energy drawn at this power over `d`.
    #[inline]
    pub fn over(self, d: Dur) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }
}

impl Mul<Dur> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Dur) -> Joules {
        self.over(rhs)
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}J", self.0)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}W", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        // Table 1: idle power 1.6 W over 10 s = 16 J.
        let e = Watts(1.6) * Dur::from_secs(10);
        assert!((e.get() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn over_matches_mul() {
        let p = Watts(2.0);
        let d = Dur::from_millis(2_300);
        assert_eq!(p.over(d), p * d);
    }

    #[test]
    fn joule_arithmetic() {
        let mut e = Joules(5.0) + Joules(2.94);
        e += Joules(0.06);
        assert!((e.get() - 8.0).abs() < 1e-12);
        assert!((e.saturating_sub(Joules(3.0)).get() - 5.0).abs() < 1e-12);
        assert_eq!(Joules(3.0).saturating_sub(e), Joules::ZERO);
        assert_eq!(Joules(f64::NAN).saturating_sub(e), Joules::ZERO);
        assert_eq!((Joules(6.0) / 2.0).get(), 3.0);
        assert_eq!((Joules(6.0) * 0.5).get(), 3.0);
    }

    #[test]
    fn relative_saving_matches_paper_metric() {
        // (E_disk - E_network) / E_disk with 2000 J vs 1500 J => 25 %.
        let saving = Joules(2000.0).relative_saving(Joules(1500.0));
        assert!((saving - 0.25).abs() < 1e-12);
        // Degenerate zero denominator.
        assert_eq!(Joules(0.0).relative_saving(Joules(1.0)), 0.0);
    }

    #[test]
    fn sum_and_minmax() {
        let total: Joules = [Joules(1.0), Joules(2.5)].into_iter().sum();
        assert_eq!(total, Joules(3.5));
        assert_eq!(Joules(1.0).min(Joules(2.0)), Joules(1.0));
        assert_eq!(Joules(1.0).max(Joules(2.0)), Joules(2.0));
    }

    #[test]
    fn validity_check() {
        assert!(Joules(0.0).is_valid());
        assert!(!Joules(-1.0).is_valid());
        assert!(!Joules(f64::NAN).is_valid());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Joules(2.94).to_string(), "2.94J");
        assert_eq!(Watts(0.15).to_string(), "0.15W");
    }
}
