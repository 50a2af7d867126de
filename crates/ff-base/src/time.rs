//! Fixed-point simulation time.
//!
//! The whole stack measures time in integer **microseconds**. A `u64`
//! microsecond clock overflows after ~584 000 years of simulated time, so
//! saturating arithmetic is used only where subtraction could underflow.
//!
//! Two types keep instants and spans apart at the type level:
//!
//! * [`SimTime`] — an absolute instant on the simulation clock,
//! * [`Dur`] — a span between two instants.
//!
//! `SimTime ± Dur -> SimTime`, `SimTime - SimTime -> Dur`,
//! `Dur ± Dur -> Dur`, `Dur × k -> Dur`.
//!
//! Units are checked by the compiler, not by naming convention. This
//! compiles:
//!
//! ```
//! use ff_base::{Dur, Joules, SimTime};
//! let (span, cost, raw_us) = (Dur::from_millis(50), Joules(3.0), 50_000u64);
//! let wake = SimTime::from_secs(1) + span;
//! let gap = Dur::from_secs(1) + span;
//! # let _ = (wake, gap, cost, raw_us);
//! ```
//!
//! Adding joules to an instant does not:
//!
//! ```compile_fail
//! use ff_base::{Dur, Joules, SimTime};
//! let (span, cost, raw_us) = (Dur::from_millis(50), Joules(3.0), 50_000u64);
//! let wake = SimTime::from_secs(1) + cost;
//! let gap = Dur::from_secs(1) + span;
//! # let _ = (wake, gap, cost, raw_us);
//! ```
//!
//! Nor does adding a bare integer to a span: a raw count has no scale.
//!
//! ```compile_fail
//! use ff_base::{Dur, Joules, SimTime};
//! let (span, cost, raw_us) = (Dur::from_millis(50), Joules(3.0), 50_000u64);
//! let wake = SimTime::from_secs(1) + span;
//! let gap = Dur::from_secs(1) + raw_us;
//! # let _ = (wake, gap, cost, raw_us);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for timers that are not armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `us` microseconds after the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Instant `ms` milliseconds after the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Instant `s` seconds after the epoch.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (reporting only — never used for
    /// event ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a span; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Dur) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The longest span a run configuration may name: 2^53 µs, about
    /// 285 years. Past it [`Dur::as_secs_f64`] stops being exact; the
    /// `u64` clock wraps after 2,048 such spans.
    pub const HORIZON: Dur = Dur(1 << 53);

    /// Span of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Dur(us)
    }

    /// Span of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000)
    }

    /// Span of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000)
    }

    /// Span of `s` seconds given as a float, rounded to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * 1e6).round() as u64)
    }

    /// Microseconds in the span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (reporting / energy math).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True iff the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Difference `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    /// Span between two instants. Panics in debug builds if `rhs > self`;
    /// use [`SimTime::saturating_since`] when the ordering is uncertain.
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(Dur::from_secs(1), Dur::from_micros(1_000_000));
    }

    #[test]
    fn instant_plus_span() {
        let t = SimTime::from_secs(10) + Dur::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
    }

    #[test]
    fn instant_difference_is_span() {
        let a = SimTime::from_secs(4);
        let b = SimTime::from_secs(1);
        assert_eq!(a - b, Dur::from_secs(3));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(4);
        assert_eq!(a.saturating_since(b), Dur::ZERO);
        assert_eq!(b.saturating_since(a), Dur::from_secs(3));
    }

    #[test]
    fn span_arithmetic() {
        let d = Dur::from_millis(10) * 3;
        assert_eq!(d, Dur::from_millis(30));
        assert_eq!(d / 2, Dur::from_millis(15));
        assert_eq!(
            Dur::from_secs(2).saturating_sub(Dur::from_secs(5)),
            Dur::ZERO
        );
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Dur::from_secs_f64(0.0000015), Dur::from_micros(2));
        assert_eq!(Dur::from_secs_f64(-3.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Dur::from_micros(12).to_string(), "12us");
        assert_eq!(Dur::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Dur::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_spans() {
        let total: Dur = [Dur::from_secs(1), Dur::from_millis(500)].into_iter().sum();
        assert_eq!(total, Dur::from_millis(1_500));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(Dur::from_micros(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(Dur::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(Dur::from_millis(999) < Dur::from_secs(1));
    }
}
