//! The numeric half of the abstract domain: closed `f64`
//! intervals with `±inf` endpoints, plus the sign lattice layered on
//! top of them.
//!
//! `Interval` is a classic bounds domain: every operation returns an
//! interval guaranteed to contain all concrete results of the
//! corresponding operation on any members of the operands (soundness is
//! property-tested from `tests/absint.rs`: concrete evaluation of a
//! random expression always lands inside the inferred interval). `Sign`
//! is the coarser five-point sign lattice; `absint` carries both, plus
//! a float taint, as a product domain.
//!
//! Design notes:
//! - Endpoints are `f64` so one domain serves integer counters, joule
//!   accumulators and float ratios alike. `NaN` never escapes: any
//!   operation that could produce it (`0 * inf`, `inf - inf`, division
//!   through zero) widens to the affected bound's infinity instead.
//! - `widen` is the standard jump-to-infinity widening used between
//!   fixpoint rounds: an endpoint that moved since the previous round
//!   is pushed straight to its infinity so iteration terminates.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` over the extended reals.
///
/// Invariant: `lo <= hi` and neither bound is `NaN`. Constructors
/// normalise anything that would violate this to [`Interval::TOP`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The whole extended real line: no information.
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// All non-negative values, the natural abstraction of an unsigned
    /// counter whose magnitude is unknown.
    pub const NON_NEG: Interval = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// `[lo, hi]`, normalising `NaN` or an inverted pair to `TOP`.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// True when no information is known.
    pub fn is_top(self) -> bool {
        self.lo.is_infinite() && self.lo < 0.0 && self.hi.is_infinite() && self.hi > 0.0
    }

    /// True when the interval is a single finite value.
    pub fn is_point(self) -> bool {
        self.lo.is_finite() && (self.hi - self.lo).abs() < f64::EPSILON
    }

    /// True when `v` lies inside the interval.
    pub fn contains(self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// True when zero lies inside the interval.
    pub fn contains_zero(self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// True when every member is `>= 0`.
    pub fn is_nonneg(self) -> bool {
        self.lo >= 0.0
    }

    /// True when every member is `> 0`.
    pub fn is_pos(self) -> bool {
        self.lo > 0.0
    }

    /// Least upper bound: the convex hull of the two intervals.
    pub fn join(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Widening: any endpoint that moved versus `self` jumps to its
    /// infinity, guaranteeing fixpoint termination in one extra round.
    pub fn widen(self, next: Interval) -> Interval {
        let lo = if next.lo < self.lo {
            f64::NEG_INFINITY
        } else {
            self.lo
        };
        let hi = if next.hi > self.hi {
            f64::INFINITY
        } else {
            self.hi
        };
        Interval::new(lo, hi)
    }

    /// Pointwise `max`, the abstraction of `a.max(b)`.
    pub fn max_op(self, other: Interval) -> Interval {
        Interval::new(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Pointwise `min`, the abstraction of `a.min(b)`.
    pub fn min_op(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Absolute value, the abstraction of `a.abs()`.
    pub fn abs_op(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            -self
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }

    /// Clamp into `[lo_bound, hi_bound]`, the abstraction of
    /// `a.clamp(lo, hi)` (and of `a.max(lo).min(hi)` chains).
    pub fn clamp_op(self, lo_bound: Interval, hi_bound: Interval) -> Interval {
        self.max_op(lo_bound).min_op(hi_bound)
    }

    /// The sign component this interval projects to.
    pub fn sign(self) -> Sign {
        if self.lo > 0.0 {
            Sign::Pos
        } else if self.hi < 0.0 {
            Sign::Neg
        } else if self.lo >= 0.0 && self.hi <= 0.0 {
            Sign::Zero
        } else if self.lo >= 0.0 {
            Sign::NonNeg
        } else if self.hi <= 0.0 {
            Sign::NonPos
        } else {
            Sign::Unknown
        }
    }
}

/// Interval addition.
impl Add for Interval {
    type Output = Interval;
    fn add(self, other: Interval) -> Interval {
        Interval::new(add_bound(self.lo, other.lo), add_bound(self.hi, other.hi))
    }
}

/// Interval subtraction.
impl Sub for Interval {
    type Output = Interval;
    fn sub(self, other: Interval) -> Interval {
        self + -other
    }
}

/// Interval negation.
impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

/// Interval multiplication (all four endpoint products).
impl Mul for Interval {
    type Output = Interval;
    fn mul(self, other: Interval) -> Interval {
        let p = [
            mul_bound(self.lo, other.lo),
            mul_bound(self.lo, other.hi),
            mul_bound(self.hi, other.lo),
            mul_bound(self.hi, other.hi),
        ];
        let mut lo = p[0];
        let mut hi = p[0];
        for &v in &p[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::new(lo, hi)
    }
}

/// Interval division. A divisor whose range includes zero widens the
/// result to `TOP`; the `arith-safety` family reports the division
/// itself, so the value domain only has to stay sound.
impl Div for Interval {
    type Output = Interval;
    fn div(self, other: Interval) -> Interval {
        if other.contains_zero() {
            return Interval::TOP;
        }
        self * Interval::new(1.0 / other.hi, 1.0 / other.lo)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// `a + b` on bounds, mapping the `inf + -inf` indeterminate to the
/// conservative side (the caller passes matching-bound pairs, so a
/// `NaN` here can only widen, never tighten).
fn add_bound(a: f64, b: f64) -> f64 {
    let v = a + b;
    if v.is_nan() {
        if a.is_infinite() {
            a
        } else {
            b
        }
    } else {
        v
    }
}

/// `a * b` on bounds with the interval-arithmetic convention
/// `0 * inf = 0` (a zero factor annihilates regardless of magnitude).
fn mul_bound(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        return 0.0;
    }
    a * b
}

/// The five-point sign lattice (plus `Unknown`), the coarse component
/// of the product domain. Kept alongside the interval so rules
/// can reason about polarity even after widening has discarded the
/// magnitude (an accumulator widened to `[0, +inf]` still carries
/// `NonNeg`, and sign algebra survives multiplications that send the
/// interval to `TOP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Neg,
    /// `<= 0`.
    NonPos,
    /// Exactly zero.
    Zero,
    /// `>= 0`.
    NonNeg,
    /// Strictly positive.
    Pos,
    /// No sign information.
    Unknown,
}

/// Sign addition.
impl Add for Sign {
    type Output = Sign;
    fn add(self, other: Sign) -> Sign {
        use Sign::*;
        match (self, other) {
            (Zero, s) | (s, Zero) => s,
            (Pos, Pos) | (Pos, NonNeg) | (NonNeg, Pos) => Pos,
            (NonNeg, NonNeg) => NonNeg,
            (Neg, Neg) | (Neg, NonPos) | (NonPos, Neg) => Neg,
            (NonPos, NonPos) => NonPos,
            _ => Unknown,
        }
    }
}

/// Sign multiplication.
impl Mul for Sign {
    type Output = Sign;
    fn mul(self, other: Sign) -> Sign {
        use Sign::*;
        match (self, other) {
            (Zero, _) | (_, Zero) => Zero,
            (Unknown, _) | (_, Unknown) => Unknown,
            (Pos, s) | (s, Pos) => s,
            (Neg, Neg) => Pos,
            (Neg, NonPos) | (NonPos, Neg) => NonNeg,
            (Neg, NonNeg) | (NonNeg, Neg) => NonPos,
            (NonNeg, NonPos) | (NonPos, NonNeg) => NonPos,
            (NonNeg, NonNeg) => NonNeg,
            (NonPos, NonPos) => NonNeg,
        }
    }
}

/// Sign negation.
impl Neg for Sign {
    type Output = Sign;
    fn neg(self) -> Sign {
        use Sign::*;
        match self {
            Neg => Pos,
            NonPos => NonNeg,
            Zero => Zero,
            NonNeg => NonPos,
            Pos => Neg,
            Unknown => Unknown,
        }
    }
}

impl Sign {
    /// Least upper bound in the sign lattice.
    pub fn join(self, other: Sign) -> Sign {
        use Sign::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Zero, Pos)
            | (Pos, Zero)
            | (NonNeg, Pos)
            | (Pos, NonNeg)
            | (NonNeg, Zero)
            | (Zero, NonNeg) => NonNeg,
            (Zero, Neg)
            | (Neg, Zero)
            | (NonPos, Neg)
            | (Neg, NonPos)
            | (NonPos, Zero)
            | (Zero, NonPos) => NonPos,
            _ => Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_covers_concrete_results() {
        let a = Interval::new(2.0, 4.0);
        let b = Interval::new(-1.0, 3.0);
        assert_eq!(a + b, Interval::new(1.0, 7.0));
        assert_eq!(a - b, Interval::new(-1.0, 5.0));
        assert_eq!(a * b, Interval::new(-4.0, 12.0));
        assert!((a * b).contains(2.0 * -1.0));
        assert!((a * b).contains(4.0 * 3.0));
    }

    #[test]
    fn division_through_zero_is_top() {
        let a = Interval::point(1.0);
        assert!((a / Interval::new(-1.0, 1.0)).is_top());
        assert_eq!(a / Interval::new(2.0, 4.0), Interval::new(0.25, 0.5));
    }

    #[test]
    fn zero_times_infinity_annihilates() {
        let z = Interval::point(0.0);
        assert_eq!(z * Interval::TOP, Interval::point(0.0));
        let counter = Interval::NON_NEG;
        assert!((counter * counter).is_nonneg());
    }

    #[test]
    fn widening_jumps_moved_endpoints_to_infinity() {
        let a = Interval::new(0.0, 10.0);
        let grew = Interval::new(0.0, 12.0);
        let w = a.widen(grew);
        assert_eq!(w.lo, 0.0);
        assert!(w.hi.is_infinite());
        assert_eq!(a.widen(a), a);
    }

    #[test]
    fn clamp_and_abs_tighten() {
        let x = Interval::TOP;
        assert!(x.abs_op().is_nonneg());
        let c = x.clamp_op(Interval::point(0.0), Interval::point(5.0));
        assert_eq!(c, Interval::new(0.0, 5.0));
    }

    #[test]
    fn sign_projection_and_algebra_agree() {
        assert_eq!(Interval::new(1.0, 5.0).sign(), Sign::Pos);
        assert_eq!(Interval::NON_NEG.sign(), Sign::NonNeg);
        assert_eq!(Interval::point(0.0).sign(), Sign::Zero);
        assert_eq!(Interval::new(-3.0, -1.0).sign(), Sign::Neg);
        assert_eq!(Sign::Pos * Sign::Neg, Sign::Neg);
        assert_eq!(Sign::NonNeg + Sign::Pos, Sign::Pos);
        assert_eq!(Sign::Pos.join(Sign::Zero), Sign::NonNeg);
        // The product stays consistent: projecting after an interval op
        // is never more precise than sign algebra claims.
        let a = Interval::new(2.0, 3.0);
        let b = Interval::new(-4.0, -1.0);
        assert_eq!((a * b).sign(), a.sign() * b.sign());
    }

    #[test]
    fn nan_never_escapes() {
        let t = Interval::TOP;
        for v in [t + t, t - t, t * t, t / t, -t] {
            assert!(!v.lo.is_nan() && !v.hi.is_nan());
        }
    }
}
