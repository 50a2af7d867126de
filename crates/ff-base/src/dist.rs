//! Small deterministic distribution samplers.
//!
//! The workload generators mostly use uniform jitter, but exploring the
//! policy space (see `ff-trace::workloads::synthetic`) needs the classic
//! heavy-tailed shapes from the storage literature: log-normal file
//! sizes and exponential think times. Implemented here
//! over any `rand::Rng` so everything stays reproducible from one seed
//! (no extra dependency on `rand_distr`).

use rand::Rng;

/// A sampler over `f64`.
pub trait Sample {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Uniform over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Sample for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        debug_assert!(self.hi > self.lo);
        rng.gen_range(self.lo..self.hi)
    }
}

/// Exponential with the given mean (rate = 1/mean): memoryless think
/// times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Mean of the distribution.
    pub mean: f64,
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        debug_assert!(self.mean > 0.0);
        // Inverse CDF; clamp the uniform away from 0 to avoid inf.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -self.mean * u.ln()
    }
}

/// Log-normal given the mean and sigma of the *underlying* normal:
/// the canonical file-size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of ln(X).
    pub mu: f64,
    /// Standard deviation of ln(X).
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from the desired *median* value of X (`exp(mu)`).
    pub fn with_median(median: f64, sigma: f64) -> Self {
        debug_assert!(median > 0.0);
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Type-erased sampler so configs can carry "some distribution".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Uniform over a range.
    Uniform(Uniform),
    /// Exponential with a mean.
    Exponential(Exponential),
    /// Log-normal.
    LogNormal(LogNormal),
    /// Always the same value.
    Constant(f64),
}

impl Dist {
    /// Uniform over `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        Dist::Uniform(Uniform { lo, hi })
    }

    /// Exponential with `mean`.
    pub fn exponential(mean: f64) -> Self {
        Dist::Exponential(Exponential { mean })
    }

    /// Log-normal with the given median and sigma.
    pub fn log_normal(median: f64, sigma: f64) -> Self {
        Dist::LogNormal(LogNormal::with_median(median, sigma))
    }
}

impl Sample for Dist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Uniform(d) => d.sample(rng),
            Dist::Exponential(d) => d.sample(rng),
            Dist::LogNormal(d) => d.sample(rng),
            Dist::Constant(v) => *v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn mean_of(d: &impl Sample, n: usize) -> f64 {
        let mut rng = seeded_rng(7);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform { lo: 2.0, hi: 6.0 };
        let mut rng = seeded_rng(1);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&v));
        }
        assert!((mean_of(&d, 50_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential { mean: 3.0 };
        assert!((mean_of(&d, 100_000) - 3.0).abs() < 0.1);
        let mut rng = seeded_rng(2);
        assert!((0..1000).all(|_| d.sample(&mut rng) >= 0.0));
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::with_median(100.0, 0.8);
        let mut rng = seeded_rng(3);
        let mut xs: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median {median}");
        assert!(xs[0] > 0.0);
    }

    #[test]
    fn dist_enum_dispatches() {
        let mut rng = seeded_rng(5);
        assert_eq!(Dist::Constant(7.5).sample(&mut rng), 7.5);
        let v = Dist::uniform(0.0, 1.0).sample(&mut rng);
        assert!((0.0..1.0).contains(&v));
        assert!(Dist::exponential(1.0).sample(&mut rng) >= 0.0);
        assert!(Dist::log_normal(50.0, 1.0).sample(&mut rng) > 0.0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = Dist::log_normal(10.0, 0.5);
        let a: Vec<f64> = {
            let mut rng = seeded_rng(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = seeded_rng(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
