//! Spin-down timeout algorithms and their competitive analysis.
//!
//! §4 surveys the disk spin-down literature the FlexFetch simulator sits
//! on: fixed timeouts (Douglis et al. \[6\]) and adaptive ones (Helmbold
//! et al. \[7\], the *share* algorithm). This module implements both over
//! streams of idle-period lengths, plus the offline oracle, so the
//! repository can reproduce the classic results those papers establish:
//!
//! * a fixed timeout equal to the break-even time is **2-competitive**
//!   with the oracle;
//! * the share algorithm tracks the best timeout in hindsight when idle
//!   periods are drifting.
//!
//! The `spindown` experiment binary runs these on idle periods extracted
//! from the Table 3 workloads.

use crate::disk::DiskParams;
use ff_base::{Dur, Joules};

/// Energy consumed over one idle period of length `idle` if the disk
/// spins down after `timeout` of it (and must be spun back up at the end
/// for the next request).
///
/// * `idle < timeout` — the disk idles the whole period: `P_idle × idle`.
/// * otherwise — idle until the timeout, then pay the spin-down, sit in
///   standby, and pay the spin-up for the next request. (Transition
///   *time* overlaps the idle period; like the main model we book
///   transition energy as lump sums.)
pub fn period_energy(params: &DiskParams, idle: Dur, timeout: Dur) -> Joules {
    if idle < timeout {
        params.idle_power * idle
    } else {
        let standby = idle
            .saturating_sub(timeout)
            .saturating_sub(params.spindown_time)
            .saturating_sub(params.spinup_time);
        params.idle_power * timeout
            + params.spindown_energy
            + params.standby_power * standby
            + params.spinup_energy
    }
}

/// The offline oracle: for each idle period, the better of "never spin
/// down" and "spin down immediately".
pub fn oracle_energy(params: &DiskParams, idles: &[Dur]) -> Joules {
    idles
        .iter()
        .map(|&idle| {
            let stay = params.idle_power * idle;
            let park = period_energy(params, idle, Dur::ZERO);
            stay.min(park)
        })
        .sum()
}

/// Total energy of a fixed-timeout policy over an idle-period stream.
pub fn fixed_timeout_energy(params: &DiskParams, idles: &[Dur], timeout: Dur) -> Joules {
    idles
        .iter()
        .map(|&idle| period_energy(params, idle, timeout))
        .sum()
}

/// Helmbold et al.'s share-style adaptive timeout: a panel of expert
/// timeouts, each weighted by how much energy it would have cost on past
/// idle periods; the acted timeout is the weighted average. Weights decay
/// multiplicatively with per-period loss and are periodically
/// renormalised with a share step so discredited experts can recover
/// (tracking a *drifting* best timeout).
#[derive(Debug, Clone)]
pub struct ShareSpindown {
    params: DiskParams,
    experts: Vec<Dur>,
    weights: Vec<f64>,
    /// Learning rate for the multiplicative update.
    eta: f64,
    /// Share fraction redistributed each round.
    alpha: f64,
}

impl ShareSpindown {
    /// Panel of `n` timeouts log-spaced between `lo` and `hi`.
    #[expect(
        clippy::disallowed_methods,
        clippy::as_conversions,
        reason = "log-spacing the expert timeouts is f64 arithmetic on seconds and panel indices"
    )]
    pub fn new(params: DiskParams, lo: Dur, hi: Dur, n: usize) -> Self {
        assert!(n >= 2, "need at least two experts");
        assert!(lo < hi && lo > Dur::ZERO);
        let (l, h) = (lo.as_secs_f64().ln(), hi.as_secs_f64().ln());
        let experts: Vec<Dur> = (0..n)
            .map(|i| {
                let x = l + (h - l) * i as f64 / (n - 1) as f64;
                Dur::from_secs_f64(x.exp())
            })
            .collect();
        ShareSpindown {
            params,
            experts,
            weights: vec![1.0; n],
            eta: 0.4,
            alpha: 0.08,
        }
    }

    /// Default panel for the DK23DA: 16 timeouts from 0.5 s to 60 s.
    pub fn for_disk(params: DiskParams) -> Self {
        ShareSpindown::new(params, Dur::from_millis(500), Dur::from_secs(60), 16)
    }

    /// The timeout the algorithm would act with right now (weighted mean).
    #[expect(
        clippy::disallowed_methods,
        reason = "the weighted mean of the expert timeouts is taken in f64 seconds"
    )]
    pub fn current_timeout(&self) -> Dur {
        let wsum: f64 = self.weights.iter().sum();
        let mean = self
            .experts
            .iter()
            .zip(&self.weights)
            .map(|(t, w)| t.as_secs_f64() * w)
            .sum::<f64>()
            / wsum;
        Dur::from_secs_f64(mean)
    }

    /// Observe one completed idle period: charge the acted timeout,
    /// update expert weights by their would-have-been losses.
    /// Returns the energy this period actually cost.
    #[expect(
        clippy::as_conversions,
        reason = "the share step divides the weight pool by the expert count as f64"
    )]
    pub fn observe(&mut self, idle: Dur) -> Joules {
        let acted = self.current_timeout();
        let cost = period_energy(&self.params, idle, acted);

        // Normalised losses in [0, 1]: expert loss relative to the worst
        // possible (always-idle at P_idle for the whole period, plus a
        // full transition pair).
        let worst = (self.params.idle_power * idle).get()
            + self.params.spindown_energy.get()
            + self.params.spinup_energy.get();
        for (i, &t) in self.experts.iter().enumerate() {
            let loss = period_energy(&self.params, idle, t).get() / worst;
            self.weights[i] *= (-self.eta * loss).exp();
        }
        // Share step: pool a fraction of all weight and spread it evenly,
        // keeping every expert revivable.
        let pool: f64 = self.weights.iter().map(|w| w * self.alpha).sum();
        let n = self.weights.len() as f64;
        for w in &mut self.weights {
            *w = *w * (1.0 - self.alpha) + pool / n;
        }
        // Renormalise to dodge underflow on long streams.
        let wsum: f64 = self.weights.iter().sum();
        for w in &mut self.weights {
            *w /= wsum;
        }
        cost
    }

    /// Run over a whole idle stream, returning the total energy.
    pub fn run(&mut self, idles: &[Dur]) -> Joules {
        idles.iter().map(|&i| self.observe(i)).sum()
    }
}

/// Extract the disk-relevant idle periods (gaps between consecutive
/// request completions and next arrivals) from a trace, for feeding the
/// algorithms above.
pub fn idle_periods(
    records: impl Iterator<Item = (ff_base::SimTime, ff_base::SimTime)>,
) -> Vec<Dur> {
    let mut out = Vec::new();
    let mut prev_end: Option<ff_base::SimTime> = None;
    for (start, end) in records {
        if let Some(pe) = prev_end {
            let gap = start.saturating_since(pe);
            if !gap.is_zero() {
                out.push(gap);
            }
        }
        prev_end = Some(end.max(prev_end.unwrap_or(end)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_base::SimTime;

    fn p() -> DiskParams {
        DiskParams::hitachi_dk23da()
    }

    #[test]
    fn short_period_is_pure_idle() {
        let e = period_energy(&p(), Dur::from_secs(5), Dur::from_secs(20));
        assert!((e.get() - 8.0).abs() < 1e-9); // 1.6 W × 5 s
    }

    #[test]
    fn long_period_pays_transitions_then_standby() {
        // 100 s idle, 20 s timeout: 32 J idle + 2.94 + 5 + standby
        // (100−20−2.3−1.6) × 0.15 = 11.415.
        let e = period_energy(&p(), Dur::from_secs(100), Dur::from_secs(20));
        let expect = 32.0 + 2.94 + 5.0 + (100.0 - 23.9) * 0.15;
        assert!((e.get() - expect).abs() < 1e-9, "{e}");
    }

    #[test]
    fn oracle_picks_min_per_period() {
        let idles = [Dur::from_secs(2), Dur::from_secs(100)];
        let e = oracle_energy(&p(), &idles);
        // 2 s: stay (3.2 J) beats park (7.94 + standby). 100 s: park.
        let park_100 = period_energy(&p(), Dur::from_secs(100), Dur::ZERO);
        assert!((e.get() - (3.2 + park_100.get())).abs() < 1e-9);
    }

    #[test]
    fn break_even_timeout_is_2_competitive() {
        // The classic ski-rental bound, checked on adversarial streams.
        let params = p();
        let be = params.break_even();
        let streams: Vec<Vec<Dur>> = vec![
            // Just past break-even — the adversary's favourite.
            vec![be + Dur::from_millis(1); 50],
            // Alternating short/long.
            (0..60)
                .map(|i| {
                    if i % 2 == 0 {
                        Dur::from_secs(1)
                    } else {
                        Dur::from_secs(90)
                    }
                })
                .collect(),
            // All long.
            vec![Dur::from_secs(300); 20],
            // All short.
            vec![Dur::from_millis(400); 200],
        ];
        for idles in &streams {
            let fixed = fixed_timeout_energy(&params, idles, be);
            let oracle = oracle_energy(&params, idles);
            assert!(
                fixed.get() <= 2.0 * oracle.get() + 1e-6,
                "fixed@break-even {fixed} > 2 × oracle {oracle}"
            );
        }
    }

    #[test]
    fn zero_timeout_is_terrible_for_short_periods() {
        let idles = vec![Dur::from_secs(1); 100];
        let eager = fixed_timeout_energy(&p(), &idles, Dur::ZERO);
        let patient = fixed_timeout_energy(&p(), &idles, Dur::from_secs(20));
        assert!(eager.get() > 3.0 * patient.get(), "{eager} vs {patient}");
    }

    #[test]
    fn share_tracks_the_better_regime() {
        let params = p();
        // Phase 1: long periods (should learn to park fast);
        // Phase 2: short periods (should learn to stay spinning).
        let mut idles = vec![Dur::from_secs(120); 80];
        idles.extend(vec![Dur::from_secs(2); 300]);

        let mut share = ShareSpindown::for_disk(params);
        let adaptive = share.run(&idles);

        // Compare against the best FIXED timeout in hindsight.
        let candidates: Vec<Dur> = (0..40).map(|i| Dur::from_millis(500 + i * 1_500)).collect();
        let best_fixed = candidates
            .iter()
            .map(|&t| fixed_timeout_energy(&params, &idles, t).get())
            .fold(f64::INFINITY, f64::min);

        assert!(
            adaptive.get() <= best_fixed * 1.25,
            "share {adaptive} far above best fixed {best_fixed}"
        );
        // And after the short phase, its acted timeout has grown past the
        // break-even (it stopped parking eagerly).
        assert!(share.current_timeout() > params.break_even() / 2);
    }

    #[test]
    fn share_timeout_stays_in_panel_range() {
        let mut share = ShareSpindown::for_disk(p());
        for i in 0..500 {
            share.observe(Dur::from_millis(100 + (i % 50) * 1000));
            let t = share.current_timeout();
            assert!(t >= Dur::from_millis(500) && t <= Dur::from_secs(60));
        }
    }

    #[test]
    fn idle_periods_from_records() {
        let recs = vec![
            (SimTime::from_secs(0), SimTime::from_secs(1)),
            (SimTime::from_secs(5), SimTime::from_secs(6)), // gap 4 s
            (SimTime::from_secs(6), SimTime::from_secs(7)), // gap 0 — skipped
            (SimTime::from_secs(30), SimTime::from_secs(31)), // gap 23 s
        ];
        let idles = idle_periods(recs.into_iter());
        assert_eq!(idles, vec![Dur::from_secs(4), Dur::from_secs(23)]);
    }

    #[test]
    #[should_panic(expected = "at least two experts")]
    fn share_needs_experts() {
        ShareSpindown::new(p(), Dur::from_secs(1), Dur::from_secs(2), 1);
    }
}
