//! An offline near-optimal baseline (extension).
//!
//! FlexFetch's premise is that history predicts the future; the natural
//! upper bound is a scheme that *knows* the future. [`Oracle`] is given
//! the profile of the run actually being replayed and plans per-stage
//! device choices by dynamic programming:
//!
//! * stages are the same 40 s windows FlexFetch evaluates;
//! * the per-stage cost of each device comes from the same estimator
//!   (including parking costs), conditioned on the disk's spin state at
//!   the stage boundary;
//! * the DP tracks that spin state across stages, so the plan accounts
//!   for spin-up/-down round trips between consecutive choices.
//!
//! The result is not exactly optimal for the replay (stage boundaries
//! are wall-clock there, and the buffer cache shifts traffic), but it is
//! a tight, honest reference: FlexFetch's distance above it is its
//! *regret* from having only history instead of the future.

use crate::rules::decide;
use crate::source::{AppRequest, Policy, PolicyCtx, Source, StageReport};
use ff_base::{Dur, Joules};
use ff_device::{DiskModel, DiskParams, DiskState, PowerModel, WnicModel, WnicParams};
use ff_profile::{Plan, Profile};
use ff_trace::DiskLayout;

/// The planned choice sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OraclePlan {
    /// One choice per evaluation stage.
    pub per_stage: Vec<Source>,
}

/// Build the oracle plan for `true_profile` (the profile of the run that
/// will be replayed).
pub fn plan_oracle(
    true_profile: &Profile,
    layout: &DiskLayout,
    disk_params: &DiskParams,
    wnic_params: &WnicParams,
    stage_len: Dur,
    loss_rate: f64,
) -> OraclePlan {
    let stages = true_profile.stages(stage_len);
    if stages.is_empty() {
        return OraclePlan {
            per_stage: vec![Source::Disk],
        };
    }
    let plan = Plan::of(&true_profile.bursts, layout);

    // Per (stage, disk-up?) costs and the disk state each option leaves
    // behind. The WNIC is approximated as starting each stage from PSM —
    // its transition costs are an order of magnitude below the disk's.
    #[derive(Clone, Copy, Default)]
    struct Opt {
        /// Serving device's own cost for the stage.
        energy: f64,
        time: f64,
        /// State-transition bookkeeping charged to the total only (e.g.
        /// the idle disk draining to standby during a network stage) —
        /// kept out of the per-stage permissibility test.
        extra: f64,
        disk_up_after: bool,
    }
    let n = stages.len();
    let mut disk_opt = vec![[Opt::default(); 2]; n];
    let mut wnic_opt = vec![[Opt::default(); 2]; n];

    for (i, stage) in stages.iter().enumerate() {
        for (s, start_up) in [(0usize, false), (1usize, true)] {
            let mk_disk = || {
                if start_up {
                    DiskModel::new(*disk_params)
                } else {
                    DiskModel::new_standby(*disk_params)
                }
            };
            // One walk prices both options. The estimator's parking run
            // leaves the disk in standby, but whether the *stage itself*
            // ends with the disk up depends on its trailing gap: read
            // the walked disk before parking.
            let bursts = stage.first_burst..stage.first_burst + stage.len();
            let walked = plan.walk(bursts, mk_disk(), WnicModel::new(*wnic_params), None);
            let up_after = matches!(
                walked.disk().state(),
                DiskState::Idle | DiskState::SpinningUp(_)
            );
            let (d, w) = walked.park();
            // Disk option: disk serves.
            disk_opt[i][s] = Opt {
                energy: d.energy.get(),
                time: d.time.as_secs_f64(),
                extra: 0.0,
                disk_up_after: up_after,
            };

            // Network option: WNIC serves; an initially-up disk drains to
            // standby on its own (cost included), a down disk stays down.
            let mut idle_disk = mk_disk();
            let mut idle = Joules::ZERO;
            idle_disk.advance_to(idle_disk.clock() + w.time, &mut idle);
            wnic_opt[i][s] = Opt {
                energy: w.energy.get(),
                time: w.time.as_secs_f64(),
                extra: idle.get(),
                disk_up_after: start_up && w.time.as_secs_f64() < disk_params.timeout.as_secs_f64(),
            };
        }
    }

    // DP backwards: best[i][s] = min total energy over permissible
    // choices. Permissibility applies the §2.2 rules *per stage* (the
    // network may only be used where the live scheme would be allowed to
    // trade time for energy); the DP then minimises energy over the
    // permitted tree — the best any rules-respecting scheme could do.
    let mut best = vec![[f64::INFINITY; 2]; n + 1];
    best[n] = [0.0, 0.0];
    let mut choice = vec![[Source::Disk; 2]; n];
    for i in (0..n).rev() {
        for s in 0..2 {
            let d = disk_opt[i][s];
            let w = wnic_opt[i][s];
            let d_total = d.energy + d.extra + best[i + 1][usize::from(d.disk_up_after)];
            let w_total = w.energy + w.extra + best[i + 1][usize::from(w.disk_up_after)];
            let w_permitted = decide(
                ff_profile::Estimate {
                    time: Dur::from_secs_f64(d.time),
                    energy: ff_base::Joules(d.energy),
                },
                ff_profile::Estimate {
                    time: Dur::from_secs_f64(w.time),
                    energy: ff_base::Joules(w.energy),
                },
                loss_rate,
            ) == Source::Wnic;
            let (c, v) = if w_permitted && w_total < d_total {
                (Source::Wnic, w_total)
            } else {
                (Source::Disk, d_total)
            };
            choice[i][s] = c;
            best[i][s] = v;
        }
    }

    // Roll the plan forward from a standby disk (the runs start parked).
    let mut per_stage = Vec::with_capacity(n);
    let mut s = 0usize;
    for i in 0..n {
        let c = choice[i][s];
        per_stage.push(c);
        let opt = match c {
            Source::Disk => disk_opt[i][s],
            Source::Wnic => wnic_opt[i][s],
        };
        s = usize::from(opt.disk_up_after);
    }
    OraclePlan { per_stage }
}

/// The oracle policy: replays a precomputed per-stage plan.
#[derive(Debug, Clone)]
pub struct Oracle {
    plan: OraclePlan,
    stage: usize,
}

impl Oracle {
    /// Policy following `plan`.
    pub fn new(plan: OraclePlan) -> Self {
        Oracle { plan, stage: 0 }
    }

    /// Convenience: plan directly from the true profile and constants.
    pub fn for_run(
        true_profile: &Profile,
        layout: &DiskLayout,
        disk: &DiskParams,
        wnic: &WnicParams,
        stage_len: Dur,
        loss_rate: f64,
    ) -> Self {
        Oracle::new(plan_oracle(
            true_profile,
            layout,
            disk,
            wnic,
            stage_len,
            loss_rate,
        ))
    }

    /// The planned choices.
    pub fn plan(&self) -> &OraclePlan {
        &self.plan
    }
}

impl Policy for Oracle {
    fn name(&self) -> &'static str {
        "Oracle"
    }

    fn select(&mut self, _ctx: &PolicyCtx<'_>, _req: &AppRequest) -> Source {
        let idx = self.stage.min(self.plan.per_stage.len() - 1);
        self.plan.per_stage[idx]
    }

    fn on_stage_end(&mut self, _ctx: &PolicyCtx<'_>, _report: &StageReport) {
        self.stage += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_profile::Profiler;
    use ff_trace::{Grep, Make, Workload, Xmms};

    fn plan_for(trace: &ff_trace::Trace) -> OraclePlan {
        let layout = DiskLayout::build(&trace.files, 7);
        let profile = Profiler::standard().profile(trace);
        plan_oracle(
            &profile,
            &layout,
            &DiskParams::hitachi_dk23da(),
            &WnicParams::cisco_aironet350(),
            Dur::from_secs(40),
            0.25,
        )
    }

    #[test]
    fn bursty_run_plans_disk() {
        let t = Grep::default().build(1);
        let plan = plan_for(&t);
        assert_eq!(
            plan.per_stage[0],
            Source::Disk,
            "grep's dense burst belongs on disk"
        );
    }

    #[test]
    fn sparse_run_plans_network() {
        let t = Xmms {
            play_limit: Some(Dur::from_secs(300)),
            ..Default::default()
        }
        .build(1);
        let plan = plan_for(&t);
        let wnic_stages = plan
            .per_stage
            .iter()
            .filter(|&&s| s == Source::Wnic)
            .count();
        assert!(
            wnic_stages * 2 > plan.per_stage.len(),
            "paced streaming belongs on the WNIC: {:?}",
            plan.per_stage
        );
    }

    #[test]
    fn mixed_run_plans_both() {
        let t = Grep::default()
            .build(1)
            .concat(&Make::default().build(1), Dur::from_secs(2))
            .unwrap();
        let plan = plan_for(&t);
        assert!(plan.per_stage.contains(&Source::Disk));
        assert!(plan.per_stage.contains(&Source::Wnic));
    }

    #[test]
    fn empty_profile_degenerates() {
        let layout = DiskLayout::build(&ff_trace::FileSet::new(), 0);
        let plan = plan_oracle(
            &Profile::empty("x"),
            &layout,
            &DiskParams::hitachi_dk23da(),
            &WnicParams::cisco_aironet350(),
            Dur::from_secs(40),
            0.25,
        );
        assert_eq!(plan.per_stage.len(), 1);
    }

    #[test]
    fn policy_walks_the_plan() {
        let plan = OraclePlan {
            per_stage: vec![Source::Disk, Source::Wnic, Source::Disk],
        };
        let mut p = Oracle::new(plan);
        assert_eq!(p.name(), "Oracle");
        // Fake stage advance without a ctx: on_stage_end only counts.
        assert_eq!(p.stage, 0);
        p.stage += 1;
        assert_eq!(p.plan().per_stage[p.stage], Source::Wnic);
    }
}
