//! The chaos harness: seeded fault schedules swept across policies and
//! workloads, with the robustness invariants asserted on every run.
//!
//! The contract under test (DESIGN.md §12): whatever a [`FaultPlan`]
//! does to a run, (1) nothing panics, (2) every traced request is
//! eventually served, (3) device state machines stay legal and energy
//! stays finite and non-negative, (4) the same schedule replays to a
//! byte-identical event log, and (5) once the faults clear, performance
//! recovers to within a bounded distance of the fault-free run.

use ff_bench::faults::{check_invariants, fault_run, FAULT_SCENARIOS};
use ff_bench::observe::{build_policy, build_workload, ObservedRun, POLICIES};
use flexfetch::base::Dur;
use flexfetch::prelude::*;
use flexfetch::sim::record::{Device, Event};

/// The acceptance schedule: a WNIC link outage dropped mid-stage (100 s
/// is the middle of the third 40 s evaluation stage) plus a background
/// process hammering the disk — the §2.3.3 free-riding situation.
fn acceptance_plan() -> FaultPlan {
    FaultPlan::none()
        .with_link_outage(Dur::from_secs(100), Dur::from_secs(240))
        .with_disk_storm(Dur::from_secs(90), 50, Dur::from_secs(6), 262_144)
}

fn observed(trace: &Trace, kind: PolicyKind, plan: FaultPlan) -> ObservedRun {
    let mut log = EventLog::new();
    let report = Simulation::new(SimConfig::default().with_faults(plan), trace)
        .policy(kind)
        .run_recorded(&mut log)
        .expect("chaos runs must not fail");
    ObservedRun { report, log }
}

#[test]
fn acceptance_schedule_replays_byte_identically() {
    let trace = build_workload("mplayer", 42).unwrap();
    let run = |_: u32| {
        let kind = build_policy("flexfetch", "mplayer", 42).unwrap();
        observed(&trace, kind, acceptance_plan())
    };
    let (a, b) = (run(0), run(1));
    assert_eq!(
        a.log.to_jsonl(),
        b.log.to_jsonl(),
        "the same fault schedule must replay to a byte-identical log"
    );
    assert_eq!(a.report.total_energy(), b.report.total_energy());
    assert_eq!(a.report.exec_time, b.report.exec_time);
}

#[test]
fn acceptance_schedule_adaptive_beats_static() {
    let trace = build_workload("mplayer", 42).unwrap();
    let adaptive = observed(
        &trace,
        build_policy("flexfetch", "mplayer", 42).unwrap(),
        acceptance_plan(),
    );
    let fixed = observed(
        &trace,
        build_policy("flexfetch-static", "mplayer", 42).unwrap(),
        acceptance_plan(),
    );
    // Both survive with every request served…
    assert!(check_invariants(&trace, &adaptive).is_empty());
    assert!(check_invariants(&trace, &fixed).is_empty());
    // …but the adaptive variant degrades to the disk during the outage
    // (parking the WNIC) and free-rides the storm-spun disk, ending
    // strictly cheaper than the variant that ignores the faults.
    assert!(
        adaptive.report.total_energy() < fixed.report.total_energy(),
        "adaptive {} must beat static {} under the acceptance schedule",
        adaptive.report.total_energy(),
        fixed.report.total_energy()
    );
    // The adaptation is visible in the decision log.
    assert!(
        adaptive
            .report
            .decisions
            .iter()
            .any(|(_, _, why)| *why == "fault:degraded"),
        "no degradation recorded: {:?}",
        adaptive.report.decisions
    );
    assert!(
        adaptive
            .report
            .decisions
            .iter()
            .any(|(_, _, why)| *why == "fault:recovered"),
        "no recovery recorded: {:?}",
        adaptive.report.decisions
    );
}

#[test]
fn acceptance_schedule_emits_typed_fault_events() {
    let trace = build_workload("mplayer", 42).unwrap();
    let run = observed(
        &trace,
        build_policy("flexfetch", "mplayer", 42).unwrap(),
        acceptance_plan(),
    );
    assert_eq!(run.log.count("link_down"), 1);
    assert_eq!(run.log.count("link_up"), 1);
    assert_eq!(run.log.count("external_disk"), 50);
    assert_eq!(run.report.faults_injected, 51);
    // The log serialises in timestamp order.
    let jsonl = run.log.to_jsonl();
    let mut last = 0u64;
    for line in jsonl.lines() {
        let t = line
            .split("\"t\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse::<u64>().ok())
            .expect("every event carries t");
        assert!(t >= last, "events out of order: {t} after {last}");
        last = t;
    }
}

#[test]
fn every_policy_survives_every_named_scenario() {
    let trace = build_workload("grep", 42).unwrap();
    for policy in POLICIES {
        for scenario in FAULT_SCENARIOS {
            let run = fault_run("grep", policy, scenario, 42)
                .unwrap_or_else(|e| panic!("{policy}/{scenario} failed: {e}"));
            let violations = check_invariants(&trace, &run);
            assert!(
                violations.is_empty(),
                "{policy}/{scenario} violated: {violations:?}"
            );
        }
    }
}

#[test]
fn seeded_schedules_are_survivable_and_deterministic() {
    let trace = build_workload("grep", 42).unwrap();
    let span = trace.stats().span;
    for seed in [1u64, 7, 42, 1234] {
        let plan = FaultPlan::seeded(seed, span);
        for policy in POLICIES {
            let run = || {
                observed(
                    &trace,
                    build_policy(policy, "grep", 42).unwrap(),
                    plan.clone(),
                )
            };
            let a = run();
            let violations = check_invariants(&trace, &a);
            assert!(
                violations.is_empty(),
                "seed {seed}/{policy} violated: {violations:?}"
            );
            let b = run();
            assert_eq!(
                a.log.to_jsonl(),
                b.log.to_jsonl(),
                "seed {seed}/{policy} must replay identically"
            );
        }
    }
}

/// Server dead for the first 3 s (the closed-loop grep run finishes in
/// well under 60 s, so the server must recover mid-run), with a fast
/// 300 ms/100 ms/3-attempt ladder so the first request exhausts it
/// quickly.
fn fast_ladder_outage() -> SimConfig {
    SimConfig::default()
        .with_faults(FaultPlan::none().with_server_outage(Dur::ZERO, Dur::from_secs(3)))
        .with_retry(RetryPolicy {
            timeout: Dur::from_millis(300),
            backoff: Dur::from_millis(100),
            max_retries: 3,
        })
}

#[test]
fn retry_ladder_is_walked_then_dropped_after_recovery() {
    let trace = build_workload("grep", 42).unwrap();
    let mut log = EventLog::new();
    let report = Simulation::new(fast_ladder_outage(), &trace)
        .policy(PolicyKind::WnicOnly)
        .run_recorded(&mut log)
        .unwrap();
    assert!(report.retries > 0, "the outage must cost timeouts");
    assert!(
        report.failovers > 0,
        "the ladder must exhaust at least once"
    );
    assert_eq!(report.app_requests, trace.len() as u64);
    // After the server returns the WNIC serves again: the run's traffic
    // is split, not all failed over.
    assert!(report.wnic_requests > 0, "recovery must restore the WNIC");
    assert!(report.disk_requests > 0, "failovers must have hit the disk");
    assert_eq!(log.count("request_retry"), report.retries);
}

/// The server-path machine and the Aironet 350 machine walk their
/// cycles under two server outages on grep, WNIC-only: the fast ladder
/// is exhausted, and a 2 s outage at 500 ms is ridden out by the
/// default ladder.
#[test]
fn server_outages_walk_the_failover_and_wnic_cycles() {
    let trace = build_workload("grep", 42).unwrap();
    let outage = SimConfig::default().with_faults(
        FaultPlan::none().with_server_outage(Dur::from_millis(500), Dur::from_secs(2)),
    );
    for (config, server_path) in [
        (fast_ladder_outage(), ["down", "dead", "healthy"].as_slice()),
        (outage, ["down", "healthy"].as_slice()),
    ] {
        let mut log = EventLog::new();
        Simulation::new(config, &trace)
            .policy(PolicyKind::WnicOnly)
            .run_recorded(&mut log)
            .unwrap();
        let entered: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::ServerPathChange { state, .. } => Some(state),
                _ => None,
            })
            .collect();
        assert_eq!(entered, server_path);
        // The card drops to PSM and comes back to CAM.
        let wnic: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::DeviceState {
                    device: Device::Wnic,
                    state,
                    ..
                } => Some(state),
                _ => None,
            })
            .collect();
        let psm = wnic.iter().position(|s| *s == "psm_idle");
        let cam = psm.and_then(|i| wnic[i..].iter().position(|s| *s == "cam_idle"));
        assert!(
            cam.is_some(),
            "{server_path:?}: no psm_idle then cam_idle in {} WNIC states",
            wnic.len()
        );
    }
}

#[test]
fn performance_recovers_once_faults_clear() {
    let trace = build_workload("grep", 42).unwrap();
    let clean = Simulation::new(SimConfig::default(), &trace)
        .policy(PolicyKind::DiskOnly)
        .run()
        .unwrap();
    // A 10 s link outage early in the run; Disk-only traffic does not
    // even use the link, and adaptive policies degrade to the disk, so
    // the residual slowdown must stay within the fault window plus one
    // exhausted retry ladder of slack.
    let plan = FaultPlan::none().with_link_outage(Dur::from_secs(5), Dur::from_secs(10));
    let ladder = SimConfig::default()
        .retry
        .ladder()
        .expect("the default ladder fits");
    let bound = clean.exec_time + Dur::from_secs(10) + ladder;
    for policy in ["disk", "flexfetch"] {
        let faulted = Simulation::new(SimConfig::default().with_faults(plan.clone()), &trace)
            .policy(build_policy(policy, "grep", 42).unwrap())
            .run()
            .unwrap();
        assert!(
            faulted.exec_time <= bound,
            "{policy}: faulted run {} exceeds recovery bound {bound} (clean {})",
            faulted.exec_time,
            clean.exec_time
        );
    }
}

#[test]
fn corrupt_profile_injection_is_survived_and_audited_away() {
    let trace = build_workload("grep", 42).unwrap();
    let plan = FaultPlan::none().with_profile_fault(Dur::from_secs(2), ProfileFaultMode::Corrupt);
    let run = observed(&trace, build_policy("flexfetch", "grep", 42).unwrap(), plan);
    assert!(check_invariants(&trace, &run).is_empty());
    assert_eq!(run.log.count("profile_injected"), 1);
    assert!(
        run.report
            .decisions
            .iter()
            .any(|(_, _, why)| *why == "fault:profile"),
        "the injected profile must force a re-decision: {:?}",
        run.report.decisions
    );
}
