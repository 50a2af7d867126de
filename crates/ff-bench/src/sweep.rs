//! Parameter sweeps and result formatting.
//!
//! §3.3: *"We vary the WNIC latency with a fixed 11 Mbps bandwidth and
//! vary the WNIC bandwidth with a fixed 1 msec latency."* Each sweep
//! point × policy is an independent single-threaded simulation; points
//! fan out over the work-stealing pool ([`crate::pool`]) and merge back
//! in canonical point order, so sweep output is byte-identical at any
//! `--jobs` setting.

use crate::pool;
use crate::scenarios::Scenario;
use ff_base::checked;
use ff_base::{Dur, Result};
use ff_policy::PolicyKind;
use ff_sim::{SimConfig, Simulation};
use std::fmt::{self, Write};

/// WNIC latencies of the Fig. x(a) sweeps (ms).
pub const LATENCIES_MS: [u64; 9] = [0, 1, 3, 5, 9, 12, 15, 20, 30];

/// 802.11b bandwidths of the Fig. x(b) sweeps (Mbps).
pub const BANDWIDTHS_MBPS: [f64; 4] = [1.0, 2.0, 5.5, 11.0];

/// One figure data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Policy label (series).
    pub policy: String,
    /// Sweep coordinate (latency in ms, or bandwidth in Mbps).
    pub x: f64,
    /// Total I/O energy in joules (the figures' y-axis).
    pub energy_j: f64,
    /// Execution time in seconds.
    pub time_s: f64,
}

fn run_point(scenario: &Scenario, kind: &PolicyKind, cfg: SimConfig, x: f64) -> Result<Row> {
    let cfg = scenario.configure(cfg);
    let report = Simulation::new(cfg, &scenario.trace)
        .policy(kind.clone())
        .run()?;
    Ok(Row {
        policy: report.policy.clone(),
        x,
        energy_j: report.total_energy().get(),
        time_s: report.exec_time.as_secs_f64(),
    })
}

/// Run `policies` over a sweep of WNIC latencies at 11 Mbps on `jobs`
/// pool workers (`0` = one per hardware thread). Results are identical
/// for any `jobs`.
pub fn latency_sweep(
    scenario: &Scenario,
    policies: &[PolicyKind],
    latencies_ms: &[u64],
    jobs: usize,
) -> Result<Vec<Row>> {
    let points: Vec<(usize, u64)> = policies
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| latencies_ms.iter().map(move |&l| (pi, l)))
        .collect();
    run_points(scenario, policies, &points, jobs, |l| {
        (
            SimConfig::default().with_wnic_latency(Dur::from_millis(l)),
            l as f64,
        )
    })
}

/// Run `policies` over a sweep of WNIC bandwidths at 1 ms latency on
/// `jobs` pool workers (`0` = one per hardware thread). Results are
/// identical for any `jobs`.
pub fn bandwidth_sweep(
    scenario: &Scenario,
    policies: &[PolicyKind],
    bandwidths_mbps: &[f64],
    jobs: usize,
) -> Result<Vec<Row>> {
    let points: Vec<(usize, u64)> = policies
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            bandwidths_mbps
                .iter()
                .map(move |&b| (pi, checked::f64_to_u64(b * 1000.0)))
        })
        .collect();
    run_points(scenario, policies, &points, jobs, |milli_mbps| {
        let mbps = milli_mbps as f64 / 1000.0;
        (
            SimConfig::default()
                .with_wnic_latency(Dur::from_millis(1))
                .with_wnic_bandwidth_mbps(mbps),
            mbps,
        )
    })
}

/// Fan the sweep points out over the pool; each point is one
/// independent simulation, and the pool's ordered merge returns rows in
/// canonical point order.
fn run_points(
    scenario: &Scenario,
    policies: &[PolicyKind],
    points: &[(usize, u64)],
    jobs: usize,
    make_cfg: impl Fn(u64) -> (SimConfig, f64) + Sync,
) -> Result<Vec<Row>> {
    pool::run_ordered(jobs, points, |_, &(pi, raw)| {
        let (cfg, x) = make_cfg(raw);
        run_point(scenario, &policies[pi], cfg, x)
    })?
    .into_iter()
    .collect()
}

/// Write a figure as an aligned table: one row per x, one column per
/// policy.
pub fn write_table(out: &mut impl Write, title: &str, x_label: &str, rows: &[Row]) -> fmt::Result {
    writeln!(out, "\n== {title} ==")?;
    let mut policies: Vec<String> = Vec::new();
    for r in rows {
        if !policies.contains(&r.policy) {
            policies.push(r.policy.clone());
        }
    }
    let mut xs: Vec<f64> = Vec::new();
    for r in rows {
        if !xs.iter().any(|&x| (x - r.x).abs() < 1e-9) {
            xs.push(r.x);
        }
    }
    xs.sort_by(f64::total_cmp);

    write!(out, "{x_label:>10}")?;
    for p in &policies {
        write!(out, " {p:>16}")?;
    }
    writeln!(out)?;
    for &x in &xs {
        write!(out, "{x:>10}")?;
        for p in &policies {
            let v = rows
                .iter()
                .find(|r| r.policy == *p && (r.x - x).abs() < 1e-9)
                .map(|r| r.energy_j);
            match v {
                Some(e) => write!(out, " {e:>15.1}J")?,
                None => write!(out, " {:>16}", "-")?,
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Write the same data as CSV (`policy,x,energy_j,time_s`).
pub fn write_csv(out: &mut impl Write, rows: &[Row]) -> fmt::Result {
    writeln!(out, "policy,x,energy_j,time_s")?;
    for r in rows {
        writeln!(
            out,
            "{},{},{:.3},{:.3}",
            r.policy, r.x, r.energy_j, r.time_s
        )?;
    }
    Ok(())
}

/// The standard four-policy lineup of Figs. 1–3.
pub fn standard_policies(scenario: &Scenario) -> Vec<PolicyKind> {
    vec![
        PolicyKind::flexfetch(scenario.profile.clone()),
        PolicyKind::BlueFs,
        PolicyKind::DiskOnly,
        PolicyKind::WnicOnly,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_trace::Workload;

    #[test]
    fn sweep_covers_every_policy_and_point() {
        let mut s = Scenario::grep_make(1).unwrap();
        // Shrink the workload so the test is quick.
        s.trace = ff_trace::Grep {
            files: 30,
            total_bytes: 1_500_000,
            ..Default::default()
        }
        .build(2);
        s.profile = ff_profile::Profiler::standard().profile(
            &ff_trace::Grep {
                files: 30,
                total_bytes: 1_500_000,
                ..Default::default()
            }
            .build(3),
        );
        let policies = [PolicyKind::DiskOnly, PolicyKind::WnicOnly];
        let rows = latency_sweep(&s, &policies, &[0, 10], 0).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.energy_j > 0.0));
        let rows = bandwidth_sweep(&s, &policies, &[1.0, 11.0], 0).unwrap();
        assert_eq!(rows.len(), 4);
        // WNIC-only at 1 Mbps must cost more than at 11 Mbps.
        let w1 = rows
            .iter()
            .find(|r| r.policy == "WNIC-only" && r.x == 1.0)
            .unwrap();
        let w11 = rows
            .iter()
            .find(|r| r.policy == "WNIC-only" && r.x == 11.0)
            .unwrap();
        assert!(w1.energy_j > w11.energy_j);
    }

    #[test]
    fn rows_are_identical_at_any_job_count() {
        let mut s = Scenario::grep_make(1).unwrap();
        s.trace = ff_trace::Grep {
            files: 30,
            total_bytes: 1_500_000,
            ..Default::default()
        }
        .build(2);
        let policies = [PolicyKind::DiskOnly, PolicyKind::WnicOnly];
        let serial = latency_sweep(&s, &policies, &[0, 5, 10], 1).unwrap();
        for jobs in [2, 4, 8] {
            let par = latency_sweep(&s, &policies, &[0, 5, 10], jobs).unwrap();
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }
}
