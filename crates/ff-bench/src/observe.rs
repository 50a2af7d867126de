//! One observed run: workload × policy → event log + summary.
//!
//! Backs the `observe` binary (JSONL + summary export) and the
//! `benchsim` wall-clock runner. Everything here is deterministic for a
//! fixed `(workload, policy, seed)` triple: the same run serialises
//! byte-identically, which the golden-trace tests rely on.

use ff_base::json::Value;
use ff_base::{prior_run_seed, Error, Result};
use ff_policy::PolicyKind;
use ff_profile::Profiler;
use ff_sim::{EventLog, Recorder, SimConfig, SimReport, Simulation};
use ff_trace::{Acroread, Grep, Make, Mplayer, Thunderbird, Trace, Workload, Xmms};

/// The six Table-3 workload names accepted by [`build_workload`].
pub const WORKLOADS: [&str; 6] = ["grep", "make", "mplayer", "thunderbird", "xmms", "acroread"];

/// The five policy names accepted by [`build_policy`].
pub const POLICIES: [&str; 5] = ["disk", "wnic", "bluefs", "flexfetch", "flexfetch-static"];

/// Build one of the Table 3 workload traces by name.
///
/// ```
/// let t = ff_bench::observe::build_workload("grep", 42).unwrap();
/// assert_eq!(t.name, "grep");
/// assert!(ff_bench::observe::build_workload("nethack", 42).is_err());
/// ```
pub fn build_workload(name: &str, seed: u64) -> Result<Trace> {
    match name {
        "grep" => Ok(Grep::default().build(seed)),
        "make" => Ok(Make::default().build(seed)),
        "mplayer" => Ok(Mplayer::default().build(seed)),
        "thunderbird" => Ok(Thunderbird::default().build(seed)),
        "xmms" => Ok(Xmms::default().build(seed)),
        "acroread" => Ok(Acroread::large_search().build(seed)),
        other => Err(Error::Config(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        ))),
    }
}

/// Build a policy recipe by name. The FlexFetch variants need a
/// recorded prior-run profile, which this derives from a *different*
/// execution of the same workload ([`prior_run_seed`]), exactly as the §3.3
/// scenarios do.
///
/// ```
/// let p = ff_bench::observe::build_policy("flexfetch", "grep", 42).unwrap();
/// assert_eq!(p.label(), "FlexFetch");
/// assert!(ff_bench::observe::build_policy("psychic", "grep", 42).is_err());
/// ```
pub fn build_policy(name: &str, workload: &str, seed: u64) -> Result<PolicyKind> {
    match name {
        "disk" => Ok(PolicyKind::DiskOnly),
        "wnic" => Ok(PolicyKind::WnicOnly),
        "bluefs" => Ok(PolicyKind::BlueFs),
        "flexfetch" | "flexfetch-static" => {
            let profile =
                Profiler::standard().profile(&build_workload(workload, prior_run_seed(seed))?);
            Ok(if name == "flexfetch" {
                PolicyKind::flexfetch(profile)
            } else {
                PolicyKind::flexfetch_static(profile)
            })
        }
        other => Err(Error::Config(format!(
            "unknown policy '{other}' (expected one of {})",
            POLICIES.join(", ")
        ))),
    }
}

/// Result of one fully-observed run: the report plus the event log.
pub struct ObservedRun {
    /// The simulation's end-of-run report.
    pub report: SimReport,
    /// Every event the run emitted.
    pub log: EventLog,
}

/// Replay `workload` under `policy` with an [`EventLog`] attached.
///
/// ```
/// let run = ff_bench::observe::observe_run("grep", "disk", 42).unwrap();
/// assert!(run.report.total_energy().get() > 0.0);
/// assert_eq!(run.log.count("app_call"), run.report.app_requests);
/// ```
pub fn observe_run(workload: &str, policy: &str, seed: u64) -> Result<ObservedRun> {
    let trace = build_workload(workload, seed)?;
    let kind = build_policy(policy, workload, seed)?;
    let mut log = EventLog::new();
    let report = Simulation::new(SimConfig::default(), &trace)
        .policy(kind)
        .run_recorded(&mut log)?;
    Ok(ObservedRun { report, log })
}

/// Replay `workload` under `policy` streaming into an arbitrary
/// recorder (the `benchsim` runner passes a
/// [`ff_sim::CountingRecorder`] to measure event throughput without
/// event storage).
pub fn recorded_run(
    workload: &str,
    policy: &str,
    seed: u64,
    recorder: &mut dyn Recorder,
) -> Result<SimReport> {
    let trace = build_workload(workload, seed)?;
    let kind = build_policy(policy, workload, seed)?;
    Simulation::new(SimConfig::default(), &trace)
        .policy(kind)
        .run_recorded(recorder)
}

/// The run's summary document: identity, headline report numbers, and
/// per-kind event totals. Deterministic field order; serialise with
/// [`Value::to_pretty`] or [`Value::to_compact`].
///
/// ```
/// let run = ff_bench::observe::observe_run("grep", "disk", 42).unwrap();
/// let s = ff_bench::observe::summary_json(&run, "grep", "disk", 42);
/// assert_eq!(s.get("workload").and_then(|v| v.as_str()), Some("grep"));
/// let events = s.get("events").unwrap();
/// assert!(events.get("total").and_then(|v| v.as_u64()).unwrap() > 0);
/// ```
pub fn summary_json(run: &ObservedRun, workload: &str, policy: &str, seed: u64) -> Value {
    let r = &run.report;
    let cs = r.cache_stats;
    let report = Value::Object(vec![
        ("policy".into(), Value::Str(r.policy.clone())),
        ("exec_time_us".into(), Value::UInt(r.exec_time.as_micros())),
        ("disk_j".into(), Value::Float(r.disk_energy.get())),
        ("wnic_j".into(), Value::Float(r.wnic_energy.get())),
        ("flash_j".into(), Value::Float(r.flash_energy.get())),
        ("total_j".into(), Value::Float(r.total_energy().get())),
        ("app_requests".into(), Value::UInt(r.app_requests)),
        ("disk_requests".into(), Value::UInt(r.disk_requests)),
        ("wnic_requests".into(), Value::UInt(r.wnic_requests)),
        ("disk_bytes".into(), Value::UInt(r.disk_bytes.get())),
        ("wnic_bytes".into(), Value::UInt(r.wnic_bytes.get())),
        ("cache_hits".into(), Value::UInt(cs.hits)),
        ("cache_misses".into(), Value::UInt(cs.misses)),
        ("readahead_pages".into(), Value::UInt(cs.readahead_pages)),
        ("flushes".into(), Value::UInt(cs.flushes)),
        ("flushed_pages".into(), Value::UInt(cs.flushed_pages)),
        ("stages".into(), Value::UInt(r.stages as u64)),
        ("decisions".into(), Value::UInt(r.decisions.len() as u64)),
    ]);
    let by_kind = Value::Object(
        run.log
            .counts()
            .into_iter()
            .map(|(k, n)| (k.to_string(), Value::UInt(n)))
            .collect(),
    );
    let events = Value::Object(vec![
        ("total".into(), Value::UInt(run.log.len() as u64)),
        ("by_kind".into(), by_kind),
    ]);
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("policy".into(), Value::Str(policy.into())),
        ("seed".into(), Value::UInt(seed)),
        ("report".into(), report),
        ("events".into(), events),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_and_policy_name_resolves() {
        for w in WORKLOADS {
            assert!(build_workload(w, 1).is_ok(), "workload {w}");
        }
        for p in POLICIES {
            assert!(build_policy(p, "grep", 1).is_ok(), "policy {p}");
        }
    }

    #[test]
    fn observed_run_is_byte_deterministic() {
        let a = observe_run("grep", "flexfetch", 42).unwrap();
        let b = observe_run("grep", "flexfetch", 42).unwrap();
        assert_eq!(a.log.to_jsonl(), b.log.to_jsonl());
        assert_eq!(
            summary_json(&a, "grep", "flexfetch", 42).to_pretty(),
            summary_json(&b, "grep", "flexfetch", 42).to_pretty()
        );
    }

    #[test]
    fn summary_parses_and_counts_match_log() {
        let run = observe_run("xmms", "wnic", 7).unwrap();
        let s = summary_json(&run, "xmms", "wnic", 7);
        let reparsed = Value::parse(&s.to_pretty()).unwrap();
        assert_eq!(reparsed, s);
        let total = s
            .get("events")
            .and_then(|e| e.get("total"))
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(total, run.log.len() as u64);
    }
}
