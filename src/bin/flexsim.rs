//! `flexsim` — command-line driver for the FlexFetch simulation stack.
//!
//! ```text
//! flexsim [--workload NAME] [--policy NAME] [--seed N]
//!         [--latency-ms N] [--bandwidth-mbps F]
//!         [--loss-rate F] [--stage-secs N] [--sync-writes]
//!         [--hoard-budget-mb N] [--decisions] [--breakdown]
//!         [--save-trace PATH] [--save-profile PATH]
//!
//! workloads: grep | make | xmms | mplayer | thunderbird | acroread
//!            | grep+make | grep+make+xmms
//! policies:  flexfetch | flexfetch-static | bluefs | disk | wnic | all
//! ```

use flexfetch::base::{prior_run_seed, Bytes, Dur, Error};
use flexfetch::policy::FlexFetchConfig;
use flexfetch::prelude::*;
use flexfetch::profile::HoardPlanner;
use flexfetch::trace::{strace, FileId};
use std::process::exit;

struct Args {
    workload: String,
    policy: String,
    seed: u64,
    latency_ms: u64,
    latency: Dur,
    bandwidth_mbps: f64,
    loss_rate: f64,
    stage_secs: u64,
    stage_len: Dur,
    sync_writes: bool,
    hoard_budget: Option<Bytes>,
    decisions: bool,
    breakdown: bool,
    save_trace: Option<String>,
    save_profile: Option<String>,
    report: Option<String>,
}

fn usage() -> ! {
    eprint!("{}", USAGE);
    exit(2)
}

/// Report a failed run (I/O, workload assembly, simulation) and exit 1.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{what}: {e}");
    exit(1)
}

const USAGE: &str = "\
flexsim — trace-driven FlexFetch simulation (ICPP'07 reproduction)

USAGE:
  flexsim [--workload NAME] [--policy NAME] [options]

OPTIONS:
  --workload NAME       grep | make | xmms | mplayer | thunderbird |
                        acroread | grep+make | grep+make+xmms  [grep+make]
  --policy NAME         flexfetch | flexfetch-static | bluefs | disk |
                        wnic | all                             [all]
  --seed N              workload generation seed               [42]
  --latency-ms N        WNIC round-trip latency                [1]
  --bandwidth-mbps F    802.11b link rate (1|2|5.5|11)         [11]
  --loss-rate F         max tolerable I/O slowdown, 0..1       [0.25]
  --stage-secs N        evaluation-stage length                [40]
  --sync-writes         mirror write-back to the server
  --hoard-budget-mb N   hoard only the hottest N MB locally
  --decisions           print the FlexFetch decision timeline
  --breakdown           print per-state device energy
  --save-trace PATH     dump the generated trace (strace text)
  --save-profile PATH   dump the prior-run profile (JSON)
  --report PATH         write a Markdown run report
  -h, --help            this text
";

fn parse_args() -> Args {
    let mut args = Args {
        workload: "grep+make".into(),
        policy: "all".into(),
        seed: 42,
        latency_ms: 1,
        latency: Dur::from_millis(1),
        bandwidth_mbps: 11.0,
        loss_rate: 0.25,
        stage_secs: 40,
        stage_len: Dur::from_secs(40),
        sync_writes: false,
        hoard_budget: None,
        decisions: false,
        breakdown: false,
        save_trace: None,
        save_profile: None,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = val("--workload"),
            "--policy" => args.policy = val("--policy"),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--latency-ms" => {
                args.latency_ms = val("--latency-ms").parse().unwrap_or_else(|_| usage());
                args.latency = micros("--latency-ms", args.latency_ms, 1_000);
            }
            "--bandwidth-mbps" => {
                args.bandwidth_mbps = val("--bandwidth-mbps").parse().unwrap_or_else(|_| usage())
            }
            "--loss-rate" => {
                let rate: f64 = val("--loss-rate").parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&rate) {
                    eprintln!("--loss-rate must lie in 0..1, got {rate}");
                    usage()
                }
                args.loss_rate = rate;
            }
            "--stage-secs" => {
                args.stage_secs = val("--stage-secs").parse().unwrap_or_else(|_| usage());
                args.stage_len = micros("--stage-secs", args.stage_secs, 1_000_000);
            }
            "--hoard-budget-mb" => {
                let mb: u64 = val("--hoard-budget-mb").parse().unwrap_or_else(|_| usage());
                let bytes = mb.checked_mul(1_000_000).unwrap_or_else(|| {
                    eprintln!("--hoard-budget-mb {mb} overflows a byte count");
                    usage()
                });
                args.hoard_budget = Some(Bytes(bytes));
            }
            "--sync-writes" => args.sync_writes = true,
            "--decisions" => args.decisions = true,
            "--breakdown" => args.breakdown = true,
            "--save-trace" => args.save_trace = Some(val("--save-trace")),
            "--save-profile" => args.save_profile = Some(val("--save-profile")),
            "--report" => args.report = Some(val("--report")),
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0)
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// `n` units of `micros_per` µs each as a [`Dur`]; a span that
/// overflows the microsecond clock is a usage error (exit 2).
fn micros(flag: &str, n: u64, micros_per: u64) -> Dur {
    n.checked_mul(micros_per)
        .map(Dur::from_micros)
        .unwrap_or_else(|| {
            eprintln!("{flag} {n} overflows the microsecond clock");
            usage()
        })
}

/// Build `(replayed trace, prior-run profile, disk-pinned files)`.
fn build_workload(name: &str, seed: u64) -> Result<(Trace, Profile, Vec<FileId>), Error> {
    let profiler = Profiler::standard();
    let prior = prior_run_seed(seed);
    let single = |w: &dyn Workload| {
        let trace = w.build(seed);
        let profile = profiler.profile(&w.build(prior));
        Ok((trace, profile, Vec::new()))
    };
    let grep_make = |s: u64| {
        Grep::default()
            .build(s)
            .concat(&Make::default().build(s), Dur::from_secs(2))
    };
    match name {
        "grep" => single(&Grep::default()),
        "make" => single(&Make::default()),
        "xmms" => single(&Xmms::default()),
        "mplayer" => single(&Mplayer::default()),
        "thunderbird" => single(&Thunderbird::default()),
        "acroread" => {
            // The paper's §3.3.5 setup: stale small-file profile.
            let trace = Acroread::large_search().build(seed);
            let profile = profiler.profile(&Acroread::small_profile().build(prior));
            Ok((trace, profile, Vec::new()))
        }
        "grep+make" => Ok((
            grep_make(seed)?,
            profiler.profile(&grep_make(prior)?),
            Vec::new(),
        )),
        "grep+make+xmms" => {
            let gm = grep_make(seed)?;
            let span = gm.stats().span + Dur::from_secs(30);
            let xmms = Xmms {
                play_limit: Some(span),
                ..Default::default()
            }
            .build(seed);
            let pinned = xmms.files.iter().map(|f| f.id).collect();
            let profile = profiler.profile(&grep_make(prior)?);
            Ok((gm.merge(&xmms)?, profile, pinned))
        }
        other => {
            eprintln!("unknown workload {other}");
            usage()
        }
    }
}

fn policies(name: &str, profile: &Profile, loss: f64) -> Vec<PolicyKind> {
    let ff_cfg = FlexFetchConfig {
        loss_rate: loss,
        ..Default::default()
    };
    let ff = PolicyKind::FlexFetch {
        profile: profile.clone(),
        config: ff_cfg.clone(),
    };
    let ff_static = PolicyKind::FlexFetch {
        profile: profile.clone(),
        config: FlexFetchConfig {
            adaptive: false,
            ..ff_cfg
        },
    };
    match name {
        "flexfetch" => vec![ff],
        "flexfetch-static" => vec![ff_static],
        "bluefs" => vec![PolicyKind::BlueFs],
        "disk" => vec![PolicyKind::DiskOnly],
        "wnic" => vec![PolicyKind::WnicOnly],
        "all" => vec![
            ff,
            ff_static,
            PolicyKind::BlueFs,
            PolicyKind::DiskOnly,
            PolicyKind::WnicOnly,
        ],
        other => {
            eprintln!("unknown policy {other}");
            usage()
        }
    }
}

/// Render one policy's results as a Markdown section.
fn report_section(report: &ff_sim::SimReport) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## {}
",
        report.policy
    );
    let _ = writeln!(
        md,
        "| total energy | disk | wnic | flash | exec time | cache hit |
         |---|---|---|---|---|---|
         | **{}** | {} | {} | {} | {:.1} s | {:.1} % |
",
        report.total_energy(),
        report.disk_energy,
        report.wnic_energy,
        report.flash_energy,
        report.exec_time.as_secs_f64(),
        report.hit_ratio() * 100.0
    );
    let _ = writeln!(
        md,
        "### Device state residency
"
    );
    let _ = writeln!(
        md,
        "| device | state | time | energy |
|---|---|---|---|"
    );
    for (s, d, e) in report.disk_meter.residencies() {
        let _ = writeln!(md, "| disk | {s} | {d} | {e} |");
    }
    for (s, n, e) in report.disk_meter.transitions() {
        let _ = writeln!(md, "| disk | {s} | ×{n} | {e} |");
    }
    for (s, d, e) in report.wnic_meter.residencies() {
        let _ = writeln!(md, "| wnic | {s} | {d} | {e} |");
    }
    for (s, n, e) in report.wnic_meter.transitions() {
        let _ = writeln!(md, "| wnic | {s} | ×{n} | {e} |");
    }
    md.push('\n');
    if !report.decisions.is_empty() {
        let _ = writeln!(
            md,
            "### Decision timeline
"
        );
        for (t, s, why) in &report.decisions {
            let _ = writeln!(md, "* `{t}` → **{}** ({why})", s.label());
        }
        md.push('\n');
    }
    if !report.stage_summaries.is_empty() {
        let _ = writeln!(
            md,
            "### Evaluation stages
"
        );
        let _ = writeln!(
            md,
            "| # | window | disk | wnic | mean power | fetched |
|---|---|---|---|---|---|"
        );
        for s in &report.stage_summaries {
            let _ = writeln!(
                md,
                "| {} | {:.0}–{:.0} s | {} | {} | {:.2} W | {} |",
                s.index,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.disk_energy,
                s.wnic_energy,
                s.mean_power_w(),
                s.fetched
            );
        }
        md.push('\n');
    }
    md
}

fn main() {
    let args = parse_args();
    let (trace, profile, pinned) =
        build_workload(&args.workload, args.seed).unwrap_or_else(|e| fail("workload", e));

    let mut cfg = SimConfig::default()
        .with_wnic_latency(args.latency)
        .with_wnic_bandwidth_mbps(args.bandwidth_mbps)
        .with_disk_only_files(pinned);
    cfg.stage_len = args.stage_len;
    if args.sync_writes {
        cfg = cfg.with_sync_writes();
    }
    let hoard = args
        .hoard_budget
        .map(|budget| HoardPlanner::new(budget).plan(&profile, &trace.files));
    if let Some(plan) = &hoard {
        cfg = cfg.with_network_only_files(plan.missed.iter().copied());
    }
    // A rejected configuration prints nothing to stdout and writes no file.
    cfg.validate().unwrap_or_else(|e| fail("flexsim", e));

    if let Some(path) = &args.save_trace {
        std::fs::write(path, strace::to_string(&trace))
            .unwrap_or_else(|e| fail(&format!("write {path}"), e));
        println!("trace -> {path}");
    }
    if let Some(path) = &args.save_profile {
        profile
            .save(path)
            .unwrap_or_else(|e| fail(&format!("write {path}"), e));
        println!("profile -> {path}");
    }
    if let Some(plan) = &hoard {
        println!(
            "hoard: {} files / {} local, {} server-only",
            plan.hoarded.len(),
            plan.hoarded_bytes,
            plan.missed.len()
        );
    }

    let stats = trace.stats();
    println!(
        "workload {} (seed {}): {} files, {:.1} MB, {} syscalls, span {:.0}s",
        args.workload,
        args.seed,
        stats.files,
        stats.footprint.as_mib_f64(),
        stats.records,
        stats.span.as_secs_f64()
    );
    println!(
        "wnic: {} Mbps, {} ms latency; stage {}s; loss rate {}\n",
        args.bandwidth_mbps, args.latency_ms, args.stage_secs, args.loss_rate
    );

    let mut md = format!(
        "# flexsim report — {} (seed {})\n\nWNIC {} Mbps / {} ms latency; stage {} s; loss rate {}.\n\n",
        args.workload, args.seed, args.bandwidth_mbps, args.latency_ms, args.stage_secs, args.loss_rate
    );
    for kind in policies(&args.policy, &profile, args.loss_rate) {
        let report = Simulation::new(cfg.clone(), &trace)
            .policy(kind)
            .run()
            .unwrap_or_else(|e| fail("simulation failed", e));
        println!("{}", report.summary());
        if args.report.is_some() {
            md.push_str(&report_section(&report));
        }
        if args.breakdown {
            for (state, d, e) in report.disk_meter.residencies() {
                println!("    disk/{state:<14} {d:>12} {e:>10}");
            }
            for (name, n, e) in report.disk_meter.transitions() {
                println!("    disk/{name:<14} {n:>11}x {e:>10}");
            }
            for (state, d, e) in report.wnic_meter.residencies() {
                println!("    wnic/{state:<14} {d:>12} {e:>10}");
            }
            for (name, n, e) in report.wnic_meter.transitions() {
                println!("    wnic/{name:<14} {n:>11}x {e:>10}");
            }
        }
        if args.decisions && !report.decisions.is_empty() {
            println!("    decisions:");
            for (t, s, why) in &report.decisions {
                println!("      {t} -> {} ({why})", s.label());
            }
        }
    }
    if let Some(path) = &args.report {
        std::fs::write(path, md).unwrap_or_else(|e| fail(&format!("write {path}"), e));
        println!("\nreport -> {path}");
    }
}
