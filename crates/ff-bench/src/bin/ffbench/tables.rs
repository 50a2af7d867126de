//! The paper's tables and the workload and device characterisations:
//! `tables`, `trace_stats`, `spindown` and `powertrace`.

use crate::{Args, Result, Sink, Usage};
use ff_base::Dur;
use ff_bench::Scenario;
use ff_device::spindown::{fixed_timeout_energy, idle_periods, oracle_energy, ShareSpindown};
use ff_device::{DiskParams, PowerEvent, WnicParams};
use ff_policy::PolicyKind;
use ff_sim::{SimConfig, Simulation};
use ff_trace::{analyze, Acroread, Grep, Make, Mplayer, Thunderbird, Trace, Workload, Xmms};
use std::fmt::{self, Display, Write};

/// xmms capped at ten minutes of play, so its statistics are not all
/// one long stream.
fn xmms_10min() -> Trace {
    Xmms {
        play_limit: Some(Dur::from_secs(600)),
        ..Default::default()
    }
    .build(42)
}

/// One `name value` line of Tables 1–2.
fn row(o: &mut Sink, name: &str, value: impl Display) -> fmt::Result {
    writeln!(o, "{name:<28} {value}")
}

/// `tables`: Tables 1–3 — the device constants actually configured in
/// the models, and the Table 3 inventory measured from the generated
/// workloads.
pub fn tables(_: &Args, o: &mut Sink) -> Result {
    let d = DiskParams::hitachi_dk23da();
    writeln!(o, "== Table 1: Hitachi DK23DA hard disk ==")?;
    row(o, "Active Power", d.active_power)?;
    row(o, "Idle Power", d.idle_power)?;
    row(o, "Standby Power", d.standby_power)?;
    row(o, "Spin up Energy", d.spinup_energy)?;
    row(o, "Spin down Energy", d.spindown_energy)?;
    row(o, "Spin up Time", d.spinup_time)?;
    row(o, "Spin down Time", d.spindown_time)?;
    row(o, "Timeout (laptop mode)", d.timeout)?;
    let seek = format!("{} / {}", d.seek, d.rotation);
    row(o, "Avg seek / rotation", seek)?;
    row(o, "Peak bandwidth", d.bandwidth)?;
    row(o, "Break-even time", d.break_even())?;

    let w = WnicParams::cisco_aironet350();
    writeln!(o, "\n== Table 2: Cisco Aironet 350 WNIC ==")?;
    let psm = format!("{} / {} / {}", w.psm_idle, w.psm_recv, w.psm_send);
    row(o, "PSM (idle/recv/send)", psm)?;
    let cam = format!("{} / {} / {}", w.cam_idle, w.cam_recv, w.cam_send);
    row(o, "CAM (idle/recv/send)", cam)?;
    let to_psm = format!("{} / {}", w.to_psm_time, w.to_psm_energy);
    row(o, "CAM to PSM (delay/energy)", to_psm)?;
    let to_cam = format!("{} / {}", w.to_cam_time, w.to_cam_energy);
    row(o, "PSM to CAM (delay/energy)", to_cam)?;
    row(o, "PSM timeout", w.psm_timeout)?;
    row(o, "Bandwidth", w.bandwidth)?;

    writeln!(o, "\n== Table 3: trace inventory (generated, seed 42) ==")?;
    o.write_str("Name             # File   Size(MB)    records requested MB\n")?;
    for t in [
        Thunderbird::default().build(42),
        Make::default().build(42),
        Grep::default().build(42),
        Xmms::default().build(42),
        Mplayer::default().build(42),
        Acroread::large_search().build(42),
    ] {
        let s = t.stats();
        let (mb, req) = (
            s.footprint.get() as f64 / 1e6,
            s.requested.get() as f64 / 1e6,
        );
        let (name, files, n) = (&t.name, s.files, s.records);
        writeln!(o, "{name:<14} {files:>8} {mb:>10.1} {n:>10} {req:>12.1}")?;
    }
    Ok(())
}

/// `trace_stats`: burstiness, think times, sequentiality, request sizes
/// and access skew of every Table 3 workload — the statistics §1.2/§2.1
/// argue make program I/O predictable.
pub fn trace_stats(_: &Args, o: &mut Sink) -> Result {
    let workloads = [
        ("grep", Grep::default().build(42)),
        ("make", Make::default().build(42)),
        ("xmms", xmms_10min()),
        ("mplayer", Mplayer::default().build(42)),
        ("thunderbird", Thunderbird::default().build(42)),
        ("acroread", Acroread::large_search().build(42)),
    ];
    o.write_str(
        "workload         calls  bursty%    seq%     read%  think p50  think p90  avg req   top10%\n",
    )?;
    for (name, trace) in &workloads {
        let a = analyze(trace);
        let think = a.think_times.ok_or("empty trace")?;
        let (p50, p90) = (think.p50.to_string(), think.p90.to_string());
        let (calls, req) = (trace.len(), a.mean_request.to_string());
        let (bursty, seq) = (a.burstiness * 100.0, a.sequentiality * 100.0);
        let (read, top) = (a.read_fraction * 100.0, a.top_decile_share * 100.0);
        writeln!(
            o,
            "{name:<13} {calls:>8} {bursty:>7.1}% {seq:>6.1}% {read:>8.1}% {p50:>10} {p90:>10} {req:>8} {top:>7.1}%"
        )?;
    }
    o.write_str("\nbursty% = inter-call gaps under the 20 ms burst threshold\n")?;
    o.write_str("seq%    = requests sequentially extending the previous one on the same file\n")?;
    o.write_str("top10%  = share of bytes in the hottest decile of files\n")?;
    Ok(())
}

/// `spindown`: the §4 spin-down timeout study — fixed timeouts vs the
/// break-even point vs the Helmbold-style adaptive share algorithm vs
/// the offline oracle, on idle periods of the Table 3 workloads. The
/// break-even timeout must stay within 2× of the oracle on every stream.
pub fn spindown(_: &Args, o: &mut Sink) -> Result {
    let params = DiskParams::hitachi_dk23da();
    let be = params.break_even();
    writeln!(o, "Hitachi DK23DA break-even time: {be}\n")?;
    o.write_str(
        "workload        periods       t=1s    t=break      t=20s   adaptive     oracle be/oracle\n",
    )?;
    let workloads = [
        ("make", Make::default().build(42)),
        ("xmms", xmms_10min()),
        ("mplayer", Mplayer::default().build(42)),
        ("thunderbird", Thunderbird::default().build(42)),
        ("acroread", Acroread::large_search().build(42)),
        ("acroread-25s", Acroread::small_profile().build(42)),
    ];
    for (name, trace) in &workloads {
        let idles: Vec<Dur> = idle_periods(trace.records.iter().map(|r| (r.ts, r.end())))
            .into_iter()
            .filter(|d| *d >= Dur::from_millis(20)) // burst-internal gaps are not idle
            .collect();
        let fixed = |t: Dur| fixed_timeout_energy(&params, &idles, t).get();
        let (t1, t20, tbe) = (
            fixed(Dur::from_secs(1)),
            fixed(Dur::from_secs(20)),
            fixed(be),
        );
        let adaptive = ShareSpindown::for_disk(params.clone()).run(&idles).get();
        let oracle = oracle_energy(&params, &idles).get();
        let (periods, ratio) = (idles.len(), tbe / oracle.max(1e-9));
        writeln!(
            o,
            "{name:<14} {periods:>8} {t1:>9.1}J {tbe:>9.1}J {t20:>9.1}J {adaptive:>9.1}J {oracle:>9.1}J {ratio:>8.2}x"
        )?;
        if tbe > 2.0 * oracle + 1e-6 {
            return Err(format!("2-competitiveness violated on {name}").into());
        }
    }
    o.write_str("\n(assertion checked: break-even timeout ≤ 2 × oracle on every stream)\n")?;
    Ok(())
}

/// `powertrace [flexfetch|bluefs|disk|wnic]`: the chronological power
/// trace of one mplayer run (the most visibly alternating workload) as
/// CSV, `t_start_s,t_end_s,device,state,watts_or_joules`, for gnuplot.
pub fn powertrace(args: &Args, o: &mut Sink) -> Result {
    let s = Scenario::mplayer(42)?;
    let kind = match args.policy.as_deref().unwrap_or("flexfetch") {
        "flexfetch" => PolicyKind::flexfetch(s.profile.clone()),
        "bluefs" => PolicyKind::BlueFs,
        "disk" => PolicyKind::DiskOnly,
        "wnic" => PolicyKind::WnicOnly,
        other => return Err(Usage(format!("unknown policy {other}")).into()),
    };
    let mut cfg = s.configure(SimConfig::default());
    cfg.record_power_log = true;
    let report = Simulation::new(cfg, &s.trace).policy(kind).run()?;
    writeln!(o.err, "# {}", report.summary())?;
    writeln!(o, "t_start_s,t_end_s,device,state,watts_or_joules")?;
    for (device, meter) in [("disk", &report.disk_meter), ("wnic", &report.wnic_meter)] {
        let mut t = 0.0f64;
        for e in meter.power_log().ok_or("power log not recorded")? {
            match e {
                PowerEvent::Dwell { state, power, dur } => {
                    let end = t + dur.as_secs_f64();
                    writeln!(o, "{t:.6},{end:.6},{device},{state},{:.3}", power.get())?;
                    t = end;
                }
                PowerEvent::Transition { name, energy } => {
                    writeln!(o, "{t:.6},{t:.6},{device},{name},{:.3}", energy.get())?;
                }
            }
        }
    }
    Ok(())
}
