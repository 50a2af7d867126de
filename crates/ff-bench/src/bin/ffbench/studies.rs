//! Studies beyond the paper's figures: `ablation`, `extensions`,
//! `evolution`, `design_space`, `regret` and `robustness`.

use crate::{Args, Result, Sink};
use ff_base::{Bytes, Dist, Dur, Joules};
use ff_bench::Scenario;
use ff_cache::CacheConfig;
use ff_policy::{BlueFs, FlexFetch, FlexFetchConfig, Oracle, Policy, PolicyKind};
use ff_profile::{BurstExtractor, HoardPlanner, Profile, Profiler};
use ff_sim::{FaultPlan, SimConfig, SimReport, Simulation};
use ff_trace::{AccessPattern, Acroread, DiskLayout, Grep, Make, Synthetic, Trace, Workload};
use std::fmt::{self, Write};

fn run(cfg: SimConfig, trace: &Trace, kind: PolicyKind) -> ff_base::Result<SimReport> {
    Simulation::new(cfg, trace).policy(kind).run()
}

fn run_boxed(cfg: SimConfig, trace: &Trace, policy: Box<dyn Policy>) -> ff_base::Result<SimReport> {
    Simulation::new(cfg, trace).policy_boxed(policy).run()
}

/// Total energy in joules of one run.
fn energy(cfg: SimConfig, trace: &Trace, kind: PolicyKind) -> ff_base::Result<f64> {
    Ok(run(cfg, trace, kind)?.total_energy().get())
}

/// `*` on the default row of a sweep.
fn mark(default: bool) -> char {
    [' ', '*'][usize::from(default)]
}

/// Write each line followed by a newline.
fn lines(o: &mut Sink, text: &[&str]) -> fmt::Result {
    text.iter().try_for_each(|line| writeln!(o, "{line}"))
}

/// `ablation`: what do the paper's parameter choices (20 ms burst
/// threshold, 40 s stages, 25 % loss rate, 20 s disk timeout, 2Q +
/// 32-page readahead cache) buy? Each study sweeps one knob on the
/// grep+make scenario under FlexFetch (or, where noted, a baseline)
/// and holds everything else at the defaults.
pub fn ablation(_: &Args, o: &mut Sink) -> Result {
    let s = Scenario::grep_make(42)?;
    let boxed = |cfg: SimConfig, p: Box<dyn Policy>| run_boxed(s.configure(cfg), &s.trace, p);
    let kind = |cfg: SimConfig, k: PolicyKind| run(s.configure(cfg), &s.trace, k);
    let flexfetch = |cfg: SimConfig| kind(cfg, PolicyKind::flexfetch(s.profile.clone()));
    // FlexFetch's energy and time under a policy config.
    let tuned = |cfg: SimConfig, pcfg: FlexFetchConfig| -> ff_base::Result<(f64, f64)> {
        let r = boxed(cfg, Box::new(FlexFetch::new(s.profile.clone(), pcfg)))?;
        Ok((r.total_energy().get(), r.exec_time.as_secs_f64()))
    };
    let default = SimConfig::default;
    writeln!(o, "ablations on grep+make (seed 42); defaults marked *\n")?;

    writeln!(o, "== loss rate (§2.2 rule 3; default 0.25) ==")?;
    writeln!(o, "{:>10} {:>12} {:>10}", "loss", "energy", "time")?;
    for loss in [0.0, 0.10, 0.25, 0.50, 1.00] {
        let pcfg = FlexFetchConfig {
            loss_rate: loss,
            ..Default::default()
        };
        let (e, t) = tuned(default(), pcfg)?;
        let mark = mark((loss - 0.25).abs() < 1e-9);
        writeln!(o, "{loss:>9}{mark} {e:>11.1}J {t:>9.1}s")?;
    }

    writeln!(o, "\n== evaluation stage length (§2.2; default 40 s) ==")?;
    writeln!(o, "{:>10} {:>12} {:>10}", "stage", "energy", "time")?;
    for secs in [10u64, 20, 40, 80, 160] {
        let mut cfg = default();
        cfg.stage_len = Dur::from_secs(secs);
        let (e, t) = tuned(cfg, FlexFetchConfig::default())?;
        let (stage, mark) = (format!("{secs}s"), mark(secs == 40));
        writeln!(o, "{stage:>9}{mark} {e:>11.1}J {t:>9.1}s")?;
    }

    lines(
        o,
        &[
            "\n== burst threshold (§2.1; default 20 ms = disk access time) ==",
            "(the recorded profile is re-extracted with each threshold)",
            "    thresh       energy       time   bursts",
        ],
    )?;
    let prior = Grep::default()
        .build(43)
        .concat(&Make::default().build(43), Dur::from_secs(2))?;
    for ms in [2u64, 10, 20, 50, 200] {
        let extractor = BurstExtractor {
            threshold: Dur::from_millis(ms),
            ..Default::default()
        };
        let bursts = extractor.extract(&prior);
        let n = bursts.len();
        let profile = Profile {
            app: prior.name.clone(),
            bursts,
        };
        let pcfg = FlexFetchConfig {
            extractor,
            ..Default::default()
        };
        let r = boxed(default(), Box::new(FlexFetch::new(profile, pcfg)))?;
        let (e, t) = (r.total_energy().get(), r.exec_time.as_secs_f64());
        let (thresh, mark) = (format!("{ms}ms"), mark(ms == 20));
        writeln!(o, "{thresh:>9}{mark} {e:>11.1}J {t:>9.1}s {n:>8}")?;
    }

    writeln!(o, "\n== audit hysteresis margin (default 0.10) ==")?;
    writeln!(o, "{:>10} {:>12} {:>10}", "margin", "energy", "time")?;
    for m in [0.0, 0.05, 0.10, 0.30] {
        let pcfg = FlexFetchConfig {
            audit_margin: m,
            ..Default::default()
        };
        let (e, t) = tuned(default(), pcfg)?;
        let mark = mark((m - 0.10).abs() < 1e-9);
        writeln!(o, "{m:>9}{mark} {e:>11.1}J {t:>9.1}s")?;
    }

    o.write_str("\n== disk spin-down timeout (laptop-mode default 20 s) ==\n")?;
    writeln!(o, "   timeout    FlexFetch    Disk-only")?;
    for secs in [5u64, 10, 20, 40, 120] {
        let mut cfg = default();
        cfg.disk.timeout = Dur::from_secs(secs);
        let (e, _) = tuned(cfg.clone(), FlexFetchConfig::default())?;
        let disk = kind(cfg, PolicyKind::DiskOnly)?.total_energy().get();
        let (timeout, mark) = (format!("{secs}s"), mark(secs == 20));
        writeln!(o, "{timeout:>9}{mark} {e:>11.1}J {disk:>11.1}J")?;
    }

    o.write_str("\n== buffer-cache capacity (default 32768 pages = 128 MiB) ==\n")?;
    writeln!(o, "{:>10} {:>12} {:>8}", "pages", "energy", "hit%")?;
    for pages in [2048usize, 8192, 32_768, 131_072] {
        let mut cfg = default();
        cfg.cache.capacity_pages = pages;
        let r = flexfetch(cfg)?;
        let (e, hit, mark) = (
            r.total_energy().get(),
            r.hit_ratio() * 100.0,
            mark(pages == 32_768),
        );
        writeln!(o, "{pages:>9}{mark} {e:>11.1}J {hit:>7.1}%")?;
    }

    o.write_str("\n== readahead window (default 32 pages = 128 KiB; 0 = off) ==\n")?;
    writeln!(o, "     pages       energy  disk reqs  wnic reqs")?;
    for ra in [0u64, 8, 32, 128] {
        let cache = CacheConfig {
            readahead_max_pages: ra,
            ..CacheConfig::default()
        };
        let r = flexfetch(SimConfig { cache, ..default() })?;
        let (e, disk, wnic) = (r.total_energy().get(), r.disk_requests, r.wnic_requests);
        let mark = mark(ra == 32);
        writeln!(o, "{ra:>9}{mark} {e:>11.1}J {disk:>10} {wnic:>10}")?;
    }

    o.write_str("\n== BlueFS ghost-hint threshold (default 7.94 J = spin round trip) ==\n")?;
    writeln!(o, "{:>10} {:>12}", "threshold", "energy")?;
    for j in [2.0, 7.94, 20.0, 100.0] {
        let e = boxed(default(), Box::new(BlueFs::with_threshold(Joules(j))))?;
        let (e, mark) = (e.total_energy().get(), mark((j - 7.94).abs() < 1e-9));
        writeln!(o, "{j:>9}{mark} {e:>11.1}J")?;
    }

    o.write_str("\n== BlueFS adaptive spin-down (default: none / 20 s system timeout) ==\n")?;
    writeln!(o, "{:>10} {:>12}", "timeout", "energy")?;
    for secs in [2u64, 5, 20] {
        let policy = BlueFs::new().with_disk_timeout(Dur::from_secs(secs));
        let e = boxed(default(), Box::new(policy))?.total_energy().get();
        let (timeout, mark) = (format!("{secs}s"), mark(secs == 20));
        writeln!(o, "{timeout:>9}{mark} {e:>11.1}J")?;
    }

    o.write_str("\n== single-packet PSM service (Table 2 adaptive PM; default 1500 B) ==\n")?;
    writeln!(o, "{:>10} {:>12}", "psm pkt", "energy")?;
    for bytes in [0u64, 1500, 4096] {
        let mut cfg = default();
        cfg.wnic.psm_packet_bytes = bytes;
        let e = kind(cfg, PolicyKind::WnicOnly)?.total_energy().get();
        let mark = mark(bytes == 1500);
        writeln!(o, "{bytes:>9}{mark} {e:>11.1}J")?;
    }
    Ok(())
}

/// `extensions`: the paper's §5 future-work items and §2.3's changing
/// environment — partial hoarding, write synchronisation, a mid-run
/// bandwidth drop, a wireless outage, and a flash tier.
pub fn extensions(_: &Args, o: &mut Sink) -> Result {
    hoarding_budget(o)?;
    write_sync(o)?;
    mobility(o)?;
    outage(o)?;
    flash_tier(o)
}

/// The paper assumes the full working set is replicated locally. Here
/// the hoard budget shrinks: the history-driven [`HoardPlanner`] keeps
/// the hottest files on disk and everything else is WNIC-only,
/// squeezing FlexFetch's freedom of choice.
fn hoarding_budget(o: &mut Sink) -> Result {
    lines(
        o,
        &[
            "== extension: energy vs hoard budget (thunderbird, FlexFetch) ==",
            "(files that do not fit the budget are only reachable over the WNIC)",
            "    budget     bytes%      files    FlexFetch    WNIC-only    wnic MB",
        ],
    )?;
    let s = Scenario::thunderbird(42)?;
    let total = s.trace.files.total_size();
    for pct in [100u64, 75, 50, 25, 10, 0] {
        let budget = Bytes(total.get() * pct / 100);
        let plan = HoardPlanner::new(budget).plan(&s.profile, &s.trace.files);
        let cfg = || {
            s.configure(SimConfig::default())
                .with_network_only_files(plan.missed.iter().copied())
        };
        let ff = run(cfg(), &s.trace, PolicyKind::flexfetch(s.profile.clone()))?;
        let wnic = energy(cfg(), &s.trace, PolicyKind::WnicOnly)?;
        let bytes = plan.hoarded_bytes.get() as f64 / total.get() as f64 * 100.0;
        let (files, e, mb) = (
            plan.hoarded.len(),
            ff.total_energy().get(),
            ff.wnic_bytes.get(),
        );
        let mb = mb as f64 / 1e6;
        writeln!(
            o,
            "{pct:>9}% {bytes:>9.0}% {files:>10} {e:>11.1}J {wnic:>11.1}J {mb:>10.1}"
        )?;
    }
    o.write_str("(at 0% every scheme degenerates to WNIC-only behaviour)\n\n")?;
    Ok(())
}

/// The paper defers sync to the hoarding system. With `sync_writes`
/// every flushed dirty page is also uploaded to the server; the energy
/// overhead is measured on the write-heavy kernel build.
fn write_sync(o: &mut Sink) -> Result {
    o.write_str("== extension: write-synchronisation overhead (grep+make) ==\n")?;
    let s = Scenario::grep_make(42)?;
    writeln!(o, "      policy      no sync         sync     overhead")?;
    let flexfetch = PolicyKind::flexfetch(s.profile.clone());
    for kind in [flexfetch, PolicyKind::DiskOnly, PolicyKind::WnicOnly] {
        let plain = energy(s.configure(SimConfig::default()), &s.trace, kind.clone())?;
        let synced = SimConfig::default().with_sync_writes();
        let synced = energy(s.configure(synced), &s.trace, kind.clone())?;
        let (label, over) = (kind.label(), synced - plain);
        writeln!(
            o,
            "{label:>12} {plain:>11.1}J {synced:>11.1}J {over:>+11.1}J"
        )?;
    }
    o.write_str("(WNIC-writers pay nothing extra: their pages already go to the server)\n")?;
    Ok(())
}

/// §2.3's "wireless network bandwidth changes due to … change of device
/// location", made concrete: the link degrades 11 → 1 Mbps mid-run.
/// Adaptive FlexFetch re-evaluates and abandons the crawling link; the
/// static variant keeps trusting its profile.
fn mobility(o: &mut Sink) -> Result {
    let title = "mid-run bandwidth degradation (mplayer, 11->1 Mbps at t=120 s)";
    writeln!(o, "== extension: {title} ==")?;
    let s = Scenario::mplayer(42)?;
    writeln!(o, "{:>18} {:>12} {:>10}", "policy", "energy", "time")?;
    let flexfetch = PolicyKind::flexfetch(s.profile.clone());
    let flexfetch_static = PolicyKind::flexfetch_static(s.profile.clone());
    for kind in [
        flexfetch,
        flexfetch_static,
        PolicyKind::DiskOnly,
        PolicyKind::WnicOnly,
    ] {
        let step = FaultPlan::none().with_bandwidth_step(Dur::from_secs(120), 1.0);
        let cfg = s.configure(SimConfig::default()).with_faults(step);
        let r = run(cfg, &s.trace, kind)?;
        let (e, t) = (r.total_energy().get(), r.exec_time.as_secs_f64());
        writeln!(o, "{:>18} {e:>11.1}J {t:>9.1}s", r.policy)?;
    }
    writeln!(o)?;
    Ok(())
}

/// A 3-minute wireless outage in the middle of the kernel build.
/// Requests fail over to the disk; FlexFetch's stage-end audit sees the
/// measured disk traffic and keeps functioning.
fn outage(o: &mut Sink) -> Result {
    o.write_str("== extension: 180 s wireless outage during grep+make (t=300..480 s) ==\n")?;
    let s = Scenario::grep_make(42)?;
    writeln!(o, "            policy    no outage  with outage")?;
    let flexfetch = PolicyKind::flexfetch(s.profile.clone());
    for kind in [flexfetch, PolicyKind::WnicOnly, PolicyKind::DiskOnly] {
        let plain = energy(s.configure(SimConfig::default()), &s.trace, kind.clone())?;
        let outage =
            FaultPlan::none().with_silent_link_outage(Dur::from_secs(300), Dur::from_secs(180));
        let cfg = s.configure(SimConfig::default()).with_faults(outage);
        let out = energy(cfg, &s.trace, kind.clone())?;
        writeln!(o, "{:>18} {plain:>11.1}J {out:>11.1}J", kind.label())?;
    }
    o.write_str("(Disk-only is untouched; network-leaning schemes absorb a disk detour)\n")?;
    Ok(())
}

/// §4's SmartSaver, attached: a CompactFlash tier absorbs re-reads the
/// small RAM cache cannot hold and buffers writes for the sleeping
/// disk. Measured on a re-read-heavy session (grep twice) with a
/// deliberately small RAM cache.
fn flash_tier(o: &mut Sink) -> Result {
    writeln!(o, "== extension: flash tier (grep x2, 16 MiB RAM cache) ==")?;
    let twice = |seed: u64| {
        let one = Grep::default().build(seed);
        one.concat(&Grep::default().build(seed), Dur::from_secs(30))
    };
    let trace = twice(42)?;
    let profile = Profiler::standard().profile(&twice(43)?);
    writeln!(o, "     flash    FlexFetch    Disk-only    WNIC-only")?;
    for flash_mb in [0usize, 64, 256] {
        let mut cfg = SimConfig::default();
        cfg.cache.capacity_pages = 4096; // 16 MiB RAM
        if flash_mb > 0 {
            cfg = cfg.with_flash_mb(flash_mb);
        }
        let e = |kind| energy(cfg.clone(), &trace, kind);
        let ff = e(PolicyKind::flexfetch(profile.clone()))?;
        let (disk, wnic) = (e(PolicyKind::DiskOnly)?, e(PolicyKind::WnicOnly)?);
        writeln!(o, "{flash_mb:>7}MB {ff:>11.1}J {disk:>11.1}J {wnic:>11.1}J")?;
    }
    o.write_str("(the second grep pass is served from flash at ~mW instead of a device)\n")?;
    Ok(())
}

/// `evolution`: §2.3.1's "the new profile will be recorded to replace
/// the old profile for future use at the end of this run". From no
/// history, each run of the same program (fresh seed, same shape) is
/// driven by the profile the previous run recorded — how fast FlexFetch
/// converges to its informed steady state, and that stale profiles heal.
pub fn evolution(_: &Args, o: &mut Sink) -> Result {
    lines(
        o,
        &[
            "== profile evolution: grep+make, run after run ==",
            "(run 1 has no history; each run records the profile for the next)\n",
            "  run       energy       time   bursts",
        ],
    )?;
    let mut profile = Profile::empty("grep+make");
    let mut energies = Vec::new();
    for run_no in 1..=6u64 {
        let seed = 100 + run_no;
        let trace = Grep::default()
            .build(seed)
            .concat(&Make::default().build(seed), Dur::from_secs(2))?;
        let bursts = profile.len();
        let r = run(SimConfig::default(), &trace, PolicyKind::flexfetch(profile))?;
        let (e, t) = (r.total_energy().get(), r.exec_time.as_secs_f64());
        energies.push(e);
        writeln!(o, "{run_no:>5} {e:>11.1}J {t:>9.1}s {bursts:>8}")?;
        profile = r.recorded_profile.ok_or("FlexFetch records")?;
    }
    let first = energies[0];
    let steady: f64 = energies[1..].iter().sum::<f64>() / (energies.len() - 1) as f64;
    let gain = (steady - first) / first * 100.0;
    writeln!(
        o,
        "\nblind first run {first:.0} J -> informed steady state {steady:.0} J \
         ({gain:+.1}% from history)\n"
    )?;

    lines(
        o,
        &[
            "== stale-profile healing: Acroread (§3.3.5 continued) ==",
            "(run 1 uses the 2 MB/25 s profile against 20 MB/10 s searches)\n",
            "  run       energy           profile origin",
        ],
    )?;
    let mut profile = Profiler::standard().profile(&Acroread::small_profile().build(7));
    let mut origin = "stale (2 MB / 25 s run)".to_string();
    for run_no in 1..=4u64 {
        let trace = Acroread::large_search().build(200 + run_no);
        let r = run(SimConfig::default(), &trace, PolicyKind::flexfetch(profile))?;
        let e = r.total_energy().get();
        writeln!(o, "{run_no:>5} {e:>11.1}J {origin:>24}")?;
        profile = r.recorded_profile.ok_or("FlexFetch records")?;
        origin = format!("recorded in run {run_no}");
    }
    lines(
        o,
        &[
            "\n(the stale profile costs one probing stage in run 1 only; from run 2",
            " the recorded history matches reality and the probe disappears)",
        ],
    )?;
    Ok(())
}

/// `design_space`: the disk/WNIC phase diagram. §1.1 argues the network
/// wins when "a small amount of data is requested" intermittently and
/// the disk wins bursts; a synthetic paced workload maps the plane of
/// request size × think time. Each cell names the cheaper fixed device
/// (`D`/`W`), lowercase when FlexFetch (given an accurate profile) paid
/// more than 5 % over it.
pub fn design_space(_: &Args, o: &mut Sink) -> Result {
    let chunks = [4u64, 16, 64, 256, 1024];
    let thinks = [0.05, 0.2, 1.0, 2.0, 5.0, 10.0, 30.0];

    lines(
        o,
        &[
            "disk/WNIC phase diagram — paced reads, 120 requests, 11 Mbps / 1 ms",
            "rows: think time between requests; cols: request size\n",
        ],
    )?;
    write!(o, "{:>9}", "think\\req")?;
    for c in chunks {
        write!(o, " {:>7}", format!("{c}KiB"))?;
    }
    writeln!(o)?;

    for &think in &thinks {
        write!(o, "{:>8}s", think)?;
        for &chunk in &chunks {
            let w = Synthetic {
                name: "phase",
                files: 8,
                total_bytes: 64_000_000,
                size_dist: Dist::Constant(1.0),
                chunk: Bytes::kib(chunk),
                think_dist: Dist::Constant(think),
                pattern: AccessPattern::PacedStream,
                requests: 120,
                base_inode: 90_000,
                pid: 900,
            };
            let trace = w.build(42);
            let profile = Profiler::standard().profile(&w.build(43));
            let e = |kind| energy(SimConfig::default(), &trace, kind);
            let (disk, wnic) = (e(PolicyKind::DiskOnly)?, e(PolicyKind::WnicOnly)?);
            let ff = e(PolicyKind::flexfetch(profile))?;
            let winner = if disk <= wnic { 'D' } else { 'W' };
            let cell = if ff <= disk.min(wnic) * 1.05 {
                winner
            } else {
                winner.to_ascii_lowercase()
            };
            write!(o, " {cell:>7}")?;
        }
        writeln!(o)?;
    }
    o.write_str("\nD/W = cheaper fixed device; lowercase = FlexFetch >5% above it\n")?;
    Ok(())
}

/// `regret`: how far is FlexFetch from an oracle that knows the
/// replayed run? The oracle gets the true profile of the replayed trace
/// and plans per-stage choices by dynamic programming; FlexFetch gets
/// only the previous run's profile plus its §2.3 run-time adaptation.
pub fn regret(_: &Args, o: &mut Sink) -> Result {
    o.write_str("scenario              FlexFetch       Oracle   best fixed   regret\n")?;
    for s in [
        Scenario::grep_make(42)?,
        Scenario::mplayer(42)?,
        Scenario::thunderbird(42)?,
        Scenario::acroread_invalid(42)?,
    ] {
        let cfg = s.configure(SimConfig::default());
        let e = |kind| energy(cfg.clone(), &s.trace, kind);
        let ff = e(PolicyKind::flexfetch(s.profile.clone()))?;
        let fixed = e(PolicyKind::DiskOnly)?.min(e(PolicyKind::WnicOnly)?);

        // The oracle sees the profile of the *replayed* trace itself.
        let true_profile = Profiler::standard().profile(&s.trace);
        let layout = DiskLayout::build(&s.trace.files, cfg.layout_seed);
        let secs_40 = Dur::from_secs(40);
        let plan = Oracle::for_run(&true_profile, &layout, &cfg.disk, &cfg.wnic, secs_40, 0.25);
        let oracle = run_boxed(cfg, &s.trace, Box::new(plan))?
            .total_energy()
            .get();

        let regret = (ff - oracle.min(fixed)) / oracle.min(fixed) * 100.0;
        let name = s.name;
        writeln!(
            o,
            "{name:<18} {ff:>11.1}J {oracle:>11.1}J {fixed:>11.1}J {regret:>+7.1}%"
        )?;
    }
    lines(
        o,
        &[
            "\nregret = FlexFetch above the best of (oracle, fixed devices).",
            "The oracle plan is approximate (profile stages vs wall-clock stages,",
            "no cache filtering), so FlexFetch can occasionally beat it. The",
            "acroread row starts from a deliberately stale profile (§3.3.5): its",
            "regret is the single probing stage — the paper's own observation.",
        ],
    )?;
    Ok(())
}

/// `robustness`: every qualitative ordering `tests/figures.rs` pins,
/// re-checked over ten workload seeds, one seed per pool task. A
/// reproduction that only holds for one random corpus is not a
/// reproduction.
pub fn robustness(_: &Args, o: &mut Sink) -> Result {
    const CHECKS: [&str; 5] = [
        "fig1: FF < WNIC < Disk ≤ BlueFS·1.05",
        "fig2: FF within 10% of WNIC; BlueFS > Disk",
        "fig3: FF wins outright",
        "fig4: free-ride saves ≥10% vs static",
        "fig5: static/1.15 > FF > BlueFS",
    ];
    let seeds: Vec<u64> = (0..10).map(|i| 1000 + i * 77).collect();
    let verdicts = ff_bench::run_ordered(0, &seeds, |_, &seed| orderings(seed))?;
    let mut held = [0usize; CHECKS.len()];
    for (seed, verdict) in seeds.iter().zip(verdicts) {
        for ((check, held), ok) in CHECKS.iter().zip(&mut held).zip(verdict?) {
            if ok {
                *held += 1;
            } else {
                writeln!(o, "  !! {check} violated at seed {seed}")?;
            }
        }
    }

    writeln!(o, "\n{} seeds: {:?}\n", seeds.len(), seeds)?;
    for (check, held) in CHECKS.iter().zip(held) {
        writeln!(o, "{:<45} {}/{}", check, held, seeds.len())?;
    }
    Ok(())
}

/// Whether each of the five figure orderings holds at `seed`.
fn orderings(seed: u64) -> ff_base::Result<[bool; 5]> {
    let e = |s: &Scenario, kind| energy(s.configure(SimConfig::default()), &s.trace, kind);
    let ff = |s: &Scenario| e(s, PolicyKind::flexfetch(s.profile.clone()));
    let st = |s: &Scenario| e(s, PolicyKind::flexfetch_static(s.profile.clone()));
    // FlexFetch, BlueFS, Disk-only, WNIC-only.
    let standard = |s: &Scenario| -> ff_base::Result<[f64; 4]> {
        let (bf, d) = (e(s, PolicyKind::BlueFs)?, e(s, PolicyKind::DiskOnly)?);
        Ok([ff(s)?, bf, d, e(s, PolicyKind::WnicOnly)?])
    };

    let [ff1, bf, d, w] = standard(&Scenario::grep_make(seed)?)?;
    let fig1 = ff1 < w && w < d && bf > d * 0.95;
    let [ff2, bf, d, w] = standard(&Scenario::mplayer(seed)?)?;
    let fig2 = (ff2 - w).abs() / w < 0.10 && bf > d * 0.99;
    let [ff3, bf, d, w] = standard(&Scenario::thunderbird(seed)?)?;
    let fig3 = ff3 < bf && ff3 < d && ff3 < w;
    let s = Scenario::grep_make_xmms(seed)?;
    let fig4 = ff(&s)? < st(&s)? * 0.90;
    let s = Scenario::acroread_invalid(seed)?;
    let (ff5, st5) = (ff(&s)?, st(&s)?);
    let fig5 = ff5 < st5 * 0.90 && ff5 > e(&s, PolicyKind::BlueFs)?;
    Ok([fig1, fig2, fig3, fig4, fig5])
}
