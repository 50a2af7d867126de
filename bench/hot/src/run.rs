//! One benchmark run: set-up, warm-up, timed passes, traced passes.

use crate::calibrate::{self, corrected};
use crate::check::{self, report_diff, Fingerprint, EXPECTED_SEED};
use crate::timed::{Layer, SharedTracer, TimedPolicy, TimedRecorder, Tracer};
use crate::workloads::{self, BuildTimes, Cell, SEED_SETS};
use crate::{replay, Options};
use ff_base::{Error, Result};
use ff_bench::observe::ObservedRun;
use ff_sim::{SimReport, Simulation};
use std::io::Write;
use std::time::{Duration, Instant};

/// Rebuilds of the inputs behind `setup_s`.
pub const SETUPS: usize = 15;
/// Traced passes behind the per-layer metrics, on input sets 0 to 4.
pub const TRACED_PASSES: usize = 5;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// A label printed after the value (e.g. which percentile).
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// End-to-end metrics, from the untraced passes and the set-up.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced passes.
    pub per_layer: Vec<Metric>,
    /// Uncorrected host times, printed for reading.
    pub raw: Vec<Metric>,
    /// Cell runs checked.
    pub attempted: u64,
    /// Cell runs that errored or failed a check, with the reason.
    pub failures: Vec<String>,
    /// Timed passes run.
    pub passes: usize,
    /// The percentile reported as `pass_ms_p90`.
    pub tail_pct: u32,
}

/// Linear-interpolation quantile of `values` (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One untraced run of a cell, as a user of the simulator runs it.
pub fn run_plain(cell: &Cell) -> Result<SimReport> {
    Simulation::new(cell.config.clone(), &cell.trace)
        .policy_boxed(cell.kind.build())
        .run()
}

/// One traced run of the cell at `index`: the policy and the recorder
/// are wrapped so that their calls land in `tracer` as spans.
pub fn run_traced(
    cell: &Cell,
    index: usize,
    tracer: &SharedTracer,
) -> (Result<SimReport>, TimedRecorder) {
    let root = tracer.borrow_mut().open(Layer::Sim, index, None);
    let policy = TimedPolicy::new(cell.kind.build(), tracer.clone(), index, root);
    let mut rec = TimedRecorder::new(tracer.clone(), index, root);
    let report = Simulation::new(cell.config.clone(), &cell.trace)
        .policy_boxed(Box::new(policy))
        .run_recorded(&mut rec);
    tracer.borrow_mut().close(root);
    (report, rec)
}

/// Per-cell references and the failure tally.
struct Checker {
    keys: Vec<String>,
    seeds: Vec<u64>,
    /// The fingerprint every run of the cell must reproduce, and (at the
    /// expected seed) the traced event count.
    reference: Vec<Option<(Fingerprint, Option<u64>)>>,
    /// The warm-up report each traced report must equal.
    untraced: Vec<Option<SimReport>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(workload: &str, cells: &[Cell], seed: u64) -> Result<Self> {
        let keys: Vec<String> = cells.iter().map(|c| c.key.clone()).collect();
        let reference = if seed == EXPECTED_SEED {
            let expected = check::expected()?;
            keys.iter()
                .map(|k| {
                    let key = format!("{workload}:{k}");
                    match expected.get(&key) {
                        Some(&(fp, events)) => Ok(Some((fp, Some(events)))),
                        None => Err(Error::Config(format!("expected.json has no cell {key}"))),
                    }
                })
                .collect::<Result<_>>()?
        } else {
            vec![None; keys.len()]
        };
        Ok(Checker {
            untraced: vec![None; keys.len()],
            keys,
            seeds: cells.iter().map(|c| c.seed).collect(),
            reference,
            attempted: 0,
            failures: Vec::new(),
        })
    }

    fn fail(&mut self, cell: usize, what: &str, why: String) {
        self.failures.push(format!(
            "{} at trace seed {} ({what}): {why}",
            self.keys[cell], self.seeds[cell]
        ));
    }

    /// Check one run against the cell's reference fingerprint. Without
    /// a committed fingerprint, the cell's first good run becomes its
    /// reference. Returns the report when the run passed.
    fn check(&mut self, cell: usize, what: &str, run: Result<SimReport>) -> Option<SimReport> {
        self.attempted += 1;
        let report = match run {
            Ok(r) => r,
            Err(e) => {
                self.fail(cell, what, e.to_string());
                return None;
            }
        };
        let fp = Fingerprint::of(&report);
        match self.reference[cell] {
            Some((want, _)) => {
                let diff = fp.diff(&want);
                if !diff.is_empty() {
                    self.fail(cell, what, format!("fingerprint differs in {diff:?}"));
                    return None;
                }
            }
            None => self.reference[cell] = Some((fp, None)),
        }
        Some(report)
    }
}

/// Times and counts of one traced pass, summed over its cells.
#[derive(Debug, Clone, Copy, Default)]
struct TracedPass {
    pass_ns: u64,
    select_ns: u64,
    observe_ns: u64,
    /// Stage ends, fault notices, profile injections and external-disk
    /// notices: everything but the per-request calls.
    replan_ns: u64,
    policy_calls: u64,
    record_ns: u64,
    replay_ns: u64,
    read_ns: u64,
    read_calls: u64,
    /// The write-back path: writes, `flush_due` and the final `flush_all`.
    write_ns: u64,
    write_calls: u64,
    app_calls: u64,
    stages: u64,
    decisions: u64,
    adaptations: u64,
    events: u64,
    spin_ups: u64,
    reads: u64,
    writes: u64,
    hit_pages: u64,
    miss_pages: u64,
    readahead_pages: u64,
    flushed_pages: u64,
    disk_requests: u64,
    wnic_requests: u64,
    flash_requests: u64,
    disk_bytes: u64,
    wnic_bytes: u64,
    total_j: f64,
    disk_j: f64,
    wnic_j: f64,
    sim_time_s: f64,
}

impl TracedPass {
    fn add_spans(&mut self, tracer: &Tracer) {
        for s in &tracer.spans {
            let ns = s.ns();
            match s.layer {
                Layer::Select => self.select_ns += ns,
                Layer::Observe => self.observe_ns += ns,
                Layer::StageEnd | Layer::Fault => self.replan_ns += ns,
                Layer::Record => self.record_ns += ns,
                Layer::Replay => self.replay_ns += ns,
                Layer::CacheRead => {
                    self.read_ns += ns;
                    self.read_calls += 1;
                }
                Layer::CacheWrite | Layer::CacheFlush => {
                    self.write_ns += ns;
                    self.write_calls += 1;
                }
                Layer::Sim => {}
            }
            if s.layer.is_policy() {
                self.policy_calls += 1;
            }
        }
    }

    fn add_report(&mut self, report: &SimReport, rec: &TimedRecorder) {
        self.app_calls += report.app_requests;
        self.stages += report.stages as u64;
        self.decisions += rec.counts.count("decision");
        self.adaptations += report.decisions.len() as u64;
        self.events += rec.counts.total();
        self.spin_ups += rec.spin_ups;
        self.flushed_pages += report.cache_stats.flushed_pages;
        self.disk_requests += report.disk_requests;
        self.wnic_requests += report.wnic_requests;
        self.flash_requests += report.flash_requests;
        self.disk_bytes += report.disk_bytes.get();
        self.wnic_bytes += report.wnic_bytes.get();
        self.total_j += report.total_energy().get();
        self.disk_j += report.disk_energy.get();
        self.wnic_j += report.wnic_energy.get();
        self.sim_time_s += report.exec_time.as_secs_f64();
    }

    fn add_replay(&mut self, counts: &replay::ReplayCounts) {
        self.reads += counts.reads;
        self.writes += counts.writes;
        self.hit_pages += counts.stats.hits;
        self.miss_pages += counts.stats.misses;
        self.readahead_pages += counts.stats.readahead_pages;
    }

    fn policy_ns(&self) -> u64 {
        self.select_ns + self.observe_ns + self.replan_ns
    }
}

/// Run the traced passes, pass `i` on input set `i`, with the cache
/// replays, and check every run.
fn traced_passes(
    sets: &[&[Cell]],
    checker: &mut Checker,
    spans: &mut Option<std::io::BufWriter<std::fs::File>>,
) -> Result<Vec<TracedPass>> {
    let mut passes = Vec::with_capacity(TRACED_PASSES);
    for (set, cells) in sets.iter().enumerate().take(TRACED_PASSES) {
        let base = set * cells.len();
        let tracer = Tracer::shared();
        let t0 = Instant::now();
        let runs: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| run_traced(c, base + i, &tracer))
            .collect();
        let mut tp = TracedPass {
            pass_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ..TracedPass::default()
        };
        for (i, (run, rec)) in runs.into_iter().enumerate() {
            let (g, cell) = (base + i, &cells[i]);
            let Some(report) = checker.check(g, "traced", run) else {
                continue;
            };
            if let Some(untraced) = &checker.untraced[g] {
                let diff = report_diff(untraced, &report);
                if !diff.is_empty() {
                    checker.fail(
                        g,
                        "traced",
                        format!("report differs from untraced in {diff:?}"),
                    );
                }
            }
            if let Some((_, Some(want))) = checker.reference[g] {
                if rec.counts.total() != want {
                    checker.fail(
                        g,
                        "traced",
                        format!("{} events, expected {want}", rec.counts.total()),
                    );
                }
            }
            let replayed = replay::replay(cell, g, &rec.log, &tracer)?;
            let (got, cs) = (replayed.stats, report.cache_stats);
            if (got.hits, got.misses, got.readahead_pages)
                != (cs.hits, cs.misses, cs.readahead_pages)
            {
                checker.fail(
                    g,
                    "replay",
                    format!("cache replay {got:?} differs from the engine's {cs:?}"),
                );
            }
            tp.add_report(&report, &rec);
            tp.add_replay(&replayed);
            let observed = ObservedRun {
                report,
                log: rec.log,
            };
            let violations = ff_bench::check_invariants(&cell.trace, &observed);
            if !violations.is_empty() {
                checker.fail(g, "traced", format!("invariants: {violations:?}"));
            }
        }
        let tracer = tracer.borrow();
        tp.add_spans(&tracer);
        passes.push(tp);
        if let Some(out) = spans {
            out.write_all(tracer.to_jsonl(set, &checker.keys).as_bytes())
                .map_err(|e| Error::Io(format!("--spans: {e}")))?;
        }
    }
    Ok(passes)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Error::Io(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| Error::Io("no VmHWM line in /proc/self/status".into()))
}

/// Run one workload as `opts` asks.
pub fn run(opts: &Options) -> Result<Outcome> {
    let spec = workloads::spec(&opts.workload)?;
    let mut spans = match &opts.spans {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?,
        )),
        None => None,
    };

    // Set-up, timed like a pass: each rebuild is followed by the
    // calibration kernel.
    let mut setup: Vec<(BuildTimes, f64)> = Vec::with_capacity(SETUPS);
    let mut built = Vec::new();
    for _ in 0..SETUPS {
        let (sets, times) = spec.build(opts.seed)?;
        setup.push((times, calibrate::kernel_ms()));
        built = sets;
    }
    let cells: Vec<Cell> = built.into_iter().flatten().collect();
    let sets: Vec<&[Cell]> = cells.chunks(cells.len() / SEED_SETS).collect();
    let setup_med = |f: fn(&BuildTimes) -> u64| {
        median(&setup.iter().map(|(t, _)| ms(f(t))).collect::<Vec<_>>())
    };

    let mut checker = Checker::new(&opts.workload, &cells, opts.seed)?;
    for (g, cell) in cells.iter().enumerate() {
        checker.untraced[g] = checker.check(g, "warm-up", run_plain(cell));
    }

    // Timed passes take the input sets in turn, and stop only after a
    // whole round so that every set weighs the same in the medians, and
    // only once ten passes lie beyond the tail percentile. Each pass is
    // followed by the calibration kernel.
    let (mut raw_ms, mut kernel_ms) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_passes = (1000 / (100 - spec.tail_pct)) as usize;
    let started = Instant::now();
    loop {
        let set = raw_ms.len() % SEED_SETS;
        let t0 = Instant::now();
        let runs: Vec<_> = sets[set].iter().map(run_plain).collect();
        raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        kernel_ms.push(calibrate::kernel_ms());
        for (i, run) in runs.into_iter().enumerate() {
            checker.check(set * sets[0].len() + i, "timed", run);
        }
        let done = match opts.passes {
            Some(n) => raw_ms.len() >= n,
            None => {
                started.elapsed() >= budget
                    && raw_ms.len() >= min_passes
                    && raw_ms.len() % SEED_SETS == 0
            }
        };
        if done {
            break;
        }
    }
    let rss = peak_rss_mib()?;

    let traced = traced_passes(&sets, &mut checker, &mut spans)?;
    if let Some(mut out) = spans {
        out.flush()
            .map_err(|e| Error::Io(format!("--spans: {e}")))?;
    }

    let pass_ms: Vec<f64> = raw_ms
        .iter()
        .zip(&kernel_ms)
        .map(|(&p, &k)| corrected(p, k))
        .collect();
    let p50 = median(&pass_ms);
    let tail = quantile(&pass_ms, f64::from(spec.tail_pct) / 100.0);
    let calls_per_pass = ratio(
        checker
            .untraced
            .iter()
            .flatten()
            .map(|r| r.app_requests as f64)
            .sum(),
        SEED_SETS as f64,
    );
    let setup_s = median(
        &setup
            .iter()
            .map(|(t, k)| corrected(ms(t.total_ns), *k) / 1e3)
            .collect::<Vec<_>>(),
    );
    let n = pass_ms.len();
    let note = |pct: u32| format!("p{pct} of {n} passes, corrected");
    let end_to_end = vec![
        metric("calls_per_s", ratio(calls_per_pass, p50 / 1e3), "1/s"),
        Metric {
            note: note(50),
            ..metric("pass_ms_p50", p50, "ms")
        },
        Metric {
            note: note(spec.tail_pct),
            ..metric("pass_ms_p90", tail, "ms")
        },
        Metric {
            note: format!("median of {SETUPS} set-ups, corrected"),
            ..metric("setup_s", setup_s, "s")
        },
        metric("peak_rss_mib", rss, "MiB"),
    ];
    let raw_p50 = median(&raw_ms);
    let raw = vec![
        metric("raw.pass_ms_p50", raw_p50, "ms"),
        metric(
            "raw.pass_ms_p90",
            quantile(&raw_ms, f64::from(spec.tail_pct) / 100.0),
            "ms",
        ),
        metric("raw.setup_s", setup_med(|t| t.total_ns) / 1e3, "s"),
        metric("raw.kernel_ms_p50", median(&kernel_ms), "ms"),
    ];

    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let count = |f: fn(&TracedPass) -> u64| med(&|t| f(t) as f64);
    let traced_ms = med(&|t| ms(t.pass_ns));
    let per_layer = vec![
        metric("policy.select_ms", med(&|t| ms(t.select_ns)), "ms"),
        metric("policy.observe_ms", med(&|t| ms(t.observe_ns)), "ms"),
        metric("policy.replan_ms", med(&|t| ms(t.replan_ns)), "ms"),
        metric("policy.calls", count(|t| t.policy_calls), "count"),
        metric(
            "policy.ns_per_call",
            med(&|t| ratio(t.policy_ns() as f64, t.policy_calls as f64)),
            "ns",
        ),
        metric(
            "policy.share",
            med(&|t| ratio(t.policy_ns() as f64, t.pass_ns as f64)),
            "ratio",
        ),
        metric("policy.decisions", count(|t| t.decisions), "count"),
        metric("policy.adaptations", count(|t| t.adaptations), "count"),
        metric("cache.replay_ms", med(&|t| ms(t.replay_ns)), "ms"),
        metric(
            "cache.read_ns_per_call",
            med(&|t| ratio(t.read_ns as f64, t.read_calls as f64)),
            "ns",
        ),
        metric(
            "cache.write_ns_per_call",
            med(&|t| ratio(t.write_ns as f64, t.write_calls as f64)),
            "ns",
        ),
        metric("cache.reads", count(|t| t.reads), "count"),
        metric("cache.writes", count(|t| t.writes), "count"),
        metric("cache.hit_pages", count(|t| t.hit_pages), "count"),
        metric("cache.miss_pages", count(|t| t.miss_pages), "count"),
        metric(
            "cache.readahead_pages",
            count(|t| t.readahead_pages),
            "count",
        ),
        metric(
            "cache.hit_ratio",
            med(&|t| ratio(t.hit_pages as f64, (t.hit_pages + t.miss_pages) as f64)),
            "ratio",
        ),
        metric("cache.flushed_pages", count(|t| t.flushed_pages), "count"),
        metric(
            "cache.share",
            med(&|t| ratio(t.replay_ns as f64, t.pass_ns as f64)),
            "ratio",
        ),
        metric("device.disk_requests", count(|t| t.disk_requests), "count"),
        metric("device.wnic_requests", count(|t| t.wnic_requests), "count"),
        metric(
            "device.flash_requests",
            count(|t| t.flash_requests),
            "count",
        ),
        metric("device.disk_bytes", count(|t| t.disk_bytes), "B"),
        metric("device.wnic_bytes", count(|t| t.wnic_bytes), "B"),
        metric("device.spin_ups", count(|t| t.spin_ups), "count"),
        metric("sim.traced_pass_ms", traced_ms, "ms"),
        metric("sim.trace_overhead_ms", traced_ms - raw_p50, "ms"),
        metric(
            "sim.residual_ms",
            med(&|t| {
                ms(t.pass_ns
                    .saturating_sub(t.policy_ns() + t.record_ns + t.replay_ns))
            }),
            "ms",
        ),
        metric("sim.app_calls", count(|t| t.app_calls), "count"),
        metric("sim.stages", count(|t| t.stages), "count"),
        metric("record.ms", med(&|t| ms(t.record_ns)), "ms"),
        metric("record.events", count(|t| t.events), "count"),
        metric(
            "record.ns_per_event",
            med(&|t| ratio(t.record_ns as f64, t.events as f64)),
            "ns",
        ),
        metric("trace.build_ms", setup_med(|t| t.trace_ns), "ms"),
        metric(
            "trace.records",
            cells.iter().map(|c| c.trace.len() as f64).sum(),
            "count",
        ),
        metric("profile.build_ms", setup_med(|t| t.profile_ns), "ms"),
        metric(
            "profile.stages",
            cells.iter().map(|c| c.profile_stages as f64).sum(),
            "count",
        ),
        metric("model.total_j", med(&|t| t.total_j), "J"),
        metric("model.sim_time_s", med(&|t| t.sim_time_s), "sim_s"),
        metric("model.disk_j", med(&|t| t.disk_j), "J"),
        metric("model.wnic_j", med(&|t| t.wnic_j), "J"),
    ];

    Ok(Outcome {
        end_to_end,
        per_layer,
        raw,
        attempted: checker.attempted,
        failures: checker.failures,
        passes: n,
        tail_pct: spec.tail_pct,
    })
}
