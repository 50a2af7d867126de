//! The benchmark and trace-export commands: `benchsim`, `benchpar`,
//! `benchfaults` and `observe`. Their artifacts and schemas are
//! documented in `docs/benchmarks.md`.
#![expect(
    clippy::disallowed_types,
    reason = "the benchmark's own wall clock: it times the runs and never feeds a simulation"
)]

use crate::{Args, Result, Sink, Usage};
use ff_base::json::Value;
use ff_bench::faults::{cell_json, fault_matrix, fault_run, FAULT_SCENARIOS};
use ff_bench::grid::{sim_cell, sim_doc, sim_matrix_json, Grid};
use ff_bench::observe::{observe_run, summary_json};
use ff_bench::observe::{POLICIES, WORKLOADS};
use std::fmt::Write;
use std::time::Instant;

/// `benchsim`: all six Table-3 workloads under all five policies with a
/// counting recorder attached, on `--jobs` pool workers. The artifact
/// holds only deterministic fields, so it is byte-identical for any
/// `--jobs`; the per-cell wall times are host noise and go to stdout.
pub fn benchsim(args: &Args, o: &mut Sink) -> Result {
    let t0 = Instant::now();
    let cells = Grid::sim_matrix(args.seed).run(args.jobs, |cell| {
        let cell_t0 = Instant::now();
        sim_cell(cell).map(|sc| (sc, cell_t0.elapsed()))
    })?;
    let grid_wall = t0.elapsed();

    o.write_str(
        "workload       policy                events     sim(s)  wall(ms)     events/s   sim/wall\n",
    )?;
    for (cell, (sc, wall)) in &cells {
        let (w, p, events, sim) = (&cell.workload, &cell.policy, sc.events, sc.sim_time_s);
        let wall_s = wall.as_secs_f64().max(1e-9);
        let (ms, rate, speed) = (wall_s * 1e3, events as f64 / wall_s, sim / wall_s);
        writeln!(
            o,
            "{w:<14} {p:<18} {events:>9} {sim:>10.1} {ms:>9.1} {rate:>12.0} {speed:>10.0}"
        )?;
    }
    let (n, workers) = (cells.len(), ff_bench::resolve_jobs(args.jobs));
    let ms = grid_wall.as_secs_f64() * 1e3;
    writeln!(
        o.err,
        "grid: {n} cells on {workers} worker(s) in {ms:.1} ms"
    )?;

    let payload: Vec<_> = cells.into_iter().map(|(c, (sc, _))| (c, sc)).collect();
    let doc = sim_doc(args.seed, &payload);
    write_doc(o, args.out_or("bench/BENCH_sim.json"), &doc)
}

/// `benchpar`: the benchsim grid serially (the reference path) and on
/// `--jobs` workers. Fails unless the two documents are byte-identical;
/// records the measured speedup (with `cores`, since a one-core host
/// cannot beat 1x) either way.
pub fn benchpar(args: &Args, o: &mut Sink) -> Result {
    let jobs = ff_bench::resolve_jobs(args.jobs);
    let cores = ff_bench::default_jobs();

    let t0 = Instant::now();
    let serial = sim_matrix_json(args.seed, 1)?;
    let serial_wall = t0.elapsed().as_secs_f64().max(1e-9);

    let t1 = Instant::now();
    let parallel = sim_matrix_json(args.seed, jobs)?;
    let parallel_wall = t1.elapsed().as_secs_f64().max(1e-9);

    let identical = serial.to_pretty() == parallel.to_pretty();
    let speedup = serial_wall / parallel_wall;
    let cells = serial
        .get("cells")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let (serial_ms, parallel_ms) = (serial_wall * 1e3, parallel_wall * 1e3);
    writeln!(
        o,
        "grid: {cells} cells | serial {serial_ms:.1} ms | jobs={jobs} {parallel_ms:.1} ms | speedup {speedup:.2}x | cores {cores} | byte-identical: {identical}"
    )?;

    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("parallel".into())),
        ("schema".into(), Value::UInt(1)),
        ("seed".into(), Value::UInt(args.seed)),
        ("command".into(), command("benchpar")),
        ("jobs".into(), Value::UInt(jobs as u64)),
        ("cores".into(), Value::UInt(cores as u64)),
        ("cells".into(), Value::UInt(cells as u64)),
        ("serial_wall_s".into(), Value::Float(serial_wall)),
        ("parallel_wall_s".into(), Value::Float(parallel_wall)),
        ("speedup".into(), Value::Float(speedup)),
        ("identical".into(), Value::Bool(identical)),
    ]);
    write_doc(o, args.out_or("bench/BENCH_parallel.json"), &doc)?;
    if !identical {
        return Err(format!(
            "jobs=1 and jobs={jobs} documents differ: the parallel engine broke determinism"
        )
        .into());
    }
    Ok(())
}

/// The chaos matrix's workload axis: the dense reader, the long sparse
/// streamer, and the bursty searcher — the three fault-response shapes.
const MATRIX_WORKLOADS: [&str; 3] = ["grep", "xmms", "thunderbird"];

/// `benchfaults`: every named fault scenario over every policy and the
/// matrix workloads, each cell checked by the robustness oracle, plus a
/// byte-identical replay of the densest cell. Every field is
/// deterministic for a fixed seed and identical for any `--jobs`.
pub fn benchfaults(args: &Args, o: &mut Sink) -> Result {
    let (seed, jobs) = (args.seed, args.jobs);
    let matrix = fault_matrix(&MATRIX_WORKLOADS, &POLICIES, &FAULT_SCENARIOS, seed, jobs)?;

    let mut cells = Vec::new();
    let mut total_violations = 0usize;
    o.write_str(
        "workload      policy             scenario           total_j  faults  retry   fail violations\n",
    )?;
    for cell in &matrix {
        let (workload, policy, scenario) = (&cell.workload, &cell.policy, &cell.scenario);
        let (run, violations) = (&cell.run, &cell.violations);
        let r = &run.report;
        let (name, e, faults) = (&r.policy, r.total_energy().get(), r.faults_injected);
        let (retries, failovers, n) = (r.retries, r.failovers, violations.len());
        writeln!(
            o,
            "{workload:<13} {name:<18} {scenario:<15} {e:>9.1}J {faults:>7} {retries:>6} {failovers:>6} {n:>10}"
        )?;
        for v in violations {
            writeln!(o.err, "  VIOLATION [{workload}/{policy}/{scenario}]: {v}")?;
        }
        total_violations += n;
        cells.push(cell_json(workload, policy, scenario, run, violations));
    }

    let a = fault_run("grep", "flexfetch", "everything", args.seed)?;
    let b = fault_run("grep", "flexfetch", "everything", args.seed)?;
    let replay_identical = a.log.to_jsonl() == b.log.to_jsonl();

    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("faults".into())),
        ("schema".into(), Value::UInt(1)),
        ("seed".into(), Value::UInt(args.seed)),
        ("command".into(), command("benchfaults")),
        ("replay_identical".into(), Value::Bool(replay_identical)),
        (
            "total_violations".into(),
            Value::UInt(total_violations as u64),
        ),
        ("cells".into(), Value::Array(cells)),
    ]);
    write_doc(o, args.out_or("bench/BENCH_faults.json"), &doc)?;
    if total_violations > 0 || !replay_identical {
        return Err(format!(
            "{total_violations} invariant violation(s); replay of grep/flexfetch/everything identical: {replay_identical}"
        )
        .into());
    }
    Ok(())
}

/// `observe`: one run with an event recorder attached, written to
/// `<out-dir>/observe_<workload>_<policy>.jsonl` (one JSON object per
/// event, in simulated-time order) and `.summary.json` (headline
/// numbers and per-kind event totals, also printed).
pub fn observe(args: &Args, o: &mut Sink) -> Result {
    let (Some(workload), Some(policy)) = (&args.workload, &args.policy) else {
        return Err(Usage(format!(
            "observe needs --workload <{}> and --policy <{}>",
            WORKLOADS.join("|"),
            POLICIES.join("|")
        ))
        .into());
    };
    let run = observe_run(workload, policy, args.seed)?;
    let stem = format!("observe_{workload}_{policy}");
    let jsonl_path = args.out_dir.join(format!("{stem}.jsonl"));
    let summary_path = args.out_dir.join(format!("{stem}.summary.json"));
    let summary = summary_json(&run, workload, policy, args.seed).to_pretty();
    writeln!(o, "{summary}")?;
    let (jsonl, events, sum) = (jsonl_path.display(), run.log.len(), summary_path.display());
    writeln!(o.err, "wrote {jsonl} ({events} events) and {sum}")?;
    o.file(jsonl_path, run.log.to_jsonl());
    o.file(summary_path, format!("{summary}\n"));
    Ok(())
}

/// The `command` field of a `BENCH_*.json` artifact.
fn command(name: &str) -> Value {
    let driver = "cargo run --release -p ff-bench --bin ffbench --";
    Value::Str(format!("{driver} {name}"))
}

/// Queue a JSON artifact (pretty, newline-terminated) and note it.
fn write_doc(o: &mut Sink, path: std::path::PathBuf, doc: &Value) -> Result {
    writeln!(o.err, "wrote {}", path.display())?;
    o.file(path, format!("{}\n", doc.to_pretty()));
    Ok(())
}
