//! Transparency and contract tests. Run with
//! `cargo test --release --offline --manifest-path bench/hot/Cargo.toml`.

use super::*;
use check::{report_diff, Fingerprint, EXPECTED_SEED};
use ff_sim::{CountingRecorder, Simulation};
use run::{median, quantile, run_plain, run_traced};
use timed::Tracer;
use workloads::{Cell, WORKLOADS};

fn repo_file(rel: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + rel;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn all_cells() -> Vec<(&'static str, Vec<Cell>)> {
    WORKLOADS
        .iter()
        .map(|&w| {
            let (sets, _) = workloads::spec(w).unwrap().build(EXPECTED_SEED).unwrap();
            (w, sets.into_iter().flatten().collect())
        })
        .collect()
}

/// `TimedPolicy` and `TimedRecorder` only observe: on every cell of all
/// four workloads the report equals a plain `run()` field for field, and
/// the standalone cache replay reproduces the engine's cache counters.
#[test]
fn wrappers_leave_every_report_unchanged() {
    for (workload, cells) in all_cells() {
        for (i, cell) in cells.iter().enumerate() {
            let plain = run_plain(cell).unwrap();
            let tracer = Tracer::shared();
            let (traced, rec) = run_traced(cell, i, &tracer);
            let traced = traced.unwrap();
            let diff = report_diff(&plain, &traced);
            assert!(
                diff.is_empty(),
                "{workload}:{} differs in {diff:?}",
                cell.key
            );
            let replayed = replay::replay(cell, i, &rec.log, &tracer).unwrap().stats;
            let cs = plain.cache_stats;
            assert_eq!(
                (replayed.hits, replayed.misses, replayed.readahead_pages),
                (cs.hits, cs.misses, cs.readahead_pages),
                "{workload}:{} cache replay",
                cell.key
            );
        }
    }
}

/// `expected.json` holds every cell's seed-42 fingerprint. Regenerate
/// with `FF_BLESS=1 cargo test --release --offline --manifest-path
/// bench/hot/Cargo.toml expected_json` and review the diff.
#[test]
fn expected_json_is_current() {
    let mut rows = Vec::new();
    for (workload, cells) in all_cells() {
        for cell in &cells {
            let mut rec = CountingRecorder::new();
            let report = Simulation::new(cell.config.clone(), &cell.trace)
                .policy_boxed(cell.kind.build())
                .run_recorded(&mut rec)
                .unwrap();
            rows.push(Fingerprint::of(&report).entry(workload, &cell.key, cell.seed, rec.total()));
        }
    }
    // One cell per line keeps the file small and its diffs readable.
    let cells: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", r.to_compact()))
        .collect();
    let text = format!(
        "{{\n  \"seed\": {EXPECTED_SEED},\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    if std::env::var_os("FF_BLESS").is_some() {
        std::fs::write(path, &text).unwrap();
        return;
    }
    assert_eq!(
        std::fs::read_to_string(path).unwrap(),
        text,
        "expected.json is stale; if the change is intended, regenerate it with FF_BLESS=1"
    );
}

/// Input set 0 of the `adaptive` and `reactive` workloads is made of
/// `benchsim` cells, so it must agree with `bench/BENCH_sim.json`.
#[test]
fn expected_json_agrees_with_bench_sim() {
    let sim = Value::parse(&repo_file("bench/BENCH_sim.json")).unwrap();
    let rows = sim.get("cells").and_then(Value::as_array).unwrap();
    let expected = check::expected().unwrap();
    let mut matched = 0;
    for (key, (fp, events)) in &expected {
        let (workload, cell) = key.split_once(':').unwrap();
        let Some(cell) = cell.strip_suffix("@0") else {
            continue;
        };
        if workload != "adaptive" && workload != "reactive" {
            continue;
        }
        let (app, policy) = cell.split_once('/').unwrap();
        let row = rows
            .iter()
            .find(|r| {
                r.get("workload").and_then(Value::as_str) == Some(app)
                    && r.get("policy").and_then(Value::as_str) == Some(policy)
            })
            .unwrap_or_else(|| panic!("{key} has no BENCH_sim.json row"));
        let num = |k: &str| row.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(num("app_requests") as u64, fp.app_requests, "{key}");
        assert_eq!(
            (num("sim_time_s") * 1e6).round() as u64,
            fp.exec_time_us,
            "{key}"
        );
        assert_eq!(num("decisions") as u64, fp.decisions, "{key}");
        assert_eq!(num("total_j").to_bits(), fp.total_j_bits, "{key}");
        assert_eq!(num("events") as u64, *events, "{key}");
        matched += 1;
    }
    assert_eq!(matched, 4 + 6);
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A `--passes 2` run of every workload completes without a failed cell
/// run and reports exactly the metrics `BENCHMARK.json` declares.
#[test]
fn smoke_run_of_every_workload_matches_benchmark_json() {
    let bench = Value::parse(&repo_file("BENCHMARK.json")).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let names = |ms: &[Metric]| -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        let opts = Options {
            passes: Some(2),
            ..Options::new(w)
        };
        let out = run::run(&opts).unwrap();
        assert!(out.failures.is_empty(), "{w}: {:?}", out.failures);
        assert_eq!(out.passes, 2);
        assert!(out.end_to_end.len() <= 16 && out.per_layer.len() <= 128);
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(valid_name(m.name), "{w}: bad metric name {}", m.name);
            assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
        }
        assert_eq!(names(&out.end_to_end), declared("end_to_end"), "{w}");
        assert_eq!(names(&out.per_layer), declared("per_layer"), "{w}");
    }
}

#[test]
fn options_reject_malformed_flags() {
    let parse = |args: &[&str]| Options::parse(args.iter().map(|s| s.to_string()));
    assert!(
        parse(&["--workload", "adaptive", "--trace", "1"])
            .unwrap()
            .trace
    );
    assert!(parse(&[]).is_err(), "workload is required");
    assert!(parse(&["--workload", "adaptive", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "adaptive", "--seconds", "-1"]).is_err());
    assert!(parse(&["--workload", "adaptive", "--passes", "0"]).is_err());
    assert!(parse(&["--workload", "adaptive", "--seed"]).is_err());
    assert!(parse(&["--workload", "adaptive", "--jobs", "4"]).is_err());
}

#[test]
fn quantile_interpolates_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&v), 2.5);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 4.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
}
