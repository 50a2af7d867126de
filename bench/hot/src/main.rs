//! `benchhot` — host-time benchmark of the FlexFetch simulator, end to
//! end and split by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/hot/Cargo.toml -- \
//!     --workload adaptive [--seed 42] [--seconds 15] [--trace 0|1] \
//!     [--passes N] [--spans PATH] [--record PATH]
//! ```
//!
//! One process on one thread runs one workload (see `run.rs`):
//! 1. builds every cell's inputs 15 times (`setup_s` is the median);
//! 2. runs every cell once, untimed, as a warm-up;
//! 3. runs timed passes with the default `NullRecorder` for `--seconds`
//!    (or exactly `--passes N`, for smoke tests) — the end-to-end metrics;
//! 4. runs five traced passes with `TimedPolicy` and `TimedRecorder`,
//!    then replays each cell's application calls into a standalone
//!    buffer cache — the per-layer metrics.
//!
//! Every cell run is checked (see `check.rs`). The run prints one
//! `name value unit` line per metric, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`), and
//! exits 1 if any cell run failed, 2 on a usage or set-up error.
//! `--spans PATH` writes the traced passes' spans as JSON lines;
//! `--record PATH` merges this workload's metrics into a `BENCH_hot.json`
//! document.

// The repository's clippy.toml bans wall-clock types so that simulation
// results cannot depend on them; measuring host time is this program's job.
#![allow(clippy::disallowed_types)]

mod calibrate;
mod check;
mod replay;
mod run;
mod timed;
mod workloads;

#[cfg(test)]
mod tests;

use ff_base::json::Value;
use ff_base::{Error, Result};
use run::{ratio, Metric, Outcome};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: benchhot --workload adaptive|reactive|write-mix|fault-storm \
[--seed N] [--seconds S] [--trace 0|1] [--passes N] [--spans PATH] [--record PATH]";

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
    spans: Option<PathBuf>,
    record: Option<PathBuf>,
}

impl Options {
    /// Defaults for `workload`: seed 42, 15 s of timed passes.
    pub fn new(workload: &str) -> Self {
        Options {
            workload: workload.to_string(),
            seed: check::EXPECTED_SEED,
            seconds: 15.0,
            trace: false,
            passes: None,
            spans: None,
            record: None,
        }
    }

    fn parse(args: impl IntoIterator<Item = String>) -> std::result::Result<Self, String> {
        let mut opts = Options::new("");
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value '{v}' for {flag}");
            match flag.as_str() {
                "--workload" => opts.workload = value()?,
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| bad(&v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    opts.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(&v))?;
                }
                "--trace" => {
                    let v = value()?;
                    opts.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&v)),
                    };
                }
                "--passes" => {
                    let v = value()?;
                    opts.passes = Some(v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(&v))?);
                }
                "--spans" => opts.spans = Some(PathBuf::from(value()?)),
                "--record" => opts.record = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(opts)
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn host_json() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
        ("cpu".into(), Value::Str(cpu)),
        ("nproc".into(), Value::UInt(nproc as u64)),
    ])
}

/// Merge this run into the `BENCH_hot.json` document at `path`, keeping
/// the other workloads' entries.
fn record(path: &Path, opts: &Options, out: &Outcome) -> Result<()> {
    let mut entries: Vec<(String, Value)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
        .and_then(|doc| match doc.get("workloads") {
            Some(Value::Object(pairs)) => Some(pairs.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let entry = Value::Object(vec![
        ("seed".into(), Value::UInt(opts.seed)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("passes".into(), Value::UInt(out.passes as u64)),
        ("tail_pct".into(), Value::UInt(u64::from(out.tail_pct))),
        (
            "traced_passes".into(),
            Value::UInt(run::TRACED_PASSES as u64),
        ),
        ("setups".into(), Value::UInt(run::SETUPS as u64)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failures.len() as u64)),
        ("end_to_end".into(), metrics_json(&out.end_to_end)),
        ("raw".into(), metrics_json(&out.raw)),
        ("per_layer".into(), metrics_json(&out.per_layer)),
    ]);
    entries.retain(|(k, _)| k != &opts.workload);
    entries.push((opts.workload.clone(), entry));
    entries.sort_by_key(|(k, _)| workloads::WORKLOADS.iter().position(|w| w == k));
    let doc = Value::Object(vec![
        ("bench".into(), Value::Str("hot".into())),
        ("schema".into(), Value::UInt(1)),
        (
            "command".into(),
            Value::Str(
                "cargo run --release --offline --manifest-path bench/hot/Cargo.toml -- \
                 --workload W --record bench/hot/BENCH_hot.json"
                    .into(),
            ),
        ),
        ("kernel_ref_ms".into(), Value::Float(calibrate::REF_MS)),
        ("host".into(), host_json()),
        ("workloads".into(), Value::Object(entries)),
    ]);
    std::fs::write(path, format!("{}\n", doc.to_pretty()))
        .map_err(|e| Error::Io(format!("{}: {e}", path.display())))
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("benchhot: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match run::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchhot: {e}");
            std::process::exit(2);
        }
    };
    for f in out.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let failed = out.failures.len() as u64;
    let mut lines = String::new();
    for m in out.end_to_end.iter().chain(&out.raw).chain(&out.per_layer) {
        lines.push_str(&format!("{} {} {}", m.name, m.value, m.unit));
        if !m.note.is_empty() {
            lines.push_str(&format!("  ({})", m.note));
        }
        lines.push('\n');
    }
    lines.push_str(&format!(
        "failed_frac {} ratio  ({failed} of {} cell runs)\n",
        ratio(failed as f64, out.attempted as f64),
        out.attempted
    ));
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(failed)),
        (
            "metrics".into(),
            metrics_json(if opts.trace {
                &out.per_layer
            } else {
                &out.end_to_end
            }),
        ),
    ]);
    print!("{lines}");
    println!("{}", result.to_compact());
    if let Some(path) = &opts.record {
        if let Err(e) = record(path, &opts, &out) {
            eprintln!("benchhot: {e}");
            std::process::exit(2);
        }
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
