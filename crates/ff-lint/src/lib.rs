//! # ff-lint — workspace static analysis for the FlexFetch simulator
//!
//! A std-only, dependency-free (no `syn`/`quote`; the build environment
//! is offline) analysis of the properties the reproduction's
//! credibility rests on that no clippy lint can see, because each one
//! spans files. Three rule families, in report order.
//!
//! A semantic layer ([`items`] → [`callgraph`], [`consts`]) recovers
//! item boundaries from the preprocessed lines and runs cross-file
//! analyses:
//!
//! 1. **panic-reachability** — which public APIs of the simulation
//!    crates can transitively reach a panic site (`unwrap`, `expect`,
//!    `panic!`-family, slice indexing) through the workspace call graph.
//! 2. **const-provenance** — every Table 1/Table 2 physical constant
//!    has one home, `ff-device::consts`; a matching numeric literal
//!    anywhere else in the simulation crates is a shadowed constant,
//!    and the registry itself is cross-checked against the pinned
//!    values.
//!
//! A numeric abstract interpretation ([`interval`], [`absint`]) — a
//! signed-interval × sign × floatiness product domain evaluated through
//! `let` bindings, accumulator widening, and a two-round
//! function-summary fixpoint, seeded with the Table 1/2 constants —
//! backs the last:
//!
//! 3. **arith-safety** — division-by-zero freedom, `as` casts the
//!    inferred interval cannot prove lossless, and unchecked `+`/`*`
//!    on `_bytes`/`_us` counters where `saturating_*` or the
//!    `ff_base::checked` helpers exist.
//!
//! The per-line contract is clippy's, at the levels in the workspace
//! `Cargo.toml` and `clippy.toml`, run with warnings denied by the
//! root package's `tests/lint.rs`: no wall clock, ambient RNG or hash
//! map in simulation code (`disallowed_types`); no `unwrap`, `expect`,
//! `panic!`, `unreachable!` or `todo!` in library code; no raw `as`
//! cast or `Dur::as_secs_f64` in ff-device and ff-sim without a
//! reasoned `#[expect]` (`as_conversions`, `disallowed_methods`); no
//! exact float comparison (`float_cmp`, which exempts comparisons with
//! zero); and no `#[allow]` without a reason. Inside the ff-base
//! newtypes, mixing units is a type error: the compiler rejects
//! `SimTime + Joules` and `Dur + u64` (see the `compile_fail` examples
//! in `ff_base::time`).
//!
//! Three properties are held by the code instead of a family. An
//! energy cannot be decremented, because `ff_base::Joules` has no
//! subtraction or negation (see the `compile_fail` examples in
//! `ff_base::energy`). The §3 ordering of the WNIC PSM timeout, the
//! disk break-even time and the disk timeout is asserted on the real
//! `ff_device::DiskParams` by its `break_even_is_a_few_seconds` test.
//! And the disk, WNIC and server-path state machines are checked by
//! running them: each device model's
//! `machine_walk_follows_the_paper_cycle` test drives it through every
//! state and round the paper's cycle, and `ff-sim`'s
//! `server_path_machine_table` test pins the failover table.
//!
//! Findings ratchet against a committed [`baseline`]: the run fails only
//! on findings the baseline does not accept, so existing debt is
//! tracked without blocking the build, while regressions are. The
//! linter's own regression net is [`mutgen`]: deterministic seed-derived
//! mutants of the workspace sources, re-analysed in memory, with a
//! per-family kill-score matrix ratcheted in CI. Every family must
//! kill at least one probe that no other family kills.

pub mod absint;
pub mod baseline;
pub mod callgraph;
pub mod consts;
pub mod interval;
pub mod items;
pub mod mutgen;
pub mod rules;
pub mod scan;

pub use baseline::{Baseline, Delta};
pub use rules::{Finding, Rule};
pub use scan::SourceFile;

use ff_base::json::Value;
use ff_base::{Error, Result};
use std::fmt::Write as _;
use std::path::Path;

/// The result of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, baselined or not, in (rule, file, line) order.
    pub findings: Vec<Finding>,
    /// Comparison against the baseline used for the run.
    pub delta: Delta,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Exit status the CLI should report: clean means nothing beyond
    /// the baseline.
    pub fn is_clean(&self) -> bool {
        self.delta.is_clean()
    }

    /// Findings belonging to one rule family.
    pub fn findings_for(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Render the human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for rule in Rule::all() {
            let members: Vec<&Finding> = self.findings_for(rule).collect();
            if members.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{} ({} finding(s))", rule, members.len());
            let width = members
                .iter()
                .map(|f| f.file.len() + 1 + digits(f.line))
                .max()
                .unwrap_or(0);
            for f in &members {
                let loc = format!("{}:{}", f.file, f.line);
                let _ = writeln!(out, "  {loc:<width$}  {:<14} {}", f.token, f.message);
            }
        }
        let new = self.delta.new_count();
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} finding(s), {} beyond baseline{}",
            self.files_scanned,
            self.findings.len(),
            new,
            if new == 0 { " — OK" } else { "" },
        );
        if !self.delta.new.is_empty() {
            let _ = writeln!(out, "\nnew findings (not in baseline):");
            for (key, over, members) in &self.delta.new {
                let _ = writeln!(
                    out,
                    "  {} {} `{}`: {} over baseline; occurrences:",
                    key.0, key.1, key.2, over
                );
                for f in members {
                    let _ = writeln!(out, "    {}:{} {}", f.file, f.line, f.message);
                }
            }
        }
        if !self.delta.improved.is_empty() {
            let _ = writeln!(
                out,
                "\n{} baseline entr(ies) improved — consider --update-baseline",
                self.delta.improved.len()
            );
        }
        out
    }

    /// Render the machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let finding_node = |f: &Finding| {
            Value::Object(vec![
                ("rule".into(), Value::Str(f.rule.as_str().into())),
                ("file".into(), Value::Str(f.file.clone())),
                ("line".into(), Value::UInt(f.line as u64)),
                ("token".into(), Value::Str(f.token.clone())),
                ("message".into(), Value::Str(f.message.clone())),
            ])
        };
        let per_rule: Vec<Value> = Rule::all()
            .into_iter()
            .map(|r| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(r.as_str().into())),
                    (
                        "count".into(),
                        Value::UInt(self.findings_for(r).count() as u64),
                    ),
                ])
            })
            .collect();
        let new: Vec<Value> = self
            .delta
            .new
            .iter()
            .flat_map(|(_, _, members)| members.iter().map(finding_node))
            .collect();
        let doc = Value::Object(vec![
            (
                "summary".into(),
                Value::Object(vec![
                    (
                        "files_scanned".into(),
                        Value::UInt(self.files_scanned as u64),
                    ),
                    ("total".into(), Value::UInt(self.findings.len() as u64)),
                    (
                        "beyond_baseline".into(),
                        Value::UInt(self.delta.new_count()),
                    ),
                    ("clean".into(), Value::Bool(self.is_clean())),
                    ("by_rule".into(), Value::Array(per_rule)),
                ]),
            ),
            ("new".into(), Value::Array(new)),
            (
                "findings".into(),
                Value::Array(self.findings.iter().map(finding_node).collect()),
            ),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }
}

fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Everything one scan of the workspace produces, before any baseline
/// comparison.
#[derive(Debug)]
pub struct Analysis {
    /// Every family's findings, sorted in (rule, file, line, token)
    /// order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Scan the workspace under `root`, run the three families and
/// produce all findings.
pub fn analyze(root: &Path) -> Result<Analysis> {
    let sources = scan::collect_sources(root)
        .map_err(|e| Error::Io(format!("scanning {}: {e}", root.display())))?;
    if sources.is_empty() {
        return Err(Error::Config(format!(
            "no Rust sources found under {} — wrong --root?",
            root.display()
        )));
    }
    Ok(analyze_sources(&sources))
}

/// Run every analysis wave over an already-collected source set.
///
/// Split out from [`analyze`] so the mutation engine ([`mutgen`]) can
/// re-run all three families against in-memory mutated sources
/// without touching the filesystem.
pub fn analyze_sources(sources: &[SourceFile]) -> Analysis {
    let trees = items::build(sources);
    let graph = callgraph::Graph::build(sources, &trees);
    let mut findings = callgraph::panic_reachability(sources, &trees, &graph);
    findings.extend(consts::analyze(sources));
    findings.extend(absint::analyze(sources, &trees));
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.token).cmp(&(b.rule, &b.file, b.line, &b.token))
    });
    Analysis {
        findings,
        files_scanned: sources.len(),
    }
}

/// Scan the workspace under `root` and produce all findings.
pub fn collect_findings(root: &Path) -> Result<(Vec<Finding>, usize)> {
    let analysis = analyze(root)?;
    Ok((analysis.findings, analysis.files_scanned))
}

/// Scan and compare against a baseline in one step.
///
/// This is the library entry point behind the CLI — the doctest below
/// is the workspace's self-scan, the same check `./scripts/check.sh`
/// runs:
///
/// ```
/// use ff_lint::{default_baseline_path, default_root, Baseline};
///
/// let root = default_root();
/// let baseline = Baseline::load(&default_baseline_path(&root)).unwrap();
/// let report = ff_lint::run(&root, &baseline).unwrap();
///
/// assert!(report.files_scanned > 50, "scanned {}", report.files_scanned);
/// // All three families ran; nothing beyond the accepted ratchet.
/// assert!(report.delta.new.is_empty(), "{:?}", report.delta.new);
/// ```
pub fn run(root: &Path, baseline: &Baseline) -> Result<Report> {
    let analysis = analyze(root)?;
    let delta = baseline.compare(&analysis.findings);
    Ok(Report {
        findings: analysis.findings,
        delta,
        files_scanned: analysis.files_scanned,
    })
}

/// The workspace root this crate was built in (ff-lint lives at
/// `crates/ff-lint`).
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed baseline path for a workspace root.
pub fn default_baseline_path(root: &Path) -> std::path::PathBuf {
    root.join("crates/ff-lint/baseline.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_scan_finds_sources_and_is_deterministic() {
        let root = default_root();
        let (a, n) = collect_findings(&root).expect("scan ok");
        let (b, _) = collect_findings(&root).expect("scan ok");
        assert!(n > 20, "expected a real workspace, scanned {n} files");
        assert_eq!(a, b, "two scans of the same tree must agree");
    }

    #[test]
    fn report_renders_both_formats() {
        let root = default_root();
        let analysis = analyze(&root).expect("scan ok");
        let baseline = Baseline::from_findings(&analysis.findings);
        let delta = baseline.compare(&analysis.findings);
        let report = Report {
            findings: analysis.findings,
            delta,
            files_scanned: analysis.files_scanned,
        };
        assert!(report.is_clean());
        let table = report.to_table();
        assert!(table.contains("beyond baseline"));
        let json = report.to_json();
        let doc = ff_base::json::Value::parse(&json).expect("valid json");
        assert_eq!(
            doc.get("summary").and_then(|s| s.get("clean")),
            Some(&ff_base::json::Value::Bool(true))
        );
    }
}
