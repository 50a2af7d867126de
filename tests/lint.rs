//! Tier-1 gate: clippy and ff-lint over this workspace.
//!
//! These tests pin the contract the repository makes about itself:
//!
//! * clippy, at the levels in the workspace `Cargo.toml` and
//!   `clippy.toml`, finds nothing in the library and binary code of the
//!   root package and the `ff-*` crates (no wall clock, ambient RNG or
//!   hash map in simulation code; no `unwrap`/`expect`/`panic!`; no raw
//!   cast or f64-seconds read in the device and sim hot paths without a
//!   reasoned `#[expect]`; no exact float comparison), and no target,
//!   tests included, carries an `#[allow]` without a reason;
//! * ff-lint's three families are clean against the committed ratchet
//!   baseline;
//! * a seeded violation (a pub `ff-sim` API reaching an `unwrap()`)
//!   fails the ff-lint CLI.

use ff_lint::{Baseline, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn committed_baseline(root: &Path) -> Baseline {
    Baseline::load(&ff_lint::default_baseline_path(root)).expect("baseline.json loads")
}

/// `cargo clippy --offline --no-deps <targets> -p flexfetch -p ff-… -- <levels>`
/// over the root package and every crate under `crates/`. The vendored
/// shims are left out: `--no-deps` never lints them.
fn clippy(targets: &[&str], levels: &[&str]) {
    let root = workspace_root();
    let crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| {
            e.expect("crates/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(&root)
        .args(["clippy", "--offline", "--no-deps", "--quiet"])
        .args(targets)
        .args(["-p", "flexfetch"]);
    for name in &crates {
        cmd.args(["-p", name]);
    }
    let out = cmd
        .arg("--")
        .args(levels)
        .output()
        .expect("spawn cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy {targets:?} -- {levels:?} failed (is the clippy component installed?):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn clippy_passes_with_warnings_denied() {
    // Library and binary code: every workspace level, warnings denied.
    clippy(&["--lib", "--bins"], &["-D", "warnings"]);
    // Every target, tests included: an `#[allow]` must say why.
    clippy(
        &["--all-targets"],
        &[
            "-A",
            "warnings",
            "-D",
            "clippy::allow_attributes_without_reason",
        ],
    );
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    let report = ff_lint::run(&root, &baseline).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "new findings beyond crates/ff-lint/baseline.json:\n{}",
        report.to_table()
    );
}

#[test]
fn semantic_families_are_pinned_at_zero() {
    // Constant provenance (the DK23DA / Aironet 350 tables pinned value
    // by value) and arithmetic safety started life with no accepted
    // debt, and this gate keeps it that way: empty in the baseline AND
    // empty in the tree, so any regression fails tier-1 rather than
    // ratcheting.
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    for rule in [Rule::ConstProvenance, Rule::ArithSafety] {
        assert!(
            baseline.is_empty_for(rule),
            "the {} family must have an empty baseline",
            rule.as_str()
        );
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        assert!(hits.is_empty(), "{} findings: {hits:?}", rule.as_str());
    }
}

/// Materialise a minimal fake workspace whose one public simulation
/// API can reach a panic.
fn seeded_violation_tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-seed-{name}"));
    let src = dir.join("crates/ff-sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn first_gap(gaps: Option<u64>) -> u64 {\n    gaps.unwrap()\n}\n",
    )
    .expect("write seed file");
    dir
}

/// Run the real binary through `cargo run -p ff-lint`, from the
/// workspace so the invocation matches what scripts/check.sh does.
fn run_ff_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "-q", "-p", "ff-lint", "--"])
        .args(args)
        .output()
        .expect("spawn cargo run -p ff-lint")
}

#[test]
fn cli_exits_zero_on_the_clean_workspace() {
    let out = run_ff_lint(&["--json"]);
    assert!(
        out.status.success(),
        "ff-lint --json failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"clean\": true"), "unexpected JSON: {text}");

    // The JSON report must carry the per-family summary, including
    // panic-reachability.
    let doc = ff_base::json::Value::parse(&text).expect("stdout is JSON");
    let by_rule = doc
        .get("summary")
        .and_then(|s| s.get("by_rule"))
        .and_then(|v| v.as_array())
        .expect("by_rule array");
    assert!(
        by_rule
            .iter()
            .any(|r| r.get("rule").and_then(|v| v.as_str()) == Some("panic-reachability")),
        "missing panic-reachability family in: {text}"
    );
    assert_eq!(by_rule.len(), 3, "expected three rule families: {text}");
}

#[test]
fn cli_writes_sarif_export() {
    let dir = std::env::temp_dir().join("ff-lint-cli-exports");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sarif_path = dir.join("lint.sarif");
    let out = run_ff_lint(&[
        "--json",
        "--sarif",
        sarif_path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "ff-lint with exports failed:\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sarif = std::fs::read_to_string(&sarif_path).expect("sarif written");
    let doc = ff_base::json::Value::parse(&sarif).expect("sarif is JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "not a SARIF 2.1.0 document: {sarif}"
    );
    assert!(
        sarif.contains("\"ff-lint\""),
        "driver name missing: {sarif}"
    );
}

#[test]
fn cli_exits_nonzero_on_a_seeded_violation() {
    let dir = seeded_violation_tree("cli");
    let out = run_ff_lint(&[
        "--json",
        "--root",
        dir.to_str().expect("utf-8 temp path"),
        "--baseline",
        dir.join("no-baseline.json")
            .to_str()
            .expect("utf-8 temp path"),
    ]);
    assert!(
        !out.status.success(),
        "ff-lint accepted a pub ff-sim API that reaches an unwrap():\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("panic-reachability") && text.contains("first_gap"),
        "missing finding in: {text}"
    );
}
