//! Tier-1 gate: the ff-lint static-analysis pass over this workspace.
//!
//! These tests pin the contract the repository makes about itself:
//!
//! * the tree is clean against the committed ratchet baseline,
//! * the determinism rule family has **zero** findings (no baselined
//!   debt, no new ones) in the simulation crates,
//! * a seeded violation — e.g. a `thread_rng()` call appearing in
//!   `ff-sim` — is caught and fails the run.

use ff_lint::{Baseline, Rule};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn committed_baseline(root: &Path) -> Baseline {
    Baseline::load(&ff_lint::default_baseline_path(root)).expect("baseline.json loads")
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
fn determinism_family_is_fully_burned_down() {
    let root = workspace_root();
    // No accepted debt in the baseline…
    let baseline = committed_baseline(&root);
    assert_eq!(
        baseline.keys_for_rule(Rule::Determinism).count(),
        0,
        "the determinism family must have an empty baseline"
    );
    // …and no findings in the tree either.
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let determinism: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::Determinism)
        .collect();
    assert!(
        determinism.is_empty(),
        "wall-clock/ambient-RNG/unordered-iteration findings in simulation crates: \
         {determinism:?}"
    );
}

#[test]
fn panic_safety_family_is_fully_burned_down() {
    // The fault-injection work burned the last `unwrap()`/`expect()`
    // debt out of non-test library code; this gate keeps the family at
    // zero — empty in the baseline AND empty in the tree — so any new
    // panic site in lib code fails tier-1 instead of ratcheting.
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    assert!(
        baseline.is_empty_for(Rule::PanicSafety),
        "the panic-safety family must have an empty baseline"
    );
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicSafety)
        .collect();
    assert!(
        hits.is_empty(),
        "unwrap/expect/panic! in library code: {hits:?}"
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

/// Materialise a minimal fake workspace containing one seeded violation.
fn seeded_violation_tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-seed-{name}"));
    let src = dir.join("crates/ff-sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn jitter() -> u64 {\n    let mut rng = rand::thread_rng();\n    rng.gen()\n}\n",
    )
    .expect("write seed file");
    dir
}

#[test]
fn seeded_thread_rng_violation_is_caught() {
    let dir = seeded_violation_tree("api");
    let (findings, _) = ff_lint::collect_findings(&dir).expect("scan succeeds");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.token == "thread_rng"),
        "expected a determinism finding, got: {findings:?}"
    );
    // Against the committed (empty-for-determinism) baseline semantics,
    // that violation must fail the run.
    let delta = Baseline::empty().compare(&findings);
    assert!(!delta.is_clean());
}

/// Run the real binary through `cargo run -p ff-lint`, from the
/// workspace so the invocation matches what scripts/check.sh does.
fn run_ff_lint(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO"))
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
    assert_eq!(by_rule.len(), 8, "expected eight rule families: {text}");
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
        "ff-lint accepted a thread_rng() call in ff-sim:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("thread_rng"), "missing finding in: {text}");
}
