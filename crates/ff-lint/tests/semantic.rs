//! Semantic-layer integration tests: the fixtures under `tests/fixtures/`
//! are copied into synthetic workspace-shaped trees and analysed through
//! the library API, with golden assertions on the findings.
//!
//! The fixtures are plain `.rs` text that is scanned, never compiled, so
//! each one can focus on a single defect without carrying a full crate.

use ff_lint::{analyze, Finding, Rule};
use std::path::PathBuf;

const PANIC_REACH: &str = include_str!("fixtures/panic_reach.rs");

fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-semantic-{name}"));
    for (rel, contents) in files {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, contents).expect("write");
    }
    dir
}

fn findings_for(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn panic_reaching_pub_fn_is_reported() {
    let dir = temp_tree("panic-reach", &[("crates/ff-sim/src/lib.rs", PANIC_REACH)]);
    let analysis = analyze(&dir).expect("analyze");
    let reach = findings_for(&analysis.findings, Rule::PanicReach);

    assert_eq!(
        reach.iter().map(|f| f.token.as_str()).collect::<Vec<_>>(),
        ["api_entry"],
        "only the pub fn whose helper unwraps is panic-reaching"
    );
    assert!(
        reach[0].message.contains("deep_helper"),
        "the report must name the path to the panic site: {}",
        reach[0].message
    );
}
