//! The `ffbench` driver end to end: its registry, its usage errors, and
//! the committed artifacts its quick commands reproduce byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ffbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ffbench"))
        .args(args)
        .output()
        .expect("ffbench runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every command the driver must keep: the old binaries (bar the
/// deleted `debug_probe`) plus `list` and `all`.
const EXPECTED: [&str; 23] = [
    "list",
    "all",
    "tables",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "figures_svg",
    "ablation",
    "extensions",
    "spindown",
    "evolution",
    "design_space",
    "regret",
    "robustness",
    "trace_stats",
    "powertrace",
    "benchsim",
    "benchpar",
    "benchfaults",
    "observe",
    "chaostrace",
];

#[test]
fn list_prints_every_command_once() {
    let out = ffbench(&["list"]);
    assert!(out.status.success());
    let names: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
        .collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate names: {names:?}");
    assert_eq!(names, EXPECTED);
}

fn assert_usage_error(args: &[&str]) {
    let out = ffbench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: ffbench"), "{args:?}: {err}");
    for name in EXPECTED {
        assert!(err.contains(name), "{args:?}: usage does not name {name}");
    }
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn unknown_command_exits_2_with_usage() {
    assert_usage_error(&["debug_probe"]);
    assert_usage_error(&["nethack"]);
    assert_usage_error(&[]);
}

#[test]
fn a_flag_the_command_does_not_take_exits_2_with_usage() {
    assert_usage_error(&["tables", "--seed", "7"]);
    assert_usage_error(&["chaostrace", "--jobs", "2"]);
    assert_usage_error(&["powertrace", "--policy", "disk"]);
    assert_usage_error(&["benchsim", "--seed"]);
    assert_usage_error(&["benchsim", "--jobs", "many"]);
    assert_usage_error(&["observe", "--workload", "grep"]);
    assert_usage_error(&["list", "--out", "x"]);
}

#[test]
fn quick_commands_reproduce_the_committed_results() {
    for (cmd, file) in [
        ("tables", "tables.txt"),
        ("trace_stats", "trace_stats.txt"),
        ("spindown", "spindown.txt"),
        ("powertrace", "powertrace_mplayer_flexfetch.csv"),
    ] {
        let out = ffbench(&[cmd]);
        assert!(out.status.success(), "{cmd} failed");
        assert!(
            stdout(&out) == committed(file),
            "{cmd} differs from results/{file}"
        );
    }
}
