//! End-to-end determinism: two identical `flexsim` invocations must
//! produce byte-identical output.
//!
//! This is the behavioural counterpart of clippy's `disallowed_types`
//! (`clippy.toml`, enforced by `tests/lint.rs`): the static pass forbids
//! wall-clock time and hash maps in the workspace's library code, and
//! the simulation takes its randomness only from seeded RNGs; this test
//! observes the payoff at the process boundary. Any regression — a `HashMap` iteration order
//! leaking into a report, an unseeded RNG — shows up as a byte diff.

use std::process::Command;

fn run_flexsim(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_flexsim"))
        .args(args)
        .output()
        .expect("spawn flexsim");
    assert!(
        out.status.success(),
        "flexsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn identical_invocations_are_byte_identical() {
    let args = [
        "--workload",
        "make",
        "--policy",
        "all",
        "--seed",
        "42",
        "--decisions",
    ];
    let first = run_flexsim(&args);
    let second = run_flexsim(&args);
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "two runs with the same seed diverged — nondeterminism in the simulator"
    );
}

#[test]
fn different_seeds_actually_change_the_workload() {
    let a = run_flexsim(&["--workload", "make", "--policy", "flexfetch", "--seed", "1"]);
    let b = run_flexsim(&["--workload", "make", "--policy", "flexfetch", "--seed", "2"]);
    assert_ne!(a, b, "the seed must reach the workload generator");
}
