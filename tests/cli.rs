//! End-to-end tests of the `flexsim` command-line driver.

use std::process::Command;

fn flexsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexsim"))
}

#[test]
fn help_prints_usage() {
    let out = flexsim().arg("--help").output().expect("spawn flexsim");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--workload"));
    assert!(text.contains("--policy"));
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = flexsim().arg("--bogus").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"));
}

#[test]
fn small_run_reports_every_policy() {
    let out = flexsim()
        .args(["--workload", "xmms", "--policy", "all"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "FlexFetch",
        "FlexFetch-static",
        "BlueFS",
        "Disk-only",
        "WNIC-only",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn artefacts_round_trip_through_the_cli() {
    let dir = std::env::temp_dir().join("flexsim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("t.trace");
    let profile_path = dir.join("p.json");
    let report_path = dir.join("r.md");
    let out = flexsim()
        .args([
            "--workload",
            "grep",
            "--policy",
            "flexfetch",
            "--save-trace",
            trace_path.to_str().unwrap(),
            "--save-profile",
            profile_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
            "--decisions",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The dumped artefacts parse with the library.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = flexfetch::trace::strace::from_str(&text).unwrap();
    assert_eq!(trace.files.len(), 1332);
    let profile = flexfetch::profile::Profile::load(&profile_path).unwrap();
    assert!(!profile.is_empty());
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(report.contains("# flexsim report"));
    assert!(report.contains("## FlexFetch"));
    assert!(report.contains("Decision timeline"));
}

#[test]
fn environment_flags_change_results() {
    let run = |extra: &[&str]| -> String {
        let mut cmd = flexsim();
        cmd.args(["--workload", "xmms", "--policy", "wnic"]);
        cmd.args(extra);
        let out = cmd.output().expect("spawn");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let fast = run(&[]);
    let slow = run(&["--bandwidth-mbps", "1"]);
    assert_ne!(fast, slow, "bandwidth flag had no effect");
}

#[test]
fn hoard_budget_prints_the_plan() {
    let out = flexsim()
        .args([
            "--workload",
            "xmms",
            "--policy",
            "flexfetch",
            "--hoard-budget-mb",
            "10",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hoard:"), "{text}");
    assert!(text.contains("server-only"));
}

#[test]
fn overflowing_hoard_budget_is_a_usage_error() {
    let out = flexsim()
        .args([
            "--workload",
            "xmms",
            "--policy",
            "disk",
            "--hoard-budget-mb",
            "18446744073710",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("overflows"));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("hoard:"));
}

#[test]
fn overflowing_stage_length_is_a_usage_error() {
    // One second past the microsecond clock's range, and u64::MAX.
    for secs in ["18446744073710", "18446744073709551615"] {
        let out = flexsim()
            .args(["--workload", "grep", "--policy", "flexfetch"])
            .args(["--stage-secs", secs])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--stage-secs {secs}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--stage-secs") && err.contains("overflows"),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "no run on a wrapped stage length");
    }
}

#[test]
fn overflowing_latency_is_a_usage_error() {
    for ms in ["18446744073709552", "18446744073709551615"] {
        let out = flexsim()
            .args(["--workload", "xmms", "--policy", "wnic"])
            .args(["--latency-ms", ms])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--latency-ms {ms}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--latency-ms") && err.contains("overflows"),
            "{err}"
        );
    }
}

#[test]
fn durations_past_the_horizon_are_a_config_error() {
    for (policy, flag, value, field) in [
        ("wnic", "--latency-ms", "18446744073709551", "wnic.latency"),
        ("wnic", "--latency-ms", "9223372036854", "wnic.latency"),
        ("disk", "--stage-secs", "18446744073709", "stage_len"),
    ] {
        let out = flexsim()
            .args(["--workload", "grep", "--policy", policy, flag, value])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(field) && err.contains("9007199254740992 us horizon"),
            "{flag} {value}: {err}"
        );
        assert_eq!(
            err.matches("invalid configuration:").count(),
            1,
            "{flag} {value}: {err}"
        );
        // No header for a run that never happened.
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn largest_seed_has_a_prior_run() {
    // The prior-run profile comes from the next seed, which wraps to 0.
    let out = flexsim()
        .args(["--workload", "grep", "--policy", "flexfetch"])
        .args(["--seed", "18446744073709551615"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("seed 18446744073709551615"), "{text}");
    assert!(text.contains("FlexFetch"), "{text}");
}

#[test]
fn loss_rate_outside_unit_interval_is_a_usage_error() {
    for rate in ["NaN", "-3", "inf", "1.5"] {
        let out = flexsim()
            .args([
                "--workload",
                "xmms",
                "--policy",
                "disk",
                "--loss-rate",
                rate,
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--loss-rate {rate}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--loss-rate"));
    }
}

#[test]
fn link_rate_below_the_floor_is_a_config_error() {
    for mbps in ["1e-300", "1e-12"] {
        let out = flexsim()
            .args([
                "--workload",
                "grep",
                "--policy",
                "wnic",
                "--bandwidth-mbps",
                mbps,
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "--bandwidth-mbps {mbps}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("at least 0.001 Mbit/s"), "{mbps}: {err}");
    }
}

#[test]
fn unwritable_output_paths_fail_without_panicking() {
    let dir = std::env::temp_dir().join("flexsim-cli-missing-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("out");
    let path = path.to_str().unwrap();
    for flag in ["--save-trace", "--save-profile", "--report"] {
        let out = flexsim()
            .args(["--workload", "xmms", "--policy", "disk", flag, path])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("write"), "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
}

#[test]
fn merged_recipe_builds_and_runs() {
    let out = flexsim()
        .args(["--workload", "grep+make+xmms", "--policy", "disk"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Disk-only"), "{text}");
}
