//! Constant-provenance analysis.
//!
//! The paper's Table 1/Table 2 calibration values live in exactly one
//! place: `crates/ff-device/src/consts.rs`. This pass keeps that true
//! from both directions:
//!
//! * **shadowing** — any numeric literal in the audited crates
//!   (`ff-device`, `ff-policy`, `ff-sim`) that appears in a
//!   physical-constant position (`Watts(…)`, `Joules(…)`,
//!   `Dur::from_millis(…)`, `Dur::from_secs(…)`, bandwidth
//!   constructors) and equals a canonical value is a finding — the call
//!   site must cite `ff_device::consts` instead of repeating the number;
//! * **drift** — the registry below pins every canonical value; if the
//!   `consts.rs` module disagrees with it (or loses a constant), that is
//!   a finding too, so neither side can move alone.
//!
//! Deliberately *not* audited: values too generic to attribute (1 ms
//! latency, 2 ms short-seek settle) and bare counts (`1500` bytes,
//! `2048` blocks), which carry no constructor context. Test code and
//! the registry module itself are exempt.

use crate::rules::{call_args, parse_num, Finding, Rule};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// Path of the single-source-of-truth module, workspace-relative.
pub const REGISTRY_PATH: &str = "crates/ff-device/src/consts.rs";

/// Crates whose library code may not shadow a canonical constant.
pub const AUDITED_CRATES: [&str; 3] = ["ff-device", "ff-policy", "ff-sim"];

/// Dimension of a canonical constant, which decides the constructor
/// contexts a shadowing literal can appear in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Power in watts — `Watts(…)`.
    Watts,
    /// Energy in joules — `Joules(…)`.
    Joules,
    /// Duration in milliseconds — `Dur::from_millis(…)` (and the
    /// seconds constructors at 1/1000 scale).
    Ms,
    /// Duration in seconds — `Dur::from_secs(…)` / `from_secs_f64(…)`
    /// (and the millis constructor at 1000× scale).
    Secs,
    /// Link bandwidth in Mbit/s — `from_mbit_per_sec(…)`.
    Mbps,
    /// Transfer bandwidth in MB/s — `from_mb_per_sec(…)`.
    MbPerSec,
    /// A bare count (bytes, blocks) with no constructor context; pinned
    /// against drift but not literal-matched.
    Count,
}

/// One canonical constant: registry name, dimension, raw value in the
/// unit named by the suffix, and whether literals are matched against
/// it (`false` for values too generic to attribute).
struct Canon {
    name: &'static str,
    kind: Kind,
    value: f64,
    audited: bool,
}

const fn canon(name: &'static str, kind: Kind, value: f64, audited: bool) -> Canon {
    Canon {
        name,
        kind,
        value,
        audited,
    }
}

/// The pinned Table 1 / Table 2 registry, mirroring
/// `ff_device::consts` (§3.1 of the paper).
const REGISTRY: [Canon; 28] = [
    // Table 1 — Hitachi DK23DA.
    canon("DISK_ACTIVE_POWER_W", Kind::Watts, 2.0, true),
    canon("DISK_IDLE_POWER_W", Kind::Watts, 1.6, true),
    canon("DISK_STANDBY_POWER_W", Kind::Watts, 0.15, true),
    canon("DISK_SPINUP_ENERGY_J", Kind::Joules, 5.0, true),
    canon("DISK_SPINDOWN_ENERGY_J", Kind::Joules, 2.94, true),
    canon("DISK_SPINUP_TIME_MS", Kind::Ms, 1_600.0, true),
    canon("DISK_SPINDOWN_TIME_MS", Kind::Ms, 2_300.0, true),
    canon("DISK_TIMEOUT_S", Kind::Secs, 20.0, true),
    canon("DISK_SEEK_MS", Kind::Ms, 13.0, true),
    canon("DISK_ROTATION_MS", Kind::Ms, 7.0, true),
    canon("DISK_BANDWIDTH_MB_S", Kind::MbPerSec, 35.0, true),
    canon("DISK_SHORT_SEEK_MS", Kind::Ms, 2.0, false),
    canon("DISK_SHORT_SEEK_BLOCKS", Kind::Count, 2_048.0, false),
    // Table 2 — Cisco Aironet 350.
    canon("WNIC_PSM_IDLE_W", Kind::Watts, 0.39, true),
    canon("WNIC_PSM_RECV_W", Kind::Watts, 1.42, true),
    canon("WNIC_PSM_SEND_W", Kind::Watts, 2.48, true),
    canon("WNIC_CAM_IDLE_W", Kind::Watts, 1.41, true),
    canon("WNIC_CAM_RECV_W", Kind::Watts, 2.61, true),
    canon("WNIC_CAM_SEND_W", Kind::Watts, 3.69, true),
    canon("WNIC_TO_PSM_TIME_MS", Kind::Ms, 410.0, true),
    canon("WNIC_TO_PSM_ENERGY_J", Kind::Joules, 0.53, true),
    canon("WNIC_TO_CAM_TIME_MS", Kind::Ms, 400.0, true),
    canon("WNIC_TO_CAM_ENERGY_J", Kind::Joules, 0.51, true),
    canon("WNIC_PSM_TIMEOUT_MS", Kind::Ms, 800.0, true),
    canon("WNIC_BANDWIDTH_MBPS", Kind::Mbps, 11.0, true),
    canon("WNIC_LATENCY_MS", Kind::Ms, 1.0, false),
    canon("WNIC_PSM_PACKET_BYTES", Kind::Count, 1_500.0, false),
    canon("WNIC_BEACON_INTERVAL_MS", Kind::Ms, 100.0, true),
];

fn registry() -> impl Iterator<Item = &'static Canon> {
    REGISTRY.iter()
}

/// Constructor contexts a shadowing literal can hide in, with the
/// dimension each implies. Longer needles first so `from_secs_f64(`
/// wins over `from_secs(`.
const CONTEXTS: [(&str, Kind); 7] = [
    ("Dur::from_secs_f64(", Kind::Secs),
    ("Dur::from_millis(", Kind::Ms),
    ("Dur::from_secs(", Kind::Secs),
    ("from_mbit_per_sec(", Kind::Mbps),
    ("from_mb_per_sec(", Kind::MbPerSec),
    ("Watts(", Kind::Watts),
    ("Joules(", Kind::Joules),
];

/// Extract `pub const NAME: ty = value;` bindings from the registry
/// module, raw (unit-suffix) values. Used both here and by
/// [`crate::absint`] to seed its constant environment.
pub(crate) fn const_table(sources: &[SourceFile]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(file) = sources.iter().find(|f| f.rel_path == REGISTRY_PATH) else {
        return out;
    };
    for line in &file.lines {
        let code = line.code.trim();
        let Some(rest) = code.strip_prefix("pub const ") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once(':') else {
            continue;
        };
        let Some((_, value)) = rest.split_once('=') else {
            continue;
        };
        if let Some(v) = parse_num(value.trim().trim_end_matches(';')) {
            out.insert(name.trim().to_owned(), v);
        }
    }
    out
}

/// Does canonical `c` equal literal `v` seen in a `ctx`-kind position?
/// Duration constants match across the ms/s constructors at the right
/// scale; everything else must agree in both kind and value.
fn matches(c: &Canon, ctx: Kind, v: f64) -> bool {
    let canonical_in_ctx = match (c.kind, ctx) {
        (Kind::Ms, Kind::Ms) | (Kind::Secs, Kind::Secs) => c.value,
        (Kind::Ms, Kind::Secs) => c.value / 1e3,
        (Kind::Secs, Kind::Ms) => c.value * 1e3,
        (a, b) if a == b => c.value,
        _ => return false,
    };
    (canonical_in_ctx - v).abs() < 1e-9
}

/// Run the provenance pass: literal shadowing over the audited crates,
/// plus registry-drift when the ff-device crate is in scope.
pub fn analyze(sources: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();

    for file in sources {
        if !AUDITED_CRATES.contains(&file.crate_name.as_str()) || file.rel_path == REGISTRY_PATH {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for &(needle, ctx) in &CONTEXTS {
                for arg in call_args(&line.code, needle) {
                    let Some(v) = parse_num(&arg) else { continue };
                    if let Some(c) = registry().find(|c| c.audited && matches(c, ctx, v)) {
                        out.push(Finding {
                            rule: Rule::ConstProvenance,
                            file: file.rel_path.clone(),
                            line: idx + 1,
                            token: format!("shadow:{}", c.name),
                            message: format!(
                                "literal {arg} in `{needle}…)` duplicates \
                                 ff_device::consts::{}; cite the constant instead",
                                c.name
                            ),
                        });
                    }
                }
            }
        }
    }

    // Drift check — only meaningful when the audited device crate is in
    // the scanned tree at all (synthetic single-crate trees skip it).
    if sources.iter().any(|f| f.crate_name == "ff-device") {
        let table = const_table(sources);
        if table.is_empty() {
            out.push(Finding {
                rule: Rule::ConstProvenance,
                file: REGISTRY_PATH.to_owned(),
                line: 1,
                token: "registry-missing".to_owned(),
                message: "ff-device is present but its consts.rs registry module is \
                          missing or empty"
                    .to_owned(),
            });
        } else {
            for c in registry() {
                match table.get(c.name) {
                    None => out.push(Finding {
                        rule: Rule::ConstProvenance,
                        file: REGISTRY_PATH.to_owned(),
                        line: 1,
                        token: format!("registry-missing:{}", c.name),
                        message: format!(
                            "canonical constant {} is pinned by ff-lint but absent \
                             from ff_device::consts",
                            c.name
                        ),
                    }),
                    Some(&v) if (v - c.value).abs() > 1e-9 => out.push(Finding {
                        rule: Rule::ConstProvenance,
                        file: REGISTRY_PATH.to_owned(),
                        line: 1,
                        token: format!("registry-drift:{}", c.name),
                        message: format!(
                            "ff_device::consts::{} = {v} but the paper pins {} — \
                             update both sides deliberately or revert",
                            c.name, c.value
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    /// The committed registry fixture used by the clean-path tests.
    const REGISTRY_SRC: &str = include_str!("../../ff-device/src/consts.rs");

    fn file(rel_path: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.to_owned(),
            lines: preprocess(src),
        }
    }

    fn tokens(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.token.as_str()).collect()
    }

    #[test]
    fn committed_registry_matches_the_pinned_values() {
        let sources = [file(REGISTRY_PATH, "ff-device", REGISTRY_SRC)];
        let f = analyze(&sources);
        assert!(f.is_empty(), "registry drifted from the lint pins: {f:?}");
    }

    #[test]
    fn shadowing_literal_is_flagged_with_its_canonical_name() {
        let sources = [
            file(REGISTRY_PATH, "ff-device", REGISTRY_SRC),
            file(
                "crates/ff-policy/src/x.rs",
                "ff-policy",
                "fn f() -> Joules { Joules(2.94) }\n",
            ),
        ];
        let f = analyze(&sources);
        assert_eq!(tokens(&f), ["shadow:DISK_SPINDOWN_ENERGY_J"], "{f:?}");
    }

    #[test]
    fn duration_shadowing_matches_across_scales() {
        // 20 s disk timeout written as 20_000 ms still shadows it.
        let sources = [
            file(REGISTRY_PATH, "ff-device", REGISTRY_SRC),
            file(
                "crates/ff-sim/src/x.rs",
                "ff-sim",
                "fn f() -> Dur { Dur::from_millis(20_000) }\n",
            ),
        ];
        let f = analyze(&sources);
        assert_eq!(tokens(&f), ["shadow:DISK_TIMEOUT_S"], "{f:?}");
    }

    #[test]
    fn citing_the_constant_is_clean() {
        let sources = [
            file(REGISTRY_PATH, "ff-device", REGISTRY_SRC),
            file(
                "crates/ff-sim/src/x.rs",
                "ff-sim",
                "fn f() -> Dur { Dur::from_secs(ff_device::consts::DISK_TIMEOUT_S) }\n",
            ),
        ];
        assert!(analyze(&sources).is_empty());
    }

    #[test]
    fn generic_values_and_foreign_crates_are_exempt() {
        let sources = [
            file(REGISTRY_PATH, "ff-device", REGISTRY_SRC),
            // 1 ms is too generic to attribute; ff-bench is not audited.
            file(
                "crates/ff-sim/src/x.rs",
                "ff-sim",
                "fn f() -> Dur { Dur::from_millis(1) }\n",
            ),
            file(
                "crates/ff-bench/src/x.rs",
                "ff-bench",
                "fn g() -> Watts { Watts(2.0) }\n",
            ),
        ];
        assert!(analyze(&sources).is_empty());
    }

    #[test]
    fn drifted_registry_value_is_flagged() {
        let drifted = REGISTRY_SRC.replace(
            "pub const WNIC_PSM_TIMEOUT_MS: u64 = 800;",
            "pub const WNIC_PSM_TIMEOUT_MS: u64 = 900;",
        );
        assert_ne!(drifted, REGISTRY_SRC, "replacement must hit");
        let sources = [file(REGISTRY_PATH, "ff-device", &drifted)];
        let f = analyze(&sources);
        assert_eq!(tokens(&f), ["registry-drift:WNIC_PSM_TIMEOUT_MS"], "{f:?}");
    }

    #[test]
    fn missing_registry_module_is_flagged_when_ff_device_present() {
        let sources = [file(
            "crates/ff-device/src/disk.rs",
            "ff-device",
            "pub fn f() {}\n",
        )];
        let f = analyze(&sources);
        assert_eq!(tokens(&f), ["registry-missing"], "{f:?}");
    }
}
