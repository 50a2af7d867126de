//! Automated mutation engine — the linter's regression net.
//!
//! Earlier revisions kept a directory of handcrafted "mutation twin"
//! fixtures: for every rule family, a deliberately-broken copy of some
//! workspace idiom that the family had to flag. Those twins rotted —
//! they drifted from the real sources they mirrored, and adding a
//! family meant hand-writing new broken code.
//!
//! This module replaces them with *generated* mutants of the actual
//! workspace sources. A fixed probe table ([`probes`]) pins, for each
//! rule family, a real source location and a semantic mutation:
//!
//! - **operator-flip** — a checked or saturating operation replaced by
//!   a raw operator or cast;
//! - **constant-perturbation** — a Table 1/2 registry constant nudged
//!   off its pinned value;
//! - **guard-removal** — a guard discipline broken (a debug assertion
//!   turned into a panic, a slice index in a pub API, a divisor's
//!   zero floor dropped).
//!
//! Each mutant is applied **in memory**: the file's raw text is edited
//! at a needle occurrence (fixed, or derived from the seed when several
//! occurrences exist), re-preprocessed, and the full three-family
//! analysis re-runs against the mutated source set. Mutants are never
//! compiled — the lint is the system under test, not the compiler. A
//! mutant is *killed* when the families the probe aims at all report
//! new findings relative to a self-baseline of the clean tree.
//!
//! The per-family kill matrix serialises to `results/lint-killscore.json`
//! and is ratcheted: [`KillMatrix::floor_violations`] lists every family
//! whose kill rate fell below its recorded floor (currently 1.0 across
//! the board), and tier-1 tests, `scripts/check.sh` and CI fail on any
//! violation. The tests also require every family to be the *only*
//! one firing on at least one mutant: a family that never kills a
//! probe on its own is redundant with the others. Same seed ⇒
//! byte-identical mutant set and matrix.

use crate::baseline::Baseline;
use crate::rules::{count_occurrences, Rule};
use crate::scan;
use ff_base::json::Value;
use ff_base::{Error, Result};
use std::collections::BTreeSet;
use std::path::Path;

/// Seed used by the committed kill-score runs (tests, check.sh, CI).
pub const DEFAULT_SEED: u64 = 0x00F1EE;

/// Ratcheted minimum kill rate per family. Every family currently
/// kills all of its probes; lowering a floor requires editing this
/// table in the same commit that explains why.
pub const FLOORS: [(Rule, f64); 3] = [
    (Rule::PanicReach, 1.0),
    (Rule::ConstProvenance, 1.0),
    (Rule::ArithSafety, 1.0),
];

/// Mutation strategy, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutKind {
    /// An arithmetic/comparison operator or clamp flipped or removed.
    OperatorFlip,
    /// A pinned registry constant nudged off its Table 1/2 value.
    ConstPerturb,
    /// A guard discipline broken (debug assertion, slice index,
    /// zero-floor divisor guard).
    GuardRemoval,
}

impl MutKind {
    /// Stable string id for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            MutKind::OperatorFlip => "operator-flip",
            MutKind::ConstPerturb => "constant-perturbation",
            MutKind::GuardRemoval => "guard-removal",
        }
    }
}

/// Which needle occurrence a probe edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// The n-th occurrence (1-based) — used where only a specific site
    /// exercises the aimed family.
    Fixed(usize),
    /// Seed-derived choice among all occurrences — used where every
    /// occurrence is an equally valid mutation site.
    Auto,
}

/// One pinned mutation site.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Stable id (JSON key, also folded into the occurrence stream).
    pub id: &'static str,
    /// Strategy bucket.
    pub kind: MutKind,
    /// Workspace-relative file to mutate.
    pub file: &'static str,
    /// Text to replace (must occur in the file; the engine errors on a
    /// stale needle rather than silently passing).
    pub needle: &'static str,
    /// Replacement text. Mutants are analysed, never compiled, so the
    /// replacement only has to be plausible source text.
    pub replacement: &'static str,
    /// Which occurrence to edit.
    pub occurrence: Occurrence,
    /// Families this mutant must be killed by.
    pub aimed: &'static [Rule],
}

/// The probe table: every family appears in at least one `aimed` set.
pub fn probes() -> Vec<Probe> {
    vec![
        Probe {
            id: "debug-assert-to-panic",
            kind: MutKind::GuardRemoval,
            file: "crates/ff-sim/src/battery.rs",
            needle: "debug_assert!(total > 0.0);",
            replacement: "if total <= 0.0 { panic!(\"zero draw\"); }",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::PanicReach],
        },
        Probe {
            id: "slice-index-in-pub-api",
            kind: MutKind::GuardRemoval,
            file: "crates/ff-sim/src/battery.rs",
            needle: "self.capacity_wh * 3600.0",
            replacement: "self.capacity_wh[0] * 3600.0",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::PanicReach],
        },
        Probe {
            id: "standby-power-bump",
            kind: MutKind::ConstPerturb,
            file: "crates/ff-device/src/consts.rs",
            needle: "pub const DISK_STANDBY_POWER_W: f64 = 0.15;",
            replacement: "pub const DISK_STANDBY_POWER_W: f64 = 5.15;",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::ConstProvenance],
        },
        Probe {
            id: "beacon-interval-drift",
            kind: MutKind::ConstPerturb,
            file: "crates/ff-device/src/consts.rs",
            needle: "pub const WNIC_BEACON_INTERVAL_MS: u64 = 100;",
            replacement: "pub const WNIC_BEACON_INTERVAL_MS: u64 = 250;",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::ConstProvenance],
        },
        Probe {
            id: "divisor-floor-to-zero",
            kind: MutKind::GuardRemoval,
            file: "crates/ff-trace/src/analysis.rs",
            needle: "trace.len().max(1)",
            replacement: "trace.len().max(0)",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::ArithSafety],
        },
        Probe {
            id: "unchecked-float-trunc",
            kind: MutKind::OperatorFlip,
            file: "crates/ff-bench/src/sweep.rs",
            needle: "checked::f64_to_u64(b * 1000.0)",
            replacement: "(b * 1000.0) as u64",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::ArithSafety],
        },
        Probe {
            id: "unchecked-counter-sum",
            kind: MutKind::OperatorFlip,
            file: "crates/ff-sim/src/sim/stage.rs",
            needle: "disk_bytes.saturating_add(wnic_bytes)",
            replacement: "disk_bytes + wnic_bytes",
            occurrence: Occurrence::Fixed(1),
            aimed: &[Rule::ArithSafety],
        },
    ]
}

/// Outcome of one applied mutant.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Probe id.
    pub id: String,
    /// Strategy bucket.
    pub kind: MutKind,
    /// File mutated.
    pub file: String,
    /// 1-based occurrence actually edited.
    pub occurrence: usize,
    /// Families the probe aims at.
    pub aimed: Vec<Rule>,
    /// Families that reported new findings on the mutant.
    pub fired: Vec<Rule>,
    /// True when every aimed family fired.
    pub killed: bool,
}

/// Per-family kill score.
#[derive(Debug, Clone)]
pub struct FamilyScore {
    /// The family.
    pub rule: Rule,
    /// Probes aiming at it.
    pub probes: u64,
    /// Probes whose mutant it killed.
    pub kills: u64,
    /// Ratcheted minimum rate.
    pub floor: f64,
}

impl FamilyScore {
    /// Kill rate in `[0, 1]`; a family with no probes scores zero so a
    /// probe-table regression is loud, not silently perfect.
    pub fn rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.kills as f64 / self.probes as f64
        }
    }
}

/// The full kill-score matrix of one engine run.
#[derive(Debug, Clone)]
pub struct KillMatrix {
    /// Seed the occurrence choices were derived from.
    pub seed: u64,
    /// Every mutant, in probe-table order.
    pub mutants: Vec<MutantOutcome>,
    /// Per-family scores, in [`Rule::all`] order.
    pub families: Vec<FamilyScore>,
}

impl KillMatrix {
    /// Families whose kill rate fell below the recorded floor — the
    /// ratchet CI and tier-1 tests enforce.
    pub fn floor_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for fam in &self.families {
            if fam.rate() < fam.floor {
                out.push(format!(
                    "{}: kill rate {:.2} below recorded floor {:.2} \
                     ({}/{} probes killed)",
                    fam.rule,
                    fam.rate(),
                    fam.floor,
                    fam.kills,
                    fam.probes
                ));
            }
        }
        out
    }

    /// Serialise the matrix (pretty JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let rules_arr = |rules: &[Rule]| {
            Value::Array(
                rules
                    .iter()
                    .map(|r| Value::Str(r.as_str().into()))
                    .collect(),
            )
        };
        let mutants: Vec<Value> = self
            .mutants
            .iter()
            .map(|m| {
                Value::Object(vec![
                    ("id".into(), Value::Str(m.id.clone())),
                    ("kind".into(), Value::Str(m.kind.as_str().into())),
                    ("file".into(), Value::Str(m.file.clone())),
                    ("occurrence".into(), Value::UInt(m.occurrence as u64)),
                    ("aimed".into(), rules_arr(&m.aimed)),
                    ("fired".into(), rules_arr(&m.fired)),
                    ("killed".into(), Value::Bool(m.killed)),
                ])
            })
            .collect();
        let families: Vec<Value> = self
            .families
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(f.rule.as_str().into())),
                    ("probes".into(), Value::UInt(f.probes)),
                    ("kills".into(), Value::UInt(f.kills)),
                    ("rate".into(), Value::Float(f.rate())),
                    ("floor".into(), Value::Float(f.floor)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("seed".into(), Value::UInt(self.seed)),
            ("mutants".into(), Value::Array(mutants)),
            ("families".into(), Value::Array(families)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }
}

/// splitmix64 — the deterministic occurrence stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed + probe id → occurrence stream value.
fn probe_stream(seed: u64, id: &str) -> u64 {
    let mut acc = seed;
    for b in id.bytes() {
        acc = mix(acc ^ u64::from(b));
    }
    mix(acc)
}

/// Replace the `occ`-th (1-based) occurrence of `needle` in `text`.
fn replace_occurrence(text: &str, needle: &str, occ: usize, replacement: &str) -> Option<String> {
    let mut seen = 0usize;
    let mut search = 0usize;
    while let Some(rel) = text.get(search..).and_then(|t| t.find(needle)) {
        let pos = search + rel;
        seen += 1;
        if seen == occ {
            let mut out = String::with_capacity(text.len() + replacement.len());
            out.push_str(text.get(..pos)?);
            out.push_str(replacement);
            out.push_str(text.get(pos + needle.len()..)?);
            return Some(out);
        }
        search = pos + needle.len();
    }
    None
}

/// Run the engine: apply every probe to the clean tree, re-analyse
/// in memory, and score kills against a self-baseline.
pub fn run(root: &Path, seed: u64) -> Result<KillMatrix> {
    let sources = scan::collect_sources(root)
        .map_err(|e| Error::Io(format!("scanning {}: {e}", root.display())))?;
    let clean = crate::analyze_sources(&sources);
    let self_base = Baseline::from_findings(&clean.findings);
    let mut mutants = Vec::new();
    for probe in probes() {
        let Some(src_idx) = sources.iter().position(|s| s.rel_path == probe.file) else {
            return Err(Error::Config(format!(
                "mutation probe `{}`: file {} not in scanned set",
                probe.id, probe.file
            )));
        };
        let text = std::fs::read_to_string(root.join(probe.file))
            .map_err(|e| Error::Io(format!("reading {}: {e}", probe.file)))?;
        let total = count_occurrences(&text, probe.needle);
        if total == 0 {
            return Err(Error::Config(format!(
                "mutation probe `{}`: needle `{}` no longer occurs in {} — \
                 the probe table is stale",
                probe.id, probe.needle, probe.file
            )));
        }
        let occ = match probe.occurrence {
            Occurrence::Fixed(n) if n >= 1 && n <= total => n,
            Occurrence::Fixed(n) => {
                return Err(Error::Config(format!(
                    "mutation probe `{}`: occurrence {n} out of range (1..={total})",
                    probe.id
                )));
            }
            Occurrence::Auto => 1 + (probe_stream(seed, probe.id) as usize) % total,
        };
        let Some(mutated) = replace_occurrence(&text, probe.needle, occ, probe.replacement) else {
            return Err(Error::Internal(format!(
                "mutation probe `{}`: replacement failed",
                probe.id
            )));
        };
        let mut mutated_sources = sources.clone();
        if let Some(slot) = mutated_sources.get_mut(src_idx) {
            slot.lines = scan::preprocess(&mutated);
        }
        let analysis = crate::analyze_sources(&mutated_sources);
        let delta = self_base.compare(&analysis.findings);
        let fired: BTreeSet<Rule> = delta
            .new
            .iter()
            .flat_map(|(_, _, members)| members.iter().map(|f| f.rule))
            .collect();
        let killed = probe.aimed.iter().all(|r| fired.contains(r));
        mutants.push(MutantOutcome {
            id: probe.id.to_owned(),
            kind: probe.kind,
            file: probe.file.to_owned(),
            occurrence: occ,
            aimed: probe.aimed.to_vec(),
            fired: fired.into_iter().collect(),
            killed,
        });
    }
    let families = Rule::all()
        .into_iter()
        .map(|rule| {
            let aimed_at: Vec<&MutantOutcome> =
                mutants.iter().filter(|m| m.aimed.contains(&rule)).collect();
            let kills = aimed_at.iter().filter(|m| m.fired.contains(&rule)).count() as u64;
            let floor = FLOORS
                .iter()
                .find(|(r, _)| *r == rule)
                .map(|(_, f)| *f)
                .unwrap_or(1.0);
            FamilyScore {
                rule,
                probes: aimed_at.len() as u64,
                kills,
                floor,
            }
        })
        .collect();
    Ok(KillMatrix {
        seed,
        mutants,
        families,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_a_probe_and_a_floor() {
        let table = probes();
        for rule in Rule::all() {
            assert!(
                table.iter().any(|p| p.aimed.contains(&rule)),
                "no probe aims at {rule}"
            );
            assert!(
                FLOORS.iter().any(|(r, _)| *r == rule),
                "no recorded floor for {rule}"
            );
        }
        let mut ids: Vec<&str> = table.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), table.len(), "probe ids must be unique");
    }

    #[test]
    fn occurrence_stream_is_deterministic() {
        assert_eq!(probe_stream(1, "a"), probe_stream(1, "a"));
        assert_ne!(probe_stream(1, "a"), probe_stream(2, "a"));
        assert_ne!(probe_stream(1, "a"), probe_stream(1, "b"));
    }

    #[test]
    fn replace_occurrence_targets_the_right_site() {
        let text = "x + y + z";
        assert_eq!(
            replace_occurrence(text, "+", 2, "-").as_deref(),
            Some("x + y - z")
        );
        assert_eq!(replace_occurrence(text, "+", 3, "-"), None);
        assert_eq!(replace_occurrence(text, "??", 1, "-"), None);
    }
}
