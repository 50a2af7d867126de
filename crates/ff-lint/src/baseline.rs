//! The ratchet baseline.
//!
//! A baseline is a committed inventory of accepted findings, keyed by
//! `(rule, file, token)` with an occurrence count. The lint run fails
//! only when a key's current count *exceeds* its baselined count (a new
//! or reintroduced finding); counts may only go down, and
//! `--update-baseline` re-records the current state after a clean-up.
//!
//! Line numbers are deliberately not part of the key so that unrelated
//! edits above a finding do not churn the file.

use crate::rules::{Finding, Rule};
use ff_base::json::Value;
use ff_base::{Error, Result};
use std::collections::BTreeMap;
use std::path::Path;

/// Baseline key: rule id, workspace-relative file, matched token.
pub type Key = (String, String, String);

/// Committed inventory of accepted findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<Key, u64>,
}

/// The comparison of a fresh scan against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Findings beyond the baselined count, grouped by key. For a key
    /// with baseline `b` and current count `c > b`, all `c` current
    /// occurrences are listed (the lint cannot know which are "new"),
    /// with the overshoot recorded alongside.
    pub new: Vec<(Key, u64, Vec<Finding>)>,
    /// Keys whose current count dropped below the baseline (candidates
    /// for `--update-baseline`).
    pub improved: Vec<(Key, u64, u64)>,
}

impl Delta {
    /// Does the scan introduce anything the baseline does not accept?
    pub fn is_clean(&self) -> bool {
        self.new.is_empty()
    }

    /// Total overshoot across all keys.
    pub fn new_count(&self) -> u64 {
        self.new.iter().map(|(_, over, _)| over).sum()
    }
}

/// Aggregate findings into baseline counts.
pub fn count_findings(findings: &[Finding]) -> BTreeMap<Key, u64> {
    let mut counts: BTreeMap<Key, u64> = BTreeMap::new();
    for f in findings {
        *counts
            .entry((f.rule.as_str().to_owned(), f.file.clone(), f.token.clone()))
            .or_insert(0) += 1;
    }
    counts
}

impl Baseline {
    /// Empty baseline: every finding is new.
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Build a baseline accepting exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Self {
        Baseline {
            entries: count_findings(findings),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accepted count for a key (0 when absent).
    pub fn allowed(&self, key: &Key) -> u64 {
        self.entries.get(key).copied().unwrap_or(0)
    }

    /// Keys for one rule family (empty iterator = family fully clean).
    pub fn keys_for_rule(&self, rule: Rule) -> impl Iterator<Item = &Key> {
        self.entries
            .keys()
            .filter(move |(r, _, _)| r == rule.as_str())
    }

    /// True when a family has no accepted debt at all — the pinned-at-
    /// zero state the tier-1 gate asserts for the semantic families.
    pub fn is_empty_for(&self, rule: Rule) -> bool {
        self.keys_for_rule(rule).next().is_none()
    }

    /// Load from a JSON file written by [`Baseline::to_json`].
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Io(format!("reading baseline {}: {e}", path.display())))?;
        Baseline::parse(&text)
    }

    /// Parse the JSON document form.
    pub fn parse(text: &str) -> Result<Self> {
        let doc = Value::parse(text)?;
        let entries_node = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::Parse {
                line: 0,
                msg: "baseline document has no `entries` array".into(),
            })?;
        let mut entries = BTreeMap::new();
        for item in entries_node {
            let field = |name: &str| -> Result<String> {
                item.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| Error::Parse {
                        line: 0,
                        msg: format!("baseline entry missing string field `{name}`"),
                    })
            };
            let count = item
                .get("count")
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::Parse {
                    line: 0,
                    msg: "baseline entry missing `count`".into(),
                })?;
            // A zero count is an empty family entry: it accepts
            // nothing and only adds diff noise, so it is dropped on
            // load exactly as `to_json` drops it on write — loading
            // and re-serialising a baseline is idempotent.
            if count == 0 {
                continue;
            }
            entries.insert((field("rule")?, field("file")?, field("token")?), count);
        }
        Ok(Baseline { entries })
    }

    /// Serialise to the committed JSON form: entries sorted by
    /// `(rule, file, token)` (the `BTreeMap` order), zero-count
    /// entries dropped, so regenerating an unchanged tree is
    /// byte-identical and regenerated baselines diff cleanly.
    pub fn to_json(&self) -> String {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .filter(|(_, count)| **count > 0)
            .map(|((rule, file, token), count)| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(rule.clone())),
                    ("file".into(), Value::Str(file.clone())),
                    ("token".into(), Value::Str(token.clone())),
                    ("count".into(), Value::UInt(*count)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("version".into(), Value::UInt(1)),
            ("entries".into(), Value::Array(entries)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }

    /// Compare a fresh scan against this baseline.
    pub fn compare(&self, findings: &[Finding]) -> Delta {
        let counts = count_findings(findings);
        let mut delta = Delta::default();
        for (key, &count) in &counts {
            let allowed = self.allowed(key);
            if count > allowed {
                let members: Vec<Finding> = findings
                    .iter()
                    .filter(|f| f.rule.as_str() == key.0 && f.file == key.1 && f.token == key.2)
                    .cloned()
                    .collect();
                delta.new.push((key.clone(), count - allowed, members));
            }
        }
        for (key, &allowed) in &self.entries {
            let current = counts.get(key).copied().unwrap_or(0);
            if current < allowed {
                delta.improved.push((key.clone(), allowed, current));
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str, token: &str, line: usize) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            token: token.to_owned(),
            message: String::new(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let fs = [
            finding(Rule::PanicReach, "a.rs", "Disk::service", 3),
            finding(Rule::PanicReach, "a.rs", "Disk::service", 9),
            finding(Rule::ArithSafety, "b.rs", "div", 1),
        ];
        let b = Baseline::from_findings(&fs);
        let text = b.to_json();
        let back = Baseline::parse(&text).expect("parses");
        assert_eq!(back, b);
        assert_eq!(
            back.allowed(&(
                "panic-reachability".into(),
                "a.rs".into(),
                "Disk::service".into()
            )),
            2
        );
    }

    #[test]
    fn equal_counts_are_clean_and_fewer_is_improved() {
        let fs = [
            finding(Rule::PanicReach, "a.rs", "Disk::service", 3),
            finding(Rule::PanicReach, "a.rs", "Disk::service", 9),
        ];
        let b = Baseline::from_findings(&fs);
        assert!(b.compare(&fs).is_clean());
        let d = b.compare(&fs[..1]);
        assert!(d.is_clean());
        assert_eq!(d.improved.len(), 1);
    }

    #[test]
    fn overshoot_is_flagged_with_all_occurrences() {
        let base = [finding(Rule::PanicReach, "a.rs", "Disk::service", 3)];
        let b = Baseline::from_findings(&base);
        let now = [
            finding(Rule::PanicReach, "a.rs", "Disk::service", 3),
            finding(Rule::PanicReach, "a.rs", "Disk::service", 40),
        ];
        let d = b.compare(&now);
        assert!(!d.is_clean());
        assert_eq!(d.new_count(), 1);
        assert_eq!(d.new[0].2.len(), 2, "all occurrences listed for context");
    }

    #[test]
    fn unknown_key_is_new_against_empty_baseline() {
        let b = Baseline::empty();
        let now = [finding(
            Rule::PanicReach,
            "crates/ff-sim/src/x.rs",
            "Simulation::run",
            1,
        )];
        assert!(!b.compare(&now).is_clean());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"entries\": [{\"rule\": \"x\"}]}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn zero_count_entries_are_dropped_on_load_and_write() {
        let text = "{\"version\": 1, \"entries\": [\
            {\"rule\": \"const-provenance\", \"file\": \"b.rs\", \"token\": \"0.15\", \"count\": 1},\
            {\"rule\": \"arith-safety\", \"file\": \"a.rs\", \"token\": \"div\", \"count\": 0}\
        ]}";
        let b = Baseline::parse(text).expect("parses");
        assert_eq!(b.len(), 1, "the empty family entry must be dropped");
        assert!(!b.to_json().contains("\"arith-safety\""));
    }

    #[test]
    fn double_regeneration_is_byte_identical() {
        // The --update-baseline contract: serialise, parse, serialise
        // again — the two documents must match byte for byte, so a
        // regenerated baseline never churns the committed file.
        let fs = [
            finding(Rule::ArithSafety, "z.rs", "div", 1),
            finding(Rule::PanicReach, "a.rs", "Disk::service", 3),
            finding(Rule::PanicReach, "a.rs", "Disk::service", 9),
            finding(Rule::ConstProvenance, "m.rs", "0.15", 2),
        ];
        let first = Baseline::from_findings(&fs).to_json();
        let second = Baseline::parse(&first).expect("parses").to_json();
        assert_eq!(first, second);
    }
}
