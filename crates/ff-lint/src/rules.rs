//! The per-line rule families and the shared [`Rule`] / [`Finding`] types.
//!
//! Every rule emits [`Finding`]s keyed by `(rule, file, token)`. Line
//! numbers are reported for humans but are *not* part of the baseline
//! key, so moving code around does not churn the ratchet — only adding
//! an occurrence of a token to a file does.

use crate::scan::{FileKind, SourceFile};
use std::fmt;

/// Rule family identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock time, ambient RNG and unordered-map iteration in
    /// simulation crates.
    Determinism,
    /// `unwrap`/`expect`/`panic!`-family calls in library code.
    PanicSafety,
    /// Public APIs of the simulation crates that can transitively reach
    /// a panic site through the workspace call graph.
    PanicReach,
    /// Raw `as` numeric casts and `f64`-seconds leakage in device/sim
    /// hot paths where ff-base newtypes exist.
    UnitSafety,
    /// `==`/`!=` against float literals.
    FloatEq,
    /// Work-marker inventory and lint-suppression audit.
    Hygiene,
    /// Numeric literals that shadow a canonical Table 1/Table 2 constant
    /// instead of citing `ff_device::consts`, and drift between that
    /// module and the lint's pinned registry.
    ConstProvenance,
    /// Interval-proven arithmetic safety: division-by-zero freedom,
    /// lossy `as` casts the inferred range cannot justify, and
    /// unchecked `+`/`*` on `_bytes`/`_us` counters where saturating or
    /// `ff_base::checked` alternatives exist.
    ArithSafety,
}

impl Rule {
    /// Stable string id (used in baselines and JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic-safety",
            Rule::PanicReach => "panic-reachability",
            Rule::UnitSafety => "unit-safety",
            Rule::FloatEq => "float-eq",
            Rule::Hygiene => "hygiene",
            Rule::ConstProvenance => "const-provenance",
            Rule::ArithSafety => "arith-safety",
        }
    }

    /// All families, in report order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::Determinism,
            Rule::PanicSafety,
            Rule::PanicReach,
            Rule::UnitSafety,
            Rule::FloatEq,
            Rule::Hygiene,
            Rule::ConstProvenance,
            Rule::ArithSafety,
        ]
    }

    /// Parse a stable id back into a rule.
    pub fn from_str_id(s: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.as_str() == s)
    }

    /// SARIF severity level for the family.
    ///
    /// Families whose findings falsify the model (a panic, a broken
    /// invariant, a provably-wrong range) export as `error`; style and
    /// drift families export as `warning`; the inventory family as
    /// `note`.
    pub fn severity(self) -> &'static str {
        match self {
            Rule::PanicSafety | Rule::PanicReach | Rule::ArithSafety => "error",
            Rule::Hygiene => "note",
            _ => "warning",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule family.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The matched token (baseline key component).
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates whose library code must be deterministic: simulation state may
/// only come from `ff_base::rng` (seeded) and simulated `ff_base::time`.
/// `ff-base` itself hosts those wrappers; `ff-trace` replays recorded
/// traces; neither holds live simulation state.
pub const DETERMINISM_CRATES: [&str; 5] =
    ["ff-sim", "ff-device", "ff-cache", "ff-policy", "ff-profile"];

/// Crates whose hot paths must keep quantities in ff-base newtypes.
const UNIT_CRATES: [&str; 2] = ["ff-device", "ff-sim"];

const DETERMINISM_TOKENS: [(&str, &str); 5] = [
    (
        "Instant",
        "wall-clock time in simulation code; use ff_base::SimTime",
    ),
    (
        "SystemTime",
        "wall-clock time in simulation code; use ff_base::SimTime",
    ),
    (
        "thread_rng",
        "ambient OS-seeded RNG; use ff_base::seeded_rng",
    ),
    (
        "HashMap",
        "iteration order is randomized per-process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is randomized per-process; use BTreeSet",
    ),
];

const PANIC_TOKENS: [(&str, &str); 5] = [
    (".unwrap()", "library code must propagate errors, not abort"),
    // The quote disambiguates `Option::expect("msg")` from unrelated
    // methods named `expect` (e.g. a parser's `expect(b'{')`).
    (
        ".expect(\"",
        "library code must propagate errors, not abort",
    ),
    ("panic!", "library code must propagate errors, not abort"),
    (
        "unreachable!",
        "prefer a typed error or debug_assert over aborting",
    ),
    ("todo!", "unfinished code path in library code"),
];

const CAST_TOKENS: [&str; 8] = [
    "as f64", "as f32", "as u64", "as u32", "as usize", "as i64", "as i32", "as u8",
];

/// Run every rule over the scanned sources.
pub fn run_all(sources: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in sources {
        determinism(file, &mut findings);
        panic_safety(file, &mut findings);
        unit_safety(file, &mut findings);
        float_eq(file, &mut findings);
        hygiene(file, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.token).cmp(&(b.rule, &b.file, b.line, &b.token))
    });
    findings
}

/// Rule 1: determinism.
fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for &(token, why) in &DETERMINISM_TOKENS {
            for _ in 0..count_word(&line.code, token) {
                out.push(Finding {
                    rule: Rule::Determinism,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    token: token.to_owned(),
                    message: why.to_owned(),
                });
            }
        }
    }
}

/// Rule 2: panic-safety.
fn panic_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for &(token, why) in &PANIC_TOKENS {
            let n = if token.ends_with('!') {
                count_word(&line.code, token)
            } else {
                count_substr(&line.code, token)
            };
            for _ in 0..n {
                out.push(Finding {
                    rule: Rule::PanicSafety,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    token: token.to_owned(),
                    message: why.to_owned(),
                });
            }
        }
    }
}

/// Rule 3: unit-safety.
fn unit_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || !UNIT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in CAST_TOKENS {
            for _ in 0..count_word(&line.code, token) {
                out.push(Finding {
                    rule: Rule::UnitSafety,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    token: token.to_owned(),
                    message: "raw numeric cast in a hot path; prefer ff-base newtype \
                              constructors/accessors"
                        .to_owned(),
                });
            }
        }
        for _ in 0..count_word(&line.code, "as_secs_f64") {
            // Unwrapping a Dur to f64 seconds is fine at an energy
            // integration boundary but flagged so new arithmetic on raw
            // seconds is a conscious decision.
            out.push(Finding {
                rule: Rule::UnitSafety,
                file: file.rel_path.clone(),
                line: idx + 1,
                token: "as_secs_f64".to_owned(),
                message: "raw f64-seconds arithmetic; keep durations in Dur where possible"
                    .to_owned(),
            });
        }
    }
}

/// Rule 4: float equality.
fn float_eq(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Test {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let bytes = code.as_bytes();
        let mut search = 0;
        while let Some(rel) = code[search..].find(['=', '!']) {
            let pos = search + rel;
            search = pos + 1;
            if pos + 1 >= bytes.len() || bytes[pos + 1] != b'=' {
                continue;
            }
            let op = &code[pos..pos + 2];
            if op == "==" {
                // Skip <=, >=, != tails and == run-ons.
                if pos > 0 && matches!(bytes[pos - 1], b'<' | b'>' | b'!' | b'=') {
                    continue;
                }
                if pos + 2 < bytes.len() && bytes[pos + 2] == b'=' {
                    continue;
                }
            } else if op != "!=" {
                continue;
            }
            let left = token_before(code, pos);
            let right = token_after(code, pos + 2);
            if is_floatish(left) || is_floatish(right) {
                out.push(Finding {
                    rule: Rule::FloatEq,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    token: format!("{op} {}", if is_floatish(right) { right } else { left }),
                    message: "float equality comparison; compare with a tolerance or \
                              total_cmp"
                        .to_owned(),
                });
            }
            search = pos + 2;
        }
    }
}

/// Rule 5: hygiene — open-work markers (comments) and `#[allow(` (code).
fn hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        for marker in ["TODO", "FIXME"] {
            for _ in 0..count_word(&line.comment, marker) {
                out.push(Finding {
                    rule: Rule::Hygiene,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    token: marker.to_owned(),
                    message: "open work marker; resolve or track in ROADMAP.md".to_owned(),
                });
            }
        }
        for _ in 0..count_substr(&line.code, "#[allow(") {
            out.push(Finding {
                rule: Rule::Hygiene,
                file: file.rel_path.clone(),
                line: idx + 1,
                token: "#[allow]".to_owned(),
                message: "lint suppression; justify in a comment or remove".to_owned(),
            });
        }
    }
}

/// Parse a numeric literal, tolerating `_` separators and type suffixes.
pub(crate) fn parse_num(s: &str) -> Option<f64> {
    let cleaned: String = s
        .trim()
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .chars()
        .filter(|&c| c != '_')
        .collect();
    if cleaned.is_empty()
        || !cleaned
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == '+')
    {
        return None;
    }
    cleaned.parse().ok()
}

/// Literal first arguments of each `needle`-call on the line.
pub(crate) fn call_args(code: &str, needle: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(rel) = code[search..].find(needle) {
        let start = search + rel + needle.len();
        let rest = &code[start..];
        let end = rest.find([')', ',']).unwrap_or(rest.len());
        out.push(rest[..end].trim().to_owned());
        search = start;
    }
    out
}

// ---------------------------------------------------------------------
// Token matching helpers
// ---------------------------------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Occurrences of `token` with identifier boundaries on both sides.
fn count_word(haystack: &str, token: &str) -> usize {
    let hb = haystack.as_bytes();
    let first = token.as_bytes().first().copied().unwrap_or(b' ');
    let last = token.as_bytes().last().copied().unwrap_or(b' ');
    let mut n = 0;
    let mut search = 0;
    while let Some(rel) = haystack[search..].find(token) {
        let pos = search + rel;
        let before_ok = pos == 0 || !is_ident_char(hb[pos - 1]) || !is_ident_char(first);
        let after = pos + token.len();
        let after_ok = after >= hb.len() || !is_ident_char(hb[after]) || !is_ident_char(last);
        if before_ok && after_ok {
            n += 1;
        }
        search = pos + token.len();
    }
    n
}

/// Count occurrences the same way panic-safety does: word-boundary
/// match for macro-style `…!` tokens, plain substring otherwise (those
/// tokens carry their own punctuation boundaries, like `.unwrap()`).
pub(crate) fn count_occurrences(haystack: &str, token: &str) -> usize {
    if token.ends_with('!') {
        count_word(haystack, token)
    } else {
        count_substr(haystack, token)
    }
}

/// Plain substring occurrences (for tokens that carry their own
/// punctuation boundaries, like `.unwrap()`).
fn count_substr(haystack: &str, token: &str) -> usize {
    let mut n = 0;
    let mut search = 0;
    while let Some(rel) = haystack[search..].find(token) {
        n += 1;
        search = search + rel + token.len();
    }
    n
}

/// The expression-ish token immediately left of byte `pos`.
fn token_before(code: &str, pos: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (is_ident_char(bytes[start - 1]) || bytes[start - 1] == b'.') {
        start -= 1;
    }
    &code[start..end]
}

/// The expression-ish token immediately right of byte `pos`.
fn token_after(code: &str, pos: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len()
        && (is_ident_char(bytes[end]) || bytes[end] == b'.' || bytes[end] == b'-')
    {
        end += 1;
    }
    &code[start..end]
}

/// Does the token look like a float literal (`1.5`, `2.`, `1e-3`, `1f64`)?
fn is_floatish(tok: &str) -> bool {
    let t = tok.trim_start_matches('-');
    if t.is_empty() || !t.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    let t = t.trim_end_matches("f64").trim_end_matches("f32");
    let has_dot = t.contains('.');
    let has_exp = t.contains(['e', 'E']) && !t.contains("0x");
    let is_float_suffix = t.len() < tok.trim_start_matches('-').len();
    (has_dot || has_exp || is_float_suffix)
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn file(path: &str, crate_name: &str, kind: FileKind, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            crate_name: crate_name.to_owned(),
            kind,
            lines: preprocess(src),
        }
    }

    #[test]
    fn determinism_flags_hash_collections_in_sim_crates() {
        let f = file(
            "crates/ff-sim/src/x.rs",
            "ff-sim",
            FileKind::Lib,
            "use std::collections::HashMap;\nlet r = thread_rng();\n",
        );
        let mut out = Vec::new();
        determinism(&f, &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["HashMap", "thread_rng"]);
    }

    #[test]
    fn determinism_ignores_other_crates_and_tests() {
        let base = file(
            "crates/ff-base/src/x.rs",
            "ff-base",
            FileKind::Lib,
            "use std::collections::HashMap;\n",
        );
        let test_scope = file(
            "crates/ff-sim/src/x.rs",
            "ff-sim",
            FileKind::Lib,
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n",
        );
        let mut out = Vec::new();
        determinism(&base, &mut out);
        determinism(&test_scope, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_safety_spares_unwrap_or_variants() {
        let f = file(
            "crates/ff-base/src/x.rs",
            "ff-base",
            FileKind::Lib,
            "a.unwrap_or(0);\nb.unwrap();\nc.expect_err(\"no\");\nd.expect(\"msg\");\np.expect(b'{');\n",
        );
        let mut out = Vec::new();
        panic_safety(&f, &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, [".unwrap()", ".expect(\""]);
    }

    #[test]
    fn panic_safety_skips_bins() {
        let f = file(
            "src/bin/x.rs",
            "flexfetch-repro",
            FileKind::Bin,
            "a.unwrap();\n",
        );
        let mut out = Vec::new();
        panic_safety(&f, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let f = file(
            "crates/ff-base/src/x.rs",
            "ff-base",
            FileKind::Lib,
            "if x == 1.0 { }\nif n == 1 { }\nif 0.5 != y { }\nif a <= 1.0 { }\n",
        );
        let mut out = Vec::new();
        float_eq(&f, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].line, 1);
        assert_eq!(out[1].line, 3);
    }

    #[test]
    fn hygiene_counts_markers_and_allows() {
        let f = file(
            "crates/ff-base/src/x.rs",
            "ff-base",
            FileKind::Lib,
            "// TODO: tighten\n#[allow(dead_code)]\nfn f() {}\n",
        );
        let mut out = Vec::new();
        hygiene(&f, &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["TODO", "#[allow]"]);
    }

    #[test]
    fn unit_safety_flags_casts_in_device_code() {
        let f = file(
            "crates/ff-device/src/x.rs",
            "ff-device",
            FileKind::Lib,
            "let x = n as f64;\nlet t = d.as_secs_f64();\nlet ok = Watts(2.0);\n",
        );
        let mut out = Vec::new();
        unit_safety(&f, &mut out);
        let tokens: Vec<&str> = out.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["as f64", "as_secs_f64"]);
    }
}
