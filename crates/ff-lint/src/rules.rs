//! The shared [`Rule`] / [`Finding`] types and the token helpers the
//! analyses use.
//!
//! Every family emits [`Finding`]s keyed by `(rule, file, token)`. Line
//! numbers are reported for humans but are *not* part of the baseline
//! key, so moving code around does not churn the ratchet — only adding
//! an occurrence of a token to a file does.

use std::fmt;

/// Rule family identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Public APIs of the simulation crates that can transitively reach
    /// a panic site through the workspace call graph.
    PanicReach,
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
            Rule::PanicReach => "panic-reachability",
            Rule::ConstProvenance => "const-provenance",
            Rule::ArithSafety => "arith-safety",
        }
    }

    /// All families, in report order.
    pub fn all() -> [Rule; 3] {
        [Rule::PanicReach, Rule::ConstProvenance, Rule::ArithSafety]
    }

    /// SARIF severity level for the family.
    ///
    /// Families whose findings falsify the model (a reachable panic, a
    /// provably-wrong range) export as `error`; constant drift exports
    /// as `warning`.
    pub fn severity(self) -> &'static str {
        match self {
            Rule::PanicReach | Rule::ArithSafety => "error",
            Rule::ConstProvenance => "warning",
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

/// Occurrences of `token` in a line of code. Tokens like `.unwrap()`
/// carry their own punctuation boundaries; a macro token (`panic!`)
/// must also not be the tail of a longer identifier (`my_panic!`).
pub(crate) fn count_occurrences(haystack: &str, token: &str) -> usize {
    let bytes = haystack.as_bytes();
    let is_macro = token.ends_with('!');
    haystack
        .match_indices(token)
        .filter(|&(pos, _)| {
            !is_macro
                || pos == 0
                || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_')
        })
        .count()
}
