//! Numeric abstract interpretation over the item tree.
//!
//! This pass proves *value-range* properties: divisors never reach
//! zero and counters do not silently truncate. Units are not its
//! business: `ff-base`'s newtypes (`SimTime`, `Dur`, `Joules`, `Watts`,
//! `Bytes`) make mixing them a type error, and `Joules` has no
//! subtraction or negation, so an energy cannot be decremented. Nor is
//! the §3 timeout ordering: `DiskParams::break_even` computes the
//! break-even time and ff-device's tests pin it below the disk timeout
//! and above the WNIC's PSM timeout.
//!
//! The domain is a product of three components per expression:
//!
//! - a signed **interval** ([`crate::interval::Interval`]) over the
//!   extended reals,
//! - the **sign** lattice ([`crate::interval::Sign`]), kept alongside
//!   the interval so polarity survives widening,
//! - **floatiness**, a syntactic "came from float arithmetic" taint
//!   that the truncating-cast check reads.
//!
//! Abstract values are computed by a small expression evaluator over
//! the preprocessed statement text: numeric literals and the Table 1/2
//! constant environment (seeded from `ff-device::consts` via
//! [`crate::consts`]) become points, `let` bindings extend a per-
//! function environment, reassignment joins, `+=` accumulation widens
//! (the standard jump-to-infinity widening, so loops terminate in one
//! round), and function summaries are computed by a two-round
//! descending fixpoint: round one evaluates every function's return
//! expression with all calls mapped to `TOP`, round two re-evaluates
//! with round one's summaries substituted. Both rounds are sound, so
//! the tighter second round is kept. Identifiers the evaluator knows
//! nothing about are read by the workspace's suffix convention: a
//! counter (`disk_bytes`, `deadline_us`), an energy (`cost_j`,
//! `request_energy`) or a power is a non-negative quantity.
//!
//! One rule family consumes the facts, pinned at zero:
//!
//! - **arith-safety** — divisions whose divisor provably may be zero
//!   (interval contains zero, or an explicit `.max(0)` floor), lossy
//!   narrowing and float→int `as` casts that the interval cannot prove
//!   safe, and unchecked `+`/`*`/`+=` on `_bytes`/`_us` counters where
//!   `saturating_*` or the `ff_base::checked` helpers exist.

use crate::consts;
use crate::interval::{Interval, Sign};
use crate::items::{self, Item, ItemTree};
use crate::rules::{parse_num, Finding, Rule};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// Counter suffixes: byte counts and integer time at a fixed scale.
const COUNTER_SUFFIXES: [&str; 7] = ["_bytes", "_us", "_micros", "_ms", "_millis", "_s", "_secs"];

/// Does `name` end in one of `suffixes` after a non-empty stem?
fn has_suffix(name: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|suffix| {
        name.strip_suffix(suffix)
            .is_some_and(|stem| !stem.is_empty())
    })
}

/// A byte count or an integer time (`disk_bytes`, `deadline_us`).
fn is_counter_name(name: &str) -> bool {
    has_suffix(name, &COUNTER_SUFFIXES)
}

/// An energy quantity: the `_j`/`_joules` suffix, or the energy-field
/// naming convention (`energy`, `*_energy`) that suffix misses.
fn is_energy_name(name: &str) -> bool {
    has_suffix(name, &["_j", "_joules"]) || name == "energy" || name.ends_with("_energy")
}

/// Crates whose library code is held to `arith-safety`.
pub(crate) const ARITH_CRATES: [&str; 4] = ["ff-bench", "ff-profile", "ff-sim", "ff-trace"];

/// Integer cast targets that narrow from the workspace's `u64`/`usize`
/// counters; a cast to one of these must be interval-proven to fit.
const NARROW_TARGETS: [(&str, f64, f64); 6] = [
    ("i16", -32768.0, 32767.0),
    ("i32", -2147483648.0, 2147483647.0),
    ("i8", -128.0, 127.0),
    ("u16", 0.0, 65535.0),
    ("u32", 0.0, 4294967295.0),
    ("u8", 0.0, 255.0),
];

/// Integer cast targets for the float→int truncation check.
const INT_TARGETS: [&str; 10] = [
    "i16", "i32", "i64", "i8", "isize", "u16", "u32", "u64", "u8", "usize",
];

/// One value in the product domain: interval × sign × floatiness, the
/// last a syntactic "came from float arithmetic" taint used by the
/// truncating-cast check.
#[derive(Debug, Clone)]
pub(crate) struct AbsVal {
    pub(crate) iv: Interval,
    pub(crate) sign: Sign,
    pub(crate) floaty: bool,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal {
            iv: Interval::TOP,
            sign: Sign::Unknown,
            floaty: false,
        }
    }

    fn of_interval(iv: Interval) -> AbsVal {
        AbsVal {
            iv,
            sign: iv.sign(),
            floaty: false,
        }
    }

    fn point(v: f64, floaty: bool) -> AbsVal {
        let mut a = AbsVal::of_interval(Interval::point(v));
        a.floaty = floaty;
        a
    }

    /// Unknown physical quantity: counters, durations and joules in
    /// this codebase are non-negative.
    fn counter() -> AbsVal {
        AbsVal {
            iv: Interval::NON_NEG,
            sign: Sign::NonNeg,
            floaty: false,
        }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.join(other.iv),
            sign: self.sign.join(other.sign),
            floaty: self.floaty || other.floaty,
        }
    }
}

/// Keeps the stored sign at least as precise as the interval implies.
fn refine(mut v: AbsVal) -> AbsVal {
    let projected = v.iv.sign();
    if v.sign == Sign::Unknown {
        v.sign = projected;
    }
    v
}

type Env = BTreeMap<String, AbsVal>;

/// Per-name function summaries: the joined return interval of the fns
/// of that name whose interval is not `TOP`. Calls resolve by bare
/// name, so every same-named fn folds into one entry.
type Sums = BTreeMap<String, Interval>;

/// Names that abstract to "unknown but non-negative physical quantity".
fn is_nonneg_name(name: &str) -> bool {
    is_counter_name(name)
        || is_energy_name(name)
        || name.ends_with("_power")
        || name.ends_with("_w")
        || name.ends_with("_wh")
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum TK {
    Num(f64, bool),
    Ident,
    LParen,
    RParen,
    Dot,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Shl,
    As,
    Question,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: TK,
    start: usize,
    end: usize,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenise one expression slice. Positions index into `s`; only ASCII
/// bytes start tokens, so slicing at token boundaries is always valid.
fn lex(s: &str) -> Vec<Tok> {
    let b = s.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        let kind = if c == b' ' || c == b'\t' {
            i += 1;
            continue;
        } else if c.is_ascii_digit() {
            let mut floaty = false;
            while i < b.len() && (b[i].is_ascii_hexdigit() || b[i] == b'_' || b[i] == b'x') {
                i += 1;
            }
            if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                floaty = true;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
            }
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                    j += 1;
                }
                if j < b.len() && b[j].is_ascii_digit() {
                    floaty = true;
                    i = j;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let lit_end = i;
            // Type suffix (`1u64`, `2.5f64`).
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            let suffix = &s[lit_end..i];
            let floaty = floaty || suffix.starts_with('f');
            match parse_num(&s[start..lit_end]) {
                Some(v) => TK::Num(v, floaty),
                None => TK::Other,
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            // Fold `::` path segments into one ident token.
            while i + 2 < b.len()
                && b[i] == b':'
                && b[i + 1] == b':'
                && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == b'_')
            {
                i += 2;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
            }
            if &s[start..i] == "as" {
                TK::As
            } else {
                TK::Ident
            }
        } else {
            i += 1;
            match c {
                b'(' => TK::LParen,
                b')' => TK::RParen,
                b'.' => {
                    if i < b.len() && b[i] == b'.' {
                        i += 1;
                        TK::Other
                    } else {
                        TK::Dot
                    }
                }
                b',' => TK::Comma,
                b'+' => TK::Plus,
                b'-' => TK::Minus,
                b'*' => TK::Star,
                b'/' => TK::Slash,
                b'%' => TK::Percent,
                b'<' if b.get(i) == Some(&b'<') => {
                    i += 1;
                    TK::Shl
                }
                b'?' => TK::Question,
                _ => TK::Other,
            }
        };
        toks.push(Tok {
            kind,
            start,
            end: i,
        });
    }
    toks
}

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

struct Eval<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    i: usize,
    env: &'a Env,
    sums: &'a Sums,
}

impl<'a> Eval<'a> {
    fn new(src: &'a str, env: &'a Env, sums: &'a Sums) -> Eval<'a> {
        Eval {
            src,
            toks: lex(src),
            i: 0,
            env,
            sums,
        }
    }

    fn peek(&self) -> Option<Tok> {
        self.toks.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.peek();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn text(&self, t: Tok) -> &'a str {
        self.src.get(t.start..t.end).unwrap_or("")
    }

    /// Full expression: shift level (`<<` lowest handled here).
    fn expr(&mut self) -> AbsVal {
        let mut v = self.additive();
        while let Some(t) = self.peek() {
            if t.kind != TK::Shl {
                break;
            }
            self.bump();
            let rhs = self.additive();
            v = refine(AbsVal {
                iv: shl_interval(v.iv, rhs.iv),
                sign: Sign::Unknown,
                floaty: false,
            });
        }
        v
    }

    fn additive(&mut self) -> AbsVal {
        let mut v = self.term();
        while let Some(t) = self.peek() {
            let op = t.kind;
            if op != TK::Plus && op != TK::Minus {
                break;
            }
            self.bump();
            let rhs = self.term();
            v = match op {
                TK::Plus => AbsVal {
                    iv: v.iv + rhs.iv,
                    sign: v.sign + rhs.sign,
                    floaty: v.floaty || rhs.floaty,
                },
                _ => AbsVal {
                    iv: v.iv - rhs.iv,
                    sign: v.sign + -rhs.sign,
                    floaty: v.floaty || rhs.floaty,
                },
            };
            v = refine(v);
        }
        v
    }

    fn term(&mut self) -> AbsVal {
        let mut v = self.unary();
        while let Some(t) = self.peek() {
            let op = t.kind;
            if op != TK::Star && op != TK::Slash && op != TK::Percent {
                break;
            }
            self.bump();
            let rhs = self.unary();
            v = match op {
                TK::Star => refine(AbsVal {
                    iv: v.iv * rhs.iv,
                    sign: v.sign * rhs.sign,
                    floaty: v.floaty || rhs.floaty,
                }),
                TK::Slash => refine(AbsVal {
                    iv: v.iv / rhs.iv,
                    sign: Sign::Unknown,
                    floaty: v.floaty || rhs.floaty,
                }),
                _ => {
                    // `a % b` with a positive divisor is bounded by the
                    // divisor's magnitude. Counters and sizes here are
                    // unsigned, so an *unknown* dividend is treated as
                    // non-negative (the workspace convention); only a
                    // provably negative-capable dividend keeps the
                    // signed hull.
                    let iv = if rhs.iv.is_pos() && rhs.iv.hi.is_finite() {
                        if v.iv.lo >= 0.0 || v.iv.is_top() {
                            Interval::new(0.0, rhs.iv.hi)
                        } else {
                            Interval::new(-rhs.iv.hi, rhs.iv.hi)
                        }
                    } else {
                        Interval::TOP
                    };
                    refine(AbsVal {
                        iv,
                        sign: Sign::Unknown,
                        floaty: v.floaty || rhs.floaty,
                    })
                }
            };
        }
        v
    }

    fn unary(&mut self) -> AbsVal {
        if let Some(t) = self.peek() {
            if t.kind == TK::Minus {
                self.bump();
                let v = self.unary();
                return refine(AbsVal {
                    iv: -v.iv,
                    sign: -v.sign,
                    floaty: v.floaty,
                });
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> AbsVal {
        let mut v = self.primary();
        loop {
            match self.peek().map(|t| t.kind) {
                Some(TK::Question) => {
                    self.bump();
                }
                Some(TK::As) => {
                    self.bump();
                    let target = match self.peek() {
                        Some(t) if t.kind == TK::Ident => {
                            self.bump();
                            self.text(t)
                        }
                        _ => break,
                    };
                    v = apply_cast(v, target);
                }
                Some(TK::Dot) => {
                    self.bump();
                    let name = match self.peek() {
                        Some(t) if t.kind == TK::Ident => {
                            self.bump();
                            self.text(t)
                        }
                        _ => break,
                    };
                    if self.peek().map(|t| t.kind) == Some(TK::LParen) {
                        self.bump();
                        let args = self.args();
                        v = apply_method(v, name, &args);
                    } else {
                        // Field access: abstract by the field's name.
                        v = field_val(name);
                    }
                }
                _ => break,
            }
        }
        v
    }

    /// Parse a call's arguments up to the matching `)`.
    fn args(&mut self) -> Vec<AbsVal> {
        let mut out = Vec::new();
        if self.peek().map(|t| t.kind) == Some(TK::RParen) {
            self.bump();
            return out;
        }
        loop {
            out.push(self.expr());
            match self.bump().map(|t| t.kind) {
                Some(TK::Comma) => continue,
                Some(TK::RParen) | None => break,
                // Closures, ranges and other unmodelled argument syntax:
                // skip to the matching close paren.
                _ => {
                    let mut depth = 0usize;
                    while let Some(t) = self.bump() {
                        match t.kind {
                            TK::LParen => depth += 1,
                            TK::RParen => {
                                if depth == 0 {
                                    return out;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                    }
                    break;
                }
            }
        }
        out
    }

    fn primary(&mut self) -> AbsVal {
        match self.peek() {
            Some(t) if t.kind == TK::LParen => {
                self.bump();
                let v = self.expr();
                if self.peek().map(|x| x.kind) == Some(TK::RParen) {
                    self.bump();
                }
                v
            }
            Some(t) => match t.kind {
                TK::Num(v, floaty) => {
                    self.bump();
                    AbsVal::point(v, floaty)
                }
                TK::Ident => {
                    self.bump();
                    let name = self.text(t);
                    if self.peek().map(|x| x.kind) == Some(TK::LParen) {
                        self.bump();
                        let args = self.args();
                        call_val(name, &args, self.sums)
                    } else {
                        ident_val(name, self.env)
                    }
                }
                _ => {
                    self.bump();
                    AbsVal::top()
                }
            },
            None => AbsVal::top(),
        }
    }
}

/// `lhs << rhs` over intervals: only meaningful for non-negative bases.
fn shl_interval(lhs: Interval, rhs: Interval) -> Interval {
    if !lhs.is_nonneg() || !rhs.is_nonneg() {
        return Interval::TOP;
    }
    let scale = |bound: f64, exp: f64| -> f64 {
        if exp > 63.0 || !exp.is_finite() {
            f64::INFINITY
        } else {
            bound * (2.0_f64).powi(exp as i32)
        }
    };
    Interval::new(scale(lhs.lo, rhs.lo), scale(lhs.hi, rhs.hi))
}

/// Abstract a cast: float targets preserve the interval (taint as
/// floaty), integer targets clamp into the target's range when the
/// value provably fits, and widen to the full target range otherwise
/// (a wrapping cast always lands inside the type's range, so that is
/// still sound).
fn apply_cast(v: AbsVal, target: &str) -> AbsVal {
    if target == "f64" || target == "f32" {
        let mut out = v;
        out.floaty = true;
        return out;
    }
    for (name, lo, hi) in NARROW_TARGETS {
        if name == target {
            let iv = if v.iv.lo >= lo && v.iv.hi <= hi {
                v.iv
            } else {
                Interval::new(lo, hi)
            };
            return refine(AbsVal {
                iv,
                sign: Sign::Unknown,
                floaty: false,
            });
        }
    }
    if INT_TARGETS.contains(&target) {
        // u64/usize/i64: wide enough for every counter here; an
        // integer cast truncates toward zero, staying inside the hull.
        let mut out = v;
        out.floaty = false;
        if target.starts_with('u') && !out.iv.is_nonneg() {
            out.iv = Interval::TOP;
            out.sign = Sign::Unknown;
        }
        return out;
    }
    AbsVal::top()
}

/// Abstract a known method call; unknown methods conservatively
/// return `TOP` (method intervals stay out of divisor reasoning so a
/// misresolved name can never manufacture a finding).
fn apply_method(v: AbsVal, name: &str, args: &[AbsVal]) -> AbsVal {
    let arg = |i: usize| -> AbsVal { args.get(i).cloned().unwrap_or_else(AbsVal::top) };
    match name {
        "max" => refine(AbsVal {
            iv: v.iv.max_op(arg(0).iv),
            sign: Sign::Unknown,
            floaty: v.floaty || arg(0).floaty,
        }),
        "min" => refine(AbsVal {
            iv: v.iv.min_op(arg(0).iv),
            sign: Sign::Unknown,
            floaty: v.floaty || arg(0).floaty,
        }),
        "clamp" => refine(AbsVal {
            iv: v.iv.clamp_op(arg(0).iv, arg(1).iv),
            sign: Sign::Unknown,
            floaty: v.floaty,
        }),
        "abs" => refine(AbsVal {
            iv: v.iv.abs_op(),
            sign: Sign::Unknown,
            floaty: v.floaty,
        }),
        "sqrt" | "len" | "as_micros" | "as_millis" | "as_secs" => AbsVal::counter(),
        "get" | "clone" | "copied" | "into" => v,
        "saturating_add" => refine(AbsVal {
            iv: v.iv + arg(0).iv,
            sign: v.sign + arg(0).sign,
            floaty: v.floaty,
        }),
        "saturating_sub" => {
            // Unsigned saturating subtraction floors at zero.
            let iv = (v.iv - arg(0).iv).max_op(Interval::point(0.0));
            refine(AbsVal {
                iv,
                sign: Sign::NonNeg,
                floaty: v.floaty,
            })
        }
        "saturating_mul" => refine(AbsVal {
            iv: v.iv * arg(0).iv,
            sign: v.sign * arg(0).sign,
            floaty: v.floaty,
        }),
        "as_secs_f64" | "as_mib_f64" => AbsVal {
            floaty: true,
            ..AbsVal::counter()
        },
        _ => AbsVal::top(),
    }
}

/// Abstract a bare (single-segment) call via the function summaries;
/// qualified paths model the `ff_base` constructors and stay `TOP`
/// otherwise.
fn call_val(name: &str, args: &[AbsVal], sums: &Sums) -> AbsVal {
    if matches!(name, "Bytes" | "Joules" | "Watts")
        || name.starts_with("Dur::from_")
        || name.starts_with("SimTime::from_")
    {
        // A unit newtype wraps its argument's value.
        return args.first().cloned().unwrap_or_else(AbsVal::top);
    }
    if name == "u64::MAX" {
        return AbsVal::of_interval(Interval::point(u64::MAX as f64));
    }
    sums.get(name)
        .map_or_else(AbsVal::top, |iv| AbsVal::of_interval(*iv))
}

/// Abstract a plain identifier: environment, constant registry (both
/// already folded into `env`), `MAX`/`MIN` associated consts, then the
/// unit-suffix heuristic.
fn ident_val(name: &str, env: &Env) -> AbsVal {
    let last = name.rsplit("::").next().unwrap_or(name);
    if let Some(v) = env.get(name).or_else(|| env.get(last)) {
        return v.clone();
    }
    match name {
        "u64::MAX" => return AbsVal::of_interval(Interval::point(u64::MAX as f64)),
        "u32::MAX" => return AbsVal::of_interval(Interval::point(u32::MAX as f64)),
        "f64::INFINITY" => return AbsVal::of_interval(Interval::point(f64::INFINITY)),
        _ => {}
    }
    field_val(last)
}

/// Abstract an identifier or field by its name alone.
fn field_val(name: &str) -> AbsVal {
    if is_nonneg_name(name) {
        AbsVal::counter()
    } else {
        AbsVal::top()
    }
}

fn eval_slice(src: &str, env: &Env, sums: &Sums) -> AbsVal {
    Eval::new(src, env, sums).expr()
}

/// Evaluate a single expression against a constant table. Public so
/// the soundness property test can compare a concrete evaluation of a
/// random expression against the inferred interval.
pub fn expr_interval(expr: &str, consts: &BTreeMap<String, f64>) -> Interval {
    let env: Env = consts
        .iter()
        .map(|(k, v)| (k.clone(), AbsVal::point(*v, v.fract().abs() > 0.0)))
        .collect();
    let sums = Sums::default();
    eval_slice(expr, &env, &sums).iv
}

// ---------------------------------------------------------------------
// Statement walking and function summaries
// ---------------------------------------------------------------------

/// `let [mut] name [: ty] = rhs;` → `(name, rhs)`.
fn split_let(code: &str) -> Option<(&str, &str)> {
    let rest = code.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let b = rest.as_bytes();
    let mut end = 0;
    while end < b.len() && is_ident_byte(b[end]) {
        end += 1;
    }
    if end == 0 {
        return None;
    }
    let name = &rest[..end];
    if name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    let tail = &rest[end..];
    let eq = find_plain_eq(tail)?;
    let rhs = tail.get(eq + 1..)?.trim().trim_end_matches(';');
    Some((name, rhs))
}

/// Position of a plain `=` (not `==`, `<=`, `>=`, `!=`, `+=`, ...).
fn find_plain_eq(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'=' {
            continue;
        }
        let prev_ok = i == 0
            || !matches!(
                b[i - 1],
                b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%'
            );
        let next_ok = i + 1 >= b.len() || b[i + 1] != b'=';
        if prev_ok && next_ok {
            return Some(i);
        }
    }
    None
}

/// `lhs op= rhs;` for `+=`/`-=`/`*=` → `(lhs, op, rhs)`.
fn split_compound(code: &str) -> Option<(&str, u8, &str)> {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if (c == b'+' || c == b'-' || c == b'*') && i + 1 < b.len() && b[i + 1] == b'=' {
            if i + 2 < b.len() && b[i + 2] == b'=' {
                return None;
            }
            let lhs = code.get(..i)?.trim();
            let rhs = code.get(i + 2..)?.trim().trim_end_matches(';');
            if lhs.is_empty()
                || !lhs
                    .bytes()
                    .all(|x| is_ident_byte(x) || x == b'.' || x == b':')
            {
                return None;
            }
            return Some((lhs, c, rhs));
        }
    }
    None
}

/// Last `.`-separated segment of a field path (`self.disk_bytes` →
/// `disk_bytes`).
fn last_segment(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// First meaningful path segment of an expression slice, for guard
/// matching (`trace.len() as u64` → `trace`, `self.x` → `x`).
fn root_ident(slice: &str) -> &str {
    let b = slice.as_bytes();
    let mut i = 0;
    while i < b.len() && !(b[i].is_ascii_alphabetic() || b[i] == b'_') {
        if b[i].is_ascii_digit() {
            return "";
        }
        i += 1;
    }
    let start = i;
    while i < b.len() && is_ident_byte(b[i]) {
        i += 1;
    }
    let seg = slice.get(start..i).unwrap_or("");
    if seg == "self" {
        let rest = slice.get(i..).unwrap_or("");
        if let Some(tail) = rest.strip_prefix('.') {
            return root_ident(tail);
        }
    }
    seg
}

/// Extract the operand slice to the *right* of position `from` (a
/// divisor): a primary plus its postfix chain (`.calls`, `as ty`, `?`).
fn operand_right(code: &str, from: usize) -> &str {
    let b = code.as_bytes();
    let mut i = from;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    let start = i;
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    loop {
        if i >= b.len() {
            break;
        }
        let c = b[i];
        if c == b'(' {
            let mut depth = 1usize;
            i += 1;
            while i < b.len() && depth > 0 {
                match b[i] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
        } else if is_ident_byte(c)
            || c == b':'
            || c == b'?'
            || (c == b'.' && i + 1 < b.len() && (is_ident_byte(b[i + 1]) || b[i + 1] == b'('))
        {
            i += 1;
        } else if c == b' '
            && code
                .get(i..)
                .map(|r| r.starts_with(" as "))
                .unwrap_or(false)
        {
            i += 4;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
        } else {
            break;
        }
    }
    code.get(start..i).unwrap_or("").trim()
}

/// Extract the operand slice to the *left* of position `to` (a cast
/// operand): walks back over one postfix chain.
fn operand_left(code: &str, to: usize) -> &str {
    let b = code.as_bytes();
    let mut i = to;
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    loop {
        if i == 0 {
            break;
        }
        let c = b[i - 1];
        if c == b')' {
            let mut depth = 1usize;
            i -= 1;
            while i > 0 && depth > 0 {
                match b[i - 1] {
                    b')' => depth += 1,
                    b'(' => depth -= 1,
                    _ => {}
                }
                i -= 1;
            }
        } else if is_ident_byte(c) || c == b'.' || c == b':' || c == b'?' {
            i -= 1;
        } else {
            break;
        }
    }
    code.get(i..end).unwrap_or("").trim()
}

/// Does the function's body text as a whole guard `root` against zero?
fn guarded(fn_text: &str, root: &str) -> bool {
    if root.is_empty() {
        return false;
    }
    let patterns = [
        format!("{root} == 0"),
        format!("{root} != 0"),
        format!("{root} > 0"),
        format!("{root} >= 1"),
        format!("{root}.is_empty"),
        format!("{root}.is_zero"),
        format!("{root} <= 0"),
    ];
    patterns.iter().any(|p| fn_text.contains(p.as_str()))
}

/// Divisor clamped with an explicit zero floor (`.max(0)` / `.max(0.0)`)?
fn zero_floor_clamp(slice: &str) -> bool {
    for pat in [".max(0)", ".max(0.0)", ".max(0 ", ".max(0.0 "] {
        if slice.contains(pat) {
            return true;
        }
    }
    false
}

/// Environment for one function: Table 1/2 constants plus any
/// counter- or energy-suffixed parameters (non-negative physical
/// quantities).
fn base_env(ctab: &BTreeMap<String, f64>, item: &Item) -> Env {
    let mut env: Env = ctab
        .iter()
        .map(|(k, v)| (k.clone(), AbsVal::point(*v, v.fract().abs() > 0.0)))
        .collect();
    for p in &item.params {
        if is_counter_name(p) || is_energy_name(p) {
            env.insert(p.clone(), AbsVal::counter());
        }
    }
    env
}

/// The `;`-separated statements of one line, split outside parens and
/// brackets (`[u8; 4]` stays whole).
fn statements(code: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0i32;
    code.split(move |c: char| {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            _ => {}
        }
        c == ';' && depth <= 0
    })
    .map(str::trim)
    .filter(|s| !s.is_empty())
}

/// Walk one function's body, maintaining the abstract environment and
/// yielding each (0-based line index, statement, env-before-statement)
/// to `sink`.
fn walk_fn<F: FnMut(usize, &str, &Env)>(
    file: &SourceFile,
    item: &Item,
    ctab: &BTreeMap<String, f64>,
    sums: &Sums,
    sink: &mut F,
) -> Env {
    let mut env = base_env(ctab, item);
    let (lo, hi) = body_range(item);
    for idx in lo..hi {
        let Some(line) = file.lines.get(idx) else {
            continue;
        };
        if line.in_test {
            continue;
        }
        for code in statements(&line.code) {
            sink(idx, code, &env);
            bind(code, &mut env, sums);
        }
    }
    env
}

/// Apply one statement's `let`, compound assignment or reassignment
/// to the environment.
fn bind(code: &str, env: &mut Env, sums: &Sums) {
    if let Some((name, rhs)) = split_let(code) {
        env.insert(name.to_owned(), refine(eval_slice(rhs, env, sums)));
    } else if let Some((lhs, op, rhs)) = split_compound(code) {
        let name = last_segment(lhs);
        if let Some(old) = env.get(name).cloned() {
            let rv = eval_slice(rhs, env, sums);
            let next = match op {
                b'+' => old.iv + rv.iv,
                b'-' => old.iv - rv.iv,
                _ => old.iv * rv.iv,
            };
            // Accumulators run inside loops the line walk cannot
            // see; widen so one abstract pass covers every trip.
            let widened = old.iv.widen(old.iv.join(next));
            env.insert(
                name.to_owned(),
                refine(AbsVal {
                    iv: widened,
                    sign: Sign::Unknown,
                    floaty: old.floaty,
                }),
            );
        }
    } else if let Some(eq) = find_plain_eq(code) {
        let lhs = code.get(..eq).map(str::trim).unwrap_or("");
        if !lhs.is_empty() && lhs.bytes().all(is_ident_byte) {
            if let Some(old) = env.get(lhs).cloned() {
                let rhs = code
                    .get(eq + 1..)
                    .unwrap_or("")
                    .trim()
                    .trim_end_matches(';');
                let rv = refine(eval_slice(rhs, env, sums));
                env.insert(lhs.to_owned(), old.join(&rv));
            }
        }
    }
}

/// 0-based line range of a function's body interior.
fn body_range(item: &Item) -> (usize, usize) {
    if item.body_start == 0 || item.body_end <= item.body_start {
        (item.decl_line.saturating_sub(1), item.decl_line)
    } else {
        (item.body_start, item.body_end.saturating_sub(1))
    }
}

/// Candidate return expressions of a function, with their 0-based
/// line index: `return X;` lines plus the tail expression (single-line
/// bodies included).
fn return_exprs<'a>(file: &'a SourceFile, item: &Item) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    if item.body_start != 0 && item.body_start == item.body_end {
        let idx = item.body_start.saturating_sub(1);
        if let Some(line) = file.lines.get(idx) {
            if let (Some(open), Some(close)) = (line.code.find('{'), line.code.rfind('}')) {
                if open + 1 < close {
                    if let Some(inner) = line.code.get(open + 1..close) {
                        let inner = inner.trim();
                        if !inner.is_empty() {
                            out.push((idx, inner));
                        }
                    }
                }
            }
        }
        return out;
    }
    let (lo, hi) = body_range(item);
    let mut tail: Option<(usize, &str)> = None;
    for idx in lo..hi {
        let Some(line) = file.lines.get(idx) else {
            continue;
        };
        if line.in_test {
            continue;
        }
        let code = line.code.trim();
        if code.is_empty() {
            continue;
        }
        if let Some(rest) = code.strip_prefix("return ") {
            out.push((idx, rest.trim_end_matches(';')));
        }
        if !code.ends_with(';') && !code.ends_with('{') && !code.ends_with('}') {
            tail = Some((idx, code));
        } else {
            tail = None;
        }
    }
    out.extend(tail);
    out
}

/// One summary round: evaluate every library function's return
/// expressions under `prev` summaries.
fn summary_round(
    sources: &[SourceFile],
    trees: &[ItemTree],
    ctab: &BTreeMap<String, f64>,
    prev: &Sums,
) -> Sums {
    let mut next = Sums::default();
    for (file, tree) in sources.iter().zip(trees) {
        for (_, item) in tree.fns() {
            if item.in_test {
                continue;
            }
            let env = walk_fn(file, item, ctab, prev, &mut |_, _, _| {});
            let mut joined: Option<Interval> = None;
            for (_, expr) in return_exprs(file, item) {
                let iv = eval_slice(expr, &env, prev).iv;
                joined = Some(joined.map_or(iv, |j| j.join(iv)));
            }
            let Some(iv) = joined else { continue };
            if iv.is_top() {
                continue;
            }
            let entry = next.entry(item.name.clone()).or_insert(iv);
            *entry = entry.join(iv);
        }
    }
    next
}

/// Two-round descending fixpoint over function return intervals. Round
/// one is computed with every call abstracted to `TOP` (sound); round
/// two substitutes round one's summaries (still sound, tighter or
/// equal), so the second round is the result.
fn build_summaries(
    sources: &[SourceFile],
    trees: &[ItemTree],
    ctab: &BTreeMap<String, f64>,
) -> Sums {
    let round1 = summary_round(sources, trees, ctab, &Sums::default());
    summary_round(sources, trees, ctab, &round1)
}

/// Per-function return intervals, qualified as `crate::fn_name`. Public
/// for the golden interval-facts test.
pub fn fn_summaries(sources: &[SourceFile]) -> BTreeMap<String, Interval> {
    let trees = items::build(sources);
    let ctab = consts::const_table(sources);
    let bare = build_summaries(sources, &trees, &ctab);
    let mut out = BTreeMap::new();
    for (file, tree) in sources.iter().zip(&trees) {
        for (_, item) in tree.fns() {
            if let Some(iv) = bare.get(&item.name) {
                out.insert(format!("{}::{}", file.crate_name, item.name), *iv);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule families
// ---------------------------------------------------------------------

/// Run arith-safety over its crates' library code.
pub(crate) fn analyze(sources: &[SourceFile], trees: &[ItemTree]) -> Vec<Finding> {
    let ctab = consts::const_table(sources);
    let sums = build_summaries(sources, trees, &ctab);
    let mut out = Vec::new();
    for (file, tree) in sources.iter().zip(trees) {
        if !ARITH_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (_, item) in tree.fns() {
            if item.in_test {
                continue;
            }
            let fn_text = fn_body_text(file, item);
            let mut sink = |idx: usize, code: &str, env: &Env| {
                check_divisions(file, idx, code, env, &sums, &fn_text, &mut out);
                check_casts(file, idx, code, env, &sums, &mut out);
                check_counters(file, idx, code, &mut out);
            };
            walk_fn(file, item, &ctab, &sums, &mut sink);
        }
    }
    out
}

fn fn_body_text(file: &SourceFile, item: &Item) -> String {
    let (lo, hi) = body_range(item);
    let mut text = String::new();
    for idx in lo..hi.min(file.lines.len()) {
        text.push_str(&file.lines[idx].code);
        text.push('\n');
    }
    text
}

fn push(
    out: &mut Vec<Finding>,
    rule: Rule,
    file: &SourceFile,
    idx: usize,
    token: String,
    message: String,
) {
    out.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line: idx + 1,
        token,
        message,
    });
}

/// arith-safety: division-by-zero freedom.
fn check_divisions(
    file: &SourceFile,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    fn_text: &str,
    out: &mut Vec<Finding>,
) {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'/' {
            continue;
        }
        if i + 1 < b.len() && (b[i + 1] == b'=' || b[i + 1] == b'/') {
            continue;
        }
        if i > 0 && b[i - 1] == b'/' {
            continue;
        }
        let slice = operand_right(code, i + 1);
        if slice.is_empty() {
            continue;
        }
        let dv = eval_slice(slice, env, sums);
        let root = root_ident(slice);
        let zero_point = dv.iv.is_point() && dv.iv.lo.abs() < 1e-12;
        let clamped_to_zero = zero_floor_clamp(slice);
        let may_be_zero = dv.iv.contains_zero() && !dv.iv.is_top();
        if zero_point {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                "division by a provably-zero divisor".to_owned(),
            );
        } else if clamped_to_zero {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                format!(
                    "divisor `{slice}` is clamped with a zero floor, so zero is \
                     reachable; raise the floor or use ff_base::checked::ratio"
                ),
            );
        } else if may_be_zero && !guarded(fn_text, root) {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                format!(
                    "divisor `{slice}` has interval {} which contains zero and no \
                     zero-guard is visible; guard it or use ff_base::checked::ratio",
                    dv.iv
                ),
            );
        }
    }
}

/// arith-safety: lossy `as` casts.
fn check_casts(
    file: &SourceFile,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    out: &mut Vec<Finding>,
) {
    let mut search = 0;
    while let Some(rel) = code.get(search..).and_then(|r| r.find(" as ")) {
        let pos = search + rel;
        search = pos + 4;
        let target: String = code
            .get(pos + 4..)
            .unwrap_or("")
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !INT_TARGETS.contains(&target.as_str()) {
            continue;
        }
        let operand = operand_left(code, pos);
        if operand.is_empty() {
            continue;
        }
        let ov = eval_slice(operand, env, sums);
        if ov.floaty {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("as {target} (float)"),
                format!(
                    "float-valued `{operand}` truncated by `as {target}`; use \
                     ff_base::checked::f64_to_u64 (or round explicitly)"
                ),
            );
            continue;
        }
        for (name, lo, hi) in NARROW_TARGETS {
            if name == target && !(ov.iv.lo >= lo && ov.iv.hi <= hi) {
                push(
                    out,
                    Rule::ArithSafety,
                    file,
                    idx,
                    format!("as {target}"),
                    format!(
                        "`{operand}` (interval {}) is not proven to fit `{target}`; \
                         use ff_base::checked::u64_to_u32 or a checked conversion",
                        ov.iv
                    ),
                );
            }
        }
    }
}

/// arith-safety: unchecked arithmetic on `_bytes`/`_us`-style counters.
fn check_counters(file: &SourceFile, idx: usize, code: &str, out: &mut Vec<Finding>) {
    if let Some((lhs, op, _rhs)) = split_compound(code) {
        let seg = last_segment(lhs);
        if is_counter_name(seg) && !code.contains("saturating") {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("{seg} {}=", op as char),
                format!(
                    "unchecked `{}=` on counter `{seg}`; prefer saturating_add or \
                     an ff_base::checked helper",
                    op as char
                ),
            );
        }
    }
    // Binary `a + b` / `a * b` with *both* operands counter-suffixed,
    // whatever their scales: `a_us + b_ms` overflows like `a_us + b_us`.
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'+' && c != b'*' {
            continue;
        }
        if i == 0 || i + 1 >= b.len() || b[i - 1] != b' ' || b[i + 1] != b' ' {
            continue;
        }
        let left = path_before(code, i - 1);
        let right = path_after(code, i + 1);
        if is_counter_name(last_segment(left)) && is_counter_name(last_segment(right)) {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("{left} {} {right}", c as char),
                format!(
                    "unchecked `{}` on counters `{left}` and `{right}`; prefer \
                     saturating arithmetic",
                    c as char
                ),
            );
        }
    }
}

/// The `.`-separated ident path ending at byte `end` (exclusive).
fn path_before(code: &str, end: usize) -> &str {
    let b = code.as_bytes();
    let mut i = end;
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (is_ident_byte(b[i - 1]) || b[i - 1] == b'.') {
        i -= 1;
    }
    code.get(i..stop).unwrap_or("").trim_matches('.')
}

/// The `.`-separated ident path starting at byte `start`.
fn path_after(code: &str, start: usize) -> &str {
    let b = code.as_bytes();
    let mut i = start;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < b.len() && (is_ident_byte(b[i]) || b[i] == b'.') {
        i += 1;
    }
    code.get(begin..i).unwrap_or("").trim_matches('.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn env_of(pairs: &[(&str, f64)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), AbsVal::point(*v, false)))
            .collect()
    }

    #[test]
    fn evaluator_handles_arithmetic_and_methods() {
        let env = env_of(&[("a", 3.0), ("b", 4.0)]);
        let sums = Sums::default();
        let v = eval_slice("a + b * 2", &env, &sums);
        assert_eq!(v.iv, Interval::point(11.0));
        let v = eval_slice("(a - b).abs()", &env, &sums);
        assert_eq!(v.iv, Interval::point(1.0));
        let v = eval_slice("a.max(10)", &env, &sums);
        assert_eq!(v.iv, Interval::point(10.0));
        let v = eval_slice("1u64 << 16", &env, &sums);
        assert_eq!(v.iv, Interval::point(65536.0));
    }

    #[test]
    fn suffixed_idents_are_nonneg_counters() {
        let env = Env::new();
        let sums = Sums::default();
        let v = eval_slice("total_bytes", &env, &sums);
        assert!(v.iv.is_nonneg() && !v.iv.is_top());
        let v = eval_slice("-span_us", &env, &sums);
        assert!(v.iv.hi <= 0.0);
    }

    #[test]
    fn operand_extraction_brackets_the_right_slices() {
        let code = "let r = total_bytes / trace.len().max(1) as u64;";
        let pos = code.find('/').expect("slash");
        assert_eq!(operand_right(code, pos + 1), "trace.len().max(1) as u64");
        let cast = code.find(" as ").expect("cast");
        assert_eq!(operand_left(code, cast), "trace.len().max(1)");
        assert_eq!(root_ident("trace.len() as u64"), "trace");
        assert_eq!(root_ident("self.total_bytes as f64"), "total_bytes");
    }

    fn lib_file(src: &str) -> SourceFile {
        SourceFile {
            rel_path: "crates/ff-sim/src/x.rs".to_owned(),
            crate_name: "ff-sim".to_owned(),
            lines: preprocess(src),
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let sources = vec![lib_file(src)];
        let trees = items::build(&sources);
        analyze(&sources, &trees)
    }

    #[test]
    fn division_by_unguarded_counter_is_flagged() {
        let bad = run("pub fn f(n_bytes: u64, total: u64) -> f64 {\n    let r = 1.0;\n    r / n_bytes as f64\n}\n");
        assert!(bad.iter().any(|f| f.rule == Rule::ArithSafety));
        let guarded = run(
            "pub fn f(n_bytes: u64) -> f64 {\n    if n_bytes == 0 {\n        return 0.0;\n    }\n    1.0 / n_bytes as f64\n}\n",
        );
        assert!(guarded.is_empty(), "{guarded:?}");
        let clamped = run("pub fn f(n_bytes: u64) -> f64 {\n    1.0 / n_bytes.max(1) as f64\n}\n");
        assert!(clamped.is_empty(), "{clamped:?}");
    }

    #[test]
    fn zero_floor_clamp_is_always_flagged() {
        let bad = run(
            "pub fn f(xs: &[u64]) -> u64 {\n    let d = 100;\n    d / xs.len().max(0) as u64\n}\n",
        );
        assert!(bad
            .iter()
            .any(|f| f.rule == Rule::ArithSafety && f.token.contains("div")));
    }

    #[test]
    fn narrowing_and_float_casts_are_flagged() {
        let bad = run("pub fn f(x: u64) -> u32 {\n    x as u32\n}\n");
        assert!(bad.iter().any(|f| f.token == "as u32"));
        let ok = run("pub fn f(x: u64) -> u32 {\n    (x % 100) as u32\n}\n");
        assert!(ok.is_empty(), "{ok:?}");
        let trunc = run("pub fn f(b: f64) -> u64 {\n    (b * 1000.0) as u64\n}\n");
        assert!(trunc.iter().any(|f| f.token == "as u64 (float)"));
    }

    #[test]
    fn counter_arithmetic_wants_saturation() {
        let bad = run("pub fn f(&mut self, n_bytes: u64) {\n    self.total_bytes += n_bytes;\n}\n");
        assert!(bad.iter().any(|f| f.token == "total_bytes +="));
        let ok = run(
            "pub fn f(&mut self, n_bytes: u64) {\n    self.total_bytes = self.total_bytes.saturating_add(n_bytes);\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bin = run("pub fn f(a_bytes: u64, b_bytes: u64) -> u64 {\n    let t = a_bytes + b_bytes;\n    t\n}\n");
        assert!(bin.iter().any(|f| f.token.contains("a_bytes + b_bytes")));
        // Operands at different scales are still two counters.
        let mixed =
            run("pub fn f(a_us: u64, b_ms: u64) -> u64 {\n    let t = a_us + b_ms;\n    t\n}\n");
        let tokens: Vec<&str> = mixed.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["a_us + b_ms"], "{mixed:?}");
    }

    #[test]
    fn summaries_resolve_bare_calls_in_two_rounds() {
        let src =
            "pub fn base() -> f64 {\n    7.0\n}\npub fn scaled() -> f64 {\n    base() * 3.0\n}\n";
        let sources = vec![lib_file(src)];
        let sums = fn_summaries(&sources);
        assert_eq!(
            sums.get("ff-sim::base").copied(),
            Some(Interval::point(7.0))
        );
        assert_eq!(
            sums.get("ff-sim::scaled").copied(),
            Some(Interval::point(21.0))
        );
    }
}
