//! Source discovery and lexical preprocessing.
//!
//! The lint pass deliberately avoids a real Rust parser (no `syn` in the
//! offline build environment). Instead each `.rs` file is run through a
//! character-level state machine that:
//!
//! * blanks the contents of string/char literals and comments, so rules
//!   that search for tokens like `HashMap` or `.unwrap()` never match
//!   prose or test fixtures embedded in strings,
//! * collects the comment text per line separately (the hygiene rule
//!   inventories open-work markers, which live *in* comments),
//! * tracks brace depth and `#[cfg(test)]` / `#[test]` attributes so
//!   rules can skip test-only code inside library files.
//!
//! The token stream this produces is approximate by design — it is a
//! ratcheted lint, not a compiler — but the approximations are all on
//! the conservative side for this workspace's style (attributes on their
//! own lines, no macro-generated `impl` blocks hiding forbidden calls).

use std::path::{Path, PathBuf};

/// Where a file sits in its crate, which decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — full rule set.
    Lib,
    /// Binary code (`src/main.rs`, `src/bin/**`) — panic rules relaxed
    /// (a CLI reporting to a terminal may abort).
    Bin,
    /// Tests, benches and examples — only hygiene applies.
    Test,
}

/// One preprocessed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments and literal contents blanked to spaces.
    pub code: String,
    /// The unprocessed source line, literals intact. Most rules must
    /// match against [`Line::code`]; this exists for the few checks that
    /// legitimately key on string contents (the event-coverage family
    /// verifies the pinned meter-event *names*).
    pub raw: String,
    /// Comment text that appeared on this line (line or block comments).
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` module or a
    /// `#[test]` function.
    pub in_test: bool,
}

/// A scanned file: workspace-relative path, role and preprocessed lines.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Name of the crate the file belongs to (`ff-sim`, `flexfetch-repro`
    /// for the root package).
    pub crate_name: String,
    /// Which rule scope the file falls into.
    pub kind: FileKind,
    /// Preprocessed lines, index 0 = line 1.
    pub lines: Vec<Line>,
}

/// Collect and preprocess every first-party `.rs` file under `root`.
///
/// Scope: the root package (`src/`, `tests/`, `benches/`, `examples/`)
/// and every crate under `crates/`. `vendor/` is excluded on purpose —
/// those shims stand in for crates.io dependencies and e.g.
/// `crossbeam` legitimately spawns threads.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    scan_package(root, "flexfetch-repro", &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            scan_package(&dir, &name, &mut files)?;
        }
    }
    // Deterministic report order regardless of directory enumeration.
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Scan one package directory (the workspace root or a `crates/*` dir).
fn scan_package(pkg: &Path, crate_name: &str, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let root = pkg;
    for (sub, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("benches", FileKind::Test),
        ("examples", FileKind::Test),
    ] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, kind, crate_name, root, out)?;
        }
    }
    Ok(())
}

fn walk_rs(
    dir: &Path,
    kind: FileKind,
    crate_name: &str,
    pkg_root: &Path,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // The root package's src/ contains crates/ and vendor/ only
            // via the workspace root — but scan_package passes pkg_root
            // joined with src, so nested dirs here are modules or bin/.
            let nested_kind = if path.file_name().map(|n| n == "bin").unwrap_or(false) {
                FileKind::Bin
            } else {
                kind
            };
            walk_rs(&path, nested_kind, crate_name, pkg_root, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            let file_kind = if kind == FileKind::Lib
                && path.file_name().map(|n| n == "main.rs").unwrap_or(false)
            {
                FileKind::Bin
            } else {
                kind
            };
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(pkg_root.parent().unwrap_or(pkg_root))
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            // For crates/<name>/src/x.rs the prefix strip above lands on
            // "<name>/src/x.rs"; re-anchor at the workspace root.
            let rel_path = anchor_rel(&rel, crate_name);
            out.push(SourceFile {
                rel_path,
                crate_name: crate_name.to_owned(),
                kind: file_kind,
                lines: preprocess(&text),
            });
        }
    }
    Ok(())
}

/// Normalise a stripped path to be workspace-root relative.
fn anchor_rel(rel: &str, crate_name: &str) -> String {
    if crate_name == "flexfetch-repro" {
        // Root package: strip_prefix used the root's parent, so the path
        // begins with the root dir's own name; drop that first component.
        match rel.split_once('/') {
            Some((_, rest)) => rest.to_owned(),
            None => rel.to_owned(),
        }
    } else {
        format!("crates/{rel}")
    }
}

/// Lexer state for [`preprocess`].
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Blank comments and literal contents while preserving line structure,
/// and mark test-scoped lines.
pub fn preprocess(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<(String, String)> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = LexState::Code;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let LexState::LineComment = state {
                state = LexState::Code;
            }
            lines.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            i += 1;
            continue;
        }
        match state {
            LexState::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = LexState::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    // Raw string? Look back for r / r# / br## prefixes.
                    let hashes = trailing_raw_hashes(&code);
                    if let Some(n) = hashes {
                        state = LexState::RawStr(n);
                    } else {
                        state = LexState::Str;
                    }
                    code.push('"');
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // couple of characters (or starts with an escape).
                    let is_char = matches!(chars.get(i + 1), Some('\\'))
                        || matches!(chars.get(i + 2), Some('\''));
                    if is_char {
                        state = LexState::Char;
                    }
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            LexState::LineComment => {
                comment.push(c);
                i += 1;
            }
            LexState::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            LexState::Str => {
                if c == '\\' {
                    // Never swallow a line-continuation newline.
                    let skip = if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                    code.push_str("  ");
                    i += skip;
                } else if c == '"' {
                    state = LexState::Code;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            LexState::RawStr(n) => {
                if c == '"' && count_hashes(&chars, i + 1) >= n {
                    code.push('"');
                    for _ in 0..n {
                        code.push(' ');
                    }
                    state = LexState::Code;
                    i += 1 + n;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            LexState::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    state = LexState::Code;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push((code, comment));
    }

    mark_test_scopes(lines, text)
}

/// If `code` ends with a raw-string prefix (`r`, `br`, `r#`…), return the
/// hash count; the caller is looking at the opening `"`.
fn trailing_raw_hashes(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut n = bytes.len();
    let mut hashes = 0;
    while n > 0 && bytes[n - 1] == b'#' {
        hashes += 1;
        n -= 1;
    }
    if n == 0 {
        return None;
    }
    let mut end = n;
    if bytes[end - 1] == b'r' {
        end -= 1;
        if end > 0 && bytes[end - 1] == b'b' {
            end -= 1;
        }
        // `r` must not be the tail of an identifier (e.g. `var"..."` is
        // not valid Rust anyway, but `feature = r"..."` is).
        let prev_ident =
            end > 0 && (bytes[end - 1].is_ascii_alphanumeric() || bytes[end - 1] == b'_');
        if !prev_ident {
            return Some(hashes);
        }
    }
    None
}

fn count_hashes(chars: &[char], from: usize) -> usize {
    chars[from..].iter().take_while(|&&c| c == '#').count()
}

/// Second pass: brace-depth tracking to mark `#[cfg(test)]` / `#[test]`
/// scopes.
fn mark_test_scopes(lines: Vec<(String, String)>, text: &str) -> Vec<Line> {
    let mut out = Vec::with_capacity(lines.len());
    let mut raws = text.lines();
    let mut depth: i64 = 0;
    let mut scopes: Vec<i64> = Vec::new();
    let mut pending = false;
    for (code, comment) in lines {
        let raw = raws.next().unwrap_or_default().to_owned();
        let had_attr = code.contains("#[cfg(test)]")
            || code.contains("#[test]")
            || code.contains("#[cfg(all(test");
        if had_attr {
            pending = true;
        }
        let in_test = !scopes.is_empty() || pending;
        let mut saw_brace = false;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    saw_brace = true;
                    if pending {
                        scopes.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if scopes.last() == Some(&depth) {
                        scopes.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        // `#[cfg(test)] use …;` — attribute consumed by a braceless item.
        if pending && !saw_brace && code.trim_end().ends_with(';') {
            pending = false;
        }
        out.push(Line {
            code,
            raw,
            comment,
            in_test,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"HashMap::new()\"; // uses HashMap\nlet y = 1;\n";
        let lines = preprocess(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("uses HashMap"));
        assert!(lines[1].code.contains("let y"));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "a();\n/* unwrap()\n   more */ b();\n";
        let lines = preprocess(src);
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[1].comment.contains("unwrap"));
        assert!(lines[2].code.contains("b()"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let p = r#\"panic!(\"x\")\"#;\nc();\n";
        let lines = preprocess(src);
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[1].code.contains("c()"));
    }

    #[test]
    fn char_literals_do_not_eat_the_line() {
        let src = "let q = '\"'; let h = HashMap::new();\n";
        let lines = preprocess(src);
        assert!(lines[0].code.contains("HashMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet u = v.unwrap();\n";
        let lines = preprocess(src);
        assert!(lines[1].code.contains("unwrap"));
    }

    #[test]
    fn cfg_test_scopes_are_marked() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
    }
}
fn lib2() {}
";
        let lines = preprocess(src);
        assert!(!lines[0].in_test, "lib fn");
        assert!(lines[4].in_test, "test fn body");
        assert!(lines[5].in_test, "unwrap line");
        assert!(!lines[8].in_test, "code after the test mod");
    }

    #[test]
    fn test_attr_on_single_fn() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn lib() { b(); }\n";
        let lines = preprocess(src);
        assert!(lines[1].in_test);
        assert!(!lines[2].in_test);
    }
}
