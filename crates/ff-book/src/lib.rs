//! # ff-book — the offline handbook check
//!
//! The handbook under `docs/` is authored in mdBook's conventions
//! (`book.toml` + `SUMMARY.md` + Markdown chapters), so a stock
//! `mdbook build docs` renders it wherever mdBook is installed. mdBook
//! does not verify links, so this std-only crate is the gate:
//! [`check`] parses `book.toml` and `SUMMARY.md`, fails if a chapter
//! file is missing, and reports every relative Markdown link that does
//! not resolve (including links out into the repository, e.g.
//! `../DESIGN.md`) and every unterminated code fence.
//!
//! ```
//! let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs");
//! assert_eq!(ff_book::check(&docs).unwrap(), []);
//! ```

#![warn(missing_docs)]

use ff_base::{Error, Result};
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed `book.toml` (the minimal subset mdBook requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookConfig {
    /// The book title (`[book] title = "…"`).
    pub title: String,
    /// Chapter source directory relative to the book root
    /// (`[book] src = "…"`, mdBook's default is `src`).
    pub src: String,
}

/// One `SUMMARY.md` entry: a chapter title and its Markdown file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chapter {
    /// Display title from the summary link text.
    pub title: String,
    /// Path of the chapter file, relative to the source directory.
    pub path: String,
}

/// One problem found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Issue {
    /// Chapter file (relative to the source directory) containing it.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub reason: String,
}

fn config_err(msg: impl Into<String>) -> Error {
    Error::Config(msg.into())
}

/// Parse the minimal `book.toml` subset: the `title` and `src` keys of
/// the `[book]` table. Unknown keys and tables are ignored, exactly as
/// mdBook ignores keys it does not know.
pub fn parse_book_toml(text: &str) -> Result<BookConfig> {
    let mut title = None;
    let mut src = None;
    let mut in_book = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_book = line == "[book]";
            continue;
        }
        if !in_book {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            let value = value.trim().trim_matches('"').to_string();
            match key.trim() {
                "title" => title = Some(value),
                "src" => src = Some(value),
                _ => {}
            }
        }
    }
    Ok(BookConfig {
        title: title.ok_or_else(|| config_err("book.toml: missing [book] title"))?,
        src: src.unwrap_or_else(|| "src".to_string()),
    })
}

/// Parse `SUMMARY.md`: every list item of the form `- [Title](file.md)`
/// (any indentation, `-` or `*`) is a chapter. Draft chapters
/// (`[Title]()`) and separator lines are skipped, as in mdBook.
pub fn parse_summary(text: &str) -> Result<Vec<Chapter>> {
    let mut chapters = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_start();
        let Some(rest) = line.strip_prefix("- ").or_else(|| line.strip_prefix("* ")) else {
            continue;
        };
        let Some((title, target)) = parse_link(rest) else {
            return Err(Error::Parse {
                line: idx + 1,
                msg: format!("SUMMARY.md list item is not a link: {line:?}"),
            });
        };
        if target.is_empty() {
            continue; // draft chapter
        }
        chapters.push(Chapter {
            title: title.to_string(),
            path: target.to_string(),
        });
    }
    if chapters.is_empty() {
        return Err(config_err("SUMMARY.md lists no chapters"));
    }
    Ok(chapters)
}

/// If `text` starts with `[label](target)`, return `(label, target)`.
fn parse_link(text: &str) -> Option<(&str, &str)> {
    let rest = text.strip_prefix('[')?;
    let close = rest.find(']')?;
    let after = rest[close + 1..].strip_prefix('(')?;
    let end = after.find(')')?;
    Some((&rest[..close], &after[..end]))
}

/// Load the book rooted at `dir` (the directory containing `book.toml`).
fn load(dir: &Path) -> Result<(PathBuf, Vec<Chapter>)> {
    let toml = fs::read_to_string(dir.join("book.toml"))
        .map_err(|e| config_err(format!("{}: {e}", dir.join("book.toml").display())))?;
    let config = parse_book_toml(&toml)?;
    let src = dir.join(&config.src);
    let summary = fs::read_to_string(src.join("SUMMARY.md"))
        .map_err(|e| config_err(format!("{}: {e}", src.join("SUMMARY.md").display())))?;
    let chapters = parse_summary(&summary)?;
    Ok((src, chapters))
}

/// Extract `(line, target)` for every Markdown link in `text`,
/// including links inside list items; code fences are skipped. The
/// second value is the line of a code fence left open at the end.
fn links_in(text: &str) -> (Vec<(usize, String)>, Option<usize>) {
    let mut out = Vec::new();
    let mut open_fence = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            open_fence = match open_fence {
                None => Some(idx + 1),
                Some(_) => None,
            };
            continue;
        }
        if open_fence.is_some() {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find('[') {
            rest = &rest[pos..];
            if let Some((label, target)) = parse_link(rest) {
                out.push((idx + 1, target.to_string()));
                rest = &rest[label.len() + target.len() + 4..];
            } else {
                rest = &rest[1..];
            }
        }
    }
    (out, open_fence)
}

/// Check the book at `dir`: every relative link in every chapter (and
/// in `SUMMARY.md`) must resolve, and every code fence must close.
/// External (`http…`) links are skipped — the check runs offline.
/// Returns the problems found; empty means clean. Fails outright when
/// `book.toml` or `SUMMARY.md` is unreadable or a chapter file is
/// missing.
pub fn check(dir: &Path) -> Result<Vec<Issue>> {
    let (src, chapters) = load(dir)?;
    let mut issues = Vec::new();
    let mut files: Vec<String> = chapters.iter().map(|c| c.path.clone()).collect();
    files.push("SUMMARY.md".to_string());
    for file in &files {
        let path = src.join(file);
        let text = fs::read_to_string(&path)
            .map_err(|e| config_err(format!("{}: {e}", path.display())))?;
        let base = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let (links, open_fence) = links_in(&text);
        for (line, target) in links {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let bare = target.split('#').next().unwrap_or("");
            if bare.is_empty() {
                continue; // same-page anchor
            }
            if !base.join(bare).exists() {
                issues.push(Issue {
                    file: file.clone(),
                    line,
                    reason: format!(
                        "broken link [{target}]: {} does not exist",
                        base.join(bare).display()
                    ),
                });
            }
        }
        if let Some(line) = open_fence {
            issues.push(Issue {
                file: file.clone(),
                line,
                reason: "unterminated code fence".to_string(),
            });
        }
    }
    Ok(issues)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn book_toml_subset_parses() {
        let cfg = parse_book_toml(
            "[book]\ntitle = \"FlexFetch Handbook\"\nsrc = \".\"\n[output.html]\nfold = true\n",
        )
        .unwrap();
        assert_eq!(cfg.title, "FlexFetch Handbook");
        assert_eq!(cfg.src, ".");
    }

    #[test]
    fn book_toml_without_title_is_rejected() {
        assert!(parse_book_toml("[book]\nsrc = \".\"\n").is_err());
    }

    #[test]
    fn summary_entries_and_drafts() {
        let chapters = parse_summary(
            "# Summary\n\n- [Intro](introduction.md)\n  - [Nested](sub/ch.md)\n- [Draft]()\n",
        )
        .unwrap();
        assert_eq!(chapters.len(), 2);
        assert_eq!(chapters[1].path, "sub/ch.md");
    }

    #[test]
    fn links_are_extracted_outside_fences_only() {
        let (found, open) = links_in("[a](one.md)\n```\n[b](two.md)\n```\nsee [c](three.md) end\n");
        let targets: Vec<&str> = found.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(targets, ["one.md", "three.md"]);
        assert_eq!(open, None);
    }

    #[test]
    fn check_reports_dead_links_and_open_fences_and_fails_on_a_missing_chapter() {
        let dir = std::env::temp_dir().join(format!("ff-book-test-{}", std::process::id()));
        let src = dir.join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(dir.join("book.toml"), "[book]\ntitle = \"T\"\n").unwrap();
        fs::write(src.join("SUMMARY.md"), "- [One](one.md)\n").unwrap();
        fs::write(
            src.join("one.md"),
            "# One\n\n[dead](missing.md)\n\n```rust\nlet x = 1;\n\n[hidden](gone.md)\n",
        )
        .unwrap();

        let issues = check(&dir).unwrap();
        let found: Vec<(&str, usize)> = issues.iter().map(|i| (i.file.as_str(), i.line)).collect();
        assert_eq!(found, [("one.md", 3), ("one.md", 5)], "{issues:?}");
        assert!(issues[0].reason.contains("[missing.md]"));
        assert_eq!(issues[1].reason, "unterminated code fence");

        fs::write(src.join("SUMMARY.md"), "- [One](one.md)\n- [Two](two.md)\n").unwrap();
        assert!(matches!(check(&dir), Err(Error::Config(m)) if m.contains("two.md")));

        fs::remove_dir_all(&dir).unwrap();
    }
}
