//! Brace-aware item-tree recovery on top of the preprocessed lines.
//!
//! [`crate::scan::preprocess`] gives us code with literals and comments
//! blanked; this module walks those lines once per file, tracking brace
//! depth, and recovers the *item skeleton*: `fn`/`impl`/`mod`/`enum`/
//! `struct`/`trait` boundaries, visibility and flattened signatures. The
//! semantic analyses — the call graph and the abstract interpreter —
//! consume this tree instead of re-deriving structure from raw lines.
//!
//! The parser is approximate by design, leaning on the workspace being
//! rustfmt-formatted: declarations start a line (after visibility), the
//! `fn` name sits on the declaration line, and the body's `{` follows
//! the signature. Those assumptions are all conservative for the
//! analyses built on top: a missed item means a missed *finding*, never
//! a spurious pass of a pinned-at-zero family, because the families that
//! must stay at zero also assert the items they audit were found.

use crate::scan::SourceFile;

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Impl,
    Mod,
    Enum,
    Struct,
    Trait,
}

/// Declared visibility. Only plain `pub` counts as public API surface;
/// `pub(crate)`/`pub(super)` are scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    Pub,
    Scoped,
    Private,
}

/// One recovered item.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Simple name (`service`, `DiskModel`, `tests`). For an `impl`
    /// block this is the implemented *type*; [`Item::trait_name`] holds
    /// the trait when it is a trait impl.
    pub name: String,
    /// Trait implemented by an `impl Trait for Type` block.
    pub trait_name: Option<String>,
    pub vis: Vis,
    /// Flattened declaration text up to (not including) the body brace.
    pub signature: String,
    /// Parameter names of a `fn`, in order, `self` excluded.
    pub params: Vec<String>,
    /// 1-based line of the declaration keyword.
    pub decl_line: usize,
    /// 1-based line of the body's opening `{` (== decl_line for
    /// single-line items; 0 for braceless items such as `struct X;`).
    pub body_start: usize,
    /// 1-based line of the closing `}` (decl_line for braceless items).
    pub body_end: usize,
    /// Index of the enclosing item in the file's arena, if nested.
    pub parent: Option<usize>,
    /// True when the declaration sits in `#[cfg(test)]`/`#[test]` scope.
    pub in_test: bool,
}

impl Item {
    /// `Type::name` for methods and associated fns, plain name otherwise.
    pub fn qualified_name(&self, arena: &[Item]) -> String {
        match self.parent.and_then(|p| arena.get(p)) {
            Some(parent) if parent.kind == ItemKind::Impl || parent.kind == ItemKind::Trait => {
                format!("{}::{}", parent.name, self.name)
            }
            _ => self.name.clone(),
        }
    }

    /// Is this fn declared inside an `impl`/`trait` block?
    pub fn is_method(&self, arena: &[Item]) -> bool {
        self.parent
            .and_then(|p| arena.get(p))
            .map(|p| matches!(p.kind, ItemKind::Impl | ItemKind::Trait))
            .unwrap_or(false)
    }

    /// Public through the item's own `pub`, or through the trait for a
    /// method in an `impl Trait for Type` block (the trait is the API).
    pub fn is_api(&self, arena: &[Item]) -> bool {
        if self.vis == Vis::Pub {
            return true;
        }
        self.parent
            .and_then(|p| arena.get(p))
            .map(|p| p.kind == ItemKind::Impl && p.trait_name.is_some())
            .unwrap_or(false)
    }
}

/// The recovered item arena of one file, declaration order.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    pub items: Vec<Item>,
}

impl ItemTree {
    /// All fns, with arena indices.
    pub fn fns(&self) -> impl Iterator<Item = (usize, &Item)> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind == ItemKind::Fn)
    }
}

/// Build the item tree for every source file, parallel to `sources`.
pub fn build(sources: &[SourceFile]) -> Vec<ItemTree> {
    sources.iter().map(parse_file).collect()
}

/// A declaration whose body brace has not been seen yet.
struct Pending {
    kind: ItemKind,
    vis: Vis,
    signature: String,
    decl_line: usize,
    in_test: bool,
    /// Unclosed `(`/`<` in the signature so far; the body `{` only
    /// counts once these are balanced (`where` clauses, generic bounds
    /// and argument lists may span lines).
    paren: i64,
    angle: i64,
}

/// An item whose body `{` has been seen but not its `}`.
struct Open {
    arena_idx: usize,
    depth: i64,
}

/// What one signature character asks the outer loop to do.
enum SigStep {
    /// Keep accumulating.
    Consume,
    /// `{` at paren depth 0 — the body opens here.
    OpenBody,
    /// `;` at depth 0 — a braceless item ends here.
    CloseBraceless,
}

fn parse_file(file: &SourceFile) -> ItemTree {
    let mut items: Vec<Item> = Vec::new();
    let mut open: Vec<Open> = Vec::new();
    let mut depth: i64 = 0;
    let mut pending: Option<Pending> = None;

    for (idx, line) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = line.code.as_str();

        // Split the line at the declaration start so braces before it
        // (e.g. a closing `}` sharing the line) update depth first.
        let decl_at = if pending.is_none() {
            detect_decl(code)
        } else {
            None
        };
        let (head, tail) = match decl_at {
            Some((pos, kind, vis)) => {
                pending = Some(Pending {
                    kind,
                    vis,
                    signature: String::new(),
                    decl_line: line_no,
                    in_test: line.in_test,
                    paren: 0,
                    angle: 0,
                });
                (&code[..pos], &code[pos..])
            }
            None => ("", code),
        };

        for c in head.chars() {
            track_brace(c, &mut depth, &mut open, &mut items, line_no);
        }

        for c in tail.chars() {
            let step = match pending.as_mut() {
                Some(p) => sig_step(p, c),
                None => {
                    track_brace(c, &mut depth, &mut open, &mut items, line_no);
                    continue;
                }
            };
            match (step, pending.take()) {
                (SigStep::OpenBody, Some(p)) => {
                    let arena_idx = items.len();
                    let item = finish_item(p, line_no, open.last(), &items);
                    items.push(item);
                    depth += 1;
                    open.push(Open { arena_idx, depth });
                }
                (SigStep::CloseBraceless, Some(p)) => {
                    let mut item = finish_item(p, 0, open.last(), &items);
                    item.body_end = item.decl_line;
                    items.push(item);
                }
                (SigStep::Consume, p) => pending = p,
                (_, None) => {}
            }
        }
        if let Some(p) = pending.as_mut() {
            p.signature.push(' ');
        }
    }
    ItemTree { items }
}

/// Feed one character into a pending signature; report whether the body
/// opens or the item ends braceless here.
fn sig_step(p: &mut Pending, c: char) -> SigStep {
    match c {
        '(' => p.paren += 1,
        ')' => p.paren -= 1,
        '<' => p.angle += 1,
        // `->` is not a closing angle bracket.
        '>' if !p.signature.ends_with('-') => p.angle = (p.angle - 1).max(0),
        '{' if p.paren == 0 => return SigStep::OpenBody,
        ';' if p.paren == 0 && p.angle <= 0 => return SigStep::CloseBraceless,
        _ => {}
    }
    p.signature.push(c);
    SigStep::Consume
}

/// Update brace depth outside any pending declaration, closing items
/// whose depth unwinds.
fn track_brace(c: char, depth: &mut i64, open: &mut Vec<Open>, items: &mut [Item], line_no: usize) {
    match c {
        '{' => *depth += 1,
        '}' => {
            if let Some(o) = open.last() {
                if o.depth == *depth {
                    items[o.arena_idx].body_end = line_no;
                    open.pop();
                }
            }
            *depth -= 1;
        }
        _ => {}
    }
}

/// Complete a pending declaration into an [`Item`].
fn finish_item(p: Pending, body_line: usize, enclosing: Option<&Open>, items: &[Item]) -> Item {
    let parent = enclosing.map(|o| o.arena_idx);
    let in_test = p.in_test || parent.map(|i| items[i].in_test).unwrap_or(false);
    let (name, trait_name) = item_name(p.kind, &p.signature);
    let params = if p.kind == ItemKind::Fn {
        fn_params(&p.signature)
    } else {
        Vec::new()
    };
    Item {
        kind: p.kind,
        name,
        trait_name,
        vis: p.vis,
        signature: p.signature.split_whitespace().collect::<Vec<_>>().join(" "),
        params,
        decl_line: p.decl_line,
        body_start: body_line,
        body_end: body_line,
        parent,
        in_test,
    }
}

const DECLS: [(&str, ItemKind); 6] = [
    ("fn", ItemKind::Fn),
    ("impl", ItemKind::Impl),
    ("mod", ItemKind::Mod),
    ("enum", ItemKind::Enum),
    ("struct", ItemKind::Struct),
    ("trait", ItemKind::Trait),
];

/// Find a declaration keyword opening an item on this line. Returns the
/// byte position of the keyword (not the visibility prefix) so brace
/// tracking can process everything before it.
fn detect_decl(code: &str) -> Option<(usize, ItemKind, Vis)> {
    let trimmed = code.trim_start();
    let indent = code.len() - trimmed.len();
    // Strip qualifiers that may precede the keyword.
    let mut rest = trimmed;
    let mut vis = Vis::Private;
    loop {
        if let Some(r) = rest.strip_prefix("pub(") {
            vis = Vis::Scoped;
            rest = r.split_once(')').map(|(_, r)| r).unwrap_or("").trim_start();
        } else if let Some(r) = strip_word(rest, "pub") {
            vis = Vis::Pub;
            rest = r;
        } else if let Some(r) = strip_word(rest, "const")
            .or_else(|| strip_word(rest, "async"))
            .or_else(|| strip_word(rest, "unsafe"))
            .or_else(|| strip_word(rest, "extern"))
            .or_else(|| strip_word(rest, "default"))
        {
            rest = r;
        } else {
            break;
        }
    }
    for (kw, kind) in DECLS {
        if let Some(after) = strip_word(rest, kw) {
            // `mod x;` handled via the `;` path; `impl<`/`fn name` both
            // continue with non-ident or space — strip_word guarantees
            // the keyword boundary already.
            if kind == ItemKind::Struct && !after.trim_start().starts_with(char::is_alphabetic) {
                continue;
            }
            let pos = indent + (trimmed.len() - rest.len());
            return Some((pos, kind, vis));
        }
    }
    None
}

/// `strip_word("fn foo", "fn") == Some("foo")`, with a word boundary.
fn strip_word<'a>(s: &'a str, word: &str) -> Option<&'a str> {
    let rest = s.strip_prefix(word)?;
    match rest.chars().next() {
        Some(c) if c.is_alphanumeric() || c == '_' => None,
        Some(c) if c == ' ' || c == '<' || c == '(' => Some(rest.trim_start()),
        _ => None,
    }
}

/// Extract the item name (and trait for trait impls) from a signature.
/// The signature text starts at the declaration keyword itself.
fn item_name(kind: ItemKind, sig: &str) -> (String, Option<String>) {
    let kw = match kind {
        ItemKind::Fn => "fn",
        ItemKind::Impl => "impl",
        ItemKind::Mod => "mod",
        ItemKind::Enum => "enum",
        ItemKind::Struct => "struct",
        ItemKind::Trait => "trait",
    };
    let sig = sig.trim();
    let sig = sig.strip_prefix(kw).unwrap_or(sig).trim_start();
    match kind {
        ItemKind::Impl => {
            // `<T> Trait<A> for Type<T>` | `<T> Type<T>` — generics stripped.
            let body = skip_generics(sig);
            match split_top_level(body, " for ") {
                Some((tr, ty)) => (type_head(ty), Some(type_head(tr))),
                None => (type_head(body), None),
            }
        }
        _ => {
            let name: String = sig
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            (name, None)
        }
    }
}

/// Skip a leading `<...>` generic parameter list.
fn skip_generics(s: &str) -> &str {
    let s = s.trim_start();
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i64;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

/// Split on a separator occurring outside `<...>` nesting.
fn split_top_level<'a>(s: &'a str, sep: &str) -> Option<(&'a str, &'a str)> {
    let mut depth = 0i64;
    let bytes = s.as_bytes();
    let sep_bytes = sep.as_bytes();
    let mut i = 0;
    while i + sep_bytes.len() <= bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            _ => {}
        }
        if depth == 0 && &bytes[i..i + sep_bytes.len()] == sep_bytes {
            return Some((&s[..i], &s[i + sep_bytes.len()..]));
        }
        i += 1;
    }
    None
}

/// Last path segment of a type, generics and references stripped.
fn type_head(s: &str) -> String {
    let s = s.trim().trim_start_matches('&').trim_start_matches("mut ");
    let base = s.split(['<', ' ']).next().unwrap_or(s);
    base.rsplit("::").next().unwrap_or(base).trim().to_owned()
}

/// Parameter names of a fn signature (text after the keyword).
fn fn_params(sig: &str) -> Vec<String> {
    let open = match sig.find('(') {
        Some(i) => i,
        None => return Vec::new(),
    };
    // Find the matching close paren.
    let mut depth = 0i64;
    let mut close = sig.len();
    for (i, c) in sig[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let inner = &sig[open + 1..close];
    let mut out = Vec::new();
    for part in split_args(inner) {
        let part = part.trim();
        let Some((name, _ty)) = part.split_once(':') else {
            continue; // `self`, `&mut self`
        };
        let name = name.trim().trim_start_matches("mut ").trim();
        if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            out.push(name.to_owned());
        }
    }
    out
}

/// Split an argument list on top-level commas (ignoring `<>`/`()`/`[]`).
fn split_args(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn tree(src: &str) -> ItemTree {
        let file = SourceFile {
            rel_path: "crates/x/src/lib.rs".into(),
            crate_name: "x".into(),
            lines: preprocess(src),
        };
        parse_file(&file)
    }

    #[test]
    fn recovers_fn_boundaries_and_visibility() {
        let t = tree("pub fn a() {\n    b();\n}\nfn b() {}\n");
        assert_eq!(t.items.len(), 2);
        assert_eq!(t.items[0].name, "a");
        assert_eq!(t.items[0].vis, Vis::Pub);
        assert_eq!((t.items[0].decl_line, t.items[0].body_end), (1, 3));
        assert_eq!(t.items[1].name, "b");
        assert_eq!(t.items[1].vis, Vis::Private);
        assert_eq!((t.items[1].decl_line, t.items[1].body_end), (4, 4));
    }

    #[test]
    fn multiline_signatures_flatten() {
        let t = tree(
            "pub fn long(\n    a: u64,\n    b: &str,\n) -> Result<(), Error> {\n    x();\n}\n",
        );
        assert_eq!(t.items[0].name, "long");
        assert_eq!(t.items[0].params, ["a", "b"]);
        assert_eq!(t.items[0].body_start, 4);
        assert_eq!(t.items[0].body_end, 6);
    }

    #[test]
    fn impl_blocks_nest_methods() {
        let t = tree(
            "struct DiskModel;\nimpl PowerModel for DiskModel {\n    fn service(&mut self, now: u64) {\n        go();\n    }\n}\n",
        );
        let imp = t
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl)
            .expect("impl");
        assert_eq!(imp.name, "DiskModel");
        assert_eq!(imp.trait_name.as_deref(), Some("PowerModel"));
        let (_, m) = t.fns().next().expect("method");
        assert_eq!(m.qualified_name(&t.items), "DiskModel::service");
        assert!(m.is_method(&t.items));
        assert!(m.is_api(&t.items), "trait-impl methods are API surface");
        assert_eq!(m.params, ["now"]);
    }

    #[test]
    fn test_scope_is_inherited() {
        let t = tree("#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn lib() {}\n");
        let helper = t.items.iter().find(|i| i.name == "helper").expect("helper");
        assert!(helper.in_test);
        let lib = t.items.iter().find(|i| i.name == "lib").expect("lib");
        assert!(!lib.in_test);
    }

    #[test]
    fn generic_impl_and_where_clause() {
        let t = tree(
            "impl<T: Clone> Holder<T>\nwhere\n    T: Send,\n{\n    pub fn get(&self) -> T {\n        self.0.clone()\n    }\n}\n",
        );
        let imp = t
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Impl)
            .expect("impl");
        assert_eq!(imp.name, "Holder");
        assert_eq!(imp.trait_name, None);
        let (_, g) = t.fns().next().expect("method");
        assert_eq!(g.qualified_name(&t.items), "Holder::get");
        assert_eq!(g.vis, Vis::Pub);
        assert!(!g.is_api(&t.items) || g.vis == Vis::Pub);
    }

    #[test]
    fn braceless_items_do_not_desync_depth() {
        let t = tree("pub struct Marker;\npub fn after() {}\n");
        assert_eq!(t.items.len(), 2);
        assert_eq!(t.items[1].name, "after");
        assert_eq!(t.items[1].parent, None);
    }
}
