//! Workspace call graph and panic-reachability analysis.
//!
//! Nodes are the non-test fns of library files recovered by
//! [`crate::items`] (bins may abort; they are not reachable from
//! library code). Edges use *graded name resolution* — as much
//! precision as the item skeleton affords, without type inference:
//!
//! * `Type::name(` / `Self::name(` resolves to fns named `name` inside
//!   an `impl`/`trait` block for that type (`Self` = the caller's own);
//! * `module::name(` (lowercase qualifier) resolves to free fns;
//! * `self.name(` resolves to methods of the caller's own type;
//! * `expr.name(` resolves to **every** workspace method named `name`
//!   (class-hierarchy style, so trait dispatch stays covered), except
//!   names that collide with ubiquitous std methods (`push`, `get`,
//!   `flush`, …) where the receiver is almost always a std type;
//! * bare `name(` resolves to free fns named `name`.
//!
//! The std-collision carve-out makes the analysis slightly *under*-
//! approximate: a genuine `self.queue.push(…)` onto a workspace type is
//! not linked. Everything else errs on the side of reporting too much,
//! and the ratchet baseline absorbs the accepted noise.
//!
//! A fn is a *panic source* when its body directly contains a
//! `.unwrap()` / `.expect("` / `panic!` / `unreachable!` / `todo!`
//! token or a slice-indexing expression (`v[i]`). Reachability is
//! propagated backwards over the call graph; the reported findings are
//! the public API fns of the five simulation crates (`API_CRATES`)
//! from which a panic source is reachable, each with the shortest call
//! path as evidence.

use crate::items::{Item, ItemTree};
use crate::rules::{Finding, Rule};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A node: (file index, arena index) of a fn item.
pub type NodeId = (usize, usize);

/// One direct panic site inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Which token class (`.unwrap()`, `panic!`, `slice-index`, …).
    pub token: String,
    /// 1-based line within the defining file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Sorted adjacency: caller → callees (deterministic order).
    pub calls: BTreeMap<NodeId, Vec<NodeId>>,
    /// Direct panic sites per fn.
    pub panics: BTreeMap<NodeId, Vec<PanicSite>>,
    /// Simple fn name → defining nodes, sorted.
    pub by_name: BTreeMap<String, Vec<NodeId>>,
}

/// Tokens whose presence in a body makes the fn a direct panic source.
const PANIC_BODY_TOKENS: [&str; 5] = [".unwrap()", ".expect(\"", "panic!", "unreachable!", "todo!"];

/// Crates whose public API is checked: the simulation state lives
/// here. `ff-base` only hosts the newtypes and `ff-trace` replays
/// recorded traces.
const API_CRATES: [&str; 5] = ["ff-sim", "ff-device", "ff-cache", "ff-policy", "ff-profile"];

/// The dependency closure of the simulation crates — the only possible
/// callees of simulation code. Cargo forbids dependency cycles, so the
/// driver/tool crates (ff-bench, ff-lint) can never be called back from
/// these and would only contribute false name-resolution targets.
const GRAPH_CRATES: [&str; 7] = [
    "ff-base",
    "ff-cache",
    "ff-device",
    "ff-policy",
    "ff-profile",
    "ff-sim",
    "ff-trace",
];

/// Keywords that can directly precede `[` without being an indexed
/// expression (`&mut [u8]`, `dyn [T]`-ish type positions).
const NON_INDEX_WORDS: [&str; 6] = ["mut", "dyn", "in", "as", "return", "else"];

/// Method names so common on std containers/writers that a `expr.name(`
/// call almost certainly targets a std type, not a workspace one.
/// Qualified (`Type::name(`) and `self.name(` calls bypass this list.
const STD_COLLIDING_METHODS: [&str; 34] = [
    "abs",
    "append",
    "clear",
    "clone",
    "contains",
    "contains_key",
    "default",
    "drain",
    "entry",
    "extend",
    "find",
    "first",
    "flush",
    "get",
    "get_mut",
    "insert",
    "is_empty",
    "iter",
    "last",
    "len",
    "max",
    "min",
    "new",
    "next",
    "pop",
    "push",
    "push_str",
    "read",
    "remove",
    "replace",
    "sort",
    "split",
    "take",
    "write",
];

/// One syntactic call site on a preprocessed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite<'a> {
    /// The called fn's simple name.
    pub name: &'a str,
    /// The path segment before `::` for `Type::name(` / `mod::name(`.
    pub qualifier: Option<&'a str>,
    /// True for `.name(` method calls.
    pub method: bool,
    /// True when a method call's receiver is literally `self`.
    pub on_self: bool,
}

impl Graph {
    /// Build the graph over every non-test fn in library files of the
    /// simulation dependency closure (`GRAPH_CRATES`).
    pub fn build(sources: &[SourceFile], trees: &[ItemTree]) -> Graph {
        let mut g = Graph::default();
        // Pass 1: register all fn nodes by simple name.
        for (fi, tree) in trees.iter().enumerate() {
            if !GRAPH_CRATES.contains(&sources[fi].crate_name.as_str()) {
                continue;
            }
            for (ii, item) in tree.fns() {
                if item.in_test {
                    continue;
                }
                g.by_name
                    .entry(item.name.clone())
                    .or_default()
                    .push((fi, ii));
            }
        }
        // The `impl`/`trait` type a fn is declared in, if any.
        let parent_type = |(fi, ii): NodeId| -> Option<&str> {
            let item = trees[fi].items.get(ii)?;
            let parent = trees[fi].items.get(item.parent?)?;
            matches!(
                parent.kind,
                crate::items::ItemKind::Impl | crate::items::ItemKind::Trait
            )
            .then_some(parent.name.as_str())
        };
        // Pass 2: scan bodies for calls and panic sites.
        for (fi, tree) in trees.iter().enumerate() {
            if !GRAPH_CRATES.contains(&sources[fi].crate_name.as_str()) {
                continue;
            }
            let file = &sources[fi];
            for (ii, item) in tree.fns() {
                if item.in_test || item.body_start == 0 {
                    continue;
                }
                let node = (fi, ii);
                let own_type = parent_type(node);
                let mut callees: BTreeSet<NodeId> = BTreeSet::new();
                let mut sites = Vec::new();
                for line_no in item.body_start..=item.body_end {
                    let Some(line) = file.lines.get(line_no - 1) else {
                        continue;
                    };
                    if line.in_test {
                        continue;
                    }
                    let code = &line.code;
                    for call in call_sites(code) {
                        if call.name == item.name && line_no == item.decl_line {
                            continue; // the declaration itself
                        }
                        let Some(defs) = g.by_name.get(call.name) else {
                            continue;
                        };
                        // What kind of definition may this call target?
                        enum Want<'a> {
                            MethodOf(&'a str),
                            AnyMethod,
                            FreeFn,
                        }
                        let want = match call.qualifier {
                            Some("Self") => match own_type {
                                Some(t) => Want::MethodOf(t),
                                None => continue,
                            },
                            Some(q) if q.starts_with(char::is_uppercase) => Want::MethodOf(q),
                            Some(_) => Want::FreeFn, // module path
                            None if call.on_self => match own_type {
                                Some(t) => Want::MethodOf(t),
                                None => continue,
                            },
                            None if call.method => {
                                if STD_COLLIDING_METHODS.contains(&call.name) {
                                    continue; // receiver is almost surely a std type
                                }
                                Want::AnyMethod
                            }
                            None => Want::FreeFn,
                        };
                        for &def in defs {
                            let def_type = parent_type(def);
                            let ok = match want {
                                Want::MethodOf(t) => def_type == Some(t),
                                Want::AnyMethod => def_type.is_some(),
                                Want::FreeFn => def_type.is_none(),
                            };
                            if ok {
                                callees.insert(def);
                            }
                        }
                    }
                    for token in PANIC_BODY_TOKENS {
                        for _ in 0..crate::rules::count_occurrences(code, token) {
                            sites.push(PanicSite {
                                token: token.to_owned(),
                                line: line_no,
                            });
                        }
                    }
                    if has_slice_index(code) {
                        sites.push(PanicSite {
                            token: "slice-index".to_owned(),
                            line: line_no,
                        });
                    }
                }
                callees.remove(&node);
                g.calls.insert(node, callees.into_iter().collect());
                if !sites.is_empty() {
                    g.panics.insert(node, sites);
                }
            }
        }
        g
    }

    /// Shortest call path (as node list) from `from` to any panic
    /// source, or None when no panic is reachable. Deterministic: BFS
    /// over the sorted adjacency.
    pub fn panic_path(&self, from: NodeId) -> Option<Vec<NodeId>> {
        let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        seen.insert(from);
        while let Some(node) = queue.pop_front() {
            if self.panics.contains_key(&node) {
                let mut path = vec![node];
                let mut cur = node;
                while cur != from {
                    let Some(&p) = prev.get(&cur) else { break };
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(callees) = self.calls.get(&node) {
                for &next in callees {
                    if seen.insert(next) {
                        prev.insert(next, node);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }
}

/// Report pub API fns of the simulation crates that can transitively
/// reach a panic.
pub fn panic_reachability(
    sources: &[SourceFile],
    trees: &[ItemTree],
    graph: &Graph,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, tree) in trees.iter().enumerate() {
        let file = &sources[fi];
        if !API_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (ii, item) in tree.fns() {
            if item.in_test || !item.is_api(&tree.items) {
                continue;
            }
            let Some(path) = graph.panic_path((fi, ii)) else {
                continue;
            };
            out.push(Finding {
                rule: Rule::PanicReach,
                file: file.rel_path.clone(),
                line: item.decl_line,
                token: item.qualified_name(&tree.items),
                message: describe_path(sources, trees, graph, &path),
            });
        }
    }
    out
}

/// `service → positioning → slice-index at crates/…/disk.rs:193`.
fn describe_path(
    sources: &[SourceFile],
    trees: &[ItemTree],
    graph: &Graph,
    path: &[NodeId],
) -> String {
    let name_of = |&(fi, ii): &NodeId| -> String {
        trees[fi]
            .items
            .get(ii)
            .map(|i: &Item| i.qualified_name(&trees[fi].items))
            .unwrap_or_default()
    };
    let chain: Vec<String> = path.iter().map(name_of).collect();
    let site = path
        .last()
        .and_then(|n| graph.panics.get(n).and_then(|s| s.first().map(|s| (n, s))));
    match site {
        Some((&(fi, _), site)) => format!(
            "pub API can reach {} at {}:{} via {}",
            site.token,
            sources[fi].rel_path,
            site.line,
            chain.join(" -> ")
        ),
        None => format!("pub API can reach a panic via {}", chain.join(" -> ")),
    }
}

/// Syntactic call sites on one preprocessed line: `foo(`, `.foo(` and
/// `path::foo(` (macros `foo!(` and control-flow keywords excluded).
pub fn call_sites(code: &str) -> Vec<CallSite<'_>> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'(' {
            // Walk back over the identifier directly before `(`.
            let mut start = i;
            while start > 0
                && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
            {
                start -= 1;
            }
            if start < i {
                let before = if start > 0 { bytes[start - 1] } else { b' ' };
                let name = &code[start..i];
                let keyword = matches!(
                    name,
                    "if" | "while"
                        | "for"
                        | "match"
                        | "return"
                        | "fn"
                        | "loop"
                        | "in"
                        | "as"
                        | "let"
                        | "else"
                        | "move"
                        | "Some"
                        | "Ok"
                        | "Err"
                        | "None"
                );
                let numeric = name
                    .as_bytes()
                    .first()
                    .map(|b| b.is_ascii_digit())
                    .unwrap_or(true);
                if !keyword && !numeric && before != b'!' {
                    let method = before == b'.';
                    let qualifier = (before == b':' && start >= 2 && bytes[start - 2] == b':')
                        .then(|| ident_before(code, start - 2))
                        .filter(|q| !q.is_empty());
                    let on_self = method && ident_before(code, start - 1) == "self";
                    out.push(CallSite {
                        name,
                        qualifier,
                        method,
                        on_self,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// The identifier ending at byte `end` (exclusive).
fn ident_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    &code[start..end]
}

/// Does the line contain an indexing expression `expr[…]`?
pub fn has_slice_index(code: &str) -> bool {
    let t = code.trim_start();
    if t.starts_with('#') {
        return false; // attribute, e.g. `#[derive(…)]`
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev == b')' || prev == b']' {
            return true;
        }
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            // Walk back over the word; keywords in type position
            // (`&mut [u8]`) are not indexing.
            let mut start = i - 1;
            while start > 0
                && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
            {
                start -= 1;
            }
            let word = &code[start..i];
            if !NON_INDEX_WORDS.contains(&word) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scan::preprocess;

    fn sources(files: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(path, krate, src)| SourceFile {
                rel_path: (*path).to_owned(),
                crate_name: (*krate).to_owned(),
                lines: preprocess(src),
            })
            .collect()
    }

    #[test]
    fn call_sites_extracts_calls_not_macros() {
        let sites = call_sites("let x = helper(a) + obj.method(b); go!(c); if (x) {}");
        let names: Vec<&str> = sites.iter().map(|c| c.name).collect();
        assert_eq!(names, ["helper", "method"]);
        assert!(!sites[0].method && sites[1].method);
    }

    #[test]
    fn slice_index_detection() {
        assert!(has_slice_index("let a = v[0];"));
        assert!(has_slice_index("m[i][j] = 1;"));
        assert!(!has_slice_index("fn f(v: &mut [u8]) {"));
        assert!(!has_slice_index("let a: [u8; 4] = x;"));
        assert!(!has_slice_index("#[derive(Debug)]"));
        assert!(!has_slice_index("let v = vec![1, 2];"));
    }

    #[test]
    fn transitive_panic_is_reported_for_pub_api() {
        let srcs = sources(&[(
            "crates/ff-sim/src/lib.rs",
            "ff-sim",
            "pub fn api(v: &[u8]) -> u8 {\n    helper(v)\n}\nfn helper(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\npub fn clean() -> u8 {\n    0\n}\n",
        )]);
        let trees = items::build(&srcs);
        let g = Graph::build(&srcs, &trees);
        let findings = panic_reachability(&srcs, &trees, &g);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["api"], "{findings:?}");
        assert!(
            findings[0].message.contains("api -> helper"),
            "{}",
            findings[0].message
        );
        assert!(findings[0].message.contains(".unwrap()"));
    }

    #[test]
    fn direct_slice_index_is_a_source() {
        let srcs = sources(&[(
            "crates/ff-cache/src/lib.rs",
            "ff-cache",
            "pub fn head(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        )]);
        let trees = items::build(&srcs);
        let g = Graph::build(&srcs, &trees);
        let findings = panic_reachability(&srcs, &trees, &g);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("slice-index"));
    }

    #[test]
    fn non_sim_crates_are_not_reported() {
        let srcs = sources(&[(
            "crates/ff-base/src/lib.rs",
            "ff-base",
            "pub fn head(v: &[u8]) -> u8 {\n    v[0]\n}\n",
        )]);
        let trees = items::build(&srcs);
        let g = Graph::build(&srcs, &trees);
        assert!(panic_reachability(&srcs, &trees, &g).is_empty());
    }

    #[test]
    fn cross_file_resolution_links_by_name() {
        let srcs = sources(&[
            (
                "crates/ff-sim/src/lib.rs",
                "ff-sim",
                "pub fn run() {\n    deep_helper();\n}\n",
            ),
            (
                "crates/ff-sim/src/util.rs",
                "ff-sim",
                "pub fn deep_helper() {\n    panic!(\"boom\")\n}\n",
            ),
        ]);
        let trees = items::build(&srcs);
        let g = Graph::build(&srcs, &trees);
        let findings = panic_reachability(&srcs, &trees, &g);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["run", "deep_helper"]);
    }
}
