//! The workspace **symbol/module graph**, built from the parsed items of
//! every audited file ([`crate::parser`]).
//!
//! Where the lexer gives passes *tokens* and the parser gives them
//! *items*, this module gives them *structure across files*:
//!
//! * a file → (crate, module) mapping derived from the workspace layout
//!   (`crates/<name>/src/foo.rs` → crate `<name>`, module `foo`);
//! * **use-edges**: every `use` path, resolved to the workspace crate and
//!   top-level module it names — `use crate::pool::WorkerPool` from
//!   `crates/core/src/scan.rs` becomes the intra-crate edge
//!   `core::scan → core::pool`, `use bipie_toolbox::SimdLevel` becomes the
//!   cross-crate edge `core → toolbox`. `std`/`core`/`alloc` paths are
//!   dropped. The layer-conformance pass checks these edges against the
//!   architecture tables;
//! * **fn nodes** with an approximate **call graph**: every `fn` item
//!   (methods included) contributes a node carrying the bare names of
//!   everything it calls (`ident(`/`.ident(` sites in its brace-matched
//!   body). Calls resolve by name within the same crate — deliberately
//!   coarse, but sound in the direction the passes need: the set of
//!   functions that might transitively re-enter the worker pool computed
//!   by [`Graph::reaching_fn_names`] over-approximates, never misses.
//!
//! Like everything in the auditor the graph is dependency-free and total:
//! files the lexer rejected simply contribute no nodes, and unknown path
//! roots contribute no edges.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::TokKind;
use crate::parser::{walk_items, Item, ItemKind};
use crate::scan::SourceFile;

/// One resolved `use` edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEdge {
    /// Rel path of the file holding the `use`.
    pub file: String,
    /// 0-based line of the `use` item.
    pub line: usize,
    /// Crate the `use` sits in (directory name, `bipie` for the root).
    pub from_crate: String,
    /// Top-level module of the file within its crate (`""` for the crate
    /// root and for non-`src` targets).
    pub from_module: String,
    /// Crate the path resolves to.
    pub to_crate: String,
    /// First module segment under the target crate root, when the path
    /// names one (`""` for crate-root re-exports like `use crate::Result`).
    pub to_module: String,
}

/// One `fn` item (free or method) with its approximate outgoing calls.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Rel path of the defining file.
    pub file: String,
    /// Crate the fn sits in.
    pub krate: String,
    /// Top-level module within the crate (`""` for the crate root).
    pub module: String,
    /// Qualified display name: `module::Type::name` / `module::name`.
    pub qual: String,
    /// Bare fn name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body in the defining file's token stream.
    pub body: Option<Range<usize>>,
    /// Bare names of every `ident(` / `.ident(` call in the body, deduped.
    pub calls: BTreeSet<String>,
}

/// The per-workspace symbol graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every resolved use-edge, in file order.
    pub use_edges: Vec<UseEdge>,
    /// Every `fn` node, in file order.
    pub fns: Vec<FnNode>,
}

/// Which workspace crate a rel path belongs to: `crates/<name>/…` → the
/// directory name, anything else under the root (`src/`, `tests/`,
/// `examples/`, `benches/`) → the root crate `bipie`.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "bipie".to_string()
}

/// The top-level module a `src/` file defines: `crates/core/src/pool.rs` →
/// `pool`, `…/src/lib.rs`/`main.rs` → `""` (crate root), nested
/// `…/src/foo/bar.rs` → `foo`. Non-`src` targets (tests, examples,
/// benches) have no module position and map to `""`.
pub fn module_of(rel: &str) -> String {
    let Some(idx) = rel.find("src/") else { return String::new() };
    let under = &rel[idx + 4..];
    let first = under.split('/').next().unwrap_or("");
    let stem = first.strip_suffix(".rs").unwrap_or(first);
    if stem == "lib" || stem == "main" {
        String::new()
    } else {
        stem.to_string()
    }
}

/// Resolve a `use`-path's first segment to a workspace crate name:
/// `crate`/`self`/`super` stay in `from_crate`, `bipie_<x>` names the
/// workspace crate `<x>`, `bipie` the root crate; `std`/`core`/`alloc` and
/// anything unknown resolve to `None` (no edge).
fn resolve_root(first: &str, from_crate: &str) -> Option<String> {
    match first {
        "crate" | "self" | "super" => Some(from_crate.to_string()),
        "bipie" => Some("bipie".to_string()),
        _ => first.strip_prefix("bipie_").map(str::to_string),
    }
}

/// Whether a path segment reads as a module name (snake_case) rather than
/// a type, constant, or glob re-exported from a crate root.
fn is_module_segment(seg: &str) -> bool {
    seg != "*" && seg.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

impl Graph {
    /// Build the graph from the audited corpus.
    pub fn build(files: &[SourceFile]) -> Graph {
        let mut g = Graph::default();
        for file in files {
            let krate = crate_of(&file.rel);
            let module = module_of(&file.rel);
            walk_items(&file.items, &mut |item| match item.kind {
                ItemKind::Use => {
                    for path in &item.use_paths {
                        let Some(first) = path.first() else { continue };
                        let Some(to_crate) = resolve_root(first, &krate) else { continue };
                        let to_module = if first == "self" {
                            // `self::x` stays inside the current top-level
                            // module — a self-edge, dropped downstream.
                            module.clone()
                        } else {
                            match path.get(1) {
                                Some(seg) if is_module_segment(seg) => seg.clone(),
                                _ => String::new(),
                            }
                        };
                        g.use_edges.push(UseEdge {
                            file: file.rel.clone(),
                            line: item.line,
                            from_crate: krate.clone(),
                            from_module: module.clone(),
                            to_crate,
                            to_module,
                        });
                    }
                }
                ItemKind::Fn => {
                    g.fns.push(fn_node(file, &krate, &module, item));
                }
                _ => {}
            });
        }
        g
    }

    /// The cross-crate dependency edges, deduped:
    /// `(from_crate, to_crate) → first (file, line)` witnessing the edge.
    pub fn crate_deps(&self) -> BTreeMap<(String, String), (String, usize)> {
        let mut out = BTreeMap::new();
        for e in &self.use_edges {
            if e.to_crate != e.from_crate {
                out.entry((e.from_crate.clone(), e.to_crate.clone()))
                    .or_insert_with(|| (e.file.clone(), e.line));
            }
        }
        out
    }

    /// The intra-crate module edges of one crate, deduped:
    /// `(from_module, to_module) → first (file, line)`. Crate-root files
    /// and crate-root re-exports (empty module names) contribute no edges,
    /// and self-edges (`use self::helper` within a module) are dropped.
    pub fn module_deps(&self, krate: &str) -> BTreeMap<(String, String), (String, usize)> {
        let mut out = BTreeMap::new();
        for e in &self.use_edges {
            if e.from_crate == krate
                && e.to_crate == krate
                && !e.from_module.is_empty()
                && !e.to_module.is_empty()
                && e.from_module != e.to_module
            {
                out.entry((e.from_module.clone(), e.to_module.clone()))
                    .or_insert_with(|| (e.file.clone(), e.line));
            }
        }
        out
    }

    /// Find a cycle among directed edges, if any: returns the node
    /// sequence `[a, b, …, a]` of the first cycle hit in deterministic
    /// (sorted) order, or `None` when the graph is acyclic.
    pub fn find_cycle(edges: &BTreeMap<(String, String), (String, usize)>) -> Option<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from).or_default().push(to);
        }
        let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
        let mut stack: Vec<&str> = Vec::new();
        fn dfs<'a>(
            node: &'a str,
            adj: &BTreeMap<&'a str, Vec<&'a str>>,
            state: &mut BTreeMap<&'a str, u8>,
            stack: &mut Vec<&'a str>,
        ) -> Option<Vec<String>> {
            state.insert(node, 1);
            stack.push(node);
            for &next in adj.get(node).map_or(&[][..], |v| v) {
                match state.get(next) {
                    Some(1) => {
                        let start = stack.iter().position(|&n| n == next).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[start..].iter().map(|s| s.to_string()).collect();
                        cycle.push(next.to_string());
                        return Some(cycle);
                    }
                    Some(_) => {}
                    None => {
                        if let Some(c) = dfs(next, adj, state, stack) {
                            return Some(c);
                        }
                    }
                }
            }
            stack.pop();
            state.insert(node, 2);
            None
        }
        let roots: Vec<&str> = adj.keys().copied().collect();
        for root in roots {
            if !state.contains_key(root) {
                if let Some(c) = dfs(root, &adj, &mut state, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Bare names of every fn in `krate` that transitively calls one of
    /// `roots` (the roots themselves included). Name-level fixpoint over
    /// the approximate call graph: an over-approximation by design — a
    /// same-named fn anywhere in the crate joins the set.
    pub fn reaching_fn_names(&self, krate: &str, roots: &[&str]) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = roots.iter().map(|s| s.to_string()).collect();
        loop {
            let mut grew = false;
            for f in self.fns.iter().filter(|f| f.krate == krate) {
                if !set.contains(&f.name) && f.calls.iter().any(|c| set.contains(c)) {
                    set.insert(f.name.clone());
                    grew = true;
                }
            }
            if !grew {
                return set;
            }
        }
    }
}

/// Build one [`FnNode`], harvesting call names from the body tokens.
fn fn_node(file: &SourceFile, krate: &str, module: &str, item: &Item) -> FnNode {
    let mut calls = BTreeSet::new();
    if let Some(body) = &item.body {
        let toks = &file.toks;
        let code: Vec<usize> = (body.start..body.end.min(toks.len()))
            .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for (k, &i) in code.iter().enumerate() {
            if toks[i].kind == TokKind::Ident
                && code.get(k + 1).is_some_and(|&j| toks[j].text(&file.text) == "(")
            {
                let prev = k.checked_sub(1).map(|p| toks[code[p]].text(&file.text));
                if prev != Some("fn") {
                    calls.insert(toks[i].text(&file.text).to_string());
                }
            }
        }
    }
    // Qualify by the enclosing impl/trait/mod chain when the caller gives
    // us only the item; the walk below reconstructs it lazily instead —
    // cheaper to store just `module::name` plus disambiguation via file.
    let qual =
        if module.is_empty() { item.name.clone() } else { format!("{module}::{}", item.name) };
    FnNode {
        file: file.rel.to_string(),
        krate: krate.to_string(),
        module: module.to_string(),
        qual,
        name: item.name.clone(),
        line: item.line,
        body: item.body.clone(),
        calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files.iter().map(|(rel, src)| SourceFile::from_source(rel, src).unwrap()).collect()
    }

    #[test]
    fn crate_and_module_mapping() {
        assert_eq!(crate_of("crates/core/src/pool.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "bipie");
        assert_eq!(crate_of("examples/explain.rs"), "bipie");
        assert_eq!(module_of("crates/core/src/pool.rs"), "pool");
        assert_eq!(module_of("crates/core/src/lib.rs"), "");
        assert_eq!(module_of("crates/columnstore/src/enc/rle.rs"), "enc");
        assert_eq!(module_of("crates/core/tests/pool.rs"), "");
    }

    #[test]
    fn use_edges_resolve_crates_and_modules() {
        let files = corpus(&[(
            "crates/core/src/scan.rs",
            "use crate::pool::WorkerPool;\nuse crate::{error::EngineError, stats};\nuse bipie_toolbox::SimdLevel;\nuse std::sync::Mutex;\n",
        )]);
        let g = Graph::build(&files);
        let edges: Vec<(String, String)> =
            g.use_edges.iter().map(|e| (e.to_crate.clone(), e.to_module.clone())).collect();
        assert!(edges.contains(&("core".into(), "pool".into())), "{edges:?}");
        assert!(edges.contains(&("core".into(), "error".into())), "{edges:?}");
        assert!(edges.contains(&("core".into(), "stats".into())), "{edges:?}");
        assert!(edges.contains(&("toolbox".into(), String::new())), "{edges:?}");
        assert_eq!(edges.len(), 4, "std paths contribute no edges: {edges:?}");
    }

    #[test]
    fn crate_root_reexports_have_no_module() {
        let files =
            corpus(&[("crates/tpch/src/gen.rs", "use bipie_core::Result;\nuse crate::Row;\n")]);
        let g = Graph::build(&files);
        assert_eq!(g.use_edges[0].to_module, "", "{:?}", g.use_edges);
        assert_eq!(g.use_edges[1].to_module, "", "type re-export from crate root");
        let deps = g.crate_deps();
        assert!(deps.contains_key(&("tpch".into(), "core".into())));
    }

    #[test]
    fn module_deps_dedupe_and_skip_self_edges() {
        let files = corpus(&[
            ("crates/core/src/scan.rs", "use crate::pool::WorkerPool;\nuse crate::pool::lock;\nuse self::helper;\nmod helper {}\n"),
            ("crates/core/src/lib.rs", "use crate::pool::WorkerPool;\n"),
        ]);
        let g = Graph::build(&files);
        let deps = g.module_deps("core");
        assert_eq!(deps.len(), 1, "{deps:?}");
        let ((from, to), (file, line)) = deps.iter().next().unwrap();
        assert_eq!((from.as_str(), to.as_str()), ("scan", "pool"));
        assert_eq!((file.as_str(), *line), ("crates/core/src/scan.rs", 0));
    }

    #[test]
    fn cycle_detection_finds_and_clears() {
        let mut edges = BTreeMap::new();
        edges.insert(("a".to_string(), "b".to_string()), ("f".to_string(), 0));
        edges.insert(("b".to_string(), "c".to_string()), ("f".to_string(), 1));
        assert_eq!(Graph::find_cycle(&edges), None);
        edges.insert(("c".to_string(), "a".to_string()), ("f".to_string(), 2));
        let cycle = Graph::find_cycle(&edges).unwrap();
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4, "{cycle:?}");
    }

    #[test]
    fn fn_nodes_carry_calls_and_methods() {
        let files = corpus(&[(
            "crates/core/src/scan.rs",
            "pub fn scan_parallel(pool: &WorkerPool) {\n    pool.run(|| helper());\n}\nfn helper() {}\nimpl Exec {\n    fn go(&self) { scan_parallel(&self.pool); }\n}",
        )]);
        let g = Graph::build(&files);
        assert_eq!(g.fns.len(), 3, "{:?}", g.fns);
        let sp = g.fns.iter().find(|f| f.name == "scan_parallel").unwrap();
        assert!(sp.calls.contains("run"), "{:?}", sp.calls);
        assert!(sp.calls.contains("helper"));
        assert_eq!(sp.module, "scan");
        let go = g.fns.iter().find(|f| f.name == "go").unwrap();
        assert!(go.calls.contains("scan_parallel"));
    }

    #[test]
    fn reaching_fn_names_is_a_transitive_closure() {
        let files = corpus(&[
            ("crates/core/src/pool.rs", "impl WorkerPool { pub fn run(&self) {} }"),
            ("crates/core/src/scan.rs", "pub fn scan_parallel(p: &WorkerPool) { p.run(); }"),
            ("crates/core/src/query.rs", "pub fn execute(p: &WorkerPool) { scan_parallel(p); }\npub fn unrelated() { format(); }"),
        ]);
        let g = Graph::build(&files);
        let set = g.reaching_fn_names("core", &["run"]);
        assert!(set.contains("scan_parallel"), "{set:?}");
        assert!(set.contains("execute"), "{set:?}");
        assert!(!set.contains("unrelated"), "{set:?}");
    }
}
