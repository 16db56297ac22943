//! The workspace **call graph**, built from the parsed items of every
//! audited file ([`crate::parser`]).
//!
//! Where the lexer gives passes *tokens* and the parser gives them
//! *items*, this module gives them *structure across files*: every `fn`
//! item (methods included) becomes a node carrying its crate (from the
//! workspace layout, `crates/<name>/…` → `<name>`) and the bare names of
//! everything it calls (`ident(`/`.ident(` sites in its brace-matched
//! body). Calls resolve by name within the same crate — deliberately
//! coarse, but sound in the direction the lock pass needs: the set of
//! functions that might transitively re-enter the worker pool computed by
//! [`Graph::reaching_fn_names`] over-approximates, never misses.
//!
//! Like everything in the auditor the graph is dependency-free and total:
//! files the lexer rejected simply contribute no nodes.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::parser::{walk_items, Item, ItemKind};
use crate::scan::SourceFile;

/// One `fn` item (free or method) with its approximate outgoing calls.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Crate the fn sits in.
    pub krate: String,
    /// Bare fn name.
    pub name: String,
    /// Bare names of every `ident(` / `.ident(` call in the body, deduped.
    pub calls: BTreeSet<String>,
}

/// The per-workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
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

impl Graph {
    /// Build the graph from the audited corpus.
    pub fn build(files: &[SourceFile]) -> Graph {
        let mut g = Graph::default();
        for file in files {
            let krate = crate_of(&file.rel);
            walk_items(&file.items, &mut |item| {
                if item.kind == ItemKind::Fn {
                    g.fns.push(fn_node(file, &krate, item));
                }
            });
        }
        g
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
fn fn_node(file: &SourceFile, krate: &str, item: &Item) -> FnNode {
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
    FnNode { krate: krate.to_string(), name: item.name.clone(), calls }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files.iter().map(|(rel, src)| SourceFile::from_source(rel, src).unwrap()).collect()
    }

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/core/src/pool.rs"), "core");
        assert_eq!(crate_of("crates/columnstore/src/enc/rle.rs"), "columnstore");
        assert_eq!(crate_of("src/lib.rs"), "bipie");
        assert_eq!(crate_of("examples/explain.rs"), "bipie");
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
        assert_eq!(sp.krate, "core");
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
