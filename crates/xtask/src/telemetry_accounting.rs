//! Telemetry accounting on error paths.
//!
//! The process-wide telemetry layer (DESIGN.md §14) is only trustworthy if
//! every query exit — success *or* typed failure — reaches the publication
//! seam exactly where the design says it does. That is a path property,
//! checked here on the CFGs.
//!
//! **Error publication** (engine boundary fns — `execute*`/`admit*` in
//! `core::engine`/`core::query`, `*_inner` excluded by design since their
//! callers own the seam): every statement that can exit with an
//! `EngineError` must publish. A `?` statement publishes only through the
//! call itself (the callee is in the transitive *publishing set*, computed
//! as a reverse fixpoint over the call graph from the `publish_*` seams —
//! nothing runs after a `?` fires, so an earlier publication cannot cover
//! it). A `return Err(…)`/tail `Err(…)` is covered when a publication
//! **must** have happened on every path reaching it (forward-intersect
//! analysis, refined statement-by-statement inside the block) — the
//! `publish-then-return` idiom the admission controller uses.

use std::collections::BTreeSet;

use crate::cfg::{self, Cfg};
use crate::dataflow::{solve, BitSet, Direction, FlowGraph, Meet};
use crate::graph::Graph;
use crate::lexer::TokKind;
use crate::scan::SourceFile;
use crate::Diag;

/// Files owning the engine's error-publication seam.
const BOUNDARY_FILES: [&str; 2] = ["crates/core/src/engine.rs", "crates/core/src/query.rs"];

/// Run the telemetry-accounting pass.
pub fn check(files: &[SourceFile], graph: &Graph) -> Vec<Diag> {
    let pub_set = publishing_set(graph);
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file() || !BOUNDARY_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        for c in &file.cfgs.cfgs {
            if file.line_in_tests(c.line) || !is_boundary(&c.name) {
                continue;
            }
            check_error_paths(file, c, &pub_set, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Fn names that transitively reach a `publish_*` call: seeded with every
/// fn whose body calls a `publish_*` seam, grown by "calls a fn already in
/// the set" until fixpoint. Bare names — the same resolution level the
/// call-graph extraction works at.
fn publishing_set(graph: &Graph) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for f in &graph.fns {
            if set.contains(&f.name) {
                continue;
            }
            let publishes = f.calls.iter().any(|c| c.starts_with("publish_") || set.contains(c));
            if publishes {
                set.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    set
}

/// Whether a CFG belongs to the engine's error-publication boundary. For
/// closures, the root fn name decides.
fn is_boundary(name: &str) -> bool {
    let root = name.split("::{closure").next().unwrap_or(name);
    (root.starts_with("execute") || root.starts_with("admit")) && !root.contains("inner")
}

/// Idents called in a statement (ident directly followed by `(`).
fn called_names<'a>(file: &'a SourceFile, stmt: &cfg::Stmt) -> Vec<&'a str> {
    let toks: Vec<&crate::lexer::Tok> = file.toks[stmt.toks.start..stmt.toks.end]
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut out = Vec::new();
    for w in toks.windows(2) {
        if w[0].kind == TokKind::Ident && w[1].text(&file.text) == "(" {
            out.push(w[0].text(&file.text));
        }
    }
    out
}

/// Whether a statement publishes: it touches a `publish_*` seam directly or
/// calls into the transitive publishing set.
fn stmt_publishes(file: &SourceFile, stmt: &cfg::Stmt, pub_set: &BTreeSet<String>) -> bool {
    let text = cfg::stmt_text(&file.text, &file.toks, stmt);
    if text.contains("publish_") {
        return true;
    }
    called_names(file, stmt).iter().any(|n| pub_set.contains(*n))
}

fn check_error_paths(file: &SourceFile, c: &Cfg, pub_set: &BTreeSet<String>, out: &mut Vec<Diag>) {
    // Must-analysis: "a publication has happened" on every path.
    let mut gen = vec![BitSet::empty(1); c.blocks.len()];
    let kill = vec![BitSet::empty(1); c.blocks.len()];
    for (bi, b) in c.blocks.iter().enumerate() {
        if b.stmts.iter().any(|s| stmt_publishes(file, s, pub_set)) {
            gen[bi].insert(0);
        }
    }
    let g = FlowGraph::from_cfg(c);
    let sol = solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
    // Blocks whose fall-through reaches the fn exit only via empty join
    // blocks: their last statement is in tail (return-value) position.
    let mut tail = vec![false; c.blocks.len()];
    loop {
        let mut changed = false;
        for (bi, b) in c.blocks.iter().enumerate() {
            if tail[bi] {
                continue;
            }
            let reaches = b.succs.iter().any(|&(s, k)| {
                k == cfg::EdgeKind::Seq
                    && (s == c.exit || (c.blocks[s].stmts.is_empty() && tail[s]))
            });
            if reaches {
                tail[bi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (bi, b) in c.blocks.iter().enumerate() {
        let mut published = sol.input[bi].contains(0);
        for (si, s) in b.stmts.iter().enumerate() {
            let publishes = stmt_publishes(file, s, pub_set);
            let text = cfg::stmt_text(&file.text, &file.toks, s);
            if s.question && !publishes {
                out.push(error_diag(file, c, s.line, "`?` propagates the error"));
            }
            let is_err_return = s.kind == cfg::StmtKind::Return && text.contains("Err");
            let is_err_tail = s.kind == cfg::StmtKind::Plain
                && si + 1 == b.stmts.len()
                && text.starts_with("Err")
                && tail[bi];
            if (is_err_return || is_err_tail) && !published && !publishes {
                out.push(error_diag(file, c, s.line, "this error exit"));
            }
            if publishes {
                published = true;
            }
        }
    }
}

fn error_diag(file: &SourceFile, c: &Cfg, line: usize, what: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "telemetry-accounting",
        msg: format!(
            "{what} out of boundary fn `{}` without reaching the telemetry publication \
             seam — publish the failure (e.g. `telemetry().publish_error(…)`) so the \
             error counters account for every query exit",
            c.name
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn corpus(files: Vec<SourceFile>) -> (Vec<SourceFile>, Graph) {
        let graph = Graph::build(&files);
        (files, graph)
    }

    fn engine(src: &str) -> SourceFile {
        SourceFile::from_source("crates/core/src/engine.rs", src).unwrap()
    }

    #[test]
    fn unpublished_question_in_boundary_fn_is_flagged() {
        let (files, graph) = corpus(vec![engine(
            "pub fn execute(q: &Q) -> Result<(), E> {\n    q.validate()?;\n    Ok(())\n}",
        )]);
        let diags = check(&files, &graph);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.contains("publication"), "{diags:?}");
    }

    #[test]
    fn question_through_publishing_callee_is_exempt() {
        let (files, graph) = corpus(vec![engine(
            "fn admit(cost: usize) -> Result<(), E> {\n    telemetry().publish_engine_shed(r);\n    Err(E::Shed)\n}\npub fn execute(q: &Q) -> Result<(), E> {\n    admit(q.cost)?;\n    Ok(())\n}",
        )]);
        let diags = check(&files, &graph);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn publish_then_return_err_is_clean() {
        let (files, graph) = corpus(vec![engine(
            "pub fn admit(cost: usize) -> Result<(), E> {\n    if cost > CAP {\n        telemetry().publish_engine_shed(r);\n        return Err(E::Shed);\n    }\n    Ok(())\n}",
        )]);
        assert!(check(&files, &graph).is_empty());
    }

    #[test]
    fn bare_return_err_is_flagged() {
        let (files, graph) = corpus(vec![engine(
            "pub fn admit(cost: usize) -> Result<(), E> {\n    if cost > CAP {\n        return Err(E::Shed);\n    }\n    Ok(())\n}",
        )]);
        let diags = check(&files, &graph);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn tail_err_after_publication_is_clean() {
        let (files, graph) = corpus(vec![engine(
            "pub fn execute(q: &Q) -> Result<R, E> {\n    match run(q) {\n        Ok(r) => {\n            telemetry().publish_query(&r);\n            Ok(r)\n        }\n        Err(e) => {\n            telemetry().publish_error(&e);\n            Err(e)\n        }\n    }\n}",
        )]);
        assert!(check(&files, &graph).is_empty());
    }

    #[test]
    fn unpublished_tail_err_is_flagged() {
        let (files, graph) = corpus(vec![engine(
            "pub fn execute(q: &Q) -> Result<R, E> {\n    match run(q) {\n        Ok(r) => {\n            telemetry().publish_query(&r);\n            Ok(r)\n        }\n        Err(e) => Err(e),\n    }\n}",
        )]);
        let diags = check(&files, &graph);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn inner_fns_are_exempt() {
        let (files, graph) = corpus(vec![engine(
            "fn execute_inner(q: &Q) -> Result<(), E> {\n    q.validate()?;\n    Ok(())\n}",
        )]);
        assert!(check(&files, &graph).is_empty());
    }

    #[test]
    fn non_boundary_files_are_exempt() {
        let (files, graph) = corpus(vec![SourceFile::from_source(
            "crates/core/src/governor.rs",
            "pub fn execute(q: &Q) -> Result<(), E> {\n    q.validate()?;\n    Ok(())\n}",
        )
        .unwrap()]);
        assert!(check(&files, &graph).is_empty());
    }
}
