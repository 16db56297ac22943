//! Profiler phase-span balance.
//!
//! The profiler (DESIGN.md §9) measures phases with a two-call protocol:
//! `let t = tracer.start();` captures a timestamp, and a later
//! `tracer.span(phase, loc, rows, t)` consumes it into one span event. A
//! start whose token is dropped on some path — an early `?`, a `return`, a
//! close guarded by a condition — silently loses the phase from every
//! profile that takes that path, which is exactly the kind of rot the
//! per-phase accounting tests cannot see (they assert the happy path).
//!
//! This pass runs a **may**-analysis (forward, union) per fn: the bit "span
//! `t` is open" is genned at `let t = RECV.start()` statements (receivers
//! that look like tracers: `tracer`/`coord`/`prof`) and killed by any later
//! statement that mentions `t` — closing (`tracer.span(…, t)`), moving, or
//! otherwise consuming the token all count, so the kill is deliberately
//! conservative (false-negative direction; the pass never guesses that a
//! mention is *not* a close). If the bit can still be set at the fn exit,
//! some path leaks the span and the open site is flagged.
//!
//! `?` statements split basic blocks in the CFG lowering, so the error edge
//! carries exactly the spans open *at that statement* — opens later in the
//! same source block do not false-positive, closes later do not mask.

use std::collections::BTreeMap;

use crate::cfg::{self, Cfg};
use crate::dataflow::{compose, solve, BitSet, Direction, FlowGraph, Meet};
use crate::lexer::TokKind;
use crate::scan::SourceFile;
use crate::Diag;

/// Receiver substrings that mark a `.start()` call as a profiler span open.
const TRACER_RECEIVERS: [&str; 3] = ["tracer", "coord", "prof"];

/// If `stmt` is a span open (`let [mut] IDENT = RECV.start()`), return the
/// opened identifier.
fn span_open<'a>(file: &'a SourceFile, stmt: &cfg::Stmt) -> Option<&'a str> {
    let toks: Vec<&crate::lexer::Tok> = file.toks[stmt.toks.start..stmt.toks.end]
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut i = 0;
    if toks.first().map(|t| t.text(&file.text)) != Some("let") {
        return None;
    }
    i += 1;
    if toks.get(i).map(|t| t.text(&file.text)) == Some("mut") {
        i += 1;
    }
    let name = toks.get(i).filter(|t| t.kind == TokKind::Ident)?.text(&file.text);
    i += 1;
    if toks.get(i).map(|t| t.text(&file.text)) != Some("=") {
        return None;
    }
    i += 1;
    // The tail must be exactly `RECV . start ( )` with a plain path
    // receiver (idents and dots only) that looks like a tracer.
    if toks.len() < i + 4 || toks.len() - 4 <= i {
        return None;
    }
    let (recv, tail) = toks[i..].split_at(toks.len() - 4 - i);
    let tail_text: Vec<&str> = tail.iter().map(|t| t.text(&file.text)).collect();
    if tail_text != [".", "start", "(", ")"] {
        return None;
    }
    let recv_ok = !recv.is_empty()
        && recv.iter().all(|t| t.kind == TokKind::Ident || t.text(&file.text) == ".");
    if !recv_ok {
        return None;
    }
    let recv_text = recv.iter().map(|t| t.text(&file.text)).collect::<Vec<_>>().join(" ");
    let lower = recv_text.to_lowercase();
    if TRACER_RECEIVERS.iter().any(|r| lower.contains(r)) {
        Some(name)
    } else {
        None
    }
}

/// Run the span-balance pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file() {
            continue;
        }
        for c in &file.cfgs.cfgs {
            if file.line_in_tests(c.line) {
                continue;
            }
            check_cfg(file, c, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn check_cfg(file: &SourceFile, c: &Cfg, out: &mut Vec<Diag>) {
    // One bit per opened identifier; remember each bit's first open site.
    let mut bit_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut open_site: Vec<(usize, &str)> = Vec::new();
    for b in &c.blocks {
        for s in &b.stmts {
            if let Some(name) = span_open(file, s) {
                if !bit_of.contains_key(name) {
                    bit_of.insert(name, open_site.len());
                    open_site.push((s.line, name));
                }
            }
        }
    }
    if open_site.is_empty() {
        return;
    }
    let nbits = open_site.len();
    // Fold per-statement effects into per-block gen/kill: an open gens its
    // bit; any other statement mentioning the identifier kills it.
    let mut gen = vec![BitSet::empty(nbits); c.blocks.len()];
    let mut kill = vec![BitSet::empty(nbits); c.blocks.len()];
    for (bi, b) in c.blocks.iter().enumerate() {
        for s in &b.stmts {
            let mut sg = BitSet::empty(nbits);
            let mut sk = BitSet::empty(nbits);
            let opened = span_open(file, s);
            for (&name, &bit) in &bit_of {
                if opened == Some(name) {
                    sg.insert(bit);
                } else if cfg::stmt_mentions(&file.text, &file.toks, s, name) {
                    sk.insert(bit);
                }
            }
            compose(&mut gen[bi], &mut kill[bi], &sg, &sk);
        }
    }
    let g = FlowGraph::from_cfg(c);
    let sol = solve(&g, &gen, &kill, nbits, Direction::Forward, Meet::Union, &BitSet::empty(nbits));
    for bit in sol.input[c.exit].iter_set() {
        let (line, name) = open_site[bit];
        out.push(Diag {
            path: file.rel.clone(),
            line: line + 1,
            pass: "span-balance",
            msg: format!(
                "profiler span `{name}` opened in `{}` is not closed on every path — an \
                 early `?`/`return` (or a conditional close) drops the phase from the \
                 profile; close it with `.span(…, {name})` before every exit",
                c.name
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source("crates/core/src/scan.rs", src).unwrap()
    }

    #[test]
    fn balanced_straight_line_is_clean() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) {\n    let t = tracer.start();\n    work();\n    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn question_between_open_and_close_is_flagged() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) -> Result<(), E> {\n    let t = tracer.start();\n    work()?;\n    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n    Ok(())\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.contains("`t`"), "{diags:?}");
    }

    #[test]
    fn question_before_open_is_clean() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) -> Result<(), E> {\n    work()?;\n    let t = tracer.start();\n    step();\n    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n    Ok(())\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn conditional_close_is_flagged() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) {\n    let t = tracer.start();\n    if rows > 0 {\n        tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n    }\n}",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn close_on_both_branches_is_clean() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) {\n    let t = tracer.start();\n    if rows > 0 {\n        tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n    } else {\n        tracer.span(Phase::Selection, SpanLoc::none(), 0, t);\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn early_return_between_open_and_close_is_flagged() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) {\n    let t = tracer.start();\n    if rows == 0 {\n        return;\n    }\n    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n}",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn any_mention_kills_conservatively() {
        // Passing the token to a helper counts as consuming it — the pass
        // never guesses that a mention is not a close.
        let f = file(
            "fn f(tracer: &mut Tracer) -> Result<(), E> {\n    let t = tracer.start();\n    finish_span(tracer, t);\n    work()?;\n    Ok(())\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn non_tracer_receivers_are_ignored() {
        let f = file(
            "fn f(engine: &Engine) -> Result<(), E> {\n    let t = engine.start();\n    work()?;\n    Ok(())\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = file(
            "#[cfg(test)]\nmod tests {\n    fn f(tracer: &mut Tracer) -> Result<(), E> {\n        let t = tracer.start();\n        work()?;\n        Ok(())\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn reopen_after_close_is_tracked_per_path() {
        let f = file(
            "fn f(tracer: &mut Tracer, rows: u64) -> Result<(), E> {\n    let t = tracer.start();\n    tracer.span(Phase::Unpack, SpanLoc::none(), rows, t);\n    let t = tracer.start();\n    work()?;\n    tracer.span(Phase::Selection, SpanLoc::none(), rows, t);\n    Ok(())\n}",
        );
        // The second open (same identifier, one shared bit) leaks through
        // the `?` — the first open's close must not mask it.
        assert_eq!(check(&[f]).len(), 1);
    }
}
