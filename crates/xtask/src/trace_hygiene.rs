//! Trace hygiene: trace events and decision records are built only by the
//! tracer.
//!
//! The profiler's `Off` contract (one branch, no clock read) and the rule
//! that a decision is priced once, at its source, both hold only while engine
//! code records through `Tracer`. Clippy's `disallowed_types` bans the
//! `TraceEvent` type everywhere else, but it resolves a variant path such as
//! `TraceEvent::Span { … }` to the variant, not to its enum, so a glob
//! import or a fully qualified path gets a hand-built event past it. Two
//! token rules therefore stay here:
//!
//! * any `TraceEvent::` path outside the tracer;
//! * any `DecisionRecord::Variant { … }` literal outside the tracer — a
//!   brace group that does not end in a `..` rest. Reading a finished record
//!   by pattern (`match`, `if let`, `matches!`) stays legal everywhere.
//!
//! Matching is on the comment-free token stream, so prose and strings never
//! trip it, and test code is exempt.

use crate::lexer::{find_seq, path_pat};
use crate::scan::SourceFile;
use crate::Diag;

/// The one module that builds trace events and decision records.
pub const TRACER: &str = "crates/core/src/trace.rs";

/// Run the trace-hygiene pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| !f.is_test_file() && f.rel != TRACER) {
        let events = find_seq(&file.text, &file.toks, &path_pat("TraceEvent::"));
        let events = events.into_iter().map(|t| (t.line, "TraceEvent::"));
        let records =
            decision_record_literals(file).into_iter().map(|l| (l, "DecisionRecord { .. }"));
        for (line, what) in events.chain(records).filter(|&(l, _)| !file.line_in_tests(l)) {
            out.push(Diag {
                path: file.rel.clone(),
                line: line + 1,
                pass: "trace-hygiene",
                msg: format!(
                    "`{what}` outside {TRACER} — record through `Tracer` so the \
                     ProfileLevel::Off gate applies"
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// Lines (0-based) holding a `DecisionRecord::Variant { … }` whose brace
/// group does not end in a `..` rest: a struct literal, not a pattern.
fn decision_record_literals(file: &SourceFile) -> Vec<usize> {
    if !file.text.contains("DecisionRecord") {
        return Vec::new();
    }
    let code = file.code_toks();
    let text = |i: usize| code.get(i).map_or("", |t| t.text(&file.text));
    let mut lines = Vec::new();
    for start in 0..code.len() {
        let head = [text(start), text(start + 1), text(start + 2), text(start + 4)];
        if head != ["DecisionRecord", ":", ":", "{"] {
            continue;
        }
        let (mut depth, mut close) = (0usize, start + 4);
        while close < code.len() {
            match text(close) {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            close += 1;
        }
        if [text(close - 2), text(close - 1)] != [".", "."] {
            lines.push(code[start].line);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    #[test]
    fn hand_built_events_are_flagged_however_they_are_reached() {
        let f = file(
            "crates/core/src/scan.rs",
            "use crate::trace::*;\n\
             fn g() { let e = TraceEvent::Span { phase, worker }; }\n\
             fn h() { let e = crate::trace::TraceEvent::Span { phase, worker }; }",
        );
        let diags = check(&[f]);
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3], "{diags:?}");
        assert!(diags[0].msg.contains("ProfileLevel::Off"), "{diags:?}");
        assert!(diags[0].msg.contains(TRACER), "{diags:?}");
    }

    #[test]
    fn the_tracer_tests_prose_and_strings_are_fine() {
        let tracer = file(TRACER, "fn f() { let e = TraceEvent::Span { phase, worker }; }");
        let test = file("tests/telemetry.rs", "fn f() { let e = TraceEvent::Span { phase }; }");
        let unit = file(
            "crates/core/src/telemetry.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() { TraceEvent::Span { phase }; } }",
        );
        let prose = file(
            "crates/core/src/scan.rs",
            "// no TraceEvent::Span here\nfn f() -> &'static str { \"TraceEvent::Span\" }",
        );
        assert!(check(&[tracer, test, unit, prose]).is_empty());
    }

    #[test]
    fn decision_records_are_read_anywhere_but_built_only_in_the_tracer() {
        let consume = file(
            "crates/core/src/telemetry.rs",
            "fn f(r: &DecisionRecord) -> bool {\n\
             match r { DecisionRecord::Selection { cycles, .. } => *cycles > 0,\n\
             DecisionRecord::Agg { .. } => matches!(r, DecisionRecord::Agg { forced: true, .. }) } }",
        );
        assert!(check(&[consume]).is_empty());
        let build = file(
            "crates/core/src/telemetry.rs",
            "fn f() -> DecisionRecord {\n DecisionRecord::Agg { segment: 0, cycles: 1, rows: 2 } }",
        );
        let diags = check(&[build]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.starts_with("`DecisionRecord { .. }` outside"), "{diags:?}");
        // A functional update is still a literal: the rest is not last.
        let update = file(
            "crates/core/src/scan.rs",
            "fn f(r: DecisionRecord) -> DecisionRecord { DecisionRecord::Agg { cycles: 9, ..r } }",
        );
        assert_eq!(check(&[update]).len(), 1);
        let in_trace = file(TRACER, "fn f() { DecisionRecord::Agg { cycles: 9 }; }");
        assert!(check(&[in_trace]).is_empty());
    }
}
