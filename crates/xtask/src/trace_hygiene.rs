//! Pass 5: trace hygiene.
//!
//! The profiler's `Off` contract (DESIGN.md §9: one branch, no clock reads,
//! ≤ 2% overhead) lives entirely inside `core::trace::Tracer` — every
//! instrumentation site checks `Tracer::enabled()` before touching a
//! timestamp. A raw cycle-counter read (`read_tsc` / `read_cycles` /
//! `_rdtsc`) or a hand-built `TraceEvent` anywhere else bypasses that gate
//! and silently reintroduces per-batch timing cost that the overhead bench
//! only catches after the fact. The same goes for a hand-built
//! `DecisionRecord`: a decision is recorded once, with its cost, by the
//! tracer — a literal anywhere else is a second place that prices
//! decisions. This pass flags all three outside their sanctioned homes.
//!
//! Allowed locations:
//!
//! * `crates/toolbox/src/cycles.rs` — the one `_rdtsc` wrapper;
//! * `crates/metrics/` — the measurement harness (benchmarks *are* the
//!   timing; they run nothing per batch);
//! * `crates/core/src/trace.rs` — the tracer, where the `Off` gate lives;
//! * test code — integration-test trees and `#[cfg(test)]` modules
//!   (brace-matched), which inspect events and time freely.
//!
//! Engine code that wants a span or a decision logged must go through the
//! `Tracer` API, which is exempt here because it *is* the gate. Matching
//! is token-exact: `read_tsc` must appear as an identifier and
//! `TraceEvent::` as a path prefix, so comments and strings never trip it.
//! `DecisionRecord::Variant { … }` is a *literal* when its braces do not
//! end in a `..` rest — reading a finished record (`match`, `if let`,
//! `matches!`) stays legal everywhere, which is how the telemetry seam,
//! benches and examples consume the decision log.
//!
//! The same confinement applies one layer up (DESIGN.md §14): process-wide
//! registry mutation must flow through the `core::telemetry` seam. A
//! `Registry::` / `Counter::` / `Gauge::` / `Histogram::` / `DecisionLog::`
//! / `EngineTelemetry::` path in scan-loop code means a hot path grew its
//! own metrics plumbing, bypassing both the `no_metrics` compile-out and
//! the publish-once-per-query overhead contract. Allowed homes:
//! `crates/metrics/` (the substrate itself), `crates/core/src/telemetry.rs`
//! (the seam), and test/bench/example code that reads snapshots.

use crate::lexer::{Tok, TokKind};
use crate::scan::SourceFile;
use crate::Diag;

/// Cycle-counter identifiers that must stay inside the sanctioned modules.
const TRACE_IDENTS: [&str; 3] = ["read_tsc", "read_cycles", "_rdtsc"];

/// Files/prefixes where the tokens are legitimate.
const ALLOWED: [&str; 3] =
    ["crates/toolbox/src/cycles.rs", "crates/metrics/", "crates/core/src/trace.rs"];

/// Registry/telemetry type paths whose *mutation* must stay behind the
/// `core::telemetry` seam.
const REGISTRY_PATHS: [&str; 6] =
    ["Registry::", "Counter::", "Gauge::", "Histogram::", "DecisionLog::", "EngineTelemetry::"];

/// Files/prefixes where registry paths are legitimate: the metrics crate
/// and the telemetry seam. Benches and examples read snapshots through the
/// `telemetry()` handle, which is not a path token, so they need no
/// exemption.
const REGISTRY_ALLOWED: [&str; 2] = ["crates/metrics/", "crates/core/src/telemetry.rs"];

/// Run the trace-hygiene pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if ALLOWED.iter().any(|a| file.rel.starts_with(a)) || file.is_test_file() {
            continue;
        }
        if file.toks.is_empty() {
            check_fallback(file, &mut out);
            continue;
        }
        for tok in &file.toks {
            if tok.kind == TokKind::Ident
                && TRACE_IDENTS.contains(&tok.text(&file.text))
                && !file.line_in_tests(tok.line)
            {
                out.push(diag(file, tok.line, tok.text(&file.text)));
            }
        }
        for tok in file.find_path("TraceEvent::") {
            if !file.line_in_tests(tok.line) {
                out.push(diag(file, tok.line, "TraceEvent::"));
            }
        }
        for line in decision_record_literals(file) {
            if !file.line_in_tests(line) {
                out.push(diag(file, line, "DecisionRecord { .. }"));
            }
        }
    }
    for file in files {
        if REGISTRY_ALLOWED.iter().any(|a| file.rel.starts_with(a)) || file.is_test_file() {
            continue;
        }
        if file.toks.is_empty() {
            registry_fallback(file, &mut out);
            continue;
        }
        for path in REGISTRY_PATHS {
            for tok in file.find_path(path) {
                if !file.line_in_tests(tok.line) {
                    out.push(registry_diag(file, tok.line, path));
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Lines (0-based) holding a `DecisionRecord::Variant { … }` whose brace
/// group does not end in a `..` rest: a struct literal, not a pattern.
fn decision_record_literals(file: &SourceFile) -> Vec<usize> {
    if !file.text.contains("DecisionRecord") {
        return Vec::new();
    }
    let code: Vec<&Tok> = file
        .toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
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

/// Legacy substring scan for files the lexer could not finish.
fn check_fallback(file: &SourceFile, out: &mut Vec<Diag>) {
    for (i, line) in file.code.iter().enumerate() {
        if file.line_in_tests(i) {
            continue;
        }
        for token in TRACE_IDENTS.iter().copied().chain(["TraceEvent::", "DecisionRecord::"]) {
            if line.contains(token) {
                out.push(diag(file, i, token));
            }
        }
    }
}

fn diag(file: &SourceFile, line: usize, token: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "trace-hygiene",
        msg: format!(
            "`{token}` outside core::trace/metrics — record through \
             `Tracer` so the ProfileLevel::Off gate applies"
        ),
    }
}

/// Legacy substring scan for registry paths in files the lexer could not
/// finish.
fn registry_fallback(file: &SourceFile, out: &mut Vec<Diag>) {
    for (i, line) in file.code.iter().enumerate() {
        if file.line_in_tests(i) {
            continue;
        }
        for path in REGISTRY_PATHS {
            if line.contains(path) {
                out.push(registry_diag(file, i, path));
            }
        }
    }
}

fn registry_diag(file: &SourceFile, line: usize, token: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "trace-hygiene",
        msg: format!(
            "`{token}` outside the core::telemetry seam — publish through \
             `EngineTelemetry` so the no_metrics gate and the \
             once-per-query overhead contract apply"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    #[test]
    fn raw_tsc_read_in_engine_code_is_flagged() {
        let f =
            file("crates/core/src/scan.rs", "fn f() -> u64 { bipie_toolbox::cycles::read_tsc() }");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("read_tsc"), "{diags:?}");
    }

    #[test]
    fn hand_built_event_is_flagged() {
        let f = file(
            "crates/core/src/query.rs",
            "fn f() { let e = TraceEvent::Span { phase, worker, loc, rows, cycles, wall_nanos }; }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn rdtsc_intrinsic_is_flagged_anywhere_unsanctioned() {
        let f = file(
            "crates/columnstore/src/batch.rs",
            "fn f() -> u64 { unsafe { std::arch::x86_64::_rdtsc() } }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn sanctioned_modules_are_exempt() {
        for rel in [
            "crates/toolbox/src/cycles.rs",
            "crates/metrics/src/measure.rs",
            "crates/metrics/src/cycles.rs",
            "crates/core/src/trace.rs",
        ] {
            let f = file(rel, "fn f() -> u64 { read_cycles() + read_tsc() }");
            assert!(check(&[f]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn test_paths_and_cfg_test_tails_are_exempt() {
        let integration = file("tests/profile.rs", "fn f() { let _ = TraceEvent::Span; }");
        let unit = file(
            "crates/core/src/stats.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() -> u64 { read_cycles() } }",
        );
        assert!(check(&[integration, unit]).is_empty());
    }

    #[test]
    fn tracer_api_calls_are_fine() {
        let f = file(
            "crates/core/src/scan.rs",
            "fn f(t: &mut Tracer) { let s = t.start(); t.span(Phase::Selection, SpanLoc::none(), 1, s); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn telemetry_seam_reads_decision_records_but_builds_none_and_reads_no_clock() {
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
        assert!(diags[0].msg.contains("DecisionRecord { .. }"), "{diags:?}");
        // A functional update is still a literal: the rest is not last.
        let update = file(
            "crates/core/src/scan.rs",
            "fn f(r: DecisionRecord) -> DecisionRecord { DecisionRecord::Agg { cycles: 9, ..r } }",
        );
        assert_eq!(check(&[update]).len(), 1);
        // The seam walks profiles through `QueryProfile::segments`, not raw
        // events, so it gets no `TraceEvent` exemption any more.
        let events = file(
            "crates/core/src/telemetry.rs",
            "fn f(e: &TraceEvent) { if let TraceEvent::Span { .. } = e {} }",
        );
        assert_eq!(check(&[events]).len(), 1);
        let clock = file("crates/core/src/telemetry.rs", "fn f() -> u64 { read_tsc() }");
        assert_eq!(check(&[clock]).len(), 1);
    }

    #[test]
    fn registry_mutation_outside_seam_is_flagged() {
        let f = file("crates/core/src/scan.rs", "fn f(c: &Counter) { Counter::inc(c); }");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("core::telemetry seam"), "{diags:?}");
    }

    #[test]
    fn seam_and_metrics_crate_registry_paths_are_exempt() {
        for rel in ["crates/core/src/telemetry.rs", "crates/metrics/src/registry.rs"] {
            let f = file(rel, "fn f() { let r = Registry::new(); let _ = r; }");
            assert!(check(&[f]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn telemetry_handle_reads_are_fine() {
        // Benches/examples read snapshots through the `telemetry()` fn;
        // no registry type path appears, so nothing trips.
        let f = file(
            "crates/bench/src/bin/exp_telemetry.rs",
            "fn f() -> String { telemetry().registry().render_json() }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_trip_the_token_scan() {
        let f = file(
            "crates/core/src/scan.rs",
            "// timing uses read_tsc via the Tracer\nfn f() { let s = \"read_cycles\"; }",
        );
        assert!(check(&[f]).is_empty());
    }
}
