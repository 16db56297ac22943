//! Confinement: "these tokens appear only in these modules".
//!
//! Four passes share one rule shape — a thread spawn, a raw cycle-counter
//! read, a registry path, an atomic or a lock is legitimate only where the
//! invariants it relies on are documented — so the rules are one table
//! ([`RULES`]) walked by one loop ([`check`]). Each row keeps the id of the
//! pass it belongs to, so SARIF rule ids, baselines and `--changed` see the
//! same ids as before. Matching is on the comment-free token stream
//! (`thread :: spawn` must be adjacent code tokens, so prose and strings
//! never trip it), and test code — integration-test trees and
//! `#[cfg(test)]` items — is exempt.
//!
//! Every message and `--explain` card prints a row's allowed list from the
//! row itself, so the text cannot drift from the rule.

use crate::atomics::{ATOMIC_MODULES, ORDERINGS};
use crate::lexer::{find_seq, path_pat};
use crate::lock_discipline::{LOCK_MODULES, LOCK_TYPES};
use crate::scan::SourceFile;
use crate::Diag;

/// One confinement rule: `tokens` may appear only under `allowed`.
pub struct Rule {
    /// The pass the findings are reported under.
    pub pass: &'static str,
    /// Identifiers (`read_tsc`) and paths (`thread::spawn`, `TraceEvent::`),
    /// matched as code-token sequences.
    pub tokens: &'static [&'static str],
    /// Path prefixes, relative to the audited root, where the tokens are
    /// legitimate.
    pub allowed: &'static [&'static str],
    /// The sanctioned alternative; ends every message.
    pub hint: &'static str,
}

impl Rule {
    fn allows(&self, rel: &str) -> bool {
        self.allowed.iter().any(|a| rel.starts_with(a))
    }

    /// The finding for `what` at 0-based `line`.
    fn diag(&self, file: &SourceFile, line: usize, what: &str) -> Diag {
        Diag {
            path: file.rel.clone(),
            line: line + 1,
            pass: self.pass,
            msg: format!("`{what}` outside {} — {}", self.allowed.join(", "), self.hint),
        }
    }
}

/// Raw cycle-counter reads and hand-built trace events: the profiler's
/// `Off` contract (one branch, no clock read) lives in `core::trace`, so
/// anything else bypasses it.
const TRACE: Rule = Rule {
    pass: "trace-hygiene",
    tokens: &["read_tsc", "read_cycles", "_rdtsc", "TraceEvent::"],
    allowed: &["crates/toolbox/src/cycles.rs", "crates/metrics/", "crates/core/src/trace.rs"],
    hint: "record through `Tracer` so the ProfileLevel::Off gate applies",
};

/// Atomic orderings outside the modules that own concurrent state.
/// `std::cmp::Ordering` shares the type name but none of these variants,
/// which is what lets a token path tell the two apart.
const ATOMICS: Rule = Rule {
    pass: "atomics-discipline",
    tokens: &ORDERINGS,
    allowed: &ATOMIC_MODULES,
    hint: "keep atomic state where its invariants are documented, or extend \
           the sanctioned list deliberately",
};

/// Every confinement rule, in pass order.
pub const RULES: [Rule; 6] = [
    Rule {
        pass: "thread-hygiene",
        tokens: &["thread::spawn", "thread::scope", "thread::Builder"],
        // The worker pool, and the serving benchmark's client threads (load
        // generators issuing queries into the engine, not scan workers).
        allowed: &["crates/core/src/pool.rs", "crates/bench/src/bin/exp_serving.rs"],
        hint: "use `bipie_core::pool::WorkerPool` instead of ad-hoc threads",
    },
    TRACE,
    Rule {
        pass: "trace-hygiene",
        tokens: &[
            "Registry::",
            "Counter::",
            "Gauge::",
            "Histogram::",
            "DecisionLog::",
            "EngineTelemetry::",
        ],
        allowed: &["crates/metrics/", "crates/core/src/telemetry.rs"],
        hint: "publish through `EngineTelemetry` so the no_metrics gate and the \
               once-per-query overhead contract apply",
    },
    ATOMICS,
    Rule {
        tokens: &[
            "AtomicBool",
            "AtomicUsize",
            "AtomicIsize",
            "AtomicU8",
            "AtomicU16",
            "AtomicU32",
            "AtomicU64",
            "AtomicI8",
            "AtomicI16",
            "AtomicI32",
            "AtomicI64",
            "AtomicPtr",
        ],
        ..ATOMICS
    },
    Rule {
        pass: "lock-discipline",
        tokens: &LOCK_TYPES,
        allowed: &LOCK_MODULES,
        hint: "blocking synchronization stays where its ordering invariants are \
               documented, or the lock-module list grows deliberately",
    },
];

/// Run every [`RULES`] row of `pass` over the corpus.
pub fn check(files: &[SourceFile], pass: &str) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| !f.is_test_file()) {
        for rule in RULES.iter().filter(|r| r.pass == pass && !r.allows(&file.rel)) {
            for what in rule.tokens {
                for tok in find_seq(&file.text, &file.toks, &path_pat(what)) {
                    if !file.line_in_tests(tok.line) {
                        out.push(rule.diag(file, tok.line, what));
                    }
                }
            }
        }
    }
    sorted(out)
}

/// The trace-hygiene pass: the two trace rows, plus `DecisionRecord`
/// literals under the cycle-counter row's allowed list — a decision is
/// priced once, by the tracer, so a literal anywhere else is a second place
/// that prices one.
pub fn trace_hygiene(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = check(files, TRACE.pass);
    for file in files.iter().filter(|f| !f.is_test_file() && !TRACE.allows(&f.rel)) {
        for line in decision_record_literals(file) {
            if !file.line_in_tests(line) {
                out.push(TRACE.diag(file, line, "DecisionRecord { .. }"));
            }
        }
    }
    sorted(out)
}

/// Lines (0-based) holding a `DecisionRecord::Variant { … }` whose brace
/// group does not end in a `..` rest: a struct literal, not a pattern.
/// Reading a finished record (`match`, `if let`, `matches!`) stays legal
/// everywhere.
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

fn sorted(mut out: Vec<Diag>) -> Vec<Diag> {
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    fn threads(f: SourceFile) -> Vec<Diag> {
        check(&[f], "thread-hygiene")
    }

    #[test]
    fn every_message_and_card_names_every_allowed_prefix() {
        let f = file("crates/x/src/y.rs", "");
        for rule in &RULES {
            let pass = crate::PASSES.iter().find(|p| p.id == rule.pass);
            let card = pass.unwrap_or_else(|| panic!("{} is not a pass id", rule.pass)).explain();
            for what in rule.tokens {
                let msg = rule.diag(&f, 0, what).msg;
                for prefix in rule.allowed {
                    assert!(msg.contains(prefix), "{} message misses {prefix}: {msg}", rule.pass);
                    assert!(card.contains(prefix), "{} card misses {prefix}: {card}", rule.pass);
                }
                assert!(card.contains(&format!("`{what}`")), "{what} missing from {card}");
            }
        }
    }

    #[test]
    fn adhoc_spawn_scope_and_builder_are_flagged() {
        let diags =
            threads(file("crates/core/src/scan.rs", "fn f() { std::thread::spawn(|| {}); }"));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.starts_with("`thread::spawn` outside"), "{diags:?}");
        let f = file(
            "crates/bench/src/lib.rs",
            "fn f() { std::thread::scope(|s| {}); }\nfn g() { std::thread::Builder::new(); }",
        );
        assert_eq!(threads(f).len(), 2);
    }

    #[test]
    fn allowed_modules_and_test_code_are_exempt() {
        for rel in ["crates/core/src/pool.rs", "crates/bench/src/bin/exp_serving.rs"] {
            let f = file(rel, "fn f() { std::thread::Builder::new().spawn(|| {}); }");
            assert!(threads(f).is_empty(), "{rel}");
        }
        for rel in ["tests/equivalence.rs", "crates/core/tests/pool_stress.rs"] {
            assert!(threads(file(rel, "fn f() { std::thread::spawn(|| {}); }")).is_empty());
        }
        let unit = file(
            "crates/columnstore/src/batch.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }",
        );
        assert!(threads(unit).is_empty());
    }

    #[test]
    fn code_after_a_cfg_test_module_is_not_exempt() {
        let f = file(
            "crates/core/src/query.rs",
            "#[cfg(test)]\nmod tests {}\nfn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(threads(f).len(), 1);
    }

    #[test]
    fn prose_strings_and_non_spawning_paths_do_not_trip() {
        let f = file(
            "crates/core/src/scan.rs",
            "// replaced thread::spawn, read_tsc and Ordering::SeqCst\n\
             fn f() -> usize { let s = \"thread::spawn AtomicUsize\"; \
             std::thread::available_parallelism().map_or(1, |n| n.get()) }",
        );
        for pass in ["thread-hygiene", "trace-hygiene", "atomics-discipline", "lock-discipline"] {
            assert!(check(std::slice::from_ref(&f), pass).is_empty(), "{pass}");
        }
    }

    #[test]
    fn raw_clock_reads_and_hand_built_events_are_flagged() {
        let f = file(
            "crates/core/src/scan.rs",
            "fn f() -> u64 { bipie_toolbox::cycles::read_tsc() }\n\
             fn g() { let e = TraceEvent::Span { phase, worker }; }\n\
             fn h() -> u64 { unsafe { std::arch::x86_64::_rdtsc() } }",
        );
        let diags = trace_hygiene(&[f]);
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, [1, 2, 3], "{diags:?}");
        assert!(diags[0].msg.contains("ProfileLevel::Off"), "{diags:?}");
    }

    #[test]
    fn trace_homes_and_tracer_calls_are_fine() {
        for rel in
            ["crates/toolbox/src/cycles.rs", "crates/metrics/src/m.rs", "crates/core/src/trace.rs"]
        {
            let f = file(rel, "fn f() -> u64 { read_cycles() + read_tsc() }");
            assert!(trace_hygiene(&[f]).is_empty(), "{rel}");
        }
        let f = file(
            "crates/core/src/scan.rs",
            "fn f(t: &mut Tracer) { let s = t.start(); t.span(Phase::Selection, SpanLoc::none(), 1, s); }",
        );
        assert!(trace_hygiene(&[f]).is_empty());
    }

    #[test]
    fn decision_records_are_read_anywhere_but_built_only_in_the_tracer() {
        let consume = file(
            "crates/core/src/telemetry.rs",
            "fn f(r: &DecisionRecord) -> bool {\n\
             match r { DecisionRecord::Selection { cycles, .. } => *cycles > 0,\n\
             DecisionRecord::Agg { .. } => matches!(r, DecisionRecord::Agg { forced: true, .. }) } }",
        );
        assert!(trace_hygiene(&[consume]).is_empty());
        let build = file(
            "crates/core/src/telemetry.rs",
            "fn f() -> DecisionRecord {\n DecisionRecord::Agg { segment: 0, cycles: 1, rows: 2 } }",
        );
        let diags = trace_hygiene(&[build]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.starts_with("`DecisionRecord { .. }` outside"), "{diags:?}");
        // A functional update is still a literal: the rest is not last.
        let update = file(
            "crates/core/src/scan.rs",
            "fn f(r: DecisionRecord) -> DecisionRecord { DecisionRecord::Agg { cycles: 9, ..r } }",
        );
        assert_eq!(trace_hygiene(&[update]).len(), 1);
        let in_trace =
            file("crates/core/src/trace.rs", "fn f() { DecisionRecord::Agg { cycles: 9 }; }");
        assert!(trace_hygiene(&[in_trace]).is_empty());
        // telemetry.rs is allowed by the registry row only: the other trace
        // row still applies there.
        let events = file(
            "crates/core/src/telemetry.rs",
            "fn f(e: &TraceEvent) { if let TraceEvent::Span { .. } = e {} }",
        );
        assert_eq!(trace_hygiene(&[events]).len(), 1);
        let clock = file("crates/core/src/telemetry.rs", "fn f() -> u64 { read_tsc() }");
        assert_eq!(trace_hygiene(&[clock]).len(), 1);
    }

    #[test]
    fn registry_paths_stay_behind_the_telemetry_seam() {
        let f = file("crates/core/src/scan.rs", "fn f(c: &Counter) { Counter::inc(c); }");
        let diags = trace_hygiene(&[f]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("crates/core/src/telemetry.rs"), "{diags:?}");
        for rel in ["crates/core/src/telemetry.rs", "crates/metrics/src/registry.rs"] {
            let f = file(rel, "fn f() { let r = Registry::new(); let _ = r; }");
            assert!(trace_hygiene(&[f]).is_empty(), "{rel}");
        }
        // Benches read snapshots through the `telemetry()` handle: no path.
        let f = file(
            "crates/bench/src/bin/exp_telemetry.rs",
            "fn f() -> String { telemetry().registry().render_json() }",
        );
        assert!(trace_hygiene(&[f]).is_empty());
    }

    #[test]
    fn atomics_and_locks_outside_their_modules_are_flagged_once_per_line() {
        let f = file(
            "crates/toolbox/src/x.rs",
            "static S: AtomicBool = AtomicBool::new(false);\nfn f() { S.store(true, Ordering::SeqCst); }",
        );
        let diags = check(&[f], "atomics-discipline");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[1].msg.starts_with("`Ordering::SeqCst` outside"), "{diags:?}");
        let cmp = file(
            "crates/columnstore/src/value.rs",
            "fn f(a: u32, b: u32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }",
        );
        assert!(check(&[cmp], "atomics-discipline").is_empty());
        let locks =
            file("crates/core/src/governor.rs", "use std::sync::Mutex;\nstruct T { m: Mutex<u8> }");
        let diags = check(&[locks], "lock-discipline");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.msg.contains("crates/core/src/engine.rs")), "{diags:?}");
    }
}
