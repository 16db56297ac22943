//! Pass 8: panic-freedom in library crates.
//!
//! The engine's error story is typed: fallible paths return
//! `bipie_core::error::Result` and callers decide what a failure means
//! (DESIGN.md §10 routes cancellation, deadlines, and budget overruns
//! through `EngineError`). A stray `.unwrap()` deep in a kernel dispatcher
//! undoes that — it turns a recoverable condition into a worker panic that
//! the pool must contain and the caller sees as `WorkerPanicked` instead of
//! the real cause. This pass bans the panicking idioms from library code:
//!
//! * `.unwrap()` / `.expect(…)` on `Option`/`Result`;
//! * `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
//!
//! Scope is the library surface ([`LIB_PREFIXES`]): the core engine, the
//! kernel toolbox, the columnstore, the metrics library, and the top-level
//! `src/`. Benches, examples, the TPC-H harness, integration tests, and
//! `#[cfg(test)]` modules may panic freely — a failed assertion *is* their
//! job.
//!
//! A site that genuinely cannot fail (or where aborting is the designed
//! response, e.g. a poisoned lock in the worker pool) can be pinned with an
//! adjacent `// PANIC:` comment stating why; the pass then accepts it, and
//! the justification ships with the code. `debug_assert*!` is always fine —
//! it compiles out of release builds, so it is instrumentation, not control
//! flow. Matching is token-exact: `unwrap_or_else` is a different
//! identifier and never matches, and `panic!` inside a string or comment is
//! invisible.

use crate::lexer::{find_seq, TokKind};
use crate::scan::SourceFile;
use crate::Diag;

/// Library code that must stay panic-free (or pin sites with `// PANIC:`).
pub const LIB_PREFIXES: [&str; 5] = [
    "crates/core/src/",
    "crates/toolbox/src/",
    "crates/columnstore/src/",
    "crates/metrics/src/",
    "src/",
];

/// The justification marker a pinned panic site must carry.
pub const MARKER: &str = "PANIC:";

/// Panicking idioms as token sequences, with a display label.
const PANIC_SEQS: [(&[&str], &str); 6] = [
    (&[".", "unwrap", "("], ".unwrap()"),
    (&[".", "expect", "("], ".expect(…)"),
    (&["panic", "!"], "panic!"),
    (&["unreachable", "!"], "unreachable!"),
    (&["todo", "!"], "todo!"),
    (&["unimplemented", "!"], "unimplemented!"),
];

/// Run the panic-freedom pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if !LIB_PREFIXES.iter().any(|p| file.rel.starts_with(p)) || file.is_test_file() {
            continue;
        }
        for (seq, label) in PANIC_SEQS {
            for tok in find_seq(&file.text, &file.toks, seq) {
                if file.line_in_tests(tok.line)
                    || in_debug_assert(file, tok.line)
                    || file.has_marker_comment(tok.line, MARKER)
                {
                    continue;
                }
                out.push(diag(file, tok.line, label));
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// `debug_assert!(x.unwrap() …)` and friends compile out of release builds;
/// a panicking idiom on a `debug_assert*` line is instrumentation.
fn in_debug_assert(file: &SourceFile, line: usize) -> bool {
    let toks = file.toks.iter().filter(|t| t.line == line && t.kind == TokKind::Ident);
    for t in toks {
        if t.text(&file.text).starts_with("debug_assert") {
            return true;
        }
    }
    false
}

fn diag(file: &SourceFile, line: usize, label: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "panic-freedom",
        msg: format!(
            "`{label}` in library code — return a typed `EngineError` instead, \
             or pin the site with an adjacent `// PANIC:` comment explaining \
             why it cannot fire"
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
    fn unwrap_in_library_code_is_flagged() {
        let f = file("crates/core/src/query.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("EngineError"), "{diags:?}");
    }

    #[test]
    fn pinned_site_is_accepted() {
        let f = file(
            "crates/core/src/pool.rs",
            "fn f(x: Option<u32>) -> u32 {\n    \
             // PANIC: the pool pre-fills this slot before any worker runs.\n    \
             x.unwrap()\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn unwrap_or_variants_never_match() {
        let f = file(
            "crates/core/src/scan.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn macros_are_flagged() {
        let f = file(
            "crates/toolbox/src/agg.rs",
            "fn f(w: u8) { match w { 8 => {}, _ => unreachable!(\"bad width\") } }\nfn g() { todo!() }",
        );
        assert_eq!(check(&[f]).len(), 2);
    }

    #[test]
    fn debug_assert_lines_are_exempt() {
        let f = file(
            "crates/toolbox/src/selvec.rs",
            "fn f(s: &[u8]) { debug_assert!(s.iter().copied().max().unwrap() <= 1); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn bench_tests_and_cfg_test_are_out_of_scope() {
        let bench = file("crates/bench/src/lib.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        let tpch = file("crates/tpch/src/gen.rs", "fn f() { panic!(\"boom\") }");
        let test = file("crates/core/tests/pool.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        let unit = file(
            "crates/core/src/scan.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t(x: Option<u32>) -> u32 { x.unwrap() } }",
        );
        assert!(check(&[bench, tpch, test, unit]).is_empty());
    }

    #[test]
    fn prose_and_strings_do_not_trip_it() {
        let f = file(
            "crates/core/src/error.rs",
            "// the old code used .unwrap() here\nfn f() -> &'static str { \"worker panic! contained\" }",
        );
        assert!(check(&[f]).is_empty());
    }
}
