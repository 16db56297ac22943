//! Pass 7: atomics-ordering discipline.
//!
//! Every atomic operation in the engine names a memory ordering, and every
//! ordering is a claim about inter-thread visibility that the type system
//! cannot check. The worker pool's shutdown handshake, the governor's
//! budget counters, and the columnstore's lazy statistics each picked their
//! orderings deliberately (Relaxed for monotone counters, Acquire/Release
//! for publication) — but nothing stopped the next edit from weakening an
//! `Acquire` to `Relaxed` and introducing a reordering bug that no test on
//! x86 would ever catch. This pass makes the reasoning load-bearing:
//!
//! * every use of an atomic `Ordering` variant (`Relaxed`, `Acquire`,
//!   `Release`, `AcqRel`, `SeqCst`) must carry an adjacent `// ORDERING:`
//!   comment — trailing on the same line, or in the contiguous comment run
//!   immediately above — justifying the choice;
//! * atomics stay confined to the modules that own concurrent state
//!   (`ATOMIC_MODULES`); an `Ordering::*` use or `Atomic*` type appearing
//!   anywhere else in library code is flagged so concurrency cannot leak
//!   into modules whose invariants assume single-threaded access.
//!
//! Matching is on token paths, so `cmp::Ordering::Less` in the sort code
//! never trips it (the comparator enum has no `Relaxed`/`Acquire`/…
//! variants), and prose like "uses Ordering::SeqCst" in a comment is
//! invisible to the pass.

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use crate::Diag;

/// Atomic `Ordering` variants. `std::cmp::Ordering` (`Less`/`Equal`/
/// `Greater`) shares the type name but none of these variants, which is
/// what lets a token-path match discriminate the two.
const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The modules that own concurrent state and may use atomics.
const ATOMIC_MODULES: [&str; 6] = [
    "crates/core/src/engine.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/governor.rs",
    "crates/core/src/telemetry.rs",
    "crates/columnstore/src/batch.rs",
    "crates/metrics/src/registry.rs",
];

/// The justification marker an ordering site must carry.
pub const MARKER: &str = "ORDERING:";

/// Run the atomics-discipline pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file() {
            continue;
        }
        if file.toks.is_empty() {
            check_fallback(file, &mut out);
            continue;
        }
        let sanctioned = ATOMIC_MODULES.contains(&file.rel.as_str());
        let mut last_line = usize::MAX;
        for variant in ATOMIC_VARIANTS {
            for tok in file.find_path(&format!("Ordering::{variant}")) {
                if file.line_in_tests(tok.line) {
                    continue;
                }
                if !sanctioned {
                    out.push(confinement_diag(file, tok.line, &format!("Ordering::{variant}")));
                } else if !file.has_marker_comment(tok.line, MARKER) && tok.line != last_line {
                    out.push(justification_diag(file, tok.line, variant));
                    last_line = tok.line;
                }
            }
        }
        if !sanctioned {
            for tok in &file.toks {
                if tok.kind == TokKind::Ident {
                    let text = tok.text(&file.text);
                    if is_atomic_type(text) && !file.line_in_tests(tok.line) {
                        out.push(confinement_diag(file, tok.line, text));
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// `AtomicUsize`, `AtomicU64`, `AtomicBool`, … — the std atomic cell types.
fn is_atomic_type(ident: &str) -> bool {
    ident.strip_prefix("Atomic").is_some_and(|rest| {
        matches!(
            rest,
            "Bool"
                | "Usize"
                | "Isize"
                | "U8"
                | "U16"
                | "U32"
                | "U64"
                | "I8"
                | "I16"
                | "I32"
                | "I64"
                | "Ptr"
        )
    })
}

/// Legacy substring scan for files the lexer could not finish.
fn check_fallback(file: &SourceFile, out: &mut Vec<Diag>) {
    let sanctioned = ATOMIC_MODULES.contains(&file.rel.as_str());
    for (i, line) in file.code.iter().enumerate() {
        if file.line_in_tests(i) {
            continue;
        }
        for variant in ATOMIC_VARIANTS {
            if line.contains(&format!("Ordering::{variant}")) {
                if !sanctioned {
                    out.push(confinement_diag(file, i, &format!("Ordering::{variant}")));
                } else if !file.has_marker_comment(i, MARKER) {
                    out.push(justification_diag(file, i, variant));
                }
                break;
            }
        }
    }
}

fn justification_diag(file: &SourceFile, line: usize, variant: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "atomics-discipline",
        msg: format!(
            "`Ordering::{variant}` without an adjacent `// ORDERING:` comment \
             justifying the memory-ordering choice"
        ),
    }
}

fn confinement_diag(file: &SourceFile, line: usize, what: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "atomics-discipline",
        msg: format!(
            "`{what}` outside the sanctioned concurrency modules \
             (pool/governor/batch) — keep atomic state where its invariants \
             are documented, or extend the sanctioned list deliberately"
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
    fn justified_ordering_is_clean() {
        let f = file(
            "crates/core/src/pool.rs",
            "fn f(x: &AtomicUsize) -> usize {\n    \
             // ORDERING: Relaxed — monotone counter, read for stats only.\n    \
             x.load(Ordering::Relaxed)\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn trailing_justification_counts() {
        let f = file(
            "crates/core/src/governor.rs",
            "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) // ORDERING: pairs with store\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn bare_ordering_is_flagged() {
        let f = file(
            "crates/core/src/pool.rs",
            "fn f(x: &AtomicUsize) -> usize { x.load(Ordering::Relaxed) }",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("ORDERING:"), "{diags:?}");
    }

    #[test]
    fn atomics_outside_sanctioned_modules_are_flagged() {
        let f = file(
            "crates/core/src/scan.rs",
            "fn f(x: &AtomicUsize) -> usize {\n    \
             // ORDERING: justified but still misplaced.\n    \
             x.load(Ordering::SeqCst)\n}",
        );
        let diags = check(&[f]);
        assert!(diags.iter().any(|d| d.msg.contains("sanctioned")), "{diags:?}");
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic() {
        let f = file(
            "crates/columnstore/src/value.rs",
            "fn f(a: u32, b: u32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let in_tests = file(
            "crates/core/src/scan.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicUsize, Ordering};\n    fn t(x: &AtomicUsize) -> usize { x.load(Ordering::SeqCst) }\n}",
        );
        let test_file =
            file("tests/pool.rs", "fn t(x: &AtomicUsize) -> usize { x.load(Ordering::SeqCst) }");
        assert!(check(&[in_tests, test_file]).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_trip_it() {
        let f = file(
            "crates/core/src/scan.rs",
            "// the pool uses Ordering::SeqCst for shutdown\nfn f() { let s = \"AtomicUsize\"; }",
        );
        assert!(check(&[f]).is_empty());
    }
}
