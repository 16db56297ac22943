//! Atomics-ordering discipline.
//!
//! Every atomic operation in the engine names a memory ordering, and every
//! ordering is a claim about inter-thread visibility that the type system
//! cannot check. The worker pool's shutdown handshake, the governor's
//! budget counters, and the columnstore's lazy statistics each picked their
//! orderings deliberately (Relaxed for monotone counters, Acquire/Release
//! for publication) — but nothing stopped the next edit from weakening an
//! `Acquire` to `Relaxed` and introducing a reordering bug that no test on
//! x86 would ever catch. This pass makes the reasoning load-bearing: every
//! use of an atomic `Ordering` variant (`Relaxed`, `Acquire`, `Release`,
//! `AcqRel`, `SeqCst`) in non-test code must carry an adjacent
//! `// ORDERING:` comment — trailing on the same line, or in the contiguous
//! comment run immediately above — justifying the choice.
//!
//! Which files may hold atomics at all is clippy's `disallowed_types`: a file
//! can name an `Atomic*` type or `Ordering` only under a
//! `clippy::disallowed_types` expectation (DESIGN.md §11), so this check runs
//! on every file rather than on a module list.
//!
//! Matching is on token paths, so `cmp::Ordering::Less` in the sort code
//! never trips it (the comparator enum has no `Relaxed`/`Acquire`/…
//! variants), and prose like "uses Ordering::SeqCst" in a comment is
//! invisible to the pass.

use crate::lexer::{find_seq, path_pat};
use crate::scan::SourceFile;
use crate::Diag;

/// The atomic `Ordering` variants, as paths.
const ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// The justification marker an ordering site must carry.
pub const MARKER: &str = "ORDERING:";

/// Run the atomics-discipline pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| !f.is_test_file()) {
        let mut last_line = usize::MAX;
        for path in ORDERINGS {
            for tok in find_seq(&file.text, &file.toks, &path_pat(path)) {
                if file.line_in_tests(tok.line)
                    || file.has_marker_comment(tok.line, MARKER)
                    || tok.line == last_line
                {
                    continue;
                }
                last_line = tok.line;
                out.push(Diag {
                    path: file.rel.clone(),
                    line: tok.line + 1,
                    pass: "atomics-discipline",
                    msg: format!(
                        "`{path}` without an adjacent `// ORDERING:` comment \
                         justifying the memory-ordering choice"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
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
    fn every_module_needs_the_justification() {
        let bare = file(
            "crates/toolbox/src/stray.rs",
            "fn f(x: &AtomicBool) { x.store(true, Ordering::SeqCst) }",
        );
        assert_eq!(check(&[bare]).len(), 1);
        let justified = file(
            "crates/toolbox/src/stray.rs",
            "fn f(x: &AtomicBool) {\n    // ORDERING: a one-shot flag.\n    x.store(true, Ordering::SeqCst)\n}",
        );
        assert!(check(&[justified]).is_empty());
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
