//! Memory-accountant coverage.
//!
//! The resource governor (DESIGN.md §10) can only enforce `mem_budget` for
//! allocations that are charged against it. The scan and aggregation
//! modules are where the data-dependent allocations live — accumulator
//! arrays, group tables, selection scratch, unpack buffers — so those files
//! must reference the accountant API (`MemScope`, `projected_bytes`, or a
//! `.charge(` call site) as long as they allocate at all. A file that grows
//! a new allocation idiom while dropping every accountant reference has
//! detached its allocations from the budget, and this pass flags each
//! allocation line in it.
//!
//! The check is deliberately file-granular, not per-allocation: the
//! accountant charges *estimates* covering several allocations at once
//! (e.g. one `projected_bytes` charge covers all of an executor's arrays),
//! so requiring a `.charge(` adjacent to every `vec![` would force
//! redundant bookkeeping. What the pass guarantees is that the accounting
//! machinery cannot silently rot out of the allocating modules.
//!
//! Both the allocation idioms (`vec![`, `with_capacity(`, `.resize(`) and
//! the accountant references are matched as token sequences, so a comment
//! saying "route through MemScope" does not count as coverage.

use crate::scan::SourceFile;
use crate::Diag;

/// Files whose allocations must be covered by the memory accountant.
const ACCOUNTED_FILES: [&str; 2] = ["crates/core/src/scan.rs", "crates/core/src/aggproc.rs"];

/// Allocation idioms as token sequences.
const ALLOC_SEQS: [(&[&str], &str); 4] = [
    (&["vec", "!", "["], "vec!["),
    (&["with_capacity", "("], "with_capacity("),
    (&[".", "resize", "("], ".resize("),
    (&[".", "resize_with", "("], ".resize_with("),
];

/// Accountant API references; at least one must appear in an allocating
/// accounted file.
const ACCOUNTANT_SEQS: [&[&str]; 3] = [&["MemScope"], &["projected_bytes"], &[".", "charge", "("]];

/// Run the accountant-coverage pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if !ACCOUNTED_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        let covered = ACCOUNTANT_SEQS
            .iter()
            .any(|seq| !crate::lexer::find_seq(&file.text, &file.toks, seq).is_empty());
        if covered {
            continue;
        }
        for (seq, label) in ALLOC_SEQS {
            for tok in crate::lexer::find_seq(&file.text, &file.toks, seq) {
                if !file.line_in_tests(tok.line) {
                    out.push(diag(file, tok.line, label));
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn diag(file: &SourceFile, line: usize, token: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "accountant",
        msg: format!(
            "`{token}` allocation in an accounted module that no longer \
             references the memory accountant — charge it via \
             `governor::MemScope` so `mem_budget` stays enforceable"
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
    fn unaccounted_allocation_is_flagged() {
        let f = file("crates/core/src/scan.rs", "fn f() { let v = vec![0u32; 4096]; }");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("MemScope"), "{diags:?}");
    }

    #[test]
    fn accountant_reference_clears_the_file() {
        let f = file(
            "crates/core/src/aggproc.rs",
            "use crate::governor::MemScope;\nfn f() { let v = vec![0u32; 4096]; }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn charge_call_counts_as_coverage() {
        let f = file(
            "crates/core/src/scan.rs",
            "fn f(m: &mut M) { m.charge(g, 42)?; let v = Vec::with_capacity(9); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn other_files_are_not_accounted() {
        let f = file("crates/core/src/trace.rs", "fn f() { let v = vec![0u8; 1 << 20]; }");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn test_module_allocations_are_exempt() {
        let f = file(
            "crates/core/src/scan.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() { let v = vec![0; 8]; } }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_count_as_coverage() {
        // A comment saying "MemScope" must not satisfy the pass — comments
        // are separate tokens, so the allocation is still flagged.
        let f = file(
            "crates/core/src/scan.rs",
            "// TODO: route through MemScope\nfn f() { let v = vec![0u32; 4096]; }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }
}
