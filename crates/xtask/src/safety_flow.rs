//! SAFETY-precondition flow.
//!
//! Clippy's `undocumented_unsafe_blocks` guarantees every `unsafe` block
//! carries a `// SAFETY:` comment; this pass checks that the comment is
//! *load-bearing* when it can be. A contract like `// SAFETY: AVX2
//! availability checked by has_avx2().` names a **checkable precondition** —
//! a fn the code could
//! actually evaluate — so the check must exist on every path into the
//! unsafe block: a call in the same basic block (`debug_assert!(…)`,
//! an `if has_avx2() { … }` header) or in a block that **dominates** it.
//! A comment that names the check while no path establishes it is
//! documentation drift of the worst kind: it asserts a verification that
//! does not happen.
//!
//! What counts as a checkable precondition is deliberately narrow, so prose
//! stays prose: a standalone `name()` mention (not a method call like
//! `sel.len()` — those describe values, not evaluable predicates) whose
//! name is a fn actually defined in the audited workspace. Caller-contract
//! comments ("the caller guarantees …") name no fn and are exempt.
//! Dominators come from the shared worklist framework ([`crate::dataflow`])
//! over the per-fn CFGs.

use std::collections::BTreeSet;

use crate::cfg::{self, Cfg};
use crate::dataflow::{dominators, FlowGraph};
use crate::parser::{walk_items, ItemKind};
use crate::scan::SourceFile;
use crate::Diag;

/// Run the safety-precondition-flow pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    // Fn names defined anywhere in the audited workspace: the filter that
    // separates checkable preconditions from prose like `len()`.
    let mut fn_names: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        walk_items(&file.items, &mut |item| {
            if item.kind == ItemKind::Fn {
                fn_names.insert(item.name.as_str());
            }
        });
    }
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file() {
            continue;
        }
        for c in &file.cfgs.cfgs {
            if file.line_in_tests(c.line) {
                continue;
            }
            check_cfg(file, c, &fn_names, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// The contiguous `//` comment text covering `line` (same-line trailing
/// comment plus the run immediately above) — the same shape
/// `has_marker_comment` accepts for `// SAFETY:`.
fn comment_text(file: &SourceFile, line: usize) -> String {
    if line >= file.raw.len() {
        return String::new();
    }
    let mut top = line;
    while top > 0 && file.raw[top - 1].trim_start().starts_with("//") {
        top -= 1;
    }
    file.raw[top..=line].join("\n")
}

/// Standalone `name()` mentions in comment text: an identifier directly
/// followed by `()`, not preceded by `.` (method calls on values describe
/// state, not an evaluable predicate).
fn precondition_names(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(p) = text[i..].find("()") {
        let at = i + p;
        let mut s = at;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s < at {
            let preceded_by_dot = s > 0 && bytes[s - 1] == b'.';
            if !preceded_by_dot {
                out.push(&text[s..at]);
            }
        }
        i = at + 2;
    }
    out
}

fn check_cfg(file: &SourceFile, c: &Cfg, fn_names: &BTreeSet<&str>, out: &mut Vec<Diag>) {
    if c.unsafe_sites.is_empty() {
        return;
    }
    let mut dom = None;
    for site in &c.unsafe_sites {
        if file.line_in_tests(site.line) {
            continue;
        }
        let comment = comment_text(file, site.line);
        if !comment.contains("SAFETY:") {
            // No contract at all is pass 1's finding, not ours.
            continue;
        }
        let names: Vec<&str> =
            precondition_names(&comment).into_iter().filter(|n| fn_names.contains(n)).collect();
        for name in names {
            let pat = format!("{name} (");
            let dom = dom.get_or_insert_with(|| dominators(&FlowGraph::from_cfg(c)));
            let validated = std::iter::once(site.block)
                .chain(dom[site.block].iter_set().filter(|&d| d != site.block))
                .any(|b| {
                    c.blocks[b]
                        .stmts
                        .iter()
                        .any(|s| cfg::stmt_text(&file.text, &file.toks, s).contains(&pat))
                });
            if !validated {
                out.push(Diag {
                    path: file.rel.clone(),
                    line: site.line + 1,
                    pass: "safety-precondition-flow",
                    msg: format!(
                        "`// SAFETY:` names checkable precondition `{name}()` but no \
                         dominating path validates it — establish it with \
                         `debug_assert!({name}(…))` (or branch on it) before the unsafe \
                         block in `{}`",
                        c.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source("crates/toolbox/src/kernel.rs", src).unwrap()
    }

    #[test]
    fn named_precondition_without_validation_is_flagged() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub fn read(v: &[u8]) -> u8 {\n    // SAFETY: AVX2 availability checked by has_avx2().\n    unsafe { first(v) }\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].msg.contains("has_avx2()"), "{diags:?}");
    }

    #[test]
    fn branch_on_the_precondition_dominates_and_is_clean() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub fn read(v: &[u8]) -> u8 {\n    if has_avx2() {\n        // SAFETY: AVX2 availability checked by has_avx2().\n        return unsafe { first(v) };\n    }\n    v[0]\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn debug_assert_in_the_same_block_is_clean() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub fn read(v: &[u8]) -> u8 {\n    debug_assert!(has_avx2());\n    // SAFETY: AVX2 availability checked by has_avx2().\n    unsafe { first(v) }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn check_on_only_one_path_is_flagged() {
        // A check that sits on a sibling branch does not dominate the
        // unsafe block.
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub fn read(v: &[u8], p: bool) -> u8 {\n    if p {\n        probe(has_avx2());\n    }\n    // SAFETY: AVX2 availability checked by has_avx2().\n    unsafe { first(v) }\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn method_call_mentions_are_prose() {
        // `sel.len()` describes a value, not an evaluable predicate fn.
        let f = file(
            "pub fn len() -> usize { 0 }\npub fn read(sel: &[u8], c: usize) -> u8 {\n    // SAFETY: c < sel.len() <= capacity.\n    unsafe { at(sel, c) }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn names_not_defined_in_the_workspace_are_prose() {
        let f = file(
            "pub fn read(v: &[u8]) -> u8 {\n    // SAFETY: caller upholds aligned_for_simd().\n    unsafe { first(v) }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn caller_contract_comments_are_exempt() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub unsafe fn read(v: &[u8]) -> u8 {\n    // SAFETY: the caller guarantees v is non-empty.\n    unsafe { first(v) }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn validation_must_dominate_not_follow() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\npub fn read(v: &[u8]) -> u8 {\n    if v.is_empty() {\n        // SAFETY: AVX2 availability checked by has_avx2().\n        let x = unsafe { first(v) };\n        if wide() {\n            return x;\n        }\n    }\n    probe(has_avx2());\n    v[0]\n}",
        );
        // The only `has_avx2()` call sits after (and not postdominating
        // relevance — domination is what establishes preconditions).
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = file(
            "pub fn has_avx2() -> bool { true }\n#[cfg(test)]\nmod tests {\n    fn t(v: &[u8]) -> u8 {\n        // SAFETY: AVX2 availability checked by has_avx2().\n        unsafe { first(v) }\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }
}
