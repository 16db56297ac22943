//! Governor-checkpoint reachability.
//!
//! The cooperative governor (DESIGN.md §10) only cancels, enforces time
//! budgets, and unwinds memory pressure at **checkpoints** — the
//! `governor.active()` / `governor.check()` probes at morsel and batch
//! boundaries. The token-level passes verify the probes exist; this pass
//! verifies the *path property* the engine actually relies on: every loop
//! that claims morsels (`sched.claim(…)`) or iterates batches
//! (`BatchCursor`) in the scan/pool/engine layer must reach a checkpoint on
//! **every** path through its body. A branch that re-enters the loop
//! without passing a probe is an unbounded ungoverned loop — exactly the
//! shape that makes a cancelled query run to completion anyway.
//!
//! Mechanically, per governed loop: a 1-bit **must**-analysis (forward,
//! intersect) over the fn's CFG, genning the bit at checkpoint statements
//! and killing it at the loop head (each trip must re-prove the probe).
//! The loop's latch block — which every re-iteration flows through — must
//! have the bit set on entry. Paths that `break`/`return` out of the body
//! are exempt by construction: they bypass the latch.

use crate::cfg::{self, Cfg};
use crate::dataflow::{solve, BitSet, Direction, FlowGraph, Meet};
use crate::scan::SourceFile;
use crate::Diag;

/// Files whose claim/batch loops must be governed.
const GOVERNED_FILES: [&str; 3] =
    ["crates/core/src/scan.rs", "crates/core/src/pool.rs", "crates/core/src/engine.rs"];

/// Whether statement text marks a loop as governed (it consumes morsels or
/// iterates batches).
fn is_governed_text(text: &str) -> bool {
    text.contains(". claim (") || text.contains("BatchCursor")
}

/// Whether statement text is a governor checkpoint. The `.active()` probe
/// itself counts: when it reports inactive there is nothing to govern, and
/// the real checkpoint idiom is `if governor.active() { governor.check()?; }`.
fn is_checkpoint_text(text: &str) -> bool {
    text.contains("governor . active (")
        || text.contains("governor . check (")
        || text.contains(". admit_projection (")
}

/// Run the checkpoint-reachability pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if !GOVERNED_FILES.contains(&file.rel.as_str()) {
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
    if c.loops.is_empty() {
        return;
    }
    // Per-block checkpoint flags, shared across the fn's loops.
    let checkpoint_block: Vec<bool> = c
        .blocks
        .iter()
        .map(|b| {
            b.stmts.iter().any(|s| is_checkpoint_text(&cfg::stmt_text(&file.text, &file.toks, s)))
        })
        .collect();
    let g = FlowGraph::from_cfg(c);
    for lp in &c.loops {
        // The loop header statement lives in the head block, so scanning
        // head + body blocks covers both `while let … claim(…)` headers and
        // claim/`BatchCursor` uses inside the body.
        let governed = lp.blocks.iter().chain([&lp.head]).any(|&b| {
            c.blocks[b]
                .stmts
                .iter()
                .any(|s| is_governed_text(&cfg::stmt_text(&file.text, &file.toks, s)))
        });
        if !governed {
            continue;
        }
        // 1-bit must-analysis: gen at checkpoints, kill at the loop head.
        let mut gen = vec![BitSet::empty(1); c.blocks.len()];
        let mut kill = vec![BitSet::empty(1); c.blocks.len()];
        for (b, &is_cp) in checkpoint_block.iter().enumerate() {
            if is_cp {
                gen[b].insert(0);
            }
        }
        kill[lp.head].insert(0);
        // The head's own statement (the `while` condition) may itself be a
        // checkpoint; gen applies after kill, so that still counts.
        let sol = solve(&g, &gen, &kill, 1, Direction::Forward, Meet::Intersect, &BitSet::empty(1));
        if !sol.input[lp.latch].contains(0) {
            out.push(Diag {
                path: file.rel.clone(),
                line: lp.line + 1,
                pass: "checkpoint-reachability",
                msg: format!(
                    "governed loop in `{}` (claims morsels / iterates batches) has a path \
                     through its body that re-iterates without reaching a `Governor` \
                     checkpoint — add `if governor.active() {{ governor.check()?; }}` so \
                     cancellation and budgets stay enforceable on every trip",
                    c.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source("crates/core/src/scan.rs", src).unwrap()
    }

    #[test]
    fn ungoverned_claim_loop_is_flagged() {
        let f = file(
            "fn run(sched: &S) {\n    let mut last = 0;\n    while let Some(m) = sched.claim(0, 2, &mut last) {\n        work(m);\n    }\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].msg.contains("Governor"), "{diags:?}");
    }

    #[test]
    fn checkpoint_on_every_path_is_clean() {
        let f = file(
            "fn run(sched: &S, governor: &G) {\n    let mut last = 0;\n    while let Some(m) = sched.claim(0, 2, &mut last) {\n        if governor.active() { governor.check(); }\n        work(m);\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn checkpoint_on_one_branch_only_is_flagged() {
        // The probe exists but a `continue` path skips it: token-level
        // adjacency would pass, the path property fails.
        let f = file(
            "fn run(sched: &S, governor: &G) {\n    let mut last = 0;\n    while let Some(m) = sched.claim(0, 2, &mut last) {\n        if fast_path(m) { continue; }\n        if governor.active() { governor.check(); }\n        work(m);\n    }\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn batch_cursor_loop_requires_checkpoint() {
        let f = file(
            "fn scan(len: usize, governor: &G) {\n    for b in BatchCursor::with_batch_rows(len, 4096) {\n        process(b);\n    }\n}",
        );
        assert_eq!(check(&[f]).len(), 1);
        let ok = file(
            "fn scan(len: usize, governor: &G) {\n    for b in BatchCursor::with_batch_rows(len, 4096) {\n        if governor.active() { governor.check(); }\n        process(b);\n    }\n}",
        );
        assert!(check(&[ok]).is_empty());
    }

    #[test]
    fn break_paths_are_exempt() {
        // A path that leaves the loop without a checkpoint is fine — only
        // *re-iterating* paths must be governed.
        let f = file(
            "fn run(sched: &S, governor: &G) {\n    let mut last = 0;\n    while let Some(m) = sched.claim(0, 2, &mut last) {\n        if done(m) { break; }\n        if governor.active() { governor.check(); }\n        work(m);\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn plain_loops_are_not_governed() {
        let f = file("fn run(v: &[u8]) {\n    for x in v {\n        work(x);\n    }\n}");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn claim_loops_inside_closures_are_checked() {
        // The real morsel loop lives in a worker closure passed to the
        // pool; the closure gets its own CFG and is still audited.
        let f = file(
            "fn run(pool: &P, sched: &S) {\n    pool.run(&|w| {\n        let mut last = 0;\n        while let Some(m) = sched.claim(w, 2, &mut last) {\n            work(m);\n        }\n    });\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("{closure:"), "{diags:?}");
    }

    #[test]
    fn other_files_are_out_of_scope() {
        let f = SourceFile::from_source(
            "crates/toolbox/src/bitpack.rs",
            "fn run(sched: &S) {\n    let mut last = 0;\n    while let Some(m) = sched.claim(0, 2, &mut last) {\n        work(m);\n    }\n}",
        )
        .unwrap();
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = file(
            "#[cfg(test)]\nmod tests {\n    fn run(sched: &S) {\n        let mut last = 0;\n        while let Some(m) = sched.claim(0, 2, &mut last) {\n            work(m);\n        }\n    }\n}",
        );
        assert!(check(&[f]).is_empty());
    }
}
