//! `cargo xtask audit` — repo-local static analysis for the BIPie workspace.
//!
//! Five passes — the [`PASSES`] registry — all built on the hand-rolled
//! token lexer in [`lexer`] and — for the semantic passes — the
//! recursive-descent item parser in [`parser`] and the call graph in
//! [`graph`] (zero dependencies, no `syn`). Each source file is read, lexed
//! and parsed exactly once per run ([`Corpus`]), and every pass shares the
//! corpus. The lexical rules a lint can express —
//! `// SAFETY:` comments, panic freedom, and which files may spawn threads,
//! read the cycle counter, or hold atomics, locks and registry types — are
//! clippy's (the root `clippy.toml`; DESIGN.md §11). The protocols a path
//! analysis used to check — every profiler span closes, every engine error
//! is published, every morsel and batch loop reaches a governor checkpoint
//! — are types in the engine now, as are the atomics' orderings
//! (`bipie_toolbox::sync`); the crate layering is Cargo's (DESIGN.md §11,
//! "Deleted").

//! Violations print as `path:line: [pass] message` and make the binary exit
//! `1`; `2` is reserved for internal errors — including a source file that
//! cannot be read or lexed — so CI can tell "findings" from "the auditor
//! broke". A finding is fixed in the code, or its pass is changed in the
//! same change: there is no suppression list.

#![forbid(unsafe_code)]

pub mod bench_check;
pub mod error_surface;
pub mod graph;
pub mod invariants;
pub mod lexer;
pub mod lock_discipline;
pub mod parser;
pub mod scan;
pub mod sync_escape;
pub mod trace_hygiene;

use std::fmt;
use std::path::Path;

/// One audit violation, printed as `path:line: [pass] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Path relative to the audited root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which pass produced this: a [`PASSES`] id.
    pub pass: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.pass, self.msg)
    }
}

/// One audit pass: the id its findings carry, and the pass itself. What
/// each pass checks, and why, is its module's doc.
pub struct Pass {
    /// The diagnostic id printed in each finding's `[pass]` tag.
    pub id: &'static str,
    /// The pass over the shared corpus.
    pub run: fn(&Corpus) -> Vec<Diag>,
}

/// Every pass, in execution order.
pub static PASSES: [Pass; 5] = [
    Pass { id: "invariants", run: |c| invariants::check(&c.files) },
    Pass { id: "trace-hygiene", run: |c| trace_hygiene::check(&c.files) },
    Pass { id: "lock-discipline", run: |c| lock_discipline::check(&c.files, &c.graph) },
    Pass { id: "sync-escape", run: |c| sync_escape::check(&c.files) },
    Pass { id: "error-surface", run: |c| error_surface::check(&c.files) },
];

/// The audited corpus: every workspace source file read, lexed and parsed
/// once, plus the call graph derived from the parsed items. All
/// passes share this — no pass re-reads or re-lexes anything.
pub struct Corpus {
    /// Workspace sources, sorted by relative path.
    pub files: Vec<scan::SourceFile>,
    /// Fn call sites extracted from [`Corpus::files`].
    pub graph: graph::Graph,
}

impl Corpus {
    /// Load and parse the workspace under `root`. An unreadable or
    /// unlexable file fails the whole load, naming the file: no pass may
    /// run on a corpus with a hole in it.
    pub fn load(root: &Path) -> Result<Corpus, String> {
        let files = scan::workspace_files(root)
            .iter()
            .map(|p| scan::SourceFile::load(root, p))
            .collect::<Result<Vec<_>, String>>()?;
        let graph = graph::Graph::build(&files);
        Ok(Corpus { files, graph })
    }
}

/// Load the audited corpus once and run every pass over it.
///
/// Diagnostics come back sorted by path/line, so the report is
/// deterministic across runs and filesystems (the walk itself is sorted
/// too). `Err` is an internal error (a file that cannot be read or lexed),
/// not a finding.
pub fn run_audit(root: &Path) -> Result<Vec<Diag>, String> {
    let corpus = Corpus::load(root)?;
    let mut diags: Vec<Diag> = PASSES.iter().flat_map(|pass| (pass.run)(&corpus)).collect();
    diags.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_is_silent_on_files_without_tokens() {
        // `Corpus::load` refuses a file the lexer cannot finish, so an empty
        // token stream only ever means a file with nothing in it.
        let files: Vec<scan::SourceFile> = [
            ("crates/toolbox/src/empty.rs", ""),
            ("crates/core/src/scan.rs", " \n\t\n  "),
            ("crates/core/src/pool.rs", ""),
            ("src/lib.rs", "\n\n"),
            ("tests/blank.rs", " "),
        ]
        .iter()
        .map(|(rel, src)| scan::SourceFile::from_source(rel, src).unwrap())
        .collect();
        let corpus = Corpus { graph: graph::Graph::build(&files), files };
        for pass in &PASSES {
            let diags = (pass.run)(&corpus);
            assert!(diags.is_empty(), "{}: {diags:?}", pass.id);
        }
    }
}
