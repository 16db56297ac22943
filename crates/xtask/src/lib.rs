//! `cargo xtask audit` — repo-local static analysis for the BIPie workspace.
//!
//! Five passes — the [`PASSES`] registry, which also carries each pass's
//! `--explain` card — all built on the hand-rolled token lexer in [`lexer`]
//! and — for the semantic passes — the recursive-descent item parser in
//! [`parser`] and the call graph in [`graph`] (zero dependencies, no
//! `syn`). Each source file is read, lexed and parsed exactly once per
//! run ([`Corpus`]); passes share the corpus and report per-pass wall time
//! in the `--json` report. The lexical rules a lint can express —
//! `// SAFETY:` comments, panic freedom, and which files may spawn threads,
//! read the cycle counter, or hold atomics, locks and registry types — are
//! clippy's (the root `clippy.toml`; DESIGN.md §11). The protocols a path
//! analysis used to check — every profiler span closes, every engine error
//! is published, every morsel and batch loop reaches a governor checkpoint
//! — are types in the engine now, as are the atomics' orderings
//! (`bipie_toolbox::sync`); the crate layering is Cargo's (DESIGN.md §11,
//! "Deleted").

//! Violations print as `path:line: [pass] message` (or as SARIF with
//! `--json`) and make the binary exit `1`; `2` is reserved for internal
//! errors — including a source file that cannot be read or lexed — so CI
//! can tell "findings" from "the auditor broke". Findings
//! carry line-drift-stable IDs ([`report::stable_ids`]) and can be
//! suppressed by ID in `crates/xtask/audit-baseline.json`; a stale entry
//! there is itself an error, so the baseline can only shrink.

#![forbid(unsafe_code)]

pub mod bench_check;
pub mod error_surface;
pub mod graph;
pub mod invariants;
pub mod lexer;
pub mod lock_discipline;
pub mod parser;
pub mod report;
pub mod scan;
pub mod sync_escape;
pub mod trace_hygiene;

use std::fmt;
use std::path::Path;
use std::time::Instant;

/// One audit violation, printed as `path:line: [pass] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Path relative to the audited root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which pass produced this: a [`PASSES`] id, or `baseline` for a
    /// stale entry in the baseline.
    pub pass: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.pass, self.msg)
    }
}

/// One audit pass: how to select it, how to run it, and its `--explain`
/// card.
pub struct Pass {
    /// CLI name (what pass selection and `--explain` accept).
    pub name: &'static str,
    /// The diagnostic id emitted in reports (`--explain` accepts it too).
    pub id: &'static str,
    /// The pass over the shared corpus.
    pub run: fn(&Corpus) -> Vec<Diag>,
    /// What the pass checks.
    pub rule: &'static str,
    /// Why the engine needs it.
    pub rationale: &'static str,
    /// What a sanctioned fix looks like.
    pub fix: &'static str,
}

/// Every pass, in execution order.
pub static PASSES: [Pass; 5] = [
    Pass {
        name: "invariants",
        id: "invariants",
        run: |c| invariants::check(&c.files),
        rule: "Dispatchers consuming selection or group-id vectors call the \
               `debug_assert_*` instrumentation helpers; every helper is wired somewhere.",
        rationale: "Sorted/unique selection vectors and in-range group ids are the \
                    unchecked preconditions of every kernel; the debug assertions are \
                    the only runtime witness.",
        fix: "Call the matching `debug_assert_*` helper at the dispatcher entry point.",
    },
    Pass {
        name: "trace",
        id: "trace-hygiene",
        run: |c| trace_hygiene::check(&c.files),
        rule: "`TraceEvent::` paths and `DecisionRecord { .. }` literals appear only in the \
               tracer (`crates/core/src/trace.rs`) and tests. Clippy's `disallowed_types` \
               bans the `TraceEvent` type elsewhere, but not a variant path reached through \
               a glob import or a full path.",
        rationale: "Engine code records through `Tracer`, where the `ProfileLevel::Off` \
                    gate keeps profiling at true zero cost and a decision is priced once, \
                    at its source.",
        fix: "Record through a `Tracer` method; add one if the event kind is new. Read \
              finished records by pattern (`DecisionRecord::Agg { cycles, .. }`).",
    },
    Pass {
        name: "locks",
        id: "lock-discipline",
        run: |c| lock_discipline::check(&c.files, &c.graph),
        rule: "Every lock field and acquisition site outside tests carries `// LOCK:`; \
               guard liveness is tracked per fn, the acquisition-order graph must be \
               acyclic, and no guard is held across `Condvar::wait` (other than the waited \
               one) or across a call that can re-enter `WorkerPool::run`. Which files may \
               hold locks at all is clippy's `disallowed_types`.",
        rationale: "Every deadlock ingredient is a local edit that type-checks; the \
                    order graph and the wait/reentrancy rules make the blocking \
                    protocol mechanical.",
        fix: "Add `// LOCK: <order + invariant>` at the site, drop guards before \
              waiting/forking, and keep acquisition order consistent across paths.",
    },
    Pass {
        name: "sync",
        id: "sync-escape",
        run: |c| sync_escape::check(&c.files),
        rule: "Struct fields holding atomic cells, `UnsafeCell`s or locks are never `pub`; \
               `unsafe impl Send`/`Sync` is always flagged. Which files may define such \
               a struct at all is clippy's `disallowed_types`.",
        rationale: "A sync field is a concurrency contract its owning module upholds; a \
                    `pub` one lets any crate bypass it, and a hand-written auto-trait impl \
                    is a new soundness axiom.",
        fix: "Make sync fields private behind methods; restructure so the auto trait \
              holds, or baseline the impl with a review.",
    },
    Pass {
        name: "errors",
        id: "error-surface",
        run: |c| error_surface::check(&c.files),
        rule: "Every `EngineError` variant has a construction site in library code and a \
               mention in tests; engine `Result`s are never discarded via `let _ =` or \
               `.ok()` in library code.",
        rationale: "Dead variants are unreachable error vocabulary, untested variants \
                    are bit-rotting paths, and a swallowed result turns cancellation \
                    into silent wrong answers.",
        fix: "Construct the variant where the failure is detected, add a test driving \
              that path, and propagate results with `?`.",
    },
];

impl Pass {
    /// The `--explain` card: the rule, the rationale and the fix.
    pub fn explain(&self) -> String {
        format!(
            "pass: {} (id: {})\n\nrule:\n  {}\n\nwhy:\n  {}\n\nfix:\n  {}\n",
            self.name, self.id, self.rule, self.rationale, self.fix
        )
    }
}

/// The pass a CLI name or a reported diagnostic id names — whichever form
/// the user has in front of them.
pub fn lookup(name: &str) -> Option<&'static Pass> {
    PASSES.iter().find(|p| p.name == name || p.id == name)
}

/// Every pass name, in execution order.
pub fn all_passes() -> Vec<&'static str> {
    PASSES.iter().map(|p| p.name).collect()
}

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

/// Wall time spent in one pass, for the `--json` report.
pub struct PassTiming {
    /// CLI pass name.
    pub pass: &'static str,
    /// Elapsed wall time in microseconds.
    pub micros: u128,
}

/// Diagnostics plus per-pass timings from one audit run.
pub struct AuditOutcome {
    /// Post-baseline diagnostics, sorted by path/line/pass.
    pub diags: Vec<Diag>,
    /// One entry per executed pass, in execution order.
    pub timings: Vec<PassTiming>,
}

/// Load the audited corpus once and run the requested passes.
///
/// `passes` are [`PASSES`] names; the baseline is always applied.
/// Diagnostics come back sorted by path/line, so the report — text or
/// SARIF — is deterministic across runs and filesystems
/// (the walk itself is sorted too). `Err` is an internal error (a file
/// that cannot be read or lexed), not a finding.
pub fn run_audit(root: &Path, passes: &[&str]) -> Result<Vec<Diag>, String> {
    Ok(run_audit_timed(root, passes)?.diags)
}

/// [`run_audit`], also reporting per-pass wall time.
pub fn run_audit_timed(root: &Path, passes: &[&str]) -> Result<AuditOutcome, String> {
    let corpus = Corpus::load(root)?;
    let mut diags = Vec::new();
    let mut timings = Vec::new();
    for pass in PASSES.iter().filter(|p| passes.contains(&p.name)) {
        let start = Instant::now();
        diags.extend((pass.run)(&corpus));
        timings.push(PassTiming { pass: pass.name, micros: start.elapsed().as_micros() });
    }
    diags = report::apply_baseline(root, diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
    Ok(AuditOutcome { diags, timings })
}

/// Workspace-relative paths touched by the working tree (staged, unstaged,
/// and untracked), for `cargo xtask audit --changed`. Errors (not a git
/// checkout, git missing) come back as a message — the CLI maps them to
/// exit code 2, keeping "the auditor broke" distinct from findings.
pub fn changed_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for args in
        [&["diff", "--name-only", "HEAD"][..], &["ls-files", "--others", "--exclude-standard"][..]]
    {
        let run = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .map_err(|e| format!("cannot run git: {e}"))?;
        if !run.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&run.stderr).trim()
            ));
        }
        out.extend(
            String::from_utf8_lossy(&run.stdout)
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_string),
        );
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// The module parents of a workspace-relative source path: every ancestor
/// `mod.rs` under `src/`, plus the crate roots `src/lib.rs`/`src/main.rs`.
/// A change to `crates/core/src/scan/hot.rs` puts `crates/core/src/scan/
/// mod.rs` and `crates/core/src/lib.rs` in scope too, because passes report
/// crate-level findings (the error surface) against those files.
pub fn module_parents(rel: &str) -> Vec<String> {
    let Some((mut dir, _)) = rel.rsplit_once('/') else { return Vec::new() };
    let mut out = Vec::new();
    loop {
        match dir.rsplit_once('/') {
            Some((parent, leaf)) if leaf != "src" => {
                out.push(format!("{dir}/mod.rs"));
                dir = parent;
            }
            Some(_) => {
                out.push(format!("{dir}/lib.rs"));
                out.push(format!("{dir}/main.rs"));
                break;
            }
            // The workspace root package keeps its sources in a top-level
            // `src/`; its crate roots are parents too.
            None if dir == "src" => {
                out.push("src/lib.rs".to_string());
                out.push("src/main.rs".to_string());
                break;
            }
            // Never reached a `src/` ancestor: not a module file (docs,
            // fixtures, config) — no parents.
            None => return Vec::new(),
        }
    }
    out.retain(|p| p != rel);
    out
}

/// Restrict `diags` to findings in `changed` files or their module parents.
/// Baseline bookkeeping findings are dropped too: scoping removes the
/// diagnostics its entries match, so "stale entry" would be a false alarm
/// here — only the full run enforces that the baseline shrinks.
pub fn scope_to_changed(diags: Vec<Diag>, changed: &[String]) -> Vec<Diag> {
    let mut scope: std::collections::BTreeSet<String> = changed.iter().cloned().collect();
    for rel in changed {
        scope.extend(module_parents(rel));
    }
    diags.into_iter().filter(|d| d.pass != "baseline" && scope.contains(&d.path)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_every_section() {
        let text = lookup("locks").unwrap().explain();
        for section in ["pass: locks", "lock-discipline", "rule:", "why:", "fix:"] {
            assert!(text.contains(section), "{section} missing from {text}");
        }
    }

    #[test]
    fn lookup_takes_names_and_diagnostic_ids() {
        let by_id = lookup("lock-discipline").unwrap();
        assert_eq!(by_id.name, "locks");
        assert!(std::ptr::eq(by_id, lookup("locks").unwrap()));
        assert!(lookup("nonsense").is_none());
    }

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
            assert!(diags.is_empty(), "{}: {diags:?}", pass.name);
        }
    }
}
