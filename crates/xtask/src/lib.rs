//! `cargo xtask audit` — repo-local static analysis for the BIPie workspace.
//!
//! Seventeen passes, all built on the hand-rolled token lexer in [`lexer`]
//! and — for the semantic passes — the recursive-descent item parser in
//! [`parser`], the symbol/module graph in [`graph`], and the per-fn
//! control-flow graphs in [`mod@cfg`] with the worklist dataflow framework in
//! [`dataflow`] (zero dependencies, no `syn`). Each source file is read,
//! lexed, parsed and CFG-lowered exactly once per run ([`Corpus`]); passes
//! share the corpus and report per-pass wall time (plus CFG lowering
//! coverage) in the `--json` report.
//!
//! 1. [`unsafe_audit`] — every `unsafe` block must sit under a `// SAFETY:`
//!    comment and every `unsafe fn` must carry a `# Safety` contract.
//! 2. [`kernel_contract`] — every `#[target_feature]` kernel in
//!    `crates/toolbox` must have a scalar sibling in the same module, a
//!    differential test against `SimdLevel::available()`, and every declared
//!    SIMD tier must actually be wired into its dispatcher.
//! 3. [`invariants`] — dispatchers consuming selection or group-id vectors
//!    must call the `debug_assert_*` instrumentation helpers, and every
//!    helper that exists must be wired somewhere.
//! 4. [`thread_hygiene`] — thread-spawning primitives (`thread::spawn`,
//!    `thread::scope`, `thread::Builder`) are only permitted inside the
//!    worker pool module and in test code; production code must parallelize
//!    through the pool.
//! 5. [`trace_hygiene`] — raw cycle-counter reads (`read_tsc`,
//!    `read_cycles`, `_rdtsc`), `TraceEvent` construction and
//!    `DecisionRecord { .. }` literals are confined to `core::trace`, the
//!    metrics crates, and tests; engine code records through `Tracer`,
//!    where the `ProfileLevel::Off` gate lives.
//! 6. [`accountant`] — the allocating scan/aggregation modules must keep
//!    referencing the resource governor's memory accountant
//!    (`governor::MemScope`), so new allocation sites cannot silently
//!    detach from `mem_budget` enforcement.
//! 7. [`atomics`] — every atomic `Ordering::*` use carries an adjacent
//!    `// ORDERING:` justification, and atomics stay confined to the
//!    modules that own concurrent state (pool/governor/batch).
//! 8. [`panics`] — library crates are panic-free: no `.unwrap()` /
//!    `.expect(…)` / `panic!` / `unreachable!` / `todo!` /
//!    `unimplemented!` outside tests and `debug_assert*`, unless pinned
//!    with a `// PANIC:` justification.
//! 9. [`dispatch_matrix`] — the (op × width × tier) dispatch table is
//!    statically extracted and every cell cross-checked against the scalar
//!    oracle registry and the `SimdLevel::available()` equivalence-test
//!    matrix, including numeric width gates.
//! 10. [`lock_discipline`] — blocking synchronization (`Mutex`/`RwLock`/
//!     `Condvar`) is confined to `core::pool`/`core::scan`; every lock field
//!     and guard-acquisition site carries `// LOCK:`; per-fn guard-liveness
//!     analysis builds the lock-order graph and flags cycles, guards held
//!     across `Condvar::wait`, and guards held across pool-reentrant calls.
//! 11. [`sync_escape`] — structs owning atomics/`UnsafeCell`/locks stay in
//!     the modules that own concurrent state (or document their sharing
//!     protocol); sync fields are never `pub`; `unsafe impl Send`/`Sync` is
//!     always flagged.
//! 12. [`error_surface`] — every `EngineError` variant has a library
//!     construction site and a test mention, and engine `Result`s are never
//!     discarded via `let _ =` or `.ok()` in library code.
//! 13. [`layer_conformance`] — the `use` graph conforms to the crate DAG
//!     (toolbox → columnstore/metrics → core → tpch/bench) and to the
//!     core-module layer table, and every crate's module graph is acyclic.
//! 14. [`checkpoint_reachability`] — every loop claiming morsels or
//!     iterating batches in the scan/pool/engine layer reaches a `Governor`
//!     checkpoint on every path through its body (dataflow over the per-fn
//!     CFGs from [`mod@cfg`], solved by the worklist framework in [`dataflow`]).
//! 15. [`span_balance`] — every profiler phase-span open
//!     (`let t = tracer.start()`) is consumed on all paths, including early
//!     `?`/`return` exits and conditionally-closed branches.
//! 16. [`telemetry_accounting`] — every path producing an `EngineError` out
//!     of the engine's `execute*`/`admit*` boundary reaches the telemetry
//!     publication seam.
//! 17. [`safety_flow`] — each `// SAFETY:` contract naming a checkable
//!     precondition (a workspace fn like `has_avx2()`) is dominated by a
//!     validation of it.
//!
//! Violations print as `path:line: [pass] message` (or as SARIF with
//! `--json`) and make the binary exit `1`; `2` is reserved for internal
//! errors — including a source file that cannot be read or lexed — so CI
//! can tell "findings" from "the auditor broke". Findings
//! carry line-drift-stable IDs ([`report::stable_ids`]) and can be
//! suppressed either by `path:line` in `crates/xtask/audit-allowlist.txt`
//! or by ID in `crates/xtask/audit-baseline.json`; stale entries in either
//! file are themselves errors, so both can only shrink.

#![forbid(unsafe_code)]

pub mod accountant;
pub mod atomics;
pub mod bench_check;
pub mod cfg;
pub mod checkpoint_reachability;
pub mod dataflow;
pub mod dispatch_matrix;
pub mod error_surface;
pub mod explain;
pub mod graph;
pub mod invariants;
pub mod kernel_contract;
pub mod layer_conformance;
pub mod lexer;
pub mod lock_discipline;
pub mod panics;
pub mod parser;
pub mod report;
pub mod safety_flow;
pub mod scan;
pub mod span_balance;
pub mod sync_escape;
pub mod telemetry_accounting;
pub mod thread_hygiene;
pub mod trace_hygiene;
pub mod unsafe_audit;

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
    /// Which pass produced this (`unsafe-audit`, `kernel-contract`,
    /// `invariants`, `thread-hygiene`, `trace-hygiene`, `accountant`,
    /// `atomics-discipline`, `panic-freedom`, `dispatch-matrix`,
    /// `lock-discipline`, `sync-escape`, `error-surface`,
    /// `layer-conformance`, `checkpoint-reachability`, `span-balance`,
    /// `telemetry-accounting`, `safety-precondition-flow`, `allowlist`,
    /// `baseline`).
    pub pass: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.pass, self.msg)
    }
}

/// Every pass name accepted by [`run_audit`], in execution order.
pub const ALL_PASSES: [&str; 17] = [
    "unsafe",
    "kernels",
    "invariants",
    "threads",
    "trace",
    "accountant",
    "atomics",
    "panics",
    "dispatch",
    "locks",
    "sync",
    "errors",
    "layers",
    "checkpoints",
    "spans",
    "telemetry",
    "safety",
];

/// The audited corpus: every workspace source file read, lexed and parsed
/// once, plus the symbol/module graph derived from the parsed items. All
/// passes share this — no pass re-reads or re-lexes anything.
pub struct Corpus {
    /// Workspace sources, sorted by relative path.
    pub files: Vec<scan::SourceFile>,
    /// `use` edges and fn call sites extracted from [`Corpus::files`].
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

/// CFG lowering coverage for one audit run: how many fns (counting
/// closures) lowered without any unmodeled construct, totalled and broken
/// out per file that has fallbacks. Reported in the `--json` property bag
/// so coverage regressions are visible in CI before they erode the
/// dataflow passes.
#[derive(Default)]
pub struct CfgCoverage {
    /// Fns (plus closures) seen across the corpus.
    pub fn_total: usize,
    /// Fns lowered without any unmodeled event.
    pub fn_clean: usize,
    /// `(path, fn_total, fn_clean)` for every file with at least one
    /// fallback, sorted by path.
    pub fallback_files: Vec<(String, usize, usize)>,
}

/// Diagnostics plus per-pass timings from one audit run.
pub struct AuditOutcome {
    /// Post-allowlist/baseline diagnostics, sorted by path/line/pass.
    pub diags: Vec<Diag>,
    /// One entry per executed pass, in execution order.
    pub timings: Vec<PassTiming>,
    /// CFG lowering coverage over the audited corpus.
    pub coverage: CfgCoverage,
}

/// The pass dispatch table: CLI name → runner over the shared [`Corpus`].
type PassFn = fn(&Corpus) -> Vec<Diag>;
const PASS_TABLE: [(&str, PassFn); 17] = [
    ("unsafe", |c| unsafe_audit::check(&c.files)),
    ("kernels", |c| kernel_contract::check(&c.files)),
    ("invariants", |c| invariants::check(&c.files)),
    ("threads", |c| thread_hygiene::check(&c.files)),
    ("trace", |c| trace_hygiene::check(&c.files)),
    ("accountant", |c| accountant::check(&c.files)),
    ("atomics", |c| atomics::check(&c.files)),
    ("panics", |c| panics::check(&c.files)),
    ("dispatch", |c| dispatch_matrix::check(&c.files)),
    ("locks", |c| lock_discipline::check(&c.files, &c.graph)),
    ("sync", |c| sync_escape::check(&c.files)),
    ("errors", |c| error_surface::check(&c.files)),
    ("layers", |c| layer_conformance::check(&c.files, &c.graph)),
    ("checkpoints", |c| checkpoint_reachability::check(&c.files)),
    ("spans", |c| span_balance::check(&c.files)),
    ("telemetry", |c| telemetry_accounting::check(&c.files, &c.graph)),
    ("safety", |c| safety_flow::check(&c.files)),
];

/// Load the audited corpus once and run the requested passes.
///
/// `passes` is a subset of [`ALL_PASSES`]; the allowlist and baseline are
/// always applied. Diagnostics come back sorted by path/line, so the
/// report — text or SARIF — is deterministic across runs and filesystems
/// (the walk itself is sorted too). `Err` is an internal error (a file
/// that cannot be read or lexed), not a finding.
pub fn run_audit(root: &Path, passes: &[&str]) -> Result<Vec<Diag>, String> {
    Ok(run_audit_timed(root, passes)?.diags)
}

/// [`run_audit`], also reporting per-pass wall time and CFG coverage.
pub fn run_audit_timed(root: &Path, passes: &[&str]) -> Result<AuditOutcome, String> {
    let corpus = Corpus::load(root)?;
    let mut diags = Vec::new();
    let mut timings = Vec::new();
    for (name, runner) in PASS_TABLE {
        if passes.contains(&name) {
            let start = Instant::now();
            diags.extend(runner(&corpus));
            timings.push(PassTiming { pass: name, micros: start.elapsed().as_micros() });
        }
    }
    let mut coverage = CfgCoverage::default();
    for f in &corpus.files {
        coverage.fn_total += f.cfgs.fn_total;
        coverage.fn_clean += f.cfgs.fn_clean;
        if f.cfgs.fn_clean < f.cfgs.fn_total {
            coverage.fallback_files.push((f.rel.clone(), f.cfgs.fn_total, f.cfgs.fn_clean));
        }
    }
    diags = apply_allowlist(root, diags);
    diags = report::apply_baseline(root, diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
    Ok(AuditOutcome { diags, timings, coverage })
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
/// module- and crate-level findings (layering, error surface) against those
/// files.
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
/// Allowlist/baseline bookkeeping findings are dropped too: scoping removes
/// the diagnostics their entries match, so "stale entry" would be a false
/// alarm here — only the full run enforces that the two files shrink.
pub fn scope_to_changed(diags: Vec<Diag>, changed: &[String]) -> Vec<Diag> {
    let mut scope: std::collections::BTreeSet<String> = changed.iter().cloned().collect();
    for rel in changed {
        scope.extend(module_parents(rel));
    }
    diags
        .into_iter()
        .filter(|d| d.pass != "allowlist" && d.pass != "baseline" && scope.contains(&d.path))
        .collect()
}

/// Subtract allowlisted `path:line` entries from `diags`; entries that match
/// nothing are reported as errors themselves, so the allowlist monotonically
/// shrinks toward (and then stays) empty.
fn apply_allowlist(root: &Path, mut diags: Vec<Diag>) -> Vec<Diag> {
    let list = root.join("crates/xtask/audit-allowlist.txt");
    let Ok(text) = std::fs::read_to_string(&list) else {
        return diags;
    };
    for (lineno, raw) in text.lines().enumerate() {
        let entry = raw.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        let Some((path, line)) = entry
            .rsplit_once(':')
            .and_then(|(p, l)| l.parse::<usize>().ok().map(|n| (p.to_string(), n)))
        else {
            diags.push(Diag {
                path: "crates/xtask/audit-allowlist.txt".into(),
                line: lineno + 1,
                pass: "allowlist",
                msg: format!("malformed entry {entry:?} (expected path:line)"),
            });
            continue;
        };
        let before = diags.len();
        diags.retain(|d| !(d.path == path && d.line == line));
        if diags.len() == before {
            diags.push(Diag {
                path: "crates/xtask/audit-allowlist.txt".into(),
                line: lineno + 1,
                pass: "allowlist",
                msg: format!("stale entry {entry:?} matches no diagnostic — remove it"),
            });
        }
    }
    diags
}
