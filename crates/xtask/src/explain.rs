//! `cargo xtask audit --explain <pass>` — one screen of prose per pass.
//!
//! A gate that fires on your patch is only useful if you can find out
//! *why the rule exists* and *what the sanctioned fix looks like* without
//! reading the auditor's source. Each entry here states the rule, the
//! engine-specific rationale, and an example fix, sourced from the pass
//! modules' doc headers.

/// The explainer card for one audit pass.
pub struct PassExplain {
    /// CLI name (what `--explain` and pass selection accept).
    pub name: &'static str,
    /// The diagnostic id emitted in reports.
    pub id: &'static str,
    /// What the pass checks.
    pub rule: &'static str,
    /// Why the engine needs it.
    pub rationale: &'static str,
    /// What a sanctioned fix looks like.
    pub fix: &'static str,
}

/// All pass explainers, in [`crate::ALL_PASSES`] order.
pub const EXPLAINS: [PassExplain; 17] = [
    PassExplain {
        name: "unsafe",
        id: "unsafe-audit",
        rule: "Every `unsafe` block sits under a `// SAFETY:` comment; every `unsafe fn` \
               carries a `# Safety` doc contract.",
        rationale: "The SIMD kernels and the pool's lifetime erasure are the only unsafe \
                    code; each obligation must be written where it is discharged.",
        fix: "Add `// SAFETY: <why the invariant holds here>` directly above the block, \
              or a `# Safety` section to the fn's docs.",
    },
    PassExplain {
        name: "kernels",
        id: "kernel-contract",
        rule: "Every `#[target_feature]` kernel has a scalar sibling in the same module, \
               a differential test against `SimdLevel::available()`, and every declared \
               tier is wired into its dispatcher.",
        rationale: "Specialized kernels are trusted only because the scalar oracle and \
                    the equivalence tests exist; an unwired tier is dead, untested code.",
        fix: "Add the scalar fallback and a `*_matches_scalar` differential test, and \
              route the tier through the dispatch table.",
    },
    PassExplain {
        name: "invariants",
        id: "invariants",
        rule: "Dispatchers consuming selection or group-id vectors call the \
               `debug_assert_*` instrumentation helpers; every helper is wired somewhere.",
        rationale: "Sorted/unique selection vectors and in-range group ids are the \
                    unchecked preconditions of every kernel; the debug assertions are \
                    the only runtime witness.",
        fix: "Call the matching `debug_assert_*` helper at the dispatcher entry point.",
    },
    PassExplain {
        name: "threads",
        id: "thread-hygiene",
        rule: "`thread::spawn` / `thread::scope` / `thread::Builder` appear only in \
               `core::pool` and tests.",
        rationale: "All parallelism funnels through the worker pool so the governor can \
                    account for it and panics are contained and forwarded.",
        fix: "Parallelize via `WorkerPool::run`; if the pool API is insufficient, extend \
              it rather than spawning ad-hoc threads.",
    },
    PassExplain {
        name: "trace",
        id: "trace-hygiene",
        rule: "Raw cycle-counter reads, `TraceEvent` construction and `DecisionRecord { .. }` \
               literals are confined to `core::trace`, the metrics crate, and tests.",
        rationale: "Engine code records through `Tracer`, where the `ProfileLevel::Off` \
                    gate keeps profiling at true zero cost and a decision is priced once, \
                    at its source.",
        fix: "Record through a `Tracer` method; add one if the event kind is new. Read \
              finished records by pattern (`DecisionRecord::Agg { cycles, .. }`).",
    },
    PassExplain {
        name: "accountant",
        id: "accountant",
        rule: "The allocating scan/aggregation modules keep referencing the governor's \
               `MemScope` memory accountant.",
        rationale: "A new allocation site that skips the accountant silently escapes \
                    `mem_budget` enforcement.",
        fix: "Wrap the allocation in the enclosing `MemScope`, or thread one through.",
    },
    PassExplain {
        name: "atomics",
        id: "atomics-discipline",
        rule: "Every atomic `Ordering::*` use carries an adjacent `// ORDERING:` \
               justification, and atomics stay in pool/governor/batch.",
        rationale: "Each ordering is a claim about a happens-before edge; the comment \
                    states the edge so review can check it.",
        fix: "Add `// ORDERING: <the edge this ordering establishes>` at the use site, \
              or move the atomic into a sanctioned module.",
    },
    PassExplain {
        name: "panics",
        id: "panic-freedom",
        rule: "Library crates are panic-free: no `.unwrap()` / `.expect(…)` / `panic!` \
               family outside tests, unless pinned with `// PANIC:`.",
        rationale: "The engine returns `EngineError` for everything recoverable; a stray \
                    unwrap turns a budget trip into a crash inside a worker.",
        fix: "Return an `EngineError`, or add `// PANIC: <why this cannot fire>` if the \
              invariant genuinely guarantees it.",
    },
    PassExplain {
        name: "dispatch",
        id: "dispatch-matrix",
        rule: "The (op × width × tier) dispatch table is statically extracted and every \
               cell cross-checked against the scalar oracle registry and the \
               equivalence-test matrix.",
        rationale: "The dispatch table is the engine's hot-path contract; a missing cell \
                    means a tier silently falls back or, worse, diverges untested.",
        fix: "Register the scalar oracle and the `*_matches_scalar` test for the cell, \
              or remove the dead tier.",
    },
    PassExplain {
        name: "locks",
        id: "lock-discipline",
        rule: "`Mutex`/`RwLock`/`Condvar` stay in `core::pool` and `core::scan`; every \
               lock field and acquisition site carries `// LOCK:`; guard liveness is \
               tracked per fn, the acquisition-order graph must be acyclic, and no \
               guard is held across `Condvar::wait` (other than the waited one) or \
               across a call that can re-enter `WorkerPool::run`.",
        rationale: "Every deadlock ingredient is a local edit that type-checks; the \
                    order graph and the wait/reentrancy rules make the blocking \
                    protocol mechanical.",
        fix: "Add `// LOCK: <order + invariant>` at the site, drop guards before \
              waiting/forking, and keep acquisition order consistent across paths.",
    },
    PassExplain {
        name: "sync",
        id: "sync-escape",
        rule: "Structs owning atomics/`UnsafeCell`/locks live in pool/governor/scan/batch \
               or carry an `/// Invariant:` doc block; sync fields are never `pub`; \
               `unsafe impl Send`/`Sync` is always flagged.",
        rationale: "A sync-carrying struct is a concurrency contract; definitions \
                    outside the owning modules have no documented protocol, and a \
                    hand-written auto-trait impl is a new soundness axiom.",
        fix: "Move the struct, or document the sharing protocol under `/// Invariant:`; \
              make sync fields private behind methods.",
    },
    PassExplain {
        name: "errors",
        id: "error-surface",
        rule: "Every `EngineError` variant has a construction site in library code and a \
               mention in tests; engine `Result`s are never discarded via `let _ =` or \
               `.ok()` in library code.",
        rationale: "Dead variants are unreachable error vocabulary, untested variants \
                    are bit-rotting paths, and a swallowed result turns cancellation \
                    into silent wrong answers.",
        fix: "Construct the variant where the failure is detected, add a test driving \
              that path, and propagate results with `?`.",
    },
    PassExplain {
        name: "layers",
        id: "layer-conformance",
        rule: "Cross-crate `use`s follow the workspace DAG (toolbox -> \
               columnstore/metrics -> core -> tpch/bench); core-module `use`s follow \
               CORE_LAYERS; every crate's module graph is acyclic.",
        rationale: "Cargo only enforces what Cargo.toml declares; one new dependency \
                    line can invert the architecture without failing a single test.",
        fix: "Depend downward only; if a new edge is genuinely needed, move the shared \
              code below both layers or extend the table in review.",
    },
    PassExplain {
        name: "checkpoints",
        id: "checkpoint-reachability",
        rule: "Every loop that claims morsels (`sched.claim(…)`) or iterates batches \
               (`BatchCursor`) in `core::scan`/`core::pool`/`core::engine` reaches a \
               `Governor` checkpoint on every path through its body — a 1-bit forward \
               must-analysis over the fn's CFG, checked at the loop latch.",
        rationale: "The governor only cancels and enforces budgets at checkpoints; one \
                    `continue` path that skips the probe makes a cancelled query run \
                    to completion anyway. Token-level adjacency cannot see that path.",
        fix: "Add `if governor.active() { governor.check()?; }` so it executes on every \
              re-iterating path (first statement of the loop body is the idiom).",
    },
    PassExplain {
        name: "spans",
        id: "span-balance",
        rule: "Every profiler phase-span open (`let t = tracer.start();`) is consumed \
               on all paths out of the fn — including early `?`/`return` exits and \
               conditionally-closed branches (forward may-analysis; a bit live at the \
               fn exit is a leaked span).",
        rationale: "A span dropped on an error path silently loses the phase from every \
                    profile that takes it, and the per-phase accounting tests only \
                    assert the happy path.",
        fix: "Extract the fallible region into a helper, close the span on its result, \
              then `?` — or close the span in both arms before diverging.",
    },
    PassExplain {
        name: "telemetry",
        id: "telemetry-accounting",
        rule: "Every path producing an `EngineError` out of the engine's \
               `execute*`/`admit*` boundary reaches the telemetry publication seam \
               (`publish_*`, directly or via a publishing callee).",
        rationale: "The error counters are the ops surface; an unpublished error \
                    path makes production failures invisible.",
        fix: "Publish before the error leaves the boundary (e.g. \
              `.inspect_err(|e| telemetry().publish_error(e))?`).",
    },
    PassExplain {
        name: "safety",
        id: "safety-precondition-flow",
        rule: "Each `// SAFETY:` contract that names a checkable precondition — a \
               standalone `name()` mention of a fn defined in this workspace — is \
               dominated by a statement that calls it (`debug_assert!(name())`, an \
               `if name()` header, or any dominating validation).",
        rationale: "A comment that names a check no path performs is documentation \
                    drift asserting a verification that does not happen; dominance is \
                    what makes the precondition actually hold at the unsafe block.",
        fix: "Add `debug_assert!(name(…))` (or branch on the predicate) before the \
              unsafe block, or reword the comment if the obligation is the caller's.",
    },
];

/// Look up the explainer for a CLI pass name.
pub fn lookup(name: &str) -> Option<&'static PassExplain> {
    // Accept the CLI pass name or the diagnostic id a report printed —
    // whichever form the user has in front of them.
    EXPLAINS.iter().find(|e| e.name == name || e.id == name)
}

/// Render one explainer as the text printed by `--explain`.
pub fn render(e: &PassExplain) -> String {
    format!(
        "pass: {} (id: {})\n\nrule:\n  {}\n\nwhy:\n  {}\n\nfix:\n  {}\n",
        e.name, e.id, e.rule, e.rationale, e.fix
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_has_an_explainer() {
        for pass in crate::ALL_PASSES {
            assert!(lookup(pass).is_some(), "missing --explain entry for {pass}");
        }
        assert_eq!(EXPLAINS.len(), crate::ALL_PASSES.len());
    }

    #[test]
    fn explainer_order_matches_pass_order() {
        let names: Vec<&str> = EXPLAINS.iter().map(|e| e.name).collect();
        assert_eq!(names, crate::ALL_PASSES.to_vec());
    }

    #[test]
    fn render_includes_all_sections() {
        let text = render(lookup("locks").unwrap());
        for section in ["pass: locks", "lock-discipline", "rule:", "why:", "fix:"] {
            assert!(text.contains(section), "{section} missing from {text}");
        }
    }

    #[test]
    fn unknown_pass_has_no_explainer() {
        assert!(lookup("nonsense").is_none());
    }

    #[test]
    fn diagnostic_ids_resolve_too() {
        let by_id = lookup("checkpoint-reachability").unwrap();
        assert_eq!(by_id.name, "checkpoints");
        assert!(std::ptr::eq(by_id, lookup("checkpoints").unwrap()));
    }
}
