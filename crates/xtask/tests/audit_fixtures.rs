//! End-to-end audit tests: the fixture trees under `fixtures/` are shaped
//! like miniature workspaces; the bad ones must produce the expected
//! `path:line` diagnostics and the clean one (plus the real repo) must
//! audit clean.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn rendered(root: &Path) -> Vec<String> {
    xtask::run_audit(root, &xtask::all_passes()).unwrap().iter().map(|d| d.to_string()).collect()
}

/// The full report on the bad fixture tree, line for line: a message or pass
/// change shows up here first.
const BAD_GOLDEN: [&str; 17] = [
    "crates/core/src/error.rs:5: [error-surface] variant `EngineError::Dead` has no construction site in library code — dead error vocabulary; construct it or remove it",
    "crates/core/src/error.rs:5: [error-surface] variant `EngineError::Dead` never appears in a test — every error path needs a witness exercising it",
    "crates/core/src/governor.rs:12: [atomics-discipline] `Ordering::Relaxed` without an adjacent `// ORDERING:` comment justifying the memory-ordering choice",
    "crates/core/src/pool.rs:8: [lock-discipline] lock field `queue` without an adjacent `// LOCK:` comment stating its acquisition order and the invariant it protects",
    "crates/core/src/pool.rs:21: [lock-discipline] guard acquisition without an adjacent `// LOCK:` comment stating what the lock protects and how long the guard may live",
    "crates/core/src/pool.rs:29: [lock-discipline] lock-order cycle `count -> queue -> count` — two call paths acquire these locks in conflicting orders; fix the acquisition order or drop the outer guard first",
    "crates/core/src/pool.rs:30: [lock-discipline] guard acquisition without an adjacent `// LOCK:` comment stating what the lock protects and how long the guard may live",
    "crates/core/src/pool.rs:30: [lock-discipline] guard on `count` held across `Condvar::wait` — only the waited guard may be live at a wait site",
    "crates/core/src/swallow.rs:10: [error-surface] engine `Result` discarded via `let _ = …` — a budget trip or cancellation would vanish silently; handle the error or propagate it with `?`",
    "crates/core/src/swallow.rs:14: [error-surface] engine `Result` discarded via `.ok()` — a budget trip or cancellation would vanish silently; handle the error or propagate it with `?`",
    "crates/toolbox/src/missing_invariants.rs:3: [invariants] `count_selected` consumes a selection byte vector but this file never calls `selvec::debug_assert_sel_canonical`",
    "crates/toolbox/src/raw_trace.rs:5: [trace-hygiene] `TraceEvent::` outside crates/core/src/trace.rs — record through `Tracer` so the ProfileLevel::Off gate applies",
    "crates/toolbox/src/raw_trace.rs:9: [trace-hygiene] `DecisionRecord { .. }` outside crates/core/src/trace.rs — record through `Tracer` so the ProfileLevel::Off gate applies",
    "crates/toolbox/src/stray_atomic.rs:8: [atomics-discipline] `Ordering::SeqCst` without an adjacent `// ORDERING:` comment justifying the memory-ordering choice",
    "crates/toolbox/src/sync_leak.rs:8: [sync-escape] `pub` sync field `Leaky.slot` lets any crate bypass the owning module's access protocol — make it private and expose methods",
    "crates/toolbox/src/sync_leak.rs:12: [sync-escape] `unsafe impl Sync` hand-asserts thread-safety the compiler would otherwise derive — restructure so the auto trait holds, or baseline this with a review",
    "crates/toolbox/src/upward.rs:3: [layer-conformance] crate `toolbox` must not depend on `core` — the layering is toolbox -> columnstore/metrics -> core -> tpch/bench",
];

#[test]
fn bad_fixture_reports_exactly_the_golden_list() {
    let diags = rendered(&fixture("bad"));
    let want: Vec<String> = BAD_GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(diags, want, "\n{}", diags.join("\n"));
}

#[test]
fn new_rule_ids_round_trip_through_sarif() {
    let diags = xtask::run_audit(&fixture("bad"), &["locks", "sync", "errors", "layers"]).unwrap();
    let passes: std::collections::BTreeSet<&str> = diags.iter().map(|d| d.pass).collect();
    for rule in ["lock-discipline", "sync-escape", "error-surface", "layer-conformance"] {
        assert!(passes.contains(rule), "{rule} missing from bad-fixture findings: {passes:?}");
    }
    let ids = xtask::report::stable_ids(&diags);
    let sarif = xtask::report::to_sarif(&diags);
    for rule in ["lock-discipline", "sync-escape", "error-surface", "layer-conformance"] {
        assert!(sarif.contains(&format!("{{ \"id\": \"{rule}\" }}")), "{sarif}");
    }
    for id in &ids {
        assert!(sarif.contains(id.as_str()), "{id} missing from SARIF:\n{sarif}");
    }
    assert_eq!(xtask::report::parse_baseline(&xtask::report::render_baseline(&ids)), ids);
}

#[test]
fn baseline_suppresses_and_reports_stale_entries() {
    let diags = xtask::run_audit(&fixture("baselined"), &xtask::all_passes()).unwrap();
    // The live finding is suppressed; only the stale entry surfaces.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, "baseline");
    assert!(diags[0].msg.contains("stale entry"), "{}", diags[0]);
    assert!(diags[0].msg.contains("atomics-discipline-0000000000000000"), "{}", diags[0]);
}

#[test]
fn baseline_ids_match_sarif_fingerprints() {
    // The IDs a regenerated baseline carries are the ones the SARIF export
    // publishes, and render → parse round-trips them exactly.
    let diags = xtask::run_audit(&fixture("bad"), &["atomics"]).unwrap();
    assert!(!diags.is_empty(), "the bad fixture must have atomics findings");
    let ids = xtask::report::stable_ids(&diags);
    let sarif = xtask::report::to_sarif(&diags);
    for id in &ids {
        assert!(sarif.contains(id.as_str()), "{id} missing from SARIF:\n{sarif}");
    }
    assert_eq!(xtask::report::parse_baseline(&xtask::report::render_baseline(&ids)), ids);
}

#[test]
fn clean_fixture_audits_clean() {
    let diags = rendered(&fixture("clean"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let diags = xtask::run_audit(&fixture("allowlisted"), &xtask::all_passes()).unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, "allowlist");
    assert!(diags[0].msg.contains("stale entry"), "{}", diags[0]);
}

#[test]
fn real_workspace_audits_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let diags = rendered(&root);
    assert!(diags.is_empty(), "the workspace must stay audit-clean:\n{}", diags.join("\n"));
}
