//! End-to-end audit tests: the fixture trees under `fixtures/` are shaped
//! like miniature workspaces; the bad ones must produce the expected
//! `path:line` diagnostics and the clean one (plus the real repo) must
//! audit clean.

use std::path::{Path, PathBuf};

const ALL: [&str; 17] = xtask::ALL_PASSES;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn rendered(root: &Path) -> Vec<String> {
    xtask::run_audit(root, &ALL).unwrap().iter().map(|d| d.to_string()).collect()
}

#[test]
fn bad_fixture_uncommented_unsafe() {
    let diags = rendered(&fixture("bad"));
    let text = diags.join("\n");
    assert!(
        text.contains("uncommented_unsafe.rs:4: [unsafe-audit] unsafe block without"),
        "{text}"
    );
    assert!(text.contains("uncommented_unsafe.rs:7: [unsafe-audit] unsafe fn without"), "{text}");
    assert!(
        text.contains("uncommented_unsafe.rs:8: [unsafe-audit] unsafe block without"),
        "{text}"
    );
}

#[test]
fn bad_fixture_kernel_without_oracle() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "kernel_no_oracle.rs:19: [kernel-contract] kernel `widen_sum` has no scalar sibling"
        ),
        "{text}"
    );
}

#[test]
fn bad_fixture_unwired_tier() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains("unwired_tier.rs:13: [kernel-contract] tier module `avx2` is declared but never dispatched"),
        "{text}"
    );
    // The kernel itself has an oracle, so only the wiring is flagged.
    assert!(!text.contains("kernel `double` has no scalar sibling"), "{text}");
}

#[test]
fn bad_fixture_missing_invariants() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains("missing_invariants.rs:3: [invariants] `count_selected` consumes a selection byte vector"),
        "{text}"
    );
}

#[test]
fn bad_fixture_adhoc_threads() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(text.contains("adhoc_thread.rs:4: [thread-hygiene] `thread::scope` outside"), "{text}");
    assert!(
        text.contains("adhoc_thread.rs:12: [thread-hygiene] `thread::spawn` outside"),
        "{text}"
    );
}

#[test]
fn bad_fixture_raw_trace() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(text.contains("raw_trace.rs:5: [trace-hygiene] `read_tsc` outside"), "{text}");
    assert!(text.contains("raw_trace.rs:7: [trace-hygiene] `read_tsc` outside"), "{text}");
    assert!(text.contains("raw_trace.rs:11: [trace-hygiene] `TraceEvent::` outside"), "{text}");
    assert!(
        text.contains("raw_trace.rs:15: [trace-hygiene] `DecisionRecord { .. }` outside"),
        "{text}"
    );
    assert!(!text.contains("raw_trace.rs:19:"), "reading a record is not building one: {text}");
}

#[test]
fn bad_fixture_registry_outside_seam() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "hot_metrics.rs:5: [trace-hygiene] `Counter::` outside the core::telemetry seam"
        ),
        "{text}"
    );
    assert!(text.contains("hot_metrics.rs:7: [trace-hygiene] `Registry::` outside"), "{text}");
}

#[test]
fn bad_fixture_unaccounted_allocations() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(text.contains("crates/core/src/scan.rs:6: [accountant] `vec![`"), "{text}");
    assert!(text.contains("crates/core/src/scan.rs:7: [accountant] `with_capacity(`"), "{text}");
    assert!(text.contains("crates/core/src/scan.rs:8: [accountant] `.resize(`"), "{text}");
}

#[test]
fn bad_fixture_unjustified_ordering() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "governor.rs:12: [atomics-discipline] `Ordering::Relaxed` without an adjacent"
        ),
        "{text}"
    );
}

#[test]
fn bad_fixture_stray_atomic() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains("stray_atomic.rs:5: [atomics-discipline] `AtomicBool` outside"),
        "{text}"
    );
    assert!(
        text.contains("stray_atomic.rs:8: [atomics-discipline] `Ordering::SeqCst` outside"),
        "{text}"
    );
}

#[test]
fn bad_fixture_unpinned_panics() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(text.contains("panicky.rs:4: [panic-freedom] `.unwrap()` in library code"), "{text}");
    assert!(text.contains("panicky.rs:9: [panic-freedom] `panic!` in library code"), "{text}");
}

#[test]
fn bad_fixture_dispatch_matrix() {
    let text = rendered(&fixture("bad")).join("\n");
    // Unwired cell: the avx2 kernel exists but nothing routes into it.
    assert!(
        text.contains(
            "unwired_tier.rs:17: [dispatch-matrix] dispatch cell `double` (double × avx2) \
             is never referenced outside its tier module"
        ),
        "{text}"
    );
    // Oracle-less cell: wired, but no scalar sibling to check against.
    assert!(
        text.contains(
            "kernel_no_oracle.rs:19: [dispatch-matrix] dispatch cell `widen_sum` \
             (widen_sum × avx2) maps to no scalar oracle"
        ),
        "{text}"
    );
    // Unexercised cell: no equivalence test sweeps SimdLevel::available().
    assert!(text.contains("is not exercised by the equivalence-test matrix"), "{text}");
}

#[test]
fn bad_fixture_lock_discipline() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains("pool.rs:8: [lock-discipline] lock field `queue` without an adjacent"),
        "{text}"
    );
    assert!(
        text.contains("pool.rs:21: [lock-discipline] guard acquisition without an adjacent"),
        "{text}"
    );
    assert!(
        text.contains("pool.rs:30: [lock-discipline] guard on `count` held across `Condvar::wait`"),
        "{text}"
    );
    assert!(
        text.contains("[lock-discipline] lock-order cycle `count -> queue -> count`"),
        "{text}"
    );
    // Annotated sites in the same file are not flagged.
    assert!(!text.contains("pool.rs:27:"), "{text}");
}

#[test]
fn bad_fixture_sync_escape() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "sync_leak.rs:7: [sync-escape] struct `Leaky` owns synchronization state outside"
        ),
        "{text}"
    );
    assert!(text.contains("sync_leak.rs:8: [sync-escape] `pub` sync field `Leaky.slot`"), "{text}");
    assert!(text.contains("sync_leak.rs:12: [sync-escape] `unsafe impl Sync`"), "{text}");
}

#[test]
fn bad_fixture_error_surface() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "error.rs:5: [error-surface] variant `EngineError::Dead` has no construction site"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "error.rs:5: [error-surface] variant `EngineError::Dead` never appears in a test"
        ),
        "{text}"
    );
    assert!(
        text.contains("swallow.rs:10: [error-surface] engine `Result` discarded via `let _ = …`"),
        "{text}"
    );
    assert!(
        text.contains("swallow.rs:14: [error-surface] engine `Result` discarded via `.ok()`"),
        "{text}"
    );
    // `Used` is constructed in the library and mentioned in a test, so only
    // `Dead` is flagged.
    assert!(!text.contains("`EngineError::Used`"), "{text}");
}

#[test]
fn bad_fixture_layer_conformance() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains("upward.rs:3: [layer-conformance] crate `toolbox` must not depend on `core`"),
        "{text}"
    );
}

#[test]
fn bad_fixture_checkpoint_reachability() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "crates/core/src/scan.rs:16: [checkpoint-reachability] governed loop in \
             `ungoverned_worker`"
        ),
        "{text}"
    );
    assert!(text.contains("re-iterates without reaching a `Governor` checkpoint"), "{text}");
}

#[test]
fn bad_fixture_span_balance() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "crates/core/src/scan.rs:23: [span-balance] profiler span `t` opened in `leaky_span` \
             is not closed on every path"
        ),
        "{text}"
    );
    // The other span opens in the fixture tree are balanced.
    assert_eq!(text.matches("[span-balance]").count(), 1, "{text}");
}

#[test]
fn bad_fixture_telemetry_accounting() {
    let text = rendered(&fixture("bad")).join("\n");
    // Unpublished `?` exit from a boundary fn.
    assert!(
        text.contains(
            "crates/core/src/engine.rs:6: [telemetry-accounting] `?` propagates the error out \
             of boundary fn `execute`"
        ),
        "{text}"
    );
    assert_eq!(text.matches("[telemetry-accounting]").count(), 1, "{text}");
}

#[test]
fn bad_fixture_safety_precondition_flow() {
    let text = rendered(&fixture("bad")).join("\n");
    assert!(
        text.contains(
            "crates/toolbox/src/safety_drift.rs:11: [safety-precondition-flow] `// SAFETY:` \
             names checkable precondition `ptr_aligned()`"
        ),
        "{text}"
    );
    // The clean twin (fixtures/clean) validates with a dominating
    // debug_assert and must stay quiet — covered by clean_fixture_audits_clean.
}

#[test]
fn dataflow_rule_ids_round_trip_through_sarif() {
    let diags = xtask::run_audit(&fixture("bad"), &["checkpoints", "spans", "telemetry", "safety"])
        .unwrap();
    let passes: std::collections::BTreeSet<&str> = diags.iter().map(|d| d.pass).collect();
    let rules = [
        "checkpoint-reachability",
        "span-balance",
        "telemetry-accounting",
        "safety-precondition-flow",
    ];
    for rule in rules {
        assert!(passes.contains(rule), "{rule} missing from bad-fixture findings: {passes:?}");
    }
    let ids = xtask::report::stable_ids(&diags);
    let sarif = xtask::report::to_sarif(&diags);
    for rule in rules {
        assert!(sarif.contains(&format!("{{ \"id\": \"{rule}\" }}")), "{sarif}");
    }
    for id in &ids {
        assert!(sarif.contains(id.as_str()), "{id} missing from SARIF:\n{sarif}");
    }
    assert_eq!(xtask::report::parse_baseline(&xtask::report::render_baseline(&ids)), ids);
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
    let diags = xtask::run_audit(&fixture("baselined"), &ALL).unwrap();
    // The live finding is suppressed; only the stale entry surfaces.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, "baseline");
    assert!(diags[0].msg.contains("stale entry"), "{}", diags[0]);
    assert!(diags[0].msg.contains("panic-freedom-0000000000000000"), "{}", diags[0]);
}

#[test]
fn baseline_ids_match_sarif_fingerprints() {
    // The IDs a regenerated baseline carries are the ones the SARIF export
    // publishes, and render → parse round-trips them exactly.
    let diags = xtask::run_audit(&fixture("bad"), &["panics"]).unwrap();
    assert!(!diags.is_empty(), "the bad fixture must have panic findings");
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
    let diags = xtask::run_audit(&fixture("allowlisted"), &ALL).unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, "allowlist");
    assert!(diags[0].msg.contains("stale entry"), "{}", diags[0]);
}

#[test]
fn real_tree_cfg_lowering_coverage_is_at_least_95_percent() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let corpus = xtask::Corpus::load(&root).unwrap();
    let (total, clean) =
        corpus.files.iter().fold((0, 0), |(t, c), f| (t + f.cfgs.fn_total, c + f.cfgs.fn_clean));
    assert!(total > 100, "the workspace should have many fns, saw {total}");
    assert!(
        clean * 100 >= total * 95,
        "CFG lowering must stay ≥95% fallback-free: {clean}/{total} clean"
    );
}

#[test]
fn real_workspace_audits_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let diags = rendered(&root);
    assert!(diags.is_empty(), "the workspace must stay audit-clean:\n{}", diags.join("\n"));
}
