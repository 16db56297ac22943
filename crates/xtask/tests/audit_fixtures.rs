//! End-to-end audit tests: the fixture trees under `fixtures/` are shaped
//! like miniature workspaces; the bad one must produce the expected
//! `path:line` diagnostics and the clean one (plus the real repo) must
//! audit clean. The `cli_*` tests run the `xtask` binary itself: its
//! output lines and exit codes are what CI gates on.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn rendered(root: &Path) -> Vec<String> {
    xtask::run_audit(root).unwrap().iter().map(|d| d.to_string()).collect()
}

/// The full report on the bad fixture tree, line for line: a message or pass
/// change shows up here first.
const BAD_GOLDEN: [&str; 14] = [
    "crates/core/src/error.rs:5: [error-surface] variant `EngineError::Dead` has no construction site in library code — dead error vocabulary; construct it or remove it",
    "crates/core/src/error.rs:5: [error-surface] variant `EngineError::Dead` never appears in a test — every error path needs a witness exercising it",
    "crates/core/src/pool.rs:10: [lock-discipline] lock field `queue` without an adjacent `// LOCK:` comment stating its acquisition order and the invariant it protects",
    "crates/core/src/pool.rs:18: [lock-discipline] guard acquisition without an adjacent `// LOCK:` comment stating what the lock protects and how long the guard may live",
    "crates/core/src/pool.rs:26: [lock-discipline] lock-order cycle `count -> queue -> count` — two call paths acquire these locks in conflicting orders; fix the acquisition order or drop the outer guard first",
    "crates/core/src/pool.rs:27: [lock-discipline] guard acquisition without an adjacent `// LOCK:` comment stating what the lock protects and how long the guard may live",
    "crates/core/src/pool.rs:27: [lock-discipline] guard on `count` held across `Condvar::wait` — only the waited guard may be live at a wait site",
    "crates/core/src/swallow.rs:10: [error-surface] engine `Result` discarded via `let _ = …` — a budget trip or cancellation would vanish silently; handle the error or propagate it with `?`",
    "crates/core/src/swallow.rs:14: [error-surface] engine `Result` discarded via `.ok()` — a budget trip or cancellation would vanish silently; handle the error or propagate it with `?`",
    "crates/toolbox/src/missing_invariants.rs:3: [invariants] `count_selected` consumes a selection byte vector but this file never calls `selvec::debug_assert_sel_canonical`",
    "crates/toolbox/src/raw_trace.rs:5: [trace-hygiene] `TraceEvent::` outside crates/core/src/trace.rs — record through `Tracer` so the ProfileLevel::Off gate applies",
    "crates/toolbox/src/raw_trace.rs:9: [trace-hygiene] `DecisionRecord { .. }` outside crates/core/src/trace.rs — record through `Tracer` so the ProfileLevel::Off gate applies",
    "crates/toolbox/src/sync_leak.rs:8: [sync-escape] `pub` sync field `Leaky.slot` lets any crate bypass the owning module's access protocol — make it private and expose methods",
    "crates/toolbox/src/sync_leak.rs:12: [sync-escape] `unsafe impl Sync` hand-asserts thread-safety the compiler would otherwise derive — restructure so the auto trait holds, or exempt this impl in the sync-escape pass under review",
];

#[test]
fn bad_fixture_reports_exactly_the_golden_list() {
    let diags = rendered(&fixture("bad"));
    let want: Vec<String> = BAD_GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(diags, want, "\n{}", diags.join("\n"));
}

#[test]
fn clean_fixture_audits_clean() {
    let diags = rendered(&fixture("clean"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn real_workspace_audits_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let diags = rendered(&root);
    assert!(diags.is_empty(), "the workspace must stay audit-clean:\n{}", diags.join("\n"));
}

/// Run `cargo xtask` with `args`.
fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask")).args(args).output().unwrap()
}

fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect()
}

#[test]
fn cli_bad_fixture_prints_the_golden_lines_and_exits_1() {
    let out = xtask(&["audit", "--root", fixture("bad").to_str().unwrap()]);
    let mut want: Vec<String> = BAD_GOLDEN.iter().map(|s| s.to_string()).collect();
    want.push(format!("audit FAILED: {} diagnostic(s)", BAD_GOLDEN.len()));
    assert_eq!(stdout_lines(&out), want);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_clean_fixture_exits_0() {
    let out = xtask(&["audit", "--root", fixture("clean").to_str().unwrap()]);
    assert_eq!(stdout_lines(&out), ["audit OK (5 passes clean)"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn cli_unknown_arguments_are_bad_usage() {
    // The report, baseline, scoping, explain and single-pass surfaces are
    // gone; asking for one is exit 2, never a silently different run.
    for args in [
        &["audit", "--json"][..],
        &["audit", "--changed"],
        &["audit", "--explain", "locks"],
        &["audit", "--write-baseline"],
        &["audit", "locks"],
        &["bench-check", "--enforce-budget"],
        &["audit", "--root"],
        &[],
    ] {
        let out = xtask(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
}

#[test]
fn cli_exceeded_budget_exits_1() {
    let root = std::env::temp_dir().join(format!("xtask-cli-budget-{}", std::process::id()));
    std::fs::create_dir_all(root.join("crates/xtask")).unwrap();
    std::fs::write(root.join("crates/xtask/audit-budget.txt"), "0\n").unwrap();
    let out = xtask(&["audit", "--enforce-budget", "--root", root.to_str().unwrap()]);
    std::fs::remove_dir_all(&root).unwrap();
    let lines = stdout_lines(&out);
    assert_eq!(lines[0], "audit OK (5 passes clean)");
    assert!(lines[1].starts_with("audit budget EXCEEDED: "), "{lines:?}");
    assert_eq!(out.status.code(), Some(1));
}
