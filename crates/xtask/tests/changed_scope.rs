//! Tests for the `--changed` scoping machinery: module-parent expansion,
//! diagnostic filtering, and the git file enumeration it is fed from.

use std::path::PathBuf;

use xtask::{changed_files, module_parents, scope_to_changed, Diag};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn diag(pass: &'static str, path: &str, line: usize) -> Diag {
    Diag { path: path.to_string(), line, pass, msg: format!("finding in {path}") }
}

#[test]
fn module_parents_of_a_crate_source_file() {
    assert_eq!(
        module_parents("crates/core/src/scan.rs"),
        vec!["crates/core/src/lib.rs".to_string(), "crates/core/src/main.rs".to_string()],
    );
}

#[test]
fn module_parents_of_a_nested_module_file() {
    assert_eq!(
        module_parents("crates/core/src/agg/sum.rs"),
        vec![
            "crates/core/src/agg/mod.rs".to_string(),
            "crates/core/src/lib.rs".to_string(),
            "crates/core/src/main.rs".to_string(),
        ],
    );
}

#[test]
fn module_parents_never_include_the_file_itself() {
    assert_eq!(
        module_parents("crates/core/src/lib.rs"),
        vec!["crates/core/src/main.rs".to_string()],
    );
}

#[test]
fn module_parents_of_paths_outside_src_are_empty() {
    assert!(module_parents("README.md").is_empty());
    assert!(module_parents("docs/DESIGN.md").is_empty());
    assert!(module_parents("crates/xtask/audit-baseline.json").is_empty());
}

#[test]
fn scope_keeps_changed_files_and_their_parents_only() {
    let diags = vec![
        diag("lock-discipline", "crates/core/src/scan.rs", 10),
        diag("error-surface", "crates/core/src/lib.rs", 3),
        diag("error-surface", "crates/core/src/engine.rs", 7),
        diag("sync-escape", "crates/toolbox/src/cmp.rs", 1),
    ];
    let scoped = scope_to_changed(diags, &["crates/core/src/scan.rs".to_string()]);
    let paths: Vec<&str> = scoped.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(paths, ["crates/core/src/scan.rs", "crates/core/src/lib.rs"]);
}

#[test]
fn scope_drops_baseline_bookkeeping() {
    let diags = vec![
        diag("baseline", "crates/xtask/audit-baseline.json", 1),
        diag("lock-discipline", "crates/core/src/scan.rs", 10),
    ];
    let scoped = scope_to_changed(
        diags,
        &["crates/xtask/audit-baseline.json".to_string(), "crates/core/src/scan.rs".to_string()],
    );
    assert_eq!(scoped.len(), 1, "{scoped:?}");
    assert_eq!(scoped[0].pass, "lock-discipline");
}

#[test]
fn empty_change_set_scopes_everything_out() {
    let diags = vec![diag("lock-discipline", "crates/core/src/scan.rs", 10)];
    assert!(scope_to_changed(diags, &[]).is_empty());
}

#[test]
fn scoped_bad_fixture_audit_reports_only_changed_file_findings() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad");
    let outcome = xtask::run_audit_timed(&fixture, &xtask::all_passes()).unwrap();
    let scoped = scope_to_changed(outcome.diags, &["crates/core/src/pool.rs".to_string()]);
    assert!(!scoped.is_empty(), "bad fixture must flag pool.rs");
    assert!(scoped.iter().all(|d| d.path.starts_with("crates/core/src/")), "{scoped:?}");
    assert!(
        scoped.iter().any(|d| d.pass == "lock-discipline"),
        "scoping must keep the changed file's own findings: {scoped:?}"
    );
    assert!(
        !scoped.iter().any(|d| d.path.contains("toolbox")),
        "unchanged crates must be scoped out: {scoped:?}"
    );
}

#[test]
fn changed_files_enumerates_the_working_tree_of_this_repo() {
    // The repo this test runs in is a git checkout; the call must succeed
    // (the list itself depends on local working-tree state).
    let files = changed_files(&repo_root()).expect("git must run in the workspace");
    assert!(files.iter().all(|f| !f.is_empty()));
}

#[test]
fn changed_files_fails_cleanly_outside_a_git_checkout() {
    let dir = std::env::temp_dir().join("xtask-changed-no-git");
    std::fs::create_dir_all(&dir).unwrap();
    let err = changed_files(&dir).expect_err("bare temp dir is not a checkout");
    assert!(err.contains("git"), "{err}");
}
