//! The benchmark must measure the build the repo ships: same release
//! profile as the root workspace, never a debug build.

use std::path::Path;

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_equals_the_root_workspace_profile() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    let root = release_profile(&here.join("../Cargo.toml"));
    assert!(!root.is_empty(), "root Cargo.toml has a [profile.release] table");
    assert_eq!(ours, root);
    for expected in ["opt-level=3", "codegen-units=1", "lto=\"thin\""] {
        assert!(ours.iter().any(|l| l == expected), "{expected} missing from {ours:?}");
    }
}

#[test]
fn gitignore_covers_build_and_run_outputs() {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(".gitignore"))
        .expect("benchmark/.gitignore");
    for dir in ["target/", "out/"] {
        assert!(text.lines().any(|l| l.trim() == dir), "{dir} not ignored");
    }
}

/// Under `cargo test` the binary is a debug build, which must refuse to
/// measure (exit 2) before doing any work.
#[cfg(debug_assertions)]
#[test]
fn debug_build_refuses_to_run() {
    let exe = env!("CARGO_BIN_EXE_bipie-benchmark");
    for command in ["run", "repeat"] {
        let out = std::process::Command::new(exe)
            .args([command, "--workload", "q1_scan", "--seconds", "1"])
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(out.status.code(), Some(2), "{command}: {:?}", out);
        assert!(out.stdout.is_empty(), "{command} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug assertions"));
    }
    let out = std::process::Command::new(exe).arg("list").output().expect("starts");
    assert!(out.status.success(), "list works in any build");
}
