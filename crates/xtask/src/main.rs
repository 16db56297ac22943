//! `cargo xtask` — repo-local developer tooling.
//!
//! Usage:
//!
//! ```text
//! cargo xtask audit                  # run every pass on the workspace
//! cargo xtask audit --enforce-budget # fail if audit wall time exceeds
//!                                    #   crates/xtask/audit-budget.txt ms
//! cargo xtask audit --root <path>    # audit a different tree (tests)
//! cargo xtask bench-check            # validate committed BENCH_*.json
//! ```
//!
//! The audit prints one `path:line: [pass] message` line per finding (the
//! shape `.github/bipie-audit-matcher.json` reads) and exits `0` clean,
//! `1` on findings (or budget exceeded under `--enforce-budget`), `2` on an
//! internal error (bad usage, a source file that cannot be read or lexed,
//! an unreadable budget). CI keys off this to distinguish "the tree
//! regressed" from "the auditor broke".

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("audit") => parse(&args[1..], true).map(|(root, budget)| audit(&root, budget)),
        Some("bench-check") => parse(&args[1..], false).map(|(root, _)| bench_check(&root)),
        _ => Err("usage: cargo xtask audit [--enforce-budget] [--root <path>]\n       \
                  cargo xtask bench-check [--root <path>]"
            .to_string()),
    };
    run.unwrap_or_else(|usage| {
        eprintln!("{usage}");
        ExitCode::from(2)
    })
}

/// `--root <path>` (default: this workspace) and, where `budget_flag`
/// allows it, `--enforce-budget`. Anything else is bad usage.
fn parse(args: &[String], budget_flag: bool) -> Result<(PathBuf, bool), String> {
    let (mut root, mut enforce_budget) = (None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?)),
            "--enforce-budget" if budget_flag => enforce_budget = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // The xtask crate sits at <root>/crates/xtask, so the workspace root is
    // two levels up from the manifest dir.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    });
    Ok((root, enforce_budget))
}

fn bench_check(root: &Path) -> ExitCode {
    let msgs = xtask::bench_check::check_root(root);
    for m in &msgs {
        println!("{m}");
    }
    if msgs.is_empty() {
        println!("bench-check OK");
        ExitCode::SUCCESS
    } else {
        println!("bench-check FAILED: {} problem(s)", msgs.len());
        ExitCode::FAILURE
    }
}

fn audit(root: &Path, enforce_budget: bool) -> ExitCode {
    let audit_start = std::time::Instant::now();
    let diags = match xtask::run_audit(root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("audit error: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = audit_start.elapsed();
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("audit OK ({} passes clean)", xtask::PASSES.len());
    } else {
        println!("audit FAILED: {} diagnostic(s)", diags.len());
    }
    if enforce_budget {
        let path = root.join("crates/xtask/audit-budget.txt");
        let budget_ms: u64 = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| s.trim().parse().map_err(|e: std::num::ParseIntError| e.to_string()))
        {
            Ok(ms) => ms,
            Err(e) => {
                eprintln!("cannot read budget {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let wall_ms = wall.as_millis();
        if wall > std::time::Duration::from_millis(budget_ms) {
            println!("audit budget EXCEEDED: {wall_ms}ms > {budget_ms}ms");
            return ExitCode::FAILURE;
        }
        println!("audit wall time {wall_ms}ms within budget {budget_ms}ms");
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
