//! `cargo xtask` — repo-local developer tooling.
//!
//! Usage:
//!
//! ```text
//! cargo xtask audit                  # run all passes on the workspace
//! cargo xtask audit locks            # one pass, by its `xtask::PASSES`
//!                                    #   name (the usage line lists them)
//! cargo xtask audit --json           # SARIF 2.1.0 on stdout, with
//!                                    #   per-pass wall times in the run
//!                                    #   property bag
//! cargo xtask audit --changed        # all passes, findings filtered to
//!                                    #   files the git working tree
//!                                    #   touches plus their module parents
//! cargo xtask audit --explain locks  # rule / rationale / example fix
//! cargo xtask audit --write-baseline # suppress current findings by ID
//! cargo xtask audit --enforce-budget # fail if audit wall time exceeds
//!                                    #   crates/xtask/audit-budget.txt ms
//! cargo xtask audit --root <path>    # audit a different tree (tests)
//! cargo xtask bench-check            # validate committed BENCH_*.json
//! ```
//!
//! Audit exit codes: `0` clean, `1` findings (or budget exceeded under
//! `--enforce-budget`), `2` internal error (bad usage, a source file that
//! cannot be read or lexed, unwritable baseline, git failure under
//! `--changed`). `--changed` keeps exit-code parity with
//! the full run: a scoped run that surfaces findings exits `1` exactly like
//! `cargo xtask audit` would, so pre-push hooks can substitute it for the
//! full gate without remapping codes. CI keys off this to distinguish "the
//! tree regressed" from "the auditor broke".

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("audit") => audit(&args[1..]),
        Some("bench-check") => bench_check(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask audit [{}] [--json] [--changed] [--explain <pass>] \
                 [--write-baseline] [--enforce-budget] [--root <path>]\n       \
                 cargo xtask bench-check [--root <path>]",
                xtask::all_passes().join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn bench_check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    let msgs = xtask::bench_check::check_root(&root);
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

// The xtask crate sits at <root>/crates/xtask, so the workspace root is two
// levels up from the manifest dir.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn audit(args: &[String]) -> ExitCode {
    let mut passes: Vec<&str> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut write_baseline = false;
    let mut changed = false;
    let mut enforce_budget = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--changed" => changed = true,
            "--enforce-budget" => enforce_budget = true,
            "--explain" => match it.next() {
                Some(name) => match xtask::lookup(name) {
                    Some(pass) => {
                        print!("{}", pass.explain());
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "unknown pass `{name}` (expected one of: {})",
                            xtask::all_passes().join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--explain needs a pass name");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => write_baseline = true,
            other => match xtask::PASSES.iter().find(|p| p.name == other) {
                Some(p) => passes.push(p.name),
                None => {
                    eprintln!("unknown argument `{other}`");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if passes.is_empty() {
        passes = xtask::all_passes();
    }
    if changed && write_baseline {
        // A baseline written from a scoped run would silently drop every
        // suppression outside the scope; only the full run may write it.
        eprintln!("--changed cannot be combined with --write-baseline");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(default_root);

    let audit_start = std::time::Instant::now();
    let outcome = match xtask::run_audit_timed(&root, &passes) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("audit error: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_ms = audit_start.elapsed().as_millis();
    let mut diags = outcome.diags;

    if changed {
        match xtask::changed_files(&root) {
            Ok(files) => diags = xtask::scope_to_changed(diags, &files),
            Err(e) => {
                eprintln!("--changed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if write_baseline {
        let ids = xtask::report::stable_ids(&diags);
        let path = root.join(xtask::report::BASELINE_PATH);
        if let Err(e) = std::fs::write(&path, xtask::report::render_baseline(&ids)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("baseline written: {} finding(s) suppressed", ids.len());
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", xtask::report::to_sarif_timed(&diags, &outcome.timings));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("audit OK ({} passes clean)", passes.len());
        } else {
            println!("audit FAILED: {} diagnostic(s)", diags.len());
        }
    }
    if enforce_budget {
        let path = root.join("crates/xtask/audit-budget.txt");
        let budget_ms: u128 = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| s.trim().parse().map_err(|e: std::num::ParseIntError| e.to_string()))
        {
            Ok(ms) => ms,
            Err(e) => {
                eprintln!("cannot read budget {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        if wall_ms > budget_ms {
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
