//! Pass 4: thread hygiene.
//!
//! Parallel scans must go through the persistent worker pool
//! (`crates/core/src/pool.rs`): ad-hoc `std::thread::spawn` / `scope` calls
//! re-introduce the per-query thread churn the pool exists to remove, and
//! they bypass the pool's panic containment (a panicking ad-hoc thread can
//! take the process down or leak a detached worker). This pass flags any
//! thread-spawning primitive outside the pool module.
//!
//! Allowed locations:
//!
//! * `crates/core/src/pool.rs` — the one sanctioned engine spawn site;
//! * `crates/bench/src/bin/exp_serving.rs` — the serving benchmark's
//!   client threads (load generators, not scan workers);
//! * test code — integration-test trees (`tests/` directories) and
//!   `#[cfg(test)]` modules (brace-matched by the lexer, so mid-file test
//!   modules are exempt and code *after* one is not).
//!
//! `std::thread::available_parallelism` and other non-spawning `thread::`
//! items are fine anywhere. Matching runs on the token stream: the pattern
//! `thread :: spawn` must appear as adjacent code tokens, so prose or
//! string mentions can never trip it.

use crate::scan::SourceFile;
use crate::Diag;

/// Thread-spawning primitives that must stay inside the pool module.
const SPAWN_PATHS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];

/// Production files allowed to create threads: the worker pool (the one
/// sanctioned engine spawn site) and the serving benchmark's client
/// threads (load generators issuing queries *into* the engine — they are
/// the clients the pool serves, not scan workers).
const SPAWN_MODULES: [&str; 2] = ["crates/core/src/pool.rs", "crates/bench/src/bin/exp_serving.rs"];

/// Run the thread-hygiene pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if SPAWN_MODULES.contains(&file.rel.as_str()) || file.is_test_file() {
            continue;
        }
        if file.toks.is_empty() {
            check_fallback(file, &mut out);
            continue;
        }
        for path in SPAWN_PATHS {
            for tok in file.find_path(path) {
                if file.line_in_tests(tok.line) {
                    continue;
                }
                out.push(diag(file, tok.line, path));
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Legacy substring scan for files the lexer could not finish.
fn check_fallback(file: &SourceFile, out: &mut Vec<Diag>) {
    for (i, line) in file.code.iter().enumerate() {
        if file.line_in_tests(i) {
            continue;
        }
        for token in SPAWN_PATHS {
            if line.contains(token) {
                out.push(diag(file, i, token));
            }
        }
    }
}

fn diag(file: &SourceFile, line: usize, token: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "thread-hygiene",
        msg: format!(
            "`{token}` outside the worker pool — use \
             `bipie_core::pool::WorkerPool` instead of ad-hoc threads"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    #[test]
    fn adhoc_spawn_is_flagged() {
        let f = file("crates/core/src/scan.rs", "fn f() { std::thread::spawn(|| {}); }");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("thread::spawn"), "{diags:?}");
    }

    #[test]
    fn scoped_spawn_and_builder_are_flagged() {
        let f = file(
            "crates/bench/src/lib.rs",
            "fn f() { std::thread::scope(|s| {}); }\nfn g() { std::thread::Builder::new(); }",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn spawn_modules_are_exempt() {
        for rel in SPAWN_MODULES {
            let f = file(rel, "fn f() { std::thread::Builder::new().spawn(|| {}); }");
            assert!(check(&[f]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn test_paths_are_exempt() {
        for rel in ["tests/equivalence.rs", "crates/core/tests/pool_stress.rs"] {
            let f = file(rel, "fn f() { std::thread::spawn(|| {}); }");
            assert!(check(&[f]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let f = file(
            "crates/columnstore/src/batch.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn spawn_before_cfg_test_is_still_flagged() {
        let f = file(
            "crates/core/src/query.rs",
            "fn f() { std::thread::spawn(|| {}); }\n#[cfg(test)]\nmod tests {}",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn spawn_after_cfg_test_module_is_flagged_too() {
        // The old below-the-marker heuristic exempted this; brace matching
        // does not.
        let f = file(
            "crates/core/src/query.rs",
            "#[cfg(test)]\nmod tests {}\nfn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(check(&[f]).len(), 1);
    }

    #[test]
    fn available_parallelism_is_fine() {
        let f = file(
            "crates/bench/src/bin/exp.rs",
            "fn f() -> usize { std::thread::available_parallelism().unwrap().get() }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_trip_the_token_scan() {
        let f = file(
            "crates/core/src/scan.rs",
            "// replaced thread::spawn with the pool\nfn f() { let s = \"thread::spawn\"; }",
        );
        assert!(check(&[f]).is_empty());
    }
}
