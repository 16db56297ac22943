//! Lock discipline.
//!
//! The worker pool's fork-join handshake and the parallel scan's result
//! slots are the only blocking synchronization in the engine, and the
//! roadmap (shared scheduler, streaming ingest) is about to add more.
//! Every deadlock ingredient is a *local* edit that type-checks: a new
//! `Mutex` field in a module whose invariants assume single-threaded
//! access, a guard held a little longer than intended across a
//! `Condvar::wait`, two call paths that acquire the same pair of locks in
//! opposite orders. This pass makes the blocking-synchronization rules
//! mechanical:
//!
//! * **annotation** — every lock-typed struct field and every
//!   guard-acquisition site (`lock(…)`, `.lock()`, and the waits: `.wait(…)`
//!   or `bipie_toolbox::sync`'s `wait(…)` / `wait_timeout(…)`) carries an
//!   adjacent `// LOCK:` comment naming the lock's order/invariant, in the
//!   style of `// SAFETY:`;
//! * **guard liveness** — a brace-matched scope walk over every non-test fn
//!   body tracks which guards are live where (`analyze_body`):
//!   `let g = lock(&x)` lives until `drop(g)` or its scope closes,
//!   `*lock(&x) = …` lives to the end of its statement. From the overlaps
//!   it builds the **lock-order graph** (guard on `a` live while acquiring
//!   `b` ⇒ edge `a → b`) and flags cycles — the canonical deadlock shape —
//!   plus two local hazards: a guard held across a `Condvar::wait` on a
//!   *different* lock (the waited guard itself is the one exemption), and a
//!   guard held across a call that can transitively re-enter
//!   `WorkerPool::run` (computed from the symbol graph's call edges —
//!   `run` is documented non-reentrant, and a held guard would turn that
//!   latent misuse into a stuck pool).
//!
//! Which code may hold a lock at all is clippy's `disallowed_types`: an item
//! can name `Mutex`/`RwLock`/`Condvar` only under a `clippy::disallowed_types`
//! expectation (DESIGN.md §11), so this pass walks every file rather than a
//! module list. Poisoning is `bipie_toolbox::sync`'s one policy: its `lock`,
//! `wait` and `wait_timeout` are the acquisition sites engine code calls.
//!
//! The liveness walk is approximate in the safe direction: temporaries are
//! kept alive through the end of their full statement (matching Rust's
//! temporary-extension in `if let`), and the pool-reentrancy set is a
//! name-level over-approximation from [`crate::graph::Graph::reaching_fn_names`].

use std::collections::BTreeMap;

use crate::graph::Graph;
use crate::lexer::TokKind;
use crate::parser::{walk_items, ItemKind};
use crate::scan::SourceFile;
use crate::Diag;

/// The justification marker a lock field or acquisition site must carry.
pub const MARKER: &str = "LOCK:";

/// Lock/condvar type names whose appearance marks blocking synchronization.
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// Run the lock-discipline pass.
pub fn check(files: &[SourceFile], graph: &Graph) -> Vec<Diag> {
    // Everything that can transitively reach the pool's fork-join entry
    // point; holding a guard across any of these can wedge the pool.
    let reentrant = graph.reaching_fn_names("core", &["run"]);
    let mut out = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for file in files.iter().filter(|f| !f.is_test_file()) {
        check_fields(file, &mut out);
        walk_items(&file.items, &mut |item| {
            if item.kind == ItemKind::Fn && !file.line_in_tests(item.line) {
                if let Some(body) = &item.body {
                    analyze_body(file, body.clone(), &reentrant, &mut edges, &mut out);
                }
            }
        });
    }
    if let Some(cycle) = Graph::find_cycle(&edges) {
        let witness = edges
            .iter()
            .find(|((a, b), _)| cycle.windows(2).any(|w| w[0] == *a && w[1] == *b))
            .map(|(_, at)| at.clone())
            .unwrap_or_default();
        out.push(Diag {
            path: witness.0,
            line: witness.1 + 1,
            pass: "lock-discipline",
            msg: format!(
                "lock-order cycle `{}` — two call paths acquire these locks in \
                 conflicting orders; fix the acquisition order or drop the outer \
                 guard first",
                cycle.join(" -> ")
            ),
        });
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// Flag lock-typed struct fields that lack a `// LOCK:` annotation.
fn check_fields(file: &SourceFile, out: &mut Vec<Diag>) {
    walk_items(&file.items, &mut |item| {
        if item.kind != ItemKind::Struct || file.line_in_tests(item.line) {
            return;
        }
        for field in &item.fields {
            let is_lock = field.ty.split_whitespace().any(|w| LOCK_TYPES.contains(&w));
            if is_lock && !file.has_marker_comment(field.line, MARKER) {
                out.push(Diag {
                    path: file.rel.clone(),
                    line: field.line + 1,
                    pass: "lock-discipline",
                    msg: format!(
                        "lock field `{}` without an adjacent `// LOCK:` comment \
                         stating its acquisition order and the invariant it protects",
                        field.name
                    ),
                });
            }
        }
    });
}

/// One live guard during the scope walk.
struct LiveGuard {
    /// Binding name for `let`-bound guards (killable by `drop(name)`).
    name: Option<String>,
    /// The identity of the lock it holds (see [`lock_identity`]).
    lock_id: String,
    /// Brace depth the guard was acquired at (scope-bound guards die when
    /// this depth closes).
    depth: usize,
    /// Statement-temporary guards die at the next `;` instead.
    temp: bool,
}

/// Walk one fn body, tracking guard liveness and emitting annotation,
/// wait-across, and reentrancy diagnostics; overlapping guards contribute
/// lock-order edges.
fn analyze_body(
    file: &SourceFile,
    body: std::ops::Range<usize>,
    reentrant: &std::collections::BTreeSet<String>,
    edges: &mut BTreeMap<(String, String), (String, usize)>,
    out: &mut Vec<Diag>,
) {
    let toks = &file.toks;
    let code: Vec<usize> = (body.start..body.end.min(toks.len()))
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| toks[i].text(&file.text)) };
    let line = |k: usize| -> usize { code.get(k).map_or(0, |&i| toks[i].line) };

    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = 0usize;
    let mut k = 0usize;
    while k < code.len() {
        match text(k) {
            "{" => {
                depth += 1;
                stmt_start = k + 1;
            }
            "}" => {
                guards.retain(|g| g.temp || g.depth < depth);
                depth = depth.saturating_sub(1);
                stmt_start = k + 1;
            }
            ";" => {
                guards.retain(|g| !g.temp);
                stmt_start = k + 1;
            }
            "drop" if text(k + 1) == "(" => {
                let victim = text(k + 2).to_string();
                guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            }
            "lock" if text(k + 1) == "(" => {
                if file.line_in_tests(line(k)) {
                    k += 1;
                    continue;
                }
                if !file.has_marker_comment(line(k), MARKER) {
                    out.push(site_diag(file, line(k)));
                }
                let lock_id = lock_identity(file, &code, k);
                for g in &guards {
                    edges
                        .entry((g.lock_id.clone(), lock_id.clone()))
                        .or_insert_with(|| (file.rel.clone(), line(k)));
                }
                let (name, temp) = guard_binding(file, &code, stmt_start, k);
                guards.push(LiveGuard { name, lock_id, depth, temp });
            }
            "wait" | "wait_timeout" if text(k + 1) == "(" => {
                if file.line_in_tests(line(k)) {
                    k += 1;
                    continue;
                }
                if !file.has_marker_comment(line(k), MARKER) {
                    out.push(site_diag(file, line(k)));
                }
                let passed = paren_idents(file, &code, k + 1);
                for g in &guards {
                    let exempt = g.name.as_ref().is_some_and(|n| passed.contains(n));
                    if !exempt {
                        out.push(Diag {
                            path: file.rel.clone(),
                            line: line(k) + 1,
                            pass: "lock-discipline",
                            msg: format!(
                                "guard on `{}` held across `Condvar::wait` — only the \
                                 waited guard may be live at a wait site",
                                g.lock_id
                            ),
                        });
                    }
                }
            }
            t if !guards.is_empty()
                && text(k + 1) == "("
                && t != "lock"
                && reentrant.contains(t)
                && toks.get(code[k]).is_some_and(|tok| tok.kind == TokKind::Ident)
                && !file.line_in_tests(line(k)) =>
            {
                for g in &guards {
                    out.push(Diag {
                        path: file.rel.clone(),
                        line: line(k) + 1,
                        pass: "lock-discipline",
                        msg: format!(
                            "guard on `{}` held across `{t}(…)`, which can re-enter \
                             the worker pool — release the guard before forking",
                            g.lock_id
                        ),
                    });
                }
            }
            _ => {}
        }
        k += 1;
    }
}

/// The identity of the lock acquired at `code[k]` (the `lock` ident): for
/// `lock(&self.shared.queue)` the last plain ident of the argument path
/// outside index brackets (`queue`; `lock(&parts[w])` → `parts`), for a
/// `recv.lock()` method call the last ident of the receiver chain.
fn lock_identity(file: &SourceFile, code: &[usize], k: usize) -> String {
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| file.toks[i].text(&file.text)) };
    if k > 0 && text(k - 1) == "." {
        if k >= 2 {
            return text(k - 2).to_string();
        }
        return "<receiver>".to_string();
    }
    let mut last = String::new();
    let mut j = k + 2; // past `lock (`
    let mut parens = 1i64;
    let mut brackets = 0i64;
    while j < code.len() && parens > 0 {
        match text(j) {
            "(" => parens += 1,
            ")" => parens -= 1,
            "[" => brackets += 1,
            "]" => brackets -= 1,
            t if brackets == 0
                && file.toks[code[j]].kind == TokKind::Ident
                && text(j + 1) != "(" =>
            {
                last = t.to_string();
            }
            _ => {}
        }
        j += 1;
    }
    if last.is_empty() {
        "<expr>".to_string()
    } else {
        last
    }
}

/// How the guard produced at `code[k]` is bound: a `let [mut] name =`
/// statement head yields a named scope-bound guard, anything else a
/// statement temporary.
fn guard_binding(
    file: &SourceFile,
    code: &[usize],
    stmt_start: usize,
    _k: usize,
) -> (Option<String>, bool) {
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| file.toks[i].text(&file.text)) };
    if text(stmt_start) == "let" {
        let name_at = if text(stmt_start + 1) == "mut" { stmt_start + 2 } else { stmt_start + 1 };
        if text(name_at + 1) == "=" {
            return (Some(text(name_at).to_string()), false);
        }
    }
    (None, true)
}

/// The plain idents inside the paren group opening at `code[open]`, at
/// bracket depth 0 (the arguments a `wait(guard)` call passes).
fn paren_idents(file: &SourceFile, code: &[usize], open: usize) -> Vec<String> {
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| file.toks[i].text(&file.text)) };
    let mut out = Vec::new();
    let mut j = open + 1;
    let mut parens = 1i64;
    while j < code.len() && parens > 0 {
        match text(j) {
            "(" => parens += 1,
            ")" => parens -= 1,
            t if file.toks[code[j]].kind == TokKind::Ident => out.push(t.to_string()),
            _ => {}
        }
        j += 1;
    }
    out
}

fn site_diag(file: &SourceFile, line: usize) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "lock-discipline",
        msg: "guard acquisition without an adjacent `// LOCK:` comment stating \
              what the lock protects and how long the guard may live"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diag> {
        let files: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::from_source(rel, src).unwrap()).collect();
        let graph = Graph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn annotated_pool_is_clean() {
        let src = "struct S {\n    // LOCK: leaf lock, guards the queue only.\n    queue: Mutex<Vec<u32>>,\n}\nfn f(s: &S) {\n    // LOCK: held only to push; no calls while held.\n    let mut q = lock(&s.queue);\n    q.push(1);\n    drop(q);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unannotated_field_and_site_are_flagged() {
        let src =
            "struct S { queue: Mutex<Vec<u32>> }\nfn f(s: &S) { let q = lock(&s.queue); drop(q); }";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].msg.contains("lock field `queue`"), "{diags:?}");
        assert!(diags[1].msg.contains("guard acquisition without"), "{diags:?}");
    }

    #[test]
    fn every_module_is_walked() {
        let src = "struct T { m: Mutex<u8> }\nfn f(t: &T) { let g = lock(&t.m); drop(g); }";
        let diags = run(&[("crates/core/src/governor.rs", src)]);
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn guard_across_wait_on_other_lock_is_flagged() {
        let src = "fn f(s: &S) {\n    let other = lock(&s.panic); // LOCK: oops, held too long.\n    let mut pending = lock(&s.pending); // LOCK: join counter.\n    pending = s.done.wait(pending); // LOCK: woken by workers.\n    drop(pending);\n    drop(other);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("held across `Condvar::wait`"), "{diags:?}");
        assert!(diags[0].msg.contains("`panic`"), "{diags:?}");
    }

    #[test]
    fn sync_wait_helpers_are_wait_sites() {
        let src = "fn f(s: &S) {\n    let other = lock(&s.panic); // LOCK: held too long.\n    let mut pending = lock(&s.pending); // LOCK: join counter.\n    pending = wait_timeout(&s.done, pending, t);\n    pending = sync::wait(&s.done, pending); // LOCK: woken by workers.\n    drop(pending);\n    drop(other);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags[0].msg.contains("without an adjacent `// LOCK:`"), "{diags:?}");
        assert!(diags[1].msg.contains("guard on `panic` held across"), "{diags:?}");
        assert!(diags[2].msg.contains("guard on `panic` held across"), "{diags:?}");
        assert_eq!((diags[1].line, diags[2].line), (4, 5), "{diags:?}");
    }

    #[test]
    fn waited_guard_itself_is_exempt() {
        let src = "fn f(s: &S) {\n    let mut pending = lock(&s.pending); // LOCK: join counter.\n    while *pending > 0 {\n        pending = s.done.wait(pending); // LOCK: woken by workers.\n    }\n    drop(pending);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn conflicting_acquisition_orders_are_a_cycle() {
        let src = "fn a(s: &S) {\n    let g = lock(&s.first); // LOCK: outer.\n    let h = lock(&s.second); // LOCK: inner.\n    drop(h); drop(g);\n}\nfn b(s: &S) {\n    let g = lock(&s.second); // LOCK: outer, but reversed!\n    let h = lock(&s.first); // LOCK: inner.\n    drop(h); drop(g);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("lock-order cycle"), "{diags:?}");
        assert!(diags[0].msg.contains("first"), "{diags:?}");
    }

    #[test]
    fn nested_acquisition_in_one_order_is_allowed() {
        let src = "fn a(s: &S) {\n    let g = lock(&s.first); // LOCK: outer.\n    let h = lock(&s.second); // LOCK: inner, always after first.\n    drop(h); drop(g);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn guard_across_pool_reentrant_call_is_flagged() {
        let pool = "impl WorkerPool {\n    pub fn run(&self, body: &dyn Fn(usize)) {}\n}";
        let scan = "fn scan_parallel(pool: &WorkerPool, s: &S) {\n    let g = lock(&s.parts); // LOCK: result slots.\n    pool.run(&|w| {});\n    drop(g);\n}";
        let diags = run(&[("crates/core/src/pool.rs", pool), ("crates/core/src/scan.rs", scan)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("re-enter the worker pool"), "{diags:?}");
    }

    #[test]
    fn temporary_guards_die_at_statement_end() {
        let src = "fn f(s: &S) {\n    *lock(&s.parts) = 1; // LOCK: write slot.\n    *lock(&s.stats) = 2; // LOCK: write slot.\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(diags.is_empty(), "sequential temporaries must not form edges: {diags:?}");
    }

    #[test]
    fn scope_exit_releases_named_guards() {
        let src = "fn f(s: &S) {\n    {\n        let g = lock(&s.first); // LOCK: scoped.\n        g.touch();\n    }\n    let h = lock(&s.second); // LOCK: after scope.\n    drop(h);\n}\nfn g2(s: &S) {\n    let g = lock(&s.second); // LOCK: other order, but no overlap.\n    drop(g);\n    let h = lock(&s.first); // LOCK: fine.\n    drop(h);\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn t() { let m = Mutex::new(0); let g = m.lock(); drop(g); }\n}";
        let in_module = run(&[("crates/core/src/governor.rs", src)]);
        assert!(in_module.is_empty(), "{in_module:?}");
        let test_file =
            run(&[("tests/pool.rs", "use std::sync::Mutex;\nfn t(m: &Mutex<u8>) { m.lock(); }")]);
        assert!(test_file.is_empty(), "{test_file:?}");
    }
}
