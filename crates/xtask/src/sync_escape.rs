//! Sync escape.
//!
//! The atomics and lock passes police *uses* of concurrent state; this
//! pass polices its *shape*. A struct that owns an `Atomic*`, an
//! `UnsafeCell`, a lock, or a `Condvar` is a concurrency contract: callers
//! may share it across threads and the field's protocol (orderings, lock
//! order, cell invariants) must be upheld by every access. Two escapes can
//! quietly break that:
//!
//! * **structural escape** — a sync-carrying struct defined outside the
//!   modules that own concurrent state (`SYNC_MODULES` — exactly the files
//!   whose `clippy::disallowed_types` expectation admits an atomic or a
//!   lock, DESIGN.md §11): its invariants live nowhere, so the definition
//!   must either move or carry an explicit `/// Invariant:` doc block stating
//!   the sharing protocol;
//! * **field escape** — a `pub` sync field: any crate can now bypass the
//!   owning module's accessors and touch the raw atomic/lock, so sync
//!   fields stay private and are exposed through methods.
//!
//! Additionally, `unsafe impl Send`/`unsafe impl Sync` is always flagged.
//! The engine's thread-safety is derived (pool jobs are plain `&dyn Fn`,
//! shared state is atomics + locks), so a hand-written auto-trait promise
//! would be a new axiom in the soundness story — if one ever becomes
//! necessary, it gets a baseline entry and a review, not a quiet merge.

use crate::lexer::TokKind;
use crate::parser::{walk_items, ItemKind};
use crate::scan::SourceFile;
use crate::Diag;

/// Modules that own concurrent state and may define sync-carrying structs.
pub const SYNC_MODULES: [&str; 7] = [
    "crates/core/src/engine.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/governor.rs",
    "crates/core/src/scan.rs",
    "crates/core/src/telemetry.rs",
    "crates/columnstore/src/batch.rs",
    "crates/metrics/src/registry.rs",
];

/// Doc marker that justifies a sync-carrying struct outside `SYNC_MODULES`.
pub const MARKER: &str = "Invariant:";

/// Does a space-joined type string embed a synchronization primitive?
fn is_sync_type(ty: &str) -> bool {
    ty.split_whitespace().any(|w| {
        w.starts_with("Atomic")
            || w == "UnsafeCell"
            || w == "SyncUnsafeCell"
            || w == "Mutex"
            || w == "RwLock"
            || w == "Condvar"
    })
}

/// Run the sync-escape pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if file.is_test_file() {
            continue;
        }
        check_unsafe_impls(file, &mut out);
        let confined = SYNC_MODULES.contains(&file.rel.as_str());
        walk_items(&file.items, &mut |item| {
            if item.kind != ItemKind::Struct || file.line_in_tests(item.line) {
                return;
            }
            let sync_fields: Vec<_> = item.fields.iter().filter(|f| is_sync_type(&f.ty)).collect();
            if sync_fields.is_empty() {
                return;
            }
            if !confined && !doc_has_invariant(file, item.line) {
                out.push(Diag {
                    path: file.rel.clone(),
                    line: item.line + 1,
                    pass: "sync-escape",
                    msg: format!(
                        "struct `{}` owns synchronization state outside {} — move it, \
                         or document the sharing protocol in a `/// Invariant:` doc block",
                        item.name,
                        SYNC_MODULES.join(", ")
                    ),
                });
            }
            for field in sync_fields {
                if field.is_pub {
                    out.push(Diag {
                        path: file.rel.clone(),
                        line: field.line + 1,
                        pass: "sync-escape",
                        msg: format!(
                            "`pub` sync field `{}.{}` lets any crate bypass the owning \
                             module's access protocol — make it private and expose \
                             methods",
                            item.name, field.name
                        ),
                    });
                }
            }
        });
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// Flag every `unsafe impl Send`/`unsafe impl Sync` outside tests.
fn check_unsafe_impls(file: &SourceFile, out: &mut Vec<Diag>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if toks[i].text(&file.text) != "unsafe" || file.line_in_tests(toks[i].line) {
            continue;
        }
        let Some(next) = toks
            .iter()
            .skip(i + 1)
            .find(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        else {
            continue;
        };
        if next.text(&file.text) != "impl" {
            continue;
        }
        // Scan the impl header (up to the opening brace or `for`) for the
        // auto traits; generics may sit between `impl` and the trait name.
        let mut auto: Option<&str> = None;
        for t in toks.iter().skip(i + 1) {
            let s = t.text(&file.text);
            if s == "{" || s == "for" {
                break;
            }
            if s == "Send" || s == "Sync" {
                auto = Some(if s == "Send" { "Send" } else { "Sync" });
                break;
            }
        }
        if let Some(auto) = auto {
            out.push(Diag {
                path: file.rel.clone(),
                line: toks[i].line + 1,
                pass: "sync-escape",
                msg: format!(
                    "`unsafe impl {auto}` hand-asserts thread-safety the compiler \
                     would otherwise derive — restructure so the auto trait holds, \
                     or baseline this with a review"
                ),
            });
        }
    }
}

/// Does the doc block directly above `line` contain the invariant marker?
fn doc_has_invariant(file: &SourceFile, line: usize) -> bool {
    let mut i = line;
    while i > 0 {
        i -= 1;
        let raw = file.raw[i].trim();
        if raw.starts_with("///") || raw.starts_with("//!") || raw.starts_with("//") {
            if raw.contains(MARKER) {
                return true;
            }
            continue;
        }
        if raw.starts_with("#[") || raw.starts_with("#![") || raw.is_empty() {
            continue;
        }
        break;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diag> {
        let files: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::from_source(rel, src).unwrap()).collect();
        check(&files)
    }

    #[test]
    fn confined_sync_struct_is_clean() {
        let src = "pub struct Governor {\n    reserved: AtomicUsize,\n    cause: AtomicU8,\n}";
        assert!(run(&[("crates/core/src/governor.rs", src)]).is_empty());
    }

    #[test]
    fn sync_struct_outside_modules_is_flagged() {
        let src = "pub struct Counter {\n    hits: AtomicU64,\n}";
        let diags = run(&[("crates/toolbox/src/counter.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        for module in SYNC_MODULES {
            assert!(diags[0].msg.contains(module), "{module} missing: {diags:?}");
        }
    }

    #[test]
    fn documented_invariant_justifies_escape() {
        let src = "/// Shared hit counter.\n///\n/// Invariant: monotone, relaxed loads only feed diagnostics.\npub struct Counter {\n    hits: AtomicU64,\n}";
        assert!(run(&[("crates/toolbox/src/counter.rs", src)]).is_empty());
    }

    #[test]
    fn pub_sync_field_is_flagged_even_when_confined() {
        let src = "pub struct Pool {\n    pub queue: Mutex<Vec<u32>>, // LOCK: test.\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("`pub` sync field `Pool.queue`"), "{diags:?}");
    }

    #[test]
    fn unsafe_impl_send_sync_is_always_flagged() {
        let src = "struct P(*mut u8);\nunsafe impl Send for P {}\nunsafe impl<T> Sync for Q<T> {}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].msg.contains("unsafe impl Send"), "{diags:?}");
        assert!(diags[1].msg.contains("unsafe impl Sync"), "{diags:?}");
    }

    #[test]
    fn unsafe_fn_and_blocks_are_not_confused_with_impls() {
        let src = "/// # Safety\n/// Caller checks bounds.\npub unsafe fn raw(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}";
        assert!(run(&[("crates/toolbox/src/mem.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    struct T { c: UnsafeCell<u8> }\n    unsafe impl Sync for T {}\n}";
        assert!(run(&[("crates/toolbox/src/mem.rs", src)]).is_empty());
        let tf = "struct T { c: UnsafeCell<u8> }\nunsafe impl Sync for T {}";
        assert!(run(&[("tests/sync.rs", tf)]).is_empty());
    }
}
