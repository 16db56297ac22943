//! Sync escape.
//!
//! The lock pass polices *uses* of concurrent state; this pass polices its
//! *shape*. A struct field that holds an atomic (a `bipie_toolbox::sync`
//! cell or a std `Atomic*`), an `UnsafeCell`, a lock, or a `Condvar` is a
//! concurrency contract: callers may share the struct across threads and
//! the field's protocol (claims, lock order, cell invariants) must be
//! upheld by every access.
//! A `pub` sync field is an escape: any crate can bypass the owning
//! module's accessors and touch the raw atomic/lock, so sync fields stay
//! private and are exposed through methods.
//!
//! Where such a struct may live at all is clippy's `disallowed_types`
//! (root `clippy.toml`, DESIGN.md §11): locks and `UnsafeCell` are confined
//! to the items that carry its expectation, std atomics to `toolbox::sync`.
//!
//! Additionally, `unsafe impl Send`/`unsafe impl Sync` is always flagged.
//! The engine's thread-safety is derived (pool jobs are plain `&dyn Fn`,
//! shared state is atomics + locks), so a hand-written auto-trait promise
//! would be a new axiom in the soundness story — if one ever becomes
//! necessary, it gets a named exemption in this pass and a review, not a
//! quiet merge.

use crate::lexer::TokKind;
use crate::parser::{walk_items, ItemKind};
use crate::scan::SourceFile;
use crate::Diag;

/// The relaxed atomic cells of `bipie_toolbox::sync`.
const CELL_TYPES: [&str; 4] = ["Bool", "Usize", "U64", "I64"];

/// Does a space-joined type string embed a synchronization primitive?
fn is_sync_type(ty: &str) -> bool {
    ty.split_whitespace().any(|w| {
        w.starts_with("Atomic")
            || CELL_TYPES.contains(&w)
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
        walk_items(&file.items, &mut |item| {
            if item.kind != ItemKind::Struct || file.line_in_tests(item.line) {
                return;
            }
            for field in item.fields.iter().filter(|f| f.is_pub && is_sync_type(&f.ty)) {
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
                     or exempt this impl in the sync-escape pass under review"
                ),
            });
        }
    }
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
    fn private_sync_fields_are_clean_anywhere() {
        let src = "pub struct Counter {\n    hits: AtomicU64,\n    slot: UnsafeCell<u8>,\n}";
        assert!(run(&[("crates/toolbox/src/counter.rs", src)]).is_empty());
    }

    #[test]
    fn pub_sync_field_is_flagged() {
        let src = "pub struct Pool {\n    pub queue: Mutex<Vec<u32>>, // LOCK: test.\n    pub runs: sync::Usize,\n    pub hits: Arc<U64>,\n    pub n: usize,\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags[0].msg.contains("`pub` sync field `Pool.queue`"), "{diags:?}");
        assert!(diags[1].msg.contains("`pub` sync field `Pool.runs`"), "{diags:?}");
        assert!(diags[2].msg.contains("`pub` sync field `Pool.hits`"), "{diags:?}");
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
