//! Error surface.
//!
//! `EngineError` is the engine's entire recoverable-failure vocabulary:
//! the governor's budget trips, the planner's type checks, the pool's
//! panic transport all speak through it. Two forms of rot threaten that
//! surface. A variant can go *dead* — its last construction site
//! refactored away while the variant (and callers matching on it) linger —
//! or go *untested* — constructed in the library but never exercised by a
//! test, so its error path bit-rots silently. And results can be
//! *swallowed*: a `let _ = scan(…)` or `….ok()` in library code turns a
//! budget trip or cancellation into silent wrong behavior.
//!
//! Concretely, using the item parser over the whole workspace:
//!
//! * every `EngineError` variant must have at least one **construction
//!   site** in non-test library code — `EngineError::Variant` in value
//!   position (match arms and `if let` patterns, e.g. the `Display` impl,
//!   don't count);
//! * every variant must be **mentioned in test code** at least once, so
//!   each error path has a witness;
//! * library statements must not discard an engine `Result` via `let _ =`
//!   or `.ok()`. "Engine result" is computed from parsed fn signatures:
//!   any fn returning `Result<_, EngineError>` or the `core::error::Result`
//!   alias. Handle the error or propagate it with `?`.

use std::collections::BTreeSet;

use crate::lexer::TokKind;
use crate::parser::{walk_items, ItemKind};
use crate::scan::SourceFile;
use crate::Diag;

/// The enum whose variants define the engine's error surface.
pub const ERROR_ENUM: &str = "EngineError";

/// Run the error-surface pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();

    // The error enum's definition site(s) and variant list.
    let mut variants: Vec<(String, String, usize)> = Vec::new(); // (name, file, line)
    for file in files {
        walk_items(&file.items, &mut |item| {
            if item.kind == ItemKind::Enum && item.name == ERROR_ENUM {
                for (v, line) in &item.variants {
                    variants.push((v.clone(), file.rel.clone(), *line));
                }
            }
        });
    }

    let engine_fns = engine_result_fns(files);

    let mut constructed: BTreeSet<String> = BTreeSet::new();
    let mut tested: BTreeSet<String> = BTreeSet::new();
    let names: BTreeSet<&str> = variants.iter().map(|(v, _, _)| v.as_str()).collect();

    for file in files {
        scan_mentions(file, &names, &mut constructed, &mut tested);
        if !file.is_test_file() && file.rel.contains("src/") {
            scan_discards(file, &engine_fns, &mut out);
        }
    }

    for (v, rel, line) in &variants {
        if !constructed.contains(v) {
            out.push(Diag {
                path: rel.clone(),
                line: line + 1,
                pass: "error-surface",
                msg: format!(
                    "variant `{ERROR_ENUM}::{v}` has no construction site in library \
                     code — dead error vocabulary; construct it or remove it"
                ),
            });
        }
        if !tested.contains(v) {
            out.push(Diag {
                path: rel.clone(),
                line: line + 1,
                pass: "error-surface",
                msg: format!(
                    "variant `{ERROR_ENUM}::{v}` never appears in a test — every \
                     error path needs a witness exercising it"
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.path, a.line, &a.msg).cmp(&(&b.path, b.line, &b.msg)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

/// Names of fns whose return type is an engine `Result`.
fn engine_result_fns(files: &[SourceFile]) -> BTreeSet<String> {
    let mut fns = BTreeSet::new();
    for file in files {
        let alias_in_scope =
            file.rel.starts_with("crates/core/src/") || imports_engine_result_alias(file);
        walk_items(&file.items, &mut |item| {
            if item.kind == ItemKind::Fn && returns_engine_result(&item.signature, alias_in_scope) {
                fns.insert(item.name.clone());
            }
        });
    }
    fns
}

/// Does the file `use` the `core::error::Result` alias?
fn imports_engine_result_alias(file: &SourceFile) -> bool {
    let mut found = false;
    walk_items(&file.items, &mut |item| {
        if item.kind != ItemKind::Use {
            return;
        }
        for path in &item.use_paths {
            if path.last().is_some_and(|s| s == "Result")
                && path.iter().any(|s| s == "bipie_core" || s == "error")
            {
                found = true;
            }
        }
    });
    found
}

/// Does a space-joined fn signature return `Result<_, EngineError>` (or the
/// single-argument engine alias, when it is in scope)?
fn returns_engine_result(sig: &str, alias_in_scope: bool) -> bool {
    let words: Vec<&str> = sig.split_whitespace().collect();
    // Find the return-type `Result <` (tokens render `->` as `- >`).
    let Some(ret) = words.windows(2).position(|w| w[0] == "-" && w[1] == ">") else {
        return false;
    };
    let Some(start) = words[ret..].iter().position(|&w| w == "Result").map(|p| ret + p) else {
        return false;
    };
    if words.get(start + 1) != Some(&"<") {
        return false;
    }
    // Split the angle-bracketed argument list at top level.
    let mut depth = 0i64;
    let mut args = 1usize;
    let mut tail_has_engine = false;
    for &w in &words[start + 1..] {
        match w {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => args += 1,
            _ if args >= 2 && w == ERROR_ENUM => tail_has_engine = true,
            _ => {}
        }
    }
    if args >= 2 {
        tail_has_engine
    } else {
        alias_in_scope
    }
}

/// Record construction sites (library, value position) and test mentions of
/// the error variants in one file.
fn scan_mentions(
    file: &SourceFile,
    names: &BTreeSet<&str>,
    constructed: &mut BTreeSet<String>,
    tested: &mut BTreeSet<String>,
) {
    let toks = &file.toks;
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| toks[i].text(&file.text)) };
    for k in 0..code.len() {
        let in_test = file.is_test_file() || file.line_in_tests(toks[code[k]].line);
        if in_test
            && toks[code[k]].kind == TokKind::Ident
            && names.contains(text(k))
            && text(k) != ERROR_ENUM
        {
            tested.insert(text(k).to_string());
            continue;
        }
        if in_test || text(k) != ERROR_ENUM {
            continue;
        }
        // `EngineError :: Variant` in library code: value position?
        if text(k + 1) != ":" || text(k + 2) != ":" || !names.contains(text(k + 3)) {
            continue;
        }
        let variant = text(k + 3).to_string();
        // Skip an optional balanced payload after the variant.
        let mut j = k + 4;
        if text(j) == "(" || text(j) == "{" {
            let mut depth = 0i64;
            while j < code.len() {
                match text(j) {
                    "(" | "{" | "[" => depth += 1,
                    ")" | "}" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `=> …` marks a match arm, a bare `=` an `if let` pattern; neither
        // is a construction.
        let is_pattern = text(j) == "=";
        if !is_pattern {
            constructed.insert(variant);
        }
    }
}

/// Flag statements that discard an engine `Result` via `let _ =` or `.ok()`.
fn scan_discards(file: &SourceFile, engine_fns: &BTreeSet<String>, out: &mut Vec<Diag>) {
    let toks = &file.toks;
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let text = |k: usize| -> &str { code.get(k).map_or("", |&i| toks[i].text(&file.text)) };
    let mut stmt_start = 0usize;
    for k in 0..code.len() {
        match text(k) {
            ";" | "{" | "}" => {
                let stmt = stmt_start..k;
                stmt_start = k + 1;
                let first = stmt.start;
                if file.line_in_tests(toks[code[first]].line) {
                    continue;
                }
                let calls_engine = |range: std::ops::Range<usize>| {
                    range.clone().any(|i| {
                        toks[code[i]].kind == TokKind::Ident
                            && engine_fns.contains(text(i))
                            && text(i + 1) == "("
                    })
                };
                if text(first) == "let"
                    && text(first + 1) == "_"
                    && text(first + 2) == "="
                    && calls_engine(stmt.clone())
                {
                    out.push(discard_diag(file, toks[code[first]].line, "`let _ = …`"));
                }
                for j in stmt.clone() {
                    if text(j) == "."
                        && text(j + 1) == "ok"
                        && text(j + 2) == "("
                        && text(j + 3) == ")"
                        && calls_engine(stmt.start..j)
                    {
                        out.push(discard_diag(file, toks[code[j]].line, "`.ok()`"));
                        break;
                    }
                }
            }
            _ => {}
        }
    }
}

fn discard_diag(file: &SourceFile, line: usize, how: &str) -> Diag {
    Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "error-surface",
        msg: format!(
            "engine `Result` discarded via {how} — a budget trip or cancellation \
             would vanish silently; handle the error or propagate it with `?`"
        ),
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

    const ENUM: &str = "pub enum EngineError {\n    UnknownColumn(String),\n    Cancelled,\n}\npub type Result<T> = std::result::Result<T, EngineError>;";

    #[test]
    fn constructed_and_tested_variants_are_clean() {
        let lib = "use crate::error::{EngineError, Result};\npub fn find(n: &str) -> Result<u32> {\n    Err(EngineError::UnknownColumn(n.into()))\n}\npub fn stop() -> Result<()> {\n    Err(EngineError::Cancelled)\n}";
        let test = "#[test]\nfn paths() {\n    assert!(matches!(find(\"x\"), Err(EngineError::UnknownColumn(_))));\n    assert!(matches!(stop(), Err(EngineError::Cancelled)));\n}";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/query.rs", lib),
            ("tests/errors.rs", test),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_variant_is_flagged() {
        let lib = "use crate::error::{EngineError, Result};\npub fn find(n: &str) -> Result<u32> {\n    Err(EngineError::UnknownColumn(n.into()))\n}";
        let test = "#[test]\nfn t() { matches!(x, EngineError::UnknownColumn(_)); let c = EngineError::Cancelled; }";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/query.rs", lib),
            ("tests/errors.rs", test),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("Cancelled"), "{diags:?}");
        assert!(diags[0].msg.contains("no construction site"), "{diags:?}");
        assert!(diags[0].path.ends_with("error.rs"));
    }

    #[test]
    fn untested_variant_is_flagged() {
        let lib = "use crate::error::{EngineError, Result};\npub fn find(n: &str) -> Result<u32> {\n    Err(EngineError::UnknownColumn(n.into()))\n}\npub fn stop() -> Result<()> {\n    Err(EngineError::Cancelled)\n}";
        let test = "#[test]\nfn t() { let _e = EngineError::Cancelled; }";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/query.rs", lib),
            ("tests/errors.rs", test),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("UnknownColumn"), "{diags:?}");
        assert!(diags[0].msg.contains("never appears in a test"), "{diags:?}");
    }

    #[test]
    fn display_match_arms_are_not_construction_sites() {
        let display = "use crate::error::{EngineError, Result};\nimpl fmt::Display for EngineError {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n        match self {\n            EngineError::UnknownColumn(c) => write!(f, \"{c}\"),\n            EngineError::Cancelled => write!(f, \"cancelled\"),\n        }\n    }\n}";
        let test = "#[test]\nfn t() { let _ = (EngineError::Cancelled, EngineError::UnknownColumn(String::new())); }";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/display.rs", display),
            ("tests/errors.rs", test),
        ]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.msg.contains("no construction site")), "{diags:?}");
    }

    #[test]
    fn let_underscore_discard_is_flagged() {
        let lib = "use crate::error::{EngineError, Result};\npub fn stop() -> Result<()> { Err(EngineError::Cancelled) }\npub fn caller() {\n    let _ = stop();\n}";
        let test = "#[test]\nfn t() { let _e = (EngineError::Cancelled, EngineError::UnknownColumn(String::new())); let _x = find(); }";
        let lib2 = "use crate::error::{EngineError, Result};\npub fn find() -> Result<u32> { Err(EngineError::UnknownColumn(String::new())) }";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/query.rs", lib),
            ("crates/core/src/expr.rs", lib2),
            ("tests/errors.rs", test),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("let _ ="), "{diags:?}");
    }

    #[test]
    fn ok_discard_is_flagged_but_foreign_ok_is_not() {
        let lib = "use crate::error::{EngineError, Result};\npub fn stop() -> Result<()> { Err(EngineError::Cancelled) }\npub fn caller(v: &[u32]) -> Option<usize> {\n    stop().ok();\n    v.binary_search(&3).ok()\n}";
        let test = "#[test]\nfn t() { let _e = (EngineError::Cancelled, EngineError::UnknownColumn(String::new())); }";
        let lib2 = "use crate::error::{EngineError, Result};\npub fn find() -> Result<u32> { Err(EngineError::UnknownColumn(String::new())) }";
        let diags = run(&[
            ("crates/core/src/error.rs", ENUM),
            ("crates/core/src/query.rs", lib),
            ("crates/core/src/expr.rs", lib2),
            ("tests/errors.rs", test),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains(".ok()"), "{diags:?}");
        assert_eq!(diags[0].line, 4, "{diags:?}");
    }

    #[test]
    fn two_argument_results_need_engine_error_in_tail() {
        let lib = "pub fn plain() -> Result<u32, String> { Err(String::new()) }\npub fn caller() {\n    let _ = plain();\n}";
        let diags = run(&[("crates/toolbox/src/misc.rs", lib)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn discards_in_tests_are_exempt() {
        let lib = "use crate::error::{EngineError, Result};\npub fn stop() -> Result<()> { Err(EngineError::Cancelled) }\npub fn find(n: &str) -> Result<u32> { Err(EngineError::UnknownColumn(n.into())) }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = super::stop();\n        let _e = (EngineError::Cancelled, EngineError::UnknownColumn(String::new()));\n    }\n}";
        let diags = run(&[("crates/core/src/error.rs", ENUM), ("crates/core/src/query.rs", lib)]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
