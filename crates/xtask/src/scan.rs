//! Source discovery and the per-file audit views.
//!
//! Every pass works on a [`SourceFile`], which carries parallel views of one
//! `.rs` file: the raw lines (for reading justification comments), the token
//! stream from the hand-rolled lexer ([`crate::lexer`]) — where comments and
//! literals are tokens of their own, so prose like `"an unsafe trick"` inside
//! a panic message never looks like code — and the parsed items built from
//! it. [`fn_items`] reads the facts `invariants` needs (`unsafe`,
//! the enclosing tier module) off the parsed items.
//!
//! A file the lexer refuses (a genuinely unterminated string or comment,
//! mid-edit) has no trustworthy view at all, so it is an audit *error*
//! naming the file — the CLI exits 2 — never a silently coarser scan.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::lexer::{self, LexError, Tok, TokKind};
use crate::parser::{self, Item, ItemKind};

/// One source file, with raw/token/item views.
pub struct SourceFile {
    /// Path relative to the audited root, `/`-separated.
    pub rel: String,
    /// The file contents as read.
    pub text: String,
    /// Raw lines as written.
    pub raw: Vec<String>,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// The parsed item tree ([`crate::parser`]). Lexed and parsed exactly
    /// once per audit run — every pass shares these views instead of
    /// re-deriving them.
    pub items: Vec<Item>,
    /// 0-based line ranges of `#[cfg(test)]`-gated items (brace-matched).
    pub test_regions: Vec<Range<usize>>,
}

impl SourceFile {
    /// Build every view from one source string; fails when the lexer
    /// cannot finish it.
    pub fn from_source(rel: &str, text: &str) -> Result<SourceFile, LexError> {
        let toks = lexer::lex(text)?;
        let test_regions = lexer::cfg_test_regions(text, &toks);
        let items = parser::parse_items(text, &toks);
        Ok(SourceFile {
            rel: rel.to_string(),
            text: text.to_string(),
            raw: text.lines().map(str::to_owned).collect(),
            toks,
            items,
            test_regions,
        })
    }

    /// Load one file. Fails, naming the file, when it cannot be read as
    /// UTF-8 or cannot be lexed.
    pub fn load(root: &Path, path: &Path) -> Result<SourceFile, String> {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(path).map_err(|e| format!("{rel}: cannot read: {e}"))?;
        SourceFile::from_source(&rel, &text).map_err(|e| format!("{rel}: cannot lex: {e}"))
    }

    /// Whether the whole file is test code (an integration-test tree).
    pub fn is_test_file(&self) -> bool {
        self.rel.starts_with("tests/") || self.rel.contains("/tests/")
    }

    /// Whether a 0-based line sits in test code — a test file, or inside a
    /// `#[cfg(test)]`-gated item.
    pub fn line_in_tests(&self, line: usize) -> bool {
        self.is_test_file() || self.test_regions.iter().any(|r| r.contains(&line))
    }

    /// The token stream without comments.
    pub fn code_toks(&self) -> Vec<&Tok> {
        lexer::code_toks(&self.toks)
    }

    /// Whether `line` (0-based) carries a `// MARKER:`-style justification:
    /// a trailing comment on the same line, or a contiguous `//` comment
    /// run immediately above, containing `marker`.
    pub fn has_marker_comment(&self, line: usize, marker: &str) -> bool {
        if self.raw.get(line).is_some_and(|l| l.contains(marker)) {
            return true;
        }
        let mut top = line;
        while top > 0 {
            let s = self.raw[top - 1].trim_start();
            if s.starts_with("//") {
                if s.contains(marker) {
                    return true;
                }
                top -= 1;
            } else {
                break;
            }
        }
        false
    }
}

/// The SIMD tiers a kernel module or name suffix can carry.
pub const TIERS: [&str; 2] = ["avx2", "avx512"];

/// A `fn` item with the facts read off its tokens.
pub struct FnItem<'a> {
    /// The parsed item: name, `pub`ness, signature, body.
    pub item: &'a Item,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// The enclosing `mod avx2` / `mod avx512`, if any.
    pub tier: Option<&'static str>,
}

/// Every `fn` item of `file`, methods and nested modules included.
pub fn fn_items(file: &SourceFile) -> Vec<FnItem<'_>> {
    let tiers = tier_mods(file);
    let mut out = Vec::new();
    parser::walk_items(&file.items, &mut |item| {
        if item.kind != ItemKind::Fn {
            return;
        }
        let is_unsafe = file.toks[item.toks.clone()]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(&file.text))
            .take_while(|&t| t != "fn")
            .any(|t| t == "unsafe");
        let tier = tier_at(&tiers, &file.toks[item.toks.start]);
        out.push(FnItem { item, is_unsafe, tier });
    });
    out
}

/// The byte ranges of a file's `mod avx2` / `mod avx512` items.
pub fn tier_mods(file: &SourceFile) -> Vec<(&'static str, Range<usize>)> {
    let mut out = Vec::new();
    parser::walk_items(&file.items, &mut |item| {
        if let Some(tier) = TIERS.iter().find(|t| item.kind == ItemKind::Mod && item.name == **t) {
            out.push((*tier, byte_span(file, &item.toks)));
        }
    });
    out
}

/// The tier whose module (from [`tier_mods`]) contains `tok`.
pub fn tier_at(tiers: &[(&'static str, Range<usize>)], tok: &Tok) -> Option<&'static str> {
    tiers.iter().find(|(_, r)| r.contains(&tok.span.start)).map(|(t, _)| *t)
}

/// The source bytes covered by a range of token indices.
pub fn byte_span(file: &SourceFile, toks: &Range<usize>) -> Range<usize> {
    match (file.toks.get(toks.start), toks.end.checked_sub(1).and_then(|e| file.toks.get(e))) {
        (Some(a), Some(b)) if !toks.is_empty() => a.span.start..b.span.end,
        _ => 0..0,
    }
}

/// Recursively collect the `.rs` files to audit under `root`.
///
/// Walks `crates/`, `src/`, `tests/`, `examples/` and `benches/`; skips
/// `target/` and `crates/xtask/` (the auditor and its fixture corpus are not
/// part of the audited surface — the fixtures *must* fail). The walk output
/// is sorted, so the audit order — and therefore every report — is
/// deterministic across runs and filesystems.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        walk(&root.join(top), &mut out);
    }
    out.retain(|p| !p.strip_prefix(root).map(|r| r.starts_with("crates/xtask")).unwrap_or(false));
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_read_modifiers_and_tier_off_the_parser() {
        let src = "#[target_feature(enable = \"avx2\")]\npub unsafe fn free() {}\n\
                   pub(crate) mod avx512 {\n    impl K {\n        #[inline]\n        fn method(&self) {}\n    }\n}";
        let f = SourceFile::from_source("crates/toolbox/src/k.rs", src).unwrap();
        let facts: Vec<_> =
            fn_items(&f).iter().map(|f| (f.item.name.clone(), f.is_unsafe, f.tier)).collect();
        assert_eq!(
            facts,
            [("free".to_string(), true, None), ("method".to_string(), false, Some("avx512"))]
        );
    }

    #[test]
    fn lex_error_is_reported_with_the_file_named() {
        let src = "fn f() {}\nlet s = \"unterminated";
        let err = SourceFile::from_source("x.rs", src).err().expect("must not produce a view");
        assert_eq!((err.line, err.what), (1, "string literal"), "{err}");

        let dir = std::env::temp_dir().join(format!("xtask-lex-error-{}", std::process::id()));
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::write(dir.join("src/broken.rs"), src).unwrap();
        let loaded = SourceFile::load(&dir, &dir.join("src/broken.rs"));
        let audited = crate::run_audit(&dir);
        fs::remove_dir_all(&dir).unwrap();
        let msg = loaded.err().expect("load must fail");
        assert!(msg.starts_with("src/broken.rs: cannot lex: unterminated"), "{msg}");
        assert_eq!(audited.err(), Some(msg), "the audit stops on the same error");
    }

    #[test]
    fn line_in_tests_is_brace_matched_not_suffix_based() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::from_source("crates/core/src/x.rs", src).unwrap();
        assert!(f.line_in_tests(2));
        assert!(!f.line_in_tests(4), "code after a test module is production code");
    }

    #[test]
    fn marker_comment_same_line_and_above() {
        let src = "fn f() {\n    // LOCK: leaf, held to push only.\n    lock(&a).push(1);\n    lock(&b).push(2); // LOCK: ditto.\n    lock(&c).push(3);\n}";
        let f = SourceFile::from_source("x.rs", src).unwrap();
        assert!(f.has_marker_comment(2, "LOCK:"));
        assert!(f.has_marker_comment(3, "LOCK:"));
        assert!(!f.has_marker_comment(4, "LOCK:"));
    }
}
