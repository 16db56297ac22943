//! Pass 2: kernel contracts in `crates/toolbox`.
//!
//! The toolbox's correctness story is "every SIMD kernel is differentially
//! tested against a scalar oracle, and the dispatcher can always reach every
//! tier". This pass makes that story machine-checked:
//!
//! * every `#[target_feature]` kernel (a function taking at least one slice
//!   argument that is `pub`/`pub(super)` or tier-suffixed) must have a
//!   scalar sibling in the same file, matched by name tokens;
//! * every file containing kernels must be covered by a differential test
//!   that exercises a dispatcher from that file under
//!   `SimdLevel::available()`;
//! * every declared tier module (`mod avx2` / `mod avx512`) must actually be
//!   dispatched into (`has_avx2()` + `avx2::…` outside the tier modules) —
//!   an unwired tier would silently fall back to scalar and never be
//!   measured or tested.

use crate::scan::{attr_block_above, name_tokens, SourceFile};
use crate::Diag;
use std::collections::BTreeSet;
use std::ops::Range;

const TIERS: [&str; 2] = ["avx2", "avx512"];

/// Function declaration facts extracted lexically from one file.
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Scrubbed declaration text up to the body brace (may span lines).
    pub sig: String,
    /// True when the attribute block above contains `#[target_feature]`.
    pub target_feature: bool,
    /// True when declared with any `pub` visibility.
    pub is_pub: bool,
    /// True for `unsafe fn`.
    pub is_unsafe: bool,
    /// Tier module the declaration sits in, if any.
    pub tier: Option<&'static str>,
}

/// The differential/equivalence-test corpus: for each contributing file,
/// its audit-relative path and the code-view text of its test regions.
/// Integration-test files contribute wholesale; library files contribute
/// their `#[cfg(test)]` regions (brace-matched by the lexer).
pub struct TestCorpus {
    /// `(rel, test code text)` per contributing file, in walk order.
    pub files: Vec<(String, String)>,
}

impl TestCorpus {
    /// Collect the corpus from the audited file set.
    pub fn collect(files: &[SourceFile]) -> TestCorpus {
        let mut out = Vec::new();
        for file in files {
            if file.is_test_file() {
                out.push((file.rel.clone(), file.code_text()));
                continue;
            }
            let mut text = String::new();
            for region in &file.test_regions {
                for line in file
                    .code
                    .iter()
                    .skip(region.start)
                    .take(region.end.saturating_sub(region.start))
                {
                    text.push_str(line);
                    text.push('\n');
                }
            }
            if !text.is_empty() {
                out.push((file.rel.clone(), text));
            }
        }
        TestCorpus { files: out }
    }

    /// Whether any contributing file contains `needle` in its test text.
    pub fn contains(&self, needle: &str) -> bool {
        self.files.iter().any(|(_, t)| t.contains(needle))
    }

    /// The contributing files whose test text contains `needle`.
    pub fn files_containing(&self, needle: &str) -> Vec<&(String, String)> {
        self.files.iter().filter(|(_, t)| t.contains(needle)).collect()
    }
}

/// Run the kernel-contract pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    let corpus = TestCorpus::collect(files);
    let test_corpus: String =
        corpus.files.iter().map(|(_, t)| t.as_str()).collect::<Vec<_>>().join("\n");

    for file in files {
        if !file.rel.starts_with("crates/toolbox/src/") {
            continue;
        }
        check_file(file, &test_corpus, &mut out);
    }
    out
}

fn check_file(file: &SourceFile, test_corpus: &str, out: &mut Vec<Diag>) {
    let tiers = tier_regions(file);
    let decls = fn_decls(file, &tiers);

    let kernels: Vec<&FnDecl> = decls
        .iter()
        .filter(|d| {
            d.target_feature
                && (d.sig.contains("&[") || d.sig.contains("&mut ["))
                && (d.is_pub || TIERS.iter().any(|t| d.name.ends_with(&format!("_{t}"))))
        })
        .collect();

    let oracle_tokens = scalar_oracle_tokens(file, &tiers);

    for kernel in &kernels {
        let matched = has_oracle(&kernel.name, &oracle_tokens);
        if !matched {
            out.push(Diag {
                path: file.rel.clone(),
                line: kernel.line + 1,
                pass: "kernel-contract",
                msg: format!(
                    "kernel `{}` has no scalar sibling (`*scalar*` identifier) in this file",
                    kernel.name
                ),
            });
        }
    }

    if !kernels.is_empty() {
        check_differential_test(file, &decls, test_corpus, out);
    }
    check_tier_wiring(file, &tiers, &decls, out);
}

/// A kernel file needs a differential test: test code (here or in `tests/`)
/// that calls one of the file's safe public dispatchers and mentions
/// `SimdLevel::available` so every hardware tier the CI host supports gets
/// compared against the oracle.
fn check_differential_test(
    file: &SourceFile,
    decls: &[FnDecl],
    test_corpus: &str,
    out: &mut Vec<Diag>,
) {
    let dispatchers: Vec<&FnDecl> = decls
        .iter()
        .filter(|d| d.is_pub && !d.is_unsafe && d.tier.is_none() && !d.name.contains("scalar"))
        .collect();
    let named_in_tests = dispatchers.iter().any(|d| test_corpus.contains(&d.name));
    // Files whose dispatchers are entirely macro-generated have no literal
    // `pub fn` to look for; the tier-wiring and oracle rules still apply.
    if !dispatchers.is_empty() && !named_in_tests {
        out.push(Diag {
            path: file.rel.clone(),
            line: 1,
            pass: "kernel-contract",
            msg: format!(
                "no differential test references any dispatcher of this file (looked for {})",
                dispatchers.iter().map(|d| d.name.as_str()).collect::<Vec<_>>().join(", ")
            ),
        });
    }
    if named_in_tests && !test_corpus.contains("SimdLevel::available") {
        out.push(Diag {
            path: file.rel.clone(),
            line: 1,
            pass: "kernel-contract",
            msg: "differential tests never iterate SimdLevel::available()".to_string(),
        });
    }
}

/// Every declared tier must be reachable from dispatcher code outside the
/// tier modules: `has_<tier>()` guards plus a `<tier>::` call for module
/// tiers, or just the guard for tier-suffixed free functions.
fn check_tier_wiring(
    file: &SourceFile,
    tiers: &[(&'static str, Range<usize>)],
    decls: &[FnDecl],
    out: &mut Vec<Diag>,
) {
    let outside: String = file
        .code
        .iter()
        .enumerate()
        .filter(|(i, _)| !tiers.iter().any(|(_, r)| r.contains(i)))
        .map(|(_, l)| l.as_str())
        .collect::<Vec<_>>()
        .join("\n");

    for (tier, range) in tiers {
        let guard = format!("has_{tier}(");
        let call = format!("{tier}::");
        if !outside.contains(&guard) || !outside.contains(&call) {
            out.push(Diag {
                path: file.rel.clone(),
                line: range.start + 1,
                pass: "kernel-contract",
                msg: format!(
                    "tier module `{tier}` is declared but never dispatched \
                     (need `{guard})` and `{call}…` outside the tier modules)"
                ),
            });
        }
    }
    for tier in TIERS {
        let suffixed = decls.iter().find(|d| {
            d.tier.is_none() && d.target_feature && d.name.ends_with(&format!("_{tier}"))
        });
        if let Some(d) = suffixed {
            let guard = format!("has_{tier}(");
            if !outside.contains(&guard) {
                out.push(Diag {
                    path: file.rel.clone(),
                    line: d.line + 1,
                    pass: "kernel-contract",
                    msg: format!(
                        "tier kernel `{}` is never dispatched (no `{guard})` guard in this file)",
                        d.name
                    ),
                });
            }
        }
    }
}

/// Locate `mod avx2 { … }` / `mod avx512 { … }` line ranges by brace
/// matching over the code view.
pub fn tier_regions(file: &SourceFile) -> Vec<(&'static str, Range<usize>)> {
    let mut out = Vec::new();
    for (i, line) in file.code.iter().enumerate() {
        for tier in TIERS {
            let decl = format!("mod {tier}");
            let trimmed = line.trim_start();
            if trimmed.starts_with(&decl) && line.contains('{') {
                let mut depth = 0i32;
                let mut end = i;
                'outer: for (j, body) in file.code.iter().enumerate().skip(i) {
                    for c in body.chars() {
                        match c {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = j;
                                    break 'outer;
                                }
                            }
                            _ => {}
                        }
                    }
                    end = j;
                }
                out.push((tier, i..end + 1));
            }
        }
    }
    out
}

/// Extract function declarations (name, multi-line signature, attributes,
/// visibility, enclosing tier) from the code-view lines.
pub fn fn_decls(file: &SourceFile, tiers: &[(&'static str, Range<usize>)]) -> Vec<FnDecl> {
    let mut out = Vec::new();
    for (i, line) in file.code.iter().enumerate() {
        let Some(pos) = find_fn_keyword(line) else { continue };
        let after = &line[pos + 2..];
        let name: String =
            after.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if name.is_empty() {
            continue;
        }
        let mut sig = String::new();
        for l in file.code.iter().skip(i).take(16) {
            sig.push_str(l);
            sig.push('\n');
            if l.contains('{') || l.contains(';') {
                break;
            }
        }
        let head = &line[..pos];
        out.push(FnDecl {
            name,
            line: i,
            target_feature: attr_block_above(&file.raw, i).contains("target_feature"),
            is_pub: head.contains("pub"),
            is_unsafe: head.contains("unsafe"),
            tier: tiers.iter().find(|(_, r)| r.contains(&i)).map(|(t, _)| *t),
            sig,
        });
    }
    out
}

/// Position of a whole-word `fn` keyword introducing a declaration.
fn find_fn_keyword(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(p) = line[start..].find("fn") {
        let at = start + p;
        let before_ok = at == 0 || bytes[at - 1] == b' ';
        let after_ok = bytes.get(at + 2).is_none_or(|&b| b == b' ');
        if before_ok && after_ok && line[at + 2..].trim_start().starts_with(char::is_alphabetic) {
            return Some(at);
        }
        start = at + 2;
    }
    None
}

/// Scalar-oracle candidates: any identifier containing "scalar" used or
/// defined *outside* the tier modules (macro-generated oracles appear as
/// macro-invocation tokens, so we scan identifiers rather than `fn` decls).
pub fn scalar_oracle_tokens(
    file: &SourceFile,
    tiers: &[(&'static str, Range<usize>)],
) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for (i, line) in file.code.iter().enumerate() {
        if tiers.iter().any(|(_, r)| r.contains(&i)) {
            continue;
        }
        for ident in identifiers(line) {
            if ident.contains("scalar") {
                out.push(name_tokens(&ident));
            }
        }
    }
    out
}

/// Whether a kernel named `kernel_name` is backed by one of the scalar
/// oracle candidates. Tier and plumbing tokens are stripped from the kernel
/// name, `scalar` from the candidates, and the remainders must nest (subset
/// in either direction) so `sum_u32_avx2` matches `sum_scalar_u32`.
pub fn has_oracle(kernel_name: &str, oracle_tokens: &[Vec<String>]) -> bool {
    let base: BTreeSet<String> = name_tokens(kernel_name)
        .into_iter()
        .filter(|t| !matches!(t.as_str(), "avx2" | "avx512" | "impl" | "dispatch" | "n"))
        .collect();
    oracle_tokens.iter().any(|cand| {
        let c: BTreeSet<String> = cand.iter().filter(|t| t.as_str() != "scalar").cloned().collect();
        base.is_subset(&c) || c.is_subset(&base)
    })
}

/// All identifiers on a code-view line.
pub fn identifiers(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in line.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    const GOOD: &str = r#"
pub fn sum(values: &[u32], level: u8) -> u64 {
    if has_avx2(level) {
        return avx2::sum(values);
    }
    sum_scalar(values)
}
pub fn sum_scalar(values: &[u32]) -> u64 { 0 }
mod avx2 {
    /// # Safety
    /// AVX2 checked by dispatch.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum(values: &[u32]) -> u64 { 0 }
}
#[cfg(test)]
mod tests {
    fn differential() {
        for level in SimdLevel::available() { super::sum(&[], 0); }
    }
}
"#;

    #[test]
    fn good_kernel_file_is_clean() {
        let f = file("crates/toolbox/src/sum.rs", GOOD);
        let corpus = "SimdLevel::available() sum(";
        let mut out = Vec::new();
        check_file(&f, corpus, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_oracle_is_flagged() {
        let src = GOOD
            .replace("pub fn sum_scalar(values: &[u32]) -> u64 { 0 }", "")
            .replace("sum_scalar(values)", "0");
        let f = file("crates/toolbox/src/sum.rs", &src);
        let mut out = Vec::new();
        check_file(&f, "SimdLevel::available() sum(", &mut out);
        assert!(out.iter().any(|d| d.msg.contains("no scalar sibling")), "{out:?}");
    }

    #[test]
    fn unwired_tier_is_flagged() {
        let src =
            GOOD.replace("if has_avx2(level) {\n        return avx2::sum(values);\n    }", "");
        let f = file("crates/toolbox/src/sum.rs", &src);
        let mut out = Vec::new();
        check_file(&f, "SimdLevel::available() sum(", &mut out);
        assert!(out.iter().any(|d| d.msg.contains("never dispatched")), "{out:?}");
    }

    #[test]
    fn tier_region_covers_module() {
        let f = file("crates/toolbox/src/sum.rs", GOOD);
        let tiers = tier_regions(&f);
        assert_eq!(tiers.len(), 1);
        let (name, range) = &tiers[0];
        assert_eq!(*name, "avx2");
        assert!(f.code[range.start].contains("mod avx2"));
        assert!(f.code[range.end - 1].trim_start().starts_with('}'));
    }

    #[test]
    fn macro_generated_oracles_count() {
        // Oracle appears only as a macro-invocation token, not a `fn` decl.
        let src = GOOD
            .replace(
                "pub fn sum_scalar(values: &[u32]) -> u64 { 0 }",
                "make_scalar!(sum_scalar_u32, u32);",
            )
            .replace("sum_scalar(values)", "sum_scalar_u32(values)");
        let f = file("crates/toolbox/src/sum.rs", &src);
        let mut out = Vec::new();
        check_file(&f, "SimdLevel::available() sum(", &mut out);
        assert!(!out.iter().any(|d| d.msg.contains("no scalar sibling")), "{out:?}");
    }
}
