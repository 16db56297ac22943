//! Pass: dispatch-matrix exhaustiveness.
//!
//! The toolbox is organized as a dispatch matrix: each operation × element
//! width × SIMD tier combination is one *cell* — a `#[target_feature]`
//! kernel living in a tier module (`mod avx2` / `mod avx512`) or carrying a
//! tier suffix (`*_avx2` / `*_avx512`). Specialized kernels are trusted only
//! because a scalar oracle and a differential test exist, so this pass
//! extracts the full table from the item parser and checks **every cell**:
//!
//! 1. **Wiring** — the kernel's name must be referenced outside the tier
//!    modules (a direct `avx2::name(…)` call, a tier-suffixed call, or a
//!    dispatch-macro invocation naming it; a `.name` method call is some
//!    other function), and the file must test the tier's `has_*` CPU guard
//!    there. A cell the dispatcher never mentions silently falls back to
//!    scalar: correct, never measured, and dead weight.
//! 2. **Oracle registry** — the cell must map to a scalar sibling by name
//!    tokens, so the differential harness has something to compare against.
//! 3. **Equivalence-test matrix** — some test-corpus file that iterates
//!    `SimdLevel::available()` must name the cell's dispatch entry point
//!    (the kernel name or its tier-suffix-stripped form), so the cell is
//!    actually executed under every tier the host supports.
//!
//! Additionally, numeric *width gates* in dispatch code
//! (`… has_avx2() && bits <= N`) must be straddled by the covering test
//! corpus: tests need bit widths on both sides of `N`, otherwise one of the
//! two paths behind the gate ships untested.
//!
//! The encoding-specialized kernels (`enc_*`, DESIGN.md §13) are
//! scalar-only dispatch cells — no `#[target_feature]` body — but they are
//! held to the same discipline: every public `enc_*` entry point must route
//! to an `enc_*_scalar` oracle sibling in the same file, and must be named
//! by some test-corpus file so the equivalence sweep actually executes it.
//!
//! Macro-generated dispatchers are visible through their invocation tokens
//! (`dispatch_cmp!(cmp_u8, …)` names the kernel outside the tier module),
//! which is exactly the property checked.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::scan::{
    byte_span, fn_items, name_tokens, tier_at, tier_mods, FnItem, SourceFile, TIERS,
};
use crate::Diag;

/// One statically-extracted dispatch cell: an operation × width × tier
/// entry backed by a `#[target_feature]` kernel.
pub struct Cell {
    /// The kernel function name as written.
    pub kernel: String,
    /// The SIMD tier the cell belongs to.
    pub tier: &'static str,
    /// Element-width token from the name (`u8`…`u64`, `i64`, …), if any.
    pub width: Option<String>,
    /// Operation label: the name tokens minus tier and width.
    pub op: String,
    /// 0-based line of the kernel's `fn` keyword.
    pub line: usize,
    /// True for `*_avx2`-style free functions (vs tier-module members).
    pub suffixed: bool,
}

const WIDTH_TOKENS: [&str; 10] =
    ["u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "f32", "f64"];

/// The dispatch cells among a file's [`fn_items`]: `#[target_feature]`
/// kernels with a slice argument that are `pub`-visible or tier-suffixed.
pub fn extract_cells(fns: &[FnItem]) -> Vec<Cell> {
    fns.iter()
        .filter(|f| {
            let sig = &f.item.signature;
            f.target_feature && (sig.contains("& [") || sig.contains("& mut ["))
        })
        .filter_map(|f| {
            let name = &f.item.name;
            let (tier, suffixed) = match f.tier {
                Some(t) => (t, false),
                None => (*TIERS.iter().find(|t| name.ends_with(&format!("_{t}")))?, true),
            };
            if !f.item.is_pub && !suffixed {
                return None;
            }
            let toks = name_tokens(name);
            let width = toks.iter().find(|t| WIDTH_TOKENS.contains(&t.as_str())).cloned();
            let op = toks
                .iter()
                .filter(|t| !TIERS.contains(&t.as_str()) && !WIDTH_TOKENS.contains(&t.as_str()))
                .cloned()
                .collect::<Vec<_>>()
                .join("_");
            Some(Cell { kernel: name.clone(), tier, width, op, line: f.item.line, suffixed })
        })
        .collect()
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

    /// The contributing files whose test text contains `needle`.
    pub fn files_containing(&self, needle: &str) -> Vec<&(String, String)> {
        self.files.iter().filter(|(_, t)| t.contains(needle)).collect()
    }
}

/// Run the dispatch-matrix pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    let corpus = TestCorpus::collect(files);
    for file in files {
        if !file.rel.starts_with("crates/toolbox/src/") {
            continue;
        }
        let fns = fn_items(file);
        check_file(file, &fns, &corpus, &mut out);
        check_enc_kernels(file, &fns, &corpus, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn check_file(file: &SourceFile, fns: &[FnItem], corpus: &TestCorpus, out: &mut Vec<Diag>) {
    let cells = extract_cells(fns);
    if cells.is_empty() {
        return;
    }
    let src = &file.text;
    let tiers = tier_mods(file);
    let oracle_tokens = scalar_oracle_tokens(file, &tiers);
    // Identifiers in dispatch code — outside the tier modules and tests, and
    // not a declaration (`fn name`) — with the token before each.
    let code = file.code_toks();
    let dispatch_refs: Vec<(&str, &Tok)> = code
        .iter()
        .enumerate()
        .filter(|&(_, t)| {
            t.kind == TokKind::Ident && tier_at(&tiers, t).is_none() && !file.line_in_tests(t.line)
        })
        .map(|(k, t)| (if k == 0 { "" } else { code[k - 1].text(src) }, *t))
        .filter(|&(prev, _)| prev != "fn")
        .collect();

    for cell in &cells {
        let label = cell_label(cell);
        // A `.name` method call is some other function.
        let calls: Vec<&Tok> = dispatch_refs
            .iter()
            .filter(|&&(prev, t)| prev != "." && t.text(src) == cell.kernel)
            .map(|&(_, t)| t)
            .collect();

        // 1. Wiring: referenced from dispatch code, behind the tier's guard.
        let guard = format!("has_{}", cell.tier);
        if calls.is_empty() {
            out.push(diag(
                file,
                cell.line,
                format!(
                    "{label} is never referenced outside its tier module — \
                     an unwired dispatch cell silently falls back to scalar"
                ),
            ));
        } else if !dispatch_refs.iter().any(|(_, t)| t.text(src) == guard) {
            out.push(diag(
                file,
                cell.line,
                format!(
                    "{label} is dispatched without a `{guard}()` guard outside the \
                     tier modules — a tier kernel may only run after its CPU check"
                ),
            ));
        }

        // 2. Oracle registry.
        if !has_oracle(&cell.kernel, &oracle_tokens) {
            out.push(diag(
                file,
                cell.line,
                format!("{label} maps to no scalar oracle in this file"),
            ));
        }

        // 3. Equivalence-test matrix: a corpus file iterating
        //    SimdLevel::available() must name one of the cell's entry
        //    points — the kernel itself, its tier-suffix-stripped form, or
        //    any safe public dispatcher whose body calls it.
        let mut entry_points = vec![cell.kernel.clone()];
        if cell.suffixed {
            entry_points.push(cell.kernel.trim_end_matches(&format!("_{}", cell.tier)).to_string());
        }
        for call in &calls {
            let enclosing = fns.iter().find(|f| {
                f.tier.is_none()
                    && f.item
                        .body
                        .as_ref()
                        .is_some_and(|b| byte_span(file, b).contains(&call.span.start))
            });
            if let Some(f) = enclosing {
                if f.item.is_pub && !f.is_unsafe && !entry_points.contains(&f.item.name) {
                    entry_points.push(f.item.name.clone());
                }
            }
        }
        let covered = entry_points.iter().any(|ep| {
            corpus
                .files_containing(ep)
                .iter()
                .any(|(_, text)| text.contains("SimdLevel::available"))
        });
        if !covered {
            out.push(diag(
                file,
                cell.line,
                format!(
                    "{label} is not exercised by the equivalence-test matrix \
                     (no test naming `{}` iterates SimdLevel::available())",
                    entry_points.join("`/`")
                ),
            ));
        }
    }

    check_width_gates(file, &code, &tiers, fns, corpus, out);
}

/// Encoding-specialized kernels (`enc_*`) are scalar-only cells of the
/// dispatch matrix: each public entry point must have an `enc_*_scalar`
/// oracle sibling in the same file (the differential target) and must be
/// named by the test corpus (the equivalence sweep that executes it).
fn check_enc_kernels(file: &SourceFile, fns: &[FnItem], corpus: &TestCorpus, out: &mut Vec<Diag>) {
    for f in fns {
        let (name, line) = (&f.item.name, f.item.line);
        if !f.item.is_pub
            || f.tier.is_some()
            || !name.starts_with("enc_")
            || name.ends_with("_scalar")
            || file.line_in_tests(line)
        {
            continue;
        }
        let sibling = format!("{name}_scalar");
        if !fns.iter().any(|o| o.item.name == sibling) {
            out.push(diag(
                file,
                line,
                format!(
                    "encoded kernel `{name}` has no `{sibling}` oracle sibling — every \
                     enc_* entry point must route to a scalar oracle"
                ),
            ));
        }
        if corpus.files_containing(name).is_empty() {
            out.push(diag(
                file,
                line,
                format!(
                    "encoded kernel `{name}` is not exercised by any test — enc_* \
                     kernels must be covered by the equivalence sweep"
                ),
            ));
        }
    }
}

fn cell_label(cell: &Cell) -> String {
    match &cell.width {
        Some(w) => format!("dispatch cell `{}` ({} × {} × {})", cell.kernel, cell.op, w, cell.tier),
        None => format!("dispatch cell `{}` ({} × {})", cell.kernel, cell.op, cell.tier),
    }
}

/// Scalar-oracle candidates: every identifier containing `scalar` outside
/// the tier modules (macro-generated oracles appear as macro-invocation
/// tokens, so identifiers are scanned rather than `fn` items).
fn scalar_oracle_tokens(
    file: &SourceFile,
    tiers: &[(&'static str, Range<usize>)],
) -> Vec<Vec<String>> {
    file.code_toks()
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident && tier_at(tiers, t).is_none())
        .map(|t| t.text(&file.text))
        .filter(|t| t.contains("scalar"))
        .map(name_tokens)
        .collect()
}

/// Whether a kernel named `kernel_name` is backed by one of the scalar
/// oracle candidates. Tier and plumbing tokens are stripped from the kernel
/// name, `scalar` from the candidates, and the remainders must nest (subset
/// in either direction) so `sum_u32_avx2` matches `sum_scalar_u32`.
fn has_oracle(kernel_name: &str, oracle_tokens: &[Vec<String>]) -> bool {
    let base: BTreeSet<String> = name_tokens(kernel_name)
        .into_iter()
        .filter(|t| !matches!(t.as_str(), "avx2" | "avx512" | "impl" | "dispatch" | "n"))
        .collect();
    oracle_tokens.iter().any(|cand| {
        let c: BTreeSet<String> = cand.iter().filter(|t| t.as_str() != "scalar").cloned().collect();
        base.is_subset(&c) || c.is_subset(&base)
    })
}

/// Width gates: a `bits <= N` comparison on a dispatch line (one that also
/// checks a `has_*` tier guard) splits the matrix at `N`. The covering test
/// corpus must exercise widths on both sides, or one path ships untested.
fn check_width_gates(
    file: &SourceFile,
    code: &[&Tok],
    tiers: &[(&'static str, Range<usize>)],
    fns: &[FnItem],
    corpus: &TestCorpus,
    out: &mut Vec<Diag>,
) {
    // Gather the corpus text covering this file: files that name one of its
    // public dispatch entry points (token-free contains() is fine here; the
    // names are long enough to be unambiguous).
    let entry_names: Vec<&str> = fns
        .iter()
        .filter(|f| f.item.is_pub && f.tier.is_none())
        .map(|f| f.item.name.as_str())
        .collect();
    let covering: String = corpus
        .files
        .iter()
        .filter(|(_, text)| entry_names.iter().any(|n| text.contains(n)))
        .map(|(_, text)| text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let lits = int_literals(&covering);

    let src = &file.text;
    let guard_lines: BTreeSet<usize> = code
        .iter()
        .filter(|t| TIERS.iter().any(|tier| t.text(src) == format!("has_{tier}")))
        .map(|t| t.line)
        .collect();
    for w in code.windows(4) {
        let [a, lt, eq, n] = w else { continue };
        let is_gate = a.kind == TokKind::Ident
            && a.text(src) == "bits"
            && lt.text(src) == "<"
            && eq.text(src) == "="
            && n.kind == TokKind::Num
            && tier_at(tiers, a).is_none()
            && guard_lines.contains(&a.line);
        let Some(bound) = is_gate.then(|| n.text(src).parse::<u64>().ok()).flatten() else {
            continue;
        };
        let straddled =
            lits.iter().any(|&n| n > 0 && n <= bound) && lits.iter().any(|&n| n > bound && n <= 64);
        if !straddled {
            out.push(diag(
                file,
                a.line,
                format!(
                    "width gate `bits <= {bound}` is not straddled by the covering \
                     equivalence tests (need bit widths on both sides of the gate)"
                ),
            ));
        }
    }
}

/// Decimal integer literals in a blob of test text.
fn int_literals(text: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_ident = false;
    for c in text.chars() {
        if c.is_ascii_digit() && !in_ident {
            cur.push(c);
            continue;
        }
        if !cur.is_empty() {
            if let Ok(n) = cur.parse() {
                out.push(n);
            }
            cur.clear();
        }
        in_ident = c.is_alphabetic() || c == '_';
    }
    if let Ok(n) = cur.parse() {
        out.push(n);
    }
    out
}

fn diag(file: &SourceFile, line: usize, msg: String) -> Diag {
    Diag { path: file.rel.clone(), line: line + 1, pass: "dispatch-matrix", msg }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    fn run(rel: &str, src: &str) -> Vec<Diag> {
        let f = file(rel, src);
        let corpus = TestCorpus::collect(std::slice::from_ref(&f));
        let mut out = Vec::new();
        let fns = fn_items(&f);
        check_file(&f, &fns, &corpus, &mut out);
        check_enc_kernels(&f, &fns, &corpus, &mut out);
        out
    }

    const WIRED: &str = r#"
pub fn sum_u32(values: &[u32], level: SimdLevel) -> u64 {
    if level.has_avx2() {
        // SAFETY: checked.
        return unsafe { avx2::sum_u32(values) };
    }
    sum_scalar_u32(values)
}
pub fn sum_scalar_u32(values: &[u32]) -> u64 { 0 }
mod avx2 {
    /// # Safety
    /// AVX2 checked by dispatch.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_u32(values: &[u32]) -> u64 { 0 }
}
#[cfg(test)]
mod tests {
    fn differential() {
        for level in SimdLevel::available() { super::sum_u32(&[], level); }
    }
}
"#;

    #[test]
    fn wired_tested_cell_is_clean() {
        let out = run("crates/toolbox/src/sum.rs", WIRED);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cells_carry_op_width_tier() {
        let cells = extract_cells(&fn_items(&file("crates/toolbox/src/sum.rs", WIRED)));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].op, "sum");
        assert_eq!(cells[0].width.as_deref(), Some("u32"));
        assert_eq!(cells[0].tier, "avx2");
        assert_eq!(cells[0].line, 13);
    }

    #[test]
    fn unwired_cell_is_flagged() {
        let src = WIRED.replace(
            "if level.has_avx2() {\n        // SAFETY: checked.\n        return unsafe { avx2::sum_u32(values) };\n    }",
            "",
        );
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("never referenced")), "{out:?}");
    }

    #[test]
    fn a_method_of_the_same_name_is_not_wiring() {
        // `.sum()` is the iterator's, not a call into the tier module.
        let src = WIRED
            .replace("sum_u32", "sum")
            .replace("sum_scalar_u32", "sum_scalar")
            .replace("if level.has_avx2() {\n        // SAFETY: checked.\n        return unsafe { avx2::sum(values) };\n    }", "")
            .replace("-> u64 { 0 }\nmod", "-> u64 { values.iter().map(|&v| u64::from(v)).sum() }\nmod");
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("never referenced")), "{out:?}");
    }

    #[test]
    fn unguarded_cells_are_flagged() {
        let src = WIRED.replace("if level.has_avx2() {", "if level.bits() > 0 {");
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("without a `has_avx2()` guard"), "{out:?}");
        // A tier-suffixed kernel, and a guard that is only the helper's own
        // declaration, are held to the same rule.
        let suffixed = r#"
pub fn count(sel: &[u8], level: u8) -> usize {
    if level > 0 {
        // SAFETY: checked.
        return unsafe { count_avx2(sel) };
    }
    count_scalar(sel)
}
fn has_avx2(level: u8) -> bool { level > 0 }
pub fn count_scalar(sel: &[u8]) -> usize { sel.len() }
/// # Safety
/// AVX2 checked by dispatch.
#[target_feature(enable = "avx2")]
unsafe fn count_avx2(sel: &[u8]) -> usize { sel.len() }
#[cfg(test)]
mod tests {
    fn differential() {
        for level in SimdLevel::available() { super::count(&[], level); }
    }
}
"#;
        let out = run("crates/toolbox/src/selvec.rs", suffixed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].msg.contains("`count_avx2` (count × avx2) is dispatched without"),
            "{out:?}"
        );
        let guarded = suffixed.replace("if level > 0 {", "if has_avx2(level) {");
        let out = run("crates/toolbox/src/selvec.rs", &guarded);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn macro_dispatched_cell_counts_as_wired() {
        let src = WIRED.replace(
            "pub fn sum_u32(values: &[u32], level: SimdLevel) -> u64 {\n    if level.has_avx2() {\n        // SAFETY: checked.\n        return unsafe { avx2::sum_u32(values) };\n    }\n    sum_scalar_u32(values)\n}",
            "dispatch_sum!(sum_u32, sum_scalar_u32, u32);",
        );
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(!out.iter().any(|d| d.msg.contains("never referenced")), "{out:?}");
    }

    #[test]
    fn oracle_less_cell_is_flagged_and_macro_generated_oracles_count() {
        let src = WIRED
            .replace("pub fn sum_scalar_u32(values: &[u32]) -> u64 { 0 }", "")
            .replace("sum_scalar_u32(values)", "0");
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("maps to no scalar oracle")), "{out:?}");
        // The oracle appears only as a macro-invocation token.
        let src = WIRED.replace(
            "pub fn sum_scalar_u32(values: &[u32]) -> u64 { 0 }",
            "make_scalar!(sum_scalar_u32, u32);",
        );
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn untested_cell_is_flagged() {
        let src = WIRED.replace("super::sum_u32(&[], level);", "let _ = level;");
        let out = run("crates/toolbox/src/sum.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("equivalence-test matrix")), "{out:?}");
    }

    #[test]
    fn suffixed_kernel_matches_stripped_entry_point() {
        let src = r#"
pub fn count(sel: &[u8], level: SimdLevel) -> usize {
    if level.has_avx2() {
        // SAFETY: checked.
        return unsafe { count_avx2(sel) };
    }
    count_scalar(sel)
}
pub fn count_scalar(sel: &[u8]) -> usize { sel.len() }
/// # Safety
/// AVX2 checked by dispatch.
#[target_feature(enable = "avx2")]
unsafe fn count_avx2(sel: &[u8]) -> usize { sel.len() }
#[cfg(test)]
mod tests {
    fn differential() {
        for level in SimdLevel::available() { super::count(&[], level); }
    }
}
"#;
        let out = run("crates/toolbox/src/selvec.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    const ENC: &str = r#"
pub fn enc_sum_spans(values: &[i64]) -> i64 {
    enc_sum_spans_scalar(values)
}
pub fn enc_sum_spans_scalar(values: &[i64]) -> i64 { values.iter().sum() }
#[cfg(test)]
mod tests {
    fn sweep() { super::enc_sum_spans(&[1, 2]); }
}
"#;

    #[test]
    fn enc_kernel_with_oracle_and_coverage_is_clean() {
        let out = run("crates/toolbox/src/runspan.rs", ENC);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn enc_kernel_without_scalar_sibling_is_flagged() {
        let src = ENC.replace("enc_sum_spans_scalar", "sum_helper");
        let out = run("crates/toolbox/src/runspan.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("oracle sibling")), "{out:?}");
    }

    #[test]
    fn untested_enc_kernel_is_flagged() {
        let src = ENC.replace("super::enc_sum_spans(&[1, 2]);", "let _ = 1;");
        let out = run("crates/toolbox/src/runspan.rs", &src);
        assert!(out.iter().any(|d| d.msg.contains("equivalence sweep")), "{out:?}");
        // The scalar oracle itself is exempt from the coverage rule.
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn unstraddled_width_gate_is_flagged() {
        let src = r#"
pub fn unpack_u32(bits: u32, data: &[u32], level: SimdLevel) {
    if level.has_avx2() && bits <= 25 {
        // SAFETY: checked.
        unsafe { avx2::unpack_u32(data) };
        return;
    }
    unpack_scalar_u32(data);
}
pub fn unpack_scalar_u32(data: &[u32]) {}
mod avx2 {
    /// # Safety
    /// AVX2 checked by dispatch.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u32(data: &[u32]) {}
}
#[cfg(test)]
mod tests {
    fn differential() {
        for level in SimdLevel::available() { super::unpack_u32(7, &[], level); }
    }
}
"#;
        let out = run("crates/toolbox/src/bitpack.rs", src);
        assert!(out.iter().any(|d| d.msg.contains("width gate")), "{out:?}");

        // Adding a width on the far side of the gate clears it.
        let straddled = src.replace(
            "super::unpack_u32(7, &[], level);",
            "for bits in [7, 31] { super::unpack_u32(bits, &[], level); }",
        );
        let out = run("crates/toolbox/src/bitpack.rs", &straddled);
        assert!(!out.iter().any(|d| d.msg.contains("width gate")), "{out:?}");
    }
}
