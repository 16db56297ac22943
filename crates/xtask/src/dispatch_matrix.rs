//! Pass 9: dispatch-matrix exhaustiveness.
//!
//! The toolbox is organized as a dispatch matrix: each operation × element
//! width × SIMD tier combination is one *cell* — a `#[target_feature]`
//! kernel living in a tier module (`mod avx2` / `mod avx512`) or carrying a
//! tier suffix (`*_avx2` / `*_avx512`). The kernel-contract pass (pass 2)
//! checks files coarsely; this pass statically extracts the full table and
//! cross-checks **every cell** against three registries:
//!
//! 1. **Wiring** — the kernel's name must be referenced outside the tier
//!    modules (a direct `avx2::name(…)` call, a tier-suffixed call under a
//!    `has_*` guard, or a dispatch-macro invocation naming it). A cell the
//!    dispatcher never mentions silently falls back to scalar: correct,
//!    never measured, and dead weight.
//! 2. **Oracle registry** — the cell must map to a scalar sibling by name
//!    tokens (same matcher the kernel-contract pass uses), so the
//!    differential harness has something to compare against.
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
//! Everything here is lexical (token streams + the pass-2 extractors);
//! macro-generated dispatchers are visible through their invocation tokens
//! (`dispatch_cmp!(cmp_u8, …)` names the kernel outside the tier module),
//! which is exactly the property checked.

use crate::kernel_contract::{
    fn_decls, has_oracle, scalar_oracle_tokens, tier_regions, FnDecl, TestCorpus,
};
use crate::lexer::TokKind;
use crate::scan::{name_tokens, SourceFile};
use crate::Diag;

const TIERS: [&str; 2] = ["avx2", "avx512"];

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

/// Extract the dispatch cells of one file: `#[target_feature]` kernels with
/// a slice argument that are `pub`-visible or tier-suffixed (the same
/// kernel definition pass 2 audits).
pub fn extract_cells(file: &SourceFile) -> Vec<Cell> {
    let tiers = tier_regions(file);
    fn_decls(file, &tiers)
        .into_iter()
        .filter(|d| d.target_feature && (d.sig.contains("&[") || d.sig.contains("&mut [")))
        .filter_map(|d| {
            let (tier, suffixed) = match d.tier {
                Some(t) => (t, false),
                None => (*TIERS.iter().find(|t| d.name.ends_with(&format!("_{t}")))?, true),
            };
            if !d.is_pub && !suffixed {
                return None;
            }
            let toks = name_tokens(&d.name);
            let width = toks.iter().find(|t| WIDTH_TOKENS.contains(&t.as_str())).cloned();
            let op = toks
                .iter()
                .filter(|t| !TIERS.contains(&t.as_str()) && !WIDTH_TOKENS.contains(&t.as_str()))
                .cloned()
                .collect::<Vec<_>>()
                .join("_");
            Some(Cell { kernel: d.name, tier, width, op, line: d.line, suffixed })
        })
        .collect()
}

/// Run the dispatch-matrix pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    let corpus = TestCorpus::collect(files);
    for file in files {
        if !file.rel.starts_with("crates/toolbox/src/") || file.toks.is_empty() {
            continue;
        }
        check_file(file, &corpus, &mut out);
        check_enc_kernels(file, &corpus, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn check_file(file: &SourceFile, corpus: &TestCorpus, out: &mut Vec<Diag>) {
    let tiers = tier_regions(file);
    let cells = extract_cells(file);
    if cells.is_empty() {
        return;
    }
    let oracle_tokens = scalar_oracle_tokens(file, &tiers);
    let decls = fn_decls(file, &tiers);
    let code: Vec<_> = file
        .toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    for cell in &cells {
        let label = cell_label(cell);

        // 1. Wiring: the kernel name must occur as an identifier outside
        //    the tier modules and test regions, away from its own
        //    declaration and not as another `fn` declaration's name (a
        //    same-named dispatcher *declaring* itself is not a call; a test
        //    naming the kernel is coverage, not wiring).
        let wired = code.iter().enumerate().any(|(i, t)| {
            t.kind == TokKind::Ident
                && t.text(&file.text) == cell.kernel
                && t.line != cell.line
                && (i == 0 || code[i - 1].text(&file.text) != "fn")
                && !file.line_in_tests(t.line)
                && !tiers.iter().any(|(_, r)| r.contains(&t.line))
        });
        if !wired {
            out.push(diag(
                file,
                cell.line,
                format!(
                    "{label} is never referenced outside its tier module — \
                     an unwired dispatch cell silently falls back to scalar"
                ),
            ));
        }

        // 2. Oracle registry (name-token matching shared with pass 2).
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
        //    any public dispatcher whose body contains a call to it (found
        //    by attributing each call site to its enclosing `fn`).
        let mut entry_points = vec![cell.kernel.clone()];
        if cell.suffixed {
            entry_points.push(cell.kernel.trim_end_matches(&format!("_{}", cell.tier)).to_string());
        }
        for (i, t) in code.iter().enumerate() {
            let is_call = t.kind == TokKind::Ident
                && t.text(&file.text) == cell.kernel
                && t.line != cell.line
                && (i == 0 || code[i - 1].text(&file.text) != "fn")
                && !file.line_in_tests(t.line)
                && !tiers.iter().any(|(_, r)| r.contains(&t.line));
            if !is_call {
                continue;
            }
            let enclosing = decls
                .iter()
                .filter(|d| d.tier.is_none() && d.line <= t.line)
                .max_by_key(|d| d.line);
            if let Some(d) = enclosing {
                if d.is_pub && !d.is_unsafe && !entry_points.contains(&d.name) {
                    entry_points.push(d.name.clone());
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

    check_width_gates(file, &tiers, &decls, corpus, out);
}

/// Encoding-specialized kernels (`enc_*`) are scalar-only cells of the
/// dispatch matrix: each public entry point must have an `enc_*_scalar`
/// oracle sibling in the same file (the differential target) and must be
/// named by the test corpus (the equivalence sweep that executes it).
fn check_enc_kernels(file: &SourceFile, corpus: &TestCorpus, out: &mut Vec<Diag>) {
    let tiers = tier_regions(file);
    let decls = fn_decls(file, &tiers);
    for d in &decls {
        if !d.is_pub
            || d.tier.is_some()
            || !d.name.starts_with("enc_")
            || d.name.ends_with("_scalar")
            || file.line_in_tests(d.line)
        {
            continue;
        }
        let sibling = format!("{}_scalar", d.name);
        if !decls.iter().any(|o| o.name == sibling) {
            out.push(diag(
                file,
                d.line,
                format!(
                    "encoded kernel `{}` has no `{sibling}` oracle sibling — every \
                     enc_* entry point must route to a scalar oracle",
                    d.name
                ),
            ));
        }
        if corpus.files_containing(&d.name).is_empty() {
            out.push(diag(
                file,
                d.line,
                format!(
                    "encoded kernel `{}` is not exercised by any test — enc_* \
                     kernels must be covered by the equivalence sweep",
                    d.name
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

/// Width gates: a `bits <= N` comparison on a dispatch line (one that also
/// checks a `has_*` tier guard) splits the matrix at `N`. The covering test
/// corpus must exercise widths on both sides, or one path ships untested.
fn check_width_gates(
    file: &SourceFile,
    tiers: &[(&'static str, std::ops::Range<usize>)],
    decls: &[FnDecl],
    corpus: &TestCorpus,
    out: &mut Vec<Diag>,
) {
    // Gather the corpus text covering this file: files that name one of its
    // public dispatch entry points (token-free contains() is fine here; the
    // names are long enough to be unambiguous).
    let entry_names: Vec<&str> =
        decls.iter().filter(|d| d.is_pub && d.tier.is_none()).map(|d| d.name.as_str()).collect();
    let covering: String = corpus
        .files
        .iter()
        .filter(|(_, text)| entry_names.iter().any(|n| text.contains(n)))
        .map(|(_, text)| text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let lits = int_literals(&covering);

    for gate in find_width_gates(file, tiers) {
        let straddled = lits.iter().any(|&n| n > 0 && n <= gate.bound)
            && lits.iter().any(|&n| n > gate.bound && n <= 64);
        if !straddled {
            out.push(diag(
                file,
                gate.line,
                format!(
                    "width gate `bits <= {}` is not straddled by the covering \
                     equivalence tests (need bit widths on both sides of the gate)",
                    gate.bound
                ),
            ));
        }
    }
}

struct WidthGate {
    line: usize,
    bound: u64,
}

/// `bits <= N` token sequences outside tier modules, on lines that also
/// carry a `has_*` tier guard (so plain input asserts do not count).
fn find_width_gates(
    file: &SourceFile,
    tiers: &[(&'static str, std::ops::Range<usize>)],
) -> Vec<WidthGate> {
    let mut gates = Vec::new();
    let code: Vec<_> = file
        .toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    for w in code.windows(4) {
        let [a, lt, eq, n] = w else { continue };
        if a.kind == TokKind::Ident
            && a.text(&file.text) == "bits"
            && lt.text(&file.text) == "<"
            && eq.text(&file.text) == "="
            && n.kind == TokKind::Num
            && !tiers.iter().any(|(_, r)| r.contains(&a.line))
            && TIERS
                .iter()
                .any(|t| file.code.get(a.line).is_some_and(|l| l.contains(&format!("has_{t}("))))
        {
            if let Ok(bound) = n.text(&file.text).parse::<u64>() {
                gates.push(WidthGate { line: a.line, bound });
            }
        }
    }
    gates
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

    fn corpus_of(files: &[SourceFile]) -> TestCorpus {
        TestCorpus::collect(files)
    }

    #[test]
    fn wired_tested_cell_is_clean() {
        let f = file("crates/toolbox/src/sum.rs", WIRED);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cells_carry_op_width_tier() {
        let f = file("crates/toolbox/src/sum.rs", WIRED);
        let cells = extract_cells(&f);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].op, "sum");
        assert_eq!(cells[0].width.as_deref(), Some("u32"));
        assert_eq!(cells[0].tier, "avx2");
    }

    #[test]
    fn unwired_cell_is_flagged() {
        let src = WIRED.replace(
            "if level.has_avx2() {\n        // SAFETY: checked.\n        return unsafe { avx2::sum_u32(values) };\n    }",
            "",
        );
        let f = file("crates/toolbox/src/sum.rs", &src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
        assert!(out.iter().any(|d| d.msg.contains("never referenced")), "{out:?}");
    }

    #[test]
    fn macro_dispatched_cell_counts_as_wired() {
        let src = WIRED.replace(
            "pub fn sum_u32(values: &[u32], level: SimdLevel) -> u64 {\n    if level.has_avx2() {\n        // SAFETY: checked.\n        return unsafe { avx2::sum_u32(values) };\n    }\n    sum_scalar_u32(values)\n}",
            "dispatch_sum!(sum_u32, sum_scalar_u32, u32);",
        );
        let f = file("crates/toolbox/src/sum.rs", &src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
        assert!(!out.iter().any(|d| d.msg.contains("never referenced")), "{out:?}");
    }

    #[test]
    fn untested_cell_is_flagged() {
        let src = WIRED.replace("super::sum_u32(&[], level);", "let _ = level;");
        let f = file("crates/toolbox/src/sum.rs", &src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
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
        let f = file("crates/toolbox/src/selvec.rs", src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
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
        let f = file("crates/toolbox/src/runspan.rs", ENC);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_enc_kernels(&f, &corpus, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn enc_kernel_without_scalar_sibling_is_flagged() {
        let src = ENC.replace("enc_sum_spans_scalar", "sum_helper");
        let f = file("crates/toolbox/src/runspan.rs", &src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_enc_kernels(&f, &corpus, &mut out);
        assert!(out.iter().any(|d| d.msg.contains("oracle sibling")), "{out:?}");
    }

    #[test]
    fn untested_enc_kernel_is_flagged() {
        let src = ENC.replace("super::enc_sum_spans(&[1, 2]);", "let _ = 1;");
        let f = file("crates/toolbox/src/runspan.rs", &src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_enc_kernels(&f, &corpus, &mut out);
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
        let f = file("crates/toolbox/src/bitpack.rs", src);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
        assert!(out.iter().any(|d| d.msg.contains("width gate")), "{out:?}");

        // Adding a width on the far side of the gate clears it.
        let straddled = src.replace(
            "super::unpack_u32(7, &[], level);",
            "for bits in [7, 31] { super::unpack_u32(bits, &[], level); }",
        );
        let f = file("crates/toolbox/src/bitpack.rs", &straddled);
        let corpus = corpus_of(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_file(&f, &corpus, &mut out);
        assert!(!out.iter().any(|d| d.msg.contains("width gate")), "{out:?}");
    }
}
