//! Invariant instrumentation.
//!
//! The SIMD kernels rely on data-shape invariants they cannot afford to
//! check per row: selection byte vectors are canonical `0x00`/`0xFF` (the
//! `pext`-of-bit-0 and sign-bit-blend tricks read only those encodings),
//! group ids stay below the accumulator count (kernels index accumulators
//! without bounds checks), and packed values fit their declared bit width.
//! Debug builds check these at dispatch boundaries via the
//! `debug_assert_*` helpers; this pass verifies the helpers are actually
//! wired in wherever the relevant data shapes cross a public API.
//!
//! Helper names are matched as whole identifiers on the token stream, so
//! core's `debug_assert_group_ids_u32` neither satisfies nor defines the
//! toolbox's `debug_assert_group_ids`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::parser::{walk_items, ItemKind};
use crate::scan::{fn_items, SourceFile};
use crate::Diag;

/// The instrumentation helpers and where they live.
const HELPERS: [&str; 4] = [
    "debug_assert_sel_canonical",
    "debug_assert_group_ids",
    "debug_assert_group_ids_u32",
    "debug_assert_values_fit",
];

/// Run the invariant-instrumentation pass.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        if file.rel.starts_with("crates/toolbox/src/") {
            check_param_rules(file, &mut out);
        }
    }
    check_helper_wiring(files, &mut out);
    out
}

/// Public dispatchers whose signatures take the invariant-carrying shapes
/// must call the matching helper somewhere in the file.
fn check_param_rules(file: &SourceFile, out: &mut Vec<Diag>) {
    let mentions = |helper: &str| {
        file.toks.iter().any(|t| t.kind == TokKind::Ident && t.text(&file.text) == helper)
    };
    for f in fn_items(file) {
        if !f.item.is_pub || f.is_unsafe || f.tier.is_some() {
            continue;
        }
        let (name, sig, line) = (&f.item.name, &f.item.signature, f.item.line);
        // Parameter names match by suffix (`keep_sel`), bounds and widths by
        // substring (`max_num_groups`, `nbits`): only the helpers are exact.
        let words: Vec<&str> = sig.split_whitespace().collect();
        let param = |p: &str| {
            words.windows(6).any(|w| w[0].ends_with(p) && w[1..] == [":", "&", "[", "u8", "]"])
        };
        if param("sel") && !mentions("debug_assert_sel_canonical") {
            out.push(diag(
                file,
                line,
                format!(
                    "`{name}` consumes a selection byte vector but this file never calls \
                     `selvec::debug_assert_sel_canonical`"
                ),
            ));
        }
        let has_bound = sig.contains("num_groups") || sig.contains("num_buckets");
        if param("gids") && has_bound && !mentions("debug_assert_group_ids") {
            out.push(diag(
                file,
                line,
                format!(
                    "`{name}` consumes a bounded group-id vector but this file never calls \
                     `agg::debug_assert_group_ids`"
                ),
            ));
        }
        if name == "pack" && sig.contains("bits") && !mentions("debug_assert_values_fit") {
            out.push(diag(
                file,
                line,
                "`pack` accepts a declared bit width but this file never calls \
                 `debug_assert_values_fit`"
                    .to_string(),
            ));
        }
    }
}

/// Every helper that is defined must be called at least once — an uncalled
/// helper means the invariant it guards is unchecked everywhere.
fn check_helper_wiring(files: &[SourceFile], out: &mut Vec<Diag>) {
    let mut defs: BTreeMap<&str, (&SourceFile, usize)> = BTreeMap::new();
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for file in files {
        walk_items(&file.items, &mut |item| {
            if let Some(h) = HELPERS.iter().find(|h| item.kind == ItemKind::Fn && item.name == **h)
            {
                defs.insert(h, (file, item.line));
            }
        });
        let code = file.code_toks();
        for (k, w) in code.windows(2).enumerate() {
            let is_call =
                w[1].text(&file.text) == "(" && (k == 0 || code[k - 1].text(&file.text) != "fn");
            if let Some(h) = HELPERS.iter().find(|h| is_call && w[0].text(&file.text) == **h) {
                called.insert(h);
            }
        }
    }
    for helper in HELPERS {
        match defs.get(helper) {
            Some(&(file, line)) if !called.contains(helper) => out.push(diag(
                file,
                line,
                format!("invariant helper `{helper}` is defined but never called"),
            )),
            _ => {}
        }
    }
}

fn diag(file: &SourceFile, line: usize, msg: String) -> Diag {
    Diag { path: file.rel.clone(), line: line + 1, pass: "invariants", msg }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src).unwrap()
    }

    #[test]
    fn sel_consumer_without_assert_is_flagged() {
        let f =
            file("crates/toolbox/src/x.rs", "pub fn compact(sel: &[u8], out: &mut Vec<u32>) {}");
        let diags = check(&[f]);
        assert!(diags.iter().any(|d| d.msg.contains("debug_assert_sel_canonical")), "{diags:?}");
    }

    #[test]
    fn sel_consumer_with_assert_is_clean() {
        let f = file(
            "crates/toolbox/src/x.rs",
            "pub fn compact(sel: &[u8]) { crate::selvec::debug_assert_sel_canonical(sel); }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn unused_helper_is_flagged() {
        let f = file("crates/toolbox/src/x.rs", "pub fn debug_assert_sel_canonical(sel: &[u8]) {}");
        let diags = check(&[f]);
        assert!(diags.iter().any(|d| d.msg.contains("never called")), "{diags:?}");
    }

    #[test]
    fn gid_consumer_needs_bound_param_to_trigger() {
        // `gids` without a `num_groups`-style bound (e.g. special-group
        // assignment, where any u8 is valid) is exempt.
        let f = file("crates/toolbox/src/x.rs", "pub fn assign(gids: &[u8], special: u8) {}");
        assert!(check(&[f]).is_empty());
        let g = file("crates/toolbox/src/y.rs", "pub fn sum(gids: &[u8], num_groups: usize) {}");
        assert!(!check(&[g]).is_empty());
    }

    #[test]
    fn parameter_names_match_by_suffix_and_bounds_by_substring() {
        let f = file(
            "crates/toolbox/src/x.rs",
            "pub fn f(keep_sel: &[u8]) {}\npub fn g(row_gids: &[u8], max_num_groups: usize) {}\n\
             pub fn h(self_sel: &[u8; 4], gids: &[u32], num_groups: usize) {}",
        );
        let lines: Vec<usize> = check(&[f]).iter().map(|d| d.line).collect();
        assert_eq!(lines, [1, 2]);
    }

    #[test]
    fn calling_only_the_u32_helper_does_not_instrument_a_u8_consumer() {
        let f = file(
            "crates/toolbox/src/agg/x.rs",
            "pub fn sum(gids: &[u8], num_groups: usize) {\n    \
             bipie_core::groupid::debug_assert_group_ids_u32(&[], num_groups);\n}",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("`agg::debug_assert_group_ids`"), "{diags:?}");
    }

    #[test]
    fn the_u32_helper_is_not_the_u8_helpers_definition_site() {
        let f = file(
            "crates/toolbox/src/agg/mod.rs",
            "pub fn debug_assert_group_ids(g: &[u8], n: usize) {}\n\
             pub fn debug_assert_group_ids_u32(g: &[u32], n: usize) {}\n\
             fn f() { debug_assert_group_ids_u32(&[], 0); }",
        );
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 1, "{diags:?}");
        assert!(diags[0].msg.contains("`debug_assert_group_ids` is defined"), "{diags:?}");
    }
}
