//! Pass 3: invariant instrumentation.
//!
//! The SIMD kernels rely on data-shape invariants they cannot afford to
//! check per row: selection byte vectors are canonical `0x00`/`0xFF` (the
//! `pext`-of-bit-0 and sign-bit-blend tricks read only those encodings),
//! group ids stay below the accumulator count (kernels index accumulators
//! without bounds checks), and packed values fit their declared bit width.
//! Debug builds check these at dispatch boundaries via the
//! `debug_assert_*` helpers; this pass verifies the helpers are actually
//! wired in wherever the relevant data shapes cross a public API.

use crate::kernel_contract::{fn_decls, tier_regions};
use crate::scan::SourceFile;
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
    let tiers = tier_regions(file);
    let text = file.code_text();
    for decl in fn_decls(file, &tiers) {
        if !decl.is_pub || decl.is_unsafe || decl.tier.is_some() {
            continue;
        }
        if decl.sig.contains("sel: &[u8]") && !text.contains("debug_assert_sel_canonical") {
            out.push(diag(
                file,
                decl.line,
                format!(
                    "`{}` consumes a selection byte vector but this file never calls \
                     `selvec::debug_assert_sel_canonical`",
                    decl.name
                ),
            ));
        }
        let has_bound = decl.sig.contains("num_groups") || decl.sig.contains("num_buckets");
        if decl.sig.contains("gids: &[u8]") && has_bound && !text.contains("debug_assert_group_ids")
        {
            out.push(diag(
                file,
                decl.line,
                format!(
                    "`{}` consumes a bounded group-id vector but this file never calls \
                     `agg::debug_assert_group_ids`",
                    decl.name
                ),
            ));
        }
        if decl.name == "pack"
            && decl.sig.contains("bits")
            && !text.contains("debug_assert_values_fit")
        {
            out.push(diag(
                file,
                decl.line,
                "`pack` accepts a declared bit width but this file never calls \
                 `debug_assert_values_fit`"
                    .to_string(),
            ));
        }
    }
}

/// Every helper that is defined must be called at least once somewhere other
/// than its definition line — an uncalled helper means the invariant it
/// guards is unchecked everywhere.
fn check_helper_wiring(files: &[SourceFile], out: &mut Vec<Diag>) {
    for helper in HELPERS {
        let mut def: Option<(&SourceFile, usize)> = None;
        let mut calls = 0usize;
        for file in files {
            for (i, line) in file.code.iter().enumerate() {
                if line.contains(&format!("fn {helper}")) {
                    def = Some((file, i));
                } else if line.contains(&format!("{helper}(")) {
                    calls += 1;
                }
            }
        }
        if let Some((file, line)) = def {
            if calls == 0 {
                out.push(diag(
                    file,
                    line,
                    format!("invariant helper `{helper}` is defined but never called"),
                ));
            }
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
}
