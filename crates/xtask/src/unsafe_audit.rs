//! Pass 1: unsafe hygiene.
//!
//! * Every `unsafe` **block** (or `unsafe impl`) must have a contiguous
//!   `//` comment run immediately above it containing `SAFETY:`.
//! * Every `unsafe fn` must carry a `# Safety` section in its doc comment
//!   (or a `// SAFETY:` note) in the attribute block above the declaration.
//!
//! This runs over the whole workspace, complementing clippy's
//! `undocumented_unsafe_blocks` (which cannot see `unsafe fn` contracts for
//! private functions) and making the policy enforceable without a nightly
//! toolchain.
//!
//! The pass walks the token stream: each `unsafe` keyword token is
//! classified by the next code token (`fn` → contract check, `trait` →
//! implementor contract, anything else → block/impl SAFETY check), so
//! occurrences inside strings or comments can never trip it.

use crate::lexer::TokKind;
use crate::scan::{attr_block_above, SourceFile};
use crate::Diag;

/// Run the unsafe audit over all files.
pub fn check(files: &[SourceFile]) -> Vec<Diag> {
    let mut out = Vec::new();
    for file in files {
        check_file(file, &mut out);
    }
    out
}

fn check_file(file: &SourceFile, out: &mut Vec<Diag>) {
    let code = file.code_toks();
    let mut last_block_line = usize::MAX;
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text(&file.text) != "unsafe" {
            continue;
        }
        match code.get(i + 1).map(|t| t.text(&file.text)) {
            Some("fn") => check_unsafe_fn(file, tok.line, out),
            Some("trait") => {
                // Declaring an unsafe trait states a contract for
                // implementors; the doc comment is the right place but not
                // audited here.
            }
            _ => {
                // `unsafe {`, `unsafe impl`, or a signature fragment such as
                // `unsafe extern`. All want a SAFETY note directly above;
                // one diagnostic per line is enough.
                if tok.line != last_block_line {
                    check_safety_comment_above(file, tok.line, out);
                    last_block_line = tok.line;
                }
            }
        }
    }
}

/// An `unsafe fn` must document its contract in the block above the
/// declaration: a `/// # Safety` doc section (the std idiom) or an explicit
/// `// SAFETY:` comment.
fn check_unsafe_fn(file: &SourceFile, line: usize, out: &mut Vec<Diag>) {
    let block = attr_block_above(&file.raw, line);
    if block.contains("# Safety") || block.contains("SAFETY:") {
        return;
    }
    out.push(Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "unsafe-audit",
        msg: "unsafe fn without a `# Safety` doc section (or `// SAFETY:` note) above it"
            .to_string(),
    });
}

/// An `unsafe` block (or impl) must have a contiguous `//` comment run
/// directly above the line that opens it, containing `SAFETY:`.
fn check_safety_comment_above(file: &SourceFile, line: usize, out: &mut Vec<Diag>) {
    let mut top = line;
    while top > 0 {
        let s = file.raw[top - 1].trim_start();
        if s.starts_with("//") {
            top -= 1;
        } else {
            break;
        }
    }
    let comment = file.raw[top..line].join("\n");
    if comment.contains("SAFETY:") {
        return;
    }
    out.push(Diag {
        path: file.rel.clone(),
        line: line + 1,
        pass: "unsafe-audit",
        msg: "unsafe block without a `// SAFETY:` comment immediately above it".to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source("test.rs", src).unwrap()
    }

    #[test]
    fn commented_block_passes() {
        let f = file("fn f() {\n    // SAFETY: bounded by len.\n    unsafe { g() };\n}");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn bare_block_fails_with_line_number() {
        let f = file("fn f() {\n    unsafe { g() };\n}");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].msg.contains("SAFETY"));
    }

    #[test]
    fn unsafe_in_string_is_ignored() {
        let f = file("fn f() { let s = \"unsafe { }\"; }");
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn unsafe_in_escaped_quote_wake_is_still_seen() {
        // A view that closes `'\''` on the escaped quote would flip its
        // string state and hide every later unsafe block.
        let f = file("fn f() {\n    let q = '\\'';\n    unsafe { g() };\n}");
        let diags = check(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unsafe_fn_needs_safety_doc() {
        let bad = file("#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}");
        assert_eq!(check(&[bad]).len(), 1);
        let good = file(
            "/// # Safety\n/// CPU must support AVX2.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}",
        );
        assert!(check(&[good]).is_empty());
    }
}
