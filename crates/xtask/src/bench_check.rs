//! `cargo xtask bench-check` — sanity gate for committed bench JSON.
//!
//! The `BENCH_*.json` files at the repo root are the acceptance artifacts
//! the experiment binaries emit (DESIGN.md §9): other tooling (and the
//! paper-reproduction writeup) reads fields like `profile_overhead_off_pct`
//! and `hardware_threads` out of them, so a bench refactor that renames or
//! drops a field silently breaks every downstream consumer. This gate fails
//! CI when a committed file stops parsing or loses a schema field.
//!
//! The checks are dependency-free like everything else in the workspace:
//! structural validation is a string-aware brace/bracket balance walk, and
//! field validation looks for `"name"` followed by `:` outside string
//! values. That is deliberately weaker than a full JSON parser — the files
//! are machine-written by our own serializers, so the realistic failure
//! mode is schema drift, not malformed nesting.

use std::path::Path;

/// Required fields per committed bench file, mirroring what the experiment
/// binaries write and DESIGN.md §9 documents.
const SCHEMAS: [(&str, &[&str]); 5] = [
    (
        "BENCH_scan.json",
        &[
            "bench",
            "scale_factor",
            "rows",
            "runs",
            "hardware_threads",
            "skipped_oversubscribed",
            "profile_overhead_off_pct",
            "profile_overhead_off_raw_pct",
            "results",
        ],
    ),
    (
        "BENCH_profile.json",
        &[
            "bench",
            "scale_factor",
            "rows",
            "runs",
            "baseline_secs",
            "off_secs",
            "counters_secs",
            "spans_secs",
            "off_vs_baseline_pct",
            "off_vs_baseline_gate_pct",
            "spans_profile",
        ],
    ),
    ("BENCH_profile_baseline.json", &["bench", "scale_factor", "rows", "runs", "median_secs"]),
    (
        "BENCH_encoded_ops.json",
        &["bench", "rows", "runs", "results", "best_rle_speedup", "min_runs_fraction"],
    ),
    (
        "BENCH_serving.json",
        &[
            "bench",
            "scale_factor",
            "rows",
            "runs",
            "hardware_threads",
            "max_concurrent",
            "results",
            "clients",
            "qps",
            "p50_us",
            "p99_us",
        ],
    ),
];

/// Check every committed bench file under `root`. Returns one message per
/// problem; empty means the gate passes.
pub fn check_root(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for (name, fields) in SCHEMAS {
        let path = root.join(name);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for msg in check_text(&text, fields) {
                    out.push(format!("{name}: {msg}"));
                }
            }
            Err(e) => out.push(format!(
                "{name}: unreadable ({e}) — bench artifacts are committed; \
                 regenerate with the exp_* binaries"
            )),
        }
    }
    out
}

/// Validate one bench JSON document against its required field list.
pub fn check_text(text: &str, fields: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(msg) = check_structure(text) {
        out.push(msg);
        return out; // field search over broken structure would mislead
    }
    for field in fields {
        if !has_field(text, field) {
            out.push(format!("missing required field \"{field}\" (DESIGN.md §9 schema)"));
        }
    }
    out
}

/// String-aware structural walk: the document must be one `{...}` object
/// with balanced braces/brackets and terminated strings.
fn check_structure(text: &str) -> Result<(), String> {
    let trimmed = text.trim();
    if !trimmed.starts_with('{') {
        return Err("document does not start with `{`".into());
    }
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escape = false;
    for c in trimmed.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces/brackets (extra closer)".into());
                }
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string literal".into());
    }
    if depth != 0 {
        return Err(format!("unbalanced braces/brackets (depth {depth} at end)"));
    }
    Ok(())
}

/// Whether `"field"` appears as a key (quoted name followed by `:`) outside
/// any string value.
fn has_field(text: &str, field: &str) -> bool {
    let needle = format!("\"{field}\"");
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let after = &text[from + pos + needle.len()..];
        if after.trim_start().starts_with(':') {
            return true;
        }
        from += pos + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_document_passes() {
        let doc =
            r#"{"bench": "b", "rows": 10, "runs": 3, "median_secs": 0.5, "scale_factor": 0.1}"#;
        assert!(check_text(doc, SCHEMAS[2].1).is_empty());
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let doc = r#"{"bench": "b", "rows": 10, "runs": 3, "scale_factor": 0.1}"#;
        let msgs = check_text(doc, SCHEMAS[2].1);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("median_secs"), "{msgs:?}");
    }

    #[test]
    fn field_name_inside_a_string_value_does_not_count() {
        // The value mentions the key name but the key itself is absent.
        let doc = r#"{"bench": "median_secs", "rows": 1, "runs": 1, "scale_factor": 1}"#;
        let msgs = check_text(doc, SCHEMAS[2].1);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
    }

    #[test]
    fn unbalanced_document_fails_structurally() {
        let msgs = check_text(r#"{"bench": {"nested": 1}"#, &["bench"]);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("unbalanced"), "{msgs:?}");
    }

    #[test]
    fn braces_inside_strings_do_not_unbalance() {
        let doc = r#"{"bench": "has { and ] inside", "x": 1}"#;
        assert!(check_text(doc, &["bench"]).is_empty());
    }

    #[test]
    fn non_object_document_fails() {
        let msgs = check_text("[1, 2, 3]", &[]);
        assert!(msgs[0].contains("start with"), "{msgs:?}");
    }

    #[test]
    fn committed_bench_files_satisfy_their_schemas() {
        // The real gate CI runs: the files in this repo must stay valid.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let msgs = check_root(&root);
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
