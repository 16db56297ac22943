//! Audit reporting: stable finding IDs, SARIF-shaped JSON, and the
//! committed baseline.
//!
//! # Stable IDs
//!
//! Every finding gets an ID hashed (FNV-1a 64) over its pass, path,
//! message, and an *ordinal* — the finding's index among same-keyed
//! findings in the same file. Line numbers are deliberately excluded, so
//! unrelated edits that shift a finding up or down do not mint a new ID
//! (and therefore do not dodge or churn the baseline); adding a *second*
//! identical violation to a file changes the ordinal and is a new finding.
//!
//! # Baseline
//!
//! `crates/xtask/audit-baseline.json` lists suppressed finding IDs. The
//! audit subtracts them from its output, and reports
//! any entry that matches nothing as a *stale entry* error, so the baseline
//! can only shrink. `cargo xtask audit --write-baseline` regenerates the
//! file from the current findings; the tree commits an **empty** baseline,
//! which is the enforced steady state.
//!
//! # Exit codes (`cargo xtask audit`, with or without `--json`)
//!
//! | code | meaning                                          |
//! |------|--------------------------------------------------|
//! | 0    | audit ran; no findings                           |
//! | 1    | audit ran; at least one finding (incl. stale)    |
//! | 2    | internal error: bad usage or unwritable output   |
//!
//! Everything here is hand-rolled (the workspace is dependency-free); the
//! JSON emitted is a strict subset of SARIF 2.1.0, enough for GitHub code
//! scanning upload and for diffing runs.

use crate::Diag;
use std::collections::BTreeMap;
use std::path::Path;

/// Relative path of the committed baseline file.
pub const BASELINE_PATH: &str = "crates/xtask/audit-baseline.json";

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assign each diagnostic its stable ID, in input order.
///
/// The ordinal disambiguates repeated identical findings in one file and is
/// computed over the (pass, path, msg) key, so IDs survive line drift.
pub fn stable_ids(diags: &[Diag]) -> Vec<String> {
    let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    diags
        .iter()
        .map(|d| {
            let key = (d.pass.to_string(), d.path.clone(), d.msg.clone());
            let ordinal = seen.entry(key).and_modify(|n| *n += 1).or_insert(0);
            let material = format!("{}\x1f{}\x1f{}\x1f{}", d.pass, d.path, d.msg, ordinal);
            format!("{}-{:016x}", d.pass, fnv1a(material.as_bytes()))
        })
        .collect()
}

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as SARIF 2.1.0 (one run, one result per finding, the
/// stable ID in `partialFingerprints.bipieAuditId/v1`). Output is fully
/// determined by the input order, which `run_audit` already sorts.
pub fn to_sarif(diags: &[Diag]) -> String {
    to_sarif_timed(diags, &[])
}

/// [`to_sarif`], additionally embedding per-pass wall times (microseconds)
/// in the run's property bag as `passTimingsMicros`, so CI can chart audit
/// cost per pass over time.
pub fn to_sarif_timed(diags: &[Diag], timings: &[crate::PassTiming]) -> String {
    let ids = stable_ids(diags);
    let mut rules: Vec<&str> = diags.iter().map(|d| d.pass).collect();
    rules.sort_unstable();
    rules.dedup();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"bipie-xtask-audit\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n            {{ \"id\": \"{}\" }}", esc(r)));
    }
    if !rules.is_empty() {
        out.push_str("\n          ");
    }
    out.push_str("]\n        }\n      },\n");
    if !timings.is_empty() {
        out.push_str("      \"properties\": {\n");
        out.push_str("        \"passTimingsMicros\": {");
        for (i, t) in timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n          \"{}\": {}", esc(t.pass), t.micros));
        }
        out.push_str("\n        }\n");
        out.push_str("      },\n");
    }
    out.push_str("      \"results\": [");
    for (i, (d, id)) in diags.iter().zip(&ids).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \
             \"message\": {{ \"text\": \"{}\" }},\n          \"locations\": [\n            {{\n              \
             \"physicalLocation\": {{\n                \"artifactLocation\": {{ \"uri\": \"{}\" }},\n                \
             \"region\": {{ \"startLine\": {} }}\n              }}\n            }}\n          ],\n          \
             \"partialFingerprints\": {{ \"bipieAuditId/v1\": \"{}\" }}\n        }}",
            esc(d.pass),
            esc(&d.msg),
            esc(&d.path),
            d.line.max(1),
            esc(id),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// Parse the baseline file's suppressed-ID list.
///
/// The file is machine-written (see [`render_baseline`]); the reader only
/// needs the quoted strings inside the `"suppressed"` array, so it scans
/// for that bracket region rather than parsing full JSON.
pub fn parse_baseline(text: &str) -> Vec<String> {
    let Some(key) = text.find("\"suppressed\"") else { return Vec::new() };
    let Some(open) = text[key..].find('[').map(|i| key + i) else { return Vec::new() };
    let Some(close) = text[open..].find(']').map(|i| open + i) else { return Vec::new() };
    let mut out = Vec::new();
    let body = &text[open + 1..close];
    let mut rest = body;
    while let Some(q1) = rest.find('"') {
        let Some(q2) = rest[q1 + 1..].find('"').map(|i| q1 + 1 + i) else { break };
        out.push(rest[q1 + 1..q2].to_string());
        rest = &rest[q2 + 1..];
    }
    out
}

/// Render a baseline file suppressing exactly `ids`.
pub fn render_baseline(ids: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"Suppressed audit finding IDs. Regenerate with `cargo xtask audit \
         --write-baseline`; stale entries fail the audit, so this list only shrinks. The \
         committed steady state is empty.\",\n",
    );
    out.push_str("  \"suppressed\": [");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", esc(id)));
    }
    if !ids.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Subtract baselined findings; report stale baseline entries as findings
/// (pass `baseline`), so the baseline can only shrink.
pub fn apply_baseline(root: &Path, mut diags: Vec<Diag>) -> Vec<Diag> {
    let path = root.join(BASELINE_PATH);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return diags;
    };
    let suppressed = parse_baseline(&text);
    if suppressed.is_empty() {
        return diags;
    }
    let ids = stable_ids(&diags);
    let mut keep: Vec<bool> = ids.iter().map(|id| !suppressed.contains(id)).collect();
    for (lineno, entry) in suppressed.iter().enumerate() {
        if !ids.contains(entry) {
            diags.push(Diag {
                path: BASELINE_PATH.into(),
                line: lineno + 1,
                pass: "baseline",
                msg: format!("stale entry {entry:?} matches no finding — remove it"),
            });
            keep.push(true);
        }
    }
    let mut it = keep.into_iter();
    diags.retain(|_| it.next().unwrap_or(true));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(pass: &'static str, path: &str, line: usize, msg: &str) -> Diag {
        Diag { path: path.into(), line, pass, msg: msg.into() }
    }

    #[test]
    fn ids_are_stable_under_line_drift() {
        let a = vec![diag("sync-escape", "src/lib.rs", 10, "`pub` sync field")];
        let b = vec![diag("sync-escape", "src/lib.rs", 99, "`pub` sync field")];
        assert_eq!(stable_ids(&a), stable_ids(&b));
    }

    #[test]
    fn repeated_findings_get_distinct_ordinals() {
        let d = diag("sync-escape", "src/lib.rs", 10, "`pub` sync field");
        let ids = stable_ids(&[d.clone(), d]);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn different_files_get_different_ids() {
        let a = stable_ids(&[diag("sync-escape", "a.rs", 1, "m")]);
        let b = stable_ids(&[diag("sync-escape", "b.rs", 1, "m")]);
        assert_ne!(a, b);
    }

    #[test]
    fn baseline_round_trips() {
        let ids = vec!["lock-discipline-0123456789abcdef".to_string(), "sync-escape-feed".into()];
        assert_eq!(parse_baseline(&render_baseline(&ids)), ids);
        assert!(parse_baseline(&render_baseline(&[])).is_empty());
    }

    #[test]
    fn sarif_contains_rule_result_and_fingerprint() {
        let d = diag("trace-hygiene", "crates/toolbox/src/cmp.rs", 7, "cell \"x\" unmapped");
        let ids = stable_ids(std::slice::from_ref(&d));
        let sarif = to_sarif(&[d]);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("{ \"id\": \"trace-hygiene\" }"), "{sarif}");
        assert!(sarif.contains("\"startLine\": 7"), "{sarif}");
        assert!(sarif.contains("cell \\\"x\\\" unmapped"), "{sarif}");
        assert!(sarif.contains(&ids[0]), "{sarif}");
    }

    #[test]
    fn sarif_with_no_findings_is_an_empty_run() {
        let sarif = to_sarif(&[]);
        assert!(sarif.contains("\"results\": []"), "{sarif}");
        assert!(sarif.contains("\"rules\": []"), "{sarif}");
        assert!(!sarif.contains("passTimingsMicros"), "{sarif}");
    }

    #[test]
    fn sarif_timed_embeds_pass_timings() {
        let timings = [
            crate::PassTiming { pass: "locks", micros: 1234 },
            crate::PassTiming { pass: "errors", micros: 56 },
        ];
        let sarif = to_sarif_timed(&[], &timings);
        assert!(sarif.contains("\"passTimingsMicros\""), "{sarif}");
        assert!(sarif.contains("\"locks\": 1234"), "{sarif}");
        assert!(sarif.contains("\"errors\": 56"), "{sarif}");
    }
}
