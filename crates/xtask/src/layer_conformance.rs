//! Layer conformance.
//!
//! The workspace is layered — `toolbox` (kernels, no deps) under
//! `columnstore`/`metrics`, under `core`, under the `tpch`/`bench` drivers
//! — and inside `core` the modules form their own DAG with `error`, `pool`
//! and `strategy` at the bottom and `scan`/`query` at the top. Cargo
//! enforces the crate DAG only as far as `Cargo.toml` declares it; nothing
//! stops a new `[dependencies]` line (or a module-level `use`) from
//! quietly inverting the architecture. This pass extracts the real import
//! graph from the parsed `use` items ([`crate::graph::Graph`]) and checks
//! it against the layer tables:
//!
//! * **crate edges** — every cross-crate `use` must appear in
//!   [`CRATE_ALLOWED`]; a crate missing from the table is itself a
//!   finding, so new crates get slotted into the layering deliberately;
//! * **core module edges** — a `use` between two modules listed in
//!   [`CORE_LAYERS`] must follow the table (modules not yet in the table
//!   are unconstrained until someone adds them);
//! * **cycles** — the intra-crate module graph of every crate must stay
//!   acyclic, table or no table.
//!
//! `use` items inside test files and `#[cfg(test)]` regions are exempt:
//! dev-dependencies may legitimately reach across layers.

use std::collections::BTreeMap;

use crate::graph::Graph;
use crate::scan::SourceFile;
use crate::Diag;

/// Allowed crate→crate dependencies (the workspace DAG).
pub const CRATE_ALLOWED: &[(&str, &[&str])] = &[
    ("toolbox", &[]),
    ("metrics", &["toolbox"]),
    ("columnstore", &["toolbox"]),
    ("core", &["toolbox", "columnstore", "metrics"]),
    ("tpch", &["toolbox", "columnstore", "core"]),
    ("bench", &["toolbox", "columnstore", "metrics", "core", "tpch"]),
    ("bipie", &["toolbox", "columnstore", "metrics", "core", "tpch"]),
];

/// Allowed module→module dependencies inside `crates/core`.
pub const CORE_LAYERS: &[(&str, &[&str])] = &[
    ("error", &[]),
    ("pool", &[]),
    ("strategy", &[]),
    ("expr", &["error"]),
    ("filter", &["error"]),
    ("governor", &["error", "stats"]),
    ("groupid", &["error"]),
    ("stats", &["strategy"]),
    ("trace", &["stats", "strategy"]),
    ("aggproc", &["expr", "strategy"]),
    (
        "scan",
        &[
            "aggproc", "error", "expr", "filter", "governor", "groupid", "pool", "stats",
            "strategy", "trace",
        ],
    ),
    ("telemetry", &["error", "pool", "stats", "strategy", "trace"]),
    (
        "query",
        &[
            "error",
            "expr",
            "filter",
            "governor",
            "pool",
            "scan",
            "stats",
            "strategy",
            "telemetry",
            "trace",
        ],
    ),
    ("reference", &["error", "query", "stats"]),
    ("engine", &["error", "governor", "pool", "query", "stats", "telemetry"]),
];

fn allowed_in<'t>(table: &'t [(&str, &[&str])], name: &str) -> Option<&'t [&'t str]> {
    table.iter().find(|(n, _)| *n == name).map(|(_, a)| *a)
}

/// Deduplicated `(from, to) → first witness (file, line)` edge set.
type EdgeMap = BTreeMap<(String, String), (String, usize)>;

/// Run the layer-conformance pass.
pub fn check(files: &[SourceFile], graph: &Graph) -> Vec<Diag> {
    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut out = Vec::new();

    // Deduplicated live edges, test regions excluded.
    let mut crate_edges: EdgeMap = BTreeMap::new();
    let mut module_edges: BTreeMap<String, EdgeMap> = BTreeMap::new();
    for e in &graph.use_edges {
        let Some(file) = by_rel.get(e.file.as_str()) else { continue };
        if file.is_test_file() || file.line_in_tests(e.line) {
            continue;
        }
        if e.from_crate != e.to_crate {
            crate_edges
                .entry((e.from_crate.clone(), e.to_crate.clone()))
                .or_insert_with(|| (e.file.clone(), e.line));
        } else if !e.from_module.is_empty()
            && !e.to_module.is_empty()
            && e.from_module != e.to_module
        {
            module_edges
                .entry(e.from_crate.clone())
                .or_default()
                .entry((e.from_module.clone(), e.to_module.clone()))
                .or_insert_with(|| (e.file.clone(), e.line));
        }
    }

    for ((from, to), (file, line)) in &crate_edges {
        match allowed_in(CRATE_ALLOWED, from) {
            None => {
                if allowed_in(CRATE_ALLOWED, to).is_some() {
                    out.push(Diag {
                        path: file.clone(),
                        line: line + 1,
                        pass: "layer-conformance",
                        msg: format!(
                            "crate `{from}` is not in the layer table but depends on \
                             `{to}` — slot it into CRATE_ALLOWED deliberately"
                        ),
                    });
                }
            }
            Some(allowed) if !allowed.contains(&to.as_str()) => {
                if allowed_in(CRATE_ALLOWED, to).is_some() {
                    out.push(Diag {
                        path: file.clone(),
                        line: line + 1,
                        pass: "layer-conformance",
                        msg: format!(
                            "crate `{from}` must not depend on `{to}` — the layering \
                             is toolbox -> columnstore/metrics -> core -> tpch/bench"
                        ),
                    });
                }
            }
            Some(_) => {}
        }
    }

    for (krate, edges) in &module_edges {
        if krate == "core" {
            for ((from, to), (file, line)) in edges {
                let (Some(allowed), Some(_)) =
                    (allowed_in(CORE_LAYERS, from), allowed_in(CORE_LAYERS, to))
                else {
                    continue;
                };
                if !allowed.contains(&to.as_str()) {
                    out.push(Diag {
                        path: file.clone(),
                        line: line + 1,
                        pass: "layer-conformance",
                        msg: format!(
                            "core module `{from}` must not depend on `{to}` — \
                             CORE_LAYERS pins scan/query at the top and \
                             error/pool/strategy at the bottom"
                        ),
                    });
                }
            }
        }
        if let Some(cycle) = Graph::find_cycle(edges) {
            let witness = edges
                .iter()
                .find(|((a, b), _)| cycle.windows(2).any(|w| w[0] == *a && w[1] == *b))
                .map(|(_, at)| at.clone())
                .unwrap_or_default();
            out.push(Diag {
                path: witness.0,
                line: witness.1 + 1,
                pass: "layer-conformance",
                msg: format!(
                    "module cycle in crate `{krate}`: `{}` — break the cycle by \
                     moving the shared piece below both",
                    cycle.join(" -> ")
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.path, a.line, &a.msg).cmp(&(&b.path, b.line, &b.msg)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.msg == b.msg);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diag> {
        let files: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::from_source(rel, src).unwrap()).collect();
        let graph = Graph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn conforming_edges_are_clean() {
        let diags = run(&[
            ("crates/core/src/scan.rs", "use crate::pool::WorkerPool;\nuse crate::error::Result;"),
            ("crates/core/src/query.rs", "use crate::scan::Scan;"),
            ("crates/tpch/src/q1.rs", "use bipie_core::query::Query;"),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn upward_crate_edge_is_flagged() {
        let diags = run(&[("crates/toolbox/src/bad.rs", "use bipie_core::scan::Scan;")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("`toolbox` must not depend on `core`"), "{diags:?}");
    }

    #[test]
    fn unknown_crate_touching_workspace_is_flagged() {
        let diags = run(&[("crates/newcrate/src/lib.rs", "use bipie_core::query::Query;")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("not in the layer table"), "{diags:?}");
    }

    #[test]
    fn upward_core_module_edge_is_flagged() {
        let diags = run(&[("crates/core/src/error.rs", "use crate::scan::Scan;")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("`error` must not depend on `scan`"), "{diags:?}");
    }

    #[test]
    fn module_not_in_table_is_unconstrained() {
        let diags = run(&[("crates/core/src/checked.rs", "use crate::scan::Scan;")]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn module_cycle_is_flagged_even_off_table() {
        let diags = run(&[
            ("crates/toolbox/src/alpha.rs", "use crate::beta::B;"),
            ("crates/toolbox/src/beta.rs", "use crate::alpha::A;"),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("module cycle in crate `toolbox`"), "{diags:?}");
    }

    #[test]
    fn test_regions_and_test_files_are_exempt() {
        let diags = run(&[
            (
                "crates/toolbox/src/ok.rs",
                "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use bipie_core::query::Query;\n}",
            ),
            ("crates/toolbox/tests/integration.rs", "use bipie_core::query::Query;"),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
