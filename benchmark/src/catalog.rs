//! The catalogue: every workload and metric the benchmark knows, with its
//! unit, direction, regression bound, and — for a layer metric — which
//! end-to-end metric it should move on which workload.
//!
//! This is the source `BENCHMARK.json` is generated from (`list --json`);
//! `check` and a unit test fail when the committed file differs.

use crate::json::Json;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    /// What one op is and what load drives it (README / `list`).
    pub op: &'static str,
}

pub const Q1_SCAN: &str = "q1_scan";
pub const FILTER_SWEEP: &str = "filter_sweep";
pub const ENCODED_OPS: &str = "encoded_ops";
pub const SERVING: &str = "serving_q1_2c";
pub const INGEST: &str = "ingest_flush";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: Q1_SCAN,
        why: "TPC-H Q1, serial, table five times L2: 4 groups, 8 aggregates, 98% selected, so \
              aggregation and expression kernels dominate; selection and per-query cost vanish",
        op: "one tpch::q1_query (parallel: false) over LINEITEM; 1 closed-loop client",
    },
    Workload {
        name: FILTER_SWEEP,
        why: "five selectivities 0.2%-60% on a bit-packed table cross every chooser threshold: \
              unpack, compare, gather/compact dominate; bypasses the aggregation kernels",
        op: "one round of five `g,count,sum(a0),sum(a1) WHERE sel<t GROUP BY g` queries \
             (0.2/2/10/30/60 %), serial; 1 closed-loop client",
    },
    Workload {
        name: ENCODED_OPS,
        why: "RLE run-wise, sorted-delta range and dictionary-bitset queries of 25us-2ms: \
              compression-aware paths and per-query fixed cost; bypasses decode-then-aggregate",
        op: "one round of three count(*),sum(v) queries, each on its own table (RLE, sorted \
             delta, dictionary), serial; 1 closed-loop client",
    },
    Workload {
        name: SERVING,
        why:
            "two clients share one engine and two cores on a cache-resident table: admission, \
              fair scheduling, morsel claiming and merge; kernel gains shrink, scheduler gains show",
        op: "one Q1 with default QueryOptions (parallel) over LINEITEM SF 0.1; 2 closed-loop \
             clients (capped at nproc), one Session each, one Engine",
    },
    Workload {
        name: INGEST,
        why: "builds a table by insert, flushes twice, replaces it, scans segments plus mutable \
              tail: the columnstore as encoder; a layout that slows packing or grows bytes shows",
        op: "Table::insert of pre-generated LINEITEM rows (two inline flushes + a mutable \
             tail), register_table (replace), one Q1; rows(op) = rows inserted; 1 client",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How much the metric may worsen before it counts as a regression, as
    /// a share of the parent's median: three times the widest interquartile
    /// spread ten runs showed on the shared reference box (README), capped
    /// at the contract's 0.25.
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "cycles_per_row",
        unit: "cycles/row",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over ops of op TSC cycles / rows(op) (the paper's unit), over the \
                     quietest stretch of 200 consecutive ops",
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "sum of rows(op) / mean client busy time (mean-based: shows stalls the \
                     median hides), over the quietest stretch",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "95th percentile of op latency over the quietest stretch of 200 ops",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median of the run's set-ups: generate + encode + first execution + \
                     register_table",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.17,
        definition: "VmHWM of the workload's process at its end",
    },
    EndToEnd {
        name: "encoded_bytes_per_row",
        unit: "bytes/row",
        better: Better::Lower,
        bound: 0.01,
        definition: "sum of Segment::encoded_bytes() / encoded rows of the workload's tables",
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        definition: "1 - failed_share: ops that returned the reference result, over ops \
                     attempted (a metric may not be 0, so the share that succeeded is reported)",
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workload whose table and query shape it is measured on.
    pub home: &'static str,
}

const fn l(name: &'static str, unit: &'static str, better: Better, home: &'static str) -> Layer {
    Layer { name, unit, better, home }
}

const CPR: &str = "cycles/row";

/// What each home group's layer metrics should move, and where the
/// prediction is "no change".
pub const GROUP_MOVES: [(&str, &str); 5] = [
    (
        Q1_SCAN,
        "cycles_per_row / rows_per_s on q1_scan (diluted on serving_q1_2c); predicted no change \
         on filter_sweep and encoded_ops",
    ),
    (
        FILTER_SWEEP,
        "cycles_per_row on filter_sweep; at most a 12 % share on q1_scan; none on encoded_ops",
    ),
    (
        ENCODED_OPS,
        "cycles_per_row / latency_p95_ms on encoded_ops; the fixed-cost rows also move \
         serving_q1_2c slightly; none on q1_scan",
    ),
    (SERVING, "rows_per_s / latency_p95_ms on serving_q1_2c only"),
    (INGEST, "rows_per_s on ingest_flush, setup_s everywhere, encoded_bytes_per_row everywhere"),
];

pub const PER_LAYER: [Layer; 114] = [
    // ---- measured on the q1_scan shape (LINEITEM, Q1) ----
    l("toolbox.bitpack.unpack_b7_u8.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.bitpack.unpack_b14_u16.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.bitpack.unpack_b21_u32.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.bitpack.unpack_b28_u32.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.radix.fused_scale_add_u8.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.select.special_group.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.scalar.sum_single_array_u32.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.in_register.count_g4.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.in_register.sum_u16_g4.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.sort_based.bucket_sort_g4.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.sort_based.sum_sorted_packed_b14_g4.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("toolbox.agg.multi.sum_multi_c8_g4.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.filter.eval_batch.q1.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.groupid.plan_segment_mapper.q1.us", "us", Lower, Q1_SCAN),
    l("core.groupid.extract_batch.q1.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.expr.eval_batch.q1_charge.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.aggproc.process_batch.q1.scalar.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.aggproc.process_batch.q1.sort_based.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.aggproc.process_batch.q1.in_register.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.aggproc.process_batch.q1.multi_aggregate.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.aggproc.finish.q1.us", "us", Lower, Q1_SCAN),
    l("core.scan.scan_table.q1.cycles_per_row", CPR, Lower, Q1_SCAN),
    l("core.scan.replay_residual_pct.q1", "%", Lower, Q1_SCAN),
    l("core.query.plan_finalize.q1.us", "us", Lower, Q1_SCAN),
    l("tpch.q1.q1_rows.us", "us", Lower, Q1_SCAN),
    l("core.strategy.regret_pct.q1", "%", Lower, Q1_SCAN),
    l("core.governor.active_overhead_pct.q1", "%", Lower, Q1_SCAN),
    l("core.trace.counters_overhead_pct.q1", "%", Lower, Q1_SCAN),
    l("core.trace.spans_overhead_pct.q1", "%", Lower, Q1_SCAN),
    l("core.trace.phase.plan.cycles_per_row.q1", CPR, Lower, Q1_SCAN),
    l("core.trace.phase.selection.cycles_per_row.q1", CPR, Lower, Q1_SCAN),
    l("core.trace.phase.unpack.cycles_per_row.q1", CPR, Lower, Q1_SCAN),
    l("core.trace.phase.aggregation.cycles_per_row.q1", CPR, Lower, Q1_SCAN),
    l("core.pool.parallel_speedup.q1", "x", Higher, Q1_SCAN),
    l("core.stats.morsels_scanned.q1_parallel", "count", Lower, Q1_SCAN),
    l("core.stats.morsel_steals.q1_parallel", "count", Lower, Q1_SCAN),
    l("machine.stream_read_gb_s", "GB/s", Higher, Q1_SCAN),
    l("machine.tsc_hz", "Hz", Higher, Q1_SCAN),
    l("bench.scan_fraction_of_stream.q1", "ratio", Higher, Q1_SCAN),
    l("tpch.lineitem.generate.rows_per_s", "rows/s", Higher, Q1_SCAN),
    l("bench.trace_overhead_pct", "%", Lower, Q1_SCAN),
    // ---- measured on the filter_sweep shape ----
    l("toolbox.cmp.lt_u16.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.cmp.between_u32.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.selvec.count_selected.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.select.compact_indices_s10.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.select.compact_indices_s50.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.select.gather_unpack_b14_s2.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.select.gather_unpack_b28_s2.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.agg.in_register.sum_u32_g12.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.agg.sort_based.sum_sorted_packed_b14_g12.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("toolbox.agg.multi.sum_multi_c2_g12.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.filter.eval_batch.sweep.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.groupid.extract_batch.sweep.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep2.gather.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep2.compact.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep2.special_group.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep30.gather.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep30.compact.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.aggproc.process_batch.sweep30.special_group.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.query.execute.sweep_s0p2.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.query.execute.sweep_s2.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.query.execute.sweep_s10.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.query.execute.sweep_s30.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.query.execute.sweep_s60.cycles_per_row", CPR, Lower, FILTER_SWEEP),
    l("core.strategy.choose_agg.ns", "ns", Lower, FILTER_SWEEP),
    l("core.strategy.choose_selection.ns", "ns", Lower, FILTER_SWEEP),
    l("core.strategy.regret_pct.sweep", "%", Lower, FILTER_SWEEP),
    l("core.stats.selection_batches.gather", "count", Lower, FILTER_SWEEP),
    l("core.stats.selection_batches.compact", "count", Lower, FILTER_SWEEP),
    l("core.stats.selection_batches.special_group", "count", Lower, FILTER_SWEEP),
    l("core.stats.selection_batches.run_span", "count", Lower, FILTER_SWEEP),
    l("core.stats.agg_segments.scalar", "count", Lower, FILTER_SWEEP),
    l("core.stats.agg_segments.sort_based", "count", Lower, FILTER_SWEEP),
    l("core.stats.agg_segments.in_register", "count", Lower, FILTER_SWEEP),
    l("core.stats.agg_segments.multi_aggregate", "count", Lower, FILTER_SWEEP),
    l("core.stats.agg_segments.run_wise", "count", Lower, FILTER_SWEEP),
    // ---- measured on the encoded_ops shapes ----
    l("toolbox.runspan.sum_runs_spans.cycles_per_run", "cycles/run", Lower, ENCODED_OPS),
    l("toolbox.runspan.filter_codes_bitset.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("toolbox.runspan.intersect_spans.cycles_per_span", "cycles/span", Lower, ENCODED_OPS),
    l("columnstore.encoding.decode_bitpack.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("columnstore.encoding.decode_dict.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("columnstore.encoding.decode_rle.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("columnstore.encoding.decode_delta.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("core.filter.eval_batch_spans.rle.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("core.filter.eval_batch.delta_sorted.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("core.filter.eval_batch.dict_bitset.cycles_per_row", CPR, Lower, ENCODED_OPS),
    l("core.query.execute.rle.us", "us", Lower, ENCODED_OPS),
    l("core.query.execute.delta.us", "us", Lower, ENCODED_OPS),
    l("core.query.execute.dict.us", "us", Lower, ENCODED_OPS),
    l("core.stats.segments_eliminated.encoded_ops", "count", Higher, ENCODED_OPS),
    l("core.stats.rows_scanned.encoded_ops", "count", Lower, ENCODED_OPS),
    l("core.stats.bytes_scanned.encoded_ops", "count", Lower, ENCODED_OPS),
    l("core.engine.admission.us", "us", Lower, ENCODED_OPS),
    l("core.engine.reserve_release.ns", "ns", Lower, ENCODED_OPS),
    l("core.telemetry.snapshot_prometheus.us", "us", Lower, ENCODED_OPS),
    // ---- measured on the serving_q1_2c shape ----
    l("core.pool.run_empty.us", "us", Lower, SERVING),
    l("core.pool.sched.dispatches", "count", Lower, SERVING),
    l("core.pool.sched.switches", "count", Lower, SERVING),
    l("core.stats.morsels_scanned.serving", "count", Lower, SERVING),
    l("core.stats.morsel_steals.serving", "count", Lower, SERVING),
    l("core.engine.sheds", "count", Lower, SERVING),
    l("bench.client_imbalance_pct", "%", Lower, SERVING),
    // ---- measured on the ingest_flush shape ----
    l("toolbox.bitpack.pack_b14.cycles_per_row", CPR, Lower, INGEST),
    l("columnstore.encoding.encode_auto.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.encoding.encode_bitpack.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.encoding.encode_dict.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.encoding.encode_rle.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.encoding.encode_delta.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.table.insert.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.table.flush_mutable.rows_per_s", "rows/s", Higher, INGEST),
    l("columnstore.batch.morsel_claim.ns", "ns", Lower, INGEST),
    l("core.engine.register_table.us", "us", Lower, INGEST),
    l("core.query.execute.tail.us", "us", Lower, INGEST),
    l("core.stats.mutable_rows.ingest", "count", Lower, INGEST),
];

/// `run_seconds` in `BENCHMARK.json`: the timed window of one run.
pub const RUN_SECONDS: u32 = 10;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut pairs = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        if let Some(b) = bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        ("command", Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m.name, m.unit, m.better, None)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?} ({} chars)", n.len());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (unit, name) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.name))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.name)))
        {
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
    }

    #[test]
    fn bounds_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for m in &PER_LAYER {
            assert!(workload(m.home).is_some(), "{} has no home workload", m.name);
        }
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json().to_pretty(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- list --json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
