//! Layer metrics measured on the `encoded_ops` shapes: the compression-aware
//! paths (run spans over RLE, monotonic pruning over sorted delta,
//! dictionary id-bitsets), the decoders they avoid, and the per-query fixed
//! costs that show on queries this short.

use std::sync::Arc;

use bipie_columnstore::encoding::encode_ints;
use bipie_columnstore::{BatchCursor, Table, BATCH_ROWS};
use bipie_core::filter::FilterScratch;
use bipie_core::{telemetry, Engine, ExecStats, Query, SessionOptions};
use bipie_toolbox::runspan::{enc_filter_codes_bitset, enc_intersect_spans, enc_sum_runs_spans};
use bipie_toolbox::RunSpanVec;

use super::{batches, interleaved_medians, Probe, Variant};
use crate::gen;

pub fn measure(p: &mut Probe<'_>) -> Result<(), String> {
    kernels(p);
    decoders(p);
    engine(p)
}

fn kernels(p: &mut Probe<'_>) {
    let (n, seed) = (p.scale.kernel_elems, p.seed);

    // Runs of 16 rows; one full-batch span per batch window, as the run-wise
    // executor is fed when every row passes.
    const RUN: usize = 16;
    let runs = n / RUN;
    let values: Vec<i64> = gen::values(runs, 20, seed).into_iter().map(|v| v as i64).collect();
    let ends: Vec<u32> = (1..=runs).map(|r| (r * RUN) as u32).collect();
    let mut full = RunSpanVec::new();
    full.set_full(BATCH_ROWS);
    let covered = runs * RUN;
    p.per_row("toolbox.runspan.sum_runs_spans.cycles_per_run", runs, || {
        let mut total = 0i64;
        for start in (0..covered).step_by(BATCH_ROWS) {
            if start + BATCH_ROWS <= covered {
                total = total.wrapping_add(enc_sum_runs_spans(&values, &ends, start, full.spans()));
            }
        }
        std::hint::black_box(total);
    });

    let codes: Vec<u32> = gen::values(n, 8, seed).into_iter().map(|v| v as u32).collect();
    let bitset: Vec<u64> = gen::values(4, 64, seed);
    let mut mask = vec![0u8; n];
    p.per_row("toolbox.runspan.filter_codes_bitset.cycles_per_row", n, || {
        batches(n, |s, l| enc_filter_codes_bitset(&codes[s..s + l], &bitset, &mut mask[s..s + l]));
        std::hint::black_box(&mask);
    });

    // Two span lists of 8-row spans every 16 rows, offset by 4: every span
    // of one overlaps one span of the other.
    let (mut a, mut b, mut out) = (RunSpanVec::new(), RunSpanVec::new(), RunSpanVec::new());
    for start in (0..n as u32 - 16).step_by(16) {
        a.push(start, 8);
        b.push(start + 4, 8);
    }
    let spans = a.num_spans() + b.num_spans();
    p.per_row("toolbox.runspan.intersect_spans.cycles_per_span", spans, || {
        enc_intersect_spans(a.spans(), b.spans(), &mut out);
        std::hint::black_box(out.num_spans());
    });
}

/// `EncodedColumn::decode_i64_into`, batch window by batch window, on data
/// each encoding is made for.
fn decoders(p: &mut Probe<'_>) {
    let n = p.scale.kernel_elems;
    let mut out = vec![0i64; BATCH_ROWS];
    for (name, hint, data) in gen::encoding_inputs(n, p.seed) {
        let column = encode_ints(&data, hint);
        p.per_row(format!("columnstore.encoding.decode_{name}.cycles_per_row"), n, || {
            batches(n, |s, l| column.decode_i64_into(s, &mut out[..l]));
            std::hint::black_box(&out);
        });
    }
}

fn engine(p: &mut Probe<'_>) -> Result<(), String> {
    let (rows, seed, level, reps) = (p.scale.probe_encoded_rows, p.seed, p.level, p.reps());
    let rle = gen::rle_shape(rows, p.scale.rle_run_len, seed);
    let delta = gen::delta_shape(rows, seed);
    let dict = gen::dict_shape(rows, p.scale.dict_cardinality, seed);

    // The predicate alone, over every batch window of the table.
    let mut fscratch = FilterScratch::default();
    let resolve = |table: &Table, query: &Query| {
        let filter = query.filter.as_ref().ok_or("shape without a filter")?;
        filter.resolve(table).map_err(|e| e.to_string())
    };
    let pred = resolve(&rle.table, &rle.query)?;
    let mut spans = RunSpanVec::new();
    p.per_row("core.filter.eval_batch_spans.rle.cycles_per_row", rows, || {
        for seg in rle.table.segments() {
            debug_assert!(pred.span_eligible(seg));
            for b in BatchCursor::new(seg.num_rows()) {
                pred.eval_batch_spans(seg, b.start, b.len, &mut spans, &mut fscratch);
            }
        }
        std::hint::black_box(spans.num_spans());
    });
    let mut mask = vec![0u8; BATCH_ROWS];
    for (shape, name) in [
        (&delta, "core.filter.eval_batch.delta_sorted.cycles_per_row"),
        (&dict, "core.filter.eval_batch.dict_bitset.cycles_per_row"),
    ] {
        let pred = resolve(&shape.table, &shape.query)?;
        p.per_row(name, rows, || {
            for seg in shape.table.segments() {
                for b in BatchCursor::new(seg.num_rows()) {
                    pred.eval_batch(seg, b.start, &mut mask[..b.len], &mut fscratch, level);
                }
            }
            std::hint::black_box(&mask);
        });
    }

    // Whole queries, and one round's exact counts.
    let mut round = ExecStats::default();
    for shape in [&rle, &delta, &dict] {
        p.micros(format!("core.query.execute.{}.us", shape.label), || {
            std::hint::black_box(bipie_core::execute(&shape.table, &shape.query).ok());
        });
        let r = bipie_core::execute(&shape.table, &shape.query).map_err(|e| e.to_string())?;
        round.merge(&r.stats);
    }
    p.put("core.stats.segments_eliminated.encoded_ops", round.segments_eliminated as f64);
    p.put("core.stats.rows_scanned.encoded_ops", round.rows_scanned as f64);
    p.put("core.stats.bytes_scanned.encoded_ops", round.bytes_scanned as f64);

    // Per-query fixed cost of the serving layer: Session::execute minus
    // query::execute on the shortest query (table lookup, quota clamps,
    // admission, tag, scheduler-stats publication). The engine owns its own
    // copy of the table, generated from the same seed.
    let engine = Engine::with_defaults();
    engine.register_table("rle", gen::rle_shape(rows, p.scale.rle_run_len, seed).table);
    let session = engine.session(SessionOptions::default());
    // Enough executions per sample that a 25 µs query is timed in milliseconds.
    const INNER: usize = 50;
    let mut variants: Vec<Variant<'_>> = vec![
        Box::new(|| {
            for _ in 0..INNER {
                std::hint::black_box(session.execute("rle", &rle.query).ok());
            }
        }),
        Box::new(|| {
            for _ in 0..INNER {
                std::hint::black_box(bipie_core::execute(&rle.table, &rle.query).ok());
            }
        }),
    ];
    let m = interleaved_medians(reps, &mut variants);
    drop(variants);
    let us = p.cycles_to_us((m[0] - m[1]) / INNER as f64);
    p.put("core.engine.admission.us", us);

    let engine: &Arc<Engine> = &engine;
    p.nanos_each("core.engine.reserve_release.ns", 2_000, || {
        drop(std::hint::black_box(engine.reserve(1 << 20).ok()));
    });
    p.micros("core.telemetry.snapshot_prometheus.us", || {
        std::hint::black_box(telemetry().registry().render_prometheus());
    });
    Ok(())
}
