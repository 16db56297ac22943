//! Layer metrics measured on the `ingest_flush` shape: the columnstore used
//! as an encoder, and the scan of a table with a mutable tail.

use std::time::Instant;

use bipie_columnstore::encoding::{encode_ints, encode_strings, EncodingHint};
use bipie_columnstore::{MorselCursor, Table, Value, MORSEL_ROWS};
use bipie_core::Engine;
use bipie_toolbox::bitpack::PackedVec;
use bipie_tpch::{lineitem_specs, q1_query};

use super::Probe;
use crate::gen;
use crate::stats::median;

pub fn measure(p: &mut Probe<'_>) -> Result<(), String> {
    let (n, seed, reps) = (p.scale.kernel_elems, p.seed, p.reps());

    let v14 = gen::values(n, 14, seed);
    p.per_row("toolbox.bitpack.pack_b14.cycles_per_row", n, || {
        std::hint::black_box(PackedVec::pack(&v14, 14));
    });

    // Each forced encoder on data it is made for; rows per second.
    for (name, hint, data) in gen::encoding_inputs(n, seed) {
        p.per_second(format!("columnstore.encoding.encode_{name}.rows_per_s"), n, || {
            std::hint::black_box(encode_ints(&data, hint));
        });
    }

    // The automatic chooser over every LINEITEM column of the rows an
    // ingest op inserts — what one flush encodes.
    let rows = gen::lineitem_rows(p.scale.ingest_rows(), seed);
    let specs = lineitem_specs();
    let int_cols: Vec<Vec<i64>> = (0..specs.len())
        .filter_map(|c| rows.iter().map(|r| r[c].as_storage_i64()).collect())
        .collect();
    let str_cols: Vec<Vec<&str>> =
        (0..specs.len()).filter_map(|c| rows.iter().map(|r| r[c].as_str()).collect()).collect();
    p.per_second("columnstore.encoding.encode_auto.rows_per_s", rows.len(), || {
        for col in &int_cols {
            std::hint::black_box(encode_ints(col, EncodingHint::Auto));
        }
        for col in &str_cols {
            std::hint::black_box(encode_strings(col));
        }
    });

    // Insert without a flush (the segment never fills), then the flush alone.
    let (mut insert_secs, mut flush_secs) = (Vec::new(), Vec::new());
    for _ in 0..=reps {
        let batch: Vec<Vec<Value>> = rows.clone();
        let mut table = Table::with_segment_rows(specs.clone(), usize::MAX);
        let t = Instant::now();
        for row in batch {
            table.insert(row);
        }
        insert_secs.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        table.flush_mutable();
        flush_secs.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&table);
    }
    // The first pass is the warm-up.
    let rate = |secs: Vec<f64>, rows: usize| rows as f64 / median(&secs);
    p.put("columnstore.table.insert.rows_per_s", rate(insert_secs.split_off(1), rows.len()));
    p.put("columnstore.table.flush_mutable.rows_per_s", rate(flush_secs.split_off(1), rows.len()));

    // A cursor that cannot run dry within the timed claims.
    let cursor = MorselCursor::new(usize::MAX / 2, MORSEL_ROWS);
    p.nanos_each("columnstore.batch.morsel_claim.ns", 10_000, || {
        std::hint::black_box(cursor.claim());
    });

    // Replacing a registered table: one prebuilt table per timed call.
    let engine = Engine::with_defaults();
    let mut prebuilt: Vec<Table> =
        (0..=reps).map(|_| gen::ingest_table(rows.clone(), p.scale.ingest_segment_rows)).collect();
    p.micros("core.engine.register_table.us", || {
        if let Some(table) = prebuilt.pop() {
            engine.register_table("ingest", table);
        }
    });

    // Q1 over two small segments plus the mutable tail.
    let table = gen::ingest_table(rows.clone(), p.scale.ingest_segment_rows);
    let query = q1_query(gen::serial());
    p.micros("core.query.execute.tail.us", || {
        std::hint::black_box(bipie_core::execute(&table, &query).ok());
    });
    let r = bipie_core::execute(&table, &query).map_err(|e| e.to_string())?;
    p.put("core.stats.mutable_rows.ingest", r.stats.mutable_rows as f64);
    Ok(())
}
