//! `EXPLAIN ANALYZE` for TPC-H Q1 (DESIGN.md §9): run the query with
//! profiling at `Spans` and render where the cycles went and why the
//! engine specialized the way it did — per-segment scan ranges, the
//! aggregation decision each segment executor made (with the chooser's
//! inputs), and per-selection-strategy batch rollups with cycles/row.
//!
//! ```sh
//! cargo run --release --example explain              # SF 0.05, Spans
//! BIPIE_TPCH_SF=0.5 cargo run --release --example explain
//! BIPIE_PROFILE=counters cargo run --release --example explain
//! ```

use bipie::core::{ProfileLevel, QueryOptions};
use bipie::tpch::{q1_rows, run_q1_result, LineItemGen};
use std::time::Instant;

fn main() {
    let sf: f64 = std::env::var("BIPIE_TPCH_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(0.05);
    let profile = match std::env::var("BIPIE_PROFILE").as_deref() {
        Ok("counters") => ProfileLevel::Counters,
        Ok("off") => ProfileLevel::Off,
        _ => ProfileLevel::Spans,
    };

    println!("generating LINEITEM at scale factor {sf} ...");
    let table = LineItemGen { scale_factor: sf, ..Default::default() }.generate();
    println!("  {} rows in {} segment(s)", table.num_rows(), table.segments().len());

    let options = QueryOptions { profile, ..QueryOptions::default() };
    let t0 = Instant::now();
    let result = run_q1_result(&table, options).expect("Q1 runs");
    let elapsed = t0.elapsed();

    println!("\n{}", result.profile.render_explain(&result.stats));
    println!("query returned {} group(s) in {elapsed:.2?}", q1_rows(&result).len());
}
