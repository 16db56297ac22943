//! Real-time analytics over a changing table — the workload that motivates
//! BIPie (§2): a stream of writes lands in the uncompressed mutable region
//! while analytical queries scan the encoded immutable segments, deleted
//! rows are masked out by the scan, and a flush compresses the mutable
//! region into a new segment.
//!
//! ```sh
//! cargo run --release --example realtime_analytics
//! ```

use bipie::columnstore::{ColumnSpec, Date, LogicalType, Table, Value};
use bipie::core::{execute, AggExpr, Predicate, QueryBuilder};
use bipie::toolbox::rng::Rng;

fn order_row(rng: &mut Rng, day: i32) -> Vec<Value> {
    let status = ["placed", "shipped", "delivered"][rng.random_range(0..3)];
    vec![
        Value::Str(status.into()),
        Value::Date(Date::from_ymd(2026, 1, 1).plus_days(day)),
        Value::Decimal(rng.random_range(500..50_000)), // $5 .. $500
    ]
}

fn revenue_by_status(table: &Table, since_day: i32) -> Vec<(String, u64, f64)> {
    let query = QueryBuilder::new()
        .filter(Predicate::ge("day", Value::Date(Date::from_ymd(2026, 1, 1).plus_days(since_day))))
        .group_by("status")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("amount"))
        .build();
    let result = execute(table, &query).expect("query runs");
    result
        .rows
        .iter()
        .map(|r| {
            (
                r.keys[0].to_string(),
                r.aggs[0].as_count().unwrap(),
                r.aggs[1].as_sum().unwrap() as f64 / 100.0,
            )
        })
        .collect()
}

fn main() {
    let mut table = Table::with_segment_rows(
        vec![
            ColumnSpec::new("status", LogicalType::Str),
            ColumnSpec::new("day", LogicalType::Date),
            ColumnSpec::new("amount", LogicalType::Decimal),
        ],
        200_000,
    );
    let mut rng = Rng::seed_from_u64(7);

    // Bulk history: 400k orders over 60 days -> two encoded segments.
    for i in 0..400_000i32 {
        table.insert(order_row(&mut rng, i % 60));
    }
    table.flush_mutable();
    println!(
        "history loaded: {} rows in {} immutable segments",
        table.num_rows(),
        table.segments().len()
    );

    // A real-time trickle lands in the mutable region.
    for _ in 0..5_000 {
        table.insert(order_row(&mut rng, 60));
    }
    println!("streamed 5k fresh orders into the mutable region");

    // Analytical query sees both regions instantly.
    println!("\nrevenue by status, last 10 days (immutable + mutable):");
    for (status, count, revenue) in revenue_by_status(&table, 51) {
        println!("  {status:10} {count:7} orders  ${revenue:>12.2}");
    }

    // Deletes mark rows in the immutable region; scans mask them out.
    let canceled: Vec<usize> = (0..2_000).map(|i| i * 97 % 200_000).collect();
    for row in canceled {
        table.delete_row(0, row);
    }
    println!("\ncanceled ~2k orders in segment 0 (marked deleted, not rewritten)");
    let total_after: u64 = revenue_by_status(&table, 0).iter().map(|(_, c, _)| *c).sum();
    println!("orders visible to queries now: {total_after}");

    // The background flush compresses the mutable region into a segment.
    table.flush_mutable();
    println!(
        "\nafter flush: {} segments, mutable region empty ({} rows pending)",
        table.segments().len(),
        table.mutable_rows().len()
    );
    println!("\nrevenue by status, day 60 only (freshly flushed segment):");
    for (status, count, revenue) in revenue_by_status(&table, 60) {
        println!("  {status:10} {count:7} orders  ${revenue:>12.2}");
    }
}
