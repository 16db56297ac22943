//! Integration coverage for the paths around the narrow-group fast lane:
//! the wide-group (u32 remap) fallback, the narrow/wide boundary, overflow
//! rejection, and error surfaces of the public API.

mod common;

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, TableBuilder, Value};
use bipie::core::{execute, AggExpr, EngineError, Expr, Predicate, QueryBuilder, QueryOptions};
use common::{assert_matches_reference, threads, Col, Grid, Shape};

fn wide_table(distinct: i64, rows: i64) -> bipie::columnstore::Table {
    let mut b = TableBuilder::with_segment_rows(
        vec![ColumnSpec::new("key", LogicalType::I64), ColumnSpec::new("v", LogicalType::I64)],
        (rows as usize / 2).max(10),
    );
    for i in 0..rows {
        // Scattered wide keys -> not narrow-mappable.
        b.push_row(vec![Value::I64((i % distinct) * 1_000_003), Value::I64(i % 500)]);
    }
    b.finish()
}

#[test]
fn wide_group_fallback_matches_reference() {
    let t = wide_table(1000, 6000);
    let q = QueryBuilder::new()
        .filter(Predicate::ge("v", Value::I64(100)))
        .group_by("key")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .aggregate(AggExpr::min("v"))
        .aggregate(AggExpr::max_expr(Expr::col("v").mul(Expr::lit(2))))
        .build();
    let fast = assert_matches_reference(&t, &q, &Grid::default(), "wide").remove(0).1;
    // v correlates with the key (both derive from i), so keys whose rows
    // all have v < 100 drop out: 1000 keys minus the 200 with residue < 100.
    assert_eq!(fast.num_rows(), 800);
    assert!(fast.stats.wide_group_segments > 0, "{:?}", fast.stats);
}

/// A wide batch runs the protocol every sink runs: its aggregation is one
/// `Aggregation` span per batch, labelled `agg = Scalar`, and those spans
/// cover every row the scan visited — at one worker and at two.
#[test]
#[expect(clippy::disallowed_types, reason = "reads finished trace events")]
fn wide_batches_are_aggregation_spans_labelled_scalar() {
    use bipie::core::{AggStrategy, Phase, ProfileLevel, TraceEvent};
    let t = wide_table(1000, 6000);
    let q = QueryBuilder::new()
        .group_by("key")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .options(QueryOptions { profile: ProfileLevel::Spans, ..Default::default() })
        .build();
    let grid = Grid { batch_rows: vec![1024], ..Grid::workers(&[1, 2]) };
    for (options, r) in assert_matches_reference(&t, &q, &grid, "wide spans") {
        let threads = options.threads.unwrap();
        assert_eq!(r.stats.wide_group_segments, r.stats.segments_scanned, "{:?}", r.stats);
        if bipie::core::observability_compiled_out() {
            continue;
        }
        let phase = r.profile.phase(Phase::Aggregation);
        assert_eq!(phase.rows, r.stats.rows_scanned as u64, "threads={threads}");
        assert_eq!(phase.count, r.stats.batches as u64, "threads={threads}");
        let mut spans = 0;
        for event in &r.profile.events {
            if let TraceEvent::Span { phase: Phase::Aggregation, loc, .. } = event {
                assert_eq!(loc.agg, Some(AggStrategy::Scalar), "threads={threads}");
                spans += 1;
            }
        }
        assert_eq!(spans, r.stats.batches, "threads={threads}");
    }
}

#[test]
fn narrow_wide_boundary() {
    // 254 distinct dense group values: narrow (needs 254 + special <= 256).
    let narrow = wide_table_dense(254);
    let q = QueryBuilder::new().group_by("key").aggregate(AggExpr::count_star()).build();
    let r = execute(&narrow, &q).unwrap();
    assert_eq!(r.num_rows(), 254);
    assert_eq!(r.stats.wide_group_segments, 0, "{:?}", r.stats);

    // 300 distinct: beyond the u8 domain -> wide fallback, same answers.
    let wide = wide_table_dense(300);
    let r = assert_matches_reference(&wide, &q, &Grid::default(), "300 keys").remove(0).1;
    assert_eq!(r.num_rows(), 300);
    assert!(r.stats.wide_group_segments > 0, "{:?}", r.stats);
}

fn wide_table_dense(distinct: i64) -> bipie::columnstore::Table {
    let mut b = TableBuilder::with_segment_rows(
        vec![ColumnSpec::new("key", LogicalType::I64).with_hint(EncodingHint::BitPack)],
        1 << 20,
    );
    for i in 0..distinct * 4 {
        b.push_row(vec![Value::I64(i % distinct)]);
    }
    b.finish()
}

#[test]
fn sum_overflow_rejected_min_max_allowed() {
    let v = Col::int("v", i64::MAX / 64, i64::MAX / 64 + 99);
    let t = Shape { cols: vec![v], ..Shape::new(&[100], 1, 0) }.build();
    // Summing 100 values near i64::MAX/64 could overflow: rejected upfront.
    let q = QueryBuilder::new().aggregate(AggExpr::sum("v")).build();
    assert!(matches!(execute(&t, &q), Err(EngineError::PotentialOverflow { aggregate: 0 })));
    // MIN/MAX never accumulate: the same column is fine.
    let q = QueryBuilder::new()
        .aggregate(AggExpr::min("v"))
        .aggregate(AggExpr::max("v"))
        .aggregate(AggExpr::count_star())
        .build();
    let r = execute(&t, &q).unwrap();
    assert_eq!(r.rows[0].aggs[2], bipie::core::query::AggValue::Count(100));
    // But a MIN/MAX over an expression that itself overflows is rejected.
    let q = QueryBuilder::new()
        .aggregate(AggExpr::max_expr(Expr::col("v").mul(Expr::col("v"))))
        .build();
    assert!(matches!(execute(&t, &q), Err(EngineError::PotentialOverflow { .. })));
}

/// Rows in the mutable region get the segments' overflow proofs: three
/// values of `i64::MAX / 2` fail a `SUM` and an out-of-range `MAX`
/// expression with the same typed error whether they sit in the tail or
/// were flushed, serially and on four workers. (The engine is compared
/// with itself: the reference's own row sum overflows too.)
#[test]
fn tail_overflow_is_the_same_typed_error_as_flushed() {
    let shape =
        Shape { cols: vec![Col::int("v", i64::MAX / 2, i64::MAX / 2)], ..Shape::new(&[], 1, 0) };
    let tail = Shape { tail: 3, ..shape.clone() }.build();
    assert!(tail.segments().is_empty());
    let flushed = Shape { segments: vec![3], ..shape }.build();
    for agg in [AggExpr::sum("v"), AggExpr::max_expr(Expr::col("v").mul(Expr::lit(4)))] {
        for options in [threads(1), threads(4)] {
            let q = QueryBuilder::new()
                .aggregate(AggExpr::count_star())
                .aggregate(agg.clone())
                .options(options)
                .build();
            let from_tail = execute(&tail, &q).unwrap_err();
            assert_eq!(from_tail, EngineError::PotentialOverflow { aggregate: 0 });
            assert_eq!(from_tail, execute(&flushed, &q).unwrap_err());
        }
    }
}

#[test]
fn api_error_surfaces() {
    let t = wide_table(10, 100);
    // Unknown columns in every position.
    for q in [
        QueryBuilder::new().group_by("nope").aggregate(AggExpr::count_star()).build(),
        QueryBuilder::new().aggregate(AggExpr::sum("nope")).build(),
        QueryBuilder::new().aggregate(AggExpr::min("nope")).build(),
        QueryBuilder::new()
            .filter(Predicate::eq("nope", Value::I64(0)))
            .aggregate(AggExpr::count_star())
            .build(),
    ] {
        assert!(matches!(execute(&t, &q), Err(EngineError::UnknownColumn(_))), "{q:?}");
    }
    // Type errors.
    let mut b = TableBuilder::new(vec![
        ColumnSpec::new("s", LogicalType::Str),
        ColumnSpec::new("v", LogicalType::I64),
    ]);
    b.push_row(vec![Value::Str("x".into()), Value::I64(1)]);
    let t = b.finish();
    for q in [
        QueryBuilder::new().aggregate(AggExpr::sum("s")).build(),
        QueryBuilder::new().aggregate(AggExpr::max("s")).build(),
        QueryBuilder::new()
            .filter(Predicate::lt("s", Value::I64(3)))
            .aggregate(AggExpr::count_star())
            .build(),
        QueryBuilder::new()
            .filter(Predicate::between("s", Value::I64(0), Value::I64(1)))
            .aggregate(AggExpr::count_star())
            .build(),
    ] {
        assert!(matches!(execute(&t, &q), Err(EngineError::TypeMismatch { .. })), "{q:?}");
    }
}

#[test]
fn empty_table_and_all_deleted() {
    let t = TableBuilder::new(vec![ColumnSpec::new("v", LogicalType::I64)]).finish();
    let q = QueryBuilder::new().aggregate(AggExpr::count_star()).build();
    let r = execute(&t, &q).unwrap();
    assert_eq!(r.num_rows(), 0);

    let shape =
        Shape { cols: vec![Col::int("v", 0, 9)], delete_stride: 1, ..Shape::new(&[10], 1, 0) };
    let r = execute(&shape.build(), &q).unwrap();
    assert_eq!(r.num_rows(), 0, "all rows deleted -> no groups");
}

#[test]
fn group_by_every_encoding_matches_reference() {
    // The group-by column itself flows through each forced encoding.
    for hint in [EncodingHint::BitPack, EncodingHint::Dict, EncodingHint::Rle, EncodingHint::Delta]
    {
        let cols = vec![Col { hint, ..Col::int("g", 0, 5) }, Col::int("v", 0, 1999)];
        let t = Shape { cols, ..Shape::new(&[700, 700, 600], 6, 1) }.build();
        let q = QueryBuilder::new()
            .filter(Predicate::lt("v", Value::I64(1500)))
            .group_by("g")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("v"))
            .build();
        let fast = assert_matches_reference(&t, &q, &Grid::default(), &format!("{hint:?}"));
        assert_eq!(fast[0].1.num_rows(), 6);
    }
}
