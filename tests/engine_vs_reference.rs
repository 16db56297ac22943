//! Whole-engine equivalence: arbitrary tables, encodings, filters, and
//! aggregate expressions produce identical results through the vectorized
//! BIPie engine and the naive row-at-a-time reference executor — including
//! deleted rows, multi-segment tables, the mutable region, and every
//! forced (selection × aggregation) strategy combination.

mod common;

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, Table, Value};
use bipie::core::{AggExpr, Expr, Predicate, Query, QueryBuilder};
use bipie::toolbox::SimdLevel;
use common::{
    arb_shape, assert_matches_reference, every_forced_pair, kab_query, run_cases, Grid, Shape,
};

/// The shared grouped query plus a plain SUM and a plain MAX.
fn query(threshold: i64) -> Query {
    let mut q = kab_query(threshold);
    q.aggregates.extend([AggExpr::sum("b"), AggExpr::max("a")]);
    q
}

/// `arb_shape` tables at an eighth of their segment rows, with string keys,
/// adaptive and under one drawn forced pair at one drawn tier. The pair,
/// tier and threshold are drawn first, so case `i` builds another table
/// than `randomized_shapes_agree`'s case `i`.
#[test]
fn engine_equals_reference() {
    run_cases("engine_equals_reference", 48, |g| {
        let grid = Grid {
            forced: vec![(None, None), *g.pick(&every_forced_pair())],
            levels: vec![*g.pick(&SimdLevel::available())],
            ..Grid::default()
        };
        let threshold = g.int(-6000i64..6000);
        let mut shape = arb_shape(g);
        shape.segments.iter_mut().for_each(|rows| *rows = rows.div_ceil(8));
        shape.cols[0].strings = true;
        let label = format!("{shape:?} threshold={threshold}");
        assert_matches_reference(&shape.build(), &query(threshold), &grid, &label);
    });
}

#[test]
fn every_forced_combination_equals_reference() {
    let grid = Grid { forced: every_forced_pair(), ..Grid::default() };
    run_cases("every_forced_combination_equals_reference", 48, |g| {
        let threshold = g.int(-6000i64..6000);
        let mut shape =
            Shape { tail: 7, delete_stride: 97, ..Shape::new(&[256, 256, 188], 5, g.rng.random()) }
                .hints([EncodingHint::Auto, EncodingHint::BitPack, EncodingHint::BitPack]);
        shape.cols[0].strings = true;
        let label = format!("{shape:?} threshold={threshold}");
        assert_matches_reference(&shape.build(), &query(threshold), &grid, &label);
    });
}

/// The tail, scanned as the segment a query encodes it into, against the
/// oracle's own row walk: a table that is only tail, and one whose tail is
/// longer than a batch and introduces groups no segment holds. The tail's
/// group column holds 23 distinct strings, more than the 16 its interner
/// finds by comparison before it hashes. The query carries what the tail's
/// segment program compiles from the resolved plan: a string equality and
/// an integer BETWEEN, MIN/MAX, and Q1's shared sub-expression (`charge`
/// reusing `disc_price`).
#[test]
fn mutable_tail_equals_reference() {
    let specs = || {
        vec![
            ColumnSpec::new("flag", LogicalType::Str),
            ColumnSpec::new("status", LogicalType::Str),
            ColumnSpec::new("price", LogicalType::I64),
            ColumnSpec::new("disc", LogicalType::I64),
            ColumnSpec::new("tax", LogicalType::I64),
        ]
    };
    let row = |i: i64, flags: &[&str]| {
        vec![
            Value::Str(flags[(i * 7 % flags.len() as i64) as usize].into()),
            Value::Str(["F", "O"][(i % 3 == 0) as usize].into()),
            Value::I64(90_000 + i * 37 % 1000),
            Value::I64(i % 11),
            Value::I64(i * 5 % 9),
        ]
    };
    let disc_price = Expr::col("price").mul(Expr::lit(100).sub(Expr::col("disc")));
    let charge = disc_price.clone().mul(Expr::lit(100).add(Expr::col("tax")));
    let query = QueryBuilder::new()
        .filter(Predicate::eq("status", Value::Str("O".into())))
        .filter(Predicate::between("disc", Value::I64(2), Value::I64(9)))
        .group_by("flag")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum_expr(disc_price))
        .aggregate(AggExpr::sum_expr(charge))
        .aggregate(AggExpr::avg("price"))
        .aggregate(AggExpr::min("tax"))
        .aggregate(AggExpr::max_expr(Expr::col("price").sub(Expr::col("disc"))))
        .build();

    let extra: Vec<String> = (0..20).map(|i| format!("X{i}")).collect();
    let tail_flags: Vec<&str> =
        ["R", "A", "N"].into_iter().chain(extra.iter().map(String::as_str)).collect();
    // (segment rows, rows in segments, rows in the tail)
    for (segment_rows, flushed, tail) in [(10_000usize, 0usize, 3000usize), (500, 1000, 4500)] {
        let mut table = Table::with_segment_rows(specs(), segment_rows.max(tail + 1));
        for i in 0..flushed as i64 {
            table.insert(row(i, &["A", "N"]));
            if table.mutable_rows().len() == segment_rows {
                table.flush_mutable();
            }
        }
        // "R" and the "X…" flags are first seen in the tail.
        for i in 0..tail as i64 {
            table.insert(row(i, &tail_flags));
        }
        assert_eq!(table.segments().len(), flushed / segment_rows);
        assert_eq!(table.mutable_rows().len(), tail);
        let label = format!("flushed={flushed} tail={tail}");
        for (_, r) in assert_matches_reference(&table, &query, &Grid::workers(&[1, 2]), &label) {
            assert_eq!(r.stats.mutable_rows, tail);
            assert!(r.row_for(&[Value::Str("R".into())]).is_some());
            assert!(r.rows.len() > 16, "{} groups", r.rows.len());
        }
    }
}

/// Tails of one row, and of one row short of and past the 4 096-row default
/// batch, alone and behind two flushed segments, on the default and on
/// 512-row batches, serially and on two workers.
#[test]
fn mutable_tail_edges_equal_reference() {
    let grid = Grid { batch_rows: vec![4096, 512], ..Grid::workers(&[1, 2]) };
    for segments in [&[][..], &[1000, 3000]] {
        for tail in [1, 4095, 4097] {
            let shape = Shape { tail, ..Shape::new(segments, 9, tail as u64) };
            let t = shape.build();
            assert_eq!((t.segments().len(), t.mutable_rows().len()), (segments.len(), tail));
            for (_, r) in assert_matches_reference(&t, &query(-4000), &grid, &format!("{shape:?}"))
            {
                assert_eq!(r.stats.mutable_rows, tail);
            }
        }
    }
}

#[test]
fn parallel_and_serial_agree() {
    let mut shape = Shape::new(&[500; 6], 7, 99);
    shape.cols[0].strings = true;
    assert_matches_reference(&shape.build(), &query(0), &Grid::workers(&[1, 2, 4]), "workers");
}

#[test]
fn batch_sizes_agree() {
    let mut shape =
        Shape { tail: 5, delete_stride: 1000, ..Shape::new(&[2000, 2000, 1000], 5, 17) };
    shape.cols[0].strings = true;
    let t = shape.hints([EncodingHint::Auto, EncodingHint::BitPack, EncodingHint::Auto]).build();
    let grid = Grid { batch_rows: vec![64, 1000, 4096, 100_000], ..Grid::default() };
    assert_matches_reference(&t, &query(0), &grid, "batch sizes");
}

#[test]
fn forced_scalar_simd_levels_agree() {
    let mut shape =
        Shape { tail: 3, delete_stride: 300, ..Shape::new(&[600, 600, 600, 200], 6, 5) };
    shape.cols[0].strings = true;
    let t = shape.hints([EncodingHint::Auto, EncodingHint::BitPack, EncodingHint::Dict]).build();
    let grid = Grid { levels: SimdLevel::available(), ..Grid::default() };
    assert_matches_reference(&t, &query(-100), &grid, "levels");
}
