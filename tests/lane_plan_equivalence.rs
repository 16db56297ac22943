//! The typed lane plan (DESIGN.md §17) against `core::reference`, with
//! generators pinned at the metadata proof's boundaries: a multiplicand at
//! 2³² − 1 and at 2³², a leaf range touching zero and a negative frame of
//! reference, a sum at the `check_overflow` edge, and one batch spanning
//! the multi-aggregate row builder's 65 536-row slot flush. Every case runs
//! every SIMD tier × dense aggregation strategy × selection strategy (plus
//! the unfiltered shape), must equal the reference byte for byte, and must
//! report through `ExecStats` *which* expression path ran.

mod common;

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, Table, TableBuilder, Value};
use bipie::core::{
    execute, AggExpr, AggStrategy, EngineError, Expr, Predicate, Query, QueryBuilder, QueryOptions,
    SelectionStrategy,
};
use bipie::toolbox::SimdLevel;
use common::{assert_matches_reference, with, Col, Grid, Shape};

/// Which path the segments' computed sums must take.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Lanes,
    Interpreter,
}

struct Case {
    name: &'static str,
    rows: usize,
    segment_rows: usize,
    batch_rows: usize,
    /// Inclusive `(lo, hi)` of columns a, b, c; both extremes occur.
    ranges: [(i64, i64); 3],
    exprs: Vec<Expr>,
    expect: Path,
}

fn col(name: &str) -> Expr {
    Expr::col(name)
}

fn cases() -> Vec<Case> {
    let disc_price = || col("a").mul(Expr::lit(100).sub(col("b")));
    let case = |name, ranges, exprs, expect| Case {
        name,
        rows: 2600,
        segment_rows: 1000,
        batch_rows: 512,
        ranges,
        exprs,
        expect,
    };
    vec![
        case(
            "q1 shape",
            [(90_000, 10_000_000), (0, 10), (0, 8)],
            vec![disc_price(), disc_price().mul(Expr::lit(100).add(col("c")))],
            Path::Lanes,
        ),
        case(
            "multiplicand at 2^32 - 1",
            [(0, u32::MAX as i64), (0, 3), (0, 1)],
            vec![col("a").mul(col("b"))],
            Path::Lanes,
        ),
        case(
            "multiplicand at 2^32",
            [(0, 1 << 32), (0, 3), (0, 1)],
            vec![col("a").mul(col("b"))],
            Path::Interpreter,
        ),
        case(
            "leaf range touching zero",
            [(0, 1000), (0, 100), (5, 9)],
            vec![col("a").add(col("c")).mul(Expr::lit(100).sub(col("b")))],
            Path::Lanes,
        ),
        case(
            "negative frame of reference",
            [(-1, 1000), (0, 100), (5, 9)],
            vec![col("a").add(col("c")).mul(Expr::lit(100).sub(col("b")))],
            Path::Interpreter,
        ),
        case(
            "product exactly fills u32, beside one that does not",
            [(0, 65_535), (0, 65_537), (0, 65_536)],
            vec![col("a").mul(col("b")), col("c").mul(col("c"))],
            Path::Lanes,
        ),
        Case {
            name: "one batch across the 65 536-row slot flush",
            rows: 70_000,
            segment_rows: 70_000,
            batch_rows: 100_000,
            ranges: [(0, 65_535), (0, 255), (65_000, 65_535)],
            exprs: vec![col("a").mul(col("c"))],
            expect: Path::Lanes,
        },
    ]
}

fn build_table(case: &Case) -> Table {
    let packed = |n: &str| ColumnSpec::new(n, LogicalType::I64).with_hint(EncodingHint::BitPack);
    let mut b = TableBuilder::with_segment_rows(
        vec![ColumnSpec::new("g", LogicalType::Str), packed("a"), packed("b"), packed("c")],
        case.segment_rows,
    );
    let names = ["ga", "gb", "gc", "gd"];
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..case.rows {
        let mut row = vec![Value::Str(names[(i * 7 + i / 11) % names.len()].into())];
        for (k, &(lo, hi)) in case.ranges.iter().enumerate() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Both extremes land in every segment.
            let v = match (i + k) % 89 {
                0 => lo,
                1 => hi,
                _ => lo + ((state >> 20) % ((hi - lo) as u64 + 1)) as i64,
            };
            row.push(Value::I64(v));
        }
        b.push_row(row);
    }
    let mut t = b.finish();
    t.delete_row(0, 17);
    t.delete_row(0, 400);
    t
}

/// SUM over the narrow columns and every case expression; `filtered` adds a
/// predicate keeping roughly `b <= 60%` of its range.
fn the_query(case: &Case, filtered: bool, options: QueryOptions) -> Query {
    let mut q = QueryBuilder::new()
        .group_by("g")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("b"))
        .aggregate(AggExpr::sum("a"));
    for e in &case.exprs {
        q = q.aggregate(AggExpr::sum_expr(e.clone()));
    }
    if filtered {
        let (lo, hi) = case.ranges[1];
        q = q.filter(Predicate::le("b", Value::I64(lo + (hi - lo) * 6 / 10)));
    }
    q.options(options).build()
}

#[test]
fn lane_plan_equals_reference_at_the_proof_boundaries() {
    let dense = AggStrategy::DENSE.map(|a| SelectionStrategy::DENSE.map(|s| (Some(a), Some(s))));
    for case in cases() {
        let table = build_table(&case);
        let grid = Grid {
            forced: dense.concat(),
            levels: SimdLevel::available(),
            batch_rows: vec![case.batch_rows],
            ..Grid::default()
        };
        for filtered in [false, true] {
            let query = the_query(&case, filtered, QueryOptions::default());
            let label = format!("{} filtered={filtered}", case.name);
            for (options, fast) in assert_matches_reference(&table, &query, &grid, &label) {
                let (lanes, interp) =
                    (fast.stats.expr_lane_segments, fast.stats.expr_interp_segments);
                let segments = fast.stats.segments_scanned;
                let expect = match case.expect {
                    Path::Lanes => (segments, 0),
                    Path::Interpreter => (0, segments),
                };
                assert_eq!((lanes, interp), expect, "{label} {options:?}");
            }
        }
    }
}

#[test]
fn sum_at_the_overflow_proof_edge_is_exact_one_past_is_refused() {
    // Three rows, the proof's bound 3 * max(a) * max(b): a tops out at
    // 2^32 - 1 (the widest multiplicand a lane takes), b as high as keeps
    // the bound inside i64.
    let a = u32::MAX as i64;
    let b_edge = (i64::MAX as i128 / (3 * a as i128)) as i64;
    for (b, fits) in [(b_edge, true), (b_edge + 1, false)] {
        let packed = |name, hi| Col { hint: EncodingHint::BitPack, ..Col::int(name, 0, hi) };
        let cols = vec![packed("a", a), packed("b", b)];
        let table = Shape { cols, ..Shape::new(&[3], 1, 0) }.build();
        let query =
            QueryBuilder::new().aggregate(AggExpr::sum_expr(col("a").mul(col("b")))).build();
        let forced = AggStrategy::DENSE.map(|a| (Some(a), None)).to_vec();
        let grid = Grid { forced, levels: SimdLevel::available(), ..Grid::default() };
        if fits {
            for (options, fast) in assert_matches_reference(&table, &query, &grid, "edge") {
                assert_eq!(fast.stats.expr_lane_segments, 1, "{options:?}");
            }
            continue;
        }
        for options in grid.options(&query.options) {
            let err = execute(&table, &with(&query, options.clone())).unwrap_err();
            assert_eq!(err, EngineError::PotentialOverflow { aggregate: 0 }, "{options:?}");
        }
    }
}

#[test]
fn computed_min_max_keeps_the_interpreter_for_the_whole_segment() {
    let case = &cases()[0];
    let table = build_table(case);
    let query = QueryBuilder::new()
        .group_by("g")
        .aggregate(AggExpr::sum_expr(case.exprs[0].clone()))
        .aggregate(AggExpr::max_expr(case.exprs[1].clone()))
        .build();
    let fast = assert_matches_reference(&table, &query, &Grid::default(), "min/max").remove(0).1;
    assert_eq!(fast.stats.expr_lane_segments, 0);
    assert!(fast.stats.expr_interp_segments > 0);
}
