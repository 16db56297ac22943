//! Whole-engine equivalence: arbitrary tables, encodings, filters, and
//! aggregate expressions produce identical results through the vectorized
//! BIPie engine and the naive row-at-a-time reference executor — including
//! deleted rows, multi-segment tables, the mutable region, and every
//! forced (selection × aggregation) strategy combination.

mod common;

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, Table, TableBuilder, Value};
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, Expr, Predicate, Query, QueryBuilder, QueryOptions,
    SelectionStrategy,
};
use common::{run_cases, Gen};

#[derive(Debug, Clone)]
struct TableSpec {
    rows: usize,
    segment_rows: usize,
    groups: u8,
    hint_a: EncodingHint,
    hint_b: EncodingHint,
    deletes: Vec<usize>,
    mutable_tail: usize,
}

const HINTS: [EncodingHint; 5] = [
    EncodingHint::Auto,
    EncodingHint::BitPack,
    EncodingHint::Dict,
    EncodingHint::Rle,
    EncodingHint::Delta,
];

fn arb_table_spec(g: &mut Gen) -> TableSpec {
    TableSpec {
        rows: g.int(1usize..800),
        segment_rows: g.int(50usize..300),
        groups: g.int(1u8..12),
        hint_a: *g.pick(&HINTS),
        hint_b: *g.pick(&HINTS),
        deletes: g.vec_of(0..20, |g| g.int(0usize..800)),
        mutable_tail: g.int(0usize..30),
    }
}

fn build_table(spec: &TableSpec, seed: u64) -> Table {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("g", LogicalType::Str),
            ColumnSpec::new("a", LogicalType::I64).with_hint(spec.hint_a),
            ColumnSpec::new("b", LogicalType::I64).with_hint(spec.hint_b),
        ],
        spec.segment_rows,
    );
    let names = ["ga", "gb", "gc", "gd", "ge", "gf", "gg", "gh", "gi", "gj", "gk", "gl"];
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..spec.rows {
        let g = (next() % spec.groups as u64) as usize;
        let a = next() as i64 % 10_000 - 5_000;
        let val_b = next() as i64 % 1_000;
        b.push_row(vec![Value::Str(names[g].into()), Value::I64(a), Value::I64(val_b)]);
    }
    let mut t = b.finish();
    // Deletes against whatever segments exist.
    for &d in &spec.deletes {
        if !t.segments().is_empty() {
            let seg = d % t.segments().len();
            let rows = t.segments()[seg].num_rows();
            if rows > 0 {
                t.delete_row(seg, d % rows);
            }
        }
    }
    // A tail in the mutable region.
    for i in 0..spec.mutable_tail {
        let g = (next() % spec.groups as u64) as usize;
        t.insert(vec![
            Value::Str(names[g].into()),
            Value::I64(i as i64 * 13 - 100),
            Value::I64(i as i64),
        ]);
    }
    t
}

fn the_query(threshold: i64, options: QueryOptions) -> Query {
    QueryBuilder::new()
        .filter(Predicate::ge("a", Value::I64(threshold)))
        .group_by("g")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("a"))
        .aggregate(AggExpr::sum("b"))
        .aggregate(AggExpr::sum_expr(Expr::col("a").add(Expr::col("b").mul(Expr::lit(3)))))
        .aggregate(AggExpr::avg("b"))
        .aggregate(AggExpr::min("a"))
        .aggregate(AggExpr::max("a"))
        .aggregate(AggExpr::max_expr(Expr::col("a").mul(Expr::col("b"))))
        .options(options)
        .build()
}

#[test]
fn engine_equals_reference() {
    run_cases("engine_equals_reference", 48, |g| {
        let spec = arb_table_spec(g);
        let seed = g.rng.random::<u64>();
        let threshold = g.int(-6000i64..6000);
        let table = build_table(&spec, seed);
        let query = the_query(threshold, QueryOptions::default());
        let fast = execute(&table, &query).unwrap();
        let slow = execute_reference(&table, &query).unwrap();
        assert_eq!(fast.rows, slow.rows, "spec={spec:?} seed={seed} threshold={threshold}");
    });
}

#[test]
fn every_forced_combination_equals_reference() {
    run_cases("every_forced_combination_equals_reference", 48, |g| {
        let seed = g.rng.random::<u64>();
        let threshold = g.int(-6000i64..6000);
        let spec = TableSpec {
            rows: 700,
            segment_rows: 256,
            groups: 5,
            hint_a: EncodingHint::BitPack,
            hint_b: EncodingHint::BitPack,
            deletes: vec![3, 77, 501],
            mutable_tail: 7,
        };
        let table = build_table(&spec, seed);
        let slow =
            execute_reference(&table, &the_query(threshold, QueryOptions::default())).unwrap();
        for agg in AggStrategy::ALL {
            for sel in SelectionStrategy::ALL {
                let options = QueryOptions {
                    forced_agg: Some(agg),
                    forced_selection: Some(sel),
                    ..Default::default()
                };
                let fast = execute(&table, &the_query(threshold, options)).unwrap();
                assert_eq!(&fast.rows, &slow.rows, "{agg:?}+{sel:?} seed={seed}");
            }
        }
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
        let fast = execute(&table, &query).unwrap();
        let slow = execute_reference(&table, &query).unwrap();
        assert_eq!(fast.rows, slow.rows, "flushed={flushed} tail={tail}");
        assert_eq!(fast.stats.mutable_rows, tail);
        assert!(fast.row_for(&[Value::Str("R".into())]).is_some());
        assert!(fast.rows.len() > 16, "{} groups", fast.rows.len());
    }
}

#[test]
fn parallel_and_serial_agree() {
    let spec = TableSpec {
        rows: 3000,
        segment_rows: 500,
        groups: 7,
        hint_a: EncodingHint::Auto,
        hint_b: EncodingHint::Auto,
        deletes: vec![],
        mutable_tail: 0,
    };
    let table = build_table(&spec, 99);
    let serial =
        execute(&table, &the_query(0, QueryOptions { parallel: false, ..Default::default() }))
            .unwrap();
    let parallel =
        execute(&table, &the_query(0, QueryOptions { parallel: true, ..Default::default() }))
            .unwrap();
    assert_eq!(serial.rows, parallel.rows);
}

#[test]
fn batch_sizes_agree() {
    let spec = TableSpec {
        rows: 5000,
        segment_rows: 2000,
        groups: 5,
        hint_a: EncodingHint::BitPack,
        hint_b: EncodingHint::Auto,
        deletes: vec![1, 2, 3],
        mutable_tail: 5,
    };
    let table = build_table(&spec, 17);
    let mut results = Vec::new();
    for batch_rows in [64usize, 1000, 4096, 100_000] {
        let options = QueryOptions { batch_rows, parallel: false, ..Default::default() };
        results.push(execute(&table, &the_query(0, options)).unwrap().rows);
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn forced_scalar_simd_levels_agree() {
    use bipie::toolbox::SimdLevel;
    let spec = TableSpec {
        rows: 2000,
        segment_rows: 600,
        groups: 6,
        hint_a: EncodingHint::BitPack,
        hint_b: EncodingHint::Dict,
        deletes: vec![10, 20],
        mutable_tail: 3,
    };
    let table = build_table(&spec, 5);
    let mut results = Vec::new();
    for level in SimdLevel::available() {
        let options = QueryOptions { level, ..Default::default() };
        results.push(execute(&table, &the_query(-100, options)).unwrap().rows);
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}
