//! Encoding-specialized operator equivalence (DESIGN.md §13).
//!
//! Sweeps encodings × predicates × aggregates and asserts the specialized
//! compressed-form paths — run-wise RLE kernels, monotonic range pruning,
//! fused dictionary predicate pre-evaluation — produce results identical
//! to the always-available decode fallback and to the row-at-a-time
//! reference executor. Covers run boundaries, all-accept / all-reject
//! batches, deleted rows, the mutable tail, and serial vs parallel scans.

mod common;

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, TableBuilder, Value};
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, Predicate, ProfileLevel, Query, QueryBuilder, QueryOptions,
    SelectionStrategy,
};
use bipie::toolbox::SimdLevel;
use common::{assert_matches, assert_matches_reference, threads, with, Col, Forced, Grid, Shape};

/// Every column run-length encoded.
const RLE: [EncodingHint; 3] = [EncodingHint::Rle; 3];

/// Ungrouped aggregates over `a`, eligible for the run-wise path.
fn agg_query(filter: Option<Predicate>) -> Query {
    let aggregates =
        vec![AggExpr::count_star(), AggExpr::sum("a"), AggExpr::min("a"), AggExpr::max("a")];
    Query { filter, aggregates, ..QueryBuilder::new().build() }
}

/// The always-available decode fallback, beside the adaptive choice.
const FALLBACK: [Forced; 2] =
    [(None, None), (Some(AggStrategy::Scalar), Some(SelectionStrategy::Compact))];

#[test]
fn run_wise_matches_fallback_and_reference_across_predicates() {
    // Run lengths from fully fragmented (1) to long (100); boundary-aligned
    // and boundary-straddling batch windows.
    let (keys, grid) = (40, Grid { forced: FALLBACK.to_vec(), ..Grid::default() });
    for run in [1usize, 3, 64, 100] {
        let t = Shape { run, ..Shape::new(&[700, 700, 600], keys, run as u64).hints(RLE) }.build();
        let preds: Vec<(&str, Option<Predicate>)> = vec![
            ("no filter", None),
            ("eq", Some(Predicate::eq("k", Value::I64(1)))),
            ("ne", Some(Predicate::ne("k", Value::I64(2)))),
            ("lt mid", Some(Predicate::lt("k", Value::I64(keys / 2)))),
            ("le zero", Some(Predicate::le("k", Value::I64(0)))),
            ("ge top", Some(Predicate::ge("k", Value::I64(keys - 1)))),
            ("between", Some(Predicate::between("k", Value::I64(1), Value::I64(5)))),
            ("all accept", Some(Predicate::ge("k", Value::I64(-1)))),
            ("all reject", Some(Predicate::gt("k", Value::I64(keys + 1)))),
            (
                "conjunction",
                Some(Predicate::and(vec![
                    Predicate::ge("k", Value::I64(1)),
                    Predicate::lt("a", Value::I64(0)),
                ])),
            ),
        ];
        for (label, pred) in preds {
            let label = format!("run={run} {label}");
            assert_matches_reference(&t, &agg_query(pred), &grid, &label);
        }
    }
}

#[test]
fn forcing_run_wise_on_eligible_table_uses_it_and_agrees() {
    let t = Shape { run: 50, ..Shape::new(&[1100, 1100, 800], 60, 1).hints(RLE) }.build();
    let q = agg_query(Some(Predicate::lt("k", Value::I64(30))));
    let forced = (Some(AggStrategy::RunWise), Some(SelectionStrategy::RunSpan));
    let grid = Grid { forced: vec![forced], ..Grid::default() };
    let fast = assert_matches_reference(&t, &q, &grid, "forced run-wise").remove(0).1;
    // The decision events must prove the specialized strategies fired.
    assert!(fast.stats.agg_count(AggStrategy::RunWise) > 0, "{:?}", fast.stats);
    assert!(fast.stats.selection_count(SelectionStrategy::RunSpan) > 0, "{:?}", fast.stats);
    assert_eq!(fast.stats.agg_count(AggStrategy::Scalar), 0);
}

#[test]
fn deleted_rows_disable_run_wise_but_stay_correct() {
    let shape = Shape { run: 100, ..Shape::new(&[650, 650, 700], 40, 2).hints(RLE) };
    let mut t = shape.build();
    t.delete_row(1, 3);
    t.delete_row(1, 649);
    let q = agg_query(Some(Predicate::lt("k", Value::I64(30))));
    let grid = Grid { forced: FALLBACK.to_vec(), ..Grid::default() };
    let r = assert_matches_reference(&t, &q, &grid, "deleted rows").remove(0).1;
    // The segment with deletions must not take the run-wise path; the
    // clean segments still may.
    assert_eq!(r.stats.segments_scanned, 3, "{:?}", r.stats);
    assert!(r.stats.agg_count(AggStrategy::RunWise) < 3, "{:?}", r.stats);
}

#[test]
fn mutable_tail_rows_join_run_wise_segments() {
    let t = Shape { run: 64, tail: 17, ..Shape::new(&[1300], 4, 3).hints(RLE) }.build();
    // The tail rows continue the segment's last run: filter on their key.
    let q = agg_query(Some(Predicate::eq("k", t.mutable_rows().value(0, 0))));
    let grid = Grid { forced: FALLBACK.to_vec(), ..Grid::default() };
    assert_matches_reference(&t, &q, &grid, "mutable tail");
    assert_matches_reference(&t, &agg_query(None), &grid, "mutable tail unfiltered");
}

#[test]
fn serial_and_parallel_agree_on_run_wise_path() {
    let shape = Shape { run: 128, ..Shape::new(&[6000, 6000, 6000, 2000], 200, 4).hints(RLE) };
    let q = agg_query(Some(Predicate::between("k", Value::I64(10), Value::I64(100))));
    let grid = Grid { batch_rows: vec![512, 1024, 4096], ..Grid::workers(&[1, 4]) };
    // Run-wise or not is decided once per segment, before the workers.
    for (_, r) in assert_matches_reference(&shape.build(), &q, &grid, "run-wise") {
        assert_eq!(r.stats.agg_count(AggStrategy::RunWise), r.stats.segments_scanned);
    }
}

const CMP_OPS: [fn(&'static str, Value) -> Predicate; 6] =
    [Predicate::eq, Predicate::ne, Predicate::lt, Predicate::le, Predicate::gt, Predicate::ge];

/// Sorted (monotonic) columns under Delta and BitPack encodings: the
/// predicate compiles to a row range the scan never leaves (DESIGN.md §13).
/// `ts` holds runs of 700 duplicates, so the run over rows 700..1400
/// straddles a 512-row batch edge and a delta anchor (row 1024), and the run
/// over rows 3500..4200 a default batch edge (row 4096).
#[test]
fn monotonic_range_pruning_matches_reference() {
    let ts_of = |i: usize| 100 + (i / 700) as i64 * 5;
    let grid =
        Grid { batch_rows: vec![4096, 512], morsel_rows: vec![1024], ..Grid::workers(&[1, 2]) };
    // (rows, segment rows): one segment of each length, then three.
    for (rows, segment_rows) in
        [(1, 1), (1023, 1023), (1024, 1024), (1025, 1025), (4097, 4097), (4500, 1500)]
    {
        let build = |hint: EncodingHint, deleted: &[usize]| {
            let mut b = TableBuilder::with_segment_rows(
                vec![
                    ColumnSpec::new("ts", LogicalType::I64).with_hint(hint),
                    // A second sorted column and an unsorted one to conjoin.
                    ColumnSpec::new("s2", LogicalType::I64).with_hint(hint),
                    ColumnSpec::new("u", LogicalType::I64).with_hint(EncodingHint::BitPack),
                    ColumnSpec::new("v", LogicalType::I64),
                ],
                segment_rows,
            );
            for i in 0..rows {
                let (s2, u) = ((i / 3) as i64, (i * 37 % 101) as i64);
                b.push_row(vec![
                    Value::I64(ts_of(i)),
                    Value::I64(s2),
                    Value::I64(u),
                    Value::I64(i as i64 % 91),
                ]);
            }
            let mut t = b.finish();
            for &row in deleted.iter().filter(|&&r| r < rows) {
                t.delete_row(row / segment_rows, row % segment_rows);
            }
            t
        };
        let (first, last) = (ts_of(0), ts_of(rows - 1));
        // Below min, the first value, inside the two straddling runs, the
        // last value, above max.
        let bounds = [first - 1, first, 105, 125, last, last + 1];
        let mut preds: Vec<Predicate> = Vec::new();
        for op in CMP_OPS {
            preds.extend(bounds.iter().map(|&c| op("ts", Value::I64(c))));
        }
        for (lo, hi) in [(first - 1, first), (first, 105), (105, last), (105, last + 1), (125, 105)]
        {
            preds.push(Predicate::between("ts", Value::I64(lo), Value::I64(hi)));
        }
        // Deletes: none; inside the range; on the edges of every range a
        // bound above can produce (run starts/ends, segment ends).
        let inside = vec![rows / 2, rows * 2 / 3];
        let edges = vec![0, 699, 700, 1023, 1024, 1399, 1400, 3499, 3500, rows - 1];
        for (dlabel, deleted) in [("none", vec![]), ("inside", inside), ("edges", edges)] {
            let delta = build(EncodingHint::Delta, &deleted);
            let bitpack = build(EncodingHint::BitPack, &deleted);
            for pred in &preds {
                let conjoined = [
                    pred.clone(),
                    Predicate::and(vec![pred.clone(), Predicate::lt("u", Value::I64(50))]),
                    Predicate::and(vec![
                        Predicate::ge("s2", Value::I64(rows as i64 / 9)),
                        pred.clone(),
                    ]),
                ];
                for p in conjoined {
                    let label = format!("rows={rows} deletes={dlabel} {p:?}");
                    let q = QueryBuilder::new()
                        .filter(p)
                        .aggregate(AggExpr::count_star())
                        .aggregate(AggExpr::sum("v"))
                        .build();
                    // The reference reads row by row, which a delta column
                    // answers by replaying from its anchor; the bit-packed
                    // table holds the same rows and answers in O(1).
                    let oracle = execute_reference(&bitpack, &q).unwrap();
                    assert_matches(&delta, &q, &grid, &oracle, &format!("Delta {label}"));
                    assert_matches(&bitpack, &q, &grid, &oracle, &format!("BitPack {label}"));
                }
            }
        }
    }
}

/// A sorted column's row range shows in the stats: pruned rows are never
/// scanned, whatever the worker count.
#[test]
fn row_range_prunes_rows_and_says_so() {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("ts", LogicalType::I64).with_hint(EncodingHint::Delta),
            ColumnSpec::new("v", LogicalType::I64),
        ],
        20_000,
    );
    for i in 0..20_000i64 {
        b.push_row(vec![Value::I64(2 * i), Value::I64(i % 7)]);
    }
    let mut t = b.finish();
    t.delete_row(0, 10); // pruned
    t.delete_row(0, 9_000); // visited
    let q = QueryBuilder::new()
        .filter(Predicate::between("ts", Value::I64(2 * 8_200), Value::I64(2 * 12_300)))
        .aggregate(AggExpr::count_star())
        .build();
    for (options, r) in assert_matches_reference(&t, &q, &Grid::workers(&[1, 2]), "row range") {
        assert_eq!(r.rows[0].aggs[0].as_count(), Some(4_100));
        // Rows 8200..=12300 round outward to the 4096-row grid: 8192..16384.
        assert_eq!((r.stats.rows_scanned, r.stats.rows_pruned), (8_191, 11_807), "{options:?}");
        assert_eq!((r.stats.batches, r.stats.morsels_scanned), (2, 1), "{options:?}");
    }
    let options = QueryOptions { profile: ProfileLevel::Spans, ..Default::default() };
    let r = execute(&t, &with(&q, options)).unwrap();
    let explain = r.profile.render_explain(&r.stats);
    assert!(explain.contains("8191 rows scanned (11807 pruned)"), "{explain}");
    if !bipie::core::observability_compiled_out() {
        assert!(explain.contains("range=[8192,16384)"), "{explain}");
    }
}

/// An unsorted bit-packed column is compared at the smallest word its width
/// fits (`u8` / `u16` / `u32` / `u64`, §2.2), against a constant translated
/// into the column's frame of reference. Widths sit on both sides of every
/// word edge (8|9, 16|17, 32|33) and of the AVX-512 unpack kernel's gates
/// (7|8, 14|16, 28|32); the constants on and beyond both ends of the domain.
#[test]
fn packed_comparisons_at_every_word_match_reference() {
    let grid =
        Grid { levels: SimdLevel::available(), batch_rows: vec![4096, 512], ..Grid::default() };
    for bits in [1u32, 7, 8, 9, 14, 16, 17, 28, 32, 33] {
        let (min, range) = (-3i64, ((1u64 << bits) - 1) as i64);
        // Both ends of the domain in the first two rows, then a uniform draw.
        let x = Col { hint: EncodingHint::BitPack, ..Col::int("x", min, min + range) };
        let t =
            Shape { cols: vec![x, Col::int("v", 0, 1499)], ..Shape::new(&[1500], 1, 7) }.build();
        for op in CMP_OPS {
            for c in [min - 1, min, min + range / 2, min + range, min + range + 1] {
                let q = QueryBuilder::new()
                    .filter(op("x", Value::I64(c)))
                    .aggregate(AggExpr::count_star())
                    .aggregate(AggExpr::sum("v"))
                    .build();
                assert_matches_reference(&t, &q, &grid, &format!("bits={bits} {:?}", q.filter));
            }
        }
    }
}

/// Dictionary predicates, string and integer: one conjunct is a comparison
/// on codes; a conjunction over one column is evaluated once against the
/// dictionary, and the set of codes it accepts picks the kernel — none
/// (eliminated), all (dropped), one interval (a comparison on codes), or
/// anything else (a membership table: SIMD for codes of at most 8 bits, an
/// id-bitset beyond). Cardinalities sit on both sides of the 8-bit edge, and
/// of the 16-bit one for the thresholds: a comparison on codes runs at the
/// codes' own word. One comparison is answered from the dictionary too:
/// `x <= <largest entry>` accepts every code and `x > <largest entry>` none,
/// which eliminates the segment.
#[test]
fn dictionary_predicates_match_reference() {
    let grid =
        Grid { levels: SimdLevel::available(), batch_rows: vec![4096, 512], ..Grid::default() };
    for cardinality in [1usize, 2, 255, 256, 257, 4096, 65_535, 65_536, 65_537] {
        // Every code occurs at least once; the row-at-a-time reference is
        // what bounds the row count at the 16-bit edge.
        let rows =
            if cardinality <= 4096 { (2 * cardinality).max(1500) } else { cardinality + 1500 };
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("s", LogicalType::Str),
                ColumnSpec::new("n", LogicalType::I64).with_hint(EncodingHint::Dict),
                ColumnSpec::new("v", LogicalType::I64),
            ],
            rows,
        );
        let (s_of, n_of) =
            (|code: usize| format!("k{code:05}"), |code: usize| code as i64 * 13 + 3);
        for i in 0..rows {
            // 7919 is prime: every code occurs, in no order.
            let code = i * 7919 % cardinality;
            b.push_row(vec![
                Value::Str(s_of(code).into()),
                Value::I64(n_of(code)),
                Value::I64(i as i64),
            ]);
        }
        let t = b.finish();
        let (lo, hi, mid, largest) =
            (cardinality / 8, cardinality * 3 / 4, cardinality / 2, cardinality - 1);
        for col in ["s", "n"] {
            let value = |code: usize| match col {
                "s" => Value::Str(s_of(code).into()),
                _ => Value::I64(n_of(code)),
            };
            // Comparisons on codes whose constant sits at the top of the
            // codes' word or one past it.
            let mut sets: Vec<(&str, Predicate)> = vec![
                ("le largest", Predicate::le(col, value(largest))),
                ("gt largest", Predicate::gt(col, value(largest))),
                ("ge largest", Predicate::ge(col, value(largest))),
            ];
            let interval = vec![Predicate::ge(col, value(lo)), Predicate::le(col, value(hi))];
            let minus_point = [interval.clone(), vec![Predicate::ne(col, value(mid))]].concat();
            let alternating = (0..cardinality.min(300)).step_by(2);
            // The sets of codes are about the 8-bit edge, and the reference
            // pays per selected row: not at the 16-bit edge.
            let code_sets: Vec<(&str, Predicate)> = vec![
                ("lt largest", Predicate::lt(col, value(largest))),
                ("gt smallest", Predicate::gt(col, value(0))),
                (
                    "empty conjunction",
                    Predicate::and(vec![
                        Predicate::ge(col, value(mid)),
                        Predicate::lt(col, value(mid)),
                    ]),
                ),
                (
                    "all",
                    Predicate::and(vec![
                        Predicate::ge(col, value(0)),
                        Predicate::le(col, value(largest)),
                    ]),
                ),
                ("one code", Predicate::eq(col, value(mid))),
                ("all but one code", Predicate::ne(col, value(mid))),
                ("interval", Predicate::and(interval)),
                ("interval minus a point", Predicate::and(minus_point.clone())),
                (
                    "alternating",
                    Predicate::and(alternating.map(|c| Predicate::ne(col, value(c))).collect()),
                ),
                (
                    "minus a point, and another column",
                    Predicate::and(
                        [minus_point, vec![Predicate::lt("v", Value::I64(rows as i64 / 2))]]
                            .concat(),
                    ),
                ),
            ];
            if cardinality <= 4096 {
                sets.extend(code_sets);
            }
            for (label, pred) in sets {
                let q = QueryBuilder::new()
                    .filter(pred)
                    .aggregate(AggExpr::count_star())
                    .aggregate(AggExpr::sum("v"))
                    .build();
                let none = label == "gt largest";
                let label = format!("cardinality={cardinality} {col}: {label}");
                for (_, r) in assert_matches_reference(&t, &q, &grid, &label) {
                    assert!(!none || r.stats.segments_eliminated == 1, "{label}");
                }
            }
        }
    }
}

/// One group under In-Register needs no group ids: COUNT is the selected
/// rows and each SUM one pass under the selection mask, or over the loaded
/// rows after gather or compaction (DESIGN.md §17). Against the reference,
/// byte for byte: no filter and filters whose selectivities reach gather,
/// compaction and the special group, with and without deleted rows, serial
/// and on two threads, at every tier; each sum width, a negative frame of
/// reference, a lane program and the interpreter. The other strategies,
/// forced on the same shapes — alone and under special-group selection,
/// which writes into the group ids they still get — run and report
/// themselves; only In-Register segments skip the mapper (no `Unpack` span).
#[test]
fn one_group_in_register_matches_reference() {
    use bipie::core::{Expr, Phase};
    // Three 4 097-row segments (a full batch, then a 1-row tail) of
    // bit-packed columns: `f` spreads `0..1000` for `f < c` filters of
    // selectivity `c / 1000`; the sum inputs unpack to `u8` (`a`), `u16`
    // reaching `u16::MAX` (`b`), `u32` reaching `u32::MAX` (`c`), `u64`
    // (`d`, 40 bits), and `u16` over a negative frame of reference (`n`).
    // Deletes drop rows at both ends of every segment, its tail batch's row
    // included.
    let cols = [
        ("f", 0, 999),
        ("a", 0, 250),
        ("b", 0, u16::MAX as i64),
        ("c", 0, u32::MAX as i64),
        ("d", 0, (1 << 40) - 1),
        ("n", -1_000_000, -997_000),
    ];
    let cols =
        cols.map(|(name, lo, hi)| Col { hint: EncodingHint::BitPack, ..Col::int(name, lo, hi) });
    let shape = Shape { cols: cols.into(), ..Shape::new(&[4097; 3], 1, 5) };
    // A lane program over `a` and `b`; `n`'s negative range sends the second
    // expression to the interpreter.
    let lane = AggExpr::sum_expr(Expr::col("a").mul(Expr::lit(70_000).sub(Expr::col("b"))));
    let interpreted = AggExpr::sum_expr(Expr::col("n").add(Expr::col("a")));
    // (label, sums, whether the adaptive chooser takes In-Register: only
    // when every input fits 4 bytes).
    let queries: [(&str, Vec<AggExpr>, bool); 3] = [
        (
            "narrow",
            vec![AggExpr::sum("a"), AggExpr::sum("b"), AggExpr::sum("c"), AggExpr::sum("n"), lane],
            true,
        ),
        ("u64 leaf", vec![AggExpr::sum("d"), AggExpr::sum("a")], false),
        ("interpreter", vec![AggExpr::sum("b"), interpreted, AggExpr::sum("n")], false),
    ];
    let filters = [None, Some(5), Some(580), Some(900)];
    let mut forced: Vec<Forced> = vec![(None, None), (Some(AggStrategy::InRegister), None)];
    forced.extend(SelectionStrategy::DENSE.map(|s| (Some(AggStrategy::InRegister), Some(s))));
    for agg in [AggStrategy::MultiAggregate, AggStrategy::SortBased, AggStrategy::Scalar] {
        forced.push((Some(agg), None));
        forced.push((Some(agg), Some(SelectionStrategy::SpecialGroup)));
    }
    // Serial and two workers at every tier, on the default batch grid.
    let grid = Grid { forced, levels: SimdLevel::available(), ..Grid::workers(&[1, 2]) };
    let mut adaptive_selections = [0usize; 3];
    for deleted in [false, true] {
        let t = Shape { delete_stride: if deleted { 2048 } else { 0 }, ..shape.clone() }.build();
        for (qlabel, sums, adaptive_in_register) in &queries {
            for &below in &filters {
                let q = Query {
                    filter: below.map(|c| Predicate::lt("f", Value::I64(c))),
                    aggregates: [&[AggExpr::count_star()][..], sums].concat(),
                    options: QueryOptions { profile: ProfileLevel::Spans, ..threads(1) },
                    ..QueryBuilder::new().build()
                };
                let label = format!("{qlabel} deleted={deleted} f<{below:?}");
                for (options, r) in assert_matches_reference(&t, &q, &grid, &label) {
                    let (forced_agg, forced_selection) =
                        (options.forced_agg, options.forced_selection);
                    let label = format!("{label} {options:?}");
                    let stats = &r.stats;
                    assert_eq!(stats.segments_scanned, 3, "{label}");
                    let adaptive = adaptive_in_register.then_some(AggStrategy::InRegister);
                    if let Some(agg) = forced_agg.or(adaptive) {
                        assert_eq!(stats.agg_count(agg), 3, "{label}: {stats:?}");
                    }
                    if let Some(s) = forced_selection {
                        assert_eq!(stats.selection_count(s), stats.batches, "{label}");
                    }
                    if forced_agg.is_none() && *adaptive_in_register {
                        for (seen, s) in
                            adaptive_selections.iter_mut().zip(SelectionStrategy::DENSE)
                        {
                            *seen += stats.selection_count(s);
                        }
                    }
                    // A batch maps group ids unless its segment runs In-Register.
                    let mapped = match stats.agg_count(AggStrategy::InRegister) {
                        0 => Some(stats.batches as u64),
                        3 => Some(0),
                        _ => None,
                    };
                    if let Some(m) = mapped.filter(|_| !bipie::core::observability_compiled_out()) {
                        assert_eq!(r.profile.phase(Phase::Unpack).count, m, "{label}");
                    }
                    let paths = (stats.expr_lane_segments, stats.expr_interp_segments);
                    let expect = match *qlabel {
                        "narrow" => (3, 0),
                        "interpreter" => (0, 3),
                        _ => (0, 0),
                    };
                    assert_eq!(paths, expect, "{label}");
                }
            }
        }
    }
    // The filters' selectivities reach every dense selection strategy.
    assert!(adaptive_selections.iter().all(|&n| n > 0), "{adaptive_selections:?}");
}

/// A run-wise-eligible segment the chooser declines (fully fragmented runs
/// make its O(runs) work no better than dense) is sampled once, at plan
/// time, inside the `Plan` span: the sample leaves no `Selection` span and
/// no `RunSpan` pick behind, so the events still tile the stats — one
/// selection span per counted batch — and no batch is selected twice.
/// Forcing is no good here: a forced non-run-wise strategy disables the
/// run-wise plan up front.
#[test]
#[expect(clippy::disallowed_types, reason = "the test reads finished trace events")]
fn declined_run_wise_sample_leaves_no_span_behind() {
    use bipie::core::{Phase, TraceEvent};
    if bipie::core::observability_compiled_out() {
        return; // asserts on trace spans
    }
    // Runs of one row: runs_fraction == 1.0.
    let t = Shape::new(&[1100, 1100, 800], 3000, 6).hints(RLE).build();
    let q = agg_query(Some(Predicate::lt("k", Value::I64(2000))));
    let opts = QueryOptions { profile: ProfileLevel::Spans, ..threads(1) };
    let r = execute(&t, &with(&q, opts)).unwrap();
    assert_eq!(r.stats.agg_count(AggStrategy::RunWise), 0, "{:?}", r.stats);
    assert_eq!(r.stats.selection_count(SelectionStrategy::RunSpan), 0, "{:?}", r.stats);
    assert_eq!(r.stats.agg_segments.iter().sum::<usize>(), r.stats.segments_scanned);
    let selection_spans: Vec<_> = r
        .profile
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span { phase: Phase::Selection, loc, .. } => Some(loc.selection),
            _ => None,
        })
        .collect();
    assert_eq!(selection_spans.len(), r.stats.batches, "one selection span per batch");
    assert!(!selection_spans.contains(&Some(SelectionStrategy::RunSpan)), "{selection_spans:?}");
    assert_eq!(r.profile.phase(Phase::Plan).count, 1);
}

/// Ungrouped `count(*), sum(v)` over a bit-packed `v` at the edge widths of
/// every unpack word: the one-group In-Register executor sums `v` where it
/// lies (`sum_packed`, DESIGN.md §17). No filter, a ≈ 60 % dictionary
/// conjunction, a filter no row passes (two columns whose metadata cannot
/// tell), and a sorted delta column's row range that starts mid-batch; 12 345
/// rows in segments of 5 003 (neither a multiple of 16); on the default batch
/// grid and on 1 001-row batches, whose starts leave the byte grid at every
/// odd width; adaptive and forced In-Register + special group, at every tier,
/// on two workers. Rows equal the reference byte for byte.
#[test]
fn one_group_packed_sums_match_reference() {
    const WIDTHS: [u8; 8] = [1, 8, 9, 10, 16, 17, 25, 32];
    const ROWS: usize = 12_345;
    let hinted = |name: String, hint| ColumnSpec::new(name, LogicalType::I64).with_hint(hint);
    let mut specs = vec![
        hinted("code".into(), EncodingHint::Dict),
        hinted("ts".into(), EncodingHint::Delta),
        hinted("p".into(), EncodingHint::BitPack),
        hinted("q".into(), EncodingHint::BitPack),
    ];
    specs.extend(WIDTHS.map(|b| hinted(format!("v{b}"), EncodingHint::BitPack)));
    let mut b = TableBuilder::with_segment_rows(specs, 5003);
    let (mut ts, mut ts_at) = (1_000i64, Vec::with_capacity(ROWS));
    for i in 0..ROWS as u64 {
        let hash = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ts += 1 + (hash >> 61) as i64;
        ts_at.push(ts);
        let p = (i * 7919 % 100) as i64;
        let mut row = [(hash >> 40) as i64 % 100 * 13 + 3, ts, p, 99 - p].map(Value::I64).to_vec();
        for bits in WIDTHS {
            let mask = (1u64 << bits) - 1;
            // The first two rows pin the width: 0 and the largest value.
            let v = match i {
                0 => 0,
                1 => mask,
                _ => (hash >> 7) & mask,
            };
            row.push(Value::I64(v as i64 - 1000));
        }
        b.push_row(row);
    }
    let t = b.finish();
    let code = |k: i64| Value::I64(k * 13 + 3);
    let filters: [(&str, Option<Predicate>); 4] = [
        ("no filter", None),
        (
            "dictionary 60 %",
            Some(Predicate::and(vec![
                Predicate::ge("code", code(20)),
                Predicate::le("code", code(80)),
                Predicate::ne("code", code(50)),
            ])),
        ),
        (
            "0 %",
            Some(Predicate::and(vec![
                Predicate::lt("p", Value::I64(50)),
                Predicate::lt("q", Value::I64(50)),
            ])),
        ),
        (
            "row range",
            Some(Predicate::between("ts", Value::I64(ts_at[2500]), Value::I64(ts_at[9000]))),
        ),
    ];
    let grid = Grid {
        forced: vec![
            (None, None),
            (Some(AggStrategy::InRegister), Some(SelectionStrategy::SpecialGroup)),
        ],
        levels: SimdLevel::available(),
        batch_rows: vec![4096, 1001],
        ..Grid::workers(&[2])
    };
    for bits in WIDTHS {
        for (flabel, filter) in &filters {
            let aggregates = vec![AggExpr::count_star(), AggExpr::sum(format!("v{bits}"))];
            let q = Query { filter: filter.clone(), aggregates, ..QueryBuilder::new().build() };
            for (options, r) in
                assert_matches_reference(&t, &q, &grid, &format!("v{bits} {flabel}"))
            {
                let stats = &r.stats;
                assert_eq!(
                    stats.agg_count(AggStrategy::InRegister),
                    stats.segments_scanned,
                    "{options:?}"
                );
            }
        }
    }
}
