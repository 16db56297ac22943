//! Encoding-specialized operator equivalence (DESIGN.md §13).
//!
//! Sweeps encodings × predicates × aggregates and asserts the specialized
//! compressed-form paths — run-wise RLE kernels, monotonic range pruning,
//! fused dictionary predicate pre-evaluation — produce results identical
//! to the always-available decode fallback and to the row-at-a-time
//! reference executor. Covers run boundaries, all-accept / all-reject
//! batches, deleted rows, the mutable tail, and serial vs parallel scans.

use bipie::columnstore::encoding::EncodingHint;
use bipie::columnstore::{ColumnSpec, LogicalType, Table, TableBuilder, Value};
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, Predicate, ProfileLevel, Query, QueryBuilder, QueryOptions,
    ResultRow, SelectionStrategy,
};
use bipie::toolbox::SimdLevel;

/// `rows` rows in runs of `run_len`: `k = i / run_len`, `v = 7k - 3`.
/// Both columns RLE-encoded, split into `segment_rows` segments.
fn rle_table(rows: usize, run_len: usize, segment_rows: usize) -> Table {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("k", LogicalType::I64).with_hint(EncodingHint::Rle),
            ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::Rle),
        ],
        segment_rows,
    );
    for i in 0..rows as i64 {
        let run = i / run_len as i64;
        b.push_row(vec![Value::I64(run), Value::I64(7 * run - 3)]);
    }
    b.finish()
}

/// Ungrouped aggregates over `v`, eligible for the run-wise path.
fn agg_query(filter: Option<Predicate>, options: QueryOptions) -> Query {
    let mut q = QueryBuilder::new()
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .aggregate(AggExpr::min("v"))
        .aggregate(AggExpr::max("v"))
        .options(options);
    if let Some(f) = filter {
        q = q.filter(f);
    }
    q.build()
}

fn fallback_options() -> QueryOptions {
    QueryOptions {
        forced_agg: Some(AggStrategy::Scalar),
        forced_selection: Some(SelectionStrategy::Compact),
        ..Default::default()
    }
}

/// Engine (adaptive), engine (forced decode fallback), and the reference
/// executor must agree exactly.
fn assert_three_way(table: &Table, filter: Option<Predicate>, label: &str) {
    let adaptive = execute(table, &agg_query(filter.clone(), QueryOptions::default())).unwrap();
    let fallback = execute(table, &agg_query(filter.clone(), fallback_options())).unwrap();
    let oracle = execute_reference(table, &agg_query(filter, QueryOptions::default())).unwrap();
    assert_eq!(adaptive.rows, fallback.rows, "{label}: adaptive vs forced fallback");
    assert_eq!(adaptive.rows, oracle.rows, "{label}: adaptive vs reference");
}

#[test]
fn run_wise_matches_fallback_and_reference_across_predicates() {
    // Run lengths from fully fragmented (1) to long (100); boundary-aligned
    // and boundary-straddling batch windows.
    for run_len in [1usize, 3, 64, 100] {
        let t = rle_table(2000, run_len, 700);
        let max_k = (2000 / run_len) as i64;
        let preds: Vec<(&str, Option<Predicate>)> = vec![
            ("no filter", None),
            ("eq boundary", Some(Predicate::eq("k", Value::I64(1)))),
            ("ne", Some(Predicate::ne("k", Value::I64(2)))),
            ("lt mid", Some(Predicate::lt("k", Value::I64(max_k / 2)))),
            ("le zero", Some(Predicate::le("k", Value::I64(0)))),
            ("ge tail", Some(Predicate::ge("k", Value::I64(max_k - 1)))),
            ("between", Some(Predicate::between("k", Value::I64(1), Value::I64(5)))),
            ("all accept", Some(Predicate::ge("k", Value::I64(-1)))),
            ("all reject", Some(Predicate::gt("k", Value::I64(max_k + 1)))),
            (
                "conjunction",
                Some(Predicate::and(vec![
                    Predicate::ge("k", Value::I64(1)),
                    Predicate::lt("v", Value::I64(7 * (max_k / 2) - 3)),
                ])),
            ),
        ];
        for (label, pred) in preds {
            assert_three_way(&t, pred, &format!("run_len={run_len} {label}"));
        }
    }
}

#[test]
fn forcing_run_wise_on_eligible_table_uses_it_and_agrees() {
    let t = rle_table(3000, 50, 1100);
    let pred = Predicate::lt("k", Value::I64(30));
    let forced = QueryOptions {
        forced_agg: Some(AggStrategy::RunWise),
        forced_selection: Some(SelectionStrategy::RunSpan),
        parallel: false,
        ..Default::default()
    };
    let fast = execute(&t, &agg_query(Some(pred.clone()), forced)).unwrap();
    // The decision events must prove the specialized strategies fired.
    assert!(fast.stats.agg_count(AggStrategy::RunWise) > 0, "{:?}", fast.stats);
    assert!(fast.stats.selection_count(SelectionStrategy::RunSpan) > 0, "{:?}", fast.stats);
    assert_eq!(fast.stats.agg_count(AggStrategy::Scalar), 0);
    let oracle = execute_reference(&t, &agg_query(Some(pred), QueryOptions::default())).unwrap();
    assert_eq!(fast.rows, oracle.rows);
}

#[test]
fn deleted_rows_disable_run_wise_but_stay_correct() {
    let mut t = rle_table(2000, 100, 650); // 4 segments
    t.delete_row(1, 3);
    t.delete_row(1, 649);
    let pred = Some(Predicate::lt("k", Value::I64(15)));
    assert_three_way(&t, pred.clone(), "deleted rows");
    // The segment with deletions must not take the run-wise path; the
    // clean segments still may — either way every row is accounted for.
    let r = execute(&t, &agg_query(pred, QueryOptions::default())).unwrap();
    let counts: u64 = r.rows[0].aggs[0].as_count().unwrap();
    assert_eq!(counts, 15 * 100 - 2);
}

#[test]
fn mutable_tail_rows_join_run_wise_segments() {
    let mut t = rle_table(1300, 64, 1300);
    for i in 0..17i64 {
        t.insert(vec![Value::I64(2), Value::I64(7 * 2 - 3 + (i % 2))]);
    }
    assert_three_way(&t, Some(Predicate::eq("k", Value::I64(2))), "mutable tail");
    assert_three_way(&t, None, "mutable tail unfiltered");
}

#[test]
fn serial_and_parallel_agree_on_run_wise_path() {
    let t = rle_table(20_000, 128, 6000);
    let pred = Predicate::between("k", Value::I64(10), Value::I64(100));
    for (batch_rows, threads) in [(512usize, 2usize), (1024, 4), (4096, 8)] {
        let serial = QueryOptions { parallel: false, batch_rows, ..Default::default() };
        let par = QueryOptions {
            parallel: true,
            threads: Some(threads),
            batch_rows,
            ..Default::default()
        };
        let a = execute(&t, &agg_query(Some(pred.clone()), serial)).unwrap();
        let b = execute(&t, &agg_query(Some(pred.clone()), par)).unwrap();
        assert_eq!(a.rows, b.rows, "batch_rows={batch_rows} threads={threads}");
        // Run-wise or not is decided once per segment, before the workers.
        assert_eq!(a.stats.agg_segments, b.stats.agg_segments, "threads={threads}");
        assert_eq!(b.stats.agg_count(AggStrategy::RunWise), b.stats.segments_scanned);
    }
}

/// The engine's rows on `table`, under each of `options`, are `expected`;
/// every scanned segment logs one aggregation decision, and options that
/// differ only in their worker count log the same ones.
fn assert_engine_rows(
    table: &Table,
    query: &Query,
    options: &[QueryOptions],
    expected: &[ResultRow],
    label: &str,
) {
    let mut decided = std::collections::BTreeMap::new();
    for opts in options {
        let q = Query { options: opts.clone(), ..query.clone() };
        let fast = execute(table, &q).unwrap();
        let label = format!(
            "{label} threads={:?} batch_rows={} level={}",
            opts.threads, opts.batch_rows, opts.level
        );
        assert_eq!(fast.rows, expected, "{label}");
        let agg = fast.stats.agg_segments;
        assert_eq!(agg.iter().sum::<usize>(), fast.stats.segments_scanned, "{label}");
        let same_but_threads = (opts.batch_rows, opts.level.to_string());
        assert_eq!(agg, *decided.entry(same_but_threads).or_insert(agg), "{label}");
    }
}

/// {serial, 2 threads} × {default, 512-row batches}.
fn threads_by_batch_rows() -> Vec<QueryOptions> {
    let mut options = Vec::new();
    for batch_rows in [QueryOptions::default().batch_rows, 512] {
        let base = QueryOptions { batch_rows, morsel_rows: 1024, ..Default::default() };
        options.push(QueryOptions { parallel: false, ..base.clone() });
        options.push(QueryOptions { parallel: true, threads: Some(2), ..base });
    }
    options
}

/// Every SIMD tier × {serial, 2 threads over 512-row batches}.
fn tiers_by_threads() -> Vec<QueryOptions> {
    let mut options = Vec::new();
    for level in SimdLevel::available() {
        options.push(QueryOptions { level, parallel: false, ..Default::default() });
        options.push(QueryOptions {
            level,
            threads: Some(2),
            batch_rows: 512,
            ..Default::default()
        });
    }
    options
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
    let options = threads_by_batch_rows();
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
                    assert_engine_rows(
                        &delta,
                        &q,
                        &options,
                        &oracle.rows,
                        &format!("Delta {label}"),
                    );
                    assert_engine_rows(
                        &bitpack,
                        &q,
                        &options,
                        &oracle.rows,
                        &format!("BitPack {label}"),
                    );
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
    let q = |options: QueryOptions| {
        QueryBuilder::new()
            .filter(Predicate::between("ts", Value::I64(2 * 8_200), Value::I64(2 * 12_300)))
            .aggregate(AggExpr::count_star())
            .options(options)
            .build()
    };
    for threads in [1usize, 2] {
        let r = execute(&t, &q(QueryOptions { threads: Some(threads), ..Default::default() }));
        let r = r.unwrap();
        assert_eq!(r.rows[0].aggs[0].as_count(), Some(4_100));
        // Rows 8200..=12300 round outward to the 4096-row grid: 8192..16384.
        assert_eq!((r.stats.rows_scanned, r.stats.rows_pruned), (8_191, 11_807), "{threads}");
        assert_eq!((r.stats.batches, r.stats.morsels_scanned), (2, 1), "{threads}");
    }
    let r = execute(&t, &q(QueryOptions { profile: ProfileLevel::Spans, ..Default::default() }));
    let r = r.unwrap();
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
    let options = tiers_by_threads();
    for bits in [1u32, 7, 8, 9, 14, 16, 17, 28, 32, 33] {
        let (min, range) = (-3i64, ((1u64 << bits) - 1) as i64);
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("x", LogicalType::I64).with_hint(EncodingHint::BitPack),
                ColumnSpec::new("v", LogicalType::I64),
            ],
            1500,
        );
        for i in 0..1500u64 {
            // Both ends of the domain, out of order; then the top `bits` bits
            // of a multiplicative hash.
            let normalized = match i {
                0 => range,
                1 => 0,
                _ => (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as i64,
            };
            b.push_row(vec![Value::I64(min + normalized), Value::I64(i as i64)]);
        }
        let t = b.finish();
        for op in CMP_OPS {
            for c in [min - 1, min, min + range / 2, min + range, min + range + 1] {
                let q = QueryBuilder::new()
                    .filter(op("x", Value::I64(c)))
                    .aggregate(AggExpr::count_star())
                    .aggregate(AggExpr::sum("v"))
                    .build();
                let oracle = execute_reference(&t, &q).unwrap();
                let label = format!("bits={bits} {:?}", q.filter);
                assert_engine_rows(&t, &q, &options, &oracle.rows, &label);
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
/// codes' own word, and `x <= <largest entry>` is `code < cardinality`, a
/// constant one past what 8- or 16-bit codes can hold.
#[test]
fn dictionary_predicates_match_reference() {
    let options = tiers_by_threads();
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
                let label = format!("cardinality={cardinality} {col}: {label}");
                let oracle = execute_reference(&t, &q).unwrap();
                assert_engine_rows(&t, &q, &options, &oracle.rows, &label);
            }
        }
    }
}

/// Rows per segment of [`one_group_table`]: a full batch, then a 1-row tail.
const ONE_GROUP_SEGMENT_ROWS: usize = 4097;

/// Three 4 097-row segments of bit-packed columns for ungrouped (one-group)
/// queries: `f` spreads `0..1000` for `f < c` filters of selectivity
/// `c / 1000`; the sum inputs unpack to `u8` (`a`), `u16` (`b`, with
/// `u16::MAX`), `u32` reaching `u32::MAX` (`c`), `u64` (`d`, 40 bits), and
/// `u16` over a negative frame of reference (`n`). `deleted` drops rows at
/// both ends of every segment, its tail batch's row included.
fn one_group_table(deleted: bool) -> Table {
    let bitpack =
        |name: &str| ColumnSpec::new(name, LogicalType::I64).with_hint(EncodingHint::BitPack);
    let mut b = TableBuilder::with_segment_rows(
        ["f", "a", "b", "c", "d", "n"].map(bitpack).to_vec(),
        ONE_GROUP_SEGMENT_ROWS,
    );
    for i in 0..3 * ONE_GROUP_SEGMENT_ROWS as u64 {
        let hash = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (b16, c32) = match i {
            0 => (u16::MAX as u64, u32::MAX as u64),
            1 => (0, 0),
            _ => (hash >> 48, hash >> 32),
        };
        let mut row: Vec<Value> =
            [i * 7919 % 1000, i % 251, b16, c32, hash >> 24].map(|v| Value::I64(v as i64)).to_vec();
        row.push(Value::I64((i % 3001) as i64 - 1_000_000));
        b.push_row(row);
    }
    let mut t = b.finish();
    if deleted {
        for seg in 0..3 {
            for row in [0, 1, 2048, ONE_GROUP_SEGMENT_ROWS - 1] {
                t.delete_row(seg, row);
            }
        }
    }
    t
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
    let mut forced: Vec<(Option<AggStrategy>, Option<SelectionStrategy>)> =
        vec![(None, None), (Some(AggStrategy::InRegister), None)];
    forced.extend(SelectionStrategy::DENSE.map(|s| (Some(AggStrategy::InRegister), Some(s))));
    for agg in [AggStrategy::MultiAggregate, AggStrategy::SortBased, AggStrategy::Scalar] {
        forced.push((Some(agg), None));
        forced.push((Some(agg), Some(SelectionStrategy::SpecialGroup)));
    }
    // Serial and two workers at every tier, on the default batch grid.
    let mut bases = Vec::new();
    for level in SimdLevel::available() {
        for threads in [1, 2] {
            let profile = ProfileLevel::Spans;
            bases.push(QueryOptions {
                level,
                threads: Some(threads),
                profile,
                ..Default::default()
            });
        }
    }
    let mut adaptive_selections = [0usize; 3];
    for deleted in [false, true] {
        let t = one_group_table(deleted);
        for (qlabel, sums, adaptive_in_register) in &queries {
            for &below in &filters {
                let mut q = QueryBuilder::new().aggregate(AggExpr::count_star());
                for s in sums {
                    q = q.aggregate(s.clone());
                }
                if let Some(c) = below {
                    q = q.filter(Predicate::lt("f", Value::I64(c)));
                }
                let q = q.build();
                let oracle = execute_reference(&t, &q).unwrap();
                for base in &bases {
                    for &(forced_agg, forced_selection) in &forced {
                        let options = QueryOptions { forced_agg, forced_selection, ..base.clone() };
                        let label = format!(
                            "{qlabel} deleted={deleted} f<{below:?} {forced_agg:?}+\
                             {forced_selection:?} threads={:?} level={}",
                            options.threads, options.level
                        );
                        let r = execute(&t, &Query { options, ..q.clone() }).unwrap();
                        assert_eq!(r.rows, oracle.rows, "{label}");
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
                        if let Some(m) =
                            mapped.filter(|_| !bipie::core::observability_compiled_out())
                        {
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
    let t = rle_table(3000, 1, 1100); // run_len 1: runs_fraction == 1.0
    let opts = QueryOptions { parallel: false, profile: ProfileLevel::Spans, ..Default::default() };
    let r = execute(&t, &agg_query(Some(Predicate::lt("k", Value::I64(2000))), opts)).unwrap();
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
/// serial and on two workers. Rows equal the reference byte for byte.
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
    let mut options = Vec::new();
    for level in SimdLevel::available() {
        for batch_rows in [QueryOptions::default().batch_rows, 1001] {
            for forced in [false, true] {
                options.push(QueryOptions {
                    level,
                    batch_rows,
                    threads: Some(1 + forced as usize),
                    forced_agg: forced.then_some(AggStrategy::InRegister),
                    forced_selection: forced.then_some(SelectionStrategy::SpecialGroup),
                    ..Default::default()
                });
            }
        }
    }
    for bits in WIDTHS {
        for (flabel, filter) in &filters {
            let mut q = QueryBuilder::new()
                .aggregate(AggExpr::count_star())
                .aggregate(AggExpr::sum(format!("v{bits}")));
            if let Some(f) = filter {
                q = q.filter(f.clone());
            }
            let q = q.build();
            let oracle = execute_reference(&t, &q).unwrap();
            for opts in &options {
                let label = format!(
                    "v{bits} {flabel} batch_rows={} level={} forced={:?}",
                    opts.batch_rows, opts.level, opts.forced_agg
                );
                let r = execute(&t, &Query { options: opts.clone(), ..q.clone() }).unwrap();
                assert_eq!(r.rows, oracle.rows, "{label}");
                let stats = &r.stats;
                assert_eq!(
                    stats.agg_count(AggStrategy::InRegister),
                    stats.segments_scanned,
                    "{label}"
                );
            }
        }
    }
}
