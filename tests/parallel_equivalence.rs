//! Worker-count equivalence: the morsel-driven scan must produce
//! *byte-identical* `QueryResult` rows to the row-at-a-time reference at
//! every worker count — `parallel: false` (one worker), 1, 2, 4 and more —
//! across skewed segment sizes, tables with fewer segments than workers,
//! single-segment tables (intra-segment splitting), high group counts (the
//! wide-group fallback path), deleted rows, and randomized shapes. All
//! accumulations are exact integers and the merge is keyed by group value,
//! so no tolerance is needed: any divergence is a scheduling bug.

#![expect(clippy::disallowed_types, reason = "the suite reads finished trace events")]

mod common;

use bipie::columnstore::{ColumnSpec, EncodingHint, LogicalType, Table, TableBuilder, Value};
use bipie::core::observability_compiled_out;
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, DecisionRecord, EngineError, Expr, Phase, Predicate,
    ProfileLevel, Query, QueryBuilder, QueryOptions, QueryProfile, SelectionStrategy, TraceEvent,
};
use common::run_cases;

/// Build a table whose immutable region has exactly one segment per entry
/// of `chunks` (with that many rows), by flushing the mutable region
/// between chunks. Group cardinality is `groups` (over an `I64` key column,
/// so large values exercise the wide-group path).
fn skewed_table(chunks: &[usize], groups: i64, seed: u64) -> Table {
    let mut t = Table::with_segment_rows(
        vec![
            ColumnSpec::new("k", LogicalType::I64),
            ColumnSpec::new("a", LogicalType::I64),
            ColumnSpec::new("b", LogicalType::I64),
        ],
        1 << 20,
    );
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for &rows in chunks {
        for _ in 0..rows {
            let k = (next() % groups as u64) as i64;
            let a = next() as i64 % 10_000 - 5_000;
            let b = next() as i64 % 1_000;
            t.insert(vec![Value::I64(k), Value::I64(a), Value::I64(b)]);
        }
        t.flush_mutable();
    }
    t
}

fn the_query(threshold: i64, options: QueryOptions) -> Query {
    QueryBuilder::new()
        .filter(Predicate::ge("a", Value::I64(threshold)))
        .group_by("k")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("a"))
        .aggregate(AggExpr::sum_expr(Expr::col("a").add(Expr::col("b").mul(Expr::lit(3)))))
        .aggregate(AggExpr::avg("b"))
        .aggregate(AggExpr::min("a"))
        .aggregate(AggExpr::max_expr(Expr::col("a").mul(Expr::col("b"))))
        .options(options)
        .build()
}

fn serial_options() -> QueryOptions {
    QueryOptions { parallel: false, ..Default::default() }
}

fn parallel_options(threads: usize, morsel_rows: usize, batch_rows: usize) -> QueryOptions {
    QueryOptions {
        parallel: true,
        threads: Some(threads),
        morsel_rows,
        batch_rows,
        ..Default::default()
    }
}

/// Run one table/query shape through the thread-count table — `parallel:
/// false`, then 1, 2, 4 and (last) `threads` workers — and return the last
/// run's stats for extra checks. Every case must return the reference's rows;
/// the batch grid is the same at every count, so the per-batch counters
/// agree exactly; a segment's aggregation strategy is decided once, at plan
/// time, so the per-segment counters agree exactly too and sum to the
/// segments scanned; and every count, one included, reports the morsels it
/// claimed and the workers it ran.
fn assert_equivalent(
    table: &Table,
    threshold: i64,
    threads: usize,
    morsel_rows: usize,
    batch_rows: usize,
    label: &str,
) -> bipie::core::ExecStats {
    let reference = execute_reference(table, &the_query(threshold, serial_options())).unwrap();
    // Segments the filter's metadata cannot eliminate, the mutable tail
    // encoded as a query encodes it among them, and the morsels (whole
    // batch windows) they decompose into.
    let tail = table.mutable_rows().encode();
    let live: Vec<_> = table.segments().iter().chain(&tail).filter(|s| s.live_rows() > 0).collect();
    let scanned: Vec<_> = live.iter().filter(|s| s.meta(1).max >= threshold).collect();
    let morsel = morsel_rows.div_ceil(batch_rows) * batch_rows;
    let morsels: usize = scanned.iter().map(|s| s.num_rows().div_ceil(morsel)).sum();

    let serial = QueryOptions { morsel_rows, batch_rows, ..serial_options() };
    let mut cases = vec![(serial, 1)];
    for w in [1, 2, 4].into_iter().filter(|&w| w != threads).chain([threads]) {
        cases.push((parallel_options(w, morsel_rows, batch_rows), w));
    }
    let mut grid: Option<(usize, usize, [usize; 4], [usize; 5])> = None;
    let mut last = None;
    for (options, workers) in cases {
        let label = format!("{label}: parallel={} workers={workers}", options.parallel);
        let r = execute(table, &the_query(threshold, options)).unwrap();
        assert_eq!(r.rows, reference.rows, "{label}");
        assert_eq!(r.group_columns, reference.group_columns, "{label}");
        let stats = r.stats;
        assert_eq!(stats.segments_scanned, scanned.len(), "{label}");
        assert_eq!(stats.segments_eliminated, live.len() - scanned.len(), "{label}");
        assert_eq!(stats.morsels_scanned, morsels, "{label}: {stats:?}");
        // When every segment was eliminated by metadata no region runs and
        // the worker count legitimately stays zero; otherwise the fork is
        // capped at one worker per morsel.
        let forked = if scanned.is_empty() { 0 } else { workers.min(morsels) };
        assert_eq!(stats.pool_workers, forked, "{label}");
        assert_eq!(stats.agg_segments.iter().sum::<usize>(), scanned.len(), "{label}: {stats:?}");
        let this = (stats.rows_scanned, stats.batches, stats.selection_batches, stats.agg_segments);
        assert_eq!(this, *grid.get_or_insert(this), "{label}");
        last = Some(stats);
    }
    last.unwrap()
}

#[test]
fn skewed_segments_agree() {
    // One hot segment dominating several small ones: home partitions are
    // unbalanced by construction and stealing must kick in for the result
    // to come back at all thread counts.
    let t = skewed_table(&[40_000, 300, 300, 150, 7], 9, 42);
    assert_eq!(t.segments().len(), 5);
    for threads in [2usize, 4, 8] {
        let stats = assert_equivalent(&t, -2000, threads, 1024, 512, "skewed");
        // The hot segment alone yields ~40 morsels for at most 8 workers;
        // at least one worker must have left its home partition.
        if threads >= 4 {
            assert!(stats.morsel_steals > 0, "threads={threads}: {stats:?}");
        }
    }
}

#[test]
fn fewer_segments_than_workers_agree() {
    let t = skewed_table(&[9_000, 5_000], 6, 7);
    assert_eq!(t.segments().len(), 2);
    assert_equivalent(&t, 0, 8, 512, 256, "2 segments, 8 workers");
}

#[test]
fn single_segment_splits_across_workers() {
    let t = skewed_table(&[30_000], 5, 11);
    assert_eq!(t.segments().len(), 1);
    let stats = assert_equivalent(&t, -1000, 4, 256, 128, "single segment");
    // The whole point of morsels: one segment still fans out.
    assert!(stats.morsels_scanned >= 30_000 / 256, "{stats:?}");
}

#[test]
fn high_group_counts_use_wide_path_and_agree() {
    // > 255 distinct keys forces the wide-group (u32 gid) fallback, whose
    // per-worker mappers intern keys in first-seen order — the merge must
    // be key-based for this to come out identical.
    let t = skewed_table(&[12_000, 8_000, 50], 1000, 3);
    let stats = assert_equivalent(&t, -3000, 4, 512, 256, "wide groups");
    // The two large segments see ~1000 distinct keys each and must take
    // the wide path (the 50-row one may fit narrow, depending on draw).
    assert!(stats.wide_group_segments >= 2, "{stats:?}");
}

#[test]
fn deleted_rows_agree() {
    let mut t = skewed_table(&[10_000, 2_000, 500], 8, 19);
    for i in 0..1500 {
        let seg = i % t.segments().len();
        let rows = t.segments()[seg].num_rows();
        t.delete_row(seg, (i * 37) % rows);
    }
    assert_equivalent(&t, -5000, 4, 512, 256, "deleted rows");
}

#[test]
fn mutable_tail_rows_agree() {
    let mut t = skewed_table(&[6_000, 1_000], 7, 23);
    for i in 0..40i64 {
        t.insert(vec![Value::I64(i % 7), Value::I64(i * 11 - 200), Value::I64(i)]);
    }
    assert!(!t.mutable_rows().is_empty());
    let stats = assert_equivalent(&t, -5000, 4, 512, 256, "mutable tail");
    assert_eq!(stats.mutable_rows, 40);
}

#[test]
fn a_tail_the_filter_eliminates_is_counted_eliminated() {
    let mut t = skewed_table(&[3_000, 1_000], 7, 37);
    for i in 0..50i64 {
        t.insert(vec![Value::I64(i % 7), Value::I64(-9_000 - i), Value::I64(i)]);
    }
    let stats = assert_equivalent(&t, -5000, 4, 512, 256, "eliminated tail");
    assert_eq!(stats.mutable_rows, 50);
    assert_eq!((stats.segments_scanned, stats.segments_eliminated), (2, 1), "{stats:?}");
}

#[test]
fn parallel_runs_are_deterministic() {
    // Scheduling is racy; results must not be. Two parallel executions of
    // the same query must match each other exactly, not just the serial run.
    let t = skewed_table(&[20_000, 100, 4_000], 300, 31);
    let q = the_query(-1000, parallel_options(8, 256, 128));
    let first = execute(&t, &q).unwrap();
    for _ in 0..5 {
        let again = execute(&t, &q).unwrap();
        assert_eq!(again.rows, first.rows);
    }
}

#[test]
fn randomized_shapes_agree() {
    run_cases("randomized_shapes_agree", 32, |g| {
        let chunks: Vec<usize> = g.vec_of(1..6, |g| g.int(1usize..4000));
        let groups = *g.pick(&[1i64, 3, 12, 200, 600]);
        let seed = g.rng.random::<u64>();
        let threshold = g.int(-6000i64..6000);
        let threads = g.int(2usize..9);
        let morsel_rows = *g.pick(&[64usize, 256, 1024, 100_000]);
        let batch_rows = *g.pick(&[64usize, 173, 512]);
        let t = skewed_table(&chunks, groups, seed);
        assert_equivalent(
            &t,
            threshold,
            threads,
            morsel_rows,
            batch_rows,
            &format!("chunks={chunks:?} groups={groups} seed={seed}"),
        );
    });
}

/// A plan of one morsel forks no worker it cannot feed: asked for two, the
/// scan runs one, inline, and answers the same.
#[test]
fn the_fork_is_capped_at_the_planned_morsels() {
    let t = skewed_table(&[1], 3, 7);
    // Every `a` is at least -5000: the one row is selected.
    let q = |options| the_query(-5000, options);
    let serial = execute(&t, &q(serial_options())).unwrap();
    let two = execute(&t, &q(QueryOptions { threads: Some(2), ..Default::default() })).unwrap();
    assert_eq!(two.rows, serial.rows);
    assert_eq!(two.rows, execute_reference(&t, &q(serial_options())).unwrap().rows);
    assert_eq!(two.stats.morsels_scanned, 1, "{:?}", two.stats);
    assert_eq!(two.stats.pool_workers, 1, "{:?}", two.stats);
}

#[test]
fn pool_is_reused_across_queries() {
    let t = skewed_table(&[10_000], 5, 57);
    let q = the_query(0, parallel_options(4, 512, 256));
    execute(&t, &q).unwrap(); // warm the pool
    let r = execute(&t, &q).unwrap();
    assert!(r.stats.pool_reuses > 0, "{:?}", r.stats);
}

/// Count aggregation-phase spans (every sink's) per selection-strategy
/// label. One such span fires per batch, so the counts
/// must equal `ExecStats::selection_batches` and be scheduling-invariant.
fn selection_span_counts(profile: &QueryProfile) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for event in &profile.events {
        if let TraceEvent::Span { phase: Phase::Aggregation, loc, .. } = event {
            if let Some(s) = loc.selection {
                counts[s as usize] += 1;
            }
        }
    }
    counts
}

#[test]
fn profile_off_leaves_profile_empty() {
    let t = skewed_table(&[8_000, 1_000], 9, 5);
    for (options, label) in
        [(serial_options(), "serial"), (parallel_options(4, 512, 256), "parallel")]
    {
        assert_eq!(options.profile, ProfileLevel::Off, "Off must be the default");
        let r = execute(&t, &the_query(0, options)).unwrap();
        assert!(r.profile.is_empty(), "{label}: {:?}", r.profile);
        assert!(r.profile.events.is_empty(), "{label}");
    }
}

#[test]
fn profile_counters_accumulate_without_events() {
    let mut t = skewed_table(&[8_000, 1_000], 9, 5);
    for i in 0..40i64 {
        t.insert(vec![Value::I64(i % 9), Value::I64(i * 7 - 100), Value::I64(i)]);
    }
    let options = QueryOptions { profile: ProfileLevel::Counters, ..serial_options() };
    let r = execute(&t, &the_query(-2000, options)).unwrap();
    assert!(r.profile.events.is_empty(), "Counters must not store events");
    if observability_compiled_out() {
        return;
    }
    assert!(!r.profile.is_empty());
    assert!(r.profile.phase(Phase::SegmentScan).count >= 2, "{:?}", r.profile.phases);
    assert_eq!(r.profile.phase(Phase::MutableTail).count, 1);
    assert_eq!(r.profile.phase(Phase::MutableTail).rows, 40);
}

/// 40 000 rows in runs of 100, both columns RLE-encoded: the run-wise
/// sink's table, for [`run_wise_query`].
fn run_wise_table() -> Table {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("k", LogicalType::I64).with_hint(EncodingHint::Rle),
            ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::Rle),
        ],
        1 << 20,
    );
    for i in 0..40_000i64 {
        b.push_row(vec![Value::I64(i / 100), Value::I64(i / 100 * 3)]);
    }
    b.finish()
}

/// Ungrouped aggregates over bare RLE columns: eligible for run-wise.
fn run_wise_query(options: QueryOptions) -> Query {
    QueryBuilder::new()
        .filter(Predicate::lt("k", Value::I64(300)))
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .aggregate(AggExpr::max("v"))
        .options(options)
        .build()
}

/// Every timed site records one span per unit of work, through each of the
/// three batch sinks (run-wise, narrow, wide), at one worker and at two:
/// `Selection` per batch, `Unpack` per narrow or wide batch, `Aggregation`
/// per batch, `SegmentScan` per morsel, one `Plan` and one
/// `MutableTail` per query. morsel_rows is a multiple of batch_rows, so both
/// counts see the identical batch grid and every per-batch decision must
/// agree.
#[test]
fn profile_span_counts_agree_serial_vs_parallel() {
    let run_wise = run_wise_table();
    // groups=9 stays on the narrow path; groups=1000 forces the wide-group
    // fallback.
    let narrow = skewed_table(&[20_000, 3_000, 500], 9, 13);
    let wide = skewed_table(&[20_000, 3_000, 500], 1000, 13);
    let grouped: fn(QueryOptions) -> Query = |options| the_query(-2000, options);
    let shapes = [
        (&run_wise, run_wise_query as fn(QueryOptions) -> Query, "run-wise"),
        (&narrow, grouped, "narrow"),
        (&wide, grouped, "wide"),
    ];
    for (t, query, label) in shapes {
        let runs = [1usize, 2].map(|threads| {
            let options = QueryOptions {
                profile: ProfileLevel::Spans,
                ..parallel_options(threads, 1024, 256)
            };
            execute(t, &query(options)).unwrap()
        });
        let [one, two] = &runs;
        assert_eq!(one.rows, two.rows, "{label}");
        assert_eq!(one.stats.selection_batches, two.stats.selection_batches, "{label}");
        // One aggregation decision per segment, made before any worker
        // starts: the same at either worker count.
        assert_eq!(one.stats.agg_segments, two.stats.agg_segments, "{label}");
        let sink_segments = match label {
            "run-wise" => one.stats.agg_count(AggStrategy::RunWise),
            "wide" => one.stats.wide_group_segments,
            _ => one.stats.segments_scanned - one.stats.wide_group_segments,
        };
        assert!(sink_segments >= 1, "{label} must run its sink: {:?}", one.stats);
        if observability_compiled_out() {
            continue;
        }
        for (r, threads) in runs.iter().zip([1, 2]) {
            let label = format!("{label} at {threads} threads");
            let (stats, count) = (&r.stats, |phase| r.profile.phase(phase).count);
            let batches = stats.batches as u64;
            let run_span = stats.selection_count(SelectionStrategy::RunSpan) as u64;
            assert_eq!(count(Phase::Selection), batches, "{label}");
            assert_eq!(count(Phase::Unpack), batches - run_span, "{label}");
            assert_eq!(count(Phase::Aggregation), batches, "{label}");
            assert_eq!(count(Phase::SegmentScan), stats.morsels_scanned as u64, "{label}");
            assert_eq!(count(Phase::Plan), 1, "{label}");
            assert_eq!(count(Phase::MutableTail), 1, "{label}");
            // The events tile the stats: one labeled aggregation-phase span
            // per counted batch.
            let spans = selection_span_counts(&r.profile);
            for (i, &c) in stats.selection_batches.iter().enumerate() {
                assert_eq!(spans[i], c as u64, "{label} strategy {i}");
            }
        }
    }
}

/// The `(segment, strategy, selectivity estimate)` of every aggregation
/// decision a spans-profiled run logged, in segment order.
fn agg_decisions(profile: &QueryProfile) -> Vec<(u32, AggStrategy, f64)> {
    let mut decisions: Vec<_> = profile
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decision(DecisionRecord::Agg {
                segment, chosen, est_selectivity, ..
            }) => Some((*segment, *chosen, *est_selectivity)),
            _ => None,
        })
        .collect();
    decisions.sort_by_key(|d| d.0);
    decisions
}

/// The decision is a function of (table, query, options), not of who stole
/// what. One hot segment, morsels of one batch, four workers: the window's
/// first batch selects nothing (every row of it is deleted) and every other
/// batch selects everything, so workers that sample whatever they claim
/// first disagree — three of four would estimate 1.0 where a serial scan
/// estimates 0.0. Sampled once at plan time, every count logs the serial
/// scan's one decision per segment.
#[test]
fn stolen_morsels_do_not_change_the_decision() {
    let mut t = skewed_table(&[20_000, 600], 9, 71);
    for row in 0..256 {
        t.delete_row(0, row);
    }
    let spans = |options| QueryOptions { profile: ProfileLevel::Spans, ..options };
    let query = |options| the_query(-5000, spans(options));
    let reference = execute_reference(&t, &query(serial_options())).unwrap();
    let serial = execute(&t, &query(parallel_options(1, 256, 256))).unwrap();
    let par = execute(&t, &query(parallel_options(4, 256, 256))).unwrap();
    for r in [&serial, &par] {
        assert_eq!(r.rows, reference.rows);
        assert_eq!(r.stats.agg_segments.iter().sum::<usize>(), r.stats.segments_scanned);
    }
    assert_eq!(par.stats.agg_segments, serial.stats.agg_segments);
    if observability_compiled_out() {
        return;
    }
    let decisions = agg_decisions(&serial.profile);
    assert_eq!(decisions.len(), serial.stats.segments_scanned, "{decisions:?}");
    assert_eq!(decisions[0].2, 0.0, "the hot segment's first batch selects nothing");
    assert_eq!(agg_decisions(&par.profile), decisions);
}

#[test]
fn invalid_parallel_options_are_typed_errors() {
    let t = skewed_table(&[100], 3, 1);
    for (opts, option) in [
        (QueryOptions { threads: Some(0), ..Default::default() }, "threads"),
        (QueryOptions { morsel_rows: 0, ..Default::default() }, "morsel_rows"),
        (QueryOptions { batch_rows: 0, ..Default::default() }, "batch_rows"),
    ] {
        let err = execute(&t, &the_query(0, opts)).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidOptions { option: o, .. } if o == option),
            "{err:?}"
        );
    }
}

/// Failures are worker-count-invariant too: a budget rejection where a
/// worker plans its executor (the first reservation) and a governor trip
/// mid-scan (the wide-group table outgrowing a budget that passed plan
/// admission) surface as the same typed error from one worker and from
/// four, and the pool stays reusable afterwards.
#[test]
fn worker_side_failures_are_the_same_typed_error_at_one_and_four_workers() {
    let narrow = skewed_table(&[12_000, 3_000], 9, 17);
    let wide = skewed_table(&[20_000], 1_000, 29);
    // The smallest budget plan admission accepts for the wide table is its
    // projection — which a too-small budget's rejection reports.
    let rejected = QueryOptions { mem_budget: Some(1 << 10), ..serial_options() };
    let Err(EngineError::MemoryBudgetExceeded { requested: projection, .. }) =
        execute(&wide, &the_query(-5000, rejected))
    else {
        panic!("a 1 KiB budget must be rejected at plan time");
    };
    for (table, budget, what) in [(&narrow, 1, "executor plan"), (&wide, projection, "mid-scan")] {
        let errors = [1usize, 4].map(|workers| {
            let options =
                QueryOptions { mem_budget: Some(budget), ..parallel_options(workers, 512, 256) };
            execute(table, &the_query(-5000, options)).unwrap_err()
        });
        for err in &errors {
            assert!(
                matches!(err, EngineError::MemoryBudgetExceeded { budget: b, .. } if *b == budget),
                "{what}: {err:?}"
            );
        }
        if budget == 1 {
            // Every worker's first reservation is the same request.
            assert_eq!(errors[0], errors[1], "{what}");
        }
        assert_equivalent(table, -5000, 4, 512, 256, what);
    }
}

/// The `MutableTail` span is one scope around the tail's encode, so a
/// fully-flushed table (zero mutable rows) still records exactly one tail
/// span.
#[test]
fn mutable_tail_span_closes_with_zero_mutable_rows() {
    let t = skewed_table(&[2_000], 9, 5); // flush_mutable ran: tail is empty
    let options = QueryOptions { profile: ProfileLevel::Spans, ..serial_options() };
    let r = execute(&t, &the_query(-2000, options)).unwrap();
    if observability_compiled_out() {
        return;
    }
    assert_eq!(r.profile.phase(Phase::MutableTail).count, 1, "{:?}", r.profile.phases);
    assert_eq!(r.profile.phase(Phase::MutableTail).rows, 0);
}

/// The phase-2 parallel merge records its `ParallelMerge` span when the
/// group count crosses the fork-join threshold.
#[test]
fn parallel_merge_span_survives_the_merge_extraction() {
    let t = skewed_table(&[20_000, 3_000], 1_000, 13); // >128 groups: phase-2 merge runs
    let options = QueryOptions { profile: ProfileLevel::Spans, ..parallel_options(4, 1024, 256) };
    let r = execute(&t, &the_query(-2000, options)).unwrap();
    if observability_compiled_out() {
        return;
    }
    assert!(r.profile.phase(Phase::ParallelMerge).count >= 1, "{:?}", r.profile.phases);
}
