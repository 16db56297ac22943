//! Worker-count equivalence: the morsel-driven scan must produce
//! *byte-identical* `QueryResult` rows to the row-at-a-time reference at
//! every worker count — one (the serial scan), 2, 4 and more —
//! across skewed segment sizes, tables with fewer segments than workers,
//! single-segment tables (intra-segment splitting), high group counts (the
//! wide-group fallback path), deleted rows, and randomized shapes. All
//! accumulations are exact integers and the merge is keyed by group value,
//! so no tolerance is needed: any divergence is a scheduling bug.

#![expect(clippy::disallowed_types, reason = "the suite reads finished trace events")]

mod common;

use bipie::columnstore::{EncodedColumn, EncodingHint, Segment, Table, Value};
use bipie::core::observability_compiled_out;
use bipie::core::{
    execute, AggExpr, AggStrategy, DecisionRecord, EngineError, ExecStats, Phase, Predicate,
    ProfileLevel, QueryBuilder, QueryOptions, QueryProfile, SelectionStrategy, TraceEvent,
};
use common::{
    arb_grid, arb_shape, assert_matches_reference, kab_query, run_cases, threads, with, Grid, Shape,
};

/// [`assert_matches_reference`] on [`kab_query`] over `grid`, plus what the
/// table's metadata predicts: the segments whose `a` range reaches
/// `threshold` are scanned — the mutable tail, encoded as a query encodes
/// it, among them — the others eliminated, and the scanned ones decompose
/// into morsels of whole batches. A non-decreasing bit-packed or delta `a`
/// answers the filter with a row range, so a scan starts at the batch that
/// holds the range's first row (DESIGN.md §13). Returns each run's stats.
fn assert_agrees(table: &Table, threshold: i64, grid: &Grid, label: &str) -> Vec<ExecStats> {
    let tail = table.mutable_rows().encode();
    let live: Vec<_> = table.segments().iter().chain(&tail).filter(|s| s.live_rows() > 0).collect();
    let scanned: Vec<_> = live.iter().filter(|s| s.meta(1).max >= threshold).collect();
    let first = |s: &Segment| match s.column(1) {
        EncodedColumn::BitPack(c) if c.is_non_decreasing() => c.partition_point(threshold, false),
        EncodedColumn::Delta(d) if d.is_non_decreasing() => d.partition_point(threshold, false),
        _ => 0,
    };
    let runs = assert_matches_reference(table, &kab_query(threshold), grid, label);
    let stats: Vec<ExecStats> = runs.into_iter().map(|(_, r)| r.stats).collect();
    for (s, options) in stats.iter().zip(grid.options(&QueryOptions::default())) {
        let batch = options.batch_rows;
        let morsel = options.morsel_rows.div_ceil(batch) * batch;
        let window = |s: &Segment| s.num_rows() - first(s) / batch * batch;
        let morsels: usize = scanned.iter().map(|s| window(s).div_ceil(morsel)).sum();
        let counts = (s.segments_scanned, s.segments_eliminated, s.morsels_scanned);
        assert_eq!(counts, (scanned.len(), live.len() - scanned.len(), morsels), "{label}: {s:?}");
    }
    stats
}

/// The grid of [`assert_agrees`]: 1, 2, 4 and `workers` workers at one
/// morsel and batch size.
fn grid(workers: usize, morsel_rows: usize, batch_rows: usize) -> Grid {
    let workers: Vec<_> =
        [1, 2, 4].into_iter().filter(|&w| w != workers).chain([workers]).collect();
    Grid { morsel_rows: vec![morsel_rows], batch_rows: vec![batch_rows], ..Grid::workers(&workers) }
}

#[test]
fn skewed_segments_agree() {
    // One hot segment dominating several small ones: home partitions are
    // unbalanced by construction and stealing must kick in for the result
    // to come back at all thread counts.
    let t = Shape::new(&[40_000, 300, 300, 150, 7], 9, 42).build();
    assert_eq!(t.segments().len(), 5);
    let stats = assert_agrees(&t, -2000, &grid(8, 1024, 512), "skewed");
    // The hot segment alone yields ~40 morsels for at most 8 workers;
    // at 4 and 8, at least one worker must have left its home partition.
    for s in &stats[2..] {
        assert!(s.morsel_steals > 0, "{s:?}");
    }
}

#[test]
fn fewer_segments_than_workers_agree() {
    let t = Shape::new(&[9_000, 5_000], 6, 7).build();
    assert_eq!(t.segments().len(), 2);
    assert_agrees(&t, 0, &grid(8, 512, 256), "2 segments, 8 workers");
}

#[test]
fn single_segment_splits_across_workers() {
    let t = Shape::new(&[30_000], 5, 11).build();
    assert_eq!(t.segments().len(), 1);
    let stats = assert_agrees(&t, -1000, &grid(4, 256, 128), "single segment");
    // The whole point of morsels: one segment still fans out.
    assert!(stats[0].morsels_scanned >= 30_000 / 256, "{:?}", stats[0]);
}

#[test]
fn high_group_counts_use_wide_path_and_agree() {
    // > 255 distinct keys forces the wide-group (u32 gid) fallback, whose
    // per-worker mappers intern keys in first-seen order — the merge must
    // be key-based for this to come out identical.
    let t = Shape::new(&[12_000, 8_000, 50], 1000, 3).build();
    let stats = assert_agrees(&t, -3000, &grid(4, 512, 256), "wide groups");
    // The two large segments see ~1000 distinct keys each and must take
    // the wide path (the 50-row one may fit narrow, depending on draw).
    assert!(stats[0].wide_group_segments >= 2, "{:?}", stats[0]);
}

#[test]
fn deleted_rows_agree() {
    let t = Shape { delete_stride: 8, ..Shape::new(&[10_000, 2_000, 500], 8, 19) }.build();
    assert_agrees(&t, -5000, &grid(4, 512, 256), "deleted rows");
}

#[test]
fn mutable_tail_rows_agree() {
    let t = Shape { tail: 40, ..Shape::new(&[6_000, 1_000], 7, 23) }.build();
    let stats = assert_agrees(&t, -5000, &grid(4, 512, 256), "mutable tail");
    assert_eq!(stats[0].mutable_rows, 40);
}

#[test]
fn a_tail_the_filter_eliminates_is_counted_eliminated() {
    let mut t = Shape::new(&[3_000, 1_000], 7, 37).build();
    for i in 0..50i64 {
        t.insert(vec![Value::I64(i % 7), Value::I64(-9_000 - i), Value::I64(i)]);
    }
    let stats = assert_agrees(&t, -5000, &grid(4, 512, 256), "eliminated tail");
    assert_eq!(stats[0].mutable_rows, 50);
    assert_eq!((stats[0].segments_scanned, stats[0].segments_eliminated), (2, 1));
}

#[test]
fn parallel_runs_are_deterministic() {
    // Scheduling is racy; results must not be. Two parallel executions of
    // the same query must match each other exactly, not just the serial run.
    let t = Shape::new(&[20_000, 100, 4_000], 300, 31).build();
    let options = QueryOptions { morsel_rows: 256, batch_rows: 128, ..threads(8) };
    let q = with(&kab_query(-1000), options);
    let first = execute(&t, &q).unwrap();
    for _ in 0..5 {
        let again = execute(&t, &q).unwrap();
        assert_eq!(again.rows, first.rows);
    }
}

#[test]
fn randomized_shapes_agree() {
    run_cases("randomized_shapes_agree", 32, |g| {
        let shape = arb_shape(g);
        let grid = arb_grid(g);
        let threshold = g.int(-6000i64..6000);
        assert_agrees(&shape.build(), threshold, &grid, &format!("{shape:?}"));
    });
}

/// A plan of one morsel forks no worker it cannot feed: asked for two, the
/// scan runs one, inline, and answers the same.
#[test]
fn the_fork_is_capped_at_the_planned_morsels() {
    let t = Shape::new(&[1], 3, 7).build();
    // Every `a` is at least -5000: the one row is selected.
    let runs = assert_matches_reference(&t, &kab_query(-5000), &Grid::workers(&[1, 2]), "1 row");
    let two = &runs[1].1;
    assert_eq!(two.stats.morsels_scanned, 1, "{:?}", two.stats);
    assert_eq!(two.stats.pool_workers, 1, "{:?}", two.stats);
}

#[test]
fn pool_is_reused_across_queries() {
    let t = Shape::new(&[10_000], 5, 57).build();
    let q = with(&kab_query(0), QueryOptions { morsel_rows: 512, batch_rows: 256, ..threads(4) });
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
    let t = Shape::new(&[8_000, 1_000], 9, 5).build();
    let grid = Grid { morsel_rows: vec![512], batch_rows: vec![256], ..Grid::workers(&[1, 4]) };
    for (options, r) in assert_matches_reference(&t, &kab_query(0), &grid, "profile off") {
        assert_eq!(options.profile, ProfileLevel::Off, "Off must be the default");
        assert!(r.profile.is_empty(), "{options:?}: {:?}", r.profile);
        assert!(r.profile.events.is_empty(), "{options:?}");
    }
}

#[test]
fn profile_counters_accumulate_without_events() {
    let t = Shape { tail: 40, ..Shape::new(&[8_000, 1_000], 9, 5) }.build();
    let options = QueryOptions { profile: ProfileLevel::Counters, ..threads(1) };
    let r = execute(&t, &with(&kab_query(-2000), options)).unwrap();
    assert!(r.profile.events.is_empty(), "Counters must not store events");
    if observability_compiled_out() {
        return;
    }
    assert!(!r.profile.is_empty());
    assert!(r.profile.phase(Phase::SegmentScan).count >= 2, "{:?}", r.profile.phases);
    assert_eq!(r.profile.phase(Phase::MutableTail).count, 1);
    assert_eq!(r.profile.phase(Phase::MutableTail).rows, 40);
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
    // 40 000 rows in runs of 100, every column RLE-encoded: the run-wise
    // sink's table. 9 keys stay on the narrow path; 1000 force the
    // wide-group fallback.
    let rle = [EncodingHint::Rle; 3];
    let run_wise = Shape { run: 100, ..Shape::new(&[40_000], 400, 13).hints(rle) }.build();
    let narrow = Shape::new(&[20_000, 3_000, 500], 9, 13).build();
    let wide = Shape::new(&[20_000, 3_000, 500], 1000, 13).build();
    // Ungrouped aggregates over bare RLE columns: eligible for run-wise.
    let run_wise_query = QueryBuilder::new()
        .filter(Predicate::lt("k", Value::I64(300)))
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("a"))
        .aggregate(AggExpr::max("a"))
        .build();
    let shapes = [
        (&run_wise, run_wise_query, "run-wise"),
        (&narrow, kab_query(-2000), "narrow"),
        (&wide, kab_query(-2000), "wide"),
    ];
    let grid = Grid { morsel_rows: vec![1024], batch_rows: vec![256], ..Grid::workers(&[1, 2]) };
    for (t, mut query, label) in shapes {
        query.options.profile = ProfileLevel::Spans;
        let runs = assert_matches_reference(t, &query, &grid, label);
        let one = &runs[0].1;
        let sink_segments = match label {
            "run-wise" => one.stats.agg_count(AggStrategy::RunWise),
            "wide" => one.stats.wide_group_segments,
            _ => one.stats.segments_scanned - one.stats.wide_group_segments,
        };
        assert!(sink_segments >= 1, "{label} must run its sink: {:?}", one.stats);
        if observability_compiled_out() {
            continue;
        }
        for ((_, r), threads) in runs.iter().zip([1, 2]) {
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
    let mut t = Shape::new(&[20_000, 600], 9, 71).build();
    for row in 0..256 {
        t.delete_row(0, row);
    }
    let query =
        with(&kab_query(-5000), QueryOptions { profile: ProfileLevel::Spans, ..threads(1) });
    let grid = Grid { morsel_rows: vec![256], batch_rows: vec![256], ..Grid::workers(&[1, 4]) };
    let runs = assert_matches_reference(&t, &query, &grid, "stolen morsels");
    let [(_, serial), (_, par)] = &runs[..] else { unreachable!() };
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
    let t = Shape::new(&[100], 3, 1).build();
    for (opts, option) in [
        (QueryOptions { threads: Some(0), ..Default::default() }, "threads"),
        (QueryOptions { morsel_rows: 0, ..Default::default() }, "morsel_rows"),
        (QueryOptions { batch_rows: 0, ..Default::default() }, "batch_rows"),
    ] {
        let err = execute(&t, &with(&kab_query(0), opts)).unwrap_err();
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
    let narrow = Shape::new(&[12_000, 3_000], 9, 17).build();
    let wide = Shape::new(&[20_000], 1_000, 29).build();
    // The smallest budget plan admission accepts for the wide table is its
    // projection — which a too-small budget's rejection reports.
    let rejected = QueryOptions { mem_budget: Some(1 << 10), ..threads(1) };
    let Err(EngineError::MemoryBudgetExceeded { requested: projection, .. }) =
        execute(&wide, &with(&kab_query(-5000), rejected))
    else {
        panic!("a 1 KiB budget must be rejected at plan time");
    };
    for (table, budget, what) in [(&narrow, 1, "executor plan"), (&wide, projection, "mid-scan")] {
        let errors = [1usize, 4].map(|workers| {
            let options = QueryOptions {
                mem_budget: Some(budget),
                morsel_rows: 512,
                batch_rows: 256,
                ..threads(workers)
            };
            execute(table, &with(&kab_query(-5000), options)).unwrap_err()
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
        assert_agrees(table, -5000, &grid(4, 512, 256), what);
    }
}

/// The `MutableTail` span is one scope around the tail's encode, so a
/// fully-flushed table (zero mutable rows) still records exactly one tail
/// span.
#[test]
fn mutable_tail_span_closes_with_zero_mutable_rows() {
    let t = Shape::new(&[2_000], 9, 5).build(); // flush_mutable ran: tail is empty
    let options = QueryOptions { profile: ProfileLevel::Spans, ..threads(1) };
    let r = execute(&t, &with(&kab_query(-2000), options)).unwrap();
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
    let t = Shape::new(&[20_000, 3_000], 1_000, 13).build(); // >128 groups: phase-2 merge runs
    let options = QueryOptions {
        profile: ProfileLevel::Spans,
        morsel_rows: 1024,
        batch_rows: 256,
        ..threads(4)
    };
    let r = execute(&t, &with(&kab_query(-2000), options)).unwrap();
    if observability_compiled_out() {
        return;
    }
    assert!(r.profile.phase(Phase::ParallelMerge).count >= 1, "{:?}", r.profile.phases);
}
