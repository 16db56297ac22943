//! Resource-governor semantics (DESIGN.md §10): cancellation, deadlines,
//! and memory budgets must surface as typed errors — never a panic, never a
//! partial `QueryResult` — and a tripped query must leave the worker pool
//! fully reusable: the next unrestricted query returns byte-identical rows
//! to a serial scan.

#![expect(clippy::disallowed_methods, reason = "a canceller thread races a running scan")]

use std::time::{Duration, Instant};

use bipie::columnstore::{ColumnSpec, LogicalType, Table, Value};
use bipie::core::{
    execute, AggExpr, CancelToken, EngineError, Expr, Predicate, Query, QueryBuilder, QueryOptions,
};

/// One immutable segment per entry of `chunks`; group key cardinality
/// `groups` (> 255 forces the wide-group path).
fn table(chunks: &[usize], groups: i64) -> Table {
    let mut t = Table::with_segment_rows(
        vec![
            ColumnSpec::new("k", LogicalType::I64),
            ColumnSpec::new("a", LogicalType::I64),
            ColumnSpec::new("b", LogicalType::I64),
        ],
        1 << 21,
    );
    let mut state = 0x9e3779b97f4a7c15u64;
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

/// No segment at all: `rows` rows in the mutable region.
fn tail_only_table(rows: usize) -> Table {
    let mut t = Table::with_segment_rows(table(&[], 1).specs().to_vec(), 1 << 21);
    for i in 0..rows as i64 {
        t.insert(vec![
            Value::I64(i % 7),
            Value::I64(i * 37 % 10_000 - 5_000),
            Value::I64(i % 1_000),
        ]);
    }
    t
}

fn the_query(options: QueryOptions) -> Query {
    QueryBuilder::new()
        .filter(Predicate::ge("a", Value::I64(-4_000)))
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

fn serial() -> QueryOptions {
    QueryOptions { parallel: false, ..Default::default() }
}

fn parallel(threads: usize) -> QueryOptions {
    QueryOptions { parallel: true, threads: Some(threads), ..Default::default() }
}

#[test]
fn pre_cancelled_query_fails_at_the_first_checkpoint() {
    let t = table(&[2_000], 7);
    for opts in [serial(), parallel(4)] {
        let token = CancelToken::new();
        token.cancel();
        let err =
            execute(&t, &the_query(QueryOptions { cancel: Some(token), ..opts })).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
    }
}

#[test]
fn mid_scan_cancellation_unwinds_and_the_pool_survives() {
    let t = table(&[1 << 21], 9);
    // The cancel must land mid-scan, so it is timed off an uncancelled run
    // of the same query: a fixed delay can outlast a fast scan. A sleeping
    // canceller can also wake ~10 ms late while four workers share two
    // cores, so 16-row batch windows stretch the scan to tens of ms.
    let slow = QueryOptions { batch_rows: 16, morsel_rows: 16, ..parallel(4) };
    let started = Instant::now();
    execute(&t, &the_query(slow.clone())).unwrap();
    let uncancelled = started.elapsed();
    assert!(uncancelled >= Duration::from_millis(1), "the scan must outlast its canceller");
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(uncancelled / 10);
            token.cancel();
        })
    };
    let err = execute(&t, &the_query(QueryOptions { cancel: Some(token), ..slow })).unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, EngineError::Cancelled), "{err:?}");

    // The pool must come back clean: an unrestricted parallel query on the
    // same process-wide pool returns byte-identical rows to a serial scan.
    let par = execute(&t, &the_query(parallel(4))).unwrap();
    let ser = execute(&t, &the_query(serial())).unwrap();
    assert_eq!(par.rows, ser.rows);
    assert_eq!(par.group_columns, ser.group_columns);
    assert_eq!(par.stats.pool_workers, 4, "{:?}", par.stats);
}

#[test]
fn expired_deadline_is_a_typed_error_in_both_modes() {
    let t = table(&[50_000], 9);
    for opts in [serial(), parallel(4)] {
        let opts = QueryOptions { time_budget: Some(Duration::from_nanos(1)), ..opts };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded), "{err:?}");
    }
}

#[test]
fn the_mutable_tail_runs_under_the_governor() {
    let t = tail_only_table(300_000);
    assert!(t.segments().is_empty());

    let token = CancelToken::new();
    token.cancel();
    let err =
        execute(&t, &the_query(QueryOptions { cancel: Some(token), ..serial() })).unwrap_err();
    assert!(matches!(err, EngineError::Cancelled), "{err:?}");

    // 1 ns has expired at admission; 200 µs expires while the tail is
    // encoded or scanned (milliseconds), where the plan checkpoint or a
    // batch window sees it.
    for budget in [Duration::from_nanos(1), Duration::from_micros(200)] {
        let opts = QueryOptions { time_budget: Some(budget), ..serial() };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded), "{budget:?}: {err:?}");
    }

    // The query's copy of the tail counts against the memory budget.
    for opts in [serial(), parallel(4)] {
        let opts = QueryOptions { mem_budget: Some(1 << 10), ..opts };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::MemoryBudgetExceeded { budget: 1024, .. }), "{err:?}");
    }

    // The tail is one more segment: a live token is polled exactly as often
    // as over the same rows flushed.
    let live = || QueryOptions { cancel: Some(CancelToken::new()), ..serial() };
    let governed = execute(&t, &the_query(live())).unwrap();
    assert_eq!(governed.stats.mutable_rows, 300_000);
    let mut flushed = tail_only_table(300_000);
    flushed.flush_mutable();
    let flushed = execute(&flushed, &the_query(live())).unwrap();
    assert_eq!(flushed.stats.mutable_rows, 0);
    assert_eq!(governed.stats.governor_checks, flushed.stats.governor_checks);
    assert_eq!(governed.rows, flushed.rows);

    // Nothing is left tripped: ungoverned runs agree, on the pool and off it.
    let par = execute(&t, &the_query(parallel(4))).unwrap();
    let ser = execute(&t, &the_query(serial())).unwrap();
    assert_eq!(par.rows, ser.rows);
    assert_eq!(par.rows, governed.rows);
}

#[test]
fn tiny_mem_budget_fails_at_first_reservation_without_panicking() {
    let t = table(&[50_000], 9);
    for opts in [serial(), parallel(4)] {
        let opts = QueryOptions { mem_budget: Some(1), ..opts };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        match err {
            EngineError::MemoryBudgetExceeded { budget, requested } => {
                assert_eq!(budget, 1);
                assert!(requested > 1, "requested={requested}");
            }
            other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
        }
    }
}

#[test]
fn wide_group_projection_is_rejected_at_plan_time() {
    // > 255 distinct keys forces the wide-group hash path, whose projected
    // table size is admitted against the budget before any batch runs.
    let t = table(&[20_000], 1_000);
    let opts = QueryOptions { mem_budget: Some(64 << 10), ..serial() };
    let err = execute(&t, &the_query(opts)).unwrap_err();
    match err {
        EngineError::MemoryBudgetExceeded { budget, requested } => {
            assert_eq!(budget, 64 << 10);
            assert!(requested > budget, "projection must exceed the budget: {requested}");
        }
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn generous_budgets_leave_results_identical_and_report_usage() {
    let t = table(&[30_000, 5_000], 200);
    for opts in [serial(), parallel(4)] {
        let free = execute(&t, &the_query(opts.clone())).unwrap();
        let governed = QueryOptions {
            cancel: Some(CancelToken::new()),
            time_budget: Some(Duration::from_secs(3600)),
            mem_budget: Some(1 << 30),
            ..opts
        };
        let gov = execute(&t, &the_query(governed)).unwrap();
        assert_eq!(gov.rows, free.rows);
        assert_eq!(gov.group_columns, free.group_columns);
        // One checkpoint at admission, one per planned segment (and a wide
        // segment's projection admission), and one with every morsel claim
        // and batch window handed out: a claim or a batch that skipped its
        // check would show here.
        let s = &gov.stats;
        let expected =
            1 + s.segments_scanned + s.wide_group_segments + s.morsels_scanned + s.batches;
        assert_eq!(s.governor_checks, expected, "{s:?}");
        assert!(gov.stats.mem_reserved_peak > 0, "{:?}", gov.stats);
        // An ungoverned run performs no checks and reserves nothing.
        assert_eq!(free.stats.governor_checks, 0, "{:?}", free.stats);
        assert_eq!(free.stats.mem_reserved_peak, 0, "{:?}", free.stats);
    }
}

#[test]
fn zero_budgets_are_rejected_as_invalid_options() {
    let t = table(&[100], 3);
    for (opts, option) in [
        (QueryOptions { time_budget: Some(Duration::ZERO), ..Default::default() }, "time_budget"),
        (QueryOptions { mem_budget: Some(0), ..Default::default() }, "mem_budget"),
    ] {
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidOptions { option: o, .. } if o == option),
            "{err:?}"
        );
    }
}

#[test]
fn cancelling_after_completion_changes_nothing() {
    let t = table(&[5_000], 5);
    let token = CancelToken::new();
    let opts = QueryOptions { cancel: Some(token.clone()), ..parallel(2) };
    let r = execute(&t, &the_query(opts.clone())).unwrap();
    token.cancel();
    // The finished result is untouched; only the *next* governed run trips.
    assert!(r.num_rows() > 0);
    let err = execute(&t, &the_query(opts)).unwrap_err();
    assert!(matches!(err, EngineError::Cancelled), "{err:?}");
}

/// The budget ladder is walked once per segment, at plan time, against an
/// even share of the budget per worker — so which rung a segment runs on is
/// a function of (budget, worker count), not of which worker reserved
/// first. 16-row batches make the multi-aggregate row builder's state
/// (≈ 46 KiB) dominate the footprint: the unbudgeted winner needs ≈ 48 KiB,
/// the scalar rung ≈ 1.7 KiB, and a 16 000-byte budget admits only the
/// latter — whole at one worker, a quarter each at four.
#[test]
fn budgeted_strategy_choice_is_the_same_at_one_and_four_workers() {
    use bipie::core::reference::execute_reference;
    let t = table(&[6_000], 7);
    let small = |threads| QueryOptions { batch_rows: 16, morsel_rows: 16, ..parallel(threads) };
    let reference = execute_reference(&t, &the_query(serial())).unwrap();
    let free = execute(&t, &the_query(small(1))).unwrap();
    let degraded = [1usize, 4].map(|threads| {
        let opts = QueryOptions { mem_budget: Some(16_000), ..small(threads) };
        let r = execute(&t, &the_query(opts)).unwrap();
        assert_eq!(r.rows, reference.rows, "threads={threads}");
        assert_eq!(r.stats.agg_segments.iter().sum::<usize>(), r.stats.segments_scanned);
        r.stats.agg_segments
    });
    assert_eq!(degraded[0], degraded[1], "one strategy per segment at either worker count");
    assert_ne!(degraded[0], free.stats.agg_segments, "the budget must have cost a rung");

    // A budget no rung fits fails the same way at both counts: the
    // undegraded winner's reservation, refused.
    let errors = [1usize, 4].map(|threads| {
        let opts = QueryOptions { mem_budget: Some(1), ..small(threads) };
        execute(&t, &the_query(opts)).unwrap_err()
    });
    assert!(matches!(errors[0], EngineError::MemoryBudgetExceeded { budget: 1, .. }), "{errors:?}");
    assert_eq!(errors[0], errors[1]);
}

#[test]
fn the_budget_ladder_shares_the_budget_among_the_workers_the_fork_runs() {
    use bipie::core::reference::execute_reference;
    // 2 000 rows are one morsel, so the fork runs one worker whatever the
    // requested count; the ladder must then price the budget for that one
    // worker too, not for four that never start.
    let t = table(&[2_000], 7);
    let reference = execute_reference(&t, &the_query(serial())).unwrap();
    let runs = [1usize, 4].map(|threads| {
        let opts = QueryOptions { mem_budget: Some(1_351_680), ..parallel(threads) };
        let r = execute(&t, &the_query(opts)).unwrap();
        assert_eq!(r.rows, reference.rows, "threads={threads}");
        assert_eq!(r.stats.pool_workers, 1, "threads={threads}: {:?}", r.stats);
        r.stats.agg_segments
    });
    assert_eq!(runs[0], runs[1], "one aggregation strategy at either requested worker count");
}
