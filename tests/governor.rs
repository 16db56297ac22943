//! Resource-governor semantics (DESIGN.md §10): cancellation, deadlines,
//! and memory budgets must surface as typed errors — never a panic, never a
//! partial `QueryResult` — and a tripped query must leave the worker pool
//! fully reusable: the next unrestricted query returns byte-identical rows
//! to a serial scan.

#![expect(clippy::disallowed_methods, reason = "a canceller thread races a running scan")]

mod common;

use std::time::{Duration, Instant};

use bipie::core::{execute, CancelToken, EngineError, Query, QueryOptions};
use common::{assert_matches_reference, kab_query, threads, Grid, Shape};

fn the_query(options: QueryOptions) -> Query {
    common::with(&kab_query(-4_000), options)
}

#[test]
fn pre_cancelled_query_fails_at_the_first_checkpoint() {
    let t = Shape::new(&[2_000], 7, 1).build();
    for opts in [threads(1), threads(4)] {
        let token = CancelToken::new();
        token.cancel();
        let err =
            execute(&t, &the_query(QueryOptions { cancel: Some(token), ..opts })).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
    }
}

#[test]
fn mid_scan_cancellation_unwinds_and_the_pool_survives() {
    let t = Shape::new(&[1 << 21], 9, 1).build();
    // The cancel must land mid-scan, so it is timed off an uncancelled run
    // of the same query: a fixed delay can outlast a fast scan. A sleeping
    // canceller can also wake ~10 ms late while four workers share two
    // cores, so 16-row batch windows stretch the scan to tens of ms.
    let slow = QueryOptions { batch_rows: 16, morsel_rows: 16, ..threads(4) };
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
    let par = execute(&t, &the_query(threads(4))).unwrap();
    let ser = execute(&t, &the_query(threads(1))).unwrap();
    assert_eq!(par.rows, ser.rows);
    assert_eq!(par.group_columns, ser.group_columns);
    assert_eq!(par.stats.pool_workers, 4, "{:?}", par.stats);
}

#[test]
fn expired_deadline_is_a_typed_error_in_both_modes() {
    let t = Shape::new(&[50_000], 9, 1).build();
    for opts in [threads(1), threads(4)] {
        let opts = QueryOptions { time_budget: Some(Duration::from_nanos(1)), ..opts };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded), "{err:?}");
    }
}

#[test]
fn the_mutable_tail_runs_under_the_governor() {
    let mut t = Shape { tail: 300_000, ..Shape::new(&[], 7, 1) }.build();
    assert!(t.segments().is_empty());

    let token = CancelToken::new();
    token.cancel();
    let err =
        execute(&t, &the_query(QueryOptions { cancel: Some(token), ..threads(1) })).unwrap_err();
    assert!(matches!(err, EngineError::Cancelled), "{err:?}");

    // 1 ns has expired at admission; 200 µs expires while the tail is
    // encoded or scanned (milliseconds), where the plan checkpoint or a
    // batch window sees it.
    for budget in [Duration::from_nanos(1), Duration::from_micros(200)] {
        let opts = QueryOptions { time_budget: Some(budget), ..threads(1) };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded), "{budget:?}: {err:?}");
    }

    // The query's copy of the tail counts against the memory budget.
    for opts in [threads(1), threads(4)] {
        let opts = QueryOptions { mem_budget: Some(1 << 10), ..opts };
        let err = execute(&t, &the_query(opts)).unwrap_err();
        assert!(matches!(err, EngineError::MemoryBudgetExceeded { budget: 1024, .. }), "{err:?}");
    }

    // Nothing is left tripped: ungoverned runs agree, on the pool and off it.
    let live = || QueryOptions { cancel: Some(CancelToken::new()), ..threads(1) };
    let governed = execute(&t, &the_query(live())).unwrap();
    assert_eq!(governed.stats.mutable_rows, 300_000);
    let par = execute(&t, &the_query(threads(4))).unwrap();
    let ser = execute(&t, &the_query(threads(1))).unwrap();
    assert_eq!(par.rows, ser.rows);
    assert_eq!(par.rows, governed.rows);

    // The tail is one more segment: a live token is polled exactly as often
    // as over the same rows flushed.
    t.flush_mutable();
    let flushed = execute(&t, &the_query(live())).unwrap();
    assert_eq!(flushed.stats.mutable_rows, 0);
    assert_eq!(governed.stats.governor_checks, flushed.stats.governor_checks);
    assert_eq!(governed.rows, flushed.rows);
}

#[test]
fn tiny_mem_budget_fails_at_first_reservation_without_panicking() {
    let t = Shape::new(&[50_000], 9, 1).build();
    for opts in [threads(1), threads(4)] {
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
    let t = Shape::new(&[20_000], 1_000, 1).build();
    let opts = QueryOptions { mem_budget: Some(64 << 10), ..threads(1) };
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
    let t = Shape::new(&[30_000, 5_000], 200, 1).build();
    for opts in [threads(1), threads(4)] {
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
    let t = Shape::new(&[100], 3, 1).build();
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
    let t = Shape::new(&[5_000], 5, 1).build();
    let token = CancelToken::new();
    let opts = QueryOptions { cancel: Some(token.clone()), ..threads(2) };
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
    let t = Shape::new(&[6_000], 7, 1).build();
    let small = |workers| QueryOptions { batch_rows: 16, morsel_rows: 16, ..threads(workers) };
    let free = execute(&t, &the_query(small(1))).unwrap();
    // One strategy per segment at either worker count: the shared check
    // holds the two counts' per-strategy segments equal.
    let grid = Grid { batch_rows: vec![16], morsel_rows: vec![16], ..Grid::workers(&[1, 4]) };
    let budgeted = the_query(QueryOptions { mem_budget: Some(16_000), ..threads(1) });
    let degraded = &assert_matches_reference(&t, &budgeted, &grid, "16 000 B")[0].1;
    assert_ne!(degraded.stats.agg_segments, free.stats.agg_segments, "the budget must cost a rung");

    // A budget no rung fits fails the same way at both counts: the
    // undegraded winner's reservation, refused.
    let errors = [1usize, 4].map(|workers| {
        let opts = QueryOptions { mem_budget: Some(1), ..small(workers) };
        execute(&t, &the_query(opts)).unwrap_err()
    });
    assert!(matches!(errors[0], EngineError::MemoryBudgetExceeded { budget: 1, .. }), "{errors:?}");
    assert_eq!(errors[0], errors[1]);
}

#[test]
fn the_budget_ladder_shares_the_budget_among_the_workers_the_fork_runs() {
    // 2 000 rows are one morsel, so the fork runs one worker whatever the
    // requested count; the ladder must then price the budget for that one
    // worker too, not for four that never start. The shared check holds
    // both counts to one aggregation strategy and one forked worker.
    let t = Shape::new(&[2_000], 7, 1).build();
    let budgeted = the_query(QueryOptions { mem_budget: Some(1_351_680), ..threads(1) });
    for (options, r) in assert_matches_reference(&t, &budgeted, &Grid::workers(&[1, 4]), "ladder") {
        assert_eq!(r.stats.pool_workers, 1, "{:?}: {:?}", options.threads, r.stats);
    }
}
