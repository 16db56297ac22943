//! Multi-query serving: correctness and lifecycle of the process-wide
//! [`Engine`] under concurrent load (DESIGN.md §15).
//!
//! The contract under test is byte-identical results: whatever admission,
//! queueing, and weighted-fair pool interleaving do to *when* morsels run,
//! they must never change *what* a query returns. Every concurrent
//! execution below is compared row-for-row against a serial single-query
//! baseline computed up front.
//!
//! The stress tests default to a few rounds so the suite stays fast in the
//! tier-1 run; the CI `concurrency` job re-runs them in `--release` with
//! `BIPIE_STRESS_ITERS` elevated.

#![expect(
    clippy::disallowed_methods,
    reason = "concurrent clients drive the engine from real threads"
)]

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bipie::columnstore::{ColumnSpec, LogicalType, Table, Value};
use bipie::core::{
    execute, AdmissionReason, AggExpr, Engine, EngineConfig, EngineError, Expr, Predicate, Query,
    QueryBuilder, QueryOptions, ResultRow, SessionOptions,
};
use bipie::toolbox::sync;

/// Stress rounds per client; CI elevates via `BIPIE_STRESS_ITERS`.
fn stress_iters() -> usize {
    std::env::var("BIPIE_STRESS_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(4)
}

/// A multi-segment table with `groups` distinct keys and deterministic
/// pseudo-random payloads (SplitMix-style, seeded).
fn make_table(chunks: &[usize], groups: i64, seed: u64) -> Table {
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

/// The query shapes the clients mix: different filters, group widths, and
/// aggregate lists so concurrent queries stress different strategy paths.
fn query_shapes() -> Vec<Query> {
    vec![
        QueryBuilder::new()
            .filter(Predicate::ge("a", Value::I64(0)))
            .group_by("k")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("a"))
            .build(),
        QueryBuilder::new()
            .group_by("k")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::min("a"))
            .aggregate(AggExpr::max("b"))
            .build(),
        QueryBuilder::new()
            .filter(Predicate::ge("b", Value::I64(500)))
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum_expr(Expr::col("a").add(Expr::col("b").mul(Expr::lit(3)))))
            .aggregate(AggExpr::avg("b"))
            .build(),
    ]
}

/// Serial single-query baseline: no pool, no engine, one thread.
fn serial_rows(table: &Table, query: &Query) -> Vec<ResultRow> {
    let mut q = query.clone();
    q.options = QueryOptions { parallel: false, ..QueryOptions::default() };
    execute(table, &q).expect("serial baseline runs").rows
}

/// The tables the serving tests share: varied segment skew and group
/// counts, keyed by name as they are registered with the engine.
fn table_set() -> Vec<(&'static str, Table)> {
    vec![
        ("skewed", make_table(&[4096, 128, 9000, 1], 7, 11)),
        ("narrow", make_table(&[2000, 2000, 2000], 2, 23)),
        ("wide", make_table(&[6000], 4096, 37)),
    ]
}

#[test]
fn concurrent_clients_match_serial_baselines() {
    let tables = table_set();
    let queries = query_shapes();
    // Baselines first, fully serial, before the engine exists.
    let mut baselines = Vec::new();
    for (name, table) in &tables {
        for query in &queries {
            baselines.push((*name, query.clone(), serial_rows(table, query)));
        }
    }
    let baselines = Arc::new(baselines);

    let engine = Engine::new(EngineConfig {
        max_concurrent: 4,
        max_queued: 64,
        queue_timeout: Duration::from_secs(60),
        ..EngineConfig::default()
    });
    for (name, table) in tables {
        engine.register_table(name, table);
    }

    let clients = 8;
    let mismatches = Arc::new(sync::Usize::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let baselines = Arc::clone(&baselines);
            let mismatches = Arc::clone(&mismatches);
            thread::spawn(move || {
                // Odd clients run through weighted sessions, even ones
                // through the bare engine handle — same answers required.
                let session = (c % 2 == 1).then(|| {
                    engine.session(SessionOptions {
                        weight: 1 + c as u32,
                        ..SessionOptions::default()
                    })
                });
                for round in 0..stress_iters() {
                    for i in 0..baselines.len() {
                        // Offset per client so different queries collide.
                        let (name, query, want) = &baselines[(i + c + round) % baselines.len()];
                        let got = match &session {
                            Some(s) => s.execute(name, query),
                            None => engine.execute(name, query),
                        };
                        let got = got.expect("admitted query succeeds");
                        if &got.rows != want {
                            mismatches.fetch_add(1);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    assert_eq!(mismatches.load(), 0, "concurrent results diverged from serial");
}

#[test]
fn admission_sheds_under_aggregate_memory_pressure() {
    // Deterministic pin: a declaration the cap can never satisfy is shed
    // immediately with the typed reason, no timing involved.
    let engine = Engine::new(EngineConfig {
        aggregate_mem_budget: Some(8 << 20),
        ..EngineConfig::default()
    });
    engine.register_table("t", make_table(&[2000], 7, 5));
    let mut big = query_shapes().remove(0);
    big.options.mem_budget = Some(64 << 20);
    assert_eq!(
        engine.execute("t", &big).err(),
        Some(EngineError::AdmissionRejected { reason: AdmissionReason::AggregateMemory })
    );

    // Under contention for a cap that fits one query at a time, clients
    // either get shed with a typed admission error or get exact results —
    // never a wrong answer, never a hang.
    let engine = Engine::new(EngineConfig {
        max_concurrent: 4,
        max_queued: 0,
        queue_timeout: Duration::from_millis(50),
        aggregate_mem_budget: Some(8 << 20),
        ..EngineConfig::default()
    });
    let table = make_table(&[5000, 5000], 11, 13);
    let query = query_shapes().remove(1);
    let want = serial_rows(&table, &query);
    engine.register_table("t", table);
    let shed = Arc::new(sync::Usize::new(0));
    let served = Arc::new(sync::Usize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let query = query.clone();
            let want = want.clone();
            let (shed, served) = (Arc::clone(&shed), Arc::clone(&served));
            thread::spawn(move || {
                let mut q = query;
                q.options.mem_budget = Some(6 << 20); // one fits, two do not
                for _ in 0..stress_iters() {
                    match engine.execute("t", &q) {
                        Ok(got) => {
                            assert_eq!(got.rows, want);
                            served.fetch_add(1);
                        }
                        Err(EngineError::AdmissionRejected { .. })
                        | Err(EngineError::AdmissionTimeout { .. }) => {
                            shed.fetch_add(1);
                        }
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    assert!(served.load() > 0, "nothing was served");
    // Every client finished: nothing hung, nothing returned wrong rows.
    assert_eq!(engine.snapshot().aggregate_reserved, 0);
}

#[test]
fn sessions_open_query_drop_concurrently_with_table_churn() {
    let engine = Engine::new(EngineConfig { max_concurrent: 4, ..EngineConfig::default() });
    let stable = make_table(&[4000, 4000], 5, 17);
    let query = query_shapes().remove(0);
    let want = serial_rows(&stable, &query);
    engine.register_table("stable", stable);

    let churn = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            for i in 0..stress_iters() * 4 {
                let name = format!("scratch{}", i % 3);
                engine.register_table(name.clone(), make_table(&[64], 3, i as u64 + 1));
                thread::yield_now();
                engine.deregister_table(&name);
            }
        })
    };
    let clients: Vec<_> = (0..6)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let query = query.clone();
            let want = want.clone();
            thread::spawn(move || {
                for _ in 0..stress_iters() {
                    // Open, query, drop — a fresh session each round.
                    let session = engine.session(SessionOptions {
                        weight: 1 + (c % 3) as u32,
                        ..SessionOptions::default()
                    });
                    let got = session.execute("stable", &query).expect("stable table serves");
                    assert_eq!(got.rows, want);
                    // Scratch tables may or may not exist right now; both
                    // outcomes are fine, hangs and wrong errors are not.
                    match session.execute("scratch0", &query) {
                        Ok(_) | Err(EngineError::UnknownTable(_)) => {}
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            })
        })
        .collect();
    churn.join().expect("churn thread panicked");
    for h in clients {
        h.join().expect("client thread panicked");
    }
    let snap = engine.snapshot();
    assert_eq!((snap.active, snap.queued), (0, 0));
}

#[test]
fn queries_during_shutdown_get_typed_errors_not_hangs() {
    let engine = Engine::new(EngineConfig { max_concurrent: 2, ..EngineConfig::default() });
    let table = make_table(&[6000, 6000], 7, 29);
    let query = query_shapes().remove(2);
    let want = serial_rows(&table, &query);
    engine.register_table("t", table);

    const CLIENTS: usize = 4;
    // Every client has been served once when the main thread passes this,
    // so the shutdown below lands while all of them are still querying.
    let served_once = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let served_once = Arc::clone(&served_once);
            let query = query.clone();
            let want = want.clone();
            thread::spawn(move || {
                assert_eq!(engine.execute("t", &query).expect("served before shutdown").rows, want);
                served_once.wait();
                // Shutdown refuses every query after it returns, so this
                // loop ends at a refusal; the bound only turns a hang into
                // a failure.
                let deadline = Instant::now() + Duration::from_secs(60);
                while Instant::now() < deadline {
                    match engine.execute("t", &query) {
                        Ok(got) => assert_eq!(got.rows, want),
                        Err(EngineError::EngineShutdown) => return true,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
                false
            })
        })
        .collect();
    served_once.wait();
    engine.shutdown();
    for h in clients {
        assert!(h.join().expect("client thread panicked"), "a client was never refused");
    }
    // Post-shutdown: immediate typed refusal, drained admission state.
    assert_eq!(engine.execute("t", &query).err(), Some(EngineError::EngineShutdown));
    let snap = engine.snapshot();
    assert_eq!((snap.active, snap.queued, snap.aggregate_reserved), (0, 0, 0));
}

#[test]
fn pool_serves_other_tenants_after_a_cancelled_session() {
    let engine = Engine::new(EngineConfig { max_concurrent: 4, ..EngineConfig::default() });
    let table = make_table(&[8000, 8000], 9, 41);
    let query = query_shapes().remove(0);
    let want = serial_rows(&table, &query);
    engine.register_table("t", table);

    let doomed = Arc::new(engine.session(SessionOptions::default()));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let doomed = Arc::clone(&doomed);
            let query = query.clone();
            let want = want.clone();
            thread::spawn(move || {
                for _ in 0..stress_iters() {
                    match doomed.execute("t", &query) {
                        // Before the cancel lands queries still finish
                        // correctly; after it they fail fast and typed.
                        Ok(got) => assert_eq!(got.rows, want),
                        Err(EngineError::Cancelled) => {}
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            })
        })
        .collect();
    doomed.cancel_all();
    for h in clients {
        h.join().expect("client thread panicked");
    }
    // The cancelled tenant is dead for good...
    assert_eq!(doomed.execute("t", &query).err(), Some(EngineError::Cancelled));
    // ...but the engine and its shared pool serve everyone else exactly.
    let fresh = engine.session(SessionOptions::default());
    assert_eq!(fresh.execute("t", &query).expect("fresh tenant serves").rows, want);
    assert_eq!(engine.execute("t", &query).expect("bare handle serves").rows, want);
}

#[test]
fn reserve_saturates_admission_deterministically() {
    let engine = Engine::new(EngineConfig {
        max_concurrent: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(20),
        ..EngineConfig::default()
    });
    engine.register_table("t", make_table(&[500], 3, 3));
    let query = query_shapes().remove(1);
    let permit = engine.reserve(0).expect("slot free");
    assert_eq!(
        engine.execute("t", &query).err(),
        Some(EngineError::AdmissionRejected { reason: AdmissionReason::QueueFull })
    );
    drop(permit);
    assert!(engine.execute("t", &query).is_ok(), "slot reusable after permit drop");
}
