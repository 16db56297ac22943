//! Multi-query serving: the process-wide [`Engine`] handle (DESIGN.md §15).
//!
//! Everything below `engine` executes *one* query: `scan` drives one morsel
//! stream, `governor` enforces one query's budgets, and the pool — since
//! this PR — interleaves whatever fork-join regions it is given in
//! weighted-fair order. This module is the layer that turns those pieces
//! into a server: one `Engine` owns a registry of shared tables and an
//! admission controller; many client threads (or [`Session`]s with tenant
//! weights and quotas) issue queries against it concurrently.
//!
//! Design points:
//!
//! * **Interior synchronization** — `Engine` is `Sync`; clients share it
//!   behind an `Arc` and call [`Engine::execute`] from any thread. Each
//!   query executes *on the calling thread* (which doubles as pool worker
//!   0), so admission never hands work to a remote executor and a client
//!   always makes progress on its own query even with a saturated pool.
//! * **Admission control** — at most `max_concurrent` queries execute at
//!   once; up to `max_queued` more wait on a condvar turnstile for at most
//!   `queue_timeout`. Anything beyond that is *shed* with a typed error
//!   ([`EngineError::AdmissionRejected`], [`EngineError::AdmissionTimeout`],
//!   [`EngineError::EngineShutdown`]) — the caller finds out immediately
//!   instead of piling onto a machine that cannot serve it.
//! * **Aggregate memory accounting** — an [`AggregateBudget`] caps the sum
//!   of admitted queries' *declared* memory budgets; each admitted query's
//!   own [`Governor`](crate::governor::Governor) then enforces its
//!   declaration against actual allocations. A query whose declaration can
//!   never fit the cap is rejected outright; one that merely does not fit
//!   *now* queues until reservations release.
//! * **Fair pool sharing** — each admitted query is stamped with a unique
//!   [`QueryTag`] carrying its session weight, so the shared worker pool's
//!   weighted-fair scheduler interleaves concurrent scans proportionally.
//!   A query that names no worker count runs on its share of the hardware
//!   threads at admission (the machine's over the admitted queries), so
//!   concurrent queries do not oversubscribe the cores.
//!
//! The correctness bar for all of this is byte-identical results: a query
//! executed through a contended `Engine` returns exactly the rows of the
//! same query executed alone (pinned by the `engine_serving` suite).

use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "the admission turnstile's locks")]
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bipie_columnstore::Table;
use bipie_toolbox::sync::{self, lock, wait, wait_timeout};

use crate::error::{AdmissionReason, EngineError, Result};
use crate::governor::{AggregateBudget, CancelToken};
use crate::pool::{hardware_threads, QueryTag, WorkerPool};
use crate::query::{Query, QueryResult};
use crate::scan::MAX_THREADS;
use crate::telemetry::{published, telemetry};

/// Admission and scheduling knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Queries allowed to execute simultaneously (≥ 1).
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot; a query arriving with the queue
    /// full is shed immediately. `0` disables queueing entirely.
    pub max_queued: usize,
    /// Longest a query may wait in the admission queue before it is shed
    /// with [`EngineError::AdmissionTimeout`].
    pub queue_timeout: Duration,
    /// Cap on the sum of admitted queries' declared memory budgets;
    /// `None` disables aggregate memory admission.
    pub aggregate_mem_budget: Option<usize>,
    /// Declared cost charged against the aggregate budget for queries that
    /// set no `mem_budget` of their own.
    pub default_query_mem: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_concurrent: 4,
            max_queued: 32,
            queue_timeout: Duration::from_secs(5),
            aggregate_mem_budget: None,
            default_query_mem: 16 << 20,
        }
    }
}

/// Per-tenant session knobs; see [`Engine::session`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Fair-share weight for the pool's scheduler (≥ 1): a weight-2
    /// session's queries receive twice the pool dispatches of a weight-1
    /// session's under contention.
    pub weight: u32,
    /// Tenant memory quota: clamps every query's declared `mem_budget`
    /// (and substitutes for a missing one).
    pub mem_quota: Option<usize>,
    /// Tenant time quota: clamps every query's `time_budget` the same way.
    pub time_quota: Option<Duration>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions { weight: 1, mem_quota: None, time_quota: None }
    }
}

/// Counts guarded by the engine's admission lock.
#[derive(Debug, Default)]
struct AdmissionState {
    /// Queries currently admitted and executing.
    active: usize,
    /// Queries currently waiting on the turnstile.
    queued: usize,
    /// Once set, new and queued queries fail with `EngineShutdown`;
    /// in-flight queries drain normally.
    shutting_down: bool,
}

/// A point-in-time view of the admission controller (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Queries currently admitted and executing.
    pub active: usize,
    /// Queries currently waiting for a slot.
    pub queued: usize,
    /// Declared bytes currently reserved against the aggregate budget.
    pub aggregate_reserved: usize,
    /// The aggregate cap (0 when aggregate admission is disabled).
    pub aggregate_cap: usize,
}

/// The process-wide serving handle: shared tables + admission control over
/// the shared worker pool. See the module docs for the architecture.
#[expect(clippy::disallowed_types, reason = "the admission turnstile and the table registry")]
pub struct Engine {
    config: EngineConfig,
    // LOCK: `admission` — root of the engine's order; guards the three
    // admission counts. Held across the turnstile wait and briefly at
    // slot release; `tables` is never acquired while it is held.
    admission: Mutex<AdmissionState>,
    /// Signalled on every slot/reservation release and on shutdown.
    // LOCK: waited on exclusively with the `admission` guard.
    turnstile: Condvar,
    /// Aggregate memory accountant (interior atomics, not a lock).
    aggregate: Option<AggregateBudget>,
    /// Registered tables, shared by every in-flight query.
    // LOCK: `tables` — leaf registry lock; held only to insert/remove/clone
    // an `Arc`, never across admission or query execution.
    tables: Mutex<BTreeMap<String, Arc<Table>>>,
    /// Next query id for [`QueryTag`]s (id 0 is the untagged queue).
    next_query_id: sync::U64,
    /// The machine's hardware threads, which admitted queries share.
    hardware_threads: usize,
}

impl Engine {
    /// Build an engine with `config`, ready for tables and clients.
    #[expect(clippy::disallowed_types, reason = "builds the engine's locks")]
    pub fn new(config: EngineConfig) -> Arc<Engine> {
        let aggregate = config.aggregate_mem_budget.map(AggregateBudget::new);
        Arc::new(Engine {
            config,
            admission: Mutex::new(AdmissionState::default()),
            turnstile: Condvar::new(),
            aggregate,
            tables: Mutex::new(BTreeMap::new()),
            next_query_id: sync::U64::new(1),
            hardware_threads: hardware_threads(),
        })
    }

    /// An engine with the default [`EngineConfig`].
    pub fn with_defaults() -> Arc<Engine> {
        Engine::new(EngineConfig::default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Register (or replace) a table under `name`. In-flight queries on a
    /// replaced table keep their `Arc` and finish on the old data.
    ///
    /// The table's mutable region is flushed here: every mutation takes
    /// `&mut Table`, so a registered table never changes, and its tail is
    /// encoded once per table version rather than by every query.
    pub fn register_table(&self, name: impl Into<String>, mut table: Table) {
        table.flush_mutable();
        // LOCK: `tables` leaf; temp guard dies at `;`.
        lock(&self.tables).insert(name.into(), Arc::new(table));
    }

    /// Drop the table registered under `name`; returns whether it existed.
    /// In-flight queries keep their `Arc` and finish normally.
    pub fn deregister_table(&self, name: &str) -> bool {
        // LOCK: `tables` leaf; temp guard dies at `;`.
        lock(&self.tables).remove(name).is_some()
    }

    /// Names of the currently registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        // LOCK: `tables` leaf; temp guard dies at `;`.
        lock(&self.tables).keys().cloned().collect()
    }

    fn lookup(&self, name: &str) -> Result<Arc<Table>> {
        // LOCK: `tables` leaf; temp guard dies at `;` — the clone escapes,
        // the guard does not.
        lock(&self.tables)
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Open a tenant [`Session`]: queries issued through it carry the
    /// session's scheduler weight, are clamped to its quotas, and share a
    /// [`CancelToken`] so the tenant can be cancelled as a unit.
    pub fn session(self: &Arc<Self>, options: SessionOptions) -> Session {
        Session { engine: Arc::clone(self), options, cancel: CancelToken::new() }
    }

    /// Execute `query` against the registered table `table` under default
    /// tenant terms (weight 1, no quotas). Blocks the calling thread for
    /// the duration; admission may queue it up to `queue_timeout`.
    pub fn execute(&self, table: &str, query: &Query) -> Result<QueryResult> {
        published(|| self.execute_with(table, query, &SessionOptions::default(), None))
    }

    /// Reserve one admission slot plus `mem_bytes` of the aggregate budget
    /// *without* running a query — for engine-external work (ingest,
    /// compaction) that should count against serving capacity, and for
    /// deterministically saturating the engine in tests. Admission rules
    /// are exactly [`Engine::execute`]'s, a shed included.
    pub fn reserve(&self, mem_bytes: usize) -> Result<EnginePermit<'_>> {
        published(|| self.admit(mem_bytes)).map(|permit| EnginePermit { permit })
    }

    /// Shut the engine down: queued and future queries fail with
    /// [`EngineError::EngineShutdown`]; this call blocks until every
    /// in-flight query has drained. Idempotent.
    pub fn shutdown(&self) {
        // LOCK: `admission` held across the drain loop below; it is the
        // only guard live in this region.
        let mut state = lock(&self.admission);
        state.shutting_down = true;
        self.turnstile.notify_all();
        while state.active > 0 {
            // LOCK: waits on `turnstile` with the `admission` guard it
            // consumes and returns; permits notify on every release.
            state = wait(&self.turnstile, state);
        }
    }

    /// Whether [`Engine::shutdown`] has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        // LOCK: `admission` read-only peek; temp guard dies at `;`.
        lock(&self.admission).shutting_down
    }

    /// A point-in-time view of the admission state (diagnostics, benches).
    pub fn snapshot(&self) -> EngineSnapshot {
        let (active, queued) = {
            // LOCK: `admission` read-only peek; guard dies at block end.
            let state = lock(&self.admission);
            (state.active, state.queued)
        };
        EngineSnapshot {
            active,
            queued,
            aggregate_reserved: self.aggregate.as_ref().map_or(0, AggregateBudget::reserved),
            aggregate_cap: self.aggregate.as_ref().map_or(0, AggregateBudget::cap),
        }
    }

    /// The admission controller: admit now, queue (bounded, timed), or
    /// shed with a typed error (which the caller's publication boundary
    /// counts as a shed). `cost` is the query's declared memory budget,
    /// charged against the aggregate accountant for as long as the returned
    /// permit lives.
    fn admit(&self, cost: usize) -> Result<AdmissionPermit<'_>> {
        let max_concurrent = self.config.max_concurrent.max(1);
        // A declaration the cap can never satisfy is shed immediately —
        // this is the deterministic "provably sheds" path: no concurrency
        // or timing is needed to reach it.
        if let Some(agg) = &self.aggregate {
            if cost > agg.cap() {
                return Err(EngineError::AdmissionRejected {
                    reason: AdmissionReason::AggregateMemory,
                });
            }
        }

        // LOCK: `admission` held for the whole admit loop (waits included);
        // no other lock is acquired while it is live.
        let mut state = lock(&self.admission);
        let mut queued_since: Option<Instant> = None;
        loop {
            if state.shutting_down {
                if queued_since.is_some() {
                    state.queued -= 1;
                }
                return Err(EngineError::EngineShutdown);
            }
            if state.active < max_concurrent {
                let reserved = match &self.aggregate {
                    Some(agg) => agg.try_reserve(cost),
                    None => true,
                };
                if reserved {
                    state.active += 1;
                    if queued_since.is_some() {
                        state.queued -= 1;
                    }
                    let (active, queued) = (state.active, state.queued);
                    drop(state);
                    telemetry().publish_engine_admission(active, queued, true);
                    let threads = (self.hardware_threads / active).clamp(1, MAX_THREADS);
                    return Ok(AdmissionPermit { engine: self, cost, threads });
                }
            }
            // Saturated (slots or aggregate memory): join the queue once,
            // then wait for releases until the timeout runs out.
            let since = match queued_since {
                Some(since) => since,
                None => {
                    if state.queued >= self.config.max_queued {
                        return Err(EngineError::AdmissionRejected {
                            reason: AdmissionReason::QueueFull,
                        });
                    }
                    state.queued += 1;
                    telemetry().publish_engine_admission(state.active, state.queued, false);
                    *queued_since.insert(Instant::now())
                }
            };
            let waited = since.elapsed();
            let Some(left) = self.config.queue_timeout.checked_sub(waited) else {
                state.queued -= 1;
                let (active, queued) = (state.active, state.queued);
                drop(state);
                telemetry().publish_engine_admission(active, queued, false);
                return Err(EngineError::AdmissionTimeout { waited });
            };
            // LOCK: timed wait on `turnstile` with the `admission` guard it
            // consumes and returns; permits and `shutdown` notify.
            state = wait_timeout(&self.turnstile, state, left);
        }
    }

    /// The execution path shared by [`Engine::execute`] and
    /// [`Session::execute`], inside their publication boundary.
    fn execute_with(
        &self,
        table: &str,
        query: &Query,
        options: &SessionOptions,
        session_cancel: Option<&CancelToken>,
    ) -> Result<QueryResult> {
        // Tenant quotas clamp the query's own declarations (a query may
        // always ask for *less* than its quota, never more).
        let mut query = query.clone();
        let declared = &mut query.options;
        declared.mem_budget = match (declared.mem_budget, options.mem_quota) {
            (Some(own), Some(quota)) => Some(own.min(quota)),
            (own, quota) => own.or(quota),
        };
        declared.time_budget = match (declared.time_budget, options.time_quota) {
            (Some(own), Some(quota)) => Some(own.min(quota)),
            (own, quota) => own.or(quota),
        };
        if declared.cancel.is_none() {
            declared.cancel = session_cancel.cloned();
        }
        // Fail malformed options and unknown tables fast — before the
        // query consumes an admission slot or queue position.
        query.options.validate()?;
        let table = self.lookup(table)?;

        let cost = query.options.mem_budget.unwrap_or(self.config.default_query_mem);
        let permit = self.admit(cost)?;
        // A query that names no worker count runs on its admission share of
        // the hardware threads, so concurrent queries never fork more
        // workers than there are cores.
        query.options.threads = query.options.threads.or(Some(permit.threads));
        let id = self.next_query_id.fetch_add(1);
        query.options.tag = QueryTag { query: id, weight: options.weight.max(1) };

        let result = crate::query::run(&table, &query);
        drop(permit);
        telemetry().publish_sched_stats(WorkerPool::global().sched_stats());
        result
    }
}

/// RAII admission: one slot + one aggregate reservation, released (and the
/// turnstile notified) on drop — panic-safe by construction.
struct AdmissionPermit<'e> {
    engine: &'e Engine,
    cost: usize,
    /// The query's share of the hardware threads: the machine's, divided
    /// among the queries admitted at the time, this one included, within
    /// `1..=MAX_THREADS`.
    threads: usize,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        if let Some(agg) = &self.engine.aggregate {
            agg.release(self.cost);
        }
        let (active, queued) = {
            // LOCK: `admission` slot release; guard dies at block end,
            // before the turnstile is notified.
            let mut state = lock(&self.engine.admission);
            state.active -= 1;
            (state.active, state.queued)
        };
        self.engine.turnstile.notify_all();
        telemetry().publish_engine_admission(active, queued, false);
    }
}

/// A held admission slot from [`Engine::reserve`]; dropping it releases
/// the slot and its aggregate-memory reservation.
pub struct EnginePermit<'e> {
    #[allow(dead_code, reason = "held for its Drop side effect")]
    permit: AdmissionPermit<'e>,
}

/// A tenant handle onto a shared [`Engine`]: carries a scheduler weight,
/// quota clamps, and a session-wide [`CancelToken`]. Cheap to open; open
/// one per client or per tenant as granularity demands.
pub struct Session {
    engine: Arc<Engine>,
    options: SessionOptions,
    cancel: CancelToken,
}

impl Session {
    /// Execute `query` under this session's weight, quotas, and cancel
    /// token (a query's own `cancel` token, when set, takes precedence).
    pub fn execute(&self, table: &str, query: &Query) -> Result<QueryResult> {
        published(|| self.engine.execute_with(table, query, &self.options, Some(&self.cancel)))
    }

    /// The session's options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The shared engine handle.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// A clone of the session's cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancel every in-flight and future query of this session that did
    /// not bring its own token. The engine and its pool stay fully
    /// serviceable for other sessions — pinned by the lifecycle tests.
    pub fn cancel_all(&self) {
        self.cancel.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggExpr, QueryBuilder};
    use bipie_columnstore::{ColumnSpec, LogicalType, TableBuilder, Value};

    fn small_table(rows: i64) -> Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
            256,
        );
        for i in 0..rows {
            b.push_row(vec![Value::Str(["a", "b"][(i % 2) as usize].into()), Value::I64(i)]);
        }
        b.finish()
    }

    fn count_query() -> Query {
        QueryBuilder::new().group_by("g").aggregate(AggExpr::count_star()).build()
    }

    #[test]
    fn executes_registered_table_and_rejects_unknown() {
        let engine = Engine::with_defaults();
        engine.register_table("t", small_table(500));
        let r = engine.execute("t", &count_query()).expect("query runs");
        assert_eq!(r.num_rows(), 2);
        assert_eq!(
            engine.execute("nope", &count_query()).err(),
            Some(EngineError::UnknownTable("nope".into()))
        );
        assert_eq!(engine.table_names(), vec!["t".to_string()]);
        assert!(engine.deregister_table("t"));
        assert!(!engine.deregister_table("t"));
    }

    #[test]
    fn a_registered_tail_is_encoded_once_not_per_query() {
        let mut t = small_table(500);
        for i in 0..40 {
            t.insert(vec![Value::Str("c".into()), Value::I64(i)]);
        }
        let q = QueryBuilder::new()
            .group_by("g")
            .aggregate(AggExpr::count_star())
            .aggregate(AggExpr::sum("v"))
            .build();
        let reference = crate::reference::execute_reference(&t, &q).expect("reference runs");
        let engine = Engine::with_defaults();
        engine.register_table("t", t);
        let r = engine.execute("t", &q).expect("query runs");
        assert_eq!(r.rows, reference.rows);
        assert_eq!(r.stats.mutable_rows, 0, "{:?}", r.stats);
    }

    #[test]
    fn oversized_declaration_is_shed_deterministically() {
        let engine = Engine::new(EngineConfig {
            aggregate_mem_budget: Some(1 << 20),
            ..EngineConfig::default()
        });
        engine.register_table("t", small_table(100));
        let mut q = count_query();
        q.options.mem_budget = Some(2 << 20);
        assert_eq!(
            engine.execute("t", &q).err(),
            Some(EngineError::AdmissionRejected { reason: AdmissionReason::AggregateMemory })
        );
        // The engine remains serviceable afterwards.
        let mut ok = count_query();
        ok.options.mem_budget = Some(1 << 20);
        assert!(engine.execute("t", &ok).is_ok());
    }

    #[test]
    fn oversized_thread_counts_are_refused_before_admission() {
        // One slot, no queue, and the slot held: anything that reached
        // admission would be shed with `QueueFull` instead.
        let engine =
            Engine::new(EngineConfig { max_concurrent: 1, max_queued: 0, ..Default::default() });
        engine.register_table("t", small_table(100));
        let _held = engine.reserve(0).expect("the one slot is free");
        let mut q = count_query();
        q.options.threads = Some(MAX_THREADS + 1);
        let session = engine.session(SessionOptions::default());
        for err in [engine.execute("t", &q).err(), session.execute("t", &q).err()] {
            assert!(
                matches!(err, Some(EngineError::InvalidOptions { option: "threads", .. })),
                "{err:?}"
            );
        }
        assert_eq!(engine.snapshot().queued, 0);
    }

    #[test]
    fn queue_full_and_timeout_shed_with_typed_errors() {
        let engine = Engine::new(EngineConfig {
            max_concurrent: 1,
            max_queued: 0,
            queue_timeout: Duration::from_millis(10),
            ..EngineConfig::default()
        });
        engine.register_table("t", small_table(100));
        let held = engine.reserve(0).expect("slot free");
        // max_queued = 0: the second arrival sheds instead of queueing.
        assert_eq!(
            engine.execute("t", &count_query()).err(),
            Some(EngineError::AdmissionRejected { reason: AdmissionReason::QueueFull })
        );
        drop(held);
        assert!(engine.execute("t", &count_query()).is_ok());

        // With one queue slot the arrival waits, then times out.
        let engine = Engine::new(EngineConfig {
            max_concurrent: 1,
            max_queued: 1,
            queue_timeout: Duration::from_millis(10),
            ..EngineConfig::default()
        });
        engine.register_table("t", small_table(100));
        let _held = engine.reserve(0).expect("slot free");
        match engine.execute("t", &count_query()) {
            Err(EngineError::AdmissionTimeout { waited }) => {
                assert!(waited >= Duration::from_millis(10));
            }
            other => panic!("expected AdmissionTimeout, got {other:?}"),
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a second client waits for the budget the test releases"
    )]
    fn aggregate_pressure_queues_then_admits() {
        let engine = Engine::new(EngineConfig {
            max_concurrent: 4,
            max_queued: 4,
            queue_timeout: Duration::from_secs(5),
            aggregate_mem_budget: Some(64 << 20),
            ..EngineConfig::default()
        });
        engine.register_table("t", small_table(100));
        let held = engine.reserve(60 << 20).expect("fits");
        assert_eq!(engine.snapshot().aggregate_reserved, 60 << 20);
        // 8 MiB fits the cap but not the current 4 MiB headroom: the query
        // must wait for the release below, then succeed.
        let mut q = count_query();
        q.options.mem_budget = Some(8 << 20);
        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.execute("t", &q))
        };
        // Give the spawned query time to reach the queue, then release.
        while engine.snapshot().queued == 0 {
            std::thread::yield_now();
        }
        drop(held);
        assert!(worker.join().expect("no panic").is_ok());
        assert_eq!(engine.snapshot().aggregate_reserved, 0);
    }

    #[test]
    fn an_admitted_query_runs_on_its_share_of_the_hardware_threads() {
        let engine = Engine::with_defaults();
        engine.register_table("t", small_table(2000));
        let hardware = engine.hardware_threads;
        let workers = |q: &Query| engine.execute("t", q).expect("query runs").stats.pool_workers;
        assert_eq!(workers(&count_query()), hardware, "alone: every hardware thread");
        // Beside one held slot the query is one of two admitted.
        let held = engine.reserve(0).expect("slot free");
        assert_eq!(workers(&count_query()), (hardware / 2).max(1));
        // A worker count the query names is never overridden.
        let mut named = count_query();
        named.options.threads = Some(3);
        assert_eq!(workers(&named), 3);
        drop(held);
        assert_eq!(workers(&count_query()), hardware);
    }

    #[test]
    fn shutdown_drains_and_refuses() {
        let engine = Engine::with_defaults();
        engine.register_table("t", small_table(100));
        engine.shutdown();
        assert!(engine.is_shutting_down());
        assert_eq!(engine.execute("t", &count_query()).err(), Some(EngineError::EngineShutdown));
        assert!(matches!(engine.reserve(0), Err(EngineError::EngineShutdown)));
        // Idempotent.
        engine.shutdown();
    }

    #[test]
    fn session_quotas_clamp_query_budgets() {
        let engine = Engine::new(EngineConfig {
            aggregate_mem_budget: Some(16 << 20),
            ..EngineConfig::default()
        });
        engine.register_table("t", small_table(100));
        let session = engine.session(SessionOptions {
            weight: 2,
            mem_quota: Some(1 << 30),
            time_quota: Some(Duration::from_secs(60)),
        });
        // The tenant quota exceeds the aggregate cap, but the query's own
        // smaller declaration wins the clamp and fits.
        let mut q = count_query();
        q.options.mem_budget = Some(8 << 20);
        assert!(session.execute("t", &q).is_ok());
        // With no declaration the quota is the declaration — too big.
        assert_eq!(
            session.execute("t", &count_query()).err(),
            Some(EngineError::AdmissionRejected { reason: AdmissionReason::AggregateMemory })
        );
    }

    #[test]
    fn cancelled_session_fails_queries_but_not_the_engine() {
        let engine = Engine::with_defaults();
        engine.register_table("t", small_table(2000));
        let doomed = engine.session(SessionOptions::default());
        doomed.cancel_all();
        assert_eq!(doomed.execute("t", &count_query()).err(), Some(EngineError::Cancelled));
        // A fresh session on the same engine is unaffected.
        let fresh = engine.session(SessionOptions::default());
        assert!(fresh.execute("t", &count_query()).is_ok());
    }
}
