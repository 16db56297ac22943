//! Process-wide engine telemetry (DESIGN.md §14).
//!
//! PR 3's profiler observes one query and dies with it. This module is the
//! layer above: a process-lifetime [`EngineTelemetry`] handle that every
//! query publishes into, backed by the dependency-free
//! [`bipie_metrics::Registry`] (lock-free sharded counters, gauges, log2
//! histograms) plus a bounded cross-query [`DecisionLog`] that retains the
//! chooser's `(inputs, strategy, cycles, rows)` tuples for later cost-model
//! mining (ROADMAP item 4).
//!
//! ## The seam
//!
//! Instrumentation flows through exactly one choke point: the engine's hot
//! paths (`scan`, `pool`, `governor`) already account their work into the
//! per-worker records ([`ExecStats`] counters plus tracer rings), and
//! [`execute`](crate::query::execute) hands those finished artifacts to
//! [`EngineTelemetry::publish_query`] once per query. No scan-loop code
//! touches a registry handle, so:
//!
//! * the hot path costs nothing beyond the accounting it already did;
//! * registry mutation is confined — clippy's `disallowed_types` rejects a
//!   `Registry`, `Counter`, `Gauge` or `Histogram` outside this module and
//!   the metrics crate itself;
//! * per-strategy registry counters are *exactly* the sum of published
//!   queries' `ExecStats` tallies — the only per-strategy tallies there
//!   are — by construction.
//!
//! ## Compiling it out
//!
//! Publication has no runtime switch. The `no_observability` feature
//! ([`observability_compiled_out`]) compiles it out together with the
//! tracer: every publish call returns before touching an instrument, so the
//! registry stays at zero. That build exists only as the baseline of the one
//! overhead gate (`exp_profile_overhead --gate 2`), which holds a normal
//! build at `QueryOptions::default()` — profiler `Off`, publication on —
//! within 2 % of it.
//!
//! ## Metric naming convention
//!
//! Every metric is `bipie_<noun>[_total|_us|_cycles]`: `_total` for
//! monotonic counters, a unit suffix for histograms (`_us` microseconds,
//! `_cycles` serialized-TSC cycles). Strategy breakdowns use one static
//! label `strategy` with snake_case values so identity stays allocation-free
//! (label sets are `&'static` throughout).

#![expect(
    clippy::disallowed_types,
    reason = "the telemetry seam owns the registry, its instruments and the decision log"
)]

use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use bipie_metrics::{Counter, Gauge, Histogram, Labels, Registry};
use bipie_toolbox::sync::lock;
use std::sync::Arc;

use crate::error::{AdmissionReason, EngineError};
use crate::stats::ExecStats;
pub use crate::trace::DecisionRecord;
use crate::trace::{observability_compiled_out, QueryProfile};

/// Decisions the [`DecisionLog`] retains before overwriting the oldest.
/// 4096 records ≈ a few hundred queries of batch decisions — enough recent
/// history for regret analysis without unbounded growth.
pub const DECISION_LOG_CAPACITY: usize = 4096;

/// Static `strategy` label sets, indexed by
/// [`SelectionStrategy`](crate::strategy::SelectionStrategy).
const SEL_LABELS: [Labels; 4] = [
    &[("strategy", "gather")],
    &[("strategy", "compact")],
    &[("strategy", "special_group")],
    &[("strategy", "run_span")],
];

/// Static `strategy` label sets, indexed by
/// [`AggStrategy`](crate::strategy::AggStrategy).
const AGG_LABELS: [Labels; 5] = [
    &[("strategy", "scalar")],
    &[("strategy", "sort_based")],
    &[("strategy", "in_register")],
    &[("strategy", "multi_aggregate")],
    &[("strategy", "run_wise")],
];

/// Static `cause` label sets for governor trips.
const TRIP_LABELS: [Labels; 3] =
    [&[("cause", "cancelled")], &[("cause", "deadline")], &[("cause", "memory")]];

/// Static `reason` label sets for engine admission sheds, indexed by
/// [`ShedReason`].
const SHED_LABELS: [Labels; 4] = [
    &[("reason", "queue_full")],
    &[("reason", "aggregate_memory")],
    &[("reason", "queue_timeout")],
    &[("reason", "shutdown")],
];

/// Why the engine refused a query, as a telemetry label index:
/// [`EngineTelemetry::publish_error`] counts a typed admission error under
/// its reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// `EngineError::AdmissionRejected { reason: QueueFull }`.
    QueueFull = 0,
    /// `EngineError::AdmissionRejected { reason: AggregateMemory }`.
    AggregateMemory = 1,
    /// `EngineError::AdmissionTimeout`.
    QueueTimeout = 2,
    /// `EngineError::EngineShutdown`.
    Shutdown = 3,
}

impl ShedReason {
    /// The shed reason behind an admission error; `None` for any other
    /// error.
    fn of(err: &EngineError) -> Option<ShedReason> {
        match err {
            EngineError::AdmissionRejected { reason: AdmissionReason::QueueFull } => {
                Some(ShedReason::QueueFull)
            }
            EngineError::AdmissionRejected { reason: AdmissionReason::AggregateMemory } => {
                Some(ShedReason::AggregateMemory)
            }
            EngineError::AdmissionTimeout { .. } => Some(ShedReason::QueueTimeout),
            EngineError::EngineShutdown => Some(ShedReason::Shutdown),
            _ => None,
        }
    }
}

/// The engine's one error-publication boundary. `query::execute`,
/// `Engine::{execute, reserve}` and `Session::execute` each run their whole
/// body through it, so no error leaves the engine unpublished: a shed counts
/// under its reason, any other error as a failed query
/// ([`EngineTelemetry::publish_error`]). Nothing inside the boundary
/// publishes errors itself, so none is counted twice.
pub(crate) fn published<T>(
    body: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let outcome = body();
    if let Err(err) = &outcome {
        telemetry().publish_error(err);
    }
    outcome
}

/// Ring state behind the [`DecisionLog`] lock.
#[derive(Debug, Default)]
struct LogInner {
    /// Retained records, oldest first once at capacity.
    ring: std::collections::VecDeque<DecisionRecord>,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

/// A bounded cross-query ring of strategy decisions with drop-counting.
///
/// Unlike the tracer's keep-*first* overflow (which preserves a query's
/// opening picture), the decision log keeps the *most recent* records —
/// for mining chooser behavior, fresh history beats the process's first
/// few queries.
///
/// /// Invariant: `ring.len() <= DECISION_LOG_CAPACITY` at all times;
/// `dropped` counts exactly the records evicted to keep it so.
#[derive(Debug, Default)]
pub struct DecisionLog {
    // LOCK: leaf lock; guards the ring for push/snapshot only — no other
    // lock is ever taken while it is held.
    inner: Mutex<LogInner>,
}

impl DecisionLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, record: DecisionRecord) {
        // LOCK: push fast path; guard dies before return.
        let mut inner = lock(&self.inner);
        if inner.ring.len() == DECISION_LOG_CAPACITY {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(record);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        // LOCK: read-only peek; temp guard dies at `;`.
        lock(&self.inner).ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted since process start.
    pub fn dropped(&self) -> u64 {
        // LOCK: read-only peek; temp guard dies at `;`.
        lock(&self.inner).dropped
    }

    /// Clone out the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.dump().0
    }

    /// Discard all retained records and reset the drop counter.
    pub fn clear(&self) {
        // LOCK: reset; guard dies before return.
        let mut inner = lock(&self.inner);
        inner.ring.clear();
        inner.dropped = 0;
    }

    /// The retained records, oldest first, and the drop count — read under
    /// one guard, so `dropped > 0` implies a full ring in the same view.
    fn dump(&self) -> (Vec<DecisionRecord>, u64) {
        // LOCK: exposition clone; guard dies before return.
        let inner = lock(&self.inner);
        (inner.ring.iter().copied().collect(), inner.dropped)
    }

    /// Dump the retained records as a JSON document.
    pub fn to_json(&self) -> String {
        let (records, dropped) = self.dump();
        let body: Vec<String> = records
            .iter()
            .map(|r| format!("{{\"kind\": \"{}\", {}}}", r.kind(), r.json_fields()))
            .collect();
        format!(
            "{{\"capacity\": {DECISION_LOG_CAPACITY}, \"dropped\": {dropped}, \
             \"decisions\": [{}]}}",
            body.join(", ")
        )
    }
}

/// The process-wide telemetry handle: a metrics [`Registry`], the engine's
/// pre-registered instruments, and the cross-query [`DecisionLog`].
///
/// Obtain the process singleton with [`telemetry`]; construct fresh
/// instances (`EngineTelemetry::new`) in tests to observe deltas without
/// cross-test pollution.
///
/// /// Invariant: instruments are registered unconditionally at construction,
/// so metric identity is the same in every build, and a `no_observability`
/// process observes all counters at exactly zero.
pub struct EngineTelemetry {
    registry: Registry,
    decision_log: DecisionLog,
    queries: Arc<Counter>,
    query_errors: Arc<Counter>,
    governor_trips: [Arc<Counter>; 3],
    query_latency_us: Arc<Histogram>,
    rows_scanned: Arc<Counter>,
    rows_pruned: Arc<Counter>,
    bytes_scanned: Arc<Counter>,
    morsel_claims: Arc<Counter>,
    morsel_steals: Arc<Counter>,
    governor_checks: Arc<Counter>,
    pool_reuses: Arc<Counter>,
    selection_picks: [Arc<Counter>; 4],
    agg_picks: [Arc<Counter>; 5],
    selection_batch_cycles: [Arc<Histogram>; 4],
    agg_segment_cycles: [Arc<Histogram>; 5],
    engine_active_queries: Arc<Gauge>,
    engine_queued_queries: Arc<Gauge>,
    engine_admissions: Arc<Counter>,
    engine_sheds: [Arc<Counter>; 4],
    sched_jobs_dispatched: Arc<Gauge>,
    sched_query_switches: Arc<Gauge>,
}

impl Default for EngineTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineTelemetry {
    /// Build a handle with every engine instrument registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        let counter = |name, help| registry.counter(name, help, &[]);
        let queries = counter("bipie_queries_total", "Queries executed to completion.");
        let query_errors = counter("bipie_query_errors_total", "Queries that returned an error.");
        let governor_trips = TRIP_LABELS.map(|labels| {
            registry.counter(
                "bipie_governor_trips_total",
                "Queries stopped by a resource governor limit, by cause.",
                labels,
            )
        });
        let query_latency_us = registry.histogram(
            "bipie_query_latency_us",
            "End-to-end query wall latency in microseconds.",
            &[],
        );
        let rows_scanned = counter(
            "bipie_rows_scanned_total",
            "Live rows of the row windows scanned in encoded segments.",
        );
        let rows_pruned = counter(
            "bipie_rows_pruned_total",
            "Live rows of scanned segments that a sorted column's row range skipped.",
        );
        let bytes_scanned =
            counter("bipie_bytes_scanned_total", "Encoded bytes of scanned segments.");
        let morsel_claims =
            counter("bipie_morsel_claims_total", "Morsels claimed by parallel scan workers.");
        let morsel_steals = counter(
            "bipie_morsel_steals_total",
            "Morsels claimed outside the worker's home partition.",
        );
        let governor_checks =
            counter("bipie_governor_checks_total", "Cooperative governor limit checks.");
        let pool_reuses = counter(
            "bipie_pool_reuses_total",
            "Fork-join regions served entirely by already-running pool workers.",
        );
        let selection_picks = SEL_LABELS.map(|labels| {
            registry.counter(
                "bipie_selection_picks_total",
                "Per-batch selection-strategy decisions, by strategy.",
                labels,
            )
        });
        let agg_picks = AGG_LABELS.map(|labels| {
            registry.counter(
                "bipie_agg_picks_total",
                "Per-segment aggregation-strategy decisions, by strategy.",
                labels,
            )
        });
        let selection_batch_cycles = SEL_LABELS.map(|labels| {
            registry.histogram(
                "bipie_selection_batch_cycles",
                "Selection span cycles per batch, by chosen strategy.",
                labels,
            )
        });
        let agg_segment_cycles = AGG_LABELS.map(|labels| {
            registry.histogram(
                "bipie_agg_segment_cycles",
                "Aggregation span cycles per segment, by chosen strategy.",
                labels,
            )
        });
        let engine_active_queries = registry.gauge(
            "bipie_engine_active_queries",
            "Queries currently admitted and executing on the engine.",
            &[],
        );
        let engine_queued_queries = registry.gauge(
            "bipie_engine_queued_queries",
            "Queries currently waiting in the engine's admission queue.",
            &[],
        );
        let engine_admissions =
            counter("bipie_engine_admissions_total", "Queries admitted by the engine.");
        let engine_sheds = SHED_LABELS.map(|labels| {
            registry.counter(
                "bipie_engine_sheds_total",
                "Queries refused by engine admission control, by reason.",
                labels,
            )
        });
        let sched_jobs_dispatched = registry.gauge(
            "bipie_sched_jobs_dispatched",
            "Cumulative pool jobs dispatched by the shared scheduler \
             (mirrored from the pool at publish time).",
            &[],
        );
        let sched_query_switches = registry.gauge(
            "bipie_sched_query_switches",
            "Cumulative cross-query dispatch switches in the shared \
             scheduler (mirrored from the pool at publish time).",
            &[],
        );
        Self {
            registry,
            decision_log: DecisionLog::new(),
            queries,
            query_errors,
            governor_trips,
            query_latency_us,
            rows_scanned,
            rows_pruned,
            bytes_scanned,
            morsel_claims,
            morsel_steals,
            governor_checks,
            pool_reuses,
            selection_picks,
            agg_picks,
            selection_batch_cycles,
            agg_segment_cycles,
            engine_active_queries,
            engine_queued_queries,
            engine_admissions,
            engine_sheds,
            sched_jobs_dispatched,
            sched_query_switches,
        }
    }

    /// The backing registry, for exposition
    /// ([`Registry::render_prometheus`] / [`Registry::render_json`]).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The cross-query decision log.
    pub fn decision_log(&self) -> &DecisionLog {
        &self.decision_log
    }

    /// Publish one completed query: fleet counters from its [`ExecStats`],
    /// latency into the histogram, and (when the profile captured spans)
    /// per-strategy span latencies plus [`DecisionLog`] records.
    ///
    /// Per-strategy pick counters add `stats.selection_batches` /
    /// `stats.agg_segments` verbatim, so registry totals are exactly the
    /// sum over published queries of their stats — the acceptance
    /// invariant the `telemetry` integration test pins.
    pub fn publish_query(&self, stats: &ExecStats, profile: &QueryProfile, wall: Duration) {
        if observability_compiled_out() {
            return;
        }
        self.queries.inc();
        self.query_latency_us.observe(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
        self.rows_scanned.add(stats.rows_scanned as u64);
        self.rows_pruned.add(stats.rows_pruned as u64);
        self.bytes_scanned.add(stats.bytes_scanned as u64);
        self.morsel_claims.add(stats.morsels_scanned as u64);
        self.morsel_steals.add(stats.morsel_steals as u64);
        self.governor_checks.add(stats.governor_checks as u64);
        self.pool_reuses.add(stats.pool_reuses as u64);
        for (i, picks) in stats.selection_batches.iter().enumerate() {
            self.selection_picks[i].add(*picks as u64);
        }
        for (i, picks) in stats.agg_segments.iter().enumerate() {
            self.agg_picks[i].add(*picks as u64);
        }
        self.ingest_profile(profile);
    }

    /// Publish one error out of the engine. A shed by admission control
    /// counts under its [`ShedReason`] and not as a failed query; any other
    /// error counts as a failed query, plus a governor-trip cause counter
    /// when the governor stopped it.
    pub fn publish_error(&self, err: &EngineError) {
        if observability_compiled_out() {
            return;
        }
        if let Some(reason) = ShedReason::of(err) {
            self.engine_sheds[reason as usize].inc();
            return;
        }
        self.query_errors.inc();
        match err {
            EngineError::Cancelled => self.governor_trips[0].inc(),
            EngineError::DeadlineExceeded => self.governor_trips[1].inc(),
            EngineError::MemoryBudgetExceeded { .. } => self.governor_trips[2].inc(),
            _ => {}
        }
    }

    /// Publish an engine admission-state transition: the live/queued query
    /// gauges, plus the admission counter when `admitted` (a queue-depth
    /// update alone leaves the counter untouched).
    pub fn publish_engine_admission(&self, active: usize, queued: usize, admitted: bool) {
        if observability_compiled_out() {
            return;
        }
        self.engine_active_queries.set(active as i64);
        self.engine_queued_queries.set(queued as i64);
        if admitted {
            self.engine_admissions.inc();
        }
    }

    /// Mirror the pool's cumulative shared-scheduler counters into the
    /// registry. Called by the engine when a query finishes — gauges carry
    /// monotone totals, so "latest publish wins" is exact on quiesce.
    pub fn publish_sched_stats(&self, stats: crate::pool::SchedStats) {
        if observability_compiled_out() {
            return;
        }
        self.sched_jobs_dispatched.set(stats.jobs_dispatched.min(i64::MAX as u64) as i64);
        self.sched_query_switches.set(stats.query_switches.min(i64::MAX as u64) as i64);
    }

    /// Ingest a spans-level profile: every decision record of
    /// [`QueryProfile::segments`] — already priced at its source — is
    /// observed into its strategy's cycle histogram and pushed to the
    /// decision log.
    fn ingest_profile(&self, profile: &QueryProfile) {
        for seg in profile.segments() {
            for record in seg.selections.iter().chain(&seg.agg) {
                match *record {
                    DecisionRecord::Selection { chosen, cycles, .. } => {
                        self.selection_batch_cycles[chosen as usize].observe(cycles)
                    }
                    DecisionRecord::Agg { chosen, cycles, .. } => {
                        self.agg_segment_cycles[chosen as usize].observe(cycles)
                    }
                }
                self.decision_log.push(*record);
            }
        }
    }
}

/// The process-wide telemetry singleton every query publishes into.
pub fn telemetry() -> &'static EngineTelemetry {
    static TELEMETRY: OnceLock<EngineTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(EngineTelemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{AggStrategy, SelectionStrategy};

    /// The decision log holds records only the tracer builds, so these feed
    /// it the way a query does — tracer, profile, `ingest_profile` — and
    /// need the profiler compiled in.
    #[cfg(not(feature = "no_observability"))]
    mod decision_log {
        use super::*;
        use crate::strategy::AggChoiceParams;
        use crate::trace::{BatchAt, ProfileLevel, SelectionPick, Tracer};

        /// A spans profile of one-batch morsels, one per `(selectivity,
        /// strategy)`, plus the segment's aggregation decision.
        fn profile_of(batches: &[(f64, SelectionStrategy)]) -> QueryProfile {
            let mut tracer = Tracer::new(ProfileLevel::Spans, 0);
            for (morsel, &(selectivity, chosen)) in batches.iter().enumerate() {
                let at = BatchAt { segment: 0, morsel: morsel as u32, start: 0, len: 1024 };
                let pick = SelectionPick { bits: 8, selectivity, chosen, forced: false };
                tracer.selection(at, || ((), pick));
            }
            let params = AggChoiceParams {
                num_groups_effective: 5,
                num_sums: 2,
                input_bytes: vec![4; 2],
                all_packed_narrow: true,
                multi_layout_fits: true,
                est_selectivity: 1.0,
                runwise_runs_fraction: None,
            };
            tracer.decision_agg(0, &params, 1, AggStrategy::InRegister, false);
            let mut profile = QueryProfile::new(ProfileLevel::Spans);
            profile.absorb(tracer);
            profile
        }

        #[test]
        fn decision_log_bounded_with_drop_counting() {
            let t = EngineTelemetry::new();
            let batches: Vec<_> = (0..DECISION_LOG_CAPACITY + 9)
                .map(|i| (i as f64 / 10_000.0, SelectionStrategy::Gather))
                .collect();
            t.ingest_profile(&profile_of(&batches));
            let log = t.decision_log();
            assert_eq!(log.len(), DECISION_LOG_CAPACITY);
            assert_eq!(log.dropped(), 10, "nine selections and the agg record past capacity");
            // Keep-last: the oldest 10 records were evicted.
            match log.snapshot()[0] {
                DecisionRecord::Selection { observed_selectivity, .. } => {
                    assert!((observed_selectivity - 10.0 / 10_000.0).abs() < 1e-12);
                }
                _ => panic!("expected selection record"),
            }
            assert!(matches!(log.snapshot().last(), Some(DecisionRecord::Agg { .. })));
        }

        #[test]
        fn each_record_lands_in_its_strategy_histogram() {
            let t = EngineTelemetry::new();
            t.ingest_profile(&profile_of(&[
                (0.05, SelectionStrategy::Gather),
                (0.07, SelectionStrategy::Gather),
                (0.95, SelectionStrategy::Compact),
            ]));
            assert_eq!(t.selection_batch_cycles.each_ref().map(|h| h.count()), [2, 1, 0, 0]);
            assert_eq!(t.agg_segment_cycles.each_ref().map(|h| h.count()), [0, 0, 1, 0, 0]);
            assert_eq!(t.decision_log().len(), 4);
        }

        #[test]
        fn to_json_is_balanced_and_carries_drops() {
            let t = EngineTelemetry::new();
            t.ingest_profile(&profile_of(&[(0.5, SelectionStrategy::SpecialGroup)]));
            let json = t.decision_log().to_json();
            assert!(json.contains("\"dropped\": 0"));
            assert!(json.contains("{\"kind\": \"selection\", \"segment\": 0, \"morsel\": 0, "));
            assert!(json.contains("\"chosen\": \"Special Group\""));
            assert!(json.contains("{\"kind\": \"agg\", \"segment\": 0, "));
            assert_eq!(json.matches('{').count(), json.matches('}').count());
        }

        /// `to_json` reads the ring and the drop count under one guard: a dump never shows `dropped > 0` beside a ring that
        /// is not full, however many sessions are publishing.
        #[test]
        #[expect(clippy::disallowed_methods, reason = "pushes race the dump from real threads")]
        fn dump_is_one_consistent_view_under_concurrent_pushes() {
            let log = DecisionLog::new();
            let records = profile_of(&[(0.5, SelectionStrategy::Compact)]).segments().remove(0);
            let record = records.selections[0];
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| (0..DECISION_LOG_CAPACITY).for_each(|_| log.push(record)));
                }
                scope.spawn(|| loop {
                    let (records, dropped) = log.dump();
                    assert!(dropped == 0 || records.len() == DECISION_LOG_CAPACITY);
                    if dropped >= 2 * DECISION_LOG_CAPACITY as u64 {
                        break;
                    }
                });
            });
            assert_eq!(log.dropped(), 3 * DECISION_LOG_CAPACITY as u64);
        }
    }

    #[test]
    fn publish_query_mirrors_stats_exactly() {
        let t = EngineTelemetry::new();
        let mut stats = ExecStats::default();
        stats.record_selection(SelectionStrategy::Gather);
        stats.record_selection(SelectionStrategy::Gather);
        stats.record_selection(SelectionStrategy::RunSpan);
        stats.record_agg(AggStrategy::MultiAggregate);
        stats.rows_scanned = 2048;
        stats.rows_pruned = 512;
        stats.bytes_scanned = 4096;
        stats.morsels_scanned = 4;
        stats.morsel_steals = 1;
        stats.pool_reuses = 1;
        let profile = QueryProfile::default();
        t.publish_query(&stats, &profile, Duration::from_micros(123));
        t.publish_query(&stats, &profile, Duration::from_micros(456));
        if !observability_compiled_out() {
            assert_eq!(t.selection_picks[0].value(), 4);
            assert_eq!(t.selection_picks[3].value(), 2);
            assert_eq!(t.agg_picks[3].value(), 2);
            assert_eq!(t.queries.value(), 2);
            assert_eq!(t.rows_scanned.value(), 4096);
            assert_eq!(t.rows_pruned.value(), 1024);
            assert_eq!(t.bytes_scanned.value(), 8192);
            assert_eq!(t.query_latency_us.count(), 2);
        } else {
            // no_observability: the same publishes must leave every value at 0.
            assert_eq!(t.selection_picks[0].value(), 0);
            assert_eq!(t.queries.value(), 0);
            assert_eq!(t.query_latency_us.count(), 0);
        }
    }

    #[test]
    fn publish_error_classifies_governor_trips() {
        let t = EngineTelemetry::new();
        t.publish_error(&EngineError::DeadlineExceeded);
        t.publish_error(&EngineError::Cancelled);
        t.publish_error(&EngineError::UnknownColumn("x".into()));
        if !observability_compiled_out() {
            assert_eq!(t.query_errors.value(), 3);
            assert_eq!(t.governor_trips[0].value(), 1);
            assert_eq!(t.governor_trips[1].value(), 1);
            assert_eq!(t.governor_trips[2].value(), 0);
        } else {
            assert_eq!(t.query_errors.value(), 0);
        }
    }

    #[test]
    fn engine_publishes_track_admission_and_sheds() {
        let t = EngineTelemetry::new();
        t.publish_engine_admission(2, 1, true);
        t.publish_engine_admission(1, 0, false);
        let rejected = |reason| EngineError::AdmissionRejected { reason };
        t.publish_error(&rejected(AdmissionReason::QueueFull));
        t.publish_error(&rejected(AdmissionReason::AggregateMemory));
        t.publish_error(&rejected(AdmissionReason::AggregateMemory));
        t.publish_error(&EngineError::EngineShutdown);
        t.publish_sched_stats(crate::pool::SchedStats { jobs_dispatched: 7, query_switches: 3 });
        if !observability_compiled_out() {
            assert_eq!(t.engine_active_queries.value(), 1);
            assert_eq!(t.engine_queued_queries.value(), 0);
            assert_eq!(t.engine_admissions.value(), 1);
            assert_eq!(t.engine_sheds[ShedReason::QueueFull as usize].value(), 1);
            assert_eq!(t.engine_sheds[ShedReason::AggregateMemory as usize].value(), 2);
            assert_eq!(t.engine_sheds[ShedReason::QueueTimeout as usize].value(), 0);
            assert_eq!(t.engine_sheds[ShedReason::Shutdown as usize].value(), 1);
            // A shed is not a failed query.
            assert_eq!(t.query_errors.value(), 0);
            assert_eq!(t.sched_jobs_dispatched.value(), 7);
            assert_eq!(t.sched_query_switches.value(), 3);
        } else {
            // no_observability: the same publishes must leave every value at 0.
            assert_eq!(t.engine_admissions.value(), 0);
            assert_eq!(t.sched_jobs_dispatched.value(), 0);
        }
    }
}
