//! Query profiler: per-phase cycle tracing and specialization decision
//! logging (DESIGN.md §9).
//!
//! BIPie's defining behavior is runtime operator specialization — which
//! makes "why did the engine pick that strategy, and where did the cycles
//! go?" the first question every perf investigation asks. This module
//! answers it with three pieces:
//!
//! * [`Tracer`] — the **per-worker record**: the worker's [`ExecStats`]
//!   counters plus a fixed-capacity event buffer. Each scan worker owns one
//!   exclusively (no locks, no atomics on the hot path) and records *phase
//!   spans* (plan, segment scan, selection, unpack, aggregation, wide-group
//!   fallback, mutable tail, parallel merge), stamped with serialized TSC
//!   reads ([`bipie_toolbox::cycles`]) plus wall-clock time, and *decision
//!   events* capturing exactly the inputs the strategy chooser saw. A span
//!   is a scope: [`Tracer::timed`] runs a closure and closes the span on
//!   whatever it returns, so no exit of the timed work can drop its phase.
//!   A strategy decision is one call: it bumps the stats counter at every
//!   level and, at `Spans`, also stores the event — so the per-strategy
//!   counts exist once, in [`ExecStats`].
//! * [`ProfileLevel`] — the opt-in knob. `Off` (the default) compiles every
//!   tracer call down to a counter bump or a branch on a plain bool: no
//!   timestamps, no atomics, no allocation anywhere in the batch loop.
//!   `Counters` accumulates per-phase totals without storing events;
//!   `Spans` additionally keeps the full event log.
//! * [`QueryProfile`] — the merged result, aggregated from the per-worker
//!   buffers at join time, with a human-readable `EXPLAIN ANALYZE`-style
//!   renderer and a dependency-free JSON serializer for bench tooling.
//!
//! Buffer policy: each worker's buffer holds up to [`EVENT_CAPACITY`]
//! events; once full, *new* events are dropped (and counted in
//! `dropped_events`) rather than overwriting old ones, so the plan /
//! early-segment context an investigation starts from is always retained.
//! Per-phase totals and the [`ExecStats`] counters keep counting after
//! overflow, so totals stay exact even when the event log is truncated.
//!
//! Clippy's confinement lints cover this module like any other: only the
//! items that read the cycle clock (the private span pair and
//! [`Tracer::decision_agg`]) or hold [`TraceEvent`]s carry an expectation.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::stats::ExecStats;
use crate::strategy::{AggChoiceParams, AggStrategy, SelectionStrategy};

/// How much profiling a query execution performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfileLevel {
    /// No profiling: tracer calls reduce to a branch on a bool (overhead
    /// budget ≤ 2% on the Q1 scan bench, gated in CI).
    #[default]
    Off,
    /// Per-phase cycle/row totals, no stored events.
    Counters,
    /// `Counters` plus the full span/decision event log (bounded by
    /// [`EVENT_CAPACITY`] per worker).
    Spans,
}

/// Events each worker can buffer before dropping (≈1 MiB per worker at
/// `Spans`; a 4096-row batch emits ~4 events, so this covers ~16M rows per
/// worker before truncation).
pub const EVENT_CAPACITY: usize = 16 * 1024;

/// Whether the `no_observability` feature compiled the observability layer
/// out: every [`Tracer`] is inert at any level and
/// [`EngineTelemetry`](crate::telemetry::EngineTelemetry) publishes nothing.
/// The feature exists only so the overhead gate (`exp_profile_overhead`)
/// has a build with nothing compiled in to measure against; tests read this
/// to skip assertions on spans, phases and registry values.
pub fn observability_compiled_out() -> bool {
    cfg!(feature = "no_observability")
}

/// An execution phase a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Per-query admission planning: elimination, overflow proofs, mapper
    /// viability.
    Plan = 0,
    /// One claimed scan range (a morsel, at every worker count).
    SegmentScan = 1,
    /// Filter evaluation + deleted-row merge + selectivity measurement for
    /// one batch.
    Selection = 2,
    /// Group-id extraction (dictionary-code unpack) for one batch.
    Unpack = 3,
    /// The aggregation consuming one batch, whichever sink runs it: the
    /// narrow sink's specialized kernels, the run-wise fold, or the wide
    /// sink's scalar row loop (`agg = Scalar`).
    Aggregation = 4,
    /// Encoding the mutable region into the query's tail segment, on the
    /// coordinator before planning; its rows are the region's rows. The
    /// tail is then planned and scanned like any other segment.
    MutableTail = 5,
    /// Phase-2 reduction of per-worker hash partitions.
    ParallelMerge = 6,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 7;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Plan,
        Phase::SegmentScan,
        Phase::Selection,
        Phase::Unpack,
        Phase::Aggregation,
        Phase::MutableTail,
        Phase::ParallelMerge,
    ];

    /// Stable lowercase label (also the JSON key).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::SegmentScan => "segment_scan",
            Phase::Selection => "selection",
            Phase::Unpack => "unpack",
            Phase::Aggregation => "aggregation",
            Phase::MutableTail => "mutable_tail",
            Phase::ParallelMerge => "parallel_merge",
        }
    }
}

/// Sentinel for "no segment / no morsel" in event coordinates.
pub const NO_ID: u32 = u32::MAX;

/// Where a span happened and which specialized operators it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanLoc {
    /// Table segment ordinal (`NO_ID` when not segment-scoped).
    pub segment: u32,
    /// Morsel ordinal within the segment (`NO_ID` when not morsel-scoped).
    pub morsel: u32,
    /// Selection strategy this span ran under, if any.
    pub selection: Option<SelectionStrategy>,
    /// Aggregation strategy this span ran under, if any.
    pub agg: Option<AggStrategy>,
    /// Whether the range was stolen from another worker's home partition.
    pub stolen: bool,
}

impl SpanLoc {
    /// A span with no segment/morsel coordinates.
    pub fn none() -> SpanLoc {
        SpanLoc { segment: NO_ID, morsel: NO_ID, ..SpanLoc::default() }
    }

    /// A segment/morsel-scoped span.
    pub fn at(segment: u32, morsel: u32) -> SpanLoc {
        SpanLoc { segment, morsel, ..SpanLoc::default() }
    }

    /// Attach the selection strategy.
    pub fn with_selection(mut self, s: SelectionStrategy) -> SpanLoc {
        self.selection = Some(s);
        self
    }

    /// Attach the aggregation strategy.
    pub fn with_agg(mut self, a: AggStrategy) -> SpanLoc {
        self.agg = Some(a);
        self
    }

    /// Mark the range as stolen work.
    pub fn with_stolen(mut self, stolen: bool) -> SpanLoc {
        self.stolen = stolen;
        self
    }
}

/// Where a batch sits — segment ordinal, morsel ordinal, row window — as
/// its per-batch trace events carry it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchAt {
    pub segment: u32,
    pub morsel: u32,
    pub start: usize,
    pub len: usize,
}

impl BatchAt {
    pub(crate) fn loc(self) -> SpanLoc {
        SpanLoc::at(self.segment, self.morsel)
    }
}

/// One strategy decision: the chooser's inputs, its pick, and the measured
/// cost of acting on it. The only decision type there is — the tracer
/// stores it in the event log, `EXPLAIN` and the Chrome trace print it, and
/// the cross-query [`DecisionLog`](crate::telemetry::DecisionLog) retains
/// it.
///
/// `cycles`/`rows` are filled where the cost is produced: a selection
/// record by `Tracer::selection`, from the `Selection` span it runs; an
/// aggregation record by `QueryProfile::segments`, from the
/// segment's `Aggregation` spans (in the event log itself the
/// coordinator's record reads 0 — it is written before any batch runs).
/// `at_cycles` and `worker` are timeline coordinates (the Chrome trace's
/// `ts` and `tid`), not chooser inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionRecord {
    /// A per-batch selection-strategy decision.
    Selection {
        /// Raw TSC reading at the end of the batch's `Selection` span (same
        /// timeline as `Span::start_cycles`).
        at_cycles: u64,
        /// Worker that ran the batch.
        worker: u32,
        /// Table segment ordinal.
        segment: u32,
        /// Morsel ordinal within the segment.
        morsel: u32,
        /// First row of the batch within the segment.
        row_start: u64,
        /// Dominant packed input bit width the crossover used.
        bits: u8,
        /// Selectivity *observed* for this batch (the chooser input — the
        /// engine decides per batch from measured, not estimated,
        /// selectivity, §3).
        observed_selectivity: f64,
        /// The strategy picked.
        chosen: SelectionStrategy,
        /// True when `forced_selection` overrode the chooser.
        forced: bool,
        /// Cycles the decided batch's selection span consumed.
        cycles: u64,
        /// Rows the decided batch covered.
        rows: u64,
    },
    /// A segment's aggregation-strategy decision: one per scanned segment,
    /// made at plan time and recorded by the coordinator (which traces as
    /// worker 0) — every worker that visits the segment runs it under this
    /// strategy.
    Agg {
        /// Raw TSC reading when the decision was recorded.
        at_cycles: u64,
        /// Table segment ordinal.
        segment: u32,
        /// Group count including the special-group slot.
        num_groups_effective: u32,
        /// SUM aggregate count.
        num_sums: u32,
        /// MIN/MAX aggregate count.
        num_minmax: u32,
        /// Selectivity *estimate* the chooser saw: 1.0 where planning knows
        /// every visited row is selected, else the measured selectivity of
        /// the first batch of the segment's row window.
        est_selectivity: f64,
        /// Whether every sum input was packed-narrow (sort-based viable).
        all_packed_narrow: bool,
        /// Whether a multi-aggregate row layout existed.
        multi_layout_fits: bool,
        /// The strategy picked.
        chosen: AggStrategy,
        /// True when `forced_agg` overrode the chooser.
        forced: bool,
        /// Total aggregation cycles spent on the segment, over every worker
        /// that visited it.
        cycles: u64,
        /// Total rows aggregated in the segment: the rows the scan visited.
        rows: u64,
    },
}

impl DecisionRecord {
    /// `"selection"` or `"agg"`.
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionRecord::Selection { .. } => "selection",
            DecisionRecord::Agg { .. } => "agg",
        }
    }

    /// Where the record sits on the Chrome trace: `(tid, raw TSC stamp)`.
    /// The coordinator, which records aggregation decisions, is worker 0.
    fn timeline(&self) -> (u32, u64) {
        match *self {
            DecisionRecord::Selection { worker, at_cycles, .. } => (worker, at_cycles),
            DecisionRecord::Agg { at_cycles, .. } => (0, at_cycles),
        }
    }

    /// The record as JSON object members in a stable order — chooser
    /// inputs, pick, cost — shared by the decision-log dump and the Chrome
    /// trace's decision instants.
    pub fn json_fields(&self) -> String {
        match *self {
            DecisionRecord::Selection {
                segment,
                morsel,
                row_start,
                bits,
                observed_selectivity,
                chosen,
                forced,
                cycles,
                rows,
                ..
            } => format!(
                "\"segment\": {segment}, \"morsel\": {morsel}, \"row_start\": {row_start}, \
                 \"bits\": {bits}, \"observed_selectivity\": {observed_selectivity:.4}, \
                 \"chosen\": \"{}\", \"forced\": {forced}, \"cycles\": {cycles}, \
                 \"rows\": {rows}",
                chosen.label()
            ),
            DecisionRecord::Agg {
                segment,
                num_groups_effective,
                num_sums,
                num_minmax,
                est_selectivity,
                all_packed_narrow,
                multi_layout_fits,
                chosen,
                forced,
                cycles,
                rows,
                ..
            } => format!(
                "\"segment\": {segment}, \"num_groups_effective\": {num_groups_effective}, \
                 \"num_sums\": {num_sums}, \"num_minmax\": {num_minmax}, \
                 \"est_selectivity\": {est_selectivity:.4}, \
                 \"all_packed_narrow\": {all_packed_narrow}, \
                 \"multi_layout_fits\": {multi_layout_fits}, \"chosen\": \"{}\", \
                 \"forced\": {forced}, \"cycles\": {cycles}, \"rows\": {rows}",
                chosen.label()
            ),
        }
    }
}

/// The event type's definition, in a module of its own so that one
/// expectation covers the enum and the impls its derives generate.
mod event {
    #![expect(clippy::disallowed_types, reason = "the tracer's own event type")]

    use super::{DecisionRecord, Phase, SpanLoc};

    /// One recorded event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A timed phase span.
        Span {
            /// The phase the cycles belong to.
            phase: Phase,
            /// Worker index that recorded the span.
            worker: u32,
            /// Coordinates and strategy labels.
            loc: SpanLoc,
            /// Rows the span covered.
            rows: u64,
            /// Raw serialized-TSC reading at span start — a process-wide
            /// timeline coordinate (TSC is invariant and core-synchronized on
            /// the supported hardware), which is what lets
            /// [`QueryProfile::to_chrome_trace`](super::QueryProfile::to_chrome_trace) place every worker's spans on
            /// one coherent time axis.
            start_cycles: u64,
            /// Serialized-TSC cycles elapsed.
            cycles: u64,
            /// Wall-clock nanoseconds elapsed.
            wall_nanos: u64,
        },
        /// A strategy decision, with the chooser's inputs and its cost.
        Decision(DecisionRecord),
    }
}

#[expect(clippy::disallowed_types, reason = "the tracer's own event type")]
pub use event::TraceEvent;

/// A captured span start; holds timestamps only when profiling is enabled,
/// so `Off` never reads a clock. Private, like the `start`/`span` pair that
/// makes and consumes it: engine code opens spans only as scopes.
#[derive(Debug, Clone, Copy)]
struct SpanStart(Option<(u64, Instant)>);

/// What a batch's selection step decided: the chooser's inputs and its
/// pick, as [`Tracer::selection`] records them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SelectionPick {
    /// Dominant packed input bit width the crossover used.
    pub bits: u8,
    /// Selectivity observed for the batch.
    pub selectivity: f64,
    /// The strategy picked.
    pub chosen: SelectionStrategy,
    /// True when `forced_selection` overrode the chooser.
    pub forced: bool,
}

/// Aggregated totals for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Spans recorded.
    pub count: u64,
    /// Rows covered.
    pub rows: u64,
    /// Cycles spent.
    pub cycles: u64,
    /// Wall nanoseconds spent (sums across workers, so it can exceed the
    /// query's elapsed wall time on parallel scans).
    pub wall_nanos: u64,
}

impl PhaseTotals {
    fn add(&mut self, rows: u64, cycles: u64, wall_nanos: u64) {
        self.count += 1;
        self.rows += rows;
        self.cycles += cycles;
        self.wall_nanos += wall_nanos;
    }

    fn absorb(&mut self, other: &PhaseTotals) {
        self.count += other.count;
        self.rows += other.rows;
        self.cycles += other.cycles;
        self.wall_nanos += other.wall_nanos;
    }

    /// Cycles per covered row (0 when no rows).
    pub fn cycles_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.cycles as f64 / self.rows as f64
        }
    }
}

/// The per-worker record: counters and trace events. Owned exclusively by
/// one worker for the duration of a scan — all methods are `&mut self`,
/// nothing is shared, so the hot path takes no locks and touches no atomics.
#[expect(clippy::disallowed_types, reason = "the per-worker event buffer")]
#[derive(Debug)]
pub struct Tracer {
    /// This worker's counters. Live at every [`ProfileLevel`] (and with the
    /// profiler compiled out); [`QueryProfile::absorb`] hands them back at
    /// the join for the coordinator to merge.
    pub stats: ExecStats,
    level: ProfileLevel,
    worker: u32,
    events: Vec<TraceEvent>,
    dropped: u64,
    phases: [PhaseTotals; Phase::COUNT],
}

impl Tracer {
    /// A tracer for `worker` at the given level. `Spans` preallocates the
    /// whole event buffer up front so the batch loop never allocates.
    pub fn new(level: ProfileLevel, worker: u32) -> Tracer {
        Tracer::with_capacity(level, worker, EVENT_CAPACITY)
    }

    /// [`Tracer::new`] with an explicit event capacity (tests exercise the
    /// overflow policy with tiny buffers).
    pub fn with_capacity(level: ProfileLevel, worker: u32, capacity: usize) -> Tracer {
        let events = match level {
            ProfileLevel::Spans if !observability_compiled_out() => Vec::with_capacity(capacity),
            _ => Vec::new(),
        };
        Tracer {
            stats: ExecStats::default(),
            level,
            worker,
            events,
            dropped: 0,
            phases: [PhaseTotals::default(); Phase::COUNT],
        }
    }

    /// Whether any profiling is active. This is the one branch every
    /// instrumentation site pays at `Off`.
    #[inline]
    pub fn enabled(&self) -> bool {
        !observability_compiled_out() && self.level != ProfileLevel::Off
    }

    /// Whether the full event log is kept.
    #[inline]
    pub fn spans(&self) -> bool {
        self.enabled() && self.level == ProfileLevel::Spans
    }

    /// Run `work` as one `phase` span at `loc`. The closure hands back its
    /// result and the rows it covered, and the span closes on whatever it
    /// returns — an `Err` included — so no exit of the timed work can drop
    /// the phase. At `Off` this reads no clock.
    #[inline]
    pub fn timed<T>(
        &mut self,
        phase: Phase,
        loc: SpanLoc,
        work: impl FnOnce(&mut Tracer) -> (T, usize),
    ) -> T {
        let start = self.start();
        let (out, rows) = work(self);
        self.span(phase, loc, rows as u64, start);
        out
    }

    /// Run batch `at`'s selection step as its [`Phase::Selection`] span and
    /// record the decision `select` returns, with the chooser's inputs:
    /// counts the batch in [`Tracer::stats`] at every level and, at
    /// `Spans`, stores the record — priced with the cycles of the span, and
    /// stamped at its end, so the decision reads no clock of its own.
    #[inline]
    pub(crate) fn selection<T>(
        &mut self,
        at: BatchAt,
        select: impl FnOnce() -> (T, SelectionPick),
    ) -> T {
        let start = self.start();
        let (out, pick) = select();
        let rows = at.len as u64;
        let loc = at.loc().with_selection(pick.chosen);
        let cycles = self.span(Phase::Selection, loc, rows, start);
        self.stats.record_selection(pick.chosen);
        if self.spans() {
            self.push(TraceEvent::Decision(DecisionRecord::Selection {
                at_cycles: start.0.map_or(0, |(c0, _)| c0 + cycles),
                worker: self.worker,
                segment: at.segment,
                morsel: at.morsel,
                row_start: at.start as u64,
                bits: pick.bits,
                observed_selectivity: pick.selectivity,
                chosen: pick.chosen,
                forced: pick.forced,
                cycles,
                rows,
            }));
        }
        out
    }

    /// Begin a span. At `Off` this reads no clock and returns an inert
    /// token.
    #[expect(clippy::disallowed_methods, reason = "a span's start stamp")]
    #[inline]
    fn start(&self) -> SpanStart {
        if self.enabled() {
            SpanStart(Some((bipie_toolbox::cycles::read_tsc(), Instant::now())))
        } else {
            SpanStart(None)
        }
    }

    /// Finish a span started with [`Tracer::start`] and hand back the cycles
    /// it measured. A no-op (and 0) at `Off`.
    #[expect(clippy::disallowed_methods, reason = "a span's end stamp")]
    #[inline]
    fn span(&mut self, phase: Phase, loc: SpanLoc, rows: u64, start: SpanStart) -> u64 {
        let Some((c0, w0)) = start.0 else { return 0 };
        let cycles = bipie_toolbox::cycles::read_tsc().saturating_sub(c0);
        let wall_nanos = w0.elapsed().as_nanos() as u64;
        self.phases[phase as usize].add(rows, cycles, wall_nanos);
        if self.spans() {
            self.push(TraceEvent::Span {
                phase,
                worker: self.worker,
                loc,
                rows,
                start_cycles: c0,
                cycles,
                wall_nanos,
            });
        }
        cycles
    }

    /// Record one segment's aggregation-strategy decision with the
    /// chooser's inputs: counts it in [`Tracer::stats`] at every level and,
    /// at `Spans`, stores the record. Its cost does not exist yet —
    /// `QueryProfile::segments` fills it in.
    #[expect(clippy::disallowed_methods, reason = "the decision's timeline stamp")]
    #[inline]
    pub fn decision_agg(
        &mut self,
        segment: u32,
        params: &AggChoiceParams,
        num_minmax: usize,
        chosen: AggStrategy,
        forced: bool,
    ) {
        self.stats.record_agg(chosen);
        if self.spans() {
            self.push(TraceEvent::Decision(DecisionRecord::Agg {
                // The timestamp is spans-only work: `Counters` counts the
                // decision without reading a clock.
                at_cycles: bipie_toolbox::cycles::read_tsc(),
                segment,
                num_groups_effective: params.num_groups_effective as u32,
                num_sums: params.num_sums as u32,
                num_minmax: num_minmax as u32,
                est_selectivity: params.est_selectivity,
                all_packed_narrow: params.all_packed_narrow,
                multi_layout_fits: params.multi_layout_fits,
                chosen,
                forced,
                cycles: 0,
                rows: 0,
            }));
        }
    }

    /// Buffer an event, dropping (and counting) once the fixed capacity is
    /// reached — never reallocating.
    #[expect(clippy::disallowed_types, reason = "every recorded event enters here")]
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.events.capacity() {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Events dropped by the overflow policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One contributing tracer's event-ring occupancy, captured at absorb time
/// so `render_explain` can show how close each worker came to the
/// keep-first truncation point (observability of the observability:
/// a silently full ring is invisible in the events themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRing {
    /// Worker index that owned the ring.
    pub worker: u32,
    /// Events retained in the ring.
    pub events: usize,
    /// Ring capacity the tracer was built with.
    pub capacity: usize,
    /// Events the keep-first policy dropped.
    pub dropped: u64,
}

impl WorkerRing {
    /// Ring occupancy as a percentage of capacity.
    pub fn utilization_pct(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.events as f64 * 100.0 / self.capacity as f64
        }
    }
}

/// The merged profile of one query execution, aggregated from every
/// worker's [`Tracer`] at join time. Empty (all zero) when the query ran
/// at [`ProfileLevel::Off`].
#[expect(clippy::disallowed_types, reason = "the merged event log")]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The level the query ran at.
    pub level: ProfileLevel,
    /// Workers that contributed buffers (0 ⇒ nothing recorded).
    pub workers: usize,
    /// Per-phase totals, indexed by [`Phase`].
    pub phases: [PhaseTotals; Phase::COUNT],
    /// The event log (only at [`ProfileLevel::Spans`]), worker-major order.
    pub events: Vec<TraceEvent>,
    /// Events the fixed-capacity buffers had to drop.
    pub dropped_events: u64,
    /// Per-contributing-tracer ring occupancy (only rings that existed,
    /// i.e. `Spans`-level tracers), in absorb order.
    pub worker_rings: Vec<WorkerRing>,
}

impl QueryProfile {
    /// An empty profile at the given level.
    pub fn new(level: ProfileLevel) -> QueryProfile {
        QueryProfile { level, ..QueryProfile::default() }
    }

    /// Fold one worker's finished tracer into the profile and hand back its
    /// counters for the caller to merge. Tracers that recorded no span
    /// (profiling off, or e.g. a worker that claimed no morsel) contribute
    /// nothing, so `workers` counts real contributors.
    pub fn absorb(&mut self, tracer: Tracer) -> ExecStats {
        let recorded = tracer.enabled()
            && (!tracer.events.is_empty()
                || tracer.dropped > 0
                || tracer.phases.iter().any(|p| p.count > 0));
        if recorded {
            self.workers += 1;
            if tracer.events.capacity() > 0 {
                self.worker_rings.push(WorkerRing {
                    worker: tracer.worker,
                    events: tracer.events.len(),
                    capacity: tracer.events.capacity(),
                    dropped: tracer.dropped,
                });
            }
            for (mine, theirs) in self.phases.iter_mut().zip(&tracer.phases) {
                mine.absorb(theirs);
            }
            self.dropped_events += tracer.dropped;
            self.events.extend(tracer.events);
        }
        tracer.stats
    }

    /// Whether nothing was recorded (`Off`, or no scan work happened).
    pub fn is_empty(&self) -> bool {
        self.workers == 0 && self.events.is_empty() && self.phases.iter().all(|p| p.count == 0)
    }

    /// Totals for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseTotals {
        &self.phases[phase as usize]
    }

    /// Render the profile as a human-readable `EXPLAIN ANALYZE`-style tree.
    ///
    /// At `Spans` the tree groups events per segment and, within each
    /// segment, per selection strategy (batches, rows, mean observed
    /// selectivity, selection and aggregation cycles/row) alongside the
    /// aggregation decisions that segment's executors made. At `Counters`
    /// only the per-phase totals render. `stats` supplies the counters:
    /// rows, morsels, steals, and the per-strategy decision counts.
    pub fn render_explain(&self, stats: &ExecStats) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN ANALYZE  (profile={:?}, workers={}, dropped_events={})\n",
            self.level, self.workers, self.dropped_events
        ));
        out.push_str(&format!(
            "Query: {} batches, {} rows scanned ({} pruned), {} segments ({} eliminated), \
             {} morsels ({} stolen), {} mutable rows\n",
            stats.batches,
            stats.rows_scanned,
            stats.rows_pruned,
            stats.segments_scanned,
            stats.segments_eliminated,
            stats.morsels_scanned,
            stats.morsel_steals,
            stats.mutable_rows,
        ));
        if stats.governor_checks > 0 {
            out.push_str(&format!(
                "Governor: {} checks, {} bytes peak reserved\n",
                stats.governor_checks, stats.mem_reserved_peak,
            ));
        }
        if !self.worker_rings.is_empty() {
            let rings: Vec<String> = self
                .worker_rings
                .iter()
                .map(|r| {
                    format!(
                        "w{} {}/{} ({:.1}%{})",
                        r.worker,
                        r.events,
                        r.capacity,
                        r.utilization_pct(),
                        if r.dropped > 0 {
                            format!(", {} dropped", r.dropped)
                        } else {
                            String::new()
                        },
                    )
                })
                .collect();
            out.push_str(&format!("Tracer rings: {}\n", rings.join("; ")));
        }
        if self.is_empty() {
            out.push_str("└─ (profiling off — run with ProfileLevel::Counters or Spans)\n");
            return out;
        }

        // Phase totals, always available when profiling was on.
        out.push_str("├─ phases\n");
        for phase in Phase::ALL {
            let t = self.phase(phase);
            if t.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "│    {:<14} spans={:<6} rows={:<9} cycles={:<12} ({:.2} cy/row, {:.3} ms wall)\n",
                phase.label(),
                t.count,
                t.rows,
                t.cycles,
                t.cycles_per_row(),
                t.wall_nanos as f64 / 1e6,
            ));
        }

        if self.level != ProfileLevel::Spans {
            out.push_str(&render_strategy_totals(stats));
            return out;
        }

        for seg in self.segments() {
            out.push_str(&render_segment(&seg));
        }
        let tail = self.phase(Phase::MutableTail);
        if tail.count > 0 {
            out.push_str(&format!("├─ mutable tail  rows={}  cycles={}\n", tail.rows, tail.cycles));
        }
        let merge = self.phase(Phase::ParallelMerge);
        if merge.count > 0 {
            out.push_str(&format!(
                "├─ parallel merge  spans={}  cycles={}  ({:.3} ms wall)\n",
                merge.count,
                merge.cycles,
                merge.wall_nanos as f64 / 1e6
            ));
        }
        out.push_str(&render_strategy_totals(stats));
        out
    }

    /// The event log rolled up per segment, in ordinal order — the one pass
    /// over `events` that `EXPLAIN`, the Chrome trace's decision instants
    /// and the telemetry seam all read. Each segment's aggregation record
    /// comes back priced: `cycles`/`rows` are the segment's
    /// `Aggregation` span totals over every worker that visited it.
    pub(crate) fn segments(&self) -> Vec<SegmentRollup> {
        let mut by_segment: BTreeMap<u32, SegmentRollup> = BTreeMap::new();
        for e in &self.events {
            match e {
                TraceEvent::Span { phase, loc, rows, cycles, .. } if loc.segment != NO_ID => {
                    let seg = by_segment.entry(loc.segment).or_default();
                    match phase {
                        Phase::SegmentScan => {
                            seg.rows += rows;
                            seg.morsels += 1;
                            seg.steals += loc.stolen as u64;
                            seg.scan_cycles += cycles;
                        }
                        Phase::Aggregation => {
                            seg.agg_cycles += cycles;
                            seg.agg_rows += rows;
                            if let Some(s) = loc.selection {
                                let strategy = &mut seg.strategies[s as usize];
                                strategy.agg_cycles += cycles;
                                strategy.agg = loc.agg.or(strategy.agg);
                            }
                        }
                        _ => {}
                    }
                }
                TraceEvent::Span { .. } => {}
                TraceEvent::Decision(record) => match *record {
                    DecisionRecord::Selection {
                        segment,
                        row_start,
                        bits,
                        observed_selectivity,
                        chosen,
                        cycles,
                        rows,
                        ..
                    } => {
                        let seg = by_segment.entry(segment).or_default();
                        let (lo, hi) = seg.range.unwrap_or((u64::MAX, 0));
                        seg.range = Some((lo.min(row_start), hi.max(row_start + rows)));
                        let strategy = &mut seg.strategies[chosen as usize];
                        strategy.batches += 1;
                        strategy.rows += rows;
                        strategy.selectivity += observed_selectivity;
                        strategy.max_bits = strategy.max_bits.max(bits);
                        strategy.select_cycles += cycles;
                        seg.selections.push(*record);
                    }
                    DecisionRecord::Agg { segment, .. } => {
                        by_segment.entry(segment).or_default().agg = Some(*record);
                    }
                },
            }
        }
        let finish = |(segment, mut seg): (u32, SegmentRollup)| {
            seg.segment = segment;
            if let Some(DecisionRecord::Agg { cycles, rows, .. }) = &mut seg.agg {
                (*cycles, *rows) = (seg.agg_cycles, seg.agg_rows);
            }
            for strategy in seg.strategies.iter_mut().filter(|s| s.batches > 0) {
                strategy.selectivity /= strategy.batches as f64;
            }
            seg
        };
        by_segment.into_iter().map(finish).collect()
    }

    /// Serialize the profile as JSON (dependency-free; schema documented in
    /// DESIGN.md §9). The event log is summarized as per-phase totals plus
    /// its length, so the output stays bounded regardless of scan size; the
    /// per-strategy decision counts are in [`ExecStats`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"level\": \"{:?}\", ", self.level));
        s.push_str(&format!("\"workers\": {}, ", self.workers));
        s.push_str(&format!("\"dropped_events\": {}, ", self.dropped_events));
        s.push_str("\"phases\": {");
        let mut first = true;
        for phase in Phase::ALL {
            let t = self.phase(phase);
            if t.count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!(
                "\"{}\": {{\"spans\": {}, \"rows\": {}, \"cycles\": {}, \"wall_nanos\": {}, \
                 \"cycles_per_row\": {:.4}}}",
                phase.label(),
                t.count,
                t.rows,
                t.cycles,
                t.wall_nanos,
                t.cycles_per_row()
            ));
        }
        s.push_str("}, \"events_recorded\": ");
        s.push_str(&self.events.len().to_string());
        s.push('}');
        s
    }

    /// Export the span/decision event log as Chrome trace-event JSON,
    /// loadable in `chrome://tracing` and Perfetto. Requires a
    /// [`ProfileLevel::Spans`] profile (`Counters` has no events and
    /// produces an empty `traceEvents` array).
    ///
    /// Spans become `ph:"X"` *complete* events — `tid` is the worker,
    /// `name` is the phase label, `args` carry the span coordinates —
    /// and strategy decisions become `ph:"I"` thread-scoped *instant*
    /// events whose `args` are the chooser's inputs. Timestamps convert
    /// the raw TSC start stamps to microseconds relative to the earliest
    /// event, so all workers land on one coherent timeline.
    pub fn to_chrome_trace(&self) -> String {
        self.to_chrome_trace_with_hz(bipie_metrics::tsc_hz())
    }

    /// [`QueryProfile::to_chrome_trace`] with an explicit TSC frequency
    /// (tests pass a fixed `hz` so output is deterministic on any host;
    /// `1e6` makes one cycle exactly one microsecond).
    pub fn to_chrome_trace_with_hz(&self, hz: f64) -> String {
        let base = self
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Span { start_cycles, .. } => *start_cycles,
                TraceEvent::Decision(record) => record.timeline().1,
            })
            .min()
            .unwrap_or(0);
        let us = |cycles: u64| cycles as f64 / hz * 1e6;
        let rel_us = |cycles: u64| us(cycles.saturating_sub(base));
        let ord = |id: u32| -> i64 {
            if id == NO_ID {
                -1
            } else {
                id as i64
            }
        };

        let mut tracks = BTreeSet::new();
        let mut events: Vec<String> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let TraceEvent::Span { phase, worker, loc, rows, start_cycles, cycles, wall_nanos } = e
            else {
                continue;
            };
            tracks.insert(*worker);
            let mut args = format!(
                "\"segment\": {}, \"morsel\": {}, \"rows\": {rows}, \
                 \"cycles\": {cycles}, \"wall_nanos\": {wall_nanos}, \
                 \"stolen\": {}",
                ord(loc.segment),
                ord(loc.morsel),
                loc.stolen
            );
            if let Some(s) = loc.selection {
                args.push_str(&format!(", \"selection\": \"{}\"", s.label()));
            }
            if let Some(a) = loc.agg {
                args.push_str(&format!(", \"agg\": \"{}\"", a.label()));
            }
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \"pid\": 0, \
                 \"tid\": {worker}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}",
                phase.label(),
                rel_us(*start_cycles),
                us(*cycles),
            ));
        }
        // Decisions come from the rollup, where the aggregation records
        // carry their cost; each sits on the track of the worker that made
        // it.
        for seg in self.segments() {
            for record in seg.selections.iter().chain(&seg.agg) {
                let (tid, at_cycles) = record.timeline();
                events.push(format!(
                    "{{\"name\": \"decision:{}\", \"cat\": \"decision\", \"ph\": \"I\", \
                     \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {:.3}, \
                     \"args\": {{{}}}}}",
                    record.kind(),
                    rel_us(at_cycles),
                    record.json_fields(),
                ));
            }
        }
        // Name the worker rows up front so Perfetto's track labels are
        // stable regardless of which worker recorded first.
        let names = tracks.iter().map(|w| {
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {w}, \
                 \"args\": {{\"name\": \"worker {w}\"}}}}"
            )
        });
        let events: Vec<String> = names.chain(events).collect();
        format!("{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [{}]}}", events.join(", "))
    }
}

/// One selection strategy's share of a segment: an `EXPLAIN` strategy row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct StrategyRollup {
    pub batches: u64,
    pub rows: u64,
    /// Mean observed selectivity over the batches.
    pub selectivity: f64,
    pub max_bits: u8,
    pub select_cycles: u64,
    /// Cycles of the aggregation spans that ran under this selection
    /// strategy, and the aggregation strategy they ran.
    pub agg_cycles: u64,
    pub agg: Option<AggStrategy>,
}

/// One segment of [`QueryProfile::segments`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SegmentRollup {
    pub segment: u32,
    /// Rows, morsels, stolen morsels and cycles of the `SegmentScan` spans.
    pub rows: u64,
    pub morsels: u64,
    pub steals: u64,
    pub scan_cycles: u64,
    /// The row window the scan visited, from the batches it recorded: the
    /// filter's row range on this segment, on the batch grid.
    pub range: Option<(u64, u64)>,
    /// `Aggregation` span totals over every visiting worker:
    /// the walk's accumulators, read through the priced `agg` record.
    agg_cycles: u64,
    agg_rows: u64,
    /// The segment's aggregation decision, priced with the two totals.
    pub agg: Option<DecisionRecord>,
    /// The segment's selection decisions, in event order.
    pub selections: Vec<DecisionRecord>,
    /// Per-strategy rollup, indexed by [`SelectionStrategy`].
    pub strategies: [StrategyRollup; SelectionStrategy::ALL.len()],
}

/// One segment's `EXPLAIN` subtree.
fn render_segment(seg: &SegmentRollup) -> String {
    let range = seg.range.map_or(String::new(), |(lo, hi)| format!("  range=[{lo},{hi})"));
    let mut out = format!(
        "├─ segment {}  rows={}{range}  ranges={}  steals={}  cycles={}\n",
        seg.segment, seg.rows, seg.morsels, seg.steals, seg.scan_cycles
    );
    if let Some(DecisionRecord::Agg {
        num_groups_effective,
        num_sums,
        num_minmax,
        est_selectivity,
        chosen,
        forced,
        ..
    }) = seg.agg
    {
        out.push_str(&format!(
            "│    decision agg: {:<8} groups={} sums={} minmax={} est_sel={:.3}{}\n",
            chosen.label(),
            num_groups_effective,
            num_sums,
            num_minmax,
            est_selectivity,
            if forced { " (forced)" } else { "" },
        ));
    }
    for (strategy, s) in SelectionStrategy::ALL.iter().zip(&seg.strategies) {
        if s.batches == 0 {
            continue;
        }
        let denom = s.rows.max(1) as f64;
        out.push_str(&format!(
            "│    {:<13} batches={:<5} rows={:<9} sel={:.3}  bits={}  \
             select {:.2} cy/r  agg[{}] {:.2} cy/r\n",
            strategy.label(),
            s.batches,
            s.rows,
            s.selectivity,
            s.max_bits,
            s.select_cycles as f64 / denom,
            s.agg.map_or("-", AggStrategy::label),
            s.agg_cycles as f64 / denom,
        ));
    }
    out
}

/// The closing EXPLAIN line: decisions per strategy, from the stats.
fn render_strategy_totals(stats: &ExecStats) -> String {
    let sel: Vec<String> = SelectionStrategy::ALL
        .iter()
        .filter(|&&s| stats.selection_count(s) > 0)
        .map(|&s| format!("{}={}", s.label(), stats.selection_count(s)))
        .collect();
    let agg: Vec<String> = AggStrategy::ALL
        .iter()
        .filter(|&&a| stats.agg_count(a) > 0)
        .map(|&a| format!("{}={}", a.label(), stats.agg_count(a)))
        .collect();
    format!("└─ strategies  selection[{}]  aggregation[{}]\n", sel.join(", "), agg.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg_params(num_groups_effective: usize, num_sums: usize, sel: f64) -> AggChoiceParams {
        AggChoiceParams {
            num_groups_effective,
            num_sums,
            input_bytes: vec![4; num_sums],
            all_packed_narrow: true,
            multi_layout_fits: true,
            est_selectivity: sel,
            runwise_runs_fraction: None,
        }
    }

    fn pick(bits: u8, selectivity: f64, chosen: SelectionStrategy) -> SelectionPick {
        SelectionPick { bits, selectivity, chosen, forced: false }
    }

    #[test]
    fn off_tracer_counts_decisions_but_stores_nothing_and_reads_no_clock() {
        let mut t = Tracer::new(ProfileLevel::Off, 0);
        assert!(!t.enabled());
        assert!(t.start().0.is_none(), "Off must not read timestamps");
        let at = BatchAt { segment: 0, morsel: 0, start: 0, len: 100 };
        t.selection(at, || ((), pick(8, 0.5, SelectionStrategy::Gather)));
        t.decision_agg(0, &agg_params(8, 2, 0.5), 0, AggStrategy::InRegister, false);
        let mut p = QueryProfile::new(ProfileLevel::Off);
        let stats = p.absorb(t);
        assert!(p.is_empty());
        assert!(p.events.is_empty());
        // The counters are the engine's stats, not profiling: live at `Off`.
        assert_eq!(stats.selection_count(SelectionStrategy::Gather), 1);
        assert_eq!(stats.agg_count(AggStrategy::InRegister), 1);
        assert_eq!(stats.batches, 1);
    }

    /// With the profiler compiled out, every level behaves like `Off`: no
    /// clock reads, no event storage, nothing absorbed.
    #[cfg(feature = "no_observability")]
    #[test]
    fn compiled_out_profiler_is_inert_at_every_level() {
        for level in [ProfileLevel::Off, ProfileLevel::Counters, ProfileLevel::Spans] {
            let mut t = Tracer::new(level, 0);
            assert!(!t.enabled(), "{level:?}");
            assert!(t.start().0.is_none(), "{level:?} must not read timestamps");
            t.timed(Phase::Selection, SpanLoc::none(), |_| ((), 100));
            assert_eq!(t.events.capacity(), 0, "{level:?} must not allocate");
            let mut p = QueryProfile::new(level);
            p.absorb(t);
            assert!(p.is_empty(), "{level:?}");
        }
    }

    // The recording-behavior tests below are meaningless when the profiler
    // is compiled out (`Tracer::enabled()` is a constant false), so they
    // only build in the normal configuration.

    #[cfg(not(feature = "no_observability"))]
    #[test]
    fn counters_accumulate_without_storing_events() {
        let mut t = Tracer::new(ProfileLevel::Counters, 1);
        assert!(t.start().0.is_some());
        t.timed(Phase::Unpack, SpanLoc::at(0, 0), |_| ((), 4096));
        let at = BatchAt { segment: 0, morsel: 0, start: 0, len: 4096 };
        t.selection(at, || ((), pick(12, 0.25, SelectionStrategy::Compact)));
        assert_eq!(t.events.capacity(), 0, "Counters must not allocate an event log");
        let mut p = QueryProfile::new(ProfileLevel::Counters);
        let stats = p.absorb(t);
        assert!(!p.is_empty());
        assert_eq!(p.phase(Phase::Unpack).count, 1);
        assert_eq!(p.phase(Phase::Unpack).rows, 4096);
        assert_eq!(stats.selection_count(SelectionStrategy::Compact), 1);
        assert!(p.events.is_empty());
    }

    /// A timed span closes on every exit of its work, an `Err` included, and
    /// hands the work's result back untouched.
    #[cfg(not(feature = "no_observability"))]
    #[test]
    fn timed_closes_the_span_on_an_error_too() {
        let mut t = Tracer::new(ProfileLevel::Spans, 0);
        let failed: Result<(), &str> = t.timed(Phase::SegmentScan, SpanLoc::at(0, 0), |t| {
            let inner = t.timed(Phase::Unpack, SpanLoc::at(0, 0), |_| (Err("tripped"), 7));
            (inner, 4096)
        });
        assert_eq!(failed, Err("tripped"));
        assert_eq!(t.phases[Phase::Unpack as usize].rows, 7);
        assert_eq!(t.phases[Phase::SegmentScan as usize].count, 1);
        assert_eq!(t.phases[Phase::SegmentScan as usize].rows, 4096);
    }

    #[cfg(not(feature = "no_observability"))]
    #[test]
    fn spans_store_events_and_overflow_drops_new_ones() {
        let mut t = Tracer::with_capacity(ProfileLevel::Spans, 0, 2);
        for i in 0..5 {
            t.timed(Phase::Selection, SpanLoc::at(0, i), |_| ((), 10));
        }
        assert_eq!(t.events.len(), 2, "capacity bounds the log");
        assert_eq!(t.dropped(), 3);
        // Counters keep counting past the overflow.
        assert_eq!(t.phases[Phase::Selection as usize].count, 5);
        let mut p = QueryProfile::new(ProfileLevel::Spans);
        p.absorb(t);
        assert_eq!(p.dropped_events, 3);
        assert_eq!(p.events.len(), 2);
        // The retained events are the *earliest* (keep-first policy).
        assert!(matches!(
            &p.events[0],
            TraceEvent::Span { loc, .. } if loc.morsel == 0
        ));
    }

    #[cfg(not(feature = "no_observability"))]
    #[test]
    fn absorb_merges_multiple_workers() {
        let mut p = QueryProfile::new(ProfileLevel::Spans);
        let mut stats = ExecStats::default();
        for w in 0..3u32 {
            let mut t = Tracer::new(ProfileLevel::Spans, w);
            t.timed(Phase::Aggregation, SpanLoc::at(w, 0), |_| ((), 100));
            t.decision_agg(w, &agg_params(8, 1, 1.0), 0, AggStrategy::InRegister, false);
            stats.merge(&p.absorb(t));
        }
        assert_eq!(p.workers, 3);
        assert_eq!(p.phase(Phase::Aggregation).count, 3);
        assert_eq!(stats.agg_count(AggStrategy::InRegister), 3);
        assert_eq!(p.events.len(), 6);
    }

    #[cfg(not(feature = "no_observability"))]
    #[test]
    fn explain_and_json_render() {
        let mut t = Tracer::new(ProfileLevel::Spans, 0);
        t.timed(Phase::SegmentScan, SpanLoc::at(2, 0).with_stolen(true), |_| ((), 4096));
        let at = BatchAt { segment: 2, morsel: 0, start: 0, len: 4096 };
        t.selection(at, || ((), pick(14, 0.01, SelectionStrategy::Gather)));
        let labelled = SpanLoc::at(2, 0)
            .with_selection(SelectionStrategy::Gather)
            .with_agg(AggStrategy::SortBased);
        t.timed(Phase::Aggregation, labelled, |_| ((), 4096));
        t.decision_agg(2, &agg_params(64, 1, 0.01), 0, AggStrategy::SortBased, false);
        let mut p = QueryProfile::new(ProfileLevel::Spans);
        let stats = p.absorb(t);

        let explain = p.render_explain(&stats);
        assert!(explain.contains("segment 2"), "{explain}");
        assert!(explain.contains("steals=1"), "{explain}");
        assert!(explain.contains("decision agg: Sort"), "{explain}");
        assert!(explain.contains("Gather"), "{explain}");
        assert!(explain.contains("bits=14"), "{explain}");
        assert!(explain.contains("selection[Gather=1]  aggregation[Sort=1]"), "{explain}");

        let json = p.to_json();
        assert!(json.contains("\"segment_scan\""), "{json}");
        assert!(json.contains("\"events_recorded\": 5"), "{json}");
        // Dependency-free JSON must at least be brace-balanced.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    /// The decision payload rides inside the event the ring already held:
    /// the preallocated 16 Ki-event buffer does not grow.
    #[test]
    #[expect(clippy::disallowed_types, reason = "measures the event type")]
    fn trace_event_stays_within_eighty_bytes() {
        assert!(std::mem::size_of::<TraceEvent>() <= 80, "{}", std::mem::size_of::<TraceEvent>());
    }

    #[test]
    fn empty_profile_renders_hint() {
        let p = QueryProfile::new(ProfileLevel::Off);
        let explain = p.render_explain(&ExecStats::default());
        assert!(explain.contains("profiling off"), "{explain}");
    }
}
