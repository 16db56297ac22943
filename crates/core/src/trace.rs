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
//!   events* capturing exactly the inputs the strategy chooser saw. A
//!   strategy decision is one call: it bumps the stats counter at every
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

/// Whether the profiler was compiled out entirely (`no_profiler` feature —
/// used only by the overhead benchmark to build a true no-profiler
/// baseline binary).
pub fn profiler_compiled_out() -> bool {
    cfg!(feature = "no_profiler")
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
    /// The specialized aggregation kernel consuming one batch.
    Aggregation = 4,
    /// One batch through the wide-group (u32 group id) scalar fallback.
    WideGroup = 5,
    /// The row-at-a-time mutable-region pass.
    MutableTail = 6,
    /// Phase-2 reduction of per-worker hash partitions.
    ParallelMerge = 7,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 8;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Plan,
        Phase::SegmentScan,
        Phase::Selection,
        Phase::Unpack,
        Phase::Aggregation,
        Phase::WideGroup,
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
            Phase::WideGroup => "wide_group",
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
        /// [`QueryProfile::to_chrome_trace`] place every worker's spans on
        /// one coherent time axis.
        start_cycles: u64,
        /// Serialized-TSC cycles elapsed.
        cycles: u64,
        /// Wall-clock nanoseconds elapsed.
        wall_nanos: u64,
    },
    /// The per-batch selection-strategy decision, with the chooser's inputs.
    SelectionDecision {
        /// Raw TSC reading when the decision was recorded (same timeline as
        /// `Span::start_cycles`; 0 when the event predates span export).
        at_cycles: u64,
        /// Table segment ordinal.
        segment: u32,
        /// Morsel ordinal within the segment.
        morsel: u32,
        /// First row of the batch within the segment.
        row_start: u64,
        /// Rows in the batch.
        rows: u32,
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
    },
    /// The per-segment aggregation-strategy decision: one per scanned
    /// segment, made at plan time and recorded by the coordinator, so it
    /// carries no worker coordinate — every worker that visits the segment
    /// runs it under this strategy.
    AggDecision {
        /// Raw TSC reading when the decision was recorded (same timeline as
        /// `Span::start_cycles`; 0 when the event predates span export).
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
    },
}

/// A captured span start; holds timestamps only when profiling is enabled,
/// so `Off` never reads a clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<(u64, Instant)>);

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
            ProfileLevel::Spans if !profiler_compiled_out() => Vec::with_capacity(capacity),
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
        !profiler_compiled_out() && self.level != ProfileLevel::Off
    }

    /// Whether the full event log is kept.
    #[inline]
    pub fn spans(&self) -> bool {
        self.enabled() && self.level == ProfileLevel::Spans
    }

    /// Begin a span. At `Off` this reads no clock and returns an inert
    /// token.
    #[inline]
    pub fn start(&self) -> SpanStart {
        if self.enabled() {
            SpanStart(Some((bipie_toolbox::cycles::read_tsc(), Instant::now())))
        } else {
            SpanStart(None)
        }
    }

    /// Finish a span started with [`Tracer::start`]. A no-op at `Off`.
    #[inline]
    pub fn span(&mut self, phase: Phase, loc: SpanLoc, rows: u64, start: SpanStart) {
        let Some((c0, w0)) = start.0 else { return };
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
    }

    /// Close one batch's [`Phase::Selection`] span (opened at `start`,
    /// located at `loc`) and record the selection-strategy decision the
    /// batch runs under, with the chooser's inputs: counts the batch in
    /// [`Tracer::stats`] at every level and, at `Spans`, stores the event.
    #[allow(clippy::too_many_arguments)] // mirrors the chooser's input list
    #[inline]
    pub fn decision_selection(
        &mut self,
        start: SpanStart,
        loc: SpanLoc,
        row_start: usize,
        rows: usize,
        bits: u8,
        observed_selectivity: f64,
        chosen: SelectionStrategy,
        forced: bool,
    ) {
        self.span(Phase::Selection, loc.with_selection(chosen), rows as u64, start);
        self.stats.record_selection(chosen);
        if self.spans() {
            // The timestamp is spans-only work: `Counters` counts the
            // decision without reading a clock.
            self.push(TraceEvent::SelectionDecision {
                at_cycles: bipie_toolbox::cycles::read_tsc(),
                segment: loc.segment,
                morsel: loc.morsel,
                row_start: row_start as u64,
                rows: rows as u32,
                bits,
                observed_selectivity,
                chosen,
                forced,
            });
        }
    }

    /// Record one segment's aggregation-strategy decision with the
    /// chooser's inputs: counts it in [`Tracer::stats`] at every level and,
    /// at `Spans`, stores the event.
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
            // Spans-only timestamp, as in `decision_selection`.
            self.push(TraceEvent::AggDecision {
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
            });
        }
    }

    /// Buffer an event, dropping (and counting) once the fixed capacity is
    /// reached — never reallocating.
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
    /// (profiling off, or e.g. a mutable-tail tracer on a table with no
    /// mutable rows) contribute nothing, so `workers` counts real
    /// contributors.
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

        // Spans: per-segment tree from the event log.
        let mut segments: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { loc, .. } if loc.segment != NO_ID => Some(loc.segment),
                TraceEvent::SelectionDecision { segment, .. }
                | TraceEvent::AggDecision { segment, .. } => Some(*segment),
                _ => None,
            })
            .collect();
        segments.sort_unstable();
        segments.dedup();

        for &seg in &segments {
            out.push_str(&self.render_segment(seg));
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

    fn render_segment(&self, seg: u32) -> String {
        let mut out = String::new();
        // Segment header: rows/morsels/steals from SegmentScan spans.
        let (mut rows, mut morsels, mut steals, mut seg_cycles) = (0u64, 0u64, 0u64, 0u64);
        for e in &self.events {
            if let TraceEvent::Span { phase: Phase::SegmentScan, loc, rows: r, cycles, .. } = e {
                if loc.segment == seg {
                    rows += r;
                    morsels += 1;
                    steals += loc.stolen as u64;
                    seg_cycles += cycles;
                }
            }
        }
        // The row window the scan visited, from the batches it recorded: the
        // filter's row range on this segment, on the batch grid.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in &self.events {
            if let TraceEvent::SelectionDecision { segment, row_start, rows, .. } = e {
                if *segment == seg {
                    lo = lo.min(*row_start);
                    hi = hi.max(row_start + *rows as u64);
                }
            }
        }
        let range = if lo < hi { format!("  range=[{lo},{hi})") } else { String::new() };
        out.push_str(&format!(
            "├─ segment {seg}  rows={rows}{range}  ranges={morsels}  steals={steals}  \
             cycles={seg_cycles}\n"
        ));

        // The segment's aggregation decision.
        for e in &self.events {
            if let TraceEvent::AggDecision {
                segment,
                num_groups_effective,
                num_sums,
                num_minmax,
                est_selectivity,
                chosen,
                forced,
                ..
            } = e
            {
                if *segment == seg {
                    out.push_str(&format!(
                        "│    decision agg: {:<8} groups={} sums={} minmax={} est_sel={:.3}{}\n",
                        chosen.label(),
                        num_groups_effective,
                        num_sums,
                        num_minmax,
                        est_selectivity,
                        if *forced { " (forced)" } else { "" },
                    ));
                }
            }
        }

        // Per selection strategy: batch count / rows / mean selectivity from
        // decisions, cycles from the labeled selection+aggregation spans.
        for strat in SelectionStrategy::ALL {
            let (mut batches, mut brows, mut sel_sum, mut bits_max) = (0u64, 0u64, 0.0f64, 0u8);
            for e in &self.events {
                if let TraceEvent::SelectionDecision {
                    segment,
                    rows,
                    bits,
                    observed_selectivity,
                    chosen,
                    ..
                } = e
                {
                    if *segment == seg && *chosen == strat {
                        batches += 1;
                        brows += *rows as u64;
                        sel_sum += observed_selectivity;
                        bits_max = bits_max.max(*bits);
                    }
                }
            }
            if batches == 0 {
                continue;
            }
            let (mut sel_cycles, mut agg_cycles, mut agg_label) = (0u64, 0u64, None);
            for e in &self.events {
                if let TraceEvent::Span { phase, loc, cycles, .. } = e {
                    if loc.segment != seg || loc.selection != Some(strat) {
                        continue;
                    }
                    match phase {
                        Phase::Selection => sel_cycles += cycles,
                        Phase::Aggregation | Phase::WideGroup => {
                            agg_cycles += cycles;
                            agg_label = loc.agg.or(agg_label);
                        }
                        _ => {}
                    }
                }
            }
            let denom = brows.max(1) as f64;
            out.push_str(&format!(
                "│    {:<13} batches={:<5} rows={:<9} sel={:.3}  bits={}  \
                 select {:.2} cy/r  agg[{}] {:.2} cy/r\n",
                strat.label(),
                batches,
                brows,
                sel_sum / batches as f64,
                bits_max,
                sel_cycles as f64 / denom,
                agg_label.map_or("-", AggStrategy::label),
                agg_cycles as f64 / denom,
            ));
        }
        out
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
                TraceEvent::SelectionDecision { at_cycles, .. }
                | TraceEvent::AggDecision { at_cycles, .. } => *at_cycles,
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

        let mut events: Vec<String> = Vec::with_capacity(self.events.len() + self.workers);
        // Name the worker rows up front so Perfetto's track labels are
        // stable regardless of which worker recorded first.
        let mut workers: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        workers.sort_unstable();
        workers.dedup();
        for w in &workers {
            events.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {w}, \
                 \"args\": {{\"name\": \"worker {w}\"}}}}"
            ));
        }

        // Decisions carry no worker coordinate of their own. A selection
        // decision follows its batch's span in the same tracer's log, so
        // track the current worker through the worker-major event walk; an
        // aggregation decision is the coordinator's, which traces as
        // worker 0.
        let mut current_worker = 0u32;
        for e in &self.events {
            match e {
                TraceEvent::Span { phase, worker, loc, rows, start_cycles, cycles, wall_nanos } => {
                    current_worker = *worker;
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
                TraceEvent::SelectionDecision {
                    at_cycles,
                    segment,
                    morsel,
                    row_start,
                    rows,
                    bits,
                    observed_selectivity,
                    chosen,
                    forced,
                } => {
                    events.push(format!(
                        "{{\"name\": \"decision:selection\", \"cat\": \"decision\", \
                         \"ph\": \"I\", \"s\": \"t\", \"pid\": 0, \"tid\": {current_worker}, \
                         \"ts\": {:.3}, \"args\": {{\"segment\": {}, \"morsel\": {}, \
                         \"row_start\": {row_start}, \"rows\": {rows}, \"bits\": {bits}, \
                         \"observed_selectivity\": {observed_selectivity:.4}, \
                         \"chosen\": \"{}\", \"forced\": {forced}}}}}",
                        rel_us(*at_cycles),
                        ord(*segment),
                        ord(*morsel),
                        chosen.label(),
                    ));
                }
                TraceEvent::AggDecision {
                    at_cycles,
                    segment,
                    num_groups_effective,
                    num_sums,
                    num_minmax,
                    est_selectivity,
                    all_packed_narrow,
                    multi_layout_fits,
                    chosen,
                    forced,
                } => {
                    events.push(format!(
                        "{{\"name\": \"decision:agg\", \"cat\": \"decision\", \"ph\": \"I\", \
                         \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \
                         \"args\": {{\"segment\": {}, \"num_groups_effective\": \
                         {num_groups_effective}, \"num_sums\": {num_sums}, \"num_minmax\": \
                         {num_minmax}, \"est_selectivity\": {est_selectivity:.4}, \
                         \"all_packed_narrow\": {all_packed_narrow}, \"multi_layout_fits\": \
                         {multi_layout_fits}, \"chosen\": \"{}\", \"forced\": {forced}}}}}",
                        rel_us(*at_cycles),
                        ord(*segment),
                        chosen.label(),
                    ));
                }
            }
        }
        format!("{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [{}]}}", events.join(", "))
    }
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

    #[test]
    fn off_tracer_counts_decisions_but_stores_nothing_and_reads_no_clock() {
        let mut t = Tracer::new(ProfileLevel::Off, 0);
        assert!(!t.enabled());
        let s = t.start();
        assert!(s.0.is_none(), "Off must not read timestamps");
        t.decision_selection(
            s,
            SpanLoc::at(0, 0),
            0,
            100,
            8,
            0.5,
            SelectionStrategy::Gather,
            false,
        );
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
    #[cfg(feature = "no_profiler")]
    #[test]
    fn compiled_out_profiler_is_inert_at_every_level() {
        for level in [ProfileLevel::Off, ProfileLevel::Counters, ProfileLevel::Spans] {
            let mut t = Tracer::new(level, 0);
            assert!(!t.enabled(), "{level:?}");
            let s = t.start();
            assert!(s.0.is_none(), "{level:?} must not read timestamps");
            t.span(Phase::Selection, SpanLoc::none(), 100, s);
            assert_eq!(t.events.capacity(), 0, "{level:?} must not allocate");
            let mut p = QueryProfile::new(level);
            p.absorb(t);
            assert!(p.is_empty(), "{level:?}");
        }
    }

    // The recording-behavior tests below are meaningless when the profiler
    // is compiled out (`Tracer::enabled()` is a constant false), so they
    // only build in the normal configuration.

    #[cfg(not(feature = "no_profiler"))]
    #[test]
    fn counters_accumulate_without_storing_events() {
        let mut t = Tracer::new(ProfileLevel::Counters, 1);
        let s = t.start();
        assert!(s.0.is_some());
        t.span(Phase::Unpack, SpanLoc::at(0, 0), 4096, s);
        let s = t.start();
        t.decision_selection(
            s,
            SpanLoc::at(0, 0),
            0,
            4096,
            12,
            0.25,
            SelectionStrategy::Compact,
            false,
        );
        assert_eq!(t.events.capacity(), 0, "Counters must not allocate an event log");
        let mut p = QueryProfile::new(ProfileLevel::Counters);
        let stats = p.absorb(t);
        assert!(!p.is_empty());
        assert_eq!(p.phase(Phase::Unpack).count, 1);
        assert_eq!(p.phase(Phase::Unpack).rows, 4096);
        assert_eq!(stats.selection_count(SelectionStrategy::Compact), 1);
        assert!(p.events.is_empty());
    }

    #[cfg(not(feature = "no_profiler"))]
    #[test]
    fn spans_store_events_and_overflow_drops_new_ones() {
        let mut t = Tracer::with_capacity(ProfileLevel::Spans, 0, 2);
        for i in 0..5 {
            let s = t.start();
            t.span(Phase::Selection, SpanLoc::at(0, i), 10, s);
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

    #[cfg(not(feature = "no_profiler"))]
    #[test]
    fn absorb_merges_multiple_workers() {
        let mut p = QueryProfile::new(ProfileLevel::Spans);
        let mut stats = ExecStats::default();
        for w in 0..3u32 {
            let mut t = Tracer::new(ProfileLevel::Spans, w);
            let s = t.start();
            t.span(Phase::Aggregation, SpanLoc::at(w, 0), 100, s);
            t.decision_agg(w, &agg_params(8, 1, 1.0), 0, AggStrategy::InRegister, false);
            stats.merge(&p.absorb(t));
        }
        assert_eq!(p.workers, 3);
        assert_eq!(p.phase(Phase::Aggregation).count, 3);
        assert_eq!(stats.agg_count(AggStrategy::InRegister), 3);
        assert_eq!(p.events.len(), 6);
    }

    #[cfg(not(feature = "no_profiler"))]
    #[test]
    fn explain_and_json_render() {
        let mut t = Tracer::new(ProfileLevel::Spans, 0);
        let s = t.start();
        t.span(Phase::SegmentScan, SpanLoc::at(2, 0).with_stolen(true), 4096, s);
        let s = t.start();
        t.decision_selection(
            s,
            SpanLoc::at(2, 0),
            0,
            4096,
            14,
            0.01,
            SelectionStrategy::Gather,
            false,
        );
        let s = t.start();
        t.span(
            Phase::Aggregation,
            SpanLoc::at(2, 0)
                .with_selection(SelectionStrategy::Gather)
                .with_agg(AggStrategy::SortBased),
            4096,
            s,
        );
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

    #[test]
    fn empty_profile_renders_hint() {
        let p = QueryProfile::new(ProfileLevel::Off);
        let explain = p.render_explain(&ExecStats::default());
        assert!(explain.contains("profiling off"), "{explain}");
    }
}
