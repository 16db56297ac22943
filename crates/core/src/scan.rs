//! The columnstore scan driver (§3, Figure 1; parallelism in DESIGN.md §8).
//!
//! Orchestrates execution: segment elimination, overflow proofs, the
//! per-segment *program*, the batch loop, and the merge of per-segment group
//! results into table-level totals. Group keys, not group ids, are the merge
//! key, because dictionary codes differ between segments.
//!
//! The operator is specialized once per segment (§3; DESIGN.md §20):
//! admission planning compiles the filter, plans the group-id mapper, the
//! aggregate inputs and their lane plan, and makes the segment's one
//! aggregation decision — all before any worker starts, into an immutable
//! `PlannedSegment` the workers share by reference. A worker visiting a
//! segment adds only scratch buffers and accumulators.
//!
//! Scans are *morsel-driven* ("query 1 requires little synchronization
//! coming from parallel processing", §6.3): segments are decomposed into
//! batch-aligned row ranges claimed from atomic cursors by the workers of a
//! persistent pool ([`crate::pool`]), so a single hot segment, a table with
//! fewer segments than cores, or skewed segment sizes still scale. Each
//! worker aggregates into thread-local accumulators; the final reduction is
//! partitioned by group-key hash and merged in parallel. A serial scan is
//! the one-worker case of the same driver: the pool runs a one-worker
//! region inline on the caller, and the single worker's result is already
//! the answer.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
#[expect(clippy::disallowed_types, reason = "the per-worker result slots")]
use std::sync::{Mutex, PoisonError};

use bipie_columnstore::encoding::{EncodedColumn, RleColumn};
use bipie_columnstore::{Batch, LogicalType, MorselCursor, Segment, Table, Value};
use bipie_toolbox::selvec::count_selected;
use bipie_toolbox::sync::lock;
use bipie_toolbox::{RunSpanVec, SimdLevel};

use crate::aggproc::{
    needs_group_ids, AggInput, LanePlan, RunWiseExec, SegmentAggExecutor, SegmentAggResult,
};
use crate::error::{EngineError, Result};
use crate::expr::ResolvedExpr;
use crate::filter::{FilterScratch, ResolvedPredicate, SegmentPredicate};
use crate::governor::{CancelToken, Governor, MemScope};
use crate::groupid::{plan_segment_mapper, NarrowMapper, SegmentGroupMapper, WideMapper};
use crate::pool::{hardware_threads, panic_message, QueryTag, WorkerPool};
use crate::stats::ExecStats;
use crate::strategy::{AggChoiceParams, AggStrategy, SelectionStrategy, StrategyConfig};
use crate::trace::{BatchAt, Phase, ProfileLevel, QueryProfile, SelectionPick, SpanLoc, Tracer};

/// Per-group accumulator in the merged result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupAcc {
    /// Selected-row count.
    pub count: u64,
    /// One logical sum per sum-aggregate.
    pub sums: Vec<i64>,
    /// One logical minimum per MIN/MAX aggregate.
    pub mins: Vec<i64>,
    /// One logical maximum per MIN/MAX aggregate.
    pub maxs: Vec<i64>,
}

impl GroupAcc {
    /// Fold `other` into `self` (same aggregate arity).
    fn absorb(&mut self, other: &GroupAcc) {
        self.count += other.count;
        for (s, v) in self.sums.iter_mut().zip(&other.sums) {
            *s += v;
        }
        for (m, v) in self.mins.iter_mut().zip(&other.mins) {
            *m = (*m).min(*v);
        }
        for (m, v) in self.maxs.iter_mut().zip(&other.maxs) {
            *m = (*m).max(*v);
        }
    }
}

/// Execution options: the one options struct of the engine, named
/// [`QueryOptions`](crate::query::QueryOptions) in the query API.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// SIMD tier (defaults to the detected one).
    pub level: SimdLevel,
    /// Force one selection strategy for every batch (experiments; `None` =
    /// adaptive, §3).
    pub forced_selection: Option<SelectionStrategy>,
    /// Force one aggregation strategy for every segment (experiments).
    pub forced_agg: Option<AggStrategy>,
    /// Scan morsels on several pool workers. `false` is shorthand for
    /// `threads: Some(1)`: the same driver with one worker, run inline on
    /// the calling thread.
    pub parallel: bool,
    /// Worker count (`None` = hardware parallelism; through an `Engine`, the
    /// query's share of it at admission). Must be in `1..=`[`MAX_THREADS`].
    pub threads: Option<usize>,
    /// Rows per batch window (§2.1: "up to 4096 rows in MemSQL"; default
    /// [`bipie_columnstore::BATCH_ROWS`]).
    pub batch_rows: usize,
    /// Rows per morsel, rounded up to a whole number of batch windows so
    /// every worker count sees the same batch grid (default
    /// [`bipie_columnstore::MORSEL_ROWS`]).
    pub morsel_rows: usize,
    /// Profiling level. [`ProfileLevel::Off`] (the default) keeps the batch
    /// loops free of timestamps, atomics, and event stores; `Counters`
    /// collects per-phase totals; `Spans` additionally keeps the full
    /// span/decision event log in the returned [`QueryProfile`].
    pub profile: ProfileLevel,
    /// Cooperative cancellation token, observed at every morsel claim and
    /// batch boundary; `cancel()` on any clone fails the query with
    /// [`EngineError::Cancelled`] at its next checkpoint (DESIGN.md §10).
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget; exceeding it fails the query with
    /// [`EngineError::DeadlineExceeded`]. Must be non-zero.
    pub time_budget: Option<std::time::Duration>,
    /// Byte budget for scan-owned allocations (accumulators, wide-group
    /// hash tables, selection vectors, unpack buffers); exceeding it fails
    /// with [`EngineError::MemoryBudgetExceeded`]. Must be non-zero.
    pub mem_budget: Option<usize>,
    /// Shared-scheduler identity: which per-query pool queue this scan's
    /// fork-join work lands in and its fair-share weight (DESIGN.md §15).
    /// The [`Engine`](crate::engine::Engine) stamps each admitted query with
    /// a unique id and its session's weight; standalone scans and direct
    /// `execute` callers use the default untagged queue.
    pub tag: QueryTag,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            level: SimdLevel::detect(),
            forced_selection: None,
            forced_agg: None,
            parallel: true,
            threads: None,
            batch_rows: bipie_columnstore::BATCH_ROWS,
            morsel_rows: bipie_columnstore::MORSEL_ROWS,
            profile: ProfileLevel::Off,
            cancel: None,
            time_budget: None,
            mem_budget: None,
            tag: QueryTag::default(),
        }
    }
}

/// The most workers a query may name in [`ScanOptions::threads`]. Each
/// worker is a pool thread that lives for the rest of the process, and each
/// holds one hash partition per worker until the merge: an unbounded count
/// would let one query grow the shared pool for every tenant and allocate
/// its square in maps the governor never sees.
pub const MAX_THREADS: usize = 256;

impl ScanOptions {
    /// The governor of one query: its limits are the three knobs, and its
    /// deadline clock starts now — at scan admission.
    pub(crate) fn governor(&self) -> Governor {
        Governor::new(self.cancel.clone(), self.time_budget, self.mem_budget)
    }

    /// Reject out-of-domain option values with a typed error without
    /// executing anything. [`scan_table`] performs the same check before any
    /// scanning starts (instead of a deep assertion failure mid-scan), so
    /// calling this is for builders that want to fail fast.
    pub fn validate(&self) -> Result<()> {
        let invalid = |option, detail: &str| {
            Err(EngineError::InvalidOptions { option, detail: detail.into() })
        };
        if self.batch_rows == 0 {
            return invalid("batch_rows", "batch windows must cover at least 1 row");
        }
        if self.morsel_rows == 0 {
            return invalid("morsel_rows", "morsels must cover at least 1 row");
        }
        match self.threads {
            Some(0) => {
                return invalid(
                    "threads",
                    "need at least 1 worker (use None for hardware parallelism)",
                )
            }
            Some(n) if n > MAX_THREADS => {
                return invalid(
                    "threads",
                    &format!("{n} workers exceed the bound of {MAX_THREADS}"),
                )
            }
            _ => {}
        }
        if self.time_budget == Some(std::time::Duration::ZERO) {
            return invalid(
                "time_budget",
                "a zero deadline can never be met (use None for no limit)",
            );
        }
        if self.mem_budget == Some(0) {
            return invalid(
                "mem_budget",
                "a zero byte budget admits no allocation (use None for no limit)",
            );
        }
        Ok(())
    }
}

/// Group-count threshold below which the second merge phase is not worth a
/// fork-join region (the serial fold touches each key once anyway).
const PARALLEL_MERGE_MIN_GROUPS: usize = 128;

/// Merged per-group totals, ordered by group-by key values.
type GroupMap = BTreeMap<Vec<Value>, GroupAcc>;

/// Scan every segment of `table` and its mutable region, returning merged
/// per-group totals keyed by the group-by values, plus execution stats and
/// the (possibly empty) query profile. One governor, built here at scan
/// admission, governs both.
pub fn scan_table(
    table: &Table,
    filter: Option<&ResolvedPredicate>,
    group_cols: &[(usize, LogicalType)],
    sum_exprs: &[ResolvedExpr],
    mm_exprs: &[ResolvedExpr],
    options: &ScanOptions,
) -> Result<(GroupMap, ExecStats, QueryProfile)> {
    options.validate()?;
    let governor = options.governor();
    let ctx = ScanCtx { filter, group_cols, sum_exprs, mm_exprs, options, governor: &governor };
    let mut profile = QueryProfile::new(options.profile);
    // The coordinator's record: the query-level stats every worker's record
    // merges into, and the spans of the phases that run on the calling
    // thread (the tail's encode, admission planning, the phase-2 merge).
    let mut coord = Tracer::new(options.profile, 0);

    // A query launched with an already-cancelled token fails before any
    // segment is planned — no partial result.
    governor.checkpoint(&mut coord.stats)?;

    let workers =
        if options.parallel { options.threads.unwrap_or_else(hardware_threads) } else { 1 };

    // The mutable region (§2.1: a small fraction of recent rows) is encoded
    // as a flush would encode it now and scanned as one more segment, with
    // the table ordinal after the last immutable one. It is the query's own
    // copy, so its bytes count against the memory budget.
    let tail = coord.timed(Phase::MutableTail, SpanLoc::none(), |coord| {
        let rows = table.mutable_rows();
        coord.stats.mutable_rows = rows.len();
        (rows.encode(), rows.len())
    });
    if let Some(seg) = &tail {
        MemScope::default().charge(&governor, seg.encoded_bytes())?;
    }

    // Admission planning runs once per segment, serially: metadata
    // (elimination, overflow proofs, mapper viability) plus at most one
    // sampled batch of the filter, and it lets errors surface
    // deterministically before any worker starts. The table segment ordinal
    // rides along as the id trace events carry.
    let planned = coord.timed(Phase::Plan, SpanLoc::none(), |coord| {
        let planned = plan_segments(table.segments().iter().chain(&tail), &ctx, workers, coord);
        (planned, coord.stats.rows_scanned)
    })?;

    let merged = if planned.is_empty() {
        BTreeMap::new()
    } else {
        scan_workers(&planned, workers, &ctx, &mut coord, &mut profile)?
    };
    coord.stats.mem_reserved_peak = governor.peak_reserved();
    let stats = profile.absorb(coord);
    Ok((merged, stats, profile))
}

/// A segment admitted by [`plan_segments`] and the whole program the scan
/// runs on it (DESIGN.md §20): what the query's filter compiled to, the row
/// window, and the sink with its one aggregation decision. Built once,
/// complete before any worker starts, immutable and shared by reference; a
/// visiting worker adds only scratch and accumulators ([`SegScan`]).
#[derive(Debug)]
struct PlannedSegment<'t> {
    /// Table segment ordinal (the id trace events carry).
    index: u32,
    seg: &'t Segment,
    /// The filter compiled against this segment (`None`: no filter).
    filter: Option<SegmentPredicate<'t>>,
    /// The rows the scan visits: the filter's row range rounded outward to
    /// the batch grid, so every worker count sees the same batch windows.
    /// No row outside is ever claimed.
    window: Range<usize>,
    sink: Sink<'t>,
}

/// Where a segment's batches go — decided at plan time and nowhere else.
#[derive(Debug)]
enum Sink<'t> {
    /// Run-wise (DESIGN.md §13): run spans folded value×length, no unpack.
    RunWise(RunWisePlan<'t>),
    /// The BIPie fast path: `u8` group ids, specialized kernels.
    Narrow(Box<NarrowPlan<'t>>),
    /// Wide-group fallback. The mapper is the *empty* template each visiting
    /// worker clones: interning group keys is per-worker state.
    Wide(WideMapper<'t>),
}

/// The narrow sink's plan: what a worker builds its executor from. The
/// mapper is shared as is (`extract_batch` takes `&self`).
#[derive(Debug)]
struct NarrowPlan<'t> {
    mapper: NarrowMapper<'t>,
    inputs: Vec<AggInput<'t>>,
    mm_inputs: Vec<AggInput<'t>>,
    /// How those inputs reach the kernels on this segment (DESIGN.md §17).
    lane_plan: LanePlan<'t>,
    /// The bit width driving the gather/compact crossover: widest packed
    /// aggregate input, else the group-code width.
    dominant_bits: u8,
    /// The segment's aggregation strategy (§3: per segment, at run time).
    strategy: AggStrategy,
    /// What a worker charges before building its state: the batch-sized
    /// group ids, unpack scratch and selection bytes, plus the executor's
    /// projected working set under `strategy`.
    footprint: usize,
}

/// The run-wise sink's plan: the bare RLE columns behind the aggregates.
#[derive(Debug)]
struct RunWisePlan<'t> {
    sum_cols: Vec<&'t RleColumn>,
    mm_cols: Vec<&'t RleColumn>,
    /// Worst (largest) runs/rows ratio over every RLE column the scan
    /// touches — the cost model's work proxy for the run-wise path.
    runs_fraction: f64,
}

/// Admission planning for [`scan_table`]: walk the segments once, in table
/// order, compiling the filter against each, skipping empty and
/// filter-eliminated ones, proving overflow/min-max safety, and planning
/// each admitted segment's sink ([`plan_sink`]).
fn plan_segments<'t>(
    segments: impl Iterator<Item = &'t Segment>,
    ctx: &ScanCtx<'_>,
    workers: usize,
    coord: &mut Tracer,
) -> Result<Vec<PlannedSegment<'t>>> {
    let ScanCtx { filter, sum_exprs, mm_exprs, governor, options, .. } = *ctx;
    // Every worker that visits a segment charges the same footprint, so the
    // budget ladder is walked against an even share. Nothing is reserved
    // until the workers start, so one reading serves every segment.
    let headroom = governor.remaining().map(|bytes| bytes / workers);
    let mut planned: Vec<PlannedSegment<'t>> = Vec::new();
    for (seg_index, seg) in segments.enumerate() {
        if seg.num_rows() == 0 || seg.live_rows() == 0 {
            continue;
        }
        let filter = filter.map(|f| f.compile(seg));
        if filter.as_ref().is_some_and(SegmentPredicate::eliminated) {
            coord.stats.segments_eliminated += 1;
            continue;
        }
        check_overflow(seg, sum_exprs)?;
        check_minmax_range(seg, sum_exprs.len(), mm_exprs)?;
        // The plan-time checkpoint: planning a sink may evaluate one batch.
        governor.checkpoint(&mut coord.stats)?;
        let rows = filter.as_ref().map_or(0..seg.num_rows(), SegmentPredicate::row_range);
        let batch_rows = options.batch_rows;
        let window = rows.start / batch_rows * batch_rows
            ..rows.end.next_multiple_of(batch_rows).min(seg.num_rows());
        let index = seg_index as u32;
        let sink = plan_sink(index, seg, filter.as_ref(), &window, ctx, headroom, coord)?;
        let visited = window.len() - seg.deleted().deleted_in(window.start, window.end);
        let stats = &mut coord.stats;
        stats.segments_scanned += 1;
        stats.rows_scanned += visited;
        stats.rows_pruned += seg.live_rows() - visited;
        stats.bytes_scanned += seg.encoded_bytes();
        planned.push(PlannedSegment { index, seg, filter, window, sink });
    }
    Ok(planned)
}

/// Plan one admitted segment's sink and make its one aggregation decision,
/// logged on the coordinator's record. Everything the decision rests on is
/// a function of (segment, query, options, worker count) — never of which
/// worker claimed which morsel first.
fn plan_sink<'t>(
    index: u32,
    seg: &'t Segment,
    filter: Option<&SegmentPredicate<'t>>,
    window: &Range<usize>,
    ctx: &ScanCtx<'_>,
    headroom: Option<usize>,
    coord: &mut Tracer,
) -> Result<Sink<'t>> {
    let ScanCtx { group_cols, sum_exprs, mm_exprs, governor, options, .. } = *ctx;
    let mapper = match plan_segment_mapper(seg, group_cols)? {
        SegmentGroupMapper::Narrow(mapper) => mapper,
        SegmentGroupMapper::Wide(mapper) => {
            coord.stats.wide_group_segments += 1;
            // The wide path cannot degrade (its group domain is structurally
            // too wide for the narrow accumulators — the budgeted strategy
            // ladder only applies on the narrow path), so a budget that its
            // projected hash table cannot fit fails here, at plan time.
            if governor.accounts_memory() {
                coord.stats.governor_checks += 1;
                governor.admit_projection(projected_wide_bytes(
                    seg,
                    group_cols,
                    sum_exprs.len(),
                    mm_exprs.len(),
                ))?;
            }
            // The wide-group path is structural (group domain too wide for
            // u8 ids), not a cost-model outcome: `forced` is false, and no
            // group has been interned yet.
            let params = AggChoiceParams {
                num_groups_effective: mapper.num_groups(),
                num_sums: sum_exprs.len(),
                input_bytes: Vec::new(),
                all_packed_narrow: false,
                multi_layout_fits: false,
                est_selectivity: 1.0,
                runwise_runs_fraction: None,
            };
            coord.decision_agg(index, &params, mm_exprs.len(), AggStrategy::Scalar, false);
            return Ok(Sink::Wide(mapper));
        }
    };

    let plan_input = |e: &ResolvedExpr| AggInput::plan(seg, e);
    let inputs: Vec<AggInput<'t>> = sum_exprs.iter().map(plan_input).collect();
    let mm_inputs: Vec<AggInput<'t>> = mm_exprs.iter().map(plan_input).collect();
    let lane_plan = LanePlan::build(seg, &inputs, &mm_inputs);
    let dominant_bits = inputs
        .iter()
        .filter_map(|i| match i {
            AggInput::Packed(c) => Some(c.bits()),
            AggInput::Computed(_) => None,
        })
        .max()
        .unwrap_or_else(|| mapper.code_bits());

    let runwise = plan_runwise(seg, filter, ctx);
    let params = AggChoiceParams {
        num_groups_effective: mapper.num_groups() + 1,
        num_sums: inputs.len(),
        input_bytes: lane_plan.input_bytes().to_vec(),
        all_packed_narrow: !inputs.is_empty() && inputs.iter().all(AggInput::sortable_packed),
        multi_layout_fits: lane_plan.multi_layout_fits(),
        est_selectivity: estimate_selectivity(seg, filter, window, options),
        runwise_runs_fraction: runwise.as_ref().map(|r| r.runs_fraction),
    };
    // A worker's working set under `s`: batch-sized group ids, unpack scratch
    // and selection bytes, then the executor. Run-wise keeps a few scalars
    // and a span per run crossing the batch — any budget admits it.
    let (groups, batch_rows) = (mapper.num_groups(), options.batch_rows);
    let footprint = |s: AggStrategy| match s {
        AggStrategy::RunWise => 0,
        s => {
            3 * batch_rows
                + SegmentAggExecutor::projected_bytes(s, groups, &lane_plan, &mm_inputs, batch_rows)
        }
    };
    // Run-wise aggregation needs the run-wise plan (bare RLE columns);
    // forcing it on an ineligible segment reverts to the chooser, which
    // never picks it there because `runwise_runs_fraction` is unset.
    let forced_agg = options.forced_agg.filter(|&s| s != AggStrategy::RunWise || runwise.is_some());
    // With a memory budget, the chooser degrades along the sort-based →
    // scalar ladder when the winner's projected working set would not fit a
    // worker's share (DESIGN.md §10); the outcome is logged as a normal
    // decision event.
    let strategy = forced_agg
        .unwrap_or_else(|| StrategyConfig.choose_agg_budgeted(&params, headroom, &footprint));
    coord.decision_agg(index, &params, mm_exprs.len(), strategy, forced_agg.is_some());
    let footprint = footprint(strategy);
    match runwise {
        Some(plan) if strategy == AggStrategy::RunWise => Ok(Sink::RunWise(plan)),
        _ => {
            coord.stats.record_expr_path(lane_plan.expr_path());
            Ok(Sink::Narrow(Box::new(NarrowPlan {
                mapper,
                inputs,
                mm_inputs,
                lane_plan,
                dominant_bits,
                strategy,
                footprint,
            })))
        }
    }
}

/// The RLE column behind `e` when `e` is a bare reference to one.
fn bare_rle<'a>(seg: &'a Segment, e: &ResolvedExpr) -> Option<&'a RleColumn> {
    match seg.column(e.as_bare_column()?) {
        EncodedColumn::Rle(r) => Some(r),
        _ => None,
    }
}

/// Structural eligibility for the run-wise path (DESIGN.md §13): ungrouped,
/// no deleted rows, every aggregate a bare RLE column, and the filter (if
/// any) answerable run-wise. The chooser still decides whether to take it.
/// Forcing any *other* strategy disables it up front so forced experiments
/// exercise exactly the strategy they name.
fn plan_runwise<'t>(
    seg: &'t Segment,
    filter: Option<&SegmentPredicate<'t>>,
    ctx: &ScanCtx<'_>,
) -> Option<RunWisePlan<'t>> {
    let options = ctx.options;
    if !ctx.group_cols.is_empty()
        || !seg.deleted().none_deleted()
        || options.forced_selection.is_some_and(|s| s != SelectionStrategy::RunSpan)
        || options.forced_agg.is_some_and(|s| s != AggStrategy::RunWise)
    {
        return None;
    }
    let sum_cols: Vec<&RleColumn> =
        ctx.sum_exprs.iter().map(|e| bare_rle(seg, e)).collect::<Option<_>>()?;
    let mm_cols: Vec<&RleColumn> =
        ctx.mm_exprs.iter().map(|e| bare_rle(seg, e)).collect::<Option<_>>()?;
    let rows = seg.num_rows().max(1) as f64;
    let mut runs_fraction: f64 = 0.0;
    for c in sum_cols.iter().chain(&mm_cols) {
        runs_fraction = runs_fraction.max(c.run_values().len() as f64 / rows);
    }
    if let Some(f) = filter {
        runs_fraction = runs_fraction.max(f.span_runs_fraction()?);
    }
    Some(RunWisePlan { sum_cols, mm_cols, runs_fraction })
}

/// The chooser's selectivity estimate for one segment. Known without
/// looking when no deleted row meets no filter, or one that compiled to a
/// row range alone: every row the scan visits is selected, whatever a
/// clipped boundary batch of the range would suggest. Otherwise it is the
/// selected fraction of the *window's* first batch — the batch a one-worker
/// scan meets first — evaluated once, here, so every worker adopts the same
/// answer. The sample records no span and counts no batch: the scan
/// evaluates that batch again when a worker gets to it.
fn estimate_selectivity(
    seg: &Segment,
    filter: Option<&SegmentPredicate<'_>>,
    window: &Range<usize>,
    options: &ScanOptions,
) -> f64 {
    if seg.deleted().none_deleted() && filter.is_none_or(SegmentPredicate::range_only) {
        return 1.0;
    }
    let (len, level) = (window.len().min(options.batch_rows), options.level);
    let mut select = ByteSelect::default();
    selected_fraction(select.eval(seg, filter, window.start, len, level), len, level)
}

/// The resolved plan of one query and the governor it runs under: everything
/// a worker needs to scan a segment.
#[derive(Clone, Copy)]
struct ScanCtx<'a> {
    filter: Option<&'a ResolvedPredicate>,
    group_cols: &'a [(usize, LogicalType)],
    sum_exprs: &'a [ResolvedExpr],
    mm_exprs: &'a [ResolvedExpr],
    options: &'a ScanOptions,
    governor: &'a Governor,
}

/// What one worker leaves behind at the join: its record (counters and
/// trace events) and its groups, pre-partitioned by group-key hash.
#[derive(Default)]
struct WorkerSlot {
    tracer: Option<Tracer>,
    parts: Vec<GroupMap>,
}

/// The scan driver: `workers` pool workers claim morsels and aggregate
/// (phase 1), then the hash partitions are reduced (phase 2). With one
/// worker the pool runs the region inline on the caller — no queue, no
/// lock — and phase 2 vanishes: the worker's single partition is the
/// answer. Panics in a worker become [`EngineError::WorkerPanicked`].
#[expect(clippy::disallowed_types, reason = "builds the per-worker result slots")]
fn scan_workers(
    planned: &[PlannedSegment<'_>],
    workers: usize,
    ctx: &ScanCtx<'_>,
    coord: &mut Tracer,
    profile: &mut QueryProfile,
) -> Result<GroupMap> {
    let batch_rows = ctx.options.batch_rows;
    // Morsels are whole batch windows so every worker count sees the same
    // batch grid.
    let morsel_rows = ctx.options.morsel_rows.div_ceil(batch_rows).max(1) * batch_rows;
    let sched = MorselScheduler::new(planned, morsel_rows, ctx.governor);

    // Phase 1. Each worker owns a private record for the duration (no
    // shared state in the hot loop) and parks it, with its partitioned
    // groups, in its slot at the end. The first failure wins the error
    // sink and closes the scheduler, which drains every remaining claim so
    // siblings park within one morsel too. The pool joins normally —
    // nothing is poisoned.
    let slots: Vec<Mutex<WorkerSlot>> = (0..workers).map(|_| Mutex::default()).collect();
    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let pool = WorkerPool::global();
    let report = pool
        .run_tagged(ctx.options.tag, workers, &|w| {
            let mut tracer = Tracer::new(ctx.options.profile, w as u32);
            match worker_scan(w, workers, planned, &sched, ctx, &mut tracer) {
                // LOCK: own slot `w`; temp guard dies at `;`.
                Ok(parts) => *lock(&slots[w]) = WorkerSlot { tracer: Some(tracer), parts },
                Err(e) => {
                    // LOCK: `first_error` leaf; temp guard dies at `;`.
                    lock(&first_error).get_or_insert(e);
                    sched.close();
                }
            }
        })
        .map_err(|payload| EngineError::WorkerPanicked { detail: panic_message(&payload) })?;
    // LOCK: `first_error` leaf, read after the pool join; dies at `;`.
    if let Some(e) = lock(&first_error).take() {
        return Err(e);
    }
    let mut total_groups: usize = 0;
    for slot in &slots {
        // LOCK: worker slot read after the join; one guard at a time.
        let mut slot = lock(slot);
        if let Some(tracer) = slot.tracer.take() {
            coord.stats.merge(&profile.absorb(tracer));
        }
        total_groups += slot.parts.iter().map(BTreeMap::len).sum::<usize>();
    }
    coord.stats.pool_workers = workers;
    coord.stats.pool_reuses += report.reused_pool as usize;
    if workers == 1 {
        // LOCK: the only slot, after the join; temp guard dies at `;`.
        return Ok(lock(&slots[0]).parts.pop().unwrap_or_default());
    }

    // Phase 2: reduce the hash partitions. Each partition's keys appear in
    // at most `workers` maps; partitions are disjoint, so they merge in
    // parallel without locks on the hot path and concatenate ordered.
    coord.timed(Phase::ParallelMerge, SpanLoc::none(), |coord| {
        (merge_worker_parts(pool, ctx, &slots, total_groups, &mut coord.stats), total_groups)
    })
}

/// Phase 1 on worker `w`: claim morsels until the scheduler runs dry,
/// scanning each into the current segment's state, and return this worker's
/// groups partitioned by group-key hash (one partition when alone). A
/// worker leaves a segment only once its cursor is drained, so it holds one
/// segment state at a time and folds it away when the claims move on.
fn worker_scan<'a>(
    w: usize,
    workers: usize,
    planned: &'a [PlannedSegment<'a>],
    sched: &MorselScheduler,
    ctx: &ScanCtx<'a>,
    tracer: &mut Tracer,
) -> Result<Vec<GroupMap>> {
    let mut parts: Vec<GroupMap> = (0..workers).map(|_| BTreeMap::new()).collect();
    let mut fold = |scan: SegScan<'a>| {
        for (key, acc) in scan.finish() {
            let p = if workers == 1 { 0 } else { (key_hash(&key) % workers as u64) as usize };
            merge_one(&mut parts[p], key, acc);
        }
    };
    let mut current: Option<(usize, SegScan<'a>)> = None;
    let mut last: Option<usize> = None;
    while let Some(claim) = sched.claim(w, workers, &mut last, &mut tracer.stats)? {
        tracer.stats.morsels_scanned += 1;
        tracer.stats.morsel_steals += claim.stolen as usize;
        let scan = match &mut current {
            Some((seg, scan)) if *seg == claim.seg => scan,
            _ => {
                if let Some((_, done)) = current.take() {
                    fold(done);
                }
                let scan = SegScan::new(&planned[claim.seg], ctx)?;
                &mut current.insert((claim.seg, scan)).1
            }
        };
        scan.process_range(claim.range, claim.morsel as u32, claim.stolen, tracer)?;
    }
    if let Some((_, done)) = current {
        fold(done);
    }
    Ok(parts)
}

/// Phase 2 of [`scan_workers`]: fold the workers' hash-partitioned maps
/// into one ordered result — serially below
/// [`PARALLEL_MERGE_MIN_GROUPS`], else one fork-join region with a worker
/// per partition.
#[expect(clippy::disallowed_types, reason = "drains the result slots into locked partitions")]
fn merge_worker_parts(
    pool: &WorkerPool,
    ctx: &ScanCtx<'_>,
    slots: &[Mutex<WorkerSlot>],
    total_groups: usize,
    stats: &mut ExecStats,
) -> Result<GroupMap> {
    let mut merged: GroupMap = BTreeMap::new();
    if total_groups < PARALLEL_MERGE_MIN_GROUPS {
        for slot in slots {
            // LOCK: serial drain after the join; one slot guard at a time.
            for part in lock(slot).parts.drain(..) {
                merge_groups(&mut merged, part);
            }
        }
    } else {
        let merged_parts: Vec<Mutex<GroupMap>> =
            (0..slots.len()).map(|_| Mutex::new(BTreeMap::new())).collect();
        let report = pool
            .run_tagged(ctx.options.tag, slots.len(), &|p| {
                let mut out: GroupMap = BTreeMap::new();
                for slot in slots {
                    // LOCK: slot guard dropped before merging, so at most
                    // one lock is ever held by a merge worker.
                    let mut guard = lock(slot);
                    if let Some(part) = guard.parts.get_mut(p) {
                        let part = std::mem::take(part);
                        drop(guard);
                        merge_groups(&mut out, part);
                    }
                }
                *lock(&merged_parts[p]) = out; // LOCK: own partition `p`; dies at `;`.
            })
            .map_err(|payload| EngineError::WorkerPanicked { detail: panic_message(&payload) })?;
        stats.pool_reuses += report.reused_pool as usize;
        for mp in merged_parts {
            merged.extend(mp.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
    }
    Ok(merged)
}

/// Deterministic (fixed-key SipHash) hash of a group key, used only to
/// partition the parallel merge.
fn key_hash(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Fold finished per-segment groups into a result map, moving keys and
/// accumulators (no clones, no zero-filled identity accumulators).
fn merge_groups(map: &mut GroupMap, groups: impl IntoIterator<Item = (Vec<Value>, GroupAcc)>) {
    for (key, acc) in groups {
        merge_one(map, key, acc);
    }
}

fn merge_one(map: &mut GroupMap, key: Vec<Value>, acc: GroupAcc) {
    match map.entry(key) {
        std::collections::btree_map::Entry::Vacant(v) => {
            v.insert(acc);
        }
        std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().absorb(&acc),
    }
}

/// One claimed unit of work.
struct Claim {
    seg: usize,
    /// Morsel ordinal within the segment (stable across runs; trace id).
    morsel: usize,
    range: Batch,
    stolen: bool,
}

/// Skew-proof morsel scheduler. Every worker owns a contiguous *home*
/// partition of the segment list (locality and executor reuse); when the
/// home partition runs dry the worker steals morsels from the victim with
/// the most unclaimed rows, so a hot segment — or a table with fewer
/// segments than workers — is split across everyone.
struct MorselScheduler<'g> {
    cursors: Vec<MorselCursor>,
    governor: &'g Governor,
}

impl<'g> MorselScheduler<'g> {
    fn new(
        segments: &[PlannedSegment<'_>],
        morsel_rows: usize,
        governor: &'g Governor,
    ) -> MorselScheduler<'g> {
        MorselScheduler {
            cursors: segments
                .iter()
                .map(|p| MorselCursor::with_range(p.window.start, p.window.end, morsel_rows))
                .collect(),
            governor,
        }
    }

    /// Claim `worker`'s next morsel, handed out behind the governor's
    /// checkpoint: a tripped governor stops the worker within one morsel's
    /// worth of work, and no claim loop can skip the check. `Ok(None)` once
    /// every morsel is claimed.
    fn claim(
        &self,
        worker: usize,
        workers: usize,
        last: &mut Option<usize>,
        stats: &mut ExecStats,
    ) -> Result<Option<Claim>> {
        let claim = self.next_claim(worker, workers, last);
        if claim.is_some() {
            self.governor.checkpoint(stats)?;
        }
        Ok(claim)
    }

    fn next_claim(&self, worker: usize, workers: usize, last: &mut Option<usize>) -> Option<Claim> {
        let n = self.cursors.len();
        let home_lo = worker * n / workers;
        let home_hi = (worker + 1) * n / workers;
        let in_home = |s: usize| s >= home_lo && s < home_hi;
        // Affinity: keep draining the segment of the previous claim.
        if let Some(s) = *last {
            if let Some((morsel, range)) = self.cursors[s].claim_indexed() {
                return Some(Claim { seg: s, morsel, range, stolen: !in_home(s) });
            }
        }
        for s in home_lo..home_hi {
            if let Some((morsel, range)) = self.cursors[s].claim_indexed() {
                *last = Some(s);
                return Some(Claim { seg: s, morsel, range, stolen: false });
            }
        }
        loop {
            let victim = (0..n)
                .filter(|&s| !in_home(s))
                .max_by_key(|&s| self.cursors[s].remaining())
                .filter(|&s| self.cursors[s].remaining() > 0)?;
            if let Some((morsel, range)) = self.cursors[victim].claim_indexed() {
                *last = Some(victim);
                return Some(Claim { seg: victim, morsel, range, stolen: true });
            }
            // Raced another thief to the last morsel; look again.
        }
    }

    /// Drain every remaining claim (error / governor stop broadcast): after
    /// this, all workers' next `claim` returns `None`, so siblings of a
    /// failed worker park within one morsel even between their own checks.
    fn close(&self) {
        for c in &self.cursors {
            c.close();
        }
    }
}

/// Resumable scan state for one segment on one worker: the segment's
/// program by reference, plus what only a worker can own — its slice of the
/// memory budget, accumulators and scratch buffers — reused across the
/// morsels it claims from the segment.
struct SegScan<'a> {
    planned: &'a PlannedSegment<'a>,
    ctx: ScanCtx<'a>,
    /// This worker-segment state's slice of the memory budget (per-worker
    /// slack keeps per-batch charges off the governor's shared counter).
    mem: MemScope,
    kind: SegScanKind<'a>,
}

// Boxed: each state (executor, scratch) is several hundred bytes inline. A
// multi-aggregate executor adds its row builder, ≈ 46 KiB in a box of its
// own, on its first batch (`SegmentAggExecutor::projected_bytes` counts it).
enum SegScanKind<'a> {
    RunWise(Box<RunWiseScan<'a>>),
    Narrow(Box<NarrowScan<'a>>),
    Wide(Box<WideScan<'a>>),
}

impl<'a> SegScan<'a> {
    /// Build this worker's state for the segment's sink, charging its
    /// working set before anything grows: a budget that cannot fit surfaces
    /// as the typed error instead of an allocation.
    fn new(planned: &'a PlannedSegment<'a>, ctx: &ScanCtx<'a>) -> Result<SegScan<'a>> {
        let mut mem = MemScope::default();
        let batch_rows = ctx.options.batch_rows;
        let kind = match &planned.sink {
            Sink::RunWise(plan) => {
                // The batch's spans and the filter's two intersection
                // temporaries, at one 8-byte span per run crossing a batch.
                let runs = (plan.runs_fraction * batch_rows as f64).ceil() as usize + 1;
                mem.charge(ctx.governor, 3 * 8 * runs)?;
                SegScanKind::RunWise(Box::new(RunWiseScan {
                    exec: RunWiseExec::new(plan.sum_cols.clone(), plan.mm_cols.clone()),
                    span_buf: RunSpanVec::new(),
                    fscratch: FilterScratch::default(),
                }))
            }
            Sink::Narrow(plan) => {
                mem.charge(ctx.governor, plan.footprint)?;
                // Batch buffers first, at full size, accumulators after: the
                // heap order the lazy path had. The kernels stream several
                // 4 KiB buffers whose relative placement the allocator
                // decides; accumulators-first measured `filter_sweep` 8–18 %
                // slower (0 of 12 pairs), this order at parity.
                let gids = Vec::with_capacity(batch_rows);
                let gid_scratch = Vec::with_capacity(batch_rows);
                let sel_buf = Vec::with_capacity(batch_rows);
                let exec = SegmentAggExecutor::with_min_max(
                    plan.strategy,
                    plan.mapper.num_groups(),
                    plan.inputs.clone(),
                    plan.mm_inputs.clone(),
                    Some(plan.lane_plan.clone()),
                    ctx.options.level,
                );
                let select = ByteSelect { sel_buf, fscratch: FilterScratch::default() };
                SegScanKind::Narrow(Box::new(NarrowScan { plan, exec, gids, gid_scratch, select }))
            }
            Sink::Wide(mapper) => {
                // u32 group ids + selection bytes + i64 buffers for the
                // group-key scratch, per-column decode caches, and
                // expression results.
                let exprs = ctx.sum_exprs.len() + ctx.mm_exprs.len();
                let per_row = 4 + 1 + 8 * (ctx.group_cols.len() + 2 * exprs);
                mem.charge(ctx.governor, batch_rows * per_row)?;
                SegScanKind::Wide(Box::new(WideScan::new(mapper.clone(), ctx)))
            }
        };
        Ok(SegScan { planned, ctx: *ctx, mem, kind })
    }

    /// Scan the row window `range` (one morsel) in batch windows.
    /// `range.start` must lie on the segment's batch grid so every worker
    /// count agrees on window boundaries. One [`Phase::SegmentScan`] span
    /// covers the range.
    fn process_range(
        &mut self,
        range: Batch,
        morsel: u32,
        stolen: bool,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let batch_rows = self.ctx.options.batch_rows;
        debug_assert_eq!(range.start % batch_rows, 0, "morsel start must be batch-aligned");
        let segment = self.planned.index;
        let mut scan = |tracer: &mut Tracer| -> Result<()> {
            let mut batches = self.ctx.governor.batches(range.len, batch_rows);
            while let Some(b) = batches.next(&mut tracer.stats)? {
                let at = BatchAt { segment, morsel, start: range.start + b.start, len: b.len };
                match &mut self.kind {
                    SegScanKind::RunWise(r) => r.process_batch(self.planned, &self.ctx, at, tracer),
                    SegScanKind::Narrow(n) => n.process_batch(self.planned, &self.ctx, at, tracer),
                    SegScanKind::Wide(w) => {
                        w.process_batch(self.planned, &self.ctx, at, &mut self.mem, tracer)?
                    }
                }
            }
            Ok(())
        };
        let loc = SpanLoc::at(segment, morsel).with_stolen(stolen);
        tracer.timed(Phase::SegmentScan, loc, |tracer| (scan(tracer), range.len))
    }

    /// Tear down into per-group results.
    fn finish(self) -> Vec<(Vec<Value>, GroupAcc)> {
        match self.kind {
            // Ungrouped: the one group's key is empty.
            SegScanKind::RunWise(r) => keyed_groups(r.exec.finish(), |_| Vec::new()),
            SegScanKind::Narrow(n) => keyed_groups(n.exec.finish(), |g| n.plan.mapper.group_key(g)),
            SegScanKind::Wide(w) => keyed_groups(w.acc, |g| w.mapper.group_key(g)),
        }
    }
}

/// The value range of `expr` over the segment, from column metadata.
fn meta_range(seg: &Segment, expr: &ResolvedExpr) -> (i128, i128) {
    expr.value_range(&|col| {
        let m = seg.meta(col);
        (m.min, m.max)
    })
}

/// Metadata-driven overflow proof (§2.1): every sum over the segment must
/// fit `i64`.
fn check_overflow(seg: &Segment, sum_exprs: &[ResolvedExpr]) -> Result<()> {
    let rows = seg.num_rows() as i128;
    for (i, expr) in sum_exprs.iter().enumerate() {
        let (lo, hi) = meta_range(seg, expr);
        let bound = lo.abs().max(hi.abs());
        if bound.saturating_mul(rows) > i64::MAX as i128 {
            return Err(EngineError::PotentialOverflow { aggregate: i });
        }
    }
    Ok(())
}

/// MIN/MAX never accumulate, but the expression itself must fit `i64`.
fn check_minmax_range(seg: &Segment, num_sums: usize, mm_exprs: &[ResolvedExpr]) -> Result<()> {
    for (i, expr) in mm_exprs.iter().enumerate() {
        let (lo, hi) = meta_range(seg, expr);
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            return Err(EngineError::PotentialOverflow { aggregate: num_sums + i });
        }
    }
    Ok(())
}

/// Heap header of a `Vec<i64>` group key (pointer/len/cap words).
const VEC_HEADER_BYTES: usize = 24;
/// Estimated per-entry overhead of the wide path's interning hash map.
const MAP_ENTRY_BYTES: usize = 48;

/// Per-group heap cost of the wide path: the interned key tuple is stored
/// twice (hash-map key and the id→key table) plus map-entry overhead, and
/// each group owns one count slot, one slot per sum, and min+max slots per
/// MIN/MAX aggregate. A deliberate estimate (DESIGN.md §10): allocator slop
/// and map load factor are ignored.
fn wide_group_bytes(key_cols: usize, num_sums: usize, num_mm: usize) -> usize {
    2 * (VEC_HEADER_BYTES + 8 * key_cols) + MAP_ENTRY_BYTES + 8 * (1 + num_sums + 2 * num_mm)
}

/// Plan-time upper bound on a wide segment's hash-table footprint: the
/// product of per-column domain estimates (dictionary sizes, bit-packed
/// metadata ranges; live rows when a column's domain is unbounded), capped
/// at the segment's live rows, times [`wide_group_bytes`].
fn projected_wide_bytes(
    seg: &Segment,
    group_cols: &[(usize, LogicalType)],
    num_sums: usize,
    num_mm: usize,
) -> usize {
    let mut groups = 1usize;
    for &(idx, _) in group_cols {
        let card = match seg.column(idx) {
            EncodedColumn::StrDict(d) => d.dict().len(),
            EncodedColumn::IntDict(d) => d.dict().len(),
            EncodedColumn::BitPack(_) => {
                usize::try_from(seg.meta(idx).range()).unwrap_or(usize::MAX).saturating_add(1)
            }
            _ => seg.live_rows(),
        };
        groups = groups.saturating_mul(card.max(1));
    }
    groups = groups.min(seg.live_rows());
    groups.saturating_mul(wide_group_bytes(group_cols.len(), num_sums, num_mm))
}

/// The byte-mask selection step of the narrow and wide batch paths (and of
/// the plan-time sample): filter evaluation merged with deleted-row
/// information into one selection byte per row.
#[derive(Default)]
struct ByteSelect {
    sel_buf: Vec<u8>,
    fscratch: FilterScratch,
}

impl ByteSelect {
    /// The batch's selection bytes; `None` when every row is selected: no
    /// deleted row, and no filter or one that compiled to nothing this
    /// batch has to evaluate.
    fn eval(
        &mut self,
        seg: &Segment,
        filter: Option<&SegmentPredicate<'_>>,
        start: usize,
        len: usize,
        level: SimdLevel,
    ) -> Option<&[u8]> {
        let deleted = seg.deleted();
        self.sel_buf.resize(len, 0xFF);
        let filtered = filter.is_some_and(|f| {
            // The kernels write every byte; no prefill needed.
            f.eval_batch(start, &mut self.sel_buf, &mut self.fscratch, level)
        });
        if !filtered {
            if deleted.none_deleted() {
                return None;
            }
            self.sel_buf.fill(0xFF);
        }
        deleted.mask_batch(start, &mut self.sel_buf);
        Some(&self.sel_buf)
    }
}

/// The fraction of a batch its selection bytes keep.
fn selected_fraction(sel: Option<&[u8]>, rows: usize, level: SimdLevel) -> f64 {
    match sel {
        Some(s) => count_selected(s, level) as f64 / rows.max(1) as f64,
        None => 1.0,
    }
}

/// Per-group accumulator columns (layout `[input][group]`) as keyed
/// results, empty groups dropped.
fn keyed_groups(
    result: SegmentAggResult,
    key_of: impl Fn(usize) -> Vec<Value>,
) -> Vec<(Vec<Value>, GroupAcc)> {
    (0..result.counts.len())
        .filter(|&g| result.counts[g] > 0)
        .map(|g| {
            (
                key_of(g),
                GroupAcc {
                    count: result.counts[g],
                    sums: result.sums.iter().map(|s| s[g]).collect(),
                    mins: result.mins.iter().map(|m| m[g]).collect(),
                    maxs: result.maxs.iter().map(|m| m[g]).collect(),
                },
            )
        })
        .collect()
}

/// A worker's state on a run-wise segment: the executor that consumes run
/// spans without unpacking, and the span buffers.
struct RunWiseScan<'a> {
    exec: RunWiseExec<'a>,
    span_buf: RunSpanVec,
    fscratch: FilterScratch,
}

impl RunWiseScan<'_> {
    /// Process one batch run-wise: predicate evaluated run-at-a-time into
    /// spans, aggregates folded value×length — no gid unpack, no per-row
    /// selection bytes.
    fn process_batch(
        &mut self,
        planned: &PlannedSegment<'_>,
        ctx: &ScanCtx<'_>,
        at: BatchAt,
        tracer: &mut Tracer,
    ) {
        let chosen = SelectionStrategy::RunSpan;
        let forced = ctx.options.forced_selection.is_some();
        tracer.selection(at, || {
            match &planned.filter {
                Some(f) => {
                    f.eval_batch_spans(at.start, at.len, &mut self.span_buf, &mut self.fscratch)
                }
                None => self.span_buf.set_full(at.len),
            }
            let selectivity = self.span_buf.selected_rows() as f64 / at.len.max(1) as f64;
            // Width 1: no packed input and no group code for a crossover to see.
            ((), SelectionPick { bits: 1, selectivity, chosen, forced })
        });
        let loc = at.loc().with_selection(chosen).with_agg(AggStrategy::RunWise);
        tracer.timed(Phase::Aggregation, loc, |_| {
            (self.exec.process_spans(at.start, &self.span_buf), at.len)
        });
    }
}

/// A worker's state on a narrow segment: its accumulators (the executor)
/// and batch scratch, over the shared plan.
struct NarrowScan<'a> {
    plan: &'a NarrowPlan<'a>,
    exec: SegmentAggExecutor<'a>,
    gids: Vec<u8>,
    gid_scratch: Vec<u8>,
    select: ByteSelect,
}

impl<'a> NarrowScan<'a> {
    fn process_batch(
        &mut self,
        planned: &'a PlannedSegment<'a>,
        ctx: &ScanCtx<'a>,
        at: BatchAt,
        tracer: &mut Tracer,
    ) {
        let options = ctx.options;
        let level = options.level;
        let bits = self.plan.dominant_bits;

        // An executor that reads no group ids gets none: no Unpack phase.
        let plan = self.plan;
        let group_ids =
            needs_group_ids(plan.strategy, plan.mapper.num_groups(), plan.mm_inputs.len());
        if group_ids {
            tracer.timed(Phase::Unpack, at.loc(), |_| {
                let (gids, scratch) = (&mut self.gids, &mut self.gid_scratch);
                (plan.mapper.extract_batch(at.start, at.len, gids, scratch, level), at.len)
            });
        }

        // Filter + deleted-row merge -> selection byte vector, plus the
        // selectivity measurement that drives the per-batch choice.
        let (sel, selection) = tracer.selection(at, || {
            let filter = planned.filter.as_ref();
            let sel = self.select.eval(planned.seg, filter, at.start, at.len, level);
            let selectivity = selected_fraction(sel, at.len, level);
            // Run-span selection has no dense byte-mask form, so forcing it
            // on a segment that does not run run-wise falls back to the
            // chooser.
            let forced = options.forced_selection.filter(|&s| s != SelectionStrategy::RunSpan);
            let chosen =
                forced.unwrap_or_else(|| StrategyConfig.choose_selection(selectivity, bits));
            ((sel, chosen), SelectionPick { bits, selectivity, chosen, forced: forced.is_some() })
        });

        let loc = at.loc().with_selection(selection).with_agg(self.plan.strategy);
        tracer.timed(Phase::Aggregation, loc, |_| {
            let gids: &mut [u8] = if group_ids { &mut self.gids } else { &mut [] };
            (self.exec.process_batch(planned.seg, at.start, at.len, gids, sel, selection), at.len)
        });
    }
}

/// Wide-group fallback: u32 group ids, scalar row loop.
struct WideScan<'a> {
    mapper: WideMapper<'a>,
    /// Accumulator columns, grown as the mapper interns new groups.
    acc: SegmentAggResult,
    gids: Vec<u32>,
    key_scratch: Vec<Vec<i64>>,
    select: ByteSelect,
    /// One decode buffer per distinct column the expressions read (fixed
    /// per segment), refilled every batch.
    col_cache: Vec<(usize, Vec<i64>)>,
    /// Combined expression list: sums first, then MIN/MAX (the CSE
    /// compilation order of `resolve_many`).
    all_exprs: Vec<&'a ResolvedExpr>,
    num_sums: usize,
    expr_vals: Vec<Vec<i64>>,
    expr_scratch: crate::expr::ExprScratch,
    /// Group count already charged to the memory accountant; each batch
    /// charges the interning delta at [`wide_group_bytes`] per group.
    charged_groups: usize,
}

impl<'a> WideScan<'a> {
    fn new(mapper: WideMapper<'a>, ctx: &ScanCtx<'a>) -> WideScan<'a> {
        let all_exprs: Vec<&ResolvedExpr> = ctx.sum_exprs.iter().chain(ctx.mm_exprs).collect();
        let mut col_cache: Vec<(usize, Vec<i64>)> = Vec::new();
        for c in all_exprs.iter().flat_map(|e| e.columns()) {
            if !col_cache.iter().any(|(cc, _)| *cc == c) {
                col_cache.push((c, Vec::new()));
            }
        }
        WideScan {
            mapper,
            acc: SegmentAggResult {
                counts: Vec::new(),
                sums: vec![Vec::new(); ctx.sum_exprs.len()],
                mins: vec![Vec::new(); ctx.mm_exprs.len()],
                maxs: vec![Vec::new(); ctx.mm_exprs.len()],
            },
            gids: Vec::new(),
            key_scratch: Vec::new(),
            select: ByteSelect::default(),
            col_cache,
            expr_vals: vec![Vec::new(); all_exprs.len()],
            all_exprs,
            num_sums: ctx.sum_exprs.len(),
            expr_scratch: crate::expr::ExprScratch::default(),
            charged_groups: 0,
        }
    }

    fn process_batch(
        &mut self,
        planned: &'a PlannedSegment<'a>,
        ctx: &ScanCtx<'a>,
        at: BatchAt,
        mem: &mut MemScope,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let seg = planned.seg;
        let level = ctx.options.level;
        let chosen = SelectionStrategy::Compact;
        tracer.timed(Phase::Unpack, at.loc(), |_| {
            let gids = &mut self.gids;
            (self.mapper.extract_batch(at.start, at.len, gids, &mut self.key_scratch), at.len)
        });

        // Nothing on this path chooses by selectivity, so the count is
        // event-only work and hides behind the event-log gate.
        let spans = tracer.spans();
        let sel = tracer.selection(at, || {
            let sel = self.select.eval(seg, planned.filter.as_ref(), at.start, at.len, level);
            let selectivity = if spans { selected_fraction(sel, at.len, level) } else { 1.0 };
            (sel, SelectionPick { bits: 32, selectivity, chosen, forced: false })
        });

        let loc = at.loc().with_selection(chosen).with_agg(AggStrategy::Scalar);
        tracer.timed(Phase::WideGroup, loc, |_| {
            for (c, buf) in self.col_cache.iter_mut() {
                buf.clear();
                buf.resize(at.len, 0);
                seg.column(*c).decode_i64_into(at.start, buf);
            }
            let cache = &self.col_cache;
            #[expect(
                clippy::unwrap_used,
                reason = "`col_cache` was planned with exactly the columns the compiled \
                          expressions reference"
            )]
            let lookup = |idx: usize| -> &[i64] {
                cache.iter().find(|(c, _)| *c == idx).map(|(_, v)| v.as_slice()).unwrap()
            };
            for (i, e) in self.all_exprs.iter().enumerate() {
                let (done, rest) = self.expr_vals.split_at_mut(i);
                let prev = |p: usize| -> &[i64] { &done[p] };
                e.eval_batch_with_prev(
                    at.len,
                    &lookup,
                    &prev,
                    &mut rest[0],
                    &mut self.expr_scratch,
                );
            }

            let acc = &mut self.acc;
            for i in 0..at.len {
                if let Some(s) = sel {
                    if s[i] == 0 {
                        continue;
                    }
                }
                let g = self.gids[i] as usize;
                if g >= acc.counts.len() {
                    acc.counts.resize(g + 1, 0);
                    for s in acc.sums.iter_mut() {
                        s.resize(g + 1, 0);
                    }
                    for m in acc.mins.iter_mut() {
                        m.resize(g + 1, i64::MAX);
                    }
                    for m in acc.maxs.iter_mut() {
                        m.resize(g + 1, i64::MIN);
                    }
                }
                acc.counts[g] += 1;
                for (s, vals) in acc.sums.iter_mut().zip(&self.expr_vals) {
                    s[g] += vals[i];
                }
                for (j, vals) in self.expr_vals[self.num_sums..].iter().enumerate() {
                    acc.mins[j][g] = acc.mins[j][g].min(vals[i]);
                    acc.maxs[j][g] = acc.maxs[j][g].max(vals[i]);
                }
            }
            ((), at.len)
        });

        // Charge the hash table's growth from this batch's interning (key
        // tuples + accumulator slots). The charge trails the allocation by
        // one batch at most; a violation stops the scan at this boundary
        // with no partial result surfaced.
        let groups = self.mapper.num_groups();
        if groups > self.charged_groups {
            let num_mm = self.all_exprs.len() - self.num_sums;
            let per_group = wide_group_bytes(ctx.group_cols.len(), self.num_sums, num_mm);
            mem.charge(ctx.governor, (groups - self.charged_groups) * per_group)?;
            self.charged_groups = groups;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::filter::Predicate;
    use bipie_columnstore::{ColumnSpec, TableBuilder};

    fn table(rows: usize, segment_rows: usize) -> Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![ColumnSpec::new("flag", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
            segment_rows,
        );
        for i in 0..rows as i64 {
            b.push_row(vec![Value::Str(["A", "N", "R"][(i % 3) as usize].into()), Value::I64(i)]);
        }
        b.finish()
    }

    fn v_expr(t: &Table) -> ResolvedExpr {
        Expr::col("v").resolve(&|n| t.column_index(n)).unwrap()
    }

    #[test]
    fn multi_segment_merge() {
        let t = table(1000, 300); // 4 segments
        let expr = v_expr(&t);
        let (groups, stats, _) =
            scan_table(&t, None, &[(0, LogicalType::Str)], &[expr], &[], &ScanOptions::default())
                .unwrap();
        assert_eq!(stats.segments_scanned, 4);
        assert_eq!(groups.len(), 3);
        let total: u64 = groups.values().map(|g| g.count).sum();
        assert_eq!(total, 1000);
        let sum: i64 = groups.values().map(|g| g.sums[0]).sum();
        assert_eq!(sum, (0..1000).sum::<i64>());
        // Per-group check against the construction.
        let a = &groups[&vec![Value::Str("A".into())]];
        assert_eq!(a.count, 334);
        assert_eq!(a.sums[0], (0..1000i64).filter(|i| i % 3 == 0).sum::<i64>());
    }

    #[test]
    fn filter_and_elimination() {
        let t = table(1000, 250); // segments cover v ranges [0,250) ...
        let expr = v_expr(&t);
        let pred = Predicate::lt("v", Value::I64(100)).resolve(&t).unwrap();
        let (groups, stats, _) = scan_table(
            &t,
            Some(&pred),
            &[(0, LogicalType::Str)],
            &[expr],
            &[],
            &ScanOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.segments_eliminated, 3);
        assert_eq!(stats.segments_scanned, 1);
        let total: u64 = groups.values().map(|g| g.count).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn deleted_rows_are_skipped() {
        let mut t = table(300, 1000);
        t.segment_mut(0).delete_row(0);
        t.segment_mut(0).delete_row(1);
        let expr = v_expr(&t);
        let (groups, _, _) =
            scan_table(&t, None, &[(0, LogicalType::Str)], &[expr], &[], &ScanOptions::default())
                .unwrap();
        let total: u64 = groups.values().map(|g| g.count).sum();
        assert_eq!(total, 298);
        let sum: i64 = groups.values().map(|g| g.sums[0]).sum();
        assert_eq!(sum, (2..300).sum::<i64>());
    }

    #[test]
    fn overflow_detected() {
        let mut b =
            TableBuilder::with_segment_rows(vec![ColumnSpec::new("v", LogicalType::I64)], 1000);
        for _ in 0..10 {
            b.push_row(vec![Value::I64(i64::MAX / 4)]);
        }
        let t = b.finish();
        let expr = Expr::col("v").mul(Expr::col("v")).resolve(&|n| t.column_index(n)).unwrap();
        let err = scan_table(&t, None, &[], &[expr], &[], &ScanOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::PotentialOverflow { aggregate: 0 }));
    }

    #[test]
    fn forced_strategies_give_identical_results() {
        let t = table(5000, 1300);
        let expr = v_expr(&t);
        let pred = Predicate::ge("v", Value::I64(500)).resolve(&t).unwrap();
        let baseline = scan_table(
            &t,
            Some(&pred),
            &[(0, LogicalType::Str)],
            std::slice::from_ref(&expr),
            &[],
            &ScanOptions::default(),
        )
        .unwrap()
        .0;
        // The dense strategy families; RunSpan/RunWise need an eligible
        // (ungrouped, all-RLE) segment and are covered below.
        for agg in AggStrategy::DENSE {
            for selection in SelectionStrategy::DENSE {
                let opts = ScanOptions {
                    forced_agg: Some(agg),
                    forced_selection: Some(selection),
                    ..Default::default()
                };
                let (groups, stats, _) = scan_table(
                    &t,
                    Some(&pred),
                    &[(0, LogicalType::Str)],
                    std::slice::from_ref(&expr),
                    &[],
                    &opts,
                )
                .unwrap();
                assert_eq!(groups, baseline, "{agg:?}+{selection:?}");
                assert!(stats.agg_count(agg) > 0);
                assert!(stats.selection_count(selection) > 0);
            }
        }
    }

    #[test]
    fn run_wise_path_aggregates_rle_without_unpack() {
        use bipie_columnstore::EncodingHint;
        // 2000 rows in runs of 100 (runs/rows = 1%): the chooser must take
        // the run-wise path on its own.
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("k", LogicalType::I64).with_hint(EncodingHint::Rle),
                ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::Rle),
            ],
            100_000,
        );
        for i in 0..2000i64 {
            b.push_row(vec![Value::I64(i / 100), Value::I64((i / 100) * 3)]);
        }
        let t = b.finish();
        assert!(matches!(t.segments()[0].column(0), EncodedColumn::Rle(_)));
        let expr = Expr::col("v").resolve(&|n| t.column_index(n)).unwrap();
        let pred = Predicate::lt("k", Value::I64(10)).resolve(&t).unwrap();
        let opts = ScanOptions { parallel: false, ..Default::default() };
        let (groups, stats, _) = scan_table(
            &t,
            Some(&pred),
            &[],
            std::slice::from_ref(&expr),
            std::slice::from_ref(&expr),
            &opts,
        )
        .unwrap();
        assert_eq!(stats.agg_count(AggStrategy::RunWise), 1, "{stats:?}");
        assert!(stats.selection_count(SelectionStrategy::RunSpan) > 0);
        let acc = &groups[&Vec::new()];
        assert_eq!(acc.count, 1000);
        assert_eq!(acc.sums[0], (0..10i64).map(|g| g * 300).sum::<i64>());
        assert_eq!(acc.mins[0], 0);
        assert_eq!(acc.maxs[0], 27);

        // The always-available decode fallback must agree byte-for-byte.
        let forced = ScanOptions {
            parallel: false,
            forced_agg: Some(AggStrategy::Scalar),
            forced_selection: Some(SelectionStrategy::Compact),
            ..Default::default()
        };
        let (fallback, fstats, _) = scan_table(
            &t,
            Some(&pred),
            &[],
            std::slice::from_ref(&expr),
            std::slice::from_ref(&expr),
            &forced,
        )
        .unwrap();
        assert_eq!(fallback, groups);
        assert_eq!(fstats.agg_count(AggStrategy::RunWise), 0);
    }

    #[test]
    fn forcing_run_wise_on_ineligible_segment_falls_back() {
        // Grouped scan over non-RLE columns: a forced RunWise/RunSpan pair
        // must quietly revert to the chooser, not panic in the generic
        // kernels.
        let t = table(3000, 1300);
        let expr = v_expr(&t);
        let opts = ScanOptions {
            forced_agg: Some(AggStrategy::RunWise),
            forced_selection: Some(SelectionStrategy::RunSpan),
            parallel: false,
            ..Default::default()
        };
        let (groups, stats, _) =
            scan_table(&t, None, &[(0, LogicalType::Str)], std::slice::from_ref(&expr), &[], &opts)
                .unwrap();
        let baseline = scan_table(
            &t,
            None,
            &[(0, LogicalType::Str)],
            std::slice::from_ref(&expr),
            &[],
            &ScanOptions { parallel: false, ..Default::default() },
        )
        .unwrap()
        .0;
        assert_eq!(groups, baseline);
        assert_eq!(stats.agg_count(AggStrategy::RunWise), 0);
        assert_eq!(stats.selection_count(SelectionStrategy::RunSpan), 0);
    }

    #[test]
    fn parallel_morsel_scan_matches_serial() {
        let t = table(20_000, 6000); // 4 segments, uneven tail
        let expr = v_expr(&t);
        let serial_opts =
            ScanOptions { parallel: false, batch_rows: 512, ..ScanOptions::default() };
        let (serial, serial_stats, _) = scan_table(
            &t,
            None,
            &[(0, LogicalType::Str)],
            std::slice::from_ref(&expr),
            &[],
            &serial_opts,
        )
        .unwrap();
        assert_eq!(serial_stats.pool_workers, 1, "serial is the one-worker case");
        assert!(serial_stats.morsels_scanned >= 4, "{serial_stats:?}");
        for threads in [2usize, 3, 8] {
            let opts = ScanOptions {
                parallel: true,
                threads: Some(threads),
                batch_rows: 512,
                morsel_rows: 1024,
                ..ScanOptions::default()
            };
            let (par, stats, _) = scan_table(
                &t,
                None,
                &[(0, LogicalType::Str)],
                std::slice::from_ref(&expr),
                &[],
                &opts,
            )
            .unwrap();
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(stats.pool_workers, threads);
            assert!(stats.morsels_scanned >= 20_000 / 1024, "{stats:?}");
        }
    }

    /// [`QueryProfile::segments`] is the event log, rolled up: at any
    /// worker count it tiles the query's stats, and every segment's
    /// aggregation record is priced with all the rows the scan visited
    /// there, whoever scanned them.
    #[test]
    fn segment_rollup_tiles_the_stats_at_every_worker_count() {
        if crate::trace::profiler_compiled_out() {
            return;
        }
        let t = table(5000, 1300);
        let expr = v_expr(&t);
        let pred = Predicate::ge("v", Value::I64(500)).resolve(&t).unwrap();
        for threads in [1usize, 2, 4] {
            let opts = ScanOptions {
                threads: Some(threads),
                batch_rows: 256,
                morsel_rows: 256,
                profile: ProfileLevel::Spans,
                ..ScanOptions::default()
            };
            let (_, stats, profile) = scan_table(
                &t,
                Some(&pred),
                &[(0, LogicalType::Str)],
                std::slice::from_ref(&expr),
                &[],
                &opts,
            )
            .unwrap();
            let segments = profile.segments();
            assert_eq!(segments.len(), stats.segments_scanned, "threads={threads}");
            assert!(segments.windows(2).all(|w| w[0].segment < w[1].segment), "ordinal order");
            let rows: u64 = segments.iter().map(|s| s.rows).sum();
            assert_eq!(rows, stats.rows_scanned as u64, "threads={threads}");
            let morsels: u64 = segments.iter().map(|s| s.morsels).sum();
            assert_eq!(morsels, stats.morsels_scanned as u64, "threads={threads}");
            for (i, &batches) in stats.selection_batches.iter().enumerate() {
                let rolled: u64 = segments.iter().map(|s| s.strategies[i].batches).sum();
                assert_eq!(rolled, batches as u64, "threads={threads} strategy {i}");
            }
            for seg in &segments {
                let batches: u64 = seg.strategies.iter().map(|s| s.batches).sum();
                assert_eq!(seg.selections.len() as u64, batches, "{seg:?}");
                let Some(crate::trace::DecisionRecord::Agg { rows, cycles, .. }) = seg.agg else {
                    panic!("segment {} has no aggregation record", seg.segment);
                };
                assert_eq!(rows, seg.rows, "threads={threads}: {seg:?}");
                assert!(cycles > 0, "threads={threads}: {seg:?}");
            }
        }
    }

    #[test]
    fn invalid_options_rejected_with_typed_errors() {
        let t = table(10, 10);
        let expr = v_expr(&t);
        for (opts, option) in [
            (ScanOptions { batch_rows: 0, ..Default::default() }, "batch_rows"),
            (ScanOptions { morsel_rows: 0, ..Default::default() }, "morsel_rows"),
            (ScanOptions { threads: Some(0), ..Default::default() }, "threads"),
            (
                ScanOptions { time_budget: Some(std::time::Duration::ZERO), ..Default::default() },
                "time_budget",
            ),
            (ScanOptions { mem_budget: Some(0), ..Default::default() }, "mem_budget"),
        ] {
            let err =
                scan_table(&t, None, &[], std::slice::from_ref(&expr), &[], &opts).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidOptions { option: o, .. } if o == option),
                "{err:?}"
            );
        }
    }

    #[test]
    fn thread_count_is_bounded() {
        let at = ScanOptions { threads: Some(MAX_THREADS), ..Default::default() };
        assert_eq!(at.validate(), Ok(()));
        let over = ScanOptions { threads: Some(MAX_THREADS + 1), ..Default::default() };
        assert!(matches!(
            over.validate(),
            Err(EngineError::InvalidOptions { option: "threads", .. })
        ));
    }

    #[test]
    fn scheduler_steals_from_hot_segment() {
        let t = table(4000, 1000);
        let (opts, governor) = (ScanOptions::default(), Governor::new(None, None, None));
        let ctx = ScanCtx {
            filter: None,
            group_cols: &[],
            sum_exprs: &[],
            mm_exprs: &[],
            options: &opts,
            governor: &governor,
        };
        let mut coord = Tracer::new(ProfileLevel::Off, 0);
        let segs = plan_segments(t.segments().iter(), &ctx, 4, &mut coord).unwrap();
        let sched = MorselScheduler::new(&segs, 64, &governor);
        let mut claimed_rows = 0usize;
        let mut steals = 0usize;
        // Worker 3's home partition is the last segment; drain everything
        // through it serially to exercise the steal path.
        let mut last = None;
        while let Some(c) = sched.claim(3, 4, &mut last, &mut coord.stats).unwrap() {
            claimed_rows += c.range.len;
            steals += c.stolen as usize;
        }
        assert_eq!(claimed_rows, 4000);
        assert!(steals > 0, "worker must have stolen from other partitions");
    }

    /// Admission planning is callable standalone, accounts its stats, and
    /// propagates plan-time errors.
    #[test]
    fn plan_segments_accounts_stats_and_propagates_errors() {
        let t = table(1000, 300);
        let expr = v_expr(&t);
        let governor = Governor::new(None, None, None);
        let opts = ScanOptions::default();
        let ctx = ScanCtx {
            filter: None,
            group_cols: &[(0, LogicalType::Str)],
            sum_exprs: std::slice::from_ref(&expr),
            mm_exprs: &[],
            options: &opts,
            governor: &governor,
        };
        let mut coord = Tracer::new(ProfileLevel::Off, 0);
        let planned = plan_segments(t.segments().iter(), &ctx, 1, &mut coord).unwrap();
        assert_eq!(planned.len(), 4);
        assert_eq!(coord.stats.segments_scanned, 4);
        assert_eq!(coord.stats.rows_scanned, 1000);
        // The program is whole at plan time: one decision per segment.
        assert_eq!(coord.stats.agg_segments.iter().sum::<usize>(), 4);
        assert!(planned.iter().all(|p| matches!(p.sink, Sink::Narrow(_))));

        let mut b =
            TableBuilder::with_segment_rows(vec![ColumnSpec::new("v", LogicalType::I64)], 1000);
        for _ in 0..10 {
            b.push_row(vec![Value::I64(i64::MAX / 4)]);
        }
        let t2 = b.finish();
        let sq = Expr::col("v").mul(Expr::col("v")).resolve(&|n| t2.column_index(n)).unwrap();
        let ctx2 = ScanCtx { group_cols: &[], sum_exprs: std::slice::from_ref(&sq), ..ctx };
        let err = plan_segments(t2.segments().iter(), &ctx2, 1, &mut coord).unwrap_err();
        assert!(matches!(err, EngineError::PotentialOverflow { aggregate: 0 }), "{err:?}");
    }

    /// When the governor trips at a batch checkpoint,
    /// [`SegScan::process_range`] still closes the `Phase::SegmentScan` span
    /// around the failed batch loop, and the tripping checkpoint is counted.
    #[test]
    fn segment_scan_span_closes_when_the_governor_cancels_mid_scan() {
        let t = table(1000, 1000);
        let expr = v_expr(&t);
        let token = crate::governor::CancelToken::new();
        let opts = ScanOptions { cancel: Some(token.clone()), ..Default::default() };
        let governor = Governor::new(opts.cancel.clone(), None, None);
        let ctx = ScanCtx {
            filter: None,
            group_cols: &[(0, LogicalType::Str)],
            sum_exprs: std::slice::from_ref(&expr),
            mm_exprs: &[],
            options: &opts,
            governor: &governor,
        };
        let mut coord = Tracer::new(ProfileLevel::Off, 0);
        let planned = plan_segments(t.segments().iter(), &ctx, 1, &mut coord).unwrap();
        // Planning has its own checkpoint; trip the governor after it.
        token.cancel();
        let mut tracer = Tracer::new(ProfileLevel::Spans, 0);
        let mut scan = SegScan::new(&planned[0], &ctx).unwrap();
        let whole = Batch { start: 0, len: planned[0].seg.num_rows() };
        let err = scan.process_range(whole, 0, false, &mut tracer).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        let mut profile = QueryProfile::new(ProfileLevel::Spans);
        let stats = profile.absorb(tracer);
        if !crate::trace::profiler_compiled_out() {
            assert_eq!(profile.phase(Phase::SegmentScan).count, 1, "{:?}", profile.phases);
        }
        assert_eq!(stats.governor_checks, 1, "the tripping checkpoint was counted");
    }
}
