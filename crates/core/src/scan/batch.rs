//! One worker's state on one segment and the batch loop of its sink.

use bipie_columnstore::{Batch, Segment, Value};
use bipie_toolbox::selvec::count_selected;
use bipie_toolbox::{RunSpanVec, SimdLevel};

use crate::aggproc::{needs_group_ids, RunWiseExec, SegmentAggExecutor, SegmentAggResult};
use crate::error::Result;
use crate::expr::ExprEval;
use crate::filter::{FilterScratch, SegmentPredicate};
use crate::governor::MemScope;
use crate::groupid::WideMapper;
use crate::strategy::{AggStrategy, SelectionStrategy, StrategyConfig};
use crate::trace::{BatchAt, Phase, SelectionPick, SpanLoc, Tracer};

use super::plan::{wide_group_bytes, NarrowPlan, PlannedSegment, Sink};
use super::{GroupAcc, ScanCtx};

/// Resumable scan state for one segment on one worker: the segment's
/// program by reference, plus what only a worker can own — its slice of the
/// memory budget, accumulators and scratch buffers — reused across the
/// morsels it claims from the segment.
pub(super) struct SegScan<'a> {
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
    pub(super) fn new(planned: &'a PlannedSegment<'a>, ctx: &ScanCtx<'a>) -> Result<SegScan<'a>> {
        let mut mem = MemScope::default();
        mem.charge(ctx.governor, planned.footprint)?;
        let batch_rows = ctx.options.batch_rows;
        let kind = match &planned.sink {
            Sink::RunWise(plan) => SegScanKind::RunWise(Box::new(RunWiseScan {
                exec: RunWiseExec::new(plan.sum_cols.clone(), plan.mm_cols.clone()),
                span_buf: RunSpanVec::new(),
                fscratch: FilterScratch::default(),
            })),
            Sink::Narrow(plan) => {
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
            Sink::Wide(mapper) => SegScanKind::Wide(Box::new(WideScan {
                mapper: mapper.clone(),
                acc: SegmentAggResult {
                    counts: Vec::new(),
                    sums: vec![Vec::new(); ctx.sum_exprs.len()],
                    mins: vec![Vec::new(); ctx.mm_exprs.len()],
                    maxs: vec![Vec::new(); ctx.mm_exprs.len()],
                },
                gids: Vec::new(),
                key_scratch: Vec::new(),
                key_deltas: Vec::new(),
                select: ByteSelect::default(),
                eval: ExprEval::new(ctx.sum_exprs.iter().chain(ctx.mm_exprs).map(Some)),
                charged_groups: 0,
            })),
        };
        Ok(SegScan { planned, ctx: *ctx, mem, kind })
    }

    /// Scan the row window `range` (one morsel) in batch windows.
    /// `range.start` must lie on the segment's batch grid so every worker
    /// count agrees on window boundaries. One [`Phase::SegmentScan`] span
    /// covers the range.
    pub(super) fn process_range(
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
                self.process_batch(at, tracer)?;
            }
            Ok(())
        };
        let loc = SpanLoc::at(segment, morsel).with_stolen(stolen);
        tracer.timed(Phase::SegmentScan, loc, |tracer| (scan(tracer), range.len))
    }

    /// Run one batch through [`run_batch`] with this sink's work: what it
    /// unpacks, how it selects, and how it aggregates.
    fn process_batch(&mut self, at: BatchAt, tracer: &mut Tracer) -> Result<()> {
        let SegScan { planned, ctx, mem, kind } = self;
        let (options, seg, filter) = (ctx.options, planned.seg, planned.filter.as_ref());
        let level = options.level;
        match kind {
            // Predicate evaluated run-at-a-time into spans, aggregates folded
            // value×length: no gid unpack, no per-row selection bytes.
            SegScanKind::RunWise(r) => {
                let RunWiseScan { exec, span_buf, fscratch } = &mut **r;
                let forced = options.forced_selection.is_some();
                run_batch(
                    tracer,
                    at,
                    AggStrategy::RunWise,
                    false,
                    || (),
                    || {
                        match filter {
                            Some(f) => f.eval_batch_spans(at.start, at.len, span_buf, fscratch),
                            None => span_buf.set_full(at.len),
                        }
                        let selectivity = span_buf.selected_rows() as f64 / at.len.max(1) as f64;
                        // Width 1: no packed input and no group code for a
                        // crossover to see.
                        let chosen = SelectionStrategy::RunSpan;
                        (&*span_buf, SelectionPick { bits: 1, selectivity, chosen, forced })
                    },
                    |(), spans, _| exec.process_spans(at.start, spans),
                )
            }
            SegScanKind::Narrow(n) => {
                let NarrowScan { plan, exec, gids, gid_scratch, select } = &mut **n;
                let bits = plan.dominant_bits;
                // An executor that reads no group ids gets none: no Unpack.
                let group_ids =
                    needs_group_ids(plan.strategy, plan.mapper.num_groups(), plan.mm_inputs.len());
                run_batch(
                    tracer,
                    at,
                    plan.strategy,
                    group_ids,
                    || {
                        plan.mapper.extract_batch(at.start, at.len, gids, gid_scratch, level);
                        gids.as_mut_slice()
                    },
                    // Filter + deleted-row merge -> selection byte vector, plus
                    // the selectivity measurement that drives the choice.
                    || {
                        let sel = select.eval(seg, filter, at.start, at.len, level);
                        let selectivity = selected_fraction(sel, at.len, level);
                        // Run-span selection has no dense byte-mask form, so
                        // forcing it on a segment that does not run run-wise
                        // falls back to the chooser.
                        let forced =
                            options.forced_selection.filter(|&s| s != SelectionStrategy::RunSpan);
                        let chosen = forced
                            .unwrap_or_else(|| StrategyConfig.choose_selection(selectivity, bits));
                        (sel, SelectionPick { bits, selectivity, chosen, forced: forced.is_some() })
                    },
                    |gids, sel, selection| {
                        exec.process_batch(seg, at.start, at.len, gids, sel, selection)
                    },
                )
            }
            SegScanKind::Wide(w) => {
                let WideScan { mapper, acc, gids, key_scratch, key_deltas, select, eval, .. } =
                    &mut **w;
                // Nothing on this path chooses by selectivity, so the count
                // is event-only work and hides behind the event-log gate.
                let spans = tracer.spans();
                run_batch(
                    tracer,
                    at,
                    AggStrategy::Scalar,
                    true,
                    || {
                        mapper.extract_batch(at.start, at.len, gids, key_scratch, key_deltas);
                        gids.as_slice()
                    },
                    || {
                        let sel = select.eval(seg, filter, at.start, at.len, level);
                        let selectivity =
                            if spans { selected_fraction(sel, at.len, level) } else { 1.0 };
                        let chosen = SelectionStrategy::Compact;
                        (sel, SelectionPick { bits: 32, selectivity, chosen, forced: false })
                    },
                    |gids, sel, _| {
                        let exprs = ctx.sum_exprs.iter().chain(ctx.mm_exprs);
                        eval.eval(seg, at.start, at.len, exprs.map(Some));
                        wide_rows(acc, gids, sel, &eval.results, ctx.sum_exprs.len());
                    },
                );
                // Charge the hash table's growth from this batch's interning
                // (key tuples + accumulator slots). The charge trails the
                // allocation by one batch at most; a violation stops the scan
                // at this boundary with no partial result surfaced.
                let (groups, charged) = (w.mapper.num_groups(), &mut w.charged_groups);
                if groups > *charged {
                    let (keys, mm) = (ctx.group_cols.len(), ctx.mm_exprs.len());
                    let per_group = wide_group_bytes(keys, ctx.sum_exprs.len(), mm);
                    mem.charge(ctx.governor, (groups - *charged) * per_group)?;
                    *charged = groups;
                }
            }
        }
        Ok(())
    }

    /// Tear down into per-group results.
    pub(super) fn finish(self) -> Vec<(Vec<Value>, GroupAcc)> {
        match self.kind {
            // Ungrouped: the one group's key is empty.
            SegScanKind::RunWise(r) => keyed_groups(r.exec.finish(), |_| Vec::new()),
            SegScanKind::Narrow(n) => keyed_groups(n.exec.finish(), |g| n.plan.mapper.group_key(g)),
            SegScanKind::Wide(w) => keyed_groups(w.acc, |g| w.mapper.group_key(g)),
        }
    }
}

/// The byte-mask selection step of the narrow and wide batch paths (and of
/// the plan-time sample): filter evaluation merged with deleted-row
/// information into one selection byte per row.
#[derive(Default)]
pub(super) struct ByteSelect {
    pub(super) sel_buf: Vec<u8>,
    pub(super) fscratch: FilterScratch,
}

impl ByteSelect {
    /// The batch's selection bytes; `None` when every row is selected: no
    /// deleted row, and no filter or one that compiled to nothing this
    /// batch has to evaluate.
    pub(super) fn eval(
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
pub(super) fn selected_fraction(sel: Option<&[u8]>, rows: usize, level: SimdLevel) -> f64 {
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

/// The batch protocol every sink runs (§3, Figure 1), written once: the
/// group ids unpacked as a [`Phase::Unpack`] span when the sink reads them
/// (`gids`; else `aggregate` gets `G::default()`), the rows selected as a
/// [`Phase::Selection`] span that records its decision, and the batch
/// aggregated as a [`Phase::Aggregation`] span labelled with the selection
/// and aggregation strategies. A sink supplies only the work of each step.
#[inline]
fn run_batch<G: Default, S, T>(
    tracer: &mut Tracer,
    at: BatchAt,
    agg: AggStrategy,
    gids: bool,
    unpack: impl FnOnce() -> G,
    select: impl FnOnce() -> (S, SelectionPick),
    aggregate: impl FnOnce(G, S, SelectionStrategy) -> T,
) -> T {
    let gids = if gids {
        tracer.timed(Phase::Unpack, at.loc(), |_| (unpack(), at.len))
    } else {
        G::default()
    };
    let (sel, chosen) = tracer.selection(at, || {
        let (sel, pick) = select();
        ((sel, pick.chosen), pick)
    });
    let loc = at.loc().with_selection(chosen).with_agg(agg);
    tracer.timed(Phase::Aggregation, loc, |_| (aggregate(gids, sel, chosen), at.len))
}

/// A worker's state on a run-wise segment: the executor that consumes run
/// spans without unpacking, and the span buffers.
struct RunWiseScan<'a> {
    exec: RunWiseExec<'a>,
    span_buf: RunSpanVec,
    fscratch: FilterScratch,
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

/// Wide-group fallback: u32 group ids, scalar row loop.
struct WideScan<'a> {
    mapper: WideMapper<'a>,
    /// Accumulator columns, grown as the mapper interns new groups.
    acc: SegmentAggResult,
    gids: Vec<u32>,
    key_scratch: Vec<Vec<i64>>,
    /// The mapper's delta-decode scratch.
    key_deltas: Vec<u64>,
    select: ByteSelect,
    /// Every aggregate's expression (sums, then MIN/MAX: the CSE
    /// compilation order of `resolve_many`), evaluated per batch.
    eval: ExprEval,
    /// Group count already charged to the memory accountant; each batch
    /// charges the interning delta at [`wide_group_bytes`] per group.
    charged_groups: usize,
}

/// The wide sink's scalar row loop: each selected row into its group's
/// accumulators, grown as the mapper interns new groups. `values` holds
/// the sums' results, then the MIN/MAXes'.
fn wide_rows(
    acc: &mut SegmentAggResult,
    gids: &[u32],
    sel: Option<&[u8]>,
    values: &[Vec<i64>],
    num_sums: usize,
) {
    let (sum_vals, mm_vals) = values.split_at(num_sums);
    for i in 0..gids.len() {
        if let Some(s) = sel {
            if s[i] == 0 {
                continue;
            }
        }
        let g = gids[i] as usize;
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
        for (s, vals) in acc.sums.iter_mut().zip(sum_vals) {
            s[g] += vals[i];
        }
        for (j, vals) in mm_vals.iter().enumerate() {
            acc.mins[j][g] = acc.mins[j][g].min(vals[i]);
            acc.maxs[j][g] = acc.maxs[j][g].max(vals[i]);
        }
    }
}
