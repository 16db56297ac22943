//! Admission planning: each admitted segment's program (DESIGN.md §20),
//! its overflow proofs, and the footprint its workers charge.

use std::ops::Range;

use bipie_columnstore::encoding::{EncodedColumn, RleColumn};
use bipie_columnstore::{LogicalType, Segment};

use crate::aggproc::{AggInput, LanePlan, SegmentAggExecutor};
use crate::error::{EngineError, Result};
use crate::expr::ResolvedExpr;
use crate::filter::SegmentPredicate;
use crate::groupid::{plan_segment_mapper, NarrowMapper, SegmentGroupMapper, WideMapper};
use crate::strategy::{AggChoiceParams, AggStrategy, SelectionStrategy, StrategyConfig};
use crate::trace::Tracer;

use super::batch::{selected_fraction, ByteSelect};
use super::{ScanCtx, ScanOptions};

/// A segment admitted by [`plan_segments`] and the whole program the scan
/// runs on it (DESIGN.md §20): what the query's filter compiled to, the row
/// window, and the sink with its one aggregation decision. Built once,
/// complete before any worker starts, immutable and shared by reference; a
/// visiting worker adds only scratch and accumulators ([`SegScan`]).
#[derive(Debug)]
pub(super) struct PlannedSegment<'t> {
    /// Table segment ordinal (the id trace events carry).
    pub(super) index: u32,
    pub(super) seg: &'t Segment,
    /// The filter compiled against this segment (`None`: no filter).
    pub(super) filter: Option<SegmentPredicate<'t>>,
    /// The rows the scan visits: the filter's row range rounded outward to
    /// the batch grid, so every worker count sees the same batch windows.
    /// No row outside is ever claimed.
    pub(super) window: Range<usize>,
    pub(super) sink: Sink<'t>,
    /// What each visiting worker charges before building its state for the
    /// sink (DESIGN.md §10): priced once, in [`plan_sink`], by the sink's
    /// formula — the number the chooser's budget ladder ranked.
    pub(super) footprint: usize,
}

/// Where a segment's batches go — decided at plan time and nowhere else.
#[derive(Debug)]
pub(super) enum Sink<'t> {
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
pub(super) struct NarrowPlan<'t> {
    pub(super) mapper: NarrowMapper<'t>,
    pub(super) inputs: Vec<AggInput<'t>>,
    pub(super) mm_inputs: Vec<AggInput<'t>>,
    /// How those inputs reach the kernels on this segment (DESIGN.md §17).
    pub(super) lane_plan: LanePlan<'t>,
    /// The bit width driving the gather/compact crossover: widest packed
    /// aggregate input, else the group-code width.
    pub(super) dominant_bits: u8,
    /// The segment's aggregation strategy (§3: per segment, at run time).
    pub(super) strategy: AggStrategy,
}

/// The run-wise sink's plan: the bare RLE columns behind the aggregates.
#[derive(Debug)]
pub(super) struct RunWisePlan<'t> {
    pub(super) sum_cols: Vec<&'t RleColumn>,
    pub(super) mm_cols: Vec<&'t RleColumn>,
    /// Worst (largest) runs/rows ratio over every RLE column the scan
    /// touches — the cost model's work proxy for the run-wise path.
    pub(super) runs_fraction: f64,
}

/// What admission planning hands the driver: the admitted segments, the
/// morsel grid they are cut into, and the worker count the fork runs. The
/// three are decided together, so the budget ladder's per-worker share and
/// the fork read one number.
#[derive(Debug)]
pub(super) struct ScanPlan<'t> {
    pub(super) segments: Vec<PlannedSegment<'t>>,
    /// Rows per morsel: `morsel_rows` rounded up to whole batches, so every
    /// worker count sees the same batch grid.
    pub(super) morsel_rows: usize,
    /// The requested worker count capped at one per planned morsel: a
    /// worker with no morsel to claim would cost only its fork.
    pub(super) workers: usize,
}

/// Admission planning for [`scan_table`]: walk the segments once, in table
/// order, compiling the filter against each and skipping empty and
/// filter-eliminated ones; cut the windows into morsels and cap the worker
/// count; then prove overflow/min-max safety and plan each admitted
/// segment's sink ([`plan_sink`]) against that worker count's share.
pub(super) fn plan_segments<'t>(
    segments: impl Iterator<Item = &'t Segment>,
    ctx: &ScanCtx<'_>,
    workers: usize,
    coord: &mut Tracer,
) -> Result<ScanPlan<'t>> {
    let ScanCtx { filter, sum_exprs, mm_exprs, governor, options, .. } = *ctx;
    let batch_rows = options.batch_rows;
    let mut admitted = Vec::new();
    for (seg_index, seg) in segments.enumerate() {
        if seg.num_rows() == 0 || seg.live_rows() == 0 {
            continue;
        }
        let filter = filter.map(|f| f.compile(seg));
        if filter.as_ref().is_some_and(SegmentPredicate::eliminated) {
            coord.stats.segments_eliminated += 1;
            continue;
        }
        let rows = filter.as_ref().map_or(0..seg.num_rows(), SegmentPredicate::row_range);
        let window = rows.start / batch_rows * batch_rows
            ..rows.end.next_multiple_of(batch_rows).min(seg.num_rows());
        admitted.push((seg_index as u32, seg, filter, window));
    }
    let morsel_rows = options.morsel_rows.div_ceil(batch_rows).max(1) * batch_rows;
    let morsels: usize = admitted.iter().map(|(.., w)| w.len().div_ceil(morsel_rows)).sum();
    let workers = workers.min(morsels).max(1);
    // Every worker that visits a segment charges the same footprint, so the
    // budget ladder is walked against an even share among the workers the
    // fork runs. Nothing is reserved until they start, so one reading
    // serves every segment.
    let headroom = governor.remaining().map(|bytes| bytes / workers);
    let mut planned = Vec::with_capacity(admitted.len());
    for (index, seg, filter, window) in admitted {
        check_overflow(seg, sum_exprs)?;
        check_minmax_range(seg, sum_exprs.len(), mm_exprs)?;
        // The plan-time checkpoint: planning a sink may evaluate one batch.
        governor.checkpoint(&mut coord.stats)?;
        let (sink, footprint) =
            plan_sink(index, seg, filter.as_ref(), &window, ctx, headroom, coord)?;
        let visited = window.len() - seg.deleted().deleted_in(window.start, window.end);
        let stats = &mut coord.stats;
        stats.segments_scanned += 1;
        stats.rows_scanned += visited;
        stats.rows_pruned += seg.live_rows() - visited;
        stats.bytes_scanned += seg.encoded_bytes();
        planned.push(PlannedSegment { index, seg, filter, window, sink, footprint });
    }
    Ok(ScanPlan { segments: planned, morsel_rows, workers })
}

/// Plan one admitted segment's sink and make its one aggregation decision,
/// logged on the coordinator's record; returns the sink and its footprint.
/// Everything the decision rests on is a function of (segment, query,
/// options, worker count) — never of which worker claimed which morsel
/// first.
fn plan_sink<'t>(
    index: u32,
    seg: &'t Segment,
    filter: Option<&SegmentPredicate<'t>>,
    window: &Range<usize>,
    ctx: &ScanCtx<'_>,
    headroom: Option<usize>,
    coord: &mut Tracer,
) -> Result<(Sink<'t>, usize)> {
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
            // A worker's batch state: u32 group ids, selection bytes, and i64
            // buffers for the group-key scratch, the decoded columns and the
            // expression results. The hash table is charged as it grows.
            let exprs = sum_exprs.len() + mm_exprs.len();
            let footprint = options.batch_rows * (4 + 1 + 8 * (group_cols.len() + 2 * exprs));
            return Ok((Sink::Wide(mapper), footprint));
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
    let (groups, batch_rows) = (mapper.num_groups(), options.batch_rows);
    // A worker's working set under `s`. Run-wise: the batch's spans and the
    // filter's two intersection temporaries, at one 8-byte span per run
    // crossing a batch. Narrow: batch-sized group ids, unpack scratch and
    // selection bytes, then the executor.
    let footprint = |s: AggStrategy| match (s, &runwise) {
        (AggStrategy::RunWise, Some(r)) => {
            24 * ((r.runs_fraction * batch_rows as f64).ceil() as usize + 1)
        }
        _ => {
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
    let sink = match runwise {
        Some(plan) if strategy == AggStrategy::RunWise => Sink::RunWise(plan),
        _ => {
            coord.stats.record_expr_path(lane_plan.expr_path());
            Sink::Narrow(Box::new(NarrowPlan {
                mapper,
                inputs,
                mm_inputs,
                lane_plan,
                dominant_bits,
                strategy,
            }))
        }
    };
    Ok((sink, footprint))
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
pub(super) fn wide_group_bytes(key_cols: usize, num_sums: usize, num_mm: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::governor::Governor;
    use crate::scan::batch::SegScan;
    use crate::trace::ProfileLevel;
    use bipie_columnstore::{ColumnSpec, EncodingHint, Table, TableBuilder, Value};

    /// `g` has 5 values (narrow), `id` 2 000 (wide), `v` runs of 100 (RLE).
    fn table() -> Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("g", LogicalType::I64).with_hint(EncodingHint::BitPack),
                ColumnSpec::new("id", LogicalType::I64).with_hint(EncodingHint::BitPack),
                ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::Rle),
            ],
            100_000,
        );
        for i in 0..2000i64 {
            b.push_row(vec![Value::I64(i % 5), Value::I64(i), Value::I64(i / 100 * 3)]);
        }
        b.finish()
    }

    /// The footprint the chooser ranked is what `SegScan::new` charges a
    /// visiting worker: a budget of exactly that many bytes admits the
    /// worker's state, and one byte less refuses it — for every sink.
    #[test]
    fn each_sink_charges_the_footprint_it_was_planned_with() {
        let t = table();
        let v = Expr::col("v").resolve(&|n| t.column_index(n)).unwrap();
        let (opts, unlimited) = (ScanOptions::default(), Governor::unlimited());
        let shapes: [(&[(usize, LogicalType)], &str); 3] = [
            (&[], "run-wise"),
            (&[(0, LogicalType::I64)], "narrow"),
            (&[(1, LogicalType::I64)], "wide"),
        ];
        for (group_cols, label) in shapes {
            let ctx = ScanCtx {
                filter: None,
                group_cols,
                sum_exprs: std::slice::from_ref(&v),
                mm_exprs: &[],
                options: &opts,
                governor: &unlimited,
            };
            let mut coord = Tracer::new(ProfileLevel::Off, 0);
            let planned = plan_segments(t.segments().iter(), &ctx, 1, &mut coord).unwrap().segments;
            let p = &planned[0];
            let sink = match &p.sink {
                Sink::RunWise(plan) => {
                    let runs = (plan.runs_fraction * opts.batch_rows as f64).ceil() as usize + 1;
                    assert_eq!(p.footprint, 3 * 8 * runs, "{label}");
                    "run-wise"
                }
                Sink::Narrow(_) => "narrow",
                Sink::Wide(_) => "wide",
            };
            assert_eq!(sink, label);
            for (budget, fits) in [(p.footprint, true), (p.footprint - 1, false)] {
                let governor = Governor::new(None, None, Some(budget));
                let ctx = ScanCtx { governor: &governor, ..ctx };
                assert_eq!(SegScan::new(p, &ctx).is_ok(), fits, "{label}: budget {budget}");
            }
        }
    }
}
