//! Per-layer metrics of the traced run, measured from outside the crates:
//! every number here comes from timing a call into a layer's public
//! function, never from a counter or span inside `crates/` (the four
//! `core.trace.phase.*` rows, read from the engine's own profile, are the
//! labelled exception).
//!
//! Because the scan is fused, the engine's layer budget comes from a
//! *replay*: [`replay_segment`] makes, for every batch window of a segment,
//! the calls `core::scan` makes, in order, each under its own span. A layer's
//! cost is the sum of its spans; what the real scan spends beyond the
//! replayed layers is reported as `core.scan.replay_residual_pct.q1`.
//!
//! Every traced run measures all five groups on tables generated from the
//! run's seed at the probe sizes of [`Scale`], whichever workload it traces:
//! the driver expects every per-layer metric from every traced run.

mod encoded;
mod ingest;
mod q1;
mod serving;
mod sweep;

use bipie_columnstore::encoding::EncodedColumn;
use bipie_columnstore::{BatchCursor, LogicalType, Segment, Table};
use bipie_core::aggproc::{AggInput, SegmentAggExecutor};
use bipie_core::expr::{resolve_many, ResolvedExpr};
use bipie_core::filter::{FilterScratch, ResolvedPredicate};
use bipie_core::groupid::{plan_segment_mapper, SegmentGroupMapper};
use bipie_core::strategy::StrategyConfig;
use bipie_core::{AggExpr, AggStrategy, Expr, Query, SelectionStrategy};
use bipie_metrics::read_cycles;
use bipie_toolbox::agg::sort_based::{self, SortedBatch};
use bipie_toolbox::selvec::count_selected;
use bipie_toolbox::SimdLevel;

use crate::env::Clock;
use crate::scale::Scale;
use crate::span::Recorder;
use crate::stats::median;

/// Context and sink of one traced run's layer measurements.
pub struct Probe<'a> {
    pub scale: &'a Scale,
    pub seed: u64,
    pub level: SimdLevel,
    pub clock: Clock,
    /// Spans of the replays, written to the trace file with the workload's.
    pub rec: Recorder,
    metrics: Vec<(String, f64)>,
}

impl<'a> Probe<'a> {
    pub fn new(scale: &'a Scale, seed: u64, clock: Clock, lane: u32) -> Probe<'a> {
        Probe {
            scale,
            seed,
            level: SimdLevel::detect(),
            clock,
            rec: Recorder::new(lane, scale.span_capacity),
            metrics: Vec::new(),
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn reps(&self) -> usize {
        self.scale.probe_reps
    }

    /// Median cycles of `f` over the probe's repetitions, per `rows`.
    pub fn per_row(&mut self, name: impl Into<String>, rows: usize, f: impl FnMut()) {
        let cycles = median_cycles(self.reps(), f);
        self.put(name, cycles / rows.max(1) as f64);
    }

    /// `rows` per second of `f`'s median duration.
    pub fn per_second(&mut self, name: impl Into<String>, rows: usize, f: impl FnMut()) {
        let cycles = median_cycles(self.reps(), f);
        let secs = self.cycles_to_us(cycles) / 1e6;
        self.put(name, rows as f64 / secs);
    }

    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / self.clock.tsc_hz() * 1e6
    }

    /// Median duration of `f` in microseconds.
    pub fn micros(&mut self, name: impl Into<String>, f: impl FnMut()) {
        let cycles = median_cycles(self.reps(), f);
        let us = self.cycles_to_us(cycles);
        self.put(name, us);
    }

    /// Median nanoseconds of one call of `f`, timed in blocks of `inner`
    /// calls (for functions too short to time singly).
    pub fn nanos_each(&mut self, name: impl Into<String>, inner: usize, mut f: impl FnMut()) {
        let cycles = median_cycles(self.reps(), || {
            for _ in 0..inner {
                f();
            }
        });
        let ns = self.cycles_to_us(cycles) * 1e3 / inner as f64;
        self.put(name, ns);
    }

    pub fn into_parts(self) -> (Vec<(String, f64)>, Recorder) {
        (self.metrics, self.rec)
    }
}

/// The strategy's part of a metric name.
pub fn agg_slug(a: AggStrategy) -> &'static str {
    match a {
        AggStrategy::Scalar => "scalar",
        AggStrategy::SortBased => "sort_based",
        AggStrategy::InRegister => "in_register",
        AggStrategy::MultiAggregate => "multi_aggregate",
        AggStrategy::RunWise => "run_wise",
    }
}

/// The strategy's part of a metric name.
pub fn sel_slug(s: SelectionStrategy) -> &'static str {
    match s {
        SelectionStrategy::Gather => "gather",
        SelectionStrategy::Compact => "compact",
        SelectionStrategy::SpecialGroup => "special_group",
        SelectionStrategy::RunSpan => "run_span",
    }
}

/// Measure every per-layer metric except `bench.trace_overhead_pct` (which
/// needs the traced workload's own ops and is added by the caller).
pub fn measure_all(probe: &mut Probe<'_>) -> Result<(), String> {
    q1::measure(probe)?;
    sweep::measure(probe)?;
    encoded::measure(probe)?;
    serving::measure(probe)?;
    ingest::measure(probe)?;
    Ok(())
}

/// Median cycles of `f` over `reps` timed calls after one warm call.
pub fn median_cycles(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = read_cycles();
            f();
            (read_cycles() - t0) as f64
        })
        .collect();
    median(&samples)
}

/// Call `f(start, len)` for every batch window of `n` rows, the way the scan
/// feeds the kernels.
pub fn batches(n: usize, mut f: impl FnMut(usize, usize)) {
    for b in BatchCursor::new(n) {
        f(b.start, b.len);
    }
}

/// One bucket-sorted batch per batch window of `gids`.
pub fn presort(gids: &[u8], buckets: usize) -> Vec<SortedBatch> {
    let mut out = Vec::new();
    batches(gids.len(), |s, l| {
        let mut sorted = SortedBatch::default();
        sort_based::bucket_sort(&gids[s..s + l], None, buckets, &mut sorted);
        out.push(sorted);
    });
    out
}

/// A boxed closure for [`interleaved_medians`].
pub type Variant<'a> = Box<dyn FnMut() + 'a>;

/// Median cycles of each of `variants`, timed round-robin so slow drift of
/// the machine lands on all of them alike (for ratios and overheads).
pub fn interleaved_medians(reps: usize, variants: &mut [Variant<'_>]) -> Vec<f64> {
    for v in variants.iter_mut() {
        v();
    }
    let mut samples = vec![Vec::with_capacity(reps); variants.len()];
    for _ in 0..reps.max(1) {
        for (v, s) in variants.iter_mut().zip(&mut samples) {
            let t0 = read_cycles();
            v();
            s.push((read_cycles() - t0) as f64);
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

/// The engine's plan of `query` against `table`, rebuilt from public
/// functions the way `core::query::execute` builds it: resolved filter,
/// group-by columns, and the deduplicated, jointly compiled SUM/AVG inputs.
pub struct ReplayPlan {
    pub filter: Option<ResolvedPredicate>,
    pub group_cols: Vec<(usize, LogicalType)>,
    pub sum_exprs: Vec<ResolvedExpr>,
}

pub fn plan_query(table: &Table, query: &Query) -> Result<ReplayPlan, String> {
    let mut group_cols = Vec::new();
    for name in &query.group_by {
        let idx = table.column_index(name).ok_or_else(|| format!("unknown column {name}"))?;
        group_cols.push((idx, table.specs()[idx].ty));
    }
    let mut sums: Vec<&Expr> = Vec::new();
    for agg in &query.aggregates {
        match agg {
            AggExpr::CountStar => {}
            AggExpr::Sum(e) | AggExpr::Avg(e) => {
                if !sums.contains(&e) {
                    sums.push(e);
                }
            }
            AggExpr::Min(_) | AggExpr::Max(_) => {
                return Err("the replay covers COUNT/SUM/AVG queries only".into())
            }
        }
    }
    let sum_exprs =
        resolve_many(&sums, &|name| table.column_index(name)).map_err(|e| e.to_string())?;
    let filter =
        query.filter.as_ref().map(|f| f.resolve(table)).transpose().map_err(|e| e.to_string())?;
    Ok(ReplayPlan { filter, group_cols, sum_exprs })
}

/// Cycles one replay of a segment spent in each layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCost {
    pub plan_mapper: u64,
    pub filter: u64,
    pub groupid: u64,
    pub aggproc: u64,
    pub finish: u64,
    /// Rows the aggregate executor counted as selected (sanity check).
    pub selected: u64,
}

/// Make the calls `core::scan`'s narrow path makes for `seg`, batch window by
/// batch window: `plan_segment_mapper`, then per batch `extract_batch` →
/// `eval_batch` (+ deleted-row mask, selectivity count, selection choice) →
/// `process_batch`, then `finish`. `forced_selection` pins the selection
/// strategy; otherwise the chooser decides per batch as in the engine.
pub fn replay_segment(
    plan: &ReplayPlan,
    seg: &Segment,
    strategy: AggStrategy,
    forced_selection: Option<SelectionStrategy>,
    level: SimdLevel,
    rec: &mut Recorder,
) -> Result<ReplayCost, String> {
    let mut cost = ReplayCost::default();
    rec.enter("replay.segment");

    rec.enter("core.groupid.plan_segment_mapper");
    let mapper = plan_segment_mapper(seg, &plan.group_cols);
    cost.plan_mapper = rec.exit();
    let mapper = match mapper.map_err(|e| e.to_string())? {
        SegmentGroupMapper::Narrow(m) => m,
        SegmentGroupMapper::Wide(_) => {
            rec.exit();
            return Err("the replay covers the narrow (u8 group id) path only".into());
        }
    };

    let inputs: Vec<AggInput<'_>> = plan
        .sum_exprs
        .iter()
        .map(|e| match e.as_bare_column().map(|col| seg.column(col)) {
            Some(EncodedColumn::BitPack(c)) => AggInput::Packed(c),
            _ => AggInput::Computed(e.clone()),
        })
        .collect();
    let dominant_bits = inputs
        .iter()
        .filter_map(|i| match i {
            AggInput::Packed(c) => Some(c.bits()),
            AggInput::Computed(_) => None,
        })
        .max()
        .unwrap_or_else(|| mapper.code_bits());
    let config = StrategyConfig::default();
    let has_deletes = !seg.deleted().none_deleted();

    rec.enter("core.aggproc.new");
    let mut exec = SegmentAggExecutor::new(strategy, mapper.num_groups(), inputs, level);
    cost.aggproc += rec.exit();

    let (mut gids, mut gid_scratch, mut sel_buf) = (Vec::new(), Vec::new(), Vec::new());
    let mut fscratch = FilterScratch::default();
    for batch in BatchCursor::new(seg.num_rows()) {
        rec.enter("core.groupid.extract_batch");
        mapper.extract_batch(batch.start, batch.len, &mut gids, &mut gid_scratch, level);
        cost.groupid += rec.exit();

        rec.enter("core.filter.eval_batch");
        let sel: Option<&[u8]> = if plan.filter.is_some() || has_deletes {
            sel_buf.resize(batch.len, 0xFF);
            match &plan.filter {
                Some(f) => f.eval_batch(seg, batch.start, &mut sel_buf, &mut fscratch, level),
                None => sel_buf.fill(0xFF),
            }
            seg.deleted().mask_batch(batch.start, &mut sel_buf);
            Some(&sel_buf)
        } else {
            None
        };
        let selectivity = match sel {
            Some(s) => count_selected(s, level) as f64 / batch.len.max(1) as f64,
            None => 1.0,
        };
        let selection =
            forced_selection.unwrap_or_else(|| config.choose_selection(selectivity, dominant_bits));
        cost.filter += rec.exit();

        rec.enter("core.aggproc.process_batch");
        exec.process_batch(seg, batch.start, batch.len, &mut gids, sel, selection);
        cost.aggproc += rec.exit();
    }

    rec.enter("core.aggproc.finish");
    let result = exec.finish();
    cost.finish = rec.exit();
    cost.selected = result.counts.iter().sum();
    std::hint::black_box(&result);
    rec.exit();
    Ok(cost)
}

/// Replay `seg` `reps` times (after one warm replay) and return the median
/// cost of each layer.
pub fn replay_median(
    probe: &mut Probe<'_>,
    plan: &ReplayPlan,
    seg: &Segment,
    strategy: AggStrategy,
    forced_selection: Option<SelectionStrategy>,
) -> Result<ReplayCost, String> {
    let level = probe.level;
    // The warm replay is not worth keeping in the trace file.
    let mut scratch = Recorder::new(0, 0);
    replay_segment(plan, seg, strategy, forced_selection, level, &mut scratch)?;
    let mut runs = Vec::with_capacity(probe.reps());
    for _ in 0..probe.reps() {
        runs.push(replay_segment(plan, seg, strategy, forced_selection, level, &mut probe.rec)?);
    }
    let med = |pick: fn(&ReplayCost) -> u64| {
        median(&runs.iter().map(|c| pick(c) as f64).collect::<Vec<_>>()) as u64
    };
    Ok(ReplayCost {
        plan_mapper: med(|c| c.plan_mapper),
        filter: med(|c| c.filter),
        groupid: med(|c| c.groupid),
        aggproc: med(|c| c.aggproc),
        finish: med(|c| c.finish),
        selected: runs[0].selected,
    })
}

/// The aggregation strategy the engine's chooser picked for `query` on
/// `table` (the one with a recorded segment decision).
pub fn chosen_agg(table: &Table, query: &Query) -> Result<AggStrategy, String> {
    let r = bipie_core::execute(table, query).map_err(|e| e.to_string())?;
    AggStrategy::ALL
        .into_iter()
        .max_by_key(|&a| r.stats.agg_count(a))
        .filter(|&a| r.stats.agg_count(a) > 0)
        .ok_or_else(|| "the query scanned no segment".into())
}

/// Median cycles of `query` under the adaptive chooser and under every
/// forced (aggregation × selection) pair of the dense strategy families, all
/// timed round-robin. Returns `(adaptive, best forced)`; a forced pair that
/// returns other rows than the adaptive plan is an error.
pub fn adaptive_vs_best_forced(
    reps: usize,
    table: &Table,
    query: &Query,
) -> Result<(f64, f64), String> {
    let mut queries = vec![query.clone()];
    for agg in AggStrategy::DENSE {
        for sel in SelectionStrategy::DENSE {
            let mut q = query.clone();
            q.options.forced_agg = Some(agg);
            q.options.forced_selection = Some(sel);
            queries.push(q);
        }
    }
    let expected = bipie_core::execute(table, query).map_err(|e| e.to_string())?.rows;
    for q in &queries[1..] {
        let rows = bipie_core::execute(table, q).map_err(|e| e.to_string())?.rows;
        if rows != expected {
            return Err(format!(
                "forced {:?}+{:?} returns other rows than the adaptive plan",
                q.options.forced_agg, q.options.forced_selection
            ));
        }
    }
    let mut variants: Vec<Variant<'_>> = queries
        .iter()
        .map(|q| {
            Box::new(move || {
                std::hint::black_box(bipie_core::execute(table, q).ok());
            }) as Variant<'_>
        })
        .collect();
    let medians = interleaved_medians(reps, &mut variants);
    let best = medians[1..].iter().copied().fold(f64::INFINITY, f64::min);
    Ok((medians[0], best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::scale::SMOKE;

    #[test]
    fn replay_selects_what_the_engine_selects() {
        let table = gen::lineitem(0.002, 1);
        let query = bipie_tpch::q1_query(gen::serial());
        let plan = plan_query(&table, &query).expect("plans");
        assert_eq!(plan.sum_exprs.len(), 5, "Q1 has five distinct sums");
        let mut rec = Recorder::new(0, 10_000);
        let engine = bipie_core::execute(&table, &query).expect("runs");
        let engine_selected: u64 = engine.rows.iter().filter_map(|r| r.aggs[7].as_count()).sum();
        for strategy in AggStrategy::DENSE {
            let cost = replay_segment(
                &plan,
                &table.segments()[0],
                strategy,
                None,
                SimdLevel::detect(),
                &mut rec,
            )
            .expect("replays");
            assert_eq!(cost.selected, engine_selected, "{strategy:?}");
            assert!(cost.filter > 0 && cost.groupid > 0 && cost.aggproc > 0);
        }
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"core.filter.eval_batch"));
        assert!(names.contains(&"core.aggproc.process_batch"));
    }

    #[test]
    fn measure_all_emits_every_layer_metric_but_trace_overhead_once() {
        let mut probe = Probe::new(&SMOKE, 1, Clock::start(), 0);
        measure_all(&mut probe).expect("measures");
        let (metrics, _) = probe.into_parts();
        let mut got: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let mut want: Vec<&str> = crate::catalog::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| *n != "bench.trace_overhead_pct")
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for (name, value) in &metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}
