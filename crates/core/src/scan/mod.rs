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
//!
//! One file per seam: `options`, `plan` (admission planning), `sched` (the
//! morsel scheduler), `batch` (a worker's segment state and the one batch
//! protocol of every sink) and `merge` (the driver's two phases).

mod batch;
mod merge;
mod options;
mod plan;
mod sched;

pub use options::{ScanOptions, MAX_THREADS};

use std::collections::BTreeMap;

use bipie_columnstore::{LogicalType, Table, Value};

use crate::error::Result;
use crate::expr::ResolvedExpr;
use crate::filter::ResolvedPredicate;
use crate::governor::{Governor, MemScope};
use crate::pool::hardware_threads;
use crate::stats::ExecStats;
use crate::trace::{Phase, QueryProfile, SpanLoc, Tracer};

use merge::scan_workers;
use plan::plan_segments;

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
    // The query's one governor: its deadline clock starts now, at admission.
    let governor = Governor::new(options.cancel.clone(), options.time_budget, options.mem_budget);
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
    let plan = coord.timed(Phase::Plan, SpanLoc::none(), |coord| {
        let plan = plan_segments(table.segments().iter().chain(&tail), &ctx, workers, coord);
        (plan, coord.stats.rows_scanned)
    })?;

    let merged = if plan.segments.is_empty() {
        BTreeMap::new()
    } else {
        scan_workers(&plan, &ctx, &mut coord, &mut profile)?
    };
    coord.stats.mem_reserved_peak = governor.peak_reserved();
    let stats = profile.absorb(coord);
    Ok((merged, stats, profile))
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

#[cfg(test)]
mod tests {
    use super::batch::SegScan;
    use super::plan::Sink;
    use super::sched::MorselScheduler;
    use super::*;
    use crate::error::EngineError;
    use crate::expr::Expr;
    use crate::filter::Predicate;
    use crate::strategy::{AggStrategy, SelectionStrategy};
    use crate::trace::ProfileLevel;
    use bipie_columnstore::encoding::EncodedColumn;
    use bipie_columnstore::Batch;
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
        if crate::trace::observability_compiled_out() {
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
        let segs = plan_segments(t.segments().iter(), &ctx, 4, &mut coord).unwrap().segments;
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
        let planned = plan_segments(t.segments().iter(), &ctx, 1, &mut coord).unwrap().segments;
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
        let planned = plan_segments(t.segments().iter(), &ctx, 1, &mut coord).unwrap().segments;
        // Planning has its own checkpoint; trip the governor after it.
        token.cancel();
        let mut tracer = Tracer::new(ProfileLevel::Spans, 0);
        let mut scan = SegScan::new(&planned[0], &ctx).unwrap();
        let whole = Batch { start: 0, len: planned[0].seg.num_rows() };
        let err = scan.process_range(whole, 0, false, &mut tracer).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        let mut profile = QueryProfile::new(ProfileLevel::Spans);
        let stats = profile.absorb(tracer);
        if !crate::trace::observability_compiled_out() {
            assert_eq!(profile.phase(Phase::SegmentScan).count, 1, "{:?}", profile.phases);
        }
        assert_eq!(stats.governor_checks, 1, "the tripping checkpoint was counted");
    }
}
