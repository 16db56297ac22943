//! Execution statistics.
//!
//! BIPie's defining behavior is *which* specialized operator ran where; the
//! stats expose that so tests can pin strategy decisions and examples can
//! show the adaptive behavior (§3: aggregation strategy per segment,
//! selection strategy per batch).
//!
//! ## Merge semantics
//!
//! Each scan worker bumps the [`ExecStats`] its
//! [`Tracer`](crate::trace::Tracer) owns; [`ExecStats::merge`] folds those
//! per-worker records into the query-level one at the join. Fields fall
//! into two classes, annotated on each field:
//!
//! * **additive** — disjoint work counted once per occurrence (rows,
//!   batches, morsels, strategy tallies). Merging sums them.
//! * **region-level** — facts about one fork-join *region* the coordinator
//!   observes once (`pool_workers`, `pool_reuses`). Per-worker records
//!   from the same region would each see the same region, so merging takes
//!   the max to avoid double counting; the scan coordinator accounts new
//!   regions directly (one `+=` per completed `pool.run`), never through
//!   `merge`.

use crate::strategy::{AggStrategy, SelectionStrategy};

/// Counters collected during one query execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Segments whose metadata eliminated them before scanning. Additive.
    pub segments_eliminated: usize,
    /// Segments actually scanned. Additive.
    pub segments_scanned: usize,
    /// Segments that used the wide-group (u32 group id) fallback path.
    /// Additive.
    pub wide_group_segments: usize,
    /// Batches processed. Additive.
    pub batches: usize,
    /// Rows scanned: live rows of the row window each scanned segment was
    /// visited in (the whole segment unless its filter compiled to a
    /// narrower row range). Additive.
    pub rows_scanned: usize,
    /// Live rows of scanned segments that lie outside the visited window:
    /// a sorted column proved they cannot match, so no filter, group-id
    /// extraction or aggregation ever touched them. Additive.
    pub rows_pruned: usize,
    /// Encoded bytes of scanned segments (the compressed footprint the
    /// scan actually read, not the decoded width). Additive.
    pub bytes_scanned: usize,
    /// Rows of the mutable region, scanned as the query's tail segment.
    /// Additive.
    pub mutable_rows: usize,
    /// Batches per selection strategy, indexed by [`SelectionStrategy`].
    /// Additive.
    pub selection_batches: [usize; 4],
    /// Aggregation-strategy decisions, indexed by [`AggStrategy`] — one per
    /// scanned segment, made at plan time, so the entries sum to
    /// `segments_scanned` at every worker count. Additive.
    pub agg_segments: [usize; 5],
    /// Scanned segments whose computed sum inputs run as typed lane
    /// programs over natural-width columns (DESIGN.md §17): at most one per
    /// scanned segment. Additive.
    pub expr_lane_segments: usize,
    /// Scanned segments whose computed inputs fall back to the `i64`
    /// interpreter because the metadata proof failed: at most one per
    /// scanned segment. Additive.
    pub expr_interp_segments: usize,
    /// Morsels claimed by scan workers: `Σ ceil(visited rows / morsel rows)`
    /// over the scanned segments, at every worker count. Additive.
    pub morsels_scanned: usize,
    /// Morsels a worker claimed outside its home segment partition
    /// (skew-induced work stealing). Additive.
    pub morsel_steals: usize,
    /// Workers that ran the scan (1 for a serial scan; 0 only when every
    /// segment was eliminated and no region ran). Region-level: merging
    /// takes the max.
    pub pool_workers: usize,
    /// Fork-join regions served entirely by already-running pool workers
    /// (vs. regions that had to grow the pool; a one-worker region runs on
    /// the caller and counts once the pool has completed any region).
    /// Region-level: merging takes the max; the coordinator increments it
    /// once per completed region.
    pub pool_reuses: usize,
    /// Cooperative governor checks performed (morsel claims + batch
    /// boundaries + plan admission); 0 when no limit was set. Additive.
    pub governor_checks: usize,
    /// Peak bytes the memory accountant had reserved against `mem_budget`
    /// (slack chunks included; 0 with no budget). Region-level: the
    /// governor's high-water mark is a query-wide gauge the coordinator
    /// reads once, so merging takes the max.
    pub mem_reserved_peak: usize,
}

impl ExecStats {
    /// Record one batch's selection choice.
    pub fn record_selection(&mut self, s: SelectionStrategy) {
        self.selection_batches[s as usize] += 1;
        self.batches += 1;
    }

    /// Record one segment's aggregation choice.
    pub fn record_agg(&mut self, a: AggStrategy) {
        self.agg_segments[a as usize] += 1;
    }

    /// Record how one segment evaluates its computed inputs.
    pub fn record_expr_path(&mut self, path: crate::aggproc::ExprPath) {
        match path {
            crate::aggproc::ExprPath::Stored => {}
            crate::aggproc::ExprPath::Lanes => self.expr_lane_segments += 1,
            crate::aggproc::ExprPath::Interpreter(_) => self.expr_interp_segments += 1,
        }
    }

    /// Merge stats from another (per-worker) record. See
    /// the module docs for which fields sum and which take the max.
    pub fn merge(&mut self, other: &ExecStats) {
        self.segments_eliminated += other.segments_eliminated;
        self.segments_scanned += other.segments_scanned;
        self.wide_group_segments += other.wide_group_segments;
        self.batches += other.batches;
        self.rows_scanned += other.rows_scanned;
        self.rows_pruned += other.rows_pruned;
        self.bytes_scanned += other.bytes_scanned;
        self.mutable_rows += other.mutable_rows;
        for i in 0..4 {
            self.selection_batches[i] += other.selection_batches[i];
        }
        for i in 0..5 {
            self.agg_segments[i] += other.agg_segments[i];
        }
        self.expr_lane_segments += other.expr_lane_segments;
        self.expr_interp_segments += other.expr_interp_segments;
        self.morsels_scanned += other.morsels_scanned;
        self.morsel_steals += other.morsel_steals;
        self.pool_workers = self.pool_workers.max(other.pool_workers);
        self.pool_reuses = self.pool_reuses.max(other.pool_reuses);
        self.governor_checks += other.governor_checks;
        self.mem_reserved_peak = self.mem_reserved_peak.max(other.mem_reserved_peak);
    }

    /// Batches that used the given selection strategy.
    pub fn selection_count(&self, s: SelectionStrategy) -> usize {
        self.selection_batches[s as usize]
    }

    /// Scanned segments that ran under the given aggregation strategy.
    pub fn agg_count(&self, a: AggStrategy) -> usize {
        self.agg_segments[a as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = ExecStats::default();
        a.record_selection(SelectionStrategy::Gather);
        a.record_selection(SelectionStrategy::SpecialGroup);
        a.record_agg(AggStrategy::InRegister);
        let mut b = ExecStats::default();
        b.record_selection(SelectionStrategy::Gather);
        b.record_agg(AggStrategy::MultiAggregate);
        b.segments_scanned = 2;
        a.merge(&b);
        assert_eq!(a.selection_count(SelectionStrategy::Gather), 2);
        assert_eq!(a.selection_count(SelectionStrategy::SpecialGroup), 1);
        assert_eq!(a.selection_count(SelectionStrategy::Compact), 0);
        assert_eq!(a.agg_count(AggStrategy::InRegister), 1);
        assert_eq!(a.agg_count(AggStrategy::MultiAggregate), 1);
        assert_eq!(a.batches, 3);
        assert_eq!(a.segments_scanned, 2);
    }

    #[test]
    fn merge_does_not_double_count_region_level_fields() {
        // Two per-thread collectors observed the SAME fork-join region:
        // merging them must not count the region's workers or its pool
        // reuse twice.
        let mut a = ExecStats { pool_workers: 4, pool_reuses: 1, ..ExecStats::default() };
        let b = ExecStats { pool_workers: 4, pool_reuses: 1, ..ExecStats::default() };
        a.merge(&b);
        assert_eq!(a.pool_workers, 4, "workers is a region-level gauge");
        assert_eq!(a.pool_reuses, 1, "reuses must not double-count the region");
        // A collector that saw more regions dominates.
        let c = ExecStats { pool_reuses: 3, ..ExecStats::default() };
        a.merge(&c);
        assert_eq!(a.pool_reuses, 3);
    }

    #[test]
    fn governor_fields_merge_by_class() {
        // Checks are disjoint per-worker work (additive); the reserved peak
        // is the governor's query-wide gauge (max).
        let mut a =
            ExecStats { governor_checks: 3, mem_reserved_peak: 4096, ..ExecStats::default() };
        let b = ExecStats { governor_checks: 5, mem_reserved_peak: 1024, ..ExecStats::default() };
        a.merge(&b);
        assert_eq!(a.governor_checks, 8);
        assert_eq!(a.mem_reserved_peak, 4096);
    }
}
