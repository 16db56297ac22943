//! Runtime operator specialization (§3, §6.2).
//!
//! BIPie keeps several implementations of selection and aggregation and
//! picks between them at runtime:
//!
//! * the **aggregation strategy** is chosen *per segment*, from segment
//!   metadata (group-count upper bound, number of aggregates, input bit
//!   widths) plus an adaptive selectivity estimate;
//! * the **selection strategy** is chosen *per batch*, "based on the actual
//!   selectivity calculated after evaluating the filter for the batch".
//!
//! The chooser uses a small cost model whose shape follows the paper's
//! findings (Figures 7–10): gather wins at low selectivity with a
//! bit-width-dependent crossover against compaction; special-group wins
//! near full selectivity; in-register costs grow linearly in groups and
//! value width; multi-aggregate amortizes a fixed transpose over the
//! aggregate count; sort-based pays a fixed sort that shrinks per-aggregate
//! and with selectivity.

/// How rows rejected by the filter are removed from processing (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SelectionStrategy {
    /// Gather selection (§4.2): index vector + SIMD gather of survivors.
    Gather = 0,
    /// Compacting selection (§4.1): unpack everything, left-pack survivors.
    Compact = 1,
    /// Special group assignment (§4.3): rejected rows join an extra group.
    SpecialGroup = 2,
    /// Run-span selection (DESIGN.md §13): the predicate is evaluated per
    /// RLE run and the selection stays run-granular — no per-row byte mask
    /// is materialized. Only the run-wise aggregation executor consumes it.
    RunSpan = 3,
}

impl SelectionStrategy {
    /// All selection strategies.
    pub const ALL: [SelectionStrategy; 4] = [
        SelectionStrategy::Gather,
        SelectionStrategy::Compact,
        SelectionStrategy::SpecialGroup,
        SelectionStrategy::RunSpan,
    ];

    /// The per-row (dense selection vector) strategies the generic batch
    /// executor understands. [`SelectionStrategy::RunSpan`] is excluded: it
    /// produces run-granular spans consumed only by the run-wise executor.
    pub const DENSE: [SelectionStrategy; 3] =
        [SelectionStrategy::Gather, SelectionStrategy::Compact, SelectionStrategy::SpecialGroup];

    /// Short label used in experiment output ("Gather", "Compact",
    /// "Special Group", "Run Span").
    pub fn label(self) -> &'static str {
        match self {
            SelectionStrategy::Gather => "Gather",
            SelectionStrategy::Compact => "Compact",
            SelectionStrategy::SpecialGroup => "Special Group",
            SelectionStrategy::RunSpan => "Run Span",
        }
    }
}

/// How grouped aggregates are computed (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum AggStrategy {
    /// Scalar fallback (§5.1; also the wide-group path).
    Scalar = 0,
    /// Sort-based SUM (§5.2).
    SortBased = 1,
    /// In-register virtual accumulator arrays (§5.3).
    InRegister = 2,
    /// Multi-aggregate horizontal SIMD (§5.4).
    MultiAggregate = 3,
    /// Run-wise aggregation on RLE data (DESIGN.md §13): per-run
    /// multiply-accumulate over run-span selections, O(runs) not O(rows).
    RunWise = 4,
}

impl AggStrategy {
    /// All aggregation strategies.
    pub const ALL: [AggStrategy; 5] = [
        AggStrategy::Scalar,
        AggStrategy::SortBased,
        AggStrategy::InRegister,
        AggStrategy::MultiAggregate,
        AggStrategy::RunWise,
    ];

    /// The strategies the generic (row-at-a-time batch) segment executor
    /// implements. [`AggStrategy::RunWise`] is excluded: it runs in a
    /// dedicated executor that consumes run spans instead of group ids.
    pub const DENSE: [AggStrategy; 4] = [
        AggStrategy::Scalar,
        AggStrategy::SortBased,
        AggStrategy::InRegister,
        AggStrategy::MultiAggregate,
    ];

    /// The three SIMD strategies evaluated in Figures 8–10.
    pub const SIMD: [AggStrategy; 3] =
        [AggStrategy::SortBased, AggStrategy::InRegister, AggStrategy::MultiAggregate];

    /// Short label used in experiment output ("Sort", "Register", "Multi",
    /// "Runwise").
    pub fn label(self) -> &'static str {
        match self {
            AggStrategy::Scalar => "Scalar",
            AggStrategy::SortBased => "Sort",
            AggStrategy::InRegister => "Register",
            AggStrategy::MultiAggregate => "Multi",
            AggStrategy::RunWise => "Runwise",
        }
    }
}

/// Selectivity at or above which special-group selection is used.
const SPECIAL_GROUP_MIN_SELECTIVITY: f64 = 0.6;
/// Gather-vs-compact crossover at 4-bit inputs (Figure 7: ~2%).
const GATHER_LIMIT_BASE: f64 = 0.02;
/// Crossover growth per input bit beyond 4 (Figure 7: ~38% at 21 bits).
const GATHER_LIMIT_PER_BIT: f64 = 0.021;
/// Scalar aggregation cost, cycles/row/agg.
const SCALAR_COST: f64 = 2.2;
/// In-register: fixed cost per row per aggregate.
const INREG_BASE: f64 = 0.35;
/// In-register: per-group cost factor, scaled by value width in bytes.
const INREG_PER_GROUP_PER_BYTE: f64 = 0.035;
/// Multi-aggregate: amortizable fixed cost per row.
const MULTI_FIXED: f64 = 1.8;
/// Multi-aggregate: marginal cost per row per aggregate.
const MULTI_PER_AGG: f64 = 0.55;
/// Sort-based: sort cost per row (amortized over aggregates).
const SORT_FIXED: f64 = 0.7;
/// Sort-based: additional sort cost per row at full selectivity.
const SORT_FIXED_PER_SELECTIVITY: f64 = 1.5;
/// Sort-based: per-aggregate gather-sum cost per row.
const SORT_PER_AGG: f64 = 0.65;

/// The strategy chooser: a cost model over the eleven constants above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyConfig;

/// Per-segment inputs to the aggregation-strategy choice.
#[derive(Debug, Clone)]
pub struct AggChoiceParams {
    /// Group count including the special-group slot when a filter may use
    /// special-group selection.
    pub num_groups_effective: usize,
    /// Number of SUM aggregates (COUNT(*) is tracked separately).
    pub num_sums: usize,
    /// Per-aggregate normalized input width in bytes (1, 2, 4, or 8).
    pub input_bytes: Vec<usize>,
    /// True if every sum input is a raw bit-packed column of <= 25 bits
    /// (the precondition for sort-based SIMD gather summation).
    pub all_packed_narrow: bool,
    /// Whether a multi-aggregate row layout exists for these widths.
    pub multi_layout_fits: bool,
    /// Adaptive selectivity estimate (1.0 when there is no filter).
    pub est_selectivity: f64,
    /// `Some(runs / rows)` when every aggregate input is an RLE column and
    /// the query shape admits the run-wise executor (single group, no
    /// deletions, span-eligible filter); `None` otherwise. The fraction is
    /// the run-wise path's work ratio: it touches O(runs) run headers where
    /// the dense strategies touch O(rows) values.
    pub runwise_runs_fraction: Option<f64>,
}

impl StrategyConfig {
    /// Selectivity below which gather beats compaction for the given input
    /// bit width (the Figure 7 crossover). Capped just below the special-
    /// group threshold: on post-Skylake cores gathers stay competitive to
    /// much higher selectivities than the paper's machine (see
    /// EXPERIMENTS.md on Figure 7), so compaction only wins a narrow band.
    pub fn gather_limit(&self, bits: u8) -> f64 {
        let cap = (SPECIAL_GROUP_MIN_SELECTIVITY - 0.05).max(GATHER_LIMIT_BASE);
        (GATHER_LIMIT_BASE + GATHER_LIMIT_PER_BIT * (bits.saturating_sub(4)) as f64)
            .clamp(GATHER_LIMIT_BASE, cap)
    }

    /// Choose the selection strategy for one batch from its measured
    /// selectivity and the dominant input bit width (§3, Figure 7).
    pub fn choose_selection(&self, selectivity: f64, bits: u8) -> SelectionStrategy {
        if selectivity >= SPECIAL_GROUP_MIN_SELECTIVITY {
            SelectionStrategy::SpecialGroup
        } else if selectivity <= self.gather_limit(bits) {
            SelectionStrategy::Gather
        } else {
            SelectionStrategy::Compact
        }
    }

    /// Modeled cost in cycles/row/aggregate, or `None` if infeasible.
    ///
    /// Costs are per *input* row: when the selectivity is below the
    /// special-group threshold, gather/compact selection shrinks the rows
    /// the aggregation kernels actually touch, so per-selected-row work is
    /// scaled by the selectivity estimate; at or above the threshold the
    /// special group feeds every row through the kernels.
    pub fn agg_cost(&self, strategy: AggStrategy, p: &AggChoiceParams) -> Option<f64> {
        let sums = p.num_sums.max(1) as f64;
        let fraction = if p.est_selectivity >= SPECIAL_GROUP_MIN_SELECTIVITY {
            1.0
        } else {
            p.est_selectivity.max(0.01)
        };
        match strategy {
            AggStrategy::Scalar => Some(SCALAR_COST * fraction),
            AggStrategy::InRegister => {
                if p.num_groups_effective > bipie_toolbox::agg::MAX_GROUPS_IN_REGISTER
                    || p.input_bytes.iter().any(|&b| b > 4)
                {
                    return None;
                }
                let avg_bytes = if p.input_bytes.is_empty() {
                    1.0
                } else {
                    p.input_bytes.iter().sum::<usize>() as f64 / p.input_bytes.len() as f64
                };
                Some(
                    (INREG_BASE
                        + INREG_PER_GROUP_PER_BYTE * p.num_groups_effective as f64 * avg_bytes)
                        * fraction,
                )
            }
            AggStrategy::MultiAggregate => {
                if !p.multi_layout_fits || p.num_sums == 0 {
                    return None;
                }
                Some((MULTI_PER_AGG + MULTI_FIXED / sums) * fraction)
            }
            AggStrategy::SortBased => {
                if !p.all_packed_narrow || p.num_sums == 0 {
                    return None;
                }
                let sort_cost = SORT_FIXED + SORT_FIXED_PER_SELECTIVITY * p.est_selectivity;
                Some((SORT_PER_AGG + sort_cost / sums) * fraction)
            }
            AggStrategy::RunWise => {
                // O(runs) work where dense strategies do O(rows): the cost
                // per input row is the scalar cost scaled by the run
                // fraction. On fragmented columns (fraction near 1) this
                // offers no advantage and the dense strategies win.
                let f = p.runwise_runs_fraction?;
                Some(SCALAR_COST * f.clamp(0.0, 1.0))
            }
        }
    }

    /// Choose the aggregation strategy for one segment (§3).
    pub fn choose_agg(&self, p: &AggChoiceParams) -> AggStrategy {
        let mut best = (AggStrategy::Scalar, SCALAR_COST);
        for s in AggStrategy::SIMD.into_iter().chain([AggStrategy::RunWise]) {
            if let Some(cost) = self.agg_cost(s, p) {
                if cost < best.1 {
                    best = (s, cost);
                }
            }
        }
        best.0
    }

    /// Budget-aware wrapper around [`StrategyConfig::choose_agg`]
    /// (DESIGN.md §10): when the cost-model winner's projected working set
    /// does not fit the remaining memory budget, walk the degradation
    /// ladder — sort-based if feasible (its scratch is batch-bounded, not
    /// group-bounded), then scalar (no strategy scratch at all) — before
    /// admitting defeat. If nothing fits, the original winner is returned
    /// and its reservation fails with the typed budget error.
    ///
    /// `footprint` projects a strategy's working-set bytes; `remaining` is
    /// `None` when no budget is set (the common case — one branch).
    pub fn choose_agg_budgeted(
        &self,
        p: &AggChoiceParams,
        remaining: Option<usize>,
        footprint: &dyn Fn(AggStrategy) -> usize,
    ) -> AggStrategy {
        let chosen = self.choose_agg(p);
        let Some(remaining) = remaining else { return chosen };
        if footprint(chosen) <= remaining {
            return chosen;
        }
        if self.agg_cost(AggStrategy::SortBased, p).is_some()
            && footprint(AggStrategy::SortBased) <= remaining
        {
            return AggStrategy::SortBased;
        }
        if footprint(AggStrategy::Scalar) <= remaining {
            return AggStrategy::Scalar;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(groups: usize, sums: usize, bytes: usize, sel: f64) -> AggChoiceParams {
        AggChoiceParams {
            num_groups_effective: groups,
            num_sums: sums,
            input_bytes: vec![bytes; sums],
            all_packed_narrow: true,
            multi_layout_fits: sums >= 1 && sums * bytes.clamp(4, 8) <= 32,
            est_selectivity: sel,
            runwise_runs_fraction: None,
        }
    }

    #[test]
    fn gather_limit_grows_with_bits() {
        let c = StrategyConfig;
        assert!(c.gather_limit(4) < c.gather_limit(14));
        assert!(c.gather_limit(14) < c.gather_limit(21));
        // Figure 7 anchor points: ~2% at 4 bits, ~38% at 21 bits.
        assert!((c.gather_limit(4) - 0.02).abs() < 0.001);
        assert!((c.gather_limit(21) - 0.38).abs() < 0.03);
    }

    #[test]
    fn selection_zones() {
        let c = StrategyConfig;
        assert_eq!(c.choose_selection(0.01, 14), SelectionStrategy::Gather);
        assert_eq!(c.choose_selection(0.4, 14), SelectionStrategy::Compact);
        assert_eq!(c.choose_selection(0.95, 14), SelectionStrategy::SpecialGroup);
        assert_eq!(c.choose_selection(1.0, 4), SelectionStrategy::SpecialGroup);
    }

    #[test]
    fn few_groups_narrow_values_pick_in_register() {
        // Figure 8's region: 8 groups, 1-byte inputs, 1-2 sums, high sel.
        let c = StrategyConfig;
        assert_eq!(c.choose_agg(&params(9, 1, 1, 0.9)), AggStrategy::InRegister);
        assert_eq!(c.choose_agg(&params(9, 2, 1, 0.9)), AggStrategy::InRegister);
    }

    #[test]
    fn many_aggs_pick_multi() {
        // Figure 10's region: 32+ groups, 4-byte inputs, several sums.
        let c = StrategyConfig;
        assert_eq!(c.choose_agg(&params(33, 4, 4, 0.9)), AggStrategy::MultiAggregate);
        assert_eq!(c.choose_agg(&params(33, 5, 4, 0.5)), AggStrategy::MultiAggregate);
    }

    #[test]
    fn low_selectivity_single_sum_picks_sort() {
        // Figure 8/9 row 1x, low selectivity: sort + gather wins.
        let c = StrategyConfig;
        let mut p = params(64, 1, 4, 0.1);
        p.multi_layout_fits = true;
        assert_eq!(c.choose_agg(&p), AggStrategy::SortBased);
    }

    #[test]
    fn infeasible_strategies_fall_back() {
        let c = StrategyConfig;
        // 8-byte inputs and wide groups: in-register infeasible; no multi
        // layout; not packed-narrow -> scalar.
        let p = AggChoiceParams {
            num_groups_effective: 200,
            num_sums: 2,
            input_bytes: vec![8, 8],
            all_packed_narrow: false,
            multi_layout_fits: false,
            est_selectivity: 1.0,
            runwise_runs_fraction: None,
        };
        assert_eq!(c.choose_agg(&p), AggStrategy::Scalar);
        assert_eq!(c.agg_cost(AggStrategy::InRegister, &p), None);
        assert_eq!(c.agg_cost(AggStrategy::MultiAggregate, &p), None);
        assert_eq!(c.agg_cost(AggStrategy::SortBased, &p), None);
        assert_eq!(c.agg_cost(AggStrategy::RunWise, &p), None);
    }

    #[test]
    fn long_runs_pick_run_wise() {
        let c = StrategyConfig;
        // Long runs (0.1% of rows are run headers): run-wise dominates any
        // dense strategy regardless of width or group shape.
        let mut p = params(1, 1, 8, 1.0);
        p.all_packed_narrow = false;
        p.multi_layout_fits = false;
        p.runwise_runs_fraction = Some(0.001);
        assert_eq!(c.choose_agg(&p), AggStrategy::RunWise);
        // Fully fragmented runs (one run per row): no advantage, the dense
        // chooser result stands.
        p.runwise_runs_fraction = Some(1.0);
        assert_ne!(c.choose_agg(&p), AggStrategy::RunWise);
    }

    #[test]
    fn labels() {
        assert_eq!(SelectionStrategy::Gather.label(), "Gather");
        assert_eq!(AggStrategy::MultiAggregate.label(), "Multi");
    }

    #[test]
    fn budgeted_choice_walks_the_degradation_ladder() {
        let c = StrategyConfig;
        // In-register wins unbudgeted for this shape.
        let p = params(9, 1, 1, 0.9);
        assert_eq!(c.choose_agg(&p), AggStrategy::InRegister);
        // Footprints: scalar has no strategy scratch, sort-based sits in
        // the middle, everything else is large.
        let footprint = |s: AggStrategy| match s {
            AggStrategy::Scalar => 100,
            AggStrategy::SortBased => 1000,
            _ => 10_000,
        };
        assert_eq!(c.choose_agg_budgeted(&p, None, &footprint), AggStrategy::InRegister);
        assert_eq!(c.choose_agg_budgeted(&p, Some(20_000), &footprint), AggStrategy::InRegister);
        assert_eq!(c.choose_agg_budgeted(&p, Some(5000), &footprint), AggStrategy::SortBased);
        assert_eq!(c.choose_agg_budgeted(&p, Some(500), &footprint), AggStrategy::Scalar);
        // Nothing fits: the original winner comes back and its reservation
        // surfaces the typed error.
        assert_eq!(c.choose_agg_budgeted(&p, Some(10), &footprint), AggStrategy::InRegister);
        // Sort-based must be feasible to be a rung: with no packed-narrow
        // inputs the ladder skips straight to scalar.
        let mut infeasible = p.clone();
        infeasible.all_packed_narrow = false;
        assert_eq!(c.choose_agg_budgeted(&infeasible, Some(5000), &footprint), AggStrategy::Scalar);
    }
}
