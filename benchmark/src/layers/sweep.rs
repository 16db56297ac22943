//! Layer metrics measured on the `filter_sweep` shape: a bit-packed table
//! (`g` 12 groups, `sel` 14-bit, `a0` 14-bit, `a1` 28-bit) under five
//! selectivities.

use bipie_columnstore::BATCH_ROWS;
use bipie_core::strategy::{AggChoiceParams, StrategyConfig};
use bipie_core::{AggStrategy, ExecStats, SelectionStrategy};
use bipie_toolbox::agg::{in_register, multi, sort_based, ColRef};
use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::cmp::{between_u32, cmp_u16, CmpOp};
use bipie_toolbox::select::{compact_indices, gather_unpack_u16, gather_unpack_u32};
use bipie_toolbox::selvec::{count_selected, SelIndexVec};

use super::{
    adaptive_vs_best_forced, agg_slug, batches, chosen_agg, plan_query, presort, replay_median,
    sel_slug, Probe,
};
use crate::gen;

const GROUPS: usize = gen::SWEEP_GROUPS as usize;

pub fn measure(p: &mut Probe<'_>) -> Result<(), String> {
    kernels(p);
    engine(p)
}

fn kernels(p: &mut Probe<'_>) {
    let (n, seed, level) = (p.scale.kernel_elems, p.seed, p.level);
    let v14: Vec<u16> = gen::values(n, 14, seed).into_iter().map(|v| v as u16).collect();
    let v28: Vec<u32> = gen::values(n, 28, seed).into_iter().map(|v| v as u32).collect();
    let mut mask = vec![0u8; n];

    p.per_row("toolbox.cmp.lt_u16.cycles_per_row", n, || {
        batches(n, |s, l| cmp_u16(&v14[s..s + l], CmpOp::Lt, 1638, &mut mask[s..s + l], level));
        std::hint::black_box(&mask);
    });
    p.per_row("toolbox.cmp.between_u32.cycles_per_row", n, || {
        batches(n, |s, l| {
            between_u32(&v28[s..s + l], 1 << 26, 3 << 26, &mut mask[s..s + l], level)
        });
        std::hint::black_box(&mask);
    });

    let sel10 = gen::selection(n, 0.10, seed);
    let sel50 = gen::selection(n, 0.50, seed);
    p.per_row("toolbox.selvec.count_selected.cycles_per_row", n, || {
        let mut total = 0usize;
        batches(n, |s, l| total += count_selected(&sel10[s..s + l], level));
        std::hint::black_box(total);
    });
    let mut iv = SelIndexVec::with_capacity(BATCH_ROWS);
    for (sel, name) in [
        (&sel10, "toolbox.select.compact_indices_s10.cycles_per_row"),
        (&sel50, "toolbox.select.compact_indices_s50.cycles_per_row"),
    ] {
        p.per_row(name, n, || {
            batches(n, |s, l| {
                compact_indices(&sel[s..s + l], &mut iv, level);
                std::hint::black_box(iv.len());
            });
        });
    }

    // Gather at 2 % selectivity: segment-global row ids of the selected rows,
    // batch by batch. Cost is reported per *input* row, as the engine pays it.
    let sel2 = gen::selection(n, 0.02, seed);
    let mut per_batch: Vec<Vec<u32>> = Vec::new();
    batches(n, |s, l| {
        per_batch.push((s..s + l).filter(|&i| sel2[i] != 0).map(|i| i as u32).collect());
    });
    let pv14 = PackedVec::pack(&gen::values(n, 14, seed), 14);
    let pv28 = PackedVec::pack(&gen::values(n, 28, seed), 28);
    let mut g16 = vec![0u16; BATCH_ROWS];
    let mut g32 = vec![0u32; BATCH_ROWS];
    p.per_row("toolbox.select.gather_unpack_b14_s2.cycles_per_row", n, || {
        for idx in &per_batch {
            gather_unpack_u16(&pv14, idx, &mut g16[..idx.len()], level);
        }
        std::hint::black_box(&g16);
    });
    p.per_row("toolbox.select.gather_unpack_b28_s2.cycles_per_row", n, || {
        for idx in &per_batch {
            gather_unpack_u32(&pv28, idx, &mut g32[..idx.len()], level);
        }
        std::hint::black_box(&g32);
    });

    let gids = gen::gids(n, GROUPS, seed);
    let mut sums = vec![0i64; GROUPS];
    p.per_row("toolbox.agg.in_register.sum_u32_g12.cycles_per_row", n, || {
        batches(n, |s, l| {
            in_register::sum_u32(
                &gids[s..s + l],
                &v28[s..s + l],
                GROUPS,
                &mut sums,
                (1 << 28) - 1,
                level,
            )
        });
        std::hint::black_box(&sums);
    });
    let presorted = presort(&gids, GROUPS);
    p.per_row("toolbox.agg.sort_based.sum_sorted_packed_b14_g12.cycles_per_row", n, || {
        for (i, sorted) in presorted.iter().enumerate() {
            sort_based::sum_sorted_packed(&pv14, sorted, (i * BATCH_ROWS) as u32, &mut sums, level);
        }
        std::hint::black_box(&sums);
    });
    let layout = multi::RowLayout::plan(&[2, 4]).expect("a u16 and a u32 column fit one row");
    let mut sums2 = vec![0i64; 2 * GROUPS];
    p.per_row("toolbox.agg.multi.sum_multi_c2_g12.cycles_per_row", n, || {
        batches(n, |s, l| {
            let cols = [ColRef::U16(&v14[s..s + l]), ColRef::U32(&v28[s..s + l])];
            multi::sum_multi(&gids[s..s + l], &cols, &layout, GROUPS, &mut sums2, level);
        });
        std::hint::black_box(&sums2);
    });
}

fn engine(p: &mut Probe<'_>) -> Result<(), String> {
    let reps = p.reps();
    let table = gen::sweep_table(p.scale.probe_sweep_rows, p.seed);
    let rows = table.num_rows();
    let seg = &table.segments()[0];
    let seg_rows = seg.num_rows() as f64;
    let query_at = |s: f64| gen::sweep_query(s, gen::serial());

    // Filter and group-id cost at 10 %, under the chooser's own strategies.
    let q10 = query_at(0.10);
    let plan10 = plan_query(&table, &q10)?;
    let cost = replay_median(p, &plan10, seg, chosen_agg(&table, &q10)?, None)?;
    p.put("core.filter.eval_batch.sweep.cycles_per_row", cost.filter as f64 / seg_rows);
    p.put("core.groupid.extract_batch.sweep.cycles_per_row", cost.groupid as f64 / seg_rows);

    // Aggregate processing under each forced selection strategy, on either
    // side of the gather/compact crossover.
    for (label, s) in [("sweep2", 0.02), ("sweep30", 0.30)] {
        let q = query_at(s);
        let plan = plan_query(&table, &q)?;
        let strategy = chosen_agg(&table, &q)?;
        for selection in SelectionStrategy::DENSE {
            let cost = replay_median(p, &plan, seg, strategy, Some(selection))?;
            p.put(
                format!(
                    "core.aggproc.process_batch.{label}.{}.cycles_per_row",
                    sel_slug(selection)
                ),
                cost.aggproc as f64 / seg_rows,
            );
        }
    }

    // The per-selectivity split one round hides, the round's regret against
    // the best forced pair per selectivity, and the round's exact counts.
    let (mut adaptive_sum, mut best_sum) = (0.0, 0.0);
    let mut round = ExecStats::default();
    for (label, s) in gen::SWEEP_SELECTIVITIES {
        let q = query_at(s);
        let (adaptive, best) = adaptive_vs_best_forced(reps, &table, &q)?;
        p.put(format!("core.query.execute.sweep_{label}.cycles_per_row"), adaptive / rows as f64);
        adaptive_sum += adaptive;
        best_sum += best;
        round.merge(&bipie_core::execute(&table, &q).map_err(|e| e.to_string())?.stats);
    }
    p.put("core.strategy.regret_pct.sweep", (adaptive_sum - best_sum) / best_sum * 100.0);
    for s in SelectionStrategy::ALL {
        p.put(
            format!("core.stats.selection_batches.{}", sel_slug(s)),
            round.selection_count(s) as f64,
        );
    }
    for a in AggStrategy::ALL {
        p.put(format!("core.stats.agg_segments.{}", agg_slug(a)), round.agg_count(a) as f64);
    }

    // The chooser itself, on this shape's parameters.
    let config = StrategyConfig::default();
    let params = AggChoiceParams {
        num_groups_effective: GROUPS + 1,
        num_sums: 2,
        input_bytes: vec![2, 4],
        all_packed_narrow: false,
        multi_layout_fits: true,
        est_selectivity: 0.10,
        runwise_runs_fraction: None,
    };
    p.nanos_each("core.strategy.choose_agg.ns", 10_000, || {
        std::hint::black_box(config.choose_agg(std::hint::black_box(&params)));
    });
    p.nanos_each("core.strategy.choose_selection.ns", 10_000, || {
        std::hint::black_box(config.choose_selection(std::hint::black_box(0.10), 28));
    });
    Ok(())
}
