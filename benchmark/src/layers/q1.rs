//! Layer metrics measured on the `q1_scan` shape: LINEITEM and TPC-H Q1.
//! Kernel rows use the widths Q1's columns decode to (7-bit quantity → u8,
//! 14-bit → u16, 21/28-bit prices → u32) and its four groups.

use std::time::{Duration, Instant};

use bipie_columnstore::{Table, BATCH_ROWS};
use bipie_core::scan::{scan_table, ScanOptions};
use bipie_core::trace::Phase;
use bipie_core::{AggStrategy, Expr, ProfileLevel, QueryOptions};
use bipie_toolbox::agg::sort_based::SortedBatch;
use bipie_toolbox::agg::{in_register, multi, scalar, sort_based, ColRef};
use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::radix::fused_scale_add_u8;
use bipie_toolbox::select::special_group::assign_special_group;
use bipie_tpch::lineitem::ROWS_PER_SF;
use bipie_tpch::{q1_query, q1_rows};

use super::{
    adaptive_vs_best_forced, agg_slug, batches, interleaved_medians, median_cycles, plan_query,
    presort, replay_median, Probe, ReplayPlan, Variant,
};
use crate::env::{nproc, stream_read_gb_s};
use crate::gen;

const GROUPS: usize = 4;

pub fn measure(p: &mut Probe<'_>) -> Result<(), String> {
    kernels(p);
    engine(p)
}

fn kernels(p: &mut Probe<'_>) {
    let (n, seed, level) = (p.scale.kernel_elems, p.seed, p.level);

    let pack = |bits: u8| PackedVec::pack(&gen::values(n, bits, seed), bits);
    let pv7 = pack(7);
    let mut out8 = vec![0u8; n];
    p.per_row("toolbox.bitpack.unpack_b7_u8.cycles_per_row", n, || {
        batches(n, |s, l| pv7.unpack_into_u8(s, &mut out8[s..s + l], level));
        std::hint::black_box(&out8);
    });
    let pv14 = pack(14);
    let mut out16 = vec![0u16; n];
    p.per_row("toolbox.bitpack.unpack_b14_u16.cycles_per_row", n, || {
        batches(n, |s, l| pv14.unpack_into_u16(s, &mut out16[s..s + l], level));
        std::hint::black_box(&out16);
    });
    let mut out32 = vec![0u32; n];
    for (bits, name) in [
        (21u8, "toolbox.bitpack.unpack_b21_u32.cycles_per_row"),
        (28u8, "toolbox.bitpack.unpack_b28_u32.cycles_per_row"),
    ] {
        let pv = pack(bits);
        p.per_row(name, n, || {
            batches(n, |s, l| pv.unpack_into_u32(s, &mut out32[s..s + l], level));
            std::hint::black_box(&out32);
        });
    }

    // Q1's group id: returnflag code (3 values) * 2 + linestatus code.
    let flag = gen::gids(n, 3, seed);
    let status = gen::gids(n, 2, seed);
    let mut acc = flag.clone();
    p.per_row("toolbox.radix.fused_scale_add_u8.cycles_per_row", n, || {
        // Re-seeded inside the timed call: the kernel works in place, and a
        // second pass over its own output would leave the u8 domain.
        acc.copy_from_slice(&flag);
        batches(n, |s, l| fused_scale_add_u8(&mut acc[s..s + l], &status[s..s + l], 2, level));
        std::hint::black_box(&acc);
    });

    let gids = gen::gids(n, GROUPS, seed);
    let sel = gen::selection(n, 0.98, seed);
    p.per_row("toolbox.select.special_group.cycles_per_row", n, || {
        batches(n, |s, l| {
            assign_special_group(
                &gids[s..s + l],
                &sel[s..s + l],
                GROUPS as u8,
                &mut out8[s..s + l],
                level,
            )
        });
        std::hint::black_box(&out8);
    });

    let v28: Vec<u32> = gen::values(n, 28, seed).into_iter().map(|v| v as u32).collect();
    let v14: Vec<u16> = gen::values(n, 14, seed).into_iter().map(|v| v as u16).collect();
    let mut sums = vec![0i64; GROUPS];
    p.per_row("toolbox.agg.scalar.sum_single_array_u32.cycles_per_row", n, || {
        batches(n, |s, l| {
            scalar::sum_single_array(&gids[s..s + l], ColRef::U32(&v28[s..s + l]), &mut sums)
        });
        std::hint::black_box(&sums);
    });
    let mut counts = vec![0u64; GROUPS];
    p.per_row("toolbox.agg.in_register.count_g4.cycles_per_row", n, || {
        batches(n, |s, l| in_register::count_groups(&gids[s..s + l], GROUPS, &mut counts, level));
        std::hint::black_box(&counts);
    });
    p.per_row("toolbox.agg.in_register.sum_u16_g4.cycles_per_row", n, || {
        batches(n, |s, l| {
            in_register::sum_u16(&gids[s..s + l], &v14[s..s + l], GROUPS, &mut sums, level)
        });
        std::hint::black_box(&sums);
    });

    let mut sorted = SortedBatch::default();
    p.per_row("toolbox.agg.sort_based.bucket_sort_g4.cycles_per_row", n, || {
        batches(n, |s, l| sort_based::bucket_sort(&gids[s..s + l], None, GROUPS, &mut sorted));
        std::hint::black_box(&sorted);
    });
    let presorted = presort(&gids, GROUPS);
    p.per_row("toolbox.agg.sort_based.sum_sorted_packed_b14_g4.cycles_per_row", n, || {
        for (i, sorted) in presorted.iter().enumerate() {
            sort_based::sum_sorted_packed(&pv14, sorted, (i * BATCH_ROWS) as u32, &mut sums, level);
        }
        std::hint::black_box(&sums);
    });

    // Eight 2-byte columns fill the 32-byte accumulator row exactly.
    let cols16: Vec<Vec<u16>> = (0..8u64)
        .map(|c| gen::values(n, 14, seed ^ (c + 1)).into_iter().map(|v| v as u16).collect())
        .collect();
    let layout = multi::RowLayout::plan(&[2; 8]).expect("eight 2-byte columns fit a 32-byte row");
    let mut sums8 = vec![0i64; 8 * GROUPS];
    p.per_row("toolbox.agg.multi.sum_multi_c8_g4.cycles_per_row", n, || {
        batches(n, |s, l| {
            let cols: Vec<ColRef<'_>> = cols16.iter().map(|c| ColRef::U16(&c[s..s + l])).collect();
            multi::sum_multi(&gids[s..s + l], &cols, &layout, GROUPS, &mut sums8, level);
        });
        std::hint::black_box(&sums8);
    });
}

fn engine(p: &mut Probe<'_>) -> Result<(), String> {
    let (seed, reps) = (p.seed, p.reps());

    let started = Instant::now();
    let table = gen::lineitem(p.scale.probe_q1_sf, seed);
    let rows = table.num_rows();
    p.put("tpch.lineitem.generate.rows_per_s", rows as f64 / started.elapsed().as_secs_f64());

    let query = q1_query(gen::serial());
    let plan = plan_query(&table, &query)?;
    let seg = &table.segments()[0];
    let seg_rows = seg.num_rows();
    let per_seg_row = |cycles: u64| cycles as f64 / seg_rows as f64;

    // The replay, once per aggregation strategy; filter, group-id and
    // finish rows come from the strategy the chooser picks for Q1.
    let mut multi_cost = None;
    for strategy in AggStrategy::DENSE {
        let cost = replay_median(p, &plan, seg, strategy, None)?;
        p.put(
            format!("core.aggproc.process_batch.q1.{}.cycles_per_row", agg_slug(strategy)),
            per_seg_row(cost.aggproc),
        );
        if strategy == AggStrategy::MultiAggregate {
            multi_cost = Some(cost);
        }
    }
    let cost = multi_cost.expect("DENSE contains MultiAggregate");
    p.put("core.filter.eval_batch.q1.cycles_per_row", per_seg_row(cost.filter));
    p.put("core.groupid.extract_batch.q1.cycles_per_row", per_seg_row(cost.groupid));
    let us = p.cycles_to_us(cost.plan_mapper as f64);
    p.put("core.groupid.plan_segment_mapper.q1.us", us);
    let us = p.cycles_to_us(cost.finish as f64);
    p.put("core.aggproc.finish.q1.us", us);
    let replayed = per_seg_row(cost.filter + cost.groupid + cost.aggproc);

    // Q1's charge expression over decoded columns (decoding is not timed).
    let charge = Expr::col("l_extendedprice")
        .mul(Expr::lit(100).sub(Expr::col("l_discount")))
        .mul(Expr::lit(100).add(Expr::col("l_tax")))
        .resolve(&|name| table.column_index(name))
        .map_err(|e| e.to_string())?;
    let mut decoded: Vec<Vec<i64>> = vec![Vec::new(); table.specs().len()];
    for col in charge.columns() {
        decoded[col] = vec![0i64; seg_rows];
        seg.column(col).decode_i64_into(0, &mut decoded[col]);
    }
    let mut out = Vec::new();
    let mut scratch = bipie_core::expr::ExprScratch::default();
    p.per_row("core.expr.eval_batch.q1_charge.cycles_per_row", seg_rows, || {
        batches(seg_rows, |s, l| {
            let by_col: Vec<&[i64]> =
                decoded.iter().map(|v| if v.is_empty() { &v[..] } else { &v[s..s + l] }).collect();
            charge.eval_batch(l, &|col| by_col[col], &mut out, &mut scratch);
        });
        std::hint::black_box(&out);
    });
    drop(decoded);

    // The fused scan itself, through its public entry point.
    let scan_opts = ScanOptions { parallel: false, ..ScanOptions::default() };
    let scan = |table: &Table, plan: &ReplayPlan| {
        let r = scan_table(
            table,
            plan.filter.as_ref(),
            &plan.group_cols,
            &plan.sum_exprs,
            &[],
            &scan_opts,
        );
        std::hint::black_box(r.ok());
    };
    let scan_cpr = median_cycles(reps, || scan(&table, &plan)) / rows as f64;
    p.put("core.scan.scan_table.q1.cycles_per_row", scan_cpr);
    p.put("core.scan.replay_residual_pct.q1", (scan_cpr - replayed) / scan_cpr * 100.0);

    // scan_table ⊂ query::execute: what `execute` adds (resolve, plan,
    // finalize, telemetry publication) is microseconds, so the difference of
    // the two is taken on a one-batch table, where it is not lost in the
    // noise of a 20 ms scan.
    let small = gen::lineitem(BATCH_ROWS as f64 / ROWS_PER_SF, seed);
    let small_plan = plan_query(&small, &query)?;
    const INNER: usize = 50;
    let mut variants: Vec<Variant<'_>> = vec![
        Box::new(|| (0..INNER).for_each(|_| scan(&small, &small_plan))),
        Box::new(|| {
            for _ in 0..INNER {
                std::hint::black_box(bipie_core::execute(&small, &query).ok());
            }
        }),
    ];
    let m = interleaved_medians(reps, &mut variants);
    drop(variants);
    let us = p.cycles_to_us((m[1] - m[0]) / INNER as f64);
    p.put("core.query.plan_finalize.q1.us", us);

    let result = bipie_core::execute(&table, &query).map_err(|e| e.to_string())?;
    p.micros("tpch.q1.q1_rows.us", || {
        std::hint::black_box(q1_rows(&result));
    });

    let (adaptive, best) = adaptive_vs_best_forced(reps, &table, &query)?;
    p.put("core.strategy.regret_pct.q1", (adaptive - best) / best * 100.0);

    // Governor and profiler overheads: the same query with one option
    // changed, timed round-robin against the plain one.
    let with = |change: fn(&mut QueryOptions)| {
        let mut q = query.clone();
        change(&mut q.options);
        q
    };
    let governed = with(|o| {
        o.time_budget = Some(Duration::from_secs(3600));
        o.mem_budget = Some(1 << 30);
    });
    let counters = with(|o| o.profile = ProfileLevel::Counters);
    let spans = with(|o| o.profile = ProfileLevel::Spans);
    let parallel = with(|o| {
        o.parallel = true;
        o.threads = Some(nproc());
    });
    let timed = [&query, &governed, &counters, &spans, &parallel];
    let mut variants: Vec<Variant<'_>> = timed
        .iter()
        .map(|q| {
            let table = &table;
            Box::new(move || {
                std::hint::black_box(bipie_core::execute(table, q).ok());
            }) as Variant<'_>
        })
        .collect();
    let m = interleaved_medians(reps, &mut variants);
    drop(variants);
    let pct = |x: f64| (x - m[0]) / m[0] * 100.0;
    p.put("core.governor.active_overhead_pct.q1", pct(m[1]));
    p.put("core.trace.counters_overhead_pct.q1", pct(m[2]));
    p.put("core.trace.spans_overhead_pct.q1", pct(m[3]));
    p.put("core.pool.parallel_speedup.q1", m[0] / m[4]);

    let par = bipie_core::execute(&table, &parallel).map_err(|e| e.to_string())?;
    if par.rows != result.rows {
        return Err("parallel Q1 returns other rows than serial Q1".into());
    }
    p.put("core.stats.morsels_scanned.q1_parallel", par.stats.morsels_scanned as f64);
    p.put("core.stats.morsel_steals.q1_parallel", par.stats.morsel_steals as f64);

    // The engine's own phase totals: informational, never the basis of a
    // claim (spans inside the program are a later change).
    let profiled = bipie_core::execute(&table, &spans).map_err(|e| e.to_string())?;
    for phase in [Phase::Plan, Phase::Selection, Phase::Unpack, Phase::Aggregation] {
        p.put(
            format!("core.trace.phase.{}.cycles_per_row.q1", phase.label()),
            profiled.profile.phase(phase).cycles as f64 / rows as f64,
        );
    }

    let stream = stream_read_gb_s(p.scale.stream_probe_bytes, 5);
    let hz = p.clock.tsc_hz();
    p.put("machine.stream_read_gb_s", stream);
    p.put("machine.tsc_hz", hz);
    let scan_gb_s = result.stats.bytes_scanned as f64 / (m[0] / hz) / 1e9;
    p.put("bench.scan_fraction_of_stream.q1", scan_gb_s / stream);

    Ok(())
}
