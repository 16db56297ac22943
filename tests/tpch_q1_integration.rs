//! Cross-crate integration around TPC-H Query 1 (§6.3): the engine's Q1
//! answers equal the row-at-a-time reference, stay identical under every
//! forced strategy pairing and SIMD level, and the paper's execution-plan
//! claims (segment elimination, special-group selection, multi-aggregate
//! sums) are observable in the stats.

#![expect(clippy::disallowed_types, reason = "the suite reads finished trace events")]

use bipie::columnstore::{Date, Value};
use bipie::core::aggproc::{AggInput, ExprPath, LanePlan};
use bipie::core::expr::resolve_many;
use bipie::core::reference::execute_reference;
use bipie::core::{
    execute, AggExpr, AggStrategy, DecisionRecord, Expr, Predicate, ProfileLevel, QueryBuilder,
    QueryOptions, SelectionStrategy, TraceEvent,
};
use bipie::tpch::{q1_cutoff, q1_query, run_q1, run_q1_result, LineItemGen};

fn small_lineitem() -> bipie::columnstore::Table {
    LineItemGen { scale_factor: 0.004, segment_rows: 6000, ..Default::default() }.generate()
}

#[test]
fn q1_engine_equals_reference_multi_segment() {
    let table = small_lineitem();
    assert!(table.segments().len() >= 3, "want a multi-segment table");
    let query = q1_query(QueryOptions::default());
    let fast = execute(&table, &query).unwrap();
    let slow = execute_reference(&table, &query).unwrap();
    assert_eq!(fast.rows, slow.rows);
    assert_eq!(fast.num_rows(), 4);
}

#[test]
fn q1_invariant_across_all_strategies_and_levels() {
    use bipie::toolbox::SimdLevel;
    let table = small_lineitem();
    let baseline = run_q1(&table, QueryOptions::default()).unwrap().0;
    for agg in AggStrategy::ALL {
        for sel in SelectionStrategy::ALL {
            for level in SimdLevel::available() {
                let options = QueryOptions {
                    forced_agg: Some(agg),
                    forced_selection: Some(sel),
                    level,
                    parallel: false,
                    ..Default::default()
                };
                let rows = run_q1(&table, options).unwrap().0;
                assert_eq!(rows, baseline, "{agg:?}+{sel:?}@{level}");
            }
        }
    }
}

#[test]
fn q1_plan_matches_paper_description() {
    let table = small_lineitem();
    let (_, stats) = run_q1(&table, QueryOptions::default()).unwrap();
    // 98% selectivity -> special-group selection everywhere.
    assert_eq!(stats.selection_count(SelectionStrategy::SpecialGroup), stats.batches, "{stats:?}");
    // Five distinct sums of mixed widths -> multi-aggregate on every segment.
    assert_eq!(stats.agg_count(AggStrategy::MultiAggregate), stats.segments_scanned, "{stats:?}");
    assert_eq!(stats.wide_group_segments, 0, "dict codes keep the narrow path");
    // ...once per segment, however many workers share it: morsels of one
    // 512-row batch make every segment a stolen-from one.
    for threads in [1usize, 2, 4] {
        let options = QueryOptions {
            threads: Some(threads),
            batch_rows: 512,
            morsel_rows: 512,
            ..Default::default()
        };
        let (_, par) = run_q1(&table, options).unwrap();
        assert_eq!(par.agg_segments, stats.agg_segments, "threads={threads}: {par:?}");
        assert_eq!(par.agg_segments.iter().sum::<usize>(), par.segments_scanned);
    }
}

#[test]
fn q1_sums_take_the_register_row_step() {
    // Q1's distinct SUM/AVG inputs in SELECT order, resolved together as
    // `execute` resolves them (charge reuses disc_price through CSE).
    let table = small_lineitem();
    let query = q1_query(QueryOptions::default());
    let mut exprs: Vec<&Expr> = Vec::new();
    for agg in &query.aggregates {
        if let AggExpr::Sum(e) | AggExpr::Avg(e) = agg {
            if !exprs.contains(&e) {
                exprs.push(e);
            }
        }
    }
    let resolved = resolve_many(&exprs, &|name| table.column_index(name)).unwrap();
    // Every segment's lane plan has the row builder's register-step shape:
    // a planner change that drops Q1 to the slot-lane chunks fails here.
    for (s, seg) in table.segments().iter().enumerate() {
        let inputs: Vec<AggInput<'_>> = resolved.iter().map(|e| AggInput::plan(seg, e)).collect();
        let plan = LanePlan::build(seg, &inputs, &[]);
        assert_eq!(plan.expr_path(), ExprPath::Lanes, "segment {s}");
        assert!(plan.register_row_step(), "segment {s}: {plan:?}");
    }
}

#[test]
fn date_segment_elimination() {
    // A predicate before any generated shipdate eliminates all segments.
    let table = small_lineitem();
    let q = QueryBuilder::new()
        .filter(Predicate::lt("l_shipdate", Value::Date(Date::from_ymd(1990, 1, 1))))
        .group_by("l_returnflag")
        .aggregate(bipie::core::AggExpr::count_star())
        .build();
    let r = execute(&table, &q).unwrap();
    assert_eq!(r.num_rows(), 0);
    assert_eq!(r.stats.segments_scanned, 0);
    assert!(r.stats.segments_eliminated >= 3);
}

#[test]
fn q1_profile_events_tile_the_stats_and_cover_every_batch() {
    use std::collections::BTreeMap;
    let table = small_lineitem();
    let options = QueryOptions { profile: ProfileLevel::Spans, ..Default::default() };
    let result = run_q1_result(&table, options).unwrap();
    let (profile, stats) = (&result.profile, &result.stats);
    if bipie::core::observability_compiled_out() {
        return;
    }
    assert!(!profile.is_empty());
    assert_eq!(profile.dropped_events, 0, "small scan must not overflow the buffers");

    // Every batch logged exactly one selection decision, with the chooser's
    // inputs in range...
    let mut by_segment: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let mut decisions = 0usize;
    for event in &profile.events {
        if let TraceEvent::Decision(DecisionRecord::Selection {
            segment,
            row_start,
            rows,
            bits,
            observed_selectivity,
            forced,
            ..
        }) = event
        {
            decisions += 1;
            assert!((0.0..=1.0).contains(observed_selectivity), "{event:?}");
            assert!((1..=64).contains(bits), "{event:?}");
            assert!(!forced, "no forced strategies in this query");
            by_segment.entry(*segment).or_default().push((*row_start, *rows));
        }
    }
    assert_eq!(decisions, stats.batches, "one decision per batch");

    // ...and the decisions tile every scanned segment: contiguous from row
    // 0 to the segment's full row count, no gaps, no overlaps.
    assert_eq!(by_segment.len(), stats.segments_scanned);
    for (seg, batches) in &mut by_segment {
        batches.sort_unstable();
        let mut next = 0u64;
        for &(start, rows) in batches.iter() {
            assert_eq!(start, next, "segment {seg}: gap or overlap at row {start}");
            next = start + rows;
        }
        assert_eq!(next, table.segments()[*seg as usize].num_rows() as u64, "segment {seg}");
    }

    // Every scanned segment logged its aggregation decision (with inputs).
    let mut agg_segments: Vec<u32> = profile
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decision(DecisionRecord::Agg {
                segment,
                num_sums,
                num_groups_effective,
                ..
            }) => {
                assert_eq!(*num_sums, 5, "Q1 has five distinct sums");
                assert!(*num_groups_effective > 0);
                Some(*segment)
            }
            _ => None,
        })
        .collect();
    agg_segments.dedup();
    assert_eq!(agg_segments.len(), stats.segments_scanned);

    // The rendered tree names the strategies the plan test pins.
    let explain = profile.render_explain(stats);
    assert!(explain.contains("Special Group"), "{explain}");
    assert!(explain.contains("Multi"), "{explain}");
    assert!(explain.contains("EXPLAIN ANALYZE"), "{explain}");

    // And the profiled run still returns the right answer.
    let baseline = run_q1(&table, QueryOptions::default()).unwrap().0;
    assert_eq!(bipie::tpch::q1_rows(&result), baseline);
}

#[test]
fn q1_cutoff_is_the_spec_date() {
    assert_eq!(q1_cutoff(), Date::from_ymd(1998, 9, 2));
}

#[test]
fn q1_totals_are_scale_consistent() {
    // Doubling the scale factor roughly doubles counts (same distributions).
    let t1 = LineItemGen { scale_factor: 0.002, ..Default::default() }.generate();
    let t2 = LineItemGen { scale_factor: 0.004, ..Default::default() }.generate();
    let c1: u64 =
        run_q1(&t1, QueryOptions::default()).unwrap().0.iter().map(|r| r.count_order).sum();
    let c2: u64 =
        run_q1(&t2, QueryOptions::default()).unwrap().0.iter().map(|r| r.count_order).sum();
    let ratio = c2 as f64 / c1 as f64;
    assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
}
