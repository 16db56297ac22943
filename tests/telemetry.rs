//! Process-wide telemetry integration (DESIGN.md §14): a mixed workload of
//! back-to-back queries must leave the process registry with per-strategy
//! pick counters *exactly* equal to the sum of the queries' `ExecStats`,
//! a decision log whose records tile every batch/segment decision, and a
//! Chrome trace that loads in Perfetto. The trace exposition format itself
//! is pinned by an exact-string golden from a synthetic profile.

#![expect(clippy::disallowed_types, reason = "the suite builds and reads trace events")]

use bipie::core::{
    telemetry, AggStrategy, DecisionRecord, Phase, ProfileLevel, QueryOptions, QueryProfile,
    SelectionStrategy, SpanLoc, TraceEvent,
};
use bipie::tpch::{run_q1_result, LineItemGen};

fn small_lineitem() -> bipie::columnstore::Table {
    LineItemGen { scale_factor: 0.004, segment_rows: 6000, ..Default::default() }.generate()
}

/// Structural lint for a Chrome trace document: one balanced JSON object
/// with the trace-event envelope Perfetto expects.
fn assert_perfetto_loadable(trace: &str) {
    assert!(trace.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["), "{trace}");
    assert!(trace.ends_with("]}"), "{trace}");
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escape = false;
    for c in trace.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced trace document");
    }
    assert_eq!(depth, 0, "unbalanced trace document");
    assert!(!in_str, "unterminated string in trace document");
}

#[test]
fn chrome_trace_golden_from_synthetic_profile() {
    // hz = 1e6 maps one cycle to exactly one microsecond, making the
    // timestamp arithmetic visible in the expected string: the span starts
    // the timeline at ts 0, the decision instants land at their cycle
    // offsets from it.
    let profile = QueryProfile {
        level: ProfileLevel::Spans,
        workers: 1,
        events: vec![
            TraceEvent::Span {
                phase: Phase::Selection,
                worker: 0,
                loc: SpanLoc::at(0, 1).with_selection(SelectionStrategy::Gather),
                rows: 1024,
                start_cycles: 1_000,
                cycles: 500,
                wall_nanos: 500,
            },
            TraceEvent::Decision(DecisionRecord::Selection {
                at_cycles: 1_600,
                worker: 0,
                segment: 0,
                morsel: 1,
                row_start: 0,
                bits: 8,
                observed_selectivity: 0.125,
                chosen: SelectionStrategy::Gather,
                forced: false,
                cycles: 500,
                rows: 1024,
            }),
            TraceEvent::Decision(DecisionRecord::Agg {
                at_cycles: 2_000,
                segment: 0,
                num_groups_effective: 5,
                num_sums: 2,
                num_minmax: 0,
                est_selectivity: 1.0,
                all_packed_narrow: true,
                multi_layout_fits: true,
                chosen: AggStrategy::MultiAggregate,
                forced: false,
                cycles: 0,
                rows: 0,
            }),
        ],
        ..QueryProfile::default()
    };
    let expected = concat!(
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, ",
        "\"args\": {\"name\": \"worker 0\"}}, ",
        "{\"name\": \"selection\", \"cat\": \"phase\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, ",
        "\"ts\": 0.000, \"dur\": 500.000, \"args\": {\"segment\": 0, \"morsel\": 1, ",
        "\"rows\": 1024, \"cycles\": 500, \"wall_nanos\": 500, \"stolen\": false, ",
        "\"selection\": \"Gather\"}}, ",
        "{\"name\": \"decision:selection\", \"cat\": \"decision\", \"ph\": \"I\", \"s\": \"t\", ",
        "\"pid\": 0, \"tid\": 0, \"ts\": 600.000, \"args\": {\"segment\": 0, \"morsel\": 1, ",
        "\"row_start\": 0, \"bits\": 8, \"observed_selectivity\": 0.1250, ",
        "\"chosen\": \"Gather\", \"forced\": false, \"cycles\": 500, \"rows\": 1024}}, ",
        "{\"name\": \"decision:agg\", \"cat\": \"decision\", \"ph\": \"I\", \"s\": \"t\", ",
        "\"pid\": 0, \"tid\": 0, \"ts\": 1000.000, \"args\": {\"segment\": 0, ",
        "\"num_groups_effective\": 5, \"num_sums\": 2, \"num_minmax\": 0, ",
        "\"est_selectivity\": 1.0000, \"all_packed_narrow\": true, ",
        "\"multi_layout_fits\": true, \"chosen\": \"Multi\", \"forced\": false, ",
        "\"cycles\": 0, \"rows\": 0}}]}"
    );
    let trace = profile.to_chrome_trace_with_hz(1e6);
    assert_eq!(trace, expected);
    assert_perfetto_loadable(&trace);
}

fn span(phase: Phase, worker: u32, loc: SpanLoc, rows: u64, start: u64, cycles: u64) -> TraceEvent {
    TraceEvent::Span { phase, worker, loc, rows, start_cycles: start, cycles, wall_nanos: cycles }
}

fn agg_decision(segment: u32, groups: u32, chosen: AggStrategy, forced: bool) -> TraceEvent {
    TraceEvent::Decision(DecisionRecord::Agg {
        at_cycles: 100 + u64::from(segment),
        segment,
        num_groups_effective: groups,
        num_sums: 2,
        num_minmax: 1,
        est_selectivity: 0.5,
        all_packed_narrow: true,
        multi_layout_fits: true,
        chosen,
        forced,
        cycles: 0,
        rows: 0,
    })
}

/// EXPLAIN and the JSON profile, pinned byte for byte (both strings were
/// captured at PR 23, before `QueryProfile::segments` existed) over a
/// synthetic `Spans` profile: two segments shared by two workers (worker 1
/// steals a morsel of segment 0), a forced aggregation decision, two
/// selection strategies inside segment 0, a wide-group segment, and a
/// mutable tail. The events arrive as the scan absorbs them: worker-major,
/// the coordinator (tail encode, aggregation decisions, plan span, merge)
/// last.
#[test]
fn explain_golden_from_synthetic_profile() {
    use bipie::core::{ExecStats, PhaseTotals, WorkerRing};
    use AggStrategy::{MultiAggregate, Scalar};
    use SelectionStrategy::{Compact, Gather};

    // One-batch morsels as the scan records them — `Selection` span, the
    // decision that closes it, the aggregation span under both labels, the
    // `SegmentScan` span around them: (worker, segment, morsel, stolen,
    // first row, bits, selectivity, strategies, start stamp, and the
    // selection / aggregation / scan spans' cycles).
    let morsels = [
        (0, 0, 0, false, 0, 14, 0.02, Gather, MultiAggregate, 1_000, [400, 2_000, 2_500]),
        (0, 0, 1, false, 4096, 14, 0.75, Compact, MultiAggregate, 4_000, [300, 3_000, 3_400]),
        (1, 1, 0, false, 8192, 32, 0.5, Compact, Scalar, 1_100, [500, 9_000, 9_600]),
        (1, 0, 2, true, 8192, 14, 0.04, Gather, MultiAggregate, 11_000, [420, 2_100, 2_600]),
    ];
    let mut events = Vec::new();
    for (worker, segment, morsel, stolen, row_start, bits, selectivity, chosen, agg, at, cycles) in
        morsels
    {
        let [select_cycles, agg_cycles, scan_cycles] = cycles;
        let loc = SpanLoc::at(segment, morsel);
        let labelled = loc.with_selection(chosen).with_agg(agg);
        events.extend([
            span(Phase::Selection, worker, loc.with_selection(chosen), 4096, at, select_cycles),
            TraceEvent::Decision(DecisionRecord::Selection {
                at_cycles: at + select_cycles,
                worker,
                segment,
                morsel,
                row_start,
                bits,
                observed_selectivity: selectivity,
                chosen,
                forced: false,
                cycles: select_cycles,
                rows: 4096,
            }),
            span(Phase::Aggregation, worker, labelled, 4096, at + select_cycles + 10, agg_cycles),
            span(Phase::SegmentScan, worker, loc.with_stolen(stolen), 4096, at - 10, scan_cycles),
        ]);
    }
    // The coordinator's record, the tail's encode first.
    events.push(span(Phase::MutableTail, 0, SpanLoc::none(), 77, 14_000, 900));
    events.push(agg_decision(0, 5, MultiAggregate, true));
    events.push(agg_decision(1, 70_000, Scalar, false));
    events.push(span(Phase::Plan, 0, SpanLoc::none(), 16_384, 50, 200));
    events.push(span(Phase::ParallelMerge, 0, SpanLoc::none(), 9, 13_700, 250));

    let mut phases = [PhaseTotals::default(); Phase::COUNT];
    for e in &events {
        if let TraceEvent::Span { phase, rows, cycles, wall_nanos, .. } = e {
            let t = &mut phases[*phase as usize];
            t.count += 1;
            t.rows += rows;
            t.cycles += cycles;
            t.wall_nanos += wall_nanos;
        }
    }
    let profile = QueryProfile {
        level: ProfileLevel::Spans,
        workers: 4,
        phases,
        events,
        dropped_events: 3,
        worker_rings: vec![
            WorkerRing { worker: 0, events: 8, capacity: 16_384, dropped: 0 },
            WorkerRing { worker: 1, events: 8, capacity: 8, dropped: 3 },
        ],
    };
    let mut stats = ExecStats {
        batches: 4,
        rows_scanned: 16_384,
        rows_pruned: 8192,
        segments_scanned: 2,
        segments_eliminated: 1,
        morsels_scanned: 4,
        morsel_steals: 1,
        mutable_rows: 77,
        governor_checks: 6,
        mem_reserved_peak: 123_456,
        ..ExecStats::default()
    };
    stats.selection_batches[Gather as usize] = 2;
    stats.selection_batches[Compact as usize] = 2;
    stats.agg_segments[MultiAggregate as usize] = 1;
    stats.agg_segments[Scalar as usize] = 1;

    let explain = concat!(
        "EXPLAIN ANALYZE  (profile=Spans, workers=4, dropped_events=3)\n",
        "Query: 4 batches, 16384 rows scanned (8192 pruned), 2 segments (1 eliminated), 4 morsels (1 stolen), 77 mutable rows\n",
        "Governor: 6 checks, 123456 bytes peak reserved\n",
        "Tracer rings: w0 8/16384 (0.0%); w1 8/8 (100.0%, 3 dropped)\n",
        "├─ phases\n",
        "│    plan           spans=1      rows=16384     cycles=200          (0.01 cy/row, 0.000 ms wall)\n",
        "│    segment_scan   spans=4      rows=16384     cycles=18100        (1.10 cy/row, 0.018 ms wall)\n",
        "│    selection      spans=4      rows=16384     cycles=1620         (0.10 cy/row, 0.002 ms wall)\n",
        "│    aggregation    spans=4      rows=16384     cycles=16100        (0.98 cy/row, 0.016 ms wall)\n",
        "│    mutable_tail   spans=1      rows=77        cycles=900          (11.69 cy/row, 0.001 ms wall)\n",
        "│    parallel_merge spans=1      rows=9         cycles=250          (27.78 cy/row, 0.000 ms wall)\n",
        "├─ segment 0  rows=12288  range=[0,12288)  ranges=3  steals=1  cycles=8500\n",
        "│    decision agg: Multi    groups=5 sums=2 minmax=1 est_sel=0.500 (forced)\n",
        "│    Gather        batches=2     rows=8192      sel=0.030  bits=14  select 0.10 cy/r  agg[Multi] 0.50 cy/r\n",
        "│    Compact       batches=1     rows=4096      sel=0.750  bits=14  select 0.07 cy/r  agg[Multi] 0.73 cy/r\n",
        "├─ segment 1  rows=4096  range=[8192,12288)  ranges=1  steals=0  cycles=9600\n",
        "│    decision agg: Scalar   groups=70000 sums=2 minmax=1 est_sel=0.500\n",
        "│    Compact       batches=1     rows=4096      sel=0.500  bits=32  select 0.12 cy/r  agg[Scalar] 2.20 cy/r\n",
        "├─ mutable tail  rows=77  cycles=900\n",
        "├─ parallel merge  spans=1  cycles=250  (0.000 ms wall)\n",
        "└─ strategies  selection[Gather=2, Compact=2]  aggregation[Scalar=1, Multi=1]\n"
    );
    assert_eq!(profile.render_explain(&stats), explain);
    let json = concat!(
        "{\"level\": \"Spans\", \"workers\": 4, \"dropped_events\": 3, \"phases\": {",
        "\"plan\": {\"spans\": 1, \"rows\": 16384, \"cycles\": 200, \"wall_nanos\": 200, \"cycles_per_row\": 0.0122}, ",
        "\"segment_scan\": {\"spans\": 4, \"rows\": 16384, \"cycles\": 18100, \"wall_nanos\": 18100, \"cycles_per_row\": 1.1047}, ",
        "\"selection\": {\"spans\": 4, \"rows\": 16384, \"cycles\": 1620, \"wall_nanos\": 1620, \"cycles_per_row\": 0.0989}, ",
        "\"aggregation\": {\"spans\": 4, \"rows\": 16384, \"cycles\": 16100, \"wall_nanos\": 16100, \"cycles_per_row\": 0.9827}, ",
        "\"mutable_tail\": {\"spans\": 1, \"rows\": 77, \"cycles\": 900, \"wall_nanos\": 900, \"cycles_per_row\": 11.6883}, ",
        "\"parallel_merge\": {\"spans\": 1, \"rows\": 9, \"cycles\": 250, \"wall_nanos\": 250, \"cycles_per_row\": 27.7778}}, ",
        "\"events_recorded\": 21}"
    );
    assert_eq!(profile.to_json(), json);

    // The Chrome trace prints the same records: a selection instant on its
    // worker's track, the aggregation instant priced by the rollup.
    let trace = profile.to_chrome_trace_with_hz(1e6);
    assert_perfetto_loadable(&trace);
    assert!(
        trace.contains(concat!(
            "{\"name\": \"decision:selection\", \"cat\": \"decision\", \"ph\": \"I\", ",
            "\"s\": \"t\", \"pid\": 0, \"tid\": 1, \"ts\": 11370.000, \"args\": {\"segment\": 0, ",
            "\"morsel\": 2, \"row_start\": 8192, \"bits\": 14, \"observed_selectivity\": 0.0400, ",
            "\"chosen\": \"Gather\", \"forced\": false, \"cycles\": 420, \"rows\": 4096}}"
        )),
        "{trace}"
    );
    assert!(
        trace.contains(
            "\"chosen\": \"Multi\", \"forced\": true, \"cycles\": 7100, \"rows\": 12288}}"
        ),
        "{trace}"
    );
}

/// The acceptance workload: ≥2 queries back to back, then every telemetry
/// surface checked against the queries' own artifacts. One test function
/// on purpose — the registry and decision log are process-wide, so the
/// workload and its assertions must not interleave with other publishes.
#[test]
fn mixed_workload_telemetry_is_exact() {
    let t = telemetry();
    let reg = t.registry();
    // Handles resolve to the same instruments the engine publishes into
    // (registration is idempotent on (kind, name, labels)).
    let sel_handles = [
        ("gather", SelectionStrategy::Gather),
        ("compact", SelectionStrategy::Compact),
        ("special_group", SelectionStrategy::SpecialGroup),
        ("run_span", SelectionStrategy::RunSpan),
    ]
    .map(|(label, s)| {
        let labels: &'static [(&'static str, &'static str)] = match label {
            "gather" => &[("strategy", "gather")],
            "compact" => &[("strategy", "compact")],
            "special_group" => &[("strategy", "special_group")],
            _ => &[("strategy", "run_span")],
        };
        (
            s,
            reg.counter(
                "bipie_selection_picks_total",
                "Per-batch selection-strategy decisions, by strategy.",
                labels,
            ),
        )
    });
    let agg_labels: [&'static [(&'static str, &'static str)]; 5] = [
        &[("strategy", "scalar")],
        &[("strategy", "sort_based")],
        &[("strategy", "in_register")],
        &[("strategy", "multi_aggregate")],
        &[("strategy", "run_wise")],
    ];
    let agg_handles = agg_labels.map(|labels| {
        reg.counter(
            "bipie_agg_picks_total",
            "Per-segment aggregation-strategy decisions, by strategy.",
            labels,
        )
    });
    let queries = reg.counter("bipie_queries_total", "Queries executed to completion.", &[]);
    let rows =
        reg.counter("bipie_rows_scanned_total", "Live rows of scanned encoded segments.", &[]);
    let bytes = reg.counter("bipie_bytes_scanned_total", "Encoded bytes of scanned segments.", &[]);
    let latency = reg.histogram(
        "bipie_query_latency_us",
        "End-to-end query wall latency in microseconds.",
        &[],
    );

    let before_sel = sel_handles.each_ref().map(|(_, c)| c.value());
    let before_agg = agg_handles.each_ref().map(|c| c.value());
    let before_queries = queries.value();
    let before_rows = rows.value();
    let before_bytes = bytes.value();
    let before_latency = latency.count();
    t.decision_log().clear();

    // The workload: parallel and serial Q1, both spans-profiled.
    let table = small_lineitem();
    let results = [
        run_q1_result(&table, QueryOptions { profile: ProfileLevel::Spans, ..Default::default() })
            .expect("Q1 runs"),
        run_q1_result(
            &table,
            QueryOptions { profile: ProfileLevel::Spans, parallel: false, ..Default::default() },
        )
        .expect("Q1 runs"),
    ];

    if bipie::core::observability_compiled_out() {
        return; // nothing is published, nothing is traced
    }
    // Registry pick counters == summed ExecStats, exactly.
    for (i, (s, c)) in sel_handles.iter().enumerate() {
        let expected: u64 =
            results.iter().map(|r| r.stats.selection_batches[*s as usize] as u64).sum();
        assert_eq!(c.value() - before_sel[i], expected, "selection counter {s:?}");
    }
    for (i, c) in agg_handles.iter().enumerate() {
        let expected: u64 = results.iter().map(|r| r.stats.agg_segments[i] as u64).sum();
        assert_eq!(c.value() - before_agg[i], expected, "agg counter index {i}");
    }
    assert_eq!(queries.value() - before_queries, 2);
    let total_rows: u64 = results.iter().map(|r| r.stats.rows_scanned as u64).sum();
    let total_bytes: u64 = results.iter().map(|r| r.stats.bytes_scanned as u64).sum();
    assert!(total_bytes > 0, "encoded segments must report scanned bytes");
    assert_eq!(rows.value() - before_rows, total_rows);
    assert_eq!(bytes.value() - before_bytes, total_bytes);
    assert_eq!(latency.count() - before_latency, 2);

    // The decision log tiles every batch/segment decision of both queries:
    // same totals, same per-strategy breakdown.
    let records = t.decision_log().snapshot();
    let mut got_sel = [0u64; 4];
    let mut got_agg = [0u64; 5];
    for r in &records {
        match r {
            DecisionRecord::Selection { chosen, .. } => got_sel[*chosen as usize] += 1,
            DecisionRecord::Agg { chosen, .. } => got_agg[*chosen as usize] += 1,
        }
    }
    for (s, _) in &sel_handles {
        let expected: u64 =
            results.iter().map(|r| r.stats.selection_batches[*s as usize] as u64).sum();
        assert_eq!(got_sel[*s as usize], expected, "selection records of {s:?}");
    }
    for (i, got) in got_agg.iter().enumerate() {
        let expected: u64 = results.iter().map(|r| r.stats.agg_segments[i] as u64).sum();
        assert_eq!(*got, expected, "agg records of strategy index {i}");
    }
    // Span-paired costs: at least one selection record carries cycles.
    assert!(
        records
            .iter()
            .any(|r| matches!(r, DecisionRecord::Selection { cycles, .. } if *cycles > 0)),
        "decision records carry span-paired cycle costs"
    );

    // A segment's decision record carries the segment's whole cost, however
    // many workers shared it: four workers over one-batch morsels, and every
    // `Agg` record still covers all the rows the scan visited in its segment.
    t.decision_log().clear();
    let shared = QueryOptions {
        profile: ProfileLevel::Spans,
        threads: Some(4),
        batch_rows: 512,
        morsel_rows: 512,
        ..Default::default()
    };
    let par = run_q1_result(&table, shared).expect("Q1 runs");
    let mut visited = std::collections::BTreeMap::<u32, u64>::new();
    for event in &par.profile.events {
        if let TraceEvent::Span { phase: Phase::SegmentScan, loc, rows, .. } = event {
            *visited.entry(loc.segment).or_default() += rows;
        }
    }
    let mut agg_records = 0;
    for record in t.decision_log().snapshot() {
        if let DecisionRecord::Agg { segment, rows, cycles, .. } = record {
            agg_records += 1;
            assert_eq!(rows, visited[&segment], "segment {segment}: {record:?}");
            assert!(cycles > 0, "segment {segment}: {record:?}");
        }
    }
    assert_eq!(agg_records, par.stats.segments_scanned, "one agg record per segment");

    for result in &results {
        // Ring-utilization satellite: render_explain reports per-worker
        // ring occupancy (and would report drops).
        let explain = result.profile.render_explain(&result.stats);
        assert!(explain.contains("Tracer rings: w"), "{explain}");
        // The per-query trace export is Perfetto-loadable.
        let trace = result.profile.to_chrome_trace();
        assert_perfetto_loadable(&trace);
        assert!(trace.contains("\"ph\": \"X\""), "complete events present");
        assert!(trace.contains("\"ph\": \"M\""), "thread metadata present");
        assert!(trace.contains("decision:selection"), "decision instants present");
    }
}

#[test]
fn no_observability_build_is_inert() {
    // Under --features no_observability a spans-profiled query must come
    // back with an empty profile and leave every instrument untouched; in a
    // normal build the opposite wiring is covered above, so the test body is
    // feature-conditional.
    if bipie::core::observability_compiled_out() {
        let table = small_lineitem();
        let options = QueryOptions { profile: ProfileLevel::Spans, ..Default::default() };
        let result = run_q1_result(&table, options).expect("Q1 runs");
        assert!(result.profile.is_empty(), "the tracer is compiled out");
        let queries = telemetry().registry().counter(
            "bipie_queries_total",
            "Queries executed to completion.",
            &[],
        );
        assert_eq!(queries.value(), 0, "compiled-out telemetry must stay at zero");
        assert!(telemetry().decision_log().is_empty());
    }
}

/// Serializes the tests that assert on the process-wide error and shed
/// counters, which no other test in this binary moves.
static ENGINE_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn engine_counters() -> std::sync::MutexGuard<'static, ()> {
    bipie::toolbox::sync::lock(&ENGINE_COUNTERS)
}

/// A table with one column and no rows: what an engine test registers when
/// the query never reaches a scan.
fn empty_table() -> bipie::columnstore::Table {
    use bipie::columnstore::{ColumnSpec, LogicalType, Table};
    Table::with_segment_rows(vec![ColumnSpec::new("v", LogicalType::I64)], 1 << 20)
}

/// The engine's fast-fail exits (option validation, table lookup) happen
/// before any admission or scan, inside the same publication boundary as
/// every other error, so they count as failed queries. Counters are
/// process-wide and monotone, so the assertions are deltas.
#[test]
fn engine_fast_fail_errors_are_published() {
    use bipie::core::{AggExpr, Engine, EngineError, QueryBuilder};
    if bipie::core::observability_compiled_out() {
        return;
    }
    let _counters = engine_counters();
    let errors = telemetry().registry().counter(
        "bipie_query_errors_total",
        "Queries that returned an error.",
        &[],
    );
    let engine = Engine::with_defaults();
    let query = QueryBuilder::new().aggregate(AggExpr::count_star()).build();

    let before = errors.value();
    let err = engine.execute("no_such_table", &query).unwrap_err();
    assert!(matches!(err, EngineError::UnknownTable(_)), "{err:?}");
    assert_eq!(errors.value() - before, 1, "unknown-table exit must publish once");

    let before = errors.value();
    let mut bad = query.clone();
    bad.options.batch_rows = 0;
    engine.register_table("t", empty_table());
    let err = engine.execute("t", &bad).unwrap_err();
    assert!(matches!(err, EngineError::InvalidOptions { .. }), "{err:?}");
    assert_eq!(errors.value() - before, 1, "invalid-options exit must publish once");
}

/// A shed counts once, under its reason, and never as a failed query —
/// whether a query or a bare `Engine::reserve` meets it. Admission returns
/// the typed error and the publication boundary classifies it, so a shed
/// counted both in admission and at the boundary would read 2 here, and
/// one counted as an error would move `bipie_query_errors_total`.
#[test]
fn engine_sheds_count_under_their_reason_and_not_as_errors() {
    use bipie::core::{AdmissionReason, AggExpr, Engine, EngineConfig, EngineError, QueryBuilder};
    if bipie::core::observability_compiled_out() {
        return;
    }
    let _counters = engine_counters();
    let reg = telemetry().registry();
    let errors = reg.counter("bipie_query_errors_total", "Queries that returned an error.", &[]);
    let shed_help = "Queries refused by engine admission control, by reason.";
    let memory_sheds =
        reg.counter("bipie_engine_sheds_total", shed_help, &[("reason", "aggregate_memory")]);
    let queue_sheds =
        reg.counter("bipie_engine_sheds_total", shed_help, &[("reason", "queue_full")]);
    let counts = || [errors.value(), memory_sheds.value(), queue_sheds.value()];
    let moved = |before: [u64; 3]| {
        let after = counts();
        [0, 1, 2].map(|i| after[i] - before[i])
    };

    let engine = Engine::new(EngineConfig {
        max_concurrent: 1,
        max_queued: 0,
        aggregate_mem_budget: Some(1 << 20),
        default_query_mem: 1 << 10,
        ..EngineConfig::default()
    });
    engine.register_table("t", empty_table());
    let query = QueryBuilder::new().aggregate(AggExpr::count_star()).build();
    let rejected = |reason| Some(EngineError::AdmissionRejected { reason });

    // A declared budget over the aggregate cap.
    let before = counts();
    let mut oversized = query.clone();
    oversized.options.mem_budget = Some(2 << 20);
    assert_eq!(engine.execute("t", &oversized).err(), rejected(AdmissionReason::AggregateMemory));
    assert_eq!(moved(before), [0, 1, 0], "aggregate-memory shed");

    // The only slot is held and nothing may queue.
    let held = engine.reserve(0).expect("the slot is free");
    let before = counts();
    assert_eq!(engine.execute("t", &query).err(), rejected(AdmissionReason::QueueFull));
    assert_eq!(moved(before), [0, 0, 1], "queue-full shed");

    // A reservation meets the same admission and the same boundary.
    let before = counts();
    assert_eq!(engine.reserve(0).err(), rejected(AdmissionReason::QueueFull));
    assert_eq!(moved(before), [0, 0, 1], "Engine::reserve shed");
    drop(held);
}
