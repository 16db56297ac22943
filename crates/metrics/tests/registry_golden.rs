//! Exposition golden tests (DESIGN.md §14): the Prometheus text and JSON
//! snapshot formats are consumed by dashboards and scrapers outside this
//! repo, so any drift — field order, label sorting, bucket elision — must
//! surface as a test failure here, not as a broken panel later. The
//! asserts pin exact strings from a fixed registry.

#![expect(clippy::disallowed_types, reason = "the golden renders a registry of its own")]

use bipie_metrics::Registry;

/// One instrument of each kind, with deterministic values: a plain
/// counter, a labeled counter family, a gauge, and a histogram hit in
/// buckets 0 (le 0), 2 (le 3) and 4 (le 15).
fn fixed_registry() -> Registry {
    let r = Registry::new();
    let q = r.counter("bipie_queries_total", "Queries executed to completion.", &[]);
    q.add(3);
    let gather = r.counter(
        "bipie_selection_picks_total",
        "Per-batch selection-strategy decisions, by strategy.",
        &[("strategy", "gather")],
    );
    let compact = r.counter(
        "bipie_selection_picks_total",
        "Per-batch selection-strategy decisions, by strategy.",
        &[("strategy", "compact")],
    );
    gather.add(5);
    compact.inc();
    let g = r.gauge("bipie_pool_workers", "Workers currently parked in the pool.", &[]);
    g.set(8);
    let h = r.histogram(
        "bipie_query_latency_us",
        "End-to-end query wall latency in microseconds.",
        &[],
    );
    h.observe(0);
    h.observe(3);
    h.observe(10);
    r
}

#[test]
fn prometheus_text_is_stable() {
    // Families sorted by name, series by label set; histograms render
    // cumulative buckets with empty buckets elided, then +Inf, sum, count.
    let expected = "\
# HELP bipie_pool_workers Workers currently parked in the pool.
# TYPE bipie_pool_workers gauge
bipie_pool_workers 8
# HELP bipie_queries_total Queries executed to completion.
# TYPE bipie_queries_total counter
bipie_queries_total 3
# HELP bipie_query_latency_us End-to-end query wall latency in microseconds.
# TYPE bipie_query_latency_us histogram
bipie_query_latency_us_bucket{le=\"0\"} 1
bipie_query_latency_us_bucket{le=\"3\"} 2
bipie_query_latency_us_bucket{le=\"15\"} 3
bipie_query_latency_us_bucket{le=\"+Inf\"} 3
bipie_query_latency_us_sum 13
bipie_query_latency_us_count 3
# HELP bipie_selection_picks_total Per-batch selection-strategy decisions, by strategy.
# TYPE bipie_selection_picks_total counter
bipie_selection_picks_total{strategy=\"compact\"} 1
bipie_selection_picks_total{strategy=\"gather\"} 5
";
    assert_eq!(fixed_registry().render_prometheus(), expected);
}

#[test]
fn json_snapshot_is_stable() {
    // One object, kind-grouped arrays, non-cumulative buckets.
    let expected = "{\"counters\": [\
{\"name\": \"bipie_queries_total\", \"labels\": {}, \"value\": 3}, \
{\"name\": \"bipie_selection_picks_total\", \"labels\": {\"strategy\": \"compact\"}, \"value\": 1}, \
{\"name\": \"bipie_selection_picks_total\", \"labels\": {\"strategy\": \"gather\"}, \"value\": 5}], \
\"gauges\": [{\"name\": \"bipie_pool_workers\", \"labels\": {}, \"value\": 8}], \
\"histograms\": [{\"name\": \"bipie_query_latency_us\", \"labels\": {}, \"count\": 3, \"sum\": 13, \
\"buckets\": [{\"le\": 0, \"count\": 1}, {\"le\": 3, \"count\": 1}, {\"le\": 15, \"count\": 1}]}]}";
    assert_eq!(fixed_registry().render_json(), expected);
}

#[test]
fn empty_registry_renders_empty_documents() {
    let r = Registry::new();
    assert_eq!(r.render_prometheus(), "");
    assert_eq!(r.render_json(), "{\"counters\": [], \"gauges\": [], \"histograms\": []}");
}
