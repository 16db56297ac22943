//! **Concurrent serving** — throughput and tail latency of the
//! process-wide [`Engine`] (DESIGN.md §15) under multi-client load.
//!
//! N client threads share one engine and hammer TPC-H Q1 against a shared
//! LINEITEM table; each client runs `runs` queries back-to-back. The
//! report gives, per client count, aggregate throughput (qps) and the
//! p50/p99 of per-query latency across every client's queries.
//!
//! These are *honest* numbers for whatever machine runs them: on a 1-CPU
//! container the pool has one worker and concurrency buys only admission
//! overlap, so qps stays roughly flat (or dips slightly from scheduler
//! overhead) while p99 grows with the client count — that is the expected
//! shape, not a regression. On real multi-core hardware qps scales until
//! the cores are saturated. `hardware_threads` is recorded alongside the
//! results so readers can tell which regime a report came from.
//!
//! ```sh
//! cargo run --release -p bipie-bench --bin exp_serving
//! ```
//!
//! Environment knobs: `BIPIE_TPCH_SF` (default 0.05), `BIPIE_BENCH_RUNS`
//! (queries per client, default 10), `BIPIE_SERVING_CLIENTS`
//! (comma-separated client counts, default `1,2,4`), `BIPIE_BENCH_JSON`
//! (output path, default `BENCH_serving.json`).

#![expect(
    clippy::disallowed_methods,
    reason = "client threads generate load into the engine; they are not scan workers"
)]

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bipie_bench::bench_opts;
use bipie_core::engine::{Engine, EngineConfig};
use bipie_core::QueryOptions;
use bipie_metrics::Table as TextTable;
use bipie_tpch::{generate_lineitem, q1_query};

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] * 1e6
}

fn main() {
    let sf: f64 = std::env::var("BIPIE_TPCH_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(0.05);
    let opts = bench_opts();
    let client_counts: Vec<usize> = std::env::var("BIPIE_SERVING_CLIENTS")
        .ok()
        .map(|v| v.split(',').filter_map(|c| c.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4]);
    let hardware_threads =
        std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);

    println!("Concurrent serving: TPC-H Q1 through a shared Engine");
    println!("generating LINEITEM at SF {sf} ...");
    let table = generate_lineitem(sf, 1 << 18);
    let rows = table.num_rows();
    let max_concurrent = client_counts.iter().copied().max().unwrap_or(1);
    println!(
        "rows={rows} runs/client={} clients={client_counts:?} hardware_threads={hardware_threads}\n",
        opts.runs
    );

    let engine = Engine::new(EngineConfig {
        max_concurrent,
        max_queued: max_concurrent * 4,
        queue_timeout: Duration::from_secs(300),
        ..EngineConfig::default()
    });
    engine.register_table("lineitem", table);
    let query = q1_query(QueryOptions::default());

    // Warm up the pool, the table, and the strategy caches once.
    for _ in 0..opts.warmup.max(1) {
        engine.execute("lineitem", &query).expect("warmup Q1 runs");
    }

    let mut results: Vec<(usize, f64, f64, f64, usize)> = Vec::new();
    for &clients in &client_counts {
        let started = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let query = query.clone();
                let runs = opts.runs;
                thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(runs);
                    for _ in 0..runs {
                        let t0 = Instant::now();
                        engine.execute("lineitem", &query).expect("Q1 runs");
                        latencies.push(t0.elapsed().as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<f64> = Vec::new();
        for h in handles {
            latencies.extend(h.join().expect("client thread panicked"));
        }
        let wall = started.elapsed().as_secs_f64();
        latencies.sort_by(f64::total_cmp);
        let queries = latencies.len();
        let qps = queries as f64 / wall;
        let p50 = percentile_us(&latencies, 0.50);
        let p99 = percentile_us(&latencies, 0.99);
        results.push((clients, qps, p50, p99, queries));
    }

    let mut t = TextTable::new(vec!["clients", "qps", "p50 ms", "p99 ms"]);
    for &(clients, qps, p50, p99, _) in &results {
        t.row(vec![
            clients.to_string(),
            format!("{qps:.2}"),
            format!("{:.2}", p50 / 1e3),
            format!("{:.2}", p99 / 1e3),
        ]);
    }
    t.print();

    let json_path =
        std::env::var("BIPIE_BENCH_JSON").unwrap_or_else(|_| "BENCH_serving.json".to_string());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serving\",\n");
    json.push_str(&format!("  \"scale_factor\": {sf},\n"));
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str(&format!("  \"runs\": {},\n", opts.runs));
    json.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    json.push_str(&format!("  \"max_concurrent\": {max_concurrent},\n"));
    json.push_str("  \"results\": [\n");
    for (i, &(clients, qps, p50, p99, queries)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"clients\": {clients}, \"queries\": {queries}, \"qps\": {qps:.3}, \
             \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1} }}{comma}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, &json).expect("writing the serving report");
    println!("\nwrote {json_path}");
}
