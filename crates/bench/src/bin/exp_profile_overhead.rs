//! **Observability overhead** — cost of the query profiler (DESIGN.md §9)
//! and of telemetry publication (DESIGN.md §14) on the TPC-H Q1 scan, at
//! every [`ProfileLevel`], against a build with both compiled out.
//!
//! Two-step protocol (the two steps are different *builds*, so they cannot
//! share a process):
//!
//! ```sh
//! # 1. Record the baseline from a build with nothing compiled in:
//! cargo run --release -p bipie-bench --features no_observability \
//!     --bin exp_profile_overhead -- --baseline
//! # 2. Measure Off / Counters / Spans against it, gate Off at 2%:
//! cargo run --release -p bipie-bench --bin exp_profile_overhead -- --gate 2
//! ```
//!
//! The `Off` row is `QueryOptions::default()` in a normal build: profiler
//! `Off`, every query published into the process registry. That is the
//! configuration that ships, so the one gate bounds the sum of both layers'
//! overheads where they are paid.
//!
//! Step 1 writes `BENCH_profile_baseline.json`; step 2 reads it, writes
//! `BENCH_profile.json` (including the Spans-level per-phase breakdown via
//! `QueryProfile::to_json`), and with `--gate <pct>` exits non-zero when
//! the `Off` row costs more than `<pct>` percent over the baseline — the
//! bound is 2%. Without a baseline file, step 2 still reports level
//! medians but records `off_vs_baseline_pct: null` (and `--gate` fails,
//! since the bound cannot be checked).
//!
//! Run-to-run noise can make the Off build *faster* than the baseline
//! build (different binaries, different code layout), which is a
//! measurement artifact, not a negative cost. The report therefore keeps
//! the raw signed difference as `off_vs_baseline_pct` and separately
//! records `off_vs_baseline_gate_pct = max(0, raw)` — the overhead claim
//! the gate checks, where "the profiler is free" saturates at 0%.
//!
//! Levels are measured **interleaved** (one run of each per round) so slow
//! drift — thermal, frequency, cache state — lands on all levels equally
//! instead of biasing whichever level happens to run last.
//!
//! Environment knobs: `BIPIE_TPCH_SF` (default 0.1), `BIPIE_BENCH_RUNS`
//! (default 10), `BIPIE_BENCH_JSON` (output path for step 2's report).

use std::time::Instant;

use bipie_bench::{bench_opts, json_number_field};
use bipie_core::{observability_compiled_out, ProfileLevel, QueryOptions};
use bipie_metrics::Table as TextTable;
use bipie_tpch::{generate_lineitem, run_q1_result};

const BASELINE_PATH: &str = "BENCH_profile_baseline.json";
const LEVELS: [ProfileLevel; 3] = [ProfileLevel::Off, ProfileLevel::Counters, ProfileLevel::Spans];

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_mode = args.iter().any(|a| a == "--baseline");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let sf: f64 = std::env::var("BIPIE_TPCH_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(0.1);
    let opts = bench_opts();

    println!("Observability overhead: Q1 scan at each ProfileLevel, published");
    println!("generating LINEITEM at SF {sf} ...");
    let table = generate_lineitem(sf, 1 << 18);
    let rows = table.num_rows();
    let compiled_out = observability_compiled_out();
    println!("rows={rows} runs={} observability_compiled_out={compiled_out}\n", opts.runs);

    let run_at = |level: ProfileLevel| {
        let options = QueryOptions { profile: level, ..Default::default() };
        let start = Instant::now();
        let result = run_q1_result(&table, options).expect("Q1 runs");
        (start.elapsed().as_secs_f64(), result)
    };

    if baseline_mode {
        // The baseline is only meaningful when the tracer and publication
        // are compiled out; refuse to write a lie.
        assert!(compiled_out, "--baseline requires building with --features no_observability");
        for _ in 0..opts.warmup {
            run_at(ProfileLevel::Off);
        }
        let mut samples: Vec<f64> = (0..opts.runs).map(|_| run_at(ProfileLevel::Off).0).collect();
        let secs = median(&mut samples);
        let json = format!(
            "{{\n  \"bench\": \"profile_overhead_baseline\",\n  \"scale_factor\": {sf},\n  \
             \"rows\": {rows},\n  \"runs\": {},\n  \"median_secs\": {secs:.6}\n}}\n",
            opts.runs
        );
        std::fs::write(BASELINE_PATH, &json).expect("writing the baseline report");
        println!("baseline (no_observability build): {secs:.4}s median");
        println!("wrote {BASELINE_PATH}");
        return;
    }

    assert!(
        !compiled_out,
        "the measurement step must run a normal build (no --features no_observability)"
    );

    for _ in 0..opts.warmup {
        for level in LEVELS {
            run_at(level);
        }
    }
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut spans_profile_json = String::new();
    for _ in 0..opts.runs {
        for (i, level) in LEVELS.into_iter().enumerate() {
            let (secs, result) = run_at(level);
            samples[i].push(secs);
            if level == ProfileLevel::Spans {
                spans_profile_json = result.profile.to_json();
            }
        }
    }
    let medians: Vec<f64> = samples.iter_mut().map(|s| median(s)).collect();

    let baseline: Option<f64> = std::fs::read_to_string(BASELINE_PATH)
        .ok()
        .and_then(|body| json_number_field(&body, "median_secs"));
    let pct_over = |secs: f64| baseline.map(|b| (secs / b - 1.0) * 100.0);

    let mut t = TextTable::new(vec!["level", "median s", "vs baseline"]);
    for (i, level) in LEVELS.into_iter().enumerate() {
        t.row(vec![
            format!("{level:?}"),
            format!("{:.4}", medians[i]),
            pct_over(medians[i]).map_or("n/a".to_string(), |p| format!("{p:+.2}%")),
        ]);
    }
    t.print();
    match baseline {
        Some(b) => println!("\nbaseline (no_observability build): {b:.4}s median"),
        None => println!(
            "\nno {BASELINE_PATH} found — run the --baseline step first for overhead numbers"
        ),
    }

    let off_pct = pct_over(medians[0]);
    // A faster-than-baseline Off build is noise, not negative overhead:
    // the gate metric clamps at zero while the raw signed value stays in
    // the report for trend tracking.
    let off_gate_pct = off_pct.map(|p| p.max(0.0));
    let json_path =
        std::env::var("BIPIE_BENCH_JSON").unwrap_or_else(|_| "BENCH_profile.json".to_string());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"profile_overhead\",\n");
    json.push_str(&format!("  \"scale_factor\": {sf},\n"));
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str(&format!("  \"runs\": {},\n", opts.runs));
    match baseline {
        Some(b) => json.push_str(&format!("  \"baseline_secs\": {b:.6},\n")),
        None => json.push_str("  \"baseline_secs\": null,\n"),
    }
    for (i, level) in LEVELS.into_iter().enumerate() {
        json.push_str(&format!(
            "  \"{}_secs\": {:.6},\n",
            format!("{level:?}").to_lowercase(),
            medians[i]
        ));
    }
    match off_pct {
        Some(p) => json.push_str(&format!("  \"off_vs_baseline_pct\": {p:.3},\n")),
        None => json.push_str("  \"off_vs_baseline_pct\": null,\n"),
    }
    match off_gate_pct {
        Some(p) => json.push_str(&format!("  \"off_vs_baseline_gate_pct\": {p:.3},\n")),
        None => json.push_str("  \"off_vs_baseline_gate_pct\": null,\n"),
    }
    json.push_str(&format!("  \"spans_profile\": {}\n", spans_profile_json));
    json.push_str("}\n");
    std::fs::write(&json_path, &json).expect("writing the JSON report");
    println!("wrote {json_path}");

    if let Some(bound) = gate {
        match off_gate_pct {
            Some(p) if p <= bound => {
                println!("gate: Off overhead {p:.2}% within {bound}% bound");
            }
            Some(p) => {
                eprintln!("gate FAILED: Off overhead {p:.2}% exceeds {bound}% bound");
                std::process::exit(1);
            }
            None => {
                eprintln!("gate FAILED: no baseline to compare against (run --baseline first)");
                std::process::exit(1);
            }
        }
    }
}
