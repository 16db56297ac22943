//! One run of one workload: set-up, verification, warm-up, the timed window
//! (or, traced, the workload's own spans plus every per-layer probe), and the
//! result in the form the driver reads.

use std::path::PathBuf;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::env::{self, Clock};
use crate::json::Json;
use crate::layers::{self, Probe};
use crate::scale::{Scale, TRACED_SHARE, WARMUP_SHARE};
use crate::span::{chrome_trace, totals_by_name};
use crate::stats::{median, percentile, MIN_OPS_FOR_P95};
use crate::workloads::{prepare, run_clients, ClientLog, Limit, OpSample, Prepared};

pub struct RunArgs<'a> {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub scale: &'a Scale,
    /// Where the full report goes; `benchmark/out/<workload>[.trace].json`
    /// when not given.
    pub out: Option<PathBuf>,
}

/// A metric as emitted: name, value, unit.
pub type Emitted = (String, f64, &'static str);

pub struct RunOutput {
    pub metrics: Vec<Emitted>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Everything else worth keeping: fingerprint, p50, sample counts, the
    /// noise guard, set-up samples.
    pub report: Json,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `{name: {"value", "unit"}}`, in emission order.
    fn metrics_json(&self) -> Json {
        let entry = |value: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        Json::Obj(self.metrics.iter().map(|(n, v, u)| (n.clone(), entry(*v, u))).collect())
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_line()
    }
}

/// Directory of the benchmark's own outputs (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &PathBuf, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Refuse to emit a number that is not one.
fn finite(metrics: &[Emitted]) -> Result<(), String> {
    match metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, value, _)) => Err(format!("metric {name} is not finite ({value})")),
        None => Ok(()),
    }
}

pub fn run(args: &RunArgs<'_>, clock: Clock) -> Result<RunOutput, String> {
    let mut output = if args.trace { run_traced(args, clock)? } else { run_untraced(args, clock)? };
    finite(&output.metrics)?;
    let default_name = if args.trace {
        format!("{}.layers.json", args.workload)
    } else {
        format!("{}.json", args.workload)
    };
    let path = args.out.clone().unwrap_or_else(|| out_dir().join(default_name));
    let mut doc = vec![
        ("workload".to_string(), Json::str(args.workload)),
        ("traced".to_string(), Json::Bool(args.trace)),
        ("env".to_string(), env::fingerprint(&clock, args.seed, args.scale)),
        ("correct".to_string(), Json::Bool(output.correct())),
        ("attempted".to_string(), Json::Num(output.attempted as f64)),
        ("failed".to_string(), Json::Num(output.failed as f64)),
    ];
    if let Json::Obj(extra) = std::mem::replace(&mut output.report, Json::Null) {
        doc.extend(extra);
    }
    doc.push(("metrics".to_string(), output.metrics_json()));
    output.report = Json::Obj(doc);
    write_json(&path, &output.report)?;
    Ok(output)
}

/// The three timings of a run of consecutive ops.
struct TimingStats {
    /// Median over the ops of cycles / rows(op).
    cycles_per_row: f64,
    /// Rows over mean client busy time.
    rows_per_s: f64,
    latency_p95_ms: f64,
    latency_p50_ms: f64,
}

impl TimingStats {
    fn of(ops: &[OpSample], clients: usize, hz: f64) -> Result<TimingStats, String> {
        let per_row: Vec<f64> = ops.iter().map(|s| s.cycles as f64 / s.rows as f64).collect();
        let latency_ms: Vec<f64> = ops.iter().map(|s| s.cycles as f64 / hz * 1e3).collect();
        let rows: f64 = ops.iter().map(|s| s.rows as f64).sum();
        let busy_secs: f64 = ops.iter().map(|s| s.cycles as f64 / hz).sum();
        Ok(TimingStats {
            cycles_per_row: median(&per_row),
            rows_per_s: rows / (busy_secs / clients as f64),
            latency_p95_ms: percentile(&latency_ms, 95.0)?,
            latency_p50_ms: median(&latency_ms),
        })
    }
}

struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

fn tally(logs: &[ClientLog]) -> Tally {
    Tally {
        attempted: logs.iter().map(|l| l.samples.len() as u64).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        first_error: logs.iter().find_map(|l| l.first_error.clone()),
    }
}

fn warm_up(p: &Prepared, seconds: f64) {
    let warm = Limit::Window { seconds: seconds * WARMUP_SHARE, min_ops: 1 };
    std::hint::black_box(run_clients(p, warm, None));
}

fn run_untraced(args: &RunArgs<'_>, clock: Clock) -> Result<RunOutput, String> {
    let scale = args.scale;
    let guard_before = env::guard_probe();

    // Several set-ups, each from scratch; the last one is verified against
    // the reference executor and kept.
    let repeats = scale.setup_repeats.max(1);
    let mut setup_samples = Vec::with_capacity(repeats);
    let mut prepared = None;
    for i in 0..repeats {
        // Free the previous set-up's tables before building the next.
        drop(prepared.take());
        let p = prepare(args.workload, args.seed, scale, i + 1 == repeats)?;
        setup_samples.push(p.setup_secs);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up ran");

    warm_up(&p, args.seconds);
    let window = Limit::Window { seconds: args.seconds, min_ops: MIN_OPS_FOR_P95 };
    let (logs, _) = run_clients(&p, window, None);
    let guard_after = env::guard_probe();

    let hz = clock.tsc_hz();
    let t = tally(&logs);
    let mut samples: Vec<_> = logs.iter().flat_map(|l| l.samples.iter().copied()).collect();
    samples.sort_by_key(|s| s.end);
    let whole = TimingStats::of(&samples, p.clients, hz)?;
    // The quietest stretch: each timing is taken over every run of
    // MIN_OPS_FOR_P95 consecutive ops and the best stretch is reported. The
    // shared reference box is slowed 5-25 % by its neighbours for seconds to
    // minutes at a time; whole-window statistics follow them, the quietest
    // stretch mostly does not, and a change to the code moves every stretch.
    let stretches = samples
        .chunks_exact(MIN_OPS_FOR_P95)
        .map(|ops| TimingStats::of(ops, p.clients, hz))
        .collect::<Result<Vec<_>, _>>()?;
    let best = |pick: fn(&TimingStats) -> f64, higher: bool| {
        let values = stretches.iter().map(pick);
        if higher {
            values.fold(f64::NEG_INFINITY, f64::max)
        } else {
            values.fold(f64::INFINITY, f64::min)
        }
    };
    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "cycles_per_row" => best(|s| s.cycles_per_row, false),
            "rows_per_s" => best(|s| s.rows_per_s, true),
            "latency_p95_ms" => best(|s| s.latency_p95_ms, false),
            "setup_s" => median(&setup_samples),
            "peak_rss_mb" => env::peak_rss_mib()?,
            "encoded_bytes_per_row" => p.encoded_bytes as f64 / p.encoded_rows as f64,
            "ok_share" => 1.0 - t.failed as f64 / t.attempted as f64,
            other => return Err(format!("no definition for end-to-end metric {other}")),
        })
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Ok((m.name.to_string(), value(m.name)?, m.unit)))
        .collect::<Result<Vec<Emitted>, String>>()?;

    let report = Json::obj(vec![
        ("samples", Json::Num(samples.len() as f64)),
        ("stretches", Json::Num(stretches.len() as f64)),
        ("clients", Json::Num(p.clients as f64)),
        ("rows_per_op", Json::Num(p.rows_per_op() as f64)),
        // The same timings over the whole window (not gated).
        ("window_cycles_per_row", Json::Num(whole.cycles_per_row)),
        ("window_rows_per_s", Json::Num(whole.rows_per_s)),
        ("window_latency_p95_ms", Json::Num(whole.latency_p95_ms)),
        ("window_latency_p50_ms", Json::Num(whole.latency_p50_ms)),
        ("window_wall_s", Json::Num(logs.iter().map(|l| l.wall_secs).fold(0.0, f64::max))),
        ("setup_samples_s", Json::Arr(setup_samples.iter().map(|s| Json::Num(*s)).collect())),
        ("verify_s", Json::Num(p.verify_secs)),
        ("guard_stream_gb_s", Json::Arr(vec![Json::Num(guard_before), Json::Num(guard_after)])),
        ("noisy", Json::Bool(env::is_noisy(guard_before, guard_after))),
    ]);
    Ok(RunOutput {
        metrics,
        attempted: t.attempted,
        failed: t.failed,
        first_error: t.first_error,
        report,
    })
}

fn run_traced(args: &RunArgs<'_>, clock: Clock) -> Result<RunOutput, String> {
    let scale = args.scale;
    let p = prepare(args.workload, args.seed, scale, true)?;
    warm_up(&p, args.seconds);

    // The same slice of the workload's own ops, without and with spans; the
    // difference of the medians is what tracing costs.
    let slice = Limit::Window { seconds: args.seconds * TRACED_SHARE, min_ops: 30 };
    let (plain, _) = run_clients(&p, slice, None);
    let (traced, spans) = run_clients(&p, slice, Some(scale.span_capacity));
    let median_cycles = |logs: &[ClientLog]| {
        median(&logs.iter().flat_map(|l| &l.samples).map(|s| s.cycles as f64).collect::<Vec<_>>())
    };
    let (plain_cycles, traced_cycles) = (median_cycles(&plain), median_cycles(&traced));
    let mut spans = spans.expect("the traced slice records spans");
    let (t_plain, t_traced) = (tally(&plain), tally(&traced));
    drop(p);

    // Every per-layer probe; its replay spans share the trace file, on the
    // lane after the clients'.
    let lane = spans.spans().iter().map(|s| s.lane + 1).max().unwrap_or(0);
    let mut probe = Probe::new(scale, args.seed, clock, lane);
    layers::measure_all(&mut probe)?;
    probe.put("bench.trace_overhead_pct", (traced_cycles - plain_cycles) / plain_cycles * 100.0);
    let (values, replay_spans) = probe.into_parts();
    spans.absorb(replay_spans);

    let hz = clock.tsc_hz();
    let trace_path = out_dir().join(format!("{}.trace.json", args.workload));
    write_json(&trace_path, &chrome_trace(spans.spans(), hz, args.workload))?;

    // Emit in catalogue order, exactly the catalogue's names.
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let mut found = values.iter().filter(|(n, _)| n == m.name);
        match (found.next(), found.next()) {
            (Some((_, v)), None) => metrics.push((m.name.to_string(), *v, m.unit)),
            (None, _) => return Err(format!("per-layer metric {} was not measured", m.name)),
            (Some(_), Some(_)) => {
                return Err(format!("per-layer metric {} measured twice", m.name))
            }
        }
    }
    if let Some((extra, _)) = values.iter().find(|(n, _)| PER_LAYER.iter().all(|m| m.name != n)) {
        return Err(format!("measured {extra}, which the catalogue does not name"));
    }

    let span_totals = totals_by_name(spans.spans())
        .into_iter()
        .map(|(name, count, total, own)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::Num(count as f64)),
                ("total_us", Json::Num(total as f64 / hz * 1e6)),
                ("self_us", Json::Num(own as f64 / hz * 1e6)),
            ])
        })
        .collect();
    let report = Json::obj(vec![
        ("trace_file", Json::Str(trace_path.display().to_string())),
        ("spans", Json::Num(spans.spans().len() as f64)),
        ("spans_dropped", Json::Num(spans.dropped() as f64)),
        ("span_totals", Json::Arr(span_totals)),
    ]);
    Ok(RunOutput {
        metrics,
        attempted: t_plain.attempted + t_traced.attempted,
        failed: t_plain.failed + t_traced.failed,
        first_error: t_plain.first_error.or(t_traced.first_error),
        report,
    })
}

/// Print the metrics as a table, one per line, by name with unit.
pub fn print_table(workload: &str, output: &RunOutput) {
    println!("== {workload} ==");
    let width = output.metrics.iter().map(|(n, ..)| n.len()).max().unwrap_or(0);
    for (name, value, unit) in &output.metrics {
        println!("  {name:<width$}  {value:>16.4} {unit}");
    }
    for key in [
        "samples",
        "stretches",
        "window_cycles_per_row",
        "verify_s",
        "noisy",
        "trace_file",
        "spans",
    ] {
        if let Some(v) = output.report.get(key) {
            println!("  ({key}: {})", v.to_line());
        }
    }
    if let Some(e) = &output.first_error {
        println!("  FAILED OPS: {} of {} — first: {e}", output.failed, output.attempted);
    }
}
