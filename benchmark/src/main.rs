//! The repo benchmark: five workloads through `core::engine`, seven
//! end-to-end metrics, and a per-layer cycle budget measured from outside
//! the crates. `BENCHMARK.json` at the repo root names every metric; see
//! `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--out <file>]
//!     list [--json]
//!     check
//!     repeat [--sets <n>] [--runs <n>] [--seed <u64>] [--seconds <s>]
//! ```

mod catalog;
mod env;
mod gen;
mod json;
mod layers;
mod runner;
mod scale;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use env::Clock;
use json::Json;
use runner::{RunArgs, RunOutput};

/// Exit code for a run refused or mis-invoked (as opposed to 1: ran, failed).
const EXIT_USAGE: u8 = 2;

struct Cli {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    json: bool,
    sets: usize,
    runs: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        out: None,
        json: false,
        sets: 2,
        runs: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = catalog::workload(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?;
                cli.workload = Some(w.name);
            }
            "--seed" => {
                cli.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--sets" => cli.sets = value("a count")?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--runs" => cli.runs = value("a count")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => cli.out = Some(PathBuf::from(value("a file path")?)),
            "--json" => cli.json = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.sets == 0 || cli.runs == 0 {
        return Err("--sets and --runs must be at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let clock = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: run | list | check | repeat  (see benchmark/README.md)");
        return ExitCode::from(EXIT_USAGE);
    };
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Numbers from an unoptimized build are not this benchmark's numbers.
    if matches!(command.as_str(), "run" | "repeat") && cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(EXIT_USAGE);
    }
    let outcome = match command.as_str() {
        "run" => match cli.workload {
            Some(workload) => run_one(&cli, workload, clock),
            None => run_each_in_its_own_process(&cli),
        },
        "list" => {
            list(&cli);
            Ok(true)
        }
        "check" => check(clock),
        "repeat" => repeat(&cli),
        other => {
            eprintln!("error: unknown command '{other}'");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process; the result object is the last line of
/// stdout. Exits non-zero when any op failed.
fn run_one(cli: &Cli, workload: &'static str, clock: Clock) -> Result<bool, String> {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: &scale::FULL,
        out: cli.out.clone(),
    };
    let output = runner::run(&args, clock)?;
    runner::print_table(workload, &output);
    println!("{}", output.result_line());
    Ok(output.correct())
}

/// The arguments that reproduce `cli` for a child run of one workload.
fn child_args(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let mut args: Vec<String> = ["run", "--workload", workload].map(String::from).to_vec();
    args.extend(["--seed".into(), seed.to_string()]);
    args.extend(["--seconds".into(), cli.seconds.to_string()]);
    args.extend(["--trace".into(), u8::from(trace).to_string()]);
    args
}

/// `run` without `--workload`: every workload, each in a process of its own
/// (peak RSS is per process), one after the other.
fn run_each_in_its_own_process(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(child_args(cli, w.name, cli.seed, cli.trace))
            .status()
            .map_err(|e| format!("starting the {} run: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// Run one workload in a child process and parse its result line.
fn child_metrics(cli: &Cli, workload: &str, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .args(child_args(cli, workload, seed, false))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    let doc = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    if !output.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} (seed {seed}) did not run clean: {line}"));
    }
    let metrics = doc.get("metrics").and_then(Json::as_obj).ok_or("result without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// `repeat`: `--sets` sets of `--runs` runs per workload (run `r` of every
/// set uses seed `--seed + r`), then for every (metric, workload) the set
/// medians, how much each later set is worse than the first, the spread
/// within the sets (interquartile distance over the median), the bound, and
/// a verdict. The evidence that two sets of the same code agree, and the
/// tool a later change re-baselines with.
fn repeat(cli: &Cli) -> Result<bool, String> {
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; cli.sets];
    for (set, of_set) in values.iter_mut().enumerate() {
        for (w, of_workload) in WORKLOADS.iter().zip(of_set) {
            for run in 0..cli.runs {
                let seed = cli.seed + run as u64;
                eprintln!("set {} run {} {} (seed {seed})", set + 1, run + 1, w.name);
                let got = child_metrics(cli, w.name, seed)?;
                for (m, samples) in END_TO_END.iter().zip(of_workload.iter_mut()) {
                    let (_, v) = got
                        .iter()
                        .find(|(n, _)| n == m.name)
                        .ok_or_else(|| format!("{}: {} missing", w.name, m.name))?;
                    samples.push(*v);
                }
            }
        }
    }
    let mut all_pass = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "set 1", "last set", "worse %", "iqr %", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| stats::median(&set[wi][mi])).collect();
            let higher = m.better == Better::Higher;
            let worst = medians[1..]
                .iter()
                .map(|&later| stats::worsening(medians[0], later, higher))
                .fold(0.0f64, f64::max);
            // `setup_s` is exempt from the spread rule (its bound still
            // applies to the medians).
            let spread = if cli.runs >= 2 && m.name != "setup_s" {
                values.iter().map(|set| stats::iqr_share(&set[wi][mi])).fold(0.0, f64::max)
            } else {
                0.0
            };
            let bound = m.bound;
            let verdict = verdict(worst, spread, bound);
            all_pass &= verdict == "PASS";
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>9.3} {:>8.3} {:>6.3}  {verdict}",
                w.name,
                m.name,
                medians[0],
                medians[medians.len() - 1],
                worst * 100.0,
                spread * 100.0,
                bound
            );
        }
    }
    Ok(all_pass)
}

/// How the later sets compare with the first under `bound`: `UNRESOLVED` when
/// the runs of a set spread wider than the bound (choosing-metrics §6: report
/// it as unresolved, not as unchanged).
fn verdict(worsening: f64, spread: f64, bound: f64) -> &'static str {
    if spread > bound {
        "UNRESOLVED"
    } else if worsening > bound {
        "WORSE"
    } else {
        "PASS"
    }
}

/// `list`: the catalogue, or with `--json` the content of `BENCHMARK.json`.
fn list(cli: &Cli) {
    if cli.json {
        print!("{}", catalog::benchmark_json().to_pretty());
        return;
    }
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} op: {}\n{:17}why: {}", w.name, w.op, "", w.why);
    }
    println!("\nend-to-end metrics (every workload reports all of them):");
    for m in &END_TO_END {
        println!(
            "  {:<22} {:<10} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.definition
        );
    }
    println!("\nper-layer metrics (traced run), by the workload whose shape they are measured on:");
    for (home, moves) in catalog::GROUP_MOVES {
        println!("  [{home}] should move: {moves}");
        for m in PER_LAYER.iter().filter(|m| m.home == home) {
            println!("    {:<66} {:<11} {}", m.name, m.unit, m.better.as_str());
        }
    }
}

/// A per-layer metric that is a count the program makes on a single client:
/// it must repeat exactly from run to run.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("core.stats.") && !name.contains("steals") && !name.ends_with(".serving")
}

/// `check`: the fast self-test. Every workload, untraced and traced, at the
/// smoke scale, asserting that what is emitted is exactly what
/// `BENCHMARK.json` names.
fn check(clock: Clock) -> Result<bool, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared = json::parse(&text)?;
    if declared != catalog::benchmark_json() {
        return Err(
            "BENCHMARK.json differs from the catalogue; regenerate it with `list --json`".into()
        );
    }
    let names = |key: &str| -> Vec<(String, String)> {
        declared
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((m.get("name")?.as_str()?.to_string(), m.get("unit")?.as_str()?.to_string()))
            })
            .collect()
    };
    let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));

    let one = |workload: &'static str, trace: bool| -> Result<RunOutput, String> {
        let args = RunArgs {
            workload,
            seed: 1,
            seconds: 0.2,
            trace,
            scale: &scale::SMOKE,
            out: Some(runner::out_dir().join(format!("check.{workload}.{}.json", u8::from(trace)))),
        };
        let output = runner::run(&args, clock)?;
        if !output.correct() {
            return Err(format!(
                "{workload}: {} ops failed: {:?}",
                output.failed, output.first_error
            ));
        }
        let want = if trace { &per_layer } else { &end_to_end };
        let got: Vec<(String, String)> =
            output.metrics.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
        if &got != want {
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            return Err(format!(
                "{workload} (trace {trace}): emitted metrics differ from BENCHMARK.json; \
                 missing {missing:?}, unexpected {extra:?}"
            ));
        }
        for (name, value, _) in &output.metrics {
            let name_ok = name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !name_ok || !value.is_finite() {
                return Err(format!("{workload}: bad metric {name} = {value}"));
            }
        }
        Ok(output)
    };
    let same = |a: &RunOutput, b: &RunOutput, exact: &dyn Fn(&str) -> bool| -> Result<(), String> {
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            if exact(name) && va != vb {
                return Err(format!("{name} is a count but read {va} then {vb}"));
            }
        }
        Ok(())
    };

    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (one(w.name, false)?, one(w.name, false)?);
        same(&a, &b, &|n| n == "encoded_bytes_per_row" || n == "ok_share")?;
        // Every traced run measures every layer group; two of them are
        // enough to show the counts repeat.
        let traced = one(w.name, true)?;
        if i == 0 {
            same(&traced, &one(w.name, true)?, &is_exact_count)?;
        }
        let trace_file = runner::out_dir().join(format!("{}.trace.json", w.name));
        let trace = std::fs::read_to_string(&trace_file).map_err(|e| e.to_string())?;
        let events =
            json::parse(&trace)?.get("traceEvents").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        if events == 0 {
            return Err(format!("{}: empty trace file", w.name));
        }
        println!(
            "check {:<14} ok ({} end-to-end, {} per-layer, {events} spans)",
            w.name,
            a.metrics.len(),
            traced.metrics.len()
        );
    }
    println!("check OK");
    Ok(true)
}
