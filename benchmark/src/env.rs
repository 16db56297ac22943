//! The machine side of a result: environment fingerprint, the TSC clock, the
//! streaming-read probe, and peak resident memory.

use std::time::Instant;

use bipie_metrics::read_cycles;
use bipie_toolbox::SimdLevel;

use crate::json::Json;
use crate::stats::median;

/// TSC and wall clock read together at process start, so the TSC frequency
/// can be derived over the whole run (seconds) instead of a 50 ms spin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    tsc: u64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { wall: Instant::now(), tsc: read_cycles() }
    }

    /// TSC ticks per second, measured from [`Clock::start`] to now. Falls
    /// back to the metrics crate's spin estimate while less than 100 ms have
    /// passed.
    pub fn tsc_hz(&self) -> f64 {
        let secs = self.wall.elapsed().as_secs_f64();
        if secs < 0.1 {
            return bipie_metrics::tsc_hz();
        }
        (read_cycles() - self.tsc) as f64 / secs
    }
}

/// Hardware threads the process may use; client and worker counts never
/// exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout the driver runs in is not a git repository; there the
/// revision reads "unknown".
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What every output file carries so two results can be told apart.
pub fn fingerprint(clock: &Clock, seed: u64, scale: &crate::scale::Scale) -> Json {
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu_model())),
        ("nproc", Json::Num(nproc() as f64)),
        // `detect()` honours BIPIE_FORCE_SIMD, so a forced tier shows here.
        ("simd_level", Json::Str(SimdLevel::detect().to_string())),
        ("simd_forced", std::env::var("BIPIE_FORCE_SIMD").map(Json::Str).unwrap_or(Json::Null)),
        ("tsc_hz", Json::Num(clock.tsc_hz())),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::Num(seed as f64)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
        ("scale", scale.to_json()),
    ])
}

/// `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

/// Sequential-sum read bandwidth over a `bytes`-sized buffer, GB/s (median of
/// `reps` passes after one warm pass). The measured ceiling a scan's
/// `bytes_scanned / s` is compared against.
pub fn stream_read_gb_s(bytes: usize, reps: usize) -> f64 {
    let words = (bytes / 8).max(1);
    // Written once so the pages are resident and distinct.
    let buf: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let pass = |buf: &[u64]| -> u64 {
        // Four independent accumulators keep the adds off the critical path.
        let mut acc = [0u64; 4];
        for chunk in buf.chunks_exact(4) {
            for (a, w) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(*w);
            }
        }
        acc.iter().fold(0u64, |s, a| s.wrapping_add(*a))
    };
    std::hint::black_box(pass(std::hint::black_box(&buf)));
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pass(std::hint::black_box(&buf)));
            (words * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Buffer of the noise-guard probe run before and after every workload:
/// larger than a core's L2 so it streams, small enough that it never sets
/// the process's peak RSS (which is an end-to-end metric).
pub const GUARD_PROBE_BYTES: usize = 8 << 20;

/// Relative drift between two guard probes above which a result is marked
/// `"noisy": true`.
pub const GUARD_DRIFT_LIMIT: f64 = 0.10;

pub fn guard_probe() -> f64 {
    stream_read_gb_s(GUARD_PROBE_BYTES, 101)
}

pub fn is_noisy(before: f64, after: f64) -> bool {
    (after - before).abs() / before.max(f64::MIN_POSITIVE) > GUARD_DRIFT_LIMIT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM readable on Linux") > 1.0);
    }

    #[test]
    fn stream_probe_is_plausible() {
        let gbs = stream_read_gb_s(1 << 20, 3);
        assert!(gbs > 0.05 && gbs < 2000.0, "{gbs} GB/s");
    }

    #[test]
    fn noise_guard_threshold() {
        assert!(!is_noisy(10.0, 10.9));
        assert!(is_noisy(10.0, 11.1));
        assert!(is_noisy(10.0, 8.9));
    }

    #[test]
    fn clock_frequency_is_plausible() {
        let hz = Clock::start().tsc_hz();
        assert!(hz > 1e8 && hz < 1e10, "{hz}");
    }
}
