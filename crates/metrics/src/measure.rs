//! Median-of-N cycle measurement (§6: "We always run the same experiment
//! ten times, and report the median of these ten runs").

#![expect(
    clippy::disallowed_methods,
    reason = "the measurement harness times kernels on the raw cycle counter"
)]

use crate::cycles::read_cycles;

/// Options controlling a measurement.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Timed repetitions; the median is reported. Paper default: 10.
    pub runs: usize,
    /// Untimed warm-up repetitions (page-in, branch predictors, turbo).
    pub warmup: usize,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts { runs: 10, warmup: 2 }
    }
}

impl MeasureOpts {
    /// A faster profile for smoke tests and CI.
    pub fn quick() -> Self {
        MeasureOpts { runs: 3, warmup: 1 }
    }

    /// Read `BIPIE_BENCH_RUNS` (and halve warmup) from the environment,
    /// falling back to the paper's defaults. Lets one harness binary serve
    /// both quick smoke runs and full reproductions.
    pub fn from_env() -> Self {
        match std::env::var("BIPIE_BENCH_RUNS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(runs) if runs > 0 => MeasureOpts { runs, warmup: (runs / 2).clamp(1, 3) },
            _ => MeasureOpts::default(),
        }
    }
}

/// The result of measuring one kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median cycles per input row.
    pub cycles_per_row: f64,
    /// Minimum observed cycles per row (best case, for noise estimation).
    pub min_cycles_per_row: f64,
    /// Number of rows each run processed.
    pub rows: usize,
}

impl Measurement {
    /// Cycles per row per aggregate — the paper's `cycles/row/sum` unit.
    pub fn per_sum(&self, num_sums: usize) -> f64 {
        self.cycles_per_row / num_sums.max(1) as f64
    }
}

/// Measure `f`, which must process exactly `rows` rows per invocation,
/// returning the median cycles/row over `opts.runs` timed repetitions.
///
/// The closure is invoked `opts.warmup` extra times before timing starts.
/// Use `std::hint::black_box` inside `f` on inputs/outputs to prevent the
/// optimizer from deleting the work.
pub fn measure_cycles_per_row(rows: usize, opts: MeasureOpts, mut f: impl FnMut()) -> Measurement {
    assert!(rows > 0, "cannot normalize by zero rows");
    assert!(opts.runs > 0, "need at least one timed run");
    for _ in 0..opts.warmup {
        f();
    }
    let mut samples: Vec<u64> = Vec::with_capacity(opts.runs);
    for _ in 0..opts.runs {
        let start = read_cycles();
        f();
        let end = read_cycles();
        samples.push(end - start);
    }
    samples.sort_unstable();
    let median = median_of_sorted(&samples);
    Measurement {
        cycles_per_row: median / rows as f64,
        min_cycles_per_row: samples[0] as f64 / rows as f64,
        rows,
    }
}

fn median_of_sorted(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let data: Vec<u64> = (0..10_000).collect();
        let mut sink = 0u64;
        let m = measure_cycles_per_row(data.len(), MeasureOpts::quick(), || {
            sink = sink.wrapping_add(data.iter().copied().map(std::hint::black_box).sum::<u64>());
        });
        assert!(m.cycles_per_row > 0.0);
        assert!(m.min_cycles_per_row <= m.cycles_per_row);
        assert_eq!(m.rows, 10_000);
        std::hint::black_box(sink);
    }

    #[test]
    fn per_sum_divides() {
        let m = Measurement { cycles_per_row: 8.0, min_cycles_per_row: 7.0, rows: 1 };
        assert_eq!(m.per_sum(4), 2.0);
        assert_eq!(m.per_sum(0), 8.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_of_sorted(&[1, 2, 3]), 2.0);
        assert_eq!(median_of_sorted(&[1, 2, 3, 4]), 2.5);
        assert_eq!(median_of_sorted(&[7]), 7.0);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn rejects_zero_rows() {
        measure_cycles_per_row(0, MeasureOpts::quick(), || {});
    }
}
