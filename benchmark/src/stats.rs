//! Order statistics for the harness: medians, the percentile rule, and the
//! quartile spread used to compare sets of runs.

/// Ops a workload must time before a 95th percentile is printed: with 200
/// samples, ten lie beyond p95 (choosing-metrics §1).
pub const MIN_OPS_FOR_P95: usize = 200;

/// Samples that must lie beyond a reported percentile.
const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `pct`-th percentile (nearest-rank), or an error when fewer than ten
/// samples lie beyond it: a tail estimated from a handful of samples is not
/// a number worth gating on.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, String> {
    assert!((0.0..100.0).contains(&pct), "percentile out of range");
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples leaves {beyond} beyond it; need at least {MIN_SAMPLES_BEYOND}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's definition of spread.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// How much worse `now` is than `base`, as a share of `base` (negative when
/// it improved). `higher_is_better` flips the sign.
pub fn worsening(base: f64, now: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return if now == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (now - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        let err = percentile(&few, 95.0).expect_err("199 samples leave 9 beyond p95");
        assert!(err.contains("need at least 10"), "{err}");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&enough, 95.0), Ok(190.0));
        assert_eq!(MIN_OPS_FOR_P95, 200);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 95.0), Ok(380.0));
        assert_eq!(percentile(&v, 50.0), Ok(200.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 103.0, false) - 0.03).abs() < 1e-12);
        assert!((worsening(100.0, 103.0, true) + 0.03).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 1.0, false), f64::INFINITY);
    }
}
