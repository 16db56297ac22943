//! Serialized TSC reads.
//!
//! The actual `lfence; rdtsc` sequence lives in [`bipie_toolbox::cycles`] —
//! this crate is `#![forbid(unsafe_code)]`, so it consumes the counter
//! through that safe wrapper. On non-x86 targets (and under Miri) the
//! toolbox substitutes a monotonic-nanosecond fallback so the harness still
//! runs; the absolute numbers then are nanoseconds, not cycles.

#![expect(clippy::disallowed_methods, reason = "the harness clock wraps the raw cycle counter")]

/// Read the time-stamp counter, serialized against earlier loads.
#[inline]
pub fn read_cycles() -> u64 {
    bipie_toolbox::cycles::read_tsc()
}

/// Estimate the TSC frequency in Hz by timing against the wall clock.
/// Used only for converting cycle counts to human-readable throughput.
pub fn estimate_tsc_hz() -> f64 {
    use std::time::Instant;
    let wall_start = Instant::now();
    let tsc_start = read_cycles();
    // ~50ms busy-wait gives < 1% error without disturbing the benchmark.
    while wall_start.elapsed().as_millis() < 50 {
        std::hint::spin_loop();
    }
    let tsc = read_cycles() - tsc_start;
    let secs = wall_start.elapsed().as_secs_f64();
    tsc as f64 / secs
}

/// [`estimate_tsc_hz`], measured once per process and cached — report
/// renderers that convert many cycle totals to time call this repeatedly
/// and must not pay the ~50ms calibration each time.
pub fn tsc_hz() -> f64 {
    use std::sync::OnceLock;
    static HZ: OnceLock<f64> = OnceLock::new();
    *HZ.get_or_init(estimate_tsc_hz)
}

/// A wall-clock deadline for cooperative budget checks.
///
/// This is the harness's second clock, next to [`read_cycles`]: spans want
/// cycle resolution, but a deadline only needs the monotonic wall clock
/// that [`estimate_tsc_hz`] calibrates against. `Instant::now()` is a vDSO
/// read (tens of nanoseconds, already cached by the kernel), so checking a
/// deadline never pays the ~50ms TSC-frequency calibration — important for
/// time budgets shorter than the calibration itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    end: std::time::Instant,
}

impl Deadline {
    /// A deadline `budget` from now. Saturates at the far future if the
    /// budget overflows the clock's range.
    pub fn after(budget: std::time::Duration) -> Deadline {
        let now = std::time::Instant::now();
        Deadline {
            end: now
                .checked_add(budget)
                .unwrap_or(now + std::time::Duration::from_secs(u32::MAX as u64)),
        }
    }

    /// Whether the deadline has passed.
    #[inline]
    pub fn reached(&self) -> bool {
        std::time::Instant::now() >= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_monotone() {
        let a = read_cycles();
        let b = read_cycles();
        assert!(b >= a);
    }

    #[test]
    fn tsc_frequency_is_plausible() {
        let hz = estimate_tsc_hz();
        // Any real machine is between 100 MHz and 10 GHz.
        assert!(hz > 1e8 && hz < 1e10, "estimated {hz} Hz");
    }

    #[test]
    fn cached_frequency_is_stable() {
        let a = tsc_hz();
        let b = tsc_hz();
        assert_eq!(a, b, "the cached estimate must not be re-measured");
        assert!(a > 1e8 && a < 1e10);
    }

    #[test]
    fn zero_deadline_is_immediately_reached() {
        assert!(Deadline::after(std::time::Duration::ZERO).reached());
    }

    #[test]
    fn far_deadline_is_not_reached() {
        assert!(!Deadline::after(std::time::Duration::from_secs(3600)).reached());
        // An absurd budget saturates instead of panicking on Instant overflow.
        assert!(!Deadline::after(std::time::Duration::from_secs(u64::MAX)).reached());
    }
}
