//! Serialized time-stamp-counter reads.
//!
//! This is the one place outside the SIMD kernels where the workspace needs
//! `unsafe`: the measurement crate (`bipie-metrics`) is `forbid(unsafe_code)`
//! and reads cycles through this function instead of issuing `rdtsc` itself.
//!
//! `rdtsc` alone can be reordered by the out-of-order engine; bracketing the
//! read with `lfence` pins it to the instruction stream (the standard
//! `lfence; rdtsc` measurement idiom). Under Miri and on non-x86_64 targets
//! a monotonic-nanosecond fallback keeps the harness running (absolute
//! numbers then are nanoseconds, not cycles).

#![expect(clippy::disallowed_methods, reason = "the raw cycle counter lives here")]

/// Read the time-stamp counter, serialized against earlier loads.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
pub fn read_tsc() -> u64 {
    // SAFETY: `lfence` and `rdtsc` are unprivileged instructions available
    // on every x86_64 CPU; they read no memory and have no preconditions.
    unsafe {
        std::arch::x86_64::_mm_lfence();
        let t = std::arch::x86_64::_rdtsc();
        std::arch::x86_64::_mm_lfence();
        t
    }
}

/// Monotonic-nanosecond fallback for non-x86_64 targets and Miri.
#[cfg(any(not(target_arch = "x86_64"), miri))]
#[inline]
pub fn read_tsc() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsc_is_monotone() {
        let a = read_tsc();
        let b = read_tsc();
        assert!(b >= a);
    }
}
