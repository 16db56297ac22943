//! Runtime CPU-feature dispatch.
//!
//! The paper's Vector Toolbox "has versions compiled for different
//! generations of CPUs that can be automatically switched at run-time based
//! on the hardware that the product is running on" (§3). We implement the
//! same idea with three tiers: portable scalar code, AVX2 (+ BMI2, POPCNT)
//! and AVX-512 (F, BW, VL, VBMI, VBMI2). Detection runs once and is cached;
//! tests and ablation benchmarks can force a level to compare
//! implementations on identical data.

use std::sync::OnceLock;

/// The SIMD capability tier a kernel call should use.
///
/// `SimdLevel` is deliberately a closed, ordered enum: every kernel in the
/// toolbox accepts a level and must behave identically at every level (the
/// test suite enforces this by comparing against `Scalar`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar implementation. Always available; the correctness
    /// oracle for all other levels.
    Scalar,
    /// AVX2 + BMI2 + POPCNT implementations (256-bit integer SIMD), the
    /// instruction set generation the paper targets (Haswell and later).
    Avx2,
    /// AVX-512 (F/BW/VL/VBMI/VBMI2) implementations — a newer toolbox tier
    /// the paper anticipates ("versions compiled for different generations
    /// of CPUs"). Mask registers and `vpcompress` replace the byte-mask and
    /// shuffle-table idioms of the AVX2 tier, `vpermb` + `vpmultishiftqb`
    /// its unpack gathers; kernels without a 512-bit version fall through
    /// to the AVX2 one.
    Avx512,
}

impl SimdLevel {
    /// Detect the best level supported by the running CPU.
    ///
    /// The result is computed once and cached for the life of the process.
    /// The `BIPIE_FORCE_SIMD` environment variable (`scalar`, `avx2`,
    /// `avx512`) overrides detection so CI can run the whole suite once per
    /// tier on one machine; forcing a tier the hardware lacks, or an
    /// unrecognized value, is a hard error — a forced run that silently
    /// fell back would report coverage it never had.
    pub fn detect() -> SimdLevel {
        static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let hw = Self::detect_uncached();
            match std::env::var("BIPIE_FORCE_SIMD") {
                Ok(v) => Self::forced_level(&v, hw),
                Err(_) => hw,
            }
        })
    }

    /// Resolve a `BIPIE_FORCE_SIMD` value against the detected hardware
    /// tier. Split from [`SimdLevel::detect`] so tests can exercise the
    /// parsing and capability checks without mutating process environment.
    ///
    /// # Panics
    ///
    /// On an unrecognized value or a tier above `hw` — the forced matrix
    /// must fail loudly rather than quietly test the wrong kernels.
    fn forced_level(value: &str, hw: SimdLevel) -> SimdLevel {
        let forced = match value {
            "scalar" => SimdLevel::Scalar,
            "avx2" => SimdLevel::Avx2,
            "avx512" => SimdLevel::Avx512,
            // PANIC: deliberate — a typo'd BIPIE_FORCE_SIMD override must
            // fail loudly rather than silently test the wrong kernels.
            other => panic!(
                "BIPIE_FORCE_SIMD={other:?} is not a SIMD tier \
                 (expected \"scalar\", \"avx2\", or \"avx512\")"
            ),
        };
        assert!(
            forced <= hw,
            "BIPIE_FORCE_SIMD={value} requests a tier this CPU lacks (detected: {hw})"
        );
        forced
    }

    fn detect_uncached() -> SimdLevel {
        // Miri interprets MIR and implements few vendor intrinsics; force
        // the scalar tier so `cargo miri test` can exercise the oracle
        // kernels (the differential tests then cover only that tier).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("bmi2")
                && std::arch::is_x86_feature_detected!("popcnt");
            if avx2
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
                // Every core with VBMI2 has VBMI (Ice Lake, Zen 4 onward).
                && std::arch::is_x86_feature_detected!("avx512vbmi")
                && std::arch::is_x86_feature_detected!("avx512vbmi2")
            {
                return SimdLevel::Avx512;
            }
            // BMI2 (pext) and POPCNT ship on every AVX2-capable x86 core
            // (Haswell+), but verify anyway: the compaction kernels use them.
            if avx2 {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    }

    /// True if this level may execute AVX2 instructions.
    #[inline]
    pub fn has_avx2(self) -> bool {
        self >= SimdLevel::Avx2
    }

    /// True if this level may execute AVX-512 instructions.
    #[inline]
    pub fn has_avx512(self) -> bool {
        self >= SimdLevel::Avx512
    }

    /// All levels supported on the running CPU, weakest first.
    ///
    /// Tests iterate this to verify every available implementation against
    /// the scalar oracle.
    pub fn available() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        let best = SimdLevel::detect();
        if best.has_avx2() {
            levels.push(SimdLevel::Avx2);
        }
        if best.has_avx512() {
            levels.push(SimdLevel::Avx512);
        }
        levels
    }
}

impl Default for SimdLevel {
    fn default() -> Self {
        SimdLevel::detect()
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdLevel::Scalar => write!(f, "scalar"),
            SimdLevel::Avx2 => write!(f, "avx2"),
            SimdLevel::Avx512 => write!(f, "avx512"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
    }

    #[test]
    fn scalar_always_available() {
        assert_eq!(SimdLevel::available()[0], SimdLevel::Scalar);
    }

    #[test]
    fn ordering_matches_capability() {
        assert!(SimdLevel::Avx2 > SimdLevel::Scalar);
        assert!(SimdLevel::Avx512 > SimdLevel::Avx2);
        assert!(SimdLevel::Avx2.has_avx2());
        assert!(SimdLevel::Avx512.has_avx2(), "512 tier may run 256-bit kernels");
        assert!(SimdLevel::Avx512.has_avx512());
        assert!(!SimdLevel::Avx2.has_avx512());
        assert!(!SimdLevel::Scalar.has_avx2());
    }

    #[test]
    fn forced_level_parses_display_names() {
        assert_eq!(SimdLevel::forced_level("scalar", SimdLevel::Scalar), SimdLevel::Scalar);
        assert_eq!(SimdLevel::forced_level("scalar", SimdLevel::Avx512), SimdLevel::Scalar);
        assert_eq!(SimdLevel::forced_level("avx2", SimdLevel::Avx2), SimdLevel::Avx2);
        assert_eq!(SimdLevel::forced_level("avx512", SimdLevel::Avx512), SimdLevel::Avx512);
    }

    #[test]
    #[should_panic(expected = "not a SIMD tier")]
    fn forced_level_rejects_unknown_values() {
        SimdLevel::forced_level("AVX2", SimdLevel::Avx512);
    }

    #[test]
    #[should_panic(expected = "tier this CPU lacks")]
    fn forced_level_rejects_unsupported_tiers() {
        SimdLevel::forced_level("avx512", SimdLevel::Avx2);
    }

    #[test]
    fn display_names() {
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Avx512.to_string(), "avx512");
    }
}
