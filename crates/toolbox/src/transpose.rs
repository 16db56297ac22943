//! Register transposition (§5.4).
//!
//! Multi-aggregate summation needs column-major inputs rearranged into
//! row-major SIMD registers. The 4x4 case of 64-bit elements is the paper's
//! example: "this can be done in eight AVX2 instructions (four PUNPCKLQDQ
//! and four PUNPCKHQDQ instructions)" — `avx2::t4x4_epi64` uses four
//! unpacks plus four 128-bit permutes, the same cost on post-Haswell cores.
//! Its callers are the multi-aggregate row kernels in `agg::multi`: both the
//! slot-lane `ACCUMULATE` family and the register `ROW_STEP` family reach it
//! through `add_rows`.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// In-register 4x4 transpose of 64-bit lanes.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn t4x4_epi64(
        a: __m256i,
        b: __m256i,
        c: __m256i,
        d: __m256i,
    ) -> (__m256i, __m256i, __m256i, __m256i) {
        // unpack within 128-bit halves:
        let ab_lo = _mm256_unpacklo_epi64(a, b); // a0 b0 a2 b2
        let ab_hi = _mm256_unpackhi_epi64(a, b); // a1 b1 a3 b3
        let cd_lo = _mm256_unpacklo_epi64(c, d); // c0 d0 c2 d2
        let cd_hi = _mm256_unpackhi_epi64(c, d); // c1 d1 c3 d3
                                                 // stitch 128-bit halves across registers:
        let r0 = _mm256_permute2x128_si256::<0x20>(ab_lo, cd_lo); // a0 b0 c0 d0
        let r1 = _mm256_permute2x128_si256::<0x20>(ab_hi, cd_hi); // a1 b1 c1 d1
        let r2 = _mm256_permute2x128_si256::<0x31>(ab_lo, cd_lo); // a2 b2 c2 d2
        let r3 = _mm256_permute2x128_si256::<0x31>(ab_hi, cd_hi); // a3 b3 c3 d3
        (r0, r1, r2, r3)
    }
}
