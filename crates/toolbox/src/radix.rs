//! Radix combination of dense code vectors.
//!
//! Multi-column GROUP BY combines per-column dictionary codes into a single
//! group id: `g = g * card + code` per column (§6.3: "integer dictionary
//! ids for both string group by columns are ... combined into a single
//! integer value"). The result provably fits `u8` because the Group ID
//! Mapper only takes this path when the cardinality product is below the
//! narrow-group limit.

use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};

kernel_sig! {
    /// Rewrite a byte vector in place from a second one and a byte constant:
    /// the radix scale-add here, special-group assignment in `select`.
    pub(crate) type BytesInPlaceK = fn(acc: &mut [u8], rhs: &[u8], k: u8);
}

pub(crate) const FUSED_SCALE_ADD_U8: Family<BytesInPlaceK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::fused_scale_add }],
    oracle: fused_scale_add_u8_scalar,
};

/// In place, `acc[i] = acc[i] * factor + addend[i]`, all in the u8 domain.
///
/// # Panics
/// Panics if lengths differ. The caller guarantees the result fits `u8`
/// (debug-asserted).
pub fn fused_scale_add_u8(acc: &mut [u8], addend: &[u8], factor: u8, level: SimdLevel) {
    assert_eq!(acc.len(), addend.len(), "length mismatch");
    debug_assert!(acc
        .iter()
        .zip(addend)
        .all(|(&a, &b)| a as u32 * factor as u32 + b as u32 <= u8::MAX as u32));
    FUSED_SCALE_ADD_U8.resolve(level, 0).run(acc, addend, factor);
}

/// Scalar oracle for [`fused_scale_add_u8`].
pub fn fused_scale_add_u8_scalar(acc: &mut [u8], addend: &[u8], factor: u8) {
    for (a, &b) in acc.iter_mut().zip(addend) {
        *a = (*a as u16 * factor as u16 + b as u16) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// 32 codes per iteration: widen both byte vectors to 16-bit lanes,
    /// multiply-accumulate, and pack back down (values fit u8 by contract,
    /// so the saturating pack is exact).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fused_scale_add(acc: &mut [u8], addend: &[u8], factor: u8) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = acc.len();
            let f = _mm256_set1_epi16(factor as i16);
            let zero = _mm256_setzero_si256();
            let mut i = 0usize;
            while i + 32 <= n {
                let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
                let b = _mm256_loadu_si256(addend.as_ptr().add(i) as *const __m256i);
                // Widen within 128-bit halves; order is restored by the
                // symmetric pack at the end.
                let a_lo = _mm256_unpacklo_epi8(a, zero);
                let a_hi = _mm256_unpackhi_epi8(a, zero);
                let b_lo = _mm256_unpacklo_epi8(b, zero);
                let b_hi = _mm256_unpackhi_epi8(b, zero);
                let r_lo = _mm256_add_epi16(_mm256_mullo_epi16(a_lo, f), b_lo);
                let r_hi = _mm256_add_epi16(_mm256_mullo_epi16(a_hi, f), b_hi);
                let packed = _mm256_packus_epi16(r_lo, r_hi);
                _mm256_storeu_si256(acc.as_mut_ptr().add(i) as *mut __m256i, packed);
                i += 32;
            }
            super::fused_scale_add_u8_scalar(&mut acc[i..], &addend[i..], factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_semantics() {
        // (g1=2, card2=3, g2=1) -> 2*3+1 = 7
        let mut acc = vec![2u8];
        fused_scale_add_u8(&mut acc, &[1], 3, SimdLevel::Scalar);
        assert_eq!(acc, vec![7]);
    }

    #[test]
    fn max_domain_values() {
        // 84 * 3 + 2 = 254: near the u8 limit, must not saturate early.
        let mut acc = vec![84u8; 64];
        let addend = vec![2u8; 64];
        for level in SimdLevel::available() {
            let mut a = acc.clone();
            fused_scale_add_u8(&mut a, &addend, 3, level);
            assert!(a.iter().all(|&x| x == 254), "level={level}");
        }
        fused_scale_add_u8_scalar(&mut acc, &addend, 3);
        assert!(acc.iter().all(|&x| x == 254));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        fused_scale_add_u8(&mut [1, 2], &[1], 2, SimdLevel::Scalar);
    }
}
