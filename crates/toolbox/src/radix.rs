//! Radix combination of dense code vectors.
//!
//! Multi-column GROUP BY combines per-column dictionary codes into a single
//! group id: `g = g * card + code` per column (§6.3: "integer dictionary
//! ids for both string group by columns are ... combined into a single
//! integer value"). The result provably fits `u8` because the Group ID
//! Mapper only takes this path when the cardinality product is below the
//! narrow-group limit.

use crate::dispatch::SimdLevel;

/// In place, `acc[i] = acc[i] * factor + addend[i]`, all in the u8 domain.
///
/// Scalar only: at the engine's 4 096-row batch the compiler's
/// vectorization of this loop beats the AVX2 kernel it had (DESIGN.md §21).
///
/// # Panics
/// Panics if lengths differ. The caller guarantees the result fits `u8`
/// (debug-asserted).
pub fn fused_scale_add_u8(acc: &mut [u8], addend: &[u8], factor: u8, _level: SimdLevel) {
    assert_eq!(acc.len(), addend.len(), "length mismatch");
    debug_assert!(acc
        .iter()
        .zip(addend)
        .all(|(&a, &b)| a as u32 * factor as u32 + b as u32 <= u8::MAX as u32));
    fused_scale_add_u8_scalar(acc, addend, factor);
}

/// Scalar oracle for [`fused_scale_add_u8`].
pub fn fused_scale_add_u8_scalar(acc: &mut [u8], addend: &[u8], factor: u8) {
    for (a, &b) in acc.iter_mut().zip(addend) {
        *a = (*a as u16 * factor as u16 + b as u16) as u8;
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
