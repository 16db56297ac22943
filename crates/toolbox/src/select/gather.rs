//! Gather selection (§4.2).
//!
//! Works in two steps: first, the compacting operator (index-vector mode)
//! turns the selection byte vector into a selection index vector; second,
//! for each index, a word containing the bit-packed value is fetched from
//! the encoded column and the value is extracted. Fetching uses the AVX2
//! gather instruction so that eight (or four) packed values are loaded,
//! shifted, and masked per iteration with no data-dependent branches.
//!
//! Unlike physical compaction, gather selection only unpacks values that
//! are *selected* — the whole-column unpack is skipped — which is why it
//! wins at low selectivities (Figure 7).

use crate::bitpack::{PackedVec, Word};
use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel};

kernel_sig! {
    /// Gather-unpack the packed values at `indices` into the front of `out`;
    /// returns how many it wrote. A gather runs down its family's chain, as
    /// an unpack does: the cell writes whole groups, the oracle the rest.
    pub(crate) type GatherK<T> = fn(pv: &PackedVec, indices: &[u32], out: &mut [T]) -> usize;
}

/// Gates: a byte-aligned 32-bit load covers a value of up to 25 bits, a
/// 64-bit one up to 57.
pub(crate) const GATHER_U8: Family<GatherK<u8>> = Family {
    cells: cells![Cell { tier: Avx2, gate: 25, kernel: avx2::gather_u8 }],
    oracle: gather_scalar,
};
pub(crate) const GATHER_U16: Family<GatherK<u16>> = Family {
    cells: cells![Cell { tier: Avx2, gate: 25, kernel: avx2::gather_u16 }],
    oracle: gather_scalar,
};
pub(crate) const GATHER_U32: Family<GatherK<u32>> = Family {
    cells: cells![Cell { tier: Avx2, gate: 25, kernel: avx2::gather_u32 }],
    oracle: gather_scalar,
};
pub(crate) const GATHER_U64: Family<GatherK<u64>> = Family {
    cells: cells![Cell { tier: Avx2, gate: 57, kernel: avx2::gather_u64 }],
    oracle: gather_scalar,
};

/// Gather-unpack the packed values at `indices` into `u32` words.
///
/// # Panics
/// Panics if the bit width exceeds 32 or `out.len() != indices.len()`.
/// Indices must be in-bounds (checked in debug builds).
pub fn gather_unpack_u32(pv: &PackedVec, indices: &[u32], out: &mut [u32], level: SimdLevel) {
    assert!(pv.bits() <= 32, "bit width {} does not fit u32 words", pv.bits());
    gather(&GATHER_U32, pv, indices, out, level);
}

/// Gather-unpack the packed values at `indices` into `u64` words.
pub fn gather_unpack_u64(pv: &PackedVec, indices: &[u32], out: &mut [u64], level: SimdLevel) {
    gather(&GATHER_U64, pv, indices, out, level);
}

/// Gather-unpack into `u16` words (bit widths 1..=16).
pub fn gather_unpack_u16(pv: &PackedVec, indices: &[u32], out: &mut [u16], level: SimdLevel) {
    assert!(pv.bits() <= 16, "bit width {} does not fit u16 words", pv.bits());
    gather(&GATHER_U16, pv, indices, out, level);
}

/// Gather-unpack into `u8` words (bit widths 1..=8).
pub fn gather_unpack_u8(pv: &PackedVec, indices: &[u32], out: &mut [u8], level: SimdLevel) {
    assert!(pv.bits() <= 8, "bit width {} does not fit u8 words", pv.bits());
    gather(&GATHER_U8, pv, indices, out, level);
}

fn gather<T>(
    family: &Family<GatherK<T>>,
    pv: &PackedVec,
    indices: &[u32],
    out: &mut [T],
    level: SimdLevel,
) {
    assert_eq!(indices.len(), out.len(), "output length mismatch");
    debug_assert!(indices.iter().all(|&i| (i as usize) < pv.len()), "gather index out of bounds");
    let mut done = 0;
    for kernel in family.chain(level, pv.bits() as usize) {
        if done < out.len() {
            done += kernel.run(pv, &indices[done..], &mut out[done..]);
        }
    }
}

/// Scalar oracle of the gather families.
pub(crate) fn gather_scalar<T: Word>(pv: &PackedVec, indices: &[u32], out: &mut [T]) -> usize {
    pv.values_into(indices.iter().map(|&i| i as usize), out)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::bitpack::PackedVec;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Gather 8 packed values given their row indices: bit offsets are
    /// computed in-register (`index * bits`), split into byte offsets and
    /// sub-byte shifts, fetched with `vpgatherdd`, shifted and masked.
    ///
    /// Requires `bits <= 25` so a byte-aligned 32-bit load covers any value.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather8(
        base: *const u8,
        idx: __m256i,
        bits: __m256i,
        seven: __m256i,
        mask: __m256i,
    ) -> __m256i {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bit = _mm256_mullo_epi32(idx, bits);
            let byte_off = _mm256_srli_epi32::<3>(bit);
            let shift = _mm256_and_si256(bit, seven);
            let words = _mm256_i32gather_epi32::<1>(base as *const i32, byte_off);
            _mm256_and_si256(_mm256_srlv_epi32(words, shift), mask)
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u32(pv: &PackedVec, indices: &[u32], out: &mut [u32]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = pv.bytes_padded().as_ptr();
            let bits = _mm256_set1_epi32(pv.bits() as i32);
            let seven = _mm256_set1_epi32(7);
            let mask = _mm256_set1_epi32(pv.value_mask() as u32 as i32);
            let n = indices.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let idx = _mm256_loadu_si256(indices.as_ptr().add(i) as *const __m256i);
                let v = gather8(base, idx, bits, seven, mask);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, v);
                i += 8;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u16(pv: &PackedVec, indices: &[u32], out: &mut [u16]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = pv.bytes_padded().as_ptr();
            let bits = _mm256_set1_epi32(pv.bits() as i32);
            let seven = _mm256_set1_epi32(7);
            let mask = _mm256_set1_epi32(pv.value_mask() as u32 as i32);
            let n = indices.len();
            let mut i = 0usize;
            while i + 16 <= n {
                let i0 = _mm256_loadu_si256(indices.as_ptr().add(i) as *const __m256i);
                let i1 = _mm256_loadu_si256(indices.as_ptr().add(i + 8) as *const __m256i);
                let lo = gather8(base, i0, bits, seven, mask);
                let hi = gather8(base, i1, bits, seven, mask);
                let packed = _mm256_packus_epi32(lo, hi);
                let fixed = _mm256_permute4x64_epi64::<0b11011000>(packed);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, fixed);
                i += 16;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u8(pv: &PackedVec, indices: &[u32], out: &mut [u8]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = pv.bytes_padded().as_ptr();
            let bits = _mm256_set1_epi32(pv.bits() as i32);
            let seven = _mm256_set1_epi32(7);
            let mask = _mm256_set1_epi32(pv.value_mask() as u32 as i32);
            let n = indices.len();
            let mut i = 0usize;
            while i + 32 <= n {
                let mut regs = [_mm256_setzero_si256(); 4];
                for (j, r) in regs.iter_mut().enumerate() {
                    let idx = _mm256_loadu_si256(indices.as_ptr().add(i + j * 8) as *const __m256i);
                    *r = gather8(base, idx, bits, seven, mask);
                }
                let ab = _mm256_packus_epi32(regs[0], regs[1]);
                let cd = _mm256_packus_epi32(regs[2], regs[3]);
                let abcd = _mm256_packus_epi16(ab, cd);
                let perm =
                    _mm256_permutevar8x32_epi32(abcd, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, perm);
                i += 32;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather_u64(pv: &PackedVec, indices: &[u32], out: &mut [u64]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = pv.bytes_padded().as_ptr();
            let bits = pv.bits() as u64;
            let mask = _mm256_set1_epi64x(pv.value_mask() as i64);
            let seven = _mm256_set1_epi64x(7);
            let n = indices.len();
            let mut i = 0usize;
            while i + 4 <= n {
                // Widen 4 u32 indices to u64 lanes, compute bit offsets with a
                // 64-bit multiply-by-constant (indices * bits fits 64 bits).
                let idx32 = _mm_loadu_si128(indices.as_ptr().add(i) as *const __m128i);
                let idx = _mm256_cvtepu32_epi64(idx32);
                // 64-bit multiply by small constant via shift-add decomposition
                // is overkill; mul_epu32 works since indices < 2^32 and bits < 64.
                let bit = mul_epu64_small(idx, bits);
                let byte_off = _mm256_srli_epi64::<3>(bit);
                let shift = _mm256_and_si256(bit, seven);
                let words = _mm256_i64gather_epi64::<1>(base as *const i64, byte_off);
                let v = _mm256_and_si256(_mm256_srlv_epi64(words, shift), mask);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, v);
                i += 4;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Multiply 64-bit lanes (values < 2^32) by a small constant < 2^32.
    /// `vpmuludq` multiplies the low 32 bits of each lane, which is exact
    /// under these preconditions.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_epu64_small(v: __m256i, c: u64) -> __m256i {
        debug_assert!(c < u32::MAX as u64);
        _mm256_mul_epu32(v, _mm256_set1_epi64x(c as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selvec::SelByteVec;

    fn packed(n: usize, bits: u8) -> (Vec<u64>, PackedVec) {
        let mask = crate::bitpack::mask_for(bits);
        let values: Vec<u64> =
            (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask).collect();
        let pv = PackedVec::pack(&values, bits);
        (values, pv)
    }

    fn some_indices(n: usize) -> Vec<u32> {
        (0..n as u32).filter(|i| i % 3 != 1).collect()
    }

    #[test]
    fn gather_narrow_words() {
        for level in SimdLevel::available() {
            let (values, pv) = packed(300, 7);
            let idx = some_indices(300);
            let mut out8 = vec![0u8; idx.len()];
            gather_unpack_u8(&pv, &idx, &mut out8, level);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(out8[k] as u64, values[i as usize], "level={level}");
            }
            let (values, pv) = packed(300, 14);
            let mut out16 = vec![0u16; idx.len()];
            gather_unpack_u16(&pv, &idx, &mut out16, level);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(out16[k] as u64, values[i as usize], "level={level}");
            }
        }
    }

    #[test]
    fn gather_with_empty_and_single_index() {
        let (_, pv) = packed(10, 5);
        for level in SimdLevel::available() {
            let mut out: Vec<u32> = vec![];
            gather_unpack_u32(&pv, &[], &mut out, level);
            let mut out = vec![0u32; 1];
            gather_unpack_u32(&pv, &[9], &mut out, level);
            assert_eq!(out[0] as u64, pv.get(9));
        }
    }

    #[test]
    fn gather_duplicated_and_unsorted_indices() {
        // Gather does not require ascending indices (sort-based aggregation
        // reuses it with bucket-ordered index arrays).
        let (values, pv) = packed(64, 11);
        let idx: Vec<u32> = vec![63, 0, 5, 5, 62, 1, 1, 1, 30, 31, 32, 33];
        for level in SimdLevel::available() {
            let mut out = vec![0u32; idx.len()];
            gather_unpack_u32(&pv, &idx, &mut out, level);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(out[k] as u64, values[i as usize]);
            }
        }
    }

    #[test]
    fn end_to_end_with_compaction() {
        // Full §4.2 pipeline: selection byte vector -> index vector -> gather.
        use crate::select::compact::compact_indices;
        use crate::selvec::SelIndexVec;
        let (values, pv) = packed(4096, 20);
        let sel = SelByteVec::from_bools(&(0..4096).map(|i| i % 10 == 0).collect::<Vec<_>>());
        for level in SimdLevel::available() {
            let mut iv = SelIndexVec::default();
            compact_indices(sel.as_bytes(), &mut iv, level);
            let mut out = vec![0u32; iv.len()];
            gather_unpack_u32(&pv, iv.as_slice(), &mut out, level);
            let expected: Vec<u32> =
                (0..4096).filter(|i| i % 10 == 0).map(|i| values[i] as u32).collect();
            assert_eq!(out, expected);
        }
    }
}
