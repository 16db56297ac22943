//! The compacting operator (§4.1).
//!
//! Takes a selection byte vector and produces either a *selection index
//! vector* (the ordinal positions of qualifying rows) or a physically
//! compacted copy of an unpacked input column. Both variants are branch-free
//! with respect to the filter outcome: the scalar versions unconditionally
//! store and advance the output cursor by 0 or 1; the AVX2 versions
//! left-pack eight rows at a time through shuffle lookup tables keyed by an
//! 8-row mask byte extracted with `pext`.
//!
//! Physical compaction requires the input to be unpacked to power-of-two
//! word sizes (§4.1); one kernel is provided per word size.

use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};
use crate::selvec::SelIndexVec;

kernel_sig! {
    /// Selection byte vector into index vector `out`, replacing its contents.
    pub(crate) type CompactIdxK = fn(sel: &[u8], out: &mut Vec<u32>);
    /// Copy the selected elements of `data` into `out`, replacing it.
    pub(crate) type CompactK<T> = fn(data: &[T], sel: &[u8], out: &mut Vec<T>);
}

pub(crate) const COMPACT_INDICES: Family<CompactIdxK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::compact_indices },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::compact_indices },
    ],
    oracle: compact_indices_scalar,
};
pub(crate) const COMPACT_U8: Family<CompactK<u8>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::compact_u8 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::compact_u8 },
    ],
    oracle: compact_scalar_u8,
};
pub(crate) const COMPACT_U16: Family<CompactK<u16>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::compact_u16 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::compact_u16 },
    ],
    oracle: compact_scalar_u16,
};
pub(crate) const COMPACT_U32: Family<CompactK<u32>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::compact_u32 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::compact_u32 },
    ],
    oracle: compact_scalar_u32,
};
/// No AVX2 cell: 4-lane permutes do not pay for their shuffle overhead.
pub(crate) const COMPACT_U64: Family<CompactK<u64>> = Family {
    cells: cells![Cell { tier: Avx512, gate: ANY, kernel: avx512::compact_u64 }],
    oracle: compact_scalar_u64,
};

/// Transform a selection byte vector into a selection index vector
/// (*index-vector mode*, §4.1). Previous contents of `out` are discarded.
pub fn compact_indices(sel: &[u8], out: &mut SelIndexVec, level: SimdLevel) {
    crate::selvec::debug_assert_sel_canonical(sel);
    COMPACT_INDICES.resolve(level, 0).run(sel, out.as_vec_mut());
}

/// Scalar oracle for [`compact_indices`]: branch-free cursor advance.
pub fn compact_indices_scalar(sel: &[u8], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(sel.len());
    let ptr = out.as_mut_ptr();
    let mut c = 0usize;
    for (i, &s) in sel.iter().enumerate() {
        // SAFETY: c < sel.len() <= capacity; the store is unconditional but
        // the cursor only advances for selected rows.
        unsafe { ptr.add(c).write(i as u32) };
        c += (s & 1) as usize;
    }
    // SAFETY: exactly c elements were initialized at 0..c.
    unsafe { out.set_len(c) };
}

macro_rules! physical_compaction {
    ($(#[$doc:meta])* $name:ident, $scalar:ident, $ty:ty, $family:ident) => {
        $(#[$doc])*
        ///
        /// Rows whose selection byte is non-zero are copied to `out` in
        /// order. Previous contents of `out` are discarded.
        ///
        /// # Panics
        /// Panics if `data` and `sel` lengths differ.
        pub fn $name(data: &[$ty], sel: &[u8], out: &mut Vec<$ty>, level: SimdLevel) {
            assert_eq!(data.len(), sel.len(), "data/selection length mismatch");
            crate::selvec::debug_assert_sel_canonical(sel);
            $family.resolve(level, 0).run(data, sel, out);
        }

        /// Scalar oracle: branch-free unconditional store, conditional
        /// cursor advance.
        pub fn $scalar(data: &[$ty], sel: &[u8], out: &mut Vec<$ty>) {
            assert_eq!(data.len(), sel.len(), "data/selection length mismatch");
            out.clear();
            out.reserve(data.len());
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            for (&v, &s) in data.iter().zip(sel) {
                // SAFETY: c < data.len() <= capacity.
                unsafe { ptr.add(c).write(v) };
                c += (s & 1) as usize;
            }
            // SAFETY: exactly c elements were initialized.
            unsafe { out.set_len(c) };
        }
    };
}

physical_compaction!(
    /// Physical compaction of 1-byte elements.
    compact_u8,
    compact_scalar_u8,
    u8,
    COMPACT_U8
);
physical_compaction!(
    /// Physical compaction of 2-byte elements.
    compact_u16,
    compact_scalar_u16,
    u16,
    COMPACT_U16
);
physical_compaction!(
    /// Physical compaction of 4-byte elements.
    compact_u32,
    compact_scalar_u32,
    u32,
    COMPACT_U32
);
physical_compaction!(
    /// Physical compaction of 8-byte elements (scalar on the AVX2 tier: the
    /// 4-lane variant does not pay for its shuffle overhead).
    compact_u64,
    compact_scalar_u64,
    u64,
    COMPACT_U64
);

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::luts;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support bmi2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Extract the 8-row selection mask from 8 canonical selection bytes.
    #[inline]
    #[target_feature(enable = "bmi2")]
    unsafe fn mask8(sel: &[u8], i: usize) -> usize {
        #[expect(clippy::unwrap_used, reason = "the 8-byte slice is exact, so `try_into` must fit")]
        let word = u64::from_le_bytes(sel[i..i + 8].try_into().unwrap());
        _pext_u64(word, 0x0101010101010101) as usize
    }

    /// # Safety
    /// The CPU must support avx2 + bmi2 + popcnt — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2", enable = "bmi2", enable = "popcnt")]
    pub(super) unsafe fn compact_indices(sel: &[u8], out: &mut Vec<u32>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = sel.len();
            // Each 8-row step stores a full 8-lane vector; reserve slack so the
            // final store stays in bounds.
            out.reserve(n + 8);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            let base_step = _mm256_set1_epi32(8);
            let mut base = _mm256_setzero_si256();
            while i + 8 <= n {
                let m = mask8(sel, i);
                let perm = _mm256_loadu_si256(luts::POS[m].as_ptr() as *const __m256i);
                let indices = _mm256_add_epi32(base, perm);
                _mm256_storeu_si256(ptr.add(c) as *mut __m256i, indices);
                c += (m as u32).count_ones() as usize;
                base = _mm256_add_epi32(base, base_step);
                i += 8;
            }
            for k in i..n {
                ptr.add(c).write(k as u32);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx2 + bmi2 + popcnt — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2", enable = "bmi2", enable = "popcnt")]
    pub(super) unsafe fn compact_u32(data: &[u32], sel: &[u8], out: &mut Vec<u32>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 8);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 8 <= n {
                let m = mask8(sel, i);
                let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
                let perm = _mm256_loadu_si256(luts::POS[m].as_ptr() as *const __m256i);
                let packed = _mm256_permutevar8x32_epi32(v, perm);
                _mm256_storeu_si256(ptr.add(c) as *mut __m256i, packed);
                c += (m as u32).count_ones() as usize;
                i += 8;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx2 + bmi2 + popcnt + ssse3 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2", enable = "bmi2", enable = "popcnt", enable = "ssse3")]
    pub(super) unsafe fn compact_u8(data: &[u8], sel: &[u8], out: &mut Vec<u8>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 16);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            let eight = _mm_set1_epi8(8);
            while i + 16 <= n {
                let v = _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
                let s = _mm_loadu_si128(sel.as_ptr().add(i) as *const __m128i);
                let m16 = _mm_movemask_epi8(s) as usize;
                let m0 = m16 & 0xFF;
                let m1 = m16 >> 8;
                // Low 8 rows: shuffle pattern selects bytes 0..8.
                let shuf0 = _mm_loadu_si128(luts::SHUF8[m0].as_ptr() as *const __m128i);
                _mm_storeu_si128(ptr.add(c) as *mut __m128i, _mm_shuffle_epi8(v, shuf0));
                c += (m0 as u32).count_ones() as usize;
                // High 8 rows: same pattern shifted by 8; 0x80 + 8 keeps the
                // zeroing bit set.
                let shuf1 = _mm_add_epi8(
                    _mm_loadu_si128(luts::SHUF8[m1].as_ptr() as *const __m128i),
                    eight,
                );
                _mm_storeu_si128(ptr.add(c) as *mut __m128i, _mm_shuffle_epi8(v, shuf1));
                c += (m1 as u32).count_ones() as usize;
                i += 16;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx2 + bmi2 + popcnt + ssse3 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2", enable = "bmi2", enable = "popcnt", enable = "ssse3")]
    pub(super) unsafe fn compact_u16(data: &[u16], sel: &[u8], out: &mut Vec<u16>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 8);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 8 <= n {
                let m = mask8(sel, i);
                let v = _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
                let shuf = _mm_loadu_si128(luts::SHUF16[m].as_ptr() as *const __m128i);
                _mm_storeu_si128(ptr.add(c) as *mut __m128i, _mm_shuffle_epi8(v, shuf));
                c += (m as u32).count_ones() as usize;
                i += 8;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 compaction: the `vpcompress` family performs left-packing in
    //! a single instruction, replacing the AVX2 tier's shuffle lookup
    //! tables. Selection bytes convert to mask registers with one
    //! `vptestmb`.

    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx512f + avx512bw — guaranteed by the
    /// resolver's tier check before any call.
    /// Mask of non-zero bytes among 64 selection bytes.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn mask64(sel: &[u8], i: usize) -> __mmask64 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let v = _mm512_loadu_si512(sel.as_ptr().add(i) as *const _);
            _mm512_test_epi8_mask(v, v)
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    /// Mask of non-zero bytes among 16 selection bytes.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    unsafe fn mask16(sel: &[u8], i: usize) -> __mmask16 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let v = _mm_loadu_si128(sel.as_ptr().add(i) as *const __m128i);
            _mm_test_epi8_mask(v, v)
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    pub(super) unsafe fn compact_indices(sel: &[u8], out: &mut Vec<u32>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = sel.len();
            out.reserve(n + 16);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            let step = _mm512_set1_epi32(16);
            let mut base = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            while i + 16 <= n {
                let m = mask16(sel, i);
                let packed = _mm512_maskz_compress_epi32(m, base);
                _mm512_storeu_si512(ptr.add(c) as *mut _, packed);
                c += m.count_ones() as usize;
                base = _mm512_add_epi32(base, step);
                i += 16;
            }
            for k in i..n {
                ptr.add(c).write(k as u32);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vbmi2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vbmi2")]
    pub(super) unsafe fn compact_u8(data: &[u8], sel: &[u8], out: &mut Vec<u8>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 64);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 64 <= n {
                let m = mask64(sel, i);
                let v = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let packed = _mm512_maskz_compress_epi8(m, v);
                _mm512_storeu_si512(ptr.add(c) as *mut _, packed);
                c += m.count_ones() as usize;
                i += 64;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl + avx512vbmi2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512vl",
        enable = "avx512vbmi2"
    )]
    pub(super) unsafe fn compact_u16(data: &[u16], sel: &[u8], out: &mut Vec<u16>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 32);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 32 <= n {
                let s = _mm256_loadu_si256(sel.as_ptr().add(i) as *const __m256i);
                let m = _mm256_test_epi8_mask(s, s);
                let v = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let packed = _mm512_maskz_compress_epi16(m, v);
                _mm512_storeu_si512(ptr.add(c) as *mut _, packed);
                c += m.count_ones() as usize;
                i += 32;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    pub(super) unsafe fn compact_u32(data: &[u32], sel: &[u8], out: &mut Vec<u32>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 16);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 16 <= n {
                let m = mask16(sel, i);
                let v = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let packed = _mm512_maskz_compress_epi32(m, v);
                _mm512_storeu_si512(ptr.add(c) as *mut _, packed);
                c += m.count_ones() as usize;
                i += 16;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    pub(super) unsafe fn compact_u64(data: &[u64], sel: &[u8], out: &mut Vec<u64>) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let n = data.len();
            out.clear();
            out.reserve(n + 8);
            let ptr = out.as_mut_ptr();
            let mut c = 0usize;
            let mut i = 0usize;
            while i + 8 <= n {
                let s = _mm_loadl_epi64(sel.as_ptr().add(i) as *const __m128i);
                let m = _mm_test_epi8_mask(s, s) as u8;
                let v = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let packed = _mm512_maskz_compress_epi64(m, v);
                _mm512_storeu_si512(ptr.add(c) as *mut _, packed);
                c += m.count_ones() as usize;
                i += 8;
            }
            for k in i..n {
                ptr.add(c).write(data[k]);
                c += (sel[k] & 1) as usize;
            }
            out.set_len(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selvec::SelByteVec;

    fn sel_pattern(n: usize, keep: impl Fn(usize) -> bool) -> SelByteVec {
        SelByteVec::from_bools(&(0..n).map(keep).collect::<Vec<_>>())
    }

    #[test]
    fn indices_match_reference() {
        for level in SimdLevel::available() {
            for n in [0usize, 1, 7, 8, 9, 15, 16, 63, 100, 4096] {
                let sel = sel_pattern(n, |i| i % 3 == 1 || i % 7 == 0);
                let mut out = SelIndexVec::default();
                compact_indices(sel.as_bytes(), &mut out, level);
                let expected: Vec<u32> =
                    (0..n as u32).filter(|&i| sel.is_selected(i as usize)).collect();
                assert_eq!(out.as_slice(), &expected[..], "n={n} level={level}");
            }
        }
    }

    #[test]
    fn indices_all_and_none() {
        for level in SimdLevel::available() {
            let mut out = SelIndexVec::default();
            compact_indices(SelByteVec::all(100).as_bytes(), &mut out, level);
            assert_eq!(out.len(), 100);
            compact_indices(SelByteVec::none(100).as_bytes(), &mut out, level);
            assert!(out.is_empty());
        }
    }

    macro_rules! physical_test {
        ($test:ident, $kernel:ident, $ty:ty) => {
            #[test]
            fn $test() {
                for level in SimdLevel::available() {
                    for n in [0usize, 1, 7, 8, 9, 16, 17, 31, 33, 100, 4096, 4099] {
                        let data: Vec<$ty> =
                            (0..n).map(|i| (i as u64).wrapping_mul(0x9E3779B9) as $ty).collect();
                        let sel = sel_pattern(n, |i| (i * 5 + 1) % 4 != 0);
                        let mut out = Vec::new();
                        $kernel(&data, sel.as_bytes(), &mut out, level);
                        let expected: Vec<$ty> = data
                            .iter()
                            .zip(sel.as_bytes())
                            .filter(|(_, &s)| s != 0)
                            .map(|(&v, _)| v)
                            .collect();
                        assert_eq!(out, expected, "n={n} level={level}");
                    }
                }
            }
        };
    }

    physical_test!(physical_u8, compact_u8, u8);
    physical_test!(physical_u16, compact_u16, u16);
    physical_test!(physical_u32, compact_u32, u32);
    physical_test!(physical_u64, compact_u64, u64);

    #[test]
    fn physical_none_selected() {
        for level in SimdLevel::available() {
            let data: Vec<u32> = (0..50).collect();
            let mut out = vec![99u32; 3]; // stale contents must be discarded
            compact_u32(&data, SelByteVec::none(50).as_bytes(), &mut out, level);
            assert!(out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn physical_rejects_mismatched_lengths() {
        let mut out = Vec::new();
        compact_u32(&[1, 2, 3], &[0xFF], &mut out, SimdLevel::Scalar);
    }

    #[test]
    fn output_reuse_across_batches() {
        // The kernels are designed to reuse the output allocation.
        let level = SimdLevel::detect();
        let mut out = SelIndexVec::default();
        for batch in 0..4 {
            let sel = sel_pattern(4096, |i| (i + batch) % 2 == 0);
            compact_indices(sel.as_bytes(), &mut out, level);
            assert_eq!(out.len(), 2048);
        }
    }
}
