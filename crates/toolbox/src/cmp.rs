//! Vectorized comparisons producing selection byte vectors (§4).
//!
//! Filter expressions are evaluated with SIMD comparisons whose result is
//! stored "consistent with how AVX2 comparison instructions store the output
//! for single byte elements": one byte per row, `0xFF` selected, `0x00`
//! rejected. These kernels compare a column vector against a constant (the
//! common shape of ad-hoc analytical filters, e.g. TPC-H Q1's
//! `l_shipdate <= DATE '1998-09-02'`) and write that canonical byte mask.
//!
//! All comparisons on unsigned element types are unsigned; AVX2 only offers
//! signed compares, so the kernels flip the sign bit of both operands
//! (a standard order-preserving bijection from unsigned to signed space).

use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};

/// A comparison operator against a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `x == c`
    Eq,
    /// `x != c`
    Ne,
    /// `x < c`
    Lt,
    /// `x <= c`
    Le,
    /// `x > c`
    Gt,
    /// `x >= c`
    Ge,
}

impl CmpOp {
    /// Evaluate on ordering-comparable scalars.
    #[inline]
    pub fn eval<T: PartialOrd>(self, x: T, c: T) -> bool {
        match self {
            CmpOp::Eq => x == c,
            CmpOp::Ne => x != c,
            CmpOp::Lt => x < c,
            CmpOp::Le => x <= c,
            CmpOp::Gt => x > c,
            CmpOp::Ge => x >= c,
        }
    }
}

macro_rules! scalar_cmp {
    ($name:ident, $between:ident, $ty:ty) => {
        /// Scalar oracle: compare each element against `c`, writing the
        /// canonical byte mask.
        pub fn $name(data: &[$ty], op: CmpOp, c: $ty, out: &mut [u8]) {
            assert_eq!(data.len(), out.len(), "output length mismatch");
            for (x, o) in data.iter().zip(out.iter_mut()) {
                *o = if op.eval(*x, c) { 0xFF } else { 0x00 };
            }
        }

        /// Scalar oracle: inclusive range test `lo <= x <= hi`.
        pub fn $between(data: &[$ty], lo: $ty, hi: $ty, out: &mut [u8]) {
            assert_eq!(data.len(), out.len(), "output length mismatch");
            for (x, o) in data.iter().zip(out.iter_mut()) {
                *o = if *x >= lo && *x <= hi { 0xFF } else { 0x00 };
            }
        }
    };
}

scalar_cmp!(cmp_scalar_u8, between_scalar_u8, u8);
scalar_cmp!(cmp_scalar_u16, between_scalar_u16, u16);
scalar_cmp!(cmp_scalar_u32, between_scalar_u32, u32);
scalar_cmp!(cmp_scalar_u64, between_scalar_u64, u64);
scalar_cmp!(cmp_scalar_i64, between_scalar_i64, i64);

kernel_sig! {
    /// Compare `data` against a constant into a byte mask.
    pub(crate) type CmpK<T> = fn(data: &[T], op: CmpOp, c: T, out: &mut [u8]);
    /// Inclusive range test into a byte mask.
    pub(crate) type BetweenK = fn(data: &[u32], lo: u32, hi: u32, out: &mut [u8]);
    /// Byte-code set membership into a byte mask.
    pub(crate) type MembershipK = fn(codes: &[u8], table: &[u8; 32], out: &mut [u8]);
}

pub(crate) const CMP_U8: Family<CmpK<u8>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::cmp_u8 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::cmp_u8 },
    ],
    oracle: cmp_scalar_u8,
};
pub(crate) const CMP_U16: Family<CmpK<u16>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::cmp_u16 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::cmp_u16 },
    ],
    oracle: cmp_scalar_u16,
};
pub(crate) const CMP_U32: Family<CmpK<u32>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::cmp_u32 },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::cmp_u32 },
    ],
    oracle: cmp_scalar_u32,
};
/// `i64` has no 512-bit kernel and runs its AVX2 one on that tier.
pub(crate) const CMP_I64: Family<CmpK<i64>> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::cmp_i64 }],
    oracle: cmp_scalar_i64,
};
pub(crate) const BETWEEN_U32: Family<BetweenK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::between_u32 }],
    oracle: between_scalar_u32,
};
pub(crate) const MEMBERSHIP_U8: Family<MembershipK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::membership_u8 }],
    oracle: membership_scalar_u8,
};

macro_rules! dispatch_cmp {
    ($name:ident, $family:ident, $ty:ty) => {
        /// Compare each element of `data` against `c` with `op`, writing the
        /// canonical `0x00`/`0xFF` byte mask into `out`.
        pub fn $name(data: &[$ty], op: CmpOp, c: $ty, out: &mut [u8], level: SimdLevel) {
            assert_eq!(data.len(), out.len(), "output length mismatch");
            $family.resolve(level, 0).run(data, op, c, out);
        }
    };
}

dispatch_cmp!(cmp_u8, CMP_U8, u8);
dispatch_cmp!(cmp_u16, CMP_U16, u16);
dispatch_cmp!(cmp_u32, CMP_U32, u32);
dispatch_cmp!(cmp_i64, CMP_I64, i64);

/// Compare `u64` elements (scalar only: 64-bit unsigned compares gain little
/// from AVX2's 4-lane width once the mask pack-down is paid).
pub fn cmp_u64(data: &[u64], op: CmpOp, c: u64, out: &mut [u8], _level: SimdLevel) {
    cmp_scalar_u64(data, op, c, out);
}

/// Inclusive range filter `lo <= x <= hi` over `u32` elements.
pub fn between_u32(data: &[u32], lo: u32, hi: u32, out: &mut [u8], level: SimdLevel) {
    assert_eq!(data.len(), out.len(), "output length mismatch");
    BETWEEN_U32.resolve(level, 0).run(data, lo, hi, out);
}

/// Inclusive range filter `lo <= x <= hi` over `i64` elements.
pub fn between_i64(data: &[i64], lo: i64, hi: i64, out: &mut [u8], _level: SimdLevel) {
    between_scalar_i64(data, lo, hi, out);
}

/// Set membership over byte codes: `out[i]` is selected when bit `codes[i]`
/// of the 256-bit `table` (bit `c` = bit `c % 8` of byte `c / 8`) is set.
/// The conjunction of comparisons a filter puts on one dictionary column
/// becomes one such table, built once per segment; this is the per-row pass.
pub fn membership_u8(codes: &[u8], table: &[u8; 32], out: &mut [u8], level: SimdLevel) {
    assert_eq!(codes.len(), out.len(), "output length mismatch");
    MEMBERSHIP_U8.resolve(level, 0).run(codes, table, out);
}

/// Scalar oracle for [`membership_u8`].
pub fn membership_scalar_u8(codes: &[u8], table: &[u8; 32], out: &mut [u8]) {
    assert_eq!(codes.len(), out.len(), "output length mismatch");
    for (o, &c) in out.iter_mut().zip(codes) {
        let bit = (table[(c >> 3) as usize] >> (c & 7)) & 1;
        // Branch-free widen: 1 -> 0xFF, 0 -> 0x00.
        *o = bit.wrapping_neg();
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 comparisons: unsigned compare instructions produce mask
    //! registers directly (no sign-bit flipping), and `vpmovm2b` expands a
    //! mask into the canonical byte vector. `u8`, `u16` and `u32` — the
    //! words a packed column of up to 32 bits is compared at — have 512-bit
    //! versions; `i64` has none and its family's AVX2 cell serves that tier.

    use super::CmpOp;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx512f + avx512bw — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn cmp_u8(data: &[u8], op: CmpOp, c: u8, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let cv = _mm512_set1_epi8(c as i8);
            let n = data.len();
            let mut i = 0usize;
            while i + 64 <= n {
                let x = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let m: __mmask64 = match op {
                    CmpOp::Eq => _mm512_cmpeq_epu8_mask(x, cv),
                    CmpOp::Ne => _mm512_cmpneq_epu8_mask(x, cv),
                    CmpOp::Lt => _mm512_cmplt_epu8_mask(x, cv),
                    CmpOp::Le => _mm512_cmple_epu8_mask(x, cv),
                    CmpOp::Gt => _mm512_cmpgt_epu8_mask(x, cv),
                    CmpOp::Ge => _mm512_cmpge_epu8_mask(x, cv),
                };
                _mm512_storeu_si512(out.as_mut_ptr().add(i) as *mut _, _mm512_movm_epi8(m));
                i += 64;
            }
            super::cmp_scalar_u8(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    pub(super) unsafe fn cmp_u16(data: &[u16], op: CmpOp, c: u16, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let cv = _mm512_set1_epi16(c as i16);
            let n = data.len();
            let mut i = 0usize;
            while i + 32 <= n {
                let x = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let m: __mmask32 = match op {
                    CmpOp::Eq => _mm512_cmpeq_epu16_mask(x, cv),
                    CmpOp::Ne => _mm512_cmpneq_epu16_mask(x, cv),
                    CmpOp::Lt => _mm512_cmplt_epu16_mask(x, cv),
                    CmpOp::Le => _mm512_cmple_epu16_mask(x, cv),
                    CmpOp::Gt => _mm512_cmpgt_epu16_mask(x, cv),
                    CmpOp::Ge => _mm512_cmpge_epu16_mask(x, cv),
                };
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, _mm256_movm_epi8(m));
                i += 32;
            }
            super::cmp_scalar_u16(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
    pub(super) unsafe fn cmp_u32(data: &[u32], op: CmpOp, c: u32, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let cv = _mm512_set1_epi32(c as i32);
            let n = data.len();
            let mut i = 0usize;
            while i + 16 <= n {
                let x = _mm512_loadu_si512(data.as_ptr().add(i) as *const _);
                let m: __mmask16 = match op {
                    CmpOp::Eq => _mm512_cmpeq_epu32_mask(x, cv),
                    CmpOp::Ne => _mm512_cmpneq_epu32_mask(x, cv),
                    CmpOp::Lt => _mm512_cmplt_epu32_mask(x, cv),
                    CmpOp::Le => _mm512_cmple_epu32_mask(x, cv),
                    CmpOp::Gt => _mm512_cmpgt_epu32_mask(x, cv),
                    CmpOp::Ge => _mm512_cmpge_epu32_mask(x, cv),
                };
                _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, _mm_movm_epi8(m));
                i += 16;
            }
            super::cmp_scalar_u32(&data[i..], op, c, &mut out[i..]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::CmpOp;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Apply `op` given the three primitive signed-compare results.
    ///
    /// AVX2 provides only EQ and GT; the other four operators are derived:
    /// `ne = !eq`, `lt = !(gt | eq)`, `le = !gt`, `ge = gt | eq`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine(op: CmpOp, eq: __m256i, gt: __m256i) -> __m256i {
        let ones = _mm256_set1_epi8(-1);
        match op {
            CmpOp::Eq => eq,
            CmpOp::Ne => _mm256_xor_si256(eq, ones),
            CmpOp::Gt => gt,
            CmpOp::Le => _mm256_xor_si256(gt, ones),
            CmpOp::Ge => _mm256_or_si256(gt, eq),
            CmpOp::Lt => _mm256_xor_si256(_mm256_or_si256(gt, eq), ones),
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_u8(data: &[u8], op: CmpOp, c: u8, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            // Flip sign bits to do unsigned comparison with signed instructions.
            let flip = _mm256_set1_epi8(i8::MIN);
            let cv = _mm256_xor_si256(_mm256_set1_epi8(c as i8), flip);
            let n = data.len();
            let mut i = 0;
            while i + 32 <= n {
                let x = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
                let xs = _mm256_xor_si256(x, flip);
                let eq = _mm256_cmpeq_epi8(xs, cv);
                let gt = _mm256_cmpgt_epi8(xs, cv);
                let m = combine(op, eq, gt);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, m);
                i += 32;
            }
            super::cmp_scalar_u8(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Pack two 16-lane word masks into one 32-lane byte mask, preserving
    /// element order (packs operates within 128-bit halves, so a cross-lane
    /// permute restores order).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack16(lo: __m256i, hi: __m256i) -> __m256i {
        let packed = _mm256_packs_epi16(lo, hi);
        _mm256_permute4x64_epi64::<0b11011000>(packed)
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_u16(data: &[u16], op: CmpOp, c: u16, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let flip = _mm256_set1_epi16(i16::MIN);
            let cv = _mm256_xor_si256(_mm256_set1_epi16(c as i16), flip);
            let n = data.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut masks = [_mm256_setzero_si256(); 2];
                for (j, m) in masks.iter_mut().enumerate() {
                    let x = _mm256_loadu_si256(data.as_ptr().add(i + j * 16) as *const __m256i);
                    let xs = _mm256_xor_si256(x, flip);
                    let eq = _mm256_cmpeq_epi16(xs, cv);
                    let gt = _mm256_cmpgt_epi16(xs, cv);
                    *m = combine(op, eq, gt);
                }
                let bytes = pack16(masks[0], masks[1]);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes);
                i += 32;
            }
            super::cmp_scalar_u16(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Pack two 8-lane dword masks into one order-preserving 16-lane word
    /// mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack32(lo: __m256i, hi: __m256i) -> __m256i {
        let packed = _mm256_packs_epi32(lo, hi);
        _mm256_permute4x64_epi64::<0b11011000>(packed)
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_u32(data: &[u32], op: CmpOp, c: u32, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let flip = _mm256_set1_epi32(i32::MIN);
            let cv = _mm256_xor_si256(_mm256_set1_epi32(c as i32), flip);
            let n = data.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut words = [_mm256_setzero_si256(); 2];
                for (j, w) in words.iter_mut().enumerate() {
                    let x0 = _mm256_loadu_si256(data.as_ptr().add(i + j * 16) as *const __m256i);
                    let x1 =
                        _mm256_loadu_si256(data.as_ptr().add(i + j * 16 + 8) as *const __m256i);
                    let xs0 = _mm256_xor_si256(x0, flip);
                    let xs1 = _mm256_xor_si256(x1, flip);
                    let m0 = combine(op, _mm256_cmpeq_epi32(xs0, cv), _mm256_cmpgt_epi32(xs0, cv));
                    let m1 = combine(op, _mm256_cmpeq_epi32(xs1, cv), _mm256_cmpgt_epi32(xs1, cv));
                    *w = pack32(m0, m1);
                }
                let bytes = pack16(words[0], words[1]);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes);
                i += 32;
            }
            super::cmp_scalar_u32(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn between_u32(data: &[u32], lo: u32, hi: u32, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let flip = _mm256_set1_epi32(i32::MIN);
            let lov = _mm256_xor_si256(_mm256_set1_epi32(lo as i32), flip);
            let hiv = _mm256_xor_si256(_mm256_set1_epi32(hi as i32), flip);
            let ones = _mm256_set1_epi8(-1);
            let n = data.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut words = [_mm256_setzero_si256(); 2];
                for (j, w) in words.iter_mut().enumerate() {
                    let mut dwords = [_mm256_setzero_si256(); 2];
                    for (k, d) in dwords.iter_mut().enumerate() {
                        let x = _mm256_loadu_si256(
                            data.as_ptr().add(i + j * 16 + k * 8) as *const __m256i
                        );
                        let xs = _mm256_xor_si256(x, flip);
                        // lo <= x <= hi  ==  !(lo > x) & !(x > hi)
                        let below = _mm256_cmpgt_epi32(lov, xs);
                        let above = _mm256_cmpgt_epi32(xs, hiv);
                        *d = _mm256_xor_si256(_mm256_or_si256(below, above), ones);
                    }
                    *w = pack32(dwords[0], dwords[1]);
                }
                let bytes = pack16(words[0], words[1]);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes);
                i += 32;
            }
            super::between_scalar_u32(&data[i..], lo, hi, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmp_i64(data: &[i64], op: CmpOp, c: i64, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let cv = _mm256_set1_epi64x(c);
            let n = data.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut words = [_mm256_setzero_si256(); 2];
                for (j, w) in words.iter_mut().enumerate() {
                    let mut dwords = [_mm256_setzero_si256(); 2];
                    for (k, d) in dwords.iter_mut().enumerate() {
                        let base = i + j * 16 + k * 8;
                        let x0 = _mm256_loadu_si256(data.as_ptr().add(base) as *const __m256i);
                        let x1 = _mm256_loadu_si256(data.as_ptr().add(base + 4) as *const __m256i);
                        let m0 =
                            combine(op, _mm256_cmpeq_epi64(x0, cv), _mm256_cmpgt_epi64(x0, cv));
                        let m1 =
                            combine(op, _mm256_cmpeq_epi64(x1, cv), _mm256_cmpgt_epi64(x1, cv));
                        // Pack qword masks to dword masks: qword masks are all-0
                        // or all-1, so packs_epi32 saturation preserves them.
                        *d = pack32(m0, m1);
                    }
                    *w = pack32(dwords[0], dwords[1]);
                }
                let bytes = pack16(words[0], words[1]);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes);
                i += 32;
            }
            super::cmp_scalar_i64(&data[i..], op, c, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn membership_u8(codes: &[u8], table: &[u8; 32], out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            // `pshufb` looks 16 bytes up per 128-bit lane, so the 32-byte
            // table is two lookups — bytes 0..16 and 16..32, each broadcast
            // to both lanes — blended on bit 4 of the byte index.
            let tbl = _mm256_loadu_si256(table.as_ptr() as *const __m256i);
            let tbl_lo = _mm256_permute2x128_si256::<0x00>(tbl, tbl);
            let tbl_hi = _mm256_permute2x128_si256::<0x11>(tbl, tbl);
            // 1 << (code & 7), by lookup as well.
            let bit_of = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
            let low3 = _mm256_set1_epi8(0x07);
            let low4 = _mm256_set1_epi8(0x0F);
            let n = codes.len();
            let mut i = 0;
            while i + 32 <= n {
                let c = _mm256_loadu_si256(codes.as_ptr().add(i) as *const __m256i);
                // code >> 3 per byte: shift words, then drop the bits that
                // crossed in from the neighbouring byte.
                let byte = _mm256_srli_epi16::<3>(c);
                let idx = _mm256_and_si256(byte, low4);
                let lo = _mm256_shuffle_epi8(tbl_lo, idx);
                let hi = _mm256_shuffle_epi8(tbl_hi, idx);
                // Bit 4 of the byte index is bit 7 of the code.
                let entry = _mm256_blendv_epi8(lo, hi, c);
                let bit = _mm256_shuffle_epi8(bit_of, _mm256_and_si256(c, low3));
                let m = _mm256_cmpeq_epi8(_mm256_and_si256(entry, bit), bit);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, m);
                i += 32;
            }
            super::membership_scalar_u8(&codes[i..], table, &mut out[i..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(3, 3));
        assert!(CmpOp::Gt.eval(4, 3));
        assert!(CmpOp::Ge.eval(3, 3));
        assert!(!CmpOp::Lt.eval(4, 3));
    }

    /// `run` writes `op.eval` of every element as a canonical byte.
    fn check<T: Copy + PartialOrd>(
        data: &[T],
        consts: &[T],
        run: impl Fn(&[T], CmpOp, T, &mut [u8]),
    ) {
        for op in OPS {
            for &c in consts {
                let mut out = vec![0u8; data.len()];
                run(data, op, c, &mut out);
                for (i, &x) in data.iter().enumerate() {
                    let expected = if op.eval(x, c) { 0xFF } else { 0x00 };
                    assert_eq!(out[i], expected, "i={i} op={op:?}");
                }
            }
        }
    }

    /// The oracles every cell is walked against (`crate::walk`), and the
    /// scalar-only `u64` compare.
    #[test]
    fn oracles_follow_op_semantics() {
        let d8: Vec<u8> = (0..100).map(|i| (i * 37 % 251) as u8).collect();
        check(&d8, &[0, 1, 127, 128, 200, 255], cmp_scalar_u8);
        let d16: Vec<u16> = (0..100).map(|i| (i * 997 % 65521) as u16).collect();
        check(&d16, &[0, 1, 32767, 32768, 65535], cmp_scalar_u16);
        let d32: Vec<u32> = (0..100).map(|i| (i as u32).wrapping_mul(2654435761)).collect();
        check(&d32, &[0, 1, i32::MAX as u32, 1 << 31, u32::MAX], cmp_scalar_u32);
        let d64: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let u64_at = |d: &[u64], op, c, out: &mut [u8]| cmp_u64(d, op, c, out, SimdLevel::detect());
        check(&d64, &[0, 1, i64::MAX as u64, 1 << 63, u64::MAX], u64_at);
        let di: Vec<i64> = (0..100).map(|i| ((i as i64) - 50).wrapping_mul(0x12345678)).collect();
        check(&di, &[i64::MIN, -1, 0, 1, i64::MAX], cmp_scalar_i64);
        let mut out = vec![0u8; 4];
        between_scalar_u32(&[99, 100, 5000, 5001], 100, 5000, &mut out);
        assert_eq!(out, [0, 0xFF, 0xFF, 0]);
        membership_scalar_u8(
            &[0, 7, 8, 255],
            &std::array::from_fn(|i| (i == 31) as u8 * 0x81),
            &mut out,
        );
        assert_eq!(out, [0, 0, 0, 0xFF]);
    }

    #[test]
    fn between_i64_basic() {
        let data: Vec<i64> = (-50..50).collect();
        let mut out = vec![0u8; data.len()];
        between_i64(&data, -10, 10, &mut out, SimdLevel::detect());
        let selected = out.iter().filter(|&&b| b != 0).count();
        assert_eq!(selected, 21);
    }
}
