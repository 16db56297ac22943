//! Selection vectors (§4).
//!
//! After a filter expression is evaluated over a batch, the result is a
//! *selection byte vector*: one byte per row, `0x00` for rows rejected by the
//! filter (and for deleted rows) and `0xFF` for rows that qualify. This is
//! the native output format of AVX2 byte comparisons, so filter evaluation
//! feeds selection kernels with no conversion step.
//!
//! The second form used by the toolbox is the *selection index vector*: the
//! ordinal positions of qualifying rows, produced by the compacting operator
//! in index-vector mode (§4.1) and consumed by gather selection (§4.2).

use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};

/// Byte value marking a selected row.
pub const SELECTED: u8 = 0xFF;
/// Byte value marking a rejected row.
pub const REJECTED: u8 = 0x00;

/// Debug-build check that a selection byte vector is canonical: every byte
/// is exactly [`SELECTED`] or [`REJECTED`]. SIMD selection kernels depend on
/// this form (`pext` of bit 0, byte blends keyed on the sign bit), so a
/// stray value like `0x01` would give level-dependent results; dispatchers
/// call this before routing to any tier.
#[inline]
pub fn debug_assert_sel_canonical(sel: &[u8]) {
    debug_assert!(
        sel.iter().all(|&b| b == SELECTED || b == REJECTED),
        "selection byte vector is not canonical 0x00/0xFF"
    );
}

/// A selection byte vector: one byte per row, `0xFF` = keep, `0x00` = drop.
///
/// The representation is intentionally transparent (`Vec<u8>`) — kernels
/// operate on `&[u8]` slices — but the wrapper carries constructors and
/// SIMD-friendly summary operations (count, selectivity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelByteVec {
    bytes: Vec<u8>,
}

impl SelByteVec {
    /// A selection vector accepting all `len` rows.
    pub fn all(len: usize) -> Self {
        SelByteVec { bytes: vec![SELECTED; len] }
    }

    /// A selection vector rejecting all `len` rows.
    pub fn none(len: usize) -> Self {
        SelByteVec { bytes: vec![REJECTED; len] }
    }

    /// Build from booleans (`true` = selected).
    pub fn from_bools(bools: &[bool]) -> Self {
        SelByteVec { bytes: bools.iter().map(|&b| if b { SELECTED } else { REJECTED }).collect() }
    }

    /// Wrap raw mask bytes. Any non-zero byte is treated as selected by the
    /// scalar kernels; SIMD kernels require the canonical `0x00`/`0xFF`
    /// values, so this constructor canonicalizes.
    pub fn from_mask_bytes(bytes: Vec<u8>) -> Self {
        let mut bytes = bytes;
        for b in &mut bytes {
            *b = if *b != 0 { SELECTED } else { REJECTED };
        }
        SelByteVec { bytes }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the vector covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw mask bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether row `i` is selected.
    #[inline]
    pub fn is_selected(&self, i: usize) -> bool {
        self.bytes[i] != 0
    }

    /// Mark row `i` as rejected (e.g. because the row is deleted).
    #[inline]
    pub fn reject(&mut self, i: usize) {
        self.bytes[i] = REJECTED;
    }

    /// Intersect with another selection vector of the same length.
    pub fn and_with(&mut self, other: &SelByteVec) {
        assert_eq!(self.len(), other.len(), "selection vector length mismatch");
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a &= *b;
        }
    }

    /// Count of selected rows.
    pub fn count_selected(&self, level: SimdLevel) -> usize {
        count_selected(&self.bytes, level)
    }

    /// Fraction of rows selected, in `0.0..=1.0` (`1.0` for empty input).
    pub fn selectivity(&self, level: SimdLevel) -> f64 {
        if self.bytes.is_empty() {
            return 1.0;
        }
        self.count_selected(level) as f64 / self.bytes.len() as f64
    }
}

/// A selection index vector: ordinal positions of qualifying rows, ascending.
///
/// Indices are `u32` — batches are at most 4096 rows and segments at most
/// ~1M rows, so 32 bits always suffice and halve the memory traffic
/// relative to `usize` (and match the AVX2 gather index lane width).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelIndexVec {
    indices: Vec<u32>,
}

impl SelIndexVec {
    /// An empty index vector with capacity for `cap` indices.
    pub fn with_capacity(cap: usize) -> Self {
        SelIndexVec { indices: Vec::with_capacity(cap) }
    }

    /// Identity index vector `0..len` (no row rejected).
    pub fn identity(len: usize) -> Self {
        SelIndexVec { indices: (0..len as u32).collect() }
    }

    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if no rows are selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The index slice.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.indices
    }

    /// The underlying vector, for in-place reuse across batches.
    #[inline]
    pub fn as_vec_mut(&mut self) -> &mut Vec<u32> {
        &mut self.indices
    }
}

kernel_sig! {
    /// Count the non-zero bytes of a selection byte vector.
    pub(crate) type CountSelectedK = fn(sel: &[u8]) -> usize;
}

pub(crate) const COUNT_SELECTED: Family<CountSelectedK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: count_selected_avx512 },
        Cell { tier: Avx2, gate: ANY, kernel: count_selected_avx2 },
    ],
    oracle: count_selected_scalar,
};

/// Count selected (non-zero) bytes in a selection byte vector.
pub fn count_selected(sel: &[u8], level: SimdLevel) -> usize {
    COUNT_SELECTED.resolve(level, 0).run(sel)
}

/// AVX-512 count: one `vptestmb` + popcount covers 64 rows.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512 F+BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
unsafe fn count_selected_avx512(sel: &[u8]) -> usize {
    // SAFETY: reached only from a cell the resolver admitted, so the CPU has
    // these target features; every pointer below stays inside the argument slices.
    unsafe {
        use std::arch::x86_64::*;
        let mut count = 0usize;
        let mut chunks = sel.chunks_exact(64);
        for chunk in &mut chunks {
            let v = _mm512_loadu_si512(chunk.as_ptr() as *const _);
            count += _mm512_test_epi8_mask(v, v).count_ones() as usize;
        }
        count + count_selected_scalar(chunks.remainder())
    }
}

/// Scalar oracle for [`count_selected`].
pub fn count_selected_scalar(sel: &[u8]) -> usize {
    sel.iter().filter(|&&b| b != 0).count()
}

/// AVX2 count of selected bytes: sum of `movemask` popcounts, 32 rows per
/// iteration, no branches on data.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_selected_avx2(sel: &[u8]) -> usize {
    // SAFETY: reached only from a cell the resolver admitted, so the CPU has
    // these target features; every pointer below stays inside the argument slices.
    unsafe {
        use std::arch::x86_64::*;
        let mut count = 0usize;
        let mut chunks = sel.chunks_exact(32);
        let zero = _mm256_setzero_si256();
        for chunk in &mut chunks {
            let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
            // Lane != 0 → 0xFF; movemask packs the sign bits.
            let nz = _mm256_cmpeq_epi8(v, zero);
            let mask = !(_mm256_movemask_epi8(nz) as u32);
            count += mask.count_ones() as usize;
        }
        count + count_selected_scalar(chunks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        SimdLevel::available()
    }

    #[test]
    fn all_none_counts() {
        for level in levels() {
            assert_eq!(SelByteVec::all(100).count_selected(level), 100);
            assert_eq!(SelByteVec::none(100).count_selected(level), 0);
            assert_eq!(SelByteVec::all(0).count_selected(level), 0);
        }
    }

    #[test]
    fn from_bools_roundtrip() {
        let bools: Vec<bool> = (0..67).map(|i| i % 3 == 0).collect();
        let sel = SelByteVec::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(sel.is_selected(i), b);
        }
        let expected = bools.iter().filter(|&&b| b).count();
        for level in levels() {
            assert_eq!(sel.count_selected(level), expected);
        }
    }

    #[test]
    fn mask_bytes_canonicalized() {
        let sel = SelByteVec::from_mask_bytes(vec![0, 1, 2, 0xFF, 0]);
        assert_eq!(sel.as_bytes(), &[0, 0xFF, 0xFF, 0xFF, 0]);
    }

    #[test]
    fn selectivity_bounds() {
        let level = SimdLevel::detect();
        assert_eq!(SelByteVec::all(10).selectivity(level), 1.0);
        assert_eq!(SelByteVec::none(10).selectivity(level), 0.0);
        assert_eq!(SelByteVec::all(0).selectivity(level), 1.0);
    }

    #[test]
    fn and_with_intersects() {
        let mut a = SelByteVec::from_bools(&[true, true, false, false]);
        let b = SelByteVec::from_bools(&[true, false, true, false]);
        a.and_with(&b);
        assert_eq!(a.as_bytes(), &[0xFF, 0, 0, 0]);
    }

    #[test]
    fn reject_marks_deleted_rows() {
        let mut sel = SelByteVec::all(4);
        sel.reject(2);
        assert!(!sel.is_selected(2));
        assert_eq!(sel.count_selected(SimdLevel::Scalar), 3);
    }

    #[test]
    fn index_vec_identity() {
        let iv = SelIndexVec::identity(5);
        assert_eq!(iv.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(iv.len(), 5);
        assert!(SelIndexVec::identity(0).is_empty());
    }
}
