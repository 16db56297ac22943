//! Selection by special group assignment (§4.3).
//!
//! When a query both filters and aggregates, and few rows are rejected, the
//! cheapest selection is no selection at all: create one extra, unused group
//! id and assign it to every filtered-out row. The chosen aggregation
//! strategy then processes *all* rows using the modified group-id map, and
//! the special group's results are discarded when outputting. This fuses the
//! filter into the group-id mapping step, keeps the column scan perfectly
//! sequential (no indexed reads), and fully preserves CPU pipelining — the
//! observation that motivated the technique (§4.3's two-query experiment).

use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};
use crate::radix::BytesInPlaceK;

kernel_sig! {
    /// Group ids with rejected rows replaced by the special id, into `out`.
    pub(crate) type AssignK = fn(gids: &[u8], sel: &[u8], special: u8, out: &mut [u8]);
}

pub(crate) const ASSIGN_SPECIAL_GROUP: Family<AssignK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::assign },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::assign },
    ],
    oracle: assign_special_group_scalar,
};
/// Each kernel reads a position before writing it, so `gids` is both input
/// and output.
pub(crate) const ASSIGN_SPECIAL_GROUP_IN_PLACE: Family<BytesInPlaceK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::assign_in_place },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::assign_in_place },
    ],
    oracle: assign_special_group_in_place_scalar,
};

/// Combine a group-id vector with a selection byte vector: where the
/// selection byte is zero the group id is replaced by `special`, otherwise
/// it is kept. Writes to `out`; `gids`, `sel` and `out` must share a length.
///
/// `special` must be an otherwise-unused group id — callers use
/// `max_group_id + 1`, which metadata guarantees is available because group
/// ids are dense dictionary codes (§5).
pub fn assign_special_group(
    gids: &[u8],
    sel: &[u8],
    special: u8,
    out: &mut [u8],
    level: SimdLevel,
) {
    assert_eq!(gids.len(), sel.len(), "group-id/selection length mismatch");
    assert_eq!(gids.len(), out.len(), "output length mismatch");
    crate::selvec::debug_assert_sel_canonical(sel);
    ASSIGN_SPECIAL_GROUP.resolve(level, 0).run(gids, sel, special, out);
}

/// In-place variant: rewrite `gids` directly (the common engine usage, since
/// the group-id map is already a scratch vector).
pub fn assign_special_group_in_place(gids: &mut [u8], sel: &[u8], special: u8, level: SimdLevel) {
    assert_eq!(gids.len(), sel.len(), "group-id/selection length mismatch");
    crate::selvec::debug_assert_sel_canonical(sel);
    ASSIGN_SPECIAL_GROUP_IN_PLACE.resolve(level, 0).run(gids, sel, special);
}

/// Scalar oracle: branch-free select via mask arithmetic. Relies on the
/// canonical `0x00`/`0xFF` selection byte values.
pub fn assign_special_group_scalar(gids: &[u8], sel: &[u8], special: u8, out: &mut [u8]) {
    for i in 0..gids.len() {
        out[i] = (gids[i] & sel[i]) | (special & !sel[i]);
    }
}

/// Scalar oracle for the in-place variant.
pub fn assign_special_group_in_place_scalar(gids: &mut [u8], sel: &[u8], special: u8) {
    for (g, &s) in gids.iter_mut().zip(sel) {
        *g = (*g & s) | (special & !s);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 special-group assignment: the selection bytes convert to a
    //! 64-bit mask and one `vpblendmb` picks the group id or the special id
    //! per lane — 64 rows per iteration.

    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx512f + avx512bw — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn assign(gids: &[u8], sel: &[u8], special: u8, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let sp = _mm512_set1_epi8(special as i8);
            let n = gids.len();
            let mut i = 0usize;
            while i + 64 <= n {
                let g = _mm512_loadu_si512(gids.as_ptr().add(i) as *const _);
                let s = _mm512_loadu_si512(sel.as_ptr().add(i) as *const _);
                let keep = _mm512_test_epi8_mask(s, s);
                _mm512_storeu_si512(
                    out.as_mut_ptr().add(i) as *mut _,
                    _mm512_mask_blend_epi8(keep, sp, g),
                );
                i += 64;
            }
            super::assign_special_group_scalar(&gids[i..], &sel[i..], special, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx512f + avx512bw — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn assign_in_place(gids: &mut [u8], sel: &[u8], special: u8) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let sp = _mm512_set1_epi8(special as i8);
            let n = gids.len();
            let mut i = 0usize;
            while i + 64 <= n {
                let g = _mm512_loadu_si512(gids.as_ptr().add(i) as *const _);
                let s = _mm512_loadu_si512(sel.as_ptr().add(i) as *const _);
                let keep = _mm512_test_epi8_mask(s, s);
                _mm512_storeu_si512(
                    gids.as_mut_ptr().add(i) as *mut _,
                    _mm512_mask_blend_epi8(keep, sp, g),
                );
                i += 64;
            }
            super::assign_special_group_in_place_scalar(&mut gids[i..], &sel[i..], special);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! `vpblendvb` picks per byte by the selection's sign bit: 0xFF keeps
    //! the group id.

    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn assign(gids: &[u8], sel: &[u8], special: u8, out: &mut [u8]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let sp = _mm256_set1_epi8(special as i8);
            let n = gids.len();
            let mut i = 0usize;
            while i + 32 <= n {
                let g = _mm256_loadu_si256(gids.as_ptr().add(i) as *const __m256i);
                let s = _mm256_loadu_si256(sel.as_ptr().add(i) as *const __m256i);
                _mm256_storeu_si256(
                    out.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_blendv_epi8(sp, g, s),
                );
                i += 32;
            }
            super::assign_special_group_scalar(&gids[i..], &sel[i..], special, &mut out[i..]);
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn assign_in_place(gids: &mut [u8], sel: &[u8], special: u8) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let sp = _mm256_set1_epi8(special as i8);
            let n = gids.len();
            let mut i = 0usize;
            while i + 32 <= n {
                let g = _mm256_loadu_si256(gids.as_ptr().add(i) as *const __m256i);
                let s = _mm256_loadu_si256(sel.as_ptr().add(i) as *const __m256i);
                _mm256_storeu_si256(
                    gids.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_blendv_epi8(sp, g, s),
                );
                i += 32;
            }
            super::assign_special_group_in_place_scalar(&mut gids[i..], &sel[i..], special);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selvec::SelByteVec;

    #[test]
    fn replaces_rejected_rows() {
        for level in SimdLevel::available() {
            for n in [0usize, 1, 31, 32, 33, 100, 4096] {
                let gids: Vec<u8> = (0..n).map(|i| (i % 6) as u8).collect();
                let sel = SelByteVec::from_bools(&(0..n).map(|i| i % 7 != 3).collect::<Vec<_>>());
                let mut out = vec![0u8; n];
                assign_special_group(&gids, sel.as_bytes(), 6, &mut out, level);
                for i in 0..n {
                    let expected = if i % 7 != 3 { (i % 6) as u8 } else { 6 };
                    assert_eq!(out[i], expected, "i={i} n={n} level={level}");
                }
            }
        }
    }

    #[test]
    fn in_place_matches_out_of_place() {
        for level in SimdLevel::available() {
            let n = 1000;
            let gids: Vec<u8> = (0..n).map(|i| (i % 13) as u8).collect();
            let sel = SelByteVec::from_bools(&(0..n).map(|i| i % 3 == 0).collect::<Vec<_>>());
            let mut expected = vec![0u8; n];
            assign_special_group(&gids, sel.as_bytes(), 13, &mut expected, level);
            let mut in_place = gids.clone();
            assign_special_group_in_place(&mut in_place, sel.as_bytes(), 13, level);
            assert_eq!(in_place, expected, "level={level}");
        }
    }

    #[test]
    fn all_selected_is_identity() {
        for level in SimdLevel::available() {
            let gids: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
            let mut out = gids.clone();
            assign_special_group_in_place(&mut out, SelByteVec::all(100).as_bytes(), 5, level);
            assert_eq!(out, gids);
        }
    }

    #[test]
    fn none_selected_is_all_special() {
        for level in SimdLevel::available() {
            let mut gids: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
            assign_special_group_in_place(&mut gids, SelByteVec::none(100).as_bytes(), 5, level);
            assert!(gids.iter().all(|&g| g == 5));
        }
    }
}
