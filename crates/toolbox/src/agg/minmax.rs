//! Grouped MIN/MAX aggregation — an extension beyond the paper's COUNT and
//! SUM (§2.2 notes that widening the operator set is a mechanical extension
//! of the same techniques; this module demonstrates it).
//!
//! Like the sums, min/max operate on the encoding's *normalized* unsigned
//! domain: minimum and maximum commute with the frame-of-reference shift,
//! so the engine adds `reference` back at output. The in-register variant
//! reuses §5.3's virtual-array idea with `pmin`/`pmax` instead of adds:
//! per group, one compare produces the lane mask, a blend keeps the
//! identity element in non-matching lanes, and a vertical min/max folds the
//! vector into the group's register.

use super::MAX_GROUPS_IN_REGISTER;
use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel};

kernel_sig! {
    /// Grouped MIN/MAX of bytes into `mins`/`maxs`, one slot per group.
    pub(crate) type MinMaxK = fn(gids: &[u8], values: &[u8], mins: &mut [u8], maxs: &mut [u8]);
}

/// The AVX2 kernel keeps two registers per group (`mins.len()`, which the
/// dispatcher cuts to the group count): its gate is the register budget.
pub(crate) const MIN_MAX_U8: Family<MinMaxK> = Family {
    cells: cells![Cell { tier: Avx2, gate: MAX_GROUPS_IN_REGISTER, kernel: avx2::min_max_u8 }],
    oracle: min_max_scalar_u8,
};

macro_rules! scalar_minmax {
    ($name:ident, $ty:ty) => {
        /// Scalar grouped min/max for this element width. `mins`/`maxs`
        /// must be pre-initialized to the identity elements (`MAX`/`MIN`).
        pub fn $name(gids: &[u8], values: &[$ty], mins: &mut [$ty], maxs: &mut [$ty]) {
            assert_eq!(gids.len(), values.len(), "group/value length mismatch");
            for (&g, &v) in gids.iter().zip(values) {
                let g = g as usize;
                debug_assert!(g < mins.len() && g < maxs.len(), "group id out of range");
                if v < mins[g] {
                    mins[g] = v;
                }
                if v > maxs[g] {
                    maxs[g] = v;
                }
            }
        }
    };
}

scalar_minmax!(min_max_scalar_u8, u8);
scalar_minmax!(min_max_scalar_u16, u16);
scalar_minmax!(min_max_scalar_u32, u32);
scalar_minmax!(min_max_scalar_u64, u64);
scalar_minmax!(min_max_scalar_i64, i64);

/// Grouped min/max of 1-byte values with in-register virtual arrays
/// (groups ≤ 32); falls back to the scalar kernel otherwise.
pub fn min_max_u8(
    gids: &[u8],
    values: &[u8],
    num_groups: usize,
    mins: &mut [u8],
    maxs: &mut [u8],
    level: SimdLevel,
) {
    assert!(num_groups >= 1, "need at least one group");
    assert!(mins.len() >= num_groups && maxs.len() >= num_groups, "accumulator too short");
    assert_eq!(gids.len(), values.len(), "group/value length mismatch");
    super::debug_assert_group_ids(gids, num_groups);
    let (mins, maxs) = (&mut mins[..num_groups], &mut maxs[..num_groups]);
    MIN_MAX_U8.resolve(level, num_groups).run(gids, values, mins, maxs);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Horizontal min of 32 u8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmin_epu8(v: __m256i) -> u8 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let mut m = _mm_min_epu8(lo, hi);
        m = _mm_min_epu8(m, _mm_srli_si128::<8>(m));
        m = _mm_min_epu8(m, _mm_srli_si128::<4>(m));
        m = _mm_min_epu8(m, _mm_srli_si128::<2>(m));
        m = _mm_min_epu8(m, _mm_srli_si128::<1>(m));
        _mm_extract_epi8::<0>(m) as u8
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Horizontal max of 32 u8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hmax_epu8(v: __m256i) -> u8 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let mut m = _mm_max_epu8(lo, hi);
        m = _mm_max_epu8(m, _mm_srli_si128::<8>(m));
        m = _mm_max_epu8(m, _mm_srli_si128::<4>(m));
        m = _mm_max_epu8(m, _mm_srli_si128::<2>(m));
        m = _mm_max_epu8(m, _mm_srli_si128::<1>(m));
        _mm_extract_epi8::<0>(m) as u8
    }

    macro_rules! dispatch_n {
        ($func:ident, $n:expr, ($($arg:expr),*)) => {
            match $n {
                1..=4 => $func::<4>($($arg),*),
                5..=8 => $func::<8>($($arg),*),
                9..=16 => $func::<16>($($arg),*),
                _ => $func::<32>($($arg),*),
            }
        };
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn min_max_u8(gids: &[u8], values: &[u8], mins: &mut [u8], maxs: &mut [u8]) {
        let n = mins.len();
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { dispatch_n!(min_max_u8_n, n, (gids, values, n, mins, maxs)) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// §5.3's virtual arrays with min/max folds: per group, compare to get
    /// the lane mask, blend the identity element into non-matching lanes,
    /// and fold with `pminub`/`pmaxub`. `N` is the register budget
    /// (rounded up); only `n` groups are processed.
    #[target_feature(enable = "avx2")]
    unsafe fn min_max_u8_n<const N: usize>(
        gids: &[u8],
        values: &[u8],
        n: usize,
        mins: &mut [u8],
        maxs: &mut [u8],
    ) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let min_identity = _mm256_set1_epi8(-1); // 0xFF = u8::MAX
            let max_identity = _mm256_setzero_si256();
            let mut vmins = [min_identity; N];
            let mut vmaxs = [max_identity; N];
            let len = gids.len();
            let mut i = 0usize;
            while i + 32 <= len {
                let g = _mm256_loadu_si256(gids.as_ptr().add(i) as *const __m256i);
                let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
                for j in 0..n {
                    let mask = _mm256_cmpeq_epi8(g, _mm256_set1_epi8(j as i8));
                    let vmin = _mm256_blendv_epi8(min_identity, v, mask);
                    let vmax = _mm256_blendv_epi8(max_identity, v, mask);
                    vmins[j] = _mm256_min_epu8(vmins[j], vmin);
                    vmaxs[j] = _mm256_max_epu8(vmaxs[j], vmax);
                }
                i += 32;
            }
            for j in 0..n {
                mins[j] = mins[j].min(hmin_epu8(vmins[j]));
                maxs[j] = maxs[j].max(hmax_epu8(vmaxs[j]));
            }
            super::min_max_scalar_u8(&gids[i..], &values[i..], mins, maxs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_groups_keep_identities() {
        let gids = [0u8; 100];
        let values: Vec<u8> = (1..=100).map(|i| (i % 256) as u8).collect();
        for level in SimdLevel::available() {
            let mut mins = vec![u8::MAX; 4];
            let mut maxs = vec![u8::MIN; 4];
            min_max_u8(&gids, &values, 4, &mut mins, &mut maxs, level);
            assert_eq!(mins[0], 1);
            assert_eq!(maxs[0], 100);
            assert_eq!(&mins[1..], &[u8::MAX; 3]);
            assert_eq!(&maxs[1..], &[u8::MIN; 3]);
        }
    }

    #[test]
    fn wider_scalar_kernels() {
        let gids = [0u8, 1, 0, 1, 2];
        let v32 = [5u32, 100, 3, 7, 42];
        let mut mins = vec![u32::MAX; 3];
        let mut maxs = vec![u32::MIN; 3];
        min_max_scalar_u32(&gids, &v32, &mut mins, &mut maxs);
        assert_eq!(mins, vec![3, 7, 42]);
        assert_eq!(maxs, vec![5, 100, 42]);
        let vi = [-5i64, 2, -10, 8, 0];
        let mut mins = vec![i64::MAX; 3];
        let mut maxs = vec![i64::MIN; 3];
        min_max_scalar_i64(&gids, &vi, &mut mins, &mut maxs);
        assert_eq!(mins, vec![-10, 2, 0]);
        assert_eq!(maxs, vec![-5, 8, 0]);
    }

    #[test]
    fn accumulates_across_calls() {
        let mut mins = vec![50u8];
        let mut maxs = vec![50u8];
        min_max_u8(&[0], &[10], 1, &mut mins, &mut maxs, SimdLevel::Scalar);
        min_max_u8(&[0], &[90], 1, &mut mins, &mut maxs, SimdLevel::detect());
        assert_eq!(mins, vec![10]);
        assert_eq!(maxs, vec![90]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_fewer_values_than_group_ids_at_every_tier() {
        // The AVX2 kernel loads 32 values per 32 group ids: without the
        // dispatcher's check it read past `values`.
        let (mut mins, mut maxs) = (vec![u8::MAX; 2], vec![0u8; 2]);
        min_max_u8(&[0; 64], &[1], 2, &mut mins, &mut maxs, SimdLevel::detect());
    }
}
