//! In-Register aggregation (§5.3).
//!
//! Intermediate results are kept entirely in CPU registers instead of
//! memory: each SIMD lane owns a *virtual array* of per-group accumulators,
//! with one register per group. For every vector of group ids, the kernel
//! compares against each group id `i` (producing a lane mask) and adds the
//! masked contribution into group `i`'s register — `N` compare/add pairs for
//! `N` groups, regardless of data. The per-group registers are collapsed
//! into scalar totals when the narrow lanes approach overflow and at the end.
//!
//! The technique applies to COUNT and SUM, is limited to ~32 groups, and is
//! fastest for narrow values: 1-byte inputs get 32 lanes of parallelism,
//! 4-byte inputs only 8 (Figure 5 shows the linear cost in groups and the
//! gap between widths). For COUNT, group `N-1` is never processed — its
//! count is derived from the total row count (§5.3), saving one register.
//!
//! Each specialized variant is monomorphized per group count `N` (the paper
//! generates these with macros and templates); dispatch picks the right
//! instantiation at runtime.

use super::scalar;
use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};

kernel_sig! {
    /// Grouped COUNT into `counts`, one slot per group.
    pub(crate) type CountGroupsK = fn(gids: &[u8], counts: &mut [u64]);
    /// Grouped SUM of one word size into `sums`, one slot per group.
    pub(crate) type SumK<T> = fn(gids: &[u8], values: &[T], sums: &mut [i64]);
    /// Grouped SUM of `u32`s no larger than `max_value`.
    pub(crate) type SumU32K = fn(gids: &[u8], values: &[u32], sums: &mut [i64], max_value: u32);
}

/// The kernels keep one register per group (`counts.len()` / `sums.len()`,
/// which the dispatchers cut to the group count); the oracles are `scalar`'s
/// single-array loops.
pub(crate) const COUNT_GROUPS: Family<CountGroupsK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: ANY, kernel: avx512::count },
        Cell { tier: Avx2, gate: ANY, kernel: avx2::dispatch_count },
    ],
    oracle: scalar::count_single_array,
};
pub(crate) const SUM_U8: Family<SumK<u8>> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::dispatch_sum_u8 }],
    oracle: scalar::sum_single_array_u8,
};
pub(crate) const SUM_U16: Family<SumK<u16>> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::dispatch_sum_u16 }],
    oracle: scalar::sum_single_array_u16,
};
pub(crate) const SUM_U32: Family<SumU32K> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::dispatch_sum_u32 }],
    // The bound only sets the SIMD flush cadence.
    oracle: |gids, values, sums, _| scalar::sum_single_array_u32(gids, values, sums),
};

/// Grouped `COUNT(*)` with in-register virtual accumulator arrays.
///
/// # Panics
/// Panics if `num_groups` is 0, exceeds [`super::MAX_GROUPS_IN_REGISTER`],
/// or `counts.len() < num_groups`. Group ids must be `< num_groups`
/// (debug-asserted; the SIMD path derives group `N-1`'s count from the
/// total, so out-of-range ids would corrupt it).
pub fn count_groups(gids: &[u8], num_groups: usize, counts: &mut [u64], level: SimdLevel) {
    check_args(gids, num_groups, counts.len());
    COUNT_GROUPS.resolve(level, 0).run(gids, &mut counts[..num_groups]);
}

/// Grouped SUM of 1-byte values, 16-bit lane accumulators (Table 3 row 2).
pub fn sum_u8(gids: &[u8], values: &[u8], num_groups: usize, sums: &mut [i64], level: SimdLevel) {
    check_args(gids, num_groups, sums.len());
    assert_eq!(gids.len(), values.len(), "group/value length mismatch");
    SUM_U8.resolve(level, 0).run(gids, values, &mut sums[..num_groups]);
}

/// Grouped SUM of 2-byte values, 32-bit lane accumulators (Table 3 row 3).
pub fn sum_u16(gids: &[u8], values: &[u16], num_groups: usize, sums: &mut [i64], level: SimdLevel) {
    check_args(gids, num_groups, sums.len());
    assert_eq!(gids.len(), values.len(), "group/value length mismatch");
    SUM_U16.resolve(level, 0).run(gids, values, &mut sums[..num_groups]);
}

/// Grouped SUM of 4-byte values, 32-bit lane accumulators (Table 3 row 4).
///
/// `max_value` is an upper bound on the input values (from segment
/// metadata); it determines how often the 32-bit lanes must be flushed.
/// Must be `< 2^31` — wider inputs use a different strategy.
pub fn sum_u32(
    gids: &[u8],
    values: &[u32],
    num_groups: usize,
    sums: &mut [i64],
    max_value: u32,
    level: SimdLevel,
) {
    check_args(gids, num_groups, sums.len());
    assert_eq!(gids.len(), values.len(), "group/value length mismatch");
    assert!(max_value < (1 << 31), "max_value {max_value} too wide for 32-bit lane accumulators");
    debug_assert!(values.iter().all(|&v| v <= max_value), "value exceeds declared max_value");
    SUM_U32.resolve(level, 0).run(gids, values, &mut sums[..num_groups], max_value);
}

fn check_args(gids: &[u8], num_groups: usize, acc_len: usize) {
    assert!(
        (1..=super::MAX_GROUPS_IN_REGISTER).contains(&num_groups),
        "in-register aggregation supports 1..=32 groups, got {num_groups}"
    );
    assert!(acc_len >= num_groups, "accumulator shorter than group count");
    super::debug_assert_group_ids(gids, num_groups);
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 COUNT: comparing 64 group ids against group `j` yields a
    //! 64-bit mask whose popcount *is* the per-vector count — no lane
    //! counters, no flush cadence, no saved register for the last group.

    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx512f + avx512bw — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub(super) unsafe fn count(gids: &[u8], counts: &mut [u64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let (n, num_groups) = (gids.len(), counts.len());
            let mut i = 0usize;
            while i + 64 <= n {
                let g = _mm512_loadu_si512(gids.as_ptr().add(i) as *const _);
                // Group N-1 derived from the total, as in §5.3.
                let mut accounted = 0u64;
                for j in 0..num_groups - 1 {
                    let m = _mm512_cmpeq_epi8_mask(g, _mm512_set1_epi8(j as i8));
                    let c = m.count_ones() as u64;
                    counts[j] += c;
                    accounted += c;
                }
                counts[num_groups - 1] += 64 - accounted;
                i += 64;
            }
            for &g in &gids[i..] {
                counts[g as usize] += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Horizontal sum of four u64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epu64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi64(lo, hi);
        (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64::<1>(s) as u64)
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Sum 32 u8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sum_bytes(v: __m256i) -> u64 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { hsum_epu64(_mm256_sad_epu8(v, _mm256_setzero_si256())) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Horizontal sum of eight non-negative i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epu32(v: __m256i) -> u64 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let zero = _mm256_setzero_si256();
            let lo = _mm256_unpacklo_epi32(v, zero);
            let hi = _mm256_unpackhi_epi32(v, zero);
            hsum_epu64(_mm256_add_epi64(lo, hi))
        }
    }

    /// `$func::<N>` for the runtime group count `$n`, `N` in `1..=32`.
    macro_rules! dispatch_n {
        ($func:ident, $n:expr, $args:tt) => {
            dispatch_n!(@ $func, $n, $args,
                1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
        };
        (@ $func:ident, $n:expr, $args:tt, $($k:literal)*) => {
            match $n {
                $($k => $func::<$k> $args,)*
                // Cannot fire: the dispatcher only routes here for 1..=32 groups.
                _ => unreachable!("group count checked by caller"),
            }
        };
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch_count(gids: &[u8], counts: &mut [u64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { dispatch_n!(count_n, counts.len(), (gids, counts)) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch_sum_u8(gids: &[u8], values: &[u8], sums: &mut [i64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { dispatch_n!(sum_u8_n, sums.len(), (gids, values, sums)) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch_sum_u16(gids: &[u8], values: &[u16], sums: &mut [i64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { dispatch_n!(sum_u16_n, sums.len(), (gids, values, sums)) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dispatch_sum_u32(
        gids: &[u8],
        values: &[u32],
        sums: &mut [i64],
        max_value: u32,
    ) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe { dispatch_n!(sum_u32_n, sums.len(), (gids, values, sums, max_value)) }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// COUNT: 8-bit lane counters, one register per group except the last,
    /// flushed via SAD every 255 vectors (the 8-bit lane limit).
    #[target_feature(enable = "avx2")]
    unsafe fn count_n<const N: usize>(gids: &[u8], counts: &mut [u64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let zero = _mm256_setzero_si256();
            let mut cnt = [zero; N];
            let mut totals = [0u64; N];
            let n = gids.len();
            let mut simd_rows = 0u64;
            let mut i = 0usize;
            let mut since_flush = 0u32;
            while i + 32 <= n {
                let g = _mm256_loadu_si256(gids.as_ptr().add(i) as *const __m256i);
                for j in 0..N - 1 {
                    let m = _mm256_cmpeq_epi8(g, _mm256_set1_epi8(j as i8));
                    // Subtracting the all-ones mask increments matching lanes.
                    cnt[j] = _mm256_sub_epi8(cnt[j], m);
                }
                simd_rows += 32;
                since_flush += 1;
                i += 32;
                if since_flush == 255 {
                    for j in 0..N - 1 {
                        totals[j] += sum_bytes(cnt[j]);
                        cnt[j] = zero;
                    }
                    since_flush = 0;
                }
            }
            let mut accounted = 0u64;
            for j in 0..N - 1 {
                totals[j] += sum_bytes(cnt[j]);
                counts[j] += totals[j];
                accounted += totals[j];
            }
            // Group N-1 is never compared: derive it from the total (§5.3).
            counts[N - 1] += simd_rows - accounted;
            for &g in &gids[i..] {
                counts[g as usize] += 1;
            }
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// SUM of 1-byte values: 16-bit lane accumulators via `maddubs` pair
    /// sums; each vector adds at most 510 per lane, so flush every 64
    /// vectors (64 * 510 < 32767).
    #[target_feature(enable = "avx2")]
    unsafe fn sum_u8_n<const N: usize>(gids: &[u8], values: &[u8], sums: &mut [i64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let zero = _mm256_setzero_si256();
            let ones8 = _mm256_set1_epi8(1);
            let ones16 = _mm256_set1_epi16(1);
            let mut acc = [zero; N];
            let n = gids.len();
            let mut i = 0usize;
            let mut since_flush = 0u32;
            while i + 32 <= n {
                let g = _mm256_loadu_si256(gids.as_ptr().add(i) as *const __m256i);
                let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
                for j in 0..N {
                    let m = _mm256_cmpeq_epi8(g, _mm256_set1_epi8(j as i8));
                    let mv = _mm256_and_si256(v, m);
                    // Unsigned bytes * signed 1 summed pairwise into i16 lanes.
                    acc[j] = _mm256_add_epi16(acc[j], _mm256_maddubs_epi16(mv, ones8));
                }
                since_flush += 1;
                i += 32;
                if since_flush == 64 {
                    for j in 0..N {
                        sums[j] += hsum_epu32(_mm256_madd_epi16(acc[j], ones16)) as i64;
                        acc[j] = zero;
                    }
                    since_flush = 0;
                }
            }
            for j in 0..N {
                sums[j] += hsum_epu32(_mm256_madd_epi16(acc[j], ones16)) as i64;
            }
            for (k, &g) in gids[i..].iter().enumerate() {
                sums[g as usize] += values[i + k] as i64;
            }
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// SUM of 2-byte values: group ids widened to 16-bit lanes, 32-bit lane
    /// accumulators fed by zero-extending unpacks. Each vector adds at most
    /// 2 * 65535 per lane; flush every 16384 vectors.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_u16_n<const N: usize>(gids: &[u8], values: &[u16], sums: &mut [i64]) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let zero = _mm256_setzero_si256();
            let mut acc = [zero; N];
            let n = gids.len();
            let mut i = 0usize;
            let mut since_flush = 0u32;
            while i + 16 <= n {
                let g8 = _mm_loadu_si128(gids.as_ptr().add(i) as *const __m128i);
                let g = _mm256_cvtepu8_epi16(g8);
                let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
                for j in 0..N {
                    let m = _mm256_cmpeq_epi16(g, _mm256_set1_epi16(j as i16));
                    let mv = _mm256_and_si256(v, m);
                    acc[j] = _mm256_add_epi32(acc[j], _mm256_unpacklo_epi16(mv, zero));
                    acc[j] = _mm256_add_epi32(acc[j], _mm256_unpackhi_epi16(mv, zero));
                }
                since_flush += 1;
                i += 16;
                if since_flush == 16_384 {
                    for j in 0..N {
                        sums[j] += hsum_epu32(acc[j]) as i64;
                        acc[j] = zero;
                    }
                    since_flush = 0;
                }
            }
            for j in 0..N {
                sums[j] += hsum_epu32(acc[j]) as i64;
            }
            for (k, &g) in gids[i..].iter().enumerate() {
                sums[g as usize] += values[i + k] as i64;
            }
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// SUM of 4-byte values: group ids widened to 32-bit lanes, 32-bit lane
    /// accumulators; the flush cadence is derived from the caller's
    /// `max_value` bound so lanes never overflow (§2.1's metadata-driven
    /// overflow avoidance).
    #[target_feature(enable = "avx2")]
    unsafe fn sum_u32_n<const N: usize>(
        gids: &[u8],
        values: &[u32],
        sums: &mut [i64],
        max_value: u32,
    ) {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let zero = _mm256_setzero_si256();
            let mut acc = [zero; N];
            let flush_every = (i32::MAX as u32 / max_value.max(1)).max(1);
            let n = gids.len();
            let mut i = 0usize;
            let mut since_flush = 0u32;
            while i + 8 <= n {
                let g8 = _mm_loadl_epi64(gids.as_ptr().add(i) as *const __m128i);
                let g = _mm256_cvtepu8_epi32(g8);
                let v = _mm256_loadu_si256(values.as_ptr().add(i) as *const __m256i);
                for j in 0..N {
                    let m = _mm256_cmpeq_epi32(g, _mm256_set1_epi32(j as i32));
                    acc[j] = _mm256_add_epi32(acc[j], _mm256_and_si256(v, m));
                }
                since_flush += 1;
                i += 8;
                if since_flush >= flush_every {
                    for j in 0..N {
                        sums[j] += hsum_epu32(acc[j]) as i64;
                        acc[j] = zero;
                    }
                    since_flush = 0;
                }
            }
            for j in 0..N {
                sums[j] += hsum_epu32(acc[j]) as i64;
            }
            for (k, &g) in gids[i..].iter().enumerate() {
                sums[g as usize] += values[i + k] as i64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{reference_group_sums, ColRef};

    fn gids(n: usize, groups: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 13 + i / 7) % groups) as u8).collect()
    }

    #[test]
    fn count_flush_cadence_exercised() {
        // > 255 * 32 rows forces at least one mid-stream flush of the 8-bit
        // lane counters.
        let n = 255 * 32 * 2 + 100;
        for level in SimdLevel::available() {
            let g = gids(n, 3);
            let (expected, _) = reference_group_sums(&g, &[], 3);
            let mut counts = vec![0u64; 3];
            count_groups(&g, 3, &mut counts, level);
            assert_eq!(counts, expected, "level={level}");
        }
    }

    #[test]
    fn sum_u8_matches_reference() {
        for level in SimdLevel::available() {
            for groups in [1usize, 2, 5, 16, 32] {
                let n = 70_000; // > 64 * 32 rows: exercises the i16 flush
                let g = gids(n, groups);
                let v: Vec<u8> = (0..n).map(|i| (i * 31 % 256) as u8).collect();
                let (_, expected) = reference_group_sums(&g, &[ColRef::U8(&v)], groups);
                let mut sums = vec![0i64; groups];
                sum_u8(&g, &v, groups, &mut sums, level);
                assert_eq!(sums, expected[0], "groups={groups} level={level}");
            }
        }
    }

    #[test]
    fn sum_u32_tight_flush_cadence() {
        // A large max_value forces flushing every few vectors.
        let n = 5000;
        let max_value = (1u32 << 30) + 5;
        let g = gids(n, 4);
        let v: Vec<u32> = (0..n).map(|i| if i % 7 == 0 { max_value } else { 1 }).collect();
        let (_, expected) = reference_group_sums(&g, &[ColRef::U32(&v)], 4);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 4];
            sum_u32(&g, &v, 4, &mut sums, max_value, level);
            assert_eq!(sums, expected[0], "level={level}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=32 groups")]
    fn rejects_too_many_groups() {
        let mut counts = vec![0u64; 33];
        count_groups(&[0], 33, &mut counts, SimdLevel::Scalar);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn rejects_wide_max_value() {
        let mut sums = vec![0i64; 2];
        sum_u32(&[0], &[1], 2, &mut sums, 1 << 31, SimdLevel::Scalar);
    }
}
