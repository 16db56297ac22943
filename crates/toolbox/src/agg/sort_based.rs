//! Sort-Based SUM aggregation (§5.2).
//!
//! Within each batch, row indices are bucket-sorted by group id. The sorted
//! array is a concatenation of per-group sub-arrays of row indices; sums are
//! then computed one aggregate column and one group at a time, fetching the
//! column values for a group's rows with the SIMD gather instruction.
//!
//! The bucket sort's counting pass is the query's `COUNT(*)` — it is
//! computed once and reused. Write conflicts on bucket counters for adjacent
//! rows (the same stall as §5.1's scalar aggregation) are avoided by keeping
//! *two* counters per bucket, one for even and one for odd rows.
//!
//! Key property: the summation consumes the aggregate column in its **raw
//! bit-packed, non-filtered representation** — decoding, selection, and
//! aggregation happen together in one unit. Filtered rows are excluded from
//! the sorted index array (before sorting with gather/compact selection,
//! during sorting with special-group selection), so the sort cost is fixed
//! no matter how many aggregates follow — which is why this strategy wins
//! with low selectivity and many aggregates.

use crate::bitpack::PackedVec;
use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel, ANY};

kernel_sig! {
    /// One bucket's sum of packed values: `Σ pv[row_base + r]` over `rows`.
    pub(crate) type SumPackedK = fn(pv: &PackedVec, row_base: u32, rows: &[u32]) -> i64;
    /// One bucket's sum of decoded values: `Σ values[r]` over `rows`.
    pub(crate) type SumGatherK = fn(values: &[u32], rows: &[u32]) -> i64;
}

/// The gate is the 32-bit gather's 25 bits.
pub(crate) const SUM_SORTED_PACKED: Family<SumPackedK> = Family {
    cells: cells![Cell { tier: Avx2, gate: 25, kernel: avx2::sum_gather_packed }],
    oracle: sum_gather_packed_scalar,
};
pub(crate) const SUM_SORTED_U32: Family<SumGatherK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::sum_gather_u32 }],
    oracle: sum_gather_u32_scalar,
};

/// Row indices bucket-sorted by group id.
#[derive(Debug, Clone, Default)]
pub struct SortedBatch {
    /// `offsets[g]..offsets[g+1]` delimits group `g`'s rows in
    /// `row_indices`; length `num_buckets + 1`.
    pub offsets: Vec<u32>,
    /// Original row ids, grouped by bucket.
    pub row_indices: Vec<u32>,
}

impl SortedBatch {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row ids belonging to bucket `g`.
    pub fn bucket(&self, g: usize) -> &[u32] {
        &self.row_indices[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Per-bucket row counts (the query's `COUNT(*)` per group).
    pub fn counts(&self) -> Vec<u64> {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64).collect()
    }
}

/// Bucket-sort rows by group id into `out` (contents replaced).
///
/// `rows`, when provided, maps positions to original row ids — this is the
/// selection index vector when gather or compacting selection ran first
/// (§5.2: "rows are excluded before sorting"). When `None`, position `i`
/// itself is the row id (the special-group path: rejected rows land in the
/// special bucket and are discarded at output).
///
/// # Panics
/// Panics if any group id is `>= num_buckets` or `rows` length mismatches.
pub fn bucket_sort(gids: &[u8], rows: Option<&[u32]>, num_buckets: usize, out: &mut SortedBatch) {
    if let Some(rows) = rows {
        assert_eq!(gids.len(), rows.len(), "gids/rows length mismatch");
    }
    super::debug_assert_group_ids(gids, num_buckets);
    let n = gids.len();
    // Counting pass with even/odd counter pairs to avoid same-location
    // write conflicts between adjacent rows.
    let mut even = vec![0u32; num_buckets];
    let mut odd = vec![0u32; num_buckets];
    let mut pairs = gids.chunks_exact(2);
    for pair in &mut pairs {
        even[pair[0] as usize] += 1;
        odd[pair[1] as usize] += 1;
    }
    if let [last] = pairs.remainder() {
        even[*last as usize] += 1;
    }

    // Prefix sums; within each bucket the layout is [even rows][odd rows].
    out.offsets.clear();
    out.offsets.reserve(num_buckets + 1);
    let mut acc = 0u32;
    out.offsets.push(0);
    let mut cursor_even = vec![0u32; num_buckets];
    let mut cursor_odd = vec![0u32; num_buckets];
    for g in 0..num_buckets {
        cursor_even[g] = acc;
        cursor_odd[g] = acc + even[g];
        acc += even[g] + odd[g];
        out.offsets.push(acc);
    }
    debug_assert_eq!(acc as usize, n);

    // Scatter pass, alternating between the even and odd cursor sets.
    out.row_indices.clear();
    out.row_indices.resize(n, 0);
    let dst = &mut out.row_indices;
    let row_id = |i: usize| rows.map_or(i as u32, |r| r[i]);
    let mut i = 0usize;
    while i + 2 <= n {
        let g0 = gids[i] as usize;
        let g1 = gids[i + 1] as usize;
        dst[cursor_even[g0] as usize] = row_id(i);
        cursor_even[g0] += 1;
        dst[cursor_odd[g1] as usize] = row_id(i + 1);
        cursor_odd[g1] += 1;
        i += 2;
    }
    if i < n {
        let g = gids[i] as usize;
        dst[cursor_even[g] as usize] = row_id(i);
        cursor_even[g] += 1;
    }
}

/// Naive bucket sort with a *single* counter/cursor per bucket — the
/// write-conflict-prone variant §5.2 warns about. Exists only as the
/// ablation baseline for the even/odd counter optimization.
pub fn bucket_sort_single_counter(
    gids: &[u8],
    rows: Option<&[u32]>,
    num_buckets: usize,
    out: &mut SortedBatch,
) {
    if let Some(rows) = rows {
        assert_eq!(gids.len(), rows.len(), "gids/rows length mismatch");
    }
    super::debug_assert_group_ids(gids, num_buckets);
    let n = gids.len();
    let mut counts = vec![0u32; num_buckets];
    for &g in gids {
        counts[g as usize] += 1;
    }
    out.offsets.clear();
    out.offsets.push(0);
    let mut cursor = vec![0u32; num_buckets];
    let mut acc = 0u32;
    for g in 0..num_buckets {
        cursor[g] = acc;
        acc += counts[g];
        out.offsets.push(acc);
    }
    out.row_indices.clear();
    out.row_indices.resize(n, 0);
    for (i, &g) in gids.iter().enumerate() {
        let g = g as usize;
        out.row_indices[cursor[g] as usize] = rows.map_or(i as u32, |r| r[i]);
        cursor[g] += 1;
    }
}

/// Sum a raw bit-packed aggregate column per group, fusing decoding with the
/// gather over sorted row indices. `sums[g] += Σ column[base + row]` for
/// each row in bucket `g`; buckets beyond `sums.len()` (the special group)
/// are skipped. `base` offsets batch-local row ids into the segment-global
/// packed column.
pub fn sum_sorted_packed(
    pv: &PackedVec,
    sorted: &SortedBatch,
    base: u32,
    sums: &mut [i64],
    level: SimdLevel,
) {
    let buckets = sorted.num_buckets().min(sums.len());
    let sum = SUM_SORTED_PACKED.resolve(level, pv.bits() as usize);
    for g in 0..buckets {
        sums[g] += sum.run(pv, base, sorted.bucket(g));
    }
}

/// Scalar oracle for the fused decode-and-gather bucket sum: one packed-value
/// extraction per sorted row index.
pub fn sum_gather_packed_scalar(pv: &PackedVec, row_base: u32, rows: &[u32]) -> i64 {
    rows.iter().map(|&r| pv.get((row_base + r) as usize) as i64).sum()
}

/// Scalar oracle for the decoded-`u32` gather bucket sum.
pub fn sum_gather_u32_scalar(values: &[u32], rows: &[u32]) -> i64 {
    rows.iter().map(|&r| values[r as usize] as i64).sum()
}

/// Sum an already-decoded `u32` column per group over sorted row indices
/// (used when the aggregate input is a computed expression rather than a
/// stored column).
pub fn sum_sorted_u32(values: &[u32], sorted: &SortedBatch, sums: &mut [i64], level: SimdLevel) {
    let buckets = sorted.num_buckets().min(sums.len());
    let sum = SUM_SORTED_U32.resolve(level, 0);
    for g in 0..buckets {
        sums[g] += sum.run(values, sorted.bucket(g));
    }
}

/// Sum an already-decoded non-negative `u64` column per group over sorted
/// row indices (a computed input whose proven range needs more than 32
/// bits).
pub fn sum_sorted_u64(values: &[u64], sorted: &SortedBatch, sums: &mut [i64], _level: SimdLevel) {
    sum_sorted_wide(values, sorted, sums, |v| v as i64);
}

/// Sum an already-decoded `i64` column per group over sorted row indices.
pub fn sum_sorted_i64(values: &[i64], sorted: &SortedBatch, sums: &mut [i64], _level: SimdLevel) {
    sum_sorted_wide(values, sorted, sums, |v| v);
}

/// Scalar gather-sum of 8-byte values (no 64-bit gather pays for itself).
fn sum_sorted_wide<T: Copy>(
    values: &[T],
    sorted: &SortedBatch,
    sums: &mut [i64],
    widen: impl Fn(T) -> i64,
) {
    let buckets = sorted.num_buckets().min(sums.len());
    for g in 0..buckets {
        sums[g] += sorted.bucket(g).iter().map(|&r| widen(values[r as usize])).sum::<i64>();
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::bitpack::PackedVec;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Horizontal sum of four i64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> i64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi64(lo, hi);
        _mm_cvtsi128_si64(s) + _mm_extract_epi64::<1>(s)
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Widen 8 u32 lanes to 2x4 u64 lanes and add into the accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_widened(acc: __m256i, v: __m256i) -> __m256i {
        let zero = _mm256_setzero_si256();
        let lo = _mm256_unpacklo_epi32(v, zero);
        let hi = _mm256_unpackhi_epi32(v, zero);
        _mm256_add_epi64(_mm256_add_epi64(acc, lo), hi)
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_gather_packed(pv: &PackedVec, row_base: u32, rows: &[u32]) -> i64 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = pv.bytes_padded().as_ptr();
            let bits = _mm256_set1_epi32(pv.bits() as i32);
            let seven = _mm256_set1_epi32(7);
            let mask = _mm256_set1_epi32(pv.value_mask() as u32 as i32);
            let basev = _mm256_set1_epi32(row_base as i32);
            let mut acc = _mm256_setzero_si256();
            let n = rows.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let local = _mm256_loadu_si256(rows.as_ptr().add(i) as *const __m256i);
                let idx = _mm256_add_epi32(local, basev);
                let bit = _mm256_mullo_epi32(idx, bits);
                let byte_off = _mm256_srli_epi32::<3>(bit);
                let shift = _mm256_and_si256(bit, seven);
                let words = _mm256_i32gather_epi32::<1>(base as *const i32, byte_off);
                let v = _mm256_and_si256(_mm256_srlv_epi32(words, shift), mask);
                acc = add_widened(acc, v);
                i += 8;
            }
            let mut total = hsum_epi64(acc);
            for &r in &rows[i..] {
                total += pv.get((row_base + r) as usize) as i64;
            }
            total
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_gather_u32(values: &[u32], rows: &[u32]) -> i64 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let base = values.as_ptr();
            let mut acc = _mm256_setzero_si256();
            let n = rows.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let idx = _mm256_loadu_si256(rows.as_ptr().add(i) as *const __m256i);
                let v = _mm256_i32gather_epi32::<4>(base as *const i32, idx);
                acc = add_widened(acc, v);
                i += 8;
            }
            let mut total = hsum_epi64(acc);
            for &r in &rows[i..] {
                total += values[r as usize] as i64;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{reference_group_sums, ColRef};

    fn gids(n: usize, groups: u8) -> Vec<u8> {
        (0..n).map(|i| ((i * 11 + i / 5) % groups as usize) as u8).collect()
    }

    #[test]
    fn bucket_sort_partitions_rows() {
        for n in [0usize, 1, 2, 3, 100, 4096, 4097] {
            let g = gids(n, 7);
            let mut sorted = SortedBatch::default();
            bucket_sort(&g, None, 7, &mut sorted);
            assert_eq!(sorted.num_buckets(), 7);
            assert_eq!(sorted.row_indices.len(), n);
            // Every row appears exactly once, in its own bucket.
            let mut seen = vec![false; n];
            for b in 0..7 {
                for &r in sorted.bucket(b) {
                    assert_eq!(g[r as usize], b as u8, "row {r} in wrong bucket");
                    assert!(!seen[r as usize], "row {r} duplicated");
                    seen[r as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n}");
        }
    }

    #[test]
    fn single_counter_variant_equivalent() {
        // Same buckets and membership as the even/odd version (order within
        // a bucket may differ; summation is order-agnostic).
        let g = gids(4097, 9);
        let mut fast = SortedBatch::default();
        let mut naive = SortedBatch::default();
        bucket_sort(&g, None, 9, &mut fast);
        bucket_sort_single_counter(&g, None, 9, &mut naive);
        assert_eq!(fast.offsets, naive.offsets);
        for b in 0..9 {
            let mut a: Vec<u32> = fast.bucket(b).to_vec();
            let mut c: Vec<u32> = naive.bucket(b).to_vec();
            a.sort_unstable();
            c.sort_unstable();
            assert_eq!(a, c, "bucket {b}");
        }
    }

    #[test]
    fn bucket_sort_counts_match_reference() {
        let g = gids(5000, 16);
        let (expected, _) = reference_group_sums(&g, &[], 16);
        let mut sorted = SortedBatch::default();
        bucket_sort(&g, None, 16, &mut sorted);
        assert_eq!(sorted.counts(), expected);
    }

    #[test]
    fn bucket_sort_with_row_remap() {
        // Simulates compact/gather selection: positions map to original rows.
        let g = [2u8, 0, 1, 2];
        let rows = [10u32, 20, 30, 40];
        let mut sorted = SortedBatch::default();
        bucket_sort(&g, Some(&rows), 3, &mut sorted);
        assert_eq!(sorted.bucket(0), &[20]);
        assert_eq!(sorted.bucket(1), &[30]);
        assert_eq!(sorted.bucket(2), &[10, 40]);
    }

    #[test]
    fn sum_sorted_skips_special_bucket() {
        // 3 real groups + special bucket 3; sums only sized for real groups.
        let g = [0u8, 3, 1, 3, 2, 0];
        let values: Vec<u64> = vec![1, 100, 2, 100, 3, 4];
        let pv = PackedVec::pack(&values, 7);
        let mut sorted = SortedBatch::default();
        bucket_sort(&g, None, 4, &mut sorted);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 3];
            sum_sorted_packed(&pv, &sorted, 0, &mut sums, level);
            assert_eq!(sums, vec![5, 2, 3], "level={level}");
        }
    }

    #[test]
    fn sum_sorted_decoded_variants() {
        let n = 1000;
        let g = gids(n, 5);
        let v32: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
        let v64: Vec<i64> = (0..n as i64).map(|i| i - 500).collect();
        let (_, expected) = reference_group_sums(&g, &[ColRef::U32(&v32)], 5);
        let mut sorted = SortedBatch::default();
        bucket_sort(&g, None, 5, &mut sorted);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 5];
            sum_sorted_u32(&v32, &sorted, &mut sums, level);
            assert_eq!(sums, expected[0], "u32 level={level}");
        }
        let mut expected64 = vec![0i64; 5];
        for (i, &gid) in g.iter().enumerate() {
            expected64[gid as usize] += v64[i];
        }
        let mut sums = vec![0i64; 5];
        sum_sorted_i64(&v64, &sorted, &mut sums, SimdLevel::detect());
        assert_eq!(sums, expected64);
        let wide: Vec<u64> = v32.iter().map(|&v| (v as u64) << 20).collect();
        let (_, expected) = reference_group_sums(&g, &[ColRef::U64(&wide)], 5);
        let mut sums = vec![0i64; 5];
        sum_sorted_u64(&wide, &sorted, &mut sums, SimdLevel::detect());
        assert_eq!(sums, expected[0]);
    }

    #[test]
    fn empty_bucket_handling() {
        let g = [0u8; 100]; // groups 1..4 empty
        let values: Vec<u64> = (0..100).collect();
        let pv = PackedVec::pack(&values, 7);
        let mut sorted = SortedBatch::default();
        bucket_sort(&g, None, 4, &mut sorted);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 4];
            sum_sorted_packed(&pv, &sorted, 0, &mut sums, level);
            assert_eq!(sums, vec![4950, 0, 0, 0], "level={level}");
        }
    }
}
