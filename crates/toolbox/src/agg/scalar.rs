//! Scalar grouped aggregation (§5.1).
//!
//! The naive single-array loop (`sum[group[i]] += value[i]`) stalls when
//! adjacent rows hit the same accumulator: the store-to-load dependency
//! serializes the adds (Figure 2 shows 2.9 cycles/row at two groups vs 1.65
//! at six). The fix is to unroll with multiple accumulator arrays used
//! round-robin and merge them at the end — [`count_multi_array`] /
//! [`sum_multi_array_u32`] and its width siblings.
//!
//! For several sums in one query, processing *row-at-a-time* with a
//! row-major accumulator layout beats *column-at-a-time* (Figure 3); the
//! unrolled row-at-a-time variant is the strongest scalar baseline and the
//! conceptual ancestor of the SIMD multi-aggregate strategy (§5.4).
//!
//! With one group there is nothing to conflict on: [`sum_selected`] is a
//! single pass under the selection mask.

use super::ColRef;

/// Naive single-array grouped COUNT: `counts[gid[i]] += 1`.
///
/// `counts.len()` must be at least `max(gids) + 1`; debug builds assert.
pub fn count_single_array(gids: &[u8], counts: &mut [u64]) {
    for &g in gids {
        debug_assert!((g as usize) < counts.len(), "group id out of range");
        counts[g as usize] += 1;
    }
}

/// Grouped COUNT with `WAYS` accumulator arrays used round-robin to break
/// same-location store-to-load dependencies, merged at the end.
pub fn count_multi_array<const WAYS: usize>(gids: &[u8], counts: &mut [u64]) {
    let n = counts.len();
    let mut partial = vec![0u64; n * WAYS];
    let mut chunks = gids.chunks_exact(WAYS);
    for chunk in &mut chunks {
        for (w, &g) in chunk.iter().enumerate() {
            debug_assert!((g as usize) < n, "group id out of range");
            partial[w * n + g as usize] += 1;
        }
    }
    for &g in chunks.remainder() {
        partial[g as usize] += 1;
    }
    for w in 0..WAYS {
        for g in 0..n {
            counts[g] += partial[w * n + g];
        }
    }
}

macro_rules! sum_kernels {
    ($single:ident, $multi:ident, $ty:ty) => {
        /// Naive single-array grouped SUM: `sums[gid[i]] += value[i]`.
        pub fn $single(gids: &[u8], values: &[$ty], sums: &mut [i64]) {
            assert_eq!(gids.len(), values.len(), "group/value length mismatch");
            for (&g, &v) in gids.iter().zip(values) {
                debug_assert!((g as usize) < sums.len(), "group id out of range");
                sums[g as usize] += v as i64;
            }
        }

        /// Grouped SUM with `WAYS` round-robin accumulator arrays (§5.1's
        /// fix for accumulator write conflicts), merged at the end.
        pub fn $multi<const WAYS: usize>(gids: &[u8], values: &[$ty], sums: &mut [i64]) {
            assert_eq!(gids.len(), values.len(), "group/value length mismatch");
            let n = sums.len();
            let mut partial = vec![0i64; n * WAYS];
            let mut i = 0usize;
            while i + WAYS <= gids.len() {
                for w in 0..WAYS {
                    let g = gids[i + w] as usize;
                    debug_assert!(g < n, "group id out of range");
                    partial[w * n + g] += values[i + w] as i64;
                }
                i += WAYS;
            }
            while i < gids.len() {
                partial[gids[i] as usize] += values[i] as i64;
                i += 1;
            }
            for w in 0..WAYS {
                for g in 0..n {
                    sums[g] += partial[w * n + g];
                }
            }
        }
    };
}

sum_kernels!(sum_single_array_u8, sum_multi_array_u8, u8);
sum_kernels!(sum_single_array_u16, sum_multi_array_u16, u16);
sum_kernels!(sum_single_array_u32, sum_multi_array_u32, u32);
sum_kernels!(sum_single_array_u64, sum_multi_array_u64, u64);

/// Sum one column into per-group accumulators, dispatching on element width.
pub fn sum_single_array(gids: &[u8], col: ColRef<'_>, sums: &mut [i64]) {
    match col {
        ColRef::U8(v) => sum_single_array_u8(gids, v, sums),
        ColRef::U16(v) => sum_single_array_u16(gids, v, sums),
        ColRef::U32(v) => sum_single_array_u32(gids, v, sums),
        ColRef::U64(v) => sum_single_array_u64(gids, v, sums),
    }
}

/// Ungrouped SUM of `col` over the rows `sel` selects (canonical
/// `0x00`/`0xFF` bytes, one per value), or over every value when `sel` is
/// `None`.
///
/// A plain function, not a kernel family: the build's `target-cpu` lets the
/// compiler vectorize both loops. 1- and 2-byte values sum in `u32` partials
/// of at most 65 536 rows, which cannot overflow (65 536 × 65 535 < 2³²);
/// wider values wrap in `u64`, exact in two's complement wherever the
/// caller's overflow proof bounds the total.
pub fn sum_selected(col: ColRef<'_>, sel: Option<&[u8]>) -> u64 {
    if let Some(sel) = sel {
        assert_eq!(sel.len(), col.len(), "selection/value length mismatch");
    }
    match col {
        ColRef::U8(v) => sum_narrow(v, sel),
        ColRef::U16(v) => sum_narrow(v, sel),
        ColRef::U32(v) => sum_wide(v, sel),
        ColRef::U64(v) => sum_wide(v, sel),
    }
}

/// Rows per `u32` partial sum of 1- and 2-byte values.
const NARROW_CHUNK: usize = 1 << 16;

fn sum_narrow<T: Copy + Into<u32>>(values: &[T], sel: Option<&[u8]>) -> u64 {
    let partial = |v: &[T], s: Option<&[u8]>| -> u32 {
        match s {
            None => v.iter().map(|&x| x.into()).sum(),
            Some(s) => v.iter().zip(s).map(|(&x, &m)| if m != 0 { x.into() } else { 0 }).sum(),
        }
    };
    let mut total = 0u64;
    for (c, chunk) in values.chunks(NARROW_CHUNK).enumerate() {
        let s = sel.map(|s| &s[c * NARROW_CHUNK..c * NARROW_CHUNK + chunk.len()]);
        total += partial(chunk, s) as u64;
    }
    total
}

fn sum_wide<T: Copy + Into<u64>>(values: &[T], sel: Option<&[u8]>) -> u64 {
    let add = |acc: u64, x: u64| acc.wrapping_add(x);
    match sel {
        None => values.iter().map(|&x| x.into()).fold(0, add),
        Some(s) => {
            values.iter().zip(s).map(|(&x, &m)| if m != 0 { x.into() } else { 0 }).fold(0, add)
        }
    }
}

/// Multiple sums, *column-at-a-time* (§5.1): fully process each aggregate
/// column before moving to the next. `sums[c * num_groups + g]` receives the
/// sum of column `c` for group `g`.
pub fn sums_column_at_a_time(
    gids: &[u8],
    cols: &[ColRef<'_>],
    num_groups: usize,
    sums: &mut [i64],
) {
    assert_eq!(sums.len(), cols.len() * num_groups, "accumulator size mismatch");
    super::debug_assert_group_ids(gids, num_groups);
    for (c, col) in cols.iter().enumerate() {
        sum_single_array(gids, *col, &mut sums[c * num_groups..(c + 1) * num_groups]);
    }
}

/// Multiple sums, *row-at-a-time* (§5.1): update every aggregate for a row
/// before moving to the next row, with the accumulators in row-major layout
/// (`acc[g * k + c]`) so one row touches one contiguous region.
/// `sums[c * num_groups + g]` receives the result.
///
/// Homogeneous column sets run a monomorphic inner loop (no per-element
/// width dispatch); mixed widths fall back to a generic loop.
pub fn sums_row_at_a_time(gids: &[u8], cols: &[ColRef<'_>], num_groups: usize, sums: &mut [i64]) {
    let k = cols.len();
    assert_eq!(sums.len(), k * num_groups, "accumulator size mismatch");
    super::debug_assert_group_ids(gids, num_groups);
    let mut acc = vec![0i64; num_groups * k];
    row_major_accumulate(gids, cols, &mut acc, false);
    merge_row_major(&acc, k, num_groups, sums);
}

/// Row-at-a-time with the inner per-column loop unrolled four-wide —
/// the strongest scalar multi-sum baseline in Figure 3.
pub fn sums_row_at_a_time_unrolled(
    gids: &[u8],
    cols: &[ColRef<'_>],
    num_groups: usize,
    sums: &mut [i64],
) {
    let k = cols.len();
    assert_eq!(sums.len(), k * num_groups, "accumulator size mismatch");
    super::debug_assert_group_ids(gids, num_groups);
    let mut acc = vec![0i64; num_groups * k];
    row_major_accumulate(gids, cols, &mut acc, true);
    merge_row_major(&acc, k, num_groups, sums);
}

fn merge_row_major(acc: &[i64], k: usize, num_groups: usize, sums: &mut [i64]) {
    for g in 0..num_groups {
        for c in 0..k {
            sums[c * num_groups + g] += acc[g * k + c];
        }
    }
}

/// Accumulate into the row-major layout, dispatching once to a
/// width-monomorphic loop when the columns are homogeneous.
fn row_major_accumulate(gids: &[u8], cols: &[ColRef<'_>], acc: &mut [i64], unroll: bool) {
    macro_rules! homogeneous {
        ($variant:ident) => {{
            let slices: Vec<_> = cols
                .iter()
                .map(|c| match c {
                    ColRef::$variant(s) => *s,
                    // Cannot fire: the caller matched every column against this
                    // variant before choosing the homogeneous path.
                    _ => unreachable!("checked homogeneous"),
                })
                .collect();
            if unroll {
                row_major_typed_unrolled(gids, &slices, acc);
            } else {
                row_major_typed(gids, &slices, acc);
            }
            return;
        }};
    }
    if cols.iter().all(|c| matches!(c, ColRef::U8(_))) {
        homogeneous!(U8)
    }
    if cols.iter().all(|c| matches!(c, ColRef::U16(_))) {
        homogeneous!(U16)
    }
    if cols.iter().all(|c| matches!(c, ColRef::U32(_))) {
        homogeneous!(U32)
    }
    if cols.iter().all(|c| matches!(c, ColRef::U64(_))) {
        homogeneous!(U64)
    }
    // Mixed widths: generic per-element dispatch.
    let k = cols.len();
    for (i, &g) in gids.iter().enumerate() {
        let base = g as usize * k;
        for (c, col) in cols.iter().enumerate() {
            acc[base + c] += col.get(i) as i64;
        }
    }
}

/// Widen an aggregate element to the `i64` accumulator domain. `u64`
/// reinterprets as `i64` (two's complement; exact under the engine's
/// overflow proof).
trait AggElem: Copy {
    fn widen(self) -> i64;
}
impl AggElem for u8 {
    #[inline]
    fn widen(self) -> i64 {
        self as i64
    }
}
impl AggElem for u16 {
    #[inline]
    fn widen(self) -> i64 {
        self as i64
    }
}
impl AggElem for u32 {
    #[inline]
    fn widen(self) -> i64 {
        self as i64
    }
}
impl AggElem for u64 {
    #[inline]
    fn widen(self) -> i64 {
        self as i64
    }
}

fn row_major_typed<T: AggElem>(gids: &[u8], cols: &[&[T]], acc: &mut [i64]) {
    let k = cols.len();
    for col in cols {
        assert_eq!(col.len(), gids.len(), "column length mismatch");
    }
    for (i, &g) in gids.iter().enumerate() {
        let base = g as usize * k;
        for (c, col) in cols.iter().enumerate() {
            acc[base + c] += col[i].widen();
        }
    }
}

/// The unrolled variant monomorphizes over the column count so the inner
/// per-column loop disappears entirely (the paper generates these
/// specializations with templates).
fn row_major_typed_unrolled<T: AggElem>(gids: &[u8], cols: &[&[T]], acc: &mut [i64]) {
    for col in cols {
        assert_eq!(col.len(), gids.len(), "column length mismatch");
    }
    macro_rules! fixed {
        ($k:literal) => {{
            // Cannot fail: the match arm guarantees `cols.len() == $k`.
            let fixed: &[&[T]; $k] = cols.try_into().expect("matched len");
            return row_major_fixed::<T, $k>(gids, fixed, acc);
        }};
    }
    match cols.len() {
        1 => fixed!(1),
        2 => fixed!(2),
        3 => fixed!(3),
        4 => fixed!(4),
        5 => fixed!(5),
        6 => fixed!(6),
        7 => fixed!(7),
        8 => fixed!(8),
        _ => row_major_typed(gids, cols, acc),
    }
}

fn row_major_fixed<T: AggElem, const K: usize>(gids: &[u8], cols: &[&[T]; K], acc: &mut [i64]) {
    let n = gids.len();
    for i in 0..n {
        let base = gids[i] as usize * K;
        let slot = &mut acc[base..base + K];
        for c in 0..K {
            slot[c] += cols[c][i].widen();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::reference_group_sums;

    fn gids(n: usize, groups: u8) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + i / 3) % groups as usize) as u8).collect()
    }

    fn values(n: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * 2654435761usize) % 100_000) as u32).collect()
    }

    #[test]
    fn count_variants_agree() {
        for n in [0usize, 1, 3, 4, 5, 100, 4096] {
            let g = gids(n, 8);
            let (expected, _) = reference_group_sums(&g, &[], 8);
            let mut single = vec![0u64; 8];
            count_single_array(&g, &mut single);
            assert_eq!(single, expected, "single n={n}");
            let mut two = vec![0u64; 8];
            count_multi_array::<2>(&g, &mut two);
            assert_eq!(two, expected, "2-way n={n}");
            let mut four = vec![0u64; 8];
            count_multi_array::<4>(&g, &mut four);
            assert_eq!(four, expected, "4-way n={n}");
        }
    }

    #[test]
    fn sum_variants_agree() {
        for n in [0usize, 1, 5, 100, 4099] {
            let g = gids(n, 16);
            let v = values(n);
            let (_, expected) = reference_group_sums(&g, &[ColRef::U32(&v)], 16);
            let mut single = vec![0i64; 16];
            sum_single_array_u32(&g, &v, &mut single);
            assert_eq!(single, expected[0], "single n={n}");
            let mut multi = vec![0i64; 16];
            sum_multi_array_u32::<4>(&g, &v, &mut multi);
            assert_eq!(multi, expected[0], "multi n={n}");
        }
    }

    #[test]
    fn sum_all_widths() {
        let g = gids(1000, 4);
        let v8: Vec<u8> = (0..1000).map(|i| (i % 250) as u8).collect();
        let v16: Vec<u16> = (0..1000).map(|i| (i % 60_000) as u16).collect();
        let v64: Vec<u64> = (0..1000).map(|i| i as u64 * 12345).collect();
        let cols = [ColRef::U8(&v8), ColRef::U16(&v16), ColRef::U64(&v64)];
        let (_, expected) = reference_group_sums(&g, &cols, 4);
        for (c, col) in cols.iter().enumerate() {
            let mut sums = vec![0i64; 4];
            sum_single_array(&g, *col, &mut sums);
            assert_eq!(sums, expected[c], "col {c}");
        }
    }

    #[test]
    fn multi_sum_layouts_agree() {
        let n = 3000;
        let g = gids(n, 32);
        let v1 = values(n);
        let v2: Vec<u32> = values(n).iter().map(|x| x / 3).collect();
        let v3: Vec<u32> = values(n).iter().map(|x| x % 777).collect();
        let v4: Vec<u32> = values(n).iter().map(|x| x % 13).collect();
        let v5: Vec<u32> = values(n).iter().map(|x| x % 2).collect();
        let cols = [
            ColRef::U32(&v1),
            ColRef::U32(&v2),
            ColRef::U32(&v3),
            ColRef::U32(&v4),
            ColRef::U32(&v5),
        ];
        let (_, expected) = reference_group_sums(&g, &cols, 32);
        let flat_expected: Vec<i64> = expected.concat();

        let mut a = vec![0i64; 5 * 32];
        sums_column_at_a_time(&g, &cols, 32, &mut a);
        assert_eq!(a, flat_expected, "column-at-a-time");

        let mut b = vec![0i64; 5 * 32];
        sums_row_at_a_time(&g, &cols, 32, &mut b);
        assert_eq!(b, flat_expected, "row-at-a-time");

        let mut c = vec![0i64; 5 * 32];
        sums_row_at_a_time_unrolled(&g, &cols, 32, &mut c);
        assert_eq!(c, flat_expected, "row-at-a-time unrolled");
    }

    #[test]
    fn multi_sum_single_column_edge() {
        let g = gids(64, 2);
        let v = values(64);
        let cols = [ColRef::U32(&v)];
        let (_, expected) = reference_group_sums(&g, &cols, 2);
        let mut out = vec![0i64; 2];
        sums_row_at_a_time_unrolled(&g, &cols, 2, &mut out);
        assert_eq!(out, expected[0]);
    }

    /// Every value at the top of a narrow word, one row each side of the
    /// `u32` partial's 65 536-row chunk, stored at every width: all
    /// selected and every other row selected, against a `u128` sum.
    #[test]
    fn sum_selected_is_exact_across_the_narrow_chunk() {
        for n in [NARROW_CHUNK, NARROW_CHUNK + 1] {
            let all = vec![0xFFu8; n];
            let alternating: Vec<u8> = (0..n).map(|i| [0xFF, 0][i % 2]).collect();
            for top in [u8::MAX as u64, u16::MAX as u64] {
                let v8 = vec![top as u8; n];
                let v16 = vec![top as u16; n];
                let v32 = vec![top as u32; n];
                let v64 = vec![top; n];
                let mut cols = vec![ColRef::U16(&v16), ColRef::U32(&v32), ColRef::U64(&v64)];
                if top == u8::MAX as u64 {
                    cols.push(ColRef::U8(&v8));
                }
                for col in cols {
                    for sel in [None, Some(&all[..]), Some(&alternating[..])] {
                        let expect: u128 = (0..n)
                            .filter(|&i| !matches!(sel, Some(s) if s[i] == 0))
                            .map(|i| col.get(i) as u128)
                            .sum();
                        let label = format!("n={n} top={top} {}-byte", col.elem_bytes());
                        assert_eq!(sum_selected(col, sel) as u128, expect, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_selected_wraps_like_twos_complement() {
        let v = [-5i64 as u64, 3, -7i64 as u64];
        assert_eq!(sum_selected(ColRef::U64(&v), None) as i64, -9);
        assert_eq!(sum_selected(ColRef::U64(&v), Some(&[0xFF, 0xFF, 0])) as i64, -2);
    }

    #[test]
    fn accumulates_into_existing_sums() {
        // Kernels add into `sums` rather than overwriting, so batch loops
        // can reuse one accumulator.
        let g = vec![0u8; 10];
        let v = vec![1u32; 10];
        let mut sums = vec![5i64];
        sum_single_array_u32(&g, &v, &mut sums);
        assert_eq!(sums[0], 15);
    }
}
