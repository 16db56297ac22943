//! Grouped aggregation strategies (§5).
//!
//! After selection, aggregation combines a *group-id map* (one dense `u8`
//! group id per row) with the aggregate input columns. Four strategies are
//! implemented, each optimal in a different parameter region (Figures 8–10):
//!
//! * [`scalar`] — the naive baseline (§5.1) plus its conflict-avoiding
//!   multi-array and row-at-a-time refinements; also the fallback for group
//!   domains wider than the SIMD kernels support.
//! * [`sort_based`] — bucket-sort row indices by group, then sum one group
//!   and one column at a time with SIMD gathers over the *raw bit-packed*
//!   column (§5.2). Wins with low selectivity and many aggregates.
//! * [`in_register`] — keep one virtual accumulator array per group entirely
//!   in SIMD registers (§5.3). Wins with few groups and narrow values.
//! * [`multi`] — transpose several aggregate columns into row-major SIMD
//!   registers and update all sums for a row with a single load-add-store
//!   (§5.4). Wins with many aggregates.
//!
//! With one group and every row of a batch in play, [`packed::sum_packed`]
//! sums a bit-packed input where it lies, without unpacking it first.
//!
//! Computed inputs reach these kernels as [`lane`] programs: proven-unsigned
//! add/sub/mul trees over natural-width columns, evaluated chunk-wise in
//! 64-bit lanes — inside [`multi`]'s slot lanes, or into a typed vector.
//!
//! All kernels accumulate into `i64` per group; callers prove from segment
//! metadata that no intermediate overflows `i64` (§2.1), and the kernels'
//! internal narrow accumulators flush on documented cadences so they are
//! exact for any input length.

pub mod in_register;
pub mod lane;
pub mod minmax;
pub mod multi;
pub mod packed;
pub mod scalar;
pub mod sort_based;

/// Maximum group count supported by the specialized `u8`-group-id kernels.
/// The paper's simplification (§2.2): one group-by column with no more than
/// 256 distinct values; one id may be reserved as the special group.
pub const MAX_GROUPS_U8: usize = 256;

/// Maximum group count supported by in-register aggregation ("up to around
/// 32 on today's hardware", §5.3).
pub const MAX_GROUPS_IN_REGISTER: usize = 32;

/// A borrowed aggregate input column of one of the four power-of-two decoded
/// word sizes (§2.2).
#[derive(Debug, Clone, Copy)]
pub enum ColRef<'a> {
    /// 1-byte elements.
    U8(&'a [u8]),
    /// 2-byte elements.
    U16(&'a [u16]),
    /// 4-byte elements.
    U32(&'a [u32]),
    /// 8-byte elements (values must be non-negative when summed as i64).
    U64(&'a [u64]),
}

impl<'a> ColRef<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ColRef::U8(s) => s.len(),
            ColRef::U16(s) => s.len(),
            ColRef::U32(s) => s.len(),
            ColRef::U64(s) => s.len(),
        }
    }

    /// True if the column has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element width in bytes (1, 2, 4, or 8).
    pub fn elem_bytes(&self) -> usize {
        match self {
            ColRef::U8(_) => 1,
            ColRef::U16(_) => 2,
            ColRef::U32(_) => 4,
            ColRef::U64(_) => 8,
        }
    }

    /// Rows `off .. off + len` of the column.
    pub fn window(&self, off: usize, len: usize) -> ColRef<'a> {
        match self {
            ColRef::U8(s) => ColRef::U8(&s[off..off + len]),
            ColRef::U16(s) => ColRef::U16(&s[off..off + len]),
            ColRef::U32(s) => ColRef::U32(&s[off..off + len]),
            ColRef::U64(s) => ColRef::U64(&s[off..off + len]),
        }
    }

    /// Value at `i`, widened to `u64`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            ColRef::U8(s) => s[i] as u64,
            ColRef::U16(s) => s[i] as u64,
            ColRef::U32(s) => s[i] as u64,
            ColRef::U64(s) => s[i],
        }
    }
}

/// Debug-build check that every group id is strictly below `num_groups`
/// (the count already includes the special group when one is assigned):
/// the SIMD aggregation kernels index accumulator arrays without per-row
/// bounds checks, so dispatchers call this before routing to any tier.
#[inline]
pub fn debug_assert_group_ids(gids: &[u8], num_groups: usize) {
    debug_assert!(
        gids.iter().all(|&g| (g as usize) < num_groups),
        "group id {} out of range ({num_groups} groups)",
        gids.iter().copied().max().unwrap_or(0)
    );
}

/// Reference implementation of grouped count + sums used as the oracle in
/// tests across all strategies: scalar, obviously correct, no tricks.
pub fn reference_group_sums(
    gids: &[u8],
    cols: &[ColRef<'_>],
    num_groups: usize,
) -> (Vec<u64>, Vec<Vec<i64>>) {
    let mut counts = vec![0u64; num_groups];
    let mut sums = vec![vec![0i64; num_groups]; cols.len()];
    for (i, &g) in gids.iter().enumerate() {
        let g = g as usize;
        assert!(g < num_groups, "group id {g} out of range {num_groups}");
        counts[g] += 1;
        for (c, col) in cols.iter().enumerate() {
            sums[c][g] += col.get(i) as i64;
        }
    }
    (counts, sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colref_widths() {
        assert_eq!(ColRef::U8(&[1]).elem_bytes(), 1);
        assert_eq!(ColRef::U16(&[1]).elem_bytes(), 2);
        assert_eq!(ColRef::U32(&[1]).elem_bytes(), 4);
        assert_eq!(ColRef::U64(&[1]).elem_bytes(), 8);
    }

    #[test]
    fn reference_sums_tiny() {
        let gids = [0u8, 1, 0, 1, 2];
        let a = [1u32, 2, 3, 4, 5];
        let (counts, sums) = reference_group_sums(&gids, &[ColRef::U32(&a)], 3);
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(sums[0], vec![4, 6, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reference_rejects_bad_gid() {
        reference_group_sums(&[5], &[], 3);
    }
}
