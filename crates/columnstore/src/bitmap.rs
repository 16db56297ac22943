//! Deleted-row tracking (§2.1).
//!
//! Rows in the immutable region "can be marked as deleted ... but cannot be
//! updated". Each segment carries one bitmap; during a scan the bitmap is
//! merged into the batch's selection byte vector so deleted rows flow
//! through the same branch-free selection machinery as filtered rows (§4).

/// A fixed-capacity bitset marking deleted rows of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletedBitmap {
    words: Vec<u64>,
    len: usize,
    deleted: usize,
}

impl DeletedBitmap {
    /// An all-live bitmap covering `len` rows.
    pub fn new(len: usize) -> Self {
        DeletedBitmap { words: vec![0u64; len.div_ceil(64)], len, deleted: 0 }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rows marked deleted.
    pub fn deleted_count(&self) -> usize {
        self.deleted
    }

    /// True if no row is deleted (the scan fast path: skip the merge).
    pub fn none_deleted(&self) -> bool {
        self.deleted == 0
    }

    /// Number of deleted rows in `[start, end)`.
    pub fn deleted_in(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if self.deleted == 0 || start == end {
            return 0;
        }
        // Bits of word `w` that fall inside the range.
        let inside = |w: usize| {
            let lo = if w == start / 64 { !0u64 << (start % 64) } else { !0 };
            let hi = if w == (end - 1) / 64 { !0u64 >> (63 - (end - 1) % 64) } else { !0 };
            lo & hi
        };
        (start / 64..=(end - 1) / 64)
            .map(|w| (self.words[w] & inside(w)).count_ones() as usize)
            .sum()
    }

    /// Mark row `row` deleted. Idempotent.
    pub fn delete(&mut self, row: usize) {
        assert!(row < self.len, "row {row} out of bounds ({})", self.len);
        let w = row / 64;
        let bit = 1u64 << (row % 64);
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.deleted += 1;
        }
    }

    /// Whether row `row` is deleted.
    pub fn is_deleted(&self, row: usize) -> bool {
        assert!(row < self.len, "row {row} out of bounds ({})", self.len);
        self.words[row / 64] & (1 << (row % 64)) != 0
    }

    /// Merge rows `[start, start+sel.len())` into a selection byte vector:
    /// deleted rows get their selection byte zeroed (§4).
    pub fn mask_batch(&self, start: usize, sel: &mut [u8]) {
        if self.deleted == 0 {
            return;
        }
        assert!(start + sel.len() <= self.len, "batch out of bounds");
        for (i, s) in sel.iter_mut().enumerate() {
            let row = start + i;
            let deleted = (self.words[row / 64] >> (row % 64)) & 1;
            // Branch-free: deleted -> mask 0x00, live -> 0xFF.
            *s &= (deleted as u8).wrapping_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_and_query() {
        let mut bm = DeletedBitmap::new(100);
        assert!(bm.none_deleted());
        bm.delete(0);
        bm.delete(63);
        bm.delete(64);
        bm.delete(99);
        bm.delete(99); // idempotent
        assert_eq!(bm.deleted_count(), 4);
        assert!(bm.is_deleted(0) && bm.is_deleted(63) && bm.is_deleted(64) && bm.is_deleted(99));
        assert!(!bm.is_deleted(1));
    }

    #[test]
    fn deleted_in_counts_a_row_range() {
        let mut bm = DeletedBitmap::new(300);
        assert_eq!(bm.deleted_in(0, 300), 0);
        for row in [0, 63, 64, 127, 128, 299] {
            bm.delete(row);
        }
        assert_eq!(bm.deleted_in(0, 300), 6);
        assert_eq!(bm.deleted_in(0, 0), 0);
        assert_eq!(bm.deleted_in(1, 63), 0);
        assert_eq!(bm.deleted_in(63, 65), 2);
        assert_eq!(bm.deleted_in(64, 128), 2);
        assert_eq!(bm.deleted_in(65, 299), 2);
        assert_eq!(bm.deleted_in(299, 300), 1);
    }

    #[test]
    fn mask_batch_zeroes_deleted() {
        let mut bm = DeletedBitmap::new(20);
        bm.delete(5);
        bm.delete(12);
        let mut sel = vec![0xFFu8; 10];
        bm.mask_batch(4, &mut sel); // covers rows 4..14
        assert_eq!(sel[1], 0); // row 5
        assert_eq!(sel[8], 0); // row 12
        assert_eq!(sel.iter().filter(|&&b| b == 0xFF).count(), 8);
    }

    #[test]
    fn mask_batch_noop_when_clean() {
        let bm = DeletedBitmap::new(10);
        let mut sel = vec![0xFFu8; 10];
        bm.mask_batch(0, &mut sel);
        assert!(sel.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn preserves_filter_rejections() {
        let mut bm = DeletedBitmap::new(4);
        bm.delete(1);
        let mut sel = vec![0x00, 0xFF, 0x00, 0xFF];
        bm.mask_batch(0, &mut sel);
        assert_eq!(sel, vec![0x00, 0x00, 0x00, 0xFF]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn delete_oob_panics() {
        DeletedBitmap::new(5).delete(5);
    }
}
