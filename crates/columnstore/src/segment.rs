//! Immutable segments (§2.1).
//!
//! "Rows in the immutable region of the columnstore are grouped into
//! segments. Each column within a segment is compressed, stored, and
//! accessed separately. All columns preserve the same order of records. A
//! segment contains approximately one million records."
//!
//! Each segment carries per-column [`ColumnMeta`] — min/max and a
//! distinct-count upper bound. The metadata enables *segment elimination*
//! (skip a segment whose min/max proves the filter rejects every row) and
//! *overflow-impossibility proofs* for sums (§2.1), and bounds the group
//! count for aggregation-strategy selection (§3).

use crate::bitmap::DeletedBitmap;
use crate::encoding::{self, EncodedColumn, EncodingHint, IntStats, StrDictColumn};

/// Target rows per segment (§2.1: "approximately one million records").
pub const SEGMENT_ROWS: usize = 1 << 20;

/// Per-column segment metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Minimum storage-integer value in the segment. For string columns
    /// this describes the *code* domain (0-based dictionary ids).
    pub min: i64,
    /// Maximum storage-integer value (code domain for strings).
    pub max: i64,
    /// Upper bound on the number of distinct values in the segment.
    pub distinct_upper: usize,
}

impl ColumnMeta {
    /// True if a value range `[lo, hi]` cannot intersect this column.
    pub fn disjoint_from_range(&self, lo: i64, hi: i64) -> bool {
        hi < self.min || lo > self.max
    }

    /// Width of the value domain (`max - min`), saturating.
    pub fn range(&self) -> u64 {
        (self.max as i128 - self.min as i128) as u64
    }
}

/// Column data handed to the segment builder.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer-like storage values, which the builder encodes.
    Ints(Vec<i64>),
    /// A string column. Strings always dictionary-encode, so the column
    /// arrives encoded.
    Strs(StrDictColumn),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Ints(v) => v.len(),
            ColumnData::Strs(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An immutable, encoded segment of rows.
#[derive(Debug, Clone)]
pub struct Segment {
    num_rows: usize,
    columns: Vec<EncodedColumn>,
    meta: Vec<ColumnMeta>,
    deleted: DeletedBitmap,
}

impl Segment {
    /// Encode `columns` into a segment, choosing encodings per `hints`
    /// (pass `EncodingHint::Auto` to let the size heuristic decide). Each
    /// column is taken from the iterator, encoded and dropped before the
    /// next is asked for, so a lazy caller holds one raw column at a time.
    ///
    /// # Panics
    /// Panics if columns have differing lengths or hints mismatch.
    pub fn build(columns: impl IntoIterator<Item = ColumnData>, hints: &[EncodingHint]) -> Segment {
        let mut encoded = Vec::with_capacity(hints.len());
        let mut meta = Vec::with_capacity(hints.len());
        let mut num_rows = None;
        for data in columns {
            assert!(encoded.len() < hints.len(), "one hint per column required");
            let rows = *num_rows.get_or_insert(data.len());
            assert_eq!(data.len(), rows, "all columns must have equal length");
            match data {
                ColumnData::Ints(values) => {
                    let stats = IntStats::scan(&values);
                    let col = encoding::encode_ints_with(&values, &stats, hints[encoded.len()]);
                    meta.push(int_meta(&stats, &col));
                    encoded.push(col);
                }
                ColumnData::Strs(dict) => {
                    let dict_len = dict.dict().len();
                    meta.push(ColumnMeta {
                        min: 0,
                        max: dict_len.saturating_sub(1) as i64,
                        distinct_upper: dict_len,
                    });
                    encoded.push(EncodedColumn::StrDict(dict));
                }
            }
        }
        assert_eq!(encoded.len(), hints.len(), "one hint per column required");
        let num_rows = num_rows.unwrap_or(0);
        Segment { num_rows, columns: encoded, meta, deleted: DeletedBitmap::new(num_rows) }
    }

    /// Number of rows (including deleted ones).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of live (non-deleted) rows.
    pub fn live_rows(&self) -> usize {
        self.num_rows - self.deleted.deleted_count()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The encoded column at index `i`.
    pub fn column(&self, i: usize) -> &EncodedColumn {
        &self.columns[i]
    }

    /// Metadata for column `i`.
    pub fn meta(&self, i: usize) -> ColumnMeta {
        self.meta[i]
    }

    /// Deleted-row bitmap.
    pub fn deleted(&self) -> &DeletedBitmap {
        &self.deleted
    }

    /// Mark a row deleted.
    pub fn delete_row(&mut self, row: usize) {
        self.deleted.delete(row);
    }

    /// Total encoded payload bytes across columns.
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(EncodedColumn::encoded_bytes).sum()
    }
}

fn int_meta(stats: &IntStats, col: &EncodedColumn) -> ColumnMeta {
    let IntStats { min, max, len, .. } = *stats;
    let distinct_upper = match col {
        EncodedColumn::IntDict(d) => d.dict().len(),
        EncodedColumn::Rle(r) => r.num_runs().min(len),
        _ => {
            // Bounded by both the row count and the value range.
            let range = (max as i128 - min as i128 + 1).min(len as i128);
            range.max(0) as usize
        }
    };
    ColumnMeta { min, max, distinct_upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;

    fn sample_segment() -> Segment {
        let ints: Vec<i64> = (0..1000).map(|i| (i % 7) - 3).collect();
        let strs: Vec<&str> = (0..1000).map(|i| ["N", "A", "R"][i % 3]).collect();
        Segment::build(
            vec![ColumnData::Ints(ints), ColumnData::Strs(StrDictColumn::encode(&strs))],
            &[EncodingHint::Auto, EncodingHint::Auto],
        )
    }

    #[test]
    fn build_and_meta() {
        let seg = sample_segment();
        assert_eq!(seg.num_rows(), 1000);
        assert_eq!(seg.num_columns(), 2);
        let m = seg.meta(0);
        assert_eq!((m.min, m.max), (-3, 3));
        assert!(m.distinct_upper <= 7);
        let m = seg.meta(1);
        assert_eq!((m.min, m.max), (0, 2));
        assert_eq!(m.distinct_upper, 3);
    }

    #[test]
    fn delete_tracking() {
        let mut seg = sample_segment();
        assert_eq!(seg.live_rows(), 1000);
        seg.delete_row(5);
        seg.delete_row(5);
        seg.delete_row(7);
        assert_eq!(seg.live_rows(), 998);
        assert!(seg.deleted().is_deleted(5));
    }

    #[test]
    fn segment_elimination_predicate() {
        let meta = ColumnMeta { min: 10, max: 20, distinct_upper: 11 };
        assert!(meta.disjoint_from_range(0, 9));
        assert!(meta.disjoint_from_range(21, 100));
        assert!(!meta.disjoint_from_range(15, 15));
        assert!(!meta.disjoint_from_range(0, 10));
        assert!(!meta.disjoint_from_range(20, 99));
        assert_eq!(meta.range(), 10);
    }

    #[test]
    fn forced_hints_respected() {
        let ints: Vec<i64> = vec![1; 100];
        let seg = Segment::build(vec![ColumnData::Ints(ints)], &[EncodingHint::Delta]);
        assert_eq!(seg.column(0).encoding(), Encoding::Delta);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_columns() {
        Segment::build(
            vec![ColumnData::Ints(vec![1]), ColumnData::Ints(vec![1, 2])],
            &[EncodingHint::Auto, EncodingHint::Auto],
        );
    }

    #[test]
    fn empty_segment() {
        let seg = Segment::build(vec![ColumnData::Ints(vec![])], &[EncodingHint::Auto]);
        assert_eq!(seg.num_rows(), 0);
        assert_eq!(seg.live_rows(), 0);
    }
}
