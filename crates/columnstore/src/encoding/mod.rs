//! Segment column encodings (§2.1).
//!
//! "Segment columns are encoded using one of multiple possible encodings.
//! Among the supported encodings in MemSQL are: delta encoding, run length
//! encoding, dictionary, and integer bit packing. The encodings are chosen
//! during compression of rows based on two factors: size of the resulting
//! compressed data, and usefulness of the encoding for query execution."
//!
//! We implement the same four encodings. All integer-like values (integers,
//! dates as days, decimals as hundredths) flow through the same pipeline as
//! `i64`; strings are always dictionary encoded. The automatic chooser picks
//! the smallest candidate, breaking ties toward bit packing (the most
//! query-useful representation for BIPie's kernels).

pub mod delta;
pub mod dict;
pub mod forbitpack;
pub mod rle;

pub use delta::DeltaColumn;
pub use dict::{IntDictColumn, StrDictColumn};
pub use forbitpack::ForBitPackColumn;
pub use rle::RleColumn;

use std::collections::HashSet;

use bipie_toolbox::bitpack::min_bits;

/// Which encoding a column ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Frame-of-reference integer bit packing.
    BitPack,
    /// Dictionary of distinct values + bit-packed codes.
    Dict,
    /// Run-length encoding.
    Rle,
    /// Delta encoding (bit-packed deltas from the previous value).
    Delta,
}

/// Caller preference for how a column should be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingHint {
    /// Choose automatically by compressed size (the default).
    #[default]
    Auto,
    /// Force frame-of-reference bit packing.
    BitPack,
    /// Force dictionary encoding. Legal at any cardinality: only the
    /// automatic chooser is capped at [`MAX_DICT_ENTRIES`].
    Dict,
    /// Force run-length encoding.
    Rle,
    /// Force delta encoding.
    Delta,
}

/// Maximum dictionary size considered by the automatic chooser.
pub const MAX_DICT_ENTRIES: usize = 1 << 16;

/// One encoded segment column.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// Bit-packed integers.
    BitPack(ForBitPackColumn),
    /// Dictionary-encoded integers.
    IntDict(IntDictColumn),
    /// Dictionary-encoded strings.
    StrDict(StrDictColumn),
    /// Run-length encoded integers.
    Rle(RleColumn),
    /// Delta-encoded integers.
    Delta(DeltaColumn),
}

impl EncodedColumn {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::BitPack(c) => c.len(),
            EncodedColumn::IntDict(c) => c.len(),
            EncodedColumn::StrDict(c) => c.len(),
            EncodedColumn::Rle(c) => c.len(),
            EncodedColumn::Delta(c) => c.len(),
        }
    }

    /// True if the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoding kind.
    pub fn encoding(&self) -> Encoding {
        match self {
            EncodedColumn::BitPack(_) => Encoding::BitPack,
            EncodedColumn::IntDict(_) | EncodedColumn::StrDict(_) => Encoding::Dict,
            EncodedColumn::Rle(_) => Encoding::Rle,
            EncodedColumn::Delta(_) => Encoding::Delta,
        }
    }

    /// Approximate encoded payload size in bytes (what the automatic
    /// chooser minimizes).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            EncodedColumn::BitPack(c) => c.encoded_bytes(),
            EncodedColumn::IntDict(c) => c.encoded_bytes(),
            EncodedColumn::StrDict(c) => c.encoded_bytes(),
            EncodedColumn::Rle(c) => c.encoded_bytes(),
            EncodedColumn::Delta(c) => c.encoded_bytes(),
        }
    }

    /// Decode logical integer values for rows `[start, start + out.len())`.
    ///
    /// # Panics
    /// Panics on string columns (decode their codes instead) or if the
    /// range is out of bounds.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        match self {
            EncodedColumn::BitPack(c) => c.decode_i64_into(start, out),
            EncodedColumn::IntDict(c) => c.decode_i64_into(start, out),
            EncodedColumn::Rle(c) => c.decode_i64_into(start, out),
            EncodedColumn::Delta(c) => c.decode_i64_into(start, out),
            #[expect(
                clippy::panic,
                reason = "type-confusion guard: the planner types every column reference, so an \
                          integer decode of a string column is a caller bug, not a data condition"
            )]
            EncodedColumn::StrDict(_) => {
                panic!("string columns decode to dictionary codes, not integers")
            }
        }
    }

    /// [`EncodedColumn::decode_i64_into`] for a batch loop: whatever buffer
    /// the decoder needs besides `out` comes from `scratch` (only delta
    /// decoding needs one), so nothing is allocated per call.
    pub fn decode_i64_with(&self, start: usize, out: &mut [i64], scratch: &mut Vec<u64>) {
        match self {
            EncodedColumn::Delta(c) => c.decode_i64_with(start, out, scratch),
            other => other.decode_i64_into(start, out),
        }
    }

    /// Logical integer value of a single row (slow path, for testing and
    /// row-level reads).
    pub fn get_i64(&self, row: usize) -> i64 {
        let mut out = [0i64];
        self.decode_i64_into(row, &mut out);
        out[0]
    }
}

/// What one pass over an integer column learns: enough to size every
/// candidate encoding by arithmetic, to build the winner without rescanning,
/// and to fill the segment's [`ColumnMeta`](crate::ColumnMeta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntStats {
    pub(crate) len: usize,
    /// Smallest and largest value (0 for an empty column).
    pub(crate) min: i64,
    pub(crate) max: i64,
    /// Runs of equal consecutive values.
    pub(crate) runs: usize,
    pub(crate) non_decreasing: bool,
    /// Smallest and largest wrapping difference `v[i] - v[i-1]` (0 below two
    /// values). The wrapping deltas always round-trip, but once one of them
    /// overflowed `i64` their range no longer bounds a packed width the
    /// chooser may assume, so delta stops being an automatic candidate.
    pub(crate) min_delta: i64,
    pub(crate) max_delta: i64,
    pub(crate) delta_overflow: bool,
}

impl IntStats {
    /// The statistics pass: one loop over `values`.
    pub fn scan(values: &[i64]) -> IntStats {
        let first = values.first().copied().unwrap_or(0);
        let (mut min, mut max, mut runs, mut non_decreasing) = (first, first, 0, true);
        let (mut min_delta, mut max_delta, mut delta_overflow) = (i64::MAX, i64::MIN, false);
        for w in values.windows(2) {
            let (prev, v) = (w[0], w[1]);
            min = min.min(v);
            max = max.max(v);
            runs += (v != prev) as usize;
            non_decreasing &= v >= prev;
            let (delta, overflowed) = v.overflowing_sub(prev);
            min_delta = min_delta.min(delta);
            max_delta = max_delta.max(delta);
            delta_overflow |= overflowed;
        }
        if values.len() < 2 {
            (min_delta, max_delta) = (0, 0);
        }
        let (len, runs) = (values.len(), runs + values.len().min(1));
        IntStats { len, min, max, runs, non_decreasing, min_delta, max_delta, delta_overflow }
    }

    /// Bits per frame-of-reference value.
    pub(crate) fn bitpack_bits(&self) -> u8 {
        min_bits(self.max.wrapping_sub(self.min) as u64)
    }

    /// Bits per packed delta.
    pub(crate) fn delta_bits(&self) -> u8 {
        min_bits(self.max_delta.wrapping_sub(self.min_delta) as u64)
    }

    /// Payload bytes of the bit-packed column.
    pub fn bitpack_bytes(&self) -> usize {
        8 + packed_bytes(self.len, self.bitpack_bits())
    }

    /// Payload bytes of the run-length column.
    pub fn rle_bytes(&self) -> usize {
        self.runs * (8 + 4)
    }

    /// Payload bytes of the delta column; `None` when a difference
    /// overflowed (then delta is not a candidate).
    pub fn delta_bytes(&self) -> Option<usize> {
        let anchors = self.len.div_ceil(delta::ANCHOR_INTERVAL);
        (!self.delta_overflow)
            .then(|| 16 + anchors * 8 + packed_bytes(self.len.saturating_sub(1), self.delta_bits()))
    }

    /// Payload bytes of the dictionary column, when a dictionary can
    /// displace bit packing: `None` once the distinct count passes
    /// [`MAX_DICT_ENTRIES`] or reaches a size that is not smaller than
    /// [`IntStats::bitpack_bytes`]. The size grows with the distinct count,
    /// so counting stops at the first count that loses — on a column bit
    /// packing suits, after about `2^(bits - 1)` distinct values — and the
    /// early stop cannot change which encoding wins.
    pub fn dict_bytes(&self, values: &[i64]) -> Option<usize> {
        let limit = self.bitpack_bytes();
        let size = |d: usize| d * 8 + packed_bytes(self.len, min_bits(d as u64 - 1));
        // Sized once, so it never rehashes: counting stops by the first `d`
        // with `size(d) ≥ limit`, and `size(d) ≥ 8·d`.
        let most = self.len.min(MAX_DICT_ENTRIES + 1).min(limit.div_ceil(8));
        let mut seen = HashSet::with_capacity(most);
        let mut prev = None;
        for &v in values {
            // A repeat of the previous value is already counted: runs skip
            // the hash.
            if prev != Some(v) && seen.insert(v) {
                let d = seen.len();
                if d > MAX_DICT_ENTRIES || size(d) >= limit {
                    return None;
                }
            }
            prev = Some(v);
        }
        (!seen.is_empty()).then(|| size(seen.len()))
    }
}

fn packed_bytes(len: usize, bits: u8) -> usize {
    (len * bits as usize).div_ceil(8)
}

/// Encode an integer-like column, honoring the hint.
pub fn encode_ints(values: &[i64], hint: EncodingHint) -> EncodedColumn {
    encode_ints_with(values, &IntStats::scan(values), hint)
}

/// [`encode_ints`] for a caller that already holds the column's statistics
/// (the segment builder, which also derives the metadata from them).
pub fn encode_ints_with(values: &[i64], stats: &IntStats, hint: EncodingHint) -> EncodedColumn {
    let encoding = match hint {
        EncodingHint::BitPack => Encoding::BitPack,
        EncodingHint::Dict => Encoding::Dict,
        EncodingHint::Rle => Encoding::Rle,
        EncodingHint::Delta => Encoding::Delta,
        EncodingHint::Auto => choose_int_encoding(values, stats),
    };
    match encoding {
        Encoding::BitPack => EncodedColumn::BitPack(ForBitPackColumn::encode(values, stats)),
        Encoding::Dict => EncodedColumn::IntDict(IntDictColumn::encode(values)),
        Encoding::Rle => EncodedColumn::Rle(RleColumn::encode(values)),
        Encoding::Delta => EncodedColumn::Delta(DeltaColumn::encode(values, stats)),
    }
}

/// Encode a string column (always dictionary).
pub fn encode_strings<S: AsRef<str>>(values: &[S]) -> EncodedColumn {
    EncodedColumn::StrDict(StrDictColumn::encode(values))
}

/// The automatic chooser: size each candidate from the statistics, pick the
/// smallest. Ties break toward bit packing, which BIPie's kernels consume
/// directly (§2.1: "usefulness of the encoding for query execution"), then
/// in the order dictionary, run-length, delta.
fn choose_int_encoding(values: &[i64], stats: &IntStats) -> Encoding {
    if values.is_empty() {
        return Encoding::BitPack;
    }
    // A candidate must be strictly smaller than the best so far.
    let mut best = (stats.bitpack_bytes(), Encoding::BitPack);
    for (size, enc) in [
        (stats.dict_bytes(values), Encoding::Dict),
        (Some(stats.rle_bytes()), Encoding::Rle),
        (stats.delta_bytes(), Encoding::Delta),
    ] {
        if let Some(size) = size.filter(|&size| size < best.0) {
            best = (size, enc);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &EncodedColumn, values: &[i64]) {
        assert_eq!(col.len(), values.len());
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
        // Sub-ranges at odd offsets.
        if values.len() > 10 {
            let mut out = vec![0i64; 7];
            col.decode_i64_into(3, &mut out);
            assert_eq!(out, &values[3..10]);
        }
    }

    #[test]
    fn forced_encodings_roundtrip() {
        let values: Vec<i64> = (0..1000).map(|i| (i * 37 % 91) - 45).collect();
        for hint in
            [EncodingHint::BitPack, EncodingHint::Dict, EncodingHint::Rle, EncodingHint::Delta]
        {
            let col = encode_ints(&values, hint);
            roundtrip(&col, &values);
        }
    }

    #[test]
    fn auto_picks_rle_for_runs() {
        let mut values = Vec::new();
        for run in 0..10i64 {
            values.extend(std::iter::repeat_n(run * 1000, 1000));
        }
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Rle, "long runs should pick RLE");
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_delta_for_sorted_wide_values() {
        // Sorted values with a huge base but tiny deltas: delta wins over
        // bitpack (which needs bits for max-min) and dict (all distinct).
        let values: Vec<i64> = (0..10_000).map(|i| 1_000_000_000_000 + i * 3 + (i % 2)).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Delta);
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_dict_for_wide_low_cardinality() {
        // Few distinct values, scattered across a wide range, unsorted, no
        // runs: dict codes are narrow while bitpack needs many bits.
        let dict = [0i64, 1 << 40, 1 << 50, -(1 << 45)];
        let values: Vec<i64> = (0..10_000).map(|i| dict[(i * 7 + i / 3) % 4]).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::Dict);
        roundtrip(&col, &values);
    }

    #[test]
    fn auto_picks_bitpack_for_dense_random() {
        let values: Vec<i64> =
            (0..10_000).map(|i| ((i as i64).wrapping_mul(2654435761)) % 1000).collect();
        let col = encode_ints(&values, EncodingHint::Auto);
        assert_eq!(col.encoding(), Encoding::BitPack);
        roundtrip(&col, &values);
    }

    #[test]
    fn empty_column() {
        let col = encode_ints(&[], EncodingHint::Auto);
        assert!(col.is_empty());
        let mut out = [];
        col.decode_i64_into(0, &mut out);
    }

    #[test]
    fn strings_always_dict() {
        let values = vec!["N", "A", "R", "N", "A"];
        let col = encode_strings(&values);
        assert_eq!(col.encoding(), Encoding::Dict);
        assert_eq!(col.len(), 5);
    }

    #[test]
    #[should_panic(expected = "dictionary codes")]
    fn string_column_rejects_int_decode() {
        let col = encode_strings(&["a", "b"]);
        let mut out = [0i64; 2];
        col.decode_i64_into(0, &mut out);
    }
}
