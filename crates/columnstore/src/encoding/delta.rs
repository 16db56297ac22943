//! Delta encoding (§2.1).
//!
//! Stores the first value plus frame-of-reference bit-packed deltas
//! (`v[i] - v[i-1] - min_delta`). Excellent for sorted or slowly varying
//! columns whose absolute values are wide. Decoding is inherently
//! sequential, so the column keeps an *anchor* (reconstructed value) every
//! [`ANCHOR_INTERVAL`] rows to let batch scans start mid-column without
//! replaying the whole prefix.

use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::SimdLevel;

use super::IntStats;

/// Rows between stored anchors.
pub const ANCHOR_INTERVAL: usize = 1024;

/// A delta-encoded integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaColumn {
    len: usize,
    /// Minimum delta (frame of reference for the packed deltas).
    min_delta: i64,
    /// Packed `delta[i] - min_delta` for `i` in `1..len` (index `i-1`).
    deltas: PackedVec,
    /// `anchors[k]` = value of row `k * ANCHOR_INTERVAL`.
    anchors: Vec<i64>,
    /// True when the logical values never decrease (checked exactly at
    /// encode time, so it stays sound even when deltas wrap).
    non_decreasing: bool,
}

impl DeltaColumn {
    /// Encode `values`, whose statistics are `stats`: the frame of
    /// reference and the width of the deltas come from there.
    pub fn encode(values: &[i64], stats: &IntStats) -> DeltaColumn {
        let min_delta = stats.min_delta;
        let len = values.len().saturating_sub(1);
        let deltas = PackedVec::pack_staged(len, stats.delta_bits(), |start, block| {
            let (prev, next) = (&values[start..], &values[start + 1..]);
            for ((slot, &p), &v) in block.iter_mut().zip(prev).zip(next) {
                *slot = v.wrapping_sub(p).wrapping_sub(min_delta) as u64;
            }
        });
        DeltaColumn {
            len: values.len(),
            min_delta,
            deltas,
            anchors: values.iter().step_by(ANCHOR_INTERVAL).copied().collect(),
            non_decreasing: stats.non_decreasing,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per packed delta.
    pub fn delta_bits(&self) -> u8 {
        self.deltas.bits()
    }

    /// Sortedness metadata: true when the logical values never decrease.
    /// Monotonic range pruning relies on this contract — a range predicate
    /// over a non-decreasing column selects one contiguous row interval,
    /// bounded by two [`DeltaColumn::partition_point`]s.
    pub fn is_non_decreasing(&self) -> bool {
        self.non_decreasing
    }

    /// Payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        16 + self.anchors.len() * 8 + self.deltas.packed_bytes()
    }

    /// First row whose value is `>= bound` (`> bound` when `strict`), or
    /// `len()` when there is none: the partition point of a sorted column.
    /// Binary searches the anchors, then resolves inside one anchor block
    /// with one bulk unpack and a running sum.
    ///
    /// # Panics
    /// Panics unless [`DeltaColumn::is_non_decreasing`].
    pub fn partition_point(&self, bound: i64, strict: bool) -> usize {
        assert!(self.non_decreasing, "partition point of an unsorted column");
        let below = |v: i64| v < bound || (strict && v == bound);
        let blocks_below = self.anchors.partition_point(|&a| below(a));
        if blocks_below == 0 {
            return 0;
        }
        // The last anchor below the bound starts the block that holds the
        // answer: the first row past it that is not below, else the next
        // anchor's row (or the end of the column).
        let first = (blocks_below - 1) * ANCHOR_INTERVAL;
        let end = (first + ANCHOR_INTERVAL).min(self.len);
        let mut deltas = [0u64; ANCHOR_INTERVAL];
        let deltas = &mut deltas[..end - first - 1];
        self.deltas.unpack_into_u64(first, deltas, SimdLevel::detect());
        let mut value = self.anchors[blocks_below - 1];
        for (i, &d) in deltas.iter().enumerate() {
            value = value.wrapping_add(self.min_delta).wrapping_add(d as i64);
            if !below(value) {
                return first + 1 + i;
            }
        }
        end
    }

    /// Decode logical values for rows `[start, start + out.len())`.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        self.decode_i64_with(start, out, &mut Vec::new());
    }

    /// [`DeltaColumn::decode_i64_into`] with the unpacked-delta buffer taken
    /// from the caller, so a batch loop allocates nothing per call.
    pub fn decode_i64_with(&self, start: usize, out: &mut [i64], deltas: &mut Vec<u64>) {
        if out.is_empty() {
            return;
        }
        assert!(start + out.len() <= self.len, "range out of bounds");
        // Replay from the nearest anchor at or before `start`.
        let anchor_idx = start / ANCHOR_INTERVAL;
        let mut row = anchor_idx * ANCHOR_INTERVAL;
        let mut value = self.anchors[anchor_idx];
        // Unpack the needed delta window in one go.
        let first_delta = row; // delta index for row+1 is `row`
        let n_deltas = start + out.len() - 1 - row;
        deltas.clear();
        deltas.resize(n_deltas, 0);
        if n_deltas > 0 {
            self.deltas.unpack_into_u64(first_delta, deltas, SimdLevel::detect());
        }
        let mut di = 0usize;
        while row < start {
            value = value.wrapping_add(self.min_delta).wrapping_add(deltas[di] as i64);
            di += 1;
            row += 1;
        }
        out[0] = value;
        for o in out.iter_mut().skip(1) {
            value = value.wrapping_add(self.min_delta).wrapping_add(deltas[di] as i64);
            di += 1;
            *o = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(values: &[i64]) -> DeltaColumn {
        DeltaColumn::encode(values, &IntStats::scan(values))
    }

    #[test]
    fn sorted_roundtrip() {
        let values: Vec<i64> = (0..5000).map(|i| 1_000_000 + i * 7).collect();
        let col = encode(&values);
        assert_eq!(col.delta_bits(), 1, "constant delta packs to one bit");
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn unsorted_roundtrip() {
        let values: Vec<i64> = (0..3000).map(|i| ((i * 37) % 101) - 50).collect();
        let col = encode(&values);
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn mid_column_ranges_use_anchors() {
        let values: Vec<i64> = (0..10_000).map(|i| i * 3 - 5000).collect();
        let col = encode(&values);
        for start in [0usize, 1, 1023, 1024, 1025, 4096, 9000] {
            let n = (values.len() - start).min(500);
            let mut out = vec![0i64; n];
            col.decode_i64_into(start, &mut out);
            assert_eq!(out, &values[start..start + n], "start={start}");
        }
    }

    #[test]
    fn single_value_and_empty() {
        let col = encode(&[42]);
        assert_eq!(col.len(), 1);
        let mut out = [0i64];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, [42]);
        let col = encode(&[]);
        assert!(col.is_empty());
    }
}
