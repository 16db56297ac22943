//! Frame-of-reference integer bit packing.
//!
//! Values are normalized by subtracting the column minimum ("frame of
//! reference"), then bit packed with the minimal width for `max - min`
//! (§2.1). The normalized [`PackedVec`] is exposed directly: BIPie's
//! selection and aggregation kernels operate on the normalized unsigned
//! values and the engine re-adds `reference * count` per group at output,
//! which is how sums stay exact while kernels stay narrow.

use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::SimdLevel;

use super::IntStats;

/// A bit-packed integer column with a frame-of-reference offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForBitPackColumn {
    reference: i64,
    packed: PackedVec,
    /// True when the logical values never decrease (sortedness metadata
    /// for monotonic range pruning).
    non_decreasing: bool,
}

impl ForBitPackColumn {
    /// Encode `values`, whose statistics are `stats`: the reference and
    /// the width come from there, so the one pass left is the pack loop.
    pub fn encode(values: &[i64], stats: &IntStats) -> ForBitPackColumn {
        let reference = stats.min;
        let normalized = values.iter().map(|&v| v.wrapping_sub(reference) as u64);
        ForBitPackColumn {
            reference,
            packed: PackedVec::pack_iter(normalized, stats.bitpack_bits()),
            non_decreasing: stats.non_decreasing,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True if the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The frame-of-reference offset (the column minimum).
    pub fn reference(&self) -> i64 {
        self.reference
    }

    /// The normalized bit-packed payload (`value - reference`, unsigned).
    pub fn normalized(&self) -> &PackedVec {
        &self.packed
    }

    /// Bits per normalized value.
    pub fn bits(&self) -> u8 {
        self.packed.bits()
    }

    /// Maximum normalized value representable (`max - min` bound).
    pub fn normalized_max(&self) -> u64 {
        self.packed.value_mask()
    }

    /// Sortedness metadata: true when the logical values never decrease.
    /// See [`DeltaColumn::is_non_decreasing`] for the monotonicity contract.
    ///
    /// [`DeltaColumn::is_non_decreasing`]: super::DeltaColumn::is_non_decreasing
    pub fn is_non_decreasing(&self) -> bool {
        self.non_decreasing
    }

    /// Random access to one logical value (O(1) — bit packing is
    /// addressable), for monotonic boundary probes.
    pub fn get(&self, row: usize) -> i64 {
        (self.packed.get(row) as i128 + self.reference as i128) as i64
    }

    /// First row whose value is `>= bound` (`> bound` when `strict`), or
    /// `len()` when there is none: the partition point of a sorted column,
    /// found by binary search over [`ForBitPackColumn::get`].
    ///
    /// # Panics
    /// Panics unless [`ForBitPackColumn::is_non_decreasing`].
    pub fn partition_point(&self, bound: i64, strict: bool) -> usize {
        assert!(self.non_decreasing, "partition point of an unsorted column");
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let v = self.get(mid);
            if v < bound || (strict && v == bound) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        8 + self.packed.packed_bytes()
    }

    /// Decode logical values for rows `[start, start + out.len())`.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        let level = SimdLevel::detect();
        let n = out.len();
        if self.packed.bits() <= 25 && n > 0 {
            // Fast path: unpack at u32 lane width (8 values/iteration) into
            // the tail half of the output buffer, then widen front-to-back.
            // The source byte `4n + 4i` always stays ahead of the
            // destination byte `8i`, so the in-place widen never clobbers
            // unread input.
            // SAFETY: the buffer holds n i64s = 2n u32s; the tail half is a
            // valid, exclusive u32 view during the unpack.
            unsafe {
                let base32 = out.as_mut_ptr() as *mut u32;
                let tail = std::slice::from_raw_parts_mut(base32.add(n), n);
                self.packed.unpack_into_u32(start, tail, level);
                let base64 = out.as_mut_ptr();
                for i in 0..n {
                    // Normalized values are <= max - min, so adding the
                    // reference cannot overflow i64.
                    *base64.add(i) = *base32.add(n + i) as i64 + self.reference;
                }
            }
            return;
        }
        // Wide path: unpack u64 in place (identical layout), add reference.
        // SAFETY: i64 and u64 have identical size and alignment.
        let as_u64 = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u64, n) };
        self.packed.unpack_into_u64(start, as_u64, level);
        for o in out.iter_mut() {
            *o = (*o as u64 as i128 + self.reference as i128) as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_values_roundtrip() {
        let values: Vec<i64> = vec![-100, -1, 0, 1, 100, i32::MAX as i64];
        let col = encode(&values);
        assert_eq!(col.reference(), -100);
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn constant_column_uses_one_bit() {
        let col = encode(&[42i64; 100]);
        assert_eq!(col.bits(), 1);
        assert_eq!(col.reference(), 42);
        assert_eq!(col.get_all(), vec![42i64; 100]);
    }

    #[test]
    fn extreme_range() {
        let values = vec![i64::MIN, i64::MAX, 0];
        let col = encode(&values);
        let mut out = vec![0i64; 3];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    fn encode(values: &[i64]) -> ForBitPackColumn {
        ForBitPackColumn::encode(values, &IntStats::scan(values))
    }

    impl ForBitPackColumn {
        fn get_all(&self) -> Vec<i64> {
            let mut out = vec![0i64; self.len()];
            self.decode_i64_into(0, &mut out);
            out
        }
    }
}
