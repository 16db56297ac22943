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

use std::hash::{BuildHasher, RandomState};

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
    /// The statistics pass: one loop over the pairs `(values[i - 1],
    /// values[i])`, a chunk of [`LANES`] pairs at a time. Each lane keeps
    /// its own accumulators and the lanes are folded once at the end, so the
    /// compiler turns the chunk step into vector operations. The last, short
    /// chunk is padded with copies of its first pair, which change no
    /// minimum, maximum or flag; only the change count needs their share
    /// taken back.
    pub fn scan(values: &[i64]) -> IntStats {
        let first = values.first().copied().unwrap_or(0);
        let (prev, next) = (values, values.get(1..).unwrap_or_default());
        let mut lanes = Lanes::new(first);
        for (p, v) in prev.chunks_exact(LANES).zip(next.chunks_exact(LANES)) {
            lanes.add(p, v);
        }
        let (done, rest) = (next.len() - next.len() % LANES, next.len() % LANES);
        let mut padded_changes = 0;
        if rest > 0 {
            let (mut p, mut v) = ([prev[done]; LANES], [next[done]; LANES]);
            p[..rest].copy_from_slice(&prev[done..done + rest]);
            v[..rest].copy_from_slice(&next[done..]);
            lanes.add(&p, &v);
            padded_changes = (LANES - rest) * usize::from(p[0] != v[0]);
        }
        let mut stats = lanes.fold(values.len());
        stats.runs -= padded_changes;
        if values.len() < 2 {
            (stats.min_delta, stats.max_delta) = (0, 0);
        }
        stats
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
        // Counting stops by the first `d` with `size(d) ≥ limit`, and
        // `size(d) ≥ 8·d`.
        let most = self.len.min(MAX_DICT_ENTRIES + 1).min(limit.div_ceil(8));
        let mut seen = DistinctSet::with_room_for(most);
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
        (seen.len() > 0).then(|| size(seen.len()))
    }
}

/// The distinct counter of [`IntStats::dict_bytes`]: a flat open-addressing
/// set of `i64` with linear probing, at most half full. Slot 0 marks an
/// empty slot, so the key 0 is kept beside the table.
///
/// The slot of a key is the top bits of `key · multiplier` (multiply-shift,
/// a universal family for odd multipliers), and the multiplier is a random
/// odd number drawn per set from the standard library's per-process hash
/// keys: column values come from outside the program, and which keys
/// collide must not be known before they arrive.
struct DistinctSet {
    slots: Vec<i64>,
    /// `64 - log2(slots.len())`: the product's top bits index the table.
    shift: u32,
    multiplier: u64,
    len: usize,
    has_zero: bool,
}

impl DistinctSet {
    /// Most keys a new set has room for before it grows. No column of an
    /// 8 192-row LINEITEM segment grows its set, and a large column that
    /// stops early does not zero a table for 65 537 keys. Starting at 32
    /// keys and doubling made the count 1.36× slower than the keyed
    /// `HashSet` it replaced.
    const FIRST_ROOM: usize = 4096;

    /// A set with room for `keys` keys, or [`DistinctSet::FIRST_ROOM`] if
    /// that is fewer; it doubles past them.
    fn with_room_for(keys: usize) -> DistinctSet {
        let slots = (2 * keys.min(Self::FIRST_ROOM)).next_power_of_two().max(2);
        DistinctSet {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            multiplier: RandomState::new().hash_one(0u64) | 1,
            len: 0,
            has_zero: false,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Add `key`; true if it was not in the set.
    fn insert(&mut self, key: i64) -> bool {
        if key == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            self.len += usize::from(new);
            return new;
        }
        if !Self::place(&mut self.slots, self.shift, self.multiplier, key) {
            return false;
        }
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
        true
    }

    /// Put `key` (not 0) in its probe sequence's first free slot; false if
    /// the sequence meets it first.
    fn place(slots: &mut [i64], shift: u32, multiplier: u64, key: i64) -> bool {
        let mask = slots.len() - 1;
        let mut i = ((key as u64).wrapping_mul(multiplier) >> shift) as usize;
        loop {
            match slots[i] {
                0 => {
                    slots[i] = key;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[cold]
    fn grow(&mut self) {
        let slots = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, slots);
        self.shift -= 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            Self::place(&mut self.slots, self.shift, self.multiplier, key);
        }
    }
}

/// Pairs per chunk of [`IntStats::scan`]: eight `i64` lanes fill one
/// AVX-512 register or two AVX2 registers per accumulator.
const LANES: usize = 8;

/// The statistics pass's accumulators, one per lane.
struct Lanes {
    min: [i64; LANES],
    max: [i64; LANES],
    /// Pairs `v != prev`.
    changes: [u64; LANES],
    /// Nonzero once a pair had `v < prev`.
    decreases: [u64; LANES],
    min_delta: [i64; LANES],
    max_delta: [i64; LANES],
    /// Sign bit set once a difference overflowed: `v - prev` overflows
    /// exactly when the operands' signs differ and the result's sign is not
    /// `v`'s.
    overflow: [i64; LANES],
}

impl Lanes {
    fn new(first: i64) -> Lanes {
        Lanes {
            min: [first; LANES],
            max: [first; LANES],
            changes: [0; LANES],
            decreases: [0; LANES],
            min_delta: [i64::MAX; LANES],
            max_delta: [i64::MIN; LANES],
            overflow: [0; LANES],
        }
    }

    /// Add the pairs `(prev[l], next[l])` of one chunk, each to its lane.
    #[inline(always)]
    fn add(&mut self, prev: &[i64], next: &[i64]) {
        let (prev, next) = (&prev[..LANES], &next[..LANES]);
        for l in 0..LANES {
            let (p, v) = (prev[l], next[l]);
            let delta = v.wrapping_sub(p);
            self.min[l] = self.min[l].min(v);
            self.max[l] = self.max[l].max(v);
            self.changes[l] += u64::from(v != p);
            self.decreases[l] |= u64::from(v < p);
            self.min_delta[l] = self.min_delta[l].min(delta);
            self.max_delta[l] = self.max_delta[l].max(delta);
            self.overflow[l] |= (v ^ p) & (v ^ delta);
        }
    }

    fn fold(self, len: usize) -> IntStats {
        let min_of = |lanes: [i64; LANES]| lanes.into_iter().fold(i64::MAX, i64::min);
        let max_of = |lanes: [i64; LANES]| lanes.into_iter().fold(i64::MIN, i64::max);
        let or_of = |lanes: [i64; LANES]| lanes.into_iter().fold(0, |or, lane| or | lane);
        IntStats {
            len,
            min: min_of(self.min),
            max: max_of(self.max),
            runs: self.changes.iter().sum::<u64>() as usize + len.min(1),
            non_decreasing: self.decreases == [0; LANES],
            min_delta: min_of(self.min_delta),
            max_delta: max_of(self.max_delta),
            delta_overflow: or_of(self.overflow) < 0,
        }
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
    use bipie_toolbox::rng::Rng;

    /// The statistics pass as one value-at-a-time loop: the oracle the
    /// chunked pass must equal.
    fn scan_oracle(values: &[i64]) -> IntStats {
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

    /// The chunked statistics pass equals the loop at every length around
    /// its chunks (a short last chunk of each size, before and after whole
    /// ones), on small, sorted, overflowing and full-width values, and on
    /// longer columns of runs, sorted wide values, a few wide keys and a
    /// constant.
    #[test]
    fn statistics_pass_matches_the_loop() {
        const EXTREMES: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1];
        for len in 0..=130usize {
            let mut rng = Rng::seed_from_u64(len as u64);
            let pools: [Vec<i64>; 4] = [
                (0..len).map(|_| rng.random_range(-3i64..3)).collect(),
                (0..len).map(|i| (i / 3) as i64 - 20).collect(),
                (0..len).map(|_| EXTREMES[rng.random_range(0..EXTREMES.len())]).collect(),
                (0..len).map(|_| rng.random::<i64>()).collect(),
            ];
            for values in &pools {
                assert_eq!(IntStats::scan(values), scan_oracle(values), "{values:?}");
            }
        }
        let mut rng = Rng::seed_from_u64(0x5EED);
        for case in 0..256 {
            let len = rng.random_range(0..600usize);
            let keys: Vec<i64> = (0..8).map(|_| rng.random_range(-(1i64 << 50)..1 << 50)).collect();
            let (run, constant) = (rng.random_range(1..50usize), rng.random_range(-1000i64..1000));
            let mut acc = 1_000_000_000i64;
            let values: Vec<i64> = (0..len)
                .map(|i| match case % 4 {
                    0 => (i / run) as i64 * 1_000_000,
                    1 => {
                        acc += rng.random_range(0i64..1000);
                        acc
                    }
                    2 => keys[rng.random_range(0..keys.len())],
                    _ => constant,
                })
                .collect();
            assert_eq!(IntStats::scan(&values), scan_oracle(&values), "case {case}: {values:?}");
        }
    }

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
