//! Fixed-width integer bit packing (§2.1) and unpacking (§2.2).
//!
//! Bit packing represents every value of a sequence using the same number of
//! bits, concatenated into one vector with no gaps. Whenever BIPie unpacks,
//! it outputs values using the *smallest power-of-two word size* the bit
//! width fits in (1, 2, 4, or 8 bytes) — using the smallest word is important
//! for downstream SIMD parallelism (§2.2), e.g. in-register aggregation gets
//! twice the lanes from 1-byte group ids as from 2-byte ones.
//!
//! The packed layout is LSB-first: value `i` occupies bit positions
//! `[i*bits, (i+1)*bits)` of the little-endian byte stream. The backing
//! buffer is padded with 8 trailing zero bytes: a 4- or 8-byte word read at
//! the first byte of any value (the scalar path, the AVX2 gathers) stays
//! inside the allocation. The AVX-512 kernel reads 64 bytes at a time and
//! the padding does not cover that: its loop runs only while
//! `byte_base + 64 <= bytes_padded().len()` and leaves the values behind
//! that point to the next cell of the unpack table.

use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel};

kernel_sig! {
    /// Unpack values `start..` of a vector into the front of `out`; returns
    /// how many it wrote. An unpack runs down its family's chain (DESIGN.md
    /// §21): each admitted cell writes what it can, the oracle the rest.
    pub(crate) type UnpackK<T> = fn(pv: &PackedVec, start: usize, out: &mut [T]) -> usize;
}

/// AVX-512 gates: `(8 / W) * bits + 7 <= 64` (the `avx512` module docs);
/// AVX2: the 32-bit gather reaches 25 bits, the 64-bit window 57.
pub(crate) const UNPACK_U8: Family<UnpackK<u8>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: 7, kernel: avx512::unpack },
        Cell { tier: Avx2, gate: 25, kernel: avx2::unpack_u8 },
    ],
    oracle: unpack_scalar,
};
pub(crate) const UNPACK_U16: Family<UnpackK<u16>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: 14, kernel: avx512::unpack },
        Cell { tier: Avx2, gate: 25, kernel: avx2::unpack_u16 },
    ],
    oracle: unpack_scalar,
};
pub(crate) const UNPACK_U32: Family<UnpackK<u32>> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: 28, kernel: avx512::unpack },
        Cell { tier: Avx2, gate: 25, kernel: avx2::unpack_u32 },
        Cell { tier: Avx2, gate: 57, kernel: avx2::unpack_u32_wide },
    ],
    oracle: unpack_scalar,
};
pub(crate) const UNPACK_U64: Family<UnpackK<u64>> = Family {
    cells: cells![Cell { tier: Avx2, gate: 57, kernel: avx2::unpack_u64 }],
    oracle: unpack_scalar,
};

/// Maximum supported bit width.
pub const MAX_BITS: u8 = 64;

/// The smallest power-of-two byte width that holds a `bits`-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordSize {
    /// 1-byte words (`u8`): bit widths 1..=8.
    W1,
    /// 2-byte words (`u16`): bit widths 9..=16.
    W2,
    /// 4-byte words (`u32`): bit widths 17..=32.
    W4,
    /// 8-byte words (`u64`): bit widths 33..=64.
    W8,
}

impl WordSize {
    /// Smallest word size for a bit width (§2.2).
    pub fn for_bits(bits: u8) -> WordSize {
        match bits {
            0..=8 => WordSize::W1,
            9..=16 => WordSize::W2,
            17..=32 => WordSize::W4,
            33..=64 => WordSize::W8,
            #[expect(
                clippy::panic,
                reason = "callers derive `bits` from 64-bit values, so it is always ≤ 64; anything \
                          else is a caller bug"
            )]
            _ => panic!("bit width {bits} out of range 0..=64"),
        }
    }

    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            WordSize::W1 => 1,
            WordSize::W2 => 2,
            WordSize::W4 => 4,
            WordSize::W8 => 8,
        }
    }
}

/// Number of bits needed to represent `max` (at least 1 so that a packed
/// vector always advances).
pub fn min_bits(max: u64) -> u8 {
    if max == 0 {
        1
    } else {
        (64 - max.leading_zeros()) as u8
    }
}

/// A bit-packed vector of unsigned integers with a fixed bit width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedVec {
    bits: u8,
    len: usize,
    /// Little-endian packed bit stream, padded with >= 8 zero bytes.
    bytes: Vec<u8>,
}

impl PackedVec {
    /// Pack `values` using `bits` bits each.
    ///
    /// # Panics
    /// Panics if any value does not fit in `bits` bits, or `bits` is not in
    /// `1..=64`.
    pub fn pack(values: &[u64], bits: u8) -> PackedVec {
        debug_assert_values_fit(values, bits);
        Self::pack_staged(values.len(), bits, |start, block| {
            block.copy_from_slice(&values[start..start + block.len()]);
        })
    }

    /// [`PackedVec::pack`] of `len` values that `stage` writes a block at a
    /// time: `stage(start, block)` fills `block` with values `start..start +
    /// block.len()`. An encoder normalizes from its own slice into the block,
    /// so no `Vec<u64>` of the column is staged.
    ///
    /// Every full block of [`BLOCK`] values goes to the packer for the width
    /// (one function per width, with constant shifts), after one check that
    /// the block's OR fits the width; the last `len % BLOCK` values go
    /// through the value-at-a-time loop. Only the staging is generic: the 64
    /// packers are compiled once, whatever the caller.
    ///
    /// # Panics
    /// As [`PackedVec::pack`]; the message names the first value that does
    /// not fit.
    pub fn pack_staged(
        len: usize,
        bits: u8,
        mut stage: impl FnMut(usize, &mut [u64]),
    ) -> PackedVec {
        assert!((1..=MAX_BITS).contains(&bits), "bit width {bits} out of range 1..=64");
        let width = bits as usize;
        // The stream, then zeros up to the 8 bytes of SIMD padding.
        let mut bytes = vec![0u8; (len * width).div_ceil(8) + 8];
        let mut block = [0u64; BLOCK];
        let full = len / BLOCK;
        // A block of 64 values of `width` bits fills exactly `width` words.
        for (b, out) in bytes.chunks_exact_mut(8 * width).take(full).enumerate() {
            stage(b * BLOCK, &mut block);
            check_fit(&block, bits);
            PACKERS[width - 1](&block, out);
        }
        let tail = &mut block[..len % BLOCK];
        if !tail.is_empty() {
            stage(full * BLOCK, tail);
            pack_scalar(tail, bits, &mut bytes[full * 8 * width..]);
        }
        PackedVec { bits, len, bytes }
    }

    /// Pack values using the minimal bit width for their maximum.
    pub fn pack_minimal(values: &[u64]) -> PackedVec {
        let bits = min_bits(values.iter().copied().max().unwrap_or(0));
        Self::pack(values, bits)
    }

    /// Bit width of each value.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of packed values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest power-of-two unpack word size for this vector (§2.2).
    #[inline]
    pub fn word_size(&self) -> WordSize {
        WordSize::for_bits(self.bits)
    }

    /// Size of the packed payload in bytes (excluding SIMD padding).
    pub fn packed_bytes(&self) -> usize {
        (self.len * self.bits as usize).div_ceil(8)
    }

    /// Raw byte view including the >= 8 bytes of zero padding, for SIMD
    /// kernels that load 4/8-byte words at arbitrary byte offsets.
    #[inline]
    pub fn bytes_padded(&self) -> &[u8] {
        &self.bytes
    }

    /// Mask with the low `bits` bits set.
    #[inline]
    pub fn value_mask(&self) -> u64 {
        mask_for(self.bits)
    }

    /// Random access to value `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let bit = i * self.bits as usize;
        let byte = bit >> 3;
        let shift = (bit & 7) as u32;
        // SAFETY-free: padded buffer guarantees byte+8 <= bytes.len().
        let word = read_u64_le(&self.bytes, byte);
        if shift as u8 + self.bits <= 64 {
            (word >> shift) & self.value_mask()
        } else {
            let hi = self.bytes[byte + 8] as u64;
            ((word >> shift) | (hi << (64 - shift))) & self.value_mask()
        }
    }

    /// Unpack values `[start, start+out.len())` into `u8` words.
    ///
    /// # Panics
    /// Panics if the bit width exceeds 8 or the range is out of bounds.
    pub fn unpack_into_u8(&self, start: usize, out: &mut [u8], level: SimdLevel) {
        assert!(self.bits <= 8, "bit width {} does not fit u8 words", self.bits);
        self.unpack(&UNPACK_U8, start, out, level);
    }

    /// Values `[start, start+len)` as bytes, for a kernel that only reads
    /// them: at exactly 8 bits the packed buffer already holds one byte per
    /// value and is borrowed as is; narrower values are unpacked into `buf`.
    ///
    /// # Panics
    /// Panics if the bit width exceeds 8 or the range is out of bounds.
    pub fn u8_values<'a>(
        &'a self,
        start: usize,
        len: usize,
        buf: &'a mut Vec<u8>,
        level: SimdLevel,
    ) -> &'a [u8] {
        if self.bits == 8 {
            self.check_range(start, len);
            return &self.bytes[start..start + len];
        }
        buf.resize(len, 0);
        self.unpack_into_u8(start, buf, level);
        buf
    }

    /// Unpack values `[start, start+out.len())` into `u16` words.
    pub fn unpack_into_u16(&self, start: usize, out: &mut [u16], level: SimdLevel) {
        assert!(self.bits <= 16, "bit width {} does not fit u16 words", self.bits);
        self.unpack(&UNPACK_U16, start, out, level);
    }

    /// Unpack values `[start, start+out.len())` into `u32` words.
    pub fn unpack_into_u32(&self, start: usize, out: &mut [u32], level: SimdLevel) {
        assert!(self.bits <= 32, "bit width {} does not fit u32 words", self.bits);
        self.unpack(&UNPACK_U32, start, out, level);
    }

    /// Unpack values `[start, start+out.len())` into `u64` words.
    pub fn unpack_into_u64(&self, start: usize, out: &mut [u64], level: SimdLevel) {
        self.unpack(&UNPACK_U64, start, out, level);
    }

    /// Run down `family`'s chain until `out` is full.
    fn unpack<T>(
        &self,
        family: &Family<UnpackK<T>>,
        start: usize,
        out: &mut [T],
        level: SimdLevel,
    ) {
        self.check_range(start, out.len());
        let mut done = 0;
        for kernel in family.chain(level, self.bits as usize) {
            if done < out.len() {
                done += kernel.run(self, start + done, &mut out[done..]);
            }
        }
    }

    /// Unpack the whole vector to `u64` (convenience for tests and encoding
    /// round trips, not a hot path).
    pub fn unpack_all(&self, level: SimdLevel) -> Vec<u64> {
        let mut out = vec![0u64; self.len];
        self.unpack_into_u64(0, &mut out, level);
        out
    }

    pub(crate) fn check_range(&self, start: usize, n: usize) {
        // The message names the range without adding: `start + n` is what
        // may have overflowed.
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "range of {n} values from {start} out of bounds (len {})",
            self.len
        );
    }
}

/// An unpack word: `u8`, `u16`, `u32` or `u64`.
pub(crate) trait Word: Copy {
    /// Narrow a value that fits the word.
    fn narrow(v: u64) -> Self;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline(always)]
            fn narrow(v: u64) -> $t {
                v as $t
            }
        }
    )*};
}
word!(u8, u16, u32, u64);

/// Scalar oracle of the unpack families: values `start..` into all of `out`.
pub(crate) fn unpack_scalar<T: Word>(pv: &PackedVec, start: usize, out: &mut [T]) -> usize {
    pv.values_into(start.., out)
}

impl PackedVec {
    /// Value `i` of each index into its slot of `out` — the loop of the
    /// unpack and gather oracles, with the width test outside it.
    pub(crate) fn values_into<T: Word>(
        &self,
        index: impl Iterator<Item = usize>,
        out: &mut [T],
    ) -> usize {
        let (bits, mask) = (self.bits as usize, self.value_mask());
        if self.bits <= 57 {
            // A byte-aligned 64-bit load always covers the value: shift is
            // 0..=7 and shift + bits <= 64.
            for (slot, i) in out.iter_mut().zip(index) {
                let bit = i * bits;
                *slot = T::narrow((read_u64_le(&self.bytes, bit >> 3) >> (bit & 7)) & mask);
            }
        } else {
            for (slot, i) in out.iter_mut().zip(index) {
                *slot = T::narrow(self.get(i));
            }
        }
        out.len()
    }
}

/// Mask with the low `bits` bits set (`bits` in 1..=64).
#[inline]
pub fn mask_for(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Values per block of [`PackedVec::pack_staged`]: 64 values of any width
/// end on a word boundary.
const BLOCK: usize = 64;

/// Assert that every value fits in `bits` bits: one OR over the block, and
/// only when that fails, a walk for the first value that does not fit.
fn check_fit(values: &[u64], bits: u8) {
    let mask = mask_for(bits);
    if values.iter().fold(0, |or, &v| or | v) > mask {
        for &v in values {
            assert!(v <= mask, "value {v} does not fit in {bits} bits");
        }
    }
}

/// The value-at-a-time packer, for a block's tail: `values` into the front
/// of `out`, LSB-first, each checked against the width. `out` must hold
/// `⌈values.len() · bits / 8⌉` bytes plus one word for the partial word.
///
/// Output words are assembled in a register and stored once each: `acc`
/// holds the `fill < 64` bits not yet stored, and a value that crosses the
/// word boundary leaves its high bits behind as the next `acc`.
fn pack_scalar(values: &[u64], bits: u8, out: &mut [u8]) {
    let (mask, width) = (mask_for(bits), bits as u32);
    let (mut acc, mut fill) = (0u64, 0u32);
    let mut words = out.chunks_exact_mut(8);
    let mut store = |word: u64| {
        if let Some(dst) = words.next() {
            dst.copy_from_slice(&word.to_le_bytes());
        }
    };
    for &v in values {
        assert!(v <= mask, "value {v} does not fit in {bits} bits");
        acc |= v << fill;
        fill += width;
        if fill >= 64 {
            store(acc);
            fill -= 64;
            // `fill` high bits of `v` did not fit the stored word (none when
            // it ended on the boundary, where the shift would be 64).
            acc = if fill == 0 { 0 } else { v >> (width - fill) };
        }
    }
    if fill > 0 {
        store(acc);
    }
}

/// One block of [`BLOCK`] values of `BITS` bits into the `BITS` words at the
/// front of `out`. The value loop is unrolled by [`each_of_64`], so every
/// shift and word index is a constant, the words stay in registers, and each
/// is stored once.
fn pack_block<const BITS: usize>(values: &[u64; BLOCK], out: &mut [u8]) {
    let mut words = [0u64; BITS];
    each_of_64!(i => {
        let (word, shift) = (i * BITS / 64, i * BITS % 64);
        words[word] |= values[i] << shift;
        if shift + BITS > 64 {
            words[word + 1] |= values[i] >> (64 - shift);
        }
    });
    for (dst, word) in out.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
}

/// `body` once for each `i` in `0..64`, written out: the compiler's own
/// unrolling stops short of 64 iterations.
macro_rules! each_of_64 {
    ($i:ident => $body:block) => {
        each_of_64!(@ $i $body
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
            61 62 63)
    };
    (@ $i:ident $body:block $($n:literal)*) => {
        $({
            let $i: usize = $n;
            $body
        })*
    };
}
use each_of_64;

macro_rules! packers {
    ($($bits:literal)*) => {
        /// [`pack_block`] for each width `1..=64`, at index `width - 1`. A
        /// `static`, so every caller reaches the toolbox's one copy of each:
        /// a `const` table is instantiated again in every crate that packs
        /// (three copies in the benchmark binary, 0.35 MB of code).
        static PACKERS: [fn(&[u64; BLOCK], &mut [u8]); 64] = [$(pack_block::<$bits>),*];
    };
}
packers!(
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64
);

/// Debug-build check that every value fits in `bits` bits. [`PackedVec::pack`]
/// asserts this per value unconditionally; the helper states the invariant
/// for callers staging values before a pack (and for the unpack kernels,
/// which assume it when masking).
#[inline]
pub fn debug_assert_values_fit(values: &[u64], bits: u8) {
    debug_assert!(
        values.iter().all(|&v| v <= mask_for(bits)),
        "value does not fit in declared bit width {bits}"
    );
}

#[inline]
#[expect(clippy::unwrap_used, reason = "the 8-byte slice is exact, so `try_into` must fit")]
fn read_u64_le(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Gather-free AVX-512 (VBMI) unpack kernel.
    //!
    //! One iteration produces the 64 output bytes of `64 / W` values (`W` =
    //! output word bytes) from one 64-byte load at the iteration's byte base:
    //! `vpermb` brings to output qword `q` the eight source bytes that hold
    //! its `8 / W` values, `vpmultishiftqb` picks for every output byte the 8
    //! bits at its bit offset inside that qword, and one `vpand` clears what
    //! lies above each value. `64 / W` values are a whole number of bytes, so
    //! the three control vectors depend on `(bits, start_bit & 7)` alone and
    //! are built once per call.
    //!
    //! The values of one output qword must lie within eight source bytes
    //! whatever the phase: `(8 / W) * bits + 7 <= 64` — at most 7 bits into
    //! `u8`, 14 into `u16`, 28 into `u32`. The cells' gates are exactly
    //! that; other widths keep the AVX2 gathers.

    use super::PackedVec;
    use std::arch::x86_64::*;

    /// Loop-invariant control vectors of [`unpack`].
    struct Ctrl {
        /// `vpermb` indices: output qword `q` takes source bytes `B_q..B_q+8`.
        bytes: __m512i,
        /// `vpmultishiftqb` bit offsets of every output byte in its qword.
        offsets: __m512i,
        /// The byte of the value mask every output byte keeps.
        mask: __m512i,
    }

    /// Control vectors for `bits`-bit values unpacked into `w`-byte words,
    /// the first value starting `phase < 8` bits into the loaded bytes.
    ///
    /// Output qword `q` holds values `q*(8/w) ..`, the first of which starts
    /// at bit `phase + q*(8/w)*bits` of the load: byte `B_q` (that `>> 3`),
    /// bit `o_q` (that `& 7`). Byte `j` of the qword is byte `j % w` of value
    /// `j / w`, i.e. the 8 bits at `o_q + (j/w)*bits + 8*(j%w)`.
    ///
    /// # Safety
    /// The CPU must support avx512f — guaranteed by the resolver's tier
    /// check before any call.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn ctrl(bits: usize, w: usize, phase: usize) -> Ctrl {
        const EACH_BYTE: u64 = 0x0101_0101_0101_0101;
        const BYTE_INDEX: u64 = 0x0706_0504_0302_0100;
        let value_mask = super::mask_for(bits as u8);
        let (mut within, mut mask) = (0u64, 0u64);
        for j in 0..8 {
            within |= (((j / w) * bits + 8 * (j % w)) as u64) << (8 * j);
            mask |= ((value_mask >> (8 * (j % w))) & 0xFF) << (8 * j);
        }
        let mut bytes = [0u64; 8];
        let mut offsets = [0u64; 8];
        for q in 0..8 {
            let bit = phase + q * (8 / w) * bits;
            // No byte carries: `bit >> 3` is at most 49 and the offsets at
            // most 59 under the applicability inequality.
            bytes[q] = (bit >> 3) as u64 * EACH_BYTE + BYTE_INDEX;
            offsets[q] = (bit & 7) as u64 * EACH_BYTE + within;
        }
        // SAFETY: avx512f per the caller; both arrays are 64 bytes, read
        // unaligned.
        unsafe {
            Ctrl {
                bytes: _mm512_loadu_si512(bytes.as_ptr() as *const _),
                offsets: _mm512_loadu_si512(offsets.as_ptr() as *const _),
                mask: _mm512_set1_epi64(mask as i64),
            }
        }
    }

    /// Unpack values `start..` of `pv` into the front of `out`, whole
    /// iterations of `64 / size_of::<T>()` values only, and return how many
    /// were written. It stops before the output is full and before a 64-byte
    /// load would leave the packed buffer; the next cell of the chain unpacks
    /// the rest.
    ///
    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vbmi — guaranteed by
    /// the resolver's tier check before any call. `T` must be `u8`,
    /// `u16` or `u32` with `(8 / size_of::<T>()) * pv.bits() + 7 <= 64`, and
    /// `start + out.len() <= pv.len()`.
    #[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vbmi")]
    pub(super) unsafe fn unpack<T>(pv: &PackedVec, start: usize, out: &mut [T]) -> usize {
        let (bits, w) = (pv.bits() as usize, std::mem::size_of::<T>());
        debug_assert!(matches!(w, 1 | 2 | 4) && (8 / w) * bits + 7 <= 64);
        let bytes = pv.bytes_padded();
        let start_bit = start * bits;
        let per_iter = 64 / w;
        let mut byte_base = start_bit >> 3;
        let mut done = 0usize;
        // SAFETY: avx512f per the caller.
        let ctrl = unsafe { ctrl(bits, w, start_bit & 7) };
        while done + per_iter <= out.len() && byte_base + 64 <= bytes.len() {
            // Checked slices: the loop condition is what makes them free.
            let src = &bytes[byte_base..byte_base + 64];
            let dst = &mut out[done..done + per_iter];
            // SAFETY: the target features are the caller's guarantee; `src`
            // and `dst` are 64 bytes each (`per_iter` words of `w` bytes),
            // read and written unaligned, and every bit pattern is a `T`.
            unsafe {
                let loaded = _mm512_loadu_si512(src.as_ptr() as *const _);
                let qwords = _mm512_permutexvar_epi8(ctrl.bytes, loaded);
                let fields = _mm512_multishift_epi64_epi8(ctrl.offsets, qwords);
                let values = _mm512_and_si512(fields, ctrl.mask);
                _mm512_storeu_si512(dst.as_mut_ptr() as *mut _, values);
            }
            byte_base += per_iter * bits / 8;
            done += per_iter;
        }
        done
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 unpack kernels.
    //!
    //! For bit widths <= 25, eight consecutive values can each be fetched
    //! with a byte-aligned 32-bit load (within-byte shift is 0..=7, and
    //! 7 + 25 <= 32), so one `vpgatherdd` + variable shift + mask produces
    //! eight unpacked values. The byte offsets and shifts of eight
    //! consecutive values form a fixed pattern that repeats every 8 values
    //! (advancing by exactly `bits` bytes), so the control vectors are
    //! loop-invariant. Widths 26..=57 use the analogous 4-lane 64-bit
    //! gather (two per eight values); for `u32` outputs (26..=32 bits) the
    //! two 4 x u64 results are narrowed back into one 8 x u32 store. Each
    //! kernel writes whole groups and returns how many values that was; the
    //! next cell of its chain, at last the oracle, writes the rest.

    use super::PackedVec;
    use std::arch::x86_64::*;

    /// Eight-lane control vectors for the `bits <= 25` fast path.
    struct Ctrl8 {
        offsets: __m256i,
        shifts: __m256i,
        mask: __m256i,
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ctrl8(bits: usize, start_bit: usize) -> Ctrl8 {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let mut offs = [0i32; 8];
            let mut shifts = [0i32; 8];
            for k in 0..8 {
                let bit = start_bit + k * bits;
                offs[k] = (bit >> 3) as i32;
                shifts[k] = (bit & 7) as i32;
            }
            Ctrl8 {
                offsets: _mm256_loadu_si256(offs.as_ptr() as *const __m256i),
                shifts: _mm256_loadu_si256(shifts.as_ptr() as *const __m256i),
                mask: _mm256_set1_epi32(super::mask_for(bits as u8) as u32 as i32),
            }
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Gather-unpack 8 values starting at the iteration's byte base.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather8(base: *const u8, ctrl: &Ctrl8) -> __m256i {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let words = _mm256_i32gather_epi32::<1>(base as *const i32, ctrl.offsets);
            let shifted = _mm256_srlv_epi32(words, ctrl.shifts);
            _mm256_and_si256(shifted, ctrl.mask)
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u32(pv: &PackedVec, start: usize, out: &mut [u32]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bits = pv.bits() as usize;
            let bytes = pv.bytes_padded();
            let start_bit = start * bits;
            // Within-group bit pattern is relative to the group's byte base.
            let ctrl = ctrl8(bits, start_bit & 7);
            let mut byte_base = start_bit >> 3;
            let n = out.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let v = gather8(bytes.as_ptr().add(byte_base), &ctrl);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, v);
                byte_base += bits; // 8 values = 8*bits bits = bits bytes
                i += 8;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u16(pv: &PackedVec, start: usize, out: &mut [u16]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bits = pv.bits() as usize;
            let bytes = pv.bytes_padded();
            let start_bit = start * bits;
            let ctrl = ctrl8(bits, start_bit & 7);
            let mut byte_base = start_bit >> 3;
            let n = out.len();
            let mut i = 0usize;
            while i + 16 <= n {
                let lo = gather8(bytes.as_ptr().add(byte_base), &ctrl);
                let hi = gather8(bytes.as_ptr().add(byte_base + bits), &ctrl);
                // packus interleaves 128-bit halves; permute fixes the order.
                let packed = _mm256_packus_epi32(lo, hi);
                let fixed = _mm256_permute4x64_epi64::<0b11011000>(packed);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, fixed);
                byte_base += 2 * bits;
                i += 16;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u8(pv: &PackedVec, start: usize, out: &mut [u8]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bits = pv.bits() as usize;
            let bytes = pv.bytes_padded();
            let start_bit = start * bits;
            let ctrl = ctrl8(bits, start_bit & 7);
            let mut byte_base = start_bit >> 3;
            let n = out.len();
            let mut i = 0usize;
            while i + 32 <= n {
                let a = gather8(bytes.as_ptr().add(byte_base), &ctrl);
                let b = gather8(bytes.as_ptr().add(byte_base + bits), &ctrl);
                let c = gather8(bytes.as_ptr().add(byte_base + 2 * bits), &ctrl);
                let d = gather8(bytes.as_ptr().add(byte_base + 3 * bits), &ctrl);
                let ab = _mm256_packus_epi32(a, b); // a0..3 b0..3 a4..7 b4..7 (u16)
                let cd = _mm256_packus_epi32(c, d);
                let abcd = _mm256_packus_epi16(ab, cd); // interleaved u8
                                                        // Restore order: packus works within 128-bit lanes.
                let perm =
                    _mm256_permutevar8x32_epi32(abcd, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, perm);
                byte_base += 4 * bits;
                i += 32;
            }
            i
        }
    }

    /// Control vectors of the 64-bit-window path: byte offsets and shifts of
    /// eight consecutive values (lanes 0..4 and 4..8), relative to the
    /// group's byte base. Eight values advance by exactly `bits` bytes, so
    /// they stay loop-invariant.
    struct Ctrl64 {
        offsets: [__m256i; 2],
        shifts: [__m256i; 2],
        mask: __m256i,
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ctrl64(bits: usize, phase: usize) -> Ctrl64 {
        let mut offs = [0i64; 8];
        let mut shifts = [0i64; 8];
        for k in 0..8 {
            let bit = phase + k * bits;
            offs[k] = (bit >> 3) as i64;
            shifts[k] = (bit & 7) as i64;
        }
        // SAFETY: avx2 per the caller; both arrays hold eight i64s, read as
        // two unaligned 4-lane vectors each.
        unsafe {
            let load = |a: &[i64; 8], half: usize| {
                _mm256_loadu_si256(a.as_ptr().add(4 * half) as *const __m256i)
            };
            Ctrl64 {
                offsets: [load(&offs, 0), load(&offs, 1)],
                shifts: [load(&shifts, 0), load(&shifts, 1)],
                mask: _mm256_set1_epi64x(super::mask_for(bits as u8) as i64),
            }
        }
    }

    /// Gather-unpack 8 values of up to 57 bits as two 4 x u64 vectors: a
    /// byte-aligned 64-bit load always covers the value (shift 0..=7 plus
    /// 57 bits is at most 64).
    ///
    /// # Safety
    /// The CPU must support avx2, and `base` plus every control offset must
    /// leave 8 readable bytes (the packed buffer's zero padding guarantees
    /// it for in-range values).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather8_wide(base: *const u8, ctrl: &Ctrl64) -> (__m256i, __m256i) {
        // SAFETY: forwarded caller guarantees.
        unsafe {
            let base = base as *const i64;
            let lo = _mm256_i64gather_epi64::<1>(base, ctrl.offsets[0]);
            let hi = _mm256_i64gather_epi64::<1>(base, ctrl.offsets[1]);
            (
                _mm256_and_si256(_mm256_srlv_epi64(lo, ctrl.shifts[0]), ctrl.mask),
                _mm256_and_si256(_mm256_srlv_epi64(hi, ctrl.shifts[1]), ctrl.mask),
            )
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    /// Widths 26..=32: the 64-bit-window gathers of [`unpack_u64`], narrowed
    /// to eight `u32`s per store.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u32_wide(pv: &PackedVec, start: usize, out: &mut [u32]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bits = pv.bits() as usize;
            let bytes = pv.bytes_padded();
            let start_bit = start * bits;
            let ctrl = ctrl64(bits, start_bit & 7);
            // Even dwords of each half hold the values (high dwords are
            // masked to zero): gather them to the low 128 bits of `lo` and
            // the high 128 bits of `hi`, then blend.
            let evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
            let mut byte_base = start_bit >> 3;
            let n = out.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let (lo, hi) = gather8_wide(bytes.as_ptr().add(byte_base), &ctrl);
                let lo = _mm256_permutevar8x32_epi32(lo, evens);
                let hi = _mm256_permutevar8x32_epi32(hi, evens);
                let v = _mm256_blend_epi32::<0b1111_0000>(lo, hi);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, v);
                byte_base += bits; // 8 values = 8*bits bits = bits bytes
                i += 8;
            }
            i
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_u64(pv: &PackedVec, start: usize, out: &mut [u64]) -> usize {
        // SAFETY: reached only from a cell the resolver admitted, so the CPU has
        // these target features; every pointer below stays inside the argument slices.
        unsafe {
            let bits = pv.bits() as usize;
            let bytes = pv.bytes_padded();
            let start_bit = start * bits;
            let ctrl = ctrl64(bits, start_bit & 7);
            let mut byte_base = start_bit >> 3;
            let n = out.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let (lo, hi) = gather8_wide(bytes.as_ptr().add(byte_base), &ctrl);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, lo);
                _mm256_storeu_si256(out.as_mut_ptr().add(i + 4) as *mut __m256i, hi);
                byte_base += bits; // 8 values = 8*bits bits = bits bytes
                i += 8;
            }
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::SimdLevel;

    fn sample_values(n: usize, bits: u8) -> Vec<u64> {
        let mask = mask_for(bits);
        (0..n as u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) & mask).collect()
    }

    #[test]
    fn min_bits_edges() {
        assert_eq!(min_bits(0), 1);
        assert_eq!(min_bits(1), 1);
        assert_eq!(min_bits(2), 2);
        assert_eq!(min_bits(255), 8);
        assert_eq!(min_bits(256), 9);
        assert_eq!(min_bits(u64::MAX), 64);
    }

    #[test]
    fn word_size_for_bits() {
        assert_eq!(WordSize::for_bits(1), WordSize::W1);
        assert_eq!(WordSize::for_bits(8), WordSize::W1);
        assert_eq!(WordSize::for_bits(9), WordSize::W2);
        assert_eq!(WordSize::for_bits(16), WordSize::W2);
        assert_eq!(WordSize::for_bits(17), WordSize::W4);
        assert_eq!(WordSize::for_bits(32), WordSize::W4);
        assert_eq!(WordSize::for_bits(33), WordSize::W8);
        assert_eq!(WordSize::for_bits(64), WordSize::W8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_size_rejects_wide() {
        WordSize::for_bits(65);
    }

    #[test]
    fn pack_get_roundtrip_all_widths() {
        for bits in 1..=64u8 {
            let values = sample_values(100, bits);
            let pv = PackedVec::pack(&values, bits);
            assert_eq!(pv.len(), values.len());
            assert_eq!(pv.bits(), bits);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(pv.get(i), v, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn unpack_u64_roundtrip_all_widths_all_levels() {
        for level in SimdLevel::available() {
            for bits in 1..=64u8 {
                let values = sample_values(133, bits);
                let pv = PackedVec::pack(&values, bits);
                assert_eq!(pv.unpack_all(level), values, "bits={bits} level={level}");
            }
        }
    }

    #[test]
    fn unpack_subrange_at_odd_offsets() {
        for level in SimdLevel::available() {
            for bits in [1u8, 3, 5, 7, 8, 11, 14, 21, 25, 28, 33, 57, 63] {
                let values = sample_values(500, bits);
                let pv = PackedVec::pack(&values, bits);
                for start in [0usize, 1, 7, 8, 63, 100, 255] {
                    let n = 130.min(values.len() - start);
                    let mut out = vec![0u64; n];
                    pv.unpack_into_u64(start, &mut out, level);
                    assert_eq!(
                        &out[..],
                        &values[start..start + n],
                        "bits={bits} start={start} level={level}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_u32_unpack_every_width_and_start_phase() {
        // 26..=32 bits take the 64-bit-window gather; every start row 0..8
        // gives a different in-byte phase, and the window runs to the
        // vector's last value (the read into the zero padding).
        for level in SimdLevel::available() {
            for bits in 24..=32u8 {
                let mut values = sample_values(203, bits);
                values[202] = mask_for(bits);
                let pv = PackedVec::pack(&values, bits);
                for start in 0..9 {
                    let mut out = vec![0u32; values.len() - start];
                    pv.unpack_into_u32(start, &mut out, level);
                    let expected: Vec<u32> = values[start..].iter().map(|&v| v as u32).collect();
                    assert_eq!(out, expected, "bits={bits} start={start} level={level}");
                }
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let pv = PackedVec::pack(&[], 7);
        assert!(pv.is_empty());
        assert_eq!(pv.unpack_all(SimdLevel::detect()), Vec::<u64>::new());
        let pv = PackedVec::pack(&[42], 7);
        assert_eq!(pv.get(0), 42);
        assert_eq!(pv.len(), 1);
    }

    #[test]
    fn u8_values_borrow_at_8_bits_and_unpack_below() {
        for bits in [1u8, 7, 8] {
            let values: Vec<u64> = (0..100u64).map(|i| (i * 37) & mask_for(bits)).collect();
            let pv = PackedVec::pack(&values, bits);
            for level in SimdLevel::available() {
                let mut buf = Vec::new();
                let got = pv.u8_values(3, 90, &mut buf, level).to_vec();
                let want: Vec<u8> = values[3..93].iter().map(|&v| v as u8).collect();
                assert_eq!(got, want, "bits={bits} level={level}");
                assert_eq!(buf.is_empty(), bits == 8, "only 8-bit values are borrowed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_rejects_oversized_value() {
        PackedVec::pack(&[16], 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_rejects_oob_range() {
        let pv = PackedVec::pack(&[1, 2, 3], 4);
        let mut out = vec![0u64; 4];
        pv.unpack_into_u64(0, &mut out, SimdLevel::Scalar);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_rejects_a_range_whose_end_overflows() {
        let pv = PackedVec::pack(&[1, 2, 3], 4);
        pv.unpack_into_u8(usize::MAX, &mut [0; 1], SimdLevel::detect());
    }

    #[test]
    fn pack_minimal_picks_width() {
        let pv = PackedVec::pack_minimal(&[0, 3, 7]);
        assert_eq!(pv.bits(), 3);
        let pv = PackedVec::pack_minimal(&[0]);
        assert_eq!(pv.bits(), 1);
    }

    #[test]
    fn packed_bytes_is_tight() {
        let pv = PackedVec::pack(&[1; 100], 5);
        assert_eq!(pv.packed_bytes(), (100 * 5usize).div_ceil(8));
        assert!(pv.bytes_padded().len() >= pv.packed_bytes() + 8);
    }
}
