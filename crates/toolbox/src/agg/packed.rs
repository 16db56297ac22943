//! Ungrouped SUM straight off a bit-packed column (DESIGN.md §17, §21).
//!
//! With one group and every row of a batch in play, a SUM input's unpacked
//! values are only ever added up. [`sum_packed`] adds them where they lie:
//! its cells extract sixteen (AVX-512) or eight (AVX2) values at a time into
//! `u32` lanes and add them under the selection mask, so no batch buffer is
//! written and read back ("Decoding billions of integers per second through
//! vectorization": the decode pays when it is fused into its consumer).
//!
//! The oracle — run by every tier and width without a cell — is the
//! two-pass computation the cells replace: unpack a chunk through the unpack
//! families at the call's level, then [`scalar::sum_selected`] over it.

use super::{scalar, ColRef};
use crate::bitpack::{PackedVec, WordSize};
use crate::dispatch::SimdLevel::{Avx2, Avx512};
use crate::dispatch::{cells, kernel_sig, Cell, Family, SimdLevel};

kernel_sig! {
    /// SUM of the values `[start, start + len)` of a vector over the rows
    /// `sel` selects (every row when `None`). `level` is the tier the oracle
    /// unpacks at; a cell is that tier already.
    pub(crate) type SumPackedK = fn(
        pv: &PackedVec,
        start: usize,
        len: usize,
        sel: Option<&[u8]>,
        level: SimdLevel,
    ) -> u64;
}

/// Both cells read each value out of the four bytes from its first byte: a
/// within-byte shift of up to 7 bits plus the value fit a `u32` lane up to
/// 25 bits.
pub(crate) const SUM_PACKED: Family<SumPackedK> = Family {
    cells: cells![
        Cell { tier: Avx512, gate: 25, kernel: avx512::sum_packed },
        Cell { tier: Avx2, gate: 25, kernel: avx2::sum_packed },
    ],
    oracle: sum_unfused,
};

/// Ungrouped SUM of the values `[start, start + len)` of `pv` over the rows
/// `sel` selects (one byte per value, non-zero = selected), or over every
/// value when `sel` is `None`. Values of up to 32 bits cannot overflow the
/// `u64` result below 2³² values; wider ones wrap, exact in two's complement
/// wherever the caller's overflow proof bounds the total (as
/// [`scalar::sum_selected`]).
///
/// # Panics
/// Panics if the range is out of bounds or `sel` is not `len` bytes long.
pub fn sum_packed(
    pv: &PackedVec,
    start: usize,
    len: usize,
    sel: Option<&[u8]>,
    level: SimdLevel,
) -> u64 {
    pv.check_range(start, len);
    if let Some(sel) = sel {
        assert_eq!(sel.len(), len, "selection/value length mismatch");
    }
    SUM_PACKED.resolve(level, pv.bits() as usize).run(pv, start, len, sel, level)
}

/// Values the oracle unpacks per chunk, into a stack buffer it zeroes once
/// per call: half a batch keeps both the zeroing and the per-chunk dispatch
/// small against the unpack (DESIGN.md §17).
const CHUNK: usize = 2048;

/// The oracle: unpack a chunk at `level` into its word, sum it under the
/// chunk's selection bytes, repeat.
fn sum_unfused(
    pv: &PackedVec,
    start: usize,
    len: usize,
    sel: Option<&[u8]>,
    level: SimdLevel,
) -> u64 {
    let at = (start, len, sel, level);
    match pv.word_size() {
        WordSize::W1 => chunked(pv, at, PackedVec::unpack_into_u8, |v| ColRef::U8(v)),
        WordSize::W2 => chunked(pv, at, PackedVec::unpack_into_u16, |v| ColRef::U16(v)),
        WordSize::W4 => chunked(pv, at, PackedVec::unpack_into_u32, |v| ColRef::U32(v)),
        WordSize::W8 => chunked(pv, at, PackedVec::unpack_into_u64, |v| ColRef::U64(v)),
    }
}

/// [`sum_unfused`] in words of `T`.
fn chunked<T: Copy + Default>(
    pv: &PackedVec,
    (start, len, sel, level): (usize, usize, Option<&[u8]>, SimdLevel),
    unpack: impl Fn(&PackedVec, usize, &mut [T], SimdLevel),
    col: impl Fn(&[T]) -> ColRef<'_>,
) -> u64 {
    let mut buf = [T::default(); CHUNK];
    let mut sum = 0u64;
    for at in (0..len).step_by(CHUNK) {
        let n = CHUNK.min(len - at);
        let values = &mut buf[..n];
        unpack(pv, start + at, values, level);
        sum = sum.wrapping_add(scalar::sum_selected(col(values), sel.map(|s| &s[at..at + n])));
    }
    sum
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The fused AVX-512 (VBMI) unpack-and-sum.
    //!
    //! One iteration takes sixteen values from one 64-byte load at the
    //! iteration's byte base: `vpermb` brings to `u32` lane `k` the four
    //! bytes from value `k`'s first byte, `vpsrlvd` drops its within-byte
    //! offset and a `vpand` what lies above the value (the unpack idiom of
    //! DESIGN.md §19, with a shift per lane instead of per byte). Sixteen
    //! values are `2 · bits` whole bytes, so the byte windows and offsets
    //! depend on `start_bit & 7` alone and are built once per call. A
    //! `vptestmb` of the iteration's sixteen selection bytes masks the add
    //! into the `u32` partials.
    //!
    //! A lane gains less than `2^bits` per iteration, so the partials flush
    //! into `u64` lanes every `⌊(2³² − 1) / (2^bits − 1)⌋` iterations (128 at
    //! 25 bits) and cannot overflow between flushes. Values past the last
    //! whole iteration, or behind the last 64-byte load that fits the padded
    //! buffer, are summed one by one.

    use super::PackedVec;
    use crate::bitpack::mask_for;
    use crate::dispatch::SimdLevel;
    use std::arch::x86_64::*;

    /// Values per iteration: one per `u32` lane.
    const LANES: usize = 16;

    /// # Safety
    /// The CPU must support avx512f + avx512bw + avx512vl + avx512vbmi —
    /// guaranteed by the resolver's tier check before any call. `pv.bits()`
    /// must be at most 25, `start + len <= pv.len()`, and `sel`, when given,
    /// `len` bytes long: the dispatcher's asserts and the cell's gate.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512vl",
        enable = "avx512vbmi"
    )]
    pub(super) unsafe fn sum_packed(
        pv: &PackedVec,
        start: usize,
        len: usize,
        sel: Option<&[u8]>,
        _level: SimdLevel,
    ) -> u64 {
        let bits = pv.bits() as usize;
        debug_assert!((1..=25).contains(&bits) && sel.is_none_or(|s| s.len() == len));
        let bytes = pv.bytes_padded();
        let start_bit = start * bits;
        let (base, phase) = (start_bit >> 3, start_bit & 7);
        let step = 2 * bits;
        // Whole iterations: as many as the values allow, and no more than
        // keep every 64-byte load inside the padded buffer.
        let loads = match bytes.len().checked_sub(base + 64) {
            Some(spare) => spare / step + 1,
            None => 0,
        };
        let iters = (len / LANES).min(loads);
        let flush_every = (u32::MAX as u64 / mask_for(bits as u8)) as usize;
        let (mut window, mut offsets) = ([0u8; 64], [0u32; LANES]);
        for k in 0..LANES {
            let bit = phase + k * bits;
            for j in 0..4 {
                window[4 * k + j] = ((bit >> 3) + j) as u8;
            }
            offsets[k] = (bit & 7) as u32;
        }
        let (packed, mask_bytes) = (bytes[base..].as_ptr(), sel.map(<[u8]>::as_ptr));
        // SAFETY: the target features are the caller's guarantee. Iteration
        // `i < iters` loads 64 packed bytes from `base + i · step`, inside
        // `bytes` because `iters <= loads`, and 16 selection bytes from
        // `16 · i`, inside `sel` because `iters <= len / 16` — unaligned.
        let total = unsafe {
            let window = _mm512_loadu_si512(window.as_ptr() as *const _);
            let offsets = _mm512_loadu_si512(offsets.as_ptr() as *const _);
            let value_mask = _mm512_set1_epi32(mask_for(bits as u8) as u32 as i32);
            let mut wide = _mm512_setzero_si512();
            let mut it = 0;
            while it < iters {
                let end = iters.min(it + flush_every);
                let mut acc = _mm512_setzero_si512();
                for i in it..end {
                    let loaded = _mm512_loadu_si512(packed.add(i * step) as *const _);
                    let shifted =
                        _mm512_srlv_epi32(_mm512_permutexvar_epi8(window, loaded), offsets);
                    let values = _mm512_and_si512(shifted, value_mask);
                    acc = match mask_bytes {
                        None => _mm512_add_epi32(acc, values),
                        Some(m) => {
                            let m = _mm_loadu_si128(m.add(i * LANES) as *const _);
                            _mm512_mask_add_epi32(acc, _mm_test_epi8_mask(m, m), acc, values)
                        }
                    };
                }
                let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(acc));
                let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(acc));
                wide = _mm512_add_epi64(wide, _mm512_add_epi64(lo, hi));
                it = end;
            }
            _mm512_reduce_add_epi64(wide) as u64
        };
        let tail = iters * LANES..len;
        let selected = |r: &usize| sel.is_none_or(|s| s[*r] != 0);
        total + tail.filter(selected).map(|r| pv.get(start + r)).sum::<u64>()
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The fused AVX2 unpack-and-sum, gather-free.
    //!
    //! One iteration takes eight values — `bits` whole bytes — into the
    //! eight `u32` lanes of a ymm: each 128-bit half loads the 16 bytes from
    //! its first value's byte (values 0–3, then 4–7), a `vpshufb` brings to
    //! each lane the four bytes from its value's first byte, and `vpsrlvd` +
    //! `vpand` cut the value out, as in the AVX-512 cell. Four values and a
    //! 7-bit offset span at most 14 bytes up to 25 bits. The selection's
    //! eight bytes widen to lanes (`vpmovsxbd`) and clear the unselected
    //! values before the add. The partials flush into `u64` lanes on the
    //! AVX-512 cell's cadence, and the values past the last whole iteration,
    //! or behind the last loads that fit the padded buffer, are summed one by
    //! one.

    use super::PackedVec;
    use crate::bitpack::mask_for;
    use crate::dispatch::SimdLevel;
    use std::arch::x86_64::*;

    /// Values per iteration: one per `u32` lane.
    const LANES: usize = 8;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the resolver's tier check
    /// before any call. `pv.bits()` must be at most 25, `start + len <=
    /// pv.len()`, and `sel`, when given, `len` bytes long: the dispatcher's
    /// asserts and the cell's gate.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_packed(
        pv: &PackedVec,
        start: usize,
        len: usize,
        sel: Option<&[u8]>,
        _level: SimdLevel,
    ) -> u64 {
        let bits = pv.bits() as usize;
        debug_assert!((1..=25).contains(&bits) && sel.is_none_or(|s| s.len() == len));
        let bytes = pv.bytes_padded();
        let start_bit = start * bits;
        let (base, phase) = (start_bit >> 3, start_bit & 7);
        // The second half's first value: bytes past the first half's, and bit.
        let (half, half_phase) = ((phase + 4 * bits) >> 3, (phase + 4 * bits) & 7);
        // Whole iterations: as many as the values allow, and no more than
        // keep both 16-byte loads inside the padded buffer.
        let loads = match bytes.len().checked_sub(base + half + 16) {
            Some(spare) => spare / bits + 1,
            None => 0,
        };
        let iters = (len / LANES).min(loads);
        let flush_every = (u32::MAX as u64 / mask_for(bits as u8)) as usize;
        let (mut window, mut offsets) = ([0u8; 32], [0u32; LANES]);
        for (h, first) in [phase, half_phase].into_iter().enumerate() {
            for k in 0..4 {
                let bit = first + k * bits;
                for j in 0..4 {
                    window[16 * h + 4 * k + j] = ((bit >> 3) + j) as u8;
                }
                offsets[4 * h + k] = (bit & 7) as u32;
            }
        }
        let (packed, mask_bytes) = (bytes[base..].as_ptr(), sel.map(<[u8]>::as_ptr));
        let mut lanes = [0u64; 4];
        // SAFETY: the target features are the caller's guarantee. Iteration
        // `i < iters` loads 16 packed bytes from `base + i · bits` and from
        // `half` bytes further, inside `bytes` because `iters <= loads`, and
        // 8 selection bytes from `8 · i`, inside `sel` because
        // `iters <= len / 8` — unaligned; `lanes` is 32 bytes.
        unsafe {
            let window = _mm256_loadu_si256(window.as_ptr() as *const _);
            let offsets = _mm256_loadu_si256(offsets.as_ptr() as *const _);
            let value_mask = _mm256_set1_epi32(mask_for(bits as u8) as u32 as i32);
            let zero = _mm256_setzero_si256();
            let mut wide = zero;
            let mut it = 0;
            while it < iters {
                let end = iters.min(it + flush_every);
                let mut acc = zero;
                for i in it..end {
                    let at = packed.add(i * bits);
                    let loaded = _mm256_loadu2_m128i(at.add(half) as *const _, at as *const _);
                    let shifted = _mm256_srlv_epi32(_mm256_shuffle_epi8(loaded, window), offsets);
                    let values = _mm256_and_si256(shifted, value_mask);
                    acc = match mask_bytes {
                        None => _mm256_add_epi32(acc, values),
                        Some(m) => {
                            let m = _mm_loadl_epi64(m.add(i * LANES) as *const _);
                            let dropped = _mm256_cmpeq_epi32(_mm256_cvtepi8_epi32(m), zero);
                            _mm256_add_epi32(acc, _mm256_andnot_si256(dropped, values))
                        }
                    };
                }
                let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(acc));
                let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(acc));
                wide = _mm256_add_epi64(wide, _mm256_add_epi64(lo, hi));
                it = end;
            }
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut _, wide);
        }
        let tail = iters * LANES..len;
        let selected = |r: &usize| sel.is_none_or(|s| s[*r] != 0);
        lanes.iter().sum::<u64>() + tail.filter(selected).map(|r| pv.get(start + r)).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack::mask_for;

    /// Every tier's `sum_packed` equals a loop over `get`, for a width of
    /// each unpack word (and one past the cell's gate), odd starts, and a
    /// range that ends on the vector's last value — so the oracle that every
    /// cell is walked against (`dispatch::walk`) is itself checked.
    #[test]
    fn sum_packed_equals_a_loop_over_get() {
        let n = 300;
        for bits in [1u8, 7, 8, 9, 16, 17, 25, 26, 32, 33, 64] {
            let values: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask_for(bits))
                .collect();
            let pv = PackedVec::pack(&values, bits);
            let sel: Vec<u8> = (0..n).map(|i| if i % 3 == 0 { 0xFF } else { 0 }).collect();
            for (start, len) in [(0, 0), (0, n), (3, 17), (5, 260), (n - 37, 37)] {
                let sel = &sel[..len];
                let window = &values[start..start + len];
                let all = window.iter().fold(0u64, |a, &v| a.wrapping_add(v));
                let picked = window
                    .iter()
                    .zip(sel)
                    .filter(|(_, &s)| s != 0)
                    .fold(0u64, |a, (&v, _)| a.wrapping_add(v));
                for level in SimdLevel::available() {
                    let at = format!("bits={bits} start={start} len={len} level={level}");
                    assert_eq!(sum_packed(&pv, start, len, None, level), all, "{at}");
                    assert_eq!(sum_packed(&pv, start, len, Some(sel), level), picked, "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sum_packed_rejects_a_range_past_the_end() {
        sum_packed(&PackedVec::pack(&[1, 2, 3], 2), 2, 2, None, SimdLevel::Scalar);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sum_packed_rejects_a_short_selection() {
        sum_packed(&PackedVec::pack(&[1, 2, 3], 2), 0, 3, Some(&[0xFF]), SimdLevel::Scalar);
    }
}
