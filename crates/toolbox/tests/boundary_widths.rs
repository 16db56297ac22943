//! Pack/unpack roundtrips at boundary bit widths.
//!
//! The bit widths here sit exactly on the corners of the packing layout:
//! width 1 (minimum), widths straddling each power-of-two word size
//! (7/8/9, 31/32/33, 63/64) and the 25/26 switch from 32-bit to 64-bit
//! gather windows (28 sits inside the wide-window `u32` band), where the
//! per-value byte span and the shift/mask arithmetic change shape. The typed
//! unpack sweeps add 7/8, 14/15 and 28/29, where the AVX-512 tier switches
//! between its 64-byte `vpermb` + `vpmultishiftqb` kernel and the gathers. This
//! suite is also the designated Miri target: under Miri, `SimdLevel::available()` collapses to the
//! scalar tier (see `dispatch.rs`), so the unchecked pointer arithmetic in
//! the scalar pack/unpack paths gets interpreted with full provenance and
//! bounds checking.

use bipie_toolbox::bitpack::{mask_for, min_bits, PackedVec};
use bipie_toolbox::dispatch::SimdLevel;
use bipie_toolbox::rng::Rng;

const BOUNDARY_BITS: [u8; 12] = [1, 7, 8, 9, 25, 26, 28, 31, 32, 33, 63, 64];

/// Odd, non-multiple-of-every-lane-count length so tail handling is hit;
/// kept small under Miri, where interpretation is orders of magnitude
/// slower than native execution.
fn test_len() -> usize {
    if cfg!(miri) {
        67
    } else {
        1031
    }
}

fn workload(bits: u8, n: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(0xB1B1E + bits as u64);
    let mask = mask_for(bits);
    let mut values: Vec<u64> = (0..n).map(|_| rng.next_u64() & mask).collect();
    // Always include the extremes of the declared domain.
    values[0] = 0;
    values[n / 2] = mask;
    values
}

#[test]
fn get_roundtrips_at_boundary_widths() {
    for &bits in &BOUNDARY_BITS {
        let values = workload(bits, test_len());
        let pv = PackedVec::pack(&values, bits);
        assert_eq!(pv.bits(), bits);
        assert_eq!(pv.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(pv.get(i), v, "width {bits}, index {i}");
        }
    }
}

#[test]
fn unpack_all_roundtrips_at_boundary_widths() {
    for level in SimdLevel::available() {
        for &bits in &BOUNDARY_BITS {
            let values = workload(bits, test_len());
            let pv = PackedVec::pack(&values, bits);
            assert_eq!(pv.unpack_all(level), values, "width {bits}, level {level}");
        }
    }
}

/// Unpack `[start, start + len)` of `pv` into every word size its width fits
/// and compare with the values that were packed. `u64` takes every width.
fn check_unpack_every_word(
    pv: &PackedVec,
    values: &[u64],
    start: usize,
    len: usize,
    level: SimdLevel,
) {
    macro_rules! check {
        ($unpack:ident, $word:ty) => {{
            // Pre-filled with a value no unpack of <= 32 bits into this word
            // leaves behind when it skips a slot.
            let mut out = vec![<$word>::MAX; len];
            pv.$unpack(start, &mut out, level);
            let matches = out.iter().zip(&values[start..]).all(|(&o, &v)| o as u64 == v);
            assert!(
                matches,
                "{} of {} bits, start {start}, len {len}, level {level}",
                stringify!($unpack),
                pv.bits()
            );
        }};
    }
    if pv.bits() <= 8 {
        check!(unpack_into_u8, u8);
    }
    if pv.bits() <= 16 {
        check!(unpack_into_u16, u16);
    }
    if pv.bits() <= 32 {
        check!(unpack_into_u32, u32);
    }
    check!(unpack_into_u64, u64);
}

#[test]
fn typed_unpack_matches_width_class() {
    for level in SimdLevel::available() {
        let n = test_len();
        for &bits in &BOUNDARY_BITS {
            let values = workload(bits, n);
            let pv = PackedVec::pack(&values, bits);
            // Unpack a misaligned window so `start` offsets are exercised.
            check_unpack_every_word(&pv, &values, n / 3, n - n / 3, level);
        }
    }
}

#[test]
fn typed_unpack_sweep_over_width_word_start_and_length() {
    // Every start 0..=71 walks all eight bit phases of every width and starts
    // that are no multiple of a kernel's values per iteration (8, 16, 32,
    // 64); the lengths sit around one and two iterations and past a batch.
    // Widths 7|8, 14|15 and 28|29 straddle the AVX-512 kernel's gates for
    // u8, u16 and u32 words; a narrower width into a wider word is the same
    // kernel under the same inequality, so every admitted word is swept.
    let all_bits: Vec<u8> = (1..=32).collect();
    let all_starts: Vec<usize> = (0..=71).collect();
    let (widths, starts, lens): (&[u8], &[usize], &[usize]) = if cfg!(miri) {
        (&[1, 7, 8, 14, 15, 28, 29, 32], &[0, 3, 71], &[0, 1, 33, 65])
    } else {
        (&all_bits, &all_starts, &[0, 1, 31, 32, 33, 63, 64, 65, 4096, 4097])
    };
    let n = starts[starts.len() - 1] + lens[lens.len() - 1];
    for &bits in widths {
        let values = workload(bits, n);
        let pv = PackedVec::pack(&values, bits);
        for level in SimdLevel::available() {
            for &start in starts {
                for &len in lens {
                    check_unpack_every_word(&pv, &values, start, len, level);
                }
            }
        }
    }
}

#[test]
fn typed_unpack_to_the_last_value_never_reads_past_the_padding() {
    // The last `tail` values of the vector: the 64-byte loads of the AVX-512
    // kernel must stop where fewer than 64 bytes (8 of them padding) are
    // left, and the word-at-a-time kernels finish. 7, 14 and 28 bits consume
    // 56 bytes per iteration at their own word and 28 or 14 at a wider one;
    // the vector lengths put the last value's end at different bit phases.
    let widths: &[u8] = if cfg!(miri) { &[7, 28] } else { &[1, 3, 7, 14, 28] };
    let max_tail = if cfg!(miri) { 70 } else { 200 };
    for &bits in widths {
        for n in [200usize, 203, 1001] {
            let values = workload(bits, n);
            let pv = PackedVec::pack(&values, bits);
            assert_eq!(pv.bytes_padded().len(), pv.packed_bytes() + 8, "the padding rule");
            for level in SimdLevel::available() {
                for tail in 1..=max_tail {
                    check_unpack_every_word(&pv, &values, n - tail, tail, level);
                }
            }
        }
    }
}

#[test]
fn pack_minimal_picks_boundary_widths() {
    for &bits in &BOUNDARY_BITS {
        let mask = mask_for(bits);
        assert_eq!(min_bits(mask), bits, "min_bits at width {bits}");
        let pv = PackedVec::pack_minimal(&[0, mask]);
        assert_eq!(pv.bits(), bits);
        assert_eq!(pv.get(1), mask);
    }
}

/// The LSB-first layout, one bit at a time: value `i` occupies bits
/// `[i*bits, (i+1)*bits)` of a stream padded with 8 zero bytes.
fn pack_oracle(values: &[u64], bits: u8) -> Vec<u8> {
    let mut bytes = vec![0u8; (values.len() * bits as usize).div_ceil(8) + 8];
    for (i, &v) in values.iter().enumerate() {
        for b in 0..bits as usize {
            let pos = i * bits as usize + b;
            bytes[pos / 8] |= ((v >> b) as u8 & 1) << (pos % 8);
        }
    }
    bytes
}

#[test]
fn pack_matches_the_bit_at_a_time_oracle() {
    // Lengths around the 64-value period after which every width is back on
    // a word boundary. Miri interprets the boundary widths only.
    let all: Vec<u8> = (1..=64).collect();
    let widths: &[u8] = if cfg!(miri) { &BOUNDARY_BITS } else { &all };
    for &bits in widths {
        for n in [0usize, 1, 63, 64, 65, 127, 129] {
            let mut rng = Rng::seed_from_u64(bits as u64 * 1000 + n as u64);
            let mut values: Vec<u64> = (0..n).map(|_| rng.next_u64() & mask_for(bits)).collect();
            if let Some(last) = values.last_mut() {
                *last = mask_for(bits);
            }
            let pv = PackedVec::pack(&values, bits);
            assert_eq!(pv.bytes_padded(), &pack_oracle(&values, bits)[..], "width {bits}, n {n}");
        }
    }
}

#[test]
fn pack_rejects_a_value_one_past_the_width() {
    for &bits in BOUNDARY_BITS.iter().filter(|&&b| b < 64) {
        let values = [0, mask_for(bits), mask_for(bits) + 1];
        let packed = std::panic::catch_unwind(|| PackedVec::pack(&values, bits));
        let message = *packed.expect_err("must panic").downcast::<String>().expect("formatted");
        assert!(message.contains("does not fit"), "width {bits}: {message}");
    }
}
