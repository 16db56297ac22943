//! Pack/unpack roundtrips at boundary bit widths.
//!
//! The bit widths here sit exactly on the corners of the packing layout:
//! width 1 (minimum), widths straddling each power-of-two word size
//! (7/8/9, 31/32/33, 63/64) and the 25/26 switch from 32-bit to 64-bit
//! gather windows (28 sits inside the wide-window `u32` band), where the
//! per-value byte span and the shift/mask arithmetic change shape. This
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

#[test]
fn typed_unpack_matches_width_class() {
    for level in SimdLevel::available() {
        let n = test_len();
        for &bits in &BOUNDARY_BITS {
            let values = workload(bits, n);
            let pv = PackedVec::pack(&values, bits);
            // Unpack a misaligned window so `start` offsets are exercised.
            let start = n / 3;
            let len = n - start;
            match bits {
                1..=8 => {
                    let mut out = vec![0u8; len];
                    pv.unpack_into_u8(start, &mut out, level);
                    for (k, &v) in out.iter().enumerate() {
                        assert_eq!(v as u64, values[start + k], "width {bits}, level {level}");
                    }
                }
                9..=16 => {
                    let mut out = vec![0u16; len];
                    pv.unpack_into_u16(start, &mut out, level);
                    for (k, &v) in out.iter().enumerate() {
                        assert_eq!(v as u64, values[start + k], "width {bits}, level {level}");
                    }
                }
                17..=32 => {
                    let mut out = vec![0u32; len];
                    pv.unpack_into_u32(start, &mut out, level);
                    for (k, &v) in out.iter().enumerate() {
                        assert_eq!(v as u64, values[start + k], "width {bits}, level {level}");
                    }
                }
                _ => {
                    let mut out = vec![0u64; len];
                    pv.unpack_into_u64(start, &mut out, level);
                    assert_eq!(out, values[start..], "width {bits}, level {level}");
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
