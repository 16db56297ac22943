//! Property-based tests over the Vector Toolbox invariants: every SIMD
//! kernel agrees with its scalar oracle (and with a from-first-principles
//! reference) on arbitrary inputs, at every available SIMD level.

mod common;

use bipie::toolbox::agg::multi::{sum_multi, RowLayout};
use bipie::toolbox::agg::sort_based::{bucket_sort, sum_sorted_packed, SortedBatch};
use bipie::toolbox::agg::{in_register, reference_group_sums, scalar, ColRef};
use bipie::toolbox::bitpack::{mask_for, PackedVec};
use bipie::toolbox::cmp::{cmp_u32, membership_scalar_u8, membership_u8, CmpOp};
use bipie::toolbox::select::{compact, gather, special_group};
use bipie::toolbox::selvec::{SelByteVec, SelIndexVec};
use bipie::toolbox::SimdLevel;
use common::{run_cases, Gen};

fn arb_bits(g: &mut Gen) -> u8 {
    g.int(1u8..=32)
}

fn arb_values(g: &mut Gen, bits: u8) -> Vec<u64> {
    let mask = mask_for(bits);
    g.vec_of(0..300, |g| g.int(0u64..=mask))
}

#[test]
fn pack_unpack_roundtrip() {
    run_cases("pack_unpack_roundtrip", 64, |g| {
        let bits = g.int(1u8..=64);
        let masked: Vec<u64> = g
            .vec_of(0..200, |g| g.rng.random::<u64>())
            .iter()
            .map(|v| v & mask_for(bits))
            .collect();
        let pv = PackedVec::pack(&masked, bits);
        for level in SimdLevel::available() {
            assert_eq!(pv.unpack_all(level), masked, "bits={bits} level={level}");
        }
    });
}

#[test]
fn compaction_equals_filter() {
    run_cases("compaction_equals_filter", 64, |g| {
        let bits = arb_bits(g);
        let values = arb_values(g, bits);
        let keep: Vec<bool> = (0..values.len()).map(|_| g.chance(0.5)).collect();
        let sel = SelByteVec::from_bools(&keep);
        let expected_idx: Vec<u32> =
            (0..values.len() as u32).filter(|&i| keep[i as usize]).collect();
        for level in SimdLevel::available() {
            let mut iv = SelIndexVec::default();
            compact::compact_indices(sel.as_bytes(), &mut iv, level);
            assert_eq!(iv.as_slice(), &expected_idx[..], "level={level}");

            // Physical compaction of the unpacked values equals
            // gather-unpack through the index vector.
            let pv = PackedVec::pack(&values, bits);
            let mut full = vec![0u32; values.len()];
            pv.unpack_into_u32(0, &mut full, level);
            let mut compacted = Vec::new();
            compact::compact_u32(&full, sel.as_bytes(), &mut compacted, level);
            let mut gathered = vec![0u32; iv.len()];
            gather::gather_unpack_u32(&pv, iv.as_slice(), &mut gathered, level);
            assert_eq!(&compacted, &gathered, "level={level}");
            let expected: Vec<u32> =
                expected_idx.iter().map(|&i| values[i as usize] as u32).collect();
            assert_eq!(compacted, expected, "level={level}");
        }
    });
}

#[test]
fn comparisons_match_scalar_semantics() {
    run_cases("comparisons_match_scalar_semantics", 64, |g| {
        let data: Vec<u32> = g.vec_of(0..200, |g| g.rng.random::<u32>());
        let c = g.rng.random::<u32>();
        for level in SimdLevel::available() {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let mut out = vec![0u8; data.len()];
                cmp_u32(&data, op, c, &mut out, level);
                for (i, &x) in data.iter().enumerate() {
                    assert_eq!(out[i] != 0, op.eval(x, c), "op={op:?} i={i} level={level}");
                }
            }
        }
    });
}

#[test]
fn membership_matches_its_oracle() {
    run_cases("membership_matches_its_oracle", 32, |g| {
        let table: [u8; 32] = std::array::from_fn(|_| g.rng.random::<u8>());
        // Every length from empty through four SIMD blocks and a tail.
        for len in 0..=130usize {
            let codes: Vec<u8> = (0..len).map(|_| g.rng.random::<u8>()).collect();
            let mut expected = vec![0u8; len];
            membership_scalar_u8(&codes, &table, &mut expected);
            for (i, &c) in codes.iter().enumerate() {
                let member = table[c as usize / 8] >> (c % 8) & 1 == 1;
                assert_eq!(expected[i], if member { 0xFF } else { 0 }, "oracle code={c}");
            }
            for level in SimdLevel::available() {
                let mut out = vec![0x5Au8; len];
                membership_u8(&codes, &table, &mut out, level);
                assert_eq!(out, expected, "len={len} level={level}");
            }
        }
    });
}

#[test]
fn special_group_is_select() {
    run_cases("special_group_is_select", 64, |g| {
        let gids: Vec<u8> = g.vec_of(0..300, |g| g.int(0u8..6));
        let keep: Vec<bool> = (0..gids.len()).map(|_| g.chance(0.5)).collect();
        let sel = SelByteVec::from_bools(&keep);
        for level in SimdLevel::available() {
            let mut out = vec![0u8; gids.len()];
            special_group::assign_special_group(&gids, sel.as_bytes(), 6, &mut out, level);
            for i in 0..gids.len() {
                assert_eq!(out[i], if keep[i] { gids[i] } else { 6 }, "i={i} level={level}");
            }
        }
    });
}

#[test]
fn all_agg_strategies_equal_reference() {
    run_cases("all_agg_strategies_equal_reference", 64, |g| {
        let groups = 16usize;
        let gid_domain = g.int(1usize..=16);
        let gids: Vec<u8> = g.vec_of(1..500, |g| g.int(0..gid_domain as u8));
        let values: Vec<u32> = (0..gids.len()).map(|_| g.int(0u32..(1 << 20))).collect();
        let cols = [ColRef::U32(&values)];
        let (expected_counts, expected_sums) = reference_group_sums(&gids, &cols, groups);
        for level in SimdLevel::available() {
            // scalar
            let mut counts = vec![0u64; groups];
            scalar::count_multi_array::<4>(&gids, &mut counts);
            assert_eq!(&counts, &expected_counts);
            let mut sums = vec![0i64; groups];
            scalar::sum_single_array_u32(&gids, &values, &mut sums);
            assert_eq!(&sums, &expected_sums[0]);
            // in-register
            let mut counts = vec![0u64; groups];
            in_register::count_groups(&gids, groups, &mut counts, level);
            assert_eq!(&counts, &expected_counts, "level={level}");
            let mut sums = vec![0i64; groups];
            in_register::sum_u32(&gids, &values, groups, &mut sums, (1 << 20) - 1, level);
            assert_eq!(&sums, &expected_sums[0], "level={level}");
            // sort-based over the raw packed column
            let packed = PackedVec::pack(&values.iter().map(|&v| v as u64).collect::<Vec<_>>(), 20);
            let mut sorted = SortedBatch::default();
            bucket_sort(&gids, None, groups, &mut sorted);
            assert_eq!(sorted.counts(), expected_counts.clone());
            let mut sums = vec![0i64; groups];
            sum_sorted_packed(&packed, &sorted, 0, &mut sums, level);
            assert_eq!(&sums, &expected_sums[0], "level={level}");
            // multi-aggregate
            let layout = RowLayout::plan_for(&cols).unwrap();
            let mut sums = vec![0i64; groups];
            sum_multi(&gids, &cols, &layout, groups, &mut sums, level);
            assert_eq!(&sums, &expected_sums[0], "level={level}");
        }
    });
}

#[test]
fn multi_agg_mixed_widths_equal_reference() {
    run_cases("multi_agg_mixed_widths_equal_reference", 64, |g| {
        let groups = 32usize;
        let gid_domain = g.int(1usize..=32);
        let gids: Vec<u8> = g.vec_of(1..400, |g| g.int(0..gid_domain as u8));
        let v8: Vec<u8> = (0..gids.len()).map(|_| g.rng.random::<u8>()).collect();
        let v16: Vec<u16> = (0..gids.len()).map(|_| g.rng.random::<u16>()).collect();
        let v64: Vec<u64> = (0..gids.len()).map(|_| g.int(0u64..(1 << 40))).collect();
        let cols = [ColRef::U8(&v8), ColRef::U16(&v16), ColRef::U64(&v64)];
        let layout = RowLayout::plan_for(&cols).unwrap();
        let (_, expected) = reference_group_sums(&gids, &cols, groups);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 3 * groups];
            sum_multi(&gids, &cols, &layout, groups, &mut sums, level);
            for c in 0..3 {
                assert_eq!(&sums[c * groups..(c + 1) * groups], &expected[c][..], "level={level}");
            }
        }
    });
}
