//! Property-based tests over the columnstore substrate: every encoding
//! round-trips arbitrary values, the automatic chooser never loses data,
//! segment metadata brackets the true value range, table building /
//! flushing / deleting preserves row-level contents, a table built by
//! `insert` encodes exactly what `Segment::build` makes of the same columns,
//! and — stated once, in `encoder_contract` — what the statistics pass
//! promises the chooser.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use bipie::columnstore::encoding::{
    encode_ints, encode_strings, EncodedColumn, Encoding, EncodingHint, IntStats, StrDictColumn,
    MAX_DICT_ENTRIES,
};
use bipie::columnstore::segment::{ColumnData, Segment};
use bipie::columnstore::{
    ColumnSpec, Date, DeletedBitmap, LogicalType, Table, TableBuilder, Value,
};
use bipie::toolbox::rng::Rng;
use bipie::tpch::lineitem_specs;
use common::{run_cases, Gen};

const HINTS: [EncodingHint; 5] = [
    EncodingHint::Auto,
    EncodingHint::BitPack,
    EncodingHint::Dict,
    EncodingHint::Rle,
    EncodingHint::Delta,
];

/// Value pools that exercise different encoding sweet spots.
fn arb_values(g: &mut Gen) -> Vec<i64> {
    match g.int(0u8..8) {
        // dense small domain (dict / bitpack)
        0 => g.vec_of(0..400, |g| g.int(-5i64..5)),
        // long runs (RLE)
        1 => {
            let runs: Vec<(i64, usize)> = g.vec_of(0..20, |g| (g.int(0i64..4), g.int(1usize..50)));
            runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v * 1_000_000, n)).collect()
        }
        // sorted wide values (delta)
        2 => {
            let mut v: Vec<i64> = g.vec_of(0..400, |g| g.int(0i64..1000));
            v.sort_unstable();
            v.iter()
                .scan(1_000_000_000i64, |acc, d| {
                    *acc += d;
                    Some(*acc)
                })
                .collect()
        }
        // full-range values
        3 => g.vec_of(0..200, |g| g.rng.random::<i64>()),
        // constant
        4 => vec![g.int(-1000i64..1000); g.int(0usize..300)],
        // few distinct values scattered over a wide range (dict)
        5 => {
            let dict: Vec<i64> = g.vec_of(1..9, |g| g.int(-(1i64 << 50)..1 << 50));
            g.vec_of(0..600, |g| *g.pick(&dict))
        }
        // the extremes: consecutive differences overflow `i64`
        6 => g.vec_of(0..50, |g| *g.pick(&[i64::MIN, i64::MAX, 0, -1])),
        // length 1
        _ => vec![g.rng.random::<i64>()],
    }
}

/// `values[start..start + n]` decodes to itself.
fn assert_decodes(col: &EncodedColumn, values: &[i64], start: usize, n: usize) {
    let mut out = vec![0i64; n];
    col.decode_i64_into(start, &mut out);
    assert_eq!(&out[..], &values[start..start + n], "{:?} at {start}+{n}", col.encoding());
}

/// The encoder contract: (a) every size the chooser computes from the
/// statistics is the size of the column built under that forced hint,
/// (b) `Auto` builds the smallest candidate, ties going to bit packing and
/// then in the order dictionary, run-length, delta, (c) every encoding
/// round-trips from odd offsets, (d) the segment's metadata is the naive
/// min / max / distinct bound.
#[test]
fn encoder_contract() {
    run_cases("encoder_contract", 256, |g| {
        let values = arb_values(g);
        let stats = IntStats::scan(&values);
        let forced = |hint| encode_ints(&values, hint);
        let [bitpack, dict, rle, delta] = [
            forced(EncodingHint::BitPack),
            forced(EncodingHint::Dict),
            forced(EncodingHint::Rle),
            forced(EncodingHint::Delta),
        ];
        let distinct: std::collections::BTreeSet<i64> = values.iter().copied().collect();
        let delta_overflows = values.windows(2).any(|w| w[1].checked_sub(w[0]).is_none());

        // (a) A candidate is `None` exactly where it may not be chosen.
        assert_eq!(stats.bitpack_bytes(), bitpack.encoded_bytes());
        assert_eq!(stats.rle_bytes(), rle.encoded_bytes());
        assert_eq!(stats.delta_bytes(), (!delta_overflows).then(|| delta.encoded_bytes()));
        let dict_wins = !values.is_empty()
            && distinct.len() <= MAX_DICT_ENTRIES
            && dict.encoded_bytes() < bitpack.encoded_bytes();
        assert_eq!(stats.dict_bytes(&values), dict_wins.then(|| dict.encoded_bytes()));

        // (b) The first strictly smallest of the candidates, in tie order.
        let auto = forced(EncodingHint::Auto);
        let mut best = &bitpack;
        for (candidate, allowed) in
            [(&dict, distinct.len() <= MAX_DICT_ENTRIES), (&rle, true), (&delta, !delta_overflows)]
        {
            if allowed && !values.is_empty() && candidate.encoded_bytes() < best.encoded_bytes() {
                best = candidate;
            }
        }
        assert_eq!(auto.encoding(), best.encoding(), "{values:?}");
        assert_eq!(auto.encoded_bytes(), best.encoded_bytes());

        // (c)
        for col in [&auto, &bitpack, &dict, &rle, &delta] {
            assert_eq!(col.len(), values.len());
            assert_decodes(col, &values, 0, values.len());
            for start in [1usize, 3, 7].into_iter().filter(|&s| s < values.len()) {
                assert_decodes(col, &values, start, (values.len() - start).min(5));
                assert_decodes(col, &values, start, values.len() - start);
            }
        }

        // (d)
        let runs = values.len().min(1) + values.windows(2).filter(|w| w[0] != w[1]).count();
        for hint in HINTS {
            let seg = Segment::build(vec![ColumnData::Ints(values.clone())], &[hint]);
            let meta = seg.meta(0);
            let (lo, hi) = (distinct.first().copied(), distinct.last().copied());
            assert_eq!((meta.min, meta.max), (lo.unwrap_or(0), hi.unwrap_or(0)));
            let range = (meta.max as i128 - meta.min as i128 + 1).min(values.len() as i128);
            let bound = match seg.column(0).encoding() {
                Encoding::Dict => distinct.len(),
                Encoding::Rle => runs,
                Encoding::BitPack | Encoding::Delta => range as usize,
            };
            assert_eq!(meta.distinct_upper, bound, "{hint:?}");
            assert!(meta.distinct_upper >= distinct.len());
        }
    });
}

/// A forced dictionary is legal at any cardinality; only `Auto` is capped.
#[test]
fn forced_dict_is_legal_past_the_auto_cap() {
    let d = MAX_DICT_ENTRIES as i64 + 1;
    // Unsorted, each value four times, and wide enough that a dictionary
    // would win on size.
    let values: Vec<i64> = (0..4 * d).map(|i| (i * 7919 % d) << 40).collect();
    let col = encode_ints(&values, EncodingHint::Dict);
    let EncodedColumn::IntDict(dict) = &col else {
        panic!("forced Dict built {:?}", col.encoding())
    };
    assert_eq!(dict.dict().len(), MAX_DICT_ENTRIES + 1);
    assert_eq!(dict.codes().bits(), 17);
    assert!(dict.dict().windows(2).all(|w| w[0] < w[1]));
    assert_decodes(&col, &values, 0, values.len());
    assert_decodes(&col, &values, 12_345, 4097);

    let stats = IntStats::scan(&values);
    assert!(col.encoded_bytes() < stats.bitpack_bytes(), "the cap, not the size, must decide");
    assert_eq!(stats.dict_bytes(&values), None);
    assert_ne!(encode_ints(&values, EncodingHint::Auto).encoding(), Encoding::Dict);
}

/// Strings are interned in first-seen order, but the dictionary is sorted
/// and the codes are ranks — range predicates and group ids rely on it.
#[test]
fn string_dictionary_is_sorted_whatever_the_arrival_order() {
    run_cases("string_dictionary_is_sorted_whatever_the_arrival_order", 96, |g| {
        let pool: Vec<String> = g.vec_of(1..40, |g| format!("k{}", g.int(0u32..500)));
        let values: Vec<&str> = g.vec_of(0..300, |g| g.pick(&pool).as_str());
        let EncodedColumn::StrDict(col) = encode_strings(&values) else {
            panic!("strings always dictionary encode")
        };
        assert!(col.dict().windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.get(i), *v);
            let rank = col.dict().iter().filter(|d| d.as_str() < *v).count() as u64;
            assert_eq!(col.codes().get(i), rank);
        }
    });
}

#[test]
fn every_encoding_roundtrips() {
    run_cases("every_encoding_roundtrips", 96, |g| {
        let values = arb_values(g);
        let hint = *g.pick(&HINTS);
        // Delta estimation opts out on pathological ranges; forced delta
        // still must roundtrip via wrapping arithmetic.
        let col = encode_ints(&values, hint);
        assert_eq!(col.len(), values.len());
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(&out, &values, "hint={hint:?}");
        // Random sub-ranges decode identically.
        if values.len() > 3 {
            let start = values.len() / 3;
            let n = (values.len() - start).min(7);
            let mut out = vec![0i64; n];
            col.decode_i64_into(start, &mut out);
            assert_eq!(&out[..], &values[start..start + n], "hint={hint:?}");
        }
    });
}

/// Pinned regression (formerly `tests/columnstore_properties.proptest-regressions`):
/// proptest once shrank a roundtrip failure to the single value
/// `[1_000_000_000]` — a one-element column from the sorted-wide pool, where
/// the delta encoder's first element carries the whole magnitude. Keep the
/// exact input alive under every hint now that the shrink file is gone.
/// The partition points of sorted columns — what compiles a range predicate
/// into a row range — against a linear scan: duplicates, anchor-block
/// boundaries (delta keeps an anchor every 1024 rows), bounds off both ends.
#[test]
fn sorted_partition_points_match_a_linear_scan() {
    run_cases("sorted_partition_points_match_a_linear_scan", 48, |g| {
        let len = *g.pick(&[1usize, 2, 1023, 1024, 1025, 2048, 2500]);
        let step = *g.pick(&[0i64, 1, 3]);
        let mut values = Vec::with_capacity(len);
        let mut v = g.int(-1000i64..1000);
        for _ in 0..len {
            v += if g.chance(0.3) { g.int(0..=step) } else { 0 };
            values.push(v);
        }
        let (first, last) = (values[0], values[len - 1]);
        let mut bounds = vec![i64::MIN, first - 1, first, last, last + 1, i64::MAX];
        bounds.extend((0..8).map(|_| values[g.int(0..len)]));
        for hint in [EncodingHint::Delta, EncodingHint::BitPack] {
            let col = encode_ints(&values, hint);
            for &bound in &bounds {
                for strict in [false, true] {
                    let want =
                        values.iter().filter(|&&v| v < bound || (strict && v == bound)).count();
                    let got = match &col {
                        EncodedColumn::Delta(c) => c.partition_point(bound, strict),
                        EncodedColumn::BitPack(c) => c.partition_point(bound, strict),
                        other => unreachable!("forced hint gave {:?}", other.encoding()),
                    };
                    assert_eq!(got, want, "{hint:?} len={len} bound={bound} strict={strict}");
                }
            }
        }
    });
}

#[test]
fn regression_single_wide_value_roundtrips() {
    let values = [1_000_000_000i64];
    for hint in HINTS {
        let col = encode_ints(&values, hint);
        let mut out = vec![0i64; 1];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out[0], values[0], "hint={hint:?}");
    }
}

#[test]
fn auto_choice_never_beats_forced_sizes() {
    run_cases("auto_choice_never_beats_forced_sizes", 96, |g| {
        let values = arb_values(g);
        // The chooser's pick is at most as large as every candidate it
        // considered (bitpack always among them).
        let auto = encode_ints(&values, EncodingHint::Auto);
        let bitpack = encode_ints(&values, EncodingHint::BitPack);
        assert!(auto.encoded_bytes() <= bitpack.encoded_bytes());
    });
}

#[test]
fn segment_metadata_brackets_values() {
    run_cases("segment_metadata_brackets_values", 96, |g| {
        let values = arb_values(g);
        if values.is_empty() {
            return;
        }
        let hint = *g.pick(&HINTS);
        let seg = Segment::build(vec![ColumnData::Ints(values.clone())], &[hint]);
        let meta = seg.meta(0);
        let (lo, hi) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
        assert_eq!(meta.min, lo);
        assert_eq!(meta.max, hi);
        let distinct = {
            let mut v = values.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(meta.distinct_upper >= distinct, "upper bound must hold");
    });
}

#[test]
fn table_roundtrip_with_flush_boundaries() {
    run_cases("table_roundtrip_with_flush_boundaries", 96, |g| {
        let rows: Vec<(u8, i64)> = g.vec_of(0..300, |g| (g.int(0u8..4), g.int(-100i64..100)));
        let segment_rows = g.int(1usize..60);
        let mut b = TableBuilder::with_segment_rows(
            vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)],
            segment_rows,
        );
        let names = ["w", "x", "y", "z"];
        for &(gg, v) in &rows {
            b.push_row(vec![Value::Str(names[gg as usize].into()), Value::I64(v)]);
        }
        let t = b.finish();
        assert_eq!(t.num_rows(), rows.len());
        // Row order is preserved across segment boundaries.
        let mut idx = 0usize;
        for seg in t.segments() {
            assert!(seg.num_rows() <= segment_rows);
            for r in 0..seg.num_rows() {
                let (gg, v) = rows[idx];
                assert_eq!(seg.column(1).get_i64(r), v);
                match seg.column(0) {
                    EncodedColumn::StrDict(d) => {
                        assert_eq!(d.get(r), names[gg as usize])
                    }
                    other => panic!("strings must dict-encode, got {:?}", other.encoding()),
                }
                idx += 1;
            }
        }
        assert_eq!(idx, rows.len());
    });
}

#[test]
fn deleted_bitmap_matches_model() {
    run_cases("deleted_bitmap_matches_model", 96, |g| {
        let len = g.int(1usize..500);
        let dels: Vec<usize> = g.vec_of(0..40, |g| g.int(0usize..500));
        let mut bm = DeletedBitmap::new(len);
        let mut model = vec![false; len];
        for &d in &dels {
            if d < len {
                bm.delete(d);
                model[d] = true;
            }
        }
        assert_eq!(bm.deleted_count(), model.iter().filter(|&&b| b).count());
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bm.is_deleted(i), m);
        }
        // Masking a batch zeroes exactly the deleted positions.
        let mut sel = vec![0xFFu8; len];
        bm.mask_batch(0, &mut sel);
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(sel[i] == 0, m, "row {i}");
        }
    });
}

#[test]
fn date_ymd_roundtrip() {
    run_cases("date_ymd_roundtrip", 96, |g| {
        let days = g.int(-200_000i32..200_000);
        let d = Date(days);
        let (y, m, dd) = d.to_ymd();
        assert_eq!(Date::from_ymd(y, m, dd), d);
    });
}

#[test]
fn mutable_flush_is_equivalent_to_bulk_load() {
    let specs =
        || vec![ColumnSpec::new("g", LogicalType::Str), ColumnSpec::new("v", LogicalType::I64)];
    let rows: Vec<(usize, i64)> = (0..500).map(|i| (i % 3, (i * 17 % 97) as i64)).collect();

    let mut bulk = TableBuilder::with_segment_rows(specs(), 100);
    let mut incremental = Table::with_segment_rows(specs(), 100);
    for &(g, v) in &rows {
        let row = vec![Value::Str(["a", "b", "c"][g].into()), Value::I64(v)];
        bulk.push_row(row.clone());
        incremental.insert(row);
    }
    let bulk = bulk.finish();
    incremental.flush_mutable();

    // Identical logical contents row by row, independent of flush timing.
    let read_all = |t: &Table| -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for seg in t.segments() {
            for r in 0..seg.num_rows() {
                let g = match seg.column(0) {
                    EncodedColumn::StrDict(d) => d.get(r).to_string(),
                    _ => unreachable!(),
                };
                out.push((g, seg.column(1).get_i64(r)));
            }
        }
        out
    };
    assert_eq!(read_all(&bulk), read_all(&incremental));
}

/// Seeded rows of the LINEITEM schema (`tpch::lineitem_specs`), with its
/// value domains. The return flag is a new string per row and the line
/// status a clone of a shared one, so the interner meets equal strings in
/// separate allocations and in one.
fn lineitem_rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::seed_from_u64(seed);
    let current = Date::from_ymd(1995, 6, 17).days();
    let statuses = ["F", "O"].map(|s| Value::Str(s.into()));
    let mut orderkey = 0i64;
    (0..n)
        .map(|_| {
            orderkey += rng.random_range(0..=1i64);
            let quantity = rng.random_range(1..=50i64);
            let shipdate = rng.random_range(8037..=10_561i32);
            vec![
                Value::I64(orderkey),
                Value::I64(quantity),
                Value::Decimal(quantity * rng.random_range(90_000..=200_000i64)),
                Value::Decimal(rng.random_range(0..=10i64)),
                Value::Decimal(rng.random_range(0..=8i64)),
                Value::Str(["A", "N", "R"][rng.random_range(0..3usize)].into()),
                statuses[usize::from(shipdate > current)].clone(),
                Value::Date(Date(shipdate)),
            ]
        })
        .collect()
}

/// `Segment::build` over the columns of `rows`, each taken straight from
/// the rows.
fn build_segment(specs: &[ColumnSpec], rows: &[Vec<Value>]) -> Segment {
    let columns = specs.iter().enumerate().map(|(c, spec)| {
        if spec.ty == LogicalType::Str {
            let strs: Vec<&str> = rows.iter().map(|r| r[c].as_str().unwrap()).collect();
            ColumnData::Strs(StrDictColumn::encode(&strs))
        } else {
            ColumnData::Ints(rows.iter().map(|r| r[c].as_storage_i64().unwrap()).collect())
        }
    });
    let hints: Vec<EncodingHint> = specs.iter().map(|s| s.hint).collect();
    Segment::build(columns, &hints)
}

/// Two segments hold the same columns: encoding, metadata, size, decoded
/// values, and for strings the dictionary and its codes.
fn assert_same_segment(got: &Segment, want: &Segment, what: &str) {
    assert_eq!(got.num_rows(), want.num_rows(), "{what}");
    assert_eq!(got.num_columns(), want.num_columns(), "{what}");
    for c in 0..want.num_columns() {
        let (g, w) = (got.column(c), want.column(c));
        assert_eq!(g.encoding(), w.encoding(), "{what}, column {c}");
        assert_eq!(got.meta(c), want.meta(c), "{what}, column {c}");
        assert_eq!(g.encoded_bytes(), w.encoded_bytes(), "{what}, column {c}");
        if let (EncodedColumn::StrDict(g), EncodedColumn::StrDict(w)) = (g, w) {
            assert_eq!(g, w, "{what}, column {c}");
        } else {
            let decode = |col: &EncodedColumn| {
                let mut out = vec![0i64; want.num_rows()];
                col.decode_i64_into(0, &mut out);
                out
            };
            assert_eq!(decode(g), decode(w), "{what}, column {c}");
        }
    }
}

/// A table built by `insert` stores exactly what `Segment::build` makes of
/// the same columns: one row, one full segment, and two segments plus a
/// tail flushed by hand.
#[test]
fn inserted_rows_encode_like_segment_build() {
    let specs = lineitem_specs();
    let segment_rows = 8192;
    for n in [1usize, 8192, 17_408] {
        let rows = lineitem_rows(n, 0x11E ^ n as u64);
        let mut table = Table::with_segment_rows(specs.clone(), segment_rows);
        for row in rows.clone() {
            table.insert(row);
        }
        assert_eq!(table.mutable_rows().len(), n % segment_rows);
        table.flush_mutable();
        let want: Vec<Segment> =
            rows.chunks(segment_rows).map(|chunk| build_segment(&specs, chunk)).collect();
        assert_eq!(table.segments().len(), want.len(), "{n} rows");
        for (s, (got, want)) in table.segments().iter().zip(&want).enumerate() {
            assert_same_segment(got, want, &format!("{n} rows, segment {s}"));
        }
    }
}

/// A row with a mistyped value in its last column is rejected whole: no
/// column grows, and the flushed segment is the one built without it.
#[test]
fn a_rejected_row_leaves_no_trace() {
    let specs = lineitem_specs();
    let rows = lineitem_rows(300, 7);
    let mut table = Table::with_segment_rows(specs.clone(), usize::MAX);
    for row in rows.clone() {
        table.insert(row);
    }
    let mut bad = rows[0].clone();
    bad[specs.len() - 1] = Value::I64(1);
    let rejected = catch_unwind(AssertUnwindSafe(|| table.insert(bad)));
    assert!(rejected.is_err(), "a mistyped row must be rejected");
    assert_eq!(table.mutable_rows().len(), rows.len());
    table.flush_mutable();
    assert_same_segment(&table.segments()[0], &build_segment(&specs, &rows), "after rejection");
}

/// A string column interned as it arrives gets a sorted dictionary whose
/// codes are ranks, at every distinct count from 0 to past the interner's
/// switch from comparison to hashing (16 distinct strings) and at 300.
/// Values arrive unsorted, `""` and non-ASCII strings among them.
#[test]
fn inserted_strings_get_a_sorted_dictionary_at_every_cardinality() {
    let pool: Vec<String> = (0..300)
        .map(|i| match i {
            0 => "ö".to_string(),
            1 => String::new(),
            2 => "日本".to_string(),
            _ => format!("s{}", i * 7919 % 1000),
        })
        .collect();
    for distinct in (0..=40).chain([300]) {
        let mut g = Gen::with_seed(distinct as u64);
        // Every distinct string once, in pool order, then repeats.
        let mut values: Vec<&str> = pool[..distinct].iter().map(String::as_str).collect();
        if distinct > 0 {
            values.extend((0..2 * distinct).map(|_| pool[g.int(0..distinct)].as_str()));
        }
        let mut table =
            Table::with_segment_rows(vec![ColumnSpec::new("s", LogicalType::Str)], usize::MAX);
        for v in &values {
            table.insert(vec![Value::Str((*v).into())]);
        }
        let tail = table.mutable_rows();
        assert_eq!(tail.len(), values.len());
        for (r, v) in values.iter().enumerate() {
            assert_eq!(tail.value(r, 0), Value::Str((*v).into()));
        }
        table.flush_mutable();
        if distinct == 0 {
            assert!(table.segments().is_empty());
            continue;
        }
        let EncodedColumn::StrDict(col) = table.segments()[0].column(0) else {
            panic!("strings always dictionary encode")
        };
        assert_eq!(col, &StrDictColumn::encode(&values), "{distinct} distinct");
        assert_eq!(col.dict().len(), distinct);
        assert!(col.dict().windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        for (i, v) in values.iter().enumerate() {
            let rank = col.dict().iter().filter(|d| d.as_str() < *v).count() as u64;
            assert_eq!(col.codes().get(i), rank, "{distinct} distinct, row {i}");
        }
    }
}
