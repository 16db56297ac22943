//! Seeded input generators. `--seed` reaches every one of them; the engine
//! only ever sees the tables and queries built here (or by
//! `tpch::LineItemGen`, which takes the same seed).

use bipie_columnstore::encoding::EncodingHint;
use bipie_columnstore::{ColumnSpec, Date, LogicalType, Table, TableBuilder, Value, SEGMENT_ROWS};
use bipie_core::{AggExpr, Predicate, Query, QueryBuilder, QueryOptions};
use bipie_toolbox::bitpack::mask_for;
use bipie_toolbox::rng::Rng;
use bipie_tpch::{lineitem_specs, LineItemGen};

/// Every workload query runs serially unless the workload says otherwise
/// (one closed-loop client measuring the single-core scan).
pub fn serial() -> QueryOptions {
    QueryOptions { parallel: false, ..QueryOptions::default() }
}

/// A table together with the query shape a workload runs on it.
pub struct Shape {
    pub label: &'static str,
    pub table: Table,
    pub query: Query,
}

/// Decorrelates the generators of one run from each other.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

pub fn lineitem(scale_factor: f64, seed: u64) -> Table {
    LineItemGen { scale_factor, seed, segment_rows: SEGMENT_ROWS }.generate()
}

// ---------------------------------------------------------------- sweep --

/// Domain of the `sel` column: 14 bits.
const SWEEP_SEL_DOMAIN: i64 = 1 << 14;
pub const SWEEP_GROUPS: i64 = 12;

/// The selectivities one `filter_sweep` round crosses, with the label each
/// carries in metric names. Together they span every chooser threshold:
/// gather below a few percent, compaction in the middle, special-group from
/// 60 %.
pub const SWEEP_SELECTIVITIES: [(&str, f64); 5] =
    [("s0p2", 0.002), ("s2", 0.02), ("s10", 0.10), ("s30", 0.30), ("s60", 0.60)];

/// `g` 12 groups, `sel` 14-bit uniform, `a0` 14-bit, `a1` 28-bit, all
/// bit-packed.
pub fn sweep_table(rows: usize, seed: u64) -> Table {
    let packed =
        |name: &str| ColumnSpec::new(name, LogicalType::I64).with_hint(EncodingHint::BitPack);
    let mut b = TableBuilder::with_segment_rows(
        vec![packed("g"), packed("sel"), packed("a0"), packed("a1")],
        SEGMENT_ROWS,
    );
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 1));
    let (m14, m28) = (mask_for(14) as i64, mask_for(28) as i64);
    for _ in 0..rows {
        b.push_row(vec![
            Value::I64(rng.random_range(0..SWEEP_GROUPS)),
            Value::I64(rng.random_range(0..SWEEP_SEL_DOMAIN)),
            Value::I64(rng.random::<i64>() & m14),
            Value::I64(rng.random::<i64>() & m28),
        ]);
    }
    b.finish()
}

/// `SELECT g, count(*), sum(a0), sum(a1) WHERE sel < t GROUP BY g` with `t`
/// set for the given selectivity.
pub fn sweep_query(selectivity: f64, options: QueryOptions) -> Query {
    let threshold = (selectivity * SWEEP_SEL_DOMAIN as f64).round() as i64;
    QueryBuilder::new()
        .filter(Predicate::lt("sel", Value::I64(threshold)))
        .group_by("g")
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("a0"))
        .aggregate(AggExpr::sum("a1"))
        .options(options)
        .build()
}

// -------------------------------------------------------------- encoded --

fn count_sum_v(filter: Predicate) -> Query {
    QueryBuilder::new()
        .filter(filter)
        .aggregate(AggExpr::count_star())
        .aggregate(AggExpr::sum("v"))
        .options(serial())
        .build()
}

/// RLE run-wise shape: `k` is the run ordinal (so `k < runs/2` selects half
/// the runs), `v` a seeded value per run; both RLE. `count(*), sum(v) WHERE
/// k < t` is answered per run, without decoding.
pub fn rle_shape(rows: usize, run_len: usize, seed: u64) -> Shape {
    let rle = |name: &str| ColumnSpec::new(name, LogicalType::I64).with_hint(EncodingHint::Rle);
    let mut b = TableBuilder::with_segment_rows(vec![rle("k"), rle("v")], SEGMENT_ROWS);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 2));
    let mut v = 0i64;
    for i in 0..rows {
        if i % run_len == 0 {
            v = rng.random_range(-1_000_000..=1_000_000i64);
        }
        b.push_row(vec![Value::I64((i / run_len) as i64), Value::I64(v)]);
    }
    let runs = rows.div_ceil(run_len) as i64;
    Shape {
        label: "rle",
        table: b.finish(),
        query: count_sum_v(Predicate::lt("k", Value::I64(runs / 2))),
    }
}

/// Sorted-delta shape: `ts` strictly increasing by seeded steps of 1..=5
/// (delta-encoded), `v` 10-bit. `ts BETWEEN` the first and third quartile
/// rides monotonic range pruning.
pub fn delta_shape(rows: usize, seed: u64) -> Shape {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("ts", LogicalType::I64).with_hint(EncodingHint::Delta),
            ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::BitPack),
        ],
        SEGMENT_ROWS,
    );
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 3));
    let mut ts = 1_000i64;
    let (mut lo, mut hi) = (ts, ts);
    for i in 0..rows {
        ts += rng.random_range(1..=5i64);
        if i == rows / 4 {
            lo = ts;
        }
        if i == rows * 3 / 4 {
            hi = ts;
        }
        b.push_row(vec![Value::I64(ts), Value::I64(rng.random_range(0..1024i64))]);
    }
    Shape {
        label: "delta",
        table: b.finish(),
        query: count_sum_v(Predicate::between("ts", Value::I64(lo), Value::I64(hi))),
    }
}

/// Dictionary shape: `code` drawn from `cardinality` values spread over a
/// sparse domain (dictionary-encoded), `v` 9-bit. The three-way conjunction
/// fuses into one id-bitset over the dictionary.
pub fn dict_shape(rows: usize, cardinality: usize, seed: u64) -> Shape {
    let mut b = TableBuilder::with_segment_rows(
        vec![
            ColumnSpec::new("code", LogicalType::I64).with_hint(EncodingHint::Dict),
            ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::BitPack),
        ],
        SEGMENT_ROWS,
    );
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 4));
    let card = cardinality as i64;
    for _ in 0..rows {
        let code = rng.random_range(0..card) * 13 + 3;
        b.push_row(vec![Value::I64(code), Value::I64(rng.random_range(0..512i64))]);
    }
    let filter = Predicate::and(vec![
        Predicate::ge("code", Value::I64(3 + 13 * (card / 8))),
        Predicate::le("code", Value::I64(3 + 13 * (card * 3 / 4))),
        Predicate::ne("code", Value::I64(3 + 13 * (card / 2))),
    ]);
    Shape { label: "dict", table: b.finish(), query: count_sum_v(filter) }
}

// --------------------------------------------------------------- ingest --

/// `n` LINEITEM-shaped rows (the value domains of `tpch::LineItemGen`), as
/// owned rows ready for `Table::insert`.
pub fn lineitem_rows(n: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 5));
    let start = Date::from_ymd(1992, 1, 1).days();
    let end = Date::from_ymd(1998, 8, 2).days();
    let current = Date::from_ymd(1995, 6, 17).days();
    let flags: [Value; 3] = ["A", "N", "R"].map(|s| Value::Str(s.into()));
    let statuses: [Value; 2] = ["F", "O"].map(|s| Value::Str(s.into()));
    let mut rows = Vec::with_capacity(n);
    let mut orderkey = 0i64;
    while rows.len() < n {
        orderkey += 1;
        let lines = rng.random_range(1..=7usize).min(n - rows.len());
        let orderdate = rng.random_range(start..=end);
        for _ in 0..lines {
            let quantity = rng.random_range(1..=50i64);
            let extendedprice = quantity * rng.random_range(90_000..=200_000i64);
            let shipdate = orderdate + rng.random_range(1..=121i32);
            let receiptdate = shipdate + rng.random_range(1..=30i32);
            let flag = if receiptdate > current {
                1
            } else if rng.random_bool(0.5) {
                2
            } else {
                0
            };
            rows.push(vec![
                Value::I64(orderkey),
                Value::I64(quantity),
                Value::Decimal(extendedprice),
                Value::Decimal(rng.random_range(0..=10i64)),
                Value::Decimal(rng.random_range(0..=8i64)),
                flags[flag].clone(),
                statuses[usize::from(shipdate > current)].clone(),
                Value::Date(Date(shipdate)),
            ]);
        }
    }
    rows
}

/// A table with the LINEITEM schema built row by row through
/// `Table::insert`; whatever does not fill a segment stays in the mutable
/// tail.
pub fn ingest_table(rows: Vec<Vec<Value>>, segment_rows: usize) -> Table {
    let mut table = Table::with_segment_rows(lineitem_specs(), segment_rows);
    for row in rows {
        table.insert(row);
    }
    table
}

// ------------------------------------------------------------ encodings --

/// `n` values each forced encoding is made for: random 14-bit (bit-pack),
/// 256 sparse values (dictionary), runs of 64 (RLE), increasing by 1..=5
/// (delta). Shared by the decoder and the encoder probes.
pub fn encoding_inputs(n: usize, seed: u64) -> [(&'static str, EncodingHint, Vec<i64>); 4] {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 6));
    let random14 = (0..n).map(|_| rng.random_range(0..1i64 << 14)).collect();
    let low_card = (0..n).map(|_| rng.random_range(0..256i64) * 13 + 3).collect();
    let runs = (0..n).map(|i| (i / 64) as i64 * 7).collect();
    let mut ts = 0i64;
    let sorted = (0..n)
        .map(|_| {
            ts += rng.random_range(1..=5i64);
            ts
        })
        .collect();
    [
        ("bitpack", EncodingHint::BitPack, random14),
        ("dict", EncodingHint::Dict, low_card),
        ("rle", EncodingHint::Rle, runs),
        ("delta", EncodingHint::Delta, sorted),
    ]
}

// -------------------------------------------------------------- kernels --

pub fn values(n: usize, bits: u8, seed: u64) -> Vec<u64> {
    let mask = mask_for(bits);
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 100 + u64::from(bits)));
    (0..n).map(|_| rng.random::<u64>() & mask).collect()
}

pub fn gids(n: usize, groups: usize, seed: u64) -> Vec<u8> {
    assert!((1..=256).contains(&groups));
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 200 + groups as u64));
    (0..n).map(|_| rng.random_range(0..groups) as u8).collect()
}

/// Canonical selection bytes (`0xFF` selected, `0x00` not).
pub fn selection(n: usize, selectivity: f64, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 300 + (selectivity * 1000.0) as u64));
    (0..n).map(|_| if rng.random_bool(selectivity) { 0xFF } else { 0x00 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded_bytes(t: &Table) -> Vec<usize> {
        t.segments().iter().map(|s| s.encoded_bytes()).collect()
    }

    fn first_rows(t: &Table, col: usize, n: usize) -> Vec<i64> {
        (0..n).map(|r| t.segments()[0].column(col).get_i64(r)).collect()
    }

    #[test]
    fn table_generators_repeat_for_a_seed_and_differ_across_seeds() {
        type Gen = fn(u64) -> Table;
        let gens: [(&str, Gen, usize); 5] = [
            ("lineitem", |s| lineitem(0.001, s), 2),
            ("sweep", |s| sweep_table(3000, s), 1),
            ("rle", |s| rle_shape(3000, 16, s).table, 1),
            ("delta", |s| delta_shape(3000, s).table, 0),
            ("dict", |s| dict_shape(3000, 32, s).table, 0),
        ];
        for (name, gen, col) in gens {
            let (a, b, c) = (gen(1), gen(1), gen(2));
            assert_eq!(a.num_rows(), b.num_rows(), "{name}");
            assert_eq!(encoded_bytes(&a), encoded_bytes(&b), "{name}");
            assert_eq!(first_rows(&a, col, 200), first_rows(&b, col, 200), "{name}");
            assert_ne!(first_rows(&a, col, 200), first_rows(&c, col, 200), "{name}");
        }
    }

    #[test]
    fn row_and_kernel_generators_repeat_for_a_seed() {
        assert_eq!(lineitem_rows(500, 9), lineitem_rows(500, 9));
        assert_ne!(lineitem_rows(500, 9), lineitem_rows(500, 10));
        assert_eq!(lineitem_rows(500, 9).len(), 500);
        assert_eq!(values(100, 14, 3), values(100, 14, 3));
        assert_ne!(values(100, 14, 3), values(100, 14, 4));
        assert!(values(1000, 14, 3).iter().all(|&v| v < 1 << 14));
        assert_eq!(gids(100, 12, 3), gids(100, 12, 3));
        assert!(gids(1000, 12, 3).iter().all(|&g| g < 12));
        assert_eq!(selection(100, 0.3, 3), selection(100, 0.3, 3));
        let kept = selection(100_000, 0.3, 3).iter().filter(|&&b| b == 0xFF).count();
        assert!((29_000..31_000).contains(&kept), "{kept}");
    }

    #[test]
    fn ingest_table_keeps_a_mutable_tail() {
        let t = ingest_table(lineitem_rows(2 * 64 + 10, 1), 64);
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.mutable_rows().len(), 10);
    }

    #[test]
    fn sweep_thresholds_hit_their_selectivity() {
        let t = sweep_table(40_000, 5);
        for (label, s) in SWEEP_SELECTIVITIES {
            let r = bipie_core::execute(&t, &sweep_query(s, serial())).expect("query runs");
            let kept: u64 = r.rows.iter().filter_map(|row| row.aggs[0].as_count()).sum();
            let got = kept as f64 / 40_000.0;
            assert!((got - s).abs() < 0.01 + s * 0.1, "{label}: {got} vs {s}");
        }
    }

    #[test]
    fn encoded_shapes_take_their_specialised_paths() {
        use bipie_core::{AggStrategy, SelectionStrategy};
        let rle = rle_shape(8192, 64, 1);
        let r = bipie_core::execute(&rle.table, &rle.query).expect("rle runs");
        assert!(r.stats.agg_count(AggStrategy::RunWise) > 0, "{:?}", r.stats);
        assert!(r.stats.selection_count(SelectionStrategy::RunSpan) > 0);
        assert_eq!(r.rows[0].aggs[0].as_count(), Some(4096));
        let delta = delta_shape(8192, 1);
        let r = bipie_core::execute(&delta.table, &delta.query).expect("delta runs");
        assert_eq!(r.rows[0].aggs[0].as_count(), Some(8192 / 2 + 1));
        let dict = dict_shape(8192, 32, 1);
        let r = bipie_core::execute(&dict.table, &dict.query).expect("dict runs");
        let kept = r.rows[0].aggs[0].as_count().expect("count");
        assert!(kept > 8192 / 2 && kept < 8192 * 3 / 4, "{kept}");
    }
}
