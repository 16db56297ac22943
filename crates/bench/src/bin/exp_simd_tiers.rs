//! SIMD-tier ablation per kernel cell (DESIGN.md §21): every kernel family
//! at the engine's 4 096-row batch, at the widths, group counts and
//! selectivities the benchmark workloads run it with, measured through its
//! public dispatcher at every tier the CPU has. The scalar tier runs the
//! family's oracle — compiler output, auto-vectorized for the build's
//! target CPU — so each tier's column is its cell's speedup over that
//! oracle; a hand cell earns its place by beating what would run in its
//! stead (ROADMAP item 13).
//!
//! Run it on the native build (AVX-512 tier) and again from a
//! `-C target-cpu=x86-64-v3` build under `BIPIE_FORCE_SIMD=avx2`, the only
//! honest measurement of the AVX2 tier on an AVX-512 machine:
//!
//! ```sh
//! cargo run --release -p bipie-bench --bin exp_simd_tiers
//! RUSTFLAGS="-C target-cpu=x86-64-v3" BIPIE_FORCE_SIMD=avx2 \
//!     cargo run --release -p bipie-bench --bin exp_simd_tiers --target-dir <dir>
//! ```
//!
//! "reached by" names the workloads whose engine path runs the family
//! (`q1`: `q1_scan`, `serving_q1_2c`, `ingest_flush`; `sweep`:
//! `filter_sweep`; `enc`: `encoded_ops`); `-` marks a family no workload
//! runs at that shape.

use bipie_bench::{
    bench_opts, gen_gids, gen_packed, gen_selection, gen_values_u16, gen_values_u32, gen_values_u8,
    measure_cycles_per_row, MeasureOpts,
};
use bipie_metrics::Table;
use bipie_toolbox::agg::lane::{materialize_u64, LaneArg, LaneBin, LaneLeaf, LaneOp, LaneProgram};
use bipie_toolbox::agg::multi::{sum_lanes, LaneSource, RowBuilder, RowLayout, RowStep};
use bipie_toolbox::agg::packed::sum_packed;
use bipie_toolbox::agg::sort_based::{bucket_sort, sum_sorted_packed, sum_sorted_u32, SortedBatch};
use bipie_toolbox::agg::{in_register, minmax, scalar, ColRef};
use bipie_toolbox::bitpack::{PackedVec, WordSize};
use bipie_toolbox::cmp::{self, CmpOp};
use bipie_toolbox::select::{compact, gather, special_group};
use bipie_toolbox::selvec::{count_selected, SelIndexVec};
use bipie_toolbox::{radix, SimdLevel};
use std::hint::black_box;

/// The engine's batch.
const BATCH: usize = 4096;
/// Batches per timed sample.
const REPS: usize = 400;

/// One table row per kernel shape, one column per available tier.
struct Tiers {
    levels: Vec<SimdLevel>,
    opts: MeasureOpts,
    table: Table,
}

impl Tiers {
    /// Time `f` over one batch at every tier; `f` runs the family at the
    /// tier it is given.
    fn row(&mut self, kernel: &str, at: &str, reached: &str, mut f: impl FnMut(SimdLevel)) {
        let cpr: Vec<f64> = self
            .levels
            .iter()
            .map(|&level| {
                let m = measure_cycles_per_row(BATCH * REPS, self.opts, || {
                    for _ in 0..REPS {
                        f(level);
                    }
                });
                m.cycles_per_row
            })
            .collect();
        let mut cells = vec![kernel.to_string(), at.to_string(), reached.to_string()];
        cells.push(format!("{:.3}", cpr[0]));
        cells.extend(cpr[1..].iter().map(|c| format!("{:.2}", cpr[0] / c)));
        self.table.row(cells);
    }
}

fn main() {
    let levels = SimdLevel::available();
    let opts = bench_opts();
    let oracle_isa = if cfg!(target_feature = "avx512bw") {
        "AVX-512"
    } else if cfg!(target_feature = "avx2") {
        "AVX2"
    } else {
        "baseline x86-64"
    };
    println!(
        "SIMD tier ablation: {BATCH}-row batch x {REPS} per sample, median of {} samples",
        opts.runs
    );
    println!("available tiers: {levels:?}; the oracle (scalar tier) is compiled for {oracle_isa}");
    println!(
        "columns: the oracle's cycles/row, then each tier's speedup over it (oracle / tier)\n"
    );
    let mut header = vec!["kernel".to_string(), "at".into(), "reached by".into()];
    header.push("oracle c/row".into());
    header.extend(levels[1..].iter().map(|l| format!("{l} x")));
    let mut t = Tiers { table: Table::new(header), levels, opts };

    unpack(&mut t);
    compare(&mut t);
    select(&mut t);
    aggregate(&mut t);
    t.table.print();
}

fn unpack(t: &mut Tiers) {
    let shapes: [(&str, &[(u8, &str)]); 4] = [
        ("u8", &[(1, "q1"), (2, "q1"), (4, "q1 sweep"), (6, "q1")]),
        ("u16", &[(9, "enc"), (10, "enc"), (12, "q1"), (14, "sweep")]),
        (
            "u32",
            &[(4, "q1 sweep"), (10, "enc"), (12, "q1"), (14, "sweep"), (24, "q1"), (28, "sweep")],
        ),
        ("u64", &[(3, "enc"), (28, "sweep")]),
    ];
    for (word, widths) in shapes {
        for &(bits, reached) in widths {
            let pv = gen_packed(BATCH, bits, bits as u64);
            let name = format!("unpack_into_{word}");
            let at = format!("{bits} bits");
            match word {
                "u8" => {
                    let mut out = vec![0u8; BATCH];
                    t.row(&name, &at, reached, |l| pv.unpack_into_u8(0, black_box(&mut out), l));
                }
                "u16" => {
                    let mut out = vec![0u16; BATCH];
                    t.row(&name, &at, reached, |l| pv.unpack_into_u16(0, black_box(&mut out), l));
                }
                "u32" => {
                    let mut out = vec![0u32; BATCH];
                    t.row(&name, &at, reached, |l| pv.unpack_into_u32(0, black_box(&mut out), l));
                }
                _ => {
                    let mut out = vec![0u64; BATCH];
                    t.row(&name, &at, reached, |l| pv.unpack_into_u64(0, black_box(&mut out), l));
                }
            }
        }
    }
}

fn compare(t: &mut Tiers) {
    let mut out = vec![0u8; BATCH];
    let v8 = gen_values_u8(BATCH, 8, 1);
    t.row("cmp_u8", "le", "-", |l| cmp::cmp_u8(black_box(&v8), CmpOp::Le, 100, &mut out, l));
    let v12 = gen_values_u16(BATCH, 12, 2);
    t.row("cmp_u16", "le, 12 bits", "q1", |l| {
        cmp::cmp_u16(black_box(&v12), CmpOp::Le, 2500, &mut out, l)
    });
    let v14 = gen_values_u16(BATCH, 14, 3);
    t.row("cmp_u16", "lt, 14 bits", "sweep", |l| {
        cmp::cmp_u16(black_box(&v14), CmpOp::Lt, 1638, &mut out, l)
    });
    let v32 = gen_values_u32(BATCH, 32, 4);
    t.row("cmp_u32", "le", "-", |l| {
        cmp::cmp_u32(black_box(&v32), CmpOp::Le, u32::MAX / 2, &mut out, l)
    });
    let v64: Vec<i64> = v32.iter().map(|&v| v as i64 - (1 << 31)).collect();
    t.row("cmp_i64", "le", "-", |l| cmp::cmp_i64(black_box(&v64), CmpOp::Le, 0, &mut out, l));
    t.row("between_u32", "half", "-", |l| {
        cmp::between_u32(black_box(&v32), 1 << 30, 3 << 30, &mut out, l)
    });
    let codes = gen_values_u8(BATCH, 7, 5);
    let table: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(73) ^ 0x5A);
    t.row("membership_u8", "7-bit codes", "enc", |l| {
        cmp::membership_u8(black_box(&codes), &table, &mut out, l)
    });
}

fn select(t: &mut Tiers) {
    for (s, reached) in [(0.98, "q1"), (0.02, "sweep enc")] {
        let sel = gen_selection(BATCH, s, 6);
        t.row("count_selected", &format!("s={s}"), reached, |l| {
            black_box(count_selected(black_box(sel.as_bytes()), l));
        });
    }
    let mut iv = SelIndexVec::with_capacity(BATCH);
    for (s, reached) in [(0.002, "sweep"), (0.02, "sweep enc"), (0.1, "sweep"), (0.3, "sweep")] {
        let sel = gen_selection(BATCH, s, 7);
        t.row("compact_indices", &format!("s={s}"), reached, |l| {
            compact::compact_indices(black_box(sel.as_bytes()), &mut iv, l)
        });
    }
    let (g, a0, a1) =
        (gen_gids(BATCH, 12, 8), gen_values_u16(BATCH, 14, 9), gen_values_u32(BATCH, 28, 10));
    let wide: Vec<u64> = a1.iter().map(|&v| v as u64).collect();
    let (mut o8, mut o16, mut o32, mut o64) = (vec![], vec![], vec![], vec![]);
    for (s, reached) in [(0.1, "sweep"), (0.3, "sweep")] {
        let sel = gen_selection(BATCH, s, 11);
        let (sel, at) = (sel.as_bytes(), format!("s={s}"));
        t.row("compact_u8", &at, reached, |l| compact::compact_u8(black_box(&g), sel, &mut o8, l));
        t.row("compact_u16", &at, reached, |l| {
            compact::compact_u16(black_box(&a0), sel, &mut o16, l)
        });
        t.row("compact_u32", &at, reached, |l| {
            compact::compact_u32(black_box(&a1), sel, &mut o32, l)
        });
    }
    let sel = gen_selection(BATCH, 0.3, 11);
    t.row("compact_u64", "s=0.3", "-", |l| {
        compact::compact_u64(black_box(&wide), sel.as_bytes(), &mut o64, l)
    });

    let gather_rows: [(u8, f64, &str); 8] = [
        (7, 0.02, "-"),
        (10, 0.02, "enc"),
        (14, 0.002, "sweep"),
        (14, 0.02, "sweep"),
        (21, 0.02, "-"),
        (28, 0.02, "sweep (oracle)"),
        (40, 0.02, "-"),
        (57, 0.02, "-"),
    ];
    for (bits, s, reached) in gather_rows {
        gather_row(t, bits, s, reached);
    }

    for (s, groups, reached) in [(0.98, 6, "q1"), (0.6, 12, "sweep")] {
        let (sel, gids) = (gen_selection(BATCH, s, 14), gen_gids(BATCH, groups, 15));
        let mut work = gids.clone();
        let at = format!("s={s}, {groups} groups");
        t.row("assign_special_group_in_place", &at, reached, |l| {
            work.copy_from_slice(&gids);
            special_group::assign_special_group_in_place(
                black_box(&mut work),
                sel.as_bytes(),
                groups as u8,
                l,
            )
        });
    }
    let (sel, gids) = (gen_selection(BATCH, 0.98, 14), gen_gids(BATCH, 6, 15));
    let mut out = vec![0u8; BATCH];
    t.row("assign_special_group", "s=0.98, 6 groups", "-", |l| {
        special_group::assign_special_group(black_box(&gids), sel.as_bytes(), 6, &mut out, l)
    });
    // Q1's two dictionary codes (3 × 2) into one group id.
    let (flag, status) = (gen_gids(BATCH, 3, 16), gen_gids(BATCH, 2, 17));
    let mut acc = flag.clone();
    t.row("fused_scale_add_u8", "3 x 2 codes", "q1", |l| {
        acc.copy_from_slice(&flag);
        radix::fused_scale_add_u8(black_box(&mut acc), &status, 2, l)
    });
}

/// Gather-unpack the rows a selection of `s` keeps from a `bits`-wide
/// column, into the narrowest word that holds them.
fn gather_row(t: &mut Tiers, bits: u8, s: f64, reached: &str) {
    let pv = gen_packed(BATCH, bits, 13);
    let mut iv = SelIndexVec::with_capacity(BATCH);
    compact::compact_indices(gen_selection(BATCH, s, 12).as_bytes(), &mut iv, SimdLevel::Scalar);
    let (idx, n, at) = (iv.as_slice(), iv.len(), format!("{bits} bits, s={s}"));
    match bits {
        0..=8 => {
            let mut out = vec![0u8; n];
            t.row("gather_unpack_u8", &at, reached, |l| {
                gather::gather_unpack_u8(&pv, black_box(idx), &mut out, l)
            });
        }
        9..=16 => {
            let mut out = vec![0u16; n];
            t.row("gather_unpack_u16", &at, reached, |l| {
                gather::gather_unpack_u16(&pv, black_box(idx), &mut out, l)
            });
        }
        17..=32 => {
            let mut out = vec![0u32; n];
            t.row("gather_unpack_u32", &at, reached, |l| {
                gather::gather_unpack_u32(&pv, black_box(idx), &mut out, l)
            });
        }
        _ => {
            let mut out = vec![0u64; n];
            t.row("gather_unpack_u64", &at, reached, |l| {
                gather::gather_unpack_u64(&pv, black_box(idx), &mut out, l)
            });
        }
    }
}

fn aggregate(t: &mut Tiers) {
    // Q1's segment programs count 7 slots (6 ids + the special group); the
    // sweep counts 12 groups, 13 with its special group.
    for (groups, reached) in [(4, "-"), (7, "q1"), (12, "sweep"), (13, "sweep"), (16, "-")] {
        let gids = gen_gids(BATCH, groups, 20);
        let mut counts = vec![0u64; groups];
        t.row("count_groups", &format!("{groups} groups"), reached, |l| {
            in_register::count_groups(black_box(&gids), groups, &mut counts, l)
        });
    }
    let gids = gen_gids(BATCH, 4, 21);
    let mut sums = vec![0i64; 4];
    let (v8, v16) = (gen_values_u8(BATCH, 8, 22), gen_values_u16(BATCH, 16, 23));
    let v28 = gen_values_u32(BATCH, 28, 24);
    t.row("sum_u8", "4 groups", "-", |l| {
        in_register::sum_u8(black_box(&gids), &v8, 4, &mut sums, l)
    });
    t.row("sum_u16", "4 groups", "-", |l| {
        in_register::sum_u16(black_box(&gids), &v16, 4, &mut sums, l)
    });
    t.row("sum_u32", "4 groups, 28 bits", "-", |l| {
        in_register::sum_u32(black_box(&gids), &v28, 4, &mut sums, (1 << 28) - 1, l)
    });
    let (mut mins, mut maxs) = (vec![u8::MAX; 4], vec![0u8; 4]);
    t.row("min_max_u8", "4 groups", "-", |l| {
        minmax::min_max_u8(black_box(&gids), &v8, 4, &mut mins, &mut maxs, l)
    });
    let mut sorted = SortedBatch::default();
    bucket_sort(&gids, None, 4, &mut sorted);
    let pv14 = gen_packed(BATCH, 14, 25);
    t.row("sum_sorted_packed", "14 bits, 4 groups", "-", |l| {
        sum_sorted_packed(&pv14, black_box(&sorted), 0, &mut sums, l)
    });
    t.row("sum_sorted_u32", "4 groups", "-", |l| {
        sum_sorted_u32(&v28, black_box(&sorted), &mut sums, l)
    });
    one_group_sums(t);
    lanes(t);
}

/// The one-group SUM of a bit-packed column — `encoded_ops`' dict query sums
/// 9 bits under a ≈ 60 % mask, its delta query 10 bits with none — fused,
/// and as the two passes the fused cell replaces (the family's oracle, and
/// what a tier without a cell runs): unpack at the tier, then
/// `sum_selected` over the batch buffer.
fn one_group_sums(t: &mut Tiers) {
    let sel = gen_selection(BATCH, 0.6, 26);
    let shapes = [
        (4, true, "-"),
        (9, true, "enc"),
        (10, false, "enc"),
        (16, true, "-"),
        (17, true, "-"),
        (25, true, "-"),
        (28, true, "-"),
    ];
    let mut bufs = (Vec::new(), Vec::new(), Vec::new());
    for (bits, masked, reached) in shapes {
        let pv = gen_packed(BATCH, bits, 27 + bits as u64);
        let sel = masked.then_some(sel.as_bytes());
        let at = format!("{bits} bits, {}", if masked { "60 %" } else { "no mask" });
        t.row("sum_packed", &at, reached, |l| {
            black_box(sum_packed(black_box(&pv), 0, BATCH, sel, l));
        });
        t.row("unpack + sum_selected", &at, reached, |l| {
            black_box(two_pass(black_box(&pv), sel, l, &mut bufs));
        });
    }
}

/// Unpack all of `pv` into the buffer of its word, then sum it under `sel`.
fn two_pass(
    pv: &PackedVec,
    sel: Option<&[u8]>,
    l: SimdLevel,
    (b8, b16, b32): &mut (Vec<u8>, Vec<u16>, Vec<u32>),
) -> u64 {
    let n = pv.len();
    let col = match pv.word_size() {
        WordSize::W1 => {
            b8.resize(n, 0);
            pv.unpack_into_u8(0, b8, l);
            ColRef::U8(b8)
        }
        WordSize::W2 => {
            b16.resize(n, 0);
            pv.unpack_into_u16(0, b16, l);
            ColRef::U16(b16)
        }
        _ => {
            b32.resize(n, 0);
            pv.unpack_into_u32(0, b32, l);
            ColRef::U32(b32)
        }
    };
    scalar::sum_selected(col, sel)
}

/// The row builder's kernels, each through the engine's entry point with a
/// builder per tier built once, as the engine builds one per segment.
fn lanes(t: &mut Tiers) {
    let levels = t.levels.clone();
    let builders = |layout: &RowLayout, groups: usize| -> Vec<RowBuilder> {
        levels.iter().map(|&l| RowBuilder::new(layout, groups, l)).collect()
    };
    // `available()` lists the tiers in order from `Scalar`, so a tier's
    // discriminant is its builder's index.
    let slot = |l: SimdLevel| l as usize;

    // The sweep's two sums (a 14-bit and a 28-bit column, 12 groups): the
    // slot-lane path, one `FILL_LANE` per column and one `ACCUMULATE` per
    // 256-row chunk.
    let (g12, a0, a1) =
        (gen_gids(BATCH, 12, 30), gen_values_u16(BATCH, 14, 31), gen_values_u32(BATCH, 28, 32));
    let cols = [LaneSource::Col(ColRef::U16(&a0)), LaneSource::Col(ColRef::U32(&a1))];
    let layout = RowLayout::plan(&[2, 4]).expect("two sums fit a row");
    let mut rows = builders(&layout, 12);
    let mut sums = vec![0i64; 2 * 12];
    let no_leaf = |_| LaneLeaf { col: ColRef::U8(&[]), bias: 0 };
    t.row("fill_lane + accumulate", "2 sums, 12 groups", "sweep", |l| {
        sum_lanes(&mut rows[slot(l)], black_box(&g12), &cols, &no_leaf, &mut sums)
    });

    // Q1's five sums: the register row step, one `ROW_STEP` per chunk.
    let (disc, tax) = (gen_gids(BATCH, 11, 33), gen_gids(BATCH, 9, 34));
    let (qty, price) = (gen_gids(BATCH, 50, 35), gen_values_u32(BATCH, 23, 36));
    let g7 = gen_gids(BATCH, 7, 37);
    let leaf = |i: usize| match i {
        0 => LaneLeaf { col: ColRef::U8(&disc), bias: 0 },
        1 => LaneLeaf { col: ColRef::U32(&price), bias: 90_000 },
        _ => LaneLeaf { col: ColRef::U8(&tax), bias: 0 },
    };
    use LaneArg::{Leaf, Lit, Prev};
    use LaneBin::{Add, Mul, Sub};
    let disc_price =
        LaneProgram::new(vec![LaneOp::Push(Sub, Lit(100), Leaf(0)), LaneOp::Apply(Mul, Leaf(1))])
            .expect("valid program");
    let charge =
        LaneProgram::new(vec![LaneOp::Push(Add, Lit(100), Leaf(2)), LaneOp::Apply(Mul, Prev(1))])
            .expect("valid program");
    let sources = [
        LaneSource::Col(ColRef::U32(&price)),
        LaneSource::Expr(&disc_price),
        LaneSource::Expr(&charge),
        LaneSource::Col(ColRef::U8(&qty)),
        LaneSource::Col(ColRef::U8(&disc)),
    ];
    let layout = RowLayout::plan(&[4, 8, 8, 1, 1]).expect("Q1's sums fit a row");
    assert!(RowStep::recognize(&layout, &sources, &leaf).is_some(), "Q1's row-step shape");
    let mut rows = builders(&layout, 7);
    let mut sums = vec![0i64; 5 * 7];
    t.row("row_step", "Q1's 5 sums, 7 groups", "q1", |l| {
        sum_lanes(&mut rows[slot(l)], black_box(&g7), &sources, &leaf, &mut sums)
    });

    // A lane program materialized into a batch vector: one `BIN` per op.
    let mut out = vec![0u64; BATCH];
    let no_prev = |_| ColRef::U64(&[]);
    t.row("bin (materialize_u64)", "2 ops", "-", |l| {
        materialize_u64(&disc_price, &leaf, &no_prev, black_box(&mut out), l)
    });
}
