//! Multi-Aggregate SUM aggregation (§5.4).
//!
//! Unlike sort-based and in-register aggregation, this strategy uses
//! data-level parallelism *horizontally*: all sums for one input row are
//! packed into a single 256-bit register and updated with one
//! load-add-store sequence against the group's accumulator row.
//!
//! Inputs are stored column-wise, so values must be reorganized row-wise in
//! registers — a generalized transposition. 1- and 2-byte inputs are
//! expanded to 4-byte slots and 4/8-byte inputs to 8-byte slots; this
//! guarantees that up to 65536 rows can be summed with 64-bit SIMD additions
//! without a 4-byte slot ever carrying into its neighbour (a 2-byte input
//! sums to at most 65535 * 65536 < 2^32). Any number and combination of
//! input widths is supported as long as the expanded row fits a 256-bit
//! register with 8-byte slots 8-byte aligned (§5.4).
//!
//! The row builder works [`CHUNK_ROWS`] rows at a time. Each source first
//! fills its 64-bit *slot lane* for the chunk, column-at-a-time: a column is
//! zero-extended from its natural width (the high 4-byte slot of a pair ORs
//! itself in, pre-shifted), a computed input runs its
//! [`LaneProgram`] with the lane as the
//! destination. All width and slot dispatch happens here, once per source
//! per chunk. One monomorphic loop then loads the four slot lanes four rows
//! at a time, turns them into four row registers with a 4x4 64-bit
//! transpose (the paper's "eight AVX2 instructions" transposition), and
//! adds each row into its group's accumulator row.
//!
//! That general path stores every value twice: once into its slot lane (and
//! a program's every intermediate into a lane or stack buffer), once as part
//! of a row. A source shape the [`RowStep`] recognizer accepts — TPC-H Q1's:
//! a `u32` column, two two-op programs over narrow leaves, a pair of `u8`
//! columns — skips the lanes: one kernel per chunk loads each leaf at its
//! natural width, evaluates the programs, ORs the pair and transposes four
//! rows at a time in registers, so the only stores left are the four row
//! adds (11 → 4 vector stores per four rows on Q1). The recognizer runs
//! once per [`sum_lanes`] call; every other shape keeps the slot lanes, and
//! the lanes stay the oracle the step is tested against.
//!
//! Every group has four accumulator rows, one per position in the
//! four-row step: row `r` of a step adds into replica `r`. Consecutive rows
//! of one group — TPC-H's line items arrive in orders that mostly share a
//! group — then touch four different rows, so no add waits on the store of
//! the row before it. The builder's state ([`RowBuilder`]: the replicated
//! rows, the slot lanes, the lane operand stack and the resolved kernels)
//! lives as long as its owner — one per segment per worker in the engine —
//! so a batch neither zeroes a frame nor flushes; rows are extracted into
//! the `i64` sums only when the next chunk could carry, and once at the end
//! ([`RowBuilder::drain`]).

use super::lane::{self, BinK, LaneBin, LaneLeaf, LaneProgram, LaneScratch, BIN, CHUNK_ROWS};
use super::{ColRef, MAX_GROUPS_U8};
use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, Resolved, SimdLevel, ANY};

/// Accumulator rows per group: one per row of the four-row step.
const REPLICAS: usize = 4;

/// `u64` words of the accumulator rows: [`REPLICAS`] × 256 groups × four
/// 8-byte lanes. Replica `r`'s row of group `g` starts at word
/// `(r * 256 + g) * 4`, so any `u8` group id indexes inside.
pub(crate) const ACC_WORDS: usize = REPLICAS * MAX_GROUPS_U8 * 4;

kernel_sig! {
    /// Write one column's chunk into its slot lane: a low or 8-byte slot
    /// overwrites the lane, a high 4-byte slot (`hi`) ORs itself in above the
    /// low one, which the layout always fills first.
    pub(crate) type FillLaneK = fn(col: ColRef<'_>, hi: bool, dst: &mut [u64]);
    /// Add every row `i` of a slot-major chunk into replica `i & 3` of its
    /// group's accumulator row.
    pub(crate) type AccumulateK =
        fn(gids: &[u8], slots: &[[u64; CHUNK_ROWS]; 4], acc: &mut [u64; ACC_WORDS]);
    /// Add every row `i` of one chunk into replica `i & 3` of its group's
    /// accumulator row, each row computed from `step`'s windows (the chunk's
    /// rows) in registers.
    pub(crate) type RowStepK = fn(step: &RowStep<'_>, gids: &[u8], acc: &mut [u64; ACC_WORDS]);
}

pub(crate) const FILL_LANE: Family<FillLaneK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::fill_lane }],
    oracle: fill_lane_scalar,
};
pub(crate) const ACCUMULATE: Family<AccumulateK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::accumulate }],
    oracle: |gids, slots, acc| accumulate_rows(gids, slots, acc, 0),
};
pub(crate) const ROW_STEP: Family<RowStepK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::row_step }],
    oracle: |step, gids, acc| row_step_rows(step, gids, acc, 0),
};

/// Rows per internal flush of the packed accumulators — the §5.4 bound that
/// makes 64-bit additions safe over 4-byte slots. It counts the rows of all
/// replicas together, so it holds however the rows spread over them.
pub const FLUSH_ROWS: usize = 65_536;

/// A column's position within the 32-byte accumulator row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Byte offset of the slot within the row (4-byte aligned; 8-byte
    /// aligned for 8-byte slots).
    pub byte_offset: usize,
    /// Slot width in bytes: 4 for inputs of 1–2 bytes, 8 for 4–8 bytes.
    pub width: usize,
}

/// The packed accumulator-row layout for a set of aggregate columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    /// One slot per input column, in input order.
    slots: Vec<Slot>,
}

impl RowLayout {
    /// Plan a layout for columns of the given element widths (bytes:
    /// 1, 2, 4, or 8). Returns `None` if the expanded row does not fit in
    /// 32 bytes — the caller must fall back to another strategy.
    ///
    /// 8-byte slots are placed first so they are naturally 8-byte aligned.
    pub fn plan(elem_bytes: &[usize]) -> Option<RowLayout> {
        let mut slots = vec![Slot { byte_offset: 0, width: 0 }; elem_bytes.len()];
        let mut offset = 0usize;
        for (c, &w) in elem_bytes.iter().enumerate() {
            match w {
                4 | 8 => {
                    slots[c] = Slot { byte_offset: offset, width: 8 };
                    offset += 8;
                }
                1 | 2 => {}
                #[expect(
                    clippy::panic,
                    reason = "ColRef widths are 1/2/4/8 by construction; any other width is a \
                              kernel-contract violation, not data"
                )]
                _ => panic!("unsupported element width {w}"),
            }
        }
        for (c, &w) in elem_bytes.iter().enumerate() {
            if w <= 2 {
                slots[c] = Slot { byte_offset: offset, width: 4 };
                offset += 4;
            }
        }
        if offset > 32 {
            return None;
        }
        Some(RowLayout { slots })
    }

    /// Plan directly from borrowed columns.
    pub fn plan_for(cols: &[ColRef<'_>]) -> Option<RowLayout> {
        let widths: Vec<usize> = cols.iter().map(|c| c.elem_bytes()).collect();
        Self::plan(&widths)
    }

    /// Number of columns covered.
    pub fn num_cols(&self) -> usize {
        self.slots.len()
    }

    /// Slot of column `c`.
    pub fn slot(&self, c: usize) -> Slot {
        self.slots[c]
    }
}

/// Most sources a 32-byte accumulator row can hold (eight 4-byte slots).
pub const MAX_SOURCES: usize = 8;

/// One sum input of the row builder.
#[derive(Debug, Clone, Copy)]
pub enum LaneSource<'a> {
    /// A column at its natural width.
    Col(ColRef<'a>),
    /// A proven-unsigned expression over the call's leaf columns, evaluated
    /// chunk-wise straight into its 64-bit slot lane (always an 8-byte
    /// slot: plan it with element width 4 or 8).
    Expr(&'a LaneProgram),
}

/// The register row step: a row shape whose four-row steps are loaded,
/// computed, transposed and added in registers, with no slot lane between
/// them. [`RowStep::recognize`] finds it once per [`sum_lanes`] call; every
/// other shape fills slot lanes chunk by chunk, the general path.
///
/// The shape is Q1's. Its row lanes, in layout order, are:
///
/// 0. a `u32` column in an 8-byte slot (`l_extendedprice`);
/// 1. `(x_from − x) · (y + y_bias)`, a `u8` leaf under a constant times a
///    biased `u32` leaf (`disc_price`);
/// 2. `(z_plus + z) · lane 1`, a `u8` leaf over a constant times lane 1's
///    value through `Prev` (`charge`);
/// 3. two `u8` columns, `hi` in the upper 4-byte slot (`l_quantity`,
///    `l_discount`).
///
/// `Mul` is the product of the low 32 bits, as everywhere in [`lane`], so
/// the step and the slot-lane path agree on every input, not only on
/// proven ones.
#[derive(Debug, Clone, Copy)]
pub struct RowStep<'a> {
    pub(crate) wide: &'a [u32],
    pub(crate) x: &'a [u8],
    pub(crate) x_from: u64,
    pub(crate) y: &'a [u32],
    pub(crate) y_bias: u64,
    pub(crate) z: &'a [u8],
    pub(crate) z_plus: u64,
    pub(crate) lo: &'a [u8],
    pub(crate) hi: &'a [u8],
}

impl<'s> RowStep<'s> {
    /// The row step for `sources` laid out by `layout` (with [`sum_lanes`]'
    /// `leaf` columns), or `None` if they are not its shape. Reads only the
    /// sources' and leaves' types, biases and programs — never a row.
    pub fn recognize<'a: 's, 'l: 's>(
        layout: &RowLayout,
        sources: &[LaneSource<'a>],
        leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    ) -> Option<RowStep<'s>> {
        use lane::LaneArg::{Leaf, Lit, Prev};
        use lane::LaneOp::{Apply, Push};
        use LaneBin::{Add, Mul, Sub};
        if sources.len() != 5 || layout.num_cols() != 5 {
            return None;
        }
        // The source in the slot at byte `offset` of `width` bytes.
        let at = |byte_offset: usize, width: usize| {
            let c = (0..5).find(|&c| layout.slot(c) == Slot { byte_offset, width })?;
            Some((c, sources[c]))
        };
        let u8_leaf = |i: usize| match leaf(i) {
            LaneLeaf { col: ColRef::U8(s), bias: 0 } => Some(s),
            _ => None,
        };
        let (_, LaneSource::Col(ColRef::U32(wide))) = at(0, 8)? else { return None };
        let (first, LaneSource::Expr(p)) = at(8, 8)? else { return None };
        let &[Push(Sub, Lit(x_from), Leaf(x)), Apply(Mul, Leaf(y))] = p.ops() else { return None };
        let (_, LaneSource::Expr(q)) = at(16, 8)? else { return None };
        let &[Push(Add, Lit(z_plus), Leaf(z)), Apply(Mul, Prev(prev))] = q.ops() else {
            return None;
        };
        let (_, LaneSource::Col(ColRef::U8(lo))) = at(24, 4)? else { return None };
        let (_, LaneSource::Col(ColRef::U8(hi))) = at(28, 4)? else { return None };
        let LaneLeaf { col: ColRef::U32(y), bias: y_bias } = leaf(y) else { return None };
        (prev == first).then_some(RowStep {
            wide,
            x: u8_leaf(x)?,
            x_from,
            y,
            y_bias,
            z: u8_leaf(z)?,
            z_plus,
            lo,
            hi,
        })
    }

    /// Rows `off .. off + len` of every column.
    ///
    /// # Panics
    /// Panics if a column is shorter than `off + len`.
    fn window(&self, off: usize, len: usize) -> RowStep<'s> {
        fn win<T>(s: &[T], off: usize, len: usize) -> &[T] {
            &s[off..off + len]
        }
        RowStep {
            wide: win(self.wide, off, len),
            x: win(self.x, off, len),
            y: win(self.y, off, len),
            z: win(self.z, off, len),
            lo: win(self.lo, off, len),
            hi: win(self.hi, off, len),
            ..*self
        }
    }

    /// Rows every column holds.
    fn rows(&self) -> usize {
        let narrow = [self.x, self.z, self.lo, self.hi].map(<[u8]>::len);
        narrow.into_iter().fold(self.wide.len().min(self.y.len()), usize::min)
    }
}

/// Multi-aggregate grouped SUM: for each column `c` and group `g`,
/// `sums[c * num_groups + g] += Σ cols[c][i]` over rows with `gids[i] == g`.
///
/// # Panics
/// Panics if the layout does not match the columns, lengths mismatch, or
/// `num_groups` exceeds 256.
pub fn sum_multi(
    gids: &[u8],
    cols: &[ColRef<'_>],
    layout: &RowLayout,
    num_groups: usize,
    sums: &mut [i64],
    level: SimdLevel,
) {
    assert!(cols.len() <= MAX_SOURCES, "more columns than a 32-byte row has slots");
    let mut sources = [LaneSource::Col(ColRef::U8(&[])); MAX_SOURCES];
    for (s, col) in sources.iter_mut().zip(cols) {
        *s = LaneSource::Col(*col);
    }
    #[expect(clippy::unreachable, reason = "column sources read no leaves")]
    let no_leaf = |_| unreachable!("column sources read no leaves");
    let mut rows = RowBuilder::new(layout, num_groups, level);
    sum_lanes(&mut rows, gids, &sources[..cols.len()], &no_leaf, sums);
    rows.drain(sums);
}

/// The multi-aggregate row builder's state, bound to one [`RowLayout`] and
/// group count: the replicated accumulator rows, the four slot lanes, the
/// lane operand stack, the count of rows not yet flushed, and the kernels
/// (the slot-lane ones and the [`RowStep`]'s), resolved once. Build it once
/// per run of batches — the engine builds one per segment per worker — and
/// pass it to every [`sum_lanes`] call.
///
/// Rows a call leaves in the accumulators belong to the `sums` it was
/// given: pass the same `sums` to every call, then [`RowBuilder::drain`]
/// them before reading the totals.
pub struct RowBuilder {
    /// Packed accumulators: one 32-byte row (four u64 slots) per replica per
    /// group id a `u8` can name, so no group id can index outside them.
    acc: [u64; ACC_WORDS],
    /// Slot-major chunk: lane l of row r at `slots[l][r]`. Lanes no source
    /// maps to stay zero.
    slots: [[u64; CHUNK_ROWS]; 4],
    scratch: LaneScratch,
    layout: RowLayout,
    num_groups: usize,
    /// Rows added since the last flush, across calls.
    unflushed: usize,
    fill: Resolved<FillLaneK>,
    add: Resolved<AccumulateK>,
    bin: Resolved<BinK>,
    step: Resolved<RowStepK>,
}

impl RowBuilder {
    /// Zeroed state for sums over `layout` into `num_groups` groups, with
    /// the kernels a call at `level` runs on this CPU.
    ///
    /// # Panics
    /// Panics if `num_groups` is 0 or exceeds 256.
    pub fn new(layout: &RowLayout, num_groups: usize, level: SimdLevel) -> RowBuilder {
        assert!((1..=MAX_GROUPS_U8).contains(&num_groups), "bad group count");
        RowBuilder {
            acc: [0; ACC_WORDS],
            slots: [[0; CHUNK_ROWS]; 4],
            scratch: LaneScratch::default(),
            layout: layout.clone(),
            num_groups,
            unflushed: 0,
            fill: FILL_LANE.resolve(level, 0),
            add: ACCUMULATE.resolve(level, 0),
            bin: BIN.resolve(level, 0),
            step: ROW_STEP.resolve(level, 0),
        }
    }

    /// Add every pending row into `sums` (the slice the [`sum_lanes`] calls
    /// were given) and clear the accumulators.
    ///
    /// # Panics
    /// Panics if `sums` is not one total per column per group.
    pub fn drain(&mut self, sums: &mut [i64]) {
        assert_eq!(
            sums.len(),
            self.layout.num_cols() * self.num_groups,
            "accumulator size mismatch"
        );
        if self.unflushed > 0 {
            flush(&mut self.acc, &self.layout, self.num_groups, sums);
            self.unflushed = 0;
        }
    }
}

impl std::fmt::Debug for RowBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowBuilder")
            .field("layout", &self.layout)
            .field("num_groups", &self.num_groups)
            .field("unflushed", &self.unflushed)
            .finish_non_exhaustive()
    }
}

/// The multi-aggregate row builder over *lane sources*: like [`sum_multi`],
/// but a source may be a [`LaneProgram`] over the `leaf` columns (each as
/// long as `gids`) — its values are
/// computed [`CHUNK_ROWS`] rows at a time directly in the 64-bit slot lane
/// the transposition reads, so they never exist as a batch vector. Source
/// `c`'s program may reference source `j < c` as `LaneArg::Prev(j)` when
/// `j` is itself an expression (or any 8-byte-slot source).
///
/// Per chunk, each source fills its slot lane column-at-a-time (all width
/// and slot dispatch happens once per source per chunk); one monomorphic
/// loop then transposes four rows at a time and updates each row's
/// accumulators with a single load-add-store. Sources of the [`RowStep`]
/// shape skip the slot lanes: one kernel per chunk loads, computes,
/// transposes and adds four rows at a time in registers. The sums reach
/// `sums` only when the next chunk could carry (every [`FLUSH_ROWS`] rows,
/// counted across calls) and at [`RowBuilder::drain`].
///
/// # Panics
/// Panics if `rows`' layout does not match the sources, an expression
/// source was not planned as an 8-byte slot, or lengths mismatch.
pub fn sum_lanes<'a, 'l>(
    rows: &mut RowBuilder,
    gids: &[u8],
    sources: &[LaneSource<'a>],
    leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    sums: &mut [i64],
) {
    let (num_groups, k) = (rows.num_groups, sources.len());
    let layout = &rows.layout;
    assert_eq!(layout.num_cols(), k, "layout/column count mismatch");
    assert_eq!(sums.len(), k * num_groups, "accumulator size mismatch");
    let n = gids.len();
    for (c, source) in sources.iter().enumerate() {
        match source {
            LaneSource::Col(col) => assert_eq!(col.len(), n, "column length mismatch"),
            LaneSource::Expr(_) => {
                assert_eq!(layout.slot(c).width, 8, "expression sources take 8-byte slots")
            }
        }
    }
    super::debug_assert_group_ids(gids, num_groups);

    let step = RowStep::recognize(layout, sources, leaf);
    let mut off = 0usize;
    while off < n {
        let len = CHUNK_ROWS.min(n - off);
        if rows.unflushed + len > FLUSH_ROWS {
            flush(&mut rows.acc, &rows.layout, num_groups, sums);
            rows.unflushed = 0;
        }
        let chunk_gids = &gids[off..off + len];
        match &step {
            Some(step) => rows.step.run(&step.window(off, len), chunk_gids, &mut rows.acc),
            None => {
                fill_slots(rows, sources, leaf, off, len);
                rows.add.run(chunk_gids, &rows.slots, &mut rows.acc);
            }
        }
        rows.unflushed += len;
        off += len;
    }
}

/// Fill the slot lanes with rows `off .. off + len` of every source.
fn fill_slots<'l>(
    rows: &mut RowBuilder,
    sources: &[LaneSource<'_>],
    leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    off: usize,
    len: usize,
) {
    let RowBuilder { slots, scratch, layout, fill, bin, .. } = rows;
    for (c, source) in sources.iter().enumerate() {
        let slot = layout.slot(c);
        let (lane, hi) = (slot.byte_offset / 8, slot.byte_offset % 8 == 4);
        let (below, rest) = slots.split_at_mut(lane);
        #[expect(clippy::expect_used, reason = "lane < 4 by RowLayout construction (offset < 32)")]
        let (dst, above) = rest.split_first_mut().expect("lane within the row");
        let dst = &mut dst[..len];
        match source {
            LaneSource::Col(col) => fill.run(col.window(off, len), hi, dst),
            LaneSource::Expr(prog) => {
                let prev = |j: usize| {
                    assert!(j < c, "Prev({j}) must name an earlier source than {c}");
                    let s = layout.slot(j);
                    assert_eq!(s.width, 8, "Prev({j}) must name an 8-byte-slot source");
                    let l = s.byte_offset / 8;
                    // Two 8-byte slots never share a lane, so l != lane.
                    let src = if l < lane { &below[l] } else { &above[l - lane - 1] };
                    ColRef::U64(&src[..len])
                };
                lane::eval_chunk(prog, leaf, &prev, off, dst, scratch, *bin);
            }
        }
    }
}

/// Scalar oracle of [`FILL_LANE`]; `col` holds exactly `dst.len()` rows.
fn fill_lane_scalar(col: ColRef<'_>, hi: bool, dst: &mut [u64]) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d = if hi { *d | col.get(i) << 32 } else { col.get(i) };
    }
}

/// Accumulation with identical packed-slot semantics to the SIMD path
/// (wrapping 64-bit slot adds; the no-carry guarantee makes them exact),
/// over rows `from..` (a multiple of four, so replicas line up with the
/// SIMD path's): [`ACCUMULATE`]'s oracle from row 0.
fn accumulate_rows(
    gids: &[u8],
    slots: &[[u64; CHUNK_ROWS]; 4],
    acc: &mut [u64; ACC_WORDS],
    from: usize,
) {
    for i in from..gids.len() {
        add_row(acc, i, gids[i], std::array::from_fn(|l| slots[l][i]));
    }
}

/// [`ROW_STEP`]'s rows `from..` (a multiple of four), one at a time: its
/// oracle from row 0.
fn row_step_rows(step: &RowStep<'_>, gids: &[u8], acc: &mut [u64; ACC_WORDS], from: usize) {
    use lane::apply;
    use LaneBin::{Add, Mul, Sub};
    for i in from..gids.len() {
        let y = (step.y[i] as u64).wrapping_add(step.y_bias);
        let first = apply(Mul, apply(Sub, step.x_from, step.x[i] as u64), y);
        let second = apply(Mul, apply(Add, step.z_plus, step.z[i] as u64), first);
        let pair = step.lo[i] as u64 | (step.hi[i] as u64) << 32;
        add_row(acc, i, gids[i], [step.wide[i] as u64, first, second, pair]);
    }
}

/// Add row `i`'s four lanes into replica `i & 3` of group `g`'s row.
#[inline]
fn add_row(acc: &mut [u64; ACC_WORDS], i: usize, g: u8, lanes: [u64; 4]) {
    let base = ((i & 3) * MAX_GROUPS_U8 + g as usize) * 4;
    for (a, v) in acc[base..base + 4].iter_mut().zip(lanes) {
        *a = a.wrapping_add(v);
    }
}

/// Unpack the first `num_groups` rows of every replica into per-column
/// per-group totals and clear them. Each replica's 4-byte slots are
/// extracted before they are added, so no packed word is ever added across
/// replicas.
fn flush(acc: &mut [u64; ACC_WORDS], layout: &RowLayout, num_groups: usize, sums: &mut [i64]) {
    for replica in acc.chunks_exact_mut(MAX_GROUPS_U8 * 4) {
        for (g, row) in replica[..num_groups * 4].chunks_exact_mut(4).enumerate() {
            for (c, slot) in layout.slots.iter().enumerate() {
                let word = row[slot.byte_offset / 8];
                let value = if slot.width == 8 {
                    word
                } else if slot.byte_offset % 8 == 0 {
                    word & 0xFFFF_FFFF
                } else {
                    word >> 32
                };
                sums[c * num_groups + g] += value as i64;
            }
            row.fill(0);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ColRef, RowStep, ACC_WORDS, CHUNK_ROWS, MAX_GROUPS_U8};
    use crate::agg::lane::avx2::{AddK, Biased, BinK, Lane4, MulK, Op, Ptr, Splat, SubK};
    use crate::transpose::avx2::t4x4_epi64;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call. `col` must hold
    /// exactly `dst.len()` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_lane(col: ColRef<'_>, hi: bool, dst: &mut [u64]) {
        let n4 = dst.len() & !3;
        let p = dst.as_mut_ptr();
        // SAFETY: avx2 is enabled for this function; `p` and the column
        // span dst.len() >= n4 rows (caller contract).
        unsafe {
            match col {
                ColRef::U8(s) => fill(Ptr(s.as_ptr()), hi, p, n4),
                ColRef::U16(s) => fill(Ptr(s.as_ptr()), hi, p, n4),
                ColRef::U32(s) => fill(Ptr(s.as_ptr()), hi, p, n4),
                ColRef::U64(s) => fill(Ptr(s.as_ptr()), hi, p, n4),
            }
        }
        super::fill_lane_scalar(col.window(n4, dst.len() - n4), hi, &mut dst[n4..]);
    }

    /// # Safety
    /// The CPU must support avx2; `src` and `dst` must span `n4` rows (a
    /// multiple of four).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fill<S: Lane4>(src: S, hi: bool, dst: *mut u64, n4: usize) {
        // SAFETY: forwarded caller guarantees; `hi` is loop-invariant, so
        // each arm is its own monomorphic loop.
        unsafe {
            if hi {
                fill_rows::<S, true>(src, dst, n4)
            } else {
                fill_rows::<S, false>(src, dst, n4)
            }
        }
    }

    /// # Safety
    /// As for [`fill`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fill_rows<S: Lane4, const HI: bool>(src: S, dst: *mut u64, n4: usize) {
        let mut i = 0usize;
        while i < n4 {
            // SAFETY: i + 4 <= n4, within `src` and `dst` (caller).
            unsafe {
                let q = dst.add(i) as *mut __m256i;
                let v = src.load4(i);
                let v = if HI {
                    _mm256_or_si256(_mm256_loadu_si256(q), _mm256_slli_epi64::<32>(v))
                } else {
                    v
                };
                _mm256_storeu_si256(q, v);
            }
            i += 4;
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate(
        gids: &[u8],
        slots: &[[u64; CHUNK_ROWS]; 4],
        acc: &mut [u64; ACC_WORDS],
    ) {
        let n = gids.len().min(CHUNK_ROWS);
        let lane = |l: usize| Ptr(slots[l].as_ptr());
        // SAFETY: avx2 is enabled for this function; every slot lane holds
        // CHUNK_ROWS >= n rows, and gids n.
        unsafe { add_rows((lane(0), lane(1), lane(2), lane(3)), gids, acc, n & !3) };
        super::accumulate_rows(&gids[..n], slots, acc, n & !3);
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_step(step: &RowStep<'_>, gids: &[u8], acc: &mut [u64; ACC_WORDS]) {
        let n = gids.len().min(step.rows());
        let s = step;
        let first = Op(
            MulK,
            Op(SubK, Splat(s.x_from), Ptr(s.x.as_ptr())),
            Biased(Ptr(s.y.as_ptr()), s.y_bias),
        );
        let rows = Chain(
            Ptr(s.wide.as_ptr()),
            first,
            Op(AddK, Splat(s.z_plus), Ptr(s.z.as_ptr())),
            Pair(Ptr(s.lo.as_ptr()), Ptr(s.hi.as_ptr())),
        );
        // SAFETY: avx2 is enabled for this function; every column of `step`
        // and `gids` hold n rows or more.
        unsafe { add_rows(rows, gids, acc, n & !3) };
        super::row_step_rows(step, &gids[..n], acc, n & !3);
    }

    /// The four 8-byte row lanes of four consecutive rows, one register per
    /// lane (slot-major, before the transpose).
    trait Lanes4: Copy {
        /// # Safety
        /// The CPU must support avx2, and rows `i..i + 4` must be readable
        /// through every operand.
        unsafe fn lanes4(self, i: usize) -> [__m256i; 4];
    }

    impl<A: Lane4, B: Lane4, C: Lane4, D: Lane4> Lanes4 for (A, B, C, D) {
        /// # Safety
        /// As [`Lanes4::lanes4`].
        #[inline(always)]
        unsafe fn lanes4(self, i: usize) -> [__m256i; 4] {
            // SAFETY: forwarded caller guarantees.
            unsafe { [self.0.load4(i), self.1.load4(i), self.2.load4(i), self.3.load4(i)] }
        }
    }

    /// Lanes `(w, x, y · x, z)`: the third multiplies the second's value —
    /// a `Prev` reference — by `y` without computing it again.
    #[derive(Clone, Copy)]
    struct Chain<W, X, Y, Z>(W, X, Y, Z);

    impl<W: Lane4, X: Lane4, Y: Lane4, Z: Lane4> Lanes4 for Chain<W, X, Y, Z> {
        /// # Safety
        /// As [`Lanes4::lanes4`].
        #[inline(always)]
        unsafe fn lanes4(self, i: usize) -> [__m256i; 4] {
            // SAFETY: forwarded caller guarantees.
            unsafe {
                let x = self.1.load4(i);
                [self.0.load4(i), x, MulK::apply(self.2.load4(i), x), self.3.load4(i)]
            }
        }
    }

    /// Two 4-byte slots of one lane: `lo`, and `hi` shifted above it.
    #[derive(Clone, Copy)]
    struct Pair<L, H>(L, H);

    impl<L: Lane4, H: Lane4> Lane4 for Pair<L, H> {
        /// # Safety
        /// As [`Lane4::load4`] for both operands.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: forwarded caller guarantees.
            unsafe { _mm256_or_si256(self.0.load4(i), _mm256_slli_epi64::<32>(self.1.load4(i))) }
        }
    }

    /// Rows `0..n4` (a multiple of four) of `rows`: transposed four at a
    /// time and added with one load-add-store per row, row `r` of a step
    /// into replica `r`, so consecutive rows of one group never wait on each
    /// other's store.
    ///
    /// # Safety
    /// The CPU must support avx2; rows below `n4` must be readable through
    /// `rows`, and `n4 <= gids.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_rows<R: Lanes4>(rows: R, gids: &[u8], acc: &mut [u64; ACC_WORDS], n4: usize) {
        let acc_ptr = acc.as_mut_ptr();
        let mut i = 0usize;
        while i < n4 {
            // SAFETY: rows i..i+4 are below n4, within `rows` and gids
            // (caller); with r < 4 and a u8 group id g, (r * 256 + g) * 4 + 4
            // is at most acc.len() = 4 * 256 * 4.
            unsafe {
                let [l0, l1, l2, l3] = rows.lanes4(i);
                // Generalized transposition: slot-major -> row-major.
                let (r0, r1, r2, r3) = t4x4_epi64(l0, l1, l2, l3);
                for (r, row) in [r0, r1, r2, r3].into_iter().enumerate() {
                    let g = *gids.get_unchecked(i + r) as usize;
                    let p = acc_ptr.add((r * MAX_GROUPS_U8 + g) * 4) as *mut __m256i;
                    _mm256_storeu_si256(p, _mm256_add_epi64(_mm256_loadu_si256(p), row));
                }
            }
            i += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::reference_group_sums;

    #[test]
    fn layout_places_wide_slots_first() {
        // Paper's Figure 6 example: columns of 4,4,2,2,2 bytes (A..E with
        // A,B 64-bit expanded in the figure's labeling).
        let layout = RowLayout::plan(&[4, 4, 2, 2, 2]).unwrap();
        assert_eq!(layout.slot(0), Slot { byte_offset: 0, width: 8 });
        assert_eq!(layout.slot(1), Slot { byte_offset: 8, width: 8 });
        assert_eq!(layout.slot(2), Slot { byte_offset: 16, width: 4 });
        assert_eq!(layout.slot(3), Slot { byte_offset: 20, width: 4 });
        assert_eq!(layout.slot(4), Slot { byte_offset: 24, width: 4 });
    }

    #[test]
    fn layout_rejects_overflowing_rows() {
        assert!(RowLayout::plan(&[8, 8, 8, 8]).is_some());
        assert!(RowLayout::plan(&[8, 8, 8, 8, 1]).is_none());
        assert!(RowLayout::plan(&[1; 8]).is_some());
        assert!(RowLayout::plan(&[1; 9]).is_none());
        // Table 4's combinations all fit.
        for combo in [
            vec![8usize, 2],
            vec![8, 4, 1],
            vec![8, 8, 4, 2],
            vec![8, 4, 4, 2, 2],
            vec![4, 4, 2, 2, 2],
        ] {
            assert!(RowLayout::plan(&combo).is_some(), "{combo:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported element width")]
    fn layout_rejects_bad_width() {
        RowLayout::plan(&[3]);
    }

    fn gids(n: usize, groups: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 17 + i / 9) % groups) as u8).collect()
    }

    #[test]
    fn mixed_width_sums_match_reference() {
        let n = 10_000;
        let g = gids(n, 32);
        let v8: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let v16: Vec<u16> = (0..n).map(|i| (i * 7 % 65_521) as u16).collect();
        let v32: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(2654435761) >> 8).collect();
        let v64: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E3779B9) >> 16).collect();
        let cols = [ColRef::U64(&v64), ColRef::U32(&v32), ColRef::U16(&v16), ColRef::U8(&v8)];
        let layout = RowLayout::plan_for(&cols).unwrap();
        let (_, expected) = reference_group_sums(&g, &cols, 32);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 4 * 32];
            sum_multi(&g, &cols, &layout, 32, &mut sums, level);
            for c in 0..4 {
                assert_eq!(&sums[c * 32..(c + 1) * 32], &expected[c][..], "col={c} level={level}");
            }
        }
    }

    #[test]
    fn narrow_slot_no_carry_across_flush() {
        // Max-value 2-byte inputs over more than FLUSH_ROWS rows: the
        // packed 4-byte slot sums to just under 2^32 before each flush.
        let n = FLUSH_ROWS + 4097;
        let g = vec![0u8; n];
        let v16 = vec![u16::MAX; n];
        let v16b = vec![u16::MAX; n];
        let cols = [ColRef::U16(&v16), ColRef::U16(&v16b)];
        let layout = RowLayout::plan_for(&cols).unwrap();
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 2];
            sum_multi(&g, &cols, &layout, 1, &mut sums, level);
            assert_eq!(sums[0], n as i64 * u16::MAX as i64, "level={level}");
            assert_eq!(sums[1], n as i64 * u16::MAX as i64, "level={level}");
        }
    }

    #[test]
    fn single_column_and_tiny_batches() {
        for n in [0usize, 1, 2, 3, 4, 5, 7] {
            let g = gids(n, 3);
            let v: Vec<u32> = (0..n as u32).map(|i| i * 11).collect();
            let cols = [ColRef::U32(&v)];
            let layout = RowLayout::plan_for(&cols).unwrap();
            let (_, expected) = reference_group_sums(&g, &cols, 3);
            for level in SimdLevel::available() {
                let mut sums = vec![0i64; 3];
                sum_multi(&g, &cols, &layout, 3, &mut sums, level);
                assert_eq!(&sums[..], &expected[0][..], "n={n} level={level}");
            }
        }
    }

    #[test]
    fn five_sums_paper_q1_shape() {
        // TPC-H Q1 shape: five sums updated per row in one load-add-store.
        let n = 4096;
        let g = gids(n, 7);
        let quantity: Vec<u8> = (0..n).map(|i| (i % 50 + 1) as u8).collect();
        let price: Vec<u32> = (0..n).map(|i| (90_000 + i * 13 % 10_000) as u32).collect();
        let disc_price: Vec<u64> = price.iter().map(|&p| p as u64 * 95 / 100).collect();
        let charge: Vec<u64> = disc_price.iter().map(|&p| p * 108 / 100).collect();
        let discount: Vec<u8> = (0..n).map(|i| (i % 11) as u8).collect();
        let cols = [
            ColRef::U8(&quantity),
            ColRef::U32(&price),
            ColRef::U64(&disc_price),
            ColRef::U64(&charge),
            ColRef::U8(&discount),
        ];
        let layout = RowLayout::plan_for(&cols).unwrap();
        let (_, expected) = reference_group_sums(&g, &cols, 7);
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 5 * 7];
            sum_multi(&g, &cols, &layout, 7, &mut sums, level);
            for c in 0..5 {
                assert_eq!(&sums[c * 7..(c + 1) * 7], &expected[c][..], "col={c} level={level}");
            }
        }
    }

    #[test]
    fn accumulates_into_existing_sums() {
        let g = [0u8, 0];
        let v = [1u32, 2];
        let cols = [ColRef::U32(&v)];
        let layout = RowLayout::plan_for(&cols).unwrap();
        let mut sums = vec![10i64];
        sum_multi(&g, &cols, &layout, 1, &mut sums, SimdLevel::detect());
        assert_eq!(sums[0], 13);
    }

    /// The Q1 lane shape: two columns, two programs (the second reading the
    /// first through `Prev`), one narrow column — against the same sums
    /// taken over materialized vectors.
    fn q1_lane_case(n: usize, level: SimdLevel) {
        use crate::agg::lane::{LaneArg, LaneBin, LaneLeaf, LaneOp, LaneProgram};
        let g = gids(n, 7);
        let quantity: Vec<u8> = (0..n).map(|i| (i % 50 + 1) as u8).collect();
        let price: Vec<u32> = (0..n).map(|i| (i * 7919 % 10_000_000) as u32).collect();
        let discount: Vec<u8> = (0..n).map(|i| (i % 11) as u8).collect();
        let tax: Vec<u8> = (0..n).map(|i| (i % 9) as u8).collect();
        const BIAS: u64 = 90_000;
        let disc_price: Vec<u64> =
            (0..n).map(|i| (price[i] as u64 + BIAS) * (100 - discount[i] as u64)).collect();
        let charge: Vec<u64> = (0..n).map(|i| disc_price[i] * (100 + tax[i] as u64)).collect();
        let cols = [
            ColRef::U8(&quantity),
            ColRef::U32(&price),
            ColRef::U64(&disc_price),
            ColRef::U64(&charge),
            ColRef::U8(&discount),
        ];
        let layout = RowLayout::plan_for(&cols).unwrap();
        let (_, expected) = reference_group_sums(&g, &cols, 7);

        let p_disc_price = LaneProgram::new(vec![
            LaneOp::Push(LaneBin::Sub, LaneArg::Lit(100), LaneArg::Leaf(1)),
            LaneOp::Apply(LaneBin::Mul, LaneArg::Leaf(0)),
        ])
        .unwrap();
        let p_charge = LaneProgram::new(vec![
            LaneOp::Push(LaneBin::Add, LaneArg::Lit(100), LaneArg::Leaf(2)),
            LaneOp::Apply(LaneBin::Mul, LaneArg::Prev(2)),
        ])
        .unwrap();
        let leaves = [
            LaneLeaf { col: ColRef::U32(&price), bias: BIAS },
            LaneLeaf { col: ColRef::U8(&discount), bias: 0 },
            LaneLeaf { col: ColRef::U8(&tax), bias: 0 },
        ];
        let sources = [
            LaneSource::Col(ColRef::U8(&quantity)),
            LaneSource::Col(ColRef::U32(&price)),
            LaneSource::Expr(&p_disc_price),
            LaneSource::Expr(&p_charge),
            LaneSource::Col(ColRef::U8(&discount)),
        ];
        let mut sums = vec![0i64; 5 * 7];
        let mut rows = RowBuilder::new(&layout, 7, level);
        sum_lanes(&mut rows, &g, &sources, &|i| leaves[i], &mut sums);
        rows.drain(&mut sums);
        for c in 0..5 {
            assert_eq!(&sums[c * 7..(c + 1) * 7], &expected[c][..], "n={n} col={c} {level}");
        }
    }

    #[test]
    fn sum_lanes_computes_expressions_in_slot_lanes() {
        // Lengths around the 4-row step and the chunk boundary.
        for n in [0, 1, 3, 4, 5, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 2] {
            for level in SimdLevel::available() {
                q1_lane_case(n, level);
            }
        }
    }

    /// One row-step differential case: the sources, their leaves and
    /// whether the recognizer must take the register step.
    struct StepCase<'a> {
        name: &'static str,
        sources: Vec<LaneSource<'a>>,
        leaves: Vec<LaneLeaf<'a>>,
        step: bool,
    }

    /// Source `c`'s value on row `i`, by the lane semantics: a column at its
    /// width, a program run one row at a time.
    fn source_value(case: &StepCase<'_>, c: usize, i: usize) -> u64 {
        use crate::agg::lane::{apply, LaneArg, LaneOp};
        let prog = match case.sources[c] {
            LaneSource::Col(col) => return col.get(i),
            LaneSource::Expr(prog) => prog,
        };
        let arg = |a: LaneArg| match a {
            LaneArg::Leaf(l) => case.leaves[l].col.get(i).wrapping_add(case.leaves[l].bias),
            LaneArg::Prev(j) => source_value(case, j, i),
            LaneArg::Lit(v) => v,
        };
        let mut stack = Vec::new();
        for &op in prog.ops() {
            match op {
                LaneOp::Load(a) => stack.push(arg(a)),
                LaneOp::Push(k, a, b) => stack.push(apply(k, arg(a), arg(b))),
                LaneOp::Apply(k, a) => {
                    let x = stack.pop().unwrap();
                    stack.push(apply(k, x, arg(a)));
                }
                LaneOp::RSub(a) => {
                    let x = stack.pop().unwrap();
                    stack.push(arg(a).wrapping_sub(x));
                }
                LaneOp::Fold(k) => {
                    let (y, x) = (stack.pop().unwrap(), stack.pop().unwrap());
                    stack.push(apply(k, x, y));
                }
            }
        }
        stack[0]
    }

    #[test]
    fn register_step_chunked_path_and_reference_agree() {
        use crate::agg::lane::{LaneArg::*, LaneBin::*, LaneOp::*};
        let n = FLUSH_ROWS + CHUNK_ROWS + 3;
        let g = gids(n, 7);
        // `x` reaches 255, so `100 - x` wraps; `y + 2^32 - 64` crosses 2^32,
        // so `Mul` sees only its low 32 bits. Rows where `x` wraps take the
        // truncated side of `y`, which keeps every sum inside i64.
        let wraps = |i: usize| i % 97 == 5;
        let x: Vec<u8> = (0..n).map(|i| if wraps(i) { 255 } else { (i % 11) as u8 }).collect();
        let y: Vec<u32> =
            (0..n).map(|i| if wraps(i) { 64 + i % 50 } else { i * 7 % 128 } as u32).collect();
        let z: Vec<u8> = (0..n).map(|i| (i % 9) as u8).collect();
        let wide: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(2654435761) >> 8).collect();
        let lo: Vec<u8> = (0..n).map(|i| if i % 5 == 0 { 255 } else { (i % 50) as u8 }).collect();
        let hi: Vec<u8> = (0..n).map(|i| if i % 3 == 0 { 255 } else { (i % 11) as u8 }).collect();
        let hi16: Vec<u16> = hi.iter().map(|&v| v as u16 * 3).collect();
        let leaves = |x_bias| {
            vec![
                LaneLeaf { col: ColRef::U32(&y), bias: (1 << 32) - 64 },
                LaneLeaf { col: ColRef::U8(&x), bias: x_bias },
                LaneLeaf { col: ColRef::U8(&z), bias: 0 },
            ]
        };
        let prog = |ops| LaneProgram::new(ops).unwrap();
        let first = prog(vec![Push(Sub, Lit(100), Leaf(1)), Apply(Mul, Leaf(0))]);
        let second = prog(vec![Push(Add, Lit(100), Leaf(2)), Apply(Mul, Prev(2))]);
        let swapped = (
            prog(vec![Push(Add, Lit(100), Leaf(1)), Apply(Mul, Leaf(0))]),
            prog(vec![Push(Sub, Lit(100), Leaf(2)), Apply(Mul, Prev(2))]),
        );
        let other_prev = prog(vec![Push(Add, Lit(100), Leaf(2)), Apply(Mul, Prev(1))]);
        let q1 = |hi_col, first, second| {
            vec![
                LaneSource::Col(ColRef::U8(&lo)),
                LaneSource::Col(ColRef::U32(&wide)),
                LaneSource::Expr(first),
                LaneSource::Expr(second),
                LaneSource::Col(hi_col),
            ]
        };
        let case = |name, sources, leaves, step| StepCase { name, sources, leaves, step };
        let hi8 = ColRef::U8(&hi);
        // Q1's sums with the u32 column after the programs: laid out so the
        // recognizer rejects them — the chunked path.
        let chunked = vec![
            LaneSource::Col(ColRef::U8(&lo)),
            LaneSource::Expr(&first),
            LaneSource::Expr(&other_prev),
            LaneSource::Col(ColRef::U32(&wide)),
            LaneSource::Col(hi8),
        ];
        let cases = [
            case("q1 shape", q1(hi8, &first, &second), leaves(0), true),
            case("q1 sums, chunked layout", chunked, leaves(0), false),
            case("Prev names the column", q1(hi8, &first, &other_prev), leaves(0), false),
            case("Add and Sub swapped", q1(hi8, &swapped.0, &swapped.1), leaves(0), false),
            case("biased u8 leaf", q1(hi8, &first, &second), leaves(3), false),
            case("u16 in the pair", q1(ColRef::U16(&hi16), &first, &second), leaves(0), false),
        ];
        for case in &cases {
            let layout = RowLayout::plan_for(
                &case
                    .sources
                    .iter()
                    .map(|s| match s {
                        LaneSource::Col(c) => *c,
                        LaneSource::Expr(_) => ColRef::U64(&[]),
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let leaf = |i: usize| case.leaves[i];
            let recognized = RowStep::recognize(&layout, &case.sources, &leaf).is_some();
            assert_eq!(recognized, case.step, "{}", case.name);
            let values: Vec<Vec<u64>> =
                (0..5).map(|c| (0..n).map(|i| source_value(case, c, i)).collect()).collect();
            for len in [0, 1, 3, 4, 5, 255, 256, 257, 4096, n] {
                let cols: Vec<ColRef<'_>> = values.iter().map(|v| ColRef::U64(&v[..len])).collect();
                let (_, expected) = reference_group_sums(&g[..len], &cols, 7);
                let sources: Vec<LaneSource<'_>> = (case.sources.iter())
                    .map(|s| match s {
                        LaneSource::Col(c) => LaneSource::Col(c.window(0, len)),
                        expr => *expr,
                    })
                    .collect();
                for level in SimdLevel::available() {
                    let mut sums = vec![0i64; 5 * 7];
                    let mut rows = RowBuilder::new(&layout, 7, level);
                    sum_lanes(&mut rows, &g[..len], &sources, &leaf, &mut sums);
                    rows.drain(&mut sums);
                    for c in 0..5 {
                        assert_eq!(
                            &sums[c * 7..(c + 1) * 7],
                            &expected[c][..],
                            "{} len={len} col={c} {level}",
                            case.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sum_lanes_flushes_narrow_slots_before_they_carry() {
        // A 2-byte column at its maximum next to an expression source,
        // across the 65 536-row flush boundary.
        use crate::agg::lane::{LaneArg, LaneBin, LaneLeaf, LaneOp, LaneProgram};
        let n = FLUSH_ROWS + CHUNK_ROWS + 3;
        let g = vec![1u8; n];
        let v16 = vec![u16::MAX; n];
        let v32 = vec![u32::MAX; n];
        let square =
            LaneProgram::new(vec![LaneOp::Push(LaneBin::Mul, LaneArg::Leaf(0), LaneArg::Leaf(0))])
                .unwrap();
        let leaves = [LaneLeaf { col: ColRef::U32(&v32), bias: 0 }];
        let sources = [
            LaneSource::Col(ColRef::U16(&v16)),
            LaneSource::Expr(&square),
            LaneSource::Col(ColRef::U16(&v16)),
        ];
        let layout = RowLayout::plan(&[2, 8, 2]).unwrap();
        for level in SimdLevel::available() {
            let mut sums = vec![0i64; 3 * 2];
            let mut rows = RowBuilder::new(&layout, 2, level);
            sum_lanes(&mut rows, &g, &sources, &|i| leaves[i], &mut sums);
            rows.drain(&mut sums);
            assert_eq!(sums[1], n as i64 * u16::MAX as i64, "level={level}");
            assert_eq!(sums[5], n as i64 * u16::MAX as i64, "level={level}");
            // (2^32 - 1)^2 per row wraps i64 over n rows; compare wrapped.
            let want = (0..n).fold(0i64, |s, _| s.wrapping_add((u32::MAX as u64).pow(2) as i64));
            assert_eq!(sums[3], want, "level={level}");
            assert_eq!((sums[0], sums[2], sums[4]), (0, 0, 0), "level={level}");
        }
    }

    #[test]
    #[should_panic(expected = "expression sources take 8-byte slots")]
    #[expect(clippy::unreachable, reason = "the program reads no leaves")]
    fn sum_lanes_rejects_expression_in_a_narrow_slot() {
        use crate::agg::lane::{LaneArg, LaneOp, LaneProgram};
        let prog = LaneProgram::new(vec![LaneOp::Load(LaneArg::Lit(1))]).unwrap();
        let layout = RowLayout::plan(&[2]).unwrap();
        let no_leaf = |_| unreachable!();
        let mut rows = RowBuilder::new(&layout, 1, SimdLevel::Scalar);
        sum_lanes(&mut rows, &[0], &[LaneSource::Expr(&prog)], &no_leaf, &mut [0]);
    }

    #[test]
    #[expect(clippy::unreachable, reason = "column sources read no leaves")]
    fn pending_rows_carry_across_calls_and_flushes() {
        // Batches of uneven lengths (none a multiple of four after the
        // first) over more than two flush windows, with u16::MAX in both
        // 4-byte halves of one lane: one builder, drained once, equals the
        // reference and a drain after every call.
        let n = 2 * FLUSH_ROWS + 5000;
        let g: Vec<u8> = (0..n).map(|i| (i / 3 % 7 == 0) as u8 * 2).collect();
        let a = vec![u16::MAX; n];
        let b: Vec<u16> = (0..n).map(|i| u16::MAX - (i % 2) as u16).collect();
        let w: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(2654435761)).collect();
        let cols = [ColRef::U16(&a), ColRef::U32(&w), ColRef::U16(&b)];
        let layout = RowLayout::plan_for(&cols).unwrap();
        assert_eq!(layout.slot(0).byte_offset / 8, layout.slot(2).byte_offset / 8, "one lane");
        let (_, expected) = reference_group_sums(&g, &cols, 3);
        let cuts = [4096, 4095, 1, 3, 4097, 2, 4094, 7, 4096];
        for level in SimdLevel::available() {
            let (mut once, mut every) = (vec![0i64; 3 * 3], vec![0i64; 3 * 3]);
            let (mut rows, mut step) =
                (RowBuilder::new(&layout, 3, level), RowBuilder::new(&layout, 3, level));
            let (mut off, mut k) = (0, 0);
            while off < n {
                let len = cuts[k % cuts.len()].min(n - off);
                let window: Vec<LaneSource<'_>> =
                    cols.iter().map(|c| LaneSource::Col(c.window(off, len))).collect();
                let no_leaf = |_| unreachable!("column sources read no leaves");
                sum_lanes(&mut rows, &g[off..off + len], &window, &no_leaf, &mut once);
                sum_lanes(&mut step, &g[off..off + len], &window, &no_leaf, &mut every);
                step.drain(&mut every);
                (off, k) = (off + len, k + 1);
            }
            rows.drain(&mut once);
            assert_eq!(once, every, "level={level}");
            for c in 0..3 {
                assert_eq!(&once[c * 3..(c + 1) * 3], &expected[c][..], "col={c} level={level}");
            }
        }
    }
}
