//! The Aggregate Processor (§3).
//!
//! "The Aggregate Processor takes in a group id vector and a selection
//! vector produced by the Filter component, and computes the aggregates for
//! each group. The Aggregate Processor chooses among the many aggregation
//! strategies implemented in the vector toolbox at run time."
//!
//! [`SegmentAggExecutor`] holds one segment's accumulators and executes a
//! (selection strategy × aggregation strategy) pairing per batch:
//!
//! * **selection** turns the selection byte vector into compacted inputs
//!   (gather / compact), or fuses it into the group-id map (special group);
//! * **aggregation** runs the scalar, sort-based, in-register, or
//!   multi-aggregate kernels over the surviving rows.
//!
//! How the sum inputs reach those kernels is fixed once per segment by a
//! [`LanePlan`] (DESIGN.md §17). Every bit-packed column any sum reads is a
//! *leaf*: unpacked once per batch at its natural width and shared between
//! bare-column sums and expression operands. A computed input whose
//! metadata proof holds ([`ResolvedExpr::lane_range`]) becomes a typed lane
//! program over those leaves — evaluated inside the multi-aggregate row
//! builder's slot lanes, or streamed into a `u32`/`u64` vector for the
//! other strategies. When any proof fails the segment's computed inputs
//! keep the `i64` interpreter, the one general fallback.
//!
//! Accumulation happens in the encoding's *normalized* domain: a bit-packed
//! input column contributes `Σ (value - reference)`, and [`finish`]
//! re-adds `reference × count` per group — the trick that lets every kernel
//! operate on narrow unsigned values while sums stay exact.
//!
//! One extra accumulator slot (index `num_groups`) always exists for the
//! special group; it is simply unused by the other selection strategies,
//! and by In-Register with one group and no MIN/MAX, which reads no group
//! ids: COUNT is the selected rows and each SUM one pass under the
//! selection mask — over a bare bit-packed column, where it lies
//! ([`packed::sum_packed`], DESIGN.md §17).
//!
//! [`finish`]: SegmentAggExecutor::finish

use bipie_columnstore::encoding::{EncodedColumn, ForBitPackColumn, RleColumn};
use bipie_columnstore::Segment;
use bipie_toolbox::agg::lane::{self, LaneLeaf, LaneProgram};
use bipie_toolbox::agg::multi::{LaneSource, RowBuilder, RowLayout, RowStep};
use bipie_toolbox::agg::sort_based::{bucket_sort, SortedBatch};
use bipie_toolbox::agg::{in_register, minmax, multi, packed, scalar, sort_based, ColRef};
use bipie_toolbox::bitpack::{PackedVec, WordSize};
use bipie_toolbox::runspan::{enc_minmax_runs_spans, enc_sum_runs_spans};
use bipie_toolbox::select::{compact, gather, special_group};
use bipie_toolbox::selvec::{self, SelIndexVec};
use bipie_toolbox::{RunSpanVec, SimdLevel};

use crate::expr::{ExprEval, LaneReject, ResolvedExpr};
use crate::strategy::{AggStrategy, SelectionStrategy};

/// One aggregate input, planned per segment.
#[derive(Debug, Clone)]
pub enum AggInput<'a> {
    /// A raw bit-packed stored column: kernels consume normalized values
    /// directly; `finish` applies the frame-of-reference correction.
    Packed(&'a ForBitPackColumn),
    /// An expression (or a non-bit-packed stored column): a typed lane
    /// program over natural-width leaves when the segment's metadata proves
    /// it safe, the `i64` interpreter over decoded vectors otherwise.
    Computed(ResolvedExpr),
}

impl<'a> AggInput<'a> {
    /// How `e` reaches the kernels on `seg`: a bare bit-packed column in its
    /// encoded form, everything else as an expression.
    pub fn plan(seg: &'a Segment, e: &ResolvedExpr) -> AggInput<'a> {
        match e.as_bare_column().map(|col| seg.column(col)) {
            Some(EncodedColumn::BitPack(c)) => AggInput::Packed(c),
            _ => AggInput::Computed(e.clone()),
        }
    }

    /// The expression the interpreter evaluates for this input, if any.
    fn computed(&self) -> Option<&ResolvedExpr> {
        match self {
            AggInput::Packed(_) => None,
            AggInput::Computed(e) => Some(e),
        }
    }

    /// True if sort-based SIMD gather summation applies (§5.2: raw packed,
    /// narrow enough for the 32-bit gather).
    pub fn sortable_packed(&self) -> bool {
        matches!(self, AggInput::Packed(c) if c.bits() <= 25)
    }
}

/// Bytes of the unpack word of a packed column.
fn packed_bytes(c: &ForBitPackColumn) -> usize {
    WordSize::for_bits(c.bits()).bytes()
}

/// Bytes of the typed vector a lane result bounded by `max` needs.
fn lane_width(max: u64) -> usize {
    match max <= u32::MAX as u64 {
        true => 4,
        false => 8,
    }
}

/// The lane proof of `e` against `seg`'s metadata: leaves must be
/// bit-packed columns.
fn lane_max(e: &ResolvedExpr, seg: &Segment) -> Result<u64, LaneReject> {
    e.lane_range(&|col| match seg.column(col) {
        EncodedColumn::BitPack(_) => {
            let m = seg.meta(col);
            Some((m.min, m.max))
        }
        _ => None,
    })
}

/// How one segment's computed sum inputs evaluate (reported in
/// [`ExecStats`](crate::stats::ExecStats) so tests and EXPLAIN can tell
/// which path ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprPath {
    /// No computed input: every aggregate reads a stored column.
    Stored,
    /// Typed lane programs over natural-width leaves.
    Lanes,
    /// The `i64` interpreter, because the lane proof failed as given.
    Interpreter(LaneReject),
}

/// How one sum input reaches the kernels.
#[derive(Debug, Clone)]
enum SumSource {
    /// A bare bit-packed column: leaf index.
    Leaf(usize),
    /// A typed lane program with its proven result bound.
    Lane { program: LaneProgram, max: u64 },
    /// Full-batch `i64` interpreter results.
    Interp,
}

/// A bit-packed column some sum input reads, unpacked once per batch.
#[derive(Debug, Clone)]
struct Leaf<'a> {
    col: &'a ForBitPackColumn,
    /// Read by a lane program (sort-based then needs it batch-indexed).
    in_expr: bool,
}

/// The per-segment plan of how sum inputs become kernel inputs, built once
/// from metadata (DESIGN.md §17) — by the scan's segment program, which
/// every worker that visits the segment copies into its executor.
#[derive(Debug, Clone)]
pub struct LanePlan<'a> {
    leaves: Vec<Leaf<'a>>,
    sums: Vec<SumSource>,
    /// Input widths in bytes, as the kernels will see them.
    widths: Vec<usize>,
    path: ExprPath,
    /// The interpreter's evaluator over every computed input (sums, then
    /// MIN/MAX), buffers empty: what the fallback decodes, and the state each
    /// executor clones. Empty off the fallback.
    interp: ExprEval,
    /// Multi-aggregate row layout for `widths`, when one exists.
    layout: Option<RowLayout>,
}

impl<'a> LanePlan<'a> {
    /// Plan `inputs` (sums) and `mm_inputs` (MIN/MAX) against `seg`: typed
    /// lanes when every computed sum proves out, else the interpreter for
    /// all of them — one fallback per segment, because CSE references tie
    /// the computed inputs' results together.
    pub fn build(
        seg: &'a Segment,
        inputs: &[AggInput<'a>],
        mm_inputs: &[AggInput<'a>],
    ) -> LanePlan<'a> {
        let computed = |i: &AggInput<'_>| matches!(i, AggInput::Computed(_));
        let mut path = if mm_inputs.iter().any(computed) {
            ExprPath::Interpreter(LaneReject::ComputedMinMax)
        } else if inputs.iter().any(computed) {
            ExprPath::Lanes
        } else {
            ExprPath::Stored
        };
        loop {
            match Self::assemble(seg, inputs, mm_inputs, path) {
                Ok(plan) => return plan,
                Err(reject) => path = ExprPath::Interpreter(reject),
            }
        }
    }

    /// Build the plan for a decided `path`; only [`ExprPath::Lanes`] can be
    /// rejected.
    fn assemble(
        seg: &'a Segment,
        inputs: &[AggInput<'a>],
        mm_inputs: &[AggInput<'a>],
        path: ExprPath,
    ) -> Result<LanePlan<'a>, LaneReject> {
        let mut plan = LanePlan {
            leaves: Vec::new(),
            sums: Vec::with_capacity(inputs.len()),
            widths: Vec::with_capacity(inputs.len()),
            path,
            interp: ExprEval::default(),
            layout: None,
        };
        for input in inputs {
            let (source, width) = match input {
                AggInput::Packed(c) => (SumSource::Leaf(plan.leaf(c, false)), packed_bytes(c)),
                AggInput::Computed(e) if path == ExprPath::Lanes => {
                    let (program, max) = plan.lane_program(e, seg)?;
                    (SumSource::Lane { program, max }, lane_width(max))
                }
                AggInput::Computed(_) => (SumSource::Interp, 8),
            };
            plan.sums.push(source);
            plan.widths.push(width);
        }
        if let ExprPath::Interpreter(_) = path {
            plan.interp = ExprEval::new(inputs.iter().chain(mm_inputs).map(AggInput::computed));
        }
        plan.layout = RowLayout::plan(&plan.widths);
        Ok(plan)
    }

    /// Index of the leaf for `col`, added on first use.
    fn leaf(&mut self, col: &'a ForBitPackColumn, in_expr: bool) -> usize {
        let at = self.leaves.iter().position(|l| std::ptr::eq(l.col, col)).unwrap_or_else(|| {
            self.leaves.push(Leaf { col, in_expr: false });
            self.leaves.len() - 1
        });
        self.leaves[at].in_expr |= in_expr;
        at
    }

    /// Prove `e` and compile it over this plan's leaves; returns the program
    /// and the proven bound of its result.
    fn lane_program(
        &mut self,
        e: &ResolvedExpr,
        seg: &'a Segment,
    ) -> Result<(LaneProgram, u64), LaneReject> {
        let max = lane_max(e, seg)?;
        let packed = |col: usize| match seg.column(col) {
            EncodedColumn::BitPack(c) => c,
            #[expect(
                clippy::unreachable,
                reason = "`lane_max` just accepted, so every column `e` reads is bit-packed"
            )]
            _ => unreachable!("lane proof admits bit-packed leaves only"),
        };
        for col in e.columns() {
            self.leaf(packed(col), true);
        }
        let leaves = &self.leaves;
        #[expect(clippy::expect_used, reason = "the loop above registered every column `e` reads")]
        let program = e.lane_program(&|col| {
            let at = leaves.iter().position(|l| std::ptr::eq(l.col, packed(col)));
            at.expect("leaf registered above")
        })?;
        Ok((program, max))
    }

    /// Which path the segment's computed sum inputs take.
    pub fn expr_path(&self) -> ExprPath {
        self.path
    }

    /// Per-sum-input widths in bytes as the kernels will see them (the
    /// chooser's `input_bytes`).
    pub fn input_bytes(&self) -> &[usize] {
        &self.widths
    }

    /// Whether the widths fit one multi-aggregate accumulator row.
    pub fn multi_layout_fits(&self) -> bool {
        self.layout.is_some()
    }

    /// Whether the multi-aggregate row builder runs this plan's sums in its
    /// register row step ([`RowStep`]) rather than in slot-lane chunks. A
    /// batch changes how many rows the leaf buffers hold, never their types,
    /// so empty buffers of the leaves' unpack words answer for every batch.
    pub fn register_row_step(&self) -> bool {
        let Some(layout) = &self.layout else { return false };
        let leaf_bufs: Vec<ValueBuf> =
            self.leaves.iter().map(|l| ValueBuf::for_bits(l.col.bits())).collect();
        let col = |i: usize| match self.sums[i] {
            SumSource::Leaf(l) => leaf_bufs[l].col_ref(),
            _ => ColRef::U64(&[]),
        };
        let sources = self.lane_sources(&col);
        let leaf = |l| lane_leaf(self, &leaf_bufs, l);
        RowStep::recognize(layout, &sources[..self.sums.len()], &leaf).is_some()
    }

    /// The row builder's sources: sum input `i` as `col(i)`, or its lane
    /// program. Only plans with a layout call it, so there are at most
    /// [`multi::MAX_SOURCES`] inputs.
    fn lane_sources<'s>(
        &'s self,
        col: &dyn Fn(usize) -> ColRef<'s>,
    ) -> [LaneSource<'s>; multi::MAX_SOURCES] {
        let mut sources = [LaneSource::Col(ColRef::U8(&[])); multi::MAX_SOURCES];
        for (i, (out, sum)) in sources.iter_mut().zip(&self.sums).enumerate() {
            *out = match sum {
                SumSource::Lane { program, .. } => LaneSource::Expr(program),
                _ => LaneSource::Col(col(i)),
            };
        }
        sources
    }

    /// Batch-sized value buffers this plan keeps under `strategy`, in bytes
    /// per batch row: the shared leaves, plus one vector per computed sum
    /// unless the row builder evaluates it in its slot lanes, plus the
    /// interpreter's decoded columns and result vectors on the fallback.
    fn value_bytes_per_row(&self, strategy: AggStrategy) -> usize {
        let in_lanes = strategy == AggStrategy::MultiAggregate && self.layout.is_some();
        let leaves: usize = self.leaves.iter().map(|l| packed_bytes(l.col)).sum();
        let computed: usize = (self.sums.iter().zip(&self.widths))
            .map(|(s, &w)| match s {
                SumSource::Leaf(_) => 0,
                SumSource::Lane { .. } if in_lanes => 0,
                SumSource::Lane { .. } => w,
                // Full-batch result plus its compacted copy.
                SumSource::Interp => 16,
            })
            .sum();
        // The interpreter's operand stack is a few more vectors; count two.
        let interp = match self.interp.columns.len() {
            0 => 0,
            n => 8 * (n + 2),
        };
        leaves + computed + interp
    }
}

/// Whether an executor of this shape reads group ids. In-Register over one
/// group with no MIN/MAX input does not: the selection bytes alone say which
/// rows the group holds (DESIGN.md §17), so the scan skips the mapper.
pub fn needs_group_ids(strategy: AggStrategy, num_groups: usize, num_mm_inputs: usize) -> bool {
    !(strategy == AggStrategy::InRegister && num_groups == 1 && num_mm_inputs == 0)
}

/// Reusable per-batch value storage for one input or leaf.
#[derive(Debug, Default)]
enum ValueBuf {
    #[default]
    Empty,
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    I64(Vec<i64>),
}

impl ValueBuf {
    /// An empty buffer of the unpack word for `bits`.
    fn for_bits(bits: u8) -> ValueBuf {
        match WordSize::for_bits(bits) {
            WordSize::W1 => ValueBuf::U8(Vec::new()),
            WordSize::W2 => ValueBuf::U16(Vec::new()),
            WordSize::W4 => ValueBuf::U32(Vec::new()),
            WordSize::W8 => ValueBuf::U64(Vec::new()),
        }
    }

    fn col_ref(&self) -> ColRef<'_> {
        match self {
            ValueBuf::U8(v) => ColRef::U8(v),
            ValueBuf::U16(v) => ColRef::U16(v),
            ValueBuf::U32(v) => ColRef::U32(v),
            ValueBuf::U64(v) => ColRef::U64(v),
            // i64 values reinterpret as u64: two's complement summation is
            // exact given the planner's overflow proof.
            ValueBuf::I64(v) => ColRef::U64(as_u64_slice(v)),
            ValueBuf::Empty => ColRef::U64(&[]),
        }
    }

    /// Fill with the batch's (selected) values of `pv`.
    fn load(&mut self, pv: &PackedVec, batch: &Batch<'_>, spare: &mut Spare, level: SimdLevel) {
        match self {
            ValueBuf::U8(v) => load_packed(v, &mut spare.u8, pv, batch, level),
            ValueBuf::U16(v) => load_packed(v, &mut spare.u16, pv, batch, level),
            ValueBuf::U32(v) => load_packed(v, &mut spare.u32, pv, batch, level),
            ValueBuf::U64(v) => load_packed(v, &mut spare.u64, pv, batch, level),
            #[expect(
                clippy::unreachable,
                reason = "packed inputs and leaves get their unpack word at plan time \
                          (`ValueBuf::for_bits`)"
            )]
            ValueBuf::I64(_) | ValueBuf::Empty => unreachable!("packed buffers are word-typed"),
        }
    }
}

/// Reinterpret an `i64` slice as `u64` (same layout; sums are exact in
/// two's complement).
fn as_u64_slice(v: &[i64]) -> &[u64] {
    // SAFETY: i64 and u64 have identical size and alignment.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u64, v.len()) }
}

/// The toolbox's unpack / gather / compact kernels, by unpack word.
trait Word: Copy + Default {
    fn unpack(pv: &PackedVec, start: usize, out: &mut [Self], level: SimdLevel);
    fn gather(pv: &PackedVec, rows: &[u32], out: &mut [Self], level: SimdLevel);
    fn compact(data: &[Self], sel: &[u8], out: &mut Vec<Self>, level: SimdLevel);
}

macro_rules! impl_word {
    ($ty:ty, $unpack:ident, $gather:ident, $compact:ident) => {
        impl Word for $ty {
            fn unpack(pv: &PackedVec, start: usize, out: &mut [Self], level: SimdLevel) {
                pv.$unpack(start, out, level)
            }
            fn gather(pv: &PackedVec, rows: &[u32], out: &mut [Self], level: SimdLevel) {
                gather::$gather(pv, rows, out, level)
            }
            fn compact(data: &[Self], sel: &[u8], out: &mut Vec<Self>, level: SimdLevel) {
                compact::$compact(data, sel, out, level)
            }
        }
    };
}
impl_word!(u8, unpack_into_u8, gather_unpack_u8, compact_u8);
impl_word!(u16, unpack_into_u16, gather_unpack_u16, compact_u16);
impl_word!(u32, unpack_into_u32, gather_unpack_u32, compact_u32);
impl_word!(u64, unpack_into_u64, gather_unpack_u64, compact_u64);

/// One compaction staging vector per unpack word: compaction writes into
/// it and swaps, so no batch allocates.
#[derive(Debug, Default)]
struct Spare {
    u8: Vec<u8>,
    u16: Vec<u16>,
    u32: Vec<u32>,
    u64: Vec<u64>,
}

/// Materialize the batch's (selected) values of `pv` into `v`.
fn load_packed<T: Word>(
    v: &mut Vec<T>,
    spare: &mut Vec<T>,
    pv: &PackedVec,
    batch: &Batch<'_>,
    level: SimdLevel,
) {
    match batch.rows {
        Rows::Gathered(_, abs_iv) => {
            v.resize(abs_iv.len(), T::default());
            T::gather(pv, abs_iv, v, level);
        }
        Rows::All | Rows::Compacted(_) => {
            // Unpack overwrites every slot; only adjust the length.
            v.resize(batch.len, T::default());
            T::unpack(pv, batch.start, v, level);
            if let Rows::Compacted(sel) = batch.rows {
                T::compact(v, sel, spare, level);
                std::mem::swap(v, spare);
            }
        }
    }
}

/// The batch window and which of its rows the value buffers hold.
#[derive(Debug, Clone, Copy)]
struct Batch<'b> {
    start: usize,
    len: usize,
    rows: Rows<'b>,
}

/// How this batch's rows were selected.
#[derive(Debug, Clone, Copy)]
enum Rows<'b> {
    /// All rows participate (no filter, or special-group fusion).
    All,
    /// Gather selection: the selection byte vector and the selected rows'
    /// absolute segment row ids.
    Gathered(&'b [u8], &'b [u32]),
    /// Physical compaction under this selection byte vector.
    Compacted(&'b [u8]),
}

/// Scratch buffers reused across batches.
#[derive(Debug, Default)]
struct Scratch {
    /// Selection index vector (batch-local row ids).
    iv: SelIndexVec,
    /// Absolute row ids (`start + iv`), for gathers into segment columns.
    abs_iv: Vec<u32>,
    /// Selected group ids.
    gids_sel: Vec<u8>,
    /// The interpreter fallback: decoded columns and one full-batch result
    /// per input.
    interp: ExprEval,
    /// Bucket-sorted batch (sort-based strategy).
    sorted: SortedBatch,
    /// Compaction staging, by unpack word.
    spare: Spare,
}

/// Per-segment aggregate executor.
#[derive(Debug)]
pub struct SegmentAggExecutor<'a> {
    level: SimdLevel,
    strategy: AggStrategy,
    /// Real group count G; slot G is the special group.
    num_groups: usize,
    inputs: Vec<AggInput<'a>>,
    /// MIN/MAX inputs (extension beyond the paper's COUNT/SUM).
    mm_inputs: Vec<AggInput<'a>>,
    /// The scan hands over its segment program's plan at construction.
    /// `Option` because [`SegmentAggExecutor::new`] takes no segment — the
    /// repo benchmark and this module's tests build executors through it —
    /// so such an executor plans on its first batch, which brings one.
    plan: Option<LanePlan<'a>>,
    /// Per-group row counts, length G+1.
    counts: Vec<u64>,
    /// Normalized sums, layout `[input][G+1]`.
    sums: Vec<i64>,
    /// Width-typed min/max accumulators, one per MIN/MAX input.
    mm_accs: Vec<MinMaxAcc>,
    /// Per-leaf batch values, parallel to the plan's leaves.
    leaf_bufs: Vec<ValueBuf>,
    /// Per-input batch value buffers (sums, then MIN/MAX inputs): computed
    /// sums' materialized vectors and every MIN/MAX input's values.
    bufs: Vec<ValueBuf>,
    scratch: Scratch,
    /// The multi-aggregate row builder's state, built on the first batch it
    /// sums (after that batch's buffers): its pending rows belong to `sums`
    /// until [`SegmentAggExecutor::finish`] drains them.
    rows: Option<Box<RowBuilder>>,
}

/// Final per-segment aggregation output (logical domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentAggResult {
    /// Selected-row count per real group, length G.
    pub counts: Vec<u64>,
    /// Logical sums, layout `[input][G]`.
    pub sums: Vec<Vec<i64>>,
    /// Logical minima per MIN/MAX input, layout `[mm_input][G]`
    /// (identity `i64::MAX` for empty groups — callers drop count-0 groups).
    pub mins: Vec<Vec<i64>>,
    /// Logical maxima per MIN/MAX input (identity `i64::MIN` when empty).
    pub maxs: Vec<Vec<i64>>,
}

/// Width-typed min/max accumulators for one MIN/MAX input. Packed inputs
/// accumulate in the normalized unsigned domain (min/max commute with the
/// frame-of-reference shift); computed inputs in logical `i64`.
#[derive(Debug)]
enum MinMaxAcc {
    U8(Vec<u8>, Vec<u8>),
    U16(Vec<u16>, Vec<u16>),
    U32(Vec<u32>, Vec<u32>),
    U64(Vec<u64>, Vec<u64>),
    I64(Vec<i64>, Vec<i64>),
}

impl MinMaxAcc {
    fn new_for(input: &AggInput<'_>, slots: usize) -> MinMaxAcc {
        match input {
            AggInput::Packed(c) => match WordSize::for_bits(c.bits()) {
                WordSize::W1 => MinMaxAcc::U8(vec![u8::MAX; slots], vec![u8::MIN; slots]),
                WordSize::W2 => MinMaxAcc::U16(vec![u16::MAX; slots], vec![u16::MIN; slots]),
                WordSize::W4 => MinMaxAcc::U32(vec![u32::MAX; slots], vec![u32::MIN; slots]),
                WordSize::W8 => MinMaxAcc::U64(vec![u64::MAX; slots], vec![u64::MIN; slots]),
            },
            AggInput::Computed(_) => MinMaxAcc::I64(vec![i64::MAX; slots], vec![i64::MIN; slots]),
        }
    }

    /// Logical (min, max) of group `g`, shifted back by the frame of
    /// reference for packed inputs.
    fn logical(&self, g: usize, reference: i64) -> (i64, i64) {
        match self {
            MinMaxAcc::U8(mins, maxs) => {
                if mins[g] == u8::MAX && maxs[g] == u8::MIN {
                    (i64::MAX, i64::MIN)
                } else {
                    (mins[g] as i64 + reference, maxs[g] as i64 + reference)
                }
            }
            MinMaxAcc::U16(mins, maxs) => {
                if mins[g] == u16::MAX && maxs[g] == u16::MIN {
                    (i64::MAX, i64::MIN)
                } else {
                    (mins[g] as i64 + reference, maxs[g] as i64 + reference)
                }
            }
            MinMaxAcc::U32(mins, maxs) => {
                if mins[g] == u32::MAX && maxs[g] == u32::MIN {
                    (i64::MAX, i64::MIN)
                } else {
                    (mins[g] as i64 + reference, maxs[g] as i64 + reference)
                }
            }
            MinMaxAcc::U64(mins, maxs) => {
                if mins[g] == u64::MAX && maxs[g] == u64::MIN {
                    (i64::MAX, i64::MIN)
                } else {
                    (
                        (mins[g] as i128 + reference as i128) as i64,
                        (maxs[g] as i128 + reference as i128) as i64,
                    )
                }
            }
            MinMaxAcc::I64(mins, maxs) => (mins[g], maxs[g]),
        }
    }
}

impl<'a> SegmentAggExecutor<'a> {
    /// Create an executor for `num_groups` real groups with the chosen
    /// aggregation strategy. The lane plan is built from the first batch's
    /// segment.
    pub fn new(
        strategy: AggStrategy,
        num_groups: usize,
        inputs: Vec<AggInput<'a>>,
        level: SimdLevel,
    ) -> Self {
        Self::with_min_max(strategy, num_groups, inputs, Vec::new(), None, level)
    }

    /// Create an executor that additionally tracks per-group MIN/MAX over
    /// `mm_inputs`, with the segment's lane `plan` when the caller already
    /// built one for these inputs.
    pub fn with_min_max(
        strategy: AggStrategy,
        num_groups: usize,
        inputs: Vec<AggInput<'a>>,
        mm_inputs: Vec<AggInput<'a>>,
        plan: Option<LanePlan<'a>>,
        level: SimdLevel,
    ) -> Self {
        assert!((1..=255).contains(&num_groups), "narrow path supports 1..=255 groups");
        let slots = num_groups + 1;
        let sums = vec![0i64; inputs.len() * slots];
        let mm_accs = mm_inputs.iter().map(|i| MinMaxAcc::new_for(i, slots)).collect();
        let mut exec = SegmentAggExecutor {
            level,
            strategy,
            num_groups,
            inputs,
            mm_inputs,
            plan: None,
            counts: vec![0u64; slots],
            sums,
            mm_accs,
            leaf_bufs: Vec::new(),
            bufs: Vec::new(),
            scratch: Scratch::default(),
            rows: None,
        };
        if let Some(plan) = plan {
            exec.install(plan);
        }
        exec
    }

    /// Adopt `plan` and shape the value buffers it calls for.
    fn install(&mut self, plan: LanePlan<'a>) {
        self.leaf_bufs = plan.leaves.iter().map(|l| ValueBuf::for_bits(l.col.bits())).collect();
        let typed = |max: u64| match lane_width(max) {
            4 => ValueBuf::U32(Vec::new()),
            _ => ValueBuf::U64(Vec::new()),
        };
        let sum_bufs = plan.sums.iter().map(|s| match s {
            SumSource::Leaf(_) => ValueBuf::Empty,
            SumSource::Lane { max, .. } => typed(*max),
            SumSource::Interp => ValueBuf::I64(Vec::new()),
        });
        let mm_bufs = self.mm_inputs.iter().map(|i| match i {
            AggInput::Packed(c) => ValueBuf::for_bits(c.bits()),
            AggInput::Computed(_) => ValueBuf::I64(Vec::new()),
        });
        self.bufs = sum_bufs.chain(mm_bufs).collect();
        self.scratch.interp = plan.interp.clone();
        self.plan = Some(plan);
    }

    /// Projected working-set bytes for an executor of this shape: per-group
    /// accumulators (counts, sums, width-typed min/max pairs), the plan's
    /// batch value buffers, the selection scratch every strategy shares,
    /// and the strategy's own staging. A deliberate estimate (vector
    /// headers and allocator slop are ignored) — the scan charges it to the
    /// memory accountant *before* construction, so a budget violation
    /// surfaces as a typed error instead of an allocation, and the
    /// budget-aware strategy chooser ranks candidates with it.
    pub fn projected_bytes(
        strategy: AggStrategy,
        num_groups: usize,
        plan: &LanePlan<'_>,
        mm_inputs: &[AggInput<'_>],
        batch_rows: usize,
    ) -> usize {
        let slots = num_groups + 1;
        let num_sums = plan.sums.len();
        // counts (u64) + normalized sums (i64 per input).
        let mut bytes = slots * 8 + num_sums * slots * 8;
        let mm_width = |i: &AggInput<'_>| match i {
            AggInput::Packed(c) => packed_bytes(c),
            AggInput::Computed(_) => 8,
        };
        for i in mm_inputs {
            // Width-typed min/max accumulator pair + the batch value buffer.
            bytes += 2 * slots * mm_width(i) + batch_rows * mm_width(i);
        }
        bytes += batch_rows * plan.value_bytes_per_row(strategy);
        // Selection scratch: index vector (u32), absolute row ids (u32),
        // selected group ids (u8), compaction staging (one widest word).
        bytes += batch_rows * (4 + 4 + 1 + 8);
        bytes += match strategy {
            AggStrategy::Scalar | AggStrategy::InRegister => 0,
            // Bucket-sorted batch staging: group-major row ids + values.
            AggStrategy::SortBased => batch_rows * 16,
            // The row builder's state, held for the executor's life: four
            // replicas of 256 accumulator rows, four slot lanes and the
            // lane operand stack, one chunk deep.
            AggStrategy::MultiAggregate => std::mem::size_of::<RowBuilder>(),
            // Run-wise runs in [`RunWiseExec`], whose accumulators are a
            // handful of scalars; nothing beyond what is counted above.
            AggStrategy::RunWise => 0,
        };
        bytes
    }

    /// Process one batch.
    ///
    /// * `gids` — the batch's group ids from the Group ID Mapper (length
    ///   `len`); mutated in place by special-group selection. Not read, and
    ///   may be empty, when the executor's shape [`needs_group_ids`] says no.
    /// * `sel` — canonical selection byte vector with deleted rows merged,
    ///   or `None` when no filter applies (every row selected).
    /// * `selection` — this batch's selection strategy (ignored when `sel`
    ///   is `None`).
    pub fn process_batch(
        &mut self,
        seg: &'a Segment,
        start: usize,
        len: usize,
        gids: &mut [u8],
        sel: Option<&[u8]>,
        selection: SelectionStrategy,
    ) {
        if self.plan.is_none() {
            let plan = LanePlan::build(seg, &self.inputs, &self.mm_inputs);
            self.install(plan);
        }
        let SegmentAggExecutor {
            level,
            strategy,
            num_groups,
            inputs,
            mm_inputs,
            plan,
            counts,
            sums,
            mm_accs,
            leaf_bufs,
            bufs,
            scratch,
            rows: row_builder,
        } = self;
        #[expect(clippy::expect_used, reason = "installed just above when absent")]
        let plan = plan.as_ref().expect("lane plan installed above");
        let (level, strategy) = (*level, *strategy);
        let slots = *num_groups + 1;
        let num_sums = inputs.len();
        let Scratch { iv, abs_iv, gids_sel, interp, sorted, spare } = scratch;
        // One group under In-Register: the selection byte vector already says
        // which rows the group holds, so no group id is written or read.
        // COUNT is the selected rows, each SUM one pass under the mask.
        let one_group = !needs_group_ids(strategy, *num_groups, mm_inputs.len());
        debug_assert!(one_group || gids.len() == len, "{} group ids for {len} rows", gids.len());

        // Fallback only: the interpreter evaluates over the full batch (the
        // generated-code contract of §3: expressions run on decoded data);
        // selection is applied to its results.
        if let ExprPath::Interpreter(_) = plan.path {
            let all = inputs.iter().chain(mm_inputs.iter());
            interp.eval(seg, start, len, all.map(AggInput::computed));
        }

        let rows = match sel {
            None => Rows::All,
            Some(sel) => match selection {
                SelectionStrategy::SpecialGroup => {
                    if !one_group {
                        special_group::assign_special_group_in_place(
                            gids,
                            sel,
                            *num_groups as u8,
                            level,
                        );
                    }
                    Rows::All
                }
                SelectionStrategy::Gather | SelectionStrategy::Compact => {
                    compact::compact_indices(sel, iv, level);
                    if !one_group {
                        compact::compact_u8(gids, sel, gids_sel, level);
                    }
                    if selection == SelectionStrategy::Gather {
                        abs_iv.clear();
                        abs_iv.extend(iv.as_slice().iter().map(|&i| i + start as u32));
                        Rows::Gathered(sel, abs_iv)
                    } else {
                        Rows::Compacted(sel)
                    }
                }
                #[expect(
                    clippy::unreachable,
                    reason = "run-span selection is consumed by the run-wise executor \
                              (`RunWiseExec`); the scan never pairs it with the generic batch \
                              executor"
                )]
                SelectionStrategy::RunSpan => {
                    unreachable!("run-span selection has no dense byte mask")
                }
            },
        };
        let batch = Batch { start, len, rows };
        let gids_eff: &[u8] = match rows {
            Rows::All => gids,
            Rows::Gathered(..) | Rows::Compacted(_) => gids_sel,
        };

        // MIN/MAX inputs materialize their (selected) values under every
        // strategy: their kernels scan positional vectors.
        for (j, input) in mm_inputs.iter().enumerate() {
            let buf = &mut bufs[num_sums + j];
            match input {
                AggInput::Packed(c) => buf.load(c.normalized(), &batch, spare, level),
                AggInput::Computed(_) => {
                    select_interpreted(&mut interp.results[num_sums + j], buf, &batch, spare, level)
                }
            }
        }

        if strategy == AggStrategy::SortBased {
            // Sort-based sums gather from the raw packed columns through
            // sorted batch-local row ids, so computed inputs stay
            // batch-indexed: lane programs run over fully unpacked leaves.
            let full = Batch { start, len, rows: Rows::All };
            for (leaf, buf) in plan.leaves.iter().zip(leaf_bufs.iter_mut()) {
                if leaf.in_expr {
                    buf.load(leaf.col.normalized(), &full, spare, level);
                }
            }
            materialize_lanes(plan, leaf_bufs, &mut bufs[..num_sums], len, level);
            match rows {
                Rows::All => bucket_sort(gids, None, slots, sorted),
                _ => bucket_sort(gids_sel, Some(iv.as_slice()), slots, sorted),
            }
            // The sort's counting pass is the COUNT(*) (§5.2).
            for (c, n) in counts.iter_mut().zip(sorted.counts()) {
                *c += n;
            }
            for (i, source) in plan.sums.iter().enumerate() {
                let sums = &mut sums[i * slots..(i + 1) * slots];
                match (source, &bufs[i]) {
                    (SumSource::Leaf(l), _) => sort_based::sum_sorted_packed(
                        plan.leaves[*l].col.normalized(),
                        sorted,
                        start as u32,
                        sums,
                        level,
                    ),
                    (SumSource::Lane { .. }, ValueBuf::U32(v)) => {
                        sort_based::sum_sorted_u32(v, sorted, sums, level)
                    }
                    (SumSource::Lane { .. }, ValueBuf::U64(v)) => {
                        sort_based::sum_sorted_u64(v, sorted, sums, level)
                    }
                    (SumSource::Interp, _) => {
                        // Full-batch interpreter results, batch-local ids.
                        let values = &interp.results[i];
                        debug_assert_eq!(values.len(), len);
                        sort_based::sum_sorted_i64(values, sorted, sums, level)
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "`install` types lane buffers U32 or U64"
                    )]
                    (SumSource::Lane { .. }, buf) => {
                        unreachable!("lane result buffer {buf:?}")
                    }
                }
            }
            update_min_max(mm_accs, &bufs[num_sums..], gids_eff, slots, level);
            return;
        }

        // One group with every row in play: a bare column sums where it lies
        // (`sum_packed`), so only the leaves a lane program reads unpack.
        let in_place = one_group && matches!(rows, Rows::All);
        for (leaf, buf) in plan.leaves.iter().zip(leaf_bufs.iter_mut()) {
            if !in_place || leaf.in_expr {
                buf.load(leaf.col.normalized(), &batch, spare, level);
            }
        }
        // Rows the value buffers hold.
        let eff_len = match rows {
            Rows::All => len,
            Rows::Gathered(..) | Rows::Compacted(_) => iv.len(),
        };

        // COUNT(*): the selected rows with one group; otherwise in-register
        // when the group domain fits, scalar beyond.
        if one_group {
            counts[0] += match (rows, sel) {
                (Rows::All, Some(sel)) => selvec::count_selected(sel, level),
                _ => eff_len,
            } as u64;
        } else if slots <= bipie_toolbox::agg::MAX_GROUPS_IN_REGISTER {
            in_register::count_groups(gids_eff, slots, counts, level);
        } else {
            scalar::count_multi_array::<4>(gids_eff, counts);
        }

        let in_lanes = strategy == AggStrategy::MultiAggregate && plan.layout.is_some();
        if !in_lanes {
            materialize_lanes(plan, leaf_bufs, &mut bufs[..num_sums], eff_len, level);
        }
        for (i, source) in plan.sums.iter().enumerate() {
            if let SumSource::Interp = source {
                select_interpreted(&mut interp.results[i], &mut bufs[i], &batch, spare, level);
            }
        }
        let leaf_bufs = &*leaf_bufs;
        let bufs = &*bufs;
        // The kernel-facing column of sum input `i`.
        let col = |i: usize| match &plan.sums[i] {
            SumSource::Leaf(l) => leaf_bufs[*l].col_ref(),
            SumSource::Lane { .. } | SumSource::Interp => bufs[i].col_ref(),
        };

        match (strategy, &plan.layout) {
            (AggStrategy::InRegister, _) if one_group => {
                for (i, source) in plan.sums.iter().enumerate() {
                    sums[i * slots] += match (source, rows) {
                        (SumSource::Leaf(l), Rows::All) => {
                            let pv = plan.leaves[*l].col.normalized();
                            packed::sum_packed(pv, start, len, sel, level)
                        }
                        // Full-batch vectors sum under the mask; loaded ones
                        // hold only selected rows.
                        (_, Rows::All) => scalar::sum_selected(col(i), sel),
                        (_, Rows::Gathered(..) | Rows::Compacted(_)) => {
                            scalar::sum_selected(col(i), None)
                        }
                    } as i64;
                }
            }
            (AggStrategy::InRegister, _) => {
                for i in 0..num_sums {
                    let sums = &mut sums[i * slots..(i + 1) * slots];
                    let max = match (&inputs[i], &plan.sums[i]) {
                        (_, SumSource::Lane { max, .. }) => *max,
                        (AggInput::Packed(c), _) => c.normalized_max(),
                        _ => u64::MAX,
                    };
                    match col(i) {
                        // The chooser avoids group domains past the
                        // register file and inputs too wide for 32-bit lane
                        // accumulators; forced-strategy runs stay correct
                        // via the scalar kernel.
                        c if slots > bipie_toolbox::agg::MAX_GROUPS_IN_REGISTER => {
                            scalar::sum_single_array(gids_eff, c, sums)
                        }
                        ColRef::U8(v) => in_register::sum_u8(gids_eff, v, slots, sums, level),
                        ColRef::U16(v) => in_register::sum_u16(gids_eff, v, slots, sums, level),
                        ColRef::U32(v) if max < 1u64 << 31 => {
                            in_register::sum_u32(gids_eff, v, slots, sums, max as u32, level)
                        }
                        c => scalar::sum_single_array(gids_eff, c, sums),
                    }
                }
            }
            (AggStrategy::MultiAggregate, Some(layout)) if num_sums > 0 => {
                let sources = plan.lane_sources(&col);
                let rows = row_builder
                    .get_or_insert_with(|| Box::new(RowBuilder::new(layout, slots, level)));
                multi::sum_lanes(
                    rows,
                    gids_eff,
                    &sources[..num_sums],
                    &|l| lane_leaf(plan, leaf_bufs, l),
                    sums,
                );
            }
            (AggStrategy::Scalar | AggStrategy::MultiAggregate, _) => {
                // The unrolled scalar kernel specializes up to eight
                // columns; feed it eight inputs at a time.
                for first in (0..num_sums).step_by(8) {
                    let k = (num_sums - first).min(8);
                    let mut cols = [ColRef::U8(&[]); 8];
                    for (c, out) in cols.iter_mut().enumerate().take(k) {
                        *out = col(first + c);
                    }
                    scalar::sums_row_at_a_time_unrolled(
                        gids_eff,
                        &cols[..k],
                        slots,
                        &mut sums[first * slots..(first + k) * slots],
                    );
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "the SortBased arm returned earlier in this function"
            )]
            (AggStrategy::SortBased, _) => unreachable!("handled above"),
            #[expect(
                clippy::unreachable,
                reason = "run-wise aggregation runs in `RunWiseExec`; the generic executor is \
                          never constructed with it"
            )]
            (AggStrategy::RunWise, _) => unreachable!("run-wise uses a dedicated executor"),
        }
        update_min_max(mm_accs, &bufs[num_sums..], gids_eff, slots, level);
    }

    /// Finish the segment: drain the row builder's pending rows, apply
    /// frame-of-reference corrections and drop the special-group slot.
    pub fn finish(mut self) -> SegmentAggResult {
        if let Some(rows) = &mut self.rows {
            rows.drain(&mut self.sums);
        }
        let slots = self.num_groups + 1;
        let counts: Vec<u64> = self.counts[..self.num_groups].to_vec();
        let sums = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let norm = &self.sums[i * slots..i * slots + self.num_groups];
                match input {
                    AggInput::Packed(c) => {
                        let r = c.reference();
                        norm.iter().zip(&counts).map(|(&s, &n)| s + r * n as i64).collect()
                    }
                    AggInput::Computed(_) => norm.to_vec(),
                }
            })
            .collect();
        let mut mins = Vec::with_capacity(self.mm_inputs.len());
        let mut maxs = Vec::with_capacity(self.mm_inputs.len());
        for (input, acc) in self.mm_inputs.iter().zip(&self.mm_accs) {
            let reference = match input {
                AggInput::Packed(c) => c.reference(),
                AggInput::Computed(_) => 0,
            };
            let (mn, mx): (Vec<i64>, Vec<i64>) =
                (0..self.num_groups).map(|g| acc.logical(g, reference)).unzip();
            mins.push(mn);
            maxs.push(mx);
        }
        SegmentAggResult { counts, sums, mins, maxs }
    }
}

/// Leaf `l` of the plan as the lane evaluator reads it: this batch's
/// unpacked values, biased back to logical by the frame of reference (which
/// the proof showed non-negative for every leaf a program reads).
fn lane_leaf<'b>(plan: &LanePlan<'_>, leaf_bufs: &'b [ValueBuf], l: usize) -> LaneLeaf<'b> {
    LaneLeaf { col: leaf_bufs[l].col_ref(), bias: plan.leaves[l].col.reference() as u64 }
}

/// Stream every lane-program sum over `len` leaf rows into its typed
/// vector in `bufs` (one fused pass per input, chunk by chunk).
fn materialize_lanes(
    plan: &LanePlan<'_>,
    leaf_bufs: &[ValueBuf],
    bufs: &mut [ValueBuf],
    len: usize,
    level: SimdLevel,
) {
    for (i, source) in plan.sums.iter().enumerate() {
        let SumSource::Lane { program, .. } = source else { continue };
        // Earlier expression results feed CSE references.
        let (done, rest) = bufs.split_at_mut(i);
        let (leaf, prev) = (|l| lane_leaf(plan, leaf_bufs, l), |j: usize| done[j].col_ref());
        match &mut rest[0] {
            ValueBuf::U32(v) => {
                v.resize(len, 0);
                lane::materialize_u32(program, &leaf, &prev, v, level)
            }
            ValueBuf::U64(v) => {
                v.resize(len, 0);
                lane::materialize_u64(program, &leaf, &prev, v, level)
            }
            #[expect(clippy::unreachable, reason = "`install` types lane buffers U32 or U64")]
            buf => unreachable!("lane result buffer {buf:?}"),
        }
    }
}

/// Move one interpreter result into its input's `I64` buffer: handed over
/// whole when every row participates, compacted otherwise.
fn select_interpreted(
    values: &mut Vec<i64>,
    buf: &mut ValueBuf,
    batch: &Batch<'_>,
    spare: &mut Spare,
    level: SimdLevel,
) {
    #[expect(clippy::unreachable, reason = "`install` types interpreter buffers I64")]
    let ValueBuf::I64(v) = buf
    else {
        unreachable!("interpreter result buffer {buf:?}")
    };
    match batch.rows {
        Rows::All => std::mem::swap(values, v),
        Rows::Gathered(sel, _) | Rows::Compacted(sel) => {
            compact::compact_u64(as_u64_slice(values), sel, &mut spare.u64, level);
            v.clear();
            v.extend(spare.u64.iter().map(|&x| x as i64));
        }
    }
}

/// Update the MIN/MAX accumulators from the materialized MIN/MAX inputs.
fn update_min_max(
    mm_accs: &mut [MinMaxAcc],
    bufs: &[ValueBuf],
    gids: &[u8],
    slots: usize,
    level: SimdLevel,
) {
    for (buf, acc) in bufs.iter().zip(mm_accs) {
        match (buf, acc) {
            (ValueBuf::U8(v), MinMaxAcc::U8(mins, maxs)) => {
                minmax::min_max_u8(gids, v, slots, mins, maxs, level)
            }
            (ValueBuf::U16(v), MinMaxAcc::U16(mins, maxs)) => {
                minmax::min_max_scalar_u16(gids, v, mins, maxs)
            }
            (ValueBuf::U32(v), MinMaxAcc::U32(mins, maxs)) => {
                minmax::min_max_scalar_u32(gids, v, mins, maxs)
            }
            (ValueBuf::U64(v), MinMaxAcc::U64(mins, maxs)) => {
                minmax::min_max_scalar_u64(gids, v, mins, maxs)
            }
            (ValueBuf::I64(v), MinMaxAcc::I64(mins, maxs)) => {
                minmax::min_max_scalar_i64(gids, v, mins, maxs)
            }
            #[expect(
                clippy::unreachable,
                reason = "accumulators and buffers are both shaped from the same MIN/MAX input \
                          (`MinMaxAcc::new_for`, `install`), so they cannot diverge"
            )]
            (buf, acc) => {
                unreachable!("mismatched min/max buffer {buf:?} for accumulator {acc:?}")
            }
        }
    }
}

/// Run-wise aggregation executor (DESIGN.md §13): consumes run-granular
/// selections over RLE inputs for single-group (no GROUP BY) queries,
/// touching O(runs) run headers instead of O(rows) values. RLE stores
/// *logical* run values, so unlike [`SegmentAggExecutor::finish`] no
/// frame-of-reference correction applies.
#[derive(Debug)]
pub struct RunWiseExec<'a> {
    sum_cols: Vec<&'a RleColumn>,
    mm_cols: Vec<&'a RleColumn>,
    count: u64,
    sums: Vec<i64>,
    mins: Vec<i64>,
    maxs: Vec<i64>,
}

impl<'a> RunWiseExec<'a> {
    /// An executor summing `sum_cols` and tracking MIN/MAX over `mm_cols`.
    pub fn new(sum_cols: Vec<&'a RleColumn>, mm_cols: Vec<&'a RleColumn>) -> Self {
        let sums = vec![0i64; sum_cols.len()];
        let mins = vec![i64::MAX; mm_cols.len()];
        let maxs = vec![i64::MIN; mm_cols.len()];
        RunWiseExec { sum_cols, mm_cols, count: 0, sums, mins, maxs }
    }

    /// Consume one batch's run-span selection. `start` is the batch's first
    /// segment row; `spans` are batch-relative.
    pub fn process_spans(&mut self, start: usize, spans: &RunSpanVec) {
        self.count += spans.selected_rows() as u64;
        for (i, c) in self.sum_cols.iter().enumerate() {
            self.sums[i] = self.sums[i].wrapping_add(enc_sum_runs_spans(
                c.run_values(),
                c.run_ends(),
                start,
                spans.spans(),
            ));
        }
        for (i, c) in self.mm_cols.iter().enumerate() {
            if let Some((mn, mx)) =
                enc_minmax_runs_spans(c.run_values(), c.run_ends(), start, spans.spans())
            {
                self.mins[i] = self.mins[i].min(mn);
                self.maxs[i] = self.maxs[i].max(mx);
            }
        }
    }

    /// Finish in the same result shape as [`SegmentAggExecutor::finish`]
    /// produces for a single group (empty MIN/MAX groups keep the
    /// identities, exactly as there).
    pub fn finish(self) -> SegmentAggResult {
        SegmentAggResult {
            counts: vec![self.count],
            sums: self.sums.into_iter().map(|s| vec![s]).collect(),
            mins: self.mins.into_iter().map(|m| vec![m]).collect(),
            maxs: self.maxs.into_iter().map(|m| vec![m]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use bipie_columnstore::encoding::EncodingHint;
    use bipie_columnstore::{ColumnSpec, LogicalType, TableBuilder, Value};
    use bipie_toolbox::agg::multi::FLUSH_ROWS;
    use bipie_toolbox::selvec::SelByteVec;

    /// Build a one-segment table: group column g (0..groups), values
    /// v = i * 3 - 50 (signed, exercises frame-of-reference), w = i % 97.
    fn test_segment(rows: usize, groups: i64) -> bipie_columnstore::Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("g", LogicalType::I64).with_hint(EncodingHint::BitPack),
                ColumnSpec::new("v", LogicalType::I64).with_hint(EncodingHint::BitPack),
                ColumnSpec::new("w", LogicalType::I64).with_hint(EncodingHint::BitPack),
            ],
            1 << 20,
        );
        for i in 0..rows as i64 {
            b.push_row(vec![
                Value::I64((i * 7 + i / 11) % groups),
                Value::I64(i * 3 - 50),
                Value::I64(i % 97),
            ]);
        }
        b.finish()
    }

    /// Oracle: counts and sums for selected rows.
    fn oracle(
        rows: usize,
        groups: usize,
        keep: impl Fn(usize) -> bool,
        exprs: &[&dyn Fn(i64, i64) -> i64],
    ) -> (Vec<u64>, Vec<Vec<i64>>) {
        let mut counts = vec![0u64; groups];
        let mut sums = vec![vec![0i64; groups]; exprs.len()];
        for i in 0..rows as i64 {
            if !keep(i as usize) {
                continue;
            }
            let g = ((i * 7 + i / 11) % groups as i64) as usize;
            counts[g] += 1;
            let v = i * 3 - 50;
            let w = i % 97;
            for (e, f) in exprs.iter().enumerate() {
                sums[e][g] += f(v, w);
            }
        }
        (counts, sums)
    }

    fn run_combo(
        rows: usize,
        groups: usize,
        agg: AggStrategy,
        selection: SelectionStrategy,
        with_filter: bool,
        with_expr: bool,
    ) -> SegmentAggResult {
        let table = test_segment(rows, groups as i64);
        let seg = &table.segments()[0];
        let level = SimdLevel::detect();
        let packed_v = match seg.column(1) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!("expected bitpack"),
        };
        let packed_w = match seg.column(2) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!("expected bitpack"),
        };
        let mut inputs = vec![AggInput::Packed(packed_v), AggInput::Packed(packed_w)];
        if with_expr {
            // w * (100 - w): a Q1-shaped computed expression.
            let e = Expr::col("w")
                .mul(Expr::lit(100).sub(Expr::col("w")))
                .resolve(&|name| table.column_index(name))
                .unwrap();
            inputs.push(AggInput::Computed(e));
        }
        let mut exec = SegmentAggExecutor::new(agg, groups, inputs, level);
        // Group ids straight from the bitpack normalized domain.
        let gcol = match seg.column(0) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!("expected bitpack"),
        };
        for batch in bipie_columnstore::BatchCursor::with_batch_rows(rows, 1000) {
            let mut gids = vec![0u8; batch.len];
            gcol.normalized().unpack_into_u8(batch.start, &mut gids, level);
            if with_filter {
                let sel = SelByteVec::from_bools(
                    &(0..batch.len).map(|k| (batch.start + k) % 5 != 2).collect::<Vec<_>>(),
                );
                exec.process_batch(
                    seg,
                    batch.start,
                    batch.len,
                    &mut gids,
                    Some(sel.as_bytes()),
                    selection,
                );
            } else {
                exec.process_batch(seg, batch.start, batch.len, &mut gids, None, selection);
            }
        }
        exec.finish()
    }

    #[test]
    fn all_strategy_combinations_agree_with_oracle() {
        let rows = 5000;
        // One group takes In-Register's group-id-free path.
        for groups in [1, 6] {
            for with_filter in [false, true] {
                let keep = |i: usize| !with_filter || i % 5 != 2;
                let (counts, sums) =
                    oracle(rows, groups, keep, &[&|v, _| v, &|_, w| w, &|_, w| w * (100 - w)]);
                for agg in AggStrategy::DENSE {
                    for selection in SelectionStrategy::DENSE {
                        let r = run_combo(rows, groups, agg, selection, with_filter, true);
                        let cell = format!("{agg:?}+{selection:?} groups={groups} {with_filter}");
                        assert_eq!(r.counts, counts, "{cell}");
                        assert_eq!(r.sums, sums, "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn count_only_queries() {
        let rows = 3000;
        let groups = 4;
        let table = test_segment(rows, groups as i64);
        let seg = &table.segments()[0];
        let level = SimdLevel::detect();
        let gcol = match seg.column(0) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!(),
        };
        let mut exec = SegmentAggExecutor::new(AggStrategy::InRegister, groups, vec![], level);
        let mut gids = vec![0u8; rows];
        gcol.normalized().unpack_into_u8(0, &mut gids, level);
        exec.process_batch(seg, 0, rows, &mut gids, None, SelectionStrategy::SpecialGroup);
        let r = exec.finish();
        let (counts, _) = oracle(rows, groups, |_| true, &[]);
        assert_eq!(r.counts, counts);
        assert!(r.sums.is_empty());
    }

    #[test]
    fn run_wise_executor_matches_row_oracle() {
        // RLE column with mixed run lengths; span selection keeps rows whose
        // value is even. Batched consumption must equal the per-row oracle.
        let values: Vec<i64> = (0..40i64)
            .flat_map(|r| std::iter::repeat_n((r % 7) - 3, 17 + (r as usize % 5)))
            .collect();
        let col = RleColumn::encode(&values);
        let mut exec = RunWiseExec::new(vec![&col], vec![&col]);
        let batch = 100;
        let mut start = 0usize;
        while start < values.len() {
            let len = batch.min(values.len() - start);
            let mut spans = RunSpanVec::new();
            let mut row = start;
            while row < start + len {
                if values[row] % 2 == 0 {
                    spans.push((row - start) as u32, 1);
                }
                row += 1;
            }
            exec.process_spans(start, &spans);
            start += len;
        }
        let r = exec.finish();
        let kept: Vec<i64> = values.iter().copied().filter(|v| v % 2 == 0).collect();
        assert_eq!(r.counts, vec![kept.len() as u64]);
        assert_eq!(r.sums, vec![vec![kept.iter().sum::<i64>()]]);
        assert_eq!(r.mins, vec![vec![*kept.iter().min().unwrap()]]);
        assert_eq!(r.maxs, vec![vec![*kept.iter().max().unwrap()]]);
    }

    #[test]
    fn empty_selection_batches() {
        let rows = 1000;
        let groups = 3;
        let table = test_segment(rows, groups as i64);
        let seg = &table.segments()[0];
        let level = SimdLevel::detect();
        let gcol = match seg.column(0) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!(),
        };
        let packed_v = match seg.column(1) {
            bipie_columnstore::encoding::EncodedColumn::BitPack(c) => c,
            _ => panic!(),
        };
        for selection in SelectionStrategy::DENSE {
            let mut exec = SegmentAggExecutor::new(
                AggStrategy::Scalar,
                groups,
                vec![AggInput::Packed(packed_v)],
                level,
            );
            let mut gids = vec![0u8; rows];
            gcol.normalized().unpack_into_u8(0, &mut gids, level);
            let sel = SelByteVec::none(rows);
            exec.process_batch(seg, 0, rows, &mut gids, Some(sel.as_bytes()), selection);
            let r = exec.finish();
            assert!(r.counts.iter().all(|&c| c == 0), "{selection:?}");
            assert!(r.sums[0].iter().all(|&s| s == 0), "{selection:?}");
        }
    }

    // ---- lane plan vs interpreter vs row oracle (DESIGN.md §17) ----

    /// One generator case: three bit-packed value columns with the given
    /// inclusive ranges (extremes always present), the SUM expressions over
    /// them, and the path the proof must choose.
    struct LaneCase {
        name: &'static str,
        rows: usize,
        batch: usize,
        /// One group and every value at its range's top (bar a lone bottom
        /// row): the densest accumulation the slots can see.
        saturated: bool,
        ranges: [(i64, i64); 3],
        exprs: Vec<Expr>,
        expect: ExprPath,
    }

    fn col(name: &str) -> Expr {
        Expr::col(name)
    }

    /// A sum tree `levels` non-leaf levels deep over `(a + b)` leaves: needs
    /// `levels + 1` operand-stack slots.
    fn deep_sum(levels: usize) -> Expr {
        match levels {
            0 => col("a").add(col("b")),
            _ => deep_sum(levels - 1).add(deep_sum(levels - 1)),
        }
    }

    fn lane_cases() -> Vec<LaneCase> {
        let q1 = || col("a").mul(Expr::lit(100).sub(col("b")));
        let case = |name, ranges, exprs, expect| LaneCase {
            name,
            rows: 3000,
            batch: 1000,
            saturated: false,
            ranges,
            exprs,
            expect,
        };
        let reject = ExprPath::Interpreter;
        vec![
            case(
                "q1 shape with CSE",
                [(90_000, 10_000_000), (0, 10), (0, 8)],
                vec![col("b"), q1(), q1().mul(Expr::lit(100).add(col("c"))), col("a")],
                ExprPath::Lanes,
            ),
            case(
                "multiplicand at 2^32 - 1",
                [(0, u32::MAX as i64), (0, 3), (0, 1)],
                vec![col("a").mul(col("b"))],
                ExprPath::Lanes,
            ),
            case(
                "multiplicand at 2^32",
                [(0, 1 << 32), (0, 3), (0, 1)],
                vec![col("a").mul(col("b"))],
                reject(LaneReject::WideMultiplicand),
            ),
            case(
                "product exactly fills u32",
                [(0, 65_535), (0, 65_537), (0, 1)],
                vec![col("a").mul(col("b")), col("c")],
                ExprPath::Lanes,
            ),
            case(
                "product one past u32",
                [(0, 65_536), (0, 65_536), (0, 1)],
                vec![col("a").mul(col("b")), col("c")],
                ExprPath::Lanes,
            ),
            case(
                "leaf and difference touching zero",
                [(0, 1000), (0, 100), (5, 9)],
                vec![col("a").add(col("c")).mul(Expr::lit(100).sub(col("b")))],
                ExprPath::Lanes,
            ),
            case(
                "negative frame of reference",
                [(-1, 1000), (0, 100), (5, 9)],
                vec![col("a").add(col("c")).mul(Expr::lit(100).sub(col("b")))],
                reject(LaneReject::NegativeRange),
            ),
            case(
                "difference reaching below zero",
                [(0, 1000), (0, 101), (5, 9)],
                vec![col("a").mul(Expr::lit(100).sub(col("b")))],
                reject(LaneReject::NegativeRange),
            ),
            case(
                "column-free expression in lanes",
                [(0, 9), (0, 9), (0, 9)],
                vec![Expr::lit(7).mul(Expr::lit(3)), col("a")],
                ExprPath::Lanes,
            ),
            case(
                "column-free expressions on the interpreter",
                [(0, 9), (0, 9), (0, 9)],
                vec![Expr::lit(7).mul(Expr::lit(3)), Expr::lit(2).sub(Expr::lit(5))],
                reject(LaneReject::NegativeRange),
            ),
            case(
                "deepest program the lanes hold",
                [(0, 1000), (0, 40_000), (0, 1)],
                vec![deep_sum(lane::MAX_DEPTH - 1)],
                ExprPath::Lanes,
            ),
            case(
                "one level too deep",
                [(0, 1000), (0, 40_000), (0, 1)],
                vec![deep_sum(lane::MAX_DEPTH)],
                reject(LaneReject::TooDeep),
            ),
            LaneCase {
                name: "one batch across the 65 536-row slot flush",
                rows: FLUSH_ROWS + 4500,
                batch: FLUSH_ROWS + 4500,
                saturated: true,
                ranges: [(0, 65_535), (200, 455), (0, 65_535)],
                exprs: vec![col("c"), col("a").mul(col("a")), col("b"), col("c")],
                expect: ExprPath::Lanes,
            },
            LaneCase {
                // The row builder keeps rows pending across batches: two
                // full flush windows of 4 096-row batches, and a segment
                // that ends inside the third. `c` twice is u16::MAX in both
                // 4-byte halves of one lane.
                name: "4 096-row batches across two slot flushes, ending mid-window",
                rows: 2 * FLUSH_ROWS + 4500,
                batch: 4096,
                saturated: true,
                ranges: [(0, 65_535), (200, 455), (0, 65_535)],
                exprs: vec![col("c"), col("a").mul(col("b")), col("c")],
                expect: ExprPath::Lanes,
            },
        ]
    }

    fn lane_table(case: &LaneCase) -> bipie_columnstore::Table {
        let spec = |n: &str| ColumnSpec::new(n, LogicalType::I64).with_hint(EncodingHint::BitPack);
        let mut b = TableBuilder::with_segment_rows(
            vec![spec("g"), spec("a"), spec("b"), spec("c")],
            1 << 20,
        );
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..case.rows {
            let g =
                if case.saturated { (i == 0) as i64 } else { (i as i64 * 7 + i as i64 / 11) % 5 };
            let mut row = vec![Value::I64(g)];
            for (k, &(lo, hi)) in case.ranges.iter().enumerate() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let span = (hi - lo) as u64 + 1;
                // Both extremes of every range are present.
                let v = match (i + k) % 97 {
                    _ if case.saturated => [hi, lo][(i == 0) as usize],
                    0 => lo,
                    1 => hi,
                    _ => lo + ((state >> 20) % span) as i64,
                };
                row.push(Value::I64(v));
            }
            b.push_row(row);
        }
        b.finish()
    }

    fn packed(seg: &Segment, c: usize) -> &ForBitPackColumn {
        match seg.column(c) {
            EncodedColumn::BitPack(c) => c,
            other => panic!("expected bitpack, got {other:?}"),
        }
    }

    /// The case's SUM list as the scan plans it: CSE-resolved together, bare
    /// bit-packed columns as `Packed`.
    fn lane_inputs<'t>(case: &LaneCase, table: &'t bipie_columnstore::Table) -> Vec<AggInput<'t>> {
        let seg = &table.segments()[0];
        let exprs: Vec<&Expr> = case.exprs.iter().collect();
        let resolved = crate::expr::resolve_many(&exprs, &|name| table.column_index(name)).unwrap();
        resolved.iter().map(|e| AggInput::plan(seg, e)).collect()
    }

    /// Run one (strategy, selection, level) cell of `case`, with the lane
    /// plan the proof picks or — `interpreted` — with the fallback forced.
    #[allow(clippy::too_many_arguments, reason = "one argument per axis of the test matrix")]
    fn run_lane_cell(
        case: &LaneCase,
        table: &bipie_columnstore::Table,
        agg: AggStrategy,
        selection: SelectionStrategy,
        with_filter: bool,
        level: SimdLevel,
        interpreted: bool,
    ) -> (SegmentAggResult, ExprPath) {
        let seg = &table.segments()[0];
        let inputs = lane_inputs(case, table);
        let plan = if interpreted {
            let forced = ExprPath::Interpreter(LaneReject::NegativeRange);
            LanePlan::assemble(seg, &inputs, &[], forced).unwrap()
        } else {
            LanePlan::build(seg, &inputs, &[])
        };
        let path = plan.expr_path();
        let mut exec = SegmentAggExecutor::with_min_max(agg, 5, inputs, vec![], Some(plan), level);
        for batch in bipie_columnstore::BatchCursor::with_batch_rows(case.rows, case.batch) {
            let mut gids = vec![0u8; batch.len];
            packed(seg, 0).normalized().unpack_into_u8(batch.start, &mut gids, level);
            let sel = SelByteVec::from_bools(
                &(0..batch.len).map(|k| (batch.start + k) % 5 != 2).collect::<Vec<_>>(),
            );
            let sel = with_filter.then(|| sel.as_bytes());
            exec.process_batch(seg, batch.start, batch.len, &mut gids, sel, selection);
        }
        (exec.finish(), path)
    }

    /// Row-at-a-time oracle for `case` through `ResolvedExpr::eval_row`.
    fn lane_oracle(
        case: &LaneCase,
        table: &bipie_columnstore::Table,
        with_filter: bool,
    ) -> (Vec<u64>, Vec<Vec<i64>>) {
        let seg = &table.segments()[0];
        let resolved: Vec<ResolvedExpr> = case
            .exprs
            .iter()
            .map(|e| e.resolve(&|name| table.column_index(name)).unwrap())
            .collect();
        let mut cols = vec![vec![0i64; case.rows]; 4];
        for (c, out) in cols.iter_mut().enumerate() {
            seg.column(c).decode_i64_with(0, out, &mut Vec::new());
        }
        let mut counts = vec![0u64; 5];
        let mut sums = vec![vec![0i64; 5]; resolved.len()];
        for i in (0..case.rows).filter(|i| !with_filter || i % 5 != 2) {
            let g = cols[0][i] as usize;
            counts[g] += 1;
            for (e, sum) in resolved.iter().zip(&mut sums) {
                sum[g] += e.eval_row(&|c| cols[c][i]);
            }
        }
        (counts, sums)
    }

    #[test]
    fn lane_plan_interpreter_and_oracle_agree_at_the_proof_boundaries() {
        for case in lane_cases() {
            let table = lane_table(&case);
            // The flush-boundary cases are about the row builder.
            let strategies: &[AggStrategy] = match case.rows > FLUSH_ROWS {
                true => &[AggStrategy::MultiAggregate],
                false => &AggStrategy::DENSE,
            };
            for with_filter in [false, true] {
                let (counts, sums) = lane_oracle(&case, &table, with_filter);
                for level in SimdLevel::available() {
                    for &agg in strategies {
                        for selection in SelectionStrategy::DENSE {
                            let cell = format!(
                                "{}: {agg:?}+{selection:?} filter={with_filter} {level}",
                                case.name
                            );
                            let (typed, path) = run_lane_cell(
                                &case,
                                &table,
                                agg,
                                selection,
                                with_filter,
                                level,
                                false,
                            );
                            assert_eq!(path, case.expect, "{cell}");
                            let (interp, forced) = run_lane_cell(
                                &case,
                                &table,
                                agg,
                                selection,
                                with_filter,
                                level,
                                true,
                            );
                            assert!(matches!(forced, ExprPath::Interpreter(_)), "{cell}");
                            assert_eq!(typed, interp, "{cell}");
                            assert_eq!(typed.counts, counts, "{cell}");
                            assert_eq!(typed.sums, sums, "{cell}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_plan_shares_leaves_and_reports_proven_widths() {
        let case = &lane_cases()[0];
        let table = lane_table(case);
        let seg = &table.segments()[0];
        let inputs = lane_inputs(case, &table);
        let plan = LanePlan::build(seg, &inputs, &[]);
        // b, a*(100-b), that*(100+c), a: three leaves, each unpacked once.
        assert_eq!(plan.leaves.len(), 3);
        // disc_price <= 10^9 fits u32; charge does not.
        assert_eq!(plan.input_bytes(), &[1, 4, 8, 4]);
        assert!(plan.multi_layout_fits());
        // No i64 batch vectors: the projected working set shrinks against
        // the interpreter plan for the same inputs.
        let forced = ExprPath::Interpreter(LaneReject::NegativeRange);
        let interp = LanePlan::assemble(seg, &inputs, &[], forced).unwrap();
        assert_eq!(interp.input_bytes(), &[1, 8, 8, 4]);
        for strategy in AggStrategy::DENSE {
            let bytes =
                |p: &LanePlan<'_>| SegmentAggExecutor::projected_bytes(strategy, 5, p, &[], 4096);
            assert!(bytes(&plan) < bytes(&interp), "{strategy:?}");
        }
        // A computed MIN/MAX input keeps the whole segment on the interpreter.
        let mm = lane_inputs(case, &table).split_off(1);
        let with_mm = LanePlan::build(seg, &inputs, &mm);
        assert_eq!(with_mm.expr_path(), ExprPath::Interpreter(LaneReject::ComputedMinMax));
    }
}
