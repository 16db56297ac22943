//! The Filter component (§3, §4).
//!
//! "The filter component evaluates the filter expression on a columnar-
//! oriented batch of records, combines the result with information about
//! deleted records, and produces a selection vector indicating which
//! records are selected by the query."
//!
//! Filters here are conjunctions of column-vs-constant comparisons (the
//! ad-hoc analytical shape, e.g. Q1's `l_shipdate <= DATE '1998-09-02'`).
//! A predicate meets a segment's encodings and metadata exactly once, in
//! [`ResolvedPredicate::compile`], which answers three things
//! (DESIGN.md §13):
//!
//! * **eliminated** — a conjunct whose translated constant falls outside
//!   the segment's min/max (or dictionary) proves no row matches (§2.1);
//! * a **row range** — every interval conjunct over a sorted column is two
//!   partition points, and the scan never leaves their intersection;
//! * **residual batch kernels** that work **on encoded data**: bit-packed
//!   columns compare normalized (frame-of-reference) values against the
//!   translated constant; dictionary columns (string or integer) compare
//!   codes, a conjunction over one of them as a single membership table;
//!   RLE columns compare once per run; other encodings decode to `i64`.
//!
//! A conjunct that metadata or the row range answers exactly is dropped.

use std::ops::Range;

use bipie_columnstore::encoding::{EncodedColumn, RleColumn};
use bipie_columnstore::{LogicalType, Segment, Table, Value};
use bipie_toolbox::bitpack::{PackedVec, WordSize};
use bipie_toolbox::cmp::{self, CmpOp};
use bipie_toolbox::runspan::{enc_filter_codes_bitset, enc_intersect_spans};
use bipie_toolbox::selvec::{REJECTED, SELECTED};
use bipie_toolbox::{RunSpanVec, SimdLevel};

use crate::error::{EngineError, Result};

/// A filter predicate over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column OP value`.
    Cmp {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: Value,
    },
    /// `lo <= column <= hi` (integer-like columns only).
    Between {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
}

macro_rules! cmp_ctor {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        pub fn $name(column: impl Into<String>, value: Value) -> Predicate {
            Predicate::Cmp { column: column.into(), op: $op, value }
        }
    };
}

impl Predicate {
    cmp_ctor!(
        /// `column == value`
        eq,
        CmpOp::Eq
    );
    cmp_ctor!(
        /// `column != value`
        ne,
        CmpOp::Ne
    );
    cmp_ctor!(
        /// `column < value`
        lt,
        CmpOp::Lt
    );
    cmp_ctor!(
        /// `column <= value`
        le,
        CmpOp::Le
    );
    cmp_ctor!(
        /// `column > value`
        gt,
        CmpOp::Gt
    );
    cmp_ctor!(
        /// `column >= value`
        ge,
        CmpOp::Ge
    );

    /// `lo <= column <= hi` (inclusive).
    pub fn between(column: impl Into<String>, lo: Value, hi: Value) -> Predicate {
        Predicate::Between { column: column.into(), lo, hi }
    }

    /// Conjunction of predicates.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        Predicate::And(preds)
    }

    /// Resolve names and type-check against a table schema.
    pub fn resolve(&self, table: &Table) -> Result<ResolvedPredicate> {
        Ok(ResolvedPredicate { node: self.resolve_node(table)? })
    }

    fn resolve_node(&self, table: &Table) -> Result<PNode> {
        match self {
            Predicate::Cmp { column, op, value } => {
                let col = table
                    .column_index(column)
                    .ok_or_else(|| EngineError::UnknownColumn(column.clone()))?;
                let ty = table.specs()[col].ty;
                match (ty, value) {
                    (LogicalType::Str, Value::Str(s)) => {
                        Ok(PNode::StrCmp { col, op: *op, value: s.as_ref().to_owned() })
                    }
                    (LogicalType::Str, _) | (_, Value::Str(_)) => Err(EngineError::TypeMismatch {
                        column: column.clone(),
                        detail: "string/integer comparison".into(),
                    }),
                    (_, v) => {
                        if v.logical_type() != ty {
                            return Err(EngineError::TypeMismatch {
                                column: column.clone(),
                                detail: format!(
                                    "column is {:?}, constant is {:?}",
                                    ty,
                                    v.logical_type()
                                ),
                            });
                        }
                        #[expect(
                            clippy::unwrap_used,
                            reason = "the type-mismatch branch just above already rejected \
                                      non-integer-like constants"
                        )]
                        let c = v.as_storage_i64().unwrap();
                        Ok(PNode::Int { col, cmp: LogicalCmp::Cmp(*op, c) })
                    }
                }
            }
            Predicate::Between { column, lo, hi } => {
                let col = table
                    .column_index(column)
                    .ok_or_else(|| EngineError::UnknownColumn(column.clone()))?;
                let ty = table.specs()[col].ty;
                let (lo, hi) = match (lo.as_storage_i64(), hi.as_storage_i64()) {
                    (Some(lo), Some(hi)) if ty.is_integerlike() => (lo, hi),
                    _ => {
                        return Err(EngineError::TypeMismatch {
                            column: column.clone(),
                            detail: "BETWEEN requires an integer-like column".into(),
                        })
                    }
                };
                Ok(PNode::Int { col, cmp: LogicalCmp::Between(lo, hi) })
            }
            Predicate::And(preds) => {
                let nodes: Result<Vec<PNode>> =
                    preds.iter().map(|p| p.resolve_node(table)).collect();
                Ok(PNode::And(nodes?))
            }
        }
    }

    /// Row-level evaluation against logical values (the oracle executor).
    pub fn eval_row(&self, value_of: &impl Fn(&str) -> Value) -> bool {
        match self {
            Predicate::Cmp { column, op, value } => {
                let v = value_of(column);
                match (&v, value) {
                    (Value::Str(a), Value::Str(b)) => op.eval(&**a, &**b),
                    #[expect(
                        clippy::expect_used,
                        reason = "plan construction rejected mixed string / integer comparisons, \
                                  so both sides are integer-like"
                    )]
                    _ => op.eval(
                        v.as_storage_i64().expect("typed"),
                        value.as_storage_i64().expect("typed"),
                    ),
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "BETWEEN is integer-only by construction: plan compilation rejects string \
                          bounds"
            )]
            Predicate::Between { column, lo, hi } => {
                let v = value_of(column).as_storage_i64().expect("typed");
                v >= lo.as_storage_i64().expect("typed") && v <= hi.as_storage_i64().expect("typed")
            }
            Predicate::And(preds) => preds.iter().all(|p| p.eval_row(value_of)),
        }
    }
}

#[derive(Debug, Clone)]
enum PNode {
    Int { col: usize, cmp: LogicalCmp },
    StrCmp { col: usize, op: CmpOp, value: String },
    And(Vec<PNode>),
}

/// A predicate resolved against a table schema.
#[derive(Debug, Clone)]
pub struct ResolvedPredicate {
    node: PNode,
}

/// Reusable scratch buffers for filter evaluation.
#[derive(Debug, Default)]
pub struct FilterScratch {
    u8_buf: Vec<u8>,
    u16_buf: Vec<u16>,
    u32_buf: Vec<u32>,
    u64_buf: Vec<u64>,
    i64_buf: Vec<i64>,
    tmp_sel: Vec<u8>,
    /// Span scratch for run-span evaluation of conjunctions.
    tmp_spans: Vec<RunSpanVec>,
}

/// Outcome of translating a comparison into a bounded unsigned domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DomainCmp {
    /// Every row matches.
    All,
    /// No row matches.
    None,
    /// Compare against the translated constant.
    Cmp(CmpOp, u64),
    /// Inclusive range in the translated domain.
    Between(u64, u64),
}

impl DomainCmp {
    /// Whether the comparison accepts translated value `v`.
    fn matches(self, v: u64) -> bool {
        match self {
            DomainCmp::All => true,
            DomainCmp::None => false,
            DomainCmp::Cmp(op, c) => op.eval(v, c),
            DomainCmp::Between(lo, hi) => v >= lo && v <= hi,
        }
    }
}

/// Translate `x OP c` (logical) into the normalized domain `[0, range]`
/// where `normalized = logical - reference`.
fn translate_cmp(op: CmpOp, c: i64, reference: i64, range: u64) -> DomainCmp {
    let cn = c as i128 - reference as i128;
    if cn < 0 {
        match op {
            CmpOp::Eq | CmpOp::Lt | CmpOp::Le => DomainCmp::None,
            CmpOp::Ne | CmpOp::Gt | CmpOp::Ge => DomainCmp::All,
        }
    } else if cn > range as i128 {
        cmp_above_domain(op)
    } else {
        DomainCmp::Cmp(op, cn as u64)
    }
}

/// `x OP c` for a constant above every value `x` can take.
fn cmp_above_domain(op: CmpOp) -> DomainCmp {
    match op {
        CmpOp::Eq | CmpOp::Gt | CmpOp::Ge => DomainCmp::None,
        CmpOp::Ne | CmpOp::Lt | CmpOp::Le => DomainCmp::All,
    }
}

/// Translate `lo <= x <= hi` (logical) into the normalized domain.
fn translate_between(lo: i64, hi: i64, reference: i64, range: u64) -> DomainCmp {
    let lon = (lo as i128 - reference as i128).max(0);
    let hin = (hi as i128 - reference as i128).min(range as i128);
    if lon > hin {
        DomainCmp::None
    } else if lon == 0 && hin == range as i128 {
        DomainCmp::All
    } else {
        DomainCmp::Between(lon as u64, hin as u64)
    }
}

/// Translate a string comparison into the sorted-dictionary code domain.
fn translate_str_cmp<T: Ord + ?Sized>(
    op: CmpOp,
    value: &T,
    dict_iter: impl Fn(&T) -> (usize, Option<usize>), // (partition points) see below
) -> DomainCmp {
    // dict_iter returns (k_lt, exact): k_lt = #entries < value, exact = code
    // of an exact match if present.
    let (k_lt, exact) = dict_iter(value);
    match op {
        CmpOp::Eq => match exact {
            Some(code) => DomainCmp::Cmp(CmpOp::Eq, code as u64),
            None => DomainCmp::None,
        },
        CmpOp::Ne => match exact {
            Some(code) => DomainCmp::Cmp(CmpOp::Ne, code as u64),
            None => DomainCmp::All,
        },
        // x < value  <=>  code < k_lt
        CmpOp::Lt => threshold_lt(k_lt),
        // x <= value <=>  code < k_lt + (exact ? 1 : 0)
        CmpOp::Le => threshold_lt(k_lt + exact.map_or(0, |_| 1)),
        // x >= value <=>  code >= k_lt
        CmpOp::Ge => threshold_ge(k_lt),
        // x > value  <=>  code >= k_lt + (exact ? 1 : 0)
        CmpOp::Gt => threshold_ge(k_lt + exact.map_or(0, |_| 1)),
    }
}

fn threshold_lt(k: usize) -> DomainCmp {
    if k == 0 {
        DomainCmp::None
    } else {
        DomainCmp::Cmp(CmpOp::Lt, k as u64)
    }
}

fn threshold_ge(k: usize) -> DomainCmp {
    if k == 0 {
        DomainCmp::All
    } else {
        DomainCmp::Cmp(CmpOp::Ge, k as u64)
    }
}

fn str_domain_cmp(dict: &[String], op: CmpOp, value: &str) -> DomainCmp {
    translate_str_cmp(op, value, |v: &str| {
        let k_lt = dict.partition_point(|d| d.as_str() < v);
        let exact = (k_lt < dict.len() && dict[k_lt] == v).then_some(k_lt);
        (k_lt, exact)
    })
}

/// A comparison in the logical `i64` domain, before encoding translation.
#[derive(Debug, Clone, Copy)]
enum LogicalCmp {
    Cmp(CmpOp, i64),
    Between(i64, i64),
}

impl LogicalCmp {
    /// Row-level evaluation in the logical domain (run-wise paths compare
    /// one run *value* instead of every row).
    fn matches(self, v: i64) -> bool {
        match self {
            LogicalCmp::Cmp(op, c) => op.eval(v, c),
            LogicalCmp::Between(lo, hi) => v >= lo && v <= hi,
        }
    }

    /// Translate into a frame-of-reference normalized domain `[0, range]`.
    fn to_normalized(self, reference: i64, range: u64) -> DomainCmp {
        match self {
            LogicalCmp::Cmp(op, c) => translate_cmp(op, c, reference, range),
            LogicalCmp::Between(lo, hi) => translate_between(lo, hi, reference, range),
        }
    }

    /// Translate into a sorted-integer-dictionary code domain.
    fn to_code_domain(self, dict: &[i64]) -> DomainCmp {
        match self {
            LogicalCmp::Cmp(op, c) => translate_str_cmp(op, &c, |v: &i64| {
                let k_lt = dict.partition_point(|d| d < v);
                let exact = (k_lt < dict.len() && dict[k_lt] == *v).then_some(k_lt);
                (k_lt, exact)
            }),
            LogicalCmp::Between(lo, hi) => {
                // codes in [#entries < lo, #entries <= hi)
                let k_lo = dict.partition_point(|d| *d < lo);
                let k_hi = dict.partition_point(|d| *d <= hi);
                if k_lo >= k_hi {
                    DomainCmp::None
                } else if k_lo == 0 && k_hi == dict.len() {
                    DomainCmp::All
                } else {
                    DomainCmp::Between(k_lo as u64, k_hi as u64 - 1)
                }
            }
        }
    }
}

impl ResolvedPredicate {
    /// Compile the predicate against one segment: the one place where it
    /// meets the segment's encodings and metadata. The result borrows only
    /// the segment; it is immutable, so every worker scanning the segment
    /// shares one by reference and brings its own [`FilterScratch`].
    pub fn compile<'a>(&self, seg: &'a Segment) -> SegmentPredicate<'a> {
        let mut compiled = SegmentPredicate { rows: 0..seg.num_rows(), kernels: Vec::new() };
        let mut dict_conjuncts = Vec::new();
        compiled.add(&self.node, seg, &mut dict_conjuncts);
        for (col, dcs) in &dict_conjuncts {
            compiled.add_dict(seg, *col, dcs);
        }
        if compiled.rows.is_empty() {
            compiled.reject_all();
        }
        compiled
    }

    /// True if segment metadata proves no row can match (§2.1 segment
    /// elimination).
    pub fn eliminates_segment(&self, seg: &Segment) -> bool {
        self.compile(seg).eliminated()
    }

    /// Evaluate the predicate over batch rows `[start, start+out.len())` of
    /// a segment, writing the canonical selection byte mask into `out`
    /// (deleted rows are merged by the caller). Compiles per call; a scan
    /// compiles once per segment and calls [`SegmentPredicate::eval_batch`].
    pub fn eval_batch(
        &self,
        seg: &Segment,
        start: usize,
        out: &mut [u8],
        scratch: &mut FilterScratch,
        level: SimdLevel,
    ) {
        if !self.compile(seg).eval_batch(start, out, scratch, level) {
            out.fill(SELECTED);
        }
    }

    /// True when the predicate can be evaluated run-wise on `seg` into a
    /// run-granular selection via [`ResolvedPredicate::eval_batch_spans`]:
    /// every conjunct that metadata does not already answer is over an
    /// RLE-encoded column.
    pub fn span_eligible(&self, seg: &Segment) -> bool {
        self.compile(seg).span_runs_fraction().is_some()
    }

    /// Evaluate the predicate run-wise over batch rows `[start, start+len)`
    /// of a segment, producing a *batch-relative* run-granular selection
    /// (one comparison per run instead of one per row, O(runs)). Callers
    /// must check [`ResolvedPredicate::span_eligible`] first; deleted rows
    /// are the caller's concern, exactly as with
    /// [`ResolvedPredicate::eval_batch`]. Compiles per call, like it.
    pub fn eval_batch_spans(
        &self,
        seg: &Segment,
        start: usize,
        len: usize,
        out: &mut RunSpanVec,
        scratch: &mut FilterScratch,
    ) {
        self.compile(seg).eval_batch_spans(start, len, out, scratch);
    }
}

/// What is left of one conjunct after compilation: everything a batch needs,
/// already translated into the column's own domain.
#[derive(Debug)]
enum Kernel<'a> {
    /// Compare a bit-packed payload — normalized values or dictionary
    /// codes — against the translated constant (`Cmp` or `Between`).
    Packed { packed: &'a PackedVec, dc: DomainCmp },
    /// Dictionary codes of at most 8 bits against the 256-bit table of the
    /// codes a conjunction accepts.
    Members8 { codes: &'a PackedVec, table: [u8; 32] },
    /// Wider dictionary codes against the same set as an id-bitset.
    Members { codes: &'a PackedVec, bitset: Vec<u64> },
    /// One comparison per run of an RLE column.
    Rle { col: &'a RleColumn, cmp: LogicalCmp },
    /// Decode logical values, compare as `i64`.
    Decoded { col: &'a EncodedColumn, cmp: LogicalCmp },
    /// `!=` on a sorted column: rows `[lo, hi)` hold the excluded value.
    NotRows { lo: usize, hi: usize },
}

/// Conjuncts over dictionary-encoded columns, in the code domain, grouped by
/// column while the rest of the predicate compiles.
type DictConjuncts = Vec<(usize, Vec<DomainCmp>)>;

fn push_dict_conjunct(dict: &mut DictConjuncts, col: usize, dc: DomainCmp) {
    match dict.iter_mut().find(|group| group.0 == col) {
        Some((_, dcs)) => dcs.push(dc),
        None => dict.push((col, vec![dc])),
    }
}

/// A predicate compiled against one segment by
/// [`ResolvedPredicate::compile`].
#[derive(Debug)]
pub struct SegmentPredicate<'a> {
    /// No row outside can match: the intersection of the row intervals that
    /// the conjuncts over sorted columns select. Empty when the segment is
    /// eliminated.
    rows: Range<usize>,
    /// The conjuncts neither metadata nor the row range answers.
    kernels: Vec<Kernel<'a>>,
}

impl<'a> SegmentPredicate<'a> {
    /// True if no row of the segment can match.
    pub fn eliminated(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows that can match; a scan visits no others.
    pub fn row_range(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// True when every row of [`SegmentPredicate::row_range`] matches.
    pub fn range_only(&self) -> bool {
        self.kernels.is_empty()
    }

    fn reject_all(&mut self) {
        self.rows = 0..0;
        self.kernels.clear();
    }

    fn clip(&mut self, lo: usize, hi: usize) {
        self.rows = self.rows.start.max(lo)..self.rows.end.min(hi);
    }

    fn add(&mut self, node: &PNode, seg: &'a Segment, dict: &mut DictConjuncts) {
        match node {
            PNode::And(nodes) => nodes.iter().for_each(|n| self.add(n, seg, dict)),
            PNode::StrCmp { col, op, value } => match seg.column(*col) {
                EncodedColumn::StrDict(d) => {
                    push_dict_conjunct(dict, *col, str_domain_cmp(d.dict(), *op, value))
                }
                #[expect(
                    clippy::unreachable,
                    reason = "string columns always dictionary-encode (`encode_strings`), so \
                              StrCmp only meets StrDict"
                )]
                other => unreachable!("string column encoded as {:?}", other.encoding()),
            },
            PNode::Int { col, cmp } => {
                let column = seg.column(*col);
                if let EncodedColumn::IntDict(d) = column {
                    // The sorted dictionary is exact where min/max bound.
                    return push_dict_conjunct(dict, *col, cmp.to_code_domain(d.dict()));
                }
                let meta = seg.meta(*col);
                let dc = cmp.to_normalized(meta.min, meta.range());
                match (dc, column) {
                    (DomainCmp::All, _) => {}
                    (DomainCmp::None, _) => self.reject_all(),
                    (_, EncodedColumn::BitPack(c)) if c.is_non_decreasing() => {
                        self.add_sorted(*cmp, &|bound, strict| c.partition_point(bound, strict))
                    }
                    (_, EncodedColumn::Delta(d)) if d.is_non_decreasing() => {
                        self.add_sorted(*cmp, &|bound, strict| d.partition_point(bound, strict))
                    }
                    // The frame of reference is the column minimum, so the
                    // metadata translation is the normalized one.
                    (_, EncodedColumn::BitPack(c)) if c.bits() <= 32 => {
                        self.kernels.push(Kernel::Packed { packed: c.normalized(), dc })
                    }
                    (_, EncodedColumn::Rle(col)) => {
                        self.kernels.push(Kernel::Rle { col, cmp: *cmp })
                    }
                    (_, col) => self.kernels.push(Kernel::Decoded { col, cmp: *cmp }),
                }
            }
        }
    }

    /// A conjunct over a sorted column: `partition_point(bound, strict)` is
    /// the first row `>= bound` (`> bound` when `strict`). Every shape but
    /// `!=` selects one row interval and is answered by it exactly.
    fn add_sorted(&mut self, cmp: LogicalCmp, partition_point: &dyn Fn(i64, bool) -> usize) {
        let pp = partition_point;
        match cmp {
            LogicalCmp::Cmp(CmpOp::Lt, c) => self.clip(0, pp(c, false)),
            LogicalCmp::Cmp(CmpOp::Le, c) => self.clip(0, pp(c, true)),
            LogicalCmp::Cmp(CmpOp::Ge, c) => self.clip(pp(c, false), usize::MAX),
            LogicalCmp::Cmp(CmpOp::Gt, c) => self.clip(pp(c, true), usize::MAX),
            LogicalCmp::Cmp(CmpOp::Eq, c) => self.clip(pp(c, false), pp(c, true)),
            LogicalCmp::Between(lo, hi) => self.clip(pp(lo, false), pp(hi, true)),
            LogicalCmp::Cmp(CmpOp::Ne, c) => {
                let (lo, hi) = (pp(c, false), pp(c, true));
                if lo < hi {
                    self.kernels.push(Kernel::NotRows { lo, hi });
                }
            }
        }
    }

    /// The conjuncts over one dictionary column (string or integer), in the
    /// code domain. The set of codes they accept together picks the kernel:
    /// none — eliminated; all — dropped; one code interval — a comparison on
    /// the codes; anything else — a membership table.
    fn add_dict(&mut self, seg: &'a Segment, col: usize, dcs: &[DomainCmp]) {
        let (codes, dict_len) = match seg.column(col) {
            EncodedColumn::IntDict(d) => (d.codes(), d.dict().len() as u64),
            EncodedColumn::StrDict(d) => (d.codes(), d.dict().len() as u64),
            #[expect(
                clippy::unreachable,
                reason = "`add` collects conjuncts of dictionary columns only"
            )]
            other => unreachable!("dictionary conjunct on {:?}", other.encoding()),
        };
        let dc = match dcs {
            // A single comparison is already an interval of codes or the
            // complement of one code: no walk over the dictionary.
            [dc] => *dc,
            _ => {
                let accepts = |code: &u64| dcs.iter().all(|dc| dc.matches(*code));
                let Some(first) = (0..dict_len).find(accepts) else { return self.reject_all() };
                let last = (first..dict_len).rfind(accepts).unwrap_or(first);
                if !(first..=last).all(|code| accepts(&code)) {
                    let accepted = (first..=last).filter(accepts);
                    return self.kernels.push(Kernel::members(codes, dict_len, accepted));
                }
                if first == 0 && last + 1 == dict_len {
                    DomainCmp::All
                } else {
                    DomainCmp::Between(first, last)
                }
            }
        };
        match dc {
            DomainCmp::All => {}
            DomainCmp::None => self.reject_all(),
            dc => self.kernels.push(Kernel::Packed { packed: codes, dc }),
        }
    }

    /// Evaluate over batch rows `[start, start+out.len())`, writing the
    /// canonical selection byte mask into `out` (deleted rows are merged by
    /// the caller). Returns `false`, leaving `out` unspecified, when every
    /// row of the batch is selected: the batch lies inside the row range and
    /// no residual kernel applies to it.
    pub fn eval_batch(
        &self,
        start: usize,
        out: &mut [u8],
        scratch: &mut FilterScratch,
        level: SimdLevel,
    ) -> bool {
        let end = start + out.len();
        // The part of the batch inside the row range.
        let (lo, hi) = (self.rows.start.clamp(start, end), self.rows.end.clamp(start, end));
        if lo >= hi {
            out.fill(REJECTED);
            return true;
        }
        let mut written = false;
        let mut tmp = std::mem::take(&mut scratch.tmp_sel);
        for kernel in self.kernels.iter().filter(|k| k.applies(start, end)) {
            if written {
                tmp.resize(out.len(), 0);
                kernel.eval(start, &mut tmp, scratch, level);
                for (o, t) in out.iter_mut().zip(&tmp) {
                    *o &= *t;
                }
            } else {
                kernel.eval(start, out, scratch, level);
                written = true;
            }
        }
        scratch.tmp_sel = tmp;
        if lo > start || hi < end {
            // A boundary batch of the row range.
            if !written {
                out.fill(SELECTED);
            }
            out[..lo - start].fill(REJECTED);
            out[hi - start..].fill(REJECTED);
            written = true;
        }
        written
    }

    /// The run-span work ratio of the predicate on its segment: total runs
    /// its RLE columns walk per batch row, which is what the strategy
    /// chooser costs the run-wise path by. `None` when some residual kernel
    /// is not over an RLE column, i.e. the predicate cannot be evaluated
    /// into run spans.
    pub(crate) fn span_runs_fraction(&self) -> Option<f64> {
        let (mut runs, mut rows) = (0usize, 0usize);
        for kernel in &self.kernels {
            let Kernel::Rle { col, .. } = kernel else { return None };
            runs += col.num_runs();
            rows += col.len();
        }
        Some(if rows == 0 { 0.0 } else { runs as f64 / rows as f64 })
    }

    /// Evaluate run-wise over batch rows `[start, start+len)`, producing a
    /// *batch-relative* run-granular selection: one comparison per run
    /// instead of one per row, O(runs). Only for a predicate with a
    /// [`SegmentPredicate::span_runs_fraction`]; deleted rows are the
    /// caller's concern.
    pub(crate) fn eval_batch_spans(
        &self,
        start: usize,
        len: usize,
        out: &mut RunSpanVec,
        scratch: &mut FilterScratch,
    ) {
        let end = start + len;
        let (lo, hi) = (self.rows.start.clamp(start, end), self.rows.end.clamp(start, end));
        out.clear();
        if lo < hi {
            out.push((lo - start) as u32, (hi - lo) as u32);
        }
        let mut a = scratch.tmp_spans.pop().unwrap_or_default();
        let mut b = scratch.tmp_spans.pop().unwrap_or_default();
        for kernel in &self.kernels {
            if out.is_empty() {
                break;
            }
            #[expect(clippy::unreachable, reason = "the caller checked `span_runs_fraction`")]
            let Kernel::Rle { col, cmp } = kernel
            else {
                unreachable!("span evaluation of a non-RLE kernel")
            };
            eval_rle_spans(col, start, len, *cmp, &mut a);
            if matches!(out.spans(), [all] if all.len as usize == len) {
                // Still the whole batch: the intersection is `a` itself.
                std::mem::swap(out, &mut a);
            } else {
                enc_intersect_spans(out.spans(), a.spans(), &mut b);
                std::mem::swap(out, &mut b);
            }
        }
        scratch.tmp_spans.push(a);
        scratch.tmp_spans.push(b);
    }
}

impl<'a> Kernel<'a> {
    /// The membership kernel for the `accepted` codes of a dictionary of
    /// `dict_len` entries.
    fn members(codes: &'a PackedVec, dict_len: u64, accepted: impl Iterator<Item = u64>) -> Self {
        // At least the 256 bits the byte-code table holds.
        let mut bitset = vec![0u64; (dict_len as usize).div_ceil(64).max(4)];
        for code in accepted {
            bitset[(code / 64) as usize] |= 1 << (code % 64);
        }
        if codes.bits() > 8 {
            return Kernel::Members { codes, bitset };
        }
        let mut table = [0u8; 32];
        for (bytes, word) in table.chunks_exact_mut(8).zip(&bitset) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Kernel::Members8 { codes, table }
    }

    /// Whether the kernel can reject a row of batch rows `[start, end)`.
    fn applies(&self, start: usize, end: usize) -> bool {
        match self {
            Kernel::NotRows { lo, hi } => *lo < end && start < *hi,
            _ => true,
        }
    }

    /// Write the selection bytes of batch rows `[start, start+out.len())`.
    fn eval(&self, start: usize, out: &mut [u8], scratch: &mut FilterScratch, level: SimdLevel) {
        let n = out.len();
        match self {
            Kernel::Packed { packed, dc } => {
                apply_domain_cmp_packed(packed, *dc, start, out, scratch, level)
            }
            Kernel::Members8 { codes, table } => {
                let bytes = codes.u8_values(start, n, &mut scratch.u8_buf, level);
                cmp::membership_u8(bytes, table, out, level);
            }
            Kernel::Members { codes, bitset } => {
                scratch.u32_buf.resize(n, 0);
                codes.unpack_into_u32(start, &mut scratch.u32_buf, level);
                enc_filter_codes_bitset(&scratch.u32_buf, bitset, out);
            }
            Kernel::Rle { col, cmp } => {
                // One comparison per run overlapping the batch, then a fill
                // of the run's rows (this is also the spill target when a
                // run-span selection must densify).
                let ends = col.run_ends();
                let values = col.run_values();
                let batch_end = start + n;
                let mut run = col.run_index_of(start);
                let mut row = start;
                while row < batch_end {
                    let run_end = (ends[run] as usize).min(batch_end);
                    let byte = if cmp.matches(values[run]) { SELECTED } else { REJECTED };
                    out[row - start..run_end - start].fill(byte);
                    row = run_end;
                    run += 1;
                }
            }
            Kernel::Decoded { col, cmp: logical } => {
                scratch.i64_buf.resize(n, 0);
                col.decode_i64_with(start, &mut scratch.i64_buf, &mut scratch.u64_buf);
                match *logical {
                    LogicalCmp::Cmp(op, c) => cmp::cmp_i64(&scratch.i64_buf, op, c, out, level),
                    LogicalCmp::Between(lo, hi) => {
                        cmp::between_i64(&scratch.i64_buf, lo, hi, out, level)
                    }
                }
            }
            Kernel::NotRows { lo, hi } => {
                let within = |row: usize| row.clamp(start, start + n) - start;
                out.fill(SELECTED);
                out[within(*lo)..within(*hi)].fill(REJECTED);
            }
        }
    }
}

/// Walk the runs of `r` overlapping `[start, start+len)`, pushing the rows
/// of accepted runs as batch-relative coalesced spans.
fn eval_rle_spans(
    r: &RleColumn,
    start: usize,
    len: usize,
    logical: LogicalCmp,
    out: &mut RunSpanVec,
) {
    out.clear();
    if len == 0 {
        return;
    }
    let ends = r.run_ends();
    let values = r.run_values();
    let batch_end = start + len;
    let mut run = r.run_index_of(start);
    let mut row = start;
    while row < batch_end {
        let run_end = (ends[run] as usize).min(batch_end);
        if logical.matches(values[run]) {
            out.push((row - start) as u32, (run_end - row) as u32);
        }
        row = run_end;
        run += 1;
    }
}

/// Apply a domain comparison to a bit-packed unsigned payload, a `Cmp` at
/// the payload's own word size (§2.2: the smallest word compares the most
/// rows per instruction).
fn apply_domain_cmp_packed(
    packed: &PackedVec,
    dc: DomainCmp,
    start: usize,
    out: &mut [u8],
    scratch: &mut FilterScratch,
    level: SimdLevel,
) {
    let dc = match dc {
        // A dictionary of exactly 256 entries has 8-bit codes and the
        // threshold `code < 256`: a constant no payload value reaches is
        // answered here, never cast down to the word.
        DomainCmp::Cmp(op, c) if c > packed.value_mask() => cmp_above_domain(op),
        dc => dc,
    };
    let n = out.len();
    match dc {
        DomainCmp::All => out.fill(SELECTED),
        DomainCmp::None => out.fill(REJECTED),
        DomainCmp::Cmp(op, c) => match packed.word_size() {
            WordSize::W1 => {
                let bytes = packed.u8_values(start, n, &mut scratch.u8_buf, level);
                cmp::cmp_u8(bytes, op, c as u8, out, level);
            }
            WordSize::W2 => {
                scratch.u16_buf.resize(n, 0);
                packed.unpack_into_u16(start, &mut scratch.u16_buf, level);
                cmp::cmp_u16(&scratch.u16_buf, op, c as u16, out, level);
            }
            WordSize::W4 => {
                scratch.u32_buf.resize(n, 0);
                packed.unpack_into_u32(start, &mut scratch.u32_buf, level);
                cmp::cmp_u32(&scratch.u32_buf, op, c as u32, out, level);
            }
            // Wide packed values: unpack to u64, compare scalar.
            WordSize::W8 => {
                scratch.u64_buf.resize(n, 0);
                packed.unpack_into_u64(start, &mut scratch.u64_buf, level);
                cmp::cmp_u64(&scratch.u64_buf, op, c, out, level);
            }
        },
        DomainCmp::Between(lo, hi) if packed.bits() <= 32 => {
            scratch.u32_buf.resize(n, 0);
            packed.unpack_into_u32(start, &mut scratch.u32_buf, level);
            cmp::between_u32(&scratch.u32_buf, lo as u32, hi as u32, out, level);
        }
        DomainCmp::Between(lo, hi) => {
            scratch.u64_buf.resize(n, 0);
            packed.unpack_into_u64(start, &mut scratch.u64_buf, level);
            for (o, &v) in out.iter_mut().zip(&scratch.u64_buf) {
                *o = if v >= lo && v <= hi { SELECTED } else { REJECTED };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipie_columnstore::encoding::EncodingHint;
    use bipie_columnstore::{ColumnSpec, TableBuilder};

    fn test_table(hint: EncodingHint) -> Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("flag", LogicalType::Str),
                ColumnSpec::new("v", LogicalType::I64).with_hint(hint),
                ColumnSpec::new("w", LogicalType::I64).with_hint(hint),
            ],
            10_000,
        );
        // `v` is sorted, so its range conjuncts become row ranges; `w` holds
        // the same values shuffled, so its conjuncts reach the compare kernels.
        for i in 0..1000i64 {
            let flag = ["A", "N", "R"][(i % 3) as usize];
            let row =
                [Value::Str(flag.into()), Value::I64(i - 500), Value::I64(i * 389 % 1000 - 500)];
            b.push_row(row.to_vec());
        }
        b.finish()
    }

    fn eval_all(table: &Table, pred: &Predicate) -> Vec<bool> {
        let rp = pred.resolve(table).unwrap();
        let seg = &table.segments()[0];
        let mut out = vec![0u8; seg.num_rows()];
        let mut scratch = FilterScratch::default();
        rp.eval_batch(seg, 0, &mut out, &mut scratch, SimdLevel::detect());
        out.iter().map(|&b| b != 0).collect()
    }

    fn reference(table: &Table, pred: &Predicate) -> Vec<bool> {
        let seg = &table.segments()[0];
        (0..seg.num_rows())
            .map(|i| {
                pred.eval_row(&|name| {
                    let c = table.column_index(name).unwrap();
                    match seg.column(c) {
                        EncodedColumn::StrDict(d) => Value::Str(d.get(i).into()),
                        other => Value::I64(other.get_i64(i)),
                    }
                })
            })
            .collect()
    }

    #[test]
    fn int_predicates_match_reference_across_encodings() {
        for hint in
            [EncodingHint::BitPack, EncodingHint::Dict, EncodingHint::Rle, EncodingHint::Delta]
        {
            let t = test_table(hint);
            let preds = |c: &str| {
                [
                    Predicate::eq(c, Value::I64(0)),
                    Predicate::ne(c, Value::I64(-500)),
                    Predicate::lt(c, Value::I64(-100)),
                    Predicate::le(c, Value::I64(499)),
                    Predicate::le(c, Value::I64(7)),
                    Predicate::gt(c, Value::I64(499)),
                    Predicate::ge(c, Value::I64(500)),
                    Predicate::between(c, Value::I64(-10), Value::I64(10)),
                    Predicate::eq(c, Value::I64(99_999)), // out of domain
                    Predicate::lt(c, Value::I64(-501)),   // below domain
                    Predicate::ge(c, Value::I64(-500)),   // whole domain
                ]
            };
            for pred in ["v", "w"].into_iter().flat_map(preds) {
                assert_eq!(
                    eval_all(&t, &pred),
                    reference(&t, &pred),
                    "hint={hint:?} pred={pred:?}"
                );
            }
        }
    }

    #[test]
    fn str_predicates_match_reference() {
        let t = test_table(EncodingHint::Auto);
        for pred in [
            Predicate::eq("flag", Value::Str("N".into())),
            Predicate::ne("flag", Value::Str("A".into())),
            Predicate::lt("flag", Value::Str("N".into())),
            Predicate::le("flag", Value::Str("N".into())),
            Predicate::gt("flag", Value::Str("A".into())),
            Predicate::ge("flag", Value::Str("R".into())),
            Predicate::eq("flag", Value::Str("Z".into())), // not in dict
            Predicate::ne("flag", Value::Str("Z".into())),
            Predicate::lt("flag", Value::Str("B".into())), // between entries
            Predicate::gt("flag", Value::Str("B".into())),
        ] {
            assert_eq!(eval_all(&t, &pred), reference(&t, &pred), "pred={pred:?}");
        }
    }

    #[test]
    fn conjunction_intersects() {
        let t = test_table(EncodingHint::BitPack);
        let pred = Predicate::and(vec![
            Predicate::ge("v", Value::I64(0)),
            Predicate::lt("v", Value::I64(100)),
            Predicate::eq("flag", Value::Str("A".into())),
        ]);
        assert_eq!(eval_all(&t, &pred), reference(&t, &pred));
    }

    #[test]
    fn segment_elimination() {
        let t = test_table(EncodingHint::BitPack);
        let seg = &t.segments()[0]; // v in [-500, 499]
        let gone = Predicate::gt("v", Value::I64(1000)).resolve(&t).unwrap();
        assert!(gone.eliminates_segment(seg));
        let gone = Predicate::between("v", Value::I64(500), Value::I64(600)).resolve(&t).unwrap();
        assert!(gone.eliminates_segment(seg));
        let kept = Predicate::le("v", Value::I64(-500)).resolve(&t).unwrap();
        assert!(!kept.eliminates_segment(seg));
        let gone = Predicate::eq("flag", Value::Str("Z".into())).resolve(&t).unwrap();
        assert!(gone.eliminates_segment(seg));
        // A conjunction eliminates if any single conjunct does...
        let gone = Predicate::and(vec![
            Predicate::ge("v", Value::I64(0)),
            Predicate::gt("v", Value::I64(1000)),
        ]);
        assert!(gone.resolve(&t).unwrap().eliminates_segment(seg));
        // ...or, `v` being sorted, if the conjuncts' row ranges are disjoint;
        // value ranges of an unsorted column are not intersected.
        let jointly_impossible = Predicate::and(vec![
            Predicate::ge("v", Value::I64(0)),
            Predicate::lt("v", Value::I64(-400)),
        ]);
        assert!(jointly_impossible.resolve(&t).unwrap().eliminates_segment(seg));
        let unsorted = test_table(EncodingHint::Rle);
        let rp = jointly_impossible.resolve(&unsorted).unwrap();
        assert!(!rp.eliminates_segment(&unsorted.segments()[0]));
    }

    #[test]
    fn compile_answers_sorted_conjuncts_with_a_row_range() {
        let t = test_table(EncodingHint::Delta); // v = row - 500, sorted
        let seg = &t.segments()[0];
        let compile = |p: Predicate| p.resolve(&t).unwrap().compile(seg);
        let c = compile(Predicate::between("v", Value::I64(-400), Value::I64(-301)));
        assert_eq!((c.row_range(), c.range_only()), (100..200, true));
        let c = compile(Predicate::and(vec![
            Predicate::ge("v", Value::I64(-400)),
            Predicate::lt("v", Value::I64(0)),
            Predicate::eq("flag", Value::Str("A".into())),
        ]));
        assert_eq!((c.row_range(), c.range_only()), (100..500, false));
        // `!=` is not an interval; a conjunct metadata proves true is dropped.
        let c = compile(Predicate::ne("v", Value::I64(0)));
        assert_eq!((c.row_range(), c.range_only()), (0..1000, false));
        let c = compile(Predicate::ge("v", Value::I64(-500)));
        assert_eq!((c.row_range(), c.range_only()), (0..1000, true));
        assert!(compile(Predicate::gt("v", Value::I64(499))).eliminated());
    }

    #[test]
    fn resolve_errors() {
        let t = test_table(EncodingHint::Auto);
        assert!(matches!(
            Predicate::eq("missing", Value::I64(1)).resolve(&t),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(matches!(
            Predicate::eq("flag", Value::I64(1)).resolve(&t),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::eq("v", Value::Str("x".into())).resolve(&t),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::between("flag", Value::I64(0), Value::I64(1)).resolve(&t),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn constant_above_the_payload_word_is_answered_not_truncated() {
        // A 256-entry dictionary: 8-bit codes, and `x <= <largest entry>` is
        // `code < 256`, which as a `u8` would read `code < 0`.
        let codes: Vec<u64> = (0..=255).collect();
        let packed = PackedVec::pack(&codes, 8);
        let mut scratch = FilterScratch::default();
        for level in SimdLevel::available() {
            for (op, all) in [
                (CmpOp::Lt, true),
                (CmpOp::Le, true),
                (CmpOp::Ne, true),
                (CmpOp::Eq, false),
                (CmpOp::Gt, false),
                (CmpOp::Ge, false),
            ] {
                let mut out = vec![0x55u8; codes.len()];
                let dc = DomainCmp::Cmp(op, 256);
                apply_domain_cmp_packed(&packed, dc, 0, &mut out, &mut scratch, level);
                let want = if all { SELECTED } else { REJECTED };
                assert!(out.iter().all(|&b| b == want), "{op:?} level={level}");
            }
            // The largest constant the word holds is still compared.
            let mut out = vec![0u8; codes.len()];
            let dc = DomainCmp::Cmp(CmpOp::Lt, 255);
            apply_domain_cmp_packed(&packed, dc, 0, &mut out, &mut scratch, level);
            assert!(out[..255].iter().all(|&b| b == SELECTED) && out[255] == REJECTED);
        }
    }

    #[test]
    fn batch_offsets() {
        let t = test_table(EncodingHint::BitPack);
        let seg = &t.segments()[0];
        let rp = Predicate::ge("v", Value::I64(0)).resolve(&t).unwrap();
        let mut scratch = FilterScratch::default();
        let mut out = vec![0u8; 100];
        rp.eval_batch(seg, 450, &mut out, &mut scratch, SimdLevel::detect());
        // Rows 450..500 have v in [-50, -1] (rejected); 500..550 in [0, 49].
        assert!(out[..50].iter().all(|&b| b == 0));
        assert!(out[50..].iter().all(|&b| b == 0xFF));
    }
}
