//! The Filter component (§3, §4).
//!
//! "The filter component evaluates the filter expression on a columnar-
//! oriented batch of records, combines the result with information about
//! deleted records, and produces a selection vector indicating which
//! records are selected by the query."
//!
//! Filters here are conjunctions of column-vs-constant comparisons (the
//! ad-hoc analytical shape, e.g. Q1's `l_shipdate <= DATE '1998-09-02'`).
//! Evaluation works **on encoded data** wherever possible:
//!
//! * bit-packed columns compare their normalized (frame-of-reference)
//!   values against the translated constant — no decode to logical values;
//! * dictionary columns (string or integer) translate the predicate into
//!   the *code* domain using the sorted dictionary, then compare codes;
//! * other encodings decode to `i64` and use the SIMD `i64` comparison.
//!
//! The same translation powers **segment elimination**: a predicate whose
//! translated constant falls outside the segment's min/max proves the
//! segment contributes no rows (§2.1).

use bipie_columnstore::encoding::{EncodedColumn, RleColumn};
use bipie_columnstore::{LogicalType, Segment, Table, Value};
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
                        // PANIC: the type-mismatch branch just above already
                        // rejected non-integer-like constants.
                        Ok(PNode::IntCmp { col, op: *op, c: v.as_storage_i64().unwrap() })
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
                Ok(PNode::IntBetween { col, lo, hi })
            }
            Predicate::And(preds) => {
                let nodes: Result<Vec<PNode>> =
                    preds.iter().map(|p| p.resolve_node(table)).collect();
                Ok(PNode::And(nodes?))
            }
        }
    }

    /// Row-level evaluation against logical values (mutable-region rows and
    /// the oracle executor).
    pub fn eval_row(&self, value_of: &impl Fn(&str) -> Value) -> bool {
        match self {
            Predicate::Cmp { column, op, value } => {
                let v = value_of(column);
                match (&v, value) {
                    (Value::Str(a), Value::Str(b)) => op.eval(&**a, &**b),
                    _ => op.eval(
                        // PANIC: plan construction rejected mixed string /
                        // integer comparisons, so both sides are integer-like.
                        v.as_storage_i64().expect("typed"),
                        value.as_storage_i64().expect("typed"), // PANIC: see above
                    ),
                }
            }
            Predicate::Between { column, lo, hi } => {
                // PANIC: BETWEEN is integer-only by construction (plan
                // compilation rejects string bounds), same on both lines.
                let v = value_of(column).as_storage_i64().expect("typed");
                // PANIC: same integer-only BETWEEN construction as above.
                v >= lo.as_storage_i64().expect("typed") && v <= hi.as_storage_i64().expect("typed")
            }
            Predicate::And(preds) => preds.iter().all(|p| p.eval_row(value_of)),
        }
    }
}

#[derive(Debug, Clone)]
enum PNode {
    IntCmp { col: usize, op: CmpOp, c: i64 },
    IntBetween { col: usize, lo: i64, hi: i64 },
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
    u32_buf: Vec<u32>,
    i64_buf: Vec<i64>,
    tmp_sel: Vec<u8>,
    /// Dictionary-id bitset for conjunction fusion over dict columns.
    dict_bits: Vec<u64>,
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
        match op {
            CmpOp::Eq | CmpOp::Gt | CmpOp::Ge => DomainCmp::None,
            CmpOp::Ne | CmpOp::Lt | CmpOp::Le => DomainCmp::All,
        }
    } else {
        DomainCmp::Cmp(op, cn as u64)
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

impl ResolvedPredicate {
    /// True if segment metadata proves no row can match (§2.1 segment
    /// elimination).
    pub fn eliminates_segment(&self, seg: &Segment) -> bool {
        Self::node_eliminates(&self.node, seg)
    }

    fn node_eliminates(node: &PNode, seg: &Segment) -> bool {
        match node {
            PNode::IntCmp { col, op, c } => {
                let m = seg.meta(*col);
                matches!(translate_cmp(*op, *c, m.min, m.range()), DomainCmp::None)
            }
            PNode::IntBetween { col, lo, hi } => {
                let m = seg.meta(*col);
                matches!(translate_between(*lo, *hi, m.min, m.range()), DomainCmp::None)
            }
            PNode::StrCmp { col, op, value } => match seg.column(*col) {
                EncodedColumn::StrDict(d) => {
                    matches!(str_domain_cmp(d.dict(), *op, value), DomainCmp::None)
                }
                _ => false,
            },
            PNode::And(nodes) => nodes.iter().any(|n| Self::node_eliminates(n, seg)),
        }
    }

    /// Row-level evaluation against one row of the mutable region, whose
    /// values sit at the schema's column indices.
    pub fn eval_row(&self, row: &[Value]) -> bool {
        fn int_at(row: &[Value], col: usize) -> i64 {
            // PANIC: `resolve` typed this column integer-like, and the
            // table's `check_row` typed the row against the same schema.
            row[col].as_storage_i64().expect("integer-like by resolve")
        }
        fn walk(node: &PNode, row: &[Value]) -> bool {
            match node {
                PNode::IntCmp { col, op, c } => op.eval(int_at(row, *col), *c),
                PNode::IntBetween { col, lo, hi } => (*lo..=*hi).contains(&int_at(row, *col)),
                PNode::StrCmp { col, op, value } => {
                    // PANIC: a string column by `resolve`, a string value by
                    // the table's `check_row`.
                    op.eval(row[*col].as_str().expect("string by resolve"), value.as_str())
                }
                PNode::And(nodes) => nodes.iter().all(|n| walk(n, row)),
            }
        }
        walk(&self.node, row)
    }

    /// Evaluate the predicate over batch rows `[start, start+out.len())` of
    /// a segment, writing the canonical selection byte mask into `out`
    /// (deleted rows are merged by the caller).
    pub fn eval_batch(
        &self,
        seg: &Segment,
        start: usize,
        out: &mut [u8],
        scratch: &mut FilterScratch,
        level: SimdLevel,
    ) {
        Self::eval_node(&self.node, seg, start, out, scratch, level);
    }

    fn eval_node(
        node: &PNode,
        seg: &Segment,
        start: usize,
        out: &mut [u8],
        scratch: &mut FilterScratch,
        level: SimdLevel,
    ) {
        let n = out.len();
        match node {
            PNode::IntCmp { col, op, c } => {
                eval_int_domain(seg, *col, start, out, scratch, level, LogicalCmp::Cmp(*op, *c));
            }
            PNode::IntBetween { col, lo, hi } => {
                eval_int_domain(
                    seg,
                    *col,
                    start,
                    out,
                    scratch,
                    level,
                    LogicalCmp::Between(*lo, *hi),
                );
            }
            PNode::StrCmp { col, op, value } => match seg.column(*col) {
                EncodedColumn::StrDict(d) => {
                    let dc = str_domain_cmp(d.dict(), *op, value);
                    apply_domain_cmp_packed(d.codes(), dc, start, out, scratch, level);
                }
                // PANIC: string columns always dictionary-encode (see
                // `encode_strings`), so StrCmp only meets StrDict.
                other => unreachable!("string column encoded as {:?}", other.encoding()),
            },
            PNode::And(nodes) => {
                // Dictionary predicate pre-evaluation (DESIGN.md §13):
                // conjuncts over the *same* dictionary column fuse into one
                // id-bitset built by evaluating each comparison once per
                // dictionary entry, followed by a single membership pass
                // over the codes — instead of unpacking and comparing the
                // codes once per conjunct.
                let annotated: Vec<Option<(usize, DomainCmp)>> =
                    nodes.iter().map(|node| dict_conjunct(node, seg)).collect();
                let mut groups: Vec<(usize, Vec<DomainCmp>)> = Vec::new();
                let mut rest: Vec<&PNode> = Vec::new();
                for (node, ann) in nodes.iter().zip(&annotated) {
                    match ann {
                        Some((col, dc))
                            if annotated.iter().flatten().filter(|(c, _)| c == col).count()
                                >= 2 =>
                        {
                            match groups.iter_mut().find(|(c, _)| c == col) {
                                Some((_, dcs)) => dcs.push(*dc),
                                None => groups.push((*col, vec![*dc])),
                            }
                        }
                        _ => rest.push(node),
                    }
                }
                let mut tmp = std::mem::take(&mut scratch.tmp_sel);
                tmp.clear();
                tmp.resize(n, 0);
                let mut first = true;
                for (col, dcs) in &groups {
                    let target: &mut [u8] = if first { &mut *out } else { &mut tmp };
                    eval_dict_fused(seg, *col, dcs, start, target, scratch, level);
                    if !first {
                        for (o, t) in out.iter_mut().zip(&tmp) {
                            *o &= *t;
                        }
                    }
                    first = false;
                }
                for node in rest {
                    let target: &mut [u8] = if first { &mut *out } else { &mut tmp };
                    Self::eval_node(node, seg, start, target, scratch, level);
                    if !first {
                        for (o, t) in out.iter_mut().zip(&tmp) {
                            *o &= *t;
                        }
                    }
                    first = false;
                }
                // PANIC: plan compilation drops empty conjunctions, so at
                // least one group or plain conjunct wrote into `out`.
                assert!(!first, "non-empty conjunction");
                scratch.tmp_sel = tmp;
            }
        }
    }

    /// True when every column this predicate references is RLE-encoded in
    /// `seg` (string comparisons are never eligible), so the predicate can
    /// be evaluated run-wise into a run-granular selection via
    /// [`ResolvedPredicate::eval_batch_spans`].
    pub fn span_eligible(&self, seg: &Segment) -> bool {
        Self::node_span_eligible(&self.node, seg)
    }

    fn node_span_eligible(node: &PNode, seg: &Segment) -> bool {
        match node {
            PNode::IntCmp { col, .. } | PNode::IntBetween { col, .. } => {
                matches!(seg.column(*col), EncodedColumn::Rle(_))
            }
            PNode::StrCmp { .. } => false,
            PNode::And(nodes) => nodes.iter().all(|n| Self::node_span_eligible(n, seg)),
        }
    }

    /// Evaluate the predicate run-wise over batch rows `[start, start+len)`
    /// of a segment, producing a *batch-relative* run-granular selection
    /// (one comparison per run instead of one per row, O(runs)). Callers
    /// must check [`ResolvedPredicate::span_eligible`] first; deleted rows
    /// are the caller's concern, exactly as with
    /// [`ResolvedPredicate::eval_batch`].
    pub fn eval_batch_spans(
        &self,
        seg: &Segment,
        start: usize,
        len: usize,
        out: &mut RunSpanVec,
        scratch: &mut FilterScratch,
    ) {
        Self::eval_node_spans(&self.node, seg, start, len, out, scratch);
    }

    fn eval_node_spans(
        node: &PNode,
        seg: &Segment,
        start: usize,
        len: usize,
        out: &mut RunSpanVec,
        scratch: &mut FilterScratch,
    ) {
        match node {
            PNode::IntCmp { col, op, c } => {
                eval_rle_spans(rle_col(seg, *col), start, len, LogicalCmp::Cmp(*op, *c), out);
            }
            PNode::IntBetween { col, lo, hi } => {
                eval_rle_spans(rle_col(seg, *col), start, len, LogicalCmp::Between(*lo, *hi), out);
            }
            // PANIC: span eligibility rejects string predicates.
            PNode::StrCmp { .. } => unreachable!("string predicates are not span-eligible"),
            PNode::And(nodes) => {
                // PANIC: plan compilation drops empty conjunctions.
                let (first, rest) = nodes.split_first().expect("non-empty conjunction");
                Self::eval_node_spans(first, seg, start, len, out, scratch);
                if rest.is_empty() {
                    return;
                }
                let mut a = scratch.tmp_spans.pop().unwrap_or_default();
                let mut b = scratch.tmp_spans.pop().unwrap_or_default();
                for node in rest {
                    if out.is_empty() {
                        break;
                    }
                    Self::eval_node_spans(node, seg, start, len, &mut a, scratch);
                    enc_intersect_spans(out.spans(), a.spans(), &mut b);
                    std::mem::swap(out, &mut b);
                }
                scratch.tmp_spans.push(a);
                scratch.tmp_spans.push(b);
            }
        }
    }
}

/// The run-span work ratio of a predicate on one segment: total runs its
/// RLE columns walk per batch row. `None` when the predicate is not
/// span-eligible for the segment. Used by the strategy chooser to cost the
/// run-wise path.
pub(crate) fn span_runs_fraction(pred: &ResolvedPredicate, seg: &Segment) -> Option<f64> {
    if !pred.span_eligible(seg) {
        return None;
    }
    let mut runs = 0usize;
    let mut rows = 0usize;
    collect_rle_runs(&pred.node, seg, &mut runs, &mut rows);
    if rows == 0 {
        return Some(0.0);
    }
    Some(runs as f64 / rows as f64)
}

fn collect_rle_runs(node: &PNode, seg: &Segment, runs: &mut usize, rows: &mut usize) {
    match node {
        PNode::IntCmp { col, .. } | PNode::IntBetween { col, .. } => {
            let r = rle_col(seg, *col);
            *runs += r.num_runs();
            *rows += r.len();
        }
        PNode::StrCmp { .. } => {}
        PNode::And(nodes) => {
            for n in nodes {
                collect_rle_runs(n, seg, runs, rows);
            }
        }
    }
}

/// The column of `seg` that `col` indexes, as an RLE column.
fn rle_col(seg: &Segment, col: usize) -> &RleColumn {
    match seg.column(col) {
        EncodedColumn::Rle(r) => r,
        // PANIC: span eligibility checked every referenced column is RLE.
        other => unreachable!("span evaluation on non-RLE column {:?}", other.encoding()),
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

/// A conjunct that targets a dictionary-encoded column of `seg`, translated
/// into the code domain — the unit of dictionary conjunction fusion.
fn dict_conjunct(node: &PNode, seg: &Segment) -> Option<(usize, DomainCmp)> {
    match node {
        PNode::IntCmp { col, op, c } => match seg.column(*col) {
            EncodedColumn::IntDict(d) => {
                Some((*col, LogicalCmp::Cmp(*op, *c).to_code_domain(d.dict())))
            }
            _ => None,
        },
        PNode::IntBetween { col, lo, hi } => match seg.column(*col) {
            EncodedColumn::IntDict(d) => {
                Some((*col, LogicalCmp::Between(*lo, *hi).to_code_domain(d.dict())))
            }
            _ => None,
        },
        PNode::StrCmp { col, op, value } => match seg.column(*col) {
            EncodedColumn::StrDict(d) => Some((*col, str_domain_cmp(d.dict(), *op, value))),
            _ => None,
        },
        PNode::And(_) => None,
    }
}

/// Whether translated-domain comparison `dc` accepts dictionary id `code`.
fn domain_cmp_matches(dc: DomainCmp, code: u64) -> bool {
    match dc {
        DomainCmp::All => true,
        DomainCmp::None => false,
        DomainCmp::Cmp(op, c) => op.eval(code, c),
        DomainCmp::Between(lo, hi) => code >= lo && code <= hi,
    }
}

/// Evaluate a fused group of code-domain comparisons over one dictionary
/// column: build the id-bitset once over the dictionary, then run a single
/// membership pass over the codes.
fn eval_dict_fused(
    seg: &Segment,
    col: usize,
    dcs: &[DomainCmp],
    start: usize,
    out: &mut [u8],
    scratch: &mut FilterScratch,
    level: SimdLevel,
) {
    let (codes, dict_len) = match seg.column(col) {
        EncodedColumn::IntDict(d) => (d.codes(), d.dict().len()),
        EncodedColumn::StrDict(d) => (d.codes(), d.dict().len()),
        // PANIC: `dict_conjunct` only selects dictionary-encoded columns.
        other => unreachable!("fused non-dictionary column {:?}", other.encoding()),
    };
    scratch.dict_bits.clear();
    scratch.dict_bits.resize(dict_len.div_ceil(64), 0);
    for code in 0..dict_len as u64 {
        if dcs.iter().all(|&dc| domain_cmp_matches(dc, code)) {
            scratch.dict_bits[(code / 64) as usize] |= 1u64 << (code % 64);
        }
    }
    scratch.u32_buf.resize(out.len(), 0);
    codes.unpack_into_u32(start, &mut scratch.u32_buf, level);
    enc_filter_codes_bitset(&scratch.u32_buf, &scratch.dict_bits, out);
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

/// Evaluate a logical comparison over an integer-like column batch.
fn eval_int_domain(
    seg: &Segment,
    col: usize,
    start: usize,
    out: &mut [u8],
    scratch: &mut FilterScratch,
    level: SimdLevel,
    logical: LogicalCmp,
) {
    if out.is_empty() {
        return;
    }
    match seg.column(col) {
        EncodedColumn::BitPack(c) if c.is_non_decreasing() => {
            // Monotonic range pruning (DESIGN.md §13): the selected rows
            // form a contiguous interval, found by boundary probes.
            fill_monotonic(&|row| c.get(row), start, out, logical);
        }
        EncodedColumn::BitPack(c) if c.bits() <= 32 => {
            // Encoded-domain fast path: compare normalized u32 values.
            let dc = logical.to_normalized(c.reference(), c.normalized_max());
            apply_domain_cmp_packed(c.normalized(), dc, start, out, scratch, level);
        }
        EncodedColumn::IntDict(d) => {
            // Code-domain path via the sorted dictionary.
            let dc = logical.to_code_domain(d.dict());
            apply_domain_cmp_packed(d.codes(), dc, start, out, scratch, level);
        }
        EncodedColumn::Rle(r) => {
            // Run-wise evaluation: one comparison per run overlapping the
            // batch, then a fill of the run's rows — O(runs) compares
            // (this is also the spill target when a run-span selection
            // must densify).
            let ends = r.run_ends();
            let values = r.run_values();
            let batch_end = start + out.len();
            let mut run = r.run_index_of(start);
            let mut row = start;
            while row < batch_end {
                let run_end = (ends[run] as usize).min(batch_end);
                let byte = if logical.matches(values[run]) { SELECTED } else { REJECTED };
                out[row - start..run_end - start].fill(byte);
                row = run_end;
                run += 1;
            }
        }
        EncodedColumn::Delta(d) if d.is_non_decreasing() => {
            // Monotonic range pruning via anchored boundary probes — no
            // delta replay of the whole batch.
            fill_monotonic(&|row| d.get(row), start, out, logical);
        }
        other => {
            // Generic path: decode logical values, compare as i64.
            scratch.i64_buf.resize(out.len(), 0);
            other.decode_i64_into(start, &mut scratch.i64_buf);
            match logical {
                LogicalCmp::Cmp(op, c) => cmp::cmp_i64(&scratch.i64_buf, op, c, out, level),
                LogicalCmp::Between(lo, hi) => {
                    cmp::between_i64(&scratch.i64_buf, lo, hi, out, level)
                }
            }
        }
    }
}

/// Fill the selection mask for a batch of a **non-decreasing** column using
/// at most two boundary binary searches: every comparison shape selects a
/// contiguous row interval (or, for `!=`, its complement), so whole batches
/// accept or reject without touching the codes.
fn fill_monotonic(get: &dyn Fn(usize) -> i64, start: usize, out: &mut [u8], logical: LogicalCmp) {
    let n = out.len();
    // Whole-batch accept from the boundary values — valid for every shape
    // except `!=` (whose accepted set is not an interval): if both ends of
    // a non-decreasing batch match an interval predicate, every row does.
    if !matches!(logical, LogicalCmp::Cmp(CmpOp::Ne, _))
        && logical.matches(get(start))
        && logical.matches(get(start + n - 1))
    {
        out.fill(SELECTED);
        return;
    }
    // First batch offset whose value is `>= bound` (`> bound` when
    // `strict`); non-decreasing order makes this a partition point.
    let search = |bound: i64, strict: bool| -> usize {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let v = get(start + mid);
            if v < bound || (strict && v == bound) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let (sel_lo, sel_hi, invert) = match logical {
        LogicalCmp::Cmp(CmpOp::Lt, c) => (0, search(c, false), false),
        LogicalCmp::Cmp(CmpOp::Le, c) => (0, search(c, true), false),
        LogicalCmp::Cmp(CmpOp::Ge, c) => (search(c, false), n, false),
        LogicalCmp::Cmp(CmpOp::Gt, c) => (search(c, true), n, false),
        LogicalCmp::Cmp(CmpOp::Eq, c) => (search(c, false), search(c, true), false),
        LogicalCmp::Cmp(CmpOp::Ne, c) => (search(c, false), search(c, true), true),
        LogicalCmp::Between(lo, hi) => (search(lo, false), search(hi, true), false),
    };
    let hi = sel_hi.max(sel_lo);
    out.fill(if invert { SELECTED } else { REJECTED });
    out[sel_lo..hi].fill(if invert { REJECTED } else { SELECTED });
}

/// Apply a domain comparison to a bit-packed unsigned payload.
fn apply_domain_cmp_packed(
    packed: &bipie_toolbox::bitpack::PackedVec,
    dc: DomainCmp,
    start: usize,
    out: &mut [u8],
    scratch: &mut FilterScratch,
    level: SimdLevel,
) {
    match dc {
        DomainCmp::All => out.fill(SELECTED),
        DomainCmp::None => out.fill(REJECTED),
        DomainCmp::Cmp(op, c) if packed.bits() <= 32 => {
            scratch.u32_buf.resize(out.len(), 0);
            packed.unpack_into_u32(start, &mut scratch.u32_buf, level);
            cmp::cmp_u32(&scratch.u32_buf, op, c as u32, out, level);
        }
        DomainCmp::Between(lo, hi) if packed.bits() <= 32 => {
            scratch.u32_buf.resize(out.len(), 0);
            packed.unpack_into_u32(start, &mut scratch.u32_buf, level);
            cmp::between_u32(&scratch.u32_buf, lo as u32, hi as u32, out, level);
        }
        DomainCmp::Cmp(op, c) => {
            // Wide packed values: unpack to u64, compare scalar.
            let mut buf = vec![0u64; out.len()];
            packed.unpack_into_u64(start, &mut buf, level);
            cmp::cmp_u64(&buf, op, c, out, level);
        }
        DomainCmp::Between(lo, hi) => {
            let mut buf = vec![0u64; out.len()];
            packed.unpack_into_u64(start, &mut buf, level);
            for (o, &v) in out.iter_mut().zip(&buf) {
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
            ],
            10_000,
        );
        for i in 0..1000i64 {
            let flag = ["A", "N", "R"][(i % 3) as usize];
            b.push_row(vec![Value::Str(flag.into()), Value::I64(i - 500)]);
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
            for pred in [
                Predicate::eq("v", Value::I64(0)),
                Predicate::ne("v", Value::I64(-500)),
                Predicate::lt("v", Value::I64(-100)),
                Predicate::le("v", Value::I64(499)),
                Predicate::gt("v", Value::I64(499)),
                Predicate::ge("v", Value::I64(500)),
                Predicate::between("v", Value::I64(-10), Value::I64(10)),
                Predicate::eq("v", Value::I64(99_999)), // out of domain
                Predicate::lt("v", Value::I64(-501)),   // below domain
                Predicate::ge("v", Value::I64(-500)),   // whole domain
            ] {
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
        // Conjunction eliminates if ANY single conjunct eliminates (ranges
        // of separate conjuncts are not intersected).
        let gone = Predicate::and(vec![
            Predicate::ge("v", Value::I64(0)),
            Predicate::gt("v", Value::I64(1000)),
        ]);
        assert!(gone.resolve(&t).unwrap().eliminates_segment(seg));
        let kept = Predicate::and(vec![
            Predicate::ge("v", Value::I64(0)),
            Predicate::lt("v", Value::I64(-400)), // jointly impossible, individually possible
        ]);
        assert!(!kept.resolve(&t).unwrap().eliminates_segment(seg));
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
