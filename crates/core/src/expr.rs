//! Scalar expressions over decoded column vectors.
//!
//! In MemSQL these are compiled to machine code with LLVM; the key contract
//! (§3) is that "generated functions always operate on decompressed column
//! data" so expressions need not be specialized per encoding. This module
//! implements the same contract with a vectorized interpreter: expressions
//! evaluate over `i64` vectors of decoded values, batch at a time.
//!
//! Arithmetic is `i64` with wrapping semantics ruled out up front: interval
//! analysis over segment metadata ([`ResolvedExpr::value_range`]) proves
//! that neither the expression nor its sum over a segment can overflow
//! (§2.1's metadata-driven overflow avoidance), and execution then uses
//! plain adds/multiplies.
//!
//! The same metadata can prove more (DESIGN.md §17): when every node of the
//! tree is non-negative and both operands of every multiplication fit 32
//! bits ([`ResolvedExpr::lane_range`]), the compiled program also runs as a
//! typed [`LaneProgram`] over natural-width columns
//! ([`ResolvedExpr::lane_program`]) — no `i64` vectors at all. The `i64`
//! interpreter here stays the one general fallback.

use bipie_columnstore::Segment;
use bipie_toolbox::agg::lane::{LaneArg, LaneBin, LaneOp, LaneProgram};

use crate::error::{EngineError, Result};

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A column reference by name.
    Col(String),
    /// An integer literal (storage-scaled: cents for decimals, days for
    /// dates).
    Lit(i64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

#[allow(clippy::should_implement_trait, reason = "fluent builder methods, not operator traits")]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Integer literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// True if the expression is a bare column reference (eligible for the
    /// encoded-data fast paths that skip decoding entirely).
    pub fn as_bare_column(&self) -> Option<&str> {
        match self {
            Expr::Col(name) => Some(name),
            _ => None,
        }
    }

    /// Names of all referenced columns (deduplicated, in first-use order).
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Neg(a) => a.collect_columns(out),
        }
    }

    /// Resolve column names to indices and compile the vector program.
    pub fn resolve(&self, lookup: &impl Fn(&str) -> Option<usize>) -> Result<ResolvedExpr> {
        let node = self.resolve_node(lookup)?;
        let mut program = Vec::new();
        let mut max_stack = 0usize;
        compile(&node, &mut program, 0, &mut max_stack);
        Ok(ResolvedExpr { root: node, program, max_stack })
    }

    fn resolve_node(&self, lookup: &impl Fn(&str) -> Option<usize>) -> Result<Node> {
        Ok(match self {
            Expr::Col(name) => {
                Node::Col(lookup(name).ok_or_else(|| EngineError::UnknownColumn(name.clone()))?)
            }
            Expr::Lit(v) => Node::Lit(*v),
            Expr::Add(a, b) => {
                Node::Add(Box::new(a.resolve_node(lookup)?), Box::new(b.resolve_node(lookup)?))
            }
            Expr::Sub(a, b) => {
                Node::Sub(Box::new(a.resolve_node(lookup)?), Box::new(b.resolve_node(lookup)?))
            }
            Expr::Mul(a, b) => {
                Node::Mul(Box::new(a.resolve_node(lookup)?), Box::new(b.resolve_node(lookup)?))
            }
            Expr::Neg(a) => Node::Neg(Box::new(a.resolve_node(lookup)?)),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Col(usize),
    Lit(i64),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Neg(Box<Node>),
}

/// A leaf operand fused into a vector instruction, so `price * (100 - disc)`
/// compiles to three single-buffer passes with no temporaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// The buffer below the top of the stack (pops it).
    Stack,
    /// A decoded column vector.
    Col(usize),
    /// A constant.
    Lit(i64),
    /// The full result of an earlier expression in the same SELECT list
    /// (cross-expression CSE, see [`resolve_many`]).
    Prev(usize),
}

/// One vector instruction of the compiled expression program. All binary
/// ops operate in place on the top-of-stack buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push a leaf onto the stack.
    Load(Operand),
    /// `top += operand`
    Add(Operand),
    /// `top -= operand`
    Sub(Operand),
    /// `top = operand - top`
    RSub(Operand),
    /// `top *= operand`
    Mul(Operand),
    /// `top = -top`
    Neg,
    /// Push `lhs OP rhs` where both operands are leaves — fuses the load
    /// with the first arithmetic pass.
    Bin2(BinKind, Operand, Operand),
}

/// Binary operator kind for [`Op::Bin2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinKind {
    Add,
    Sub,
    Mul,
}

/// An expression with column references resolved to indices and compiled to
/// a small stack program (the interpreter's stand-in for the paper's
/// LLVM-generated functions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedExpr {
    root: Node,
    program: Vec<Op>,
    max_stack: usize,
}

/// Reusable evaluation buffers (one per stack slot).
#[derive(Debug, Default, Clone)]
pub struct ExprScratch {
    stack: Vec<Vec<i64>>,
}

/// The decode-and-interpret path (§3: expressions run on decoded data) for
/// a list of expressions evaluated together: the distinct columns they read
/// with their decoded batch, one full-batch result per expression, and the
/// stack — every buffer, the delta decoder's too, kept across batches.
#[derive(Debug, Default, Clone)]
pub(crate) struct ExprEval {
    /// Each column the expressions read, with its decoded batch.
    pub(crate) columns: Vec<(usize, Vec<i64>)>,
    /// One result per expression, in list order (empty for a `None` slot).
    pub(crate) results: Vec<Vec<i64>>,
    scratch: ExprScratch,
    deltas: Vec<u64>,
}

impl ExprEval {
    /// An evaluator for `exprs`. A `None` slot is an input the caller reads
    /// another way: it decodes nothing and its result stays empty.
    pub(crate) fn new<'e>(exprs: impl IntoIterator<Item = Option<&'e ResolvedExpr>>) -> ExprEval {
        let mut eval = ExprEval::default();
        for e in exprs {
            for c in e.map_or_else(Vec::new, ResolvedExpr::columns) {
                if !eval.columns.iter().any(|&(have, _)| have == c) {
                    eval.columns.push((c, Vec::new()));
                }
            }
            eval.results.push(Vec::new());
        }
        eval
    }

    /// Decode rows `start..start + len` of every column, then evaluate the
    /// list `new` was given in order, so a CSE reference reads an earlier
    /// result.
    pub(crate) fn eval<'e>(
        &mut self,
        seg: &Segment,
        start: usize,
        len: usize,
        exprs: impl IntoIterator<Item = Option<&'e ResolvedExpr>>,
    ) {
        for (c, buf) in &mut self.columns {
            buf.resize(len, 0); // the decode overwrites every slot
            seg.column(*c).decode_i64_with(start, buf, &mut self.deltas);
        }
        let columns = &self.columns;
        #[expect(clippy::expect_used, reason = "`new` listed every column the expressions read")]
        let column = |c| &columns.iter().find(|&&(have, _)| have == c).expect("decoded").1[..];
        for (i, e) in exprs.into_iter().enumerate() {
            let (Some(e), (done, rest)) = (e, self.results.split_at_mut(i)) else { continue };
            e.eval_batch_with_prev(len, &column, &|p| &done[p], &mut rest[0], &mut self.scratch);
        }
    }
}

/// Compilation context: earlier expressions whose whole trees may be
/// referenced as [`Operand::Prev`].
struct CseCtx<'a> {
    prev: &'a [(usize, &'a Node)],
}

impl CseCtx<'_> {
    const EMPTY: CseCtx<'static> = CseCtx { prev: &[] };

    fn leaf(&self, n: &Node) -> Option<Operand> {
        match n {
            Node::Col(i) => Some(Operand::Col(*i)),
            Node::Lit(v) => Some(Operand::Lit(*v)),
            _ => self.prev.iter().find(|(_, root)| *root == n).map(|(i, _)| Operand::Prev(*i)),
        }
    }
}

fn compile(n: &Node, program: &mut Vec<Op>, depth: usize, max_stack: &mut usize) {
    compile_cse(n, &CseCtx::EMPTY, program, depth, max_stack);
}

fn compile_cse(
    n: &Node,
    ctx: &CseCtx<'_>,
    program: &mut Vec<Op>,
    depth: usize,
    max_stack: &mut usize,
) {
    *max_stack = (*max_stack).max(depth + 1);
    if let Some(operand) = ctx.leaf(n) {
        program.push(Op::Load(operand));
        return;
    }
    match n {
        #[expect(
            clippy::unreachable,
            reason = "`ctx.leaf` returned Some for every Col/Lit just above"
        )]
        Node::Col(_) | Node::Lit(_) => unreachable!("leaves handled above"),
        Node::Neg(a) => {
            compile_cse(a, ctx, program, depth, max_stack);
            program.push(Op::Neg);
        }
        Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
            let make = |operand: Operand| match n {
                Node::Add(..) => Op::Add(operand),
                Node::Sub(..) => Op::Sub(operand),
                Node::Mul(..) => Op::Mul(operand),
                #[expect(
                    clippy::unreachable,
                    reason = "the enclosing arm only matches Add/Sub/Mul"
                )]
                _ => unreachable!(),
            };
            if let (Some(lhs), Some(rhs)) = (ctx.leaf(a), ctx.leaf(b)) {
                let kind = match n {
                    Node::Add(..) => BinKind::Add,
                    Node::Sub(..) => BinKind::Sub,
                    Node::Mul(..) => BinKind::Mul,
                    #[expect(
                        clippy::unreachable,
                        reason = "the enclosing arm only matches Add/Sub/Mul"
                    )]
                    _ => unreachable!(),
                };
                program.push(Op::Bin2(kind, lhs, rhs));
            } else if let Some(rhs) = ctx.leaf(b) {
                compile_cse(a, ctx, program, depth, max_stack);
                program.push(make(rhs));
            } else if let Some(lhs) = ctx.leaf(a) {
                compile_cse(b, ctx, program, depth, max_stack);
                // a OP top: addition/multiplication commute; subtraction
                // needs the reversed form.
                program.push(match n {
                    Node::Sub(..) => Op::RSub(lhs),
                    _ => make(lhs),
                });
            } else {
                compile_cse(a, ctx, program, depth, max_stack);
                compile_cse(b, ctx, program, depth + 1, max_stack);
                program.push(make(Operand::Stack));
            }
        }
    }
}

/// Resolve a SELECT list of expressions together, letting each expression
/// reuse the *complete results* of earlier ones (common-subexpression
/// elimination). TPC-H Q1's `charge = disc_price * (1 + tax)` then costs
/// two vector passes instead of re-deriving `disc_price`.
///
/// Evaluation order matters: expression `j` may only reference results
/// `i < j`, which the evaluator guarantees by evaluating in list order.
pub fn resolve_many(
    exprs: &[&Expr],
    lookup: &impl Fn(&str) -> Option<usize>,
) -> Result<Vec<ResolvedExpr>> {
    let nodes: Result<Vec<Node>> = exprs.iter().map(|e| e.resolve_node(lookup)).collect();
    let nodes = nodes?;
    let mut out = Vec::with_capacity(nodes.len());
    for (j, node) in nodes.iter().enumerate() {
        let prev: Vec<(usize, &Node)> = nodes[..j]
            .iter()
            .enumerate()
            // Bare columns/literals are cheaper read directly.
            .filter(|(_, p)| !matches!(p, Node::Col(_) | Node::Lit(_)))
            .collect();
        let ctx = CseCtx { prev: &prev };
        let mut program = Vec::new();
        let mut max_stack = 0usize;
        compile_cse(node, &ctx, &mut program, 0, &mut max_stack);
        out.push(ResolvedExpr { root: node.clone(), program, max_stack });
    }
    Ok(out)
}

impl ResolvedExpr {
    /// Column indices referenced (deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        fn walk(n: &Node, out: &mut Vec<usize>) {
            match n {
                Node::Col(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                Node::Lit(_) => {}
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Node::Neg(a) => walk(a, out),
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// The bare column index, if the expression is a plain column.
    pub fn as_bare_column(&self) -> Option<usize> {
        match self.root {
            Node::Col(i) => Some(i),
            _ => None,
        }
    }

    /// Vectorized evaluation: `columns(idx)` supplies the decoded vector of
    /// each referenced column (all of length `len`); results land in `out`.
    /// `scratch` buffers are reused across calls (one per stack slot).
    ///
    /// For expressions compiled by [`resolve_many`], use
    /// [`eval_batch_with_prev`](Self::eval_batch_with_prev).
    pub fn eval_batch<'a>(
        &self,
        len: usize,
        columns: &impl Fn(usize) -> &'a [i64],
        out: &mut Vec<i64>,
        scratch: &mut ExprScratch,
    ) {
        static EMPTY: [i64; 0] = [];
        self.eval_batch_with_prev(len, columns, &|_| &EMPTY[..], out, scratch);
    }

    /// [`eval_batch`](Self::eval_batch) for CSE-compiled expressions:
    /// `prev(i)` supplies the already-evaluated result of the `i`-th
    /// expression in the [`resolve_many`] list.
    pub fn eval_batch_with_prev<'a, 'p>(
        &self,
        len: usize,
        columns: &impl Fn(usize) -> &'a [i64],
        prev: &impl Fn(usize) -> &'p [i64],
        out: &mut Vec<i64>,
        scratch: &mut ExprScratch,
    ) {
        while scratch.stack.len() < self.max_stack {
            scratch.stack.push(Vec::new());
        }
        let mut sp = 0usize;
        for op in &self.program {
            match op {
                Op::Load(operand) => {
                    let buf = &mut scratch.stack[sp];
                    buf.clear();
                    match operand {
                        Operand::Col(c) => {
                            let src = columns(*c);
                            assert_eq!(src.len(), len, "column vector length mismatch");
                            buf.extend_from_slice(src);
                        }
                        Operand::Prev(i) => {
                            let src = prev(*i);
                            assert_eq!(src.len(), len, "CSE vector length mismatch");
                            buf.extend_from_slice(src);
                        }
                        Operand::Lit(v) => buf.resize(len, *v),
                        #[expect(
                            clippy::unreachable,
                            reason = "the compiler never emits Load(Stack): `compile_cse` loads \
                                      only leaf operands"
                        )]
                        Operand::Stack => unreachable!("Load never takes Stack"),
                    }
                    sp += 1;
                }
                Op::Neg => {
                    for x in scratch.stack[sp - 1].iter_mut() {
                        *x = -*x;
                    }
                }
                Op::Bin2(kind, lhs, rhs) => {
                    let buf = &mut scratch.stack[sp];
                    buf.resize(len, 0);
                    // The returned borrow only lives for this instruction;
                    // inference shortens 'a/'p to a common local lifetime.
                    let get = |operand: &Operand| match operand {
                        Operand::Col(c) => {
                            let src = columns(*c);
                            assert_eq!(src.len(), len, "column vector length mismatch");
                            RhsVals::Slice(src)
                        }
                        Operand::Prev(i) => {
                            let src = prev(*i);
                            assert_eq!(src.len(), len, "CSE vector length mismatch");
                            RhsVals::Slice(src)
                        }
                        Operand::Lit(v) => RhsVals::Splat(*v),
                        #[expect(
                            clippy::unreachable,
                            reason = "the compiler emits Bin2 only when both operands are leaves \
                                      (Col/Prev/Lit)"
                        )]
                        Operand::Stack => unreachable!("Bin2 takes leaves"),
                    };
                    bin2(*kind, get(lhs), get(rhs), buf);
                    sp += 1;
                }
                Op::Add(operand) | Op::Sub(operand) | Op::Mul(operand) | Op::RSub(operand) => {
                    match operand {
                        Operand::Stack => {
                            let (a, b) = scratch.stack.split_at_mut(sp - 1);
                            sp -= 1;
                            apply(op, a[sp - 1].as_mut_slice(), RhsVals::Slice(&b[0]));
                        }
                        Operand::Col(c) => {
                            let src = columns(*c);
                            assert_eq!(src.len(), len, "column vector length mismatch");
                            apply(op, scratch.stack[sp - 1].as_mut_slice(), RhsVals::Slice(src));
                        }
                        Operand::Prev(i) => {
                            let src = prev(*i);
                            assert_eq!(src.len(), len, "CSE vector length mismatch");
                            apply(op, scratch.stack[sp - 1].as_mut_slice(), RhsVals::Slice(src));
                        }
                        Operand::Lit(v) => {
                            apply(op, scratch.stack[sp - 1].as_mut_slice(), RhsVals::Splat(*v));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(sp, 1, "program leaves one value");
        // Hand the result buffer over without copying; the old `out`
        // allocation becomes the next call's stack slot.
        std::mem::swap(out, &mut scratch.stack[0]);
    }

    /// Single-row evaluation (the oracle executor and tests).
    pub fn eval_row(&self, value_of: &impl Fn(usize) -> i64) -> i64 {
        fn walk(n: &Node, value_of: &impl Fn(usize) -> i64) -> i64 {
            match n {
                Node::Col(i) => value_of(*i),
                Node::Lit(v) => *v,
                Node::Add(a, b) => walk(a, value_of) + walk(b, value_of),
                Node::Sub(a, b) => walk(a, value_of) - walk(b, value_of),
                Node::Mul(a, b) => walk(a, value_of) * walk(b, value_of),
                Node::Neg(a) => -walk(a, value_of),
            }
        }
        walk(&self.root, value_of)
    }

    /// Interval analysis: the (min, max) the expression can take given per-
    /// column (min, max) metadata. Used for overflow proofs and width
    /// selection. Computed in `i128` so the analysis itself cannot wrap.
    pub fn value_range(&self, meta: &impl Fn(usize) -> (i64, i64)) -> (i128, i128) {
        fn walk(n: &Node, meta: &impl Fn(usize) -> (i64, i64)) -> (i128, i128) {
            match n {
                Node::Col(i) => {
                    let (lo, hi) = meta(*i);
                    (lo as i128, hi as i128)
                }
                Node::Lit(v) => (*v as i128, *v as i128),
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                    binary_range(n, walk(a, meta), walk(b, meta))
                }
                Node::Neg(a) => {
                    let (lo, hi) = walk(a, meta);
                    (-hi, -lo)
                }
            }
        }
        walk(&self.root, meta)
    }

    /// The typed-lane proof (DESIGN.md §17): `Ok(max)` when interval
    /// analysis shows every node of the tree non-negative (and within
    /// `i64`) and both operands of every multiplication at most 2³² − 1, so
    /// each intermediate fits one unsigned 64-bit lane and each product is
    /// one `u32 × u32 → u64`. `meta(col)` is the column's `(min, max)`, or
    /// `None` when the column is not bit-packed (no natural-width leaf).
    pub fn lane_range(
        &self,
        meta: &impl Fn(usize) -> Option<(i64, i64)>,
    ) -> std::result::Result<u64, LaneReject> {
        type Range = std::result::Result<(i128, i128), LaneReject>;
        fn walk(n: &Node, meta: &impl Fn(usize) -> Option<(i64, i64)>) -> Range {
            let (lo, hi) = match n {
                Node::Col(i) => {
                    let (lo, hi) = meta(*i).ok_or(LaneReject::UnpackedLeaf)?;
                    (lo as i128, hi as i128)
                }
                Node::Lit(v) => (*v as i128, *v as i128),
                Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) => {
                    let (ra, rb) = (walk(a, meta)?, walk(b, meta)?);
                    let wide = |(_, hi): (i128, i128)| hi > u32::MAX as i128;
                    if matches!(n, Node::Mul(..)) && (wide(ra) || wide(rb)) {
                        return Err(LaneReject::WideMultiplicand);
                    }
                    binary_range(n, ra, rb)
                }
                Node::Neg(_) => return Err(LaneReject::NegativeRange),
            };
            if lo < 0 || hi > i64::MAX as i128 {
                return Err(LaneReject::NegativeRange);
            }
            Ok((lo, hi))
        }
        walk(&self.root, meta).map(|(_, hi)| hi as u64)
    }

    /// Translate the compiled program into a [`LaneProgram`]: column
    /// operands become leaf indices via `leaf_of`, CSE references stay
    /// references to earlier expressions of the same list. Only meaningful
    /// after [`lane_range`](Self::lane_range) accepted the expression.
    pub fn lane_program(
        &self,
        leaf_of: &impl Fn(usize) -> usize,
    ) -> std::result::Result<LaneProgram, LaneReject> {
        let arg = |operand: &Operand| match *operand {
            Operand::Col(c) => Ok(LaneArg::Leaf(leaf_of(c))),
            Operand::Prev(i) => Ok(LaneArg::Prev(i)),
            Operand::Lit(v) => {
                u64::try_from(v).map(LaneArg::Lit).map_err(|_| LaneReject::NegativeRange)
            }
            Operand::Stack => Err(LaneReject::TooDeep),
        };
        let bin = |kind: &BinKind| match kind {
            BinKind::Add => LaneBin::Add,
            BinKind::Sub => LaneBin::Sub,
            BinKind::Mul => LaneBin::Mul,
        };
        let fused = |kind: LaneBin, operand: &Operand| match operand {
            Operand::Stack => Ok(LaneOp::Fold(kind)),
            leaf => arg(leaf).map(|a| LaneOp::Apply(kind, a)),
        };
        let ops = self
            .program
            .iter()
            .map(|op| match op {
                Op::Load(operand) => arg(operand).map(LaneOp::Load),
                Op::Bin2(kind, lhs, rhs) => Ok(LaneOp::Push(bin(kind), arg(lhs)?, arg(rhs)?)),
                Op::Add(operand) => fused(LaneBin::Add, operand),
                Op::Sub(operand) => fused(LaneBin::Sub, operand),
                Op::Mul(operand) => fused(LaneBin::Mul, operand),
                // The compiler emits RSub only with a leaf left operand.
                Op::RSub(operand) => arg(operand).map(LaneOp::RSub),
                Op::Neg => Err(LaneReject::NegativeRange),
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        LaneProgram::new(ops).ok_or(LaneReject::TooDeep)
    }
}

/// Interval of a binary node from its operands' intervals (`i128`, so the
/// analysis itself cannot wrap).
fn binary_range(n: &Node, (al, ah): (i128, i128), (bl, bh): (i128, i128)) -> (i128, i128) {
    match n {
        Node::Add(..) => (al + bl, ah + bh),
        Node::Sub(..) => (al - bh, ah - bl),
        #[expect(clippy::unwrap_used, reason = "min and max of a 4-element array")]
        Node::Mul(..) => {
            let products = [al * bl, al * bh, ah * bl, ah * bh];
            (products.iter().copied().min().unwrap(), products.iter().copied().max().unwrap())
        }
        #[expect(clippy::unreachable, reason = "callers pass Add/Sub/Mul nodes only")]
        Node::Col(_) | Node::Lit(_) | Node::Neg(_) => unreachable!("not a binary node"),
    }
}

/// Why an expression cannot run as a typed lane program and keeps the `i64`
/// interpreter (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneReject {
    /// A referenced column is not bit-packed: no natural-width leaf.
    UnpackedLeaf,
    /// Some node of the tree may be negative (or exceed `i64`).
    NegativeRange,
    /// A multiplication operand may exceed 32 bits.
    WideMultiplicand,
    /// The program needs a deeper operand stack than the lane evaluator has.
    TooDeep,
    /// A MIN/MAX input is computed; those evaluate as `i64` and may
    /// reference the sums' results.
    ComputedMinMax,
}

/// Right-hand operand of an in-place vector op.
enum RhsVals<'a> {
    Slice(&'a [i64]),
    Splat(i64),
}

/// `out[i] = lhs[i] OP rhs[i]` with either side possibly a constant.
fn bin2(kind: BinKind, lhs: RhsVals<'_>, rhs: RhsVals<'_>, out: &mut [i64]) {
    let f = |a: i64, b: i64| match kind {
        BinKind::Add => a + b,
        BinKind::Sub => a - b,
        BinKind::Mul => a * b,
    };
    match (lhs, rhs) {
        (RhsVals::Slice(a), RhsVals::Slice(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (RhsVals::Slice(a), RhsVals::Splat(y)) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y);
            }
        }
        (RhsVals::Splat(x), RhsVals::Slice(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(x, y);
            }
        }
        (RhsVals::Splat(x), RhsVals::Splat(y)) => out.fill(f(x, y)),
    }
}

fn apply(op: &Op, top: &mut [i64], rhs: RhsVals<'_>) {
    macro_rules! run {
        ($f:expr) => {
            match rhs {
                RhsVals::Slice(r) => {
                    for (t, &r) in top.iter_mut().zip(r) {
                        #[allow(
                            clippy::redundant_closure_call,
                            reason = "the macro applies its operator closure in place"
                        )]
                        {
                            *t = ($f)(*t, r);
                        }
                    }
                }
                RhsVals::Splat(r) => {
                    for t in top.iter_mut() {
                        #[allow(
                            clippy::redundant_closure_call,
                            reason = "the macro applies its operator closure in place"
                        )]
                        {
                            *t = ($f)(*t, r);
                        }
                    }
                }
            }
        };
    }
    match op {
        Op::Add(_) => run!(|t: i64, r: i64| t + r),
        Op::Sub(_) => run!(|t: i64, r: i64| t - r),
        Op::RSub(_) => run!(|t: i64, r: i64| r - t),
        Op::Mul(_) => run!(|t: i64, r: i64| t * r),
        #[expect(
            clippy::unreachable,
            reason = "the interpreter loop dispatches those opcodes before reaching this fused-RHS \
                      helper"
        )]
        Op::Load(_) | Op::Neg | Op::Bin2(..) => {
            unreachable!("handled by the interpreter loop")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(name: &str) -> Option<usize> {
        ["a", "b", "c"].iter().position(|&n| n == name)
    }

    #[test]
    fn build_and_resolve() {
        // price * (100 - disc): the TPC-H Q1 shape on scaled integers.
        let e = Expr::col("a").mul(Expr::lit(100).sub(Expr::col("b")));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
        assert!(e.as_bare_column().is_none());
        assert_eq!(Expr::col("c").as_bare_column(), Some("c"));
        let r = e.resolve(&lookup).unwrap();
        assert_eq!(r.columns(), vec![0, 1]);
    }

    #[test]
    fn unknown_column_errors() {
        let e = Expr::col("nope");
        assert_eq!(e.resolve(&lookup), Err(EngineError::UnknownColumn("nope".into())));
    }

    #[test]
    fn batch_eval_matches_row_eval() {
        let e = Expr::col("a").mul(Expr::lit(100).sub(Expr::col("b"))).add(Expr::col("c").neg());
        let r = e.resolve(&lookup).unwrap();
        let a: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..100).map(|i| i % 11).collect();
        let c: Vec<i64> = (0..100).map(|i| 50 - i).collect();
        let cols = [a.clone(), b.clone(), c.clone()];
        let mut out = Vec::new();
        r.eval_batch(100, &|i| cols[i].as_slice(), &mut out, &mut ExprScratch::default());
        for i in 0..100 {
            let expected = r.eval_row(&|col| cols[col][i]);
            assert_eq!(out[i], expected, "i={i}");
            assert_eq!(expected, a[i] * (100 - b[i]) - c[i]);
        }
    }

    #[test]
    fn cse_reuses_prior_expression_results() {
        // e1 = a * (100 - b); e2 = e1 * (100 + c): e2 must reference e1's
        // result rather than recompute it.
        let e1 = Expr::col("a").mul(Expr::lit(100).sub(Expr::col("b")));
        let e2 = e1.clone().mul(Expr::lit(100).add(Expr::col("c")));
        let resolved = resolve_many(&[&e1, &e2], &lookup).unwrap();
        assert!(
            resolved[1]
                .program
                .iter()
                .any(|op| matches!(op, Op::Mul(Operand::Prev(0)) | Op::Load(Operand::Prev(0)))),
            "program: {:?}",
            resolved[1].program
        );
        // And evaluation with prev gives the same values as row-eval.
        let a: Vec<i64> = (0..200).map(|i| i * 3).collect();
        let b: Vec<i64> = (0..200).map(|i| i % 11).collect();
        let c: Vec<i64> = (0..200).map(|i| i % 7).collect();
        let cols = [a, b, c];
        let mut scratch = ExprScratch::default();
        let mut out1 = Vec::new();
        resolved[0].eval_batch(200, &|i| cols[i].as_slice(), &mut out1, &mut scratch);
        let mut out2 = Vec::new();
        resolved[1].eval_batch_with_prev(
            200,
            &|i| cols[i].as_slice(),
            &|p| {
                assert_eq!(p, 0);
                out1.as_slice()
            },
            &mut out2,
            &mut scratch,
        );
        for i in 0..200 {
            let expected = resolved[1].eval_row(&|col| cols[col][i]);
            assert_eq!(out2[i], expected, "i={i}");
        }
    }

    #[test]
    fn cse_ignores_bare_columns() {
        // A bare column expression must not become a Prev reference (it is
        // cheaper to read directly, and may be a packed input with no
        // evaluated buffer).
        let e1 = Expr::col("a");
        let e2 = Expr::col("a").mul(Expr::col("b"));
        let resolved = resolve_many(&[&e1, &e2], &lookup).unwrap();
        assert!(
            !resolved[1].program.iter().any(|op| matches!(op, Op::Load(Operand::Prev(_)))),
            "program: {:?}",
            resolved[1].program
        );
    }

    #[test]
    fn interval_analysis() {
        let meta = |i: usize| [(0i64, 10i64), (-5, 5), (100, 200)][i];
        let e = Expr::col("a").mul(Expr::col("b")).resolve(&lookup).unwrap();
        assert_eq!(e.value_range(&meta), (-50, 50));
        let e = Expr::col("c").sub(Expr::col("a")).resolve(&lookup).unwrap();
        assert_eq!(e.value_range(&meta), (90, 200));
        let e = Expr::col("b").neg().resolve(&lookup).unwrap();
        assert_eq!(e.value_range(&meta), (-5, 5));
        let e = Expr::lit(7).resolve(&lookup).unwrap();
        assert_eq!(e.value_range(&meta), (7, 7));
    }

    #[test]
    fn interval_handles_extremes_without_wrap() {
        let meta = |_: usize| (i64::MIN, i64::MAX);
        let e = Expr::col("a").mul(Expr::col("b")).resolve(&lookup).unwrap();
        let (lo, hi) = e.value_range(&meta);
        assert!(lo < i64::MIN as i128 && hi > i64::MAX as i128);
    }

    #[test]
    fn empty_batch() {
        let e = Expr::col("a").resolve(&lookup).unwrap();
        let mut out = vec![1, 2, 3];
        let empty: Vec<i64> = vec![];
        e.eval_batch(0, &|_| empty.as_slice(), &mut out, &mut ExprScratch::default());
        assert!(out.is_empty());
    }
}
