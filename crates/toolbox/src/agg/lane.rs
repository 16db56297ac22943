//! Typed lane programs: tiny add/sub/mul trees over natural-width columns.
//!
//! The paper runs aggregate expressions as generated code on narrow decoded
//! data (§3). The analogue here is a [`LaneProgram`]: a short stack program
//! whose every intermediate value the planner has *proven* — from segment
//! metadata — to be a non-negative integer, with both operands of every
//! multiplication below 2³². Under that proof each value lives in one
//! unsigned 64-bit lane, a multiplication is one `vpmuludq`, and leaf
//! columns are read at the width they were unpacked to (`u8`…`u64`) instead
//! of being widened to full-batch `i64` vectors first.
//!
//! Programs run [`CHUNK_ROWS`] rows at a time, so every intermediate is an
//! L1-resident 2 KiB buffer: the multi-aggregate row builder evaluates one
//! chunk of results straight into a slot lane, so the values never exist as
//! a batch vector at all (and Q1's shape skips the lanes too: its row step
//! evaluates the programs in registers, `multi::RowStep`), and
//! [`materialize_u32`] / [`materialize_u64`] stream a whole batch into a
//! typed vector for the kernels that want one.
//!
//! Arithmetic wraps in 64 bits, which under the proof is exact; `Mul` is
//! defined as the product of the operands' low 32 bits so that the scalar
//! oracle and the SIMD tier agree on *every* input, not only proven ones.

use super::ColRef;
use crate::dispatch::SimdLevel::Avx2;
use crate::dispatch::{cells, kernel_sig, Cell, Family, Resolved, SimdLevel, ANY};

kernel_sig! {
    /// `dst[i] = a[i] ∘ b[i]` over one chunk.
    pub(crate) type BinK = fn(kind: LaneBin, a: Vals<'_>, b: Vals<'_>, dst: &mut [u64]);
}

pub(crate) const BIN: Family<BinK> = Family {
    cells: cells![Cell { tier: Avx2, gate: ANY, kernel: avx2::bin }],
    oracle: |kind, a, b, dst| bin_rows(kind, a, b, dst, 0),
};

/// Rows evaluated per chunk: four 64-bit slot lanes plus the operand stack
/// stay inside L1 next to the accumulator rows.
pub const CHUNK_ROWS: usize = 256;

/// Deepest operand stack a program may need (slot 0 is the destination).
pub const MAX_DEPTH: usize = 4;

/// An operand that is not on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneArg {
    /// The caller's leaf column `i` (value + bias).
    Leaf(usize),
    /// The finished result of expression `i` of the same list.
    Prev(usize),
    /// A constant.
    Lit(u64),
}

/// Binary operator of a lane op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneBin {
    /// Wrapping 64-bit add.
    Add,
    /// Wrapping 64-bit subtract.
    Sub,
    /// Product of the operands' low 32 bits.
    Mul,
}

/// One chunk-wide instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOp {
    /// Push `a`.
    Load(LaneArg),
    /// Push `a ∘ b`.
    Push(LaneBin, LaneArg, LaneArg),
    /// `top = top ∘ a`.
    Apply(LaneBin, LaneArg),
    /// `top = a - top`.
    RSub(LaneArg),
    /// Pop `b`, then `top = top ∘ b`.
    Fold(LaneBin),
}

/// A validated lane program: leaves exactly one value and never needs more
/// than [`MAX_DEPTH`] stack slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneProgram {
    ops: Vec<LaneOp>,
}

impl LaneProgram {
    /// Validate the stack discipline of `ops`; `None` if the program
    /// underflows, leaves other than one value, or is deeper than
    /// [`MAX_DEPTH`].
    pub fn new(ops: Vec<LaneOp>) -> Option<LaneProgram> {
        let mut depth = 0usize;
        for op in &ops {
            match op {
                LaneOp::Load(_) | LaneOp::Push(..) => depth += 1,
                LaneOp::Apply(..) | LaneOp::RSub(_) if depth >= 1 => {}
                LaneOp::Fold(_) if depth >= 2 => depth -= 1,
                _ => return None,
            }
            if depth > MAX_DEPTH {
                return None;
            }
        }
        (depth == 1).then_some(LaneProgram { ops })
    }

    /// The instructions.
    pub fn ops(&self) -> &[LaneOp] {
        &self.ops
    }
}

/// A leaf column of a lane program: the unpacked (normalized) values plus
/// the frame-of-reference `bias` that makes them logical.
#[derive(Debug, Clone, Copy)]
pub struct LaneLeaf<'a> {
    /// Unpacked values at their natural width.
    pub col: ColRef<'a>,
    /// Added to every value after zero-extension.
    pub bias: u64,
}

/// Operand stack slots above the destination, reused across chunks.
#[derive(Debug)]
pub struct LaneScratch {
    stack: [[u64; CHUNK_ROWS]; MAX_DEPTH - 1],
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch { stack: [[0; CHUNK_ROWS]; MAX_DEPTH - 1] }
    }
}

/// A resolved operand: a window of exactly the chunk's length, a constant,
/// or the destination's current contents.
#[derive(Clone, Copy)]
pub(crate) enum Vals<'a> {
    Win(ColRef<'a>, u64),
    Lit(u64),
    Top,
}

/// Evaluate `prog` for rows `off .. off + dst.len()` into `dst` with the
/// chunk-op kernel its batch-level caller resolved.
///
/// `leaf(i)` returns full-length leaf column `i` (windowed here by `off`);
/// `prev(i)` returns the already-finished result of expression `i` *for
/// this chunk* (exactly `dst.len()` values).
///
/// # Panics
/// Panics if `dst` is longer than [`CHUNK_ROWS`] or an operand window is
/// shorter than the chunk.
pub(crate) fn eval_chunk<'l, 'p>(
    prog: &LaneProgram,
    leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    prev: &dyn Fn(usize) -> ColRef<'p>,
    off: usize,
    dst: &mut [u64],
    scratch: &mut LaneScratch,
    kernel: Resolved<BinK>,
) {
    let n = dst.len();
    assert!(n <= CHUNK_ROWS, "chunk of {n} rows exceeds {CHUNK_ROWS}");
    let resolve = |arg: &LaneArg| match *arg {
        LaneArg::Leaf(i) => {
            let leaf = leaf(i);
            Vals::Win(leaf.col.window(off, n), leaf.bias)
        }
        LaneArg::Prev(i) => {
            let p = prev(i);
            assert_eq!(p.len(), n, "previous-result window length mismatch");
            Vals::Win(p, 0)
        }
        LaneArg::Lit(v) => Vals::Lit(v),
    };
    // Stack slot 0 is `dst`; slot p >= 1 is `scratch.stack[p - 1]`.
    let mut sp = 0usize;
    for op in &prog.ops {
        match op {
            LaneOp::Load(a) => {
                bin(LaneBin::Add, resolve(a), Vals::Lit(0), slot(dst, scratch, sp, n), kernel);
                sp += 1;
            }
            LaneOp::Push(kind, a, b) => {
                bin(*kind, resolve(a), resolve(b), slot(dst, scratch, sp, n), kernel);
                sp += 1;
            }
            LaneOp::Apply(kind, a) => {
                bin(*kind, Vals::Top, resolve(a), slot(dst, scratch, sp - 1, n), kernel)
            }
            LaneOp::RSub(a) => {
                bin(LaneBin::Sub, resolve(a), Vals::Top, slot(dst, scratch, sp - 1, n), kernel)
            }
            LaneOp::Fold(kind) => {
                sp -= 1;
                // Slots sp - 1 (target) and sp (popped) are distinct buffers.
                let (lo, hi) = if sp == 1 {
                    (&mut *dst, &scratch.stack[0][..n])
                } else {
                    let (below, above) = scratch.stack.split_at_mut(sp - 1);
                    (&mut below[sp - 2][..n], &above[0][..n])
                };
                bin(*kind, Vals::Top, Vals::Win(ColRef::U64(hi), 0), lo, kernel);
            }
        }
    }
    debug_assert_eq!(sp, 1, "validated programs leave one value");
}

fn slot<'s>(
    dst: &'s mut [u64],
    scratch: &'s mut LaneScratch,
    pos: usize,
    n: usize,
) -> &'s mut [u64] {
    if pos == 0 {
        dst
    } else {
        &mut scratch.stack[pos - 1][..n]
    }
}

/// Evaluate `prog` over a whole batch into `out` (`u64` results). `prev(i)`
/// returns expression `i`'s full-length result.
pub fn materialize_u64<'l, 'p>(
    prog: &LaneProgram,
    leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    prev: &dyn Fn(usize) -> ColRef<'p>,
    out: &mut [u64],
    level: SimdLevel,
) {
    let (kernel, mut scratch) = (BIN.resolve(level, 0), LaneScratch::default());
    let mut off = 0usize;
    for chunk in out.chunks_mut(CHUNK_ROWS) {
        let n = chunk.len();
        let prev = |i| prev(i).window(off, n);
        eval_chunk(prog, leaf, &prev, off, chunk, &mut scratch, kernel);
        off += n;
    }
}

/// Evaluate `prog` over a whole batch into `out`, narrowing to `u32` (the
/// planner proved the results fit).
pub fn materialize_u32<'l, 'p>(
    prog: &LaneProgram,
    leaf: &dyn Fn(usize) -> LaneLeaf<'l>,
    prev: &dyn Fn(usize) -> ColRef<'p>,
    out: &mut [u32],
    level: SimdLevel,
) {
    let (kernel, mut scratch) = (BIN.resolve(level, 0), LaneScratch::default());
    let mut wide = [0u64; CHUNK_ROWS];
    let mut off = 0usize;
    for chunk in out.chunks_mut(CHUNK_ROWS) {
        let n = chunk.len();
        let wide = &mut wide[..n];
        let prev = |i| prev(i).window(off, n);
        eval_chunk(prog, leaf, &prev, off, wide, &mut scratch, kernel);
        for (o, &w) in chunk.iter_mut().zip(wide.iter()) {
            debug_assert!(w <= u32::MAX as u64, "lane result {w} exceeds the proven u32 width");
            *o = w as u32;
        }
        off += n;
    }
}

/// `dst[i] = a[i] ∘ b[i]`, where [`Vals::Top`] reads `dst[i]` itself.
fn bin(kind: LaneBin, a: Vals<'_>, b: Vals<'_>, dst: &mut [u64], kernel: Resolved<BinK>) {
    for v in [&a, &b] {
        if let Vals::Win(col, _) = v {
            assert_eq!(col.len(), dst.len(), "operand window length mismatch");
        }
    }
    kernel.run(kind, a, b, dst);
}

/// The chunk op over rows `from..`: [`BIN`]'s oracle from row 0.
fn bin_rows(kind: LaneBin, a: Vals<'_>, b: Vals<'_>, dst: &mut [u64], from: usize) {
    let get = |v: &Vals<'_>, i: usize, top: u64| match v {
        Vals::Win(col, bias) => col.get(i).wrapping_add(*bias),
        Vals::Lit(x) => *x,
        Vals::Top => top,
    };
    for i in from..dst.len() {
        dst[i] = apply(kind, get(&a, i, dst[i]), get(&b, i, dst[i]));
    }
}

/// `x ∘ y` on one row: the 64-bit lane semantics every tier shares.
#[inline]
pub(crate) fn apply(kind: LaneBin, x: u64, y: u64) -> u64 {
    match kind {
        LaneBin::Add => x.wrapping_add(y),
        LaneBin::Sub => x.wrapping_sub(y),
        LaneBin::Mul => (x & 0xFFFF_FFFF) * (y & 0xFFFF_FFFF),
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{ColRef, LaneBin, Vals};
    use std::arch::x86_64::*;

    /// Four consecutive values of an operand as 64-bit lanes.
    pub(crate) trait Lane4: Copy {
        /// # Safety
        /// The CPU must support avx2, and rows `i..i + 4` must be readable
        /// through the operand's pointer.
        unsafe fn load4(self, i: usize) -> __m256i;
    }

    /// A `T`-typed column pointer.
    #[derive(Clone, Copy)]
    pub(crate) struct Ptr<T>(pub(crate) *const T);

    impl Lane4 for Ptr<u8> {
        /// # Safety
        /// As [`Lane4::load4`]: avx2, and four readable bytes at row `i`.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: the caller guarantees avx2 and four readable bytes.
            unsafe {
                let word = (self.0.add(i) as *const i32).read_unaligned();
                _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(word))
            }
        }
    }
    impl Lane4 for Ptr<u16> {
        /// # Safety
        /// As [`Lane4::load4`]: avx2, and four readable `u16`s at row `i`.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: the caller guarantees avx2 and four readable u16s.
            unsafe { _mm256_cvtepu16_epi64(_mm_loadl_epi64(self.0.add(i) as *const __m128i)) }
        }
    }
    impl Lane4 for Ptr<u32> {
        /// # Safety
        /// As [`Lane4::load4`]: avx2, and four readable `u32`s at row `i`.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: the caller guarantees avx2 and four readable u32s.
            unsafe { _mm256_cvtepu32_epi64(_mm_loadu_si128(self.0.add(i) as *const __m128i)) }
        }
    }
    impl Lane4 for Ptr<u64> {
        /// # Safety
        /// As [`Lane4::load4`]: avx2, and four readable `u64`s at row `i`.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: the caller guarantees avx2 and four readable u64s.
            unsafe { _mm256_loadu_si256(self.0.add(i) as *const __m256i) }
        }
    }

    /// A column operand plus its bias.
    #[derive(Clone, Copy)]
    pub(crate) struct Biased<P>(pub(crate) P, pub(crate) u64);

    impl<P: Lane4> Lane4 for Biased<P> {
        /// # Safety
        /// As [`Lane4::load4`] for the wrapped operand.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: forwarded caller guarantees.
            unsafe { _mm256_add_epi64(self.0.load4(i), _mm256_set1_epi64x(self.1 as i64)) }
        }
    }

    /// A constant operand.
    #[derive(Clone, Copy)]
    pub(crate) struct Splat(pub(crate) u64);

    impl Lane4 for Splat {
        /// # Safety
        /// The CPU must support avx2 (no memory is read).
        #[inline(always)]
        unsafe fn load4(self, _i: usize) -> __m256i {
            // SAFETY: the caller guarantees avx2.
            unsafe { _mm256_set1_epi64x(self.0 as i64) }
        }
    }

    /// # Safety
    /// The CPU must support avx2 — guaranteed by the
    /// resolver's tier check before any call. Every
    /// [`Vals::Win`] operand must hold exactly `dst.len()` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bin(kind: LaneBin, a: Vals<'_>, b: Vals<'_>, dst: &mut [u64]) {
        let n4 = dst.len() & !3;
        let p = dst.as_mut_ptr();
        // SAFETY: avx2 is enabled for this function; `p` spans dst.len()
        // values, every window holds as many (caller contract), and the
        // kernels touch rows below n4 <= dst.len() only. `Top` reads rows
        // through the same pointer the kernel writes, row by row.
        unsafe {
            match kind {
                LaneBin::Add => with_a::<AddK>(a, b, p, n4),
                LaneBin::Sub => with_a::<SubK>(a, b, p, n4),
                LaneBin::Mul => with_a::<MulK>(a, b, p, n4),
            }
        }
        if n4 < dst.len() {
            super::bin_rows(kind, a, b, dst, n4);
        }
    }

    /// A lane operator on four rows.
    pub(crate) trait BinK: Copy {
        /// # Safety
        /// The CPU must support avx2.
        unsafe fn apply(x: __m256i, y: __m256i) -> __m256i;
    }
    #[derive(Clone, Copy)]
    pub(crate) struct AddK;
    #[derive(Clone, Copy)]
    pub(crate) struct SubK;
    #[derive(Clone, Copy)]
    pub(crate) struct MulK;
    impl BinK for AddK {
        /// # Safety
        /// The CPU must support avx2.
        #[inline(always)]
        unsafe fn apply(x: __m256i, y: __m256i) -> __m256i {
            // SAFETY: the caller guarantees avx2.
            unsafe { _mm256_add_epi64(x, y) }
        }
    }
    impl BinK for SubK {
        /// # Safety
        /// The CPU must support avx2.
        #[inline(always)]
        unsafe fn apply(x: __m256i, y: __m256i) -> __m256i {
            // SAFETY: the caller guarantees avx2.
            unsafe { _mm256_sub_epi64(x, y) }
        }
    }
    impl BinK for MulK {
        /// # Safety
        /// The CPU must support avx2.
        #[inline(always)]
        unsafe fn apply(x: __m256i, y: __m256i) -> __m256i {
            // SAFETY: the caller guarantees avx2.
            unsafe { _mm256_mul_epu32(x, y) }
        }
    }

    /// `a ∘ b` as an operand: a program's op, kept in a register.
    #[derive(Clone, Copy)]
    pub(crate) struct Op<K, A, B>(pub(crate) K, pub(crate) A, pub(crate) B);

    impl<K: BinK, A: Lane4, B: Lane4> Lane4 for Op<K, A, B> {
        /// # Safety
        /// As [`Lane4::load4`] for both operands.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m256i {
            // SAFETY: forwarded caller guarantees.
            unsafe { K::apply(self.1.load4(i), self.2.load4(i)) }
        }
    }

    /// Resolve operand `a` to its monomorphic loader.
    ///
    /// # Safety
    /// As for [`kernel`], with windows spanning at least `n4` rows.
    #[inline(always)]
    unsafe fn with_a<K: BinK>(a: Vals<'_>, b: Vals<'_>, dst: *mut u64, n4: usize) {
        // SAFETY: forwarded caller guarantees.
        unsafe {
            match a {
                Vals::Win(ColRef::U8(s), bias) => {
                    with_b::<K, _>(Biased(Ptr(s.as_ptr()), bias), b, dst, n4)
                }
                Vals::Win(ColRef::U16(s), bias) => {
                    with_b::<K, _>(Biased(Ptr(s.as_ptr()), bias), b, dst, n4)
                }
                Vals::Win(ColRef::U32(s), bias) => {
                    with_b::<K, _>(Biased(Ptr(s.as_ptr()), bias), b, dst, n4)
                }
                Vals::Win(ColRef::U64(s), bias) => {
                    with_b::<K, _>(Biased(Ptr(s.as_ptr()), bias), b, dst, n4)
                }
                Vals::Lit(v) => with_b::<K, _>(Splat(v), b, dst, n4),
                Vals::Top => with_b::<K, _>(Ptr(dst as *const u64), b, dst, n4),
            }
        }
    }

    /// Resolve operand `b` to its monomorphic loader.
    ///
    /// # Safety
    /// As for [`kernel`], with windows spanning at least `n4` rows.
    #[inline(always)]
    unsafe fn with_b<K: BinK, A: Lane4>(a: A, b: Vals<'_>, dst: *mut u64, n4: usize) {
        // SAFETY: forwarded caller guarantees.
        unsafe {
            match b {
                Vals::Win(ColRef::U8(s), bias) => {
                    kernel::<K, A, _>(a, Biased(Ptr(s.as_ptr()), bias), dst, n4)
                }
                Vals::Win(ColRef::U16(s), bias) => {
                    kernel::<K, A, _>(a, Biased(Ptr(s.as_ptr()), bias), dst, n4)
                }
                Vals::Win(ColRef::U32(s), bias) => {
                    kernel::<K, A, _>(a, Biased(Ptr(s.as_ptr()), bias), dst, n4)
                }
                Vals::Win(ColRef::U64(s), bias) => {
                    kernel::<K, A, _>(a, Biased(Ptr(s.as_ptr()), bias), dst, n4)
                }
                Vals::Lit(v) => kernel::<K, A, _>(a, Splat(v), dst, n4),
                Vals::Top => kernel::<K, A, _>(a, Ptr(dst as *const u64), dst, n4),
            }
        }
    }

    /// `dst[i] = a[i] ∘ b[i]` for `i < n4` (a multiple of four).
    ///
    /// # Safety
    /// The CPU must support avx2; `dst` and both operands must span `n4`
    /// rows. An operand may alias `dst` (same pointer): each group of four
    /// rows is loaded before it is stored.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn kernel<K: BinK, A: Lane4, B: Lane4>(a: A, b: B, dst: *mut u64, n4: usize) {
        let mut i = 0usize;
        while i < n4 {
            // SAFETY: i + 4 <= n4, within every operand and dst (caller).
            unsafe {
                let v = K::apply(a.load4(i), b.load4(i));
                _mm256_storeu_si256(dst.add(i) as *mut __m256i, v);
            }
            i += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1_programs() -> (LaneProgram, LaneProgram) {
        // disc_price = (ext + bias) * (100 - disc); charge = disc_price * (100 + tax)
        let disc_price = LaneProgram::new(vec![
            LaneOp::Push(LaneBin::Sub, LaneArg::Lit(100), LaneArg::Leaf(1)),
            LaneOp::Apply(LaneBin::Mul, LaneArg::Leaf(0)),
        ])
        .unwrap();
        let charge = LaneProgram::new(vec![
            LaneOp::Push(LaneBin::Add, LaneArg::Lit(100), LaneArg::Leaf(2)),
            LaneOp::Apply(LaneBin::Mul, LaneArg::Prev(0)),
        ])
        .unwrap();
        (disc_price, charge)
    }

    #[test]
    fn validation_rejects_bad_stack_discipline() {
        assert!(LaneProgram::new(vec![]).is_none());
        assert!(LaneProgram::new(vec![LaneOp::Apply(LaneBin::Add, LaneArg::Lit(1))]).is_none());
        assert!(LaneProgram::new(vec![LaneOp::Load(LaneArg::Lit(1)), LaneOp::Fold(LaneBin::Add)])
            .is_none());
        assert!(LaneProgram::new(vec![LaneOp::Load(LaneArg::Lit(1)); 2]).is_none());
        let deep: Vec<LaneOp> = (0..=MAX_DEPTH).map(|_| LaneOp::Load(LaneArg::Lit(1))).collect();
        assert!(LaneProgram::new(deep).is_none());
        let mut ok: Vec<LaneOp> = (0..MAX_DEPTH).map(|_| LaneOp::Load(LaneArg::Lit(1))).collect();
        ok.extend((1..MAX_DEPTH).map(|_| LaneOp::Fold(LaneBin::Add)));
        assert!(LaneProgram::new(ok).is_some());
    }

    #[test]
    #[expect(clippy::unreachable, reason = "the program reads no previous result")]
    fn q1_shape_matches_row_arithmetic_at_every_level_and_length() {
        let (disc_price, charge) = q1_programs();
        for n in [0usize, 1, 3, 4, 5, 255, 256, 257, 1000] {
            let ext: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(2654435761) >> 8).collect();
            let disc: Vec<u8> = (0..n).map(|i| (i % 11) as u8).collect();
            let tax: Vec<u8> = (0..n).map(|i| (i % 9) as u8).collect();
            let leaves = [
                LaneLeaf { col: ColRef::U32(&ext), bias: 90_000 },
                LaneLeaf { col: ColRef::U8(&disc), bias: 0 },
                LaneLeaf { col: ColRef::U8(&tax), bias: 0 },
            ];
            let want_dp: Vec<u64> =
                (0..n).map(|i| (ext[i] as u64 + 90_000) * (100 - disc[i] as u64)).collect();
            let want_ch: Vec<u64> = (0..n).map(|i| want_dp[i] * (100 + tax[i] as u64)).collect();
            for level in SimdLevel::available() {
                let mut dp = vec![0u64; n];
                materialize_u64(&disc_price, &|i| leaves[i], &|_| unreachable!(), &mut dp, level);
                assert_eq!(dp, want_dp, "n={n} level={level}");
                let mut dp32 = vec![0u32; n];
                materialize_u32(&disc_price, &|i| leaves[i], &|_| unreachable!(), &mut dp32, level);
                assert!(dp32.iter().zip(&dp).all(|(&a, &b)| a as u64 == b), "n={n} {level}");
                // `charge` reads disc_price through Prev at either width.
                for prev in [ColRef::U64(&dp), ColRef::U32(&dp32)] {
                    let mut ch = vec![0u64; n];
                    materialize_u64(&charge, &|i| leaves[i], &|_| prev, &mut ch, level);
                    assert_eq!(ch, want_ch, "n={n} level={level}");
                }
            }
        }
    }

    #[test]
    #[expect(clippy::unreachable, reason = "the program reads no previous result")]
    fn mul_is_exact_at_the_32_bit_boundary() {
        // Both multiplicands at 2^32 - 1: the product needs all 64 bits.
        let a = [u32::MAX; 9];
        let leaves = [LaneLeaf { col: ColRef::U32(&a), bias: 0 }];
        let prog =
            LaneProgram::new(vec![LaneOp::Push(LaneBin::Mul, LaneArg::Leaf(0), LaneArg::Leaf(0))])
                .unwrap();
        for level in SimdLevel::available() {
            let mut out = [0u64; 9];
            materialize_u64(&prog, &|i| leaves[i], &|_| unreachable!(), &mut out, level);
            assert!(out.iter().all(|&v| v == (u32::MAX as u64) * (u32::MAX as u64)), "{level}");
        }
    }
}
