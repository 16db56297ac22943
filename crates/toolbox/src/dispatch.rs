//! Runtime CPU-feature dispatch: the kernel table and its resolver.
//!
//! The paper's Vector Toolbox "has versions compiled for different
//! generations of CPUs that can be automatically switched at run-time based
//! on the hardware that the product is running on" (§3). We implement the
//! same idea with three tiers: portable scalar code, AVX2 (+ BMI2, POPCNT)
//! and AVX-512 (F, BW, VL, VBMI, VBMI2). Detection runs once and is cached;
//! tests and ablation benchmarks can force a level to compare
//! implementations on identical data.
//!
//! The (op × width × tier) matrix is data (DESIGN.md §21): one `Family` per
//! kernel family — cells of tier, gate and kernel, plus the scalar oracle.
//! `Family::resolve` / `chain` hold the only tier check, and the `run` that
//! `kernel_sig!` stamps per signature the only dispatch `unsafe` call.

use std::sync::OnceLock;

/// The SIMD capability tier a kernel call should use.
///
/// `SimdLevel` is deliberately a closed, ordered enum: every kernel in the
/// toolbox accepts a level and must behave identically at every level (the
/// test suite enforces this by comparing every cell against its oracle). A
/// level caps a call's tier; the resolver caps it again at the CPU's tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar implementation. Always available; the correctness
    /// oracle for all other levels.
    Scalar,
    /// AVX2 + BMI2 + POPCNT implementations (256-bit integer SIMD), the
    /// instruction set generation the paper targets (Haswell and later).
    Avx2,
    /// AVX-512 (F/BW/VL/VBMI/VBMI2) implementations — a newer toolbox tier
    /// the paper anticipates ("versions compiled for different generations
    /// of CPUs"). Mask registers and `vpcompress` replace the byte-mask and
    /// shuffle-table idioms of the AVX2 tier, `vpermb` + `vpmultishiftqb`
    /// its unpack gathers; kernels without a 512-bit version fall through
    /// to the AVX2 one.
    Avx512,
}

impl SimdLevel {
    /// Detect the best level supported by the running CPU.
    ///
    /// The result is computed once and cached for the life of the process.
    /// The `BIPIE_FORCE_SIMD` environment variable (`scalar`, `avx2`,
    /// `avx512`) overrides detection so CI can run the whole suite once per
    /// tier on one machine; forcing a tier the hardware lacks, or an
    /// unrecognized value, is a hard error — a forced run that silently
    /// fell back would report coverage it never had.
    pub fn detect() -> SimdLevel {
        static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let hw = Self::detect_uncached();
            match std::env::var("BIPIE_FORCE_SIMD") {
                Ok(v) => Self::forced_level(&v, hw),
                Err(_) => hw,
            }
        })
    }

    /// Resolve a `BIPIE_FORCE_SIMD` value against the detected hardware
    /// tier. Split from [`SimdLevel::detect`] so tests can exercise the
    /// parsing and capability checks without mutating process environment.
    ///
    /// # Panics
    ///
    /// On an unrecognized value or a tier above `hw` — the forced matrix
    /// must fail loudly rather than quietly test the wrong kernels.
    fn forced_level(value: &str, hw: SimdLevel) -> SimdLevel {
        let forced = match value {
            "scalar" => SimdLevel::Scalar,
            "avx2" => SimdLevel::Avx2,
            "avx512" => SimdLevel::Avx512,
            #[expect(
                clippy::panic,
                reason = "deliberate: a typo'd BIPIE_FORCE_SIMD override must fail loudly rather \
                          than silently test the wrong kernels"
            )]
            other => panic!(
                "BIPIE_FORCE_SIMD={other:?} is not a SIMD tier \
                 (expected \"scalar\", \"avx2\", or \"avx512\")"
            ),
        };
        assert!(
            forced <= hw,
            "BIPIE_FORCE_SIMD={value} requests a tier this CPU lacks (detected: {hw})"
        );
        forced
    }

    fn detect_uncached() -> SimdLevel {
        // Miri interprets MIR and implements few vendor intrinsics; force
        // the scalar tier so `cargo miri test` can exercise the oracle
        // kernels (the differential tests then cover only that tier).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("bmi2")
                && std::arch::is_x86_feature_detected!("popcnt");
            if avx2
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
                // Every core with VBMI2 has VBMI (Ice Lake, Zen 4 onward).
                && std::arch::is_x86_feature_detected!("avx512vbmi")
                && std::arch::is_x86_feature_detected!("avx512vbmi2")
            {
                return SimdLevel::Avx512;
            }
            // BMI2 (pext) and POPCNT ship on every AVX2-capable x86 core
            // (Haswell+), but verify anyway: the compaction kernels use them.
            if avx2 {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    }

    /// True if this level's tier includes AVX2. It compares tiers only:
    /// whether the CPU has them is the resolver's check.
    #[inline]
    pub fn has_avx2(self) -> bool {
        self >= SimdLevel::Avx2
    }

    /// True if this level's tier includes AVX-512. It compares tiers only:
    /// whether the CPU has them is the resolver's check.
    #[inline]
    pub fn has_avx512(self) -> bool {
        self >= SimdLevel::Avx512
    }

    /// All levels supported on the running CPU, weakest first.
    ///
    /// Tests iterate this to verify every available implementation against
    /// the scalar oracle.
    pub fn available() -> Vec<SimdLevel> {
        let best = SimdLevel::detect();
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= best)
            .collect()
    }
}

impl Default for SimdLevel {
    fn default() -> Self {
        SimdLevel::detect()
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdLevel::Scalar => write!(f, "scalar"),
            SimdLevel::Avx2 => write!(f, "avx2"),
            SimdLevel::Avx512 => write!(f, "avx512"),
        }
    }
}

/// One cell of a kernel family: a tier's kernel and its gate.
pub(crate) struct Cell<K> {
    /// The tier whose instructions the kernel is compiled for.
    pub(crate) tier: SimdLevel,
    /// The largest gate input (bit width, group count) the kernel is
    /// correct for; [`ANY`] if it takes every input.
    pub(crate) gate: usize,
    /// The `#[target_feature]` kernel.
    pub(crate) kernel: K,
}

/// The gate of a cell whose kernel takes every input.
pub(crate) const ANY: usize = usize::MAX;

/// A kernel family: its cells, best tier first, and the scalar oracle that
/// runs when no cell qualifies and that every cell is tested against.
pub(crate) struct Family<K: 'static> {
    pub(crate) cells: &'static [Cell<K>],
    pub(crate) oracle: K,
}

/// A family's cells: only on x86-64, where the tier modules are.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        &[$(#[cfg(target_arch = "x86_64")] $cell),*]
    };
}
pub(crate) use cells;

/// A kernel the resolver admitted: a cell whose tier the CPU has, or the
/// oracle. Only [`Family::resolve`] and [`Family::chain`] build one.
#[derive(Clone, Copy)]
pub(crate) struct Resolved<K>(K);

impl<K> Resolved<K> {
    /// The kernel, for the `run` that [`kernel_sig!`] stamps.
    pub(crate) fn kernel(self) -> K {
        self.0
    }
}

impl<K: Copy> Family<K> {
    /// The kernel a call at `level` runs on this CPU for gate input `input`
    /// (0 for ungated families): the first admitted cell, else the oracle.
    #[inline]
    pub(crate) fn resolve(&self, level: SimdLevel, input: usize) -> Resolved<K> {
        let cell = self.admitted(level, SimdLevel::detect(), input).next();
        Resolved(cell.map_or(self.oracle, |c| c.kernel))
    }

    /// Every admitted cell, best first, then the oracle: an unpack runs
    /// down this chain, each kernel writing what it can of the rest.
    pub(crate) fn chain(
        &self,
        level: SimdLevel,
        input: usize,
    ) -> impl Iterator<Item = Resolved<K>> + '_ {
        let cells = self.admitted(level, SimdLevel::detect(), input).map(|c| Resolved(c.kernel));
        cells.chain(std::iter::once(Resolved(self.oracle)))
    }

    /// The resolver's one rule, a pure function of its inputs: a cell is
    /// admitted when its tier is at most both `level` and the hardware tier
    /// `hw`, and its gate admits `input`.
    fn admitted(
        &self,
        level: SimdLevel,
        hw: SimdLevel,
        input: usize,
    ) -> impl Iterator<Item = &Cell<K>> + '_ {
        let cap = level.min(hw);
        self.cells.iter().filter(move |c| c.tier <= cap && input <= c.gate)
    }
}

/// Declare kernel signatures: for each, the `unsafe fn` pointer type a
/// family's cells and oracle share, and `Resolved::run` for it — the one
/// place a kernel of that type is called. Stamped once per signature.
macro_rules! kernel_sig {
    ($(
        $(#[$doc:meta])*
        $vis:vis type $name:ident $(<$g:ident>)? = fn($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?;
    )+) => {$(
        $(#[$doc])*
        // SAFETY: not called here; `Resolved::run` below is the only caller.
        $vis type $name $(<$g>)? = unsafe fn($($ty),*) $(-> $ret)?;

        impl $(<$g>)? $crate::dispatch::Resolved<$name $(<$g>)?> {
            /// Run the resolved kernel.
            #[inline(always)]
            $vis fn run(self, $($arg: $ty),*) $(-> $ret)? {
                // SAFETY: a `Resolved` holds the oracle (safe code) or a cell
                // `Family::admitted` let through: its tier is at most the
                // hardware tier `SimdLevel::detect` found at start-up (which
                // `BIPIE_FORCE_SIMD` can only lower), so every instruction it
                // was compiled for exists on this CPU, and its gate admitted
                // this call's bit width or group count. The arguments meet
                // the family's contract, which its dispatcher asserts before
                // resolving — except gather indices (the gather and bucket-sum
                // families), in range by their callers' construction and not
                // checked in release builds (DESIGN.md §21).
                unsafe { (self.kernel())($($arg),*) }
            }
        }
    )+};
}
pub(crate) use kernel_sig;

#[cfg(test)]
impl<K: Copy> Family<K> {
    /// The kernel-table walk: run every case through the oracle and through
    /// every cell whose tier is in [`SimdLevel::available`] and whose gate
    /// admits it (`gate(case)`); each must give the oracle's result, and
    /// each such cell must meet at least one case.
    pub(crate) fn walk<C, O: PartialEq + std::fmt::Debug>(
        &self,
        cases: impl IntoIterator<Item = C>,
        gate: impl Fn(&C) -> usize,
        run: impl Fn(Resolved<K>, &C) -> O,
    ) {
        let tiers = SimdLevel::available();
        let runs = |c: &&Cell<K>| tiers.contains(&c.tier);
        let mut met = vec![false; self.cells.len()];
        for (i, case) in cases.into_iter().enumerate() {
            let want = run(Resolved(self.oracle), &case);
            for (k, cell) in self.cells.iter().enumerate().filter(|(_, c)| runs(c)) {
                if gate(&case) <= cell.gate {
                    met[k] = true;
                    let got = run(Resolved(cell.kernel), &case);
                    assert_eq!(got, want, "cell {k} ({} tier) on case {i}", cell.tier);
                }
            }
        }
        for (k, cell) in self.cells.iter().enumerate().filter(|(_, c)| runs(c)) {
            assert!(met[k], "cell {k} ({} tier) met no case", cell.tier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        assert_eq!(SimdLevel::detect(), SimdLevel::detect());
    }

    #[test]
    fn scalar_always_available() {
        assert_eq!(SimdLevel::available()[0], SimdLevel::Scalar);
    }

    #[test]
    fn ordering_matches_capability() {
        assert!(SimdLevel::Avx2 > SimdLevel::Scalar);
        assert!(SimdLevel::Avx512 > SimdLevel::Avx2);
        assert!(SimdLevel::Avx2.has_avx2());
        assert!(SimdLevel::Avx512.has_avx2(), "512 tier may run 256-bit kernels");
        assert!(SimdLevel::Avx512.has_avx512());
        assert!(!SimdLevel::Avx2.has_avx512());
        assert!(!SimdLevel::Scalar.has_avx2());
    }

    #[test]
    fn forced_level_parses_display_names() {
        assert_eq!(SimdLevel::forced_level("scalar", SimdLevel::Scalar), SimdLevel::Scalar);
        assert_eq!(SimdLevel::forced_level("scalar", SimdLevel::Avx512), SimdLevel::Scalar);
        assert_eq!(SimdLevel::forced_level("avx2", SimdLevel::Avx2), SimdLevel::Avx2);
        assert_eq!(SimdLevel::forced_level("avx512", SimdLevel::Avx512), SimdLevel::Avx512);
    }

    #[test]
    #[should_panic(expected = "not a SIMD tier")]
    fn forced_level_rejects_unknown_values() {
        SimdLevel::forced_level("AVX2", SimdLevel::Avx512);
    }

    #[test]
    #[should_panic(expected = "tier this CPU lacks")]
    fn forced_level_rejects_unsupported_tiers() {
        SimdLevel::forced_level("avx512", SimdLevel::Avx2);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn resolution_is_capped_at_the_hardware_tier() {
        use crate::bitpack::UNPACK_U8;
        use crate::cmp::CMP_U8;
        use SimdLevel::{Avx2, Avx512, Scalar};
        // The tiers of the admitted cells, best first; empty: the oracle runs.
        fn tiers<K: Copy>(
            f: &Family<K>,
            level: SimdLevel,
            hw: SimdLevel,
            input: usize,
        ) -> Vec<SimdLevel> {
            f.admitted(level, hw, input).map(|c| c.tier).collect()
        }
        // A level above the hardware runs the hardware's best cell...
        assert_eq!(tiers(&CMP_U8, Avx512, Avx2, 0), [Avx2]);
        assert_eq!(tiers(&CMP_U8, Avx512, Avx512, 0), [Avx512, Avx2]);
        // ...and no cell at all on a scalar CPU or at the scalar level.
        assert_eq!(tiers(&CMP_U8, Avx2, Scalar, 0), []);
        assert_eq!(tiers(&CMP_U8, Scalar, Avx512, 0), []);
        // A gate passes over the cell it does not admit: 8 bits into `u8`
        // is past the AVX-512 unpack's 7.
        assert_eq!(tiers(&UNPACK_U8, Avx512, Avx512, 8), [Avx2]);
        assert_eq!(tiers(&UNPACK_U8, Avx512, Avx512, 7), [Avx512, Avx2]);
    }

    #[test]
    fn display_names() {
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Avx512.to_string(), "avx512");
    }
}

#[cfg(test)]
mod walk {
    //! The kernel-table walk (DESIGN.md §21): every cell of every family
    //! against the family's oracle, through the one generic harness
    //! [`Family::walk`], on every tier `SimdLevel::available()` lists. Each test
    //! only lists the inputs: lengths 0, 1 and around each kernel's stride,
    //! every bit width up to a gate and one past it, all / none / patterned
    //! selections — the inputs of the tier-vs-oracle tests this replaces.
    //!
    //! Test names start with their module's word (`bitpack_`, `selvec_`,
    //! `compact_`, `cmp_membership_`), which CI's Miri filter selects: under
    //! Miri only the oracles run, over the same inputs.

    use std::fmt::Debug;

    use super::Family;
    use crate::agg::lane::{LaneBin, Vals, BIN, CHUNK_ROWS};
    use crate::agg::{in_register, minmax, multi, sort_based, ColRef};
    use crate::bitpack::{self, mask_for, PackedVec, UnpackK, Word};
    use crate::cmp::{self, CmpK, CmpOp};
    use crate::select::{compact, gather, special_group};
    use crate::selvec;

    /// Lengths around every stride the kernels step by (4 … 64 rows).
    const LENS: [usize; 16] = [0, 1, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65];

    /// Deterministic pseudo-random words.
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mix = |i: u64| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        (0..n as u64).map(mix).collect()
    }

    /// Canonical selection bytes: all, none, and two patterns.
    fn selections(n: usize) -> [Vec<u8>; 4] {
        let sel =
            |keep: &dyn Fn(usize) -> bool| (0..n).map(|i| if keep(i) { 0xFF } else { 0 }).collect();
        [sel(&|_| true), sel(&|_| false), sel(&|i| i % 3 == 1 || i % 7 == 0), sel(&|i| i % 5 < 2)]
    }

    fn unpack_walk<T: Word + Default + PartialEq + Debug>(
        family: &Family<UnpackK<T>>,
        max_bits: u8,
    ) {
        let n = 200;
        let pvs: Vec<PackedVec> =
            (1..=max_bits).map(|b| pack_low(&words(n, b as u64), b)).collect();
        // The empty window, one value, the whole vector, odd starts, and windows
        // that end on the vector's last value (the 64-byte loads' guard).
        let windows = [(0, 0), (0, 1), (0, n), (1, 130), (7, 65), (63, n - 63), (n - 9, 9)];
        let cases = pvs.iter().flat_map(|pv| windows.map(|(start, len)| (pv, start, len)));
        family.walk(
            cases,
            |(pv, ..)| pv.bits() as usize,
            |kernel, &(pv, start, len)| {
                // A cell writes what it can; the oracle finishes, as in the chain.
                let mut out = vec![T::default(); len];
                let done = kernel.run(pv, start, &mut out);
                bitpack::unpack_scalar(pv, start + done, &mut out[done..]);
                out
            },
        );
    }

    #[test]
    fn bitpack_unpack_into_u8() {
        unpack_walk(&bitpack::UNPACK_U8, 8);
    }

    #[test]
    fn bitpack_unpack_into_u16() {
        unpack_walk(&bitpack::UNPACK_U16, 16);
    }

    #[test]
    fn bitpack_unpack_into_u32() {
        unpack_walk(&bitpack::UNPACK_U32, 32);
    }

    #[test]
    fn bitpack_unpack_into_u64() {
        unpack_walk(&bitpack::UNPACK_U64, 64);
    }

    /// Every operator against every constant, over data that holds each
    /// constant (so `<` and `<=` differ) between pseudo-random values.
    fn cmp_walk<T: Copy>(family: &Family<CmpK<T>>, consts: &[T], narrow: impl Fn(u64) -> T) {
        let noise = words(100, 1);
        let data: Vec<T> = (0..100)
            .map(|i| if i % 2 == 0 { consts[i / 2 % consts.len()] } else { narrow(noise[i]) })
            .collect();
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let cases = LENS
            .iter()
            .chain(&[100])
            .flat_map(|&n| ops.iter().flat_map(move |&op| consts.iter().map(move |&c| (n, op, c))));
        family.walk(
            cases,
            |_| 0,
            |kernel, &(n, op, c)| {
                let mut out = vec![0x11; n];
                kernel.run(&data[..n], op, c, &mut out);
                out
            },
        );
    }

    #[test]
    fn cmp_u8() {
        cmp_walk(&cmp::CMP_U8, &[0, 1, 127, 128, 200, 255], |v| v as u8);
    }

    #[test]
    fn cmp_u32() {
        cmp_walk(&cmp::CMP_U32, &[0, 1, i32::MAX as u32, 1 << 31, u32::MAX], |v| v as u32);
    }

    #[test]
    fn cmp_i64() {
        cmp_walk(&cmp::CMP_I64, &[i64::MIN, -1, 0, 1, i64::MAX], |v| v as i64);
    }

    #[test]
    fn cmp_between_u32() {
        let data: Vec<u32> = (0..200).map(|i| (i * 7919) % 10_000).collect();
        let bounds = [(0, 0), (100, 5000), (9999, 10_000), (5000, 100)];
        let cases = LENS.iter().chain(&[200]).flat_map(|&n| bounds.map(|(lo, hi)| (n, lo, hi)));
        cmp::BETWEEN_U32.walk(
            cases,
            |_| 0,
            |kernel, &(n, lo, hi)| {
                let mut out = vec![0x11; n];
                kernel.run(&data[..n], lo, hi, &mut out);
                out
            },
        );
    }

    #[test]
    fn cmp_membership_u8() {
        let codes: Vec<u8> = (0..=255u8).chain((0..77).map(|i| (i * 37 % 251) as u8)).collect();
        let tables: [[u8; 32]; 4] = [
            [0; 32],
            [0xFF; 32],
            std::array::from_fn(|i| (i as u8).wrapping_mul(73) ^ 0x5A),
            std::array::from_fn(|i| if i == 31 { 0x80 } else { 0 }),
        ];
        let lens = [256, codes.len()];
        let cases = LENS.iter().chain(&lens).flat_map(|&n| tables.iter().map(move |t| (n, t)));
        cmp::MEMBERSHIP_U8.walk(
            cases,
            |_| 0,
            |kernel, &(n, table)| {
                let mut out = vec![0x11; n];
                kernel.run(&codes[..n], table, &mut out);
                out
            },
        );
    }

    #[test]
    fn selvec_count_selected() {
        let lens = LENS.iter().chain(&[100, 4096, 4097]);
        let cases = lens.flat_map(|&n| selections(n));
        selvec::COUNT_SELECTED.walk(cases, |_| 0, |kernel, sel| kernel.run(sel));
    }

    #[test]
    fn compact_indices() {
        let cases = LENS.iter().chain(&[100, 4096, 4099]).flat_map(|&n| selections(n));
        compact::COMPACT_INDICES.walk(
            cases,
            |_| 0,
            |kernel, sel| {
                let mut out = vec![7; 5]; // stale contents are replaced
                kernel.run(sel, &mut out);
                out
            },
        );
    }

    fn compact_walk<T: Copy + PartialEq + Debug>(
        family: &Family<compact::CompactK<T>>,
        narrow: impl Fn(u64) -> T,
    ) {
        let data: Vec<T> = words(4099, 2).into_iter().map(narrow).collect();
        let cases = LENS.iter().chain(&[100, 4096, 4099]).flat_map(|&n| selections(n));
        family.walk(
            cases,
            |_| 0,
            |kernel, sel| {
                let mut out = data[..5].to_vec(); // stale contents are replaced
                kernel.run(&data[..sel.len()], sel, &mut out);
                out
            },
        );
    }

    #[test]
    fn compact_u8() {
        compact_walk(&compact::COMPACT_U8, |v| v as u8);
    }

    #[test]
    fn compact_u16() {
        compact_walk(&compact::COMPACT_U16, |v| v as u16);
    }

    #[test]
    fn compact_u32() {
        compact_walk(&compact::COMPACT_U32, |v| v as u32);
    }

    #[test]
    fn compact_u64() {
        compact_walk(&compact::COMPACT_U64, |v| v);
    }

    fn gather_walk<T: Word + Default + PartialEq + Debug>(
        family: &Family<gather::GatherK<T>>,
        max_bits: u8,
    ) {
        let n = 300;
        let pvs: Vec<PackedVec> =
            (1..=max_bits).map(|b| pack_low(&words(n, b as u64), b)).collect();
        let some: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        // Gather takes unsorted and repeated indices (sort-based aggregation
        // passes bucket-ordered ones).
        let shuffled: Vec<u32> = vec![299, 0, 5, 5, 298, 1, 1, 1, 30, 31, 32, 33];
        let mut sets: Vec<&[u32]> = LENS.iter().map(|&k| &some[..k]).collect();
        sets.extend([&some[..], &shuffled[..]]);
        let cases = pvs.iter().flat_map(|pv| sets.iter().map(move |&idx| (pv, idx)));
        family.walk(
            cases,
            |(pv, _)| pv.bits() as usize,
            |kernel, &(pv, idx)| {
                let mut out = vec![T::default(); idx.len()];
                let done = kernel.run(pv, idx, &mut out);
                gather::gather_scalar(pv, &idx[done..], &mut out[done..]);
                out
            },
        );
    }

    #[test]
    fn gather_unpack_u8() {
        gather_walk(&gather::GATHER_U8, 8);
    }

    #[test]
    fn gather_unpack_u16() {
        gather_walk(&gather::GATHER_U16, 16);
    }

    #[test]
    fn gather_unpack_u32() {
        gather_walk(&gather::GATHER_U32, 32);
    }

    #[test]
    fn gather_unpack_u64() {
        gather_walk(&gather::GATHER_U64, 64);
    }

    #[test]
    fn special_group_assign() {
        let lens = LENS.iter().chain(&[100, 4096]);
        let cases = lens.flat_map(|&n| selections(n).map(|sel| (sel, n)));
        let gids = |n: usize| (0..n).map(|i| (i % 6) as u8).collect::<Vec<u8>>();
        special_group::ASSIGN_SPECIAL_GROUP.walk(
            cases.clone(),
            |_| 0,
            |kernel, (sel, n)| {
                let mut out = vec![0x11; *n];
                kernel.run(&gids(*n), sel, 6, &mut out);
                out
            },
        );
        special_group::ASSIGN_SPECIAL_GROUP_IN_PLACE.walk(
            cases,
            |_| 0,
            |kernel, (sel, n)| {
                let mut g = gids(*n);
                kernel.run(&mut g, sel, 6);
                g
            },
        );
    }

    /// Group ids below `groups`, every group present once `n` passes it.
    fn gids(n: usize, groups: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 13 + i / 7) % groups) as u8).collect()
    }

    #[test]
    fn in_register_count_groups() {
        let lens = LENS.iter().chain(&[4096, 10_000]);
        let groups = [1, 2, 3, 4, 8, 15, 16, 31, 32];
        let cases = lens.flat_map(|&n| groups.map(|g| (g, gids(n, g))));
        in_register::COUNT_GROUPS.walk(
            cases,
            |_| 0,
            |kernel, (groups, g)| {
                let mut counts = vec![0; *groups];
                kernel.run(g, &mut counts);
                counts
            },
        );
    }

    /// Group counts × lengths for the in-register sums, with values of `T`.
    fn sum_cases<T>(narrow: impl Fn(u64) -> T) -> Vec<(usize, Vec<u8>, Vec<T>)> {
        let lens = LENS.iter().chain(&[4096, 10_000]);
        let cases = lens.flat_map(|&n| [1, 2, 5, 12, 32].map(|g| (g, n)));
        cases
            .map(|(g, n)| (g, gids(n, g), words(n, 3).into_iter().map(&narrow).collect()))
            .collect()
    }

    #[test]
    fn in_register_sum_u8() {
        in_register::SUM_U8.walk(
            sum_cases(|v| v as u8),
            |_| 0,
            |kernel, (groups, g, v)| {
                let mut sums = vec![0; *groups];
                kernel.run(g, v, &mut sums);
                sums
            },
        );
    }

    #[test]
    fn in_register_sum_u16() {
        in_register::SUM_U16.walk(
            sum_cases(|v| v as u16),
            |_| 0,
            |kernel, (groups, g, v)| {
                let mut sums = vec![0; *groups];
                kernel.run(g, v, &mut sums);
                sums
            },
        );
    }

    #[test]
    fn in_register_sum_u32() {
        // A 28-bit bound flushes the 32-bit lanes every seven vectors.
        let max = (1 << 28) - 1;
        in_register::SUM_U32.walk(
            sum_cases(|v| v as u32 & max),
            |_| 0,
            |kernel, (groups, g, v)| {
                let mut sums = vec![0; *groups];
                kernel.run(g, v, &mut sums, max);
                sums
            },
        );
    }

    #[test]
    fn minmax_u8() {
        // 33 groups is one past the AVX2 kernel's register budget.
        let lens = LENS.iter().chain(&[1000, 4096]);
        let groups = [1, 3, 4, 5, 8, 13, 16, 31, 32, 33];
        let cases = lens.flat_map(|&n| groups.map(|g| (g, gids(n, g), words(n, 4))));
        minmax::MIN_MAX_U8.walk(
            cases,
            |(groups, ..)| *groups,
            |kernel, (groups, g, v)| {
                let v: Vec<u8> = v.iter().map(|&x| x as u8).collect();
                let (mut mins, mut maxs) = (vec![u8::MAX; *groups], vec![u8::MIN; *groups]);
                kernel.run(g, &v, &mut mins, &mut maxs);
                (mins, maxs)
            },
        );
    }

    /// Chunk lengths around the 4-row step and the chunk size.
    const CHUNK_LENS: [usize; 8] = [0, 1, 3, 4, 5, 127, CHUNK_ROWS - 1, CHUNK_ROWS];

    #[test]
    fn multi_fill_lane() {
        let w = words(CHUNK_ROWS, 5);
        let (c8, c16): (Vec<u8>, Vec<u16>) =
            (w.iter().map(|&v| v as u8).collect(), w.iter().map(|&v| v as u16).collect());
        let (c32, c64): (Vec<u32>, Vec<u64>) = (w.iter().map(|&v| v as u32).collect(), w.clone());
        let cols = [ColRef::U8(&c8), ColRef::U16(&c16), ColRef::U32(&c32), ColRef::U64(&c64)];
        let low = words(CHUNK_ROWS, 6);
        let cases = CHUNK_LENS.iter().flat_map(|&n| {
            cols.iter().flat_map(move |&col| [false, true].map(|hi| (col.window(0, n), hi)))
        });
        multi::FILL_LANE.walk(
            cases,
            |_| 0,
            |kernel, &(col, hi)| {
                let mut dst: Vec<u64> = low[..col.len()].iter().map(|&v| v & 0xFFFF_FFFF).collect();
                kernel.run(col, hi, &mut dst);
                dst
            },
        );
    }

    #[test]
    fn multi_accumulate() {
        let mut slots = [[0u64; CHUNK_ROWS]; 4];
        for (l, lane) in slots.iter_mut().enumerate() {
            lane.copy_from_slice(&words(CHUNK_ROWS, 7 + l as u64));
        }
        // Q1's shape: runs of 1-7 equal ids (an order's line items), so a
        // run's rows fall in every replica and across four-row steps.
        let runs: Vec<u8> =
            (0..CHUNK_ROWS).flat_map(|k| vec![(k % 3) as u8; k % 7 + 1]).take(CHUNK_ROWS).collect();
        let patterns: [&dyn Fn(usize) -> u8; 4] =
            [&|_| 0, &|i| (i % 7) as u8, &|i| (i * 37 % 256) as u8, &|i| runs[i]];
        // Lengths off the four-row step leave a scalar tail, which must keep
        // the replica of each row's position.
        let lens = CHUNK_LENS.iter().chain(&[2, 6, 130, CHUNK_ROWS - 3]);
        let cases = lens.flat_map(|&n| patterns.map(|p| (0..n).map(p).collect::<Vec<u8>>()));
        // Every replica's rows start distinct, so a row added into the wrong
        // replica shows.
        let init = words(multi::ACC_WORDS, 8);
        multi::ACCUMULATE.walk(
            cases,
            |_| 0,
            |kernel, g| {
                let mut acc = [0u64; multi::ACC_WORDS];
                acc.copy_from_slice(&init);
                kernel.run(g, &slots, &mut acc);
                acc.to_vec()
            },
        );
    }

    #[test]
    fn multi_row_step() {
        let w = |seed| words(CHUNK_ROWS, seed);
        let narrow = |seed| w(seed).iter().map(|&v| v as u8).collect::<Vec<u8>>();
        let (x, z, lo, hi) = (narrow(14), narrow(15), narrow(16), narrow(17));
        let wide: Vec<u32> = w(18).iter().map(|&v| v as u32).collect();
        let y: Vec<u32> = w(19).iter().map(|&v| v as u32).collect();
        let step = |len: usize, bias: u64| multi::RowStep {
            wide: &wide[..len],
            x: &x[..len],
            x_from: 100,
            y: &y[..len],
            y_bias: bias,
            z: &z[..len],
            z_plus: 100,
            lo: &lo[..len],
            hi: &hi[..len],
        };
        let gid = |n: usize, k: usize| (0..n).map(|i| (i * k % 256) as u8).collect::<Vec<u8>>();
        // Pseudo-random `u8`s wrap `100 - x`; a bias past 2^32 makes `Mul`
        // truncate. Lengths off the four-row step leave a scalar tail.
        let lens = CHUNK_LENS.iter().chain(&[2, 6, 130, CHUNK_ROWS - 3]);
        let cases = lens.flat_map(|&n| {
            [(0, 1), (90_036, 0), ((1 << 32) - 7, 37)].map(|(bias, k)| (n, bias, gid(n, k)))
        });
        let init = words(multi::ACC_WORDS, 20);
        multi::ROW_STEP.walk(
            cases,
            |_| 0,
            |kernel, (n, bias, g)| {
                let mut acc = [0u64; multi::ACC_WORDS];
                acc.copy_from_slice(&init);
                kernel.run(&step(*n, *bias), g, &mut acc);
                acc.to_vec()
            },
        );
    }

    #[test]
    fn lane_bin() {
        let n = CHUNK_ROWS;
        let (a8, a16): (Vec<u8>, Vec<u16>) = (
            words(n, 8).iter().map(|&v| v as u8).collect(),
            words(n, 9).iter().map(|&v| v as u16).collect(),
        );
        let (a32, a64): (Vec<u32>, Vec<u64>) =
            (words(n, 10).iter().map(|&v| v as u32).collect(), words(n, 11));
        let top = words(n, 12);
        // Every operand shape a program resolves: biased windows of each width
        // (an unbiased `u64` window is a `Prev`), a constant, the stack top.
        let operand = |k: usize, len: usize| match k {
            0 => Vals::Win(ColRef::U8(&a8[..len]), 3),
            1 => Vals::Win(ColRef::U16(&a16[..len]), 0),
            2 => Vals::Win(ColRef::U32(&a32[..len]), 1 << 33),
            3 => Vals::Win(ColRef::U64(&a64[..len]), 5),
            4 => Vals::Win(ColRef::U64(&a64[..len]), 0),
            5 => Vals::Lit(0xFFFF_FFFF),
            _ => Vals::Top,
        };
        let kinds = [LaneBin::Add, LaneBin::Sub, LaneBin::Mul];
        let cases = CHUNK_LENS.iter().flat_map(|&len| {
            kinds.iter().flat_map(move |&kind| {
                (0..7).flat_map(move |a| (0..7).map(move |b| (len, kind, a, b)))
            })
        });
        BIN.walk(
            cases,
            |_| 0,
            |kernel, &(len, kind, a, b)| {
                let mut dst = top[..len].to_vec();
                kernel.run(kind, operand(a, len), operand(b, len), &mut dst);
                dst
            },
        );
    }

    #[test]
    fn sort_based_sum_sorted_packed() {
        // Every width up to the 25-bit gate and one past it; rows are offset by
        // a batch base into the segment-global column.
        let pvs: Vec<PackedVec> = (1..=26).map(|b| pack_low(&words(400, b as u64), b)).collect();
        let rows: Vec<u32> = (0..300).map(|i| (i * 7919) % 300).collect();
        let rows = &rows;
        let cases = pvs.iter().flat_map(|pv| {
            LENS.iter().chain(&[300]).flat_map(move |&k| [0, 37].map(|base| (pv, base, &rows[..k])))
        });
        sort_based::SUM_SORTED_PACKED.walk(
            cases,
            |(pv, ..)| pv.bits() as usize,
            |kernel, &(pv, base, rows)| kernel.run(pv, base, rows),
        );
    }

    #[test]
    fn sort_based_sum_sorted_u32() {
        let values: Vec<u32> = words(1000, 13).into_iter().map(|v| v as u32).collect();
        let rows: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let cases = LENS.iter().chain(&[333, 1000]).map(|&k| &rows[..k]);
        sort_based::SUM_SORTED_U32.walk(cases, |_| 0, |kernel, rows| kernel.run(&values, rows));
    }

    /// Pack the low `bits` bits of `values`.
    fn pack_low(values: &[u64], bits: u8) -> PackedVec {
        PackedVec::pack(&values.iter().map(|&v| v & mask_for(bits)).collect::<Vec<_>>(), bits)
    }
}
