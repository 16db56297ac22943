//! A miniature property-test harness over the deterministic toolbox PRNG.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! the property tests that used to run on `proptest` now run on this: each
//! property is executed for N independently-seeded cases, and a failing
//! case reports its case index and seed so it can be replayed exactly
//! (`Gen::with_seed(seed)` inside a scratch test). There is no input
//! shrinking — seeds are cheap to bisect by hand, and the generators below
//! keep inputs small enough to eyeball.

#![allow(dead_code, reason = "shared by several test binaries; each uses a subset")]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use bipie::toolbox::rng::{Rng, UniformInt};

/// Base seed mixed into every case seed; bump to re-roll the whole suite.
const SUITE_SEED: u64 = 0xB1B1E;

/// Per-case input generator (a thin convenience layer over [`Rng`]).
pub struct Gen {
    pub rng: Rng,
}

impl Gen {
    pub fn with_seed(seed: u64) -> Gen {
        Gen { rng: Rng::seed_from_u64(seed) }
    }

    /// Uniform integer in `range`.
    pub fn int<T: UniformInt, R: std::ops::RangeBounds<T>>(&mut self, range: R) -> T {
        self.rng.random_range(range)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.random_bool(p)
    }

    /// A vector with length drawn from `len`, elements drawn by `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }
}

/// Run `property` for `cases` independently seeded cases. On failure the
/// case index and seed are printed before the panic is re-raised, so the
/// failing input can be regenerated deterministically.
pub fn run_cases(name: &str, cases: usize, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = SUITE_SEED ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut g = Gen::with_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with Gen::with_seed({seed:#x}))"
            );
            resume_unwind(panic);
        }
    }
}
