//! # BIPie Vector Toolbox
//!
//! The Vector Toolbox is the lowest layer of BIPie (§3 of the paper): a
//! library of branch-free vector kernels that operate on encoded and decoded
//! column data. It has no dependencies on the rest of the engine, and every
//! kernel exists in (at least) two versions:
//!
//! * a **scalar** implementation — portable, simple, and used as the
//!   correctness oracle throughout the test suite,
//! * an **AVX2** implementation behind runtime CPU-feature detection, and
//! * for the hottest kernels, an **AVX-512** implementation (mask registers
//!   and `vpcompress`); kernels without one fall through to the AVX2 tier.
//!
//! Each kernel family is one table of cells plus its scalar oracle; every
//! call resolves through [`dispatch`], which caps the caller's [`SimdLevel`]
//! at the CPU's tier (detected once, forceable lower for tests).
//!
//! ## Layout of the toolbox
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`dispatch`] | §3 | SIMD tiers, the kernel tables' cell and family types, the resolver |
//! | [`bitpack`] | §2.1/§2.2 | fixed-width bit packing and unpacking to the smallest power-of-two word |
//! | [`selvec`] | §4 | selection byte vectors (0x00/0xFF) and selection index vectors |
//! | [`cmp`] | §4 | vectorized comparisons producing selection byte vectors |
//! | [`select`] | §4.1–4.3 | compaction, gather selection, special-group assignment |
//! | [`agg`] | §5, §3 | scalar, sort-based, in-register, and multi-aggregate grouped aggregation; typed lane programs for computed inputs |
//! | [`runspan`] | §4 ext. | run-granular selection spans and O(runs) encoding-specialized kernels |
//! | [`transpose`] | §5.4 | the 4x4 64-bit register transpose inside the multi-aggregate kernel |
//! | [`sync`] | — | the workspace's relaxed atomic cells and non-poisoning lock helpers |
//!
//! ## Conventions
//!
//! * A *selection byte vector* holds one byte per row: `0x00` = rejected,
//!   `0xFF` = selected. This matches the output format of AVX2 byte
//!   comparisons so filter results feed selection kernels without conversion.
//! * Group ids are dense `u8` values in `0..num_groups` (the paper's
//!   simplification of ≤256 groups; the engine layer handles wider group
//!   domains by falling back to scalar kernels over `u32` ids).
//! * Aggregate accumulation is `i64`; callers prove overflow-impossibility
//!   from segment metadata before selecting a kernel (§2.1).

// Library code is panic-free: a failure is a typed error, and a site that
// cannot fail says why in an `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]
#![allow(
    clippy::needless_range_loop,
    reason = "indexed loops over fixed-count SIMD accumulator arrays are deliberate: the index \
              is the group id and unrolls at compile time"
)]

pub mod agg;
pub mod bitpack;
pub mod cmp;
pub mod cycles;
pub mod dispatch;
pub mod radix;
pub mod rng;
pub mod runspan;
pub mod select;
pub mod selvec;
pub mod sync;
pub mod transpose;

pub use dispatch::SimdLevel;
pub use runspan::{RunSpanVec, Span};
pub use selvec::{SelByteVec, SelIndexVec};
