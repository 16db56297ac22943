//! Fixture: a `pub` sync field and a hand-written auto-trait promise. The
//! struct itself, an `UnsafeCell` holder outside the sync modules, is
//! clippy's `disallowed_types` finding, not the audit's.

use std::cell::UnsafeCell;

pub struct Leaky {
    pub slot: UnsafeCell<u64>,
}

// SAFETY: fixture — this assertion is exactly what the audit must flag.
unsafe impl Sync for Leaky {}
