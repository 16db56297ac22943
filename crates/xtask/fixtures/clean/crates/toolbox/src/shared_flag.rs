//! Clean fixture: a sync-carrying struct whose field is private behind a
//! method, which the sync-escape pass accepts. (Where it may live is
//! clippy's `disallowed_types`, which does not read fixtures.)

use std::cell::UnsafeCell;

/// One-shot handoff slot.
///
/// Invariant: exactly one writer stores before publishing the struct to a
/// reader; after publication the cell is only ever read, so the
/// `UnsafeCell` is never aliased mutably across threads.
pub struct HandoffFlag {
    slot: UnsafeCell<u64>,
}

impl HandoffFlag {
    pub fn slot_addr(&self) -> *const u64 {
        self.slot.get()
    }
}
