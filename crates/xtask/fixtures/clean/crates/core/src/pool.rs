//! Fixture: a fully annotated fork-join lock protocol, waiting through the
//! non-poisoning helpers the way engine code does.

use std::sync::{Condvar, Mutex};

use bipie_toolbox::sync::{lock, wait};

pub struct JoinState {
    // LOCK: leaf — guards only the outstanding-worker count; held briefly
    // at completion and across the `done` wait in `join`.
    pending: Mutex<usize>,
    // LOCK: waited on exclusively with the `pending` guard.
    done: Condvar,
}

impl JoinState {
    pub fn join(&self) {
        // LOCK: `pending` held across the wait; it is the only live guard.
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            // LOCK: consumes and returns the `pending` guard.
            pending = wait(&self.done, pending);
        }
        drop(pending);
    }

    pub fn finish(&self) {
        // LOCK: leaf decrement; signals `done` at zero, dropped right after.
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
        drop(pending);
    }
}
