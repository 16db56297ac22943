//! Fixture: lock-discipline violations — an unannotated lock field and
//! acquisition site, a guard held across a `Condvar::wait`, and two fns
//! acquiring the same pair of locks in opposite orders.

use std::sync::{Condvar, Mutex};

use bipie_toolbox::sync::{lock, wait};

pub struct Shared {
    queue: Mutex<Vec<u32>>,
    // LOCK: waited on with the `queue` guard.
    work: Condvar,
    // LOCK: leaf — guards only the counter.
    count: Mutex<usize>,
}

pub fn unannotated(s: &Shared) {
    let q = lock(&s.queue);
    drop(q);
}

pub fn held_across_wait(s: &Shared) {
    // LOCK: counter held much too long.
    let c = lock(&s.count);
    // LOCK: park until work arrives.
    let mut q = lock(&s.queue);
    q = wait(&s.work, q);
    drop(q);
    drop(c);
}

pub fn order_a(s: &Shared) {
    // LOCK: queue first…
    let q = lock(&s.queue);
    // LOCK: …then count.
    let c = lock(&s.count);
    drop(c);
    drop(q);
}

pub fn order_b(s: &Shared) {
    // LOCK: count first…
    let c = lock(&s.count);
    // LOCK: …then queue — reversed relative to `order_a`.
    let q = lock(&s.queue);
    drop(q);
    drop(c);
}
