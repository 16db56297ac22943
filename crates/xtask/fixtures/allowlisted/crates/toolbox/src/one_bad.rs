//! Fixture: one unjustified atomic ordering, suppressed by the allowlist.

pub fn load(x: &AtomicUsize) -> usize {
    x.load(Ordering::Relaxed)
}
