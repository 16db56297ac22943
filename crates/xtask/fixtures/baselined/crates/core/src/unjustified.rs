//! Fixture: one known finding, suppressed by the committed baseline.

pub fn load(x: &AtomicUsize) -> usize {
    x.load(Ordering::Relaxed)
}
