//! Fixture: one known finding, suppressed by the committed baseline.

pub struct Exposed {
    pub runs: Usize,
}
