//! Fixture: AVX2 kernel with no scalar sibling (must fail dispatch-matrix).

pub fn widen_sum(values: &[u8], level: u8) -> u64 {
    if has_avx2(level) {
        // SAFETY: caller verified AVX2 support at this level.
        return unsafe { avx2::widen_sum(values) };
    }
    values.iter().map(|&v| u64::from(v)).sum()
}

fn has_avx2(level: u8) -> bool {
    level > 0
}

mod avx2 {
    /// # Safety
    /// The CPU must support AVX2; the dispatcher checks before calling.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn widen_sum(values: &[u8]) -> u64 {
        values.iter().map(|&v| u64::from(v)).sum()
    }
}
