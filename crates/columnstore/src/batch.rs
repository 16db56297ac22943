//! Batch windows (§2.1).
//!
//! "A moving window of a fixed number of rows (up to 4096 rows in MemSQL)
//! is used when scanning the columnstore table. ... We entirely process one
//! batch before moving to the next one and we never revisit previous
//! batches." (The MonetDB/X100 processing model.)

use bipie_toolbox::sync;

/// Maximum rows per batch window.
pub const BATCH_ROWS: usize = 4096;

/// Default rows per morsel (16 batch windows): large enough to amortize
/// per-morsel scheduling and per-segment planning, small enough that a
/// skewed segment still splits into many units of work.
pub const MORSEL_ROWS: usize = 16 * BATCH_ROWS;

/// A half-open row range `[start, start + len)` within a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// First row of the window.
    pub start: usize,
    /// Rows in the window (`1..=BATCH_ROWS`, except a trailing short batch).
    pub len: usize,
}

/// Iterator over the batch windows of a segment.
#[derive(Debug, Clone)]
pub struct BatchCursor {
    num_rows: usize,
    batch_rows: usize,
    pos: usize,
}

impl BatchCursor {
    /// Windows of [`BATCH_ROWS`] over `num_rows` rows.
    pub fn new(num_rows: usize) -> Self {
        Self::with_batch_rows(num_rows, BATCH_ROWS)
    }

    /// Windows of a custom size (tests and ablation benchmarks).
    pub fn with_batch_rows(num_rows: usize, batch_rows: usize) -> Self {
        assert!(batch_rows > 0, "batch size must be positive");
        BatchCursor { num_rows, batch_rows, pos: 0 }
    }
}

impl Iterator for BatchCursor {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.pos >= self.num_rows {
            return None;
        }
        let start = self.pos;
        let len = (self.num_rows - start).min(self.batch_rows);
        self.pos += len;
        Some(Batch { start, len })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.num_rows - self.pos).div_ceil(self.batch_rows);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BatchCursor {}

/// A concurrently claimable cursor over the row range of one segment.
///
/// Parallel scans decompose a segment into *morsels* — fixed-size,
/// batch-aligned row ranges — and workers claim them with a lock-free
/// compare-and-swap on the shared cursor, a relaxed claim counter
/// ([`bipie_toolbox::sync`]): the segment data a claim grants access to is
/// immutable, and the worker pool's join publishes the results (DESIGN.md
/// §8).
#[derive(Debug)]
pub struct MorselCursor {
    /// End (exclusive) of the claimable rows.
    num_rows: usize,
    morsel_rows: usize,
    next: sync::Usize,
}

impl MorselCursor {
    /// A cursor over `num_rows` rows in morsels of `morsel_rows`.
    pub fn new(num_rows: usize, morsel_rows: usize) -> MorselCursor {
        MorselCursor::with_range(0, num_rows, morsel_rows)
    }

    /// A cursor over rows `[start, end)` only: rows outside are never
    /// claimed. For a scan that already knows, from a sorted column, the
    /// row interval its predicate can match.
    pub fn with_range(start: usize, end: usize, morsel_rows: usize) -> MorselCursor {
        assert!(morsel_rows > 0, "morsel size must be positive");
        assert!(start <= end, "row range [{start}, {end}) is reversed");
        MorselCursor { num_rows: end, morsel_rows, next: sync::Usize::new(start) }
    }

    /// Claim the next unclaimed morsel, or `None` when the segment is
    /// exhausted. Safe to call from any number of threads; every row is
    /// handed out exactly once.
    pub fn claim(&self) -> Option<Batch> {
        let mut cur = self.next.load();
        loop {
            if cur >= self.num_rows {
                return None;
            }
            let end = (cur + self.morsel_rows).min(self.num_rows);
            match self.next.compare_exchange_weak(cur, end) {
                Ok(_) => return Some(Batch { start: cur, len: end - cur }),
                Err(actual) => cur = actual,
            }
        }
    }

    /// [`MorselCursor::claim`], additionally reporting the morsel's ordinal
    /// within the segment (`start / morsel_rows`) — the stable id profilers
    /// attach to trace events.
    pub fn claim_indexed(&self) -> Option<(usize, Batch)> {
        let batch = self.claim()?;
        Some((batch.start / self.morsel_rows, batch))
    }

    /// Rows not yet claimed (a racy snapshot; exact once workers quiesce).
    pub fn remaining(&self) -> usize {
        self.num_rows.saturating_sub(self.next.load())
    }

    /// Whether every morsel has been claimed (racy snapshot).
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Drain the cursor: every subsequent `claim` returns `None`, as if all
    /// remaining morsels had been handed out. The stop-broadcast hook for
    /// cooperative query governance — when one worker observes a violated
    /// limit, closing the cursors parks its siblings at their next claim
    /// without any per-row signalling. Idempotent; a claim racing the close
    /// may still win its morsel (cooperative, not preemptive).
    pub fn close(&self) {
        self.next.store(self.num_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_rows_exactly_once() {
        for n in [0usize, 1, 4095, 4096, 4097, 10_000, 1 << 20] {
            let batches: Vec<Batch> = BatchCursor::new(n).collect();
            let total: usize = batches.iter().map(|b| b.len).sum();
            assert_eq!(total, n);
            let mut expected_start = 0;
            for b in &batches {
                assert_eq!(b.start, expected_start);
                assert!(b.len <= BATCH_ROWS && b.len > 0);
                expected_start += b.len;
            }
        }
    }

    #[test]
    fn exact_size_hint() {
        let c = BatchCursor::new(10_000);
        assert_eq!(c.len(), 3);
        let c = BatchCursor::new(0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn custom_batch_size() {
        let batches: Vec<Batch> = BatchCursor::with_batch_rows(10, 4).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2], Batch { start: 8, len: 2 });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_rejected() {
        BatchCursor::with_batch_rows(10, 0);
    }

    #[test]
    fn morsel_cursor_covers_all_rows_exactly_once() {
        for (n, m) in [(0usize, 64usize), (1, 64), (1000, 64), (1000, 1000), (1000, 4096)] {
            let c = MorselCursor::new(n, m);
            let mut claimed = Vec::new();
            while let Some(b) = c.claim() {
                claimed.push(b);
            }
            let total: usize = claimed.iter().map(|b| b.len).sum();
            assert_eq!(total, n, "n={n} m={m}");
            let mut expected_start = 0;
            for b in &claimed {
                assert_eq!(b.start, expected_start);
                assert!(b.len > 0 && b.len <= m);
                expected_start += b.len;
            }
            assert!(c.is_exhausted());
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "hammers one cursor from real threads")]
    fn morsel_cursor_is_exact_under_contention() {
        // Hammer one cursor from several threads; rows must partition
        // exactly (every row claimed once, no row claimed twice).
        let c = std::sync::Arc::new(MorselCursor::new(100_000, 257));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut rows = 0usize;
                let mut starts = Vec::new();
                while let Some(b) = c.claim() {
                    rows += b.len;
                    starts.push(b.start);
                }
                (rows, starts)
            }));
        }
        let mut total = 0;
        let mut all_starts = Vec::new();
        for h in handles {
            let (rows, starts) = h.join().unwrap();
            total += rows;
            all_starts.extend(starts);
        }
        assert_eq!(total, 100_000);
        all_starts.sort_unstable();
        all_starts.dedup();
        assert_eq!(all_starts.len(), 100_000usize.div_ceil(257));
    }

    #[test]
    fn ranged_cursor_claims_only_its_rows() {
        let c = MorselCursor::with_range(512, 1300, 256);
        assert_eq!(c.remaining(), 788);
        let mut claimed = Vec::new();
        while let Some((idx, b)) = c.claim_indexed() {
            assert_eq!(idx, b.start / 256);
            claimed.push((b.start, b.len));
        }
        assert_eq!(claimed, vec![(512, 256), (768, 256), (1024, 256), (1280, 20)]);
        assert!(MorselCursor::with_range(700, 700, 256).claim().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_morsel_size_rejected() {
        MorselCursor::new(10, 0);
    }

    #[test]
    fn close_drains_remaining_claims() {
        let c = MorselCursor::new(1000, 256);
        assert!(c.claim().is_some());
        c.close();
        assert!(c.claim().is_none());
        assert!(c.is_exhausted());
        assert_eq!(c.remaining(), 0);
        // Idempotent.
        c.close();
        assert!(c.claim().is_none());
    }

    #[test]
    fn claim_indexed_reports_stable_ordinals() {
        let c = MorselCursor::new(1000, 256);
        let mut seen = Vec::new();
        while let Some((idx, batch)) = c.claim_indexed() {
            assert_eq!(idx, batch.start / 256);
            seen.push(idx);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
