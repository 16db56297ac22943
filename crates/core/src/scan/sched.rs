//! The morsel scheduler: per-segment cursors, home partitions and stealing.

use bipie_columnstore::{Batch, MorselCursor};

use crate::error::Result;
use crate::governor::Governor;
use crate::stats::ExecStats;

use super::plan::PlannedSegment;

/// One claimed unit of work.
pub(super) struct Claim {
    pub(super) seg: usize,
    /// Morsel ordinal within the segment (stable across runs; trace id).
    pub(super) morsel: usize,
    pub(super) range: Batch,
    pub(super) stolen: bool,
}

/// Skew-proof morsel scheduler. Every worker owns a contiguous *home*
/// partition of the segment list (locality and executor reuse); when the
/// home partition runs dry the worker steals morsels from the victim with
/// the most unclaimed rows, so a hot segment — or a table with fewer
/// segments than workers — is split across everyone.
pub(super) struct MorselScheduler<'g> {
    cursors: Vec<MorselCursor>,
    governor: &'g Governor,
}

impl<'g> MorselScheduler<'g> {
    pub(super) fn new(
        segments: &[PlannedSegment<'_>],
        morsel_rows: usize,
        governor: &'g Governor,
    ) -> MorselScheduler<'g> {
        MorselScheduler {
            cursors: segments
                .iter()
                .map(|p| MorselCursor::with_range(p.window.start, p.window.end, morsel_rows))
                .collect(),
            governor,
        }
    }

    /// Claim `worker`'s next morsel, handed out behind the governor's
    /// checkpoint: a tripped governor stops the worker within one morsel's
    /// worth of work, and no claim loop can skip the check. `Ok(None)` once
    /// every morsel is claimed.
    pub(super) fn claim(
        &self,
        worker: usize,
        workers: usize,
        last: &mut Option<usize>,
        stats: &mut ExecStats,
    ) -> Result<Option<Claim>> {
        let claim = self.next_claim(worker, workers, last);
        if claim.is_some() {
            self.governor.checkpoint(stats)?;
        }
        Ok(claim)
    }

    fn next_claim(&self, worker: usize, workers: usize, last: &mut Option<usize>) -> Option<Claim> {
        let n = self.cursors.len();
        let home_lo = worker * n / workers;
        let home_hi = (worker + 1) * n / workers;
        let in_home = |s: usize| s >= home_lo && s < home_hi;
        // Affinity: keep draining the segment of the previous claim.
        if let Some(s) = *last {
            if let Some((morsel, range)) = self.cursors[s].claim_indexed() {
                return Some(Claim { seg: s, morsel, range, stolen: !in_home(s) });
            }
        }
        for s in home_lo..home_hi {
            if let Some((morsel, range)) = self.cursors[s].claim_indexed() {
                *last = Some(s);
                return Some(Claim { seg: s, morsel, range, stolen: false });
            }
        }
        loop {
            let victim = (0..n)
                .filter(|&s| !in_home(s))
                .max_by_key(|&s| self.cursors[s].remaining())
                .filter(|&s| self.cursors[s].remaining() > 0)?;
            if let Some((morsel, range)) = self.cursors[victim].claim_indexed() {
                *last = Some(victim);
                return Some(Claim { seg: victim, morsel, range, stolen: true });
            }
            // Raced another thief to the last morsel; look again.
        }
    }

    /// Drain every remaining claim (error / governor stop broadcast): after
    /// this, all workers' next `claim` returns `None`, so siblings of a
    /// failed worker park within one morsel even between their own checks.
    pub(super) fn close(&self) {
        for c in &self.cursors {
            c.close();
        }
    }
}
