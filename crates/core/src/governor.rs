//! Per-query resource governance: cooperative cancellation, wall-clock
//! deadlines, and a memory accountant (DESIGN.md §10).
//!
//! The batch-at-a-time execution model gives the engine natural cooperative
//! checkpoints — every morsel claim and every batch boundary — so limits are
//! enforced without preemption and without per-row cost. A [`Governor`] is
//! built per query from the three `QueryOptions` knobs (`cancel`,
//! `time_budget`, `mem_budget`) and carried by reference through the scan.
//! When none of the knobs is set the governor is *inactive* and every
//! checkpoint compiles to a single branch on a cold `bool` — the same
//! discipline `ProfileLevel::Off` holds itself to (DESIGN.md §9).
//!
//! Violations latch the first typed error so that every worker returns the
//! *same* one ([`EngineError::Cancelled`],
//! [`EngineError::DeadlineExceeded`], [`EngineError::MemoryBudgetExceeded`])
//! no matter which limit it observes first; workers park normally and the
//! pool stays reusable.
//!
//! Memory is accounted through per-worker [`MemScope`]s that draw
//! `MEM_SLACK_BYTES`-sized (64 KiB) chunks from the shared counter, so per-batch
//! charges stay off the atomic. Accounting is therefore chunk-quantized:
//! the reserved peak can exceed actual allocation by up to one slack chunk
//! per worker, and a charge that fails after the slack over-grab retries
//! with the exact need so a budget that genuinely fits is never refused.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bipie_columnstore::{Batch, BatchCursor};
use bipie_metrics::Deadline;
use bipie_toolbox::sync;

use crate::error::{EngineError, Result};
use crate::stats::ExecStats;

/// Cooperative cancellation handle: a shared atomic flag, cloneable by
/// callers. Hand a clone to [`crate::QueryOptions::cancel`] and call
/// [`CancelToken::cancel`] from any thread; the running query observes the
/// flag at its next morsel claim or batch boundary and returns
/// [`EngineError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<sync::Bool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true);
    }

    /// Whether cancellation has been requested on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load()
    }
}

/// Chunk size a [`MemScope`] draws from the shared counter. Large enough
/// that per-batch charges almost never touch the atomic, small enough that
/// per-worker slack stays negligible next to any realistic budget.
pub(crate) const MEM_SLACK_BYTES: usize = 64 << 10;

/// Per-query resource governor. Built once per query and shared by
/// reference with every worker; all state is interior atomics plus the
/// one-shot error latch.
#[derive(Debug)]
pub struct Governor {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    mem_budget: Option<usize>,
    /// Bytes currently reserved against the budget (includes worker slack).
    reserved: sync::Usize,
    /// High-water mark of `reserved`.
    peak: sync::Usize,
    /// The first violation, payload included; latched once, read by
    /// everyone. One cell, so no reader sees a cause without its payload.
    tripped: OnceLock<EngineError>,
    /// Whether any limit is set. When false, a checkpoint is one branch.
    active: bool,
}

impl Governor {
    /// Build a governor from the query's limit knobs. The deadline clock
    /// starts now, so construct this at scan admission, not query parse.
    pub fn new(
        cancel: Option<CancelToken>,
        time_budget: Option<Duration>,
        mem_budget: Option<usize>,
    ) -> Governor {
        let active = cancel.is_some() || time_budget.is_some() || mem_budget.is_some();
        Governor {
            cancel,
            deadline: time_budget.map(Deadline::after),
            mem_budget,
            reserved: sync::Usize::new(0),
            peak: sync::Usize::new(0),
            tripped: OnceLock::new(),
            active,
        }
    }

    /// A governor with no limits: a checkpoint is a single cold-flag branch
    /// and memory accounting is off.
    pub fn unlimited() -> Governor {
        Governor::new(None, None, None)
    }

    /// The cooperative checkpoint, counted in `stats.governor_checks`: one
    /// branch when no limit is set, so the ungoverned path stays inside the
    /// ≤ 2% `Off` gate. A morsel claim (the scan's scheduler) and a batch
    /// window ([`GovernedBatches::next`]) reach it as part of being handed
    /// out; the other sites — scan admission and each planned segment —
    /// call it directly.
    #[inline]
    pub(crate) fn checkpoint(&self, stats: &mut ExecStats) -> Result<()> {
        if !self.active {
            return Ok(());
        }
        stats.governor_checks += 1;
        self.check_active()
    }

    /// The batch windows of `rows` rows, `batch_rows` at a time, each handed
    /// out behind a checkpoint: a batch loop that walks them cannot skip
    /// the check.
    pub(crate) fn batches(&self, rows: usize, batch_rows: usize) -> GovernedBatches<'_> {
        GovernedBatches { windows: BatchCursor::with_batch_rows(rows, batch_rows), governor: self }
    }

    fn check_active(&self) -> Result<()> {
        // A sibling worker may already have tripped; report its error so
        // every worker surfaces the same one.
        if let Some(err) = self.tripped.get() {
            return Err(err.clone());
        }
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(self.trip(EngineError::Cancelled));
            }
        }
        if let Some(d) = &self.deadline {
            if d.reached() {
                return Err(self.trip(EngineError::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Whether a memory budget is set (i.e. [`MemScope::charge`] does work).
    #[inline]
    pub fn accounts_memory(&self) -> bool {
        self.mem_budget.is_some()
    }

    /// Admit a plan-time *projection* of `bytes` without reserving them:
    /// projections are upper bounds (e.g. a wide segment's group-domain
    /// product), so execution still charges actuals. Failing here is the
    /// "at plan" half of the fail-at-plan-or-first-reservation contract.
    pub fn admit_projection(&self, bytes: usize) -> Result<()> {
        match self.mem_budget {
            Some(budget) if bytes > budget => Err(self.trip_memory(bytes)),
            _ => Ok(()),
        }
    }

    /// Remaining budget headroom, for the budget-aware strategy chooser.
    /// `None` when no budget is set.
    pub fn remaining(&self) -> Option<usize> {
        self.mem_budget.map(|b| b.saturating_sub(self.reserved.load()))
    }

    /// High-water mark of reserved bytes (slack chunks included).
    pub fn peak_reserved(&self) -> usize {
        self.peak.load()
    }

    /// Move `bytes` from budget headroom to the reserved counter, or report
    /// that the budget cannot cover them (without tripping — the caller
    /// decides whether a smaller request would do).
    fn try_reserve_global(&self, bytes: usize) -> bool {
        match self.mem_budget {
            Some(budget) => reserve_within(&self.reserved, &self.peak, budget, bytes),
            None => true,
        }
    }

    /// Latch a memory violation of `requested` bytes and return the typed
    /// error (or the earlier one if another worker tripped first).
    fn trip_memory(&self, requested: usize) -> EngineError {
        let budget = self.mem_budget.unwrap_or(0);
        self.trip(EngineError::MemoryBudgetExceeded { budget, requested })
    }

    /// Latch `err` unless a violation is latched already, and return the
    /// latched one: the first trip wins, and every later trip re-reports it
    /// so all workers unwind with one consistent error.
    fn trip(&self, err: EngineError) -> EngineError {
        self.tripped.get_or_init(|| err).clone()
    }
}

/// A [`BatchCursor`] whose every window passes the governor's checkpoint
/// first ([`Governor::batches`]).
pub(crate) struct GovernedBatches<'g> {
    windows: BatchCursor,
    governor: &'g Governor,
}

impl GovernedBatches<'_> {
    /// The next batch window, once its checkpoint passed; `Ok(None)` when
    /// the rows are done, the typed error when the governor tripped.
    #[inline]
    pub(crate) fn next(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>> {
        let Some(window) = self.windows.next() else { return Ok(None) };
        self.governor.checkpoint(stats)?;
        Ok(Some(window))
    }
}

/// Process-level memory accountant layered *above* per-query governors
/// (DESIGN.md §15): the engine charges every admitted query's declared
/// `mem_budget` here before the query's own [`Governor`] starts accounting
/// actual allocations against that declaration. The sum of admitted
/// declarations can therefore never exceed the cap, whatever the queries
/// then allocate within their own budgets.
#[derive(Debug)]
pub struct AggregateBudget {
    cap: usize,
    /// Declared bytes of currently admitted queries.
    reserved: sync::Usize,
    /// High-water mark of `reserved`.
    peak: sync::Usize,
}

impl AggregateBudget {
    /// An accountant with `cap` bytes of aggregate headroom.
    pub fn new(cap: usize) -> AggregateBudget {
        AggregateBudget { cap, reserved: sync::Usize::new(0), peak: sync::Usize::new(0) }
    }

    /// The configured cap in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Reserve `bytes` of the aggregate cap, or report that they do not
    /// fit right now. The same compare-exchange as the governor's global
    /// reservation: concurrent admitters can never jointly overshoot, and a
    /// refused request never touches the counter.
    pub fn try_reserve(&self, bytes: usize) -> bool {
        reserve_within(&self.reserved, &self.peak, self.cap, bytes)
    }

    /// Return `bytes` previously reserved with [`AggregateBudget::try_reserve`].
    pub fn release(&self, bytes: usize) {
        self.reserved.fetch_sub(bytes);
    }

    /// Declared bytes of currently admitted queries.
    pub fn reserved(&self) -> usize {
        self.reserved.load()
    }

    /// High-water mark of the reserved counter.
    pub fn peak_reserved(&self) -> usize {
        self.peak.load()
    }
}

/// Add `bytes` to `reserved` if the new total stays within `cap`, and fold
/// the total into `peak`. The check and the add are one compare-exchange,
/// so a refused request never moves the counter: it cannot make a
/// concurrent request that fits look over budget, and a huge one cannot
/// wrap the counter.
fn reserve_within(reserved: &sync::Usize, peak: &sync::Usize, cap: usize, bytes: usize) -> bool {
    let admitted = reserved.fetch_update(|r| r.checked_add(bytes).filter(|&now| now <= cap));
    let Ok(prev) = admitted else { return false };
    peak.fetch_max(prev + bytes);
    true
}

/// Per-worker memory accountant. Owns locally reserved slack so per-batch
/// charges are plain integer arithmetic; only slack refills touch the
/// governor's shared counter. `Copy` so scan state can embed it freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemScope {
    /// Bytes reserved on the governor but not yet charged to an allocation.
    avail: usize,
}

impl MemScope {
    /// Charge `bytes` of scan-owned allocation against the budget. With no
    /// budget set this is one branch. On violation the governor's cause
    /// latch is tripped and the typed error returned.
    pub fn charge(&mut self, gov: &Governor, bytes: usize) -> Result<()> {
        if !gov.accounts_memory() {
            return Ok(());
        }
        if bytes <= self.avail {
            self.avail -= bytes;
            return Ok(());
        }
        let need = bytes - self.avail;
        let chunk = need.max(MEM_SLACK_BYTES);
        if gov.try_reserve_global(chunk) {
            self.avail += chunk;
            self.avail -= bytes;
            return Ok(());
        }
        // The slack over-grab may be what failed; retry with the exact need
        // so a budget that genuinely fits is never refused.
        if chunk > need && gov.try_reserve_global(need) {
            self.avail = 0;
            return Ok(());
        }
        Err(gov.trip_memory(need))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint's outcome and whether it was counted.
    fn checkpoint(g: &Governor) -> (Result<()>, usize) {
        let mut stats = ExecStats::default();
        (g.checkpoint(&mut stats), stats.governor_checks)
    }

    #[test]
    fn inactive_governor_is_one_branch_ok() {
        let g = Governor::unlimited();
        assert_eq!(checkpoint(&g), (Ok(()), 0), "an inactive checkpoint counts nothing");
        assert_eq!(g.peak_reserved(), 0);
        assert_eq!(g.remaining(), None);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn cancelled_token_trips_and_latches() {
        let t = CancelToken::new();
        let g = Governor::new(Some(t.clone()), None, None);
        assert_eq!(checkpoint(&g), (Ok(()), 1));
        t.cancel();
        assert_eq!(checkpoint(&g), (Err(EngineError::Cancelled), 1));
        // Latched: later checks keep reporting the same cause.
        assert_eq!(checkpoint(&g), (Err(EngineError::Cancelled), 1));
    }

    #[test]
    fn expired_deadline_trips() {
        let g = Governor::new(None, Some(Duration::from_nanos(1)), None);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(checkpoint(&g).0, Err(EngineError::DeadlineExceeded));
    }

    #[test]
    fn first_cause_wins_over_later_ones() {
        let t = CancelToken::new();
        let g = Governor::new(Some(t.clone()), None, Some(100));
        let mut scope = MemScope::default();
        let e = scope.charge(&g, 500).unwrap_err();
        assert_eq!(e, EngineError::MemoryBudgetExceeded { budget: 100, requested: 500 });
        // Cancelling afterwards does not rewrite history: every worker that
        // checks now still sees the memory violation.
        t.cancel();
        assert_eq!(
            checkpoint(&g).0,
            Err(EngineError::MemoryBudgetExceeded { budget: 100, requested: 500 })
        );
    }

    /// Workers spinning in `checkpoint` while a sibling trips the memory
    /// budget all return the tripping request: the latched error is one
    /// cell, so no worker can read the cause without its payload.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "checkpoints race a memory trip")]
    fn checkpoints_racing_a_memory_trip_all_carry_its_request() {
        for requested in 500..2500 {
            let g = Governor::new(None, None, Some(100));
            let want = EngineError::MemoryBudgetExceeded { budget: 100, requested };
            let errors: Vec<EngineError> = std::thread::scope(|s| {
                let spin = || loop {
                    if let Err(e) = g.checkpoint(&mut ExecStats::default()) {
                        return e;
                    }
                };
                let spinners: Vec<_> = (0..3).map(|_| s.spawn(spin)).collect();
                let tripped = MemScope::default().charge(&g, requested).unwrap_err();
                spinners.into_iter().map(|h| h.join().unwrap()).chain([tripped]).collect()
            });
            assert!(errors.iter().all(|e| *e == want), "{errors:?}");
        }
    }

    #[test]
    fn governed_batches_check_before_every_window() {
        let t = CancelToken::new();
        let g = Governor::new(Some(t.clone()), None, None);
        let mut stats = ExecStats::default();
        let mut batches = g.batches(10, 4);
        assert_eq!(batches.next(&mut stats), Ok(Some(Batch { start: 0, len: 4 })));
        t.cancel();
        assert_eq!(batches.next(&mut stats), Err(EngineError::Cancelled));
        assert_eq!(stats.governor_checks, 2);
        // The end of the rows is not a checkpoint.
        let mut stats = ExecStats::default();
        assert_eq!(g.batches(0, 4).next(&mut stats), Ok(None));
        assert_eq!(stats.governor_checks, 0);
    }

    #[test]
    fn exact_need_retry_after_slack_overgrab() {
        // Budget far below one slack chunk: the chunk grab fails, the exact
        // need succeeds — a budget that genuinely fits is never refused.
        let g = Governor::new(None, None, Some(100));
        let mut scope = MemScope::default();
        assert!(scope.charge(&g, 40).is_ok());
        assert_eq!(g.peak_reserved(), 40);
        let e = scope.charge(&g, 70).unwrap_err();
        assert_eq!(e, EngineError::MemoryBudgetExceeded { budget: 100, requested: 70 });
        assert_eq!(g.peak_reserved(), 40);
    }

    #[test]
    fn slack_keeps_small_charges_off_the_shared_counter() {
        let g = Governor::new(None, None, Some(1 << 20));
        let mut scope = MemScope::default();
        assert!(scope.charge(&g, 10).is_ok());
        // One slack chunk was drawn; further small charges draw it down
        // without growing the shared reservation.
        assert_eq!(g.peak_reserved(), MEM_SLACK_BYTES);
        assert!(scope.charge(&g, 1000).is_ok());
        assert_eq!(g.peak_reserved(), MEM_SLACK_BYTES);
    }

    #[test]
    fn projection_admission_checks_whole_budget() {
        let g = Governor::new(None, None, Some(1 << 20));
        assert!(g.admit_projection(1 << 20).is_ok());
        let e = g.admit_projection((1 << 20) + 1).unwrap_err();
        assert_eq!(
            e,
            EngineError::MemoryBudgetExceeded { budget: 1 << 20, requested: (1 << 20) + 1 }
        );
    }

    #[test]
    fn aggregate_budget_admits_to_cap_and_releases() {
        let agg = AggregateBudget::new(100);
        assert_eq!(agg.cap(), 100);
        assert!(agg.try_reserve(60));
        assert!(agg.try_reserve(40));
        // Full: even one more byte is refused, and the refusal leaves the
        // counter untouched.
        assert!(!agg.try_reserve(1));
        assert_eq!(agg.reserved(), 100);
        assert_eq!(agg.peak_reserved(), 100);
        agg.release(40);
        assert_eq!(agg.reserved(), 60);
        assert!(agg.try_reserve(30));
        assert_eq!(agg.peak_reserved(), 100);
    }

    /// Race `fit` (reserve then release a request that fits) against
    /// `oversize` (requests that never fit) from two real threads. Returns
    /// how often the fitting request was refused and the largest total it
    /// saw reserved right after its own reservation.
    #[expect(clippy::disallowed_methods, reason = "oversize requests race a fitting one")]
    fn race_fit_against_oversize(
        fit: impl Fn() -> Option<usize> + Sync,
        oversize: impl Fn() + Sync,
    ) -> (usize, usize) {
        let done = sync::Bool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load() {
                    oversize();
                }
            });
            let (mut refused, mut max_seen) = (0, 0);
            for _ in 0..200_000 {
                match fit() {
                    Some(seen) => max_seen = max_seen.max(seen),
                    None => refused += 1,
                }
            }
            done.store(true);
            (refused, max_seen)
        })
    }

    #[test]
    fn governor_never_refuses_a_fit_while_oversize_requests_race() {
        let g = Governor::new(None, None, Some(16_000));
        let (refused, max_seen) = race_fit_against_oversize(
            || {
                if !g.try_reserve_global(1_700) {
                    return None;
                }
                let seen = g.reserved.load();
                g.reserved.fetch_sub(1_700);
                Some(seen)
            },
            || {
                assert!(!g.try_reserve_global(MEM_SLACK_BYTES));
                assert!(!g.try_reserve_global(usize::MAX));
            },
        );
        assert_eq!(refused, 0, "a 1 700 B reservation under a 16 000 B budget was refused");
        assert!(max_seen <= 16_000, "reserved reached {max_seen} B over a 16 000 B budget");
    }

    #[test]
    fn aggregate_budget_never_refuses_a_fit_while_oversize_requests_race() {
        let agg = AggregateBudget::new(16_000);
        let (refused, max_seen) = race_fit_against_oversize(
            || {
                if !agg.try_reserve(1_700) {
                    return None;
                }
                let seen = agg.reserved();
                agg.release(1_700);
                Some(seen)
            },
            || {
                assert!(!agg.try_reserve(MEM_SLACK_BYTES));
                assert!(!agg.try_reserve(usize::MAX));
            },
        );
        assert_eq!(refused, 0, "a 1 700 B reservation under a 16 000 B cap was refused");
        assert!(max_seen <= 16_000, "reserved reached {max_seen} B over a 16 000 B cap");
    }

    #[test]
    fn no_budget_means_no_accounting() {
        let g = Governor::new(Some(CancelToken::new()), None, None);
        let mut scope = MemScope::default();
        assert!(scope.charge(&g, usize::MAX).is_ok());
        assert_eq!(g.peak_reserved(), 0);
    }
}
