//! Execution options and their validation.

use bipie_toolbox::SimdLevel;

use crate::error::{EngineError, Result};
use crate::governor::CancelToken;
use crate::pool::QueryTag;
use crate::strategy::{AggStrategy, SelectionStrategy};
use crate::trace::ProfileLevel;

/// Execution options: the one options struct of the engine, named
/// [`QueryOptions`](crate::query::QueryOptions) in the query API.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// SIMD tier (defaults to the detected one).
    pub level: SimdLevel,
    /// Force one selection strategy for every batch (experiments; `None` =
    /// adaptive, §3).
    pub forced_selection: Option<SelectionStrategy>,
    /// Force one aggregation strategy for every segment (experiments).
    pub forced_agg: Option<AggStrategy>,
    /// Scan morsels on several pool workers. `false` is shorthand for
    /// `threads: Some(1)`: the same driver with one worker, run inline on
    /// the calling thread.
    pub parallel: bool,
    /// Worker count (`None` = hardware parallelism; through an `Engine`, the
    /// query's share of it at admission). Must be in `1..=`[`MAX_THREADS`].
    pub threads: Option<usize>,
    /// Rows per batch window (§2.1: "up to 4096 rows in MemSQL"; default
    /// [`bipie_columnstore::BATCH_ROWS`]).
    pub batch_rows: usize,
    /// Rows per morsel, rounded up to a whole number of batch windows so
    /// every worker count sees the same batch grid (default
    /// [`bipie_columnstore::MORSEL_ROWS`]).
    pub morsel_rows: usize,
    /// Profiling level. [`ProfileLevel::Off`] (the default) keeps the batch
    /// loops free of timestamps, atomics, and event stores; `Counters`
    /// collects per-phase totals; `Spans` additionally keeps the full
    /// span/decision event log in the returned
    /// [`QueryProfile`](crate::trace::QueryProfile).
    pub profile: ProfileLevel,
    /// Cooperative cancellation token, observed at every morsel claim and
    /// batch boundary; `cancel()` on any clone fails the query with
    /// [`EngineError::Cancelled`] at its next checkpoint (DESIGN.md §10).
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget; exceeding it fails the query with
    /// [`EngineError::DeadlineExceeded`]. Must be non-zero.
    pub time_budget: Option<std::time::Duration>,
    /// Byte budget for scan-owned allocations (accumulators, wide-group
    /// hash tables, selection vectors, unpack buffers); exceeding it fails
    /// with [`EngineError::MemoryBudgetExceeded`]. Must be non-zero.
    pub mem_budget: Option<usize>,
    /// Shared-scheduler identity: which per-query pool queue this scan's
    /// fork-join work lands in and its fair-share weight (DESIGN.md §15).
    /// The [`Engine`](crate::engine::Engine) stamps each admitted query with
    /// a unique id and its session's weight; standalone scans and direct
    /// `execute` callers use the default untagged queue.
    pub tag: QueryTag,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            level: SimdLevel::detect(),
            forced_selection: None,
            forced_agg: None,
            parallel: true,
            threads: None,
            batch_rows: bipie_columnstore::BATCH_ROWS,
            morsel_rows: bipie_columnstore::MORSEL_ROWS,
            profile: ProfileLevel::Off,
            cancel: None,
            time_budget: None,
            mem_budget: None,
            tag: QueryTag::default(),
        }
    }
}

/// The most workers a query may name in [`ScanOptions::threads`]. Each
/// worker is a pool thread that lives for the rest of the process, and each
/// holds one hash partition per worker until the merge: an unbounded count
/// would let one query grow the shared pool for every tenant and allocate
/// its square in maps the governor never sees.
pub const MAX_THREADS: usize = 256;

impl ScanOptions {
    /// Reject out-of-domain option values with a typed error without
    /// executing anything. [`scan_table`](super::scan_table) performs the same check before any
    /// scanning starts (instead of a deep assertion failure mid-scan), so
    /// calling this is for builders that want to fail fast.
    pub fn validate(&self) -> Result<()> {
        let invalid = |option, detail: &str| {
            Err(EngineError::InvalidOptions { option, detail: detail.into() })
        };
        if self.batch_rows == 0 {
            return invalid("batch_rows", "batch windows must cover at least 1 row");
        }
        if self.morsel_rows == 0 {
            return invalid("morsel_rows", "morsels must cover at least 1 row");
        }
        match self.threads {
            Some(0) => {
                return invalid(
                    "threads",
                    "need at least 1 worker (use None for hardware parallelism)",
                )
            }
            Some(n) if n > MAX_THREADS => {
                return invalid(
                    "threads",
                    &format!("{n} workers exceed the bound of {MAX_THREADS}"),
                )
            }
            _ => {}
        }
        if self.time_budget == Some(std::time::Duration::ZERO) {
            return invalid(
                "time_budget",
                "a zero deadline can never be met (use None for no limit)",
            );
        }
        if self.mem_budget == Some(0) {
            return invalid(
                "mem_budget",
                "a zero byte budget admits no allocation (use None for no limit)",
            );
        }
        Ok(())
    }
}
