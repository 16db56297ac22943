//! The persistent scan worker pool.
//!
//! Queries used to spawn one OS thread per segment per query and join at a
//! barrier; this module replaces that with a process-wide, lazily
//! initialized pool of workers that is created on the first parallel scan
//! and reused by every later one. A [`run`](WorkerPool::run) call executes
//! one *fork-join region*: the calling thread participates as worker 0,
//! pool threads pick up the remaining worker indices, and the call returns
//! only after every participant has finished — panics included, which are
//! captured and surfaced as a value instead of aborting the process.
//!
//! Design notes (DESIGN.md §8):
//!
//! * **Lifecycle** — workers are spawned on demand up to the largest
//!   parallelism any run has requested, then parked on a condvar between
//!   runs. They live for the rest of the process; there is no shutdown
//!   protocol (the OS reclaims parked threads at exit).
//! * **Borrowed task bodies** — the pool executes `&(dyn Fn(usize) + Sync)`
//!   bodies that borrow the caller's stack (segments, filters, result
//!   slots). The lifetime is erased to hand the reference to long-lived
//!   workers; soundness rests on the strict join: `run` does not return —
//!   even on panic — until every worker that received the reference has
//!   dropped it (see the SAFETY comment in [`WorkerPool::run`]).
//! * **Memory ordering** — job hand-off and completion both go through a
//!   `Mutex`/`Condvar` pair, whose lock/unlock edges give the necessary
//!   happens-before: everything a worker wrote before decrementing the
//!   pending count is visible to the caller after the join.
//!
//! `run` is **not reentrant**: a task body must not call `run` again (the
//! nested region could wait on workers that are all busy running the outer
//! region). The scan driver only ever runs one region at a time per query
//! phase, and concurrent queries are fine — regions interleave over the
//! shared queue.
//!
//! * **Shared scheduling** — concurrent queries submit jobs under a
//!   [`QueryTag`]; the intake is a set of per-query FIFO queues drained by
//!   weighted fair queuing (`SchedQueues`), so a heavy query cannot
//!   starve a light one and tenant weights bias pool bandwidth
//!   proportionally. Whatever the pool does, every query still progresses:
//!   the caller always executes worker 0's slice on its own thread
//!   (DESIGN.md §15).

#![expect(clippy::disallowed_methods, reason = "the worker pool owns the scan threads")]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[expect(clippy::disallowed_types, reason = "the pool's hand-off locks")]
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use bipie_toolbox::sync::{self, lock, wait};

/// A captured worker panic payload.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Scheduler identity of the query a fork-join region serves: which
/// per-query queue its jobs land in, and that queue's fair-share weight.
/// Standalone `run` calls use the default tag (query 0, weight 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTag {
    /// Engine-assigned query id; 0 is the shared "untagged" queue.
    pub query: u64,
    /// Fair-share weight (≥ 1): a weight-2 query receives twice the pool
    /// dispatches of a weight-1 query under contention.
    pub weight: u32,
}

impl Default for QueryTag {
    fn default() -> Self {
        QueryTag { query: 0, weight: 1 }
    }
}

/// Cumulative shared-scheduler counters (diagnostics and telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs handed to workers since process start.
    pub jobs_dispatched: u64,
    /// Dispatches that switched to a different query than the previous
    /// dispatch — a proxy for how finely concurrent queries interleave.
    pub query_switches: u64,
}

/// The virtual-time quantum one dispatch charges a weight-1 queue. Only
/// ratios matter; the constant keeps integer division by the weight exact
/// for realistic weights.
const VTIME_QUANTUM: u64 = 1 << 20;

/// Weighted-fair-queuing intake: one FIFO per active query, drained in
/// virtual-time order. Pure data structure — the pool guards it with the
/// intake mutex; generic over the job type so the policy is unit-testable
/// without threads.
struct SchedQueues<T> {
    /// Per-query queues; empty queues are pruned on dispatch.
    queues: Vec<SchedQueue<T>>,
    /// Virtual clock: the start tag of the last dispatched queue. New
    /// queues join at this value so they neither starve nor get credit
    /// for time they spent absent.
    vclock: u64,
    stats: SchedStats,
    /// Query id of the most recent dispatch (for the switch counter).
    last_query: Option<u64>,
}

struct SchedQueue<T> {
    query: u64,
    weight: u32,
    /// Virtual finish time of the work dispatched from this queue so far.
    vtime: u64,
    jobs: VecDeque<T>,
}

impl<T> SchedQueues<T> {
    fn new() -> Self {
        SchedQueues {
            queues: Vec::new(),
            vclock: 0,
            stats: SchedStats::default(),
            last_query: None,
        }
    }

    /// Append a job to its query's queue, creating the queue at the
    /// current virtual clock if the query has none.
    fn push(&mut self, tag: QueryTag, job: T) {
        let weight = tag.weight.max(1);
        match self.queues.iter_mut().find(|q| q.query == tag.query) {
            Some(q) => {
                q.weight = weight;
                q.jobs.push_back(job);
            }
            None => self.queues.push(SchedQueue {
                query: tag.query,
                weight,
                vtime: self.vclock,
                jobs: VecDeque::from([job]),
            }),
        }
    }

    /// Dispatch the next job: the queue with the smallest virtual finish
    /// time wins (query id breaks ties deterministically), then pays for
    /// the dispatch inversely to its weight.
    fn pop(&mut self) -> Option<T> {
        let idx = self
            .queues
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.vtime, q.query))
            .map(|(i, _)| i)?;
        let q = &mut self.queues[idx];
        #[expect(
            clippy::expect_used,
            reason = "queues are pruned when drained, so every retained queue holds at least one \
                      job"
        )]
        let job = q.jobs.pop_front().expect("scheduler queues are never retained empty");
        self.vclock = q.vtime;
        q.vtime += (VTIME_QUANTUM / u64::from(q.weight)).max(1);
        self.stats.jobs_dispatched += 1;
        if self.last_query != Some(q.query) {
            self.stats.query_switches += 1;
            self.last_query = Some(q.query);
        }
        if q.jobs.is_empty() {
            self.queues.swap_remove(idx);
        }
        Some(job)
    }
}

/// What a completed fork-join region reports back.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Worker indices that participated (caller included).
    pub workers: usize,
    /// `true` when the run was served entirely by already-spawned workers
    /// (i.e. the persistent pool was reused rather than grown).
    pub reused_pool: bool,
}

/// The task body with its lifetime erased; see the SAFETY note in
/// [`WorkerPool::run`] for why the `'static` claim is sound.
type ErasedBody = &'static (dyn Fn(usize) + Sync);

/// One queued worker assignment.
struct Job {
    body: ErasedBody,
    index: usize,
    run: Arc<RunState>,
}

/// Join state for one fork-join region.
#[expect(clippy::disallowed_types, reason = "the region's join lock")]
struct RunState {
    /// Workers (excluding the caller) that have not finished yet.
    // LOCK: leaf — guards only this counter; held briefly by workers at
    // completion and by the caller across the `done` wait, never together
    // with `panic` or the pool queue.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    // LOCK: waited on exclusively with the `pending` guard.
    done: Condvar,
    /// First captured panic payload from any pool worker.
    // LOCK: leaf — first-panic slot; held only to store or take the
    // payload, never across user code or another acquisition.
    panic: Mutex<Option<PanicPayload>>,
}

#[expect(clippy::disallowed_types, reason = "the pool's job intake")]
struct PoolShared {
    // LOCK: leaf — job intake; held only to push/pop jobs through the
    // fair scheduler, released before `work` is notified and before any
    // job body runs.
    queue: Mutex<SchedQueues<Job>>,
    /// Signalled when a job is queued.
    // LOCK: waited on exclusively with the `queue` guard.
    work: Condvar,
}

/// The process-wide scan worker pool.
#[expect(clippy::disallowed_types, reason = "the pool's growth lock")]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Pool threads spawned so far (grows monotonically, never shrinks).
    // LOCK: leaf — serializes pool growth; no other lock and no user code
    // while held (thread spawning only).
    spawned: Mutex<usize>,
    /// Completed `run` regions (diagnostics).
    runs: sync::Usize,
}

impl WorkerPool {
    /// The lazily-initialized global pool.
    #[expect(clippy::disallowed_types, reason = "builds the pool's locks")]
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(SchedQueues::new()),
                work: Condvar::new(),
            }),
            spawned: Mutex::new(0),
            runs: sync::Usize::new(0),
        })
    }

    /// Completed fork-join regions since process start (diagnostics).
    pub fn completed_runs(&self) -> usize {
        self.runs.load()
    }

    /// Cumulative shared-scheduler counters since process start.
    pub fn sched_stats(&self) -> SchedStats {
        // LOCK: `queue` read-only peek; temp guard dies at `;`.
        lock(&self.shared.queue).stats
    }

    /// Execute `body(i)` for `i in 0..workers` across the pool, the calling
    /// thread serving as worker 0. Returns when every worker has finished.
    /// If any worker (or the caller's own slice) panicked, the first payload
    /// is returned as `Err` — the process is never taken down by a worker.
    pub fn run(
        &self,
        workers: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<RunReport, PanicPayload> {
        self.run_tagged(QueryTag::default(), workers, body)
    }

    /// [`run`](WorkerPool::run), with the region's jobs scheduled under
    /// `tag`'s per-query queue and fair-share weight. Concurrent regions
    /// with distinct tags interleave over the pool in weighted-fair order;
    /// the calling thread still serves worker 0 directly, so a region
    /// finishes even when every pool worker is busy with other queries.
    #[expect(clippy::disallowed_types, reason = "builds the region's join lock")]
    pub fn run_tagged(
        &self,
        tag: QueryTag,
        workers: usize,
        body: &(dyn Fn(usize) + Sync),
    ) -> Result<RunReport, PanicPayload> {
        let workers = workers.max(1);
        if workers == 1 {
            let reused = self.runs.load() > 0;
            catch_unwind(AssertUnwindSafe(|| body(0)))?;
            self.runs.fetch_add(1);
            return Ok(RunReport { workers: 1, reused_pool: reused });
        }

        let reused_pool = self.ensure_spawned(workers - 1);
        let run = Arc::new(RunState {
            pending: Mutex::new(workers - 1),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        // SAFETY: `body` is only ever invoked by jobs tied to `run`, and
        // this function does not return before `run.pending` reaches zero
        // (the wait below is unconditional; worker panics are caught and
        // still decrement the count). Therefore no use of the erased
        // reference outlives the real borrow, and the `'static` claim made
        // to the long-lived worker threads is never observable.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedBody>(body) };
        {
            // LOCK: `queue` held only for the push loop; released (block
            // end) before `work` is notified and before any job runs.
            let mut queue = lock(&self.shared.queue);
            for index in 1..workers {
                queue.push(tag, Job { body: erased, index, run: Arc::clone(&run) });
            }
        }
        self.shared.work.notify_all();

        // The caller is worker 0; its panic is deferred until after the
        // join so the borrow stays valid for the pool workers either way.
        let caller_result = catch_unwind(AssertUnwindSafe(|| body(0)));

        // LOCK: `pending` held across the join wait below; it is the only
        // guard live in this region.
        let mut pending = lock(&run.pending);
        while *pending > 0 {
            // LOCK: waits on `done` with the `pending` guard it consumes
            // and returns; workers signal after decrementing to zero.
            pending = wait(&run.done, pending);
        }
        drop(pending);

        self.runs.fetch_add(1);
        caller_result?;
        // LOCK: `panic` is a leaf taken after the join; the temporary guard
        // dies at the end of this condition.
        if let Some(payload) = lock(&run.panic).take() {
            return Err(payload);
        }
        Ok(RunReport { workers, reused_pool })
    }

    /// Make sure at least `needed` pool threads exist; returns `true` when
    /// they all already did (pool reuse).
    fn ensure_spawned(&self, needed: usize) -> bool {
        // LOCK: `spawned` held across thread creation; no other lock is
        // acquired and no user code runs while it is live.
        let mut spawned = lock(&self.spawned);
        if *spawned >= needed {
            return true;
        }
        while *spawned < needed {
            let shared = Arc::clone(&self.shared);
            let worker_id = *spawned;
            #[expect(
                clippy::expect_used,
                reason = "spawn fails only on OS thread exhaustion, which is unrecoverable for the \
                          engine; surfacing it here beats deadlocking on a pool that silently \
                          never grew"
            )]
            std::thread::Builder::new()
                .name(format!("bipie-scan-{worker_id}"))
                .spawn(move || worker_loop(shared))
                .expect("spawning a scan worker thread");
            *spawned += 1;
        }
        false
    }
}

/// The body each pool thread parks in between fork-join regions.
fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            // LOCK: `queue` held while parked; dropped at block end, before
            // the claimed job body runs.
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop() {
                    break job;
                }
                // LOCK: waits on `work` with the `queue` guard it consumes
                // and returns; `run()` notifies after queueing jobs.
                queue = wait(&shared.work, queue);
            }
        };
        // Run the slice; capture (never propagate) panics so a poisoned
        // scan fails its query, not the host process or this worker.
        let result = catch_unwind(AssertUnwindSafe(|| (job.body)(job.index)));
        if let Err(payload) = result {
            // LOCK: `panic` leaf — stores the first payload only; released
            // at block end, before `pending` is touched.
            let mut slot = lock(&job.run.panic);
            slot.get_or_insert(payload);
        }
        // LOCK: `pending` leaf — decremented after the job completed;
        // signals `done` at zero and is dropped right after.
        let mut pending = lock(&job.run.pending);
        *pending -= 1;
        if *pending == 0 {
            job.run.done.notify_all();
        }
        drop(pending);
    }
}

/// The machine's hardware threads: the worker count a query that names none
/// forks across when it runs alone.
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
}

/// Render a panic payload for an error message (`&str` and `String`
/// payloads verbatim, anything else a placeholder).
pub fn panic_message(payload: &PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_worker_index_exactly_once() {
        let pool = WorkerPool::global();
        for workers in [1usize, 2, 3, 8] {
            let hits: Vec<sync::Usize> = (0..workers).map(|_| sync::Usize::new(0)).collect();
            let report = pool
                .run(workers, &|i| {
                    hits[i].fetch_add(1);
                })
                .expect("no panics");
            assert_eq!(report.workers, workers);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(), 1, "worker {i} of {workers}");
            }
        }
    }

    #[test]
    fn borrowed_state_is_visible_after_join() {
        let pool = WorkerPool::global();
        let total = sync::U64::new(0);
        let inputs: Vec<u64> = (0..1000).collect();
        pool.run(4, &|i| {
            let part: u64 = inputs.iter().skip(i).step_by(4).sum();
            total.fetch_add(part);
        })
        .expect("no panics");
        assert_eq!(total.load(), 999 * 1000 / 2);
    }

    #[test]
    fn worker_panic_is_captured_not_fatal() {
        let pool = WorkerPool::global();
        let err = pool
            .run(3, &|i| {
                if i == 2 {
                    panic!("poisoned segment {i}");
                }
            })
            .expect_err("a worker panicked");
        assert_eq!(panic_message(&err), "poisoned segment 2");
        // The pool survives and serves the next run.
        let ok = pool.run(3, &|_| {}).expect("pool still works");
        assert!(ok.reused_pool);
    }

    #[test]
    fn caller_panic_is_captured_too() {
        let pool = WorkerPool::global();
        let err = pool.run(2, &|i| assert_ne!(i, 0, "caller slice fails")).expect_err("panicked");
        assert!(panic_message(&err).contains("caller slice fails"));
        pool.run(2, &|_| {}).expect("pool still works");
    }

    #[test]
    fn pool_reuse_is_reported() {
        let pool = WorkerPool::global();
        pool.run(2, &|_| {}).expect("warm-up");
        let report = pool.run(2, &|_| {}).expect("reuse");
        assert!(report.reused_pool);
        assert!(pool.completed_runs() >= 2);
    }

    fn tag(query: u64, weight: u32) -> QueryTag {
        QueryTag { query, weight }
    }

    #[test]
    fn sched_fifo_within_one_query() {
        let mut s: SchedQueues<u32> = SchedQueues::new();
        for j in 0..5 {
            s.push(tag(1, 1), j);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.stats.jobs_dispatched, 5);
        assert_eq!(s.stats.query_switches, 1);
    }

    #[test]
    fn sched_equal_weights_alternate() {
        let mut s: SchedQueues<u64> = SchedQueues::new();
        for j in 0..4 {
            s.push(tag(1, 1), 100 + j);
            s.push(tag(2, 1), 200 + j);
        }
        let queries: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|j| j / 100).collect();
        assert_eq!(queries, vec![1, 2, 1, 2, 1, 2, 1, 2]);
        assert_eq!(s.stats.query_switches, 8);
    }

    #[test]
    fn sched_weights_bias_dispatch_share() {
        let mut s: SchedQueues<u64> = SchedQueues::new();
        for j in 0..12 {
            s.push(tag(1, 1), 100 + j);
            s.push(tag(3, 3), 300 + j);
        }
        // Over the first 8 dispatches, the weight-3 query should receive
        // three times the service of the weight-1 query (6 vs 2).
        let first8: Vec<u64> = (0..8).map(|_| s.pop().expect("jobs queued") / 100).collect();
        assert_eq!(first8.iter().filter(|&&q| q == 3).count(), 6, "{first8:?}");
        assert_eq!(first8.iter().filter(|&&q| q == 1).count(), 2, "{first8:?}");
    }

    #[test]
    fn sched_late_query_joins_at_current_vclock() {
        let mut s: SchedQueues<u64> = SchedQueues::new();
        for j in 0..6 {
            s.push(tag(1, 1), 100 + j);
        }
        for _ in 0..4 {
            s.pop();
        }
        // A query arriving late must not get a backlog of virtual time to
        // burn (which would starve query 1), nor start in the future.
        for j in 0..3 {
            s.push(tag(2, 1), 200 + j);
        }
        let rest: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|j| j / 100).collect();
        assert_eq!(rest, vec![2, 1, 2, 1, 2], "{rest:?}");
    }

    #[test]
    fn tagged_regions_run_and_count_switches() {
        let pool = WorkerPool::global();
        let before = pool.sched_stats();
        let hits = sync::Usize::new(0);
        pool.run_tagged(tag(7, 2), 3, &|_| {
            hits.fetch_add(1);
        })
        .expect("no panics");
        assert_eq!(hits.load(), 3);
        let after = pool.sched_stats();
        assert!(after.jobs_dispatched >= before.jobs_dispatched + 2);
    }
}
