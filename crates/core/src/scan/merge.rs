//! The scan driver's two phases: workers scan morsels, then groups merge.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
#[expect(clippy::disallowed_types, reason = "the per-worker result slots")]
use std::sync::{Mutex, PoisonError};

use bipie_columnstore::Value;
use bipie_toolbox::sync::lock;

use crate::error::{EngineError, Result};
use crate::pool::{panic_message, WorkerPool};
use crate::stats::ExecStats;
use crate::trace::{Phase, QueryProfile, SpanLoc, Tracer};

use super::batch::SegScan;
use super::plan::{PlannedSegment, ScanPlan};
use super::sched::MorselScheduler;
use super::{GroupAcc, GroupMap, ScanCtx};

/// Group-count threshold below which the second merge phase is not worth a
/// fork-join region (the serial fold touches each key once anyway).
const PARALLEL_MERGE_MIN_GROUPS: usize = 128;

/// What one worker leaves behind at the join: its record (counters and
/// trace events) and its groups, pre-partitioned by group-key hash.
#[derive(Default)]
struct WorkerSlot {
    tracer: Option<Tracer>,
    parts: Vec<GroupMap>,
}

/// The scan driver: the plan's pool workers claim morsels and aggregate
/// (phase 1), then the hash partitions are reduced (phase 2). With one
/// worker the pool runs the region inline on the caller — no queue, no
/// lock — and phase 2 vanishes: the worker's single partition is the
/// answer. Panics in a worker become [`EngineError::WorkerPanicked`].
#[expect(clippy::disallowed_types, reason = "builds the per-worker result slots")]
pub(super) fn scan_workers(
    plan: &ScanPlan<'_>,
    ctx: &ScanCtx<'_>,
    coord: &mut Tracer,
    profile: &mut QueryProfile,
) -> Result<GroupMap> {
    let (planned, workers) = (plan.segments.as_slice(), plan.workers);
    let sched = MorselScheduler::new(planned, plan.morsel_rows, ctx.governor);

    // Phase 1. Each worker owns a private record for the duration (no
    // shared state in the hot loop) and parks it, with its partitioned
    // groups, in its slot at the end. The first failure wins the error
    // sink and closes the scheduler, which drains every remaining claim so
    // siblings park within one morsel too. The pool joins normally —
    // nothing is poisoned.
    let slots: Vec<Mutex<WorkerSlot>> = (0..workers).map(|_| Mutex::default()).collect();
    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let pool = WorkerPool::global();
    let report = pool
        .run_tagged(ctx.options.tag, workers, &|w| {
            let mut tracer = Tracer::new(ctx.options.profile, w as u32);
            match worker_scan(w, workers, planned, &sched, ctx, &mut tracer) {
                // LOCK: own slot `w`; temp guard dies at `;`.
                Ok(parts) => *lock(&slots[w]) = WorkerSlot { tracer: Some(tracer), parts },
                Err(e) => {
                    // LOCK: `first_error` leaf; temp guard dies at `;`.
                    lock(&first_error).get_or_insert(e);
                    sched.close();
                }
            }
        })
        .map_err(|payload| EngineError::WorkerPanicked { detail: panic_message(&payload) })?;
    // LOCK: `first_error` leaf, read after the pool join; dies at `;`.
    if let Some(e) = lock(&first_error).take() {
        return Err(e);
    }
    let mut total_groups: usize = 0;
    for slot in &slots {
        // LOCK: worker slot read after the join; one guard at a time.
        let mut slot = lock(slot);
        if let Some(tracer) = slot.tracer.take() {
            coord.stats.merge(&profile.absorb(tracer));
        }
        total_groups += slot.parts.iter().map(BTreeMap::len).sum::<usize>();
    }
    coord.stats.pool_workers = workers;
    coord.stats.pool_reuses += report.reused_pool as usize;
    if workers == 1 {
        // LOCK: the only slot, after the join; temp guard dies at `;`.
        return Ok(lock(&slots[0]).parts.pop().unwrap_or_default());
    }

    // Phase 2: reduce the hash partitions. Each partition's keys appear in
    // at most `workers` maps; partitions are disjoint, so they merge in
    // parallel without locks on the hot path and concatenate ordered.
    coord.timed(Phase::ParallelMerge, SpanLoc::none(), |coord| {
        (merge_worker_parts(pool, ctx, &slots, total_groups, &mut coord.stats), total_groups)
    })
}

/// Phase 1 on worker `w`: claim morsels until the scheduler runs dry,
/// scanning each into the current segment's state, and return this worker's
/// groups partitioned by group-key hash (one partition when alone). A
/// worker leaves a segment only once its cursor is drained, so it holds one
/// segment state at a time and folds it away when the claims move on.
fn worker_scan<'a>(
    w: usize,
    workers: usize,
    planned: &'a [PlannedSegment<'a>],
    sched: &MorselScheduler,
    ctx: &ScanCtx<'a>,
    tracer: &mut Tracer,
) -> Result<Vec<GroupMap>> {
    let mut parts: Vec<GroupMap> = (0..workers).map(|_| BTreeMap::new()).collect();
    let mut fold = |scan: SegScan<'a>| {
        for (key, acc) in scan.finish() {
            let p = if workers == 1 { 0 } else { (key_hash(&key) % workers as u64) as usize };
            merge_one(&mut parts[p], key, acc);
        }
    };
    let mut current: Option<(usize, SegScan<'a>)> = None;
    let mut last: Option<usize> = None;
    while let Some(claim) = sched.claim(w, workers, &mut last, &mut tracer.stats)? {
        tracer.stats.morsels_scanned += 1;
        tracer.stats.morsel_steals += claim.stolen as usize;
        let scan = match &mut current {
            Some((seg, scan)) if *seg == claim.seg => scan,
            _ => {
                if let Some((_, done)) = current.take() {
                    fold(done);
                }
                let scan = SegScan::new(&planned[claim.seg], ctx)?;
                &mut current.insert((claim.seg, scan)).1
            }
        };
        scan.process_range(claim.range, claim.morsel as u32, claim.stolen, tracer)?;
    }
    if let Some((_, done)) = current {
        fold(done);
    }
    Ok(parts)
}

/// Phase 2 of [`scan_workers`]: fold the workers' hash-partitioned maps
/// into one ordered result — serially below
/// [`PARALLEL_MERGE_MIN_GROUPS`], else one fork-join region with a worker
/// per partition.
#[expect(clippy::disallowed_types, reason = "drains the result slots into locked partitions")]
fn merge_worker_parts(
    pool: &WorkerPool,
    ctx: &ScanCtx<'_>,
    slots: &[Mutex<WorkerSlot>],
    total_groups: usize,
    stats: &mut ExecStats,
) -> Result<GroupMap> {
    let mut merged: GroupMap = BTreeMap::new();
    if total_groups < PARALLEL_MERGE_MIN_GROUPS {
        for slot in slots {
            // LOCK: serial drain after the join; one slot guard at a time.
            for part in lock(slot).parts.drain(..) {
                merge_groups(&mut merged, part);
            }
        }
    } else {
        let merged_parts: Vec<Mutex<GroupMap>> =
            (0..slots.len()).map(|_| Mutex::new(BTreeMap::new())).collect();
        let report = pool
            .run_tagged(ctx.options.tag, slots.len(), &|p| {
                let mut out: GroupMap = BTreeMap::new();
                for slot in slots {
                    // LOCK: slot guard dropped before merging, so at most
                    // one lock is ever held by a merge worker.
                    let mut guard = lock(slot);
                    if let Some(part) = guard.parts.get_mut(p) {
                        let part = std::mem::take(part);
                        drop(guard);
                        merge_groups(&mut out, part);
                    }
                }
                *lock(&merged_parts[p]) = out; // LOCK: own partition `p`; dies at `;`.
            })
            .map_err(|payload| EngineError::WorkerPanicked { detail: panic_message(&payload) })?;
        stats.pool_reuses += report.reused_pool as usize;
        for mp in merged_parts {
            merged.extend(mp.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
    }
    Ok(merged)
}

/// Deterministic (fixed-key SipHash) hash of a group key, used only to
/// partition the parallel merge.
fn key_hash(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Fold finished per-segment groups into a result map, moving keys and
/// accumulators (no clones, no zero-filled identity accumulators).
fn merge_groups(map: &mut GroupMap, groups: impl IntoIterator<Item = (Vec<Value>, GroupAcc)>) {
    for (key, acc) in groups {
        merge_one(map, key, acc);
    }
}

fn merge_one(map: &mut GroupMap, key: Vec<Value>, acc: GroupAcc) {
    match map.entry(key) {
        std::collections::btree_map::Entry::Vacant(v) => {
            v.insert(acc);
        }
        std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().absorb(&acc),
    }
}
