//! # BIPie engine
//!
//! The paper's primary contribution: a columnstore scan that fuses decoding,
//! filtering, group-id mapping, and grouped aggregation into one pass over
//! encoded data, *specializing* the selection and aggregation operators at
//! runtime (§3).
//!
//! Architecture (Figure 1), mapped to modules:
//!
//! * [`filter`] — evaluates the filter expression over a batch, directly on
//!   encoded data where possible, producing a selection byte vector merged
//!   with deleted-row information; also performs segment elimination from
//!   metadata.
//! * [`groupid`] — the **Group ID Mapper**: turns group-by columns into a
//!   dense integer group-id vector, exploiting dictionary codes as a
//!   perfect, collision-free hash (§3); falls back to a generic remap for
//!   wide group domains.
//! * [`aggproc`] — the **Aggregate Processor**: combines a group-id vector
//!   and selection vector with the aggregate inputs, executing one of the
//!   3 selection × 3 SIMD aggregation strategy pairings (plus the scalar
//!   fallback) chosen by [`strategy`].
//! * [`strategy`] — the runtime chooser: aggregation strategy per segment
//!   (from metadata: group-count bound, aggregate count and widths),
//!   selection strategy per batch (from the batch's measured selectivity),
//!   mirroring §3's "the choice ... can change from segment to segment /
//!   batch to batch".
//! * [`scan`] — drives morsel-driven scans over the segments (optionally in
//!   parallel) and merges per-worker group results in two phases.
//! * [`pool`] — the persistent worker pool backing parallel scans: spawned
//!   lazily on the first parallel query, reused by every later one.
//! * [`expr`] / [`query`] — the scalar expression interpreter (standing in
//!   for the paper's LLVM-generated code, which likewise "always operates
//!   on decompressed column data") and the public query API.
//! * [`trace`] — the opt-in query profiler: per-worker phase spans and
//!   strategy decision events, merged into a [`trace::QueryProfile`] with
//!   `EXPLAIN ANALYZE` and JSON renderers (DESIGN.md §9).
//! * [`governor`] — per-query resource governance: cooperative cancellation,
//!   wall-clock deadlines, and a memory accountant checked at every morsel
//!   claim and batch boundary (DESIGN.md §10).
//! * [`engine`] — the multi-query serving layer: a process-wide [`Engine`]
//!   handle with a shared table registry, bounded admission control with
//!   typed shedding, an aggregate memory accountant, and weighted tenant
//!   [`Session`]s interleaved fairly on the shared pool (DESIGN.md §15).
//! * [`mod@telemetry`] — the process-wide telemetry seam: every completed query
//!   publishes its stats/profile once into a registry of fleet counters and
//!   histograms plus a bounded cross-query decision log (DESIGN.md §14).
//! * [`mod@reference`] — a naive row-at-a-time executor used as the correctness
//!   oracle for the whole engine.

// Library code is panic-free: a failure is a typed error, and a site that
// cannot fail says why in an `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

pub mod aggproc;
pub mod engine;
pub mod error;
pub mod expr;
pub mod filter;
pub mod governor;
pub mod groupid;
pub mod pool;
pub mod query;
pub mod reference;
pub mod scan;
pub mod stats;
pub mod strategy;
pub mod telemetry;
pub mod trace;

pub use engine::{Engine, EngineConfig, EnginePermit, EngineSnapshot, Session, SessionOptions};
pub use error::{AdmissionReason, EngineError, Result};
pub use expr::Expr;
pub use filter::Predicate;
pub use governor::{AggregateBudget, CancelToken};
pub use pool::{QueryTag, SchedStats};
pub use query::{execute, AggExpr, Query, QueryBuilder, QueryOptions, QueryResult, ResultRow};
pub use stats::ExecStats;
pub use strategy::{AggStrategy, SelectionStrategy};
#[expect(
    clippy::disallowed_types,
    reason = "the telemetry handle and decision log are public API"
)]
pub use telemetry::{telemetry, DecisionLog, EngineTelemetry, DECISION_LOG_CAPACITY};
#[expect(clippy::disallowed_types, reason = "finished trace events are public API")]
pub use trace::{
    observability_compiled_out, DecisionRecord, Phase, PhaseTotals, ProfileLevel, QueryProfile,
    SpanLoc, TraceEvent, Tracer, WorkerRing,
};
