//! # BIPie measurement harness
//!
//! The paper reports every result in **elapsed CPU cycles per physical core
//! per input row** (per computed sum where applicable): "clock cycles
//! abstract away some aspects of the hardware, such as the clock frequency
//! or number of cores" (§6). This crate reproduces that methodology:
//!
//! * [`cycles`] — a serialized `rdtsc` cycle counter. TSC ticks at the
//!   nominal frequency, matching the paper's normalization of published
//!   results (`time × nominal clock × cores / rows`).
//! * [`measure`] — run a kernel N times (default 10, like the paper) and
//!   report the **median** cycles/row.
//! * [`table`] — plain-text renderers for the paper's tables and the
//!   Figure 8–10 strategy-matrix heatmaps.
//! * [`registry`] — the process-wide metrics substrate (DESIGN.md §14):
//!   lock-free sharded counters/gauges/log2 histograms with stable
//!   `name` + static-label identity, exposed as Prometheus v0.0.4 text or
//!   a JSON snapshot.

#![forbid(unsafe_code)]
// Library code is panic-free: a failure is a typed error, and a site that
// cannot fail says why in an `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

pub mod cycles;
pub mod measure;
pub mod registry;
pub mod table;

pub use cycles::{read_cycles, tsc_hz, Deadline};
pub use measure::{measure_cycles_per_row, MeasureOpts, Measurement};
#[expect(clippy::disallowed_types, reason = "the registry and its instruments are public API")]
pub use registry::{Counter, Gauge, Histogram, Labels, Registry};
pub use table::{Grid, Table};
