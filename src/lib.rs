//! # BIPie
//!
//! A from-scratch Rust reproduction of **"BIPie: Fast Selection and
//! Aggregation on Encoded Data using Operator Specialization"**
//! (Nowakiewicz et al., SIGMOD 2018).
//!
//! BIPie is a scan engine for analytical queries of the form
//! `SELECT g, count(*), sum(a1), ..., sum(an) FROM t WHERE p GROUP BY g`
//! executed directly on encoded columnar data. It fuses decoding, selection,
//! and grouped aggregation into a single pass, picking among specialized
//! SIMD operator implementations at runtime.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`toolbox`] — the Vector Toolbox: low-level SIMD kernels (bit packing,
//!   selection vectors, compaction, gather selection, special-group
//!   assignment, and the scalar / sort-based / in-register / multi-aggregate
//!   aggregation strategies).
//! * [`columnstore`] — the columnar storage substrate: encoded segments
//!   (bit packing, dictionary, RLE, delta), per-segment metadata, deleted-row
//!   tracking, and 4096-row batch scanning.
//! * [`core`] — the BIPie engine: filter evaluation, group-id mapping,
//!   the Aggregate Processor with runtime strategy selection, and the
//!   public query API.
//! * [`tpch`] — a deterministic TPC-H `lineitem` generator and Query 1
//!   workloads used by the paper's end-to-end evaluation.
//! * [`metrics`] — the cycle-accurate measurement harness used by the
//!   experiment binaries.
//!
//! ## Quickstart
//!
//! ```
//! use bipie::core::{QueryBuilder, AggExpr, Predicate};
//! use bipie::columnstore::{TableBuilder, ColumnSpec, LogicalType, Value};
//!
//! // Build a tiny columnstore table.
//! let mut builder = TableBuilder::new(vec![
//!     ColumnSpec::new("region", LogicalType::Str),
//!     ColumnSpec::new("sales", LogicalType::I64),
//! ]);
//! for i in 0..1000i64 {
//!     let region = ["north", "south", "east", "west"][(i % 4) as usize];
//!     builder.push_row(vec![Value::Str(region.into()), Value::I64(i)]);
//! }
//! let table = builder.finish();
//!
//! // SELECT region, count(*), sum(sales) FROM t WHERE sales >= 500 GROUP BY region
//! let query = QueryBuilder::new()
//!     .filter(Predicate::ge("sales", Value::I64(500)))
//!     .group_by("region")
//!     .aggregate(AggExpr::count_star())
//!     .aggregate(AggExpr::sum("sales"))
//!     .build();
//! let result = bipie::core::execute(&table, &query).unwrap();
//! assert_eq!(result.num_rows(), 4);
//! ```

// Library code is panic-free: a failure is a typed error, and a site that
// cannot fail says why in an `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

pub use bipie_columnstore as columnstore;
pub use bipie_core as core;
pub use bipie_metrics as metrics;
pub use bipie_toolbox as toolbox;
pub use bipie_tpch as tpch;
