//! # BIPie columnstore substrate
//!
//! A from-scratch implementation of the columnar storage engine BIPie runs
//! on (§2.1 of the paper, modeled on the MemSQL columnstore):
//!
//! * Tables are split into an **immutable region** of encoded, column-
//!   oriented [`Segment`]s (up to ~1M rows each) and a small **mutable
//!   region** of recently written rows that is flushed into new segments
//!   ([`table`]). The mutable region stays uncompressed, as in the paper,
//!   but departs from its "row-oriented" wording: inserts append each value
//!   to its column, so a flush encodes columns that already exist.
//! * Each segment column is compressed independently with one of the
//!   supported encodings — integer **bit packing**, **dictionary** (+
//!   bit-packed codes), **run-length**, and **delta** ([`encoding`]) —
//!   chosen at flush time by compressed size and query usefulness.
//! * Segments carry per-column **metadata** (min/max, distinct-count upper
//!   bound) used for segment elimination and for proving that aggregate
//!   overflow is impossible (§2.1).
//! * Rows can be **marked deleted** in the immutable region via a per-
//!   segment bitmap ([`bitmap`]); updates are deletes plus re-inserts into
//!   the mutable region.
//! * Scans proceed in **batches** of up to 4096 rows (§2.1), never
//!   revisiting earlier batches.

// Library code is panic-free: a failure is a typed error, and a site that
// cannot fail says why in an `#[expect(clippy::…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

pub mod batch;
pub mod bitmap;
pub mod encoding;
pub mod segment;
pub mod table;
pub mod value;

pub use batch::{Batch, BatchCursor, MorselCursor, BATCH_ROWS, MORSEL_ROWS};
pub use bitmap::DeletedBitmap;
pub use encoding::{EncodedColumn, Encoding, EncodingHint};
pub use segment::{ColumnMeta, Segment, SEGMENT_ROWS};
pub use table::{ColumnSpec, MutableRows, Table, TableBuilder};
pub use value::{Date, LogicalType, Value};
