//! Tables: schema, segments, and the mutable region (§2.1).
//!
//! "The MemSQL columnstore index is split between a mutable region and an
//! immutable region. ... The mutable region is row-oriented, uncompressed,
//! and updatable. The mutable region represents a small fraction of rows,
//! recently added or modified. It is compressed into the immutable region
//! by a background task."
//!
//! Our [`Table`] mirrors that split: inserts land in a row-oriented
//! [`Table::mutable_rows`] buffer; [`Table::flush_mutable`] (and the
//! builder's automatic flush every [`SEGMENT_ROWS`]) encodes them into new
//! immutable [`Segment`]s. Scans read segments with BIPie's vectorized
//! machinery and fall back to row-at-a-time processing for the (small)
//! mutable tail.

use crate::encoding::EncodingHint;
use crate::segment::{ColumnData, Segment, SEGMENT_ROWS};
use crate::value::{LogicalType, Value};

/// A column's schema entry.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name (unique within a table).
    pub name: String,
    /// Logical type.
    pub ty: LogicalType,
    /// Encoding preference for segment flushes.
    pub hint: EncodingHint,
}

impl ColumnSpec {
    /// A column with automatic encoding choice.
    pub fn new(name: impl Into<String>, ty: LogicalType) -> ColumnSpec {
        ColumnSpec { name: name.into(), ty, hint: EncodingHint::Auto }
    }

    /// Override the encoding hint.
    pub fn with_hint(mut self, hint: EncodingHint) -> ColumnSpec {
        self.hint = hint;
        self
    }
}

/// A columnstore table.
#[derive(Debug)]
pub struct Table {
    specs: Vec<ColumnSpec>,
    segments: Vec<Segment>,
    /// Row-oriented mutable region, bounded by `segment_rows` before flush.
    mutable: Vec<Vec<Value>>,
    segment_rows: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(specs: Vec<ColumnSpec>) -> Table {
        Self::with_segment_rows(specs, SEGMENT_ROWS)
    }

    /// An empty table with a custom segment size (tests / small scales).
    pub fn with_segment_rows(specs: Vec<ColumnSpec>, segment_rows: usize) -> Table {
        assert!(!specs.is_empty(), "a table needs at least one column");
        assert!(segment_rows > 0, "segment size must be positive");
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "column names must be unique");
        Table { specs, segments: Vec::new(), mutable: Vec::new(), segment_rows }
    }

    /// The schema.
    pub fn specs(&self) -> &[ColumnSpec] {
        &self.specs
    }

    /// Index of the named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.specs.iter().position(|s| s.name == name)
    }

    /// Immutable segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Mutable access to a segment (for delete marking).
    pub fn segment_mut(&mut self, i: usize) -> &mut Segment {
        &mut self.segments[i]
    }

    /// Rows currently in the mutable region.
    pub fn mutable_rows(&self) -> &[Vec<Value>] {
        &self.mutable
    }

    /// Total rows (immutable live + mutable).
    pub fn num_rows(&self) -> usize {
        self.segments.iter().map(Segment::live_rows).sum::<usize>() + self.mutable.len()
    }

    /// Insert one row into the mutable region, flushing a full segment's
    /// worth automatically (the "background task" of §2.1, done inline).
    pub fn insert(&mut self, row: Vec<Value>) {
        self.check_row(&row);
        self.mutable.push(row);
        if self.mutable.len() >= self.segment_rows {
            self.flush_mutable();
        }
    }

    /// Mark a row of an immutable segment deleted.
    pub fn delete_row(&mut self, segment: usize, row: usize) {
        self.segments[segment].delete_row(row);
    }

    /// Encode the mutable region into a new immutable segment. No-op when
    /// the region is empty.
    pub fn flush_mutable(&mut self) {
        if self.mutable.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.mutable);
        // One column at a time, read out of the rows in place: strings stay
        // borrowed, and the rows are freed once, after the last column.
        let columns = self.specs.iter().enumerate().map(|(c, spec)| {
            if spec.ty == LogicalType::Str {
                #[expect(
                    clippy::expect_used,
                    reason = "`check_row` typed the value when the row came in"
                )]
                let strs = rows.iter().map(|row| row[c].as_str().expect("typed by check_row"));
                ColumnData::Strs(strs.collect())
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "`check_row` typed the value when the row came in"
                )]
                let ints =
                    rows.iter().map(|row| row[c].as_storage_i64().expect("typed by check_row"));
                ColumnData::Ints(ints.collect())
            }
        });
        let hints: Vec<EncodingHint> = self.specs.iter().map(|s| s.hint).collect();
        self.segments.push(Segment::build(columns, &hints));
    }

    fn check_row(&self, row: &[Value]) {
        assert_eq!(row.len(), self.specs.len(), "row arity mismatch");
        for (v, s) in row.iter().zip(&self.specs) {
            assert_eq!(
                v.logical_type(),
                s.ty,
                "type mismatch in column '{}': expected {:?}",
                s.name,
                s.ty
            );
        }
    }
}

/// Bulk-loading builder: rows stream in, segments flush automatically, and
/// `finish` flushes the tail so the resulting table is fully immutable.
#[derive(Debug)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Builder with the default segment size.
    pub fn new(specs: Vec<ColumnSpec>) -> TableBuilder {
        TableBuilder { table: Table::new(specs) }
    }

    /// Builder with a custom segment size.
    pub fn with_segment_rows(specs: Vec<ColumnSpec>, segment_rows: usize) -> TableBuilder {
        TableBuilder { table: Table::with_segment_rows(specs, segment_rows) }
    }

    /// Append one row.
    pub fn push_row(&mut self, row: Vec<Value>) {
        self.table.insert(row);
    }

    /// Flush the tail and return the table.
    pub fn finish(mut self) -> Table {
        self.table.flush_mutable();
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ColumnSpec> {
        vec![ColumnSpec::new("flag", LogicalType::Str), ColumnSpec::new("qty", LogicalType::I64)]
    }

    fn row(flag: &str, qty: i64) -> Vec<Value> {
        vec![Value::Str(flag.into()), Value::I64(qty)]
    }

    #[test]
    fn builder_flushes_segments() {
        let mut b = TableBuilder::with_segment_rows(specs(), 100);
        for i in 0..250 {
            b.push_row(row(["A", "N", "R"][i % 3], i as i64));
        }
        let t = b.finish();
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.segments()[0].num_rows(), 100);
        assert_eq!(t.segments()[2].num_rows(), 50);
        assert!(t.mutable_rows().is_empty());
        assert_eq!(t.num_rows(), 250);
    }

    #[test]
    fn mutable_region_counts() {
        let mut t = Table::with_segment_rows(specs(), 1000);
        t.insert(row("A", 1));
        t.insert(row("N", 2));
        assert_eq!(t.mutable_rows().len(), 2);
        assert_eq!(t.num_rows(), 2);
        t.flush_mutable();
        assert!(t.mutable_rows().is_empty());
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.num_rows(), 2);
        t.flush_mutable(); // no-op
        assert_eq!(t.segments().len(), 1);
    }

    #[test]
    fn deletes_reduce_live_count() {
        let mut t = Table::with_segment_rows(specs(), 10);
        for i in 0..10 {
            t.insert(row("A", i));
        }
        assert_eq!(t.segments().len(), 1);
        t.delete_row(0, 3);
        assert_eq!(t.num_rows(), 9);
    }

    #[test]
    fn column_lookup() {
        let t = Table::new(specs());
        assert_eq!(t.column_index("qty"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn rejects_wrong_type() {
        let mut t = Table::new(specs());
        t.insert(vec![Value::I64(1), Value::I64(2)]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new(specs());
        t.insert(vec![Value::I64(1)]);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn rejects_duplicate_names() {
        Table::new(vec![
            ColumnSpec::new("x", LogicalType::I64),
            ColumnSpec::new("x", LogicalType::I64),
        ]);
    }
}
