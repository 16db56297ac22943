//! Tables: schema, segments, and the mutable region (§2.1).
//!
//! "The MemSQL columnstore index is split between a mutable region and an
//! immutable region. ... The mutable region is row-oriented, uncompressed,
//! and updatable. The mutable region represents a small fraction of rows,
//! recently added or modified. It is compressed into the immutable region
//! by a background task."
//!
//! Our [`Table`] mirrors that split with one departure from the paper's
//! wording: the mutable region stays uncompressed, but it is stored column
//! by column, not row by row. [`Table::insert`] checks a row, appends each
//! value to its column — integer-like values as storage integers, strings
//! as an id among the column's distinct strings — and frees the row.
//! [`Table::flush_mutable`] (and the automatic flush every `segment_rows`)
//! encodes those columns as they are into a new immutable [`Segment`], so
//! a flush transposes nothing. Scans read segments with BIPie's vectorized
//! machinery, and read the (small) mutable tail the same way: each query
//! encodes it through [`MutableRows::encode`] — the flush's own encoder,
//! without draining the region — and scans the result as one more segment.

use std::sync::Arc;

use crate::encoding::dict::Interner;
use crate::encoding::{EncodingHint, StrDictColumn};
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

/// One column of the mutable region: uncompressed and append-only. Its
/// buffers grow by doubling; nothing reserves `segment_rows`, which may be
/// `usize::MAX`.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "one per column of the region; the interner's cache of recent ids sits inline"
)]
enum MutableColumn {
    /// Storage integers (dates as days, decimals as hundredths) of the
    /// column's type.
    Ints { ty: LogicalType, values: Vec<i64> },
    /// Each row's provisional id among the column's distinct strings.
    Strs { ids: Vec<u32>, strings: Interner<Arc<str>> },
}

impl MutableColumn {
    fn new(ty: LogicalType) -> MutableColumn {
        if ty.is_integerlike() {
            MutableColumn::Ints { ty, values: Vec::new() }
        } else {
            MutableColumn::Strs { ids: Vec::new(), strings: Interner::default() }
        }
    }

    fn len(&self) -> usize {
        match self {
            MutableColumn::Ints { values, .. } => values.len(),
            MutableColumn::Strs { ids, .. } => ids.len(),
        }
    }

    /// Append `value` if it has the column's type; false, with nothing
    /// appended, if it does not.
    #[inline]
    fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (MutableColumn::Strs { ids, strings }, Value::Str(s)) => ids.push(strings.intern(s)),
            (MutableColumn::Ints { ty, values }, value) => {
                match value.as_storage_i64().filter(|_| value.logical_type() == *ty) {
                    Some(v) => values.push(v),
                    None => return false,
                }
            }
            (MutableColumn::Strs { .. }, _) => return false,
        }
        true
    }

    /// Take back the last append, and forget its string if that was new:
    /// a row adds at most one key to a column, the newest, and only if no
    /// other row holds it (a scan of the column, paid only on rejection).
    fn pop(&mut self) {
        match self {
            MutableColumn::Ints { values, .. } => {
                values.pop();
            }
            MutableColumn::Strs { ids, strings } => {
                if let Some(id) = ids.pop() {
                    if id as usize + 1 == strings.len() && !ids.contains(&id) {
                        strings.forget_last();
                    }
                }
            }
        }
    }

    /// The column as the segment builder takes it, copied: integers as they
    /// are, a string column dictionary-encoded by sorting its distinct
    /// strings. The column itself is left as it was.
    fn to_data(&self) -> ColumnData {
        match self {
            MutableColumn::Ints { values, .. } => ColumnData::Ints(values.clone()),
            MutableColumn::Strs { ids, strings } => {
                ColumnData::Strs(StrDictColumn::from_interned(strings, ids))
            }
        }
    }

    /// [`MutableColumn::to_data`], moving an integer column instead of
    /// copying it.
    fn into_data(self) -> ColumnData {
        match self {
            MutableColumn::Ints { values, .. } => ColumnData::Ints(values),
            strs => strs.to_data(),
        }
    }
}

/// The mutable region read in place: row `r` is the `r`-th value of every
/// column.
#[derive(Debug, Clone, Copy)]
pub struct MutableRows<'a> {
    specs: &'a [ColumnSpec],
    columns: &'a [MutableColumn],
}

impl MutableRows<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, MutableColumn::len)
    }

    /// True if the region holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of column `col` in row `row`.
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of range.
    pub fn value(&self, row: usize, col: usize) -> Value {
        match &self.columns[col] {
            MutableColumn::Ints { ty, values } => Value::from_storage_i64(*ty, values[row]),
            MutableColumn::Strs { ids, strings } => Value::Str(Arc::clone(strings.key(ids[row]))),
        }
    }

    /// The segment [`Table::flush_mutable`] would make of the region now,
    /// built by the same encoder under the same hints, with the region left
    /// as it is. Columns are copied one at a time, so the extra memory is
    /// one column at most. `None` when the region holds no rows.
    pub fn encode(&self) -> Option<Segment> {
        let columns = self.columns.iter().map(MutableColumn::to_data);
        (!self.is_empty()).then(|| Segment::build(columns, &hints(self.specs)))
    }
}

/// A columnstore table.
#[derive(Debug)]
pub struct Table {
    specs: Vec<ColumnSpec>,
    segments: Vec<Segment>,
    /// The mutable region, one column per spec, bounded by `segment_rows`
    /// before a flush.
    mutable: Vec<MutableColumn>,
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
        let mutable = empty_region(&specs);
        Table { specs, segments: Vec::new(), mutable, segment_rows }
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
    pub fn mutable_rows(&self) -> MutableRows<'_> {
        MutableRows { specs: &self.specs, columns: &self.mutable }
    }

    /// Total rows (immutable live + mutable).
    pub fn num_rows(&self) -> usize {
        self.segments.iter().map(Segment::live_rows).sum::<usize>() + self.mutable_rows().len()
    }

    /// Insert one row into the mutable region, flushing a full segment's
    /// worth automatically (the "background task" of §2.1, done inline).
    ///
    /// # Panics
    /// Panics if the row's arity or a value's type does not match the
    /// schema. A rejected row leaves the table as it was: each value is
    /// typed as it is appended, and a mistyped one takes back the appends
    /// before it.
    pub fn insert(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.specs.len(), "row arity mismatch");
        // Values are read in place and the row is dropped whole: moving
        // each value out of the row cost ≈ 100 cycles a row more (LINEITEM
        // rows, 2.1 GHz Xeon).
        let mistyped = self.mutable.iter_mut().zip(&row).position(|(column, v)| !column.push(v));
        if let Some(c) = mistyped {
            self.reject(c, &row[c]);
        }
        drop(row);
        if self.mutable_rows().len() >= self.segment_rows {
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
        if self.mutable_rows().is_empty() {
            return;
        }
        let columns = std::mem::replace(&mut self.mutable, empty_region(&self.specs));
        // Lazily: each column is encoded and dropped before the next string
        // column is sorted.
        self.segments.push(Segment::build(
            columns.into_iter().map(MutableColumn::into_data),
            &hints(&self.specs),
        ));
    }

    /// Take back a row's appends to the columns before `c`, whose value
    /// `value` does not have the column's type, and panic.
    #[cold]
    #[expect(clippy::panic, reason = "a mistyped row is a caller bug, documented on `insert`")]
    fn reject(&mut self, c: usize, value: &Value) -> ! {
        for column in &mut self.mutable[..c] {
            column.pop();
        }
        let spec = &self.specs[c];
        panic!(
            "type mismatch in column '{}': expected {:?}, got {:?}",
            spec.name,
            spec.ty,
            value.logical_type()
        )
    }
}

fn empty_region(specs: &[ColumnSpec]) -> Vec<MutableColumn> {
    specs.iter().map(|s| MutableColumn::new(s.ty)).collect()
}

fn hints(specs: &[ColumnSpec]) -> Vec<EncodingHint> {
    specs.iter().map(|s| s.hint).collect()
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
    fn mutable_rows_read_back_typed() {
        let specs = vec![
            ColumnSpec::new("d", LogicalType::Date),
            ColumnSpec::new("s", LogicalType::Str),
            ColumnSpec::new("m", LogicalType::Decimal),
        ];
        let rows = [
            vec![Value::Date(crate::Date(-3)), Value::Str("b".into()), Value::Decimal(-250)],
            vec![Value::Date(crate::Date(9)), Value::Str("a".into()), Value::Decimal(7)],
            vec![Value::Date(crate::Date(9)), Value::Str("b".into()), Value::Decimal(0)],
        ];
        let mut t = Table::with_segment_rows(specs, usize::MAX);
        for r in &rows {
            t.insert(r.clone());
        }
        let tail = t.mutable_rows();
        for (i, r) in rows.iter().enumerate() {
            let read: Vec<Value> = (0..r.len()).map(|col| tail.value(i, col)).collect();
            assert_eq!(&read, r);
        }
    }

    #[test]
    fn encode_is_the_flush_without_the_drain() {
        let mut t = Table::with_segment_rows(specs(), 1000);
        assert!(t.mutable_rows().encode().is_none());
        for i in 0..40 {
            t.insert(row(["N", "A", "R"][i % 3], i as i64 * 7 - 90));
        }
        let encoded = t.mutable_rows().encode().unwrap();
        assert_eq!(t.mutable_rows().len(), 40, "the region is left as it was");
        t.flush_mutable();
        let flushed = &t.segments()[0];
        assert_eq!(encoded.num_rows(), flushed.num_rows());
        for col in 0..2 {
            assert_eq!(encoded.meta(col), flushed.meta(col));
            // Same encoding, same bytes: the columns print identically.
            assert_eq!(format!("{:?}", encoded.column(col)), format!("{:?}", flushed.column(col)));
        }
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
