//! The Group ID Mapper (§3, §5).
//!
//! "The Group ID Mapper takes in the group by columns specified in the
//! query and produces a single vector of integer group ids. It replaces
//! the hash table lookup step in a classical implementation of aggregation.
//! ... dictionary encoded data provide the group id mapper with a perfect
//! collision-free hashing."
//!
//! Two paths exist per segment:
//!
//! * **Narrow** — every group-by column exposes dense small codes
//!   (dictionary ids, or frame-of-reference values with a small range), and
//!   the combined group domain (plus one special-group slot, §4.3) fits in
//!   a `u8`. Group ids are produced by unpacking codes and radix-combining
//!   them — no hashing, no lookups. This is the path all SIMD aggregation
//!   strategies require.
//! * **Wide** — anything else. Keys are decoded per row and densely
//!   remapped through a hash table; aggregation falls back to scalar
//!   kernels over `u32` group ids.

use std::collections::HashMap;

use bipie_columnstore::encoding::{EncodedColumn, ForBitPackColumn};
use bipie_columnstore::{LogicalType, Segment, Value};
use bipie_toolbox::bitpack::PackedVec;
use bipie_toolbox::SimdLevel;

use crate::error::{EngineError, Result};

/// Maximum combined group-domain size for the narrow path: group ids plus
/// the special group must fit in `u8` (§2.2's 256-value simplification).
pub const NARROW_GROUP_LIMIT: usize = 255;

/// Debug-build check that every wide-path (`u32`) group id is strictly below
/// `num_groups` — the `u32` counterpart of
/// `bipie_toolbox::agg::debug_assert_group_ids`, which covers the narrow
/// `u8` path. The scalar wide-path accumulators index by group id without
/// per-row bounds checks.
#[inline]
pub fn debug_assert_group_ids_u32(gids: &[u32], num_groups: usize) {
    debug_assert!(
        gids.iter().all(|&g| (g as usize) < num_groups),
        "wide group id {} out of range ({num_groups} groups)",
        gids.iter().copied().max().unwrap_or(0)
    );
}

/// One group-by column viewed as a dense code stream.
#[derive(Debug)]
enum NarrowCol<'a> {
    /// String dictionary codes, with the dictionary pre-materialized to
    /// shared [`Value`]s so reconstructing a group key bumps a refcount
    /// instead of re-allocating the string bytes.
    StrDict { dict: Vec<Value>, codes: &'a PackedVec },
    /// Integer dictionary codes.
    IntDict { dict: &'a [i64], codes: &'a PackedVec, ty: LogicalType },
    /// Frame-of-reference values with a small range: the normalized value
    /// *is* the code. `card` comes from segment metadata (`max - min + 1`).
    BitPack { col: &'a ForBitPackColumn, ty: LogicalType, card: usize },
}

impl NarrowCol<'_> {
    fn cardinality(&self) -> usize {
        match self {
            NarrowCol::StrDict { dict, .. } => dict.len().max(1),
            NarrowCol::IntDict { dict, .. } => dict.len().max(1),
            NarrowCol::BitPack { card, .. } => *card,
        }
    }

    fn codes(&self) -> &PackedVec {
        match self {
            NarrowCol::StrDict { codes, .. } => codes,
            NarrowCol::IntDict { codes, .. } => codes,
            NarrowCol::BitPack { col, .. } => col.normalized(),
        }
    }

    fn key_of(&self, code: usize) -> Value {
        match self {
            NarrowCol::StrDict { dict, .. } => dict[code].clone(),
            NarrowCol::IntDict { dict, ty, .. } => Value::from_storage_i64(*ty, dict[code]),
            NarrowCol::BitPack { col, ty, .. } => {
                Value::from_storage_i64(*ty, col.reference() + code as i64)
            }
        }
    }
}

/// Narrow-path group-id mapper for one segment.
#[derive(Debug)]
pub struct NarrowMapper<'a> {
    cols: Vec<NarrowCol<'a>>,
    num_groups: usize,
}

impl NarrowMapper<'_> {
    /// Upper bound on distinct group ids in this segment (product of the
    /// per-column code cardinalities; 1 when there is no GROUP BY).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Bit width of the widest group-by code stream (drives the selection
    /// strategy's bit-width parameter when no aggregate dominates).
    pub fn code_bits(&self) -> u8 {
        self.cols.iter().map(|c| c.codes().bits()).max().unwrap_or(1)
    }

    /// Produce group ids for batch rows `[start, start+len)` into `out`.
    pub fn extract_batch(
        &self,
        start: usize,
        len: usize,
        out: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
        level: SimdLevel,
    ) {
        let Some((first, rest)) = self.cols.split_first() else {
            out.clear();
            out.resize(len, 0);
            return; // no GROUP BY: everything is group 0
        };
        out.resize(len, 0);
        first.codes().unpack_into_u8(start, out, level);
        for col in rest {
            let card = col.cardinality() as u8;
            scratch.resize(len, 0);
            col.codes().unpack_into_u8(start, scratch, level);
            // Radix combine; the narrow-limit check guarantees no overflow.
            bipie_toolbox::radix::fused_scale_add_u8(out, scratch, card, level);
        }
        bipie_toolbox::agg::debug_assert_group_ids(out, self.num_groups);
    }

    /// Reconstruct the group-by key values for a group id.
    pub fn group_key(&self, gid: usize) -> Vec<Value> {
        let mut parts = Vec::with_capacity(self.cols.len());
        let mut rest = gid;
        for col in self.cols.iter().rev() {
            let card = col.cardinality();
            parts.push(col.key_of(rest % card));
            rest /= card;
        }
        debug_assert_eq!(rest, 0, "group id out of domain");
        parts.reverse();
        parts
    }
}

/// Wide-path mapper: dense remap through a hash table, `u32` group ids.
/// `Clone` so a scan can plan the (empty) mapper once per segment and hand
/// each visiting worker its own copy to intern into.
#[derive(Debug, Clone)]
pub struct WideMapper<'a> {
    cols: Vec<(&'a EncodedColumn, LogicalType)>,
    map: HashMap<Vec<i64>, u32>,
    /// Per group id, the storage-key tuple (str columns store dict codes).
    keys: Vec<Vec<i64>>,
}

impl<'a> WideMapper<'a> {
    /// Group count discovered so far.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Produce group ids for batch rows `[start, start+len)`, assigning new
    /// ids in first-seen order. `scratch` and `deltas` are decode buffers
    /// the caller keeps across batches.
    pub fn extract_batch(
        &mut self,
        start: usize,
        len: usize,
        out: &mut Vec<u32>,
        scratch: &mut Vec<Vec<i64>>,
        deltas: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(len, 0);
        // Decode each group-by column's storage values (codes for strings).
        scratch.resize(self.cols.len(), Vec::new());
        for ((col, _), buf) in self.cols.iter().zip(scratch.iter_mut()) {
            buf.clear();
            buf.resize(len, 0);
            match col {
                EncodedColumn::StrDict(d) => {
                    for (k, slot) in buf.iter_mut().enumerate() {
                        *slot = d.codes().get(start + k) as i64;
                    }
                }
                other => other.decode_i64_with(start, buf, deltas),
            }
        }
        let mut key = Vec::with_capacity(self.cols.len());
        for (i, o) in out.iter_mut().enumerate() {
            key.clear();
            key.extend(scratch.iter().map(|buf| buf[i]));
            if let Some(&gid) = self.map.get(&key) {
                *o = gid;
            } else {
                let gid = self.keys.len() as u32;
                self.map.insert(key.clone(), gid);
                self.keys.push(key.clone());
                *o = gid;
            }
        }
        debug_assert_group_ids_u32(out, self.keys.len());
    }

    /// Reconstruct the group-by key values for a group id.
    pub fn group_key(&self, gid: usize) -> Vec<Value> {
        self.keys[gid]
            .iter()
            .zip(&self.cols)
            .map(|(&stored, (col, ty))| match col {
                EncodedColumn::StrDict(d) => Value::Str(d.dict()[stored as usize].as_str().into()),
                _ => Value::from_storage_i64(*ty, stored),
            })
            .collect()
    }
}

/// The per-segment mapper, chosen from encodings and metadata.
#[derive(Debug)]
pub enum SegmentGroupMapper<'a> {
    /// Dense `u8` path (SIMD aggregation eligible).
    Narrow(NarrowMapper<'a>),
    /// Hash-remap `u32` fallback.
    Wide(WideMapper<'a>),
}

/// Plan the group-id mapper for one segment. `group_cols` lists the
/// group-by columns as `(column index, logical type)`.
pub fn plan_segment_mapper<'a>(
    seg: &'a Segment,
    group_cols: &[(usize, LogicalType)],
) -> Result<SegmentGroupMapper<'a>> {
    let mut narrow_cols = Vec::with_capacity(group_cols.len());
    let mut narrow_ok = true;
    for &(idx, ty) in group_cols {
        match seg.column(idx) {
            EncodedColumn::StrDict(d) => {
                // Materialize the dictionary once per segment plan: every
                // group-key reconstruction then shares these allocations.
                let dict = d.dict().iter().map(|s| Value::Str(s.as_str().into())).collect();
                narrow_cols.push(NarrowCol::StrDict { dict, codes: d.codes() })
            }
            EncodedColumn::IntDict(d) => {
                narrow_cols.push(NarrowCol::IntDict { dict: d.dict(), codes: d.codes(), ty })
            }
            EncodedColumn::BitPack(c)
                if seg.meta(idx).range() < NARROW_GROUP_LIMIT as u64 && c.bits() <= 8 =>
            {
                narrow_cols.push(NarrowCol::BitPack {
                    col: c,
                    ty,
                    card: seg.meta(idx).range() as usize + 1,
                })
            }
            _ => {
                narrow_ok = false;
                break;
            }
        }
    }
    if narrow_ok {
        let mut product = 1usize;
        for col in &narrow_cols {
            product = product.saturating_mul(col.cardinality());
        }
        if product <= NARROW_GROUP_LIMIT {
            return Ok(SegmentGroupMapper::Narrow(NarrowMapper {
                cols: narrow_cols,
                num_groups: product,
            }));
        }
    }
    // Wide fallback: any encoding works, strings must be dict (always true).
    let cols: Vec<(&EncodedColumn, LogicalType)> =
        group_cols.iter().map(|&(idx, ty)| (seg.column(idx), ty)).collect();
    for (col, ty) in &cols {
        if *ty == LogicalType::Str && !matches!(col, EncodedColumn::StrDict(_)) {
            return Err(EngineError::Unsupported("string column without dictionary".into()));
        }
    }
    Ok(SegmentGroupMapper::Wide(WideMapper { cols, map: HashMap::new(), keys: Vec::new() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bipie_columnstore::{ColumnSpec, TableBuilder};

    fn table(rows: usize, wide: bool) -> bipie_columnstore::Table {
        let mut b = TableBuilder::with_segment_rows(
            vec![
                ColumnSpec::new("flag", LogicalType::Str),
                ColumnSpec::new("status", LogicalType::I64),
                ColumnSpec::new("wide", LogicalType::I64),
            ],
            1 << 20,
        );
        for i in 0..rows {
            b.push_row(vec![
                Value::Str(["A", "N", "R"][i % 3].into()),
                Value::I64((i % 2) as i64),
                Value::I64(if wide { (i * 977) as i64 } else { (i % 4) as i64 }),
            ]);
        }
        b.finish()
    }

    #[test]
    fn single_string_column_uses_dict_codes() {
        let t = table(100, false);
        let seg = &t.segments()[0];
        let mapper = plan_segment_mapper(seg, &[(0, LogicalType::Str)]).unwrap();
        let SegmentGroupMapper::Narrow(m) = mapper else { panic!("expected narrow") };
        assert_eq!(m.num_groups(), 3);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        m.extract_batch(0, 100, &mut out, &mut scratch, SimdLevel::detect());
        for (i, &g) in out.iter().enumerate() {
            // dict is sorted: A=0, N=1, R=2
            assert_eq!(g as usize, i % 3, "i={i}");
        }
        assert_eq!(m.group_key(0), vec![Value::Str("A".into())]);
        assert_eq!(m.group_key(2), vec![Value::Str("R".into())]);
    }

    #[test]
    fn multi_column_radix_combines() {
        let t = table(120, false);
        let seg = &t.segments()[0];
        let mapper =
            plan_segment_mapper(seg, &[(0, LogicalType::Str), (1, LogicalType::I64)]).unwrap();
        let SegmentGroupMapper::Narrow(m) = mapper else { panic!("expected narrow") };
        assert_eq!(m.num_groups(), 6);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        m.extract_batch(0, 120, &mut out, &mut scratch, SimdLevel::detect());
        for (i, &g) in out.iter().enumerate() {
            let flag_code = i % 3; // A=0 N=1 R=2 sorted
            let status = i % 2;
            assert_eq!(g as usize, flag_code * 2 + status, "i={i}");
        }
        // Key reconstruction inverts the radix combine.
        assert_eq!(m.group_key(3), vec![Value::Str("N".into()), Value::I64(1)]);
        assert_eq!(m.group_key(4), vec![Value::Str("R".into()), Value::I64(0)]);
    }

    #[test]
    fn empty_group_by_is_single_group() {
        let t = table(10, false);
        let seg = &t.segments()[0];
        let mapper = plan_segment_mapper(seg, &[]).unwrap();
        let SegmentGroupMapper::Narrow(m) = mapper else { panic!("expected narrow") };
        assert_eq!(m.num_groups(), 1);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        m.extract_batch(0, 10, &mut out, &mut scratch, SimdLevel::detect());
        assert!(out.iter().all(|&g| g == 0));
        assert!(m.group_key(0).is_empty());
    }

    #[test]
    fn wide_domain_falls_back() {
        let t = table(1000, true);
        let seg = &t.segments()[0];
        let mapper = plan_segment_mapper(seg, &[(2, LogicalType::I64)]).unwrap();
        let SegmentGroupMapper::Wide(mut m) = mapper else { panic!("expected wide") };
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        m.extract_batch(0, 1000, &mut out, &mut scratch, &mut Vec::new());
        // Dense first-seen ids; reconstructable keys.
        let max = *out.iter().max().unwrap() as usize;
        assert_eq!(m.num_groups(), max + 1);
        for (i, &g) in out.iter().enumerate().take(20) {
            assert_eq!(m.group_key(g as usize), vec![Value::I64((i * 977) as i64)]);
        }
    }

    #[test]
    fn bitpack_small_range_is_narrow() {
        let t = table(100, false);
        let seg = &t.segments()[0];
        // "wide" column here has values 0..4 -> narrow-capable bitpack/dict.
        let mapper = plan_segment_mapper(seg, &[(2, LogicalType::I64)]).unwrap();
        assert!(matches!(mapper, SegmentGroupMapper::Narrow(_)));
    }

    #[test]
    fn product_overflow_goes_wide() {
        // 3 * 2 * many > 255 -> wide.
        let t = table(4000, true);
        let seg = &t.segments()[0];
        let mapper = plan_segment_mapper(
            seg,
            &[(0, LogicalType::Str), (1, LogicalType::I64), (2, LogicalType::I64)],
        )
        .unwrap();
        assert!(matches!(mapper, SegmentGroupMapper::Wide(_)));
    }
}
