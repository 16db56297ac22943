//! Dictionary encoding (§2.1, §2.2).
//!
//! "Dictionary encoding has two components: a dictionary containing all
//! distinct values, and a bit packed sequence of integers identifying
//! elements in this dictionary." Distinct values get consecutive ids from 0,
//! which is exactly the *group id* domain the aggregation kernels consume —
//! "dictionary encoding already provides the injective mapping from column
//! values to small integers, which can be used as a perfect hashing function
//! of that column" (§3).
//!
//! Dictionaries are sorted, so codes preserve value order and range
//! predicates can be answered on codes.

use std::collections::HashMap;
use std::hash::Hash;

use bipie_toolbox::bitpack::{min_bits, PackedVec};

/// Dictionary-encoded integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntDictColumn {
    dict: Vec<i64>,
    codes: PackedVec,
}

/// Dictionary-encoded string column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDictColumn {
    dict: Vec<String>,
    codes: PackedVec,
}

/// Build a dictionary in one pass over `keys`: intern each distinct key
/// under a provisional id in first-seen order, sort the *distinct* keys (the
/// dictionary stays sorted, so codes preserve value order), and pack every
/// value's provisional id remapped to its sorted code.
fn intern_sorted<K: Ord + Hash + Copy>(keys: impl Iterator<Item = K>) -> (Vec<K>, PackedVec) {
    let mut ids: HashMap<K, u32> = HashMap::new();
    let provisional: Vec<u32> = keys
        .map(|key| {
            let next = ids.len() as u32;
            *ids.entry(key).or_insert(next)
        })
        .collect();
    let mut by_key: Vec<(K, u32)> = ids.into_iter().collect();
    by_key.sort_unstable();
    let mut code_of = vec![0u64; by_key.len()];
    for (code, &(_, id)) in by_key.iter().enumerate() {
        code_of[id as usize] = code as u64;
    }
    let bits = min_bits(by_key.len().saturating_sub(1) as u64);
    let codes = PackedVec::pack_iter(provisional.iter().map(|&id| code_of[id as usize]), bits);
    (by_key.into_iter().map(|(key, _)| key).collect(), codes)
}

impl IntDictColumn {
    /// Encode `values`.
    pub fn encode(values: &[i64]) -> IntDictColumn {
        let (dict, codes) = intern_sorted(values.iter().copied());
        IntDictColumn { dict, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted dictionary of distinct values.
    pub fn dict(&self) -> &[i64] {
        &self.dict
    }

    /// The bit-packed code stream (code = dense id = potential group id).
    pub fn codes(&self) -> &PackedVec {
        &self.codes
    }

    /// Code of the given value, if present.
    pub fn code_of(&self, value: i64) -> Option<u64> {
        self.dict.binary_search(&value).ok().map(|c| c as u64)
    }

    /// Payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.dict.len() * 8 + self.codes.packed_bytes()
    }

    /// Decode logical values for rows `[start, start + out.len())`.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.dict[self.codes.get(start + k) as usize];
        }
    }
}

impl StrDictColumn {
    /// Encode `values`. Only the distinct strings are copied.
    pub fn encode<S: AsRef<str>>(values: &[S]) -> StrDictColumn {
        let (dict, codes) = intern_sorted(values.iter().map(AsRef::as_ref));
        StrDictColumn { dict: dict.into_iter().map(str::to_owned).collect(), codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The sorted dictionary of distinct strings.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// The bit-packed code stream.
    pub fn codes(&self) -> &PackedVec {
        &self.codes
    }

    /// Code of the given string, if present.
    pub fn code_of(&self, value: &str) -> Option<u64> {
        self.dict.binary_search_by(|d| d.as_str().cmp(value)).ok().map(|c| c as u64)
    }

    /// String at row `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.dict[self.codes.get(i) as usize]
    }

    /// Payload size in bytes (dictionary string bytes + codes).
    pub fn encoded_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.len() + 8).sum::<usize>() + self.codes.packed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_dict_roundtrip() {
        let values: Vec<i64> = vec![5, -3, 5, 100, -3, -3, 0];
        let col = IntDictColumn::encode(&values);
        assert_eq!(col.dict(), &[-3, 0, 5, 100]);
        let mut out = vec![0i64; values.len()];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn codes_are_dense_and_ordered() {
        let col = IntDictColumn::encode(&[30, 10, 20, 10]);
        assert_eq!(col.code_of(10), Some(0));
        assert_eq!(col.code_of(20), Some(1));
        assert_eq!(col.code_of(30), Some(2));
        assert_eq!(col.code_of(99), None);
        // Codes fit min bits for 3 entries.
        assert_eq!(col.codes().bits(), 2);
    }

    #[test]
    fn str_dict_roundtrip() {
        let values = ["R", "A", "N", "A", "R", "R"];
        let col = StrDictColumn::encode(&values);
        assert_eq!(col.dict(), &["A", "N", "R"]);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.get(i), *v);
        }
        assert_eq!(col.code_of("N"), Some(1));
        assert_eq!(col.code_of("Z"), None);
    }

    #[test]
    fn single_distinct_value_uses_one_bit() {
        let col = StrDictColumn::encode(&["x"; 50]);
        assert_eq!(col.dict().len(), 1);
        assert_eq!(col.codes().bits(), 1);
    }

    #[test]
    fn empty_columns() {
        let col = IntDictColumn::encode(&[]);
        assert!(col.is_empty());
        let col = StrDictColumn::encode::<&str>(&[]);
        assert!(col.is_empty());
    }
}
