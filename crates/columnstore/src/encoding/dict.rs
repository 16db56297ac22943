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
use std::sync::Arc;

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

/// Distinct keys found by comparison before a column gets a hash index.
const LINEAR_KEYS: usize = 16;

/// The first half of building a dictionary: each distinct key gets a
/// provisional id, its index in first-seen order. [`Interner::finish`]
/// sorts the distinct keys and remaps the ids to their ranks.
///
/// A column's first [`LINEAR_KEYS`] distinct keys are found by comparison,
/// by identity ([`Key::is`]) before content. Past that, a `HashMap` with
/// the standard library's keyed hash indexes them, because values come from
/// outside the program.
#[derive(Debug)]
pub(crate) struct Interner<K> {
    keys: Vec<K>,
    /// Empty until the keys outgrow [`LINEAR_KEYS`].
    index: HashMap<K, u32>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner { keys: Vec::new(), index: HashMap::new() }
    }
}

/// A dictionary key: ordered, hashable, and with an identity test.
pub(crate) trait Key: Ord + Hash + Clone {
    /// A cheap test that implies equality: for strings, the same bytes in
    /// memory, which rows built from shared values hit without reading them.
    fn is(&self, other: &Self) -> bool;
}

impl Key for i64 {
    fn is(&self, other: &i64) -> bool {
        self == other
    }
}

impl Key for &str {
    fn is(&self, other: &Self) -> bool {
        std::ptr::eq(*self, *other)
    }
}

impl Key for Arc<str> {
    fn is(&self, other: &Self) -> bool {
        Arc::ptr_eq(self, other)
    }
}

impl<K: Key> Interner<K> {
    /// The provisional id of `key`, new if the key is. Only a new key is
    /// cloned.
    pub(crate) fn intern(&mut self, key: &K) -> u32 {
        let next = self.keys.len() as u32;
        if self.keys.len() <= LINEAR_KEYS {
            let mut found = self.keys.iter().position(|k| k.is(key));
            if found.is_none() {
                found = self.keys.iter().position(|k| k == key);
            }
            if let Some(id) = found {
                return id as u32;
            }
            self.keys.push(key.clone());
            if self.keys.len() > LINEAR_KEYS {
                self.index = self.keys.iter().cloned().zip(0..).collect();
            }
            return next;
        }
        if let Some(&id) = self.index.get(key) {
            return id;
        }
        self.keys.push(key.clone());
        self.index.insert(key.clone(), next);
        next
    }

    /// The key under provisional id `id`.
    pub(crate) fn key(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// The sorted dictionary, and `ids` packed as codes: a key's code is
    /// its rank, so codes preserve value order whatever the arrival order.
    /// Only the distinct keys are cloned and sorted, so the interner can go
    /// on taking keys afterwards.
    pub(crate) fn finish(&self, ids: &[u32]) -> (Vec<K>, PackedVec) {
        let mut by_key: Vec<(K, u32)> = self.keys.iter().cloned().zip(0..).collect();
        by_key.sort_unstable();
        let mut code_of = vec![0u64; by_key.len()];
        for (code, &(_, id)) in by_key.iter().enumerate() {
            code_of[id as usize] = code as u64;
        }
        let bits = min_bits(by_key.len().saturating_sub(1) as u64);
        let codes = PackedVec::pack_iter(ids.iter().map(|&id| code_of[id as usize]), bits);
        (by_key.into_iter().map(|(key, _)| key).collect(), codes)
    }
}

/// Intern every key, then [`Interner::finish`].
fn intern_sorted<K: Key>(keys: impl Iterator<Item = K>) -> (Vec<K>, PackedVec) {
    let mut interner = Interner::default();
    let ids: Vec<u32> = keys.map(|key| interner.intern(&key)).collect();
    interner.finish(&ids)
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

    /// Encode a column that was interned as it arrived: `ids` are the rows'
    /// provisional ids in `strings`.
    pub(crate) fn from_interned(strings: &Interner<Arc<str>>, ids: &[u32]) -> StrDictColumn {
        let (dict, codes) = strings.finish(ids);
        StrDictColumn { dict: dict.iter().map(|s| String::from(&**s)).collect(), codes }
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
    fn interner_ids_survive_the_switch_to_the_index() {
        let mut strings = Interner::default();
        let keys: Vec<Arc<str>> =
            (0..LINEAR_KEYS + 5).rev().map(|i| format!("k{i:02}").into()).collect();
        let ids: Vec<u32> = keys.iter().map(|k| strings.intern(k)).collect();
        assert_eq!(ids, (0..keys.len() as u32).collect::<Vec<_>>());
        for (id, key) in ids.iter().zip(&keys) {
            // An equal key in another allocation finds the same id.
            assert_eq!(strings.intern(&Arc::from(&**key)), *id);
            assert_eq!(strings.key(*id), key);
        }
        let col = StrDictColumn::from_interned(&strings, &ids);
        assert!(col.dict().windows(2).all(|w| w[0] < w[1]));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(col.get(i), &**key);
        }
    }

    #[test]
    fn empty_columns() {
        let col = IntDictColumn::encode(&[]);
        assert!(col.is_empty());
        let col = StrDictColumn::encode::<&str>(&[]);
        assert!(col.is_empty());
    }
}
