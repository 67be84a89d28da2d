//! B-tree indexes.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use bullfrog_common::{Error, Result, Row, RowId, Value};
use parking_lot::RwLock;

/// Static description of an index: which columns it covers and whether it
/// enforces uniqueness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique within the table; used in error messages).
    pub name: String,
    /// Positions of the key columns in the table schema.
    pub key_columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

/// An ordered secondary index mapping key tuples to row ids.
///
/// The map is guarded by a single `RwLock`; B-tree mutations are short and
/// the engine's 2PL row locks keep logical conflicts out of here. Unique
/// violations are detected atomically inside [`BTreeIndex::insert`], which
/// is what makes "insert, and let the unique index be the arbiter" safe for
/// BullFrog's ON-CONFLICT migration mode (paper §3.7).
pub struct BTreeIndex {
    def: IndexDef,
    map: RwLock<BTreeMap<Vec<Value>, Vec<RowId>>>,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new(def: IndexDef) -> Self {
        BTreeIndex {
            def,
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Inserts `(key, rid)`. For unique indexes, fails when the key is
    /// already present **with a different row id** (re-inserting the same
    /// pair is idempotent, which rollback paths rely on).
    pub fn insert(&self, table: &str, key: Vec<Value>, rid: RowId) -> Result<()> {
        let mut map = self.map.write();
        let entry = map.entry(key).or_default();
        if self.def.unique && !entry.is_empty() && !entry.contains(&rid) {
            return Err(Error::UniqueViolation {
                table: table.to_owned(),
                constraint: self.def.name.clone(),
            });
        }
        if !entry.contains(&rid) {
            entry.push(rid);
        }
        Ok(())
    }

    /// Inserts unless the key already exists; returns `true` when inserted.
    /// This is the `ON CONFLICT DO NOTHING` primitive.
    pub fn insert_or_ignore(&self, key: Vec<Value>, rid: RowId) -> bool {
        let mut map = self.map.write();
        let entry = map.entry(key).or_default();
        if entry.is_empty() {
            entry.push(rid);
            true
        } else {
            false
        }
    }

    /// Removes `(key, rid)`; returns whether it was present.
    pub fn remove(&self, key: &[Value], rid: RowId) -> bool {
        let mut map = self.map.write();
        if let Some(entry) = map.get_mut(key) {
            if let Some(pos) = entry.iter().position(|r| *r == rid) {
                entry.swap_remove(pos);
                if entry.is_empty() {
                    map.remove(key);
                }
                return true;
            }
        }
        false
    }

    /// Row ids for an exact key.
    pub fn get(&self, key: &[Value]) -> Vec<RowId> {
        self.map.read().get(key).cloned().unwrap_or_default()
    }

    /// True when the key exists.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.map.read().contains_key(key)
    }

    /// Row ids whose key starts with `prefix` (prefix must be no longer
    /// than the key arity). Used by multi-column indexes queried on a
    /// leading subset, e.g. `(w_id, d_id)` of `(w_id, d_id, o_id)`.
    pub fn get_prefix(&self, prefix: &[Value]) -> Vec<RowId> {
        let map = self.map.read();
        let lower = Bound::Included(prefix.to_vec());
        map.range((lower, Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Row ids whose key starts with `prefix` and whose **next** key
    /// component falls within the given bounds (each `(value, inclusive)`;
    /// `None` = unbounded). The scan starts at the lower bound and stops
    /// past the upper, so it touches only the qualifying range.
    pub fn range_scan(
        &self,
        prefix: &[Value],
        lo: Option<&(Value, bool)>,
        hi: Option<&(Value, bool)>,
    ) -> Vec<RowId> {
        let p = prefix.len();
        let start: Vec<Value> = match lo {
            Some((v, _)) => {
                let mut k = prefix.to_vec();
                k.push(v.clone());
                k
            }
            None => prefix.to_vec(),
        };
        let map = self.map.read();
        map.range((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| {
                if !k.starts_with(prefix) {
                    return false;
                }
                match (hi, k.get(p)) {
                    (Some((v, incl)), Some(next)) => {
                        if *incl {
                            next <= v
                        } else {
                            next < v
                        }
                    }
                    _ => true,
                }
            })
            .filter(|(k, _)| match (lo, k.get(p)) {
                (Some((v, incl)), Some(next)) => {
                    if *incl {
                        next >= v
                    } else {
                        next > v
                    }
                }
                (Some(_), None) => false,
                _ => true,
            })
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Row ids for keys in `[low, high]` on the full key tuple.
    pub fn get_range(&self, low: &[Value], high: &[Value]) -> Vec<RowId> {
        let map = self.map.read();
        map.range((
            Bound::Included(low.to_vec()),
            Bound::Included(high.to_vec()),
        ))
        .flat_map(|(_, rids)| rids.iter().copied())
        .collect()
    }

    /// The distinct values of the first `len` key columns, in key order.
    pub fn distinct_prefixes(&self, len: usize) -> Vec<Vec<Value>> {
        let map = self.map.read();
        let mut out: Vec<Vec<Value>> = Vec::new();
        for key in map.keys() {
            let prefix = &key[..len.min(key.len())];
            if out.last().map(Vec::as_slice) != Some(prefix) {
                out.push(prefix.to_vec());
            }
        }
        out
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Removes every entry (used when rebuilding during recovery).
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

/// Builds a new index from a heap scan, which names each row id once.
/// Entries are staged in a hash map and sorted once at the end, and the
/// per-entry duplicate-rid check of [`BTreeIndex::insert`] (linear in the
/// rows per key) is skipped: a non-unique backfill costs O(n) hashing
/// plus one sort of the distinct keys, instead of O(n · rows per key).
pub(crate) struct IndexBuilder {
    def: IndexDef,
    staged: HashMap<Vec<Value>, Vec<RowId>>,
}

impl IndexBuilder {
    /// An empty builder.
    pub(crate) fn new(def: IndexDef) -> Self {
        IndexBuilder {
            def,
            staged: HashMap::new(),
        }
    }

    /// Adds `row`, stored at `rid`.
    pub(crate) fn add(&mut self, table: &str, row: &Row, rid: RowId) -> Result<()> {
        let staged = &mut self.staged;
        let entry = match self.def.key_columns.as_slice() {
            // A one-column key probes with the row's own value, so a key
            // seen before costs no allocation.
            [c] => {
                let key = std::slice::from_ref(&row[*c]);
                if !staged.contains_key(key) {
                    staged.insert(key.to_vec(), Vec::new());
                }
                staged.get_mut(key).expect("inserted above")
            }
            cols => staged.entry(row.key(cols)).or_default(),
        };
        if self.def.unique && !entry.is_empty() {
            return Err(Error::UniqueViolation {
                table: table.to_owned(),
                constraint: self.def.name.clone(),
            });
        }
        entry.push(rid);
        Ok(())
    }

    /// The finished index.
    pub(crate) fn finish(self) -> BTreeIndex {
        BTreeIndex {
            def: self.def,
            map: RwLock::new(self.staged.into_iter().collect()),
        }
    }
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("def", &self.def)
            .field("keys", &self.key_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(unique: bool) -> BTreeIndex {
        BTreeIndex::new(IndexDef {
            name: "test_idx".into(),
            key_columns: vec![0],
            unique,
        })
    }

    fn key(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let i = idx(true);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        let err = i.insert("t", key(1), RowId::new(0, 1)).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        // Idempotent re-insert of the same pair is fine (rollback path).
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        assert_eq!(i.get(&key(1)), vec![RowId::new(0, 0)]);
    }

    #[test]
    fn non_unique_index_accumulates() {
        let i = idx(false);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        i.insert("t", key(1), RowId::new(0, 1)).unwrap();
        assert_eq!(i.get(&key(1)).len(), 2);
    }

    #[test]
    fn built_index_equals_per_row_inserts() {
        // Many rows per key, interleaved the way a heap scan meets them.
        let rows: Vec<(Row, RowId)> = (0..500u32)
            .map(|i| {
                let (a, b) = (i64::from(i % 7), i64::from(i % 3));
                (
                    Row(vec![Value::Int(a), Value::Int(b)]),
                    RowId::new(i / 50, (i % 50) as u16),
                )
            })
            .collect();
        // One- and two-column keys take different probe paths.
        for key_columns in [vec![0], vec![1, 0]] {
            let def = IndexDef {
                name: "test_idx".into(),
                key_columns,
                unique: false,
            };
            let inserted = BTreeIndex::new(def.clone());
            let mut builder = IndexBuilder::new(def.clone());
            for (row, rid) in &rows {
                inserted
                    .insert("t", row.key(&def.key_columns), *rid)
                    .unwrap();
                builder.add("t", row, *rid).unwrap();
            }
            assert_eq!(*builder.finish().map.read(), *inserted.map.read());
        }
        // A unique backfill still rejects a second row under one key.
        let mut unique = IndexBuilder::new(idx(true).def);
        unique.add("t", &Row(key(1)), RowId::new(0, 0)).unwrap();
        let err = unique.add("t", &Row(key(1)), RowId::new(0, 1)).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn distinct_prefixes_of_a_composite_key() {
        let i = BTreeIndex::new(IndexDef {
            name: "composite".into(),
            key_columns: vec![0, 1],
            unique: true,
        });
        for (n, (a, b)) in [(2, 1), (1, 2), (1, 1), (3, 3), (2, 5)]
            .into_iter()
            .enumerate()
        {
            i.insert(
                "t",
                vec![Value::Int(a), Value::Int(b)],
                RowId::new(0, n as u16),
            )
            .unwrap();
        }
        let firsts: Vec<Vec<Value>> = (1..=3).map(|a| vec![Value::Int(a)]).collect();
        assert_eq!(i.distinct_prefixes(1), firsts);
        assert_eq!(i.distinct_prefixes(1).len(), 3);
        assert_eq!(i.distinct_prefixes(2).len(), 5);
    }

    #[test]
    fn insert_or_ignore_semantics() {
        let i = idx(true);
        assert!(i.insert_or_ignore(key(1), RowId::new(0, 0)));
        assert!(!i.insert_or_ignore(key(1), RowId::new(0, 1)));
        assert_eq!(i.get(&key(1)), vec![RowId::new(0, 0)]);
    }

    #[test]
    fn remove_cleans_up_empty_keys() {
        let i = idx(false);
        i.insert("t", key(1), RowId::new(0, 0)).unwrap();
        assert!(i.remove(&key(1), RowId::new(0, 0)));
        assert!(!i.contains_key(&key(1)));
        assert!(!i.remove(&key(1), RowId::new(0, 0)));
        assert_eq!(i.key_count(), 0);
    }

    #[test]
    fn prefix_scan_on_composite_key() {
        let i = BTreeIndex::new(IndexDef {
            name: "composite".into(),
            key_columns: vec![0, 1],
            unique: true,
        });
        for (a, b, rid) in [
            (1, 1, RowId::new(0, 0)),
            (1, 2, RowId::new(0, 1)),
            (2, 1, RowId::new(0, 2)),
        ] {
            i.insert("t", vec![Value::Int(a), Value::Int(b)], rid)
                .unwrap();
        }
        let got = i.get_prefix(&[Value::Int(1)]);
        assert_eq!(got, vec![RowId::new(0, 0), RowId::new(0, 1)]);
        assert!(i.get_prefix(&[Value::Int(3)]).is_empty());
    }

    #[test]
    fn range_scan_prefix_with_bounds() {
        let i = BTreeIndex::new(IndexDef {
            name: "composite".into(),
            key_columns: vec![0, 1, 2],
            unique: true,
        });
        for d in 1..=2i64 {
            for o in 1..=10i64 {
                i.insert(
                    "t",
                    vec![Value::Int(1), Value::Int(d), Value::Int(o)],
                    RowId::new(d as u32, o as u16),
                )
                .unwrap();
            }
        }
        let prefix = [Value::Int(1), Value::Int(1)];
        // o >= 4 AND o < 7 → 4, 5, 6.
        let got = i.range_scan(
            &prefix,
            Some(&(Value::Int(4), true)),
            Some(&(Value::Int(7), false)),
        );
        assert_eq!(
            got,
            vec![RowId::new(1, 4), RowId::new(1, 5), RowId::new(1, 6)]
        );
        // Exclusive lower bound.
        let got = i.range_scan(&prefix, Some(&(Value::Int(8), false)), None);
        assert_eq!(got, vec![RowId::new(1, 9), RowId::new(1, 10)]);
        // Unbounded below, inclusive above.
        let got = i.range_scan(&prefix, None, Some(&(Value::Int(2), true)));
        assert_eq!(got, vec![RowId::new(1, 1), RowId::new(1, 2)]);
        // Stays within the prefix: district 2 rows never leak in.
        let got = i.range_scan(&prefix, Some(&(Value::Int(9), true)), None);
        assert_eq!(got, vec![RowId::new(1, 9), RowId::new(1, 10)]);
    }

    #[test]
    fn range_scan_inclusive() {
        let i = idx(false);
        for v in 1..=5 {
            i.insert("t", key(v), RowId::new(0, v as u16)).unwrap();
        }
        let got = i.get_range(&key(2), &key(4));
        assert_eq!(
            got,
            vec![RowId::new(0, 2), RowId::new(0, 3), RowId::new(0, 4)]
        );
    }
}
