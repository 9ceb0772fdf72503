//! Ordered secondary indexes over per-tuple real-valued keys.
//!
//! The paper repeatedly notes that its CHOOSE_REFRESH algorithms become
//! sub-linear when B-tree indexes exist on bound endpoints (§5.1: indexes on
//! upper and lower bounds for MIN), bound widths (§5.2: the uniform-cost
//! knapsack), and refresh costs (§6.3: the cheapest `T?` tuples for COUNT).
//! [`OrderedIndex`] is that structure: a `BTreeMap` from [`OrderedF64`] keys
//! to the set of tuples carrying the key, kept in sync by [`crate::Table`].

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use trapp_types::{OrderedF64, TupleId};

/// What a maintained index is keyed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IndexKey {
    /// Lower endpoint `L` of a bounded column. On an *exact* numeric
    /// column every cell is a point interval, so this is a value index
    /// (see `Table::tuples_with_value`).
    Lo {
        /// Column position in the schema.
        column: usize,
    },
    /// Upper endpoint `H` of a bounded column.
    Hi {
        /// Column position in the schema.
        column: usize,
    },
    /// Bound width `H − L` of a bounded column.
    Width {
        /// Column position in the schema.
        column: usize,
    },
    /// Per-tuple refresh cost.
    Cost,
}

/// A maintained ordered multi-map from key values to tuple ids.
#[derive(Clone, Debug, Default)]
pub struct OrderedIndex {
    map: BTreeMap<OrderedF64, BTreeSet<TupleId>>,
    len: usize,
}

impl OrderedIndex {
    /// An empty index.
    pub fn new() -> OrderedIndex {
        OrderedIndex::default()
    }

    /// Number of (key, tuple) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: OrderedF64, tid: TupleId) {
        if self.map.entry(key).or_default().insert(tid) {
            self.len += 1;
        }
    }

    /// Removes an entry; returns whether it was present.
    pub fn remove(&mut self, key: OrderedF64, tid: TupleId) -> bool {
        if let Some(set) = self.map.get_mut(&key) {
            let removed = set.remove(&tid);
            if set.is_empty() {
                self.map.remove(&key);
            }
            if removed {
                self.len -= 1;
            }
            removed
        } else {
            false
        }
    }

    /// The smallest key, if any.
    pub fn min_key(&self) -> Option<OrderedF64> {
        self.map.keys().next().copied()
    }

    /// The largest key, if any.
    pub fn max_key(&self) -> Option<OrderedF64> {
        self.map.keys().next_back().copied()
    }

    /// All tuples with key strictly below `threshold`, in ascending key
    /// order. This is the §5.1 probe: `Lᵢ < min(Hₖ) − R`.
    pub fn below(&self, threshold: OrderedF64) -> impl Iterator<Item = TupleId> + '_ {
        self.map
            .range((Bound::Unbounded, Bound::Excluded(threshold)))
            .flat_map(|(_, set)| set.iter().copied())
    }

    /// All tuples with key strictly above `threshold`, in ascending key
    /// order (the MAX mirror).
    pub fn above(&self, threshold: OrderedF64) -> impl Iterator<Item = TupleId> + '_ {
        self.map
            .range((Bound::Excluded(threshold), Bound::Unbounded))
            .flat_map(|(_, set)| set.iter().copied())
    }

    /// All entries in ascending key order. Used by the uniform-cost knapsack
    /// ("smallest widths first", §5.2) and the cheapest-tuples COUNT rule
    /// (§6.3).
    pub fn ascending(&self) -> impl Iterator<Item = (OrderedF64, TupleId)> + '_ {
        self.map
            .iter()
            .flat_map(|(k, set)| set.iter().map(move |t| (*k, *t)))
    }

    /// Tuples holding exactly `key`.
    pub fn get(&self, key: OrderedF64) -> impl Iterator<Item = TupleId> + '_ {
        self.between(key, key)
    }

    /// Tuples with `lo ≤ key ≤ hi`, in ascending key order.
    pub fn between(&self, lo: OrderedF64, hi: OrderedF64) -> impl Iterator<Item = TupleId> + '_ {
        self.map
            .range(lo..=hi)
            .flat_map(|(_, set)| set.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: f64) -> OrderedF64 {
        OrderedF64::new(v).unwrap()
    }

    #[test]
    fn insert_remove_len() {
        let mut ix = OrderedIndex::new();
        ix.insert(k(1.0), TupleId::new(1));
        ix.insert(k(1.0), TupleId::new(2)); // duplicate key, different tuple
        ix.insert(k(1.0), TupleId::new(2)); // exact duplicate: no-op
        ix.insert(k(2.0), TupleId::new(3));
        assert_eq!(ix.len(), 3);
        assert!(ix.remove(k(1.0), TupleId::new(2)));
        assert!(!ix.remove(k(1.0), TupleId::new(2)));
        assert!(!ix.remove(k(9.0), TupleId::new(9)));
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn min_max_keys() {
        let mut ix = OrderedIndex::new();
        assert_eq!(ix.min_key(), None);
        for (v, t) in [(5.0, 1), (3.0, 2), (8.0, 3)] {
            ix.insert(k(v), TupleId::new(t));
        }
        assert_eq!(ix.min_key(), Some(k(3.0)));
        assert_eq!(ix.max_key(), Some(k(8.0)));
        // removing the only tuple at the min key moves the min
        ix.remove(k(3.0), TupleId::new(2));
        assert_eq!(ix.min_key(), Some(k(5.0)));
    }

    #[test]
    fn range_probes() {
        let mut ix = OrderedIndex::new();
        for (v, t) in [(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)] {
            ix.insert(k(v), TupleId::new(t));
        }
        let below: Vec<u64> = ix.below(k(3.0)).map(|t| t.raw()).collect();
        assert_eq!(below, vec![1, 2]); // strictly below, ascending
        let above: Vec<u64> = ix.above(k(2.0)).map(|t| t.raw()).collect();
        assert_eq!(above, vec![3, 4]); // strictly above
        let all: Vec<u64> = ix.ascending().map(|(_, t)| t.raw()).collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_keys_iterate_deterministically() {
        let mut ix = OrderedIndex::new();
        ix.insert(k(1.0), TupleId::new(9));
        ix.insert(k(1.0), TupleId::new(3));
        let got: Vec<u64> = ix.get(k(1.0)).map(|t| t.raw()).collect();
        assert_eq!(got, vec![3, 9]); // BTreeSet order
    }
}
