//! Heterogeneous replication (Appendix F (2)).
//!
//! "A single data partitioning might not be useful for multiple data
//! cleansing tasks … we replicate a dataset in a heterogeneous manner:
//! BigDansing logically partitions each replica on a different
//! attribute. As a result, we can again push down the Block operator
//! for multiple data cleansing tasks."

use crate::partitioned::PartitionedStore;
use bigdansing_common::Table;

/// A dataset stored as several content-partitioned replicas, each on a
/// different blocking key: a list of resident bucket stores.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    replicas: Vec<PartitionedStore>,
}

impl ReplicatedStore {
    /// Build one replica per attribute set in `keys`.
    pub fn build(table: &Table, keys: &[Vec<usize>]) -> ReplicatedStore {
        ReplicatedStore {
            replicas: keys
                .iter()
                .map(|attrs| PartitionedStore::on_columns(table, attrs))
                .collect(),
        }
    }

    /// Number of replicas held.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica able to serve a rule blocking on `attrs` without a
    /// shuffle, if one exists. The paper's upload-plan metadata lookup:
    /// "at query time, BigDansing uses this metadata to decide how to
    /// access an input dataset".
    pub fn replica_for(&self, attrs: &[usize]) -> Option<&PartitionedStore> {
        self.replicas
            .iter()
            .find(|r| r.columns().is_some_and(|c| same_set(c, attrs)))
    }

    /// Total storage amplification (tuples stored across replicas ÷
    /// tuples in one copy).
    pub fn amplification(&self) -> usize {
        self.replicas.len().max(1)
    }
}

/// Whether `a` and `b` hold the same attributes: a store keyed on them
/// serves a rule blocking on them in any order.
pub(crate) fn same_set(a: &[usize], b: &[usize]) -> bool {
    let sorted = |cols: &[usize]| {
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        cols
    };
    sorted(a) == sorted(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Schema, Value};

    fn table() -> Table {
        Table::from_rows(
            "t",
            Schema::parse("zipcode,phone,city"),
            vec![
                vec![Value::Int(1), Value::str("555"), Value::str("LA")],
                vec![Value::Int(1), Value::str("666"), Value::str("SF")],
                vec![Value::Int(2), Value::str("555"), Value::str("NY")],
            ],
        )
    }

    #[test]
    fn each_replica_serves_its_own_key() {
        let store = ReplicatedStore::build(&table(), &[vec![0], vec![1]]);
        assert_eq!(store.num_replicas(), 2);
        assert_eq!(store.amplification(), 2);
        assert!(store.replica_for(&[0]).is_some());
        assert!(store.replica_for(&[1]).is_some());
        assert!(store.replica_for(&[2]).is_none());
        assert_eq!(store.replica_for(&[0]).unwrap().iter().count(), 2);
        assert_eq!(store.replica_for(&[1]).unwrap().iter().count(), 2);
    }

    #[test]
    fn composite_keys_resolve_order_insensitively() {
        let store = ReplicatedStore::build(&table(), &[vec![0, 1]]);
        assert!(store.replica_for(&[1, 0]).is_some());
        assert!(store.replica_for(&[0]).is_none());
    }
}
