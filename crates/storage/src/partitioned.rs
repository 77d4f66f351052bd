//! Content-based partitioning with Block pushdown (Appendix F (1)).
//!
//! "BigDansing partitions a dataset based on its content … such a
//! logical partitioning allows to co-locate data based on a given
//! blocking key. As a result, BigDansing can push down the Block
//! operator to the storage manager", eliminating the detection shuffle.

use bigdansing_common::Tuple;
use bigdansing_plan::BucketStore;

/// A table stored pre-grouped on the values of one attribute set: the
/// executor's resident bucket store, built from the table with
/// [`BucketStore::on_columns`]. Block pushdown is
/// [`bigdansing_plan::Executor::detect_held`] over every block
/// ([`BucketStore::all`]) with the rule's pipeline: each rule scopes a
/// block's full-width tuples, and its Block is *not* invoked — the
/// store's grouping stands in for it, which is only sound when the
/// store's [`BucketStore::columns`] are the rule's blocking attributes.
pub type PartitionedStore = BucketStore<Tuple>;

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::metrics::Metrics;
    use bigdansing_common::{Schema, Table, Value};
    use bigdansing_dataflow::{Engine, IsolationOptions, RuleGuard};
    use bigdansing_plan::physical::pipeline_for_rule;
    use bigdansing_plan::Executor;
    use bigdansing_rules::{FdRule, Fix, Rule, Violation};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(1), Value::str("SF")],
                vec![Value::Int(2), Value::str("NY")],
                vec![Value::Int(1), Value::str("LA")],
            ],
        )
    }

    fn fd(t: &Table) -> Arc<dyn Rule> {
        Arc::new(FdRule::parse("zipcode -> city", t.schema()).unwrap())
    }

    #[test]
    fn builds_blocks_by_content() {
        let t = table();
        let store = PartitionedStore::on_columns(&t, &[0]);
        assert_eq!(store.iter().count(), 2);
        assert_eq!(store.len(), 4);
        let serves = |cols: &[usize]| crate::replicas::same_set(store.columns().unwrap(), cols);
        assert!(serves(&[0]));
        assert!(!serves(&[1]));
        assert!(!serves(&[0, 1]));
    }

    #[test]
    fn pushdown_matches_shuffled_detection_without_shuffling() {
        let t = table();
        let rule = fd(&t);
        let store = PartitionedStore::on_columns(&t, rule_blocking_attrs());
        // pushdown path
        let pushdown = Executor::new(Engine::parallel(2));
        let pipeline = pipeline_for_rule(Arc::clone(&rule), t.name());
        let guard = RuleGuard::arm(rule.name(), &IsolationOptions::default());
        let guards = std::slice::from_ref(&guard);
        let pushed = pushdown
            .detect_held(&[&pipeline], store.all(), None, guards)
            .unwrap()
            .remove(0);
        let metrics = pushdown.engine().metrics();
        assert_eq!(
            Metrics::get(&metrics.records_shuffled),
            0,
            "Block pushdown must not shuffle"
        );
        // regular executor path
        let exec = Executor::new(Engine::parallel(2));
        let normal = exec.detect(&t, &[Arc::clone(&rule)]).unwrap();
        let key = |vs: &[(Violation, Vec<Fix>)]| -> BTreeSet<Vec<u64>> {
            vs.iter().map(|(v, _)| v.tuple_ids()).collect()
        };
        assert_eq!(key(&pushed.detected), key(&normal.detected));
        assert!(!pushed.is_clean());
    }

    fn rule_blocking_attrs() -> &'static [usize] {
        &[0] // zipcode
    }

    #[test]
    fn blocks_hold_every_tuple_once() {
        let t = table();
        let store = PartitionedStore::on_columns(&t, &[0]);
        let mut tuples: Vec<Tuple> = store.iter().flat_map(|(_, b)| b.clone()).collect();
        tuples.sort_by_key(|t| t.id());
        let back = Table::new("t", t.schema().clone(), tuples);
        assert_eq!(t.diff_cells(&back), 0);
    }

    #[test]
    fn null_keys_group_together() {
        let schema = Schema::parse("a,b");
        let t = Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
                vec![Value::Int(5), Value::Int(3)],
            ],
        );
        let store = PartitionedStore::on_columns(&t, &[0]);
        assert_eq!(store.iter().count(), 2);
    }
}
