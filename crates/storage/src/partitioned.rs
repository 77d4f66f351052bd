//! Content-based partitioning with Block pushdown (Appendix F (1)).
//!
//! "BigDansing partitions a dataset based on its content … such a
//! logical partitioning allows to co-locate data based on a given
//! blocking key. As a result, BigDansing can push down the Block
//! operator to the storage manager", eliminating the detection shuffle.

use bigdansing_common::error::Result;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Table, Tuple, Value};
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_rules::{Fix, Rule, RuleExt, Violation};
use std::collections::HashMap;
use std::sync::Arc;

/// A table stored pre-grouped on the values of one attribute set.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    name: String,
    /// The source-schema attributes the store is partitioned on.
    key_attrs: Vec<usize>,
    blocks: HashMap<Vec<Value>, Vec<Tuple>>,
}

impl PartitionedStore {
    /// Partition `table` on `key_attrs` (source-schema indices).
    pub fn build(table: &Table, key_attrs: &[usize]) -> PartitionedStore {
        let mut blocks: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        for t in table.tuples() {
            let key: Vec<Value> = key_attrs
                .iter()
                .map(|&a| t.get(a).cloned().unwrap_or(Value::Null))
                .collect();
            blocks.entry(key).or_default().push(t.clone());
        }
        PartitionedStore {
            name: table.name().to_string(),
            key_attrs: key_attrs.to_vec(),
            blocks,
        }
    }

    /// The partitioning attributes.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Number of blocks (distinct key values).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total stored tuples.
    pub fn len(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Can a rule blocking on `attrs` be served without a shuffle?
    /// The store's key must be a prefix-free match: same attribute set.
    pub fn serves(&self, attrs: &[usize]) -> bool {
        let mut a = self.key_attrs.clone();
        let mut b = attrs.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Iterate the stored blocks in an unspecified order.
    pub fn block_values(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<Tuple>)> {
        self.blocks.iter()
    }

    /// Detect a blocked rule's violations directly over the stored
    /// blocks: the Block pushdown. The blocks flow straight into
    /// Iterate + Detect + GenFix; no `group_by_key` shuffle runs, which
    /// the `records_shuffled` metric makes observable.
    ///
    /// The rule's `Scope` is applied per tuple inside each block (the
    /// store holds full-width tuples); its `block` function is *not*
    /// invoked — the store's grouping stands in for it, which is only
    /// sound when [`PartitionedStore::serves`] the rule's blocking
    /// attributes. The caller asserts that via `debug_assert` in this
    /// method.
    pub fn detect_pushdown(
        &self,
        engine: &Engine,
        rule: &Arc<dyn Rule>,
    ) -> Result<Vec<(Violation, Vec<Fix>)>> {
        let blocks: Vec<Vec<Tuple>> = self.blocks.values().cloned().collect();
        let r = Arc::clone(rule);
        let metrics = engine.metrics().clone();
        Metrics::add(&metrics.tuples_scanned, self.len() as u64);
        let symmetric = rule.symmetric();
        PDataset::from_vec(engine.clone(), blocks)
            .stage()
            .map_parts("iterate+detect+genfix", move |part: Vec<Vec<Tuple>>| {
                let mut out = Vec::new();
                let mut pairs = 0u64;
                for block in part {
                    let scoped: Vec<Tuple> = block.iter().flat_map(|t| r.scope(t)).collect();
                    for i in 0..scoped.len() {
                        let j0 = if symmetric { i + 1 } else { 0 };
                        for j in j0..scoped.len() {
                            if i == j {
                                continue;
                            }
                            pairs += 1;
                            for v in r.detect_pair(&scoped[i], &scoped[j]) {
                                let fixes = r.gen_fix(&v);
                                out.push((v, fixes));
                            }
                        }
                    }
                }
                Metrics::add(&metrics.pairs_generated, pairs);
                Metrics::add(&metrics.detect_calls, pairs);
                Ok(out)
            })
            .collect()
    }

    /// Reassemble the stored tuples into a [`Table`] (block order is
    /// unspecified; tuple ids are preserved).
    pub fn to_table(&self, schema: bigdansing_common::Schema) -> Table {
        let mut tuples: Vec<Tuple> = self.blocks.values().flatten().cloned().collect();
        tuples.sort_by_key(|t| t.id());
        Table::new(self.name.clone(), schema, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Schema;
    use bigdansing_plan::Executor;
    use bigdansing_rules::FdRule;
    use std::collections::BTreeSet;

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
        let store = PartitionedStore::build(&t, &[0]);
        assert_eq!(store.num_blocks(), 2);
        assert_eq!(store.len(), 4);
        assert!(store.serves(&[0]));
        assert!(!store.serves(&[1]));
        assert!(!store.serves(&[0, 1]));
    }

    #[test]
    fn pushdown_matches_shuffled_detection_without_shuffling() {
        let t = table();
        let rule = fd(&t);
        let store = PartitionedStore::build(&t, rule_blocking_attrs());
        // pushdown path
        let engine = Engine::parallel(2);
        let pushed = store.detect_pushdown(&engine, &rule).unwrap();
        assert_eq!(
            Metrics::get(&engine.metrics().records_shuffled),
            0,
            "Block pushdown must not shuffle"
        );
        // regular executor path
        let exec = Executor::new(Engine::parallel(2));
        let normal = exec.detect(&t, &[Arc::clone(&rule)]).unwrap();
        let key = |vs: &[(Violation, Vec<Fix>)]| -> BTreeSet<Vec<u64>> {
            vs.iter().map(|(v, _)| v.tuple_ids()).collect()
        };
        assert_eq!(key(&pushed), key(&normal.detected));
        assert!(!pushed.is_empty());
    }

    fn rule_blocking_attrs() -> &'static [usize] {
        &[0] // zipcode
    }

    #[test]
    fn table_roundtrip_preserves_tuples() {
        let t = table();
        let store = PartitionedStore::build(&t, &[0]);
        let back = store.to_table(t.schema().clone());
        assert_eq!(back.len(), t.len());
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
        let store = PartitionedStore::build(&t, &[0]);
        assert_eq!(store.num_blocks(), 2);
    }
}
