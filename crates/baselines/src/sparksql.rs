//! The Spark SQL simulation: the same SQL plans as [`crate::sqlengine`],
//! executed on the parallel engine.
//!
//! Spark SQL parallelizes the equality self-join well (which is why it
//! tracks BigDansing closely on ϕ1/ϕ3, Figures 9(a)/10(a)) but still
//! evaluates inequality joins as a cross product + filter, and still
//! reads/shuffles the input twice for a self-join — the two costs the
//! paper calls out when explaining BigDansing's edge (§6.2-6.3).

use bigdansing_common::error::Result;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Table, Tuple};
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_rules::{Rule, RuleExt, Violation};
use std::sync::Arc;

/// Parallel hash (shuffle) self-join on the blocking key; emits ordered
/// pairs, duplicates included.
pub fn detect_equality_join(
    engine: &Engine,
    table: &Table,
    rule: &Arc<dyn Rule>,
) -> Result<Vec<Violation>> {
    // a self-join reads the input twice
    Metrics::add(&engine.metrics().tuples_scanned, 2 * table.len() as u64);
    let r = Arc::clone(rule);
    let scoped = PDataset::from_vec(engine.clone(), table.tuples().to_vec())
        .stage()
        .flat_map("scope", move |t: Tuple| Ok(r.scope(&t)));
    let rk = Arc::clone(rule);
    let rd = Arc::clone(rule);
    scoped
        .group_by_key("join", move |t| Ok(rk.block(t).unwrap_or_default()))?
        .flat_map("pairs", move |(_, block)| {
            let mut out = Vec::new();
            for i in 0..block.len() {
                for j in 0..block.len() {
                    if i != j {
                        out.extend(rd.detect_pair(&block[i], &block[j]));
                    }
                }
            }
            Ok(out)
        })
        .collect()
}

/// Parallel cross product + post-selection for inequality rules.
pub fn detect_cross_product(
    engine: &Engine,
    table: &Table,
    rule: &Arc<dyn Rule>,
) -> Result<Vec<Violation>> {
    Metrics::add(&engine.metrics().tuples_scanned, 2 * table.len() as u64);
    let r = Arc::clone(rule);
    let scoped = PDataset::from_vec(engine.clone(), table.tuples().to_vec())
        .stage()
        .flat_map("scope", move |t: Tuple| Ok(r.scope(&t)));
    let rd = Arc::clone(rule);
    scoped
        .run()?
        .self_cross_product()?
        .stage()
        .map_parts("post-select", move |pairs: Vec<(Tuple, Tuple)>| {
            Ok(pairs
                .iter()
                .filter(|(a, b)| a.id() != b.id())
                .flat_map(|(a, b)| rd.detect_pair(a, b))
                .collect())
        })
        .collect()
}

/// Route like Spark SQL's planner: shuffle join for equality predicates,
/// cross product otherwise.
pub fn detect(engine: &Engine, table: &Table, rule: &Arc<dyn Rule>) -> Result<Vec<Violation>> {
    if rule.blocks() {
        detect_equality_join(engine, table, rule)
    } else {
        detect_cross_product(engine, table, rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup_violations;
    use bigdansing_common::{Schema, Value};
    use bigdansing_rules::{DcRule, FdRule};

    fn table() -> Table {
        let schema = Schema::parse("zipcode,city,salary,rate");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![
                    Value::Int(1),
                    Value::str("LA"),
                    Value::Int(100),
                    Value::Int(30),
                ],
                vec![
                    Value::Int(1),
                    Value::str("SF"),
                    Value::Int(200),
                    Value::Int(10),
                ],
                vec![
                    Value::Int(2),
                    Value::str("NY"),
                    Value::Int(300),
                    Value::Int(40),
                ],
            ],
        )
    }

    #[test]
    fn parallel_join_matches_single_node_sql() {
        let t = table();
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", t.schema()).unwrap());
        let par = Engine::parallel(4);
        let seq = Engine::sequential();
        let a = dedup_violations(detect(&par, &t, &fd).unwrap());
        let b = dedup_violations(crate::sqlengine::detect(&seq, &t, &fd));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn inequality_goes_through_cross_product() {
        let t = table();
        let dc: Arc<dyn Rule> = Arc::new(
            DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", t.schema()).unwrap(),
        );
        let e = Engine::parallel(2);
        let out = detect(&e, &t, &dc).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple_ids(), vec![0, 1]);
        // the quadratic candidate count is observable
        assert!(Metrics::get(&e.metrics().pairs_generated) >= 9);
    }
}
