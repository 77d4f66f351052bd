//! The Shark simulation.
//!
//! "Even BigDansing-Hadoop is doing better than Shark … because Shark
//! does not process joins efficiently" (§6.3): in this simulation every
//! rule — equality FDs included — is evaluated over the full cross
//! product with a post-filter, in parallel. UDF rules (the §6.5 dedup
//! experiment implements Levenshtein as a Shark UDF) take the same path.

use bigdansing_common::error::Result;
use bigdansing_common::Table;
use bigdansing_dataflow::Engine;
use bigdansing_rules::{Rule, Violation};
use std::sync::Arc;

/// Detect a rule's violations with a parallel cross product + filter —
/// the only join strategy this baseline has, and the plan Spark SQL
/// falls back to for inequality rules.
pub fn detect(engine: &Engine, table: &Table, rule: &Arc<dyn Rule>) -> Result<Vec<Violation>> {
    crate::sparksql::detect_cross_product(engine, table, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup_violations;
    use bigdansing_common::metrics::Metrics;
    use bigdansing_common::{Schema, Value};
    use bigdansing_rules::{DedupRule, FdRule};

    #[test]
    fn equality_rules_also_pay_the_cross_product() {
        let schema = Schema::parse("zipcode,city");
        let t = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(1), Value::str("SF")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        );
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let e = Engine::parallel(2);
        let out = detect(&e, &t, &fd).unwrap();
        assert_eq!(dedup_violations(out).len(), 1);
        // 3×3 ordered candidates were generated despite one tiny block
        assert!(Metrics::get(&e.metrics().pairs_generated) >= 9);
    }

    #[test]
    fn udf_dedup_runs_as_cross_product() {
        let schema = Schema::parse("name,city");
        let t = Table::from_rows(
            "c",
            schema,
            vec![
                vec![Value::str("Robert"), Value::str("LA")],
                vec![Value::str("Roberta"), Value::str("LA")],
                vec![Value::str("Xavier"), Value::str("NY")],
            ],
        );
        let dedup: Arc<dyn Rule> = Arc::new(DedupRule::new("udf:dedup", 0, 0.8));
        let e = Engine::parallel(2);
        let out = dedup_violations(detect(&e, &t, &dedup).unwrap());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple_ids(), vec![0, 1]);
    }
}
