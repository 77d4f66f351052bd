//! Thin measurement wrappers around each system under test.

use crate::{time, time_best};
use bigdansing::{CleanseOptions, CleanseResult};
use bigdansing_common::{Result, Table};
use bigdansing_dataflow::Engine;
use bigdansing_plan::Executor;
use bigdansing_repair::{repair_serial, Detected};
use bigdansing_rules::Rule;
use std::sync::Arc;

/// BigDansing violation detection: returns `(violations, seconds)`.
pub fn bd_detect(engine: Engine, table: &Table, rules: &[Arc<dyn Rule>]) -> (usize, f64) {
    let exec = Executor::new(engine);
    let (out, secs) = time_best(|| exec.detect(table, rules).unwrap());
    (out.violation_count(), secs)
}

/// BigDansing end-to-end cleansing.
pub fn bd_cleanse(
    engine: Engine,
    table: &Table,
    rules: &[Arc<dyn Rule>],
    options: CleanseOptions,
) -> Result<(CleanseResult, f64)> {
    let exec = Executor::new(engine);
    let (res, secs) = time(|| bigdansing::cleanse::cleanse_loop(&exec, rules, table, options));
    Ok((res?, secs))
}

/// NADEEF-style detection (single-threaded, all pairs).
pub fn nadeef_detect(table: &Table, rules: &[Arc<dyn Rule>]) -> (usize, f64) {
    let (out, secs) = time_best(|| bigdansing_baselines::nadeef::detect(table, rules));
    (out.len(), secs)
}

/// NADEEF-style end-to-end cleansing: all-pairs detection plus a
/// centralized (serial) repair, iterated like §2.2's loop. Returns the
/// iteration count and wall-clock seconds.
pub fn nadeef_cleanse(
    table: &Table,
    rules: &[Arc<dyn Rule>],
    algo: &dyn bigdansing_repair::RepairAlgorithm,
    max_iters: usize,
) -> (usize, f64) {
    let mut current = table.clone();
    let mut iters = 0usize;
    let start = std::time::Instant::now();
    loop {
        let detected: Vec<Detected> = bigdansing_baselines::nadeef::detect(&current, rules);
        if detected.is_empty() || iters >= max_iters {
            break;
        }
        let assignment = repair_serial(&detected, algo);
        if assignment.is_empty() {
            break;
        }
        current = current.apply(&assignment).expect("fixes applicable");
        iters += 1;
    }
    (iters, start.elapsed().as_secs_f64())
}

/// PostgreSQL-style detection (single-threaded SQL plans).
pub fn postgres_detect(table: &Table, rule: &Arc<dyn Rule>) -> (usize, f64) {
    let engine = Engine::sequential();
    let (out, secs) = time_best(|| bigdansing_baselines::sqlengine::detect(&engine, table, rule));
    (out.len(), secs)
}

/// Spark-SQL-style detection (parallel SQL plans).
pub fn sparksql_detect(engine: Engine, table: &Table, rule: &Arc<dyn Rule>) -> (usize, f64) {
    let (out, secs) =
        time_best(|| bigdansing_baselines::sparksql::detect(&engine, table, rule).unwrap());
    (out.len(), secs)
}

/// Shark-style detection (parallel cross products only).
pub fn shark_detect(engine: Engine, table: &Table, rule: &Arc<dyn Rule>) -> (usize, f64) {
    let (out, secs) =
        time_best(|| bigdansing_baselines::shark::detect(&engine, table, rule).unwrap());
    (out.len(), secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Schema, Value};
    use bigdansing_rules::FdRule;

    fn table() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(1), Value::str("SF")],
                vec![Value::Int(1), Value::str("LA")],
            ],
        )
    }

    fn fd(t: &Table) -> Arc<dyn Rule> {
        Arc::new(FdRule::parse("zipcode -> city", t.schema()).unwrap())
    }

    #[test]
    fn all_runners_agree_on_the_violation_set_size() {
        let t = table();
        let rule = fd(&t);
        let rules = vec![Arc::clone(&rule)];
        let (bd, _) = bd_detect(Engine::parallel(2), &t, &rules);
        let (nad, _) = nadeef_detect(&t, &rules);
        let (pg, _) = postgres_detect(&t, &rule);
        let (ss, _) = sparksql_detect(Engine::parallel(2), &t, &rule);
        let (sh, _) = shark_detect(Engine::parallel(2), &t, &rule);
        assert_eq!(bd, 2);
        assert_eq!(nad, 2);
        // SQL engines report each pair twice (both join orders)
        assert_eq!(pg, 4);
        assert_eq!(ss, 4);
        assert_eq!(sh, 4);
    }

    #[test]
    fn cleanse_runners_produce_clean_tables() {
        let t = table();
        let rules = vec![fd(&t)];
        let (res, _) =
            bd_cleanse(Engine::parallel(2), &t, &rules, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        let (_, secs) = nadeef_cleanse(&t, &rules, &bigdansing_repair::EquivalenceClassRepair, 5);
        assert!(secs >= 0.0);
    }
}
