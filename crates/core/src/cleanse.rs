//! The batch cleanse loop (§2.2 of the paper): a cleansing
//! [`Session`] over the table, with no log and no window, whose one
//! empty apply runs the detect ⇄ repair rounds. The session's open is
//! the first detect, every rule group's one full pass over the table
//! with every row fresh — the first semi-naive iteration — and each
//! repair round re-detects only what it changed through the session's
//! violation store and the groups' resident stores
//! ([`bigdansing_incremental::rounds`] owns the freeze-counter
//! termination rule and the change accounting). The repaired table,
//! the rounds' counts and the rules' health are the result.

use bigdansing_common::{Result, Table};
use bigdansing_incremental::{DeltaBatch, Session};
use bigdansing_plan::Executor;
use bigdansing_rules::Rule;
use std::sync::Arc;

// The options, strategy selection and health report live below this
// crate, next to the session that produces them; re-exported here for
// source compatibility.
pub use bigdansing_incremental::{CleanseOptions, CleanseOutcome, RuleHealth};
pub use bigdansing_repair::RepairStrategy;

/// The outcome of a cleansing run.
#[derive(Debug, Clone)]
pub struct CleanseResult {
    /// The repaired table.
    pub table: Table,
    /// Detect ⇄ repair iterations executed.
    pub iterations: usize,
    /// Violations seen across all iterations.
    pub total_violations: usize,
    /// Distinct cell updates applied.
    pub cells_changed: usize,
    /// Cells frozen by the termination rule.
    pub frozen_cells: usize,
    /// Σ distance(old, new) over all applied updates (§2.1 cost).
    pub repair_cost: f64,
    /// True when the final table has no violations (false when the loop
    /// stopped on unfixable violations or the iteration cap).
    pub converged: bool,
    /// Per-rule health and completeness. A strict-mode success is
    /// always fully complete; a partial-mode run reports which rules
    /// degraded or were quarantined.
    pub outcome: CleanseOutcome,
}

/// Run the full cleansing process over `table`: open a session over it
/// and apply one empty batch.
///
/// With [`bigdansing_dataflow::IsolationOptions::partial`] in the
/// options, rule faults degrade the result instead of failing it: each
/// rule's detection runs under its own guard, a rule whose pass fails is
/// quarantined and its violations are excluded from repair, and the
/// returned [`CleanseResult::outcome`] attributes what was lost to which
/// rule. A table that holds one tuple id twice is refused.
pub fn cleanse_loop(
    executor: &Executor,
    rules: &[Arc<dyn Rule>],
    table: &Table,
    options: CleanseOptions,
) -> Result<CleanseResult> {
    let options = CleanseOptions {
        window: None,
        ..options
    };
    let mut session = Session::new(executor.clone(), rules.to_vec(), table, options)?;
    let rounds = session.apply(DeltaBatch::new())?;
    Ok(CleanseResult {
        outcome: session.outcome(),
        table: session.into_table(),
        iterations: rounds.iterations,
        total_violations: rounds.total_violations,
        cells_changed: rounds.cells_changed,
        frozen_cells: rounds.frozen_cells,
        repair_cost: rounds.repair_cost,
        converged: rounds.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Error, Schema, Tuple, Value};
    use bigdansing_dataflow::{Engine, IsolationOptions};
    use bigdansing_repair::{EquivalenceClassRepair, HypergraphRepair};
    use bigdansing_rules::{
        BlockKey, DcRule, DetectUnit, FdRule, Fix, UdfRule, UnitKind, Violation,
    };
    use std::collections::HashMap;

    fn fd_table() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(1), Value::str("SF")],
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        )
    }

    fn fd_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
        vec![Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())]
    }

    #[test]
    fn fd_cleansing_converges_in_one_iteration() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let rules = fd_rules(t.schema());
        let res = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 1);
        assert_eq!(res.cells_changed, 1);
        assert!(res.repair_cost > 0.0);
        assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
    }

    #[test]
    fn all_strategies_clean_the_fd_table() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let rules = fd_rules(t.schema());
        for strategy in [
            RepairStrategy::ParallelBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::SerialBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::DistributedEquivalence,
        ] {
            let res = cleanse_loop(
                &exec,
                &rules,
                &t,
                CleanseOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(res.converged, "strategy failed");
            assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
        }
    }

    #[test]
    fn dc_cleansing_with_hypergraph_repair() {
        let schema = Schema::parse("salary,rate");
        let t = Table::from_rows(
            "tax",
            schema.clone(),
            vec![
                vec![Value::Int(100), Value::Int(30)],
                vec![Value::Int(200), Value::Int(10)],
                vec![Value::Int(300), Value::Int(40)],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", &schema).unwrap(),
        )];
        let exec = Executor::new(Engine::parallel(2));
        let res = cleanse_loop(
            &exec,
            &rules,
            &t,
            CleanseOptions {
                strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.converged, "DC repair did not converge: {res:?}");
        assert!(exec.detect(&res.table, &rules).unwrap().is_clean());
    }

    #[test]
    fn no_rules_is_an_error() {
        let t = fd_table();
        let exec = Executor::new(Engine::sequential());
        assert!(cleanse_loop(&exec, &[], &t, CleanseOptions::default()).is_err());
    }

    #[test]
    fn clean_input_converges_with_zero_iterations() {
        let schema = Schema::parse("zipcode,city");
        let t = Table::from_rows(
            "t",
            schema.clone(),
            vec![vec![Value::Int(1), Value::str("LA")]],
        );
        let exec = Executor::new(Engine::sequential());
        let res = cleanse_loop(&exec, &fd_rules(&schema), &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.cells_changed, 0);
    }

    fn panicking_rule() -> Arc<dyn Rule> {
        Arc::new(
            UdfRule::builder("udf:faulty", |_| panic!("faulty udf rule"))
                .unit_kind(UnitKind::Single)
                .build(),
        )
    }

    #[test]
    fn partial_mode_quarantines_a_panicking_rule() {
        let t = fd_table();
        let mut rules = fd_rules(t.schema());
        rules.push(panicking_rule());
        let exec = Executor::new(Engine::sequential());
        let opts = CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        };
        let res = cleanse_loop(&exec, &rules, &t, opts).unwrap();
        assert!(res.converged, "healthy rules must still converge");
        assert!(res.outcome.is_degraded());
        assert!(res.outcome.completeness < 1.0);
        let health: HashMap<_, _> = res.outcome.rules.iter().cloned().collect();
        assert_eq!(health["fd:zipcode->city"], RuleHealth::Completed);
        assert!(
            matches!(health["udf:faulty"], RuleHealth::Quarantined { .. }),
            "faulty rule should be quarantined, got {:?}",
            health["udf:faulty"]
        );
        let m = exec.engine().metrics().snapshot();
        assert!(m.rules_quarantined >= 1);
        assert!(
            m.retries_short_circuited >= 1,
            "repeated panic payloads should fail fast"
        );

        // the healthy rule's repair is byte-identical to a run that
        // never registered the faulty rule
        let oracle_exec = Executor::new(Engine::sequential());
        let oracle = cleanse_loop(
            &oracle_exec,
            &fd_rules(t.schema()),
            &t,
            CleanseOptions::default(),
        )
        .unwrap();
        assert_eq!(res.table.diff_cells(&oracle.table), 0);
    }

    /// A rule quarantined in a later round takes its carried
    /// detections with it: the job ends exactly as if the rule had never
    /// been registered, apart from the violations it reported while
    /// healthy.
    #[test]
    fn rule_quarantined_in_a_later_round_drops_its_carried_detections() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = fd_table();
        // healthy for the first round's four calls; the re-detect calls
        // it on the repaired tuple, and from then on it panics
        let calls = AtomicUsize::new(0);
        let rows = t.len();
        let flaky = UdfRule::builder("udf:flaky", move |unit| {
            if calls.fetch_add(1, Ordering::SeqCst) >= rows {
                panic!("flaky udf tripped");
            }
            let DetectUnit::Single(t) = unit else {
                panic!("unexpected unit {unit:?}");
            };
            // an unfixable complaint about a row the FD never touches
            match t.id() {
                3 => vec![Violation::new("udf:flaky").with_cell(t.cell(1), t.value(1).clone())],
                _ => Vec::new(),
            }
        })
        .unit_kind(UnitKind::Single)
        .build();
        let mut rules = fd_rules(t.schema());
        rules.push(Arc::new(flaky));
        let opts = CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        };
        let exec = Executor::new(Engine::sequential());
        let res = cleanse_loop(&exec, &rules, &t, opts).unwrap();
        assert_eq!(res.outcome.quarantined().count(), 1);

        let oracle_exec = Executor::new(Engine::sequential());
        let oracle = cleanse_loop(
            &oracle_exec,
            &fd_rules(t.schema()),
            &t,
            CleanseOptions::default(),
        )
        .unwrap();
        assert_eq!(res.table.diff_cells(&oracle.table), 0);
        assert_eq!(res.iterations, oracle.iterations);
        assert_eq!(res.total_violations, oracle.total_violations + 1);
        assert!(
            res.converged,
            "the stale complaint must not outlive its rule"
        );
    }

    /// A rule on zipcode blocks that declares its Block columns, so it
    /// shares the FD's Block pass.
    struct OnZip(UdfRule);

    impl Rule for OnZip {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn block(&self, unit: &Tuple) -> Option<BlockKey> {
            self.0.block(unit)
        }
        fn blocks(&self) -> bool {
            true
        }
        fn block_columns(&self) -> Option<&[usize]> {
            Some(&[0])
        }
        fn unit_kind(&self) -> UnitKind {
            self.0.unit_kind()
        }
        fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
            self.0.detect(input)
        }
        fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
            self.0.gen_fix(violation)
        }
    }

    /// A faulty rule in a shared Block pass is quarantined alone, and the
    /// group's later rounds re-detect from the store its open indexed
    /// after the member-by-member re-run: a list rule of the group
    /// neither repeats a detection nor keeps one its bucket's repair made
    /// stale. A session over the same rules does the same through one
    /// delta.
    #[test]
    fn a_quarantine_in_a_shared_block_pass_keeps_list_detections_exact() {
        // zip 1: an FD violation; zip 2: a fixable note; zip 3: a note
        // no fix can change ("!")
        let schema = Schema::parse("zipcode,city,note");
        let rows = [
            (1, "LA", "x"),
            (1, "SF", "x"),
            (1, "LA", "x"),
            (2, "NY", "a"),
            (2, "NY", "b"),
            (3, "SD", "c"),
            (3, "SD", "!"),
        ];
        let rows = rows
            .into_iter()
            .map(|(z, c, n)| vec![Value::Int(z), Value::str(c), Value::str(n)]);
        let t = Table::from_rows("t", schema.clone(), rows.collect());
        let zip = |t: &Tuple| Some(BlockKey::single(t.value(0).clone()));
        // every note of a block must equal its first row's
        let list = UdfRule::builder("udf:notes", |unit| {
            let DetectUnit::List(block) = unit else {
                panic!("list rule fed {unit:?}");
            };
            let odd = block.iter().filter(|t| t.value(2) != block[0].value(2));
            let at = |t: &Tuple| (t.cell(2), t.value(2).clone());
            let complain = |t: &Tuple| {
                let (cell, v) = at(t);
                let (first, w) = at(&block[0]);
                Violation::new("udf:notes")
                    .with_cell(cell, v)
                    .with_cell(first, w)
            };
            odd.map(complain).collect()
        })
        .unit_kind(UnitKind::List)
        .block(zip)
        .gen_fix(|v| {
            let [(cell, old), (_, first)] = v.cells() else {
                unreachable!("two cells per complaint");
            };
            let fixable = *old != Value::str("!");
            Vec::from_iter(fixable.then(|| Fix::assign_const(*cell, old.clone(), first.clone())))
        })
        .build();
        let faulty = UdfRule::builder("udf:faulty_zip", |_| panic!("faulty block rule"))
            .block(zip)
            .build();
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let list: Arc<dyn Rule> = Arc::new(OnZip(list));
        let faulty: Arc<dyn Rule> = Arc::new(OnZip(faulty));
        let opts = CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        };
        let run = |rules: Vec<Arc<dyn Rule>>| {
            let exec = Executor::new(Engine::sequential());
            cleanse_loop(&exec, &rules, &t, opts.clone()).unwrap()
        };
        let healthy = vec![Arc::clone(&fd), Arc::clone(&list)];
        let oracle = run(healthy.clone());
        let res = run(vec![
            Arc::clone(&fd),
            Arc::clone(&list),
            Arc::clone(&faulty),
        ]);
        assert_eq!(res.outcome.quarantined().count(), 1);
        assert!(!oracle.converged, "the '!' note stays unfixable");
        assert_eq!(oracle.cells_changed, 2);
        assert_eq!(res.table.diff_cells(&oracle.table), 0);
        let counts = |r: &CleanseResult| (r.iterations, r.total_violations, r.converged);
        assert_eq!(counts(&res), counts(&oracle));

        // a session quarantines the faulty rule alone, in its shared
        // pass, and then ends a delta exactly as the healthy rules do
        let apply = |rules: Vec<Arc<dyn Rule>>| {
            let exec = Executor::new(Engine::sequential());
            let mut s = Session::new(exec, rules, &t, opts.clone()).unwrap();
            let row = |z, c: &str, n: &str| vec![Value::Int(z), Value::str(c), Value::str(n)];
            let delta = DeltaBatch::new()
                .insert(7, row(2, "NY", "c"))
                .update(5, row(3, "SD", "e"))
                .insert(8, row(1, "SF", "x"));
            s.apply(delta).unwrap();
            s
        };
        let (oracle, res) = (apply(healthy), apply(vec![fd, list, faulty]));
        let quarantined = res.quarantined_rules();
        let names: Vec<&str> = quarantined.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["udf:faulty_zip"]);
        assert_eq!(
            format!("{:?}", res.table()),
            format!("{:?}", oracle.table())
        );
        assert_eq!(
            format!("{:?}", res.detected()),
            format!("{:?}", oracle.detected())
        );
        assert!(
            !oracle.detected().is_empty(),
            "the '!' note is still detected"
        );
    }

    /// The re-detect after a repair touches only what the repair
    /// changed, and says so with the counters and labels that exist.
    #[test]
    fn redetect_reprocesses_only_the_dirty_blocks() {
        // 50 zip codes × 4 rows, one garbled city in every tenth zip
        let schema = Schema::parse("zipcode,city");
        let rows = (0..200i64).map(|i| {
            let city = if i % 40 == 1 { "??" } else { "ok" };
            vec![Value::Int(i / 4), Value::str(city)]
        });
        let t = Table::from_rows("t", schema.clone(), rows.collect());
        let rules = fd_rules(&schema);
        let exec = Executor::new(Engine::parallel(2));
        let res = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!((res.iterations, res.cells_changed), (1, 5));

        let m = exec.engine().metrics().snapshot();
        let n = t.len() as u64;
        assert_eq!(m.tuples_scanned, n, "only the first detect scans");
        assert_eq!(m.records_shuffled, n, "only the first detect shuffles");
        assert_eq!((m.tuples_reprocessed, m.blocks_dirty), (5 * 4, 5));
        assert!(m.tuples_scanned + m.tuples_reprocessed < 2 * n);
        let full = Executor::new(Engine::parallel(2));
        full.detect(&t, &rules).unwrap();
        let full_pairs = full.engine().metrics().snapshot().pairs_generated;
        assert_eq!(m.pairs_generated, full_pairs + 5 * 3, "Δ×R pairs only");
        assert!(m.pairs_generated < 2 * full_pairs);
        let plan = exec.engine().explain();
        assert!(plan.contains("redetect(fd:zipcode->city)"), "{plan}");
        let maps = plan.lines().filter(|l| l.contains("shuffle-map")).count();
        assert_eq!(maps, 1, "re-detects read the resident buckets: {plan}");
    }

    /// An unblocked rule re-detects from its store too: the second
    /// round pairs only the repaired rows with the one global bucket,
    /// with no second cartesian pass over the table.
    #[test]
    fn a_cross_product_redetects_only_the_pairs_of_changed_rows() {
        // the FD zipcode -> city as an unblocked, symmetric pair rule:
        // 30 zip codes × 4 rows, one garbled city in 3 of them
        let schema = Schema::parse("zipcode,city");
        let rows = (0..120i64).map(|i| {
            let city = if i % 40 == 1 { "??" } else { "ok" };
            vec![Value::Int(i / 4), Value::str(city)]
        });
        let t = Table::from_rows("t", schema, rows.collect());
        let fd = UdfRule::builder("udf:zip-city", |unit| match *unit {
            DetectUnit::Pair(a, b) if a.value(0) == b.value(0) && a.value(1) != b.value(1) => {
                vec![Violation::new("udf:zip-city")
                    .with_cell(a.cell(1), a.value(1).clone())
                    .with_cell(b.cell(1), b.value(1).clone())]
            }
            _ => Vec::new(),
        })
        .gen_fix(|v| match v.cells() {
            [(a, x), (b, y)] => vec![Fix::assign_cell(*a, x.clone(), *b, y.clone())],
            _ => Vec::new(),
        })
        .build();
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(fd)];
        let exec = Executor::new(Engine::parallel(2));
        let res = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap();
        assert!(res.converged);
        assert_eq!((res.iterations, res.cells_changed), (1, 3));
        let plan = exec.engine().explain();
        let passes = plan
            .lines()
            .filter(|l| l.contains("self-cartesian"))
            .count();
        assert_eq!(passes, 1, "round 2 reads the resident bucket: {plan}");
        let (n, changed) = (t.len() as u64, 3);
        let full = n * (n - 1) / 2;
        let with_a_changed_member = changed * (n - 1) - changed * (changed - 1) / 2;
        let pairs = exec.engine().metrics().snapshot().pairs_generated;
        assert_eq!(pairs, full + with_a_changed_member);
    }

    /// A table that holds one tuple id twice is refused, as a session
    /// refuses it: every lookup of the id would resolve to one row.
    #[test]
    fn a_duplicate_tuple_id_is_refused() {
        let schema = Schema::parse("zipcode,city");
        let row = |city: &str| Tuple::new(0, vec![Value::Int(1), Value::str(city)]);
        let t = Table::new("t", schema.clone(), vec![row("LA"), row("SF")]);
        let exec = Executor::new(Engine::sequential());
        let err = cleanse_loop(&exec, &fd_rules(&schema), &t, CleanseOptions::default());
        let err = err.unwrap_err().to_string();
        assert!(err.contains("duplicate tuple id 0"), "{err}");
    }

    #[test]
    fn strict_mode_propagates_rule_faults() {
        let t = fd_table();
        let mut rules = fd_rules(t.schema());
        rules.push(panicking_rule());
        let exec = Executor::new(Engine::sequential());
        let err = cleanse_loop(&exec, &rules, &t, CleanseOptions::default()).unwrap_err();
        assert!(
            matches!(err, Error::Task { .. }),
            "strict mode should surface the task failure, got {err:?}"
        );
    }

    #[test]
    fn healthy_run_reports_full_completeness() {
        let t = fd_table();
        let exec = Executor::new(Engine::parallel(2));
        let res =
            cleanse_loop(&exec, &fd_rules(t.schema()), &t, CleanseOptions::default()).unwrap();
        assert!(!res.outcome.is_degraded());
        assert_eq!(res.outcome.completeness, 1.0);
        assert_eq!(res.outcome.rules.len(), 1);
        assert_eq!(res.outcome.rules[0].1, RuleHealth::Completed);
    }

    #[test]
    fn freeze_counter_guarantees_termination() {
        // a pathological pair of FDs that keep re-breaking each other:
        // a->b and b->a over inconsistent data
        let schema = Schema::parse("a,b");
        let t = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![
            Arc::new(FdRule::parse("a -> b", &schema).unwrap()),
            Arc::new(FdRule::parse("b -> a", &schema).unwrap()),
        ];
        let exec = Executor::new(Engine::sequential());
        let res = cleanse_loop(
            &exec,
            &rules,
            &t,
            CleanseOptions {
                max_iterations: 20,
                max_changes_per_cell: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // must terminate (converged or not) within the iteration budget
        assert!(res.iterations <= 20);
    }
}
