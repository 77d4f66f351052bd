//! The batch cleanse loop (§2.2 of the paper): isolation-aware full
//! detect rounds driven through the shared detect ⇄ repair rounds
//! driver, [`bigdansing_repair::rounds`], which owns the freeze-counter
//! termination rule and the change accounting.

use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Cell, Error, LshParams, Result, Table, Value};
use bigdansing_dataflow::bulkhead::{Bulkhead, IsolationOptions, RuleGuard};
use bigdansing_plan::physical::{choose_strategy_with, pipeline_for_rule};
use bigdansing_plan::{DetectOutput, Executor};
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::{run_rounds, Assignment, Detected, RepairTarget, RoundsOptions};
use bigdansing_rules::Rule;
use std::sync::Arc;

// Strategy selection lives in the repair crate so the incremental
// session (which cannot depend on this crate) shares the exact same
// dispatch; re-exported here for source compatibility.
pub use bigdansing_repair::RepairStrategy;

/// Options for [`cleanse_loop`].
#[derive(Debug, Clone)]
pub struct CleanseOptions {
    /// Maximum detect ⇄ repair iterations.
    pub max_iterations: usize,
    /// Freeze threshold: after this many updates a cell stops changing
    /// (the paper's "special variable" guaranteeing termination).
    pub max_changes_per_cell: usize,
    /// Repair strategy.
    pub strategy: RepairStrategy,
    /// Options forwarded to the parallel black-box driver.
    pub repair_options: RepairOptions,
    /// Rule-isolation knobs: strict-vs-partial fault mode, per-rule
    /// soft time budget, outlier-block threshold, breaker tuning.
    pub isolation: IsolationOptions,
    /// Violation window for *incremental sessions* opened through
    /// [`crate::BigDansing::open_session`] and friends: arriving
    /// records get logical event times and tuples behind the watermark
    /// are retired with their violations retracted. Ignored by the
    /// batch [`cleanse_loop`] (a one-shot table has no stream to
    /// window).
    pub window: Option<bigdansing_incremental::WindowSpec>,
    /// Job-level override of the MinHash/LSH banding geometry. Applies
    /// to every registered similarity rule (a rule whose
    /// [`Rule::lsh`] is `Some`); a job that sets this while no
    /// registered rule declares LSH blocking is rejected up front —
    /// the override would silently do nothing.
    pub lsh: Option<LshParams>,
}

impl Default for CleanseOptions {
    fn default() -> Self {
        CleanseOptions {
            max_iterations: 10,
            max_changes_per_cell: 3,
            strategy: RepairStrategy::default(),
            repair_options: RepairOptions::default(),
            isolation: IsolationOptions::default(),
            window: None,
            lsh: None,
        }
    }
}

/// Reject a job-level LSH override that no rule can honour: the
/// banding geometry only applies to similarity rules, so if none of
/// the registered rules declares LSH blocking the override is a
/// configuration mistake, not a no-op.
pub fn validate_lsh_override(options: &CleanseOptions, rules: &[Arc<dyn Rule>]) -> Result<()> {
    if options.lsh.is_some() && !rules.iter().any(|r| r.lsh().is_some()) {
        return Err(Error::Repair(
            "LSH blocking options apply only to similarity rules, but no registered rule \
             declares LSH blocking — register a dedup/similarity rule or drop the LSH options"
                .into(),
        ));
    }
    Ok(())
}

/// One rule's health at the end of a cleansing run.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleHealth {
    /// Every pass completed, nothing skipped.
    Completed,
    /// The rule ran but some passes failed (below the breaker
    /// threshold) or the straggler guard skipped candidate units.
    Degraded {
        /// Candidate units skipped by the outlier-block guard.
        units_skipped: u64,
    },
    /// The rule's circuit breaker opened; its detection was abandoned
    /// for the rest of the job and it contributed no violations after
    /// the trip.
    Quarantined {
        /// The failure that opened the breaker.
        cause: String,
    },
}

/// Per-rule health and the job-level completeness fraction a
/// best-effort cleanse delivers alongside the repaired table.
#[derive(Debug, Clone, Default)]
pub struct CleanseOutcome {
    /// `(rule name, health)` in registration order.
    pub rules: Vec<(String, RuleHealth)>,
    /// Fraction in `[0, 1]` of the job's detection work that actually
    /// ran: each rule scores `(successful rounds / attempted rounds) ×
    /// (units processed / units enumerated)`, quarantined rules score
    /// 0, and the job's fraction is the mean over rules. `1.0` means a
    /// complete, undegraded cleanse.
    pub completeness: f64,
}

impl CleanseOutcome {
    /// True when any rule ended degraded or quarantined.
    pub fn is_degraded(&self) -> bool {
        self.rules
            .iter()
            .any(|(_, h)| !matches!(h, RuleHealth::Completed))
    }

    /// The quarantined rules, with the failure that tripped each one.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &str)> {
        self.rules.iter().filter_map(|(name, h)| match h {
            RuleHealth::Quarantined { cause } => Some((name.as_str(), cause.as_str())),
            _ => None,
        })
    }
}

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

/// Book-keeping for one rule across a job's detect rounds.
#[derive(Default)]
struct RuleTracker {
    name: String,
    units_processed: u64,
    units_skipped: u64,
    rounds_ok: u32,
    rounds_failed: u32,
}

/// One isolation-aware detect round: a shared scan, then every
/// non-quarantined rule's pipeline under its own [`RuleGuard`]. In
/// partial mode a failing rule is counted against its breaker and
/// contributes nothing this round; strict mode propagates the first
/// failure. Cancellation and admission errors always propagate — they
/// are about the job, not a rule.
fn detect_round(
    executor: &Executor,
    table: &Table,
    rules: &[Arc<dyn Rule>],
    options: &CleanseOptions,
    bulkhead: &Bulkhead,
    trackers: &mut [RuleTracker],
) -> Result<DetectOutput> {
    let iso = &options.isolation;
    let metrics = executor.engine().metrics().clone();
    let data = executor.load(table);
    let mut out = DetectOutput::default();
    for (i, rule) in rules.iter().enumerate() {
        executor.engine().check_cancelled()?;
        let name = rule.name().to_string();
        if !bulkhead.admit(&name) {
            continue;
        }
        let mut pipeline = pipeline_for_rule(Arc::clone(rule), table.name());
        pipeline.strategy = choose_strategy_with(rule.as_ref(), options.lsh);
        let guard = RuleGuard::arm(&name, iso);
        let run = executor.run_pipeline_guarded(data.try_duplicate()?, &pipeline, Some(&guard));
        trackers[i].units_processed += guard.units_processed();
        trackers[i].units_skipped += guard.units_skipped();
        Metrics::add(&metrics.units_skipped, guard.units_skipped());
        match run {
            Ok(o) => {
                trackers[i].rounds_ok += 1;
                bulkhead.record_success(&name);
                out.extend(o);
            }
            Err(e @ Error::Cancelled { .. }) | Err(e @ Error::Rejected { .. }) => return Err(e),
            Err(e) => {
                if !iso.is_partial() {
                    return Err(e);
                }
                trackers[i].rounds_failed += 1;
                bulkhead.record_failure(&name, e.class(), &e.to_string());
            }
        }
    }
    Ok(out)
}

/// Summarize tracker + breaker state into the per-rule health report
/// and the job completeness fraction.
fn health_report(bulkhead: &Bulkhead, trackers: &[RuleTracker]) -> CleanseOutcome {
    let mut rules = Vec::with_capacity(trackers.len());
    let mut score_sum = 0.0f64;
    for t in trackers {
        let (health, score) = if let Some(cause) = bulkhead.quarantine_cause(&t.name) {
            (RuleHealth::Quarantined { cause }, 0.0)
        } else if t.units_skipped > 0 || t.rounds_failed > 0 {
            let attempted = (t.rounds_ok + t.rounds_failed).max(1) as f64;
            let enumerated = t.units_processed + t.units_skipped;
            let unit_fraction = if enumerated > 0 {
                t.units_processed as f64 / enumerated as f64
            } else {
                1.0
            };
            (
                RuleHealth::Degraded {
                    units_skipped: t.units_skipped,
                },
                (t.rounds_ok as f64 / attempted) * unit_fraction,
            )
        } else {
            (RuleHealth::Completed, 1.0)
        };
        score_sum += score;
        rules.push((t.name.clone(), health));
    }
    let completeness = if trackers.is_empty() {
        1.0
    } else {
        score_sum / trackers.len() as f64
    };
    CleanseOutcome {
        rules,
        completeness,
    }
}

/// The batch side of the shared rounds driver: every (re-)detect is a
/// full isolation-aware [`detect_round`] over the current table, and a
/// round's updates rebuild the table.
struct BatchTarget<'a> {
    executor: &'a Executor,
    rules: &'a [Arc<dyn Rule>],
    options: &'a CleanseOptions,
    bulkhead: Bulkhead,
    trackers: Vec<RuleTracker>,
    table: Table,
}

impl RepairTarget for BatchTarget<'_> {
    fn detect(&mut self) -> Result<Vec<Detected>> {
        detect_round(
            self.executor,
            &self.table,
            self.rules,
            self.options,
            &self.bulkhead,
            &mut self.trackers,
        )
        .map(|out| out.detected)
    }

    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.table.cell_value(cell)
    }

    fn apply(&mut self, updates: &Assignment) -> Result<()> {
        self.table = self.table.apply(updates)?;
        Ok(())
    }
}

/// Run the full cleansing process over `table`.
///
/// With [`IsolationOptions::partial`] in the options, rule faults
/// degrade the result instead of failing it: each rule's detection runs
/// under its own circuit breaker and guard, a quarantined rule's
/// violations are excluded from repair, and the returned
/// [`CleanseResult::outcome`] attributes what was lost to which rule.
pub fn cleanse_loop(
    executor: &Executor,
    rules: &[Arc<dyn Rule>],
    table: &Table,
    options: CleanseOptions,
) -> Result<CleanseResult> {
    if rules.is_empty() {
        return Err(Error::Repair("no rules registered".into()));
    }
    validate_lsh_override(&options, rules)?;
    let mut target = BatchTarget {
        executor,
        rules,
        options: &options,
        bulkhead: Bulkhead::new(
            options.isolation.breaker,
            options.isolation.mode,
            executor.engine().metrics().clone(),
        ),
        trackers: rules
            .iter()
            .map(|r| RuleTracker {
                name: r.name().to_string(),
                ..RuleTracker::default()
            })
            .collect(),
        table: table.clone(),
    };
    let rounds = run_rounds(
        executor.engine(),
        &mut target,
        RoundsOptions {
            max_iterations: options.max_iterations,
            max_changes_per_cell: options.max_changes_per_cell,
            strategy: &options.strategy,
            repair_options: options.repair_options,
        },
    )?;
    Ok(CleanseResult {
        outcome: health_report(&target.bulkhead, &target.trackers),
        table: target.table,
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
    use bigdansing_common::Schema;
    use bigdansing_dataflow::Engine;
    use bigdansing_repair::{EquivalenceClassRepair, HypergraphRepair};
    use bigdansing_rules::{DcRule, DedupRule, FdRule, UdfRule, UnitKind};
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

    /// The job-level LSH geometry override only makes sense for
    /// similarity rules: a rule set without one rejects it up front
    /// with an actionable error instead of silently ignoring it.
    #[test]
    fn lsh_override_requires_a_similarity_rule() {
        let t = fd_table();
        let exec = Executor::new(Engine::sequential());
        let opts = CleanseOptions {
            lsh: Some(LshParams::default()),
            ..Default::default()
        };
        let err = cleanse_loop(&exec, &fd_rules(t.schema()), &t, opts.clone()).unwrap_err();
        assert!(
            err.to_string().contains("similarity rule"),
            "unhelpful error: {err}"
        );
        // an LSH-blocked dedup rule satisfies the validation
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            DedupRule::new("udf:dedup", 1, 0.9).with_lsh(LshParams::default()),
        )];
        assert!(validate_lsh_override(&opts, &rules).is_ok());
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
