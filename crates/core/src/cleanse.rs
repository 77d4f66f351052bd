//! The batch cleanse loop (§2.2 of the paper): isolation-aware,
//! semi-naive detect rounds driven through the shared detect ⇄ repair
//! rounds driver, [`bigdansing_repair::rounds`], which owns the
//! freeze-counter termination rule and the change accounting.

use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Cell, Error, Result, Table, Tuple, TupleId, Value};
use bigdansing_dataflow::{PDataset, RuleGuard};
use bigdansing_plan::physical::{block_groups, choose_strategy_with, pipeline_for_rule};
use bigdansing_plan::{Delta, Executor, IterateStrategy, Origin, RulePipeline};
use bigdansing_repair::{run_rounds, Assignment, Detected, RepairTarget, RoundsOptions};
use bigdansing_rules::Rule;
use std::collections::HashSet;
use std::sync::Arc;

// The options and strategy selection live below this crate so the
// incremental session shares them; re-exported here for source
// compatibility.
pub use bigdansing_incremental::{validate_lsh_override, CleanseOptions};
pub use bigdansing_repair::RepairStrategy;

/// One rule's health at the end of a cleansing run.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleHealth {
    /// Every pass completed, nothing skipped.
    Completed,
    /// The rule ran, but the straggler guard skipped candidate units.
    Degraded {
        /// Candidate units skipped by the outlier-block guard.
        units_skipped: u64,
    },
    /// A detect pass of the rule failed in partial mode: the rule was
    /// abandoned for the rest of the job and its detections dropped.
    Quarantined {
        /// The failure that quarantined the rule.
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
    /// ran: each rule scores `units processed / units enumerated`,
    /// quarantined rules score 0, and the job's fraction is the mean
    /// over rules. `1.0` means a complete, undegraded cleanse.
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
    /// The failure that quarantined the rule, once one has.
    quarantined: Option<String>,
}

/// Summarize the trackers into the per-rule health report and the job
/// completeness fraction.
fn health_report(trackers: &[RuleTracker]) -> CleanseOutcome {
    let mut rules = Vec::with_capacity(trackers.len());
    let mut score_sum = 0.0f64;
    for t in trackers {
        let (health, score) = match &t.quarantined {
            Some(cause) => (
                RuleHealth::Quarantined {
                    cause: cause.clone(),
                },
                0.0,
            ),
            None if t.units_skipped > 0 => (
                RuleHealth::Degraded {
                    units_skipped: t.units_skipped,
                },
                t.units_processed as f64 / (t.units_processed + t.units_skipped) as f64,
            ),
            None => (RuleHealth::Completed, 1.0),
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

/// The batch side of the shared rounds driver. Detection is
/// semi-naive: the target keeps the detections of the current table
/// with the candidate unit each came from, `apply` retracts the ones a
/// round's updates invalidate and records which tuples changed, and the
/// next detect re-evaluates only the candidate units with a changed
/// member. The first detect is the same pass with nothing carried and
/// every tuple fresh.
struct BatchTarget<'a> {
    executor: &'a Executor,
    pipelines: Vec<RulePipeline>,
    /// The pipelines' [`block_groups`]: each group is one detect pass.
    groups: Vec<Vec<usize>>,
    options: &'a CleanseOptions,
    trackers: Vec<RuleTracker>,
    table: Table,
    /// The detections of the table as of the last detect…
    detected: Vec<Detected>,
    /// …and, index for index, the rule and candidate unit behind each.
    origins: Vec<(usize, Origin)>,
    /// Per rule: `detected` holds its complete detections as of the
    /// last detect. A rule that was skipped or failed carries nothing
    /// and is next detected in full.
    current: Vec<bool>,
    /// What `apply` changed since the last detect (`None`: nothing).
    pending: Option<Delta>,
}

impl BatchTarget<'_> {
    /// The versions of the `ids` tuples in the current table.
    fn versions<'t>(&'t self, ids: &'t HashSet<TupleId>) -> impl Iterator<Item = Tuple> + 't {
        let hit = move |t: &&Tuple| ids.contains(&t.id());
        self.table.tuples().iter().filter(hit).cloned()
    }

    /// Drop the carried detections whose origin fails `stands`.
    fn retract(&mut self, stands: impl Fn(&(usize, Origin)) -> bool) {
        let keep: Vec<bool> = self.origins.iter().map(stands).collect();
        let mut kept = keep.iter();
        self.detected
            .retain(|_| *kept.next().expect("one origin per detection"));
        let mut kept = keep.iter();
        self.origins
            .retain(|_| *kept.next().expect("one origin per detection"));
    }

    /// Run the rules `members` as one group, each under a fresh guard,
    /// and fold the run into the job: the guards' counters, then the
    /// detections — or, in partial mode, the quarantine of the rules it
    /// ran. A failed group of several first re-runs each member alone,
    /// so only a faulty rule is quarantined; the failed run's guards
    /// count nothing. Strict mode propagates the failure.
    fn run_members(
        &mut self,
        data: &PDataset<Tuple>,
        members: &[usize],
        delta: Option<&Arc<Delta>>,
    ) -> Result<()> {
        let options = self.options;
        let iso = &options.isolation;
        let group: Vec<&RulePipeline> = members.iter().map(|&i| &self.pipelines[i]).collect();
        let guards: Vec<_> = group
            .iter()
            .map(|p| RuleGuard::arm(p.rule.name(), iso))
            .collect();
        let schema = self.table.schema();
        let run = self
            .executor
            .run_group(data.duplicate()?, schema, &group, Some(&guards), delta);
        if run
            .as_ref()
            .is_err_and(|e| rule_error(e) && iso.is_partial())
            && members.len() > 1
        {
            for &i in members {
                self.run_members(data, &[i], delta)?;
            }
            return Ok(());
        }
        let metrics = self.executor.engine().metrics().clone();
        for (&i, guard) in members.iter().zip(&guards) {
            let tracker = &mut self.trackers[i];
            tracker.units_processed += guard.units_processed();
            tracker.units_skipped += guard.units_skipped();
            Metrics::add(&metrics.units_skipped, guard.units_skipped());
        }
        match run {
            Ok(outs) => {
                for (&i, o) in members.iter().zip(outs) {
                    self.current[i] = true;
                    self.detected.extend(o.detected);
                    self.origins
                        .extend(o.origins.into_iter().map(|unit| (i, unit)));
                }
            }
            Err(e) if rule_error(&e) && iso.is_partial() => {
                for &i in members {
                    self.trackers[i].quarantined = Some(e.to_string());
                    Metrics::add(&metrics.rules_quarantined, 1);
                }
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

/// Whether `e` can be a rule's fault. Cancellation and admission errors
/// are about the job, so no rule is quarantined for them.
fn rule_error(e: &Error) -> bool {
    !matches!(e, Error::Cancelled { .. } | Error::Rejected { .. })
}

impl RepairTarget for BatchTarget<'_> {
    /// One isolation-aware detect round: a shared scan, then every
    /// group of non-quarantined rules as one pass, each rule under its
    /// own [`RuleGuard`]. A group runs semi-naively only when every
    /// member carries its detections; otherwise it runs in full, after
    /// dropping what its members carried. In partial mode a failing
    /// rule is quarantined for the rest of the job, as a session
    /// quarantines it, and what it carried is dropped with it — a
    /// failed group of several re-runs each member alone first, so only
    /// the faulty rule is; strict mode propagates the first failure.
    /// Cancellation and admission errors always propagate — they are
    /// about the job, not a rule.
    fn detect(&mut self) -> Result<&[Detected]> {
        let engine = self.executor.engine();
        // a re-detect counts what it touches as reprocessed, not scanned
        let data = match self.pending {
            None => self.executor.load(&self.table),
            Some(_) => PDataset::from_vec(engine.clone(), self.table.tuples().to_vec()),
        };
        let delta = Arc::new(self.pending.take().unwrap_or_default());
        for g in 0..self.groups.len() {
            engine.check_cancelled()?;
            let healthy = |&i: &usize| self.trackers[i].quarantined.is_none();
            let members: Vec<usize> = self.groups[g].iter().copied().filter(healthy).collect();
            if members.is_empty() {
                continue;
            }
            let carried = members.iter().all(|&i| self.current[i]);
            if !carried && members.iter().any(|&i| self.current[i]) {
                self.retract(|(rule, _)| !members.contains(rule));
            }
            for &i in &members {
                self.current[i] = false;
            }
            self.run_members(&data, &members, carried.then_some(&delta))?;
        }
        // a rule that was skipped or failed contributes nothing
        if !self.current.iter().all(|c| *c) {
            let current = self.current.clone();
            self.retract(|(rule, _)| current[*rule]);
        }
        Ok(&self.detected)
    }

    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.table.cell_value(cell)
    }

    fn apply(&mut self, updates: &Assignment) -> Result<()> {
        let ids: HashSet<TupleId> = updates.keys().map(|c| c.tuple).collect();
        let mut versions: Vec<Tuple> = self.versions(&ids).collect();
        self.table = self.table.apply(updates)?;
        versions.extend(self.versions(&ids));
        let delta = Delta { ids, versions };

        // Retract what the delta invalidates right away, so the next
        // detect's output never sits in memory next to what it replaces.
        let dirty_buckets = |pipeline: &RulePipeline| match pipeline.strategy {
            IterateStrategy::BlockList => delta.dirty_buckets(pipeline),
            _ => HashSet::new(),
        };
        let dirty: Vec<HashSet<u64>> = self.pipelines.iter().map(dirty_buckets).collect();
        self.retract(|(rule, origin)| match origin {
            Origin::Unit(a, b) => !delta.ids.contains(a) && !delta.ids.contains(b),
            Origin::Bucket(hash) => !dirty[*rule].contains(hash),
        });

        match &mut self.pending {
            None => self.pending = Some(delta),
            Some(pending) => {
                pending.ids.extend(delta.ids);
                pending.versions.extend(delta.versions);
            }
        }
        Ok(())
    }
}

/// Run the full cleansing process over `table`.
///
/// With [`bigdansing_dataflow::IsolationOptions::partial`] in the
/// options, rule faults degrade the result instead of failing it: each
/// rule's detection runs under its own guard, a rule whose pass fails is
/// quarantined and its violations are excluded from repair, and the
/// returned [`CleanseResult::outcome`] attributes what was lost to which
/// rule.
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
    let pipeline = |rule: &Arc<dyn Rule>| {
        let mut pipeline = pipeline_for_rule(Arc::clone(rule), table.name());
        pipeline.strategy = choose_strategy_with(rule.as_ref(), options.lsh);
        pipeline
    };
    let pipelines: Vec<RulePipeline> = rules.iter().map(pipeline).collect();
    let mut target = BatchTarget {
        executor,
        groups: block_groups(&pipelines),
        pipelines,
        options: &options,
        trackers: rules
            .iter()
            .map(|r| RuleTracker {
                name: r.name().to_string(),
                ..RuleTracker::default()
            })
            .collect(),
        table: table.clone(),
        detected: Vec::new(),
        origins: Vec::new(),
        current: vec![false; rules.len()],
        pending: None,
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
        outcome: health_report(&target.trackers),
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
    use bigdansing_common::{LshParams, Schema};
    use bigdansing_dataflow::{Engine, IsolationOptions};
    use bigdansing_repair::{EquivalenceClassRepair, HypergraphRepair};
    use bigdansing_rules::{DcRule, DedupRule, DetectUnit, FdRule, UdfRule, UnitKind, Violation};
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
        assert_eq!((m.tuples_reprocessed, m.blocks_dirty), (5 * 4, 5));
        assert!(m.tuples_scanned + m.tuples_reprocessed < 2 * n);
        let full = Executor::new(Engine::parallel(2));
        full.detect(&t, &rules).unwrap();
        let full_pairs = full.engine().metrics().snapshot().pairs_generated;
        assert_eq!(m.pairs_generated, full_pairs + 5 * 3, "Δ×R pairs only");
        assert!(m.pairs_generated < 2 * full_pairs);
        let plan = exec.engine().explain();
        assert!(plan.contains("redetect(fd:zipcode->city)"), "{plan}");
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
