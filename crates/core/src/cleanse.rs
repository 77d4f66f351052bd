//! The batch cleanse loop (§2.2 of the paper): isolation-aware,
//! semi-naive detect rounds driven through the shared detect ⇄ repair
//! rounds driver, [`bigdansing_incremental::rounds`], which owns the
//! freeze-counter termination rule and the change accounting. Each
//! round detects every rule group as a session apply does: the first
//! opens it over the table, every later one re-detects what repair
//! changed from the group's resident store.

use bigdansing_common::metrics::Metrics;
use bigdansing_common::{stable_hash_of, Cell, Error, Result, Table, Tuple, TupleId, Value};
use bigdansing_incremental::{run_rounds, RepairTarget};
use bigdansing_plan::physical::pipelines;
use bigdansing_plan::{Executor, GroupMember, Origin, RuleGroup};
use bigdansing_repair::{Assignment, Detected};
use bigdansing_rules::Rule;
use std::collections::HashSet;
use std::sync::Arc;

// The options and strategy selection live below this crate so the
// incremental session shares them; re-exported here for source
// compatibility.
pub use bigdansing_incremental::CleanseOptions;
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

/// Summarize the rules' health — every group's members, in
/// registration order — into the per-rule health report and the job
/// completeness fraction.
fn health_report(groups: &[RuleGroup]) -> CleanseOutcome {
    let mut members: Vec<&GroupMember> = groups.iter().flat_map(|g| &g.members).collect();
    members.sort_by_key(|m| m.rule);
    let health = |m: &&GroupMember| match (&m.quarantined, m.units_skipped) {
        (Some(cause), _) => (
            RuleHealth::Quarantined {
                cause: cause.clone(),
            },
            0.0,
        ),
        (None, 0) => (RuleHealth::Completed, 1.0),
        (None, units_skipped) => {
            let done = m.units_processed as f64;
            let score = done / (done + units_skipped as f64);
            (RuleHealth::Degraded { units_skipped }, score)
        }
    };
    let (health, scores): (Vec<_>, Vec<f64>) = members.iter().map(health).unzip();
    let names = members.iter().map(|m| m.pipeline.rule.name().to_string());
    let completeness = match scores.len() {
        0 => 1.0,
        n => scores.iter().sum::<f64>() / n as f64,
    };
    let rules = names.zip(health).collect();
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
/// member.
///
/// Each [`RuleGroup`] runs its passes, owns its rules' health and keeps
/// its resident store, and the batch drives it as a session does: the
/// first detect is [`RuleGroup::open`], one full pass that seeds the
/// store, and every later one [`RuleGroup::redetect`] over the tuples
/// repair changed — single units detect only those, a Block group only
/// the buckets they joined, an LSH rule only the runs they joined, an
/// inequality rule joins only them against its parts, and a cross
/// product pairs only them with its one global bucket.
struct BatchTarget<'a> {
    executor: &'a Executor,
    groups: Vec<RuleGroup>,
    table: Table,
    /// The detections of the table as of the last detect…
    detected: Vec<Detected>,
    /// …and, index for index, the rule and candidate unit behind each.
    origins: Vec<(usize, Origin)>,
    /// What `apply` changed since the last detect: each changed tuple's
    /// table position and old version.
    pending: Option<Vec<(u64, Tuple)>>,
}

impl<'a> BatchTarget<'a> {
    /// A target over `table` that has detected nothing yet.
    fn new(
        executor: &'a Executor,
        rules: &[Arc<dyn Rule>],
        table: &Table,
        options: &CleanseOptions,
    ) -> Self {
        let pipelines = pipelines(rules, table.name());
        BatchTarget {
            executor,
            groups: RuleGroup::of(&pipelines, options.isolation),
            table: table.clone(),
            detected: Vec::new(),
            origins: Vec::new(),
            pending: None,
        }
    }

    /// Drop the carried detections whose origin fails `stands`.
    fn retract(&mut self, stands: impl Fn(&(usize, Origin)) -> bool) {
        let keep: Vec<bool> = self.origins.iter().map(&stands).collect();
        let mut kept = keep.into_iter();
        self.detected.retain(|_| kept.next() == Some(true));
        self.origins.retain(stands);
    }
}

impl RepairTarget for BatchTarget<'_> {
    /// One isolation-aware detect round: a shared scan, then one pass
    /// per group of non-quarantined rules, each rule under its own
    /// guard ([`RuleGroup::run`]) — the group's open in the first round,
    /// its re-detect of what repair changed in every later one.
    /// A rule a pass quarantined (partial mode) contributes nothing from
    /// then on; strict mode propagates the first failure.
    fn detect(&mut self) -> Result<&[Detected]> {
        let engine = self.executor.engine().clone();
        let metrics = engine.metrics();
        // the first detect scans the table once, whatever its groups; a
        // re-detect counts what it touches as reprocessed instead
        let first = self.pending.is_none();
        if first {
            Metrics::add(&metrics.tuples_scanned, self.table.len() as u64);
        }
        let olds = self.pending.take().unwrap_or_default();
        let executor = self.executor;
        for g in 0..self.groups.len() {
            engine.check_cancelled()?;
            if self.groups[g].healthy().is_empty() {
                continue;
            }
            let table = &self.table;
            let seq_of = |id| table.position(id).expect("a live tuple") as u64;
            let outs = if first {
                self.groups[g].open(executor, table, seq_of)?
            } else {
                // reindex what repair changed: old versions out, new in
                let now = |at: u64| &table.tuples()[at as usize];
                let changes = olds
                    .iter()
                    .map(|(at, was)| (was.id(), Some(was), Some(now(*at))));
                let done = self.groups[g].redetect(executor, changes, seq_of)?;
                Metrics::add(&metrics.tuples_reprocessed, done.ids.len() as u64);
                Metrics::add(&metrics.blocks_dirty, done.keys.len() as u64);
                // a changed bucket's list detections go with it
                let hashes: HashSet<u64> = done
                    .change
                    .keys
                    .iter()
                    .map(|(k, _)| stable_hash_of(k))
                    .collect();
                let members = &self.groups[g].members;
                let rules: Vec<usize> = members.iter().map(|m| m.rule).collect();
                self.retract(|(rule, origin)| match origin {
                    Origin::Bucket(hash) => !rules.contains(rule) || !hashes.contains(hash),
                    Origin::Unit(..) => true,
                });
                done.outs
            };
            for (m, out) in outs {
                let rule = self.groups[g].members[m].rule;
                self.detected.extend(out.detected);
                self.origins
                    .extend(out.origins.into_iter().map(|o| (rule, o)));
            }
        }
        // a quarantined rule contributes nothing
        let members = self.groups.iter().flat_map(|g| &g.members);
        let quarantined: HashSet<usize> = members
            .filter(|m| m.quarantined.is_some())
            .map(|m| m.rule)
            .collect();
        if !quarantined.is_empty() {
            self.retract(|(rule, _)| !quarantined.contains(rule));
        }
        Ok(&self.detected)
    }

    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.table.cell_value(cell)
    }

    /// Apply a round's updates, keeping the old version of every tuple
    /// they change for the next detect's reindex, and retract the
    /// detections of every unit with a changed member right away, so
    /// the next detect's output never sits in memory next to what it
    /// replaces.
    fn apply(&mut self, updates: &Assignment) -> Result<()> {
        let ids: HashSet<TupleId> = updates.keys().map(|c| c.tuple).collect();
        let was = self.pending.get_or_insert_with(Default::default);
        let table = &self.table;
        for &id in &ids {
            let at = table.position(id).expect("a live tuple");
            was.push((at as u64, table.tuples()[at].clone()));
        }
        self.table = self.table.apply(updates)?;
        self.retract(|(_, origin)| match origin {
            Origin::Unit(a, b) => !ids.contains(a) && !ids.contains(b),
            Origin::Bucket(_) => true,
        });
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
    let mut target = BatchTarget::new(executor, rules, table, &options);
    let rounds = run_rounds(executor.engine(), &mut target, &options)?;
    Ok(CleanseResult {
        outcome: health_report(&target.groups),
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
    use bigdansing_dataflow::{Engine, IsolationOptions};
    use bigdansing_incremental::{DeltaBatch, Session};
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

    /// The batch target, checking after every detect that the join index
    /// of its inequality rule holds the rule's scope of the current table
    /// — what an index rebuilt from the table holds.
    struct JoinChecked<'a> {
        target: BatchTarget<'a>,
        rule: Arc<dyn Rule>,
        detects: usize,
    }

    impl RepairTarget for JoinChecked<'_> {
        fn detect(&mut self) -> Result<&[Detected]> {
            self.target.detect()?;
            self.detects += 1;
            let store = self.target.groups[0].store.as_ref();
            let index = store
                .and_then(|s| s.join())
                .expect("a DC group holds a join index");
            let shown = |ts: Vec<&Tuple>| {
                let mut shown: Vec<String> = ts.iter().map(|t| format!("{t:?}")).collect();
                shown.sort();
                shown
            };
            let table = self.target.table.tuples().iter();
            let scoped: Vec<Tuple> = table.flat_map(|t| self.rule.scope(t)).collect();
            assert_eq!(
                shown(index.records().collect()),
                shown(scoped.iter().collect())
            );
            Ok(&self.target.detected)
        }

        fn cell_value(&self, cell: Cell) -> Option<&Value> {
            self.target.cell_value(cell)
        }

        fn apply(&mut self, updates: &Assignment) -> Result<()> {
            self.target.apply(updates)
        }
    }

    /// An inequality DC that takes three detect rounds or more on two
    /// workers: each re-detect joins the repaired rows against the join
    /// index the round before merged, which holds the current table after
    /// every round, and the run ends where a sequential cleanse ends.
    #[test]
    fn a_dc_cleanse_joins_each_round_against_the_merged_index() {
        let schema = Schema::parse("salary,rate");
        let rows = (0..240i64).map(|i| {
            let s = (i * 37) % 161 - 80;
            vec![Value::Int(s), Value::Int(s / 8 + (i * 7) % 3 - 1)]
        });
        let t = Table::from_rows("tax", schema.clone(), rows.collect());
        let dc = "t1.salary >= t2.salary & t1.rate <= t2.rate";
        let rule: Arc<dyn Rule> = Arc::new(DcRule::parse(dc, &schema).unwrap());
        let rules = vec![Arc::clone(&rule)];
        let options = CleanseOptions {
            strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
            ..Default::default()
        };
        let exec = Executor::new(Engine::parallel(2));
        let target = BatchTarget::new(&exec, &rules, &t, &options);
        let mut checked = JoinChecked {
            target,
            rule,
            detects: 0,
        };
        let got = run_rounds(exec.engine(), &mut checked, &options).unwrap();
        assert!(checked.detects >= 3, "{} detect rounds", checked.detects);
        let seq = Executor::new(Engine::sequential());
        let want = cleanse_loop(&seq, &rules, &t, options.clone()).unwrap();
        let table = |t: &Table| bigdansing_common::csv::to_string(t);
        assert_eq!(table(&checked.target.table), table(&want.table));
        let counts = (got.iterations, got.cells_changed, got.converged);
        assert_eq!(
            counts,
            (want.iterations, want.cells_changed, want.converged)
        );
        let plan = exec.engine().explain();
        let sorts = plan.lines().filter(|l| l.contains("ocjoin.sort")).count();
        assert_eq!(
            sorts, 1,
            "re-detects join against the resident parts: {plan}"
        );
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
