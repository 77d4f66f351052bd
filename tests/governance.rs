//! Resource-governance acceptance tests: cooperative cancellation,
//! wall-clock deadlines, memory budgets, and admission control, wired
//! end to end through the `BigDansing` façade.
//!
//! Timing-dependent tests are made deterministic with the seeded
//! [`FaultInjector`]'s delay injection: when *every* task sleeps a fixed
//! duration, a stage over P partitions on W workers takes at least
//! `P / W × delay` — so deadlines and cancellation points can be placed
//! with arithmetic instead of luck.

use bigdansing::{
    AdmissionControl, BigDansing, CancelReason, CleanseOptions, DeltaBatch, Engine, Error,
    ExecMode, FaultInjector, FaultMode, IsolationOptions, MemoryBudget, RuleHealth,
};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Cell, Schema, Table, Tuple, Value};
use bigdansing_datagen::tax;
use bigdansing_plan::Executor;
use bigdansing_rules::{
    BlockKey, DcRule, DetectUnit, FdRule, Fix, Rule, UdfRule, UnitKind, Violation,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

type VKey = BTreeSet<(Cell, String)>;

fn keys(vs: Vec<&Violation>) -> BTreeSet<VKey> {
    vs.into_iter()
        .map(|v| {
            v.cells()
                .iter()
                .map(|(c, val)| (*c, val.to_string()))
                .collect()
        })
        .collect()
}

fn taxa_fd() -> (Table, Arc<dyn Rule>) {
    let gt = tax::taxa(600, 0.10, 11);
    let rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap());
    (gt.dirty, rule)
}

fn sequential_oracle(table: &Table, rule: &Arc<dyn Rule>) -> BTreeSet<VKey> {
    let exec = Executor::new(Engine::sequential());
    let out = exec.detect(table, &[Arc::clone(rule)]).unwrap();
    keys(out.detected.iter().map(|(v, _)| v).collect())
}

fn spill_dir_is_empty(e: &Engine) -> bool {
    match std::fs::read_dir(e.spill_dir()) {
        Ok(rd) => rd.count() == 0,
        Err(_) => true, // never created, or already removed
    }
}

/// The headline acceptance test: a job with a 50 ms deadline on a
/// delay-injected engine is cancelled with `DeadlineExceeded` and its
/// spill files removed, while a sibling job admitted through the same
/// gate completes identical to the Sequential oracle.
#[test]
fn deadline_trips_doomed_job_while_admitted_sibling_matches_oracle() {
    let (table, rule) = taxa_fd();
    let oracle = sequential_oracle(&table, &rule);
    let adm = AdmissionControl::queue(1, 4);

    // Every task sleeps 20 ms: 8 default partitions on 2 workers means
    // the first stage alone takes ≥ 80 ms, well past the 50 ms deadline.
    let doomed_engine = Engine::builder(ExecMode::DiskBacked)
        .workers(2)
        .fault_injector(FaultInjector::seeded(9).with_delays(1.0, Duration::from_millis(20)))
        .build();
    let mut doomed_sys = BigDansing::on_engine(doomed_engine.clone())
        .with_deadline(Duration::from_millis(50))
        .with_admission(adm.clone());
    doomed_sys
        .add_fd("zipcode -> city", table.schema())
        .unwrap();
    let doomed_table = table.clone();
    let doomed = std::thread::spawn(move || doomed_sys.detect(&doomed_table).map(|_| ()));

    let mut sibling = BigDansing::parallel(2).with_admission(adm);
    sibling.add_fd("zipcode -> city", table.schema()).unwrap();
    let sib_out = sibling.detect(&table).unwrap();
    assert_eq!(
        oracle,
        keys(sib_out.detected.iter().map(|(v, _)| v).collect()),
        "sibling job diverged from the Sequential oracle"
    );

    let err = doomed.join().unwrap().unwrap_err();
    match err {
        Error::Cancelled { reason, .. } => assert_eq!(reason, CancelReason::DeadlineExceeded),
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    let m = doomed_engine.metrics();
    assert!(
        Metrics::get(&m.deadline_trips) >= 1,
        "deadline trip not counted"
    );
    assert!(Metrics::get(&m.jobs_cancelled) >= 1);
    assert!(
        spill_dir_is_empty(&doomed_engine),
        "cancelled job left orphan spill files in {}",
        doomed_engine.spill_dir().display()
    );
}

/// User-initiated cancellation mid-OCJoin: the token tripped from
/// another thread surfaces as a typed `Error::Cancelled` and the job's
/// spill files are cleaned up.
#[test]
fn user_cancellation_mid_ocjoin_leaves_no_orphan_spill_files() {
    let gt = tax::taxb(300, 0.10, 12);
    let rule: Arc<dyn Rule> = Arc::new(
        DcRule::parse(
            "t1.salary > t2.salary & t1.rate < t2.rate",
            gt.dirty.schema(),
        )
        .unwrap(),
    );
    // Every task sleeps 50 ms ⇒ the scope stage alone takes ≥ 200 ms;
    // a cancel at 60 ms is guaranteed to land mid-job.
    let engine = Engine::builder(ExecMode::DiskBacked)
        .workers(2)
        .fault_injector(FaultInjector::seeded(21).with_delays(1.0, Duration::from_millis(50)))
        .build();
    let guard = engine.begin_job("ocjoin-cancel", None);
    let token = guard.token().clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        token.cancel(CancelReason::User)
    });
    let exec = Executor::new(engine.clone());
    let result = guard.complete(exec.detect(&gt.dirty, &[rule]));
    assert!(canceller.join().unwrap(), "cancel arrived after completion");
    match result.unwrap_err() {
        Error::Cancelled { job, reason } => {
            assert_eq!(job, "ocjoin-cancel");
            assert_eq!(reason, CancelReason::User);
        }
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    assert_eq!(Metrics::get(&engine.metrics().jobs_cancelled), 1);
    assert!(
        spill_dir_is_empty(&engine),
        "cancelled job left orphan spill files in {}",
        engine.spill_dir().display()
    );
}

/// A deadline that trips inside the detect ⇄ repair loop is
/// deterministic under seeded delay injection: two identical runs
/// produce the same typed error and the same trip count.
#[test]
fn deadline_trip_during_repair_is_deterministic() {
    let gt = tax::taxa(300, 0.20, 17);
    let run = || {
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_injector(FaultInjector::seeded(5).with_delays(1.0, Duration::from_millis(10)))
            .build();
        let metrics = engine.metrics().clone();
        let mut sys = BigDansing::on_engine(engine).with_deadline(Duration::from_millis(120));
        sys.add_fd("zipcode -> city", gt.dirty.schema()).unwrap();
        let err = sys
            .cleanse(&gt.dirty, CleanseOptions::default())
            .unwrap_err();
        let reason = match err {
            Error::Cancelled { reason, .. } => reason,
            other => panic!("expected Error::Cancelled, got {other:?}"),
        };
        (reason, Metrics::get(&metrics.deadline_trips))
    };
    let first = run();
    let second = run();
    assert_eq!(first, (CancelReason::DeadlineExceeded, 1));
    assert_eq!(first, second, "deadline trip was not deterministic");
}

/// A single dataset past the hard memory ceiling cancels the offending
/// job with `MemoryExceeded` instead of aborting the process or growing
/// without bound.
#[test]
fn hard_memory_ceiling_cancels_the_job_with_memory_exceeded() {
    let (table, _) = taxa_fd();
    let engine = Engine::builder(ExecMode::Parallel)
        .workers(2)
        .memory_budget(MemoryBudget::new(16, 64))
        .build();
    let mut sys = BigDansing::on_engine(engine.clone());
    sys.add_fd("zipcode -> city", table.schema()).unwrap();
    match sys.detect(&table).unwrap_err() {
        Error::Cancelled { reason, .. } => assert_eq!(reason, CancelReason::MemoryExceeded),
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    assert_eq!(Metrics::get(&engine.metrics().jobs_cancelled), 1);
}

fn three_city_table() -> Table {
    let schema = Schema::parse("zipcode,city,state");
    Table::from_rows(
        "t",
        schema,
        vec![
            vec![Value::Int(1), Value::str("LA"), Value::str("CA")],
            vec![Value::Int(1), Value::str("SF"), Value::str("CA")],
            vec![Value::Int(1), Value::str("LA"), Value::str("CA")],
            vec![Value::Int(2), Value::str("NY"), Value::str("NY")],
            vec![Value::Int(2), Value::str("NY"), Value::str("NJ")],
        ],
    )
}

fn healthy_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
    vec![
        Arc::new(FdRule::parse("zipcode -> city", schema).unwrap()),
        Arc::new(FdRule::parse("zipcode -> state", schema).unwrap()),
    ]
}

/// The fault-isolation acceptance test: a three-rule cleanse in partial
/// mode completes with the always-panicking rule quarantined, the
/// repeated panic payload short-circuiting its retry budget, and the
/// healthy rules' repair byte-identical to a run that never registered
/// the faulty rule.
#[test]
fn partial_cleanse_quarantines_panicking_rule_and_matches_oracle() {
    let table = three_city_table();
    let oracle_sys = {
        let mut sys = BigDansing::sequential();
        sys.add_fd("zipcode -> city", table.schema()).unwrap();
        sys.add_fd("zipcode -> state", table.schema()).unwrap();
        sys
    };
    let oracle = oracle_sys
        .cleanse(&table, CleanseOptions::default())
        .unwrap();
    assert!(oracle.converged);

    let mut rules = healthy_rules(table.schema());
    rules.push(Arc::new(
        UdfRule::builder("udf:faulty", |_| panic!("faulty udf"))
            .unit_kind(UnitKind::Single)
            .build(),
    ));
    let engine = Engine::sequential();
    let exec = Executor::new(engine.clone());
    let result = bigdansing::cleanse::cleanse_loop(
        &exec,
        &rules,
        &table,
        CleanseOptions {
            isolation: IsolationOptions::partial(),
            ..Default::default()
        },
    )
    .unwrap();

    assert!(result.converged, "healthy rules must still converge");
    assert_eq!(
        result.table.diff_cells(&oracle.table),
        0,
        "partial-mode repair diverged from the faulty-rule-free oracle"
    );
    assert!(result.outcome.is_degraded());
    assert!(result.outcome.completeness < 1.0);
    let quarantined: Vec<&str> = result.outcome.quarantined().map(|(n, _)| n).collect();
    assert_eq!(quarantined, vec!["udf:faulty"]);
    for (name, health) in &result.outcome.rules {
        if name != "udf:faulty" {
            assert_eq!(*health, RuleHealth::Completed, "{name} should be healthy");
        }
    }
    let m = engine.metrics().snapshot();
    assert_eq!(m.rules_quarantined, 1);
    assert!(
        m.retries_short_circuited >= 1,
        "repeated panic payloads should fail fast instead of burning the retry budget"
    );
}

fn sleeping_udf(per_unit: Duration) -> Arc<dyn Rule> {
    Arc::new(
        UdfRule::builder("udf:hung", move |_| {
            std::thread::sleep(per_unit);
            vec![]
        })
        .unit_kind(UnitKind::Single)
        .build(),
    )
}

/// A rule that hangs (sleeps far past the soft per-rule time budget) is
/// timed out between detect units and quarantined in partial mode; in
/// strict mode the same timeout is a typed rule error.
#[test]
fn hung_rule_is_timed_out_and_quarantined_in_partial_mode() {
    let table = three_city_table();
    let mut iso = IsolationOptions::partial();
    iso.rule_time_budget = Some(Duration::from_millis(40));

    let mut rules = healthy_rules(table.schema());
    rules.push(sleeping_udf(Duration::from_millis(120)));
    let exec = Executor::new(Engine::sequential());
    let result = bigdansing::cleanse::cleanse_loop(
        &exec,
        &rules,
        &table,
        CleanseOptions {
            isolation: iso,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(result.converged, "healthy rules must still converge");
    let causes: Vec<(&str, &str)> = result.outcome.quarantined().collect();
    assert_eq!(causes.len(), 1, "outcome: {:?}", result.outcome);
    assert_eq!(causes[0].0, "udf:hung");
    assert!(
        causes[0].1.contains("time budget"),
        "cause should name the budget: {}",
        causes[0].1
    );
    assert!(result.outcome.completeness < 1.0);

    // Strict mode: the same hang is a typed, rule-attributed error.
    let strict_iso = IsolationOptions {
        rule_time_budget: Some(Duration::from_millis(40)),
        ..Default::default()
    };
    let err = bigdansing::cleanse::cleanse_loop(
        &Executor::new(Engine::sequential()),
        &rules,
        &table,
        CleanseOptions {
            isolation: strict_iso,
            ..Default::default()
        },
    )
    .unwrap_err();
    match err {
        Error::Rule { rule, cause } => {
            assert_eq!(rule, "udf:hung");
            assert!(cause.contains("time budget"), "{cause}");
        }
        other => panic!("expected Error::Rule, got {other:?}"),
    }
}

/// A session honours the rule time budget as the batch loop does: a
/// delta detect that runs past it quarantines the rule in partial mode,
/// with the batch loop's cause, and fails the apply in strict mode.
#[test]
fn session_times_out_a_hung_rule_like_the_batch_loop() {
    // An empty base opens without a detect; the batch's three inserts
    // give the sleeping rule three units, and the budget expires during
    // the first.
    let base = Table::from_rows("t", three_city_table().schema().clone(), vec![]);
    let batch = || {
        let row = |city: &str| vec![Value::Int(1), Value::str(city), Value::str("CA")];
        DeltaBatch::new()
            .insert(0, row("LA"))
            .insert(1, row("SF"))
            .insert(2, row("LA"))
    };
    let mut sys = BigDansing::sequential();
    sys.add_fd("zipcode -> city", base.schema()).unwrap();
    sys.add_rule(sleeping_udf(Duration::from_millis(60)));
    let budget = Some(Duration::from_millis(20));
    let options = |mut isolation: IsolationOptions| {
        isolation.rule_time_budget = budget;
        CleanseOptions {
            isolation,
            ..Default::default()
        }
    };

    let mut session = sys
        .open_session(&base, options(IsolationOptions::partial()))
        .unwrap();
    let report = sys.apply_delta(&mut session, batch()).unwrap();
    let timed_out = Error::Rule {
        rule: "udf:hung".into(),
        cause: "soft time budget exceeded".into(),
    };
    assert_eq!(
        session.quarantined_rules(),
        [("udf:hung".to_string(), timed_out.to_string())]
    );
    assert_eq!(report.rules_quarantined, 1);
    assert!(
        report.converged && session.is_clean(),
        "the FD still repairs"
    );

    let mut strict = sys
        .open_session(&base, options(IsolationOptions::default()))
        .unwrap();
    let err = sys.apply_delta(&mut strict, batch()).unwrap_err();
    assert_eq!(err, timed_out);
    assert!(strict.is_poisoned());
}

/// A session gates outlier blocks as the batch loop does. Partial mode:
/// both FDs skip the 3-row zipcode-1 block, count the same skipped
/// units, and hold and repair what a partial cleanse does. Strict mode:
/// opening over that block, or an apply that grows a 2-row block to 3,
/// fails with the batch's straggler error, and the apply poisons the
/// session.
#[test]
fn session_gates_outlier_blocks_like_the_batch_loop() {
    let table = three_city_table();
    let system = || {
        let mut sys = BigDansing::sequential();
        for rule in healthy_rules(table.schema()) {
            sys.add_rule(rule);
        }
        sys
    };
    let options = |mode| CleanseOptions {
        isolation: IsolationOptions {
            mode,
            max_block_size: Some(2),
            ..IsolationOptions::default()
        },
        ..Default::default()
    };
    let skipped = |sys: &BigDansing| sys.engine().metrics().snapshot().units_skipped;

    let batch_sys = system();
    let batch = batch_sys
        .cleanse(&table, options(FaultMode::Partial))
        .unwrap();
    assert!(batch.outcome.is_degraded());
    let sys = system();
    let mut session = sys
        .open_session(&table, options(FaultMode::Partial))
        .unwrap();
    // only the zipcode-2 state conflict: the zipcode-1 block is skipped
    let detected: Vec<Vec<u64>> = session
        .detected()
        .iter()
        .map(|(v, _)| v.tuple_ids())
        .collect();
    assert_eq!(detected, [vec![3, 4]]);
    let report = sys.apply_delta(&mut session, DeltaBatch::new()).unwrap();
    assert_eq!(report.total_violations, batch.total_violations);
    assert_eq!(session.table().tuples(), batch.table.tuples());
    assert_eq!(skipped(&sys), skipped(&batch_sys));
    assert!(skipped(&sys) > 0);

    let sys = system();
    let batch_err = sys.cleanse(&table, options(FaultMode::Strict)).unwrap_err();
    let Error::Rule { cause, .. } = &batch_err else {
        panic!("expected Error::Rule, got {batch_err:?}");
    };
    assert!(cause.contains("straggler"), "{cause}");
    let open_err = sys
        .open_session(&table, options(FaultMode::Strict))
        .err()
        .expect("the open gates the 3-row block");
    assert_eq!(open_err, batch_err);
    let two_rows: Vec<Vec<Value>> = [0, 1, 3, 4]
        .iter()
        .map(|&i| table.tuples()[i].to_values())
        .collect();
    let base = Table::from_rows("t", table.schema().clone(), two_rows);
    let mut session = sys.open_session(&base, options(FaultMode::Strict)).unwrap();
    let grow =
        DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("LA"), Value::str("CA")]);
    assert_eq!(sys.apply_delta(&mut session, grow).unwrap_err(), batch_err);
    assert!(session.is_poisoned());
}

/// One quarantine rule for batch and session: a panicking UDF beside an
/// FD is quarantined with the same cause by a partial cleanse and by a
/// partial session (open, then one delta), each engine counts one
/// quarantined rule, and the FD output equals an FD-only run.
#[test]
fn batch_and_session_quarantine_a_faulty_rule_alike() {
    let table = three_city_table();
    let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", table.schema()).unwrap());
    let faulty: Arc<dyn Rule> = Arc::new(
        UdfRule::builder("udf:faulty", |_| panic!("faulty udf"))
            .unit_kind(UnitKind::Single)
            .build(),
    );
    let system = |rules: &[&Arc<dyn Rule>]| {
        let mut sys = BigDansing::sequential();
        for rule in rules {
            sys.add_rule(Arc::clone(rule));
        }
        sys
    };
    let partial = || CleanseOptions {
        isolation: IsolationOptions::partial(),
        ..Default::default()
    };
    let quarantined = |sys: &BigDansing| sys.engine().metrics().snapshot().rules_quarantined;

    let sys = system(&[&fd, &faulty]);
    let batch = sys.cleanse(&table, partial()).unwrap();
    let oracle = system(&[&fd])
        .cleanse(&table, CleanseOptions::default())
        .unwrap();
    assert_eq!(batch.table.diff_cells(&oracle.table), 0);
    assert_eq!(quarantined(&sys), 1);
    let causes: Vec<(String, String)> = batch
        .outcome
        .quarantined()
        .map(|(rule, cause)| (rule.to_string(), cause.to_string()))
        .collect();
    assert_eq!(causes.len(), 1);
    assert_eq!(causes[0].0, "udf:faulty");

    let delta =
        DeltaBatch::new().insert(10, vec![Value::Int(2), Value::str("BOS"), Value::str("NY")]);
    let sys = system(&[&fd, &faulty]);
    let mut session = sys.open_session(&table, partial()).unwrap();
    sys.apply_delta(&mut session, delta.clone()).unwrap();
    assert_eq!(session.quarantined_rules(), causes);
    assert_eq!(quarantined(&sys), 1);
    let oracle_sys = system(&[&fd]);
    let mut oracle = oracle_sys
        .open_session(&table, CleanseOptions::default())
        .unwrap();
    oracle_sys.apply_delta(&mut oracle, delta).unwrap();
    assert_eq!(session.table().tuples(), oracle.table().tuples());
    assert_eq!(session.detected(), oracle.detected());
}

/// An FD on zipcode in every respect but Detect, which panics: it
/// declares the FDs' block columns, so it joins their shared Block pass.
struct PanickingFd(FdRule);

impl Rule for PanickingFd {
    fn name(&self) -> &str {
        "fd:panicking"
    }
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        self.0.scope(unit)
    }
    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        self.0.block(unit)
    }
    fn blocks(&self) -> bool {
        true
    }
    fn block_columns(&self) -> Option<&[usize]> {
        self.0.block_columns()
    }
    fn detect(&self, _: &DetectUnit<'_>) -> Vec<Violation> {
        panic!("panicking fd")
    }
    fn gen_fix(&self, _: &Violation) -> Vec<Fix> {
        Vec::new()
    }
}

/// Isolation inside a shared Block pass: a faulty rule grouped with two
/// FDs on its key is quarantined alone — by a partial cleanse and by a
/// partial session, with the same cause — and the FDs' output equals an
/// FD-only run.
#[test]
fn a_faulty_rule_in_a_shared_block_pass_is_quarantined_alone() {
    // eight two-row blocks: every reducer partition holds one, so the
    // batch pass fails in partition 0, where the session's first
    // delta-detect task runs
    let rows = (0..16i64).map(|i| {
        let city = if i % 5 == 1 { "SF" } else { "LA" };
        let state = if i % 7 == 3 { "NV" } else { "CA" };
        vec![Value::Int(i / 2), Value::str(city), Value::str(state)]
    });
    let table = Table::from_rows("t", three_city_table().schema().clone(), rows.collect());
    let [city, state] = healthy_rules(table.schema())
        .try_into()
        .unwrap_or_else(|_| unreachable!("two FDs"));
    let faulty: Arc<dyn Rule> = Arc::new(PanickingFd(
        FdRule::parse("zipcode -> state", table.schema()).unwrap(),
    ));
    let system = |rules: &[&Arc<dyn Rule>]| {
        let mut sys = BigDansing::sequential();
        for rule in rules {
            sys.add_rule(Arc::clone(rule));
        }
        sys
    };
    let partial = || CleanseOptions {
        isolation: IsolationOptions::partial(),
        ..Default::default()
    };
    let quarantined = |sys: &BigDansing| sys.engine().metrics().snapshot().rules_quarantined;

    let sys = system(&[&city, &faulty, &state]);
    let batch = sys.cleanse(&table, partial()).unwrap();
    let oracle = system(&[&city, &state])
        .cleanse(&table, CleanseOptions::default())
        .unwrap();
    assert_eq!(batch.table.diff_cells(&oracle.table), 0);
    assert_eq!(quarantined(&sys), 1);
    let causes: Vec<(String, String)> = batch
        .outcome
        .quarantined()
        .map(|(rule, cause)| (rule.to_string(), cause.to_string()))
        .collect();
    assert_eq!(causes.len(), 1);
    assert_eq!(causes[0].0, "fd:panicking");
    assert!(causes[0].1.contains("panicking fd"), "{}", causes[0].1);

    let delta = DeltaBatch::new().insert(
        100,
        vec![Value::Int(2), Value::str("BOS"), Value::str("NY")],
    );
    let sys = system(&[&city, &faulty, &state]);
    let mut session = sys.open_session(&table, partial()).unwrap();
    let report = sys.apply_delta(&mut session, delta.clone()).unwrap();
    assert_eq!(session.quarantined_rules(), causes);
    assert_eq!(report.rules_quarantined, 1);
    assert_eq!(quarantined(&sys), 1);
    let oracle_sys = system(&[&city, &state]);
    let mut oracle = oracle_sys
        .open_session(&table, CleanseOptions::default())
        .unwrap();
    oracle_sys.apply_delta(&mut oracle, delta).unwrap();
    assert_eq!(session.table().tuples(), oracle.table().tuples());
    assert_eq!(session.detected(), oracle.detected());
}

/// Two systems sharing one reject-on-full gate: while the first system's
/// job holds the single slot, the second system's job is rejected with a
/// typed error, and the first still completes.
#[test]
fn shared_admission_gate_rejects_overflow_across_systems() {
    let (table, _) = taxa_fd();
    let adm = AdmissionControl::reject(1);

    let slow_engine = Engine::builder(ExecMode::Parallel)
        .workers(2)
        .fault_injector(FaultInjector::seeded(3).with_delays(1.0, Duration::from_millis(20)))
        .build();
    let mut slow = BigDansing::on_engine(slow_engine.clone()).with_admission(adm.clone());
    slow.add_fd("zipcode -> city", table.schema()).unwrap();
    let slow_table = table.clone();
    let slow_job =
        std::thread::spawn(move || slow.detect(&slow_table).map(|o| o.violation_count()));

    // `tuples_scanned` is bumped by the load *inside* the governed job,
    // i.e. strictly after admission — once it is nonzero the slot is
    // held, and ≥ 160 ms of injected delays remain.
    while Metrics::get(&slow_engine.metrics().tuples_scanned) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let fast_engine = Engine::parallel(2);
    let mut fast = BigDansing::on_engine(fast_engine.clone()).with_admission(adm);
    fast.add_fd("zipcode -> city", table.schema()).unwrap();
    match fast.detect(&table).unwrap_err() {
        Error::Rejected { limit, .. } => assert_eq!(limit, 1),
        other => panic!("expected Error::Rejected, got {other:?}"),
    }
    assert_eq!(Metrics::get(&fast_engine.metrics().jobs_rejected), 1);

    let count = slow_job.join().unwrap().unwrap();
    assert!(count > 0, "slow job should have found violations");
}
