//! Cross-system parity: every execution strategy, enhancer, and baseline
//! must agree on the *set* of violations; every repair distribution
//! strategy must agree with its centralized original.

use bigdansing::{BigDansing, CleanseOptions, RepairStrategy};
use bigdansing_baselines::{dedup_violations, nadeef, shark, sparksql, sqlengine};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Cell, Error, Schema, Table, Value};
use bigdansing_dataflow::{Engine, ExecMode, FaultInjector, FaultPolicy, MemoryBudget};
use bigdansing_datagen::{tax, tpch};
use bigdansing_plan::{DetectOutput, Executor, IterateStrategy, RulePipeline};
use bigdansing_repair::EquivalenceClassRepair;
use bigdansing_rules::{CfdRule, DcRule, DedupRule, FdRule, Rule, Violation};
use std::collections::BTreeSet;
use std::sync::Arc;

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

fn owned_keys(vs: &[Violation]) -> BTreeSet<VKey> {
    keys(vs.iter().collect())
}

fn phi1_data() -> (Table, Arc<dyn Rule>) {
    let gt = tax::taxa(600, 0.10, 11);
    let rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap());
    (gt.dirty, rule)
}

fn phi2_data() -> (Table, Arc<dyn Rule>) {
    let gt = tax::taxb(300, 0.10, 12);
    let rule: Arc<dyn Rule> = Arc::new(
        DcRule::parse(
            "t1.salary > t2.salary & t1.rate < t2.rate",
            gt.dirty.schema(),
        )
        .unwrap(),
    );
    (gt.dirty, rule)
}

#[test]
fn engines_agree_on_violation_sets() {
    for (table, rule) in [phi1_data(), phi2_data()] {
        let run = |e: Engine| {
            let exec = Executor::new(e);
            let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
            keys(out.detected.iter().map(|(v, _)| v).collect())
        };
        let seq = run(Engine::sequential());
        assert_eq!(seq, run(Engine::parallel(2)), "{}", rule.name());
        assert_eq!(seq, run(Engine::parallel(7)), "{}", rule.name());
        assert_eq!(seq, run(Engine::disk_backed(2)), "{}", rule.name());
        assert!(!seq.is_empty());
    }
}

/// An engine with a deterministic fault injector: every partition task has
/// a chance of panicking and every durable write (checkpoint spills
/// included) a chance of failing, all keyed off a fixed seed so runs are
/// reproducible.
fn faulty_engine(mode: ExecMode, seed: u64) -> Engine {
    Engine::builder(mode)
        .workers(3)
        .fault_policy(FaultPolicy::with_max_attempts(6))
        .fault_injector(
            FaultInjector::seeded(seed)
                .with_task_panics(0.15)
                .with_io_write_failures(0.15),
        )
        .build()
}

#[test]
fn engines_agree_on_violations_under_injected_faults() {
    // Acceptance: with seeded injected panics and spill write errors, the
    // Parallel and DiskBacked runs complete and match the fault-free
    // Sequential oracle exactly, with nonzero retry/panic counters.
    for (table, rule) in [phi1_data(), phi2_data()] {
        let oracle = {
            let exec = Executor::new(Engine::sequential());
            let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
            keys(out.detected.iter().map(|(v, _)| v).collect())
        };
        for mode in [ExecMode::Parallel, ExecMode::DiskBacked] {
            let engine = faulty_engine(mode, 0xB16D);
            let exec = Executor::new(engine);
            let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
            let got = keys(out.detected.iter().map(|(v, _)| v).collect());
            assert_eq!(oracle, got, "{} under {mode:?} faults", rule.name());
            let m = exec.engine().metrics();
            assert!(
                Metrics::get(&m.panics_caught) > 0,
                "{mode:?}: no panics were injected — injector not wired in"
            );
            assert!(
                Metrics::get(&m.tasks_retried) > 0,
                "{mode:?}: faults occurred but nothing was retried"
            );
        }
    }
}

#[test]
fn pressure_spill_under_memory_budget_matches_unbudgeted_run() {
    // Acceptance: a MemoryBudget far below the working set forces
    // checkpointed datasets to evict to disk (pressure_spills > 0), and
    // the violation set still matches the unbudgeted Sequential oracle.
    // Fused pipelines checkpoint only the detected output (intermediate
    // stages fuse away instead of materializing), so the budget is
    // sized against that one dataset.
    let (table, rule) = phi1_data();
    let oracle = {
        let exec = Executor::new(Engine::sequential());
        let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
        keys(out.detected.iter().map(|(v, _)| v).collect())
    };
    let engine = Engine::builder(ExecMode::Parallel)
        .workers(2)
        .memory_budget(MemoryBudget::new(512, 64 * 1024 * 1024))
        .build();
    let exec = Executor::new(engine);
    let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
    assert_eq!(
        oracle,
        keys(out.detected.iter().map(|(v, _)| v).collect()),
        "budgeted run diverged from the oracle"
    );
    let m = exec.engine().metrics();
    assert!(
        Metrics::get(&m.bytes_tracked) > 512,
        "working set never exceeded the budget — test proves nothing"
    );
    assert!(
        Metrics::get(&m.pressure_spills) > 0,
        "budget below the working set but nothing was evicted"
    );
}

#[test]
fn repairs_agree_under_injected_faults() {
    // The full detect ⇄ repair loop must also be fault-transparent: the
    // repaired table from a faulty engine matches the fault-free one.
    let gt = tax::taxa(400, 0.10, 16);
    let run = |engine: Engine| {
        let mut sys = BigDansing::on_engine(engine);
        sys.add_fd("zipcode -> city", gt.dirty.schema()).unwrap();
        sys.cleanse(&gt.dirty, CleanseOptions::default())
            .unwrap()
            .table
    };
    let oracle = run(Engine::sequential());
    let parallel = run(faulty_engine(ExecMode::Parallel, 0xFA157));
    let disk = run(faulty_engine(ExecMode::DiskBacked, 0xFA157));
    assert_eq!(oracle.diff_cells(&parallel), 0, "parallel repair diverged");
    assert_eq!(oracle.diff_cells(&disk), 0, "disk-backed repair diverged");
}

#[test]
fn exhausted_retries_surface_a_typed_task_error() {
    // Acceptance: when every attempt fails, the job returns Error::Task
    // naming the failing partition — it must not propagate a panic.
    let (table, rule) = phi1_data();
    let engine = Engine::builder(ExecMode::Parallel)
        .workers(2)
        .fault_policy(FaultPolicy::with_max_attempts(2))
        .fault_injector(FaultInjector::seeded(7).with_task_panics(1.0))
        .build();
    let exec = Executor::new(engine);
    match exec.detect(&table, &[Arc::clone(&rule)]) {
        Err(Error::Task {
            attempts, cause, ..
        }) => {
            assert_eq!(attempts, 2);
            assert!(cause.contains("injected panic"), "cause: {cause}");
        }
        other => panic!("expected Error::Task, got {other:?}"),
    }
}

#[test]
fn bigdansing_matches_every_baseline_on_fd() {
    let (table, rule) = phi1_data();
    let exec = Executor::new(Engine::parallel(2));
    let bd = keys(
        exec.detect(&table, &[Arc::clone(&rule)])
            .unwrap()
            .detected
            .iter()
            .map(|(v, _)| v)
            .collect(),
    );
    let nad: Vec<Violation> = nadeef::detect(&table, &[Arc::clone(&rule)])
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    assert_eq!(bd, owned_keys(&nad));
    let e = Engine::sequential();
    let pg = dedup_violations(sqlengine::detect(&e, &table, &rule));
    assert_eq!(bd, owned_keys(&pg));
    let e = Engine::parallel(2);
    let ss = dedup_violations(sparksql::detect(&e, &table, &rule).unwrap());
    assert_eq!(bd, owned_keys(&ss));
    let sh = dedup_violations(shark::detect(&e, &table, &rule).unwrap());
    assert_eq!(bd, owned_keys(&sh));
}

#[test]
fn bigdansing_matches_every_baseline_on_inequality_dc() {
    let (table, rule) = phi2_data();
    let exec = Executor::new(Engine::parallel(2));
    let bd = keys(
        exec.detect(&table, &[Arc::clone(&rule)])
            .unwrap()
            .detected
            .iter()
            .map(|(v, _)| v)
            .collect(),
    );
    let nad: Vec<Violation> = nadeef::detect(&table, &[Arc::clone(&rule)])
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    assert_eq!(bd, owned_keys(&nad), "NADEEF disagrees");
    let e = Engine::sequential();
    let pg = sqlengine::detect(&e, &table, &rule);
    assert_eq!(bd, owned_keys(&pg), "PostgreSQL-sim disagrees");
    let e = Engine::parallel(2);
    let sh = shark::detect(&e, &table, &rule).unwrap();
    assert_eq!(bd, owned_keys(&sh), "Shark-sim disagrees");
}

#[test]
fn ocjoin_pipeline_matches_cross_product_pipeline() {
    let (table, rule) = phi2_data();
    let exec = Executor::new(Engine::parallel(2));
    let conds = rule.ordering_conditions();
    let run = |strategy: IterateStrategy| {
        let p = RulePipeline {
            rule: Arc::clone(&rule),
            source: "t".into(),
            use_scope: true,
            strategy,
            use_genfix: false,
        };
        let out = exec
            .run_group(exec.load(&table), table.schema(), &[&p], None)
            .unwrap();
        keys(out[0].detected.iter().map(|(v, _)| v).collect())
    };
    let oc = run(IterateStrategy::OcJoin(conds));
    let cp = run(IterateStrategy::CrossProduct);
    assert_eq!(oc, cp);
    assert!(!oc.is_empty());
}

#[test]
fn blocked_and_detect_only_find_the_same_fd_violations() {
    // FD scope is not identity, so build an identity-scope rule via a
    // pre-projected table
    let gt = tax::taxa(400, 0.10, 13);
    let rule: Arc<dyn Rule> = Arc::new(FdRule::from_indices("fd:zip->city", vec![0], vec![1]));
    let projected = Table::from_rows(
        "p",
        bigdansing_common::Schema::parse("zipcode,city"),
        gt.dirty
            .tuples()
            .iter()
            .map(|t| {
                vec![
                    t.value(tax::attr::ZIPCODE).clone(),
                    t.value(tax::attr::CITY).clone(),
                ]
            })
            .collect(),
    );
    let exec = Executor::new(Engine::parallel(2));
    let blocked = keys(
        exec.detect(&projected, &[Arc::clone(&rule)])
            .unwrap()
            .detected
            .iter()
            .map(|(v, _)| v)
            .collect(),
    );
    let only = keys(
        exec.detect_only(&projected, rule)
            .unwrap()
            .detected
            .iter()
            .map(|(v, _)| v)
            .collect(),
    );
    assert_eq!(blocked, only);
}

#[test]
fn distributed_and_serial_equivalence_class_repair_identically() {
    let gt = tpch::tpch(800, 0.10, 14);
    let run = |strategy: RepairStrategy| {
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("o_custkey -> c_address", gt.dirty.schema())
            .unwrap();
        sys.cleanse(
            &gt.dirty,
            CleanseOptions {
                strategy,
                ..Default::default()
            },
        )
        .unwrap()
        .table
    };
    let a = run(RepairStrategy::DistributedEquivalence);
    let b = run(RepairStrategy::SerialBlackBox(Arc::new(
        EquivalenceClassRepair,
    )));
    let c = run(RepairStrategy::ParallelBlackBox(Arc::new(
        EquivalenceClassRepair,
    )));
    assert_eq!(a.diff_cells(&b), 0, "distributed vs serial");
    assert_eq!(a.diff_cells(&c), 0, "distributed vs per-CC parallel");
}

// --------------------------------------------------------------------
// Stage-graph fusion parity: the executor now builds every pipeline on
// the lazy Stage API, so Scope/Block/Iterate/Detect/GenFix fuse into
// few physical passes. Each pipeline shape must produce byte-identical
// violations *and* fixes under fused Parallel/DiskBacked execution —
// including with injected faults and a tight memory budget — compared
// to the Sequential oracle.

/// The full detected output (violations with their generated fixes),
/// order-normalized so engines with different partition interleavings
/// compare byte-for-byte.
fn full_signature(out: &DetectOutput) -> BTreeSet<String> {
    out.detected
        .iter()
        .map(|(v, fixes)| format!("{v:?}|{fixes:?}"))
        .collect()
}

/// A table where the constant CFD `zipcode=90210 → city=LA` applies:
/// every third 90210 row carries SF and violates it.
fn cfd_shape() -> (Table, Arc<dyn Rule>) {
    let rows = (0..240)
        .map(|i| match i % 3 {
            0 => vec![Value::Int(90210), Value::str("LA")],
            1 => vec![Value::Int(90210), Value::str("SF")],
            _ => vec![Value::Int(10001), Value::str("NY")],
        })
        .collect();
    let table = Table::from_rows("cfd", Schema::parse("zipcode,city"), rows);
    let rule: Arc<dyn Rule> = Arc::new(
        CfdRule::parse("zipcode -> city | zipcode=90210, city=LA", table.schema()).unwrap(),
    );
    (table, rule)
}

/// One instance of every physical pipeline shape the translator emits:
/// FD → blocked pairs, constant CFD → single units, inequality DC →
/// OCJoin, unblocked dedup → UCrossProduct.
fn shape_suite() -> Vec<(&'static str, Table, Arc<dyn Rule>)> {
    let fd = tax::taxa(300, 0.10, 21);
    let fd_rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", fd.dirty.schema()).unwrap());
    let (cfd_table, cfd_rule) = cfd_shape();
    let dc = tax::taxb(120, 0.10, 22);
    let dc_rule: Arc<dyn Rule> = Arc::new(
        DcRule::parse(
            "t1.salary > t2.salary & t1.rate < t2.rate",
            dc.dirty.schema(),
        )
        .unwrap(),
    );
    let dd = tax::taxa(80, 0.10, 23);
    let dd_rule: Arc<dyn Rule> =
        Arc::new(DedupRule::new("udf:dedup", tax::attr::CITY, 0.5).with_block_prefix(0));
    vec![
        ("fd/block-pairs", fd.dirty, fd_rule),
        ("cfd/single-units", cfd_table, cfd_rule),
        ("dc/ocjoin", dc.dirty, dc_rule),
        ("dedup/ucross", dd.dirty, dd_rule),
    ]
}

fn detect_signature(engine: Engine, table: &Table, rule: &Arc<dyn Rule>) -> BTreeSet<String> {
    let exec = Executor::new(engine);
    full_signature(&exec.detect(table, &[Arc::clone(rule)]).unwrap())
}

#[test]
fn fused_shapes_match_sequential_oracle() {
    for (shape, table, rule) in shape_suite() {
        let oracle = detect_signature(Engine::sequential(), &table, &rule);
        assert!(!oracle.is_empty(), "{shape}: oracle found nothing");
        for engine in [
            Engine::parallel(2),
            Engine::parallel(5),
            Engine::disk_backed(2),
        ] {
            assert_eq!(
                oracle,
                detect_signature(engine, &table, &rule),
                "{shape}: fused run diverged from the Sequential oracle"
            );
        }
    }
}

#[test]
fn fused_shapes_match_oracle_under_injected_faults() {
    // A retried partition re-runs its whole fused chain; the output must
    // not change. Panic probability is per task, so assert injection
    // fired across the suite rather than per shape.
    let mut panics = 0;
    for (shape, table, rule) in shape_suite() {
        let oracle = detect_signature(Engine::sequential(), &table, &rule);
        let engine = faulty_engine(ExecMode::Parallel, 0xF0_5ED);
        let exec = Executor::new(engine);
        let got = full_signature(&exec.detect(&table, &[Arc::clone(&rule)]).unwrap());
        assert_eq!(oracle, got, "{shape}: diverged under injected faults");
        panics += Metrics::get(&exec.engine().metrics().panics_caught);
    }
    assert!(panics > 0, "no panics injected — injector not wired in");
}

#[test]
fn fused_shapes_match_oracle_under_memory_budget() {
    // A budget far below the working set evicts checkpointed partitions
    // mid-run; re-reading them through the fused pipeline must be exact.
    let mut spills = 0;
    for (shape, table, rule) in shape_suite() {
        let oracle = detect_signature(Engine::sequential(), &table, &rule);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .memory_budget(MemoryBudget::new(4 * 1024, 64 * 1024 * 1024))
            .build();
        let exec = Executor::new(engine);
        let got = full_signature(&exec.detect(&table, &[Arc::clone(&rule)]).unwrap());
        assert_eq!(oracle, got, "{shape}: diverged under a memory budget");
        spills += Metrics::get(&exec.engine().metrics().pressure_spills);
    }
    assert!(
        spills > 0,
        "budget below the working set but nothing spilled"
    );
}

#[test]
fn fd_pipeline_runs_strictly_fewer_passes_than_stages() {
    // Acceptance: a Scope→Block→Iterate→Detect FD pipeline fuses into
    // fewer physical passes than it has logical stages, and the pass
    // counters prove it.
    let (table, rule) = phi1_data();
    let exec = Executor::new(Engine::parallel(2));
    exec.detect(&table, &[rule]).unwrap();
    let m = exec.engine().metrics().snapshot();
    assert!(m.passes_executed > 0, "no passes recorded");
    assert!(m.stages_fused > 0, "nothing fused");
    let logical_stages = m.passes_executed + m.stages_fused;
    assert!(
        m.passes_executed < logical_stages,
        "{} passes for {} logical stages — fusion did nothing",
        m.passes_executed,
        logical_stages
    );
}

#[test]
fn explain_renders_the_fd_stage_graph() {
    let (table, rule) = phi1_data();
    let exec = Executor::new(Engine::parallel(2));
    exec.detect(&table, &[rule]).unwrap();
    let plan = exec.engine().explain();
    assert!(plan.contains("stage graph:"), "{plan}");
    assert!(plan.contains("shuffle-map"), "{plan}");
    assert!(plan.contains("scope(fd:zipcode->city)"), "{plan}");
    assert!(
        plan.contains("iterate+detect+genfix(fd:zipcode->city)"),
        "{plan}"
    );
}

#[test]
fn shared_scan_and_unconsolidated_detection_agree() {
    let gt = tax::taxa(500, 0.10, 15);
    let rules: Vec<Arc<dyn Rule>> = vec![
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap()),
        Arc::new(FdRule::parse("zipcode -> state", gt.dirty.schema()).unwrap()),
    ];
    let exec = Executor::new(Engine::parallel(2));
    let shared = exec.detect(&gt.dirty, &rules).unwrap();
    let mut separate = DetectOutput::default();
    for rule in &rules {
        separate.extend(exec.detect(&gt.dirty, std::slice::from_ref(rule)).unwrap());
    }
    assert_eq!(
        keys(shared.detected.iter().map(|(v, _)| v).collect()),
        keys(separate.detected.iter().map(|(v, _)| v).collect())
    );
}

// --- the cleanse loop against a full-re-detect oracle -------------------

mod cleanse_loop_vs_full_redetect {
    use super::*;
    use bigdansing::cleanse::{cleanse_loop, CleanseResult};
    use bigdansing::HypergraphRepair;
    use bigdansing_common::rng::check;
    use bigdansing_common::{csv, LshParams, Tuple};
    use bigdansing_incremental::{run_rounds, RepairTarget, RoundsReport};
    use bigdansing_repair::{Assignment, Detected};
    use bigdansing_rules::{BlockKey, DetectUnit, Fix, UdfRule, UnitKind};

    /// The oracle: the shared rounds driver over a target that
    /// re-detects the whole table every round through the public
    /// [`Executor::detect`] — what `cleanse_loop` did before its
    /// re-detects became semi-naive — one rule at a time, so no two
    /// rules ever share a Block pass.
    struct FullRedetect<'a> {
        exec: &'a Executor,
        rules: &'a [Arc<dyn Rule>],
        table: Table,
        detected: Vec<Detected>,
    }

    impl RepairTarget for FullRedetect<'_> {
        fn detect(&mut self) -> bigdansing_common::Result<&[Detected]> {
            self.detected.clear();
            for rule in self.rules {
                let alone = self.exec.detect(&self.table, std::slice::from_ref(rule))?;
                self.detected.extend(alone.detected);
            }
            Ok(&self.detected)
        }

        fn cell_value(&self, cell: Cell) -> Option<&Value> {
            self.table.cell_value(cell)
        }

        fn apply(&mut self, updates: &Assignment) -> bigdansing_common::Result<()> {
            self.table = self.table.apply(updates)?;
            Ok(())
        }
    }

    const SCHEMA: &str = "a,b,c,d,name";
    const A: usize = 0;
    const C: usize = 2;
    const D: usize = 3;
    const NAME: usize = 4;

    /// `target := source` for a violation whose first two cells are the
    /// target and the source.
    fn copy_fix(v: &Violation) -> Vec<Fix> {
        let [(target, old), (source, new)] = [v.cells()[0].clone(), v.cells()[1].clone()];
        vec![Fix::assign_cell(target, old, source, new)]
    }

    fn complain(rule: &str, target: &Tuple, source: &Tuple, attr: usize) -> Violation {
        Violation::new(rule)
            .with_cell(target.cell(attr), target.value(attr).clone())
            .with_cell(source.cell(attr), source.value(attr).clone())
    }

    fn int(t: &Tuple, attr: usize) -> i64 {
        t.value(attr).as_i64().unwrap_or(0)
    }

    /// A list UDF that declares its Block key, source column `a`, so it
    /// joins the shared Block pass of the other rules on `a`.
    struct ListOnA(UdfRule);

    impl Rule for ListOnA {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn block(&self, unit: &Tuple) -> Option<BlockKey> {
            self.0.block(unit)
        }
        fn blocks(&self) -> bool {
            self.0.blocks()
        }
        fn block_columns(&self) -> Option<&[usize]> {
            Some(&[A])
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

    /// One rule per [`IterateStrategy`], with `a -> b` / `b -> a`
    /// re-breaking each other so the loop runs long enough to freeze
    /// cells. The list rule declares no Block columns, so it runs as a
    /// group of one keyed by its Scope; five more rules block on `a`
    /// beside `a -> b` — the same list rule declaring its columns, a
    /// second FD, a variable CFD whose Scope drops rows, an equality
    /// DC — so a subset draws shared Block passes of one to six rules.
    fn rule_pool(schema: &Schema) -> Vec<(IterateStrategy, Arc<dyn Rule>)> {
        let fd = |spec: &str| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, schema).unwrap()) };
        // BlockList: within a block of equal `a`, every `c` must equal
        // the first row's
        let list = |name: &'static str| {
            UdfRule::builder(name, move |unit| {
                let DetectUnit::List(block) = unit else {
                    panic!("list rule fed {unit:?}");
                };
                let odd = block.iter().filter(|t| t.value(C) != block[0].value(C));
                odd.map(|t| complain(name, t, &block[0], C)).collect()
            })
            .unit_kind(UnitKind::List)
            .block(|t| Some(BlockKey::single(t.value(A).clone())))
            .gen_fix(copy_fix)
            .build()
        };
        // UCrossProduct: rows with equal `d` must agree on `c`
        let unordered = UdfRule::builder("udf:unordered", |unit| {
            let (x, y) = unit.as_pair();
            let clash = x.value(D) == y.value(D) && x.value(C) != y.value(C);
            Vec::from_iter(clash.then(|| complain("udf:unordered", y, x, C)))
        })
        .gen_fix(copy_fix);
        // CrossProduct: order-sensitive and unfixable
        let ordered = UdfRule::builder("udf:ordered", |unit| {
            let (x, y) = unit.as_pair();
            let hit = int(x, D) == int(y, C) + 3;
            Vec::from_iter(hit.then(|| complain("udf:ordered", x, y, D)))
        })
        .symmetric(false);
        // SingleUnits: `d` may not be negative
        let single = UdfRule::builder("udf:single", |unit| {
            let DetectUnit::Single(t) = unit else {
                panic!("single rule fed {unit:?}");
            };
            let bad = int(t, D) < 0;
            Vec::from_iter(
                bad.then(|| Violation::new("udf:single").with_cell(t.cell(D), t.value(D).clone())),
            )
        })
        .unit_kind(UnitKind::Single)
        .gen_fix(|v| {
            let (cell, old) = v.cells()[0].clone();
            vec![Fix::assign_const(cell, old, Value::Int(0))]
        });
        let dc = DcRule::parse("t1.c > t2.c & t1.d < t2.d", schema).unwrap();
        let dedup = DedupRule::new("udf:dedup", NAME, 0.7).with_lsh(LshParams::default());
        let cfd = CfdRule::parse("a -> d | a=1, d=_", schema).unwrap();
        let equality_dc = DcRule::parse("t1.a = t2.a & t1.c != t2.c", schema).unwrap();
        let pool: Vec<Arc<dyn Rule>> = vec![
            fd("a -> b"),
            fd("b -> a"),
            Arc::new(list("udf:list")),
            Arc::new(dc),
            Arc::new(dedup),
            Arc::new(unordered.build()),
            Arc::new(ordered.build()),
            Arc::new(single.build()),
            Arc::new(ListOnA(list("udf:list_on_a"))),
            fd("a -> c"),
            Arc::new(cfd),
            Arc::new(equality_dc),
        ];
        let strategy = |r: &Arc<dyn Rule>| bigdansing_plan::physical::choose_strategy(r.as_ref());
        pool.into_iter().map(|r| (strategy(&r), r)).collect()
    }

    /// What a cleanse run is compared on.
    fn outcome(table: &Table, r: RoundsReport) -> (String, [usize; 4], u64, bool) {
        let counts = [
            r.iterations,
            r.total_violations,
            r.cells_changed,
            r.frozen_cells,
        ];
        let cost = r.repair_cost.to_bits();
        (csv::to_string(table), counts, cost, r.converged)
    }

    #[test]
    fn the_pool_covers_every_iterate_strategy() {
        let pool = rule_pool(&Schema::parse(SCHEMA));
        let has = |want: fn(&IterateStrategy) -> bool| pool.iter().any(|(s, _)| want(s));
        assert!(has(|s| matches!(s, IterateStrategy::SingleUnits)));
        assert!(has(|s| matches!(s, IterateStrategy::BlockPairs { .. })));
        assert!(has(|s| matches!(s, IterateStrategy::BlockList)));
        assert!(has(|s| matches!(s, IterateStrategy::LshBlocks)));
        assert!(has(|s| matches!(s, IterateStrategy::UCrossProduct)));
        assert!(has(|s| matches!(s, IterateStrategy::CrossProduct)));
        assert!(has(|s| matches!(s, IterateStrategy::OcJoin(_))));
    }

    /// `cleanse_loop` — semi-naive re-detects, carried detections —
    /// ends exactly where full re-detection every round ends, on
    /// every engine.
    #[test]
    fn semi_naive_rounds_match_full_redetect_rounds() {
        check(48, |g| {
            // 0–13 rows of (0..3, 0..3, 0..5, -1..5, `[ab]{2,5}`)
            let rows: Vec<Vec<Value>> = (0..g.range(0..14))
                .map(|_| {
                    let ints = [g.range(0..3), g.range(0..3), g.range(0..5), g.range(-1..5)];
                    let len = g.range(2..=5);
                    let name: String = (0..len).map(|_| ['a', 'b'][g.range(0..2usize)]).collect();
                    let mut cells: Vec<Value> = ints.into_iter().map(Value::Int).collect();
                    cells.push(Value::str(&name));
                    cells
                })
                .collect();
            let schema = Schema::parse(SCHEMA);
            let pool = rule_pool(&schema);
            let picked: Vec<bool> = pool.iter().map(|_| g.chance(0.5)).collect();
            let hypergraph = g.chance(0.5);
            let table = Table::from_rows("t", schema.clone(), rows);
            let mut rules: Vec<Arc<dyn Rule>> = pool
                .iter()
                .zip(&picked)
                .filter(|(_, on)| **on)
                .map(|((_, r), _)| Arc::clone(r))
                .collect();
            if rules.is_empty() {
                rules.extend(pool.iter().take(2).map(|(_, r)| Arc::clone(r)));
            }
            let options = CleanseOptions {
                max_iterations: 6,
                max_changes_per_cell: 2,
                strategy: match hypergraph {
                    true => RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
                    false => RepairStrategy::default(),
                },
                ..Default::default()
            };
            for engine in [
                Engine::sequential,
                || Engine::parallel(2),
                || Engine::disk_backed(2),
            ] {
                let exec = Executor::new(engine());
                let CleanseResult {
                    table: cleansed,
                    iterations,
                    total_violations,
                    cells_changed,
                    frozen_cells,
                    repair_cost,
                    converged,
                    ..
                } = cleanse_loop(&exec, &rules, &table, options.clone()).unwrap();
                let got = RoundsReport {
                    iterations,
                    total_violations,
                    cells_changed,
                    frozen_cells,
                    repair_cost,
                    converged,
                    stable: false,
                };

                let exec = Executor::new(engine());
                let mut oracle = FullRedetect {
                    exec: &exec,
                    rules: &rules,
                    table: table.clone(),
                    detected: Vec::new(),
                };
                let rounds = run_rounds(exec.engine(), &mut oracle, &options).unwrap();
                assert_eq!(
                    outcome(&cleansed, got),
                    outcome(&oracle.table, rounds),
                    "{:?}",
                    exec.engine().mode()
                );
            }
        });
    }
}
