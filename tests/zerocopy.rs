//! Zero-copy detect path: equivalence against a deep-clone oracle and
//! an allocation-regression gate.
//!
//! The detect hot path moves tuple *handles* (shared row storage +
//! projection views) and dictionary-encoded blocking keys; nothing in
//! the pipeline may depend on tuples being deeply materialized. These
//! tests pit the production path against an oracle whose input tuples
//! are forcibly deep-materialized first — the outputs must be
//! byte-identical (violations **and** fixes) — and then gate every
//! pipeline shape on performing **zero** deep clones and on enumerating
//! the sequential engine's candidates.
//!
//! Zero-copy is not zero-contention: a handle clone is an atomic write
//! to a refcount. The contention gate checks that no such write lands
//! on an object every worker shares — candidate units lend their tuples
//! (`DetectUnit<'_>` is `Copy`) and Scope views carry their own column
//! map, so a rule's Scope selector keeps its refcount through a whole
//! detect and cleanse.

use bigdansing::{BigDansing, CleanseOptions};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{LshParams, Schema, Selector, Table, Tuple, Value};
use bigdansing_dataflow::{Engine, ExecMode, FaultInjector, FaultPolicy, MemoryBudget};
use bigdansing_datagen::tax;
use bigdansing_plan::{DetectOutput, Executor};
use bigdansing_rules::{
    BlockKey, CfdRule, DcRule, DedupRule, DetectUnit, FdRule, Fix, OrderCond, Rule, UdfRule,
    UnitKind, Violation,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

// Candidate units are loans: building, passing and dropping one never
// touches a refcount.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<DetectUnit<'static>>();
};

/// Byte-level signature of a detect run: violations with their fixes,
/// rendered through `Debug` so any drift in ids, cells, values, or fix
/// payloads shows up.
fn signature(out: &DetectOutput) -> BTreeSet<String> {
    detections(out).into_iter().collect()
}

/// Every detection's signature, sorted, duplicates kept.
fn detections(out: &DetectOutput) -> Vec<String> {
    let mut all: Vec<String> = out
        .detected
        .iter()
        .map(|(v, fixes)| format!("{v:?}|{fixes:?}"))
        .collect();
    all.sort();
    all
}

/// The deep-clone oracle input: every tuple forcibly materialized into
/// fresh owned storage, so the oracle run cannot share a byte with the
/// zero-copy run's views.
fn deep_materialized(table: &Table) -> Table {
    let tuples = table
        .tuples()
        .iter()
        .map(|t| Tuple::new(t.id(), t.to_values()))
        .collect();
    Table::new(table.name(), table.schema().clone(), tuples)
}

/// A pipeline shape: its name, input table, rule, and the rule's Scope
/// selector when it projects.
type Shape = (&'static str, Table, Arc<dyn Rule>, Option<Selector>);

/// One instance of every physical pipeline shape: FD → blocked pairs,
/// constant CFD → single units, inequality DC → OCJoin (streaming
/// sink), unblocked dedup → UCrossProduct, LSH dedup → band buckets.
/// Projecting rules come with their Scope selector.
fn shape_suite() -> Vec<Shape> {
    let fd = tax::taxa(300, 0.10, 31);
    let fd_rule = FdRule::parse("zipcode -> city", fd.dirty.schema()).unwrap();
    let fd_sel = fd_rule.scope_selector().clone();
    let cfd_rows = (0..240)
        .map(|i| match i % 3 {
            0 => vec![Value::Int(90210), Value::str("LA")],
            1 => vec![Value::Int(90210), Value::str("SF")],
            _ => vec![Value::Int(10001), Value::str("NY")],
        })
        .collect();
    let cfd_table = Table::from_rows("cfd", Schema::parse("zipcode,city"), cfd_rows);
    let cfd_rule = CfdRule::parse(
        "zipcode -> city | zipcode=90210, city=LA",
        cfd_table.schema(),
    )
    .unwrap();
    let cfd_sel = cfd_rule.scope_selector().clone();
    let dc = tax::taxb(120, 0.10, 32);
    let dc_rule = DcRule::parse(
        "t1.salary > t2.salary & t1.rate < t2.rate",
        dc.dirty.schema(),
    )
    .unwrap();
    let dc_sel = dc_rule.scope_selector().clone();
    let dd = tax::taxa(80, 0.10, 33);
    let dd_rule: Arc<dyn Rule> =
        Arc::new(DedupRule::new("udf:dedup", tax::attr::CITY, 0.5).with_block_prefix(0));
    let lsh_rule: Arc<dyn Rule> =
        Arc::new(DedupRule::new("udf:dedup", tax::attr::CITY, 0.85).with_lsh(LshParams::default()));
    vec![
        ("fd/block-pairs", fd.dirty, Arc::new(fd_rule), Some(fd_sel)),
        (
            "cfd/single-units",
            cfd_table,
            Arc::new(cfd_rule),
            Some(cfd_sel),
        ),
        ("dc/ocjoin", dc.dirty, Arc::new(dc_rule), Some(dc_sel)),
        ("dedup/ucross", dd.dirty.clone(), dd_rule, None),
        ("dedup/lsh-blocks", dd.dirty, lsh_rule, None),
    ]
}

#[test]
fn zero_copy_path_matches_deep_clone_oracle_under_injected_faults() {
    let mut panics = 0;
    for (shape, table, rule, _) in shape_suite() {
        let oracle = {
            let exec = Executor::new(Engine::sequential());
            let out = exec
                .detect(&deep_materialized(&table), &[Arc::clone(&rule)])
                .unwrap();
            signature(&out)
        };
        assert!(!oracle.is_empty(), "{shape}: oracle found nothing");
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(3)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(
                FaultInjector::seeded(0x2E50)
                    .with_task_panics(0.15)
                    .with_io_write_failures(0.15),
            )
            .build();
        let exec = Executor::new(engine);
        let got = signature(&exec.detect(&table, &[Arc::clone(&rule)]).unwrap());
        assert_eq!(
            oracle, got,
            "{shape}: zero-copy run diverged from the deep-clone oracle under faults"
        );
        panics += Metrics::get(&exec.engine().metrics().panics_caught);
    }
    assert!(panics > 0, "no panics injected — injector not wired in");
}

#[test]
fn zero_copy_path_matches_deep_clone_oracle_under_memory_budget() {
    let mut spills = 0;
    for (shape, table, rule, _) in shape_suite() {
        let oracle = {
            let exec = Executor::new(Engine::sequential());
            let out = exec
                .detect(&deep_materialized(&table), &[Arc::clone(&rule)])
                .unwrap();
            signature(&out)
        };
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .memory_budget(MemoryBudget::new(4 * 1024, 64 * 1024 * 1024))
            .build();
        let exec = Executor::new(engine);
        let got = signature(&exec.detect(&table, &[Arc::clone(&rule)]).unwrap());
        assert_eq!(
            oracle, got,
            "{shape}: zero-copy run diverged from the deep-clone oracle under a memory budget"
        );
        spills += Metrics::get(&exec.engine().metrics().pressure_spills);
    }
    assert!(spills > 0, "budget below working set but nothing spilled");
}

#[test]
fn every_shape_is_zero_copy_and_enumerates_the_sequential_candidates() {
    // Allocation-regression gate: Scope (projection views), Block
    // (dictionary-encoded keys, LSH band keys included), and the fused
    // Iterate→Detect→GenFix pass must move only handles. One deep copy
    // anywhere on a detect hot path — a `to_values()` materialization,
    // a `BlockKey` clone — and this counter goes nonzero. Coverage gate
    // beside it: a parallel engine enumerates, and detects, exactly the
    // candidates the sequential one does, so a faster run can never be
    // a run that looked at fewer pairs.
    for (shape, table, rule, _) in shape_suite() {
        let counts = |engine: Engine| {
            let exec = Executor::new(engine);
            let out = exec.detect(&table, &[Arc::clone(&rule)]).unwrap();
            assert!(!out.is_clean(), "{shape}: expected violations");
            let m = exec.engine().metrics().snapshot();
            ((m.pairs_generated, m.detect_calls), m.tuples_cloned)
        };
        let (sequential, _) = counts(Engine::sequential());
        for workers in [2, 4] {
            let (parallel, cloned) = counts(Engine::parallel(workers));
            assert_eq!(
                parallel, sequential,
                "{shape}: (pairs_generated, detect_calls) on {workers} workers differ from sequential"
            );
            assert_eq!(cloned, 0, "{shape}: deep-cloned tuple or key payloads");
        }
    }
}

#[test]
fn rules_on_one_block_key_shuffle_each_row_once_without_copies() {
    // Two FDs and a variable CFD on zipcode share one Block pass: the
    // first detect shuffles every row once, not once per rule,
    // deep-copies nothing, and enumerates and finds exactly what the
    // three rules do alone on the sequential engine.
    let table = tax::taxa(300, 0.10, 36).dirty;
    let schema = table.schema();
    let rules: Vec<Arc<dyn Rule>> = vec![
        Arc::new(FdRule::parse("zipcode -> city", schema).unwrap()),
        Arc::new(FdRule::parse("zipcode -> state", schema).unwrap()),
        Arc::new(CfdRule::parse("zipcode -> city | city=_", schema).unwrap()),
    ];
    let (mut alone, mut alone_pairs) = (DetectOutput::default(), 0);
    for rule in &rules {
        let exec = Executor::new(Engine::sequential());
        alone.extend(exec.detect(&table, std::slice::from_ref(rule)).unwrap());
        alone_pairs += exec.engine().metrics().snapshot().pairs_generated;
    }
    assert!(!alone.is_clean(), "expected violations");
    for workers in [2, 4] {
        let exec = Executor::new(Engine::parallel(workers));
        let out = exec.detect(&table, &rules).unwrap();
        let m = exec.engine().metrics().snapshot();
        assert_eq!(m.records_shuffled, table.len() as u64, "{workers} workers");
        assert_eq!(m.tuples_cloned, 0, "{workers} workers: deep copies");
        assert_eq!(m.pairs_generated, alone_pairs, "{workers} workers");
        assert_eq!(detections(&out), detections(&alone), "{workers} workers");
    }
}

#[test]
fn a_copy_made_on_another_thread_is_not_charged_to_a_running_pass() {
    // Deep copies count against the task that makes them. The rule's
    // first Detect call parks the pass between two barriers while
    // another thread materializes 100 rows; none of them is the pass's.
    let parked = Arc::new((Barrier::new(2), Barrier::new(2)));
    let first = AtomicBool::new(true);
    let barriers = Arc::clone(&parked);
    let rule: Arc<dyn Rule> = Arc::new(
        UdfRule::builder("udf:parked", move |_| {
            if first.swap(false, Ordering::SeqCst) {
                barriers.0.wait();
                barriers.1.wait();
            }
            Vec::new()
        })
        .block(|t| Some(BlockKey::single(t.value(0).clone())))
        .build(),
    );
    let table = Table::from_rows(
        "t",
        Schema::parse("zip,city"),
        vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(1), Value::str("SF")],
        ],
    );
    let other = std::thread::spawn(move || {
        let row = Tuple::new(9, vec![Value::Int(2), Value::str("NY")]);
        parked.0.wait();
        for _ in 0..100 {
            assert_eq!(row.to_values().len(), 2);
        }
        parked.1.wait();
    });
    let exec = Executor::new(Engine::sequential());
    let out = exec.detect(&table, &[rule]).unwrap();
    other.join().unwrap();
    assert!(out.is_clean());
    let m = exec.engine().metrics().snapshot();
    assert_eq!(m.detect_calls, 1, "the pair must reach the parked Detect");
    assert_eq!(m.tuples_cloned, 0, "another thread's copies were charged");
}

#[test]
fn streaming_ocjoin_detect_reports_shuffle_bytes_and_pairs() {
    // The rewired DC path must still account its shuffle volume and
    // pair count even though pairs are never materialized.
    let gt = tax::taxb(150, 0.10, 35);
    let rule: Arc<dyn Rule> = Arc::new(
        DcRule::parse(
            "t1.salary > t2.salary & t1.rate < t2.rate",
            gt.dirty.schema(),
        )
        .unwrap(),
    );
    let exec = Executor::new(Engine::parallel(3));
    let out = exec.detect(&gt.dirty, &[rule]).unwrap();
    assert!(!out.is_clean());
    let m = exec.engine().metrics();
    assert!(Metrics::get(&m.pairs_generated) > 0, "pairs not counted");
    assert!(
        Metrics::get(&m.bytes_shuffled) > 0,
        "range partitioning did not account shuffled bytes"
    );
    assert_eq!(
        Metrics::get(&m.detect_calls),
        Metrics::get(&m.pairs_generated),
        "each enumerated pair must be detected exactly once"
    );
}

/// A built-in rule that reads its Scope selector's refcount on every
/// Detect call, i.e. while the run's views and candidate units are live.
struct SelectorProbe {
    inner: Arc<dyn Rule>,
    sel: Selector,
    peak: AtomicUsize,
}

impl Rule for SelectorProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        self.inner.scope(unit)
    }
    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        self.inner.block(unit)
    }
    fn blocks(&self) -> bool {
        self.inner.blocks()
    }
    fn unit_kind(&self) -> UnitKind {
        self.inner.unit_kind()
    }
    fn symmetric(&self) -> bool {
        self.inner.symmetric()
    }
    fn ordering_conditions(&self) -> Vec<OrderCond> {
        self.inner.ordering_conditions()
    }
    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        let count = Arc::strong_count(&self.sel);
        self.peak.fetch_max(count, Ordering::Relaxed);
        self.inner.detect(input)
    }
    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        self.inner.gen_fix(violation)
    }
}

#[test]
fn no_view_or_candidate_unit_holds_a_shared_refcount() {
    // Contention gate: a Scope view that held its rule's selector, or a
    // candidate unit that cloned its tuples, would bump one refcount
    // from every worker per view and per pair. Read the selector's
    // count from inside Detect — views and units alive — and after a
    // full detect and a two-round cleanse, on 1, 2 and 4 workers.
    assert_eq!(std::mem::size_of::<Tuple>(), 40);
    for (shape, table, rule, sel) in shape_suite() {
        let Some(sel) = sel else { continue };
        let probe = Arc::new(SelectorProbe {
            inner: rule,
            sel,
            peak: AtomicUsize::new(0),
        });
        let before = Arc::strong_count(&probe.sel);
        for workers in [1, 2, 4] {
            let mut sys = BigDansing::on_engine(Engine::parallel(workers));
            sys.add_rule(Arc::clone(&probe) as Arc<dyn Rule>);
            assert!(!sys.detect(&table).unwrap().is_clean(), "{shape}");
            let two_rounds = CleanseOptions {
                max_iterations: 2,
                ..CleanseOptions::default()
            };
            sys.cleanse(&table, two_rounds).unwrap();
            assert_eq!(
                probe.peak.swap(0, Ordering::Relaxed),
                before,
                "{shape}: the selector's refcount moved during Detect on {workers} workers"
            );
            assert_eq!(Arc::strong_count(&probe.sel), before, "{shape}");
        }
    }
}
