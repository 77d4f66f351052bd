//! Storage-manager integration (Appendix F): CSV → columnar layout →
//! projected load → detection; content-partitioned stores feeding a
//! shuffle-free pushdown that agrees with the regular pipeline.

use bigdansing::{report, BigDansing};
use bigdansing_common::layout;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result};
use bigdansing_dataflow::{Engine, FaultMode, IsolationOptions, RuleGuard};
use bigdansing_datagen::{tax, GroundTruth};
use bigdansing_plan::physical::pipeline_for_rule;
use bigdansing_plan::{DetectOutput, Executor, PartitionedStore, ReplicatedStore};
use bigdansing_rules::{FdRule, Rule};
use std::collections::BTreeSet;
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bigdansing_storage_flow");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Block pushdown: `rule` detected over every block of `store` under a
/// guard armed from `iso`, which the detect must not shuffle for.
fn pushdown(
    store: &PartitionedStore,
    rule: &Arc<dyn Rule>,
    iso: &IsolationOptions,
) -> (Result<DetectOutput>, Arc<RuleGuard>) {
    let exec = Executor::new(Engine::parallel(2));
    let pipeline = pipeline_for_rule(Arc::clone(rule), "");
    let guard = RuleGuard::arm(rule.name(), iso);
    let guards = std::slice::from_ref(&guard);
    let out = exec.detect_held(&[&pipeline], store.all(), None, guards);
    let shuffled = Metrics::get(&exec.engine().metrics().records_shuffled);
    assert_eq!(shuffled, 0, "Block pushdown must not shuffle");
    (out.map(|mut outs| outs.remove(0)), guard)
}

fn zip_fd(gt: &GroundTruth) -> Arc<dyn Rule> {
    Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap())
}

#[test]
fn columnar_roundtrip_preserves_detection_results() {
    let gt = tax::taxa(1_000, 0.10, 41);
    let path = tmp("taxa.bdcol");
    layout::write_table(&gt.dirty, &path).unwrap();
    let loaded = layout::read_table(&path).unwrap();

    let mut sys_a = BigDansing::parallel(2);
    sys_a.add_fd("zipcode -> city", gt.dirty.schema()).unwrap();
    let mut sys_b = BigDansing::parallel(2);
    sys_b.add_fd("zipcode -> city", loaded.schema()).unwrap();
    assert_eq!(
        sys_a.detect(&gt.dirty).unwrap().violation_count(),
        sys_b.detect(&loaded).unwrap().violation_count()
    );
}

#[test]
fn projected_load_still_serves_the_scoped_rule() {
    let gt = tax::taxa(800, 0.10, 42);
    let path = tmp("taxa_proj.bdcol");
    layout::write_table(&gt.dirty, &path).unwrap();
    // Scope pushdown: only the FD's columns are decoded
    let (projected, bytes) =
        layout::read_with_stats(&path, Some(&[tax::attr::ZIPCODE, tax::attr::CITY])).unwrap();
    let (_, all_bytes) = layout::read_with_stats(&path, None).unwrap();
    assert!(
        bytes < all_bytes / 2,
        "2 of 6 columns decoded: {bytes} vs {all_bytes}"
    );

    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", projected.schema()).unwrap();
    let full = {
        let mut s = BigDansing::parallel(2);
        s.add_fd("zipcode -> city", gt.dirty.schema()).unwrap();
        s.detect(&gt.dirty).unwrap().violation_count()
    };
    assert_eq!(sys.detect(&projected).unwrap().violation_count(), full);
}

#[test]
fn replicated_store_serves_multiple_rules_without_shuffles() {
    let gt = tax::taxa(1_200, 0.10, 43);
    let store = ReplicatedStore::build(
        &gt.dirty,
        &[vec![tax::attr::ZIPCODE], vec![tax::attr::CITY]],
    );
    for (spec, key) in [
        ("zipcode -> city", vec![tax::attr::ZIPCODE]),
        ("city -> state", vec![tax::attr::CITY]),
    ] {
        let rule: Arc<dyn Rule> = Arc::new(FdRule::parse(spec, gt.dirty.schema()).unwrap());
        let replica = store.replica_for(&key).expect("replica exists");
        let (pushed, _) = pushdown(replica, &rule, &IsolationOptions::default());
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::clone(&rule));
        assert_eq!(
            pushed.unwrap().violation_count(),
            sys.detect(&gt.dirty).unwrap().violation_count(),
            "{spec}"
        );
    }
}

#[test]
fn detect_reports_round_trip_to_disk() {
    let gt = tax::taxa(300, 0.10, 44);
    let mut sys = BigDansing::parallel(2);
    sys.add_fd("zipcode -> city", gt.dirty.schema()).unwrap();
    let out = sys.detect(&gt.dirty).unwrap();
    let stem = tmp("audit");
    report::write_reports(&out, Some(&gt.dirty), &stem).unwrap();
    let v = std::fs::read_to_string(tmp("audit.violations.csv")).unwrap();
    // one header + ≥1 row per violation (each has ≥2 cells)
    assert!(v.lines().count() > out.violation_count());
    let f = std::fs::read_to_string(tmp("audit.fixes.csv")).unwrap();
    assert_eq!(f.lines().count(), out.fix_count() + 1);
}

#[test]
fn partitioned_store_keeps_singleton_blocks() {
    // blocks of size 1 produce no candidate pairs but must not be lost
    let gt = tax::taxa(50, 0.0, 45);
    let store = PartitionedStore::on_columns(&gt.dirty, &[tax::attr::ZIPCODE]);
    assert_eq!(store.len(), 50);
    let (pushed, _) = pushdown(&store, &zip_fd(&gt), &IsolationOptions::default());
    assert!(pushed.unwrap().is_clean(), "clean data");
}

/// Pushdown runs under the rule's guard: in partial mode it skips the
/// blocks over the straggler threshold that the shuffled pass skips,
/// and in strict mode it fails with the rule's typed error.
#[test]
fn pushdown_gates_outlier_blocks_like_the_shuffled_pass() {
    let gt = tax::taxa(1_200, 0.10, 46);
    let rule = zip_fd(&gt);
    let store = PartitionedStore::on_columns(&gt.dirty, &[tax::attr::ZIPCODE]);
    let partial = IsolationOptions {
        mode: FaultMode::Partial,
        max_block_size: Some(2),
        ..IsolationOptions::default()
    };
    let (pushed, pushed_guard) = pushdown(&store, &rule, &partial);
    let pushed = pushed.unwrap();

    let exec = Executor::new(Engine::parallel(2));
    let pipeline = pipeline_for_rule(Arc::clone(&rule), gt.dirty.name());
    let guards = [RuleGuard::arm(rule.name(), &partial)];
    let data = exec.load(&gt.dirty);
    let schema = gt.dirty.schema();
    let shuffled = exec.run_group(data, schema, &[&pipeline], Some(&guards));
    let shuffled = shuffled.unwrap().remove(0);

    assert!(
        pushed_guard.units_skipped() > 0,
        "some block is over 2 rows"
    );
    assert_eq!(pushed_guard.units_skipped(), guards[0].units_skipped());
    assert_eq!(pushed_guard.units_processed(), guards[0].units_processed());
    let ids = |out: &DetectOutput| -> BTreeSet<Vec<u64>> {
        out.violations().map(|v| v.tuple_ids()).collect()
    };
    assert_eq!(ids(&pushed), ids(&shuffled));

    let strict = IsolationOptions {
        max_block_size: Some(2),
        ..IsolationOptions::default()
    };
    match pushdown(&store, &rule, &strict).0 {
        Err(Error::Rule { rule: name, .. }) => assert_eq!(name, rule.name()),
        other => panic!("expected the rule's typed error, got {other:?}"),
    }
}
