//! Storage-manager integration (Appendix F): CSV → columnar layout →
//! projected load → detection; content-partitioned stores feeding a
//! shuffle-free pushdown that agrees with the regular pipeline.

use bigdansing::{report, BigDansing};
use bigdansing_common::metrics::Metrics;
use bigdansing_dataflow::Engine;
use bigdansing_datagen::tax;
use bigdansing_rules::{FdRule, Rule};
use bigdansing_storage::{layout, PartitionedStore, ReplicatedStore};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("bigdansing_storage_flow");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
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
        let engine = Engine::parallel(2);
        let pushed = replica.detect_pushdown(&engine, &rule).unwrap();
        assert_eq!(Metrics::get(&engine.metrics().records_shuffled), 0);
        let mut sys = BigDansing::parallel(2);
        sys.add_rule(Arc::clone(&rule));
        assert_eq!(
            pushed.len(),
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
    let store = PartitionedStore::build(&gt.dirty, &[tax::attr::ZIPCODE]);
    assert_eq!(store.len(), 50);
    let rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap());
    let engine = Engine::sequential();
    assert!(
        store.detect_pushdown(&engine, &rule).unwrap().is_empty(),
        "clean data"
    );
}
