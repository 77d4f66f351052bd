//! Criterion micro-benchmarks for the building blocks the paper's
//! macro-results rest on: the candidate-generation operators
//! (Figure 11(c) in miniature), blocking vs detect-only (Figure 12(a)),
//! the connected-component algorithms, the similarity UDF, and the
//! repair algorithms (Figure 12(b) in miniature).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

#[global_allocator]
static GLOBAL: mimalloc::MiMalloc = mimalloc::MiMalloc;
use std::hint::black_box;

use bigdansing_common::sim;
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_datagen::tax;
use bigdansing_ocjoin::naive::{cross_join_filter, ucross_join_filter};
use bigdansing_ocjoin::{try_ocjoin, OcJoinConfig};
use bigdansing_plan::Executor;
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::cc::{components_bsp_edges, components_union_find};
use bigdansing_repair::{repair_parallel, repair_serial, EquivalenceClassRepair};
use bigdansing_rules::{DcRule, DedupRule, FdRule, Rule};
use std::sync::Arc;

const SEED: u64 = 42;

fn bench_inequality_join(c: &mut Criterion) {
    let gt = tax::taxb(1_500, 0.1, SEED);
    let dc = DcRule::parse(
        "t1.salary > t2.salary & t1.rate < t2.rate",
        gt.dirty.schema(),
    )
    .unwrap();
    let conds = dc.ordering_conditions();
    let scoped: Vec<_> = gt.dirty.tuples().iter().flat_map(|t| dc.scope(t)).collect();
    let mut g = c.benchmark_group("inequality_join_1500");
    g.sample_size(10);
    g.bench_function("ocjoin", |b| {
        b.iter(|| {
            let ds = PDataset::from_vec(Engine::parallel(2), scoped.clone());
            black_box(
                try_ocjoin(ds, &conds, OcJoinConfig::default())
                    .unwrap()
                    .count(),
            )
        })
    });
    g.bench_function("ucross_product", |b| {
        b.iter(|| {
            let ds = PDataset::from_vec(Engine::parallel(2), scoped.clone());
            black_box(ucross_join_filter(ds, &conds).unwrap().count())
        })
    });
    g.bench_function("cross_product", |b| {
        b.iter(|| {
            let ds = PDataset::from_vec(Engine::parallel(2), scoped.clone());
            black_box(cross_join_filter(ds, &conds).unwrap().count())
        })
    });
    g.finish();
}

fn bench_blocking_vs_detect_only(c: &mut Criterion) {
    let gt = tax::taxa(1_000, 0.1, SEED);
    let rule: Arc<dyn Rule> = Arc::new(DedupRule::new("udf:dedup", tax::attr::NAME, 0.85));
    let mut g = c.benchmark_group("dedup_1000");
    g.sample_size(10);
    g.bench_function("full_api_blocked", |b| {
        b.iter(|| {
            let exec = Executor::new(Engine::parallel(2));
            black_box(
                exec.detect(&gt.dirty, &[Arc::clone(&rule)])
                    .unwrap()
                    .violation_count(),
            )
        })
    });
    g.bench_function("detect_only", |b| {
        b.iter(|| {
            let exec = Executor::new(Engine::parallel(2));
            black_box(
                exec.detect_only(&gt.dirty, Arc::clone(&rule))
                    .unwrap()
                    .violation_count(),
            )
        })
    });
    g.finish();
}

fn bench_connected_components(c: &mut Criterion) {
    // chain + random hyperedges, 20K nodes
    let edges: Vec<Vec<u64>> = (0..20_000u64)
        .map(|i| vec![i, (i * 7919) % 20_000, i / 2])
        .collect();
    let mut g = c.benchmark_group("connected_components_20k_edges");
    g.sample_size(10);
    g.bench_function("union_find", |b| {
        b.iter(|| black_box(components_union_find(&edges).len()))
    });
    g.bench_function("bsp_label_propagation", |b| {
        let e = Engine::parallel(2);
        b.iter(|| black_box(components_bsp_edges(&e, &edges).unwrap().len()))
    });
    g.finish();
}

fn bench_levenshtein(c: &mut Criterion) {
    let mut g = c.benchmark_group("levenshtein");
    for (name, a, b_) in [
        ("short", "Robert", "Roberta"),
        (
            "long",
            "Wolfeschlegelsteinhausen",
            "Wolfeschlegelsteinhauser",
        ),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &(a, b_), |b, (x, y)| {
            b.iter(|| black_box(sim::levenshtein(black_box(x), black_box(y))))
        });
    }
    g.finish();
}

fn bench_repair(c: &mut Criterion) {
    let gt = tax::taxa(4_000, 0.2, SEED);
    let rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap());
    let exec = Executor::new(Engine::parallel(2));
    let detected = exec.detect(&gt.dirty, &[rule]).unwrap();
    let mut g = c.benchmark_group("equivalence_repair");
    g.sample_size(10);
    g.bench_function("parallel_per_cc", |b| {
        let e = Engine::parallel(2);
        b.iter(|| {
            black_box(
                repair_parallel(
                    &e,
                    &detected.detected,
                    &EquivalenceClassRepair,
                    RepairOptions::default(),
                )
                .unwrap()
                .len(),
            )
        })
    });
    g.bench_function("serial", |b| {
        b.iter(|| black_box(repair_serial(&detected.detected, &EquivalenceClassRepair).len()))
    });
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let data: Vec<i64> = (0..200_000).collect();
    let mut g = c.benchmark_group("dataflow_group_by_200k");
    g.sample_size(10);
    for w in [1usize, 2] {
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                let ds = PDataset::from_vec(Engine::parallel(w), data.clone());
                let grouped = ds.stage().group_by_key("block", |x| Ok(x % 1000));
                black_box(grouped.unwrap().run().unwrap().count())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_inequality_join,
    bench_blocking_vs_detect_only,
    bench_connected_components,
    bench_levenshtein,
    bench_repair,
    bench_shuffle
);
criterion_main!(benches);
