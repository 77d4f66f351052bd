//! The fused repair data path, end to end: semi-naive BSP components
//! against the union-find oracle, the zero-copy component-grouping
//! gate, the per-component driver against one whole-set repair instance
//! on detected FD/CFD/DC workloads, and the master/slave partitioned
//! path against the serial oracle on randomized equivalence-class inputs,
//! plus `HypergraphRepair`'s assignments pinned on two DC inputs.

use bigdansing_common::rng::check;
use bigdansing_common::{stable_hash_of, Cell, Schema, Table, Value};
use bigdansing_dataflow::Engine;
use bigdansing_datagen::tax;
use bigdansing_plan::Executor;
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::cc::{components_bsp_edges, components_union_find};
use bigdansing_repair::fixeval::violation_resolved;
use bigdansing_repair::{
    repair_parallel, repair_serial, Detected, EquivalenceClassRepair, HypergraphRepair,
    RepairAlgorithm,
};
use bigdansing_rules::{CfdRule, DcRule, FdRule, Fix, Rule, Violation};
use std::collections::BTreeMap;
use std::sync::Arc;

fn fd_detected(a: u64, va: &str, b: u64, vb: &str, attr: usize) -> Detected {
    let ca = Cell::new(a, attr);
    let cb = Cell::new(b, attr);
    let mut v = Violation::new("fd");
    v.add_cell(ca, Value::str(va));
    v.add_cell(cb, Value::str(vb));
    (
        v,
        vec![Fix::assign_cell(ca, Value::str(va), cb, Value::str(vb))],
    )
}

/// Group edge labels into a canonical partition: indexes grouped by
/// label, groups ordered by their smallest member. Union-find and BSP
/// pick different representative labels for the same partition.
fn partition(labels: &[u64]) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, &l) in labels.iter().enumerate() {
        groups.entry(l).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

#[test]
fn bsp_components_match_union_find_on_chain_star_and_mesh() {
    let engine = Engine::parallel(3);
    // chain 0-1-2-3, star around 10, a 3-clique, and an isolated edge
    let edges: Vec<Vec<u64>> = vec![
        vec![0, 1],
        vec![1, 2],
        vec![2, 3],
        vec![10, 11],
        vec![10, 12],
        vec![10, 13],
        vec![20, 21],
        vec![21, 22],
        vec![20, 22],
        vec![30, 31],
    ];
    let bsp = components_bsp_edges(&engine, &edges).unwrap();
    let oracle = components_union_find(&edges);
    assert_eq!(partition(&bsp), partition(&oracle));
    assert_eq!(partition(&bsp).len(), 4);
}

#[test]
fn fused_repair_is_zero_copy_and_metered() {
    let detected: Vec<Detected> = (0..32)
        .map(|i| fd_detected(10 * i, "LA", 10 * i + 1, "SF", 2))
        .collect();
    let engine = Engine::parallel(4);
    let assign = repair_parallel(
        &engine,
        &detected,
        &EquivalenceClassRepair,
        RepairOptions::default(),
    )
    .unwrap();
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.components_found, 32);
    assert!(snap.cc_supersteps >= 1, "BSP must report its supersteps");
    assert_eq!(snap.repair_cells_assigned, assign.len() as u64);
    assert_eq!(
        snap.tuples_cloned, 0,
        "the component-grouping path moves indexes, never violation clones"
    );
    assert!(engine.explain().contains("repair"));
    for d in &detected {
        assert!(violation_resolved(d, &assign));
    }
}

/// 1,500 rows, salary increasing, every 101st rate pulled ~40 ranks
/// down: one component of ~40 `t1.salary > t2.salary & t1.rate <
/// t2.rate` violations per dirty row.
fn salary_rate_table() -> Table {
    Table::from_rows(
        "dc",
        Schema::parse("salary,rate"),
        (0..1500)
            .map(|i| {
                let rate = if i % 101 == 0 {
                    i as f64 - 40.5
                } else {
                    i as f64
                };
                vec![Value::Int(10 * i), Value::Float(rate)]
            })
            .collect(),
    )
}

/// The per-component driver against one repair instance over the whole
/// violation set (the NADEEF-style baseline, Fig 12(b)'s serial arm), on
/// real detect output of the three repairable shapes: the assignments
/// must be identical, so the component split can never change a repair.
#[test]
fn per_component_repair_equals_one_whole_set_instance() {
    // 4-row zipcode blocks whose first row's city is garbled: the
    // hypergraph shatters into one small component per block
    let fd = Table::from_rows(
        "fd",
        Schema::parse("zipcode,city"),
        (0..1600)
            .map(|i| {
                let city = if i < 400 {
                    format!("garbled{i}")
                } else {
                    format!("city{}", i % 400)
                };
                vec![Value::Int(i % 400), Value::str(city)]
            })
            .collect(),
    );
    // a third of the 90210 rows break the constant rule: singleton components
    let cfd = Table::from_rows(
        "cfd",
        Schema::parse("zipcode,city"),
        (0..1200)
            .map(|i| match i % 3 {
                0 => vec![Value::Int(90210), Value::str("LA")],
                1 => vec![Value::Int(90210), Value::str("SF")],
                _ => vec![Value::Int(10001), Value::str("NY")],
            })
            .collect(),
    );
    let dc = salary_rate_table();
    let hypergraph = HypergraphRepair::default();
    let shapes: [(Table, Arc<dyn Rule>, &dyn RepairAlgorithm); 3] = [
        (
            fd.clone(),
            Arc::new(FdRule::parse("zipcode -> city", fd.schema()).unwrap()),
            &hypergraph,
        ),
        (
            cfd.clone(),
            Arc::new(
                CfdRule::parse("zipcode -> city | zipcode=90210, city=LA", cfd.schema()).unwrap(),
            ),
            &EquivalenceClassRepair,
        ),
        (
            dc.clone(),
            Arc::new(
                DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", dc.schema()).unwrap(),
            ),
            &hypergraph,
        ),
    ];
    for (table, rule, algo) in shapes {
        let name = rule.name().to_string();
        let detected = Executor::new(Engine::parallel(2))
            .detect(&table, &[rule])
            .unwrap()
            .detected;
        assert!(!detected.is_empty(), "{name}: nothing to repair");
        let engine = Engine::parallel(4);
        let assign = repair_parallel(&engine, &detected, algo, RepairOptions::default()).unwrap();
        assert_eq!(
            assign,
            repair_serial(&detected, algo),
            "{name}: per-component assignments diverged from the whole-set instance"
        );
        let snap = engine.metrics().snapshot();
        assert!(
            snap.components_found > 0 && snap.cc_supersteps >= 1,
            "{name}"
        );
        assert!(
            snap.repair_cells_assigned > 0,
            "{name}: repair assigned nothing"
        );
        assert_eq!(
            snap.tuples_cloned, 0,
            "{name}: component grouping cloned violations"
        );
    }
}

/// One star block: a clean cell whose value sorts below every dirty
/// value, and one violation per dirty cell pairing it with the clean
/// cell. Within a class all candidate frequencies tie at 1, so the
/// equivalence-class algorithm picks the smallest value — the clean one
/// — in the serial oracle, in every k-way slave partition, and in the
/// whole component alike. That makes the master/slave reconciliation
/// conflict-free and provably equal to the oracle.
fn star_block(block: u64, attr: usize, dirty: &[&str]) -> Vec<Detected> {
    let base = 1000 * block;
    let clean = Cell::new(base, attr);
    dirty
        .iter()
        .enumerate()
        .map(|(j, dv)| {
            let cell = Cell::new(base + 1 + j as u64, attr);
            let mut v = Violation::new("fd");
            v.add_cell(cell, Value::str(*dv));
            v.add_cell(clean, Value::str("A"));
            (
                v,
                vec![Fix::assign_cell(
                    cell,
                    Value::str(*dv),
                    clean,
                    Value::str("A"),
                )],
            )
        })
        .collect()
}

#[test]
fn partitioned_repair_converges_to_the_serial_oracle() {
    const POOL: [&str; 4] = ["pA", "qB", "rC", "sD"];
    check(24, |g| {
        let blocks: Vec<(usize, usize)> = (0..g.range(1..6))
            .map(|_| (g.range(0..3), g.range(1..5)))
            .collect();
        let k = g.range(2usize..5);
        let detected: Vec<Detected> = blocks
            .iter()
            .enumerate()
            .flat_map(|(b, (attr, cnt))| star_block(b as u64, *attr, &POOL[..*cnt]))
            .collect();
        let serial = repair_serial(&detected, &EquivalenceClassRepair);
        // force every multi-violation component through the k-way
        // master/slave path
        let engine = Engine::parallel(3);
        let partitioned = repair_parallel(
            &engine,
            &detected,
            &EquivalenceClassRepair,
            RepairOptions {
                max_component_size: 1,
                k,
            },
        )
        .unwrap();
        assert_eq!(&partitioned, &serial);
        // conflict-free convergence: the merged assignment resolves
        // every violation
        for d in &detected {
            assert!(violation_resolved(d, &partitioned));
        }
    });
}

/// `HypergraphRepair`'s assignments on two DC inputs, pinned as a digest
/// of the sorted `(cell, value)` list plus its length: a change to the
/// repair's internals must not move a single repaired cell.
#[test]
fn hypergraph_repair_assignments_are_pinned() {
    const DC: &str = "t1.salary > t2.salary & t1.rate < t2.rate";
    let digest = |table: &Table| {
        let rule: Arc<dyn Rule> = Arc::new(DcRule::parse(DC, table.schema()).unwrap());
        let detected = Executor::new(Engine::parallel(2))
            .detect(table, &[rule])
            .unwrap()
            .detected;
        let mut assign: Vec<(Cell, Value)> = repair_serial(&detected, &HypergraphRepair::default())
            .into_iter()
            .collect();
        assign.sort();
        (assign.len(), stable_hash_of(&format!("{assign:?}")))
    };
    assert_eq!(digest(&salary_rate_table()), (14, 6834357657236130532));
    assert_eq!(
        digest(&tax::taxb(5_000, 0.05, 3).dirty),
        (315, 8916150611539598923)
    );
}
