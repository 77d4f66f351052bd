//! One function per table/figure of the paper's evaluation (§6).
//!
//! Sizes are container-scale (see `EXPERIMENTS.md` for the mapping to
//! the paper's sizes) and stretch with `BIGDANSING_SCALE`. Quadratic
//! baselines are skipped (`DNF`) above [`crate::quadratic_cap`], the
//! analogue of the paper's four-hour timeout.

use crate::report::{Cell, Report};
use crate::runners::*;
use crate::{quadratic_cap, rows, time};
use bigdansing::{CleanseOptions, RepairStrategy};
use bigdansing_common::Table;
use bigdansing_dataflow::Engine;
use bigdansing_dataflow::PDataset;
use bigdansing_datagen::{customer, hai, ncvoter, tax, tpch};
use bigdansing_ocjoin::naive::{cross_join_filter, ucross_join_filter};
use bigdansing_ocjoin::{try_ocjoin, OcJoinConfig};
use bigdansing_plan::Executor;
use bigdansing_repair::{
    blackbox::RepairOptions, repair_parallel, repair_serial, EquivalenceClassRepair,
    HypergraphRepair,
};
use bigdansing_rules::{DcRule, DedupRule, FdRule, Rule};
use std::sync::Arc;

const SEED: u64 = 0xB16_DA25;
const ERR: f64 = 0.10; // the paper's default 10% error rate

/// The number of workers standing in for the paper's cluster.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

fn phi1(schema: &bigdansing_common::Schema) -> Arc<dyn Rule> {
    Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())
}

fn phi2(schema: &bigdansing_common::Schema) -> Arc<dyn Rule> {
    Arc::new(DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", schema).unwrap())
}

fn phi3(schema: &bigdansing_common::Schema) -> Arc<dyn Rule> {
    Arc::new(FdRule::parse("o_custkey -> c_address", schema).unwrap())
}

fn dedup_rule(name_attr: usize, merge: Vec<usize>) -> Arc<dyn Rule> {
    Arc::new(
        DedupRule::new("udf:dedup", name_attr, 0.85)
            .with_block_prefix(2)
            .with_merge_attrs(merge),
    )
}

fn fmt_rows(n: usize) -> String {
    if n >= 1000 {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

/// Table 2 + Table 3: the dataset and rule inventory.
pub fn inventory() -> Vec<Report> {
    let mut datasets = Report::new(
        "Table 2 — datasets (container-scale defaults; ×BIGDANSING_SCALE)",
        &["dataset", "default rows", "source module"],
    );
    datasets.row(vec![
        "TaxA".into(),
        fmt_rows(rows(100_000)).into(),
        "datagen::tax::taxa".into(),
    ]);
    datasets.row(vec![
        "TaxB".into(),
        fmt_rows(rows(6_000)).into(),
        "datagen::tax::taxb".into(),
    ]);
    datasets.row(vec![
        "TPCH".into(),
        fmt_rows(rows(100_000)).into(),
        "datagen::tpch::tpch".into(),
    ]);
    datasets.row(vec![
        "customer1".into(),
        fmt_rows(rows(6_000)).into(),
        "datagen::customer::customer1".into(),
    ]);
    datasets.row(vec![
        "customer2".into(),
        fmt_rows(rows(10_000)).into(),
        "datagen::customer::customer2".into(),
    ]);
    datasets.row(vec![
        "NCVoter".into(),
        fmt_rows(rows(5_000)).into(),
        "datagen::ncvoter::ncvoter".into(),
    ]);
    datasets.row(vec![
        "HAI".into(),
        fmt_rows(rows(5_000)).into(),
        "datagen::hai::hai".into(),
    ]);
    let mut rules = Report::new("Table 3 — integrity constraints", &["id", "rule"]);
    rules.row(vec!["ϕ1".into(), "(FD) zipcode -> city".into()]);
    rules.row(vec![
        "ϕ2".into(),
        "(DC) t1.salary > t2.salary & t1.rate < t2.rate".into(),
    ]);
    rules.row(vec!["ϕ3".into(), "(FD) o_custkey -> c_address".into()]);
    rules.row(vec![
        "ϕ4".into(),
        "(UDF) customer rows are duplicates (Levenshtein ≥ 0.85)".into(),
    ]);
    rules.row(vec![
        "ϕ5".into(),
        "(UDF) NCVoter rows are duplicates".into(),
    ]);
    rules.row(vec!["ϕ6".into(), "(FD) zipcode -> state".into()]);
    rules.row(vec!["ϕ7".into(), "(FD) phone -> zipcode".into()]);
    rules.row(vec!["ϕ8".into(), "(FD) provider_id -> city, phone".into()]);
    vec![datasets, rules]
}

/// Figure 8(a): end-to-end cleansing time, BigDansing vs NADEEF, for
/// ϕ1 (TaxA), ϕ2 (TaxB), ϕ3 (TPCH) at a small and a large size.
pub fn fig8a() -> Report {
    let mut r = Report::new(
        "Figure 8(a) — full cleansing (detect + repair): BigDansing vs NADEEF",
        &["rule", "rows", "BigDansing", "NADEEF"],
    );
    let cap = quadratic_cap();
    // ϕ1 on TaxA
    for n in [rows(5_000), rows(50_000)] {
        let gt = tax::taxa(n, ERR, SEED);
        let rule = phi1(gt.dirty.schema());
        let rules = vec![rule];
        let (_, bd) = bd_cleanse(
            Engine::parallel(workers()),
            &gt.dirty,
            &rules,
            CleanseOptions::default(),
        )
        .unwrap();
        let nad = if n <= cap {
            let (_, secs) = nadeef_cleanse(&gt.dirty, &rules, &EquivalenceClassRepair, 5);
            Cell::Secs(secs)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            "ϕ1 (TaxA)".into(),
            fmt_rows(n).into(),
            Cell::Secs(bd),
            nad,
        ]);
    }
    // ϕ2 on TaxB (hypergraph repair)
    for n in [rows(1_000), rows(3_000)] {
        let gt = tax::taxb(n, ERR, SEED);
        let rules = vec![phi2(gt.dirty.schema())];
        let opts = CleanseOptions {
            strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
            max_iterations: 3,
            ..Default::default()
        };
        let (_, bd) = bd_cleanse(Engine::parallel(workers()), &gt.dirty, &rules, opts).unwrap();
        let nad = if n <= cap {
            let (_, secs) = nadeef_cleanse(&gt.dirty, &rules, &HypergraphRepair::default(), 3);
            Cell::Secs(secs)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            "ϕ2 (TaxB)".into(),
            fmt_rows(n).into(),
            Cell::Secs(bd),
            nad,
        ]);
    }
    // ϕ3 on TPCH
    for n in [rows(5_000), rows(50_000)] {
        let gt = tpch::tpch(n, ERR, SEED);
        let rules = vec![phi3(gt.dirty.schema())];
        let (_, bd) = bd_cleanse(
            Engine::parallel(workers()),
            &gt.dirty,
            &rules,
            CleanseOptions::default(),
        )
        .unwrap();
        let nad = if n <= cap {
            let (_, secs) = nadeef_cleanse(&gt.dirty, &rules, &EquivalenceClassRepair, 5);
            Cell::Secs(secs)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            "ϕ3 (TPCH)".into(),
            fmt_rows(n).into(),
            Cell::Secs(bd),
            nad,
        ]);
    }
    r
}

/// Figure 8(b): detection vs repair time split by error rate (ϕ1).
pub fn fig8b() -> Report {
    let mut r = Report::new(
        "Figure 8(b) — detection vs repair time by error rate (ϕ1, TaxA)",
        &[
            "error rate",
            "violations",
            "detection",
            "repair",
            "detect share",
        ],
    );
    let n = rows(20_000);
    for pct in [0.01, 0.05, 0.10, 0.50] {
        let gt = tax::taxa(n, pct, SEED);
        let rules = vec![phi1(gt.dirty.schema())];
        let exec = Executor::new(Engine::parallel(workers()));
        let (detected, t_detect) = time(|| exec.detect(&gt.dirty, &rules).unwrap());
        let (_assign, t_repair) = time(|| {
            repair_parallel(
                exec.engine(),
                &detected.detected,
                &EquivalenceClassRepair,
                RepairOptions::default(),
            )
            .unwrap()
        });
        let share = t_detect / (t_detect + t_repair);
        r.row(vec![
            format!("{:.0}%", pct * 100.0).into(),
            detected.violation_count().into(),
            Cell::Secs(t_detect),
            Cell::Secs(t_repair),
            Cell::Ratio(share),
        ]);
    }
    r
}

fn single_node_engine() -> Engine {
    Engine::parallel(workers())
}

/// Shared shape of Figures 9(a)/9(c): equality-FD detection across
/// systems and sizes.
fn fig9_equality(
    title: &str,
    sizes: [usize; 3],
    make: impl Fn(usize) -> (Table, Arc<dyn Rule>),
) -> Report {
    let mut r = Report::new(
        title,
        &[
            "rows",
            "BigDansing",
            "NADEEF",
            "PostgreSQL",
            "SparkSQL",
            "Shark",
        ],
    );
    let cap = quadratic_cap();
    for n in sizes {
        let (table, rule) = make(n);
        let rules = vec![Arc::clone(&rule)];
        let (_, bd) = bd_detect(single_node_engine(), &table, &rules);
        let nad = if n <= cap {
            Cell::Secs(nadeef_detect(&table, &rules).1)
        } else {
            Cell::Dnf
        };
        let (_, pg) = postgres_detect(&table, &rule);
        let (_, ss) = sparksql_detect(single_node_engine(), &table, &rule);
        let sh = if n <= cap {
            Cell::Secs(shark_detect(single_node_engine(), &table, &rule).1)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            fmt_rows(n).into(),
            Cell::Secs(bd),
            nad,
            Cell::Secs(pg),
            Cell::Secs(ss),
            sh,
        ]);
    }
    r
}

/// Figure 9(a): single-node detection, TaxA ϕ1.
pub fn fig9a() -> Report {
    fig9_equality(
        "Figure 9(a) — single-node detection, TaxA ϕ1",
        [rows(1_000), rows(10_000), rows(100_000)],
        |n| {
            let gt = tax::taxa(n, ERR, SEED);
            let rule = phi1(gt.dirty.schema());
            (gt.dirty, rule)
        },
    )
}

/// Figure 9(b): single-node detection, TaxB ϕ2 (inequality DC).
pub fn fig9b() -> Report {
    let mut r = Report::new(
        "Figure 9(b) — single-node detection, TaxB ϕ2 (inequality DC)",
        &[
            "rows",
            "BigDansing (OCJoin)",
            "NADEEF",
            "PostgreSQL",
            "SparkSQL",
            "Shark",
        ],
    );
    let cap = quadratic_cap();
    for n in [rows(1_000), rows(3_000), rows(6_000)] {
        let gt = tax::taxb(n, ERR, SEED);
        let rule = phi2(gt.dirty.schema());
        let rules = vec![Arc::clone(&rule)];
        let (_, bd) = bd_detect(single_node_engine(), &gt.dirty, &rules);
        let quad = |f: &dyn Fn() -> f64| if n <= cap { Cell::Secs(f()) } else { Cell::Dnf };
        let nad = quad(&|| nadeef_detect(&gt.dirty, &rules).1);
        let pg = quad(&|| postgres_detect(&gt.dirty, &rule).1);
        let ss = quad(&|| sparksql_detect(single_node_engine(), &gt.dirty, &rule).1);
        let sh = quad(&|| shark_detect(single_node_engine(), &gt.dirty, &rule).1);
        r.row(vec![fmt_rows(n).into(), Cell::Secs(bd), nad, pg, ss, sh]);
    }
    r
}

/// Figure 9(c): single-node detection, TPCH ϕ3.
pub fn fig9c() -> Report {
    fig9_equality(
        "Figure 9(c) — single-node detection, TPCH ϕ3",
        [rows(1_000), rows(10_000), rows(100_000)],
        |n| {
            let gt = tpch::tpch(n, ERR, SEED);
            let rule = phi3(gt.dirty.schema());
            (gt.dirty, rule)
        },
    )
}

/// Figure 10(a): multi-worker detection, TaxA ϕ1 —
/// BigDansing-Spark vs BigDansing-Hadoop vs SparkSQL vs Shark.
pub fn fig10a() -> Report {
    let mut r = Report::new(
        "Figure 10(a) — multi-worker detection, TaxA ϕ1",
        &["rows", "BD-Spark", "BD-Hadoop", "SparkSQL", "Shark"],
    );
    let w = workers();
    let cap = quadratic_cap();
    for n in [rows(50_000), rows(100_000), rows(200_000)] {
        let gt = tax::taxa(n, ERR, SEED);
        let rule = phi1(gt.dirty.schema());
        let rules = vec![Arc::clone(&rule)];
        let (_, spark) = bd_detect(Engine::parallel(w), &gt.dirty, &rules);
        let (_, hadoop) = bd_detect(Engine::disk_backed(w), &gt.dirty, &rules);
        let (_, ss) = sparksql_detect(Engine::parallel(w), &gt.dirty, &rule);
        let sh = if n <= cap {
            Cell::Secs(shark_detect(Engine::parallel(w), &gt.dirty, &rule).1)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            fmt_rows(n).into(),
            Cell::Secs(spark),
            Cell::Secs(hadoop),
            Cell::Secs(ss),
            sh,
        ]);
    }
    r
}

/// Figure 10(b): multi-worker detection, TaxB ϕ2.
pub fn fig10b() -> Report {
    let mut r = Report::new(
        "Figure 10(b) — multi-worker detection, TaxB ϕ2",
        &["rows", "BD-Spark (OCJoin)", "SparkSQL", "Shark"],
    );
    let w = workers();
    let cap = quadratic_cap();
    for n in [rows(3_000), rows(6_000), rows(10_000)] {
        let gt = tax::taxb(n, ERR, SEED);
        let rule = phi2(gt.dirty.schema());
        let rules = vec![Arc::clone(&rule)];
        let (_, bd) = bd_detect(Engine::parallel(w), &gt.dirty, &rules);
        let quad = |f: &dyn Fn() -> f64| if n <= cap { Cell::Secs(f()) } else { Cell::Dnf };
        let ss = quad(&|| sparksql_detect(Engine::parallel(w), &gt.dirty, &rule).1);
        let sh = quad(&|| shark_detect(Engine::parallel(w), &gt.dirty, &rule).1);
        r.row(vec![fmt_rows(n).into(), Cell::Secs(bd), ss, sh]);
    }
    r
}

/// Figure 10(c): large TPCH ϕ3 sweep — BD-Spark vs BD-Hadoop vs SparkSQL.
pub fn fig10c() -> Report {
    let mut r = Report::new(
        "Figure 10(c) — large TPCH ϕ3 detection",
        &["rows", "BD-Spark", "BD-Hadoop", "SparkSQL"],
    );
    let w = workers();
    for n in [rows(100_000), rows(200_000), rows(400_000), rows(800_000)] {
        let gt = tpch::tpch(n, ERR, SEED);
        let rule = phi3(gt.dirty.schema());
        let rules = vec![Arc::clone(&rule)];
        let (_, spark) = bd_detect(Engine::parallel(w), &gt.dirty, &rules);
        let (_, hadoop) = bd_detect(Engine::disk_backed(w), &gt.dirty, &rules);
        let (_, ss) = sparksql_detect(Engine::parallel(w), &gt.dirty, &rule);
        r.row(vec![
            fmt_rows(n).into(),
            Cell::Secs(spark),
            Cell::Secs(hadoop),
            Cell::Secs(ss),
        ]);
    }
    r
}

/// Figure 11(a): scale-out — workers 1..2·cores, TPCH ϕ3 fixed size.
pub fn fig11a() -> Report {
    let mut r = Report::new(
        "Figure 11(a) — scale-out on TPCH ϕ3 (fixed size, varying workers)",
        &["workers", "BigDansing", "SparkSQL"],
    );
    let n = rows(200_000);
    let gt = tpch::tpch(n, ERR, SEED);
    let rule = phi3(gt.dirty.schema());
    let rules = vec![Arc::clone(&rule)];
    let max_w = (2 * workers()).max(4);
    let mut w = 1;
    while w <= max_w {
        let (_, bd) = bd_detect(Engine::parallel(w), &gt.dirty, &rules);
        let (_, ss) = sparksql_detect(Engine::parallel(w), &gt.dirty, &rule);
        r.row(vec![w.into(), Cell::Secs(bd), Cell::Secs(ss)]);
        w *= 2;
    }
    r
}

/// Figure 11(b): deduplication with a Levenshtein UDF —
/// BigDansing (blocked) vs Shark (cross product).
pub fn fig11b() -> Report {
    let mut r = Report::new(
        "Figure 11(b) — deduplication UDF: BigDansing vs Shark",
        &["dataset", "rows", "duplicates found", "BigDansing", "Shark"],
    );
    let w = workers();
    let cap = quadratic_cap();
    let datasets: Vec<(&str, Table, usize, Vec<usize>)> = vec![
        {
            let (t, _) = ncvoter::ncvoter(rows(5_000), SEED);
            (
                "NCVoter",
                t,
                ncvoter::attr::NAME,
                vec![ncvoter::attr::NAME, ncvoter::attr::PHONE],
            )
        },
        {
            let (t, _) = customer::customer1(rows(2_000), SEED);
            (
                "customer1",
                t,
                customer::attr::NAME,
                vec![customer::attr::NAME, customer::attr::PHONE],
            )
        },
        {
            let (t, _) = customer::customer2(rows(2_000), SEED);
            (
                "customer2",
                t,
                customer::attr::NAME,
                vec![customer::attr::NAME, customer::attr::PHONE],
            )
        },
    ];
    for (name, table, name_attr, merge) in datasets {
        let rule = dedup_rule(name_attr, merge);
        let rules = vec![Arc::clone(&rule)];
        let (found, bd) = bd_detect(Engine::parallel(w), &table, &rules);
        let sh = if table.len() <= cap * 2 {
            Cell::Secs(shark_detect(Engine::parallel(w), &table, &rule).1)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            name.into(),
            fmt_rows(table.len()).into(),
            found.into(),
            Cell::Secs(bd),
            sh,
        ]);
    }
    r
}

/// Figure 11(c): the physical-operator ablation on TaxB ϕ2 —
/// OCJoin vs UCrossProduct vs CrossProduct (pairs satisfying the DC).
pub fn fig11c() -> Report {
    let mut r = Report::new(
        "Figure 11(c) — OCJoin vs UCrossProduct vs CrossProduct (TaxB ϕ2)",
        &["rows", "matches", "OCJoin", "UCrossProduct", "CrossProduct"],
    );
    let w = workers();
    let cap = quadratic_cap();
    for n in [rows(2_000), rows(4_000), rows(8_000)] {
        let gt = tax::taxb(n, ERR, SEED);
        let dc = DcRule::parse(
            "t1.salary > t2.salary & t1.rate < t2.rate",
            gt.dirty.schema(),
        )
        .unwrap();
        let conds = dc.ordering_conditions();
        let scoped: Vec<_> = gt.dirty.tuples().iter().flat_map(|t| dc.scope(t)).collect();
        let mk = || PDataset::from_vec(Engine::parallel(w), scoped.clone());
        let (oc_count, oc) = time(|| {
            try_ocjoin(mk(), &conds, OcJoinConfig::default())
                .unwrap()
                .count()
        });
        let uc = if n <= cap {
            Cell::Secs(time(|| ucross_join_filter(mk(), &conds).unwrap().count()).1)
        } else {
            Cell::Dnf
        };
        let cp = if n <= cap {
            Cell::Secs(time(|| cross_join_filter(mk(), &conds).unwrap().count()).1)
        } else {
            Cell::Dnf
        };
        r.row(vec![
            fmt_rows(n).into(),
            oc_count.into(),
            Cell::Secs(oc),
            uc,
            cp,
        ]);
    }
    r
}

/// Figure 12(a): the abstraction ablation — full API (Scope + Block +
/// Iterate) vs Detect-only, dedup UDF on a small TaxA.
pub fn fig12a() -> Report {
    let mut r = Report::new(
        "Figure 12(a) — full five-operator API vs Detect-only (dedup on TaxA)",
        &["rows", "violations", "full API", "Detect only", "speedup"],
    );
    let w = workers();
    for n in [rows(1_000), rows(3_000)] {
        let gt = tax::taxa(n, ERR, SEED);
        let rule = dedup_rule(tax::attr::NAME, vec![tax::attr::NAME]);
        let exec = Executor::new(Engine::parallel(w));
        let (full_out, full) = time(|| exec.detect(&gt.dirty, &[Arc::clone(&rule)]).unwrap());
        let (_, only) = time(|| exec.detect_only(&gt.dirty, Arc::clone(&rule)).unwrap());
        r.row(vec![
            fmt_rows(n).into(),
            full_out.violation_count().into(),
            Cell::Secs(full),
            Cell::Secs(only),
            Cell::Ratio(only / full.max(1e-9)),
        ]);
    }
    r
}

/// Figure 12(b): parallel (per-connected-component) repair vs serial
/// repair, by error rate (ϕ1, repair phase only).
pub fn fig12b() -> Report {
    let mut r = Report::new(
        "Figure 12(b) — parallel vs serial repair by error rate (ϕ1, TaxA)",
        &[
            "error rate",
            "violations",
            "parallel repair",
            "serial repair",
        ],
    );
    let n = rows(20_000);
    for pct in [0.01, 0.05, 0.10, 0.50] {
        let gt = tax::taxa(n, pct, SEED);
        let rules = vec![phi1(gt.dirty.schema())];
        let exec = Executor::new(Engine::parallel(workers()));
        let detected = exec.detect(&gt.dirty, &rules).unwrap();
        let (_, par) = time(|| {
            repair_parallel(
                exec.engine(),
                &detected.detected,
                &EquivalenceClassRepair,
                RepairOptions::default(),
            )
            .unwrap()
        });
        let (_, ser) = time(|| repair_serial(&detected.detected, &EquivalenceClassRepair));
        r.row(vec![
            format!("{:.0}%", pct * 100.0).into(),
            detected.violation_count().into(),
            Cell::Secs(par),
            Cell::Secs(ser),
        ]);
    }
    r
}

/// Table 4: repair quality — precision/recall of the equivalence-class
/// algorithm on the HAI rule combinations, and mean numeric distance of
/// the hypergraph algorithm on TaxB ϕD, BigDansing vs NADEEF(serial).
pub fn table4() -> Vec<Report> {
    let mut q = Report::new(
        "Table 4 (upper) — equivalence-class repair quality on HAI",
        &["rules", "system", "precision", "recall", "iterations"],
    );
    let n = rows(5_000);
    for (label, combo) in [
        ("ϕ6", hai::RuleCombo::Phi6),
        ("ϕ6&ϕ7", hai::RuleCombo::Phi6And7),
        ("ϕ6-ϕ8", hai::RuleCombo::Phi6To8),
    ] {
        let gt = hai::hai(n, combo, ERR, SEED);
        let rules: Vec<Arc<dyn Rule>> = combo
            .fd_specs()
            .iter()
            .map(|s| Arc::new(FdRule::parse(s, gt.dirty.schema()).unwrap()) as Arc<dyn Rule>)
            .collect();
        for (system, strategy) in [
            ("BigDansing", RepairStrategy::DistributedEquivalence),
            (
                "NADEEF",
                RepairStrategy::SerialBlackBox(Arc::new(EquivalenceClassRepair)),
            ),
        ] {
            let opts = CleanseOptions {
                strategy,
                ..Default::default()
            };
            let (res, _) =
                bd_cleanse(Engine::parallel(workers()), &gt.dirty, &rules, opts).unwrap();
            let quality = gt.evaluate(&res.table);
            q.row(vec![
                label.into(),
                system.into(),
                Cell::Ratio(quality.precision),
                Cell::Ratio(quality.recall),
                res.iterations.max(1).into(),
            ]);
        }
    }

    let mut d = Report::new(
        "Table 4 (lower) — hypergraph repair on TaxB ϕD: mean |repair − truth| on rate",
        &[
            "system",
            "dirty distance",
            "repaired distance",
            "iterations",
        ],
    );
    let gt = tax::taxb(rows(800), ERR, SEED);
    let rules = vec![phi2(gt.dirty.schema())];
    let dirty_dist = gt.mean_numeric_distance(&gt.dirty, tax::attr::RATE);
    for (system, strategy) in [
        (
            "BigDansing",
            RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())
                as Arc<dyn bigdansing_repair::RepairAlgorithm>),
        ),
        (
            "NADEEF",
            RepairStrategy::SerialBlackBox(Arc::new(HypergraphRepair::default())),
        ),
    ] {
        let opts = CleanseOptions {
            strategy,
            max_iterations: 3,
            ..Default::default()
        };
        let (res, _) = bd_cleanse(Engine::parallel(workers()), &gt.dirty, &rules, opts).unwrap();
        let rep_dist = gt.mean_numeric_distance(&res.table, tax::attr::RATE);
        d.row(vec![
            system.into(),
            Cell::Ratio(dirty_dist),
            Cell::Ratio(rep_dist),
            res.iterations.max(1).into(),
        ]);
    }
    vec![q, d]
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Report> {
    let mut out = inventory();
    out.push(fig8a());
    out.push(fig8b());
    out.push(fig9a());
    out.push(fig9b());
    out.push(fig9c());
    out.push(fig10a());
    out.push(fig10b());
    out.push(fig10c());
    out.push(fig11a());
    out.push(fig11b());
    out.push(fig11c());
    out.push(fig12a());
    out.push(fig12b());
    out.extend(table4());
    out
}
