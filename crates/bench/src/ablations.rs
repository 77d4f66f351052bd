//! Ablations beyond the paper's figures — the design choices DESIGN.md
//! calls out, each isolated: plan consolidation (shared scans, Figure 5),
//! CoBlock vs independent blocking (Figure 6), the Appendix F storage
//! pushdowns, and the BSP-vs-union-find connected-components choice.

use crate::report::{Cell, Report};
use crate::{rows, time_best};
use bigdansing_common::layout;
use bigdansing_common::metrics::Metrics;
use bigdansing_dataflow::{Engine, IsolationOptions, RuleGuard};
use bigdansing_datagen::{tax, tpch};
use bigdansing_plan::physical::pipeline_for_rule;
use bigdansing_plan::{Executor, PartitionedStore};
use bigdansing_repair::cc::{components_bsp_edges, components_union_find};
use bigdansing_rules::{FdRule, Rule};
use std::sync::Arc;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// Plan consolidation: k rules over one dataset in one detect — one
/// scan, and one shared Block pass for the rules on one key — vs one
/// detect, scan and Block pass per rule.
pub fn ablation_shared_scan() -> Report {
    let mut r = Report::new(
        "Ablation — plan consolidation: one detect vs one per rule (TaxA, 3 FDs)",
        &[
            "rows",
            "consolidated",
            "per rule",
            "scans (cons/per rule)",
            "records shuffled (cons/per rule)",
            "passes (cons/per rule)",
        ],
    );
    let specs = ["zipcode -> city", "zipcode -> state", "city -> state"];
    for n in [rows(20_000), rows(60_000)] {
        let gt = tax::taxa(n, 0.10, 31);
        let rules: Vec<Arc<dyn Rule>> = specs
            .iter()
            .map(|s| Arc::new(FdRule::parse(s, gt.dirty.schema()).unwrap()) as Arc<dyn Rule>)
            .collect();
        let exec = Executor::new(Engine::parallel(workers()));
        // per detect: `time_best` runs each side twice
        let counters = || {
            let m = exec.engine().metrics().snapshot();
            exec.engine().metrics().reset();
            [m.tuples_scanned, m.records_shuffled, m.passes_executed].map(|c| c / 2)
        };
        let (_, shared) = time_best(|| exec.detect(&gt.dirty, &rules).unwrap());
        let consolidated = counters();
        let (_, separate) = time_best(|| {
            for rule in &rules {
                exec.detect(&gt.dirty, std::slice::from_ref(rule)).unwrap();
            }
        });
        let per_rule = counters();
        let both = |i: usize| Cell::from(format!("{} / {}", consolidated[i], per_rule[i]));
        r.row(vec![
            format!("{}K", n / 1000).into(),
            Cell::Secs(shared),
            Cell::Secs(separate),
            both(0),
            both(1),
            both(2),
        ]);
    }
    r
}

/// CoBlock: two tables blocked + co-grouped once vs a naive full
/// cartesian of scoped tuples.
pub fn ablation_coblock() -> Report {
    let mut r = Report::new(
        "Ablation — CoBlock (two-table FD) vs cross-table cartesian",
        &["rows/table", "violations", "CoBlock", "cartesian"],
    );
    for n in [rows(2_000), rows(4_000)] {
        let left = tpch::joined_clean(n, 32);
        // a right table sharing customer keys but with re-generated
        // addresses: every shared key violates the cross-table FD
        let right_gt = tpch::tpch(n, 0.10, 33);
        let rule: Arc<dyn Rule> =
            Arc::new(FdRule::parse("o_custkey -> c_address", left.schema()).unwrap());
        let exec = Executor::new(Engine::parallel(workers()));
        let (out, co) = time_best(|| {
            exec.detect_two_tables(Arc::clone(&rule), &left, &right_gt.dirty)
                .unwrap()
        });
        // naive: concatenate both tables (re-identified) and run the
        // unblocked UCrossProduct over the union — what a system without
        // CoBlock would do
        let mut tuples = left.tuples().to_vec();
        let offset = 1_000_000u64;
        tuples.extend(
            right_gt
                .dirty
                .tuples()
                .iter()
                .map(|t| bigdansing_common::Tuple::new(t.id() + offset, t.to_values())),
        );
        let union = bigdansing_common::Table::new("u", left.schema().clone(), tuples);
        let (_, naive) = time_best(|| exec.detect_only(&union, Arc::clone(&rule)).unwrap());
        r.row(vec![
            format!("{}K", n / 1000).into(),
            out.violation_count().into(),
            Cell::Secs(co),
            Cell::Secs(naive),
        ]);
    }
    r
}

/// Appendix F storage pushdowns: Block pushdown (pre-partitioned store)
/// and Scope pushdown (columnar projection read).
pub fn ablation_storage() -> Report {
    let mut r = Report::new(
        "Ablation — storage manager (Appendix F): Block & Scope pushdown",
        &["measure", "baseline", "pushdown"],
    );
    let n = rows(60_000);
    let gt = tax::taxa(n, 0.10, 34);
    let rule: Arc<dyn Rule> =
        Arc::new(FdRule::parse("zipcode -> city", gt.dirty.schema()).unwrap());

    // Block pushdown: shuffle-free detection over a content-partitioned
    // store vs the regular group-by pipeline
    let exec = Executor::new(Engine::parallel(workers()));
    let (_, regular) = time_best(|| exec.detect(&gt.dirty, &[Arc::clone(&rule)]).unwrap());
    let shuffled = Metrics::get(&exec.engine().metrics().records_shuffled);
    let store = PartitionedStore::on_columns(&gt.dirty, &[tax::attr::ZIPCODE]);
    let pushdown = Executor::new(Engine::parallel(workers()));
    let pipeline = pipeline_for_rule(Arc::clone(&rule), gt.dirty.name());
    let guard = [RuleGuard::arm(rule.name(), &IsolationOptions::default())];
    let pushed = || pushdown.detect_held(&[&pipeline], store.all(), None, &guard);
    let (_, pushed) = time_best(|| pushed().unwrap());
    r.row(vec![
        format!("Block pushdown, detection time ({}K rows)", n / 1000).into(),
        Cell::Secs(regular),
        Cell::Secs(pushed),
    ]);
    r.row(vec![
        "Block pushdown, records shuffled".into(),
        shuffled.into(),
        Metrics::get(&pushdown.engine().metrics().records_shuffled).into(),
    ]);

    // Scope pushdown: full columnar read vs projected read
    let dir = std::env::temp_dir().join("bigdansing_ablation");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("taxa.bdcol");
    layout::write_table(&gt.dirty, &path).expect("columnar write");
    let ((_, full_bytes), t_full) = time_best(|| layout::read_with_stats(&path, None).unwrap());
    let ((_, proj_bytes), t_proj) = time_best(|| {
        layout::read_with_stats(&path, Some(&[tax::attr::ZIPCODE, tax::attr::CITY])).unwrap()
    });
    r.row(vec![
        "Scope pushdown, read time".into(),
        Cell::Secs(t_full),
        Cell::Secs(t_proj),
    ]);
    r.row(vec![
        "Scope pushdown, column bytes decoded".into(),
        full_bytes.into(),
        proj_bytes.into(),
    ]);
    r
}

/// Connected components: the GraphX-style BSP label propagation vs the
/// sequential union-find oracle — the overhead the Figure 12(b)
/// discussion points at.
pub fn ablation_cc() -> Report {
    let mut r = Report::new(
        "Ablation — connected components: BSP label propagation vs union-find",
        &["edges", "components", "BSP (engine)", "union-find"],
    );
    for edges_n in [rows(10_000), rows(40_000)] {
        // a mix of chains and random links over edges_n nodes
        let edges: Vec<Vec<u64>> = (0..edges_n as u64)
            .map(|i| vec![i, (i * 7919) % (edges_n as u64), i / 3])
            .collect();
        let e = Engine::parallel(workers());
        let (labels, bsp) = time_best(|| components_bsp_edges(&e, &edges).unwrap());
        let (uf_labels, uf) = time_best(|| components_union_find(&edges));
        let ncomp = {
            let mut l = labels.clone();
            l.sort_unstable();
            l.dedup();
            l.len()
        };
        assert_eq!(
            {
                let mut l = uf_labels.clone();
                l.sort_unstable();
                l.dedup();
                l.len()
            },
            ncomp
        );
        r.row(vec![
            edges_n.into(),
            ncomp.into(),
            Cell::Secs(bsp),
            Cell::Secs(uf),
        ]);
    }
    r
}

/// All ablations.
pub fn all() -> Vec<Report> {
    vec![
        ablation_shared_scan(),
        ablation_coblock(),
        ablation_storage(),
        ablation_cc(),
    ]
}
