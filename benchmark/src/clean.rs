//! The three `clean_*` workloads: one operation is the CLI `clean` arm,
//! `csv::read_file` → `BigDansing::cleanse` → `csv::write_file`, file
//! in to repaired file out.

use crate::gen::{self, TaxErrors};
use crate::harness::{
    cell_f1, median, median_setup, pair_f1, peak_rss_mb, reset_peak_rss, timed, CellTruth, Cfg,
    Layers, Outcome, WORKERS,
};
use crate::trace::Tracer;
use bigdansing::{
    csv, BigDansing, CleanseOptions, DedupRule, Engine, Executor, HypergraphRepair, LshParams,
    RepairStrategy, Result, Rule, Schema, Table,
};
use bigdansing_common::metrics::MetricsSnapshot;
use bigdansing_common::{minhash, Cell, Value};
use bigdansing_ocjoin::{try_ocjoin, OcJoinConfig};
use bigdansing_repair::hypergraph::Hypergraph;
use bigdansing_repair::{cc, run_repair};
use bigdansing_rules::{DcRule, FdRule};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which `clean_*` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Two FDs on one block key: cheap blocked-pair detect, so parse,
    /// Scope, hash shuffle and write carry the time.
    Fd,
    /// One inequality DC: OCJoin and hypergraph repair carry the time.
    Dc,
    /// LSH-blocked dedup: MinHash, banding and Levenshtein carry it.
    Dedup,
}

const DC_SPEC: &str = "t1.salary > t2.salary & t1.rate < t2.rate";

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fd => "clean_fd",
            Kind::Dc => "clean_dc",
            Kind::Dedup => "clean_dedup",
        }
    }

    fn rows(self, cfg: &Cfg) -> usize {
        match self {
            Kind::Fd => cfg.sizes.fd_rows,
            Kind::Dc => cfg.sizes.dc_rows,
            Kind::Dedup => cfg.sizes.dedup_rows,
        }
    }

    fn rules(self, schema: &Schema) -> Result<Vec<Arc<dyn Rule>>> {
        Ok(match self {
            Kind::Fd => vec![
                Arc::new(FdRule::parse("zipcode -> city", schema)?),
                Arc::new(FdRule::parse("zipcode -> state", schema)?),
            ],
            Kind::Dc => vec![Arc::new(DcRule::parse(DC_SPEC, schema)?)],
            // what the CLI builds for `--dedup name`
            Kind::Dedup => vec![Arc::new(
                DedupRule::new("udf:dedup(name)", schema.index_of("name")?, 0.85)
                    .with_lsh(LshParams::default()),
            )],
        })
    }

    fn options(self) -> CleanseOptions {
        let strategy = match self {
            Kind::Dc => RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
            Kind::Fd | Kind::Dedup => RepairStrategy::default(),
        };
        CleanseOptions {
            strategy,
            ..Default::default()
        }
    }
}

/// The generator's ground truth for one input file.
enum Truth {
    Cells { clean: String, by: CellTruth },
    Entities(Vec<u32>),
}

struct Input {
    dirty: String,
    truth: Truth,
}

struct Files {
    input: PathBuf,
    output: PathBuf,
}

fn generate(kind: Kind, cfg: &Cfg) -> Input {
    let n = kind.rows(cfg);
    let tax = |errors: TaxErrors, by: CellTruth| {
        let rows = gen::tax_rows(cfg.seed, n, errors);
        Input {
            dirty: gen::tax_csv(&rows, true),
            truth: Truth::Cells {
                clean: gen::tax_csv(&rows, false),
                by,
            },
        }
    };
    match kind {
        Kind::Fd => tax(TaxErrors::Fd, CellTruth::Restored),
        Kind::Dc => tax(TaxErrors::Dc, CellTruth::ErrorRow),
        Kind::Dedup => {
            let data = gen::dedup(cfg.seed, n);
            Input {
                dirty: data.csv,
                truth: Truth::Entities(data.entity),
            }
        }
    }
}

/// Set-up: generate the input and write it where the operation reads it.
fn setup(kind: Kind, cfg: &Cfg) -> (Input, Files) {
    let files = Files {
        input: cfg.work_dir.join("input.csv"),
        output: cfg.work_dir.join("repaired.csv"),
    };
    let input = generate(kind, cfg);
    std::fs::create_dir_all(&cfg.work_dir).expect("create work dir");
    std::fs::write(&files.input, &input.dirty).expect("write input csv");
    (input, files)
}

fn system(kind: Kind, engine: Engine, schema: &Schema) -> Result<BigDansing> {
    let mut sys = BigDansing::on_engine(engine);
    for rule in kind.rules(schema)? {
        sys.add_rule(rule);
    }
    Ok(sys)
}

/// One operation; returns the rows cleansed.
fn operation(kind: Kind, files: &Files) -> Result<usize> {
    let table = csv::read_file(&files.input, true, None)?;
    let sys = system(kind, Engine::parallel(WORKERS), table.schema())?;
    let result = sys.cleanse(&table, kind.options())?;
    csv::write_file(&result.table, &files.output)?;
    Ok(table.len())
}

/// The reference output: the same job on the single-threaded engine.
fn sequential_output(kind: Kind, files: &Files) -> Result<String> {
    let table = csv::read_file(&files.input, true, None)?;
    let sys = system(kind, Engine::sequential(), table.schema())?;
    Ok(csv::to_string(&sys.cleanse(&table, kind.options())?.table))
}

fn quality(input: &Input, repaired: &str) -> f64 {
    match &input.truth {
        Truth::Cells { clean, by } => cell_f1(&input.dirty, repaired, clean, *by),
        Truth::Entities(entity) => pair_f1(repaired, entity),
    }
}

/// The untraced run: set-up, one warm-up operation, operations for
/// `cfg.seconds` (at least three), then the output checks.
pub fn run(kind: Kind, cfg: &Cfg) -> Outcome {
    let ((input, files), setup_s) = median_setup(|| setup(kind, cfg));
    let mut out = Outcome {
        setup_s,
        ..Default::default()
    };
    let _ = operation(kind, &files); // warm-up: interner, page cache, allocator
                                     // one process-wide peak swings with how the allocator happened to
                                     // grow; the median of per-operation peaks does not
    let mut peaks_mb = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || out.latencies_ms.len() < 3 {
        reset_peak_rss();
        let (done, secs) = timed(|| operation(kind, &files));
        peaks_mb.push(peak_rss_mb());
        out.attempted += 1;
        match done {
            Ok(rows) => {
                out.rows += rows as u64;
                out.latencies_ms.push(secs * 1e3);
            }
            Err(e) => {
                eprintln!("{}: operation failed: {e}", kind.name());
                out.failed += 1;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = median(&mut peaks_mb);

    let repaired = std::fs::read_to_string(&files.output).unwrap_or_default();
    out.attempted += 1;
    match sequential_output(kind, &files) {
        Ok(reference) if reference == repaired => {}
        Ok(_) => {
            eprintln!(
                "{}: repaired file differs from the sequential engine's",
                kind.name()
            );
            out.failed += 1;
        }
        Err(e) => {
            eprintln!("{}: sequential reference failed: {e}", kind.name());
            out.failed += 1;
        }
    }
    out.quality_f1 = quality(&input, &repaired);
    out
}

// --- traced run ----------------------------------------------------------

/// `cleanse_loop`, split at its public layer calls with a span around
/// each. The caller checks the result byte for byte against `cleanse`,
/// so this copy cannot drift from the loop it decomposes.
fn traced_cleanse(
    tr: &mut Tracer,
    exec: &Executor,
    rules: &[Arc<dyn Rule>],
    table: &Table,
    options: &CleanseOptions,
) -> Result<(Table, usize)> {
    let mut current = table.clone();
    let mut change_count: HashMap<Cell, usize> = HashMap::new();
    let (mut iterations, mut converged) = (0usize, false);
    let detect = |tr: &mut Tracer, current: &Table, first: bool| {
        let name = if first {
            "plan.detect"
        } else {
            "plan.redetect"
        };
        tr.span(name, current.len() as u64, |_| {
            let out = exec.detect(current, rules);
            let n = out.as_ref().map_or(0, |o| o.violation_count() as u64);
            (out, n)
        })
        .0
    };
    for round in 0..options.max_iterations.max(1) {
        let detected = detect(tr, &current, round == 0)?;
        if detected.is_clean() {
            converged = true;
            break;
        }
        iterations += 1;
        let (assignment, _) = tr.span("repair.run", detected.violation_count() as u64, |_| {
            let a = run_repair(
                exec.engine(),
                &detected.detected,
                &options.strategy,
                options.repair_options,
            );
            let n = a.as_ref().map_or(0, |a| a.len() as u64);
            (a, n)
        });
        let mut applicable: HashMap<Cell, Value> = HashMap::new();
        for (cell, value) in assignment? {
            let count = change_count.entry(cell).or_insert(0);
            if *count >= options.max_changes_per_cell || current.cell_value(cell) == Some(&value) {
                continue;
            }
            *count += 1;
            applicable.insert(cell, value);
        }
        if applicable.is_empty() {
            break;
        }
        let (applied, _) = tr.span("core.apply", applicable.len() as u64, |_| {
            (current.apply(&applicable), current.len() as u64)
        });
        current = applied?;
    }
    if !converged {
        detect(tr, &current, false)?;
    }
    Ok((current, iterations))
}

/// What one traced operation produced.
struct Traced {
    repaired_csv: String,
    iterations: usize,
    /// Counters of the operation's own, fresh engine.
    counters: MetricsSnapshot,
    wall_s: f64,
}

/// One traced operation on a fresh engine.
fn traced_operation(kind: Kind, files: &Files, tr: &mut Tracer) -> Result<Traced> {
    tr.next_op();
    let t0 = Instant::now();
    let op = tr.enter("op", 0);
    let (table, _) = tr.span("common.csv_read", 0, |_| {
        let t = csv::read_file(&files.input, true, None);
        let n = t.as_ref().map_or(0, |t| t.len() as u64);
        (t, n)
    });
    let table = table?;
    let exec = Executor::new(Engine::parallel(WORKERS));
    let rules = kind.rules(table.schema())?;
    let options = kind.options();
    let (looped, _) = tr.span("core.cleanse_loop", table.len() as u64, |tr| {
        (
            traced_cleanse(tr, &exec, &rules, &table, &options),
            table.len() as u64,
        )
    });
    let (repaired, iterations) = looped?;
    let (written, _) = tr.span("common.csv_write", repaired.len() as u64, |_| {
        (
            csv::write_file(&repaired, &files.output),
            repaired.len() as u64,
        )
    });
    written?;
    tr.exit(op, repaired.len() as u64);
    Ok(Traced {
        wall_s: t0.elapsed().as_secs_f64(),
        repaired_csv: csv::to_string(&repaired),
        iterations,
        counters: exec.engine().metrics().snapshot(),
    })
}

/// The traced run: the operation split into its layer calls, plus the
/// standalone probes of the layers under it. Returns the per-layer
/// metrics this workload exercises and whether the traced result was
/// byte-identical to the untraced one.
pub fn trace(kind: Kind, cfg: &Cfg, tr: &mut Tracer) -> Result<(Layers, bool)> {
    let (_input, files) = setup(kind, cfg);
    let mut m = Layers::new();

    // plain, traced, traced, plain: operation time drifts with the
    // allocator's state over the first few operations of a process,
    // and this order cancels a steady drift out of the comparison
    let _ = operation(kind, &files)?;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for traced in [false, true, true, false] {
        if traced {
            let done = traced_operation(kind, &files, tr)?;
            traced_s += done.wall_s;
            last = Some(done);
        } else {
            let (rows, secs) = timed(|| operation(kind, &files));
            rows?;
            plain_s += secs;
        }
    }
    let Traced {
        repaired_csv: traced_csv,
        iterations,
        counters: snap,
        ..
    } = last.expect("two traced operations ran");
    let ops = 2.0;
    m.insert("trace_overhead_pct", (traced_s / plain_s - 1.0) * 100.0);

    // layer times: per operation, from the spans
    let per_op = |tr: &Tracer, name: &str| tr.total(name) / ops;
    let detect_s = per_op(tr, "plan.detect");
    let redetect_s = per_op(tr, "plan.redetect");
    let repair_s = per_op(tr, "repair.run");
    let apply_s = per_op(tr, "core.apply");
    m.insert("common.csv_read_s", per_op(tr, "common.csv_read"));
    m.insert("common.csv_write_s", per_op(tr, "common.csv_write"));
    m.insert("plan.detect_s", detect_s);
    m.insert("plan.redetect_s", redetect_s);
    m.insert("repair.run_s", repair_s);
    m.insert("core.apply_s", apply_s);
    m.insert(
        "core.loop_self_s",
        per_op(tr, "core.cleanse_loop") - detect_s - redetect_s - repair_s - apply_s,
    );
    m.insert("core.iterations", iterations as f64);

    // exact counts of one operation, from its own engine
    let table = csv::read_file(&files.input, true, None)?;
    m.insert("common.csv_rows", table.len() as f64);
    m.insert("dataflow.bytes_shuffled", snap.bytes_shuffled as f64);
    m.insert("dataflow.passes_executed", snap.passes_executed as f64);
    m.insert("dataflow.stages_fused", snap.stages_fused as f64);
    m.insert("dataflow.tuples_cloned", snap.tuples_cloned as f64);
    m.insert("dataflow.tasks_retried", snap.tasks_retried as f64);
    m.insert("plan.pairs_generated", snap.pairs_generated as f64);
    m.insert("plan.violations", snap.violations as f64);
    m.insert(
        "plan.useful_pair_ratio",
        snap.violations as f64 / snap.pairs_generated.max(1) as f64,
    );
    m.insert("rules.lsh_candidate_pairs", snap.lsh_candidate_pairs as f64);
    m.insert("rules.lsh_pairs_pruned", snap.lsh_pairs_pruned as f64);
    m.insert("rules.lsh_bands_probed", snap.lsh_bands_probed as f64);
    // violations per LSH candidate pair; 0 where no rule is LSH-blocked
    let lsh_useful = match snap.lsh_candidate_pairs {
        0 => 0.0,
        pairs => snap.violations as f64 / pairs as f64,
    };
    m.insert("rules.lsh_useful_ratio", lsh_useful);
    m.insert("repair.components_found", snap.components_found as f64);
    m.insert("repair.cc_supersteps", snap.cc_supersteps as f64);
    m.insert("repair.cells_assigned", snap.repair_cells_assigned as f64);

    // whole-job references: untraced cleanse, and the same on one thread
    let rules = kind.rules(table.schema())?;
    let sys = system(kind, Engine::parallel(WORKERS), table.schema())?;
    let (plain, cleanse_s) = timed(|| sys.cleanse(&table, kind.options()));
    m.insert("core.cleanse_s", cleanse_s);
    let identical = csv::to_string(&plain?.table) == traced_csv;
    let (reference, cleanse_seq_s) = timed(|| sequential_output(kind, &files));
    m.insert("core.cleanse_seq_s", cleanse_seq_s);
    let identical = identical && reference? == traced_csv;

    // standalone probes, each on an engine of its own
    tr.next_op();
    let seq = Executor::new(Engine::sequential());
    let (first, detect_seq_s) = tr.span("probe.detect_seq", table.len() as u64, |_| {
        let out = seq.detect(&table, &rules);
        let n = out.as_ref().map_or(0, |o| o.violation_count() as u64);
        (out, n)
    });
    m.insert("plan.detect_seq_s", detect_seq_s);
    let detected = first?.detected;

    let (graph, build_s) = tr.span("probe.hypergraph_build", detected.len() as u64, |_| {
        let g = Hypergraph::build(&detected);
        let n = g.num_nodes() as u64;
        (g, n)
    });
    m.insert("repair.hypergraph_build_s", build_s);
    let cc_engine = Engine::parallel(WORKERS);
    let (components, cc_s) = tr.span("probe.cc_bsp", graph.num_edges() as u64, |_| {
        (
            cc::components_bsp(&cc_engine, graph.topology()),
            graph.num_nodes() as u64,
        )
    });
    components?;
    m.insert("repair.cc_s", cc_s);

    // hash shuffle of the whole table on its second column (zipcode /
    // address): the Block operator's cost without Detect behind it
    let shuffle = Executor::new(Engine::parallel(WORKERS));
    let (groups, shuffle_s) = tr.span("probe.shuffle", table.len() as u64, |_| {
        let grouped = shuffle
            .load(&table)
            .stage()
            .group_by_key("probe", |t| Ok(t.value(1).clone()))
            .and_then(|g| g.run());
        let n = grouped.as_ref().map_or(0, |g| g.count() as u64);
        (grouped, n)
    });
    groups?;
    m.insert("dataflow.shuffle_s", shuffle_s);

    // MinHash signatures + banding over the first column (name)
    let params = LshParams::default();
    let (_, minhash_s) = tr.span("probe.minhash", table.len() as u64, |_| {
        let mut acc = 0u64;
        for t in table.tuples() {
            let hashes = minhash::band_hashes(t.value(0).as_str().unwrap_or(""), &params);
            acc = acc.wrapping_add(hashes[0]);
        }
        (std::hint::black_box(acc), table.len() as u64)
    });
    m.insert("common.minhash_s", minhash_s);

    if kind == Kind::Dc {
        let dc = DcRule::parse(DC_SPEC, table.schema())?;
        let conds = dc.ordering_conditions();
        let scoped: Vec<_> = table.tuples().iter().flat_map(|t| dc.scope(t)).collect();
        let data = bigdansing::PDataset::from_vec(Engine::parallel(WORKERS), scoped);
        let (pairs, join_s) = tr.span("probe.ocjoin", table.len() as u64, |_| {
            let joined = try_ocjoin(data, &conds, OcJoinConfig::default());
            let n = joined.as_ref().map_or(0, |p| p.count() as u64);
            (joined, n)
        });
        m.insert("ocjoin.pairs_emitted", pairs?.count() as f64);
        m.insert("ocjoin.join_s", join_s);
    }
    Ok((m, identical))
}
