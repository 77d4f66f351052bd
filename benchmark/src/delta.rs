//! `delta_durable`: the `delta` user path. A durable session is opened
//! over an FD-dirty base in set-up; one operation is one 64-op batch
//! parsed from CSV text and applied with `BigDansing::apply_delta`
//! (index probe, retraction, component re-repair, WAL fsync, and every
//! 64th batch a whole-state snapshot).

use crate::gen::{self, DeltaStream, DELTA_BATCH_OPS, TAX_HEADER};
use crate::harness::{
    cell_f1, median_setup, peak_rss_mb, reset_peak_rss, timed, CellTruth, Cfg, Layers, Outcome,
    SNAPSHOT_EVERY, WORKERS,
};
use crate::trace::Tracer;
use bigdansing::{
    csv, BigDansing, CleanseOptions, DeltaBatch, DurabilityOptions, Result, Schema, Session, Table,
};
use bigdansing_incremental::wal::{snapshot_path, Wal};
use std::path::PathBuf;
use std::time::Instant;

pub const NAME: &str = "delta_durable";

/// Batches applied before timing starts.
const WARM_UP_BATCHES: usize = 1;

fn system(schema: &Schema) -> Result<BigDansing> {
    let mut sys = BigDansing::parallel(WORKERS);
    sys.add_fd("zipcode -> city", schema)?;
    sys.add_fd("zipcode -> state", schema)?;
    Ok(sys)
}

fn durable_dir(cfg: &Cfg) -> PathBuf {
    cfg.work_dir.join("durable")
}

fn durability(cfg: &Cfg) -> DurabilityOptions {
    DurabilityOptions::new(durable_dir(cfg)).snapshot_every(SNAPSHOT_EVERY)
}

struct Ready {
    stream: DeltaStream,
    base: Table,
    sys: BigDansing,
    session: Session,
    /// Wall time of `open_durable_session` alone.
    open_s: f64,
}

/// Set-up: generate base and batches, write and load the base, open
/// the durable session (initial cleanse and base snapshot included).
fn setup(cfg: &Cfg) -> Ready {
    let stream = gen::delta_stream(cfg.seed, cfg.sizes.delta_base_rows, cfg.sizes.delta_batches);
    std::fs::create_dir_all(&cfg.work_dir).expect("create work dir");
    let base_path = cfg.work_dir.join("base.csv");
    std::fs::write(&base_path, gen::tax_csv(&stream.base, true)).expect("write base csv");
    let base = csv::read_file(&base_path, true, None).expect("read base csv");
    let sys = system(base.schema()).expect("FD rules parse");
    let _ = std::fs::remove_dir_all(durable_dir(cfg));
    let (session, open_s) =
        timed(|| sys.open_durable_session(&base, CleanseOptions::default(), durability(cfg)));
    Ready {
        stream,
        base,
        sys,
        session: session.expect("durable session opens"),
        open_s,
    }
}

/// One operation: parse one batch from CSV text, apply it.
fn operation(r: &mut Ready, index: usize) -> Result<()> {
    let batch = DeltaBatch::parse_str(&r.stream.batches[index], r.base.schema())?;
    r.sys.apply_delta(&mut r.session, batch)?;
    Ok(())
}

/// An in-memory session fed the first `applied` batches: the reference
/// the durable session must equal. Returns it with each batch's apply
/// time.
fn memory_twin(r: &Ready, applied: usize) -> Result<(Session, Vec<f64>)> {
    let sys = system(r.base.schema())?;
    let mut twin = sys.open_session(&r.base, CleanseOptions::default())?;
    let mut apply_s = Vec::with_capacity(applied);
    for text in &r.stream.batches[..applied] {
        let batch = DeltaBatch::parse_str(text, r.base.schema())?;
        let (report, secs) = timed(|| twin.apply(batch));
        report?;
        apply_s.push(secs);
    }
    Ok((twin, apply_s))
}

/// Cell F1 of the live table against the generator's model of the same
/// rows after `applied` batches.
fn quality(r: &Ready, applied: usize, live: &Table) -> f64 {
    let model = r.stream.model_after(applied);
    let mut dirty = format!("{TAX_HEADER}\n");
    let mut clean = dirty.clone();
    for t in live.tuples() {
        let Some(row) = model.get(&t.id()) else {
            return 0.0; // a row the model does not have
        };
        row.write_line(true, &mut dirty);
        dirty.push('\n');
        row.write_line(false, &mut clean);
        clean.push('\n');
    }
    if live.len() != model.len() {
        return 0.0;
    }
    cell_f1(&dirty, &csv::to_string(live), &clean, CellTruth::Restored)
}

/// Output checks, two of them: the recovered durable directory and an
/// in-memory session fed the same batches both equal the live session.
/// Returns how many failed.
fn checks(cfg: &Cfg, r: Ready, applied: usize) -> u64 {
    let live_csv = csv::to_string(r.session.table());
    let live_detected = r.session.detected();
    let mut failed = 0;
    match memory_twin(&r, applied) {
        Ok((twin, _)) if csv::to_string(twin.table()) == live_csv => {}
        Ok(_) => {
            eprintln!("{NAME}: in-memory session differs from the durable one");
            failed += 1;
        }
        Err(e) => {
            eprintln!("{NAME}: in-memory reference failed: {e}");
            failed += 1;
        }
    }
    let Ready { sys, session, .. } = r;
    drop(session);
    match sys.recover_session(CleanseOptions::default(), durability(cfg)) {
        Ok((recovered, stats))
            if stats.last_seq == applied as u64
                && csv::to_string(recovered.table()) == live_csv
                && recovered.detected() == live_detected => {}
        Ok((_, stats)) => {
            eprintln!("{NAME}: recovered session differs from the live one ({stats:?})");
            failed += 1;
        }
        Err(e) => {
            eprintln!("{NAME}: recovery failed: {e}");
            failed += 1;
        }
    }
    failed
}

/// The untraced run.
pub fn run(cfg: &Cfg) -> Outcome {
    let (mut r, setup_s) = median_setup(|| setup(cfg));
    let mut out = Outcome {
        setup_s,
        ..Default::default()
    };
    let mut applied = 0;
    while applied < WARM_UP_BATCHES {
        operation(&mut r, applied).expect("warm-up batch applies");
        applied += 1;
    }
    reset_peak_rss();
    let start = Instant::now();
    while applied < r.stream.batches.len() && start.elapsed().as_secs_f64() < cfg.seconds {
        let (done, secs) = timed(|| operation(&mut r, applied));
        out.attempted += 1;
        applied += 1;
        match done {
            Ok(()) => {
                out.rows += DELTA_BATCH_OPS as u64;
                out.latencies_ms.push(secs * 1e3);
            }
            Err(e) => {
                // a failed apply poisons the session: stop here
                eprintln!("{NAME}: batch {applied} failed: {e}");
                out.failed += 1;
                break;
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.quality_f1 = quality(&r, applied, r.session.table());
    out.attempted += 2;
    if out.failed == 0 {
        out.failed += checks(cfg, r, applied);
    } else {
        out.failed += 2;
    }
    out
}

/// The traced run: the same stream, the first half of `cfg.seconds`
/// without spans and the second half with them, then the reference
/// session, one explicit snapshot and a recovery, each timed.
pub fn trace(cfg: &Cfg, tr: &mut Tracer) -> Result<(Layers, bool)> {
    let mut r = setup(cfg);
    let mut m = Layers::new();
    m.insert("incremental.open_s", r.open_s);

    let mut applied = 0;
    let total = r.stream.batches.len();
    let half_s = cfg.seconds / 2.0;
    // the untraced half leaves the traced one at least half the stream
    let start = Instant::now();
    while applied <= WARM_UP_BATCHES
        || (applied < total / 2 && start.elapsed().as_secs_f64() < half_s)
    {
        operation(&mut r, applied)?;
        applied += 1;
    }
    let plain_per_op = start.elapsed().as_secs_f64() / applied as f64;

    let (mut user_bytes, mut wal_bytes) = (0usize, 0usize);
    let traced_from = applied;
    let before = r.sys.engine().metrics().snapshot();
    let start = Instant::now();
    while applied == traced_from || (applied < total && start.elapsed().as_secs_f64() < half_s) {
        tr.next_op();
        let text = &r.stream.batches[applied];
        let op = tr.enter("op", DELTA_BATCH_OPS as u64);
        let (batch, _) = tr.span("incremental.delta_parse", text.len() as u64, |_| {
            let b = DeltaBatch::parse_str(text, r.base.schema());
            let n = b.as_ref().map_or(0, |b| b.len() as u64);
            (b, n)
        });
        let batch = batch?;
        user_bytes += text.len();
        wal_bytes += Wal::record_size(&batch);
        let (report, _) = tr.span("incremental.apply_durable", batch.len() as u64, |_| {
            let rep = r.session.apply(batch);
            let n = rep.as_ref().map_or(0, |rep| rep.tuples_reprocessed);
            (rep, n)
        });
        report?;
        tr.exit(op, DELTA_BATCH_OPS as u64);
        applied += 1;
    }
    let traced = (applied - traced_from) as f64;
    let traced_per_op = start.elapsed().as_secs_f64() / traced;
    m.insert(
        "trace_overhead_pct",
        (traced_per_op / plain_per_op - 1.0) * 100.0,
    );

    // times and counts below all cover the traced batches only
    let after = r.sys.engine().metrics().snapshot();
    let apply_durable_s = tr.total("incremental.apply_durable");
    m.insert(
        "incremental.delta_parse_s",
        tr.total("incremental.delta_parse"),
    );
    m.insert("incremental.apply_durable_s", apply_durable_s);
    let snapshots = (after.snapshots_written - before.snapshots_written) as f64;
    let reprocessed = (after.tuples_reprocessed - before.tuples_reprocessed) as f64;
    for (name, count) in [
        (
            "incremental.wal_appends",
            after.wal_appends - before.wal_appends,
        ),
        (
            "incremental.blocks_dirty",
            after.blocks_dirty - before.blocks_dirty,
        ),
        (
            "incremental.violations_retracted",
            after.violations_retracted - before.violations_retracted,
        ),
        (
            "incremental.components_rerepaired",
            after.components_rerepaired - before.components_rerepaired,
        ),
    ] {
        m.insert(name, count as f64);
    }
    m.insert("incremental.snapshots_written", snapshots);
    m.insert("incremental.tuples_reprocessed", reprocessed);
    m.insert(
        "incremental.reprocessed_per_op",
        reprocessed / (traced * DELTA_BATCH_OPS as f64),
    );

    // the same batches on an in-memory session: apply without the WAL
    let (twin, mem_s) = memory_twin(&r, applied)?;
    let apply_mem_s: f64 = mem_s[traced_from..].iter().sum();
    m.insert("incremental.apply_mem_s", apply_mem_s);
    m.insert("incremental.wal_overhead_s", apply_durable_s - apply_mem_s);
    let identical = csv::to_string(twin.table()) == csv::to_string(r.session.table());
    drop(twin);

    let (seq, snapshot_s) = tr.span(
        "incremental.snapshot",
        r.session.table().len() as u64,
        |_| (r.session.snapshot(), 0),
    );
    seq?;
    m.insert("incremental.snapshot_s", snapshot_s);
    // bytes made durable per byte of batch text: every WAL record, plus
    // one snapshot file per snapshot taken in the traced half
    let snapshot_bytes =
        std::fs::metadata(snapshot_path(&durable_dir(cfg))).map_or(0, |meta| meta.len() as usize);
    m.insert(
        "incremental.durable_bytes_per_user_byte",
        (wal_bytes as f64 + snapshots * snapshot_bytes as f64) / user_bytes.max(1) as f64,
    );

    let live_csv = csv::to_string(r.session.table());
    let Ready { sys, session, .. } = r;
    drop(session);
    let (recovered, recover_s) = tr.span("incremental.recover", 0, |_| {
        let rec = sys.recover_session(CleanseOptions::default(), durability(cfg));
        let n = rec.as_ref().map_or(0, |(s, _)| s.table().len() as u64);
        (rec, n)
    });
    m.insert("incremental.recover_s", recover_s);
    let identical = identical && csv::to_string(recovered?.0.table()) == live_csv;
    Ok((m, identical))
}
