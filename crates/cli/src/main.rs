//! `bigdansing` — command-line data cleansing.
//!
//! ```text
//! bigdansing detect  <input.csv> --fd "zipcode -> city" [--report out]
//! bigdansing clean   <input.csv> --fd "..." [--dc "..."] [--cfd "..."]
//!                    -o clean.csv [--workers N] [--repair eq|hyper]
//! bigdansing delta   <base.csv> <delta.csv>... --fd "..." -o clean.csv
//! bigdansing convert <input.csv> -o table.bdcol     # columnar layout
//! ```
//!
//! Rules use the same syntax as the library parsers:
//! FD `"a, b -> c"`, DC `"t1.x > t2.x & t1.y < t2.y"`,
//! CFD `"a -> b | a=1, b=_"`.

use bigdansing::{
    csv, read_snapshot_table, BigDansing, CleanseOptions, DedupRule, DeltaBatch, DurabilityOptions,
    Engine, EquivalenceClassRepair, ExecMode, HypergraphRepair, IsolationOptions, LshParams,
    MemoryBudget, PassRecord, Quarantine, RepairOptions, RepairStrategy,
};
use bigdansing_common::metrics::MetricsSnapshot;
use bigdansing_common::Table;
use bigdansing_serve::{ServeOptions, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
bigdansing — data cleansing with the BigDansing rule engine

USAGE:
  bigdansing detect  <input.csv> [RULES] [--report STEM] [--workers N]
  bigdansing clean   <input.csv> [RULES] -o <clean.csv> [--workers N]
                     [--repair eq|hyper] [--max-iterations N]
  bigdansing delta   <base.csv> <delta.csv>... [RULES] [-o <clean.csv>]
                     [--repair eq|hyper] [--max-iterations N]
                     [--durable-dir DIR] [--snapshot-every N]
                     incremental cleansing: each delta CSV holds
                     `op,id,<cols...>` rows (op = insert|update|delete);
                     batches apply in order over a persistent session;
                     with --durable-dir every batch is WAL-logged and
                     the session state snapshotted, so a crash (or a
                     poisoned session) is recoverable
  bigdansing recover <durable-dir> [RULES] [-o <clean.csv>]
                     rebuild a durable session from its directory:
                     fold its log and replay the batches logged
                     after its last state frame
  bigdansing serve   --schema \"col1,col2,...\" [RULES] [--listen ADDR]
                     [--shards N] [--max-batch N] [--max-latency-ms N]
                     [--window SIZE[:SLIDE]] [--durable-dir DIR]
                     [--max-pending N] [--partial]
                     continuous cleansing service: tenants stream delta
                     ops (`op,id,<cols...>` CSV or JSONL) to
                     POST /tenant/{id}/records; a micro-batcher
                     coalesces them into per-tenant incremental
                     sessions sharded across worker threads; inspect
                     with GET /tenant/{id}/report, /table and /stats;
                     stop with POST /shutdown
  bigdansing convert <input.csv> -o <table.bdcol>

RULES (repeatable):
  --fd  \"zipcode -> city\"
  --dc  \"t1.salary > t2.salary & t1.rate < t2.rate\"
  --cfd \"zipcode -> city | zipcode=90210, city=LA\"
  --dedup COL[:THRESHOLD]  string-similarity deduplication on column
                           COL (Levenshtein similarity >= THRESHOLD,
                           default 0.85), candidate pairs generated by
                           MinHash/LSH blocking instead of all pairs

OPTIONS:
  -o, --output PATH      output file
  --report STEM          write STEM.violations.csv / STEM.fixes.csv
  --workers N            worker threads (default: all cores)
  --repair eq|hyper      repair algorithm (default: eq)
  --max-component-size N k-way partition hypergraph components larger
                         than N violations and repair them with the
                         master/slave protocol (default: unlimited)
  --repair-k N           parts per partitioned component (default: 4)
  --max-iterations N     detect/repair rounds (default: 10)
  --lsh-bands N          LSH bands of the --dedup rules (default: 8;
                         more bands = higher recall, more candidates)
  --lsh-rows N           MinHash rows hashed per LSH band of the
                         --dedup rules (default: 3; more rows =
                         stricter buckets, fewer candidates); both
                         flags require a --dedup rule
  --deadline-ms N        cancel the job after N ms of wall-clock time
  --memory-budget-mb N   soft memory budget for checkpointed data; the
                         coldest datasets spill to disk past it (hard
                         ceiling: 4x the budget cancels the job)
  --durable-dir DIR      (delta) directory of the session's log (batch
                         records and snapshots); recover later with
                         `recover DIR`
  --snapshot-every N     (delta/recover) snapshot cadence in batches
                         (default: 8; 0 disables automatic snapshots)
  --lenient              quarantine malformed CSV rows instead of
                         aborting the load (reported after the run)
  --partial              best-effort cleansing: a faulty rule (panicking
                         UDF, hung detect, repeated stage failure) is
                         quarantined on its first failed pass and the run
                         completes with a per-rule health report instead
                         of failing; a degraded-but-usable run exits
                         with code 3
  --rule-timeout-ms N    soft wall-clock budget per rule detect pass;
                         a rule that exceeds it faults (and in partial
                         mode is quarantined)
  --max-block-size N     straggler guard: blocks with more than N
                         tuples are outliers — skipped-and-counted in
                         partial mode, a typed error otherwise
  --explain              print the fused stage graph after the run:
                         every physical pass, its kind, and the
                         logical operators fused into it
  --schema COLS          (serve) comma-separated column names shared by
                         every tenant's stream
  --listen ADDR          (serve) bind address (default: 127.0.0.1:7171;
                         port 0 picks an ephemeral port)
  --shards N             (serve) shard worker threads; tenants hash
                         across them (default: 2)
  --max-batch N          (serve) flush a tenant's micro-batch at N
                         parked ops (default: 256)
  --max-latency-ms N     (serve) flush once the oldest parked op is
                         this stale (default: 25)
  --window SIZE[:SLIDE]  (serve) violation window: tuples behind the
                         watermark retire with their violations
                         retracted (tumbling unless SLIDE is given)
  --max-pending N        (serve) admission queue depth beyond the
                         concurrently running applies
";

#[cfg_attr(test, derive(Debug))]
struct Args {
    command: String,
    input: String,
    deltas: Vec<String>,
    fds: Vec<String>,
    dcs: Vec<String>,
    cfds: Vec<String>,
    dedups: Vec<String>,
    lsh_bands: Option<usize>,
    lsh_rows: Option<usize>,
    output: Option<String>,
    report: Option<String>,
    workers: usize,
    repair: String,
    max_iterations: usize,
    deadline_ms: Option<u64>,
    memory_budget_mb: Option<u64>,
    durable_dir: Option<String>,
    snapshot_every: u64,
    lenient: bool,
    explain: bool,
    partial: bool,
    rule_timeout_ms: Option<u64>,
    max_block_size: Option<usize>,
    max_component_size: Option<usize>,
    repair_k: Option<usize>,
    schema: Option<String>,
    listen: String,
    shards: usize,
    max_batch: usize,
    max_latency_ms: u64,
    window: Option<String>,
    max_pending: Option<usize>,
}

impl Args {
    /// The rule-isolation options the flags describe.
    fn isolation(&self) -> IsolationOptions {
        let mut iso = if self.partial {
            IsolationOptions::partial()
        } else {
            IsolationOptions::default()
        };
        iso.rule_time_budget = self.rule_timeout_ms.map(Duration::from_millis);
        iso.max_block_size = self.max_block_size;
        iso
    }

    /// The banding geometry of the `--dedup` rules: `None` when neither
    /// flag was given (the rules keep the default), otherwise the
    /// default with the given dimension(s) overridden.
    fn lsh_params(&self) -> Option<LshParams> {
        if self.lsh_bands.is_none() && self.lsh_rows.is_none() {
            return None;
        }
        let mut p = LshParams::default();
        if let Some(b) = self.lsh_bands {
            p.bands = b;
        }
        if let Some(r) = self.lsh_rows {
            p.rows_per_band = r;
        }
        Some(p)
    }

    /// The parallel-repair driver options the flags describe.
    fn repair_options(&self) -> RepairOptions {
        let mut opts = RepairOptions::default();
        if let Some(n) = self.max_component_size {
            opts.max_component_size = n;
        }
        if let Some(k) = self.repair_k {
            opts.k = k;
        }
        opts
    }

    /// The cleanse options the flags describe, shared by `clean`,
    /// `delta`, `recover` and `serve`.
    fn cleanse_options(&self) -> Result<CleanseOptions, String> {
        Ok(CleanseOptions {
            strategy: parse_strategy(&self.repair)?,
            max_iterations: self.max_iterations,
            isolation: self.isolation(),
            repair_options: self.repair_options(),
            ..Default::default()
        })
    }
}

/// Exit code for a run that completed best-effort but degraded (some
/// rule quarantined or units skipped) — distinct from success (0) and
/// failure (1) so scripts can tell "usable but incomplete" apart.
const EXIT_DEGRADED: u8 = 3;

/// What a numeric flag's error says it needs (the wording differs
/// between the batch flags and the serve flags).
const INTEGER: &str = "needs an integer";
const NUMBER: &str = "needs a number";

/// Parse a flag's value, or fail with `<flag> <needs>`.
fn parsed<T: std::str::FromStr>(flag: &str, value: String, needs: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} {needs}"))
}

/// Parse a flag's value as an integer above zero.
fn positive(flag: &str, value: String) -> Result<usize, String> {
    parsed::<std::num::NonZeroUsize>(flag, value, "needs a positive integer").map(|n| n.get())
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        input: String::new(),
        deltas: vec![],
        fds: vec![],
        dcs: vec![],
        cfds: vec![],
        dedups: vec![],
        lsh_bands: None,
        lsh_rows: None,
        output: None,
        report: None,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2),
        repair: "eq".into(),
        max_iterations: 10,
        deadline_ms: None,
        memory_budget_mb: None,
        durable_dir: None,
        snapshot_every: 8,
        lenient: false,
        explain: false,
        partial: false,
        rule_timeout_ms: None,
        max_block_size: None,
        max_component_size: None,
        repair_k: None,
        schema: None,
        listen: "127.0.0.1:7171".into(),
        shards: 2,
        max_batch: 256,
        max_latency_ms: 25,
        window: None,
        max_pending: None,
    };
    let mut positional = Vec::new();
    while let Some(a) = argv.next() {
        let flag = if a == "-o" { "--output" } else { a.as_str() };
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--fd" => args.fds.push(value()?),
            "--dc" => args.dcs.push(value()?),
            "--cfd" => args.cfds.push(value()?),
            "--dedup" => args.dedups.push(value()?),
            "--lsh-bands" => args.lsh_bands = Some(positive(flag, value()?)?),
            "--lsh-rows" => args.lsh_rows = Some(positive(flag, value()?)?),
            "--output" => args.output = Some(value()?),
            "--report" => args.report = Some(value()?),
            "--workers" => args.workers = parsed(flag, value()?, INTEGER)?,
            "--repair" => args.repair = value()?,
            "--max-iterations" => args.max_iterations = parsed(flag, value()?, INTEGER)?,
            "--deadline-ms" => args.deadline_ms = Some(parsed(flag, value()?, INTEGER)?),
            "--memory-budget-mb" => args.memory_budget_mb = Some(parsed(flag, value()?, INTEGER)?),
            "--durable-dir" => args.durable_dir = Some(value()?),
            "--snapshot-every" => args.snapshot_every = parsed(flag, value()?, INTEGER)?,
            "--schema" => args.schema = Some(value()?),
            "--listen" => args.listen = value()?,
            "--shards" => args.shards = parsed(flag, value()?, NUMBER)?,
            "--max-batch" => args.max_batch = parsed(flag, value()?, NUMBER)?,
            "--max-latency-ms" => args.max_latency_ms = parsed(flag, value()?, NUMBER)?,
            "--window" => args.window = Some(value()?),
            "--max-pending" => args.max_pending = Some(parsed(flag, value()?, NUMBER)?),
            "--lenient" => args.lenient = true,
            "--explain" => args.explain = true,
            "--partial" => args.partial = true,
            "--rule-timeout-ms" => args.rule_timeout_ms = Some(parsed(flag, value()?, INTEGER)?),
            "--max-block-size" => args.max_block_size = Some(parsed(flag, value()?, INTEGER)?),
            "--max-component-size" => {
                args.max_component_size = Some(parsed(flag, value()?, INTEGER)?)
            }
            "--repair-k" => args.repair_k = Some(parsed(flag, value()?, INTEGER)?),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    if args.command == "serve" {
        // serve has no input file: tenants stream their data over HTTP
        if let Some(extra) = positional.first() {
            return Err(format!(
                "unexpected argument `{extra}` (`serve` takes no input file; use --schema)"
            ));
        }
        return Ok(args);
    }
    args.input = positional.first().cloned().ok_or("missing input file")?;
    // Only `delta` (and its crash-test twin) takes trailing positionals
    // (its delta CSVs); stray extras elsewhere are mistakes, not input
    // to silently ignore.
    if args.command == "delta" || args.command == "crash-apply" {
        args.deltas = positional.split_off(1);
    } else if let Some(extra) = positional.get(1) {
        return Err(format!(
            "unexpected argument `{extra}` (the `{}` command takes one input file)",
            args.command
        ));
    }
    Ok(args)
}

fn build_system(args: &Args, table: &Table) -> Result<BigDansing, String> {
    let mut builder = Engine::builder(ExecMode::Parallel).workers(args.workers);
    if let Some(mb) = args.memory_budget_mb {
        builder = builder.memory_budget(MemoryBudget::soft(mb.saturating_mul(1024 * 1024)));
    }
    let mut sys = BigDansing::on_engine(builder.build());
    if let Some(ms) = args.deadline_ms {
        sys = sys.with_deadline(Duration::from_millis(ms));
    }
    for spec in &args.fds {
        sys.add_fd(spec, table.schema())
            .map_err(|e| e.to_string())?;
    }
    for spec in &args.dcs {
        sys.add_dc(spec, table.schema())
            .map_err(|e| e.to_string())?;
    }
    for spec in &args.cfds {
        sys.add_cfd(spec, table.schema())
            .map_err(|e| e.to_string())?;
    }
    if args.dedups.is_empty() && args.lsh_params().is_some() {
        return Err(
            "--lsh-bands/--lsh-rows apply only to similarity rules; add a rule like \
             --dedup COL[:THRESHOLD]"
                .into(),
        );
    }
    for spec in &args.dedups {
        sys.add_rule(Arc::new(parse_dedup(
            spec,
            table.schema(),
            args.lsh_params(),
        )?));
    }
    if sys.rules().is_empty() {
        return Err("no rules given (use --fd / --dc / --cfd / --dedup)".into());
    }
    Ok(sys)
}

/// Parse a `--dedup COL[:THRESHOLD]` spec into an LSH-blocked
/// [`DedupRule`]: the column resolves against the input schema and the
/// optional threshold is the minimum Levenshtein similarity for a pair
/// to count as a duplicate.
fn parse_dedup(
    spec: &str,
    schema: &bigdansing_common::Schema,
    lsh: Option<LshParams>,
) -> Result<DedupRule, String> {
    let (col, threshold) = match spec.rsplit_once(':') {
        Some((col, t)) => {
            let t: f64 = t
                .parse()
                .map_err(|_| format!("--dedup {spec}: `{t}` is not a number"))?;
            if !(0.0..=1.0).contains(&t) {
                return Err(format!("--dedup {spec}: threshold must be between 0 and 1"));
            }
            (col, t)
        }
        None => (spec, 0.85),
    };
    let attr = schema.index_of(col).map_err(|e| e.to_string())?;
    Ok(DedupRule::new(format!("udf:dedup({col})"), attr, threshold)
        .with_lsh(lsh.unwrap_or_default()))
}

fn parse_strategy(name: &str) -> Result<RepairStrategy, String> {
    match name {
        "eq" => Ok(RepairStrategy::ParallelBlackBox(Arc::new(
            EquivalenceClassRepair,
        ))),
        "hyper" => Ok(RepairStrategy::ParallelBlackBox(Arc::new(
            HypergraphRepair::default(),
        ))),
        other => Err(format!("unknown repair algorithm `{other}`")),
    }
}

fn load(path: &str, lenient: bool) -> Result<(Table, Option<Quarantine>), String> {
    if path.ends_with(".bdcol") {
        let table = bigdansing_storage::layout::read_table(path).map_err(|e| e.to_string())?;
        Ok((table, None))
    } else if lenient {
        let (table, q) = csv::read_file_lenient(path, true, None).map_err(|e| e.to_string())?;
        Ok((table, Some(q)))
    } else {
        let table = csv::read_file(path, true, None).map_err(|e| e.to_string())?;
        Ok((table, None))
    }
}

/// Print one of `report`'s summary lines over the engine's metrics,
/// when it has anything to say.
fn summarize(engine: &Engine, summary: fn(&MetricsSnapshot) -> Option<String>) {
    if let Some(line) = summary(&engine.metrics().snapshot()) {
        eprintln!("{line}");
    }
}

/// The fused stage graph (`--explain`) of `passes`, then the one-line
/// fusion summary derived from the engine's metrics.
fn explain(engine: &Engine, passes: &[PassRecord]) -> String {
    use bigdansing::report::{plan_summary, render_plan};
    let summary = plan_summary(&engine.metrics().snapshot());
    let lines: Vec<String> = std::iter::once(render_plan(passes))
        .chain(summary)
        .collect();
    lines.join("\n")
}

/// `recover <durable-dir>`: rebuild a durable session from its log,
/// then print what `delta` prints after its last batch.
fn run_recover(args: &Args) -> Result<u8, String> {
    let (sys, session) = recover(args)?;
    if let Some(output) = args.output.as_deref() {
        csv::write_file(session.table(), output).map_err(|e| e.to_string())?;
        eprintln!("wrote {output}");
    }
    let passes = sys.engine().plan_trace();
    for line in session_epilogue(args, sys.engine(), &session, &passes) {
        eprintln!("{line}");
    }
    Ok(session_exit_code(&session))
}

/// The session `recover` rebuilds, with the system whose engine replayed
/// the log. The schema comes from the log's base itself, so rules can be
/// parsed before the session exists. A log written by a newer format
/// version is rejected, not misread.
fn recover(args: &Args) -> Result<(BigDansing, bigdansing::Session), String> {
    let dir = PathBuf::from(&args.input);
    let table = read_snapshot_table(&dir).map_err(|e| e.to_string())?;
    eprintln!(
        "snapshot at `{}`: {} rows × {} attributes",
        args.input,
        table.len(),
        table.schema().arity()
    );
    let sys = build_system(args, &table)?;
    let options = args.cleanse_options()?;
    let durability = DurabilityOptions::new(&dir).snapshot_every(args.snapshot_every);
    let (session, stats) = sys
        .recover_session(options, durability)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "recovered: snapshot covered seq {}, {} batch(es) replayed from the log, \
         last seq {}, {} live violation(s), {} row(s)",
        stats.snapshot_seq,
        stats.replayed,
        stats.last_seq,
        session.violation_count(),
        session.table().len()
    );
    Ok((sys, session))
}

/// What `delta` and `recover` print after a session's last batch: the
/// repair summary, the quarantined rules, under `--explain` the stage
/// graph of `passes` — every pass the command ran, collected after each
/// of its jobs, since a job's start clears the engine's trace — and the
/// fault summary.
fn session_epilogue(
    args: &Args,
    engine: &Engine,
    session: &bigdansing::Session,
    passes: &[PassRecord],
) -> Vec<String> {
    use bigdansing::report::{fault_summary, repair_summary};
    let m = engine.metrics().snapshot();
    let mut lines: Vec<String> = repair_summary(&m).into_iter().collect();
    let quarantined = session.quarantined_rules();
    let quarantines = quarantined.iter();
    lines.extend(quarantines.map(|(rule, cause)| format!("rule {rule}: quarantined — {cause}")));
    if !quarantined.is_empty() {
        let n = quarantined.len();
        lines.push(format!(
            "degraded: {n} rule(s) quarantined; output is best-effort"
        ));
    }
    if args.explain {
        lines.push(explain(engine, passes));
    }
    lines.extend(fault_summary(&m));
    lines
}

/// 0 (success) unless partial-mode isolation quarantined rules during
/// the session — then the degraded exit code.
fn session_exit_code(session: &bigdansing::Session) -> u8 {
    match session.quarantined_rules().is_empty() {
        true => 0,
        false => EXIT_DEGRADED,
    }
}

/// The continuous cleansing service: multi-tenant delta streams over
/// HTTP, micro-batched into per-tenant incremental sessions.
fn run_serve(args: &Args) -> Result<u8, String> {
    let spec = args
        .schema
        .as_deref()
        .ok_or("serve needs --schema \"col1,col2,...\"")?;
    let schema = bigdansing_common::Schema::parse(spec);
    // collect the rule objects the flags describe via the facade
    let empty = Table::from_rows("serve", schema.clone(), Vec::new());
    let rule_sys = build_system(args, &empty)?;

    let mut opts = ServeOptions::new(schema);
    opts.rules = rule_sys.rules().to_vec();
    opts.shards = args.shards.max(1);
    opts.workers = args.workers;
    opts.max_batch = args.max_batch;
    opts.max_latency = Duration::from_millis(args.max_latency_ms);
    opts.durability = args
        .durable_dir
        .as_ref()
        .map(|dir| DurabilityOptions::new(dir).snapshot_every(args.snapshot_every));
    opts.deadline = args.deadline_ms.map(Duration::from_millis);
    opts.max_pending = args.max_pending;
    opts.cleanse = args.cleanse_options()?;
    opts.cleanse.window = args
        .window
        .as_deref()
        .map(bigdansing::WindowSpec::parse)
        .transpose()
        .map_err(|e| e.to_string())?;

    let mut server = Server::start(&args.listen, opts).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} shard(s) on http://{} — POST /tenant/{{id}}/records, GET /stats, POST /shutdown",
        args.shards.max(1),
        server.addr()
    );
    server.wait();
    eprintln!("serve: drained and stopped");
    Ok(0)
}

fn run() -> Result<u8, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.command == "recover" {
        // The input positional is a durable directory, not a CSV.
        return run_recover(&args);
    }
    if args.command == "serve" {
        return run_serve(&args);
    }
    let (table, quarantine) = load(&args.input, args.lenient)?;
    if let Some(q) = quarantine.as_ref().filter(|q| !q.is_empty()) {
        eprintln!("{}", q.summary());
    }
    eprintln!(
        "loaded `{}`: {} rows × {} attributes",
        args.input,
        table.len(),
        table.schema().arity()
    );

    let mut status = 0u8;
    match args.command.as_str() {
        "detect" => {
            let sys = build_system(&args, &table)?;
            if let Some(q) = &quarantine {
                q.record(sys.engine().metrics());
            }
            let out = sys.detect(&table).map_err(|e| e.to_string())?;
            if args.explain {
                eprintln!("{}", explain(sys.engine(), &sys.engine().plan_trace()));
            }
            summarize(sys.engine(), bigdansing::report::fault_summary);
            eprintln!(
                "{} violations, {} possible fixes",
                out.violation_count(),
                out.fix_count()
            );
            match &args.report {
                Some(stem) => {
                    bigdansing::report::write_reports(&out, Some(&table), stem)
                        .map_err(|e| e.to_string())?;
                    eprintln!("wrote {stem}.violations.csv and {stem}.fixes.csv");
                }
                None => print!("{}", bigdansing::report::violations_csv(&out, Some(&table))),
            }
        }
        "clean" => {
            let sys = build_system(&args, &table)?;
            if let Some(q) = &quarantine {
                q.record(sys.engine().metrics());
            }
            let output = args.output.as_deref().ok_or("clean needs --output")?;
            let result = sys
                .cleanse(&table, args.cleanse_options()?)
                .map_err(|e| e.to_string())?;
            let mut passes = sys.engine().plan_trace();
            eprintln!(
                "cleansed in {} iteration(s): {} cells changed, cost {:.3}, converged: {}",
                result.iterations, result.cells_changed, result.repair_cost, result.converged
            );
            if let Some(report) = bigdansing::report::health_report(&result.outcome) {
                eprintln!("{report}");
                status = EXIT_DEGRADED;
            }
            summarize(sys.engine(), bigdansing::report::repair_summary);
            csv::write_file(&result.table, output).map_err(|e| e.to_string())?;
            eprintln!("wrote {output}");
            if let Some(stem) = &args.report {
                let residue = sys.detect(&result.table).map_err(|e| e.to_string())?;
                passes.extend(sys.engine().plan_trace());
                bigdansing::report::write_reports(&residue, Some(&result.table), stem)
                    .map_err(|e| e.to_string())?;
                eprintln!("residual violations: {}", residue.violation_count());
            }
            if args.explain {
                eprintln!("{}", explain(sys.engine(), &passes));
            }
            summarize(sys.engine(), bigdansing::report::fault_summary);
        }
        // `crash-apply` is the crash-test twin of `delta`: identical
        // semantics (it requires --durable-dir), invoked by the crash
        // harness with BIGDANSING_CRASH_AT set so the process kills
        // itself at a seeded durability crash point. Hidden from USAGE.
        cmd @ ("delta" | "crash-apply") => {
            if args.deltas.is_empty() {
                return Err("delta needs at least one delta CSV after the base table".into());
            }
            if cmd == "crash-apply" && args.durable_dir.is_none() {
                return Err("crash-apply requires --durable-dir".into());
            }
            let sys = build_system(&args, &table)?;
            if let Some(q) = &quarantine {
                q.record(sys.engine().metrics());
            }
            let options = args.cleanse_options()?;
            let mut session = match &args.durable_dir {
                Some(dir) => {
                    let durability =
                        DurabilityOptions::new(dir).snapshot_every(args.snapshot_every);
                    let s = sys
                        .open_durable_session(&table, options, durability)
                        .map_err(|e| e.to_string())?;
                    eprintln!(
                        "durable session at `{dir}` (snapshot every {} batch(es))",
                        args.snapshot_every
                    );
                    s
                }
                None => sys
                    .open_session(&table, options)
                    .map_err(|e| e.to_string())?,
            };
            eprintln!(
                "session open: {} pre-existing violation(s)",
                session.violation_count()
            );
            let mut passes = sys.engine().plan_trace();
            for path in &args.deltas {
                let batch =
                    DeltaBatch::read_file(path, table.schema()).map_err(|e| e.to_string())?;
                let ops = batch.len();
                let report = sys
                    .apply_delta(&mut session, batch)
                    .map_err(|e| e.to_string())?;
                passes.extend(sys.engine().plan_trace());
                eprintln!(
                    "applied `{path}` ({ops} op(s)): {} tuple(s) reprocessed, \
                     {} dirty block(s), +{}/-{} violation(s), \
                     {} component(s) re-repaired, {} cell(s) changed, \
                     {} remaining, converged: {}",
                    report.tuples_reprocessed,
                    report.blocks_dirty,
                    report.violations_added,
                    report.violations_retracted,
                    report.components_rerepaired,
                    report.cells_changed,
                    report.violations_remaining,
                    report.converged
                );
            }
            if let Some(output) = args.output.as_deref() {
                csv::write_file(session.table(), output).map_err(|e| e.to_string())?;
                eprintln!("wrote {output}");
            }
            for line in session_epilogue(&args, sys.engine(), &session, &passes) {
                eprintln!("{line}");
            }
            status = session_exit_code(&session);
        }
        "convert" => {
            let output = args.output.as_deref().ok_or("convert needs --output")?;
            bigdansing_storage::layout::write_table(&table, output).map_err(|e| e.to_string())?;
            eprintln!("wrote {output} (columnar binary layout)");
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(status)
}

fn main() -> ExitCode {
    match run() {
        Ok(status) => ExitCode::from(status),
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        build_system, parse_args, parse_dedup, recover, session_epilogue, session_exit_code, Args,
        LshParams, EXIT_DEGRADED,
    };
    use bigdansing::{csv, BigDansing, DeltaBatch, DurabilityOptions, Rule, UdfRule, UnitKind};
    use bigdansing_common::Value;
    use std::sync::Arc;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn dedup_and_lsh_flags_parse() {
        let args = parse(&[
            "clean",
            "in.csv",
            "--dedup",
            "name:0.9",
            "--lsh-bands",
            "12",
            "--lsh-rows",
            "4",
            "-o",
            "out.csv",
        ])
        .unwrap();
        assert_eq!(args.dedups, vec!["name:0.9".to_string()]);
        let p = args.lsh_params().unwrap();
        assert_eq!((p.bands, p.rows_per_band), (12, 4));
        // unset flags keep the default geometry
        let args = parse(&["clean", "in.csv", "--dedup", "name", "-o", "out.csv"]).unwrap();
        assert!(args.lsh_params().is_none());
        assert!(parse(&["clean", "in.csv", "--lsh-bands", "0"]).is_err());
    }

    #[test]
    fn dedup_specs_resolve_against_the_schema() {
        let schema = bigdansing_common::Schema::parse("id,name,city");
        let r = parse_dedup("name", &schema, None).unwrap();
        assert!(r.lsh().is_some(), "--dedup rules are LSH-blocked");
        let r = parse_dedup("city:0.7", &schema, Some(LshParams::default())).unwrap();
        assert_eq!(r.name(), "udf:dedup(city)");
        assert!(parse_dedup("nope", &schema, None).is_err());
        assert!(parse_dedup("name:1.5", &schema, None).is_err());
        assert!(parse_dedup("name:zero", &schema, None).is_err());
    }

    /// The satellite requirement: LSH geometry flags without a
    /// similarity rule are a configuration error, not a silent no-op.
    #[test]
    fn lsh_flags_without_a_similarity_rule_are_rejected() {
        let table = csv::parse_str("t", "zipcode,city\n1,LA\n", true, None).unwrap();
        let args = parse(&[
            "clean",
            "in.csv",
            "--fd",
            "zipcode -> city",
            "--lsh-bands",
            "4",
            "-o",
            "out.csv",
        ])
        .unwrap();
        let err = match build_system(&args, &table) {
            Err(e) => e,
            Ok(_) => panic!("LSH flags without a similarity rule must be rejected"),
        };
        assert!(err.contains("similarity rules"), "unhelpful error: {err}");
        // with a --dedup rule alongside, the same flags are accepted
        let args = parse(&[
            "clean",
            "in.csv",
            "--fd",
            "zipcode -> city",
            "--dedup",
            "city",
            "--lsh-bands",
            "4",
            "-o",
            "out.csv",
        ])
        .unwrap();
        let sys = build_system(&args, &table).unwrap();
        assert_eq!(sys.rules().len(), 2);
    }

    #[test]
    fn degraded_sessions_map_to_the_degraded_exit_code() {
        let table = csv::parse_str("t", "zipcode,city\n1,LA\n2,NY\n", true, None).unwrap();
        let mut sys = BigDansing::sequential();
        sys.add_fd("zipcode -> city", table.schema()).unwrap();
        let options = parse(&["delta", "base.csv", "--partial"])
            .unwrap()
            .cleanse_options()
            .unwrap();
        let healthy = sys.open_session(&table, options.clone()).unwrap();
        assert_eq!(session_exit_code(&healthy), 0);

        sys.add_rule(Arc::new(
            UdfRule::builder("udf:faulty", |_| panic!("boom"))
                .unit_kind(UnitKind::Single)
                .build(),
        ));
        let degraded = sys.open_session(&table, options).unwrap();
        assert_eq!(session_exit_code(&degraded), EXIT_DEGRADED);
    }

    /// `recover --explain` prints the stage graph of the passes its
    /// replay ran, as `delta --explain` does: with two FDs on one key,
    /// each re-detect is one pass of both.
    #[test]
    fn recover_explains_the_replayed_passes() {
        let dir = std::env::temp_dir().join(format!("bigdansing-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = "zipcode,city,state\n1,LA,CA\n1,LA,CA\n2,NY,NY\n";
        let table = csv::parse_str("t", base, true, None).unwrap();
        let fds = [
            "--fd",
            "zipcode -> city",
            "--fd",
            "zipcode -> state",
            "--explain",
        ];
        let args = parse(&[&["delta", "base.csv", "d1.csv"], &fds[..]].concat()).unwrap();
        let sys = build_system(&args, &table).unwrap();
        let durability = DurabilityOptions::new(&dir).snapshot_every(8);
        let options = args.cleanse_options().unwrap();
        let mut session = sys
            .open_durable_session(&table, options, durability)
            .unwrap();
        let row = vec![Value::Int(1), Value::str("SF"), Value::str("NV")];
        sys.apply_delta(&mut session, DeltaBatch::new().insert(3, row))
            .unwrap();
        drop(session);

        let path = dir.to_str().unwrap();
        let args = parse(&[&["recover", path], &fds[..]].concat()).unwrap();
        let (sys, session) = recover(&args).unwrap();
        let passes = sys.engine().plan_trace();
        let printed = session_epilogue(&args, sys.engine(), &session, &passes).join("\n");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(printed.contains("stage graph:"), "{printed}");
        let redetects: Vec<&str> = printed
            .lines()
            .filter(|l| l.contains("redetect("))
            .collect();
        assert!(
            !redetects.is_empty(),
            "the replayed batch re-detects: {printed}"
        );
        let shared = "redetect(fd:zipcode->city, fd:zipcode->state)";
        assert!(redetects.iter().all(|l| l.ends_with(shared)), "{printed}");
    }

    #[test]
    fn delta_collects_trailing_positionals() {
        let args = parse(&["delta", "base.csv", "d1.csv", "d2.csv", "--fd", "a -> b"]).unwrap();
        assert_eq!(args.input, "base.csv");
        assert_eq!(
            args.deltas,
            vec!["d1.csv".to_string(), "d2.csv".to_string()]
        );
    }

    #[test]
    fn durable_flags_parse() {
        let args = parse(&[
            "delta",
            "base.csv",
            "d1.csv",
            "--fd",
            "a -> b",
            "--durable-dir",
            "/tmp/session",
            "--snapshot-every",
            "3",
        ])
        .unwrap();
        assert_eq!(args.durable_dir.as_deref(), Some("/tmp/session"));
        assert_eq!(args.snapshot_every, 3);
        // Defaults.
        let args = parse(&["delta", "base.csv", "d1.csv"]).unwrap();
        assert_eq!(args.durable_dir, None);
        assert_eq!(args.snapshot_every, 8);
        assert!(parse(&["delta", "base.csv", "--snapshot-every", "x"]).is_err());
    }

    #[test]
    fn serve_flags_parse_without_an_input_file() {
        let args = parse(&[
            "serve",
            "--schema",
            "zipcode,city",
            "--fd",
            "zipcode -> city",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "4",
            "--max-batch",
            "64",
            "--max-latency-ms",
            "10",
            "--window",
            "100:20",
            "--max-pending",
            "8",
        ])
        .unwrap();
        assert_eq!(args.schema.as_deref(), Some("zipcode,city"));
        assert_eq!(args.listen, "127.0.0.1:0");
        assert_eq!(args.shards, 4);
        assert_eq!(args.max_batch, 64);
        assert_eq!(args.max_latency_ms, 10);
        assert_eq!(args.window.as_deref(), Some("100:20"));
        assert_eq!(args.max_pending, Some(8));
        // serve rejects positionals — data arrives over HTTP
        assert!(parse(&["serve", "input.csv", "--schema", "a,b"]).is_err());
    }

    #[test]
    fn recover_takes_one_directory() {
        let args = parse(&["recover", "/tmp/session", "--fd", "a -> b"]).unwrap();
        assert_eq!(args.input, "/tmp/session");
        let err = parse(&["recover", "/tmp/session", "stray"]).unwrap_err();
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn crash_apply_collects_deltas_like_delta() {
        let args = parse(&[
            "crash-apply",
            "base.csv",
            "d1.csv",
            "d2.csv",
            "--durable-dir",
            "/tmp/s",
        ])
        .unwrap();
        assert_eq!(
            args.deltas,
            vec!["d1.csv".to_string(), "d2.csv".to_string()]
        );
    }

    #[test]
    fn isolation_flags_parse_and_map() {
        let args = parse(&[
            "clean",
            "in.csv",
            "--fd",
            "a -> b",
            "--partial",
            "--rule-timeout-ms",
            "250",
            "--max-block-size",
            "500",
        ])
        .unwrap();
        assert!(args.partial);
        let iso = args.isolation();
        assert!(iso.is_partial());
        assert_eq!(
            iso.rule_time_budget,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(iso.max_block_size, Some(500));
        // Defaults: strict, unguarded.
        let args = parse(&["clean", "in.csv"]).unwrap();
        let iso = args.isolation();
        assert!(!iso.is_partial());
        assert_eq!(iso.rule_time_budget, None);
        assert_eq!(iso.max_block_size, None);
        assert!(parse(&["clean", "in.csv", "--rule-timeout-ms", "x"]).is_err());
    }

    #[test]
    fn repair_flags_parse_and_map() {
        let args = parse(&[
            "clean",
            "in.csv",
            "--fd",
            "a -> b",
            "--max-component-size",
            "64",
            "--repair-k",
            "8",
        ])
        .unwrap();
        let opts = args.repair_options();
        assert_eq!(opts.max_component_size, 64);
        assert_eq!(opts.k, 8);
        // Defaults: unlimited components, k = 4.
        let args = parse(&["clean", "in.csv"]).unwrap();
        let opts = args.repair_options();
        assert_eq!(opts.max_component_size, usize::MAX);
        assert_eq!(opts.k, 4);
        assert!(parse(&["clean", "in.csv", "--repair-k", "x"]).is_err());
    }

    #[test]
    fn non_delta_commands_reject_extra_positionals() {
        for cmd in ["detect", "clean", "convert"] {
            let err = parse(&[cmd, "in.csv", "stray.csv"]).unwrap_err();
            assert!(err.contains("stray.csv"), "{cmd}: {err}");
        }
        let args = parse(&["detect", "in.csv", "--fd", "a -> b"]).unwrap();
        assert_eq!(args.input, "in.csv");
        assert!(args.deltas.is_empty());
    }
}
