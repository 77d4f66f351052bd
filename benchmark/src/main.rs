//! The repo benchmark (`../BENCHMARK.json`): five workloads over the
//! `clean` / `delta` / `serve` user paths, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. README.md has the
//! definitions; `--help` the flags.

mod clean;
mod delta;
mod gen;
mod harness;
mod metrics;
mod serve;
mod trace;

use bigdansing_serve::ingest::Json;
use harness::{percentile, Cfg, Layers, Outcome, Sizes};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Tracer;

const USAGE: &str = "\
usage: bigdansing-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                            [--smoke] [--repeat N]

  --workload NAME  run one of: clean_fd clean_dc clean_dedup delta_durable serve_stream
                   (without it: every workload, each in a child process)
  --seed N         seed of every generated input (default 1)
  --seconds S      length of the measured phase (default 10)
  --trace 0|1      0: end-to-end metrics, tracing off (default)
                   1: per-layer metrics from the traced run, spans to .bench_work/
  --smoke          ~1/50 of the rows and a 1 s measured phase
  --repeat N       N full sets back to back; prints median, quartiles and spread per
                   metric and fails when two sets differ by more than a metric's bound

The last line of standard output is one JSON object with the results.";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                args.workload = Some(known.ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

impl Args {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    /// Length of the measured phase: `BENCHMARK.json`'s `run_seconds`
    /// unless asked otherwise.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { 10.0 })
    }
}

/// A metric value as JSON: all its digits, and never NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// What one run reports: the contract's four keys.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end(workload: &str, cfg: &Cfg) -> RunResult {
    let mut out: Outcome = match workload {
        "clean_fd" => clean::run(clean::Kind::Fd, cfg),
        "clean_dc" => clean::run(clean::Kind::Dc, cfg),
        "clean_dedup" => clean::run(clean::Kind::Dedup, cfg),
        "delta_durable" => delta::run(cfg),
        "serve_stream" => serve::run(cfg),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    };
    let samples = out.latencies_ms.len();
    let (p50, p99) = if samples == 0 {
        out.failed += 1; // nothing measured is a failure, not a zero
        (0.0, 0.0)
    } else {
        (
            percentile(&mut out.latencies_ms, 50.0),
            percentile(&mut out.latencies_ms, 99.0),
        )
    };
    println!(
        "{workload}: {samples} operations in {:.3} s (p50 and p99 over {samples} samples), \
         {} rows",
        out.wall_s, out.rows
    );
    println!("samples {{\"workload\": \"{workload}\", \"operations\": {samples}}}");
    let value = |name: &str| match name {
        "setup_s" => out.setup_s,
        "rows_per_s" => out.rows as f64 / out.wall_s.max(1e-9),
        "op_p50_ms" => p50,
        "op_p99_ms" => p99,
        "peak_rss_mb" => out.peak_rss_mb,
        "quality_f1" => out.quality_f1,
        other => unreachable!("END_TO_END names a metric nothing measures: {other}"),
    };
    RunResult {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: END_TO_END
            .iter()
            .map(|(name, unit, _)| (*name, value(name), *unit))
            .collect(),
    }
}

/// The traced driver of one workload.
fn traced_layers(workload: &str, cfg: &Cfg, tr: &mut Tracer) -> bigdansing::Result<(Layers, bool)> {
    match workload {
        "clean_fd" => clean::trace(clean::Kind::Fd, cfg, tr),
        "clean_dc" => clean::trace(clean::Kind::Dc, cfg, tr),
        "clean_dedup" => clean::trace(clean::Kind::Dedup, cfg, tr),
        "delta_durable" => delta::trace(cfg, tr),
        "serve_stream" => serve::trace(cfg, tr),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
}

/// Workloads whose traced drivers between them report every per-layer
/// metric; `clean_dc` covers what the other `clean_*` report.
const FILL_IN: &[&str] = &["clean_dc", "delta_durable", "serve_stream"];

/// The traced run of `workload`. Every per-layer metric is reported on
/// every workload: the layers this workload does not exercise are
/// measured at smoke scale by the traced drivers that do, so no value
/// is a placeholder.
fn per_layer(workload: &'static str, cfg: &Cfg, bench_dir: &Path) -> RunResult {
    let mut tr = Tracer::new(workload);
    let (mut attempted, mut failed) = (1u64, 0u64);
    let mut layers = match traced_layers(workload, cfg, &mut tr) {
        Ok((layers, identical)) => {
            if !identical {
                eprintln!("{workload}: traced result differs from the untraced one");
                failed += 1;
            }
            layers
        }
        Err(e) => {
            eprintln!("{workload}: traced run failed: {e}");
            failed += 1;
            Layers::new()
        }
    };
    let own = layers.len();
    for other in FILL_IN.iter().filter(|w| **w != workload) {
        if PER_LAYER.iter().all(|(name, _)| layers.contains_key(name)) {
            break;
        }
        attempted += 1;
        let mut scratch = Tracer::new(other);
        match traced_layers(other, &cfg.fill_in(other), &mut scratch) {
            Ok((more, identical)) => {
                failed += !identical as u64;
                for (name, value) in more {
                    layers.entry(name).or_insert(value);
                }
            }
            Err(e) => {
                eprintln!("{workload}: fill-in {other} failed: {e}");
                failed += 1;
            }
        }
    }
    print!("{}", tr.self_time_table());
    let spans = bench_dir.join(format!("trace-{workload}-{}.jsonl", cfg.seed));
    match std::fs::write(&spans, tr.to_jsonl()) {
        Ok(()) => println!("{} spans written to {}", tr.spans.len(), spans.display()),
        Err(e) => eprintln!("could not write {}: {e}", spans.display()),
    }
    println!(
        "{workload}: {own} per-layer metrics from its own traced run, {} from smoke-scale fill-ins",
        layers.len() - own
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match layers.get(name) {
            Some(value) => metrics.push((*name, *value, *unit)),
            None => {
                eprintln!("{workload}: no traced driver reported {name}");
                failed += 1;
            }
        }
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from.
fn provenance(args: &Args) -> String {
    let ram_mb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib / 1024);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"sizes\": {}, \"nproc\": {nproc}, \
         \"engine_workers\": {}, \"ram_mb\": {ram_mb}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \
         \"allocator\": \"system\"}}",
        args.seed,
        number(args.seconds()),
        args.smoke,
        args.sizes().to_json(),
        harness::WORKERS,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// Under the current directory: the only place the benchmark writes.
const BENCH_DIR: &str = ".bench_work";

fn run_one(workload: &'static str, args: &Args) -> ExitCode {
    let bench_dir = PathBuf::from(BENCH_DIR);
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds(),
        sizes: args.sizes(),
        work_dir: bench_dir.join(format!("{workload}-{}-{}", args.seed, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    println!("provenance {}", provenance(args));
    let result = if args.trace {
        per_layer(workload, &cfg, &bench_dir)
    } else {
        end_to_end(workload, &cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    for (name, value, unit) in &result.metrics {
        println!("{workload} {name:<44} {value:>16.6} {unit}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's metrics, read back from its last line.
struct ChildRun {
    correct: bool,
    operations: u64,
    metrics: BTreeMap<&'static str, f64>,
    last_line: String,
}

fn run_child(workload: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr passes through; the child is waited for before returning
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if args.trace {
        // the self-time table is the traced run's human output
        for line in stdout
            .lines()
            .filter(|l| !l.starts_with('{') && !l.starts_with("provenance"))
        {
            println!("{line}");
        }
    }
    let last_line = stdout.lines().last().unwrap_or("").to_string();
    let json = Json::parse(&last_line).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let obj = json
        .as_object()
        .ok_or(format!("{workload}: result is not an object"))?;
    let reported = obj.get("metrics").and_then(Json::as_object);
    let reported = reported.ok_or(format!("{workload}: result has no metrics"))?;
    let mut metrics = BTreeMap::new();
    for (name, _) in unit_table(args.trace) {
        let value = reported
            .get(name)
            .and_then(Json::as_object)
            .and_then(|m| m.get("value"));
        match value {
            Some(Json::Num(v)) => {
                metrics.insert(name, *v);
            }
            _ => return Err(format!("{workload}: result lacks {name}")),
        }
    }
    let operations = stdout
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|j| Json::parse(j).ok())
        .and_then(|j| j.as_object()?.get("operations")?.as_u64())
        .unwrap_or(0);
    Ok(ChildRun {
        correct: output.status.success() && matches!(obj.get("correct"), Some(Json::Bool(true))),
        operations,
        metrics,
        last_line,
    })
}

/// Every workload, each in a child process of its own, `--repeat` sets
/// back to back.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    // values[workload][metric] = one value per set
    let mut values: BTreeMap<&str, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    let mut samples: BTreeMap<&str, u64> = BTreeMap::new();
    let mut last_lines: BTreeMap<&str, String> = BTreeMap::new();
    for set in 1..=args.repeat {
        for workload in WORKLOADS {
            eprintln!("set {set}/{}: {workload}", args.repeat);
            match run_child(workload, args) {
                Ok(run) => {
                    ok &= run.correct;
                    if !run.correct {
                        eprintln!("{workload}: FAILED its checks");
                    }
                    for (name, value) in run.metrics {
                        values
                            .entry(workload)
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(value);
                    }
                    samples.insert(workload, run.operations);
                    last_lines.insert(workload, run.last_line);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }

    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>14} {:>8}  unit",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for (workload, by_metric) in &values {
        for (name, unit) in unit_table(args.trace) {
            let Some(sets) = by_metric.get(name) else {
                continue;
            };
            let mut sorted = sets.clone();
            let med = percentile(&mut sorted, 50.0);
            let (q1, q3) = (percentile(&mut sorted, 25.0), percentile(&mut sorted, 75.0));
            let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
            let spread = if med == 0.0 {
                0.0
            } else {
                (hi - lo) / med.abs()
            };
            println!(
                "{workload:<14} {name:<42} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%  {unit}",
                spread * 100.0
            );
            let bound = END_TO_END
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, _, b)| *b);
            if let Some(bound) = bound.filter(|b| sets.len() > 1 && spread > *b) {
                eprintln!(
                    "{workload} {name}: sets differ by {:.2}%, over the {:.0}% bound",
                    spread * 100.0,
                    bound * 100.0
                );
                ok = false;
            }
        }
    }

    let counts: Vec<String> = samples
        .iter()
        .map(|(w, n)| format!("\"{w}\": {n}"))
        .collect();
    let results: Vec<String> = last_lines
        .iter()
        .map(|(w, l)| format!("\"{w}\": {l}"))
        .collect();
    let mut prov = provenance(args);
    prov.pop();
    let _ = write!(prov, ", \"operations\": {{{}}}}}", counts.join(", "));
    let bounds: Vec<String> = END_TO_END
        .iter()
        .map(|(n, _, b)| format!("\"{n}\": {b}"))
        .collect();
    println!(
        "{{\"correct\": {ok}, \"sets\": {}, \"provenance\": {prov}, \"bounds\": {{{}}}, \
         \"workloads\": {{{}}}}}",
        args.repeat,
        bounds.join(", "),
        results.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn unit_table(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => {
            if args.repeat > 1 {
                eprintln!("--repeat runs full sets; drop --workload");
                return ExitCode::from(2);
            }
            run_one(workload, &args)
        }
        None => run_all(&args),
    }
}
