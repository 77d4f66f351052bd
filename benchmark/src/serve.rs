//! `serve_stream`: the `serve` user path with the engine nearly idle.
//! An in-process server (2 shards, sequential engines, 2 HTTP threads)
//! takes `POST /tenant/{id}/records?wait=1` requests of 50 CSV inserts
//! from 64 tenants multiplexed round-robin over 2 keep-alive
//! connections. The loop is closed: each connection sends a tenant's
//! next batch only after the flush reply to the previous request, as
//! callers that wait for their reply do. One operation is one request
//! round trip.

use crate::gen::{self, TenantStream, SERVE_BATCH_OPS, SERVE_HEADER};
use crate::harness::{
    cell_f1, median, median_setup, peak_rss_mb, reset_peak_rss, timed, CellTruth, Cfg, Layers,
    Outcome, SERVE_CLIENTS,
};
use crate::trace::Tracer;
use bigdansing::{csv, BigDansing, CleanseOptions, DeltaBatch, Error, Result, Rule, Schema, Table};
use bigdansing_rules::FdRule;
use bigdansing_serve::client::Client;
use bigdansing_serve::{ingest, Format, ServeOptions, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_stream";

fn schema() -> Schema {
    Schema::parse(SERVE_HEADER)
}

fn rules() -> Vec<Arc<dyn Rule>> {
    vec![Arc::new(
        FdRule::parse("zipcode -> city", &schema()).expect("FD parses against the serve schema"),
    )]
}

fn options() -> ServeOptions {
    let mut opts = ServeOptions::new(schema());
    opts.rules = rules();
    opts.shards = 2;
    opts.workers = 1;
    opts.http_threads = SERVE_CLIENTS;
    opts.max_batch = SERVE_BATCH_OPS;
    opts.max_latency = Duration::from_millis(25);
    opts
}

struct Ready {
    streams: Vec<TenantStream>,
    server: Server,
}

/// Set-up: generate every tenant's request bodies, start the server.
fn setup(cfg: &Cfg) -> Ready {
    let streams = (0..cfg.sizes.serve_tenants)
        .map(|t| gen::tenant_stream(cfg.seed, t, cfg.sizes.serve_requests_per_tenant))
        .collect();
    let server = Server::start("127.0.0.1:0", options()).expect("server starts on loopback");
    Ready { streams, server }
}

/// One connection's share of the load.
struct Lane {
    client: Client,
    /// Tenants this connection carries, visited round-robin.
    tenants: Vec<usize>,
    /// Requests sent so far for each of `tenants`.
    sent: Vec<usize>,
    turn: usize,
    /// Send and reply stamps of each successful request.
    stamps: Vec<(Instant, Instant)>,
    failed: u64,
}

/// Send requests on one connection until `deadline`, or until the next
/// tenant in turn has no body left.
fn drive(lane: &mut Lane, streams: &[TenantStream], deadline: Instant) {
    while Instant::now() < deadline {
        let slot = lane.turn % lane.tenants.len();
        let tenant = lane.tenants[slot];
        let Some(body) = streams[tenant].bodies.get(lane.sent[slot]) else {
            return;
        };
        lane.turn += 1;
        lane.sent[slot] += 1;
        let t0 = Instant::now();
        match lane
            .client
            .post(&format!("/tenant/t{tenant}/records?wait=1"), body)
        {
            Ok(resp) if resp.status == 200 => lane.stamps.push((t0, Instant::now())),
            Ok(resp) => {
                eprintln!("{NAME}: tenant t{tenant}: {} {}", resp.status, resp.body);
                lane.failed += 1;
            }
            Err(e) => {
                // the connection is gone; its tenants stop here
                eprintln!("{NAME}: tenant t{tenant}: {e}");
                lane.failed += 1;
                return;
            }
        }
    }
}

fn lanes(server: &Server, tenants: usize) -> Vec<Lane> {
    (0..SERVE_CLIENTS)
        .map(|lane| Lane {
            client: Client::connect(server.addr()).expect("connect to the server"),
            tenants: (lane..tenants).step_by(SERVE_CLIENTS).collect(),
            sent: vec![0; (lane..tenants).step_by(SERVE_CLIENTS).len()],
            turn: 0,
            stamps: Vec::new(),
            failed: 0,
        })
        .collect()
}

/// Drive every lane on its own thread for `seconds`; returns the wall
/// time of the phase.
fn drive_all(lanes: &mut [Lane], streams: &[TenantStream], seconds: f64) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for lane in lanes.iter_mut() {
            scope.spawn(move || drive(lane, streams, deadline));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Requests sent so far, by tenant.
fn sent_by_tenant(lanes: &[Lane], tenants: usize) -> Vec<usize> {
    let mut sent = vec![0; tenants];
    for lane in lanes {
        for (t, n) in lane.tenants.iter().zip(&lane.sent) {
            sent[*t] = *n;
        }
    }
    sent
}

fn latencies_ms(lanes: &[Lane]) -> Vec<f64> {
    lanes
        .iter()
        .flat_map(|l| l.stamps.iter())
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect()
}

/// The offline reference for one tenant: a sequential session fed the
/// same bodies straight into `Session::apply`. Returns its table as
/// CSV and each batch's apply time.
fn offline(tenant: usize, stream: &TenantStream, requests: usize) -> Result<(String, Vec<f64>)> {
    let mut sys = BigDansing::sequential();
    for rule in rules() {
        sys.add_rule(rule);
    }
    let empty = Table::from_rows(format!("t{tenant}"), schema(), Vec::new());
    let mut session = sys.open_session(&empty, CleanseOptions::default())?;
    let mut apply_s = Vec::with_capacity(requests);
    for body in &stream.bodies[..requests] {
        let batch = DeltaBatch::parse_str(body, &schema())?;
        let (report, secs) = timed(|| session.apply(batch));
        report?;
        apply_s.push(secs);
    }
    Ok((csv::to_string(session.table()), apply_s))
}

/// What the checks after the load found.
struct Verdict {
    /// Output checks attempted / failed: one per tenant, one for the
    /// shutdown.
    attempted: u64,
    failed: u64,
    quality_f1: f64,
    /// Per-batch offline apply times, every tenant's.
    offline_apply_s: Vec<f64>,
    table_get_ms: Vec<f64>,
    shutdown_s: f64,
}

/// Every tenant's `GET /table` must equal its offline session, and
/// `POST /shutdown` must stop the server and let `wait` join it. The
/// load connections are reused: the server has one handler thread per
/// connection and a third connection would wait for one to free up.
fn verify(r: Ready, mut lanes: Vec<Lane>, sent: &[usize]) -> Verdict {
    let Ready {
        streams,
        mut server,
    } = r;
    let mut v = Verdict {
        attempted: sent.len() as u64 + 1,
        failed: 0,
        quality_f1: 0.0,
        offline_apply_s: Vec::new(),
        table_get_ms: Vec::new(),
        shutdown_s: 0.0,
    };
    let client = &mut lanes[0].client;
    let (mut dirty, mut repaired, mut clean) = (String::new(), String::new(), String::new());
    for (t, stream) in streams.iter().enumerate() {
        let (resp, secs) = timed(|| client.get(&format!("/tenant/t{t}/table")));
        v.table_get_ms.push(secs * 1e3);
        let served = match resp {
            Ok(resp) if resp.status == 200 => resp.body,
            // a tenant whose turn never came has no session yet
            Ok(resp) if resp.status == 404 && sent[t] == 0 => format!("{SERVE_HEADER}\n"),
            other => {
                eprintln!("{NAME}: GET t{t}/table: {other:?}");
                v.failed += 1;
                continue;
            }
        };
        match offline(t, stream, sent[t]) {
            Ok((reference, apply_s)) => {
                v.offline_apply_s.extend(apply_s);
                if reference != served {
                    eprintln!("{NAME}: tenant t{t} differs from its offline session");
                    v.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("{NAME}: offline reference for t{t} failed: {e}");
                v.failed += 1;
            }
        }
        dirty += &stream.table_after(sent[t], true);
        clean += &stream.table_after(sent[t], false);
        repaired += &served;
    }
    v.quality_f1 = cell_f1(&dirty, &repaired, &clean, CellTruth::Restored);

    let t0 = Instant::now();
    let stopping = client.post("/shutdown", "");
    drop(lanes); // handlers leave their keep-alive loops on EOF
    server.wait();
    v.shutdown_s = t0.elapsed().as_secs_f64();
    if !matches!(stopping, Ok(ref resp) if resp.status == 200) {
        eprintln!("{NAME}: POST /shutdown: {stopping:?}");
        v.failed += 1;
    }
    v
}

/// The untraced run.
pub fn run(cfg: &Cfg) -> Outcome {
    let (r, setup_s) = median_setup(|| setup(cfg));
    let mut lanes = lanes(&r.server, r.streams.len());
    warm_up(&mut lanes, &r.streams);
    reset_peak_rss();
    let wall_s = drive_all(&mut lanes, &r.streams, cfg.seconds);
    let peak = peak_rss_mb();
    let latencies = latencies_ms(&lanes);
    let load_failed: u64 = lanes.iter().map(|l| l.failed).sum();
    let requests = latencies.len() as u64 + load_failed;
    let sent = sent_by_tenant(&lanes, r.streams.len());
    let v = verify(r, lanes, &sent);
    Outcome {
        setup_s,
        rows: latencies.len() as u64 * SERVE_BATCH_OPS as u64,
        latencies_ms: latencies,
        wall_s,
        peak_rss_mb: peak,
        attempted: requests + v.attempted,
        failed: load_failed + v.failed,
        quality_f1: v.quality_f1,
    }
}

/// One untimed request per connection, so the first timed one does not
/// pay for session creation on a cold shard. Its stamps are dropped.
fn warm_up(lanes: &mut [Lane], streams: &[TenantStream]) {
    for lane in lanes.iter_mut() {
        let tenant = lane.tenants[0];
        if let Some(body) = streams[tenant].bodies.first() {
            match lane
                .client
                .post(&format!("/tenant/t{tenant}/records?wait=1"), body)
            {
                Ok(resp) if resp.status == 200 => {}
                other => eprintln!("{NAME}: warm-up request: {other:?}"),
            }
            lane.sent[0] = 1;
            lane.turn = 1;
        }
    }
}

fn round_trips_ms(n: usize, mut request: impl FnMut(usize) -> bool) -> (Vec<f64>, u64) {
    let mut ms = Vec::with_capacity(n);
    let mut failed = 0;
    for i in 0..n {
        let (ok, secs) = timed(|| request(i));
        ms.push(secs * 1e3);
        failed += !ok as u64;
    }
    (ms, failed)
}

/// The traced run: half of `cfg.seconds` as in [`run`], half with every
/// request filed as a span, then the front-end probes.
pub fn trace(cfg: &Cfg, tr: &mut Tracer) -> Result<(Layers, bool)> {
    let r = setup(cfg);
    let mut m = Layers::new();
    let mut lanes = lanes(&r.server, r.streams.len());
    warm_up(&mut lanes, &r.streams);

    let plain_wall = drive_all(&mut lanes, &r.streams, cfg.seconds / 2.0);
    let plain: Vec<f64> = latencies_ms(&lanes);
    for lane in &mut lanes {
        lane.stamps.clear();
    }
    let traced_wall = drive_all(&mut lanes, &r.streams, cfg.seconds / 2.0);
    let sent = sent_by_tenant(&lanes, r.streams.len());
    let mut traced = latencies_ms(&lanes);
    for (start, end) in lanes.iter().flat_map(|l| l.stamps.iter()) {
        tr.record("serve.request", *start, *end, SERVE_BATCH_OPS as u64);
    }
    // the spans are the stamps the untraced run takes too, so this is
    // the drift between two halves of one run, not a recording cost
    let per_op = |wall: f64, n: usize| wall / n.max(1) as f64;
    m.insert(
        "trace_overhead_pct",
        (per_op(traced_wall, traced.len()) / per_op(plain_wall, plain.len()) - 1.0) * 100.0,
    );
    if traced.is_empty() {
        return Err(Error::Io(format!("{NAME}: no traced request succeeded")));
    }
    let op_p50_ms = median(&mut traced);
    let load_failed: u64 = lanes.iter().map(|l| l.failed).sum();

    // front-end floors, on the load's own connection
    let probes = cfg.sizes.serve_tenants.min(32);
    let client = &mut lanes[0].client;
    let (mut healthz, f1) = round_trips_ms(
        probes,
        |_| matches!(client.get("/healthz"), Ok(resp) if resp.status == 200),
    );
    m.insert("serve.healthz_rtt_p50_ms", median(&mut healthz));
    // the 202 path, to a tenant of its own that no check reads
    let probe_stream = gen::tenant_stream(cfg.seed, r.streams.len(), probes);
    let (mut nowait, f2) = round_trips_ms(probes, |i| {
        matches!(
            client.post("/tenant/probe/records", &probe_stream.bodies[i]),
            Ok(resp) if resp.status == 202
        )
    });
    m.insert("serve.post_nowait_rtt_p50_ms", median(&mut nowait));

    // ingest parsing alone, the same records in both formats
    let sent_rows: Vec<(&TenantStream, usize)> =
        r.streams.iter().zip(sent.iter().copied()).collect();
    let (_, csv_s) = tr.span("probe.ingest_csv_parse", 0, |_| {
        let mut ops = 0u64;
        for (stream, n) in &sent_rows {
            for body in &stream.bodies[..*n] {
                ops += ingest::parse_lenient(body, Format::Csv, &schema(), "probe")
                    .0
                    .len() as u64;
            }
        }
        ((), ops)
    });
    m.insert("serve.ingest_csv_parse_s", csv_s);
    let jsonl: Vec<String> = sent_rows
        .iter()
        .flat_map(|(stream, n)| stream.rows[..n * SERVE_BATCH_OPS].chunks(SERVE_BATCH_OPS))
        .map(gen::jsonl_body)
        .collect();
    let (_, jsonl_s) = tr.span("probe.ingest_jsonl_parse", 0, |_| {
        let mut ops = 0u64;
        for body in &jsonl {
            ops += ingest::parse_lenient(body, Format::Jsonl, &schema(), "probe")
                .0
                .len() as u64;
        }
        ((), ops)
    });
    m.insert("serve.ingest_jsonl_parse_s", jsonl_s);

    let quarantined: u64 = r
        .server
        .engines()
        .iter()
        .map(|e| e.metrics().snapshot().records_quarantined)
        .sum();
    m.insert("serve.records_quarantined", quarantined as f64);

    let v = verify(r, lanes, &sent);
    let mut offline_s = v.offline_apply_s;
    let apply_offline_s: f64 = offline_s.iter().sum();
    let mut table_get = v.table_get_ms;
    m.insert("serve.apply_offline_s", apply_offline_s);
    m.insert(
        "serve.front_end_share",
        1.0 - apply_offline_s / (plain_wall + traced_wall),
    );
    let offline_p50_ms = if offline_s.is_empty() {
        0.0
    } else {
        median(&mut offline_s) * 1e3
    };
    m.insert(
        "serve.wait_overhead_p50_ms",
        op_p50_ms - m["serve.post_nowait_rtt_p50_ms"] - offline_p50_ms,
    );
    m.insert("serve.table_get_p50_ms", median(&mut table_get));
    m.insert("serve.shutdown_s", v.shutdown_s);
    m.insert("serve.requests_failed", (load_failed + f1 + f2) as f64);
    Ok((m, v.failed == 0))
}
