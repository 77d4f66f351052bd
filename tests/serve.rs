//! End-to-end tests of the continuous cleansing service: streaming
//! parity with the offline oracle, micro-batching, windowed retraction,
//! tenant isolation under partial-mode faults, quarantined ingest, and
//! durable restart.

use bigdansing::{BigDansing, CleanseOptions, IsolationOptions, Rule};
use bigdansing_common::{csv, Schema, Table};
use bigdansing_incremental::{DeltaBatch, DurabilityOptions, WindowSpec};
use bigdansing_rules::{FdRule, UdfRule, UnitKind};
use bigdansing_serve::client::Client;
use bigdansing_serve::ingest::Json;
use bigdansing_serve::{ServeOptions, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::parse("zipcode,city")
}

fn fd_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
    vec![Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())]
}

fn base_opts() -> ServeOptions {
    let schema = schema();
    let mut opts = ServeOptions::new(schema.clone());
    opts.rules = fd_rules(&schema);
    opts.shards = 1;
    opts.http_threads = 2;
    opts
}

/// Feed the same delta bodies through a solo sequential session — the
/// offline oracle the streamed table must match byte for byte.
fn oracle_table(rules: Vec<Arc<dyn Rule>>, copts: CleanseOptions, bodies: &[&str]) -> String {
    let schema = schema();
    let mut sys = BigDansing::sequential();
    for r in rules {
        sys.add_rule(r);
    }
    let empty = Table::from_rows("t", schema.clone(), Vec::new());
    let mut session = sys.open_session(&empty, copts).unwrap();
    for body in bodies {
        let batch = DeltaBatch::parse_str(body, &schema).unwrap();
        sys.apply_delta(&mut session, batch).unwrap();
    }
    csv::to_string(session.table())
}

fn json_u64(body: &str, key: &str) -> u64 {
    let v = Json::parse(body).unwrap_or_else(|e| panic!("bad json {body:?}: {e}"));
    v.as_object()
        .and_then(|o| o.get(key).and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no numeric {key} in {body}"))
}

#[test]
fn streamed_table_matches_offline_oracle() {
    let mut server = Server::start("127.0.0.1:0", base_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let bodies = [
        "insert,1,90210,LA\ninsert,2,90210,SF\ninsert,3,10001,NY\n",
        "insert,4,60601,CH\nupdate,3,10001,BK\n",
        "delete,2\ninsert,5,90210,LA\n",
    ];
    for body in &bodies {
        let r = c.post("/tenant/acme/records?wait=1", body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let got = c.get("/tenant/acme/table").unwrap();
    assert_eq!(got.status, 200);
    assert_eq!(got.content_type, "text/csv", "the table is CSV");
    let want = oracle_table(fd_rules(&schema()), CleanseOptions::default(), &bodies);
    assert_eq!(got.body, want, "streamed table must equal offline cleanse");

    let report = c.get("/tenant/acme/report").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(report.content_type, "application/json");
    assert_eq!(json_u64(&report.body, "records_in"), 7);
    assert_eq!(json_u64(&report.body, "violations"), 0);
    server.shutdown();
}

#[test]
fn micro_batcher_flushes_on_size_and_latency() {
    let mut opts = base_opts();
    opts.max_batch = 4;
    opts.max_latency = Duration::from_secs(30); // size must trigger first
    let mut server = Server::start("127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let r = c
        .post(
            "/tenant/t1/records",
            "insert,1,90210,LA\ninsert,2,10001,NY\n",
        )
        .unwrap();
    assert_eq!(r.status, 202, "{}", r.body);
    let r = c
        .post(
            "/tenant/t1/records",
            "insert,3,60601,CH\ninsert,4,94105,SF\n",
        )
        .unwrap();
    assert_eq!(r.status, 202);

    // the 4th op crossed max_batch: one coalesced flush, no waiting
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = c.get("/tenant/t1/report").unwrap();
        if json_u64(&report.body, "batches_applied") == 1
            && json_u64(&report.body, "pending_ops") == 0
        {
            assert_eq!(json_u64(&report.body, "table_rows"), 4);
            break;
        }
        assert!(Instant::now() < deadline, "size flush never happened");
        std::thread::sleep(Duration::from_millis(10));
    }

    // latency path: one lone op must flush within max_latency
    let mut opts = base_opts();
    opts.max_batch = 1000;
    opts.max_latency = Duration::from_millis(30);
    let mut server2 = Server::start("127.0.0.1:0", opts).unwrap();
    let mut c2 = Client::connect(server2.addr()).unwrap();
    let r = c2
        .post("/tenant/t2/records", "insert,1,90210,LA\n")
        .unwrap();
    assert_eq!(r.status, 202);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = c2.get("/tenant/t2/report").unwrap();
        if json_u64(&report.body, "batches_applied") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "latency flush never happened");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    server2.shutdown();
}

#[test]
fn malformed_records_quarantine_instead_of_failing() {
    let mut server = Server::start("127.0.0.1:0", base_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let body = "insert,1,90210,LA\nnonsense line\ninsert,oops,1,2\ninsert,2,10001,NY\n";
    let r = c.post("/tenant/acme/records?wait=1", body).unwrap();
    assert_eq!(r.status, 200, "malformed lines must not fail the request");
    assert_eq!(json_u64(&r.body, "accepted"), 2);
    assert_eq!(json_u64(&r.body, "quarantined"), 2);
    assert_eq!(json_u64(&r.body, "table_rows"), 2);

    let report = c.get("/tenant/acme/report").unwrap();
    assert_eq!(json_u64(&report.body, "records_quarantined"), 2);
    assert!(report.body.contains("\"line\": 2"), "{}", report.body);

    // the metric surfaces on the stats endpoint too
    let stats = c.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert_eq!(json_u64(&stats.body, "records_quarantined"), 2);

    // JSONL ingest takes the same lenient path
    let jsonl = "{\"op\":\"insert\",\"id\":9,\"values\":[\"94105\",\"SF\"]}\n{\"bad\":true}\n";
    let r = c
        .request(
            "POST",
            "/tenant/acme/records?wait=1",
            "application/x-ndjson",
            jsonl,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(json_u64(&r.body, "accepted"), 1);
    assert_eq!(json_u64(&r.body, "quarantined"), 1);
    server.shutdown();
}

#[test]
fn quoted_multi_line_city_is_applied_not_quarantined() {
    let mut server = Server::start("127.0.0.1:0", base_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let body = "op,id,zipcode,city\ninsert,1,90210,\"Los Angeles,\nCA\"\ninsert,2,10001,NY\n";
    let r = c.post("/tenant/acme/records?wait=1", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "accepted"), 2);
    assert_eq!(json_u64(&r.body, "quarantined"), 0);
    let got = c.get("/tenant/acme/table").unwrap();
    assert!(got.body.contains("\"Los Angeles,\nCA\""), "{}", got.body);
    let want = oracle_table(fd_rules(&schema()), CleanseOptions::default(), &[body]);
    assert_eq!(got.body, want);
    server.shutdown();
}

/// One JSONL line of 100k `[` is far inside the body limit, and the
/// recursive-descent reader used to recurse once per bracket: the
/// handler thread's stack overflowed and took the whole server process
/// down. Nesting is bounded now, so the line is an ordinary parse error.
#[test]
fn deeply_nested_json_is_quarantined_and_the_server_survives() {
    let mut server = Server::start("127.0.0.1:0", base_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let hostile = format!(
        "{{\"op\":\"insert\",\"id\":1,\"values\":{}\n",
        "[".repeat(100_000)
    );
    let body = format!("{hostile}{{\"op\":\"insert\",\"id\":2,\"values\":[\"94105\",\"SF\"]}}\n");
    let r = c
        .request(
            "POST",
            "/tenant/acme/records?wait=1",
            "application/x-ndjson",
            &body,
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "accepted"), 1);
    assert_eq!(json_u64(&r.body, "quarantined"), 1);
    let report = c.get("/tenant/acme/report").unwrap();
    assert!(
        report.body.contains("nesting deeper than"),
        "{}",
        report.body
    );

    // the next request gets a normal reply
    let r = c
        .post("/tenant/acme/records?wait=1", "insert,3,10001,NY\n")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "table_rows"), 2);
    server.shutdown();
}

/// A reply a hostile peer may get: a 400, or the connection closed or
/// reset under it (an empty read).
fn refused(reply: &[u8]) -> bool {
    reply.is_empty() || reply.starts_with(b"HTTP/1.1 400")
}

/// The request head is capped. A peer that sent a megabyte and never a
/// newline used to grow one `String` for as long as it kept sending, and
/// 70 KiB of headers were read in full; each is now refused as soon as
/// the cap is spent, and the server keeps serving.
#[test]
fn oversized_request_heads_are_refused_and_the_server_survives() {
    let mut server = Server::start("127.0.0.1:0", base_opts()).unwrap();

    // 1 MiB of `A`, a chunk every 10 ms so the server never sees the
    // line go idle: the refusal must come while most of it is unsent
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    let chunk = [b'A'; 16 << 10];
    let (mut sent, mut reply) = (0, None);
    while sent < (1 << 20) && reply.is_none() {
        let mut buf = [0u8; 512];
        reply = match s.write_all(&chunk).and_then(|()| s.read(&mut buf)) {
            Ok(n) => Some(buf[..n].to_vec()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(_) => Some(Vec::new()), // reset: the server hung up mid-send
        };
        sent += chunk.len();
    }
    let mut reply =
        reply.unwrap_or_else(|| panic!("still reading after {sent} newline-free bytes"));
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = s.read_to_end(&mut reply); // the rest of the reply, up to the close
    assert!(refused(&reply), "{}", String::from_utf8_lossy(&reply));

    // a well-formed request under 70 KiB of headers
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut req =
        String::from("POST /tenant/acme/records?wait=1 HTTP/1.1\r\nConnection: close\r\n");
    while req.len() < (70 << 10) {
        req.push_str(&format!("X-Pad: {}\r\n", "a".repeat(1000)));
    }
    req.push_str("Content-Length: 18\r\n\r\ninsert,9,90210,LA\n");
    let _ = s.write_all(req.as_bytes()); // a reset mid-write is a refusal too
    let mut reply = Vec::new();
    let _ = s.read_to_end(&mut reply);
    assert!(refused(&reply), "{}", String::from_utf8_lossy(&reply));

    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let r = c
        .post("/tenant/acme/records?wait=1", "insert,1,10001,NY\n")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "table_rows"), 1);
    server.shutdown();
}

#[test]
fn windowed_retraction_matches_window_aware_oracle() {
    let spec = WindowSpec::tumbling(4).unwrap();
    let mut opts = base_opts();
    opts.cleanse.window = Some(spec);
    let mut server = Server::start("127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // ten clean single-op batches: event times 0..10
    let bodies: Vec<String> = (0..10)
        .map(|i| format!("insert,{i},{},C{i}\n", 10000 + i))
        .collect();
    let mut expired_total = 0;
    for body in &bodies {
        let r = c.post("/tenant/win/records?wait=1", body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        expired_total += json_u64(&r.body, "tuples_expired");
    }

    // hand-computed window geometry: after ts 0..=9 (watermark 9), a
    // tuple is live iff its tumbling window [4⌊ts/4⌋, 4⌊ts/4⌋+4) is
    // still open — exactly ts 8 and 9
    let report = c.get("/tenant/win/report").unwrap();
    assert_eq!(json_u64(&report.body, "watermark"), 9);
    assert_eq!(json_u64(&report.body, "window_live"), 2);
    assert_eq!(expired_total, 8);

    // and the full session-level oracle agrees byte for byte
    let got = c.get("/tenant/win/table").unwrap();
    let copts = CleanseOptions {
        window: Some(spec),
        ..Default::default()
    };
    let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
    let want = oracle_table(fd_rules(&schema()), copts, &refs);
    assert_eq!(got.body, want);
    server.shutdown();
}

/// A rule that panics on any tuple whose city is "BOOM" — only tenant
/// `alpha` ever streams that value.
fn boom_rule() -> Arc<dyn Rule> {
    Arc::new(
        UdfRule::builder("udf:boom", |unit| {
            for t in unit.tuples() {
                if t.value(1).to_string().contains("BOOM") {
                    panic!("boom tuple");
                }
            }
            Vec::new()
        })
        .unit_kind(UnitKind::Single)
        .build(),
    )
}

#[test]
fn tenant_fault_is_isolated_from_cotenant_stream() {
    let schema = schema();
    let mut rules = fd_rules(&schema);
    rules.push(boom_rule());

    let mut opts = base_opts();
    opts.rules = rules.clone();
    opts.shards = 1; // force both tenants onto the same shard
    opts.cleanse.isolation = IsolationOptions::partial();
    let mut server = Server::start("127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let beta_bodies = [
        "insert,1,90210,LA\ninsert,2,90210,SF\n",
        "insert,3,10001,NY\nupdate,2,90210,LA\n",
        "insert,4,60601,CH\ndelete,1\n",
    ];
    // interleave: alpha's poisonous stream between beta's batches
    for (i, body) in beta_bodies.iter().enumerate() {
        let r = c
            .post(
                "/tenant/alpha/records?wait=1",
                &format!("insert,{i},50000,BOOM\n"),
            )
            .unwrap();
        assert_eq!(r.status, 200, "partial mode keeps alpha alive: {}", r.body);
        let r = c.post("/tenant/beta/records?wait=1", body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }

    // alpha: the faulty rule is quarantined, the session is not poisoned
    let report = c.get("/tenant/alpha/report").unwrap();
    assert!(report.body.contains("udf:boom"), "{}", report.body);
    assert!(
        report.body.contains("\"poisoned\": false"),
        "{}",
        report.body
    );

    // beta's stream is byte-identical to a solo run without alpha
    let got = c.get("/tenant/beta/table").unwrap();
    let copts = CleanseOptions {
        isolation: IsolationOptions::partial(),
        ..Default::default()
    };
    let refs: Vec<&str> = beta_bodies.to_vec();
    let want = oracle_table(rules, copts, &refs);
    assert_eq!(got.body, want, "co-tenant fault leaked into beta's stream");
    server.shutdown();
}

#[test]
fn durable_tenants_resume_across_restarts() {
    let root = std::env::temp_dir().join(format!("bd-serve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mk_opts = || {
        let mut opts = base_opts();
        opts.durability = Some(DurabilityOptions::new(&root).snapshot_every(2));
        opts
    };
    let mut server = Server::start("127.0.0.1:0", mk_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let first = [
        "insert,1,90210,LA\ninsert,2,10001,NY\n",
        "insert,3,90210,SF\n",
    ];
    for body in &first {
        assert_eq!(
            c.post("/tenant/acme/records?wait=1", body).unwrap().status,
            200
        );
    }
    // graceful stop through the endpoint
    assert_eq!(c.post("/shutdown", "").unwrap().status, 200);
    server.wait();

    let mut server = Server::start("127.0.0.1:0", mk_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let second = ["insert,4,60601,CH\nupdate,2,10001,BK\n"];
    for body in &second {
        assert_eq!(
            c.post("/tenant/acme/records?wait=1", body).unwrap().status,
            200
        );
    }
    let got = c.get("/tenant/acme/table").unwrap();
    let all: Vec<&str> = first.iter().chain(second.iter()).copied().collect();
    let want = oracle_table(fd_rules(&schema()), CleanseOptions::default(), &all);
    assert_eq!(got.body, want, "restarted service lost durable state");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant whose log is damaged is not silently reopened empty, and
/// the client learns why.
#[test]
fn corrupt_tenant_log_reports_the_corruption() {
    let root = std::env::temp_dir().join(format!("bd-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mk_opts = || {
        let mut opts = base_opts();
        opts.durability = Some(DurabilityOptions::new(&root));
        opts
    };
    let mut server = Server::start("127.0.0.1:0", mk_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let r = c.post("/tenant/acme/records?wait=1", "insert,1,90210,LA\n");
    assert_eq!(r.unwrap().status, 200);
    server.shutdown();

    // flip a byte inside the base frame's payload
    let log = root.join("shard0").join("acme").join("snapshot.bin");
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[20] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();

    let mut server = Server::start("127.0.0.1:0", mk_opts()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let r = c
        .post("/tenant/acme/records?wait=1", "insert,2,10001,NY\n")
        .unwrap();
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(r.body.contains("corrupt data"), "{}", r.body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tenants_spread_across_shards_and_bad_ids_rejected() {
    let mut opts = base_opts();
    opts.shards = 4;
    let mut server = Server::start("127.0.0.1:0", opts).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    for t in ["a", "b", "c", "d", "e", "f"] {
        let r = c
            .post(
                &format!("/tenant/{t}/records?wait=1"),
                "insert,1,90210,LA\n",
            )
            .unwrap();
        assert_eq!(r.status, 200);
    }
    // distinct shard indices must appear in the reports
    let mut shards_seen = std::collections::BTreeSet::new();
    for t in ["a", "b", "c", "d", "e", "f"] {
        let report = c.get(&format!("/tenant/{t}/report")).unwrap();
        shards_seen.insert(json_u64(&report.body, "shard"));
    }
    assert!(shards_seen.len() > 1, "all tenants on one shard");

    assert_eq!(c.get("/tenant/no%2Fpe/report").unwrap().status, 400);
    assert_eq!(c.get("/tenant/ghost/report").unwrap().status, 404);
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    server.shutdown();
}
