//! The continuous cleansing server: accept loop, handler pool, routing.
//!
//! ```text
//!   clients ──TCP──▶ accept loop ──▶ handler pool ──▶ shard mailboxes
//!                    (non-blocking     (parse HTTP,      (micro-batch,
//!                     poll + shutdown   lenient-decode     apply through
//!                     flag)             deltas)            sessions)
//! ```
//!
//! Endpoints:
//!
//! | method & path                  | body / reply                       |
//! |--------------------------------|------------------------------------|
//! | `POST /tenant/{id}/records`    | CSV or JSONL delta ops → 202; with `?wait=1` → 200 + batch report |
//! | `POST /tenant/{id}/flush`      | force pending ops through → 200    |
//! | `GET  /tenant/{id}/report`     | tenant status JSON                 |
//! | `GET  /tenant/{id}/table`      | current cleansed table as CSV      |
//! | `GET  /stats`                  | engine counters summed over shards |
//! | `GET  /healthz`                | liveness probe                     |
//! | `POST /shutdown`               | graceful stop (drains batchers)    |

use crate::http::{self, json_escape, Request};
use crate::ingest::{self, Format};
use crate::shard::{self, shard_for, FlushReply, Msg, Shard};
use crate::ServeOptions;
use bigdansing::{AdmissionControl, BigDansing, Engine};
use bigdansing_common::{Error, Result};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running continuous cleansing service.
pub struct Server {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
    shards: Vec<Sender<Msg>>,
    engines: Vec<Engine>,
}

/// Everything a handler thread needs to route one request.
struct Ctx {
    opts: ServeOptions,
    shards: Vec<Sender<Msg>>,
    engines: Vec<Engine>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// shard workers, handler pool, and accept loop.
    pub fn start(addr: &str, opts: ServeOptions) -> Result<Server> {
        opts.validate()?;
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("serve: bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("serve: local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Io(format!("serve: set_nonblocking: {e}")))?;

        // one shared admission gate, one engine (and worker pool) per shard
        let admission = opts
            .max_pending
            .map(|cap| AdmissionControl::queue(opts.shards.max(1), cap));
        let mut shards = Vec::new();
        let mut engines = Vec::new();
        let mut shard_handles = Vec::new();
        for i in 0..opts.shards.max(1) {
            let engine = if opts.workers <= 1 {
                Engine::sequential()
            } else {
                Engine::parallel(opts.workers)
            };
            let mut sys = BigDansing::on_engine(engine.clone());
            for rule in &opts.rules {
                sys.add_rule(rule.clone());
            }
            if let Some(d) = opts.deadline {
                sys = sys.with_deadline(d);
            }
            if let Some(a) = &admission {
                sys = sys.with_admission(a.clone());
            }
            let (tx, rx) = mpsc::channel();
            let shard = Shard::new(i, sys, opts.clone(), rx);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("bd-shard-{i}"))
                    .spawn(move || shard.run())
                    .map_err(|e| Error::Io(format!("serve: spawn shard: {e}")))?,
            );
            shards.push(tx);
            engines.push(engine);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            opts: opts.clone(),
            shards: shards.clone(),
            engines: engines.clone(),
            shutdown: shutdown.clone(),
        });

        // handler pool: accept loop pushes connections, handlers pull
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(256);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut handler_handles = Vec::new();
        for i in 0..opts.http_threads.max(1) {
            let rx = conn_rx.clone();
            let ctx = ctx.clone();
            handler_handles.push(
                std::thread::Builder::new()
                    .name(format!("bd-http-{i}"))
                    .spawn(move || handler_loop(rx, ctx))
                    .map_err(|e| Error::Io(format!("serve: spawn handler: {e}")))?,
            );
        }

        let accept_shutdown = shutdown.clone();
        let accept_handle = std::thread::Builder::new()
            .name("bd-accept".into())
            .spawn(move || {
                accept_loop(listener, conn_tx, accept_shutdown);
                // conn_tx dropped here: handler threads drain and exit
                for h in handler_handles {
                    let _ = h.join();
                }
            })
            .map_err(|e| Error::Io(format!("serve: spawn accept: {e}")))?;

        Ok(Server {
            addr: local,
            shutdown,
            accept_handle: Some(accept_handle),
            shard_handles,
            shards,
            engines,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Per-shard engines, for metrics inspection in tests and benches.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// Signal shutdown and join every thread. Shards drain their
    /// pending micro-batches before exiting, so accepted ops are never
    /// dropped. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for tx in &self.shards {
            let _ = tx.send(Msg::Stop);
        }
        for h in std::mem::take(&mut self.shard_handles) {
            let _ = h.join();
        }
    }

    /// True once [`Self::shutdown`] has been requested (e.g. via the
    /// `POST /shutdown` endpoint).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until a shutdown request arrives (polling), then stop.
    pub fn wait(&mut self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, conn_tx: SyncSender<TcpStream>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handler_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, ctx: Arc<Ctx>) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => match guard.recv() {
                Ok(s) => s,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let _ = handle_connection(stream, &ctx);
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) -> std::io::Result<()> {
    // short timeout so an idle keep-alive connection re-checks the
    // shutdown flag instead of pinning its handler thread
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(http::ReadOutcome::Request(r)) => r,
            Ok(http::ReadOutcome::Closed) => return Ok(()),
            Ok(http::ReadOutcome::Idle) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => {
                let body = format!("{{\"error\": \"{}\"}}", json_escape(&e.to_string()));
                let _ = http::respond(&mut writer, 400, "application/json", &body, false);
                return Ok(());
            }
        };
        let keep = req.keep_alive() && !ctx.shutdown.load(Ordering::SeqCst);
        let (status, content_type, body) = route(&req, ctx);
        http::respond(&mut writer, status, content_type, &body, keep)?;
        if !keep {
            return Ok(());
        }
    }
}

/// `[A-Za-z0-9_-]{1,64}`: safe as a path segment and a directory name.
fn valid_tenant(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}", json_escape(msg))
}

/// Route a request: its status, content type and body. Every body is
/// JSON but a tenant's table, which is CSV.
fn route(req: &Request, ctx: &Ctx) -> (u16, &'static str, String) {
    let (status, body) = answer(req, ctx);
    let content_type = match (req.method.as_str(), &req.segments()[..], status) {
        ("GET", ["tenant", _, "table"], 200) => "text/csv",
        _ => "application/json",
    };
    (status, content_type, body)
}

fn answer(req: &Request, ctx: &Ctx) -> (u16, String) {
    let segs = req.segments();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => (200, "{\"ok\": true}".into()),
        ("GET", ["stats"]) => (200, stats_json(ctx)),
        ("POST", ["shutdown"]) => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            (200, "{\"stopping\": true}".into())
        }
        ("POST", ["tenant", id, "records"]) => tenant_records(req, ctx, id),
        ("POST", ["tenant", id, "flush"]) => {
            if !valid_tenant(id) {
                return (400, err_body("invalid tenant id"));
            }
            let (tx, rx) = mpsc::channel();
            let s = shard_for(id, ctx.shards.len());
            if ctx.shards[s]
                .send(Msg::Flush {
                    tenant: id.to_string(),
                    reply: tx,
                })
                .is_err()
            {
                return (503, err_body("shard unavailable"));
            }
            match rx.recv() {
                Ok(Ok(r)) => (200, r.to_json()),
                Ok(Err(e)) => (500, err_body(&e.to_string())),
                Err(_) => (503, err_body("shard unavailable")),
            }
        }
        ("GET", ["tenant", id, "report"]) => {
            tenant_query(ctx, id, |t, reply| Msg::Report { tenant: t, reply })
        }
        ("GET", ["tenant", id, "table"]) => {
            tenant_query(ctx, id, |t, reply| Msg::Table { tenant: t, reply })
        }
        _ => (404, err_body("no such route")),
    }
}

fn tenant_query(
    ctx: &Ctx,
    id: &str,
    mk: impl FnOnce(String, Sender<Option<String>>) -> Msg,
) -> (u16, String) {
    if !valid_tenant(id) {
        return (400, err_body("invalid tenant id"));
    }
    let (tx, rx) = mpsc::channel();
    let s = shard_for(id, ctx.shards.len());
    if ctx.shards[s].send(mk(id.to_string(), tx)).is_err() {
        return (503, err_body("shard unavailable"));
    }
    match rx.recv() {
        Ok(Some(body)) => (200, body),
        Ok(None) => (404, err_body("unknown tenant")),
        Err(_) => (503, err_body("shard unavailable")),
    }
}

fn tenant_records(req: &Request, ctx: &Ctx, id: &str) -> (u16, String) {
    if !valid_tenant(id) {
        return (400, err_body("invalid tenant id"));
    }
    let text = match req.body_str() {
        Ok(t) => t,
        Err(e) => return (400, err_body(&e.to_string())),
    };
    let format = Format::from_content_type(req.headers.get("content-type").map(String::as_str));
    let s = shard_for(id, ctx.shards.len());
    let (batch, quarantine) = ingest::parse_lenient(
        text,
        format,
        &ctx.opts.schema,
        format!("tenant {id} records"),
    );
    shard::count_quarantined(ctx.engines[s].metrics(), quarantine.len() as u64);
    let accepted = batch.ops.len();
    let set_aside = quarantine.len();
    let quarantined: Vec<(usize, String)> = quarantine
        .entries()
        .iter()
        .map(|(l, r)| (*l, r.clone()))
        .collect();

    let wait = req.query("wait").is_some_and(|v| v == "1" || v == "true");
    let (reply_tx, reply_rx) = if wait {
        let (tx, rx) = mpsc::channel::<Result<FlushReply>>();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    if ctx.shards[s]
        .send(Msg::Ingest {
            tenant: id.to_string(),
            ops: batch.ops,
            quarantined,
            wait: reply_tx,
        })
        .is_err()
    {
        return (503, err_body("shard unavailable"));
    }
    match reply_rx {
        None => (
            202,
            format!("{{\"accepted\": {accepted}, \"quarantined\": {set_aside}}}"),
        ),
        Some(rx) => match rx.recv() {
            Ok(Ok(r)) => {
                let mut body = r.to_json();
                // splice the ingest-side quarantine count into the report
                body.truncate(body.len() - 1);
                body.push_str(&format!(
                    ", \"accepted\": {accepted}, \"quarantined\": {set_aside}}}"
                ));
                (200, body)
            }
            Ok(Err(e)) => (500, err_body(&e.to_string())),
            Err(_) => (503, err_body("shard unavailable")),
        },
    }
}

fn stats_json(ctx: &Ctx) -> String {
    let mut total: Option<Vec<(&'static str, u64)>> = None;
    for engine in &ctx.engines {
        let snap = engine.metrics().snapshot();
        let counters = snap.counters();
        match &mut total {
            None => total = Some(counters.to_vec()),
            Some(acc) => {
                for (slot, (_, v)) in acc.iter_mut().zip(counters.iter()) {
                    slot.1 += v;
                }
            }
        }
    }
    let mut out = format!("{{\"shards\": {}", ctx.engines.len());
    for (name, value) in total.unwrap_or_default() {
        out.push_str(&format!(", \"{name}\": {value}"));
    }
    out.push('}');
    out
}

/// Convenience used by tests and the bench harness: a tiny blocking
/// HTTP client for talking to the server (the workspace has no HTTP
/// client dependency either).
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// A minimal response: status code, content type and body.
    #[derive(Debug)]
    pub struct Response {
        /// HTTP status code.
        pub status: u16,
        /// The `Content-Type` header's value, lowercased.
        pub content_type: String,
        /// Response body.
        pub body: String,
    }

    /// A keep-alive connection to the server.
    pub struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        /// Connect to `addr`.
        pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let writer = stream.try_clone()?;
            Ok(Client {
                reader: BufReader::new(stream),
                writer,
            })
        }

        /// Send one request and read the response.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            content_type: &str,
            body: &str,
        ) -> std::io::Result<Response> {
            write!(
                self.writer,
                "{method} {path} HTTP/1.1\r\nHost: bigdansing\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )?;
            self.writer.flush()?;
            let mut status_line = String::new();
            self.reader.read_line(&mut status_line)?;
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad status line {status_line:?}"),
                    )
                })?;
            let (mut len, mut content_type) = (0usize, String::new());
            loop {
                let mut h = String::new();
                let n = self.reader.read_line(&mut h)?;
                let h = h.trim_end();
                if n == 0 || h.is_empty() {
                    break;
                }
                let lower = h.to_ascii_lowercase();
                if let Some(v) = lower.strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap_or(0);
                } else if let Some(v) = lower.strip_prefix("content-type:") {
                    content_type = v.trim().to_string();
                }
            }
            let mut body = vec![0u8; len];
            self.reader.read_exact(&mut body)?;
            Ok(Response {
                status,
                content_type,
                body: String::from_utf8_lossy(&body).into_owned(),
            })
        }

        /// POST helper.
        pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
            self.request("POST", path, "text/csv", body)
        }

        /// GET helper.
        pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
            self.request("GET", path, "text/plain", "")
        }
    }
}
