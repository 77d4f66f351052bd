//! Shard workers: each shard thread owns the sessions of the tenants
//! hashed onto it, behind an mpsc mailbox.
//!
//! One thread per shard serializes every mutation of its tenants'
//! [`Session`]s — no locks around session state, no cross-tenant
//! interleaving inside an apply. Parallelism comes from two places
//! above and below this layer: tenants hash across shards, and each
//! shard's [`Engine`] fans detection/repair out over its worker pool.
//!
//! The mailbox also drives the **micro-batcher**: ingested ops park in
//! a per-tenant pending buffer and flush as one [`DeltaBatch`] when the
//! buffer reaches `max_batch` ops, when the oldest parked op has waited
//! `max_latency`, or when a client asked to observe the result
//! (`?wait=1` / explicit flush). The shard loop's `recv_timeout` wakes
//! just in time for the earliest due tenant, so latency bounds hold
//! even on an otherwise idle shard.

use crate::ServeOptions;
use bigdansing::{BigDansing, DurabilityOptions, Session};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{csv, Result, Table};
use bigdansing_incremental::wal::snapshot_path;
use bigdansing_incremental::{DeltaBatch, DeltaOp};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Instant;

use crate::http::json_escape;

/// Cap on retained per-tenant quarantine entries (the counter keeps
/// counting past it; only the detail lines are bounded).
const QUARANTINE_LOG_CAP: usize = 64;

/// A request routed to a shard worker.
pub enum Msg {
    /// Parsed delta ops from one `POST /records`, plus the lines the
    /// lenient parser quarantined. `wait` carries a reply channel when
    /// the client wants the flushed result (`?wait=1`).
    Ingest {
        /// Tenant the ops belong to.
        tenant: String,
        /// Well-formed ops, in request order.
        ops: Vec<DeltaOp>,
        /// `(line, reason)` pairs the lenient parser set aside.
        quarantined: Vec<(usize, String)>,
        /// When present, flush immediately and send the batch report.
        wait: Option<Sender<Result<FlushReply>>>,
    },
    /// Explicit flush of a tenant's pending ops.
    Flush {
        /// Tenant to flush.
        tenant: String,
        /// Receives the flush outcome.
        reply: Sender<Result<FlushReply>>,
    },
    /// Tenant status report (JSON). `None` for an unknown tenant.
    Report {
        /// Tenant to report on.
        tenant: String,
        /// Receives the rendered report.
        reply: Sender<Option<String>>,
    },
    /// Current cleansed table (CSV). `None` for an unknown tenant.
    Table {
        /// Tenant whose table to render.
        tenant: String,
        /// Receives the rendered table.
        reply: Sender<Option<String>>,
    },
    /// Flush every tenant and stop the shard thread.
    Stop,
}

/// What a flush (or awaited ingest) observed.
#[derive(Debug, Clone, Default)]
pub struct FlushReply {
    /// Ops applied in the flushed batch (0 when nothing was pending).
    pub ops_applied: usize,
    /// Violations the batch introduced.
    pub violations_added: u64,
    /// Violations retracted by deletes/updates/expiry.
    pub violations_retracted: u64,
    /// Tuples retired past the violation window's watermark.
    pub tuples_expired: usize,
    /// True when the table ended violation-free.
    pub converged: bool,
    /// Violations still live after the apply.
    pub violations_remaining: usize,
    /// Rows in the tenant's table after the apply.
    pub table_rows: usize,
    /// The windowed session's watermark, if windowing is on.
    pub watermark: Option<u64>,
}

impl FlushReply {
    /// Render as the JSON body of a 200 response.
    pub fn to_json(&self) -> String {
        let wm = match self.watermark {
            Some(w) => w.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"ops_applied\": {}, \"violations_added\": {}, \"violations_retracted\": {}, \
             \"tuples_expired\": {}, \"converged\": {}, \"violations_remaining\": {}, \
             \"table_rows\": {}, \"watermark\": {wm}}}",
            self.ops_applied,
            self.violations_added,
            self.violations_retracted,
            self.tuples_expired,
            self.converged,
            self.violations_remaining,
            self.table_rows,
        )
    }
}

/// One tenant's state on its shard.
struct Tenant {
    name: String,
    session: Session,
    pending: Vec<DeltaOp>,
    waiters: Vec<Sender<Result<FlushReply>>>,
    /// Deadline of the oldest parked op, when any are parked.
    due: Option<Instant>,
    records_in: u64,
    batches_applied: u64,
    records_quarantined: u64,
    quarantine_log: Vec<(usize, String)>,
    last_error: Option<String>,
}

/// A shard worker: drain the mailbox, batch, apply, report.
pub struct Shard {
    index: usize,
    sys: BigDansing,
    opts: ServeOptions,
    tenants: Vec<Tenant>,
    rx: Receiver<Msg>,
}

impl Shard {
    /// Build a shard around its engine-backed [`BigDansing`] facade and
    /// mailbox receiver.
    pub fn new(index: usize, sys: BigDansing, opts: ServeOptions, rx: Receiver<Msg>) -> Shard {
        Shard {
            index,
            sys,
            opts,
            tenants: Vec::new(),
            rx,
        }
    }

    /// Run the mailbox loop until [`Msg::Stop`] (or every sender hung up).
    pub fn run(mut self) {
        loop {
            let msg = match self.earliest_due() {
                Some(due) => {
                    let timeout = due.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(timeout) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match self.rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            match msg {
                Some(Msg::Ingest {
                    tenant,
                    ops,
                    quarantined,
                    wait,
                }) => self.ingest(&tenant, ops, quarantined, wait),
                Some(Msg::Flush { tenant, reply }) => {
                    let r = self.flush_tenant_by_name(&tenant);
                    let _ = reply.send(r);
                }
                Some(Msg::Report { tenant, reply }) => {
                    let _ = reply.send(self.report(&tenant));
                }
                Some(Msg::Table { tenant, reply }) => {
                    let r = self
                        .tenant_index(&tenant)
                        .map(|i| csv::to_string(self.tenants[i].session.table()));
                    let _ = reply.send(r);
                }
                Some(Msg::Stop) => break,
                None => {} // recv timed out: fall through to flush due tenants
            }
            self.flush_due();
        }
        // drain: apply whatever is still parked so shutdown loses nothing
        for i in 0..self.tenants.len() {
            if !self.tenants[i].pending.is_empty() {
                let _ = self.flush_tenant(i);
            }
        }
    }

    fn earliest_due(&self) -> Option<Instant> {
        self.tenants.iter().filter_map(|t| t.due).min()
    }

    fn flush_due(&mut self) {
        let now = Instant::now();
        for i in 0..self.tenants.len() {
            if self.tenants[i].due.is_some_and(|d| d <= now) {
                let _ = self.flush_tenant(i);
            }
        }
    }

    fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// Find or create the tenant, opening its (durable) session over an
    /// empty table with the service schema.
    fn tenant_mut(&mut self, name: &str) -> Result<usize> {
        if let Some(i) = self.tenant_index(name) {
            return Ok(i);
        }
        let empty = Table::from_rows(name, self.opts.schema.clone(), Vec::new());
        let copts = self.opts.cleanse.clone();
        let session = match self.tenant_durability(name) {
            Some(durability) => {
                if snapshot_path(&durability.dir).exists() {
                    // a previous incarnation left durable state: resume it
                    self.sys.recover_session(copts, durability)?.0
                } else {
                    self.sys.open_durable_session(&empty, copts, durability)?
                }
            }
            None => self.sys.open_session(&empty, copts)?,
        };
        self.tenants.push(Tenant {
            name: name.to_string(),
            session,
            pending: Vec::new(),
            waiters: Vec::new(),
            due: None,
            records_in: 0,
            batches_applied: 0,
            records_quarantined: 0,
            quarantine_log: Vec::new(),
            last_error: None,
        });
        Ok(self.tenants.len() - 1)
    }

    /// The tenant's durability: the service's, rooted at
    /// `dir/shard{i}/{tenant}`.
    fn tenant_durability(&self, name: &str) -> Option<DurabilityOptions> {
        self.opts.durability.as_ref().map(|d| DurabilityOptions {
            dir: d.dir.join(format!("shard{}", self.index)).join(name),
            ..d.clone()
        })
    }

    fn ingest(
        &mut self,
        tenant: &str,
        ops: Vec<DeltaOp>,
        quarantined: Vec<(usize, String)>,
        wait: Option<Sender<Result<FlushReply>>>,
    ) {
        let i = match self.tenant_mut(tenant) {
            Ok(i) => i,
            Err(e) => {
                if let Some(w) = wait {
                    let _ = w.send(Err(e));
                }
                return;
            }
        };
        {
            let t = &mut self.tenants[i];
            t.records_in += ops.len() as u64;
            t.records_quarantined += quarantined.len() as u64;
            for entry in quarantined {
                if t.quarantine_log.len() < QUARANTINE_LOG_CAP {
                    t.quarantine_log.push(entry);
                }
            }
            t.pending.extend(ops);
            if let Some(w) = wait {
                t.waiters.push(w);
            }
            if t.due.is_none() && !t.pending.is_empty() {
                t.due = Some(Instant::now() + self.opts.max_latency);
            }
        }
        let t = &self.tenants[i];
        if !t.waiters.is_empty() || t.pending.len() >= self.opts.max_batch {
            let _ = self.flush_tenant(i);
        }
    }

    fn flush_tenant_by_name(&mut self, tenant: &str) -> Result<FlushReply> {
        let i = self.tenant_mut(tenant)?;
        self.flush_tenant(i)
    }

    /// Apply the tenant's parked ops as one batch and fan the outcome
    /// out to every waiter.
    fn flush_tenant(&mut self, i: usize) -> Result<FlushReply> {
        let durable = self.tenant_durability(&self.tenants[i].name);
        let t = &mut self.tenants[i];
        t.due = None;
        let ops = std::mem::take(&mut t.pending);
        let waiters = std::mem::take(&mut t.waiters);
        let outcome = if ops.is_empty() {
            Ok(FlushReply {
                converged: t.session.is_clean(),
                violations_remaining: t.session.violation_count(),
                table_rows: t.session.table().len(),
                watermark: t.session.watermark(),
                ..FlushReply::default()
            })
        } else {
            let batch = DeltaBatch { ops };
            let applied = self.sys.apply_delta(&mut t.session, batch);
            // a poisoned durable session can be rebuilt in place: the
            // failed batch is already in the log, so recovery replays it
            if applied.is_err() && t.session.is_poisoned() {
                if let Some(durability) = durable {
                    let copts = self.opts.cleanse.clone();
                    if let Ok((s, _)) = self.sys.recover_session(copts, durability) {
                        t.session = s;
                    }
                }
            }
            applied.map(|r| {
                t.batches_applied += 1;
                FlushReply {
                    ops_applied: r.inserted + r.updated + r.deleted,
                    violations_added: r.violations_added,
                    violations_retracted: r.violations_retracted,
                    tuples_expired: r.tuples_expired,
                    converged: r.converged,
                    violations_remaining: r.violations_remaining,
                    table_rows: t.session.table().len(),
                    watermark: t.session.watermark(),
                }
            })
        };
        if let Err(e) = &outcome {
            t.last_error = Some(e.to_string());
        }
        for w in waiters {
            let _ = w.send(outcome.clone());
        }
        outcome
    }

    fn report(&mut self, tenant: &str) -> Option<String> {
        let i = self.tenant_index(tenant)?;
        let t = &self.tenants[i];
        let s = &t.session;
        let mut out = String::from("{");
        out.push_str(&format!("\"tenant\": \"{}\"", json_escape(&t.name)));
        out.push_str(&format!(", \"shard\": {}", self.index));
        out.push_str(&format!(", \"records_in\": {}", t.records_in));
        out.push_str(&format!(", \"batches_applied\": {}", t.batches_applied));
        out.push_str(&format!(", \"pending_ops\": {}", t.pending.len()));
        out.push_str(&format!(
            ", \"records_quarantined\": {}",
            t.records_quarantined
        ));
        out.push_str(&format!(", \"table_rows\": {}", s.table().len()));
        out.push_str(&format!(", \"violations\": {}", s.violation_count()));
        out.push_str(&format!(", \"clean\": {}", s.is_clean()));
        out.push_str(&format!(", \"poisoned\": {}", s.is_poisoned()));
        match s.watermark() {
            Some(w) => out.push_str(&format!(", \"watermark\": {w}")),
            None => out.push_str(", \"watermark\": null"),
        }
        match s.window_live() {
            Some(n) => out.push_str(&format!(", \"window_live\": {n}")),
            None => out.push_str(", \"window_live\": null"),
        }
        let rules: Vec<String> = s
            .quarantined_rules()
            .iter()
            .map(|(r, why)| {
                format!(
                    "{{\"rule\": \"{}\", \"reason\": \"{}\"}}",
                    json_escape(r),
                    json_escape(why)
                )
            })
            .collect();
        out.push_str(&format!(", \"quarantined_rules\": [{}]", rules.join(", ")));
        let lines: Vec<String> = t
            .quarantine_log
            .iter()
            .map(|(line, why)| {
                format!("{{\"line\": {line}, \"reason\": \"{}\"}}", json_escape(why))
            })
            .collect();
        out.push_str(&format!(
            ", \"quarantined_records\": [{}]",
            lines.join(", ")
        ));
        match &t.last_error {
            Some(e) => out.push_str(&format!(", \"last_error\": \"{}\"", json_escape(e))),
            None => out.push_str(", \"last_error\": null"),
        }
        out.push('}');
        Some(out)
    }
}

/// Count quarantined records on the shard engine's metrics. Called by
/// the HTTP layer right after lenient parsing.
pub fn count_quarantined(metrics: &Metrics, n: u64) {
    if n > 0 {
        Metrics::add(&metrics.records_quarantined, n);
    }
}

/// Stable tenant → shard assignment (FNV-1a over the tenant name; the
/// std hasher is randomly seeded per process, which would move tenants
/// between shards across restarts of a durable service).
pub fn shard_for(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}
