#![warn(missing_docs)]

//! # bigdansing-serve
//!
//! A **continuous cleansing service**: a multi-tenant streaming
//! front-end over the incremental subsystem's durable [`Session`]s.
//!
//! The paper's system — and everything below this crate — is
//! batch-shaped: a cleansing job starts, scans its input, and ends. But
//! dirty data arrives continuously, from many producers at once. This
//! crate keeps cleansing *running*: tenants stream delta ops over plain
//! HTTP/1.1, a micro-batcher coalesces them into [`DeltaBatch`]es
//! (flushing on size or latency), and sharded workers apply each batch
//! through the tenant's incremental session — persistent block index,
//! violation retraction, scoped re-repair, optional WAL-backed
//! durability, and optional Bleach-style violation windows whose
//! watermark retires old tuples along with their violations.
//!
//! The stack is deliberately dependency-free: `std::net` sockets and a
//! ~200-line HTTP reader front a thread-per-shard core, because the
//! dataflow [`Engine`](bigdansing::Engine)'s worker pool already owns
//! the machine's parallelism — an async runtime would only add a second
//! scheduler to fight with it.
//!
//! Every apply runs **governed**: shared admission control bounds
//! concurrent jobs across shards, per-job deadlines cancel runaway
//! applies, and in partial isolation mode a tenant whose rule faults
//! keeps streaming with that rule quarantined — without perturbing any
//! other tenant's stream (sessions never share mutable state; see
//! `tests/serve.rs` for the byte-parity isolation proof).
//!
//! ```no_run
//! use bigdansing_serve::{ServeOptions, Server};
//! use bigdansing_common::Schema;
//! use bigdansing_rules::FdRule;
//! use std::sync::Arc;
//!
//! let schema = Schema::parse("zipcode,city");
//! let mut opts = ServeOptions::new(schema.clone());
//! opts.rules
//!     .push(Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap()));
//! let mut server = Server::start("127.0.0.1:0", opts).unwrap();
//! println!("listening on {}", server.addr());
//! server.wait();
//! ```

pub mod http;
pub mod ingest;
pub mod server;
pub mod shard;

pub use ingest::Format;
pub use server::{client, Server};
pub use shard::{shard_for, FlushReply};

use bigdansing::{CleanseOptions, Rule};
use bigdansing_common::{Error, Result, Schema};
use bigdansing_incremental::DurabilityOptions;
use std::sync::Arc;
use std::time::Duration;

#[allow(unused_imports)] // doc links
use bigdansing::Session;
#[allow(unused_imports)] // doc links
use bigdansing_incremental::DeltaBatch;

/// Configuration of a continuous cleansing service.
#[derive(Clone)]
pub struct ServeOptions {
    /// Schema shared by every tenant's table.
    pub schema: Schema,
    /// Data-quality rules applied to every tenant's stream.
    pub rules: Vec<Arc<dyn Rule>>,
    /// Shard workers; tenants hash across them ([`shard_for`]).
    pub shards: usize,
    /// Engine workers per shard (≤ 1 means a sequential engine).
    pub workers: usize,
    /// HTTP handler threads.
    pub http_threads: usize,
    /// Micro-batcher: flush once this many ops are parked.
    pub max_batch: usize,
    /// Micro-batcher: flush once the oldest parked op is this stale.
    pub max_latency: Duration,
    /// When set, tenant sessions are durable under
    /// `dir/shard{i}/{tenant}`, snapshot at its cadence, and resume
    /// across restarts.
    pub durability: Option<DurabilityOptions>,
    /// Wall-clock deadline per governed apply.
    pub deadline: Option<Duration>,
    /// Admission queue depth (jobs beyond `shards` running +
    /// this many queued are rejected with 429-style errors).
    pub max_pending: Option<usize>,
    /// Every tenant session's options: repair strategy, isolation and
    /// the violation window.
    pub cleanse: CleanseOptions,
}

impl ServeOptions {
    /// Defaults: 2 shards, sequential engines, 4 HTTP threads,
    /// 256-op / 25 ms micro-batches, no window, no durability.
    pub fn new(schema: Schema) -> ServeOptions {
        ServeOptions {
            schema,
            rules: Vec::new(),
            shards: 2,
            workers: 1,
            http_threads: 4,
            max_batch: 256,
            max_latency: Duration::from_millis(25),
            durability: None,
            deadline: None,
            max_pending: None,
            cleanse: CleanseOptions::default(),
        }
    }

    /// Reject configurations that cannot serve.
    pub fn validate(&self) -> Result<()> {
        if self.rules.is_empty() {
            return Err(Error::InvalidPlan(
                "serve: at least one rule is required".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(Error::InvalidPlan("serve: max_batch must be > 0".into()));
        }
        Ok(())
    }
}
