#![warn(missing_docs)]

//! # bigdansing-dataflow
//!
//! The parallel data-processing substrate that BigDansing's execution
//! layer targets. The paper runs on Spark (in-memory) and Hadoop
//! MapReduce (disk-backed, stage-materializing); this crate provides a
//! faithful laptop-scale stand-in: a partitioned dataset handle
//! ([`PDataset`]) and one lazy dataflow API ([`Stage`]) whose passes
//! execute across a configurable number of worker threads.
//!
//! The operation set is what Appendix G of the paper uses to translate
//! physical operators. Narrow and keyed operators live on [`Stage`]:
//! `map`, `filter`, `flat_map`, `map_parts` (Scope, Iterate, Detect,
//! GenFix), `group_by_key` (Block) and `co_group` (CoBlock). The wide
//! pair primitives live on [`PDataset`] ([`joins`]): `self_cartesian`
//! (the paper's custom `selfCartesian()` Spark extension backing
//! UCrossProduct), `cartesian` / `self_cross_product`, and
//! `range_partition_by` (the partitioning phase of OCJoin). Each
//! operation exists once, and every one of them is fallible.
//!
//! Execution modes ([`ExecMode`]):
//! * `Sequential` — one worker; used as the correctness oracle.
//! * `Parallel { workers }` — Spark-like in-memory execution.
//! * `DiskBacked { workers }` — Hadoop-like: callers checkpoint datasets
//!   at stage boundaries, which serializes every partition to disk and
//!   reads it back ([`PDataset::checkpoint`]).
//!
//! Lazy fused execution ([`stage`]): [`Stage`] wraps a dataset in a
//! stage-graph IR where narrow transforms accumulate into one fused
//! per-partition closure, forced as a single physical pass at wide
//! boundaries (shuffle, co-group, checkpoint, collect). The shuffle
//! behind `group_by_key`/`co_group` runs map-side bucketing and the
//! reducer-side merge in parallel. [`Engine::explain`] renders which
//! logical operators fused into which physical passes.
//!
//! Fault tolerance ([`fault`]): every pass runs its partition tasks
//! through [`Engine::run_stage`] — panic isolation with bounded retries
//! ([`FaultPolicy`]) against borrowed input — a failed spill degrades to
//! the in-memory partitions, a deterministic [`FaultInjector`] lets
//! tests prove recovery end-to-end, and a [`RuleGuard`] bounds one
//! rule's detect pass.
//!
//! Resource governance ([`govern`]): jobs opened with
//! [`Engine::begin_job`] carry a [`CancellationToken`] checked between
//! partition tasks, which trips itself at the first check past the
//! job's optional wall-clock deadline, and an optional [`MemoryBudget`]
//! under which checkpointed datasets are byte-accounted and evicted to
//! disk when the soft limit is exceeded (spill-under-pressure).
//!
//! Durable IO ([`dio`]): spill, checkpoint, WAL, and snapshot files are
//! written atomically (temp + fsync + rename) through [`Dio`], with
//! transient failures retried under the fault policy, deterministic IO
//! fault injection (fail-once, short write, corrupt byte, fail-fsync),
//! and named crash points for the crash-test harness.

pub mod dio;
pub mod engine;
pub mod fault;
pub mod govern;
pub mod grouping;
pub mod joins;
pub mod pdataset;
pub mod pool;
pub mod stage;

pub use dio::Dio;
pub use engine::{Engine, EngineBuilder, ExecMode, JobGuard};
pub use fault::{
    FaultInjector, FaultMode, FaultPolicy, FaultSite, IoFault, IsolationOptions, RuleGuard,
};
pub use govern::{CancellationToken, MemoryBudget};
pub use pdataset::PDataset;
pub use stage::{PassKind, PassRecord, Stage};

pub use bigdansing_common::error::CancelReason;
