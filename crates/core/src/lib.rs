#![warn(missing_docs)]

//! # BigDansing
//!
//! A from-scratch Rust reproduction of **"BigDansing: A System for Big
//! Data Cleansing"** (Khayyat et al., SIGMOD 2015): a rule-based data
//! cleansing system that detects violations of data-quality rules with a
//! five-operator logical abstraction (Scope, Block, Iterate, Detect,
//! GenFix), optimizes detection plans (shared scans, UCrossProduct,
//! CoBlock, OCJoin), and repairs violations with distributed versions of
//! classic repair algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use bigdansing::{BigDansing, CleanseOptions};
//! use bigdansing_common::{csv, Schema};
//!
//! let table = csv::parse_str(
//!     "tax",
//!     "zipcode,city\n90210,LA\n90210,SF\n90210,LA\n10001,NY\n",
//!     true,
//!     None,
//! )
//! .unwrap();
//!
//! let mut sys = BigDansing::parallel(4);
//! sys.add_fd("zipcode -> city", table.schema()).unwrap();
//!
//! // detection only
//! let report = sys.detect(&table).unwrap();
//! assert_eq!(report.violation_count(), 2);
//!
//! // full cleansing (detect ⇄ repair until clean)
//! let result = sys.cleanse(&table, CleanseOptions::default()).unwrap();
//! assert!(result.converged);
//! assert!(sys.detect(&result.table).unwrap().is_clean());
//! ```
//!
//! Stages run fault-tolerantly: worker panics are caught and retried
//! under the engine's [`FaultPolicy`], and exhausted retries surface as
//! a typed [`Error::Task`] instead of a crash; a failed spill falls back
//! to the in-memory partitions. See [`Engine::builder`] for the
//! retry/backoff/injection knobs.
//!
//! Jobs run under **resource governance**: an optional
//! [`AdmissionControl`] gate bounds concurrent jobs (queue-or-reject), a
//! per-job wall-clock deadline ([`BigDansing::with_deadline`]) cancels
//! runaway jobs cooperatively ([`Error::Cancelled`] with the job's spill
//! files removed), and a [`MemoryBudget`] evicts the coldest
//! checkpointed datasets to disk under pressure instead of growing
//! without bound.
//!
//! For evolving tables, an **incremental cleansing** subsystem keeps a
//! [`Session`] whose persistent block index and violation store let a
//! [`DeltaBatch`] of inserts/updates/deletes be cleansed by reprocessing
//! only the dirtied blocks — with violation retraction and scoped
//! re-repair — instead of recomputing from scratch. See
//! [`BigDansing::open_session`] / [`BigDansing::apply_delta`].

pub mod cleanse;
pub mod report;
pub mod system;

pub use cleanse::{CleanseOptions, CleanseOutcome, CleanseResult, RepairStrategy, RuleHealth};
pub use system::{AdmissionControl, AdmissionPermit, AdmissionPolicy, BigDansing};

// Re-export the workspace's main vocabulary so downstream users can
// depend on `bigdansing` alone.
pub use bigdansing_common::{
    csv, rdf, sim, CancelReason, Cell, Error, LshParams, Quarantine, Result, Schema, Table, Tuple,
    Value,
};
pub use bigdansing_incremental::{
    apply_batch_to_table, read_snapshot_table, DeltaBatch, DeltaOp, DeltaReport, DurabilityOptions,
    RecoverStats, Session, WindowSpec,
};

pub use bigdansing_dataflow::{
    CancellationToken, Engine, EngineBuilder, ExecMode, FaultInjector, FaultMode, FaultPolicy,
    IsolationOptions, JobGuard, MemoryBudget, PDataset, PassRecord,
};
pub use bigdansing_plan::{DetectOutput, Executor, IterateStrategy, Job};
pub use bigdansing_repair::blackbox::RepairOptions;
pub use bigdansing_repair::{EquivalenceClassRepair, HypergraphRepair, RepairAlgorithm};
pub use bigdansing_rules::{
    BlockKey, CfdRule, DcRule, DedupRule, DetectUnit, Fix, FixRhs, Op, Rule, UdfRule, UnitKind,
    Violation,
};
