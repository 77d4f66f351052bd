#![warn(missing_docs)]

//! # bigdansing-incremental
//!
//! Incremental cleansing: cleanse *deltas* instead of full tables.
//!
//! The paper's pipelines are batch jobs — every detection pass rescans,
//! re-blocks, and re-joins the entire input even when only a handful of
//! tuples changed since the last run. This crate keeps a cleansing
//! [`Session`] alive across delta batches:
//!
//! * a **persistent candidate index** per rule group — the executor's
//!   resident `BucketStore`, bucket key → scoped tuples — survives
//!   between batches, so candidate generation touches only the buckets
//!   a delta dirties. Inequality rules keep their records sorted in the
//!   range parts of a resident OCJoin (`bigdansing_ocjoin::JoinIndex`);
//! * detection is the batch executor's own Detect body
//!   ([`bigdansing_plan::Executor::detect_held`]), run for each group in
//!   one pass of its healthy rules by its
//!   [`bigdansing_plan::RuleGroup`], over what the index holds, with the
//!   delta as the freshness mask: the touched buckets or the new
//!   records — which an inequality rule joins against its sorted parts
//!   ([`bigdansing_plan::Executor::detect_join`]) — giving
//!   `delta×base ∪ delta×delta` candidate units through the engine's
//!   stages, so the rule guards, fault retries, memory budgets, and
//!   cancellation all apply;
//! * a **violation store** keeps the live detections as the one vector
//!   repair reads and records, beside each, the data units that
//!   produced it, so violations whose contributing rows were deleted or
//!   updated are *retracted* instead of recomputed;
//! * re-repair is scoped: when a batch adds and retracts nothing and the
//!   previous repair ended stably, the repair loop is skipped outright,
//!   and the `components_rerepaired` metric tracks how many connected
//!   components of the violation graph the delta actually touched.
//!
//! Correctness is defined relative to an oracle: after every
//! [`Session::apply`], the session's table and violation store must
//! equal what a from-scratch `cleanse_loop` over the materialized table
//! would produce. The test suite enforces this for FDs, CFDs, DCs with
//! inequalities, and dedup UDF rules.
//!
//! Sessions can additionally be made **durable**: with
//! [`DurabilityOptions`] every applied batch is appended to one
//! checksummed log before any in-memory mutation; every few batches the
//! same log gets a state frame holding what changed since the frame
//! before (or, once those outweigh it, a new full base), which bounds
//! replay time; and [`Session::recover`] rebuilds an equivalent session
//! after a crash — or after an apply error that would otherwise leave
//! the session poisoned.
//!
//! [`rounds`] is the iterative detect ⇄ repair driver (§2.2) a session
//! runs through, limited by the job's [`CleanseOptions`]; the batch
//! cleanse loop is a session over the table with one empty apply.
//!
//! Streaming sessions can bound their working set with a **violation
//! window** ([`WindowSpec`]): each arriving record gets a logical event
//! time, and tuples whose last containing window closed behind the
//! watermark are retired through the delete path — their violations
//! retracted via the same provenance indexes. Window state is part of
//! the durable snapshot, so recovery resumes the watermark exactly.

pub mod delta;
mod durable;
mod report;
pub mod rounds;
pub mod session;
mod store;
pub mod wal;
pub mod window;

pub use delta::{DeltaBatch, DeltaOp};
pub use rounds::{run_rounds, RepairTarget, RoundsReport};
pub use session::{CleanseOptions, CleanseOutcome, DeltaReport, RuleHealth, Session};
pub use wal::{read_snapshot_table, DurabilityOptions, RecoverStats};
pub use window::WindowSpec;

#[cfg(test)]
pub(crate) mod fixtures {
    //! The two-row FD workload the session, durability and window tests
    //! share.
    use bigdansing_common::{Schema, Table, Value};
    use bigdansing_rules::{FdRule, Rule};
    use std::sync::Arc;

    pub(crate) fn fd_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
        vec![Arc::new(FdRule::parse("zipcode -> city", schema).unwrap())]
    }

    pub(crate) fn base_table(schema: &Schema) -> Table {
        Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        )
    }
}
