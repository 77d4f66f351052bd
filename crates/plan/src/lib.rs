#![warn(missing_docs)]

//! # bigdansing-plan
//!
//! The RuleEngine's three layers (§2.2 of the paper):
//!
//! 1. **Logical layer** ([`job`], [`logical`]): users (or the declarative
//!    rule parsers) assemble a [`job::Job`] of labeled logical operators —
//!    Scope, Block, Iterate, Detect, GenFix — which is validated into a
//!    [`logical::LogicalPlan`] following the planner flow of §3.2
//!    (Figure 3): at least one input dataset and one Detect, Iterate
//!    generated from the Detect's input shape when missing, Scope/Block
//!    optional pass-throughs.
//! 2. **Physical layer** ([`consolidate`], [`physical`]): Algorithm 1
//!    merges redundant operators over the same input (shared scans,
//!    Figure 5), then each Detect is translated into a
//!    [`physical::RulePipeline`] whose Iterate is implemented by a
//!    *wrapper* (within-block enumeration, cross product) or an
//!    *enhancer* — UCrossProduct, OCJoin, CoBlock — per the selection
//!    rules of §4.2.
//! 3. **Execution layer** ([`executor`]): pipelines run on the
//!    [`bigdansing_dataflow`] engine (the Spark/Hadoop stand-in),
//!    checkpointing at stage boundaries under the disk-backed mode.
//!
//! [`enumerate`] holds the candidate-enumeration core — index keys and
//! the pair rule per Iterate strategy — that the executor's reducers
//! call, [`store`] the one resident bucket store that batch re-detects
//! and incremental sessions read, with the storage manager's
//! content-partitioned and replicated stores over it (Appendix F),
//! [`runs`] the run index every bucketed group's store keeps — Block
//! buckets and LSH band buckets alike — and [`group`] the rule group
//! that batch rounds and session applies both drive over it.

pub mod consolidate;
pub mod enumerate;
pub mod executor;
pub mod group;
pub mod job;
pub mod logical;
pub mod physical;
pub mod runs;
pub mod store;

pub use enumerate::{Delta, Member, Origin, PairCounts, PairRule};
pub use executor::{DetectOutput, Executor};
pub use group::{GroupMember, Ran, Redetected, RuleGroup};
pub use job::Job;
pub use logical::{Label, LogicalOp, LogicalPlan, OpKind};
pub use physical::{IterateStrategy, PhysicalPlan, RulePipeline};
pub use runs::{Run, RunIndex};
pub use store::{key_hash, BucketStore, PartitionedStore, ReplicatedStore};
