#![warn(missing_docs)]

//! # bigdansing-repair
//!
//! Distributed repair (§5 of the paper). Two routes:
//!
//! 1. **Black box** (§5.1, [`blackbox`]): any centralized
//!    [`RepairAlgorithm`] is scaled out by splitting the violation
//!    hypergraph ([`hypergraph`]) into connected components
//!    ([`cc`] — a BSP label-propagation implementation standing in for
//!    GraphX, with a union-find oracle) and running one independent
//!    repair instance per component in parallel. Components too large
//!    for one worker are k-way partitioned with a master/slave conflict
//!    protocol ([`partition`]).
//! 2. **Native distribution** (§5.2, [`dist_equivalence`]): the
//!    equivalence-class algorithm of Bohannon et al. recast as two
//!    map-reduce (word-count-style) rounds over `(ccid, value)` keys.
//!
//! The supported centralized algorithms are the equivalence-class
//! algorithm ([`equivalence`]) and a hypergraph-based greedy algorithm
//! for DCs with numeric/inequality fixes ([`hyper`]).

pub mod blackbox;
pub mod cc;
pub mod dist_equivalence;
pub mod equivalence;
pub mod fixeval;
pub mod hyper;
pub mod hypergraph;
pub mod partition;
pub mod strategy;

pub use blackbox::{repair_parallel, repair_serial, RepairAlgorithm};
pub use equivalence::EquivalenceClassRepair;
pub use hyper::HypergraphRepair;
pub use strategy::{run_repair, RepairStrategy};

use bigdansing_common::{Cell, Value};
use std::collections::HashMap;

/// The output of a repair step: the cell updates to apply.
pub type Assignment = HashMap<Cell, Value>;

/// A detected violation together with its possible fixes — the repair
/// stage's input unit.
pub type Detected = (bigdansing_rules::Violation, Vec<bigdansing_rules::Fix>);

#[cfg(test)]
pub(crate) mod testsync {
    //! Serializes tests that produce or assert on the process-global
    //! deep-clone counter, so the zero-copy gate's window stays clean.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
