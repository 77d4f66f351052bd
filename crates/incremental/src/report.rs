//! What one apply did: the public [`DeltaReport`] and the per-apply
//! bookkeeping it is filled from.

use crate::wal::{ProvState, StoredState};
use bigdansing_common::TupleId;
use bigdansing_rules::BlockKey;
use std::collections::BTreeSet;

/// What one [`crate::Session::apply`] did.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Inserts in the batch.
    pub inserted: usize,
    /// Updates in the batch.
    pub updated: usize,
    /// Deletes in the batch.
    pub deleted: usize,
    /// Distinct tuples that participated in re-detected units: delta
    /// and repair-touched tuples with their block partners (every held
    /// record under an inequality rule, whose join reads them all).
    pub tuples_reprocessed: u64,
    /// Distinct `(rule, block key)` pairs dirtied by the batch.
    pub blocks_dirty: u64,
    /// Violations newly added to the store.
    pub violations_added: u64,
    /// Violations retracted because a contributing row was deleted,
    /// updated, or re-blocked.
    pub violations_retracted: u64,
    /// Connected components of the violation graph touched by added or
    /// retracted violations (the scope of re-repair).
    pub components_rerepaired: u64,
    /// Repair iterations executed.
    pub iterations: usize,
    /// Violations seen across all repair iterations.
    pub total_violations: usize,
    /// Distinct cell updates applied by repair.
    pub cells_changed: usize,
    /// Cells frozen by the termination rule.
    pub frozen_cells: usize,
    /// Σ distance(old, new) over applied updates.
    pub repair_cost: f64,
    /// Violations still live after the apply.
    pub violations_remaining: usize,
    /// True when the table ended violation-free.
    pub converged: bool,
    /// True when the scoped-re-repair shortcut skipped the repair loop
    /// (no violations added or retracted, previous loop ended stably).
    pub repair_skipped: bool,
    /// Rules quarantined so far (this apply and earlier ones): in
    /// partial isolation mode, a rule whose detection faults is
    /// excluded for the rest of the session instead of poisoning it.
    pub rules_quarantined: u64,
    /// Tuples retired by the violation window because the watermark
    /// passed their last containing window (windowed sessions only).
    pub tuples_expired: usize,
}

/// Per-apply bookkeeping feeding the session metrics.
#[derive(Default)]
pub(crate) struct ApplyStats {
    pub(crate) reprocessed: BTreeSet<TupleId>,
    pub(crate) blocks: BTreeSet<(usize, BlockKey)>,
    /// The LSH band buckets dirtied, per rule: band and bucket hash.
    pub(crate) runs: BTreeSet<(usize, u32, u64)>,
    pub(crate) added: u64,
    pub(crate) retracted: u64,
    /// Tuple ids of violations added or retracted (component markers).
    pub(crate) markers: BTreeSet<TupleId>,
}

impl ApplyStats {
    /// Account one added violation.
    pub(crate) fn add(&mut self, stored: &StoredState) {
        self.added += 1;
        self.mark(stored);
    }

    /// Account retracted violations.
    pub(crate) fn retract(&mut self, gone: Vec<StoredState>) {
        self.retracted += gone.len() as u64;
        gone.iter().for_each(|stored| self.mark(stored));
    }

    /// Mark the tuples of an added or retracted violation.
    fn mark(&mut self, s: &StoredState) {
        self.markers.extend(s.violation.tuple_ids());
        if let ProvState::Tuples(ids) = &s.prov {
            self.markers.extend(ids.iter().copied());
        }
    }
}
