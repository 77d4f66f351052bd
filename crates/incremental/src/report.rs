//! What one apply did: the public [`DeltaReport`] and the per-apply
//! bookkeeping it is filled from.

use crate::wal::ProvState;
use bigdansing_common::TupleId;
use bigdansing_plan::store::Reindexed;
use bigdansing_plan::Bucket;
use bigdansing_repair::Detected;

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

/// Per-apply bookkeeping feeding the session metrics: what each group
/// re-detect of the apply handed over and changed, kept as it came and
/// counted once, at the apply's end ([`ApplyStats::distinct`]).
#[derive(Default)]
pub(crate) struct ApplyStats {
    pub(crate) reprocessed: Vec<TupleId>,
    /// Each group re-detect's change, with the group's healthy rules.
    pub(crate) changes: Vec<(Vec<usize>, Reindexed)>,
    pub(crate) added: u64,
    pub(crate) retracted: u64,
}

impl ApplyStats {
    /// The distinct tuples reprocessed and `(rule, bucket)`s dirtied. A
    /// change names each of its buckets once, so the buckets are sorted
    /// out only when one rule's came from two changes.
    pub(crate) fn distinct(mut self) -> (u64, u64) {
        self.reprocessed.sort_unstable();
        self.reprocessed.dedup();
        let dirtied = self.changes.iter();
        let dirtied = dirtied.filter(|(_, c)| !c.keys.is_empty() || c.runs().next().is_some());
        let mut rules: Vec<usize> = dirtied.clone().flat_map(|(r, _)| r.clone()).collect();
        let named = rules.len();
        rules.sort_unstable();
        rules.dedup();
        let buckets = if rules.len() == named {
            let each = |(rules, c): &(Vec<usize>, Reindexed)| {
                rules.len() * (c.keys.len() + c.runs().count())
            };
            dirtied.map(each).sum()
        } else {
            let mut all = Vec::new();
            for (rules, change) in dirtied {
                for &rule in rules {
                    let keys = change.keys.iter();
                    all.extend(keys.map(|(key, _)| (rule, Bucket::Block(key.clone()))));
                    let runs = change.runs();
                    all.extend(runs.map(|((band, hash), _)| (rule, Bucket::Band(band, hash))));
                }
            }
            all.sort_unstable();
            all.dedup();
            all.len()
        };
        (self.reprocessed.len() as u64, buckets as u64)
    }
}

/// Mark the tuples of an added or retracted violation — its cells' and
/// its unit's — as touching their component of the violation graph.
pub(crate) fn mark(markers: &mut Vec<TupleId>, (violation, _): &Detected, prov: &ProvState) {
    markers.extend(violation.cells().iter().map(|(cell, _)| cell.tuple));
    if let ProvState::Tuples(ids) = prov {
        markers.extend(ids);
    }
}
