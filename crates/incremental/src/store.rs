//! The session's violation store: live violations with the provenance
//! indexes that let a delta *retract* the violations it invalidates
//! instead of recomputing them. Items are kept in their snapshot form
//! ([`StoredState`]): provenance is the tuple ids of the unit that
//! produced the violation, or — for list rules — the whole block's key.

use crate::wal::{ProvState, StoredState};
use bigdansing_common::{TupleId, Value};
use bigdansing_repair::Detected;
use bigdansing_rules::BlockKey;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Live violations with provenance indexes for retraction by tuple and
/// by block.
#[derive(Default)]
pub(crate) struct Store {
    pub(crate) items: BTreeMap<u64, StoredState>,
    pub(crate) next: u64,
    by_tuple: HashMap<TupleId, BTreeSet<u64>>,
    /// Rule → block key values → the violations detected over that
    /// block: a lookup borrows the key, and misses on the rule alone for
    /// a rule that detects no block.
    by_block: HashMap<u64, HashMap<Vec<Value>, BTreeSet<u64>>>,
}

impl Store {
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Store a freshly detected violation under the next id.
    pub(crate) fn add(&mut self, mut stored: StoredState) {
        stored.id = self.next;
        self.insert(stored);
    }

    /// Insert a stored violation under its own id (snapshot recovery),
    /// maintaining the provenance indexes and keeping `next` ahead of
    /// every live id.
    pub(crate) fn insert(&mut self, stored: StoredState) {
        let id = stored.id;
        match &stored.prov {
            ProvState::Tuples(ids) => {
                for t in ids {
                    self.by_tuple.entry(*t).or_default().insert(id);
                }
            }
            ProvState::Block(key) => {
                let blocks = self.by_block.entry(stored.rule).or_default();
                blocks.entry(key.clone()).or_default().insert(id);
            }
        }
        self.items.insert(id, stored);
        self.next = self.next.max(id + 1);
    }

    fn remove(&mut self, id: u64) -> Option<StoredState> {
        let stored = self.items.remove(&id)?;
        match &stored.prov {
            ProvState::Tuples(ids) => {
                for t in ids {
                    if let Some(set) = self.by_tuple.get_mut(t) {
                        set.remove(&id);
                        if set.is_empty() {
                            self.by_tuple.remove(t);
                        }
                    }
                }
            }
            ProvState::Block(key) => {
                let blocks = self.by_block.entry(stored.rule).or_default();
                if let Some(set) = blocks.get_mut(key) {
                    set.remove(&id);
                    if set.is_empty() {
                        blocks.remove(key);
                    }
                }
            }
        }
        Some(stored)
    }

    /// Retract every violation whose generating unit involved a dirty
    /// tuple. Returns the removed items.
    pub(crate) fn retract_tuples<'a>(
        &mut self,
        dirty: impl IntoIterator<Item = &'a TupleId>,
    ) -> Vec<StoredState> {
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for t in dirty {
            if let Some(set) = self.by_tuple.get(t) {
                ids.extend(set.iter().copied());
            }
        }
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// Retract every violation detected by rule `rule` (quarantine:
    /// a faulted rule's stored violations must not feed repair).
    pub(crate) fn retract_rule(&mut self, rule: usize) -> Vec<StoredState> {
        let ids: Vec<u64> = self
            .items
            .iter()
            .filter(|(_, s)| s.rule == rule as u64)
            .map(|(id, _)| *id)
            .collect();
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// Retract every violation attributed to `(rule, key)`.
    pub(crate) fn retract_block(&mut self, rule: usize, key: &BlockKey) -> Vec<StoredState> {
        let held = self
            .by_block
            .get(&(rule as u64))
            .and_then(|b| b.get(key.values()));
        let ids: Vec<u64> = held.into_iter().flatten().copied().collect();
        ids.into_iter().filter_map(|id| self.remove(id)).collect()
    }

    /// The `(violation, fixes)` snapshot handed to repair, in insertion
    /// order (repair strategies used here are order-independent).
    pub(crate) fn detected(&self) -> Vec<Detected> {
        self.items
            .values()
            .map(|s| (s.violation.clone(), s.fixes.clone()))
            .collect()
    }
}
