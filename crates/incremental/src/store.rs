//! The session's violation store: the live detections, in id order, as
//! the one vector repair reads, and beside them, index for index, each
//! one's id, rule and provenance — the tuple ids of the unit that
//! produced it, or, for a list rule, its whole block's key. A re-detect
//! *retracts* what a change invalidates in one pass over that
//! provenance instead of recomputing it, then appends what it found.

use crate::wal::{ProvState, StoredState};
use bigdansing_repair::Detected;

/// Live violations in id order, with their provenance beside them.
#[derive(Default)]
pub(crate) struct Store {
    /// The `(violation, fixes)` of every live violation: repair's input,
    /// lent to it as is.
    pub(crate) detected: Vec<Detected>,
    /// Index for index with `detected`: store id, rule, provenance.
    meta: Vec<(u64, u64, ProvState)>,
    /// The next id; above every live one.
    pub(crate) next: u64,
}

impl Store {
    /// A store of snapshot items, sorted into id order, with `next` kept
    /// ahead of every live id.
    pub(crate) fn restore(mut items: Vec<StoredState>, next: u64) -> Store {
        items.sort_by_key(|s| s.id);
        let next = items.last().map_or(next, |s| next.max(s.id + 1));
        let (detected, meta) = items
            .into_iter()
            .map(|s| ((s.violation, s.fixes), (s.id, s.rule, s.prov)))
            .unzip();
        Store {
            detected,
            meta,
            next,
        }
    }

    /// Append a freshly detected violation of `rule` under the next id.
    pub(crate) fn add(&mut self, rule: usize, detected: Detected, prov: ProvState) {
        self.detected.push(detected);
        self.meta.push((self.next, rule as u64, prov));
        self.next += 1;
    }

    /// Retract, in one pass, every violation whose rule and provenance
    /// `gone` picks, handing each to `each` on its way out. Returns how
    /// many went; the rest keep their order.
    pub(crate) fn retract(
        &mut self,
        gone: impl Fn(u64, &ProvState) -> bool,
        mut each: impl FnMut(&Detected, &ProvState),
    ) -> u64 {
        let mut kept = 0;
        for at in 0..self.meta.len() {
            let (_, rule, prov) = &self.meta[at];
            if gone(*rule, prov) {
                each(&self.detected[at], prov);
                continue;
            }
            self.detected.swap(kept, at);
            self.meta.swap(kept, at);
            kept += 1;
        }
        let went = self.meta.len() - kept;
        self.detected.truncate(kept);
        self.meta.truncate(kept);
        went as u64
    }

    /// Every live violation with its provenance, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Detected, &ProvState)> {
        self.detected
            .iter()
            .zip(self.meta.iter().map(|(_, _, p)| p))
    }

    /// The live violations in snapshot form, in id order.
    pub(crate) fn items(&self) -> impl Iterator<Item = StoredState> + '_ {
        let items = self.detected.iter().zip(&self.meta);
        items.map(|((violation, fixes), (id, rule, prov))| StoredState {
            id: *id,
            rule: *rule,
            violation: violation.clone(),
            fixes: fixes.clone(),
            prov: prov.clone(),
        })
    }
}
