//! A rule's persistent candidate index.
//!
//! The index is the resident side of the enumeration core in
//! [`bigdansing_plan::enumerate`]: every scoped unit sits in the buckets
//! [`IterateStrategy::index_keys`] names (in table order), and a delta
//! is enumerated by handing each touched bucket — residents and news
//! together — to the strategy's [`bigdansing_plan::PairRule`] with the
//! delta as the freshness mask. Nothing here decides pair orientation,
//! diagonal filtering or LSH dedup; the module only picks the index
//! *structure* a strategy needs: none (single units), keyed buckets, or
//! the sorted [`OcIndex`] for inequality joins.

use crate::report::ApplyStats;
use crate::store::Store;
use crate::wal::ProvState;
use bigdansing_common::{Error, LshParams, Result, Tuple, TupleId};
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_ocjoin::{try_ocjoin, OcIndex, OcJoinConfig};
use bigdansing_plan::enumerate::Band;
use bigdansing_plan::physical::choose_strategy_with;
use bigdansing_plan::{IterateStrategy, Member, PairCounts};
use bigdansing_rules::{BlockKey, DetectUnit, Rule};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One scoped unit resident in a bucket, with its enumeration position
/// `pos = (seq, rep)`: the owning tuple's table-order sequence number
/// and the index among that tuple's Scope outputs.
struct Entry {
    pos: (u64, u32),
    tuple: Tuple,
    band: Option<Band>,
}

impl Member for Entry {
    fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    fn band(&self) -> Option<(u32, &[u64])> {
        self.band
            .as_ref()
            .map(|(band, hashes)| (*band, &hashes[..]))
    }
}

/// What one [`RuleIndex::reindex`] changed.
pub(crate) struct Delta {
    /// The newly scoped units, in table order.
    news: Vec<Tuple>,
    /// Every bucket that lost or gained a member, and whether it gained
    /// one (only those can yield new pairs).
    keys: BTreeMap<BlockKey, bool>,
}

/// Per-rule persistent state: the scoped tuples by source id and the
/// rule's candidate index.
pub(crate) struct RuleIndex {
    pub(crate) rule: Arc<dyn Rule>,
    /// The rule's Iterate strategy, session-level LSH override applied.
    strategy: IterateStrategy,
    /// Scope outputs per source tuple (`rep` order) with the seq the
    /// entries were indexed under. Removal must use this recorded seq,
    /// not the live one: a delete-then-reinsert batch reassigns the
    /// id's seq before the index is cleaned up.
    scoped: HashMap<TupleId, (u64, Vec<Tuple>)>,
    /// Bucket key → members in table order.
    buckets: HashMap<BlockKey, Vec<Entry>>,
    /// The inequality index, built on first ingest.
    oc: Option<OcIndex>,
    /// The fault that quarantined this rule (partial isolation mode):
    /// its index is dropped and redetection skips it for the rest of
    /// the session. `None` while healthy.
    pub(crate) quarantined: Option<String>,
}

impl RuleIndex {
    /// One empty index per rule, each with its Iterate strategy chosen
    /// under the session-level LSH geometry override.
    pub(crate) fn for_rules(rules: &[Arc<dyn Rule>], lsh: Option<LshParams>) -> Vec<RuleIndex> {
        let index = |rule: &Arc<dyn Rule>| RuleIndex {
            strategy: choose_strategy_with(rule.as_ref(), lsh),
            rule: Arc::clone(rule),
            scoped: HashMap::new(),
            buckets: HashMap::new(),
            oc: None,
            quarantined: None,
        };
        rules.iter().map(index).collect()
    }

    /// Quarantine the rule: record the cause and drop its index.
    pub(crate) fn quarantine(&mut self, cause: &str) {
        self.quarantined = Some(cause.to_string());
        self.scoped.clear();
        self.buckets.clear();
        self.oc = None;
    }

    /// Replace the indexed versions of the given tuples: drop each id's
    /// old entries, then scope and index its new version (`None` for a
    /// deleted tuple) under its live sequence number.
    pub(crate) fn reindex<'a>(
        &mut self,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>)>,
        seqs: &HashMap<TupleId, u64>,
    ) -> Delta {
        let mut keys: BTreeMap<BlockKey, bool> = BTreeMap::new();
        let mut news: Vec<((u64, u32), Tuple)> = Vec::new();
        for (id, new) in changes {
            if let Some((old_seq, reps)) = self.scoped.remove(&id) {
                for (rep, t) in reps.iter().enumerate() {
                    for (key, _) in self.strategy.index_keys(self.rule.as_ref(), t).buckets() {
                        self.remove_entry(&key, (old_seq, rep as u32), id);
                        keys.entry(key).or_insert(false);
                    }
                    if let Some(oc) = &mut self.oc {
                        oc.remove(t);
                    }
                }
            }
            if let Some(t) = new {
                let seq = *seqs.get(&id).expect("live tuple has a seq");
                let reps = self.rule.scope(t);
                let placed = reps.iter().enumerate();
                news.extend(placed.map(|(rep, s)| ((seq, rep as u32), s.clone())));
                self.scoped.insert(id, (seq, reps));
            }
        }
        news.sort_by_key(|(pos, _)| *pos);
        for (pos, t) in &news {
            for (key, band) in self.strategy.index_keys(self.rule.as_ref(), t).buckets() {
                let slot = self.buckets.entry(key.clone()).or_default();
                let at = slot.partition_point(|e| e.pos < *pos);
                let (pos, tuple) = (*pos, t.clone());
                slot.insert(at, Entry { pos, tuple, band });
                keys.insert(key, true);
            }
        }
        let news = news.into_iter().map(|(_, t)| t).collect();
        Delta { news, keys }
    }

    /// Drop the entry at `pos` (the position it was indexed under) for
    /// tuple `id` from `buckets[key]`.
    fn remove_entry(&mut self, key: &BlockKey, pos: (u64, u32), id: TupleId) {
        let Some(slot) = self.buckets.get_mut(key) else {
            return;
        };
        if let Ok(i) = slot.binary_search_by(|e| e.pos.cmp(&pos)) {
            if slot[i].tuple.id() == id {
                slot.remove(i);
            }
        }
        if slot.is_empty() {
            self.buckets.remove(key);
        }
    }

    /// Bulk-load the inequality index after a [`RuleIndex::reindex`]
    /// over the whole table (snapshot recovery). Always materializes it
    /// (even when empty): a `None` here would make the next apply
    /// batch-build from its delta alone and miss delta×base pairs.
    pub(crate) fn load_oc(&mut self, delta: Delta, engine: &Engine) {
        if let IterateStrategy::OcJoin(conds) = &self.strategy {
            let parts = engine.default_partitions();
            self.oc = Some(OcIndex::build(conds.clone(), &delta.news, parts));
        }
    }

    /// The candidate units a [`RuleIndex::reindex`] made necessary:
    /// `delta×resident ∪ delta×delta`, where `is_fresh` tells delta
    /// tuples from residents. Whole-bucket (list) units retract their
    /// block's stored violations on the way.
    pub(crate) fn units(
        &mut self,
        ri: usize,
        delta: Delta,
        is_fresh: impl Fn(TupleId) -> bool,
        store: &mut Store,
        stats: &mut ApplyStats,
        engine: &Engine,
    ) -> Result<Vec<(ProvState, DetectUnit)>> {
        let Delta { news, mut keys } = delta;
        let mut units: Vec<(ProvState, DetectUnit)> = Vec::new();
        let mut pair_unit = |a: &Tuple, b: &Tuple| {
            stats.reprocessed.insert(a.id());
            stats.reprocessed.insert(b.id());
            units.push((
                ProvState::Tuples(vec![a.id(), b.id()]),
                DetectUnit::Pair(a.clone(), b.clone()),
            ));
            Ok::<(), Error>(())
        };
        match &self.strategy {
            IterateStrategy::SingleUnits => {
                for t in news {
                    stats.reprocessed.insert(t.id());
                    units.push((ProvState::Tuples(vec![t.id()]), DetectUnit::Single(t)));
                }
            }
            IterateStrategy::OcJoin(conds) => {
                let pairs = match &mut self.oc {
                    Some(oc) => {
                        let pairs = oc.probe(engine, &news);
                        for t in &news {
                            oc.insert(t.clone());
                        }
                        pairs
                    }
                    None => {
                        // First ingest: batch-build the index and take
                        // the pairs from a batch OCJoin, exactly like a
                        // full-detect pipeline would.
                        let parts = engine.default_partitions();
                        self.oc = Some(OcIndex::build(conds.clone(), &news, parts));
                        let data = PDataset::from_vec(engine.clone(), news.clone());
                        try_ocjoin(data, conds, OcJoinConfig::default())?.collect()?
                    }
                };
                if !news.is_empty() {
                    keys.insert(BlockKey::new(), true);
                }
                for (a, b) in &pairs {
                    pair_unit(a, b)?;
                }
            }
            bucketed => match bucketed.pair_rule() {
                Some(rule) => {
                    let mut counts = PairCounts::default();
                    for key in keys.iter().filter(|(_, gained)| **gained).map(|(k, _)| k) {
                        let fresh = |e: &Entry| is_fresh(e.tuple.id());
                        rule.pairs(&self.buckets[key], fresh, &mut counts, &mut pair_unit)?;
                    }
                    rule.record(&counts, engine.metrics());
                }
                None => {
                    // Whole buckets are the units: re-detect every
                    // bucket that lost or gained a member.
                    for key in keys.keys() {
                        for stored in store.retract_block(ri, key) {
                            stats.retract(&stored);
                        }
                        let Some(bucket) = self.buckets.get(key) else {
                            continue;
                        };
                        let block: Vec<Tuple> = bucket.iter().map(|e| e.tuple.clone()).collect();
                        stats.reprocessed.extend(block.iter().map(Tuple::id));
                        units.push((
                            ProvState::Block(key.values().to_vec()),
                            DetectUnit::List(block),
                        ));
                    }
                }
            },
        }
        stats.blocks.extend(keys.into_keys().map(|key| (ri, key)));
        Ok(units)
    }
}
