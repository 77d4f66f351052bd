//! A rule group's persistent candidate index.
//!
//! The index is the resident side of the enumeration core in
//! [`bigdansing_plan::enumerate`]: every indexed record sits in the
//! buckets [`IterateStrategy::index_keys`] names (in table order), and a
//! delta is enumerated by handing each touched bucket — residents and
//! news together — to the strategy's [`bigdansing_plan::PairRule`] with
//! the delta as the freshness mask. Nothing here decides pair
//! orientation, diagonal filtering or LSH dedup; the module only picks
//! the index *structure* a strategy needs: none (single units) or keyed
//! buckets. Inequality rules need no structure of their own: a delta
//! runs the batch [`try_ocjoin_sink`] over every held record, masked by
//! the delta, as a batch re-detect does.
//!
//! Rules are indexed in the groups [`block_groups`] forms, as a batch
//! detect runs them. Rules that block on the same source columns share
//! one index: it holds each live source tuple once, in the bucket of
//! its values at those columns, and each rule scopes a touched bucket's
//! tuples when it enumerates. Any other rule is a group of one whose
//! index holds its Scope outputs.

use crate::report::ApplyStats;
use crate::store::Store;
use crate::wal::ProvState;
use bigdansing_common::{Error, LshParams, Result, Tuple, TupleId};
use bigdansing_dataflow::{Engine, PDataset};
use bigdansing_ocjoin::{try_ocjoin_sink, OcJoinConfig};
use bigdansing_plan::enumerate::Band;
use bigdansing_plan::physical::{block_groups, choose_strategy_with, pipeline_for_rule};
use bigdansing_plan::{IterateStrategy, Member, PairCounts, RulePipeline};
use bigdansing_rules::{BlockKey, DetectUnit, Rule};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One record resident in a bucket, with its enumeration position
/// `pos = (seq, rep)`: the owning tuple's table-order sequence number
/// and the index among that tuple's indexed records.
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

/// A candidate unit as the session enumerates it. It owns its tuple
/// handles because it travels through a `Stage` to the Detect pass,
/// which lends them to the rule as a [`DetectUnit`].
#[derive(Clone)]
pub(crate) enum Unit {
    Single(Tuple),
    Pair(Tuple, Tuple),
    List(Vec<Tuple>),
}

impl Unit {
    /// The unit as Detect takes it: a loan of the owned tuples.
    pub(crate) fn lend(&self) -> DetectUnit<'_> {
        match self {
            Unit::Single(t) => DetectUnit::Single(t),
            Unit::Pair(a, b) => DetectUnit::Pair(a, b),
            Unit::List(block) => DetectUnit::List(block),
        }
    }
}

/// What one [`GroupIndex::reindex`] changed.
pub(crate) struct Delta {
    /// The newly indexed records, in table order.
    news: Vec<Tuple>,
    /// Every bucket that lost or gained a member, and whether it gained
    /// one (only those can yield new pairs).
    keys: BTreeMap<BlockKey, bool>,
}

/// One rule of a group, with its own health.
pub(crate) struct GroupRule {
    /// The rule's registration index.
    pub(crate) ri: usize,
    pub(crate) rule: Arc<dyn Rule>,
    /// The rule's Iterate strategy, session-level LSH override applied.
    strategy: IterateStrategy,
    /// The fault that quarantined this rule (partial isolation mode):
    /// redetection skips it for the rest of the session. `None` while
    /// healthy.
    pub(crate) quarantined: Option<String>,
}

/// The persistent state of one rule group: the indexed records by
/// source id and the candidate index over them.
pub(crate) struct GroupIndex {
    /// The group's rules, in registration order.
    pub(crate) rules: Vec<GroupRule>,
    /// The source columns the rules block on, when several share them:
    /// the records are then the source tuples themselves. `None` for a
    /// group of one, whose records are its rule's Scope outputs.
    columns: Option<Vec<usize>>,
    /// Records per source tuple (`rep` order) with the seq the entries
    /// were indexed under. Removal must use this recorded seq, not the
    /// live one: a delete-then-reinsert batch reassigns the id's seq
    /// before the index is cleaned up.
    records: HashMap<TupleId, (u64, Vec<Tuple>)>,
    /// Bucket key → members in table order.
    buckets: HashMap<BlockKey, Vec<Entry>>,
}

impl GroupIndex {
    /// One empty index per [`block_groups`] group of `rules`, each
    /// rule's Iterate strategy chosen under the session-level LSH
    /// geometry override.
    pub(crate) fn for_rules(rules: &[Arc<dyn Rule>], lsh: Option<LshParams>) -> Vec<GroupIndex> {
        let pipeline = |rule: &Arc<dyn Rule>| RulePipeline {
            strategy: choose_strategy_with(rule.as_ref(), lsh),
            ..pipeline_for_rule(Arc::clone(rule), "")
        };
        let pipelines: Vec<RulePipeline> = rules.iter().map(pipeline).collect();
        let group = |members: Vec<usize>| {
            let rules: Vec<GroupRule> = members
                .into_iter()
                .map(|ri| GroupRule {
                    ri,
                    rule: Arc::clone(&pipelines[ri].rule),
                    strategy: pipelines[ri].strategy.clone(),
                    quarantined: None,
                })
                .collect();
            let shared = (rules.len() > 1).then(|| rules[0].rule.block_columns());
            GroupIndex {
                columns: shared.flatten().map(<[usize]>::to_vec),
                rules,
                records: HashMap::new(),
                buckets: HashMap::new(),
            }
        };
        block_groups(&pipelines).into_iter().map(group).collect()
    }

    /// Quarantine rule `m` of the group. The index is dropped once no
    /// rule of the group is left healthy.
    pub(crate) fn quarantine(&mut self, m: usize, cause: &str) {
        self.rules[m].quarantined = Some(cause.to_string());
        if self.rules.iter().all(|r| r.quarantined.is_some()) {
            self.records.clear();
            self.buckets.clear();
        }
    }

    /// The records a source tuple is indexed as.
    fn records_of(&self, t: &Tuple) -> Vec<Tuple> {
        match &self.columns {
            Some(_) => vec![t.clone()],
            None => self.rules[0].rule.scope(t),
        }
    }

    /// The buckets a record sits in.
    fn buckets_of(&self, record: &Tuple) -> Vec<(BlockKey, Option<Band>)> {
        match &self.columns {
            Some(cols) => vec![(
                cols.iter().map(|&c| record.value(c).clone()).collect(),
                None,
            )],
            None => {
                let lone = &self.rules[0];
                let keys = lone.strategy.index_keys(lone.rule.as_ref(), record);
                keys.buckets()
            }
        }
    }

    /// Replace the indexed versions of the given tuples: drop each id's
    /// old entries, then index its new version (`None` for a deleted
    /// tuple) under its live sequence number.
    pub(crate) fn reindex<'a>(
        &mut self,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>)>,
        seqs: &HashMap<TupleId, u64>,
    ) -> Delta {
        let mut keys: BTreeMap<BlockKey, bool> = BTreeMap::new();
        let mut news: Vec<((u64, u32), Tuple)> = Vec::new();
        for (id, new) in changes {
            if let Some((old_seq, reps)) = self.records.remove(&id) {
                for (rep, t) in reps.iter().enumerate() {
                    for (key, _) in self.buckets_of(t) {
                        self.remove_entry(&key, (old_seq, rep as u32), id);
                        keys.entry(key).or_insert(false);
                    }
                }
            }
            if let Some(t) = new {
                let seq = *seqs.get(&id).expect("live tuple has a seq");
                let reps = self.records_of(t);
                let placed = reps.iter().enumerate();
                news.extend(placed.map(|(rep, s)| ((seq, rep as u32), s.clone())));
                self.records.insert(id, (seq, reps));
            }
        }
        news.sort_by_key(|(pos, _)| *pos);
        for (pos, t) in &news {
            for (key, band) in self.buckets_of(t) {
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

    /// The candidate units of rule `m` a [`GroupIndex::reindex`] made
    /// necessary: `delta×resident ∪ delta×delta`, where `is_fresh`
    /// tells delta tuples from residents. Whole-bucket (list) units
    /// retract their block's stored violations on the way.
    pub(crate) fn units(
        &self,
        m: usize,
        delta: &Delta,
        is_fresh: impl Fn(TupleId) -> bool + Sync,
        store: &mut Store,
        stats: &mut ApplyStats,
        engine: &Engine,
    ) -> Result<Vec<(ProvState, Unit)>> {
        let GroupRule {
            ri, rule, strategy, ..
        } = &self.rules[m];
        let ri = *ri;
        let Delta { news, keys } = delta;
        let mut units: Vec<(ProvState, Unit)> = Vec::new();
        let mut pair_unit = |a: &Tuple, b: &Tuple| {
            stats.reprocessed.insert(a.id());
            stats.reprocessed.insert(b.id());
            units.push((
                ProvState::Tuples(vec![a.id(), b.id()]),
                Unit::Pair(a.clone(), b.clone()),
            ));
            Ok::<(), Error>(())
        };
        // a shared index holds source tuples: the rule scopes them here
        let shared = self.columns.is_some();
        let scope = |bucket: &[Entry], into: &mut Vec<Tuple>| {
            into.clear();
            into.extend(bucket.iter().flat_map(|e| rule.scope(&e.tuple)));
        };
        match strategy {
            IterateStrategy::SingleUnits => {
                for t in news {
                    stats.reprocessed.insert(t.id());
                    units.push((ProvState::Tuples(vec![t.id()]), Unit::Single(t.clone())));
                }
            }
            IterateStrategy::OcJoin(conds) => {
                if news.is_empty() {
                    return Ok(units);
                }
                // The batch join over every held record, in table order,
                // masked by the delta: Δ×R ∪ R×Δ ∪ Δ×Δ, each pair once.
                let mut held: Vec<((u64, usize), &Tuple)> = Vec::new();
                for (seq, reps) in self.records.values() {
                    held.extend(reps.iter().enumerate().map(|(rep, t)| ((*seq, rep), t)));
                }
                held.sort_unstable_by_key(|(pos, _)| *pos);
                let held = held.into_iter().map(|(_, t)| t.clone()).collect();
                let fresh = |t: &Tuple| is_fresh(t.id());
                let pairs = try_ocjoin_sink(
                    PDataset::from_vec(engine.clone(), held),
                    conds,
                    OcJoinConfig::default(),
                    &fresh,
                    "pairs",
                    |a, b, out| {
                        out.push((a.clone(), b.clone()));
                        Ok(())
                    },
                )?;
                stats.blocks.insert((ri, BlockKey::new()));
                for (a, b) in &pairs.collect()? {
                    pair_unit(a, b)?;
                }
            }
            bucketed => match bucketed.pair_rule() {
                Some(pairs) => {
                    let mut counts = PairCounts::default();
                    let mut scoped = Vec::new();
                    for key in keys.iter().filter(|(_, gained)| **gained).map(|(k, _)| k) {
                        let bucket = &self.buckets[key];
                        if shared {
                            scope(bucket, &mut scoped);
                            let fresh = |t: &Tuple| is_fresh(t.id());
                            pairs.pairs(&scoped, fresh, &mut counts, &mut pair_unit)?;
                        } else {
                            let fresh = |e: &Entry| is_fresh(e.tuple.id());
                            pairs.pairs(bucket, fresh, &mut counts, &mut pair_unit)?;
                        }
                    }
                    pairs.record(&counts, engine.metrics());
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
                        let mut block = Vec::new();
                        if shared {
                            scope(bucket, &mut block);
                        } else {
                            block.extend(bucket.iter().map(|e| e.tuple.clone()));
                        }
                        if block.is_empty() {
                            continue;
                        }
                        stats.reprocessed.extend(block.iter().map(Tuple::id));
                        units.push((ProvState::Block(key.values().to_vec()), Unit::List(block)));
                    }
                }
            },
        }
        stats
            .blocks
            .extend(keys.keys().map(|key| (ri, key.clone())));
        Ok(units)
    }
}
