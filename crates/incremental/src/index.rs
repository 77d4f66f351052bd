//! A rule group's persistent candidate index: the resident buckets of
//! the session's semi-naive evaluation.
//!
//! Every indexed record sits in the buckets
//! [`IterateStrategy::index_keys`] names, in table order. The index
//! only *chooses* what a rule re-evaluates after a delta
//! ([`GroupIndex::held`]): the new records, every held record (an
//! inequality rule, whose batch OCJoin masks it by the delta), or the
//! touched buckets. Detection itself — the straggler gate, pair
//! enumeration with the delta as the freshness mask, Detect and GenFix
//! — is the executor's ([`bigdansing_plan::Executor::detect_held`]), as
//! for a batch pass; nothing here decides pair orientation, diagonal
//! filtering or LSH dedup.
//!
//! Rules are indexed in the groups [`block_groups`] forms, as a batch
//! detect runs them. Rules that block on the same source columns share
//! one index: it holds each live source tuple once, in the bucket of
//! its values at those columns, and each rule scopes a touched bucket's
//! tuples when it is detected. Any other rule is a group of one whose
//! index holds its Scope outputs.

use crate::report::ApplyStats;
use bigdansing_common::{LshParams, Tuple, TupleId};
use bigdansing_plan::enumerate::Band;
use bigdansing_plan::physical::{block_groups, choose_strategy_with, pipeline_for_rule};
use bigdansing_plan::{Held, IterateStrategy, Member, PairRule, RulePipeline};
use bigdansing_rules::{BlockKey, Rule};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One record resident in a bucket, with its enumeration position
/// `pos = (seq, rep)`: the owning tuple's table-order sequence number
/// and the index among that tuple's indexed records.
#[derive(Clone)]
pub(crate) struct Entry {
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

/// What one [`GroupIndex::reindex`] changed.
pub(crate) struct Reindexed {
    /// The newly indexed records, in table order.
    news: Vec<Tuple>,
    /// Every bucket that lost or gained a member, and whether it gained
    /// one (only those can yield new pairs).
    pub(crate) keys: BTreeMap<BlockKey, bool>,
}

/// One rule of a group, with its own health.
pub(crate) struct GroupRule {
    /// The rule's registration index.
    pub(crate) ri: usize,
    /// The rule's pipeline, its Iterate strategy chosen under the
    /// session-level LSH override.
    pub(crate) pipeline: RulePipeline,
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
                    pipeline: pipelines[ri].clone(),
                    quarantined: None,
                })
                .collect();
            let shared = (rules.len() > 1).then(|| rules[0].pipeline.rule.block_columns());
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
            None => self.rules[0].pipeline.rule.scope(t),
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
                let lone = &self.rules[0].pipeline;
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
    ) -> Reindexed {
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
        Reindexed { news, keys }
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

    /// What rule `m` re-evaluates after a [`GroupIndex::reindex`], with
    /// the key of each bucket in it, index for index — `None` when that
    /// is nothing. Single units: the new records. An inequality rule:
    /// every held record, in table order, once a record is new. A pair
    /// rule: the buckets that gained a member and hold a pair. A list
    /// rule: every bucket that changed and still has members. The
    /// records handed over are counted as reprocessed, and the changed
    /// buckets as dirty.
    pub(crate) fn held(
        &self,
        m: usize,
        change: &Reindexed,
        stats: &mut ApplyStats,
    ) -> Option<(Held<Entry>, Vec<BlockKey>)> {
        let GroupRule { ri, pipeline, .. } = &self.rules[m];
        let Reindexed { news, keys } = change;
        stats
            .blocks
            .extend(keys.keys().map(|key| (*ri, key.clone())));
        let records = match &pipeline.strategy {
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) if news.is_empty() => {
                return None
            }
            IterateStrategy::SingleUnits => news.clone(),
            IterateStrategy::OcJoin(_) => {
                let mut held: Vec<((u64, usize), &Tuple)> = Vec::new();
                for (seq, reps) in self.records.values() {
                    held.extend(reps.iter().enumerate().map(|(rep, t)| ((*seq, rep), t)));
                }
                held.sort_unstable_by_key(|(pos, _)| *pos);
                stats.blocks.insert((*ri, BlockKey::new()));
                held.into_iter().map(|(_, t)| t.clone()).collect()
            }
            bucketed => {
                let pairs = bucketed.pair_rule();
                let (mut buckets, mut names) = (Vec::new(), Vec::new());
                for (key, gained) in keys {
                    let Some(bucket) = self.buckets.get(key) else {
                        continue;
                    };
                    let (first, rest) = (&bucket[0].tuple, &bucket[1..]);
                    let pairing = |r: PairRule| rest.iter().any(|e| r.admits(first, &e.tuple));
                    if pairs.is_some_and(|r| !gained || !pairing(r)) {
                        continue;
                    }
                    stats
                        .reprocessed
                        .extend(bucket.iter().map(|e| e.tuple.id()));
                    buckets.push(bucket.clone());
                    names.push(key.clone());
                }
                let scope = self.columns.is_some();
                return (!buckets.is_empty()).then_some((Held::Buckets { buckets, scope }, names));
            }
        };
        stats.reprocessed.extend(records.iter().map(Tuple::id));
        Some((Held::Records(records), Vec::new()))
    }
}
