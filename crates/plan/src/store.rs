//! The one resident bucket store: candidate buckets kept between detect
//! passes, so that a pass after a change re-detects only the buckets
//! the change touched (Appendix F's Block pushdown, and the resident
//! side of semi-naive evaluation).
//!
//! Two users read the same store:
//! * every rule group keeps one, a batch cleanse's and an incremental
//!   session's alike ([`crate::group::RuleGroup`]): its first full pass
//!   seeds it — a Block, LSH or inequality pass hands what its reducers
//!   built over ([`crate::Executor::run_resident`]), any other group
//!   indexes every tuple as an insert — and each later cleanse round or
//!   session delta reindexes only the tuples it changed;
//! * the storage manager's [`PartitionedStore`] is one built from a
//!   table on its key columns ([`BucketStore::on_columns`]), and a
//!   [`ReplicatedStore`] holds one per blocking key; Block pushdown is a
//!   detect over every bucket.
//!
//! The store keeps buckets only, with no record of what it indexed per
//! tuple: every change names the version its buckets hold, and
//! [`BucketStore::reindex`] drops that version's members and merges the
//! new version's in, bucket by touched bucket.
//!
//! An LSH rule's store holds no buckets either: an [`LshIndex`] keeps
//! its records with their band hashes and its band buckets as runs of
//! sorted entries, seeded by the sorted reducer shares of its first
//! full pass. A reindex computes signatures for the new versions only.
//!
//! An inequality rule's store holds no buckets: a [`JoinIndex`] over
//! its scoped records stands in for its one global bucket, seeded by the
//! sorted range parts of its first full OCJoin pass. A reindex stages
//! the change in it — the held versions stale, the new ones the fresh
//! side of the next join — and [`BucketStore::settle`] folds a joined
//! change in, before the next one is staged.
//!
//! Neither index is ever serialized: a recovered session rebuilds it
//! from its table by the same reindex, as all inserts.
//!
//! The store only *chooses* what is re-detected ([`BucketStore::held`]).
//! Detection itself — the straggler gate, pair enumeration with a delta
//! as the freshness mask, Detect and GenFix — is
//! [`crate::Executor::detect_held`]'s, as for a shuffled pass, or
//! [`crate::Executor::detect_runs`]' over an LSH index's runs, or
//! [`crate::Executor::detect_join`]'s over a join index, run for a whole
//! group by [`crate::group::RuleGroup::redetect`].

use crate::enumerate::PairRule;
use crate::executor::Held;
use crate::lsh::{BandEntry, LshIndex, Touched};
use crate::physical::{IterateStrategy, RulePipeline};
use bigdansing_common::{Result, Table, Tuple, TupleId};
use bigdansing_dataflow::Engine;
use bigdansing_ocjoin::JoinIndex;
use bigdansing_rules::BlockKey;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A bucket a reindex touched or a re-detect handed over: a Block
/// bucket by its key, or an LSH band bucket by its band and bucket hash.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// A Block bucket (the one empty key: an unblocked strategy's or an
    /// inequality rule's global bucket).
    Block(BlockKey),
    /// An LSH band bucket, a run of its group's [`LshIndex`].
    Band(u32, u64),
}

impl Bucket {
    /// The key of a Block bucket.
    pub fn block(&self) -> Option<&BlockKey> {
        match self {
            Bucket::Block(key) => Some(key),
            Bucket::Band(..) => None,
        }
    }
}

/// What one [`BucketStore::reindex`] changed.
pub struct Reindexed {
    /// The newly indexed records, in table order.
    pub news: Vec<Tuple>,
    /// Every Block bucket that lost or gained a member, in key order,
    /// and whether it gained one (only those can yield new pairs).
    pub keys: Vec<(BlockKey, bool)>,
    /// Per shard of an LSH index, what the change did to its runs.
    runs: Vec<Touched>,
}

impl Reindexed {
    /// Every LSH band bucket that lost or gained a member — its band and
    /// bucket hash — and whether it gained one.
    pub fn runs(&self) -> impl Iterator<Item = ((u32, u64), bool)> + '_ {
        self.runs
            .iter()
            .flat_map(|touched| touched.runs.iter().copied())
    }
}

/// How a group's records are bucketed. A rule alone keys its Scope
/// outputs with its [`IterateStrategy::index_key`]; rules that declare
/// the same [`bigdansing_rules::Rule::block_columns`] share buckets
/// keyed by those source columns, so a source tuple is held (and crosses
/// a shuffle) once and each rule scopes it where it is detected. Either
/// way a Block bucket's key is each member rule's Block key of the
/// units in it, since those are the columns' values.
#[derive(Clone, Debug)]
pub(crate) enum Keying {
    /// Source tuples, bucketed by their values at these columns.
    Columns(Vec<usize>),
    /// One rule's Scope outputs, bucketed by its index key.
    Lone(RulePipeline),
}

impl Keying {
    /// The keying of a group's pipelines, in registration order.
    pub(crate) fn of(group: &[&RulePipeline]) -> Keying {
        match group {
            [lone] => Keying::Lone((*lone).clone()),
            [lead, ..] => Keying::Columns(
                lead.rule
                    .block_columns()
                    .expect("grouped pipelines declare their block columns")
                    .to_vec(),
            ),
            [] => unreachable!("a group has at least one pipeline"),
        }
    }

    /// The Block key of a record of a Block group.
    pub(crate) fn key(&self, record: &Tuple) -> BlockKey {
        match self {
            Keying::Columns(cols) => cols.iter().map(|&c| record.value(c).clone()).collect(),
            Keying::Lone(lone) => lone.rule.block(record).unwrap_or_default(),
        }
    }

    /// The records a source tuple is held as.
    fn records_of(&self, t: &Tuple) -> Vec<Tuple> {
        match self {
            Keying::Lone(lone) if lone.use_scope => lone.rule.scope(t),
            _ => vec![t.clone()],
        }
    }

    /// The bucket a record sits in, if any.
    fn bucket_of(&self, record: &Tuple) -> Option<BlockKey> {
        match self {
            Keying::Columns(_) => Some(self.key(record)),
            Keying::Lone(lone) => lone.strategy.index_key(lone.rule.as_ref(), record),
        }
    }
}

/// Resident candidate buckets over one group's records, members in
/// table order, or an LSH rule's band index, or an inequality rule's
/// join index. The store keeps no record of what it indexed in buckets:
/// a change names the version its buckets hold.
#[derive(Clone, Debug)]
pub struct BucketStore {
    keying: Keying,
    /// Bucket key → members, in shards: one per reducer partition of the
    /// pass that seeded the store, so seeding merges nothing. A key sits
    /// in one shard.
    shards: Vec<HashMap<BlockKey, Vec<Tuple>>>,
    /// An LSH rule's records and band runs.
    pub(crate) lsh: Option<LshIndex>,
    /// An inequality rule's records, sorted into range parts.
    pub(crate) join: Option<JoinIndex>,
}

/// One touched bucket of a [`BucketStore::reindex`]: the ids whose held
/// version leaves it, and the new members it gains, in table order.
type Touch = (Vec<TupleId>, Vec<(u64, Tuple)>);

/// What the members of a group re-detect after a
/// [`BucketStore::reindex`], as [`BucketStore::held`] picks it.
pub enum Pick<'a> {
    /// Records or buckets, for [`crate::Executor::detect_held`].
    Held(Held),
    /// The runs of an LSH index that gained a member and hold a pair —
    /// per shard, their entry ranges — for
    /// [`crate::Executor::detect_runs`].
    Runs(&'a LshIndex, Vec<Vec<Range<usize>>>),
    /// The change a join index staged, for
    /// [`crate::Executor::detect_join`].
    Join(&'a JoinIndex),
}

/// A [`Pick`] with what it hands over.
pub struct Picked<'a> {
    /// What to detect over.
    pub pick: Pick<'a>,
    /// Each bucket or run handed over; empty for records.
    pub keys: Vec<Bucket>,
    /// The id of every record or bucket member handed over (an LSH
    /// record's once, though it sits in a run per band).
    pub ids: Vec<TupleId>,
}

impl BucketStore {
    /// An empty store for a group as [`crate::physical::block_groups`]
    /// forms it.
    pub fn new(group: &[&RulePipeline]) -> BucketStore {
        let mut store = BucketStore::seeded(Keying::of(group), vec![HashMap::new()]);
        match &group[0].strategy {
            IterateStrategy::OcJoin(conds) => store.join = Some(JoinIndex::new(conds)),
            IterateStrategy::LshBlocks => {
                store.lsh = Some(LshIndex::seeded(Default::default(), Vec::new(), 1))
            }
            _ => {}
        }
        store
    }

    /// A store over buckets already built, one shard per map (at least
    /// one).
    pub(crate) fn seeded(keying: Keying, shards: Vec<HashMap<BlockKey, Vec<Tuple>>>) -> Self {
        BucketStore {
            keying,
            shards,
            lsh: None,
            join: None,
        }
    }

    /// `table`'s tuples bucketed by their values at `columns`: the
    /// table, content-partitioned.
    pub fn on_columns(table: &Table, columns: &[usize]) -> BucketStore {
        let keying = Keying::Columns(columns.to_vec());
        let mut buckets: HashMap<BlockKey, Vec<Tuple>> = HashMap::new();
        for t in table.tuples() {
            buckets.entry(keying.key(t)).or_default().push(t.clone());
        }
        BucketStore::seeded(keying, vec![buckets])
    }

    /// The source columns the store buckets by, when it holds source
    /// tuples rather than one rule's Scope outputs.
    pub fn columns(&self) -> Option<&[usize]> {
        match &self.keying {
            Keying::Columns(cols) => Some(cols),
            Keying::Lone(_) => None,
        }
    }

    /// Every bucket, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &Vec<Tuple>)> {
        self.shards.iter().flatten()
    }

    /// Number of members across the buckets, or records of the LSH or
    /// join index.
    pub fn len(&self) -> usize {
        let joined = self.join.as_ref().map_or(0, |j| j.records().count());
        let banded = self.lsh.as_ref().map_or(0, LshIndex::len);
        joined + banded + self.iter().map(|(_, bucket)| bucket.len()).sum::<usize>()
    }

    /// True when no bucket, nor an index, holds a member.
    pub fn is_empty(&self) -> bool {
        let held = |j: &JoinIndex| j.records().next().is_some();
        let banded = self.lsh.as_ref().is_some_and(|index| !index.is_empty());
        !banded
            && !self.join.as_ref().is_some_and(held)
            && self.shards.iter().all(HashMap::is_empty)
    }

    /// An LSH rule's band index.
    pub fn lsh(&self) -> Option<&LshIndex> {
        self.lsh.as_ref()
    }

    /// An inequality rule's join index.
    pub fn join(&self) -> Option<&JoinIndex> {
        self.join.as_ref()
    }

    /// Fold the change a [`BucketStore::reindex`] staged in the join
    /// index into it ([`JoinIndex::merge`]), once the change is joined
    /// and before the next is staged; buckets and band runs take a
    /// change as it comes, so this does nothing to them.
    pub fn settle(&mut self, engine: &Engine) -> Result<()> {
        self.join
            .as_mut()
            .map_or(Ok(()), |index| index.merge(engine))
    }

    fn get(&self, key: &BlockKey) -> Option<&Vec<Tuple>> {
        self.shards.iter().find_map(|s| s.get(key))
    }

    /// Replace the indexed versions of the given tuples, each change an
    /// id, the version the buckets hold (`None`: none) and its new
    /// version (`None`: deleted). Each bucket the changes touch takes
    /// one `retain` of the held versions and one ordered merge of the
    /// new ones, so a change costs what its buckets hold, not what it
    /// has changed. `seq_of` gives every live tuple's table-order
    /// sequence number; members stay sorted by it.
    ///
    /// An LSH index computes the band hashes of the new versions' records
    /// on `engine`'s workers, and merges each touched shard anew without
    /// the held versions' entries and with the new ones ([`LshIndex`]).
    ///
    /// A join index instead stages the change, held versions stale and
    /// new ones fresh ([`JoinIndex::stage`]), until
    /// [`BucketStore::settle`] folds it in; the one global bucket it
    /// stands in for is the bucket the change touched. A change staged
    /// before must have been folded in.
    ///
    /// # Panics
    ///
    /// When a new version enters a bucket or index that still holds a
    /// member with its id, or an index holds no held version: the change
    /// did not name the version the store held.
    pub fn reindex<'a>(
        &mut self,
        engine: &Engine,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>, Option<&'a Tuple>)>,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Result<Reindexed> {
        let mut gone: Vec<(TupleId, Tuple)> = Vec::new();
        let mut news: Vec<((u64, u32), Tuple)> = Vec::new();
        for (id, old, new) in changes {
            let held = old.map(|t| self.keying.records_of(t)).unwrap_or_default();
            gone.extend(held.into_iter().map(|r| (id, r)));
            if let Some(t) = new {
                let seq = seq_of(id);
                let reps = (0..).zip(self.keying.records_of(t));
                news.extend(reps.map(|(rep, s)| ((seq, rep), s)));
            }
        }
        news.sort_by_key(|(pos, _)| *pos);
        if let (Some(index), Keying::Lone(lone)) = (&mut self.lsh, &self.keying) {
            let names = lone.rule.name();
            let label = format!("lsh-signature({names})");
            // an LSH index finds a tuple's held records by its id
            let mut ids: Vec<TupleId> = gone.iter().map(|(id, _)| *id).collect();
            ids.dedup();
            let runs = index.reindex(engine, lone.rule.as_ref(), &label, &ids, &news)?;
            let news = news.into_iter().map(|(_, t)| t).collect();
            let keys = Vec::new();
            return Ok(Reindexed { news, keys, runs });
        }
        if let Some(index) = &mut self.join {
            let touched = !gone.is_empty() || !news.is_empty();
            let keys = touched.then(|| (BlockKey::new(), !news.is_empty()));
            let news: Vec<Tuple> = news.into_iter().map(|(_, t)| t).collect();
            index.stage(gone.iter().map(|(_, held)| held), news.clone());
            let keys = keys.into_iter().collect();
            return Ok(Reindexed {
                news,
                keys,
                runs: Vec::new(),
            });
        }
        let mut touched: BTreeMap<BlockKey, Touch> = BTreeMap::new();
        for (id, held) in &gone {
            if let Some(key) = self.keying.bucket_of(held) {
                touched.entry(key).or_default().0.push(*id);
            }
        }
        for ((seq, _), t) in &news {
            if let Some(key) = self.keying.bucket_of(t) {
                touched.entry(key).or_default().1.push((*seq, t.clone()));
            }
        }
        let mut keys = Vec::new();
        for (key, (mut gone, adds)) in touched {
            let gained = !adds.is_empty();
            let at = self.shards.iter().position(|s| s.contains_key(&key));
            let shard = &mut self.shards[at.unwrap_or(0)];
            let slot = shard.entry(key.clone()).or_default();
            if !gone.is_empty() {
                gone.sort_unstable();
                slot.retain(|m| gone.binary_search(&m.id()).is_err());
            }
            merge(slot, adds, &seq_of);
            if slot.is_empty() {
                shard.remove(&key);
            }
            keys.push((key, gained));
        }
        let news = news.into_iter().map(|(_, t)| t).collect();
        Ok(Reindexed {
            news,
            keys,
            runs: Vec::new(),
        })
    }

    /// Every bucket, for a detect over the whole store.
    pub fn all(&self) -> Held {
        let buckets = self.iter().map(|(_, bucket)| bucket.clone()).collect();
        let scope = self.columns().is_some();
        Held::Buckets { buckets, scope }
    }

    /// What the `members` of the store's group re-evaluate after a
    /// [`BucketStore::reindex`] — the union of what each one picks —
    /// or `None` when that is nothing. Single units pick the new
    /// records, and so does an inequality rule: they are the fresh side
    /// its join index staged. A pair rule picks the buckets that gained
    /// a member and hold a pair — an LSH rule the runs of its index that
    /// did — and a list rule every bucket that changed and still has
    /// members.
    pub fn held(&self, members: &[&RulePipeline], change: &Reindexed) -> Option<Picked<'_>> {
        let news = || change.news.iter().map(Tuple::id).collect();
        match (&members[0].strategy, &self.lsh, &self.join) {
            (_, _, Some(index)) => (!change.news.is_empty()).then(|| Picked {
                pick: Pick::Join(index),
                keys: Vec::new(),
                ids: news(),
            }),
            (IterateStrategy::SingleUnits, ..) => (!change.news.is_empty()).then(|| Picked {
                pick: Pick::Held(Held::Records(change.news.clone())),
                keys: Vec::new(),
                ids: news(),
            }),
            (_, Some(index), _) => {
                let pairs = |touched: &Touched| touched.pairs.clone();
                let runs: Vec<Vec<Range<usize>>> = change.runs.iter().map(pairs).collect();
                let picked = runs.iter().enumerate().flat_map(|(shard, ranges)| {
                    ranges
                        .iter()
                        .map(move |range| index.run(shard, range.clone()))
                });
                let picked: Vec<&[BandEntry]> = picked.collect();
                let band = |run: &&[BandEntry]| {
                    let (band, hash) = run[0].run();
                    Bucket::Band(band, hash)
                };
                let keys: Vec<Bucket> = picked.iter().map(band).collect();
                let ids = crate::lsh::member_ids(index.records(), picked);
                (!keys.is_empty()).then_some(Picked {
                    pick: Pick::Runs(index, runs),
                    keys,
                    ids,
                })
            }
            _ => {
                let (mut buckets, mut keys) = (Vec::new(), Vec::new());
                for (key, gained) in &change.keys {
                    let Some(bucket) = self.get(key) else {
                        continue;
                    };
                    let (first, rest) = (&bucket[0], &bucket[1..]);
                    let pairing = |r: PairRule| rest.iter().any(|m| r.admits(first, m));
                    let picks = |p: &&RulePipeline| match p.strategy.pair_rule() {
                        Some(r) => *gained && pairing(r),
                        None => true,
                    };
                    if members.iter().any(picks) {
                        buckets.push(bucket.clone());
                        keys.push(Bucket::Block(key.clone()));
                    }
                }
                let ids = buckets.iter().flatten().map(Tuple::id).collect();
                let scope = self.columns().is_some();
                let pick = Pick::Held(Held::Buckets { buckets, scope });
                (!keys.is_empty()).then_some(Picked { pick, keys, ids })
            }
        }
    }
}

/// Merge `adds` — new members with their sequence numbers, in table
/// order — into `slot`, whose members are in table order by `seq_of`:
/// one binary search per new member, and one move of the members from
/// the first insertion point on.
fn merge(slot: &mut Vec<Tuple>, adds: Vec<(u64, Tuple)>, seq_of: impl Fn(TupleId) -> u64) {
    let seq = |m: &Tuple| seq_of(m.id());
    let place = |(at_seq, new): &(u64, Tuple)| {
        let at = slot.partition_point(|m| seq(m) < *at_seq);
        let held = slot.get(at).is_some_and(|m| seq(m) == *at_seq);
        assert!(!held, "tuple {} enters a bucket holding it", new.id());
        at
    };
    let ats: Vec<usize> = adds.iter().map(place).collect();
    let Some(&first) = ats.first() else {
        return;
    };
    let mut tail = slot.split_off(first).into_iter();
    let mut moved = first;
    for (at, (_, m)) in ats.into_iter().zip(adds) {
        slot.extend(tail.by_ref().take(at - moved));
        moved = at;
        slot.push(m);
    }
    slot.extend(tail);
}

/// A table stored pre-grouped on the values of one attribute set
/// (Appendix F (1)): content-based partitioning, built with
/// [`BucketStore::on_columns`]. Block pushdown is
/// [`crate::Executor::detect_held`] over every block
/// ([`BucketStore::all`]) with the rule's pipeline: each rule scopes a
/// block's full-width tuples, and its Block is *not* invoked — the
/// store's grouping stands in for it, which is only sound when the
/// store's [`BucketStore::columns`] are the rule's blocking attributes.
pub type PartitionedStore = BucketStore;

/// A dataset stored as several content-partitioned replicas, each on a
/// different blocking key (Appendix F (2)), so jobs that block on
/// different keys all find a co-located copy.
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    replicas: Vec<PartitionedStore>,
}

impl ReplicatedStore {
    /// Build one replica per attribute set in `keys`.
    pub fn build(table: &Table, keys: &[Vec<usize>]) -> ReplicatedStore {
        ReplicatedStore {
            replicas: keys
                .iter()
                .map(|attrs| PartitionedStore::on_columns(table, attrs))
                .collect(),
        }
    }

    /// The replica able to serve a rule blocking on `attrs` without a
    /// shuffle, if one exists: one keyed on the same attributes, in any
    /// order.
    pub fn replica_for(&self, attrs: &[usize]) -> Option<&PartitionedStore> {
        let sorted = |cols: &[usize]| {
            let mut cols = cols.to_vec();
            cols.sort_unstable();
            cols
        };
        self.replicas
            .iter()
            .find(|r| r.columns().is_some_and(|c| sorted(c) == sorted(attrs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::bucket_hash;
    use crate::physical::{pipeline_for_rule, pipelines};
    use bigdansing_common::rng::{check, SplitMix64};
    use bigdansing_common::{stable_hash_of, LshParams, Schema, Value};
    use bigdansing_dataflow::Engine;
    use bigdansing_rules::{DcRule, DedupRule, FdRule, Rule};
    use std::sync::Arc;

    /// A picked bucket store's buckets and their keys.
    fn buckets(picked: Option<Picked<'_>>) -> (Vec<Vec<Tuple>>, bool, Vec<Bucket>) {
        match picked {
            Some(Picked {
                pick: Pick::Held(Held::Buckets { buckets, scope }),
                keys,
                ..
            }) => (buckets, scope, keys),
            _ => unreachable!("a Block store holds buckets"),
        }
    }

    #[test]
    fn shared_columns_key_and_hash_like_every_members_block() {
        let schema = Schema::parse("zipcode,city,state");
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let rules = [fd("zipcode -> city"), fd("zipcode -> state")];
        let pipelines = rules.clone().map(|r| pipeline_for_rule(r, "t"));
        let keying = Keying::of(&[&pipelines[0], &pipelines[1]]);
        let row = Tuple::new(
            7,
            vec![Value::Int(90210), Value::str("LA"), Value::str("CA")],
        );
        for rule in &rules {
            let unit = &rule.scope(&row)[0];
            let key = rule.block(unit).unwrap();
            assert_eq!(keying.key(&row), key);
            assert_eq!(bucket_hash(rule.as_ref(), unit), stable_hash_of(&key));
        }
    }

    #[test]
    fn reindex_moves_a_tuple_between_buckets_in_table_order() {
        let schema = Schema::parse("zipcode,city");
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let pipeline = pipeline_for_rule(fd, "t");
        let mut store = BucketStore::new(&[&pipeline]);
        let e = Engine::sequential();
        let row = |id, zip| Tuple::new(id, vec![Value::Int(zip), Value::str("LA")]);
        let rows = [row(0, 1), row(1, 2), row(2, 1)];
        let inserts = rows.iter().map(|t| (t.id(), None, Some(t)));
        store.reindex(&e, inserts, |id| id).unwrap();
        assert_eq!((store.iter().count(), store.len()), (2, 3));
        // tuple 1 moves into zip 1's bucket, between tuples 0 and 2
        let moved = row(1, 1);
        let update = [(1, Some(&rows[1]), Some(&moved))].into_iter();
        let change = store.reindex(&e, update, |id| id).unwrap();
        let zip = |z| BlockKey::single(Value::Int(z));
        let touched = vec![(zip(1), true), (zip(2), false)];
        assert_eq!(change.keys, touched);
        let (buckets, _, names) = buckets(store.held(&[&pipeline], &change));
        assert_eq!(names, vec![Bucket::Block(zip(1))]);
        let ids: Vec<u64> = buckets[0].iter().map(Tuple::id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// A store seeded from a lone FD's buckets of Scope outputs: a change
    /// names the version its buckets hold, which moves the FD's scoped
    /// record between buckets in table order, and a new version entering
    /// a bucket that still holds its id is refused.
    #[test]
    fn a_seeded_store_reindexes_the_held_version() {
        let schema = Schema::parse("zipcode,name,city");
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let pipeline = pipeline_for_rule(Arc::clone(&fd), "t");
        let row =
            |id, zip| Tuple::new(id, vec![Value::Int(zip), Value::str("n"), Value::str("LA")]);
        let mut table = [row(0, 1), row(1, 2), row(2, 1)];
        let scoped =
            |ts: &[&Tuple]| -> Vec<Tuple> { ts.iter().flat_map(|t| fd.scope(t)).collect() };
        let zip = |z| BlockKey::single(Value::Int(z));
        let seeded = HashMap::from([
            (zip(1), scoped(&[&table[0], &table[2]])),
            (zip(2), scoped(&[&table[1]])),
        ]);
        let mut store = BucketStore::seeded(Keying::of(&[&pipeline]), vec![seeded]);
        let e = Engine::sequential();
        let old = std::mem::replace(&mut table[1], row(1, 1));
        let update = [(1, Some(&old), Some(&table[1]))].into_iter();
        let change = store.reindex(&e, update, |id| id).unwrap();
        let (buckets, scope, names) = buckets(store.held(&[&pipeline], &change));
        assert!(!scope, "a lone rule's buckets hold its scoped records");
        assert_eq!(names, vec![Bucket::Block(zip(1))]);
        let all = scoped(&table.iter().collect::<Vec<_>>());
        assert_eq!(format!("{:?}", buckets[0]), format!("{all:?}"));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.reindex(&e, [(0, None, Some(&table[0]))].into_iter(), |id| id)
        }));
        assert!(refused.is_err(), "an insert into a bucket holding its id");
    }

    /// A bucket as the property compares it: each member's tuple, in
    /// bucket order.
    type Shown = BTreeMap<BlockKey, Vec<String>>;

    fn show(t: &Tuple) -> String {
        format!("{t:?}")
    }

    /// Random insert/update/delete batches, several changes per reindex
    /// and several into one bucket, against every bucket keying (an LSH
    /// group's index has its own property below): after each
    /// reindex every bucket equals a from-scratch bucketing of the live
    /// tuples in table order, and `keys` names exactly the buckets that
    /// lost or gained a member.
    #[test]
    fn reindex_matches_a_rebuild_after_every_batch() {
        let schema = Schema::parse("zipcode,name,city,salary,rate");
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let dc = "t1.salary > t2.salary & t1.rate < t2.rate";
        let dc: Arc<dyn Rule> = Arc::new(DcRule::parse(dc, &schema).unwrap());
        let fds = pipelines(&[fd("zipcode -> city"), fd("zipcode -> rate")], "t");
        let ucross = RulePipeline {
            strategy: IterateStrategy::UCrossProduct,
            ..pipeline_for_rule(fd("city -> rate"), "t")
        };
        let lone = |rule| pipelines(&[rule], "t").remove(0);
        let groups = [
            vec![fds[0].clone(), fds[1].clone()],
            vec![lone(fd("zipcode -> city"))],
            vec![ucross],
            vec![lone(dc)],
        ];
        assert!(matches!(groups[3][0].strategy, IterateStrategy::OcJoin(_)));
        const NAMES: [&str; 4] = ["anne marie", "anna marie", "bob stone", "bobby stone"];
        let draw_row = |g: &mut SplitMix64, id| {
            let name = NAMES[g.range(0..NAMES.len())];
            let city = ["LA", "SF"][g.range(0..2usize)];
            let row = [g.range(0..3i64), 0, 0, g.range(0..4i64), g.range(0..4i64)];
            let mut values: Vec<Value> = row.into_iter().map(Value::Int).collect();
            (values[1], values[2]) = (Value::str(name), Value::str(city));
            Tuple::new(id, values)
        };
        for group in &groups {
            let members: Vec<&RulePipeline> = group.iter().collect();
            check(24, |g| {
                let keying = Keying::of(&members);
                let bucketed = |t: &Tuple| {
                    let records = keying.records_of(t).into_iter();
                    records.flat_map(|r| keying.bucket_of(&r).map(|key| (r, key)))
                };
                let mut store = BucketStore::new(&members);
                let e = Engine::sequential();
                // id → (seq, live version)
                let mut live: BTreeMap<u64, (u64, Tuple)> = BTreeMap::new();
                let (mut next_id, mut next_seq) = (0u64, 0u64);
                for _ in 0..12 {
                    let mut changes: BTreeMap<u64, (Option<Tuple>, Option<Tuple>)> =
                        BTreeMap::new();
                    for _ in 0..g.range(1..7usize) {
                        let pick = (!live.is_empty()).then(|| {
                            let at = g.range(0..live.len());
                            *live.keys().nth(at).expect("in range")
                        });
                        let (id, new) = match (g.range(0..3u8), pick) {
                            (1, Some(id)) => (id, Some(draw_row(g, id))),
                            (2, Some(id)) => (id, None),
                            _ => {
                                next_id += 1;
                                (next_id - 1, Some(draw_row(g, next_id - 1)))
                            }
                        };
                        if changes.contains_key(&id) {
                            continue;
                        }
                        let held = live.get(&id).map(|(_, t)| t.clone());
                        match &new {
                            Some(t) => {
                                let seq = live.get(&id).map_or(next_seq, |(seq, _)| *seq);
                                next_seq = next_seq.max(seq + 1);
                                live.insert(id, (seq, t.clone()));
                            }
                            None => {
                                live.remove(&id);
                            }
                        }
                        changes.insert(id, (held, new));
                    }
                    let batch = changes
                        .iter()
                        .map(|(id, (o, n))| (*id, o.as_ref(), n.as_ref()));
                    let change = store.reindex(&e, batch, |id| live[&id].0).unwrap();
                    let mut keys: BTreeMap<BlockKey, bool> = BTreeMap::new();
                    for (old, new) in changes.values() {
                        for (_, key) in old.iter().flat_map(bucketed) {
                            keys.entry(key).or_insert(false);
                        }
                        for (_, key) in new.iter().flat_map(bucketed) {
                            keys.insert(key, true);
                        }
                    }
                    let keys: Vec<_> = keys.into_iter().collect();
                    assert_eq!(
                        change.keys, keys,
                        "the buckets that lost or gained a member"
                    );
                    let mut scratch = Shown::new();
                    let mut in_order: Vec<&(u64, Tuple)> = live.values().collect();
                    in_order.sort_by_key(|(seq, _)| *seq);
                    for (_, t) in in_order {
                        for (r, key) in bucketed(t) {
                            scratch.entry(key).or_default().push(show(&r));
                        }
                    }
                    let mut held = shown(&store);
                    // a join index stands in for the one global bucket,
                    // in its own order
                    store.settle(&e).unwrap();
                    if let Some(index) = store.join() {
                        let records = index.records().map(show);
                        held.insert(BlockKey::new(), records.collect());
                        held.values_mut().for_each(|b| b.sort());
                        scratch.values_mut().for_each(|b| b.sort());
                        held.retain(|_, b| !b.is_empty());
                    }
                    assert_eq!(held, scratch);
                }
            });
        }
    }

    /// An LSH group's band index under random insert/update/delete
    /// batches — equal names, empty and `Null` names, case-only edits
    /// (which keep every band hash) and names either side of the 22-byte
    /// inline-string limit — on one worker and on two. After every batch
    /// the index holds the runs a fresh build over the live table holds,
    /// members in table order, and the Δ re-detect of the runs the batch
    /// fed finds what a full LSH pass over the live table finds in the
    /// units with a member the batch inserted or updated.
    #[test]
    fn lsh_index_matches_a_fresh_build_after_every_batch() {
        use crate::enumerate::Origin;
        use crate::group::RuleGroup;
        use crate::Executor;
        use bigdansing_dataflow::{IsolationOptions, PDataset};
        use std::collections::HashSet;
        let schema = Schema::parse("id,name");
        const NAMES: [&str; 8] = [
            "anne marie",
            "anna marie",
            "",
            "bobby stone",
            "abcdefghijklmnopqrstu",   // 21 bytes: inline
            "abcdefghijklmnopqrstuv",  // 22 bytes: inline
            "abcdefghijklmnopqrstuvw", // 23 bytes: on the heap
            "abcdefghijklmnopqrstuvx",
        ];
        let flip = |v: &Value| match v.as_str() {
            Some(s) if s.starts_with(|c: char| c.is_lowercase()) => Value::str(s.to_uppercase()),
            Some(s) => Value::str(s.to_lowercase()),
            None => Value::Null,
        };
        // a collision-prone geometry: similar names share many bands
        let geometry = LshParams {
            bands: 4,
            rows_per_band: 2,
            shingle: 2,
        };
        let dedup = DedupRule::new("udf:dedup", 1, 0.6).with_lsh(geometry);
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(dedup)];
        let group = pipelines(&rules, "t");
        let members: Vec<&RulePipeline> = group.iter().collect();
        assert!(matches!(members[0].strategy, IterateStrategy::LshBlocks));
        let runs = |index: &LshIndex| -> BTreeMap<(u32, u64), Vec<String>> {
            let shown =
                |(run, tuples): (_, Vec<&Tuple>)| (run, tuples.into_iter().map(show).collect());
            index.buckets().map(shown).collect()
        };
        let found = |outs: Vec<(usize, crate::DetectOutput)>| -> Vec<String> {
            let outs = outs
                .into_iter()
                .flat_map(|(_, out)| out.origins.into_iter().zip(out.detected));
            outs.map(|found| format!("{found:?}")).collect()
        };
        for engine in [Engine::sequential(), Engine::parallel(2)] {
            let executor = Executor::new(engine.clone());
            check(24, |g| {
                let draw = |g: &mut SplitMix64, id: u64| {
                    let name = match g.range(0..10u8) {
                        0 => Value::Null,
                        _ => Value::str(NAMES[g.range(0..NAMES.len())]),
                    };
                    Tuple::new(id, vec![Value::Int(id as i64), name])
                };
                let iso = IsolationOptions::default();
                let mut group = RuleGroup::of(&group, iso).remove(0);
                // id → (seq, live version)
                let mut live: BTreeMap<u64, (u64, Tuple)> = BTreeMap::new();
                let (mut next_id, mut next_seq) = (0u64, 0u64);
                for _ in 0..8 {
                    let mut changes: BTreeMap<u64, (Option<Tuple>, Option<Tuple>)> =
                        BTreeMap::new();
                    for _ in 0..g.range(1..12usize) {
                        let pick = (!live.is_empty()).then(|| {
                            let at = g.range(0..live.len());
                            *live.keys().nth(at).expect("in range")
                        });
                        let (id, new) = match (g.range(0..4u8), pick) {
                            (1, Some(id)) => (id, Some(draw(g, id))),
                            (2, Some(id)) => {
                                let t = &live[&id].1;
                                let name = flip(t.value(1));
                                (id, Some(Tuple::new(id, vec![t.value(0).clone(), name])))
                            }
                            (3, Some(id)) => (id, None),
                            _ => {
                                next_id += 1;
                                (next_id - 1, Some(draw(g, next_id - 1)))
                            }
                        };
                        if changes.contains_key(&id) {
                            continue;
                        }
                        let held = live.get(&id).map(|(_, t)| t.clone());
                        match &new {
                            Some(t) => {
                                let seq = live.get(&id).map_or(next_seq, |(seq, _)| *seq);
                                next_seq = next_seq.max(seq + 1);
                                live.insert(id, (seq, t.clone()));
                            }
                            None => {
                                live.remove(&id);
                            }
                        }
                        changes.insert(id, (held, new));
                    }
                    let news = changes.iter().filter(|(_, (_, new))| new.is_some());
                    let news: HashSet<u64> = news.map(|(id, _)| *id).collect();
                    let batch = changes
                        .iter()
                        .map(|(id, (o, n))| (*id, o.as_ref(), n.as_ref()));
                    let seq_of = |id| live[&id].0;
                    let done = group.redetect(&executor, batch, seq_of).unwrap();
                    let mut table: Vec<&(u64, Tuple)> = live.values().collect();
                    table.sort_by_key(|(seq, _)| *seq);
                    let table: Vec<Tuple> = table.into_iter().map(|(_, t)| t.clone()).collect();
                    let data = || PDataset::from_vec(engine.clone(), table.clone());
                    let (_, fresh) = executor
                        .run_resident(data(), &schema, &members, None, &seq_of)
                        .unwrap();
                    let (index, fresh) = (group.store.as_ref().unwrap().lsh(), fresh.unwrap());
                    assert_eq!(runs(index.unwrap()), runs(fresh.lsh().unwrap()));
                    let mut full = executor
                        .run_group(data(), &schema, &members, None)
                        .unwrap()
                        .remove(0);
                    let changed = |o: &Origin| match o {
                        Origin::Unit(a, b) => news.contains(a) || news.contains(b),
                        Origin::Bucket(_) => unreachable!("an LSH rule detects pairs"),
                    };
                    let keep: Vec<bool> = full.origins.iter().map(changed).collect();
                    let mut kept = keep.iter();
                    full.detected.retain(|_| *kept.next().unwrap());
                    full.origins.retain(changed);
                    assert_eq!(found(done.outs), found(vec![(0, full)]));
                }
            });
        }
    }

    /// What a store holds, bucket for bucket: each member's tuple, in
    /// bucket order.
    fn shown(store: &BucketStore) -> Shown {
        let buckets = store
            .iter()
            .map(|(key, bucket)| (key.clone(), bucket.iter().map(show).collect()));
        buckets.collect()
    }

    /// The buckets a full Block pass's shuffle hands over equal the store
    /// a reindex of the same table as inserts builds: bucket for bucket,
    /// members in table order, on one worker and on two. Covers two FDs
    /// sharing their key's columns, a lone FD over its Scope outputs, and
    /// a list rule.
    #[test]
    fn a_shuffled_store_matches_a_reindex_of_the_table() {
        use crate::Executor;
        use bigdansing_dataflow::PDataset;
        use bigdansing_rules::{UdfRule, UnitKind};
        let schema = Schema::parse("zipcode,city,state");
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let list = UdfRule::builder("udf:zip-list", |_| Vec::new())
            .unit_kind(UnitKind::List)
            .block(|t| Some(BlockKey::single(t.value(0).clone())))
            .build();
        let groups = [
            pipelines(&[fd("zipcode -> city"), fd("zipcode -> state")], "t"),
            pipelines(&[fd("zipcode -> city")], "t"),
            pipelines(&[Arc::new(list)], "t"),
        ];
        assert!(matches!(groups[2][0].strategy, IterateStrategy::BlockList));
        for engine in [Engine::sequential(), Engine::parallel(2)] {
            let executor = Executor::new(engine.clone());
            for group in &groups {
                let members: Vec<&RulePipeline> = group.iter().collect();
                check(16, |g| {
                    // ids run against table order, so that order by id is
                    // not order by position
                    let n = g.range(1..48u64);
                    let row = |at: u64| {
                        let zip = Value::Int(g.range(0..5i64));
                        let city = Value::str(["LA", "SF", "NY"][g.range(0..3usize)]);
                        let state = Value::str(["CA", "NY"][g.range(0..2usize)]);
                        Tuple::new(n - at, vec![zip, city, state])
                    };
                    let rows: Vec<Tuple> = (0..n).map(row).collect();
                    let data = PDataset::from_vec(engine.clone(), rows.clone());
                    let seq_of = |id| n - id;
                    let (_, seeded) = executor
                        .run_resident(data, &schema, &members, None, &seq_of)
                        .unwrap();
                    let seeded = seeded.expect("a Block pass seeds a store");
                    let mut built = BucketStore::new(&members);
                    let inserts = rows.iter().map(|t| (t.id(), None, Some(t)));
                    built.reindex(&engine, inserts, seq_of).unwrap();
                    assert_eq!(shown(&seeded), shown(&built));
                });
            }
        }
    }

    mod storage {
        use super::super::*;
        use crate::physical::pipeline_for_rule;
        use crate::Executor;
        use bigdansing_common::metrics::Metrics;
        use bigdansing_common::{Schema, Value};
        use bigdansing_dataflow::{Engine, IsolationOptions, RuleGuard};
        use bigdansing_rules::{FdRule, Fix, Rule, Violation};
        use std::collections::BTreeSet;
        use std::sync::Arc;

        fn table() -> Table {
            let schema = Schema::parse("zipcode,city");
            Table::from_rows(
                "t",
                schema,
                vec![
                    vec![Value::Int(1), Value::str("LA")],
                    vec![Value::Int(1), Value::str("SF")],
                    vec![Value::Int(2), Value::str("NY")],
                    vec![Value::Int(1), Value::str("LA")],
                ],
            )
        }

        #[test]
        fn builds_blocks_by_content() {
            let t = table();
            let store = PartitionedStore::on_columns(&t, &[0]);
            assert_eq!(store.iter().count(), 2);
            assert_eq!(store.len(), 4);
            assert_eq!(store.columns(), Some(&[0][..]));
        }

        #[test]
        fn pushdown_matches_shuffled_detection_without_shuffling() {
            let t = table();
            let rule: Arc<dyn Rule> =
                Arc::new(FdRule::parse("zipcode -> city", t.schema()).unwrap());
            let store = PartitionedStore::on_columns(&t, &[0]);
            let pushdown = Executor::new(Engine::parallel(2));
            let pipeline = pipeline_for_rule(Arc::clone(&rule), t.name());
            let guard = RuleGuard::arm(rule.name(), &IsolationOptions::default());
            let guards = std::slice::from_ref(&guard);
            let pushed = pushdown
                .detect_held(&[&pipeline], store.all(), None, guards)
                .unwrap()
                .remove(0);
            let metrics = pushdown.engine().metrics();
            assert_eq!(
                Metrics::get(&metrics.records_shuffled),
                0,
                "Block pushdown must not shuffle"
            );
            let exec = Executor::new(Engine::parallel(2));
            let normal = exec.detect(&t, &[Arc::clone(&rule)]).unwrap();
            let key = |vs: &[(Violation, Vec<Fix>)]| -> BTreeSet<Vec<u64>> {
                vs.iter().map(|(v, _)| v.tuple_ids()).collect()
            };
            assert_eq!(key(&pushed.detected), key(&normal.detected));
            assert!(!pushed.is_clean());
        }

        #[test]
        fn blocks_hold_every_tuple_once() {
            let t = table();
            let store = PartitionedStore::on_columns(&t, &[0]);
            let mut tuples: Vec<Tuple> = store.iter().flat_map(|(_, b)| b.clone()).collect();
            tuples.sort_by_key(|t| t.id());
            let back = Table::new("t", t.schema().clone(), tuples);
            assert_eq!(t.diff_cells(&back), 0);
        }

        #[test]
        fn null_keys_group_together() {
            let schema = Schema::parse("a,b");
            let t = Table::from_rows(
                "t",
                schema,
                vec![
                    vec![Value::Null, Value::Int(1)],
                    vec![Value::Null, Value::Int(2)],
                    vec![Value::Int(5), Value::Int(3)],
                ],
            );
            let store = PartitionedStore::on_columns(&t, &[0]);
            assert_eq!(store.iter().count(), 2);
        }

        fn three_columns() -> Table {
            Table::from_rows(
                "t",
                Schema::parse("zipcode,phone,city"),
                vec![
                    vec![Value::Int(1), Value::str("555"), Value::str("LA")],
                    vec![Value::Int(1), Value::str("666"), Value::str("SF")],
                    vec![Value::Int(2), Value::str("555"), Value::str("NY")],
                ],
            )
        }

        #[test]
        fn each_replica_serves_its_own_key() {
            let store = ReplicatedStore::build(&three_columns(), &[vec![0], vec![1]]);
            assert!(store.replica_for(&[0]).is_some());
            assert!(store.replica_for(&[1]).is_some());
            assert!(store.replica_for(&[2]).is_none());
            assert!(store.replica_for(&[0, 1]).is_none());
            assert_eq!(store.replica_for(&[0]).unwrap().iter().count(), 2);
            assert_eq!(store.replica_for(&[1]).unwrap().iter().count(), 2);
        }

        #[test]
        fn composite_keys_resolve_order_insensitively() {
            let store = ReplicatedStore::build(&three_columns(), &[vec![0, 1]]);
            assert!(store.replica_for(&[1, 0]).is_some());
            assert!(store.replica_for(&[0]).is_none());
        }
    }
}
