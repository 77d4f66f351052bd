//! The one resident bucket store: candidate buckets kept between detect
//! passes, so that a pass after a change re-detects only the buckets
//! the change touched (Appendix F's Block pushdown, and the resident
//! side of semi-naive evaluation).
//!
//! Two users read the same store:
//! * every rule group keeps one, a batch cleanse's and an incremental
//!   session's alike ([`crate::group::RuleGroup`]): its first full pass
//!   seeds it — a Block or LSH pass hands over the sorted runs its
//!   reducers built, an inequality pass its join index
//!   ([`crate::Executor::run_resident`]), any other group indexes every
//!   tuple as an insert — and each later cleanse round or session delta
//!   reindexes only the tuples it changed;
//! * the storage manager's [`PartitionedStore`] is one built from a
//!   table on its key columns ([`BucketStore::on_columns`]), and a
//!   [`ReplicatedStore`] holds one per blocking key; Block pushdown is a
//!   detect over every run.
//!
//! A store holds one of two indexes. Every bucketed group — Block
//! buckets, the one global bucket of a cross product, LSH band buckets —
//! keeps a [`RunIndex`]: its records with their hashes, and its buckets
//! as runs of sorted entries. A Block bucket is the run of its key's
//! [`key_hash`]; a run whose members' keys differ (two keys whose hashes
//! collide) is split by key wherever a detect reads it. A reindex hashes
//! the new versions only. A single-unit rule's index holds nothing: its
//! re-detect reads the new records alone.
//!
//! An inequality rule's store holds a [`JoinIndex`] over its scoped
//! records instead, which stands in for its one global bucket, seeded by
//! the sorted range parts of its first full OCJoin pass. A reindex
//! stages the change in it — the held versions stale, the new ones the
//! fresh side of the next join — and [`BucketStore::settle`] folds a
//! joined change in, before the next one is staged.
//!
//! Neither index is ever serialized: a recovered session rebuilds it
//! from its table by the same reindex, as all inserts.
//!
//! The store only *chooses* what is re-detected ([`BucketStore::held`]).
//! Detection itself — the straggler gate, pair enumeration with a delta
//! as the freshness mask, Detect and GenFix — is
//! [`crate::Executor::detect_runs`]' over the picked runs, as for a
//! shuffled pass, or [`crate::Executor::detect_records`]' over new
//! records, or [`crate::Executor::detect_join`]'s over a join index, run
//! for a whole group by [`crate::group::RuleGroup::redetect`].

use crate::enumerate::PairRule;
use crate::physical::{IterateStrategy, RulePipeline};
use crate::runs::{self, Entry, Run, RunIndex, RunMember, Touched};
use bigdansing_common::{Result, StableHasher, Table, Tuple, TupleId, Value};
use bigdansing_dataflow::Engine;
use bigdansing_ocjoin::JoinIndex;
use bigdansing_rules::BlockKey;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// The hash that keys the run of a Block bucket: the stable hash of its
/// key cells, as [`bigdansing_common::stable_hash_of`] hashes a
/// [`BlockKey`] or a slice of values. Unit tests keep one bit of it, so
/// that every Block bucket has one of two hashes and runs hold
/// colliding keys wherever a test reads them.
pub fn key_hash<'a>(cells: impl ExactSizeIterator<Item = &'a Value>) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(cells.len());
    cells.for_each(|cell| cell.hash(&mut h));
    h.finish() & if cfg!(test) { 1 } else { u64::MAX }
}

/// What one [`BucketStore::reindex`] changed.
pub struct Reindexed {
    /// The newly indexed records, in table order.
    pub news: Vec<Tuple>,
    /// What the change did to a run index's runs (to a join index's one
    /// global bucket, as the empty key's run).
    runs: Touched,
}

impl Reindexed {
    /// Every run that lost or gained a member — a Block bucket's is band 0
    /// and its key's [`key_hash`] — and whether it gained one.
    pub fn runs(&self) -> impl Iterator<Item = (Run, bool)> + '_ {
        self.runs.iter().map(|(_, run, gained, _)| (*run, *gained))
    }
}

/// How a group's records are bucketed. A rule alone keys its Scope
/// outputs with its [`IterateStrategy`]; rules that declare the same
/// [`bigdansing_rules::Rule::block_columns`] share buckets keyed by
/// those source columns, so a source tuple is held (and crosses a
/// shuffle) once and each rule scopes it where it is detected. Either
/// way a Block bucket's key is each member rule's Block key of the units
/// in it, since those are the columns' values.
#[derive(Clone, Debug)]
pub(crate) enum Keying {
    /// Source tuples, bucketed by their values at these columns.
    Columns(Vec<usize>),
    /// One rule's Scope outputs, bucketed by its strategy.
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

    /// The source columns of a shared group: its records are source
    /// tuples, which each member scopes where it is detected.
    pub(crate) fn columns(&self) -> Option<&[usize]> {
        match self {
            Keying::Columns(cols) => Some(cols),
            Keying::Lone(_) => None,
        }
    }

    /// The Block key of a record of a Block group.
    pub(crate) fn key(&self, record: &Tuple) -> BlockKey {
        match self {
            Keying::Columns(cols) => cols.iter().map(|&c| record.value(c).clone()).collect(),
            Keying::Lone(lone) => lone.rule.block(record).unwrap_or_default(),
        }
    }

    /// How many runs a record sits in: one per band of an LSH rule, one
    /// for a Block or cross-product bucket, none for single units and
    /// inequality rules.
    pub(crate) fn bands(&self) -> usize {
        let Keying::Lone(lone) = self else {
            return 1;
        };
        match &lone.strategy {
            IterateStrategy::LshBlocks => lone.rule.lsh().map_or(0, |g| g.bands),
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) => 0,
            _ => 1,
        }
    }

    /// Push the hashes of the runs `record` sits in: its band hashes, or
    /// the [`key_hash`] of its index key.
    pub(crate) fn hash_into(&self, record: &Tuple, out: &mut Vec<u64>) {
        match self {
            Keying::Columns(cols) => out.push(key_hash(cols.iter().map(|&c| record.value(c)))),
            Keying::Lone(lone) if lone.strategy == IterateStrategy::LshBlocks => {
                out.extend(lone.rule.lsh_band_hashes(record))
            }
            Keying::Lone(lone) => {
                let key = lone.strategy.index_key(lone.rule.as_ref(), record);
                out.extend(key.map(|key| key_hash(key.values().iter())))
            }
        }
    }

    /// The labels of the two narrow passes a full pass runs before its
    /// shuffle: the one that hashes every record, and the one that fans
    /// each out into its entries.
    pub(crate) fn ops(&self) -> (&'static str, &'static str) {
        match self {
            Keying::Lone(lone) if lone.strategy == IterateStrategy::LshBlocks => {
                ("lsh-signature", "lsh-band")
            }
            _ => ("block-hash", "block-entry"),
        }
    }

    /// The buckets of a run's members as ranges of `run` into `buckets`:
    /// one per key of a Block group's run — which two keys whose hashes
    /// collide share, its members then sorted by key (stably, so each
    /// bucket's stay in table order) — and the whole run otherwise.
    pub(crate) fn split(&self, run: &mut [RunMember<'_>], buckets: &mut Vec<Range<usize>>) {
        let same = |a: &RunMember<'_>, b: &RunMember<'_>| match self {
            Keying::Columns(cols) => cols.iter().all(|&c| a.1.value(c) == b.1.value(c)),
            Keying::Lone(lone) => !lone.strategy.blocks() || self.key(a.1) == self.key(b.1),
        };
        if run.windows(2).any(|w| !same(&w[0], &w[1])) {
            run.sort_by_cached_key(|m| self.key(m.1));
        }
        buckets.clear();
        let mut at = 0;
        for bucket in run.chunk_by(same) {
            buckets.push(at..at + bucket.len());
            at += bucket.len();
        }
    }

    /// The records a source tuple is held as.
    fn records_of(&self, t: &Tuple) -> Vec<Tuple> {
        match self {
            Keying::Lone(lone) if lone.use_scope => lone.rule.scope(t),
            _ => vec![t.clone()],
        }
    }
}

/// The index a store holds.
#[derive(Clone, Debug)]
pub(crate) enum Index {
    Runs(RunIndex),
    Join(JoinIndex),
}

/// Resident candidate buckets over one group's records, as the runs of
/// a [`RunIndex`], or an inequality rule's join index. The store keeps
/// no record of what it indexed per tuple: a change names the version
/// its index holds.
#[derive(Clone, Debug)]
pub struct BucketStore {
    pub(crate) keying: Keying,
    index: Index,
    /// The group's rule names, which label its passes.
    names: String,
}

/// What the members of a group detect over, as [`BucketStore::held`]
/// picks it after a [`BucketStore::reindex`], or [`BucketStore::all`]
/// lists it, for [`crate::Executor::detect_picked`].
pub enum Pick {
    /// New records of a single-unit rule.
    Records(Vec<Tuple>),
    /// Runs of the store's index: their shards and entry ranges.
    Runs(Vec<(u32, Range<u32>)>),
    /// The change a join index staged.
    Join,
}

/// A [`Pick`] with what it hands over.
pub struct Picked {
    /// What to detect over.
    pub pick: Pick,
    /// The key of every Block bucket handed over, when a member is a
    /// list rule (whose detections name their bucket); else empty.
    pub keys: Vec<BlockKey>,
    /// The id of every record or run member handed over (an LSH
    /// record's once, though it sits in a run per band).
    pub ids: Vec<TupleId>,
}

impl BucketStore {
    /// An empty store for a group as [`crate::physical::block_groups`]
    /// forms it.
    pub fn new(group: &[&RulePipeline]) -> BucketStore {
        let index = match &group[0].strategy {
            IterateStrategy::OcJoin(conds) => Index::Join(JoinIndex::new(conds)),
            _ => Index::Runs(RunIndex::default()),
        };
        let names: Vec<&str> = group.iter().map(|p| p.rule.name()).collect();
        BucketStore {
            keying: Keying::of(group),
            index,
            names: names.join(", "),
        }
    }

    /// The store of a group's first full pass: its run index, or its
    /// join index.
    pub(crate) fn seeded(group: &[&RulePipeline], index: Index) -> Self {
        BucketStore {
            index,
            ..BucketStore::new(group)
        }
    }

    /// `table`'s tuples bucketed by their values at `columns`: the
    /// table, content-partitioned.
    pub fn on_columns(table: &Table, columns: &[usize]) -> BucketStore {
        let mut store = BucketStore {
            keying: Keying::Columns(columns.to_vec()),
            index: Index::Runs(RunIndex::default()),
            names: format!("{columns:?}"),
        };
        let inserts = table.tuples().iter().map(|t| (t.id(), None, Some(t)));
        let seqs: HashMap<TupleId, u64> = table.tuples().iter().map(Tuple::id).zip(0..).collect();
        store
            .reindex(&Engine::sequential(), inserts, |id| seqs[&id])
            .expect("a sequential reindex");
        store
    }

    /// The source columns the store buckets by, when it holds source
    /// tuples rather than one rule's Scope outputs.
    pub fn columns(&self) -> Option<&[usize]> {
        self.keying.columns()
    }

    /// The run index of a bucketed group.
    pub fn runs(&self) -> Option<&RunIndex> {
        match &self.index {
            Index::Runs(index) => Some(index),
            Index::Join(_) => None,
        }
    }

    /// An inequality rule's join index.
    pub fn join(&self) -> Option<&JoinIndex> {
        match &self.index {
            Index::Join(index) => Some(index),
            Index::Runs(_) => None,
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        match &self.index {
            Index::Runs(index) => index.len(),
            Index::Join(index) => index.records().count(),
        }
    }

    /// True when the store holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every Block bucket — its key and its members in table order — run
    /// by run, a run that holds colliding keys split by key.
    pub fn buckets(&self) -> impl Iterator<Item = (BlockKey, Vec<&Tuple>)> + '_ {
        let index = self.runs().into_iter();
        let runs = index.flat_map(|index| index.all().into_iter().map(|(s, at)| index.run(s, at)));
        runs.flat_map(|run| self.bucketed(run))
    }

    /// The Block buckets of `run`, a run of the store's index, each with
    /// its key.
    fn bucketed<'s>(&'s self, run: &'s [Entry]) -> Vec<(BlockKey, Vec<&'s Tuple>)> {
        let index = self.runs().expect("a run index");
        let mut members: Vec<RunMember<'_>> = runs::members(&index.records, run).collect();
        let mut buckets = Vec::new();
        self.keying.split(&mut members, &mut buckets);
        let bucket = |at: Range<usize>| {
            let bucket: Vec<&Tuple> = members[at].iter().map(|m| m.1).collect();
            (self.keying.key(bucket[0]), bucket)
        };
        buckets.into_iter().map(bucket).collect()
    }

    /// Every run, for a detect over the whole store.
    pub fn all(&self) -> Pick {
        Pick::Runs(self.runs().map_or_else(Vec::new, RunIndex::all))
    }

    /// Fold the change a [`BucketStore::reindex`] staged in the join
    /// index into it ([`JoinIndex::merge`]), once the change is joined
    /// and before the next is staged; runs take a change as it comes, so
    /// this does nothing to them.
    pub fn settle(&mut self, engine: &Engine) -> Result<()> {
        match &mut self.index {
            Index::Join(index) => index.merge(engine),
            Index::Runs(_) => Ok(()),
        }
    }

    /// Replace the indexed versions of the given tuples, each change an
    /// id, the version the index holds (`None`: none) and its new
    /// version (`None`: deleted). `seq_of` gives every live tuple's
    /// table-order sequence number; run members stay sorted by it.
    ///
    /// A run index hashes the new versions' records on `engine`'s
    /// workers, and merges each touched shard anew without the held
    /// versions' entries and with the new ones ([`RunIndex`]), so a
    /// change costs what its shards hold. A single-unit rule's index
    /// keeps nothing.
    ///
    /// A join index instead stages the change, held versions stale and
    /// new ones fresh ([`JoinIndex::stage`]), until
    /// [`BucketStore::settle`] folds it in; the one global bucket it
    /// stands in for is the bucket the change touched. A change staged
    /// before must have been folded in.
    ///
    /// # Panics
    ///
    /// When a new version enters an index that still holds its id: the
    /// change did not name the version the store held.
    pub fn reindex<'a>(
        &mut self,
        engine: &Engine,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>, Option<&'a Tuple>)>,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Result<Reindexed> {
        let (bands, keying) = (self.keying.bands(), &self.keying);
        let (mut gone, mut held, mut news) = (Vec::new(), Vec::new(), Vec::new());
        for (id, old, new) in changes {
            match (&self.index, old) {
                (Index::Join(_), Some(t)) => held.extend(keying.records_of(t)),
                (Index::Runs(_), Some(_)) => gone.push(id),
                (_, None) => {}
            }
            if let Some(t) = new {
                let seq = seq_of(id);
                let reps = (0..).zip(keying.records_of(t));
                news.extend(reps.map(|(rep, s)| ((seq, rep), s)));
            }
        }
        news.sort_by_key(|(pos, _)| *pos);
        let runs = match &mut self.index {
            Index::Join(index) => {
                // the one global bucket the index stands in for
                let global = (0, (0, key_hash([].iter())), !news.is_empty(), 0..0);
                let touched = !held.is_empty() || !news.is_empty();
                index.stage(held.iter(), news.iter().map(|(_, t)| t.clone()).collect());
                touched.then_some(global).into_iter().collect()
            }
            Index::Runs(_) if bands == 0 => Vec::new(),
            Index::Runs(index) => {
                let hash = |t: &Tuple, out: &mut Vec<u64>| keying.hash_into(t, out);
                let label = format!("{}({})", keying.ops().0, self.names);
                index.reindex(engine, hash, (bands, &label), &gone, &news)?
            }
        };
        let news = news.into_iter().map(|(_, t)| t).collect();
        Ok(Reindexed { news, runs })
    }

    /// What the `members` of the store's group re-evaluate after a
    /// [`BucketStore::reindex`] — the union of what each one picks —
    /// or `None` when that is nothing. Single units pick the new
    /// records, and so does an inequality rule: they are the fresh side
    /// its join index staged. A pair rule picks the runs that gained a
    /// member and hold a pair, and a list rule every run that changed
    /// and still has members.
    pub fn held(&self, members: &[&RulePipeline], change: &Reindexed) -> Option<Picked> {
        let news = |pick| Picked {
            pick,
            keys: Vec::new(),
            ids: change.news.iter().map(Tuple::id).collect(),
        };
        let fresh = !change.news.is_empty();
        let index = match &self.index {
            Index::Join(_) => return fresh.then(|| news(Pick::Join)),
            Index::Runs(_) if members[0].strategy == IterateStrategy::SingleUnits => {
                return fresh.then(|| news(Pick::Records(change.news.clone())))
            }
            Index::Runs(index) => index,
        };
        let unit = |e: &Entry| index.records.unit(e.slot);
        // a pair rule picks a run that gained a member and holds a pair
        let rules: Vec<Option<PairRule>> = members.iter().map(|p| p.strategy.pair_rule()).collect();
        let picks = |run: &[Entry], gained: bool| {
            let pairs = |r: &PairRule| run[1..].iter().any(|e| r.admits(unit(&run[0]), unit(e)));
            let picks = |r: &Option<PairRule>| r.as_ref().is_none_or(|r| gained && pairs(r));
            !run.is_empty() && rules.iter().any(picks)
        };
        let mut runs = Vec::new();
        for (shard, _, gained, at) in &change.runs {
            if picks(index.run(*shard, at.clone()), *gained) {
                runs.push((*shard, at.clone()));
            }
        }
        if runs.is_empty() {
            return None;
        }
        let picked = || runs.iter().map(|(s, at)| index.run(*s, at.clone()));
        let ids = runs::member_ids(&index.records, picked());
        // a list rule's detections name their bucket by its key
        let lists = members
            .iter()
            .any(|p| p.strategy == IterateStrategy::BlockList);
        let keys = picked()
            .filter(|_| lists)
            .flat_map(|run| self.bucketed(run));
        let (keys, pick) = (keys.map(|(key, _)| key).collect(), Pick::Runs(runs));
        Some(Picked { pick, keys, ids })
    }
}

/// A table stored pre-grouped on the values of one attribute set
/// (Appendix F (1)): content-based partitioning, built with
/// [`BucketStore::on_columns`]. Block pushdown is
/// [`crate::Executor::detect_runs`] over every run ([`BucketStore::all`])
/// with the rule's pipeline: each rule scopes a bucket's full-width
/// tuples, and its Block is *not* invoked — the store's grouping stands
/// in for it, which is only sound when the store's
/// [`BucketStore::columns`] are the rule's blocking attributes.
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
    use crate::enumerate::{bucket_hash, Origin};
    use crate::group::RuleGroup;
    use crate::physical::{pipeline_for_rule, pipelines};
    use crate::Executor;
    use bigdansing_common::rng::{check, SplitMix64};
    use bigdansing_common::{stable_hash_of, LshParams, Schema};
    use bigdansing_dataflow::{IsolationOptions, PDataset};
    use bigdansing_rules::{
        DcRule, DedupRule, DetectUnit, FdRule, Rule, UdfRule, UnitKind, Violation,
    };
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    fn show(t: &Tuple) -> String {
        format!("{t:?}")
    }

    /// What a store holds, bucket for bucket: each member's tuple, in
    /// bucket order.
    fn shown(store: &BucketStore) -> BTreeMap<BlockKey, Vec<String>> {
        let shown =
            |(key, bucket): (BlockKey, Vec<&Tuple>)| (key, bucket.into_iter().map(show).collect());
        store.buckets().map(shown).collect()
    }

    /// Every run of an index — its key, and its members in table order.
    fn runs_in(index: &RunIndex) -> Vec<(Run, Vec<&Tuple>)> {
        let run = |(s, at)| {
            let run = index.run(s, at);
            let units = run.iter().map(|e| index.records.unit(e.slot));
            (run[0].run(), units.collect())
        };
        index.all().into_iter().map(run).collect()
    }

    /// The run a Block key's bucket sits in.
    fn run_of(key: &BlockKey) -> Run {
        (0, key_hash(key.values().iter()))
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
        let hashes = |keying: &Keying, t: &Tuple| {
            let mut out = Vec::new();
            keying.hash_into(t, &mut out);
            out
        };
        for (rule, pipeline) in rules.iter().zip(&pipelines) {
            let unit = &rule.scope(&row)[0];
            let key = rule.block(unit).unwrap();
            assert_eq!(keying.key(&row), key);
            assert_eq!(bucket_hash(rule.as_ref(), unit), stable_hash_of(&key));
            // one run for the shared columns and each member alone; the
            // unit tests' key hash keeps one bit of the stable hash
            let lone = Keying::of(&[pipeline]);
            assert_eq!(hashes(&keying, &row), vec![run_of(&key).1]);
            assert_eq!(hashes(&lone, unit), vec![run_of(&key).1]);
            assert_eq!(run_of(&key).1, stable_hash_of(&key) & 1);
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
        assert_eq!((store.buckets().count(), store.len()), (2, 3));
        // tuple 1 moves into zip 1's bucket, between tuples 0 and 2
        let moved = row(1, 1);
        let update = [(1, Some(&rows[1]), Some(&moved))].into_iter();
        let change = store.reindex(&e, update, |id| id).unwrap();
        let zip = |z| BlockKey::single(Value::Int(z));
        let mut touched = BTreeMap::from([(run_of(&zip(2)), false)]);
        touched.insert(run_of(&zip(1)), true);
        assert_eq!(change.runs().collect::<BTreeMap<_, _>>(), touched);
        let Some(Picked {
            pick: Pick::Runs(runs),
            ids,
            ..
        }) = store.held(&[&pipeline], &change)
        else {
            unreachable!("a Block store picks runs")
        };
        assert_eq!(runs.len(), 1);
        assert_eq!(
            ids.into_iter().collect::<BTreeSet<_>>(),
            BTreeSet::from([0, 1, 2])
        );
        let buckets = shown(&store);
        let ids = |key| buckets[&key].len();
        assert_eq!((ids(zip(1)), buckets.len()), (3, 1));
        assert_eq!(buckets[&zip(1)], rows_shown(&[&rows[0], &moved, &rows[2]]));
    }

    fn rows_shown(rows: &[&Tuple]) -> Vec<String> {
        rows.iter().map(|t| show(t)).collect()
    }

    /// A store seeded by a lone FD's full pass over its Scope outputs: a
    /// change names the version its index holds, which moves the FD's
    /// scoped record between buckets in table order, and a new version
    /// entering an index that still holds its id is refused.
    #[test]
    fn a_seeded_store_reindexes_the_held_version() {
        let schema = Schema::parse("zipcode,name,city");
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let pipeline = pipeline_for_rule(Arc::clone(&fd), "t");
        let row =
            |id, zip| Tuple::new(id, vec![Value::Int(zip), Value::str("n"), Value::str("LA")]);
        let mut table = [row(0, 1), row(1, 2), row(2, 1)];
        let e = Engine::parallel(2);
        let data = PDataset::from_vec(e.clone(), table.to_vec());
        let (_, store) = Executor::new(e.clone())
            .run_resident(data, &schema, &[&pipeline], None, &|id| id)
            .unwrap();
        let mut store = store.expect("a Block pass seeds a store");
        assert_eq!(
            store.columns(),
            None,
            "a lone rule's runs hold its scoped records"
        );
        let old = std::mem::replace(&mut table[1], row(1, 1));
        let update = [(1, Some(&old), Some(&table[1]))].into_iter();
        store.reindex(&e, update, |id| id).unwrap();
        let scoped: Vec<Tuple> = table.iter().flat_map(|t| fd.scope(t)).collect();
        let zip = BlockKey::single(Value::Int(1));
        assert_eq!(
            shown(&store),
            BTreeMap::from([(zip, rows_shown(&scoped.iter().collect::<Vec<_>>()))])
        );
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.reindex(&e, [(0, None, Some(&table[0]))].into_iter(), |id| id)
        }));
        assert!(refused.is_err(), "an insert into an index holding its id");
    }

    /// The groups the store properties run: two FDs sharing their key's
    /// columns, a lone FD over its Scope outputs, a Block list rule, an
    /// unblocked pair rule, an inequality rule and an LSH rule (a
    /// collision-prone geometry: similar names share many bands).
    fn groups(schema: &Schema) -> Vec<Vec<RulePipeline>> {
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, schema).unwrap()) };
        let dc = "t1.salary > t2.salary & t1.rate < t2.rate";
        let dc: Arc<dyn Rule> = Arc::new(DcRule::parse(dc, schema).unwrap());
        // a zip whose bucket holds more than one city
        let list =
            UdfRule::builder("udf:zip-list", |unit| match unit {
                DetectUnit::List(ts) if ts.iter().any(|t| t.value(2) != ts[0].value(2)) => {
                    vec![Violation::new("udf:zip-list")
                        .with_cell(ts[0].cell(2), ts[0].value(2).clone())]
                }
                _ => Vec::new(),
            })
            .unit_kind(UnitKind::List)
            .block(|t| Some(BlockKey::single(t.value(0).clone())))
            .build();
        let geometry = LshParams {
            bands: 4,
            rows_per_band: 2,
            shingle: 2,
        };
        let dedup = DedupRule::new("udf:dedup", 1, 0.6).with_lsh(geometry);
        let ucross = RulePipeline {
            strategy: IterateStrategy::UCrossProduct,
            ..pipeline_for_rule(fd("city -> rate"), "t")
        };
        let lone = |rule| pipelines(&[rule], "t");
        let groups = vec![
            pipelines(&[fd("zipcode -> city"), fd("zipcode -> rate")], "t"),
            lone(fd("zipcode -> city")),
            lone(Arc::new(list)),
            vec![ucross],
            lone(dc),
            lone(Arc::new(dedup)),
        ];
        assert_eq!(groups[0].len(), 2, "the FDs share one group");
        assert!(matches!(groups[2][0].strategy, IterateStrategy::BlockList));
        assert!(matches!(groups[4][0].strategy, IterateStrategy::OcJoin(_)));
        assert!(matches!(groups[5][0].strategy, IterateStrategy::LshBlocks));
        groups
    }

    /// One detection as the property compares it: the member, the unit
    /// it came from, the violation and its fixes.
    fn found(outs: &[(usize, crate::DetectOutput)]) -> Vec<(usize, Origin, String)> {
        let mut found = Vec::new();
        for (m, out) in outs {
            let each = out.origins.iter().zip(&out.detected);
            found.extend(each.map(|(o, d)| (*m, *o, format!("{d:?}"))));
        }
        found
    }

    /// Random insert/update/delete batches — several changes per batch
    /// and several into one bucket; equal, empty and `Null` names,
    /// case-only edits (which keep every band hash) and names either
    /// side of the 22-byte inline-string limit — re-detected through
    /// every group's store, on one worker and on two. Unit tests key
    /// every Block bucket by one of two hashes, so most runs hold
    /// colliding keys. After every batch:
    /// * a Block group's runs, split by key, equal a `HashMap` bucketing
    ///   of the live records in table order; an LSH or cross-product
    ///   group's runs, and a join index's records, equal what a full
    ///   pass over the live table seeds;
    /// * the change names exactly the runs that lost or gained a member;
    /// * the detections kept the way a session keeps them — each batch
    ///   retracts those whose unit holds a changed tuple and, of a list
    ///   rule, those whose bucket's run changed, then adds what the
    ///   re-detect found — equal a full pass over the live table.
    #[test]
    fn the_store_matches_a_rebuild_after_every_batch() {
        let schema = Schema::parse("zipcode,name,city,salary,rate");
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
        let draw = |g: &mut SplitMix64, id| {
            let name = match g.range(0..10u8) {
                0 => Value::Null,
                _ => Value::str(NAMES[g.range(0..NAMES.len())]),
            };
            let city = Value::str(["LA", "SF"][g.range(0..2usize)]);
            let ints = [g.range(0..5i64), g.range(0..4i64), g.range(0..4i64)].map(Value::Int);
            let [zip, salary, rate] = ints;
            Tuple::new(id, vec![zip, name, city, salary, rate])
        };
        let mut collided = 0;
        for group in groups(&schema) {
            let members: Vec<&RulePipeline> = group.iter().collect();
            let keying = Keying::of(&members);
            let join = matches!(members[0].strategy, IterateStrategy::OcJoin(_));
            let runs_of = |t: &Tuple| -> Vec<Run> {
                let mut hashes = Vec::new();
                let records = keying.records_of(t);
                records
                    .iter()
                    .for_each(|r| keying.hash_into(r, &mut hashes));
                let bands = keying.bands().max(1);
                let runs = hashes.into_iter().enumerate();
                runs.map(|(at, hash)| ((at % bands) as u32, hash)).collect()
            };
            for engine in [Engine::sequential(), Engine::parallel(2)] {
                let executor = Executor::new(engine.clone());
                check(16, |g| {
                    let iso = IsolationOptions::default();
                    let mut rule_group = RuleGroup::of(&group, iso).remove(0);
                    // id → (seq, live version)
                    let mut live: BTreeMap<u64, (u64, Tuple)> = BTreeMap::new();
                    let (mut next_id, mut next_seq) = (0u64, 0u64);
                    // the kept detections, a list unit's with its key
                    let mut kept: Vec<((usize, Origin, String), Option<BlockKey>)> = Vec::new();
                    for _ in 0..10 {
                        let mut changes: BTreeMap<u64, (Option<Tuple>, Option<Tuple>)> =
                            BTreeMap::new();
                        for _ in 0..g.range(1..9usize) {
                            let pick = (!live.is_empty()).then(|| {
                                let at = g.range(0..live.len());
                                *live.keys().nth(at).expect("in range")
                            });
                            let (id, new) = match (g.range(0..4u8), pick) {
                                (1, Some(id)) => (id, Some(draw(g, id))),
                                (2, Some(id)) => {
                                    let mut values = live[&id].1.to_values();
                                    values[1] = flip(&values[1]);
                                    (id, Some(Tuple::new(id, values)))
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
                        let batch = changes
                            .iter()
                            .map(|(id, (o, n))| (*id, o.as_ref(), n.as_ref()));
                        let seq_of = |id| live[&id].0;
                        let done = rule_group.redetect(&executor, batch, seq_of).unwrap();
                        // the runs that lost or gained a member
                        let mut runs: BTreeMap<Run, bool> = BTreeMap::new();
                        for (old, new) in changes.values() {
                            for run in old.iter().flat_map(runs_of) {
                                runs.entry(run).or_insert(false);
                            }
                            for run in new.iter().flat_map(runs_of) {
                                runs.insert(run, true);
                            }
                        }
                        if join {
                            let touched = runs.values().any(|g| *g) || !runs.is_empty();
                            let gained = changes.values().any(|(_, n)| n.is_some());
                            runs = BTreeMap::new();
                            if touched {
                                runs.insert((0, key_hash([].iter())), gained);
                            }
                        }
                        let named: BTreeMap<Run, bool> = done.change.runs().collect();
                        assert_eq!(named, runs, "the runs that lost or gained a member");
                        // the store against a rebuild of the live table
                        let mut table: Vec<&(u64, Tuple)> = live.values().collect();
                        table.sort_by_key(|(seq, _)| *seq);
                        let table: Vec<Tuple> = table.into_iter().map(|(_, t)| t.clone()).collect();
                        let data = || PDataset::from_vec(engine.clone(), table.clone());
                        let store = rule_group.store.as_mut().unwrap();
                        store.settle(executor.engine()).unwrap();
                        if keying.columns().is_some() || members[0].strategy.blocks() {
                            let mut scratch: BTreeMap<BlockKey, Vec<String>> = BTreeMap::new();
                            for r in table.iter().flat_map(|t| keying.records_of(t)) {
                                scratch.entry(keying.key(&r)).or_default().push(show(&r));
                            }
                            assert_eq!(shown(store), scratch);
                            let runs = runs_in(store.runs().unwrap()).into_iter();
                            collided += runs
                                .filter(|(_, members)| {
                                    let keys: BTreeSet<BlockKey> =
                                        members.iter().map(|t| keying.key(t)).collect();
                                    keys.len() > 1
                                })
                                .count();
                        }
                        let (_, fresh) = executor
                            .run_resident(data(), &schema, &members, None, &seq_of)
                            .unwrap();
                        if let (Some(fresh), true) = (fresh, !table.is_empty()) {
                            let runs = |s: &BucketStore| -> BTreeMap<Run, Vec<String>> {
                                let runs = s.runs().into_iter().flat_map(runs_in);
                                runs.map(|(run, ts)| (run, ts.into_iter().map(show).collect()))
                                    .collect()
                            };
                            assert_eq!(runs(store), runs(&fresh));
                            let records = |s: &BucketStore| -> BTreeSet<String> {
                                s.join()
                                    .into_iter()
                                    .flat_map(|j| j.records().map(show))
                                    .collect()
                            };
                            assert_eq!(records(store), records(&fresh));
                        }
                        // the detections kept as a session keeps them
                        let ids: BTreeSet<u64> = changes.keys().copied().collect();
                        let dirty: BTreeSet<u64> =
                            done.change.runs().map(|((_, hash), _)| hash).collect();
                        kept.retain(|((_, origin, _), key)| match (origin, key) {
                            (Origin::Unit(a, b), _) => !ids.contains(a) && !ids.contains(b),
                            (Origin::Bucket(_), Some(key)) => !dirty.contains(&run_of(key).1),
                            (Origin::Bucket(_), None) => unreachable!("a list unit names its key"),
                        });
                        let keys: BTreeMap<u64, &BlockKey> =
                            done.keys.iter().map(|k| (stable_hash_of(k), k)).collect();
                        for (m, origin, d) in found(&done.outs) {
                            let key = match origin {
                                Origin::Bucket(hash) => Some(keys[&hash].clone()),
                                Origin::Unit(..) => None,
                            };
                            kept.push(((m, origin, d), key));
                        }
                        let full = executor.run_group(data(), &schema, &members, None).unwrap();
                        let full: Vec<(usize, crate::DetectOutput)> =
                            full.into_iter().enumerate().collect();
                        let mut full = found(&full);
                        let mut held: Vec<_> = kept.iter().map(|(f, _)| f.clone()).collect();
                        full.sort();
                        held.sort();
                        assert_eq!(held, full, "kept detections against a full pass");
                    }
                });
            }
        }
        assert!(collided > 0, "no run held colliding keys");
    }

    /// The runs a full Block pass's shuffle hands over equal the store a
    /// reindex of the same table as inserts builds: bucket for bucket,
    /// members in table order, on one worker and on two. Covers two FDs
    /// sharing their key's columns, a lone FD over its Scope outputs, a
    /// list rule and an LSH rule.
    #[test]
    fn a_shuffled_store_matches_a_reindex_of_the_table() {
        let schema = Schema::parse("zipcode,name,city,salary,rate");
        let groups = groups(&schema);
        for engine in [Engine::sequential(), Engine::parallel(2)] {
            let executor = Executor::new(engine.clone());
            for group in [&groups[0], &groups[1], &groups[2], &groups[5]] {
                let members: Vec<&RulePipeline> = group.iter().collect();
                check(16, |g| {
                    // ids run against table order, so that order by id is
                    // not order by position
                    let n = g.range(1..64u64);
                    let row = |at: u64| {
                        let zip = Value::Int(g.range(0..5i64));
                        let name =
                            Value::str(["anne marie", "anna marie", "bob"][g.range(0..3usize)]);
                        let city = Value::str(["LA", "SF", "NY"][g.range(0..3usize)]);
                        let ints = [Value::Int(0), Value::Int(0)];
                        Tuple::new(n - at, [vec![zip, name, city], ints.to_vec()].concat())
                    };
                    let rows: Vec<Tuple> = (0..n).map(row).collect();
                    let data = PDataset::from_vec(engine.clone(), rows.clone());
                    let seq_of = |id| n - id;
                    let (_, seeded) = executor
                        .run_resident(data, &schema, &members, None, &seq_of)
                        .unwrap();
                    let seeded = seeded.expect("a Block or LSH pass seeds a store");
                    let mut built = BucketStore::new(&members);
                    let inserts = rows.iter().map(|t| (t.id(), None, Some(t)));
                    built.reindex(&engine, inserts, seq_of).unwrap();
                    let runs = |s: &BucketStore| -> BTreeMap<Run, Vec<String>> {
                        let runs = runs_in(s.runs().unwrap()).into_iter();
                        runs.map(|(run, ts)| (run, ts.into_iter().map(show).collect()))
                            .collect()
                    };
                    assert_eq!(runs(&seeded), runs(&built));
                    if !matches!(members[0].strategy, IterateStrategy::LshBlocks) {
                        assert_eq!(shown(&seeded), shown(&built));
                    }
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
            assert_eq!(store.buckets().count(), 2);
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
                .detect_picked(&[&pipeline], &store, &store.all(), None, guards)
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
            let buckets = store.buckets().flat_map(|(_, b)| b);
            let mut tuples: Vec<Tuple> = buckets.cloned().collect();
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
            assert_eq!(store.buckets().count(), 2);
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
            assert_eq!(store.replica_for(&[0]).unwrap().buckets().count(), 2);
            assert_eq!(store.replica_for(&[1]).unwrap().buckets().count(), 2);
        }

        #[test]
        fn composite_keys_resolve_order_insensitively() {
            let store = ReplicatedStore::build(&three_columns(), &[vec![0, 1]]);
            assert!(store.replica_for(&[1, 0]).is_some());
            assert!(store.replica_for(&[0]).is_none());
        }
    }
}
