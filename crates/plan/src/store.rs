//! The one resident bucket store: candidate buckets kept between detect
//! passes, so that a pass after a change re-detects only the buckets
//! the change touched (Appendix F's Block pushdown, and the resident
//! side of semi-naive evaluation).
//!
//! Three users read the same store:
//! * a batch Block pass hands its reducer's buckets over
//!   ([`crate::Executor::run_resident`]), and the cleanse loop's later
//!   rounds reindex only the tuples repair changed;
//! * an incremental session keeps one store per rule group and
//!   reindexes each delta;
//! * the storage manager builds one from a table on its key columns
//!   ([`BucketStore::on_columns`]), and pushdown is a detect over every
//!   bucket.
//!
//! The store only *chooses* what is re-detected ([`BucketStore::held`],
//! [`BucketStore::buckets`]). Detection itself — the straggler gate,
//! pair enumeration with a delta as the freshness mask, Detect and
//! GenFix — is [`crate::Executor::detect_held`]'s, as for a shuffled
//! pass.

use crate::enumerate::{Band, Member, PairRule};
use crate::executor::Held;
use crate::physical::{IterateStrategy, RulePipeline};
use bigdansing_common::{Table, Tuple, TupleId};
use bigdansing_rules::BlockKey;
use std::collections::{BTreeMap, HashMap};

/// A session's bucket member: the scoped unit and, in an LSH bucket,
/// its band tag.
#[derive(Clone)]
pub struct Entry {
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

    fn resident(tuple: Tuple, band: Option<Band>) -> Entry {
        Entry { tuple, band }
    }
}

/// What one [`BucketStore::reindex`] changed.
pub struct Reindexed {
    /// The newly indexed records, in table order.
    pub news: Vec<Tuple>,
    /// Every bucket that lost or gained a member, and whether it gained
    /// one (only those can yield new pairs).
    pub keys: BTreeMap<BlockKey, bool>,
}

/// How a group's records are bucketed. A rule alone keys its Scope
/// outputs with its [`IterateStrategy::index_keys`]; rules that declare
/// the same [`bigdansing_rules::Rule::block_columns`] share buckets
/// keyed by those source columns, so a source tuple is held (and crosses
/// a shuffle) once and each rule scopes it where it is detected. Either
/// way a Block bucket's key is each member rule's Block key of the
/// units in it, since those are the columns' values.
#[derive(Clone, Debug)]
pub(crate) enum Keying {
    /// Source tuples, bucketed by their values at these columns.
    Columns(Vec<usize>),
    /// One rule's Scope outputs, bucketed by its index keys.
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

    /// The buckets a record sits in.
    fn buckets_of(&self, record: &Tuple) -> Vec<(BlockKey, Option<Band>)> {
        match self {
            Keying::Columns(_) => vec![(self.key(record), None)],
            Keying::Lone(lone) => lone.strategy.index_keys(lone.rule.as_ref(), record),
        }
    }
}

/// Resident candidate buckets over one group's records, members in
/// table order. `M` is what a bucket holds: bare units for a batch Block
/// pass or a storage partitioning, [`Entry`] for a session.
#[derive(Clone, Debug)]
pub struct BucketStore<M = Entry> {
    keying: Keying,
    /// Records per source tuple (`rep` order) with the sequence number
    /// they were indexed under, for a store that indexed them itself.
    /// A store seeded from buckets built elsewhere records nothing
    /// (`None`): a change names the version it holds.
    records: Option<HashMap<TupleId, (u64, Vec<Tuple>)>>,
    /// Bucket key → members, in shards: one per reducer partition of the
    /// pass that seeded the store, so seeding merges nothing. A key sits
    /// in one shard.
    shards: Vec<HashMap<BlockKey, Vec<M>>>,
}

impl<M: Member + Clone> BucketStore<M> {
    /// An empty store for a group as [`crate::physical::block_groups`]
    /// forms it.
    pub fn new(group: &[&RulePipeline]) -> BucketStore<M> {
        BucketStore {
            keying: Keying::of(group),
            records: Some(HashMap::new()),
            shards: vec![HashMap::new()],
        }
    }

    /// A store over buckets already built, one shard per map (at least
    /// one).
    pub(crate) fn seeded(keying: Keying, shards: Vec<HashMap<BlockKey, Vec<M>>>) -> Self {
        BucketStore {
            keying,
            records: None,
            shards,
        }
    }

    /// `table`'s tuples bucketed by their values at `columns`: the
    /// table, content-partitioned.
    pub fn on_columns(table: &Table, columns: &[usize]) -> BucketStore<M> {
        let keying = Keying::Columns(columns.to_vec());
        let mut buckets: HashMap<BlockKey, Vec<M>> = HashMap::new();
        for t in table.tuples() {
            let slot = buckets.entry(keying.key(t)).or_default();
            slot.push(M::resident(t.clone(), None));
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
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &Vec<M>)> {
        self.shards.iter().flatten()
    }

    /// Number of members across the buckets.
    pub fn len(&self) -> usize {
        self.iter().map(|(_, bucket)| bucket.len()).sum()
    }

    /// True when no bucket holds a member.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    fn shard_of(&self, key: &BlockKey) -> Option<usize> {
        self.shards.iter().position(|s| s.contains_key(key))
    }

    /// Replace the indexed versions of the given tuples, each change an
    /// id, the version the buckets hold and its new version (`None`: not
    /// held, or deleted): drop the id's old members, then index its new
    /// version. A store that indexed its records drops what it recorded;
    /// a seeded one drops the members of the held version the change
    /// names, and refuses a change that names none. `seq_of` gives every
    /// live tuple's table-order sequence number; members stay sorted by
    /// it.
    pub fn reindex<'a>(
        &mut self,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>, Option<&'a Tuple>)>,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Reindexed {
        let mut keys: BTreeMap<BlockKey, bool> = BTreeMap::new();
        let mut news: Vec<((u64, u32), Tuple)> = Vec::new();
        for (id, old, new) in changes {
            let reps = match &mut self.records {
                Some(records) => records.remove(&id).unwrap_or_default().1,
                None => self
                    .keying
                    .records_of(old.expect("a seeded store is told the version it holds")),
            };
            for (key, _) in reps.iter().flat_map(|t| self.keying.buckets_of(t)) {
                if let Some(at) = self.shard_of(&key) {
                    let slot = self.shards[at].get_mut(&key).expect("the shard holds it");
                    slot.retain(|m| m.tuple().id() != id);
                    if slot.is_empty() {
                        self.shards[at].remove(&key);
                    }
                }
                keys.entry(key).or_insert(false);
            }
            if let Some(t) = new {
                let (seq, reps) = (seq_of(id), self.keying.records_of(t));
                let placed = reps.iter().enumerate();
                news.extend(placed.map(|(rep, s)| ((seq, rep as u32), s.clone())));
                if let Some(records) = &mut self.records {
                    records.insert(id, (seq, reps));
                }
            }
        }
        news.sort_by_key(|(pos, _)| *pos);
        for ((seq, _), t) in &news {
            for (key, band) in self.keying.buckets_of(t) {
                let at = self.shard_of(&key).unwrap_or(0);
                let slot = self.shards[at].entry(key.clone()).or_default();
                // a rebuild appends in table order: try the tail first
                let before = |m: &M| seq_of(m.tuple().id()) <= *seq;
                let at = match slot.last() {
                    Some(last) if !before(last) => slot.partition_point(before),
                    _ => slot.len(),
                };
                slot.insert(at, M::resident(t.clone(), band));
                keys.insert(key, true);
            }
        }
        let news = news.into_iter().map(|(_, t)| t).collect();
        Reindexed { news, keys }
    }

    /// The buckets of `keys` that still have members, with their keys,
    /// index for index: every one, or under a pair rule only those that
    /// gained a member and hold a pair (only those can yield new pairs).
    pub fn buckets(
        &self,
        keys: &BTreeMap<BlockKey, bool>,
        pairs: Option<PairRule>,
    ) -> (Held<M>, Vec<BlockKey>) {
        let (mut buckets, mut names) = (Vec::new(), Vec::new());
        for (key, gained) in keys {
            let Some(bucket) = self.shards.iter().find_map(|s| s.get(key)) else {
                continue;
            };
            let (first, rest) = (bucket[0].tuple(), &bucket[1..]);
            let pairing = |r: PairRule| rest.iter().any(|m| r.admits(first, m.tuple()));
            if pairs.is_some_and(|r| !gained || !pairing(r)) {
                continue;
            }
            buckets.push(bucket.clone());
            names.push(key.clone());
        }
        let scope = self.columns().is_some();
        (Held::Buckets { buckets, scope }, names)
    }

    /// Every bucket, for a detect over the whole store.
    pub fn all(&self) -> Held<M> {
        let buckets = self.iter().map(|(_, bucket)| bucket.clone()).collect();
        let scope = self.columns().is_some();
        Held::Buckets { buckets, scope }
    }

    /// What `pipeline` re-evaluates after a [`BucketStore::reindex`],
    /// with the key of each bucket in it, index for index — `None` when
    /// that is nothing. Single units: the new records. An inequality
    /// rule: every held record, in table order, once a record is new. A
    /// pair rule: the buckets that gained a member and hold a pair. A
    /// list rule: every bucket that changed and still has members.
    pub fn held(
        &self,
        pipeline: &RulePipeline,
        change: &Reindexed,
    ) -> Option<(Held<M>, Vec<BlockKey>)> {
        let records = match &pipeline.strategy {
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) if change.news.is_empty() => {
                return None
            }
            IterateStrategy::SingleUnits => change.news.clone(),
            IterateStrategy::OcJoin(_) => {
                let mut held: Vec<((u64, usize), &Tuple)> = Vec::new();
                for (seq, reps) in self.records.iter().flat_map(HashMap::values) {
                    held.extend(reps.iter().enumerate().map(|(rep, t)| ((*seq, rep), t)));
                }
                held.sort_unstable_by_key(|(pos, _)| *pos);
                held.into_iter().map(|(_, t)| t.clone()).collect()
            }
            bucketed => {
                let (held, names) = self.buckets(&change.keys, bucketed.pair_rule());
                return (!names.is_empty()).then_some((held, names));
            }
        };
        Some((Held::Records(records), Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::bucket_hash;
    use crate::physical::pipeline_for_rule;
    use bigdansing_common::{stable_hash_of, Schema, Value};
    use bigdansing_rules::{FdRule, Rule};
    use std::sync::Arc;

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
        let mut store: BucketStore = BucketStore::new(&[&pipeline]);
        let row = |id, zip| Tuple::new(id, vec![Value::Int(zip), Value::str("LA")]);
        let rows = [row(0, 1), row(1, 2), row(2, 1)];
        store.reindex(rows.iter().map(|t| (t.id(), None, Some(t))), |id| id);
        assert_eq!((store.iter().count(), store.len()), (2, 3));
        // tuple 1 moves into zip 1's bucket, between tuples 0 and 2
        let moved = row(1, 1);
        let change = store.reindex([(1, None, Some(&moved))].into_iter(), |id| id);
        let zip = |z| BlockKey::single(Value::Int(z));
        let touched = BTreeMap::from([(zip(1), true), (zip(2), false)]);
        assert_eq!(change.keys, touched);
        let (Held::Buckets { buckets, .. }, names) = store.buckets(&change.keys, None) else {
            unreachable!("a Block store holds buckets");
        };
        assert_eq!(names, vec![zip(1)]);
        let ids: Vec<u64> = buckets[0].iter().map(|m| m.tuple().id()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// A store seeded from a lone FD's buckets of Scope outputs records
    /// nothing: a change names the version its buckets hold, which moves
    /// the FD's scoped record between buckets in table order, and a
    /// change that names none is refused.
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
        let mut store: BucketStore<Tuple> =
            BucketStore::seeded(Keying::of(&[&pipeline]), vec![seeded]);
        let old = std::mem::replace(&mut table[1], row(1, 1));
        let change = store.reindex([(1, Some(&old), Some(&table[1]))].into_iter(), |id| id);
        let (Held::Buckets { buckets, scope }, names) = store.buckets(&change.keys, None) else {
            unreachable!("a Block store holds buckets");
        };
        assert!(!scope, "a lone rule's buckets hold its scoped records");
        assert_eq!(names, vec![zip(1)]);
        let all = scoped(&table.iter().collect::<Vec<_>>());
        assert_eq!(format!("{:?}", buckets[0]), format!("{all:?}"));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.reindex([(0, None, Some(&table[0]))].into_iter(), |id| id)
        }));
        assert!(refused.is_err(), "a seeded store needs the held version");
    }
}
