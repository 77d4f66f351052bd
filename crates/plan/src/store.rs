//! The one resident bucket store: candidate buckets kept between detect
//! passes, so that a pass after a change re-detects only the buckets
//! the change touched (Appendix F's Block pushdown, and the resident
//! side of semi-naive evaluation).
//!
//! Three users read the same store:
//! * a batch Block pass hands its reducer's buckets over
//!   ([`crate::Executor::run_resident`]), and the cleanse loop's later
//!   rounds reindex only the tuples repair changed;
//! * an incremental session keeps one store per rule group — a Block
//!   or inequality group's seeded at open by the same full pass, any
//!   other group's by indexing every base tuple as an insert — and
//!   reindexes each delta;
//! * the storage manager builds one from a table on its key columns
//!   ([`BucketStore::on_columns`]), and pushdown is a detect over every
//!   bucket.
//!
//! The store keeps buckets only, with no record of what it indexed per
//! tuple: every change names the version its buckets hold, and
//! [`BucketStore::reindex`] drops that version's members and merges the
//! new version's in, bucket by touched bucket.
//!
//! An inequality rule's store holds no buckets: a [`JoinIndex`] over
//! its scoped records stands in for its one global bucket, seeded by the
//! sorted range parts of its first full OCJoin pass. A reindex stages
//! the change in it — the held versions stale, the new ones the fresh
//! side of the next join — and [`BucketStore::settle`] folds a joined
//! change in, before the next one is staged.
//!
//! The store only *chooses* what is re-detected ([`BucketStore::held`]).
//! Detection itself — the straggler gate, pair enumeration with a delta
//! as the freshness mask, Detect and GenFix — is
//! [`crate::Executor::detect_held`]'s, as for a shuffled pass, or
//! [`crate::Executor::detect_join`]'s over a join index, run for a whole
//! group by [`crate::group::RuleGroup::redetect`].

use crate::enumerate::{Band, Member, PairRule};
use crate::executor::Held;
use crate::physical::{IterateStrategy, RulePipeline};
use bigdansing_common::{Result, Table, Tuple, TupleId};
use bigdansing_dataflow::Engine;
use bigdansing_ocjoin::JoinIndex;
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
/// table order, or an inequality rule's join index. `M` is what a
/// bucket holds: bare units for a batch Block pass or a storage
/// partitioning, [`Entry`] for a session. The store keeps no record of
/// what it indexed: a change names the version its buckets hold.
#[derive(Clone, Debug)]
pub struct BucketStore<M = Entry> {
    keying: Keying,
    /// Bucket key → members, in shards: one per reducer partition of the
    /// pass that seeded the store, so seeding merges nothing. A key sits
    /// in one shard.
    shards: Vec<HashMap<BlockKey, Vec<M>>>,
    /// An inequality rule's records, sorted into range parts.
    join: Option<JoinIndex>,
}

/// One touched bucket of a [`BucketStore::reindex`]: the ids whose held
/// version leaves it, and the new members it gains, in table order.
type Touch<M> = (Vec<TupleId>, Vec<(u64, M)>);

impl<M: Member + Clone> BucketStore<M> {
    /// An empty store for a group as [`crate::physical::block_groups`]
    /// forms it.
    pub fn new(group: &[&RulePipeline]) -> BucketStore<M> {
        let join = match &group[0].strategy {
            IterateStrategy::OcJoin(conds) => Some(JoinIndex::new(conds)),
            _ => None,
        };
        BucketStore::seeded(Keying::of(group), vec![HashMap::new()], join)
    }

    /// A store over buckets already built, one shard per map (at least
    /// one), and an inequality rule's join index.
    pub(crate) fn seeded(
        keying: Keying,
        shards: Vec<HashMap<BlockKey, Vec<M>>>,
        join: Option<JoinIndex>,
    ) -> Self {
        BucketStore {
            keying,
            shards,
            join,
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
        BucketStore::seeded(keying, vec![buckets], None)
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

    /// Number of members across the buckets, or records of the join
    /// index.
    pub fn len(&self) -> usize {
        let joined = self.join.as_ref().map_or(0, |j| j.records().count());
        joined + self.iter().map(|(_, bucket)| bucket.len()).sum::<usize>()
    }

    /// True when no bucket, nor the join index, holds a member.
    pub fn is_empty(&self) -> bool {
        let held = |j: &JoinIndex| j.records().next().is_some();
        !self.join.as_ref().is_some_and(held) && self.shards.iter().all(HashMap::is_empty)
    }

    /// An inequality rule's join index.
    pub fn join(&self) -> Option<&JoinIndex> {
        self.join.as_ref()
    }

    /// Fold the change a [`BucketStore::reindex`] staged in the join
    /// index into it ([`JoinIndex::merge`]), once the change is joined
    /// and before the next is staged; buckets take a change as it comes,
    /// so this does nothing to them.
    pub fn settle(&mut self, engine: &Engine) -> Result<()> {
        self.join
            .as_mut()
            .map_or(Ok(()), |index| index.merge(engine))
    }

    fn get(&self, key: &BlockKey) -> Option<&Vec<M>> {
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
    /// A join index instead stages the change, held versions stale and
    /// new ones fresh ([`JoinIndex::stage`]), until
    /// [`BucketStore::settle`] folds it in; the one global bucket it
    /// stands in for is the bucket the change touched. A change staged
    /// before must have been folded in.
    ///
    /// # Panics
    ///
    /// When a new version enters a bucket that still holds a member
    /// with its id, or a join index holds no held version: the change
    /// did not name the version the store held.
    pub fn reindex<'a>(
        &mut self,
        changes: impl Iterator<Item = (TupleId, Option<&'a Tuple>, Option<&'a Tuple>)>,
        seq_of: impl Fn(TupleId) -> u64,
    ) -> Reindexed {
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
        if let Some(index) = &mut self.join {
            let touched = !gone.is_empty() || !news.is_empty();
            let keys = touched.then(|| (BlockKey::new(), !news.is_empty()));
            let news: Vec<Tuple> = news.into_iter().map(|(_, t)| t).collect();
            index.stage(gone.iter().map(|(_, held)| held), news.clone());
            let keys = keys.into_iter().collect();
            return Reindexed { news, keys };
        }
        let mut touched: BTreeMap<BlockKey, Touch<M>> = BTreeMap::new();
        for (id, held) in &gone {
            for (key, _) in self.keying.buckets_of(held) {
                touched.entry(key).or_default().0.push(*id);
            }
        }
        for ((seq, _), t) in &news {
            for (key, band) in self.keying.buckets_of(t) {
                let member = M::resident(t.clone(), band);
                touched.entry(key).or_default().1.push((*seq, member));
            }
        }
        let mut keys = BTreeMap::new();
        for (key, (mut gone, adds)) in touched {
            let gained = !adds.is_empty();
            let at = self.shards.iter().position(|s| s.contains_key(&key));
            let shard = &mut self.shards[at.unwrap_or(0)];
            let slot = shard.entry(key.clone()).or_default();
            if !gone.is_empty() {
                gone.sort_unstable();
                slot.retain(|m| gone.binary_search(&m.tuple().id()).is_err());
            }
            merge(slot, adds, &seq_of);
            if slot.is_empty() {
                shard.remove(&key);
            }
            keys.insert(key, gained);
        }
        let news = news.into_iter().map(|(_, t)| t).collect();
        Reindexed { news, keys }
    }

    /// Every bucket, for a detect over the whole store.
    pub fn all(&self) -> Held<M> {
        let buckets = self.iter().map(|(_, bucket)| bucket.clone()).collect();
        let scope = self.columns().is_some();
        Held::Buckets { buckets, scope }
    }

    /// What the `members` of the store's group re-evaluate after a
    /// [`BucketStore::reindex`] — the union of what each one picks —
    /// with the key of each bucket in it, index for index; `None` when
    /// that is nothing. Single units pick the new records, and so does
    /// an inequality rule: they are the fresh side its join index
    /// staged. A pair rule picks the buckets that gained a member and
    /// hold a pair, a list rule every bucket that changed and still has
    /// members.
    pub fn held(
        &self,
        members: &[&RulePipeline],
        change: &Reindexed,
    ) -> Option<(Held<M>, Vec<BlockKey>)> {
        let records = |records: &dyn Fn() -> Vec<Tuple>| {
            (!change.news.is_empty()).then(|| (Held::Records(records()), Vec::new()))
        };
        match &members[0].strategy {
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) => {
                records(&|| change.news.clone())
            }
            _ => {
                let (mut buckets, mut names) = (Vec::new(), Vec::new());
                for (key, &gained) in &change.keys {
                    let Some(bucket) = self.get(key) else {
                        continue;
                    };
                    let (first, rest) = (bucket[0].tuple(), &bucket[1..]);
                    let pairing = |r: PairRule| rest.iter().any(|m| r.admits(first, m.tuple()));
                    let picks = |p: &&RulePipeline| match p.strategy.pair_rule() {
                        Some(r) => gained && pairing(r),
                        None => true,
                    };
                    if members.iter().any(picks) {
                        buckets.push(bucket.clone());
                        names.push(key.clone());
                    }
                }
                let scope = self.columns().is_some();
                let held = Held::Buckets { buckets, scope };
                (!names.is_empty()).then_some((held, names))
            }
        }
    }
}

/// Merge `adds` — new members with their sequence numbers, in table
/// order — into `slot`, whose members are in table order by `seq_of`:
/// one binary search per new member, and one move of the members from
/// the first insertion point on.
fn merge<M: Member>(slot: &mut Vec<M>, adds: Vec<(u64, M)>, seq_of: impl Fn(TupleId) -> u64) {
    let seq = |m: &M| seq_of(m.tuple().id());
    let place = |(at_seq, new): &(u64, M)| {
        let at = slot.partition_point(|m| seq(m) < *at_seq);
        let held = slot.get(at).is_some_and(|m| seq(m) == *at_seq);
        assert!(
            !held,
            "tuple {} enters a bucket holding it",
            new.tuple().id()
        );
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
        let change = store.reindex([(1, Some(&rows[1]), Some(&moved))].into_iter(), |id| id);
        let zip = |z| BlockKey::single(Value::Int(z));
        let touched = BTreeMap::from([(zip(1), true), (zip(2), false)]);
        assert_eq!(change.keys, touched);
        let (Held::Buckets { buckets, .. }, names) = store.held(&[&pipeline], &change).unwrap()
        else {
            unreachable!("a Block store holds buckets");
        };
        assert_eq!(names, vec![zip(1)]);
        let ids: Vec<u64> = buckets[0].iter().map(|m| m.tuple().id()).collect();
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
        let mut store: BucketStore<Tuple> =
            BucketStore::seeded(Keying::of(&[&pipeline]), vec![seeded], None);
        let old = std::mem::replace(&mut table[1], row(1, 1));
        let change = store.reindex([(1, Some(&old), Some(&table[1]))].into_iter(), |id| id);
        let (Held::Buckets { buckets, scope }, names) = store.held(&[&pipeline], &change).unwrap()
        else {
            unreachable!("a Block store holds buckets");
        };
        assert!(!scope, "a lone rule's buckets hold its scoped records");
        assert_eq!(names, vec![zip(1)]);
        let all = scoped(&table.iter().collect::<Vec<_>>());
        assert_eq!(format!("{:?}", buckets[0]), format!("{all:?}"));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.reindex([(0, None, Some(&table[0]))].into_iter(), |id| id)
        }));
        assert!(refused.is_err(), "an insert into a bucket holding its id");
    }

    /// A bucket as the property compares it: each member's tuple and
    /// LSH band, in bucket order.
    type Shown = BTreeMap<BlockKey, Vec<String>>;

    fn show(t: &Tuple, band: Option<u32>) -> String {
        format!("{t:?}@{band:?}")
    }

    /// Random insert/update/delete batches, several changes per reindex
    /// and several into one bucket, against every keying: after each
    /// reindex every bucket equals a from-scratch bucketing of the live
    /// tuples in table order, and `keys` names exactly the buckets that
    /// lost or gained a member.
    #[test]
    fn reindex_matches_a_rebuild_after_every_batch() {
        let schema = Schema::parse("zipcode,name,city,salary,rate");
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let dc = "t1.salary > t2.salary & t1.rate < t2.rate";
        let dc: Arc<dyn Rule> = Arc::new(DcRule::parse(dc, &schema).unwrap());
        let dedup = DedupRule::new("udf:dedup", 1, 0.8).with_lsh(LshParams::default());
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
            vec![lone(Arc::new(dedup))],
        ];
        assert!(matches!(groups[3][0].strategy, IterateStrategy::OcJoin(_)));
        assert!(matches!(groups[4][0].strategy, IterateStrategy::LshBlocks));
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
                    records.flat_map(|r| {
                        keying
                            .buckets_of(&r)
                            .into_iter()
                            .map(move |b| (r.clone(), b))
                    })
                };
                let mut store: BucketStore = BucketStore::new(&members);
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
                    let change = store.reindex(batch, |id| live[&id].0);
                    let mut keys: BTreeMap<BlockKey, bool> = BTreeMap::new();
                    for (old, new) in changes.values() {
                        for (_, (key, _)) in old.iter().flat_map(bucketed) {
                            keys.entry(key).or_insert(false);
                        }
                        for (_, (key, _)) in new.iter().flat_map(bucketed) {
                            keys.insert(key, true);
                        }
                    }
                    assert_eq!(
                        change.keys, keys,
                        "the buckets that lost or gained a member"
                    );
                    let mut scratch = Shown::new();
                    let mut in_order: Vec<&(u64, Tuple)> = live.values().collect();
                    in_order.sort_by_key(|(seq, _)| *seq);
                    for (_, t) in in_order {
                        for (r, (key, band)) in bucketed(t) {
                            let member = show(&r, band.map(|(b, _)| b));
                            scratch.entry(key).or_default().push(member);
                        }
                    }
                    let held = store.iter().map(|(key, bucket)| {
                        let members = bucket
                            .iter()
                            .map(|m| show(m.tuple(), m.band().map(|b| b.0)));
                        (key.clone(), members.collect())
                    });
                    let mut held = held.collect::<Shown>();
                    // a join index stands in for the one global bucket,
                    // in its own order
                    store.settle(&Engine::sequential()).unwrap();
                    if let Some(index) = store.join() {
                        let records = index.records().map(|t| show(t, None));
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

    /// What a store holds, bucket for bucket: each member's tuple and
    /// LSH band, in bucket order.
    fn shown<M: Member + Clone>(store: &BucketStore<M>) -> Shown {
        let buckets = store.iter().map(|(key, bucket)| {
            let members = bucket
                .iter()
                .map(|m| show(m.tuple(), m.band().map(|b| b.0)));
            (key.clone(), members.collect())
        });
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
                    let (_, seeded) = executor
                        .run_resident::<Entry>(data, &schema, &members, None)
                        .unwrap();
                    let seeded = seeded.expect("a Block pass seeds a store");
                    let mut built: BucketStore = BucketStore::new(&members);
                    let inserts = rows.iter().map(|t| (t.id(), None, Some(t)));
                    built.reindex(inserts, |id| n - id);
                    assert_eq!(shown(&seeded), shown(&built));
                });
            }
        }
    }
}
