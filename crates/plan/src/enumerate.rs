//! The candidate-enumeration core: the two decisions every
//! [`IterateStrategy`] makes, each defined exactly once and shared by
//! the batch reducers in [`crate::executor`] and the incremental
//! session's persistent index.
//!
//! * **Index keys** ([`IterateStrategy::index_keys`]) — under which
//!   buckets a scoped unit is indexed: none, its Block key, the single
//!   global key, or one `(band, bucket hash)` key per LSH band.
//! * **The pair rule** ([`PairRule::pairs`]) — which pairs of a
//!   bucket's members are candidates and how they are oriented:
//!   `(earlier, later)` only or both orientations, the CrossProduct
//!   diagonal filter, and LSH's "compare a pair only in the first band
//!   it shares".
//!
//! Enumeration is semi-naive: [`PairRule::pairs`] takes a freshness
//! predicate and yields exactly the pairs with at least one fresh
//! member (`Δ×R ∪ Δ×Δ`). A full detect is the same enumeration with
//! everything fresh; the batch loop's re-detects pass the tuples repair
//! changed (a [`Delta`]) as the mask over the dirty buckets of the
//! table, carrying the earlier detections whose [`Origin`] the delta
//! left untouched, and a session passes its delta mask over
//! `residents ∪ news`.
//!
//! Rules that block on the same source columns share their buckets:
//! their Block keys are those columns' values, so one bucket — and its
//! [`bucket_hash`] — serves every one of them.

use crate::physical::{IterateStrategy, RulePipeline};
use bigdansing_common::codec::Codec;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, StableHasher, Tuple, TupleId, Value};
use bigdansing_rules::{BlockKey, Rule};
use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The LSH tag of a bucket member: the band of the bucket this copy of
/// the unit sits in, and the unit's bucket hash for every band.
pub type Band = (u32, Arc<[u64]>);

/// The buckets one scoped unit is indexed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKeys {
    /// Not bucketed: single-unit rules detect unit by unit, and
    /// inequality rules use the sorted OCJoin index instead.
    None,
    /// One bucket: the rule's Block key, or the empty *global* key
    /// shared by every unit of an unblocked pair strategy.
    One(BlockKey),
    /// One bucket per LSH band: band `k` uses the key `(k, hashes[k])`.
    Bands(Arc<[u64]>),
}

impl IndexKeys {
    /// Every bucket as an owned key plus the member's [`Band`] tag —
    /// the form a persistent index stores. Band keys embed the band
    /// index next to the bucket hash, so buckets of different bands can
    /// never be confused.
    pub fn buckets(self) -> Vec<(BlockKey, Option<Band>)> {
        match self {
            IndexKeys::None => Vec::new(),
            IndexKeys::One(key) => vec![(key, None)],
            IndexKeys::Bands(hashes) => (0..hashes.len())
                .map(|k| {
                    let key = vec![Value::Int(k as i64), Value::Int(hashes[k] as i64)];
                    (BlockKey::from(key), Some((k as u32, Arc::clone(&hashes))))
                })
                .collect(),
        }
    }
}

/// The candidate unit a detection came from — what a later delta needs
/// to know to decide whether the detection still stands: it is
/// retracted when a tuple of its generating unit changes, or (list
/// rules, whose unit is the whole bucket) when its bucket loses or
/// gains a member. `Copy`, so recording it costs a detect pass no
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// A single unit (both ids equal) or a pair of units.
    Unit(TupleId, TupleId),
    /// A whole bucket, by its [`bucket_hash`].
    Bucket(u64),
}

/// The hash that names the Block bucket `unit` sits in. Buckets are
/// marked dirty and whole-bucket detections retracted by this hash, so
/// a collision only ever makes two buckets dirty together: the pass
/// that re-detects dirty buckets and the caller that retracts their
/// earlier detections agree on which those are.
pub fn bucket_hash(rule: &dyn Rule, unit: &Tuple) -> u64 {
    key_hash(rule.block(unit).unwrap_or_default().iter())
}

/// The stable hash of the Block key made of `values`, without building
/// the key: it hashes exactly as the [`BlockKey`] holding them would.
fn key_hash<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(values.len()); // a slice's length prefix
    values.for_each(|v| v.hash(&mut h));
    h.finish()
}

/// [`key_hash`] of `t`'s values at `cols`: by the
/// [`Rule::block_columns`] contract, the [`bucket_hash`] of every Scope
/// output of `t` under a rule that declares them.
fn columns_hash(cols: &[usize], t: &Tuple) -> u64 {
    key_hash(cols.iter().map(|&c| t.value(c)))
}

/// What a Block pass buckets by. A rule alone in its group keys its
/// Scope outputs with its own Block; rules that declare the same
/// [`Rule::block_columns`] share one pass keyed by those source
/// columns, so the source tuple crosses the shuffle once and each rule
/// scopes it in the reducer. Either way a bucket's hash is the
/// [`bucket_hash`] of every member's units in it, because their Block
/// keys are those column values.
#[derive(Clone)]
pub(crate) enum BlockBy {
    /// One rule's Block over its Scope outputs.
    Rule(Arc<dyn Rule>),
    /// Source-schema columns shared by every rule of the group.
    Columns(Arc<[usize]>),
}

impl BlockBy {
    /// The key of a group's pipelines, in registration order: shared
    /// columns when there are several (the planner grouped them by
    /// them), the lone rule's Block otherwise.
    pub(crate) fn of(group: &[&RulePipeline]) -> BlockBy {
        match group {
            [one] => BlockBy::Rule(Arc::clone(&one.rule)),
            [lead, ..] => BlockBy::Columns(
                lead.rule
                    .block_columns()
                    .expect("grouped pipelines declare their block columns")
                    .into(),
            ),
            [] => unreachable!("a group has at least one pipeline"),
        }
    }

    /// The Block key of a shuffled record.
    pub(crate) fn key(&self, record: &Tuple) -> BlockKey {
        match self {
            BlockBy::Rule(rule) => rule.block(record).unwrap_or_default(),
            BlockBy::Columns(cols) => cols.iter().map(|&c| record.value(c).clone()).collect(),
        }
    }

    /// The hash of [`BlockBy::key`] — the bucket's [`Origin::Bucket`]
    /// name.
    pub(crate) fn hash(&self, record: &Tuple) -> u64 {
        match self {
            BlockBy::Rule(rule) => bucket_hash(rule.as_ref(), record),
            BlockBy::Columns(cols) => columns_hash(cols, record),
        }
    }
}

impl Codec for Origin {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tagged = match *self {
            Origin::Unit(a, b) => (0u64, (a, b)),
            Origin::Bucket(hash) => (1, (hash, 0)),
        };
        tagged.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> bigdansing_common::Result<Self> {
        match <(u64, (u64, u64))>::decode(buf)? {
            (0, (a, b)) => Ok(Origin::Unit(a, b)),
            (1, (hash, _)) => Ok(Origin::Bucket(hash)),
            (tag, _) => Err(Error::Parse(format!("origin codec: bad tag {tag}"))),
        }
    }
}

/// The semi-naive delta of a re-detect: what changed since the
/// detections being extended were produced. A pass given a delta
/// evaluates only the candidate units with at least one changed member
/// (`Δ×R ∪ Δ×Δ`; whole dirty buckets for list rules); a pass given none
/// treats every tuple as fresh — a full detect.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Ids of the changed tuples: the freshness mask.
    pub ids: HashSet<TupleId>,
    /// Their versions before and after the change — every bucket either
    /// version is indexed under is dirty.
    pub versions: Vec<Tuple>,
}

impl Delta {
    /// Whether `unit` is (a Scope output of) a changed tuple.
    pub fn is_fresh(&self, unit: &Tuple) -> bool {
        self.ids.contains(&unit.id())
    }

    /// The dirty Block buckets of `pipeline`, by [`bucket_hash`]: those
    /// either version of a changed tuple sits in. They are read off the
    /// source columns when the rule declares its
    /// [`Rule::block_columns`], so a pass it shares with other rules and
    /// a pass it runs alone agree on them; otherwise off the rule's
    /// Scope outputs.
    pub fn dirty_buckets(&self, pipeline: &RulePipeline) -> HashSet<u64> {
        let rule = pipeline.rule.as_ref();
        match rule.block_columns().filter(|_| pipeline.use_scope) {
            Some(cols) => self
                .versions
                .iter()
                .map(|t| columns_hash(cols, t))
                .collect(),
            None => {
                let scoped = self.versions.iter().flat_map(|t| rule.scope(t));
                scoped.map(|unit| bucket_hash(rule, &unit)).collect()
            }
        }
    }
}

impl IterateStrategy {
    /// The buckets `unit` (a Scope output of `rule`) is indexed under.
    pub fn index_keys(&self, rule: &dyn Rule, unit: &Tuple) -> IndexKeys {
        match self {
            IterateStrategy::SingleUnits | IterateStrategy::OcJoin(_) => IndexKeys::None,
            IterateStrategy::BlockPairs { .. } | IterateStrategy::BlockList => {
                IndexKeys::One(rule.block(unit).unwrap_or_default())
            }
            IterateStrategy::UCrossProduct | IterateStrategy::CrossProduct => {
                IndexKeys::One(BlockKey::new())
            }
            IterateStrategy::LshBlocks {
                bands,
                rows_per_band,
            } => IndexKeys::Bands(rule.lsh_band_hashes(unit, *bands, *rows_per_band).into()),
        }
    }

    /// How candidate pairs are drawn from a bucket, or `None` for
    /// strategies whose units are not pairs of bucket members (single
    /// units, whole-bucket lists, OCJoin).
    pub fn pair_rule(&self) -> Option<PairRule> {
        let rule = |both_orientations, distinct_ids, first_shared_band| {
            Some(PairRule {
                both_orientations,
                distinct_ids,
                first_shared_band,
            })
        };
        match self {
            IterateStrategy::BlockPairs { ordered } => rule(*ordered, false, false),
            IterateStrategy::UCrossProduct => rule(false, false, false),
            IterateStrategy::CrossProduct => rule(true, true, false),
            IterateStrategy::LshBlocks { .. } => rule(false, false, true),
            IterateStrategy::SingleUnits
            | IterateStrategy::BlockList
            | IterateStrategy::OcJoin(_) => None,
        }
    }
}

/// One member of a candidate bucket.
pub trait Member {
    /// The scoped unit.
    fn tuple(&self) -> &Tuple;

    /// The band of the bucket this member sits in and the unit's bucket
    /// hash per band (LSH buckets only).
    fn band(&self) -> Option<(u32, &[u64])> {
        None
    }

    /// A bucket as the unit slice a whole-bucket Detect borrows: the
    /// bucket itself when its members are bare units, else a copy of
    /// their handles.
    fn units(bucket: &[Self]) -> Cow<'_, [Tuple]>
    where
        Self: Sized,
    {
        Cow::Owned(bucket.iter().map(|m| m.tuple().clone()).collect())
    }
}

impl Member for Tuple {
    fn tuple(&self) -> &Tuple {
        self
    }

    fn units(bucket: &[Tuple]) -> Cow<'_, [Tuple]> {
        Cow::Borrowed(bucket)
    }
}

/// The batch LSH shuffle record: `(band, band hashes, unit)`.
impl Member for (u32, Arc<[u64]>, Tuple) {
    fn tuple(&self) -> &Tuple {
        &self.2
    }

    fn band(&self) -> Option<(u32, &[u64])> {
        Some((self.0, &self.1))
    }
}

/// Running totals over [`PairRule::pairs`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Pairs handed to `emit` (each orientation counts).
    pub emitted: u64,
    /// Pairs skipped by the first-shared-band rule: they are compared
    /// exactly once, in the bucket of an earlier band.
    pub pruned: u64,
    /// Buckets of two or more members enumerated.
    pub buckets: u64,
}

/// Which pairs of a bucket's members are candidate units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRule {
    /// Emit `(a, b)` and `(b, a)` (order-sensitive Detect) instead of
    /// only `(earlier, later)` by bucket position.
    pub both_orientations: bool,
    /// Never pair two scoped units of the same source tuple — the
    /// CrossProduct diagonal filter.
    pub distinct_ids: bool,
    /// LSH: a pair colliding in several bands is a candidate only in
    /// the bucket of the first band both members agree on.
    pub first_shared_band: bool,
}

impl PairRule {
    /// Whether `(a, b)` may be a candidate at all (the diagonal
    /// filter). Applied by [`PairRule::pairs`]; exposed for enumerators
    /// that draw pairs from an engine cartesian instead of a bucket.
    #[inline]
    pub fn admits(&self, a: &Tuple, b: &Tuple) -> bool {
        !(self.distinct_ids && a.id() == b.id())
    }

    /// True when this bucket is the one `a` and `b` are compared in.
    #[inline]
    fn compared_here<M: Member>(&self, a: &M, b: &M) -> bool {
        if !self.first_shared_band {
            return true;
        }
        match (a.band(), b.band()) {
            (Some((band, ha)), Some((_, hb))) => {
                ha.iter().zip(hb).position(|(x, y)| x == y) == Some(band as usize)
            }
            _ => true,
        }
    }

    /// Apply the rule to one pair, `a` before `b` in bucket order.
    #[inline]
    fn visit<M: Member, E>(
        &self,
        a: &M,
        b: &M,
        counts: &mut PairCounts,
        emit: &mut impl FnMut(&Tuple, &Tuple) -> Result<(), E>,
    ) -> Result<(), E> {
        if !self.admits(a.tuple(), b.tuple()) {
            return Ok(());
        }
        if !self.compared_here(a, b) {
            counts.pruned += 1;
            return Ok(());
        }
        counts.emitted += 1;
        emit(a.tuple(), b.tuple())?;
        if self.both_orientations {
            counts.emitted += 1;
            emit(b.tuple(), a.tuple())?;
        }
        Ok(())
    }

    /// Enumerate the candidate pairs of `bucket` (members in table
    /// order) that involve at least one fresh member, each exactly
    /// once, calling `emit(a, b)` per candidate unit and adding to
    /// `counts`.
    ///
    /// With everything fresh this is the plain `i < j` nested loop;
    /// otherwise only the fresh members drive the outer loop, so a
    /// bucket of `n` with `k` fresh members costs `O(k·n)`.
    pub fn pairs<M: Member, E>(
        &self,
        bucket: &[M],
        is_fresh: impl Fn(&M) -> bool,
        counts: &mut PairCounts,
        mut emit: impl FnMut(&Tuple, &Tuple) -> Result<(), E>,
    ) -> Result<(), E> {
        counts.buckets += u64::from(bucket.len() > 1);
        if bucket.iter().all(&is_fresh) {
            for i in 0..bucket.len() {
                for j in (i + 1)..bucket.len() {
                    self.visit(&bucket[i], &bucket[j], counts, &mut emit)?;
                }
            }
            return Ok(());
        }
        let fresh: Vec<bool> = bucket.iter().map(is_fresh).collect();
        for (f, a) in bucket.iter().enumerate().filter(|(f, _)| fresh[*f]) {
            for (j, b) in bucket.iter().enumerate() {
                // fresh×fresh pairs belong to the earlier of the two
                if j == f || (fresh[j] && j < f) {
                    continue;
                }
                let (lo, hi) = if j < f { (b, a) } else { (a, b) };
                self.visit(lo, hi, counts, &mut emit)?;
            }
        }
        Ok(())
    }

    /// Fold enumeration totals into the engine counters:
    /// `pairs_generated` always; for LSH also the candidate pairs
    /// actually compared, the cross-band encounters pruned, and the
    /// band buckets enumerated.
    pub fn record(&self, counts: &PairCounts, metrics: &Metrics) {
        Metrics::add(&metrics.pairs_generated, counts.emitted);
        if self.first_shared_band {
            Metrics::add(&metrics.lsh_candidate_pairs, counts.emitted);
            Metrics::add(&metrics.lsh_pairs_pruned, counts.pruned);
            Metrics::add(&metrics.lsh_bands_probed, counts.buckets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::LshParams;
    use bigdansing_rules::{DedupRule, FdRule};
    use std::convert::Infallible;

    fn t(id: u64, name: &str) -> Tuple {
        Tuple::new(id, vec![Value::str(name), Value::str("LA")])
    }

    fn collect<M: Member>(
        rule: PairRule,
        bucket: &[M],
        fresh: impl Fn(&M) -> bool,
    ) -> (Vec<(u64, u64)>, PairCounts) {
        let (mut out, mut counts) = (Vec::new(), PairCounts::default());
        rule.pairs(bucket, fresh, &mut counts, |a, b| {
            out.push((a.id(), b.id()));
            Ok::<(), Infallible>(())
        })
        .unwrap();
        (out, counts)
    }

    #[test]
    fn index_keys_per_strategy() {
        let schema = bigdansing_common::Schema::parse("name,city");
        let fd = FdRule::parse("name -> city", &schema).unwrap();
        let row = t(1, "Robert");
        let scoped = &fd.scope(&row)[0];
        let blocked = IterateStrategy::BlockPairs { ordered: false };
        assert_eq!(
            blocked.index_keys(&fd, scoped),
            IndexKeys::One(fd.block(scoped).unwrap())
        );
        assert_eq!(
            IterateStrategy::UCrossProduct.index_keys(&fd, scoped),
            IndexKeys::One(BlockKey::new())
        );
        assert_eq!(
            IterateStrategy::SingleUnits.index_keys(&fd, scoped),
            IndexKeys::None
        );
        assert!(IndexKeys::None.buckets().is_empty());
    }

    #[test]
    fn shared_columns_key_and_hash_like_every_members_block() {
        use crate::physical::pipeline_for_rule;
        use bigdansing_common::stable_hash_of;
        let schema = bigdansing_common::Schema::parse("zipcode,city,state");
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let rules = [fd("zipcode -> city"), fd("zipcode -> state")];
        let pipelines = rules.clone().map(|r| pipeline_for_rule(r, "t"));
        let by = BlockBy::of(&[&pipelines[0], &pipelines[1]]);
        let row = Tuple::new(
            7,
            vec![Value::Int(90210), Value::str("LA"), Value::str("CA")],
        );
        for rule in &rules {
            let unit = &rule.scope(&row)[0];
            let key = rule.block(unit).unwrap();
            assert_eq!(by.key(&row), key);
            assert_eq!(by.hash(&row), bucket_hash(rule.as_ref(), unit));
            assert_eq!(by.hash(&row), stable_hash_of(&key));
        }
    }

    #[test]
    fn band_buckets_embed_the_band_index() {
        let p = LshParams::default();
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_lsh(p);
        let strategy = IterateStrategy::LshBlocks {
            bands: p.bands,
            rows_per_band: p.rows_per_band,
        };
        let buckets = strategy.index_keys(&r, &t(1, "Robert")).buckets();
        assert_eq!(buckets.len(), p.bands);
        for (k, (key, band)) in buckets.iter().enumerate() {
            assert_eq!(key.values()[0], Value::Int(k as i64));
            let (band, hashes) = band.as_ref().unwrap();
            assert_eq!(*band as usize, k);
            assert_eq!(key.values()[1], Value::Int(hashes[k] as i64));
        }
    }

    #[test]
    fn orientation_and_diagonal() {
        let bucket = vec![t(1, "a"), t(1, "a2"), t(2, "b")];
        let unordered = IterateStrategy::UCrossProduct.pair_rule().unwrap();
        let (pairs, counts) = collect(unordered, &bucket, |_| true);
        assert_eq!(pairs, vec![(1, 1), (1, 2), (1, 2)]);
        assert_eq!(counts.emitted, 3);
        let cross = IterateStrategy::CrossProduct.pair_rule().unwrap();
        let (pairs, _) = collect(cross, &bucket, |_| true);
        assert_eq!(pairs, vec![(1, 2), (2, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn only_pairs_with_a_fresh_member() {
        let bucket: Vec<Tuple> = (0..5).map(|i| t(i, "x")).collect();
        let rule = IterateStrategy::BlockPairs { ordered: false }
            .pair_rule()
            .unwrap();
        let (mut pairs, _) = collect(rule, &bucket, |m| m.id() == 1 || m.id() == 3);
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        );
        let (none, _) = collect(rule, &bucket, |_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn first_shared_band_compares_each_pair_once() {
        let rule = IterateStrategy::LshBlocks {
            bands: 3,
            rows_per_band: 1,
        }
        .pair_rule()
        .unwrap();
        // a and b agree on bands 0 and 2: compared in band 0's bucket,
        // pruned in band 2's.
        let (ha, hb): (Arc<[u64]>, Arc<[u64]>) = (vec![7, 1, 9].into(), vec![7, 2, 9].into());
        let bucket = |band: u32| vec![(band, ha.clone(), t(1, "a")), (band, hb.clone(), t(2, "b"))];
        let (first, counts) = collect(rule, &bucket(0), |_| true);
        assert_eq!((first, counts.pruned), (vec![(1, 2)], 0));
        let (later, counts) = collect(rule, &bucket(2), |_| true);
        assert_eq!((later, counts.pruned), (vec![], 1));
    }
}
