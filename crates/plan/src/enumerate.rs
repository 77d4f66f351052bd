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
//! everything fresh; a re-detect — a batch round after repair, or a
//! session apply — passes the changed tuples (a [`Delta`]) as the mask
//! over the buckets of the resident [`crate::store::BucketStore`] they
//! touched, and the caller carries the earlier detections whose
//! [`Origin`] the delta left untouched.
//!
//! Rules that block on the same source columns share their buckets:
//! their Block keys are those columns' values, so one bucket — and its
//! [`bucket_hash`] — serves every one of them.

use crate::physical::IterateStrategy;
use bigdansing_common::codec::Codec;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{stable_hash_of, Error, Tuple, TupleId, Value};
use bigdansing_rules::{BlockKey, Rule};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// The LSH tag of a bucket member: the band of the bucket this copy of
/// the unit sits in, and the unit's bucket hash for every band.
pub type Band = (u32, Arc<[u64]>);

/// The candidate unit a detection came from — what a later delta needs
/// to know to decide whether the detection still stands: it is
/// retracted when a tuple of its generating unit changes, or (list
/// rules, whose unit is the whole bucket) when its bucket loses or
/// gains a member. `Copy`, so recording it costs a detect pass no
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// A single unit (both ids equal) or a pair of units.
    Unit(TupleId, TupleId),
    /// A whole bucket: its [`bucket_hash`].
    Bucket(u64),
}

/// The hash that names the Block bucket `unit` sits in: the
/// [`stable_hash_of`] its Block key. A list unit's detections are
/// retracted by it when its bucket changes.
pub fn bucket_hash(rule: &dyn Rule, unit: &Tuple) -> u64 {
    stable_hash_of(&rule.block(unit).unwrap_or_default())
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

/// The semi-naive delta of a re-detect: the tuples changed since the
/// detections being extended were produced. A pass given a delta
/// evaluates only the candidate units with at least one changed member
/// (`Δ×R ∪ Δ×Δ`; whole changed buckets for list rules); a pass given
/// none treats every tuple as fresh — a full detect.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Ids of the changed tuples: the freshness mask.
    pub ids: HashSet<TupleId>,
}

impl Delta {
    /// Whether `unit` is (a Scope output of) a changed tuple.
    pub fn is_fresh(&self, unit: &Tuple) -> bool {
        self.ids.contains(&unit.id())
    }
}

impl IterateStrategy {
    /// Whether the strategy blocks (`BlockPairs`/`BlockList`): a full
    /// pass shuffles into buckets a [`crate::BucketStore`] can keep.
    pub fn blocks(&self) -> bool {
        matches!(self, Self::BlockPairs { .. } | Self::BlockList)
    }

    /// Whether a full pass seeds the group's [`crate::BucketStore`]: a
    /// Block pass hands over its buckets, an OCJoin pass its sorted
    /// range parts.
    pub fn resides(&self) -> bool {
        self.blocks() || matches!(self, Self::OcJoin(_))
    }

    /// The buckets `unit` (a Scope output of `rule`) is indexed under,
    /// each with the member's [`Band`] tag: none (single units), the
    /// rule's Block key, the one empty *global* key of an unblocked pair
    /// strategy or an inequality rule (whose join index stands in for
    /// the bucket), or one key per LSH band — band `k` under `(k, hashes[k])`, so
    /// buckets of different bands never meet.
    pub fn index_keys(&self, rule: &dyn Rule, unit: &Tuple) -> Vec<(BlockKey, Option<Band>)> {
        match self {
            IterateStrategy::SingleUnits => Vec::new(),
            IterateStrategy::BlockPairs { .. } | IterateStrategy::BlockList => {
                vec![(rule.block(unit).unwrap_or_default(), None)]
            }
            IterateStrategy::UCrossProduct
            | IterateStrategy::CrossProduct
            | IterateStrategy::OcJoin(_) => vec![(BlockKey::new(), None)],
            IterateStrategy::LshBlocks => {
                let hashes: Arc<[u64]> = rule.lsh_band_hashes(unit).into();
                let band = |k: usize| {
                    let key = vec![Value::Int(k as i64), Value::Int(hashes[k] as i64)];
                    (BlockKey::from(key), Some((k as u32, Arc::clone(&hashes))))
                };
                (0..hashes.len()).map(band).collect()
            }
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
            IterateStrategy::LshBlocks => rule(false, false, true),
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

    /// The member holding `tuple` in a resident bucket, with its
    /// [`Band`] tag in an LSH bucket.
    fn resident(tuple: Tuple, band: Option<Band>) -> Self
    where
        Self: Sized;

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

    fn resident(tuple: Tuple, _: Option<Band>) -> Tuple {
        tuple
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

    fn resident(tuple: Tuple, band: Option<Band>) -> Self {
        let (k, hashes) = band.expect("an LSH member has a band");
        (k, hashes, tuple)
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
        let keys = |s: IterateStrategy| -> Vec<BlockKey> {
            s.index_keys(&fd, scoped)
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        };
        assert_eq!(keys(blocked), vec![fd.block(scoped).unwrap()]);
        assert_eq!(keys(IterateStrategy::UCrossProduct), vec![BlockKey::new()]);
        assert!(keys(IterateStrategy::SingleUnits).is_empty());
    }

    #[test]
    fn band_buckets_embed_the_band_index() {
        let p = LshParams::default();
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_lsh(p);
        let buckets = IterateStrategy::LshBlocks.index_keys(&r, &t(1, "Robert"));
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
        let rule = IterateStrategy::LshBlocks.pair_rule().unwrap();
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
