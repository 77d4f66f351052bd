//! The execution layer: physical pipelines → fused dataflow stages
//! (Appendix G of the paper, modulo the Spark→threads substitution).
//!
//! Pipelines are built against the lazy [`bigdansing_dataflow::Stage`] API, so narrow
//! operators fuse: Scope flows straight into the shuffle-map side of
//! Block, and the reducer-side group construction fuses with
//! Iterate→Detect→GenFix into one pass per partition. The only
//! remaining materialization is the final [`PDataset::checkpoint`] —
//! a no-op on the in-memory engines and a full disk round-trip on the
//! Hadoop-like [`bigdansing_dataflow::ExecMode::DiskBacked`] engine.
//! [`Engine::explain`] shows which logical operators landed in which
//! physical passes.
//!
//! Pipelines run in the groups [`block_groups`] forms. Rules that block
//! on the same source columns share one Block pass — Algorithm 1's
//! consolidation carried across rules: one shuffle-map keyed on those
//! columns (`block[zipcode](fd:zipcode->city, fd:zipcode->state)` in
//! the plan trace), one merge, and one reducer that builds each bucket
//! once and runs every member's Scope, candidate enumeration, Detect
//! and GenFix over it. A rule alone on its key is a group of one, run
//! by the same pass; every other strategy runs one pipeline.

use crate::enumerate::{bucket_hash, Delta, Member, Origin, PairCounts, PairRule};
use crate::lsh::{self, BandEntry, LshIndex, Records};
use crate::physical::{block_groups, pipeline_for_rule, IterateStrategy, RulePipeline};
use crate::store::{BucketStore, Keying};
use bigdansing_common::error::{Error, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{KeyDict, Mutex, Schema, Table, Tuple, TupleId};
use bigdansing_dataflow::fault::{pairs_in_block, RuleGuard};
use bigdansing_dataflow::{Engine, PDataset, PassKind, Stage};
use bigdansing_ocjoin::{JoinIndex, OcJoinConfig};
use bigdansing_rules::{BlockKey, DetectUnit, Fix, Rule, RuleExt, Violation};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// One detection as a detect pass produces it: the group member that
/// found it, where it came from, the violation, and its possible fixes.
type Found = (u64, (Origin, (Violation, Vec<Fix>)));

/// What a resident pass's reducer partitions hand over, one share per
/// partition: a Block pass's buckets, or an LSH pass's sorted band
/// entries — the shards of the group's [`BucketStore`].
type Shares<T> = Arc<Mutex<Vec<T>>>;

/// The result of running detection: each violation paired with its
/// possible fixes (the input to the repair stage). The association is
/// preserved because hypergraph-style repair algorithms resolve
/// violations by choosing among *that violation's* fixes (§5.1).
#[derive(Debug, Clone, Default)]
pub struct DetectOutput {
    /// `(violation, possible fixes)` pairs, across all rules run.
    pub detected: Vec<(Violation, Vec<Fix>)>,
    /// The candidate unit each entry of `detected` came from, index for
    /// index — what a later semi-naive pass retracts by.
    pub origins: Vec<Origin>,
}

impl DetectOutput {
    /// Merge another output into this one.
    pub fn extend(&mut self, other: DetectOutput) {
        self.detected.extend(other.detected);
        self.origins.extend(other.origins);
    }

    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.detected.is_empty()
    }

    /// The violations alone (borrowed, no intermediate allocation).
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.detected.iter().map(|(v, _)| v)
    }

    /// Number of violations.
    pub fn violation_count(&self) -> usize {
        self.detected.len()
    }

    /// Number of possible fixes.
    pub fn fix_count(&self) -> usize {
        self.detected.iter().map(|(_, fs)| fs.len()).sum()
    }
}

/// One rule's share of a detect pass: how it draws candidate units from
/// a bucket, whether GenFix runs, and the guard it runs under. Every
/// candidate unit of a batch pass and of a session re-detect is
/// detected here.
#[derive(Clone)]
struct Detector {
    /// The rule's position in its group, which tags what it finds.
    member: u64,
    rule: Arc<dyn Rule>,
    pair_rule: Option<PairRule>,
    /// Whether buckets pass the guard's straggler gate: Block and LSH
    /// buckets do; the one global bucket of UCross/Cross does not, as
    /// the batch enumerates it through the engine's cartesian ungated.
    gated: bool,
    use_genfix: bool,
    guard: Option<Arc<RuleGuard>>,
}

/// What one [`Detector`] found and enumerated over the buckets of one
/// reducer partition.
#[derive(Default)]
struct Tally {
    found: Vec<(Origin, Violation)>,
    counts: PairCounts,
    lists: u64,
}

impl Detector {
    /// The detector of `pipeline`, member `member` of its pass.
    fn new(member: usize, pipeline: &RulePipeline, guard: Option<Arc<RuleGuard>>) -> Detector {
        use IterateStrategy::{CrossProduct, UCrossProduct};
        Detector {
            member: member as u64,
            rule: Arc::clone(&pipeline.rule),
            pair_rule: pipeline.strategy.pair_rule(),
            gated: !matches!(pipeline.strategy, UCrossProduct | CrossProduct),
            use_genfix: pipeline.use_genfix,
            guard,
        }
    }

    /// Poll the guard's soft time budget (before every Detect).
    fn check_budget(&self) -> Result<()> {
        self.guard.as_ref().map_or(Ok(()), |g| g.check_budget())
    }

    fn count_units(&self, units: u64) {
        if let Some(g) = &self.guard {
            g.count_units(units);
        }
    }

    /// The bucket body of every bucketed strategy: gate the bucket
    /// through the guard, then run Detect over its candidate units —
    /// the pairs the shared [`PairRule`] draws from it with the delta as
    /// the freshness mask (no delta: all members fresh — a full detect
    /// is the delta enumeration with an empty resident side), or the
    /// whole bucket as one list unit when there is no pair rule. Under a
    /// delta a pair rule passes over a bucket with no fresh member
    /// before the gate: it holds no candidate unit. A list unit's
    /// [`Origin::Bucket`] is its bucket's [`bucket_hash`].
    fn bucket<M: Member>(
        &self,
        bucket: &[M],
        delta: Option<&Delta>,
        tally: &mut Tally,
    ) -> Result<()> {
        let stale = |d: &Delta| !bucket.iter().any(|m| d.is_fresh(m.tuple()));
        if bucket.is_empty() || (self.pair_rule.is_some() && delta.is_some_and(stale)) {
            return Ok(());
        }
        if let Some(g) = &self.guard {
            g.check_budget()?;
            let expected = self
                .pair_rule
                .map_or(1, |r| pairs_in_block(bucket.len(), r.both_orientations));
            if self.gated && !g.admit_block(bucket.len(), expected)? {
                return Ok(());
            }
        }
        let Some(pairs) = self.pair_rule else {
            let block = M::units(bucket);
            let name = bucket_hash(self.rule.as_ref(), &block[0]);
            let found = self.rule.detect(&DetectUnit::List(&block));
            tally
                .found
                .extend(found.into_iter().map(|v| (Origin::Bucket(name), v)));
            tally.lists += 1;
            return Ok(());
        };
        let Tally { found, counts, .. } = tally;
        let is_fresh = |m: &M| delta.is_none_or(|d| d.is_fresh(m.tuple()));
        pairs.pairs(bucket, is_fresh, counts, |a, b| {
            self.check_budget()?;
            let unit = Origin::Unit(a.id(), b.id());
            found.extend(self.rule.detect_pair(a, b).into_iter().map(|v| (unit, v)));
            Ok::<(), Error>(())
        })
    }

    /// Close a partition: fold the tally into the engine counters
    /// (`pairs_generated`, `detect_calls`) and the guard, and attach
    /// the fixes.
    fn finish(&self, tally: Tally, metrics: &Metrics) -> Vec<Found> {
        if let Some(pairs) = self.pair_rule {
            pairs.record(&tally.counts, metrics);
        }
        let units = tally.lists + tally.counts.emitted;
        Metrics::add(&metrics.detect_calls, units);
        self.count_units(units);
        let found = tally.found.into_iter();
        found.map(|(origin, v)| self.fixed(origin, v)).collect()
    }

    /// A detection as the pass emits it: tagged with the member, with
    /// GenFix's fixes when the pipeline runs GenFix.
    fn fixed(&self, origin: Origin, v: Violation) -> Found {
        let fixes = if self.use_genfix {
            self.rule.gen_fix(&v)
        } else {
            Vec::new()
        };
        (self.member, (origin, (v, fixes)))
    }
}

/// A detect task's detections in the order
/// [`Executor::collect_detected`] merges them by: by member, then by
/// [`Origin`] — stable, so one unit's detections keep theirs.
fn in_origin_order(mut found: Vec<Found>) -> Vec<Found> {
    found.sort_by_cached_key(|&(member, (origin, _))| (member, origin));
    found
}

/// The one detector of a strategy that never shares its pass.
fn lone(detectors: Vec<Detector>) -> Detector {
    match <[Detector; 1]>::try_from(detectors) {
        Ok([d]) => d,
        Err(_) => unreachable!("only Block groups have several members"),
    }
}

/// The reducer body of every bucketed pass, batch or session: each
/// bucket through every detector — scoped by the detector's rule first
/// when `shared` (the bucket holds the source tuples of a shared Block
/// pass), into one buffer reused across buckets — then the tallies
/// closed.
fn reduce<'b, M: Member + 'b>(
    detectors: &[Detector],
    buckets: impl Iterator<Item = &'b [M]>,
    shared: bool,
    delta: Option<&Delta>,
    metrics: &Metrics,
) -> Result<Vec<Found>> {
    let mut tallies: Vec<Tally> = detectors.iter().map(|_| Tally::default()).collect();
    let mut scoped = Vec::new();
    for bucket in buckets {
        for (d, tally) in detectors.iter().zip(&mut tallies) {
            if shared {
                scoped.clear();
                scoped.extend(bucket.iter().flat_map(|m| d.rule.scope(m.tuple())));
                d.bucket(&scoped, delta, tally)?;
            } else {
                d.bucket(bucket, delta, tally)?;
            }
        }
    }
    let finished = detectors.iter().zip(tallies);
    let found = finished.flat_map(|(d, t)| d.finish(t, metrics)).collect();
    Ok(in_origin_order(found))
}

/// The reducer of a full Block pass: [`reduce`] over the shuffled
/// buckets, then `keep` takes the buckets — last, so that a retried
/// partition hands them over once.
fn batch_reducer<K>(
    detectors: Vec<Detector>,
    shared: bool,
    metrics: Arc<Metrics>,
    keep: impl Fn(Vec<(K, Vec<Tuple>)>) + Send + Sync,
) -> impl Fn(Vec<(K, Vec<Tuple>)>) -> Result<Vec<Found>> {
    move |buckets| {
        let units = buckets.iter().map(|(_, bucket)| &bucket[..]);
        let found = reduce(&detectors, units, shared, None, &metrics)?;
        keep(buckets);
        Ok(found)
    }
}

/// The reducer body of an LSH pass over band runs: each run through the
/// detector as a bucket, its members read in place from the group's
/// records.
fn lsh_runs<'r>(
    d: &Detector,
    records: &'r Records,
    runs: impl Iterator<Item = &'r [BandEntry]>,
    delta: Option<&Delta>,
    metrics: &Metrics,
) -> Result<Vec<Found>> {
    let (mut tally, mut members) = (Tally::default(), Vec::new());
    for run in runs {
        members.clear();
        members.extend(lsh::members(records, run));
        d.bucket(&members, delta, &mut tally)?;
    }
    Ok(in_origin_order(d.finish(tally, metrics)))
}

/// The single-unit arm: Detect over every record `stage` yields.
fn single_units(
    stage: Stage<Tuple, Tuple>,
    op: String,
    d: Detector,
    metrics: Arc<Metrics>,
) -> Result<PDataset<Found>> {
    stage
        .map_parts(op, move |part: Vec<Tuple>| {
            Metrics::add(&metrics.detect_calls, part.len() as u64);
            let mut found = Vec::new();
            for t in &part {
                d.check_budget()?;
                let unit = Origin::Unit(t.id(), t.id());
                let vs = d.rule.detect(&DetectUnit::Single(t));
                found.extend(vs.into_iter().map(|v| d.fixed(unit, v)));
            }
            d.count_units(part.len() as u64);
            Ok(in_origin_order(found))
        })
        .run()
}

/// The OCJoin arm, a streaming join: every pair `index` enumerates —
/// every pair of a full join, those with a new version of a Δ-join —
/// flows straight into Detect (+GenFix) inside the join task; the pair
/// list is never materialized. A join task hands its detections over in
/// the order of their pairs' ids, which is [`Origin`] order for the
/// lone member.
fn oc_join(engine: &Engine, index: &JoinIndex, op: &str, d: &Detector) -> Result<PDataset<Found>> {
    let metrics = engine.metrics();
    let pairs_before = Metrics::get(&metrics.pairs_generated);
    let detected = index.join_sink(engine, op, |a, b, out| {
        d.check_budget()?;
        d.count_units(1);
        let unit = Origin::Unit(a.id(), b.id());
        let vs = d.rule.detect_pair(a, b);
        out.extend(vs.into_iter().map(|v| d.fixed(unit, v)));
        Ok(())
    })?;
    let pairs = Metrics::get(&metrics.pairs_generated) - pairs_before;
    Metrics::add(&metrics.detect_calls, pairs);
    Ok(detected)
}

/// What a resident [`BucketStore`] hands [`Executor::detect_held`] to
/// detect over.
#[derive(Clone)]
pub enum Held {
    /// Scoped records in table order, each one a unit of a single-unit
    /// rule.
    Records(Vec<Tuple>),
    /// Buckets of a bucketed strategy.
    Buckets {
        /// Members in table order.
        buckets: Vec<Vec<Tuple>>,
        /// The members are source tuples of a shared Block index, which
        /// the rule scopes first.
        scope: bool,
    },
}

/// Runs physical pipelines on a dataflow engine.
#[derive(Clone)]
pub struct Executor {
    engine: Engine,
}

/// The plan-trace label of a group's detect pass: a full detect, or a
/// semi-naive re-detect from the group's store.
fn detect_op(group: &[&RulePipeline], semi_naive: bool) -> String {
    let names: Vec<&str> = group.iter().map(|p| p.rule.name()).collect();
    let names = names.join(", ");
    match semi_naive {
        false => format!("iterate+detect+genfix({names})"),
        true => format!("redetect({names})"),
    }
}

impl Executor {
    /// Create an executor bound to `engine`.
    pub fn new(engine: Engine) -> Executor {
        Executor { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Load a table into a partitioned dataset (one "scan": counted in
    /// the `tuples_scanned` metric so shared-scan consolidation is
    /// observable).
    pub fn load(&self, table: &Table) -> PDataset<Tuple> {
        Metrics::add(&self.engine.metrics().tuples_scanned, table.len() as u64);
        PDataset::from_vec(self.engine.clone(), table.tuples().to_vec())
    }

    /// Run Scope, Iterate, Detect, and GenFix of a group fused into as
    /// few passes as its strategy allows: candidate units are
    /// generated, tested, and — when a GenFix is present — annotated
    /// with their possible fixes inside the same physical pass as
    /// whatever narrow work precedes them (Scope, the reducer-side
    /// bucket build of Block); candidates are never materialized as a
    /// whole. Metrics (`pairs_generated`, `detect_calls`) are kept via
    /// per-partition batched atomics.
    ///
    /// A lone rule's Scope fuses into the shuffle-map (or detect) pass.
    /// A shared Block pass shuffles the source tuples instead, keyed on
    /// the group's columns, and each member scopes a bucket's tuples in
    /// the reducer, into one buffer reused across buckets.
    ///
    /// The pass is always a full detect over `data`: a later round
    /// re-detects from the group's store instead
    /// ([`crate::group::RuleGroup::redetect`]).
    ///
    /// Every forced pass runs fault-tolerantly: partition tasks execute
    /// under panic isolation and are retried per the engine's
    /// [`bigdansing_dataflow::FaultPolicy`] — a retry re-runs the whole
    /// fused pass for that partition. A task that exhausts its budget
    /// surfaces as `Error::Task` naming the partition.
    ///
    /// With [`RuleGuard`]s, each member polls its rule's soft time
    /// budget before every Detect invocation and gates each of its
    /// buckets through the outlier straggler threshold — skipped
    /// blocks are counted on the guard (partial mode) or abort the pass
    /// with a typed `Error::Rule` (strict mode).
    ///
    /// With `resident` — the sequence number of every tuple of `data`,
    /// in its order — the pass hands over what it built as the group's
    /// [`BucketStore`]: a Block pass's reducers their buckets, an LSH
    /// pass's their sorted band entries, an OCJoin pass its join index.
    fn iterate_and_detect(
        &self,
        data: PDataset<Tuple>,
        schema: &Schema,
        group: &[&RulePipeline],
        guards: Option<&[Arc<RuleGuard>]>,
        resident: Option<&dyn Fn(TupleId) -> u64>,
    ) -> Result<(Vec<DetectOutput>, Option<BucketStore>)> {
        self.engine.check_cancelled()?;
        let guard = |m: usize| guards.map(|g| Arc::clone(&g[m]));
        let detectors: Vec<Detector> = (0..group.len())
            .map(|m| Detector::new(m, group[m], guard(m)))
            .collect();
        let metrics = self.engine.metrics().clone();
        let lead = group[0];
        let names: Vec<&str> = group.iter().map(|p| p.rule.name()).collect();
        let names = names.join(", ");
        let detect_op = detect_op(group, false);
        // PScope: queued as a narrow op — no pass of its own. A shared
        // Block pass scopes in its reducer instead.
        let shared = group.len() > 1;
        let stage = if lead.use_scope && !shared {
            let r = Arc::clone(&lead.rule);
            data.stage()
                .flat_map(format!("scope({names})"), move |t: Tuple| Ok(r.scope(&t)))
        } else {
            data.stage()
        };
        let keying = Keying::of(group);
        let mut store = None;
        let found = match &lead.strategy {
            IterateStrategy::SingleUnits => {
                single_units(stage, detect_op, lone(detectors), metrics)
            }
            IterateStrategy::BlockList | IterateStrategy::BlockPairs { .. } => {
                let block_op = match &keying {
                    Keying::Lone(_) => format!("block({names})"),
                    Keying::Columns(cols) => {
                        let attrs: Vec<&str> = cols
                            .iter()
                            .map(|&c| schema.name_of(c).unwrap_or("?"))
                            .collect();
                        format!("block[{}]({names})", attrs.join(","))
                    }
                };
                // Blocking keys are dictionary-encoded once per pass:
                // downstream routing/grouping moves 8-byte `KeyId`s, not
                // `Value` payloads.
                let dict = Arc::new(KeyDict::new());
                let (key, by) = (keying.clone(), keying.clone());
                let shares: Shares<HashMap<BlockKey, Vec<Tuple>>> =
                    Arc::new(Mutex::new(Vec::new()));
                let kept = resident.map(|_| Arc::clone(&shares));
                let keep = move |buckets: Vec<(_, Vec<Tuple>)>| {
                    if let Some(kept) = &kept {
                        let keyed = |(_, b): (_, Vec<Tuple>)| (by.key(&b[0]), b);
                        kept.lock().push(buckets.into_iter().map(keyed).collect());
                    }
                };
                let reducer = batch_reducer(detectors, shared, metrics, keep);
                let found = stage
                    .group_by_key(&block_op, move |t| Ok(dict.encode(key.key(t))))?
                    .map_parts(detect_op, reducer)
                    .run()?;
                if resident.is_some() {
                    let mut shards = std::mem::take(&mut *shares.lock());
                    shards.resize_with(shards.len().max(1), HashMap::new);
                    store = Some(BucketStore::seeded(keying, shards));
                }
                Ok(found)
            }
            IterateStrategy::LshBlocks => {
                // MinHash/LSH banding: one narrow pass computes every
                // scoped unit's band hashes, once. The shuffle then
                // routes one compact entry per unit and band by its
                // `(band, bucket hash)`, and each reducer sorts its
                // share, so a band bucket is a run of equal keys,
                // members in table order, which Detect reads in place.
                let rule = Arc::clone(&lead.rule);
                let signed = stage
                    .map(format!("lsh-signature({names})"), move |t: Tuple| {
                        let hashes = rule.lsh_band_hashes(&t);
                        Ok((t, hashes))
                    })
                    .collect()?;
                let records = Arc::new(lsh::records(signed, resident));
                let slots: Vec<u32> = (0..records.len() as u32).collect();
                let (fan, read) = (Arc::clone(&records), Arc::clone(&records));
                let d = lone(detectors);
                let shares: Shares<Vec<BandEntry>> = Arc::new(Mutex::new(Vec::new()));
                let kept = resident.map(|_| Arc::clone(&shares));
                let found = PDataset::from_vec(self.engine.clone(), slots)
                    .stage()
                    .flat_map(format!("lsh-band({names})"), move |slot| {
                        Ok(lsh::entries(&fan, slot))
                    })
                    .partition_by(&format!("block({names})"), |e: &BandEntry| Ok(e.run()))?
                    .map_parts(detect_op, move |mut share: Vec<BandEntry>| {
                        share.sort_unstable();
                        let found = lsh_runs(&d, &read, lsh::shard_runs(&share), None, &metrics)?;
                        // last, so that a retried partition hands it over once
                        if let Some(kept) = &kept {
                            kept.lock().push(share);
                        }
                        Ok(found)
                    })
                    .run()?;
                if resident.is_some() {
                    let shares = std::mem::take(&mut *shares.lock());
                    let reducers = self.engine.default_partitions();
                    let seeded = store.insert(BucketStore::seeded(keying, vec![HashMap::new()]));
                    seeded.lsh = Some(LshIndex::seeded(records, shares, reducers));
                }
                Ok(found)
            }
            IterateStrategy::UCrossProduct | IterateStrategy::CrossProduct => {
                // Unblocked pair strategies draw their pairs from the
                // engine's parallel cartesian primitives rather than one
                // global bucket; the pair rule picks the primitive and
                // supplies the diagonal filter.
                let d = lone(detectors);
                let pair_rule = d.pair_rule.expect("cross products enumerate pairs");
                let data = stage.into_dataset()?;
                let pairs = if pair_rule.both_orientations {
                    data.self_cross_product()?
                } else {
                    data.self_cartesian()?
                };
                pairs
                    .stage()
                    .map_parts(detect_op, move |part: Vec<(Tuple, Tuple)>| {
                        let mut found = Vec::new();
                        let mut units = 0u64;
                        for (a, b) in &part {
                            if !pair_rule.admits(a, b) {
                                continue;
                            }
                            d.check_budget()?;
                            units += 1;
                            let unit = Origin::Unit(a.id(), b.id());
                            let vs = d.rule.detect_pair(a, b);
                            found.extend(vs.into_iter().map(|v| d.fixed(unit, v)));
                        }
                        Metrics::add(&metrics.detect_calls, units);
                        d.count_units(units);
                        Ok(in_origin_order(found))
                    })
                    .run()
            }
            IterateStrategy::OcJoin(conds) => {
                let data = stage.into_dataset()?;
                let index = JoinIndex::build(data, conds, OcJoinConfig::default())?;
                let found = oc_join(&self.engine, &index, &detect_op, &lone(detectors));
                if resident.is_some() {
                    let seeded = store.insert(BucketStore::seeded(keying, vec![HashMap::new()]));
                    seeded.join = Some(index);
                }
                found
            }
        }?;
        let outs = self.collect_detected(found, group.len())?;
        Ok((outs, store))
    }

    /// Run one group of pipelines — as [`block_groups`] forms them, in
    /// registration order, over one source — on an already-loaded
    /// dataset of that source, whose schema names the plan trace's
    /// shared Block columns. Returns one output per member, index for
    /// index.
    ///
    /// With `guards` (one per member) each member runs under its own
    /// [`RuleGuard`]: the pass polls the rule's soft time budget
    /// between Detect/GenFix invocations and gates the rule's buckets
    /// through its straggler threshold. The isolation-aware cleanse
    /// loop arms one guard per rule pass and reads its processed/skipped
    /// counters afterwards. Any member's failure fails the group's pass.
    ///
    /// The pass is a full detect. A caller that detects again after a
    /// change re-detects from a [`crate::group::RuleGroup`]'s store.
    pub fn run_group(
        &self,
        data: PDataset<Tuple>,
        schema: &Schema,
        group: &[&RulePipeline],
        guards: Option<&[Arc<RuleGuard>]>,
    ) -> Result<Vec<DetectOutput>> {
        let (outs, _) = self.iterate_and_detect(data, schema, group, guards, None)?;
        Ok(outs)
    }

    /// A full [`Executor::run_group`] that hands what its passes built
    /// over instead of dropping it, as the group's resident
    /// [`BucketStore`], which later re-detects read: a Block pass's
    /// buckets, members in the order of `data`, for
    /// [`Executor::detect_held`]; an LSH pass's sorted band runs, its
    /// records numbered by `seq_of`, for [`Executor::detect_runs`]; an
    /// OCJoin pass's sorted range parts as the store's [`JoinIndex`], for
    /// [`Executor::detect_join`]. `None` for any other group.
    pub fn run_resident(
        &self,
        data: PDataset<Tuple>,
        schema: &Schema,
        group: &[&RulePipeline],
        guards: Option<&[Arc<RuleGuard>]>,
        seq_of: &dyn Fn(TupleId) -> u64,
    ) -> Result<(Vec<DetectOutput>, Option<BucketStore>)> {
        self.iterate_and_detect(data, schema, group, guards, Some(seq_of))
    }

    /// Detect a group over what a resident [`BucketStore`] holds, each
    /// member under its guard, in one pass labelled as
    /// [`Executor::run_group`] labels it. It is the Detect body of the
    /// shuffled passes over buckets the caller keeps: records run
    /// through the single-unit arm (a lone rule), buckets through the
    /// bucketed reducer. With a delta the pass is
    /// semi-naive, the delta the freshness mask; without one every
    /// record is fresh. The caller chose the records itself, so single
    /// units are not masked again, and the pass counts no
    /// `tuples_reprocessed` / `blocks_dirty`: the caller counts what it
    /// handed over.
    pub fn detect_held(
        &self,
        group: &[&RulePipeline],
        held: Held,
        delta: Option<&Arc<Delta>>,
        guards: &[Arc<RuleGuard>],
    ) -> Result<Vec<DetectOutput>> {
        self.engine.check_cancelled()?;
        let metrics = self.engine.metrics().clone();
        let detectors: Vec<Detector> = (0..group.len())
            .map(|m| Detector::new(m, group[m], Some(Arc::clone(&guards[m]))))
            .collect();
        let op = detect_op(group, delta.is_some());
        let found = match held {
            Held::Records(records) => {
                let stage = PDataset::from_vec(self.engine.clone(), records).stage();
                single_units(stage, op, lone(detectors), metrics)?
            }
            Held::Buckets { buckets, scope } => {
                let delta = delta.cloned();
                PDataset::from_vec(self.engine.clone(), buckets)
                    .stage()
                    .map_parts(op, move |part: Vec<Vec<Tuple>>| {
                        let buckets = part.iter().map(|bucket| &bucket[..]);
                        reduce(&detectors, buckets, scope, delta.as_deref(), &metrics)
                    })
                    .run()?
            }
        };
        self.collect_detected(found, group.len())
    }

    /// Detect a lone LSH rule over the runs of its resident [`LshIndex`]
    /// that [`BucketStore::held`] picked — per shard, their entry ranges
    /// — under its guard, with `delta` as the freshness mask, in one pass
    /// labelled as a re-detect: one task per shard with picked runs,
    /// each reading its runs and their records in place. The caller
    /// counts what it handed over.
    pub fn detect_runs(
        &self,
        group: &[&RulePipeline],
        index: &LshIndex,
        runs: &[Vec<Range<usize>>],
        delta: Option<&Arc<Delta>>,
        guards: &[Arc<RuleGuard>],
    ) -> Result<Vec<DetectOutput>> {
        self.engine.check_cancelled()?;
        let d = Detector::new(0, group[0], Some(Arc::clone(&guards[0])));
        let metrics = self.engine.metrics();
        let shards: Vec<usize> = (0..runs.len()).filter(|&s| !runs[s].is_empty()).collect();
        let found = self.engine.run_stage(&shards, |_, &s| {
            let picked = runs[s].iter().map(|range| index.run(s, range.clone()));
            lsh_runs(&d, index.records(), picked, delta.map(|d| &**d), metrics)
        })?;
        let op = vec![detect_op(group, true)];
        self.engine.record_pass(PassKind::Narrow, op, shards.len());
        let found = PDataset::from_partitions(self.engine.clone(), found);
        self.collect_detected(found, 1)
    }

    /// Detect a lone inequality rule over the change its resident
    /// [`JoinIndex`] staged, under its guard: the Δ-join of the new
    /// versions with the index's parts, in one pass labelled as a
    /// re-detect. The caller counts what it handed over.
    pub fn detect_join(
        &self,
        group: &[&RulePipeline],
        index: &JoinIndex,
        guards: &[Arc<RuleGuard>],
    ) -> Result<Vec<DetectOutput>> {
        self.engine.check_cancelled()?;
        let d = Detector::new(0, group[0], Some(Arc::clone(&guards[0])));
        let found = oc_join(&self.engine, index, &detect_op(group, true), &d)?;
        self.collect_detected(found, 1)
    }

    /// The final stage-boundary materialization of a detect pass, with
    /// its accounting: violations found. Splits the detections by the
    /// member of `members` that found them, each member's in the order
    /// of the units they came from ([`Origin`]'s order; stable, so one
    /// unit's detections keep theirs): a pass emits them in the order of
    /// its buckets, runs or join parts, which a shuffle, an index layout
    /// or the worker count decides, not the table. Each task sorted its
    /// own detections ([`in_origin_order`]), so this only merges the
    /// sorted partitions, ties in partition order.
    fn collect_detected(
        &self,
        found: PDataset<Found>,
        members: usize,
    ) -> Result<Vec<DetectOutput>> {
        let runs = found.checkpoint()?.into_partitions()?;
        let key = |(member, (origin, _)): &Found| (*member, *origin);
        debug_assert!(runs.iter().all(|run| run.is_sorted_by_key(key)));
        let mut sizes = vec![0; members];
        for (member, _) in runs.iter().flatten() {
            sizes[*member as usize] += 1;
        }
        let total = sizes.iter().sum::<usize>() as u64;
        Metrics::add(&self.engine.metrics().violations, total);
        let sized = |n| DetectOutput {
            detected: Vec::with_capacity(n),
            origins: Vec::with_capacity(n),
        };
        let mut outs: Vec<DetectOutput> = sizes.into_iter().map(sized).collect();
        // each run's next detection, queued by its key
        let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
        let mut heads: Vec<Option<Found>> = runs.iter_mut().map(Iterator::next).collect();
        let queued = |r: usize, head: &Option<Found>| Some(Reverse((key(head.as_ref()?), r)));
        let mut queue: BinaryHeap<_> = (0..runs.len())
            .filter_map(|r| queued(r, &heads[r]))
            .collect();
        while let Some(Reverse((_, r))) = queue.pop() {
            let head = std::mem::replace(&mut heads[r], runs[r].next());
            queue.extend(queued(r, &heads[r]));
            let (member, (origin, detected)) = head.expect("a queued head");
            let out = &mut outs[member as usize];
            out.origins.push(origin);
            out.detected.push(detected);
        }
        Ok(outs)
    }

    /// Detect with a **shared scan**: the table is loaded once and every
    /// rule's pipeline runs over the same in-memory dataset, rules that
    /// block on the same columns in one shared Block pass — the
    /// execution-layer counterpart of plan consolidation. Detections
    /// come out per rule, in registration order.
    pub fn detect(&self, table: &Table, rules: &[Arc<dyn Rule>]) -> Result<DetectOutput> {
        let data = self.load(table);
        let pipelines: Vec<RulePipeline> = rules
            .iter()
            .map(|rule| pipeline_for_rule(Arc::clone(rule), table.name()))
            .collect();
        self.run_pipelines(&pipelines, |_| Ok((data.duplicate()?, table.schema())))
    }

    /// Run `pipelines` as full detects, one pass per [`block_groups`]
    /// group, each over the dataset and schema `source` returns for the
    /// group's source name. Detections come out per pipeline, in
    /// registration order.
    pub fn run_pipelines<'s>(
        &self,
        pipelines: &[RulePipeline],
        mut source: impl FnMut(&str) -> Result<(PDataset<Tuple>, &'s Schema)>,
    ) -> Result<DetectOutput> {
        let mut outs = vec![DetectOutput::default(); pipelines.len()];
        for group in block_groups(pipelines) {
            let members: Vec<&RulePipeline> = group.iter().map(|&i| &pipelines[i]).collect();
            let (data, schema) = source(&members[0].source)?;
            let found = self.run_group(data, schema, &members, None)?;
            for (i, out) in group.into_iter().zip(found) {
                outs[i] = out;
            }
        }
        Ok(outs
            .into_iter()
            .fold(DetectOutput::default(), |mut all, out| {
                all.extend(out);
                all
            }))
    }

    /// The Figure 12(a) ablation: run a rule through Detect only — no
    /// Scope, no Block, candidates from a UCrossProduct over the whole
    /// dataset. Only meaningful for rules with an identity Scope.
    pub fn detect_only(&self, table: &Table, rule: Arc<dyn Rule>) -> Result<DetectOutput> {
        let pipeline = RulePipeline {
            rule,
            source: table.name().to_string(),
            use_scope: false,
            strategy: IterateStrategy::UCrossProduct,
            use_genfix: true,
        };
        let found = self.run_group(self.load(table), table.schema(), &[&pipeline], None)?;
        Ok(found.into_iter().next().unwrap_or_default())
    }

    /// The CoBlock path (Figure 6): two datasets, blocked with the same
    /// rule, joined on the blocking key; candidate pairs are
    /// (left-group × right-group) within each co-group.
    pub fn detect_two_tables(
        &self,
        rule: Arc<dyn Rule>,
        left: &Table,
        right: &Table,
    ) -> Result<DetectOutput> {
        self.engine.check_cancelled()?;
        let metrics = self.engine.metrics().clone();
        let rl = Arc::clone(&rule);
        let rr = Arc::clone(&rule);
        // Scope fuses into each side's shuffle-map pass.
        let left_stage = self
            .load(left)
            .stage()
            .flat_map(format!("scope({})/left", rule.name()), move |t: Tuple| {
                Ok(rl.scope(&t))
            });
        let right_stage = self
            .load(right)
            .stage()
            .flat_map(format!("scope({})/right", rule.name()), move |t: Tuple| {
                Ok(rr.scope(&t))
            });
        let kl = Arc::clone(&rule);
        let kr = Arc::clone(&rule);
        let rd = Arc::clone(&rule);
        let coblock_op = format!("coblock({})", rule.name());
        let detect_op = format!("iterate+detect+genfix({})", rule.name());
        // One dictionary shared by both sides, so equal blocking keys
        // from either table map to the same `KeyId`.
        let dict = Arc::new(KeyDict::new());
        let dict_r = Arc::clone(&dict);
        // Pair enumeration, Detect, and GenFix all run inside the
        // reducer pass — candidate pairs are never materialized.
        let detected_ds = left_stage
            .co_group(
                right_stage,
                &coblock_op,
                move |t| Ok(dict.encode(kl.block(t).unwrap_or_default())),
                move |t| Ok(dict_r.encode(kr.block(t).unwrap_or_default())),
            )?
            .map_parts(detect_op, move |groups| {
                let mut out = Vec::new();
                let mut pairs = 0u64;
                for (_, ls, rs) in &groups {
                    for a in ls {
                        for b in rs {
                            pairs += 1;
                            for v in rd.detect_pair(a, b) {
                                let fixes = rd.gen_fix(&v);
                                out.push((0, (Origin::Unit(a.id(), b.id()), (v, fixes))));
                            }
                        }
                    }
                }
                Metrics::add(&metrics.pairs_generated, pairs);
                Metrics::add(&metrics.detect_calls, pairs);
                Ok(in_origin_order(out))
            })
            .run()?;
        let found = self.collect_detected(detected_ds, 1)?;
        Ok(found.into_iter().next().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Schema, Value};
    use bigdansing_rules::{DcRule, DedupRule, FdRule};
    use std::collections::HashSet;

    /// The Table 1 tax records from Example 1 of the paper.
    fn example1() -> Table {
        let schema = Schema::parse("name,zipcode,city,state,salary,rate");
        let row = |name: &str, zip: i64, city: &str, st: &str, sal: i64, rate: i64| {
            vec![
                Value::str(name),
                Value::Int(zip),
                Value::str(city),
                Value::str(st),
                Value::Int(sal),
                Value::Int(rate),
            ]
        };
        Table::from_rows(
            "D",
            schema,
            vec![
                row("Annie", 10001, "NY", "NY", 24000, 15),
                row("Laure", 90210, "LA", "CA", 25000, 10),
                row("John", 60601, "CH", "IL", 40000, 25),
                row("Mark", 90210, "SF", "CA", 88000, 30),
                row("Robert", 68270, "CH", "IL", 15000, 12),
                row("Mary", 90210, "LA", "CA", 81000, 28),
            ],
        )
    }

    fn fd_rule() -> Arc<dyn Rule> {
        Arc::new(FdRule::parse("zipcode -> city", example1().schema()).unwrap())
    }

    fn violating_id_sets(out: &DetectOutput) -> HashSet<Vec<u64>> {
        out.violations().map(|v| v.tuple_ids()).collect()
    }

    #[test]
    fn phi_f_finds_the_papers_violations() {
        // Example 1: (t2, t4) and (t4, t6) violate φF — ids 1, 3, 5 here.
        let table = example1();
        let exec = Executor::new(Engine::parallel(4));
        let out = exec.detect(&table, &[fd_rule()]).unwrap();
        assert_eq!(
            violating_id_sets(&out),
            HashSet::from([vec![1, 3], vec![3, 5]])
        );
        assert_eq!(out.fix_count(), 2, "one equalizing fix per violation");
    }

    #[test]
    fn phi_d_finds_the_papers_violations() {
        // Example 1: (t1, t2) and (t2, t5) violate φD.
        let table = example1();
        let dc: Arc<dyn Rule> = Arc::new(
            DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", table.schema()).unwrap(),
        );
        let exec = Executor::new(Engine::parallel(4));
        let out = exec.detect(&table, &[dc]).unwrap();
        assert_eq!(
            violating_id_sets(&out),
            HashSet::from([vec![0, 1], vec![1, 4]])
        );
    }

    #[test]
    fn all_engines_agree_on_violations() {
        let table = example1();
        let rules = vec![fd_rule()];
        let seq = violating_id_sets(
            &Executor::new(Engine::sequential())
                .detect(&table, &rules)
                .unwrap(),
        );
        let par = violating_id_sets(
            &Executor::new(Engine::parallel(8))
                .detect(&table, &rules)
                .unwrap(),
        );
        let disk = violating_id_sets(
            &Executor::new(Engine::disk_backed(4))
                .detect(&table, &rules)
                .unwrap(),
        );
        assert_eq!(seq, par);
        assert_eq!(seq, disk);
    }

    #[test]
    fn disk_backed_mode_actually_spills() {
        let table = example1();
        let exec = Executor::new(Engine::disk_backed(2));
        let _ = exec.detect(&table, &[fd_rule()]).unwrap();
        assert!(Metrics::get(&exec.engine().metrics().bytes_spilled) > 0);
    }

    /// One pipeline run alone under `guard`.
    fn run_guarded(
        exec: &Executor,
        table: &Table,
        pipeline: &RulePipeline,
        guard: &Arc<RuleGuard>,
    ) -> Result<DetectOutput> {
        let guards = std::slice::from_ref(guard);
        let data = exec.load(table);
        let mut out = exec.run_group(data, table.schema(), &[pipeline], Some(guards))?;
        Ok(out.remove(0))
    }

    #[test]
    fn shared_scan_loads_once_per_detect_call() {
        let table = example1();
        let rules: Vec<Arc<dyn Rule>> = vec![fd_rule(), fd_rule()];
        let exec = Executor::new(Engine::sequential());
        let together = exec.detect(&table, &rules).unwrap();
        let shared = exec.engine().metrics().snapshot();
        let plan = exec.engine().explain();
        let label = "block[zipcode](fd:zipcode->city, fd:zipcode->city)";
        assert!(plan.contains(&format!("{label}.key")), "{plan}");
        exec.engine().metrics().reset();
        let mut alone = DetectOutput::default();
        for rule in &rules {
            alone.extend(exec.detect(&table, std::slice::from_ref(rule)).unwrap());
        }
        let unshared = exec.engine().metrics().snapshot();
        assert_eq!(shared.tuples_scanned, table.len() as u64);
        assert_eq!(unshared.tuples_scanned, 2 * table.len() as u64);
        // both rules block on zipcode: one shuffle of the table, not two
        assert_eq!(shared.records_shuffled, table.len() as u64);
        assert_eq!(unshared.records_shuffled, 2 * table.len() as u64);
        assert_eq!(shared.pairs_generated, unshared.pairs_generated);
        assert_eq!(together.detected, alone.detected, "per rule, in order");
    }

    #[test]
    fn blocking_generates_fewer_pairs_than_detect_only() {
        let table = example1();
        let dedup: Arc<dyn Rule> = Arc::new(DedupRule::new("udf:dedup", 0, 0.8));
        let exec = Executor::new(Engine::sequential());
        let full = exec.detect(&table, &[Arc::clone(&dedup)]).unwrap();
        let blocked_pairs = Metrics::get(&exec.engine().metrics().pairs_generated);
        exec.engine().metrics().reset();
        let only = exec.detect_only(&table, dedup).unwrap();
        let all_pairs = Metrics::get(&exec.engine().metrics().pairs_generated);
        assert!(blocked_pairs < all_pairs, "{blocked_pairs} !< {all_pairs}");
        assert_eq!(
            violating_id_sets(&full),
            violating_id_sets(&only),
            "same violations either way"
        );
    }

    #[test]
    fn two_table_coblock_detects_cross_table_violations() {
        // same FD across two tables that each are internally consistent
        let schema = Schema::parse("zipcode,city");
        let left = Table::from_rows(
            "L",
            schema.clone(),
            vec![vec![Value::Int(90210), Value::str("LA")]],
        );
        let right = Table::new(
            "R",
            schema.clone(),
            vec![Tuple::new(100, vec![Value::Int(90210), Value::str("SF")])],
        );
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
        let exec = Executor::new(Engine::parallel(2));
        let out = exec.detect_two_tables(fd, &left, &right).unwrap();
        assert_eq!(out.violation_count(), 1);
        assert_eq!(out.violations().next().unwrap().tuple_ids(), vec![0, 100]);
    }

    #[test]
    fn guarded_pipeline_skips_outlier_blocks_in_partial_mode() {
        use bigdansing_dataflow::{FaultMode, IsolationOptions};
        // Example 1's only multi-tuple FD block is zipcode 90210 (three
        // tuples); capping blocks at 2 tuples skips it — and with it
        // every FD violation.
        let table = example1();
        let exec = Executor::new(Engine::parallel(2));
        let rule = fd_rule();
        let pipeline = crate::physical::pipeline_for_rule(Arc::clone(&rule), table.name());
        let iso = IsolationOptions {
            mode: FaultMode::Partial,
            max_block_size: Some(2),
            ..IsolationOptions::default()
        };
        let guard = RuleGuard::arm(rule.name(), &iso);
        let out = run_guarded(&exec, &table, &pipeline, &guard).unwrap();
        assert!(out.is_clean(), "the violating block was skipped");
        assert_eq!(guard.units_skipped(), pairs_in_block(3, false));
        // The unguarded run still sees both violations.
        let full = exec.detect(&table, &[rule]).unwrap();
        assert_eq!(full.violation_count(), 2);
    }

    #[test]
    fn guarded_pipeline_raises_typed_error_in_strict_mode() {
        use bigdansing_common::error::Error;
        use bigdansing_dataflow::IsolationOptions;
        let table = example1();
        let exec = Executor::new(Engine::sequential());
        let rule = fd_rule();
        let pipeline = crate::physical::pipeline_for_rule(Arc::clone(&rule), table.name());
        let iso = IsolationOptions {
            max_block_size: Some(2),
            ..IsolationOptions::default()
        };
        let guard = RuleGuard::arm(rule.name(), &iso);
        let err = run_guarded(&exec, &table, &pipeline, &guard).unwrap_err();
        match err {
            Error::Rule { rule: name, cause } => {
                assert_eq!(name, rule.name());
                assert!(cause.contains("straggler"), "{cause}");
            }
            other => panic!("expected Error::Rule, got {other:?}"),
        }
    }

    #[test]
    fn guard_counts_processed_units() {
        use bigdansing_dataflow::IsolationOptions;
        let table = example1();
        let exec = Executor::new(Engine::sequential());
        let rule = fd_rule();
        let pipeline = crate::physical::pipeline_for_rule(Arc::clone(&rule), table.name());
        let guard = RuleGuard::arm(rule.name(), &IsolationOptions::default());
        let out = run_guarded(&exec, &table, &pipeline, &guard).unwrap();
        assert_eq!(out.violation_count(), 2);
        // 90210 has 3 tuples → 3 unordered pairs; every other block is
        // a singleton.
        assert_eq!(guard.units_processed(), 3);
        assert_eq!(guard.units_skipped(), 0);
    }

    #[test]
    fn detect_output_merging() {
        let mut a = DetectOutput::default();
        assert!(a.is_clean());
        let table = example1();
        let exec = Executor::new(Engine::sequential());
        let b = exec.detect(&table, &[fd_rule()]).unwrap();
        a.extend(b.clone());
        a.extend(b.clone());
        assert_eq!(a.violation_count(), 2 * b.violation_count());
        assert!(!a.is_clean());
    }
}
