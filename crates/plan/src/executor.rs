//! The execution layer: physical pipelines → fused dataflow stages
//! (Appendix G of the paper, modulo the Spark→threads substitution).
//!
//! Pipelines are built against the lazy [`Stage`] API, so narrow
//! operators fuse: Scope flows straight into the shuffle-map side of
//! Block, and the reducer-side group construction fuses with
//! Iterate→Detect→GenFix into one pass per partition. The only
//! remaining materialization is the final [`PDataset::checkpoint`] —
//! a no-op on the in-memory engines and a full disk round-trip on the
//! Hadoop-like [`bigdansing_dataflow::ExecMode::DiskBacked`] engine.
//! [`Engine::explain`] shows which logical operators landed in which
//! physical passes.

use crate::enumerate::{bucket_hash, Delta, IndexKeys, Member, Origin, PairCounts, PairRule};
use crate::physical::{IterateStrategy, RulePipeline};
use bigdansing_common::error::{Error, Result};
use bigdansing_common::metrics::{deep_clones_total, Metrics};
use bigdansing_common::{KeyDict, KeyId, Table, Tuple};
use bigdansing_dataflow::fault::{pairs_in_block, RuleGuard};
use bigdansing_dataflow::{Engine, PDataset, Stage};
use bigdansing_ocjoin::{try_ocjoin_sink, OcJoinConfig};
use bigdansing_rules::{DetectUnit, Fix, Rule, RuleExt, Violation};
use std::sync::Arc;

/// One detection as a detect pass produces it: where it came from, the
/// violation, and its possible fixes.
type Found = (Origin, (Violation, Vec<Fix>));

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

    /// All possible fixes, flattened (borrowed, no intermediate
    /// allocation).
    pub fn all_fixes(&self) -> impl Iterator<Item = &Fix> {
        self.detected.iter().flat_map(|(_, fs)| fs.iter())
    }

    /// Number of possible fixes.
    pub fn fix_count(&self) -> usize {
        self.detected.iter().map(|(_, fs)| fs.len()).sum()
    }
}

/// The fused reducer body of every bucketed strategy: gate each bucket
/// through the guard, then run Detect over its candidate units — the
/// pairs the shared [`PairRule`] draws from it with the delta as the
/// freshness mask (no delta: all members fresh — a full detect is the
/// delta enumeration with an empty resident side), or the whole bucket
/// as one list unit when there is no pair rule (under a delta only
/// dirty buckets reach the reducer).
fn detect_buckets<M: Member>(
    groups: &[(KeyId, Vec<M>)],
    pair_rule: Option<PairRule>,
    rule: &Arc<dyn Rule>,
    guard: Option<&RuleGuard>,
    delta: Option<&Delta>,
    metrics: &Metrics,
) -> Result<Vec<(Origin, Violation)>> {
    let mut vs = Vec::new();
    let mut lists = 0u64;
    let mut counts = PairCounts::default();
    for (_, bucket) in groups {
        if let Some(g) = guard {
            g.check_budget()?;
            let expected =
                pair_rule.map_or(1, |r| pairs_in_block(bucket.len(), r.both_orientations));
            if !g.admit_block(bucket.len(), expected)? {
                continue;
            }
        }
        let Some(pairs) = pair_rule else {
            let block = M::units(bucket);
            let origin = Origin::Bucket(bucket_hash(rule.as_ref(), &block[0]));
            let found = rule.detect(&DetectUnit::List(&block));
            vs.extend(found.into_iter().map(|v| (origin, v)));
            lists += 1;
            continue;
        };
        pairs.pairs(
            bucket,
            |m| delta.is_none_or(|d| d.is_fresh(m.tuple())),
            &mut counts,
            |a, b| {
                if let Some(g) = guard {
                    g.check_budget()?;
                }
                let unit = Origin::Unit(a.id(), b.id());
                vs.extend(rule.detect_pair(a, b).into_iter().map(|v| (unit, v)));
                Ok::<(), Error>(())
            },
        )?;
    }
    if delta.is_some() {
        let members: usize = groups.iter().map(|(_, bucket)| bucket.len()).sum();
        Metrics::add(&metrics.tuples_reprocessed, members as u64);
        Metrics::add(&metrics.blocks_dirty, groups.len() as u64);
    }
    if let Some(pairs) = pair_rule {
        pairs.record(&counts, metrics);
    }
    let units = lists + counts.emitted;
    Metrics::add(&metrics.detect_calls, units);
    if let Some(g) = guard {
        g.count_units(units);
    }
    Ok(vs)
}

/// Runs physical pipelines on a dataflow engine.
#[derive(Clone)]
pub struct Executor {
    engine: Engine,
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

    /// Run Iterate, Detect, and GenFix fused into the pending stage:
    /// candidate units are generated, tested, and — when a GenFix is
    /// present — annotated with their possible fixes inside the same
    /// physical pass as whatever narrow work precedes them (Scope, the
    /// reducer-side group build of Block); candidates are never
    /// materialized as a whole. Metrics (`pairs_generated`,
    /// `detect_calls`) are kept via per-partition batched atomics.
    ///
    /// With a [`Delta`] the pass is semi-naive — only candidate units
    /// with a changed member are evaluated, each arm below says how —
    /// is labelled `redetect(<rule>)` in the plan trace, and counts what
    /// it touched in `tuples_reprocessed` / `blocks_dirty`. Without one
    /// everything is fresh: the same pass, as a full detect.
    ///
    /// Every forced pass runs fault-tolerantly: partition tasks execute
    /// under panic isolation and are retried per the engine's
    /// [`bigdansing_dataflow::FaultPolicy`] — a retry re-runs the whole
    /// fused pass for that partition. A task that exhausts its budget
    /// surfaces as `Error::Task` naming the partition.
    ///
    /// With a [`RuleGuard`], the fused reducer polls the rule's soft
    /// time budget before every Detect/GenFix invocation and gates each
    /// block through the outlier straggler threshold — skipped blocks
    /// are counted on the guard (partial mode) or abort the pass with a
    /// typed `Error::Rule` (strict mode).
    fn iterate_and_detect(
        &self,
        scoped: Stage<Tuple, Tuple>,
        rule: &Arc<dyn Rule>,
        strategy: &IterateStrategy,
        use_genfix: bool,
        guard: Option<&Arc<RuleGuard>>,
        delta: Option<&Arc<Delta>>,
    ) -> Result<PDataset<Found>> {
        let metrics = self.engine.metrics().clone();
        let finish = move |r: &Arc<dyn Rule>, vs: Vec<(Origin, Violation)>| -> Vec<Found> {
            vs.into_iter()
                .map(|(unit, v)| {
                    let fixes = if use_genfix {
                        r.gen_fix(&v)
                    } else {
                        Vec::new()
                    };
                    (unit, (v, fixes))
                })
                .collect()
        };
        let detect_op = match delta {
            None => format!("iterate+detect+genfix({})", rule.name()),
            Some(_) => format!("redetect({})", rule.name()),
        };
        let block_op = format!("block({})", rule.name());
        let guard = guard.cloned();
        let delta = delta.cloned();
        match strategy {
            IterateStrategy::SingleUnits => {
                let r = Arc::clone(rule);
                scoped
                    .map_parts(detect_op, move |mut part: Vec<Tuple>| {
                        if let Some(d) = &delta {
                            part.retain(|t| d.is_fresh(t));
                            Metrics::add(&metrics.tuples_reprocessed, part.len() as u64);
                        }
                        Metrics::add(&metrics.detect_calls, part.len() as u64);
                        let mut vs = Vec::new();
                        for t in &part {
                            if let Some(g) = &guard {
                                g.check_budget()?;
                            }
                            let found = r.detect(&DetectUnit::Single(t));
                            let unit = Origin::Unit(t.id(), t.id());
                            vs.extend(found.into_iter().map(|v| (unit, v)));
                        }
                        if let Some(g) = &guard {
                            g.count_units(part.len() as u64);
                        }
                        Ok(finish(&r, vs))
                    })
                    .run()
            }
            IterateStrategy::BlockList | IterateStrategy::BlockPairs { .. } => {
                let (rb, st) = (Arc::clone(rule), strategy.clone());
                let rd = Arc::clone(rule);
                let pair_rule = strategy.pair_rule();
                // Under a delta only the dirty buckets are regrouped.
                let scoped = match &delta {
                    Some(d) => {
                        let r = Arc::clone(rule);
                        let dirty = d.dirty_buckets(r.as_ref());
                        scoped.filter("dirty-blocks", move |t| {
                            Ok(dirty.contains(&bucket_hash(r.as_ref(), t)))
                        })
                    }
                    None => scoped,
                };
                // Blocking keys are dictionary-encoded once per pass:
                // downstream routing/grouping moves 8-byte `KeyId`s, not
                // `Value` payloads.
                let dict = Arc::new(KeyDict::new());
                scoped
                    .group_by_key(&block_op, move |t| {
                        let IndexKeys::One(key) = st.index_keys(rb.as_ref(), t) else {
                            unreachable!("block strategies index under one key");
                        };
                        Ok(dict.encode(key))
                    })?
                    .map_parts(detect_op, move |groups| {
                        let (guard, delta) = (guard.as_deref(), delta.as_deref());
                        let vs = detect_buckets(&groups, pair_rule, &rd, guard, delta, &metrics)?;
                        Ok(finish(&rd, vs))
                    })
                    .run()
            }
            IterateStrategy::LshBlocks { .. } => {
                // MinHash/LSH banding: each scoped tuple fans out into
                // one record per band (an O(1) handle clone — the Arc'd
                // payload is shared), keyed by the dictionary-encoded
                // `(band, bucket hash)` pair so the KeyId shuffle path
                // is reused verbatim. The `(band, bucket hash)` pair is
                // interned directly as a `Copy` key — no per-record
                // `Vec<Value>` payload on the hot path.
                // A delta does not thin this shuffle: the signature, not
                // the shuffle, is what a record costs, and it is needed
                // to know the buckets. The mask skips the clean ones.
                let (rb, st) = (Arc::clone(rule), strategy.clone());
                let rd = Arc::clone(rule);
                let pair_rule = strategy.pair_rule();
                let dict = Arc::new(KeyDict::new());
                let sig_op = format!("lsh-signature({})", rule.name());
                scoped
                    .flat_map(sig_op, move |t: Tuple| {
                        let IndexKeys::Bands(hashes) = st.index_keys(rb.as_ref(), &t) else {
                            unreachable!("LshBlocks indexes under band keys");
                        };
                        Ok((0..hashes.len() as u32)
                            .map(move |k| (k, Arc::clone(&hashes), t.clone()))
                            .collect::<Vec<_>>())
                    })
                    .group_by_key(
                        &block_op,
                        move |(k, hashes, _): &(u32, Arc<[u64]>, Tuple)| {
                            Ok(dict.encode((*k, hashes[*k as usize])))
                        },
                    )?
                    .map_parts(detect_op, move |groups| {
                        let (guard, delta) = (guard.as_deref(), delta.as_deref());
                        let vs = detect_buckets(&groups, pair_rule, &rd, guard, delta, &metrics)?;
                        Ok(finish(&rd, vs))
                    })
                    .run()
            }
            IterateStrategy::UCrossProduct | IterateStrategy::CrossProduct => {
                // Unblocked pair strategies draw their pairs from the
                // engine's parallel cartesian primitives rather than one
                // global bucket; the pair rule picks the primitive and
                // supplies the diagonal filter, the delta the
                // freshness filter.
                let rd = Arc::clone(rule);
                let pair_rule = strategy
                    .pair_rule()
                    .expect("cross products enumerate pairs");
                let data = scoped.into_dataset()?;
                let pairs = if pair_rule.both_orientations {
                    data.self_cross_product()?
                } else {
                    data.self_cartesian()?
                };
                pairs
                    .stage()
                    .map_parts(detect_op, move |part: Vec<(Tuple, Tuple)>| {
                        let mut vs = Vec::new();
                        let mut units = 0u64;
                        for (a, b) in &part {
                            let fresh = delta
                                .as_ref()
                                .is_none_or(|d| d.is_fresh(a) || d.is_fresh(b));
                            if !fresh || !pair_rule.admits(a, b) {
                                continue;
                            }
                            if let Some(g) = &guard {
                                g.check_budget()?;
                            }
                            units += 1;
                            let unit = Origin::Unit(a.id(), b.id());
                            vs.extend(rd.detect_pair(a, b).into_iter().map(|v| (unit, v)));
                        }
                        Metrics::add(&metrics.detect_calls, units);
                        if let Some(g) = &guard {
                            g.count_units(units);
                        }
                        Ok(finish(&rd, vs))
                    })
                    .run()
            }
            IterateStrategy::OcJoin(conds) => {
                // Streaming join: every enumerated pair flows straight
                // into Detect (+GenFix) inside the join task — the pair
                // list is never materialized.
                let rd = Arc::clone(rule);
                let pairs_before = Metrics::get(&metrics.pairs_generated);
                let is_fresh = |t: &Tuple| delta.as_ref().is_none_or(|d| d.is_fresh(t));
                let detected = try_ocjoin_sink(
                    scoped.into_dataset()?,
                    conds,
                    OcJoinConfig::default(),
                    &is_fresh,
                    &detect_op,
                    |a, b, out| {
                        if let Some(g) = &guard {
                            g.check_budget()?;
                            g.count_units(1);
                        }
                        for v in rd.detect_pair(a, b) {
                            let fixes = if use_genfix {
                                rd.gen_fix(&v)
                            } else {
                                Vec::new()
                            };
                            out.push((Origin::Unit(a.id(), b.id()), (v, fixes)));
                        }
                        Ok(())
                    },
                )?;
                let pairs = Metrics::get(&metrics.pairs_generated) - pairs_before;
                Metrics::add(&metrics.detect_calls, pairs);
                Ok(detected)
            }
        }
    }

    /// Run one pipeline over an already-loaded dataset, built lazily so
    /// Scope fuses into the shuffle-map (or detect) pass instead of
    /// running as its own materialized stage.
    ///
    /// Under a [`RuleGuard`] the fused reducer polls the guard's soft
    /// time budget between Detect/GenFix invocations and gates blocks
    /// through its straggler threshold. The isolation-aware cleanse loop
    /// arms one guard per rule pass and reads its processed/skipped
    /// counters afterwards.
    ///
    /// With a [`Delta`] the pass is semi-naive: it returns only the
    /// detections of candidate units with a changed member, which the
    /// caller adds to the earlier detections the delta left standing
    /// (see [`DetectOutput::origins`]). `None` is a full detect.
    pub fn run_pipeline(
        &self,
        data: PDataset<Tuple>,
        pipeline: &RulePipeline,
        guard: Option<&Arc<RuleGuard>>,
        delta: Option<&Arc<Delta>>,
    ) -> Result<DetectOutput> {
        self.engine.check_cancelled()?;
        let rule = Arc::clone(&pipeline.rule);
        let clones_before = deep_clones_total();

        // PScope: queued as a narrow op — no pass of its own.
        let scoped = if pipeline.use_scope {
            let r = Arc::clone(&rule);
            data.stage()
                .flat_map(format!("scope({})", rule.name()), move |t: Tuple| {
                    Ok(r.scope(&t))
                })
        } else {
            data.stage()
        };

        // PBlock / PIterate / PDetect / PGenFix (fused), then the final
        // stage-boundary materialization.
        let detected_ds = self.iterate_and_detect(
            scoped,
            &rule,
            &pipeline.strategy,
            pipeline.use_genfix,
            guard,
            delta,
        )?;
        self.collect_detected(detected_ds, clones_before)
    }

    /// The final stage-boundary materialization of a detect pass, with
    /// its accounting: violations found, and the pass's deep-copy
    /// activity (tuple materializations, key clones) attributed to the
    /// engine's `tuples_cloned` counter.
    fn collect_detected(
        &self,
        detected_ds: PDataset<Found>,
        clones_before: u64,
    ) -> Result<DetectOutput> {
        let metrics = self.engine.metrics();
        let found = detected_ds.checkpoint()?.collect()?;
        Metrics::add(&metrics.violations, found.len() as u64);
        Metrics::add(&metrics.tuples_cloned, deep_clones_total() - clones_before);
        let (origins, detected) = found.into_iter().unzip();
        Ok(DetectOutput { detected, origins })
    }

    /// Detect with a **shared scan**: the table is loaded once and every
    /// rule's pipeline runs over the same in-memory dataset — the
    /// execution-layer counterpart of plan consolidation.
    pub fn detect(&self, table: &Table, rules: &[Arc<dyn Rule>]) -> Result<DetectOutput> {
        let data = self.load(table);
        let mut out = DetectOutput::default();
        for rule in rules {
            self.engine.check_cancelled()?;
            let pipeline = crate::physical::pipeline_for_rule(Arc::clone(rule), table.name());
            out.extend(self.run_pipeline(data.duplicate()?, &pipeline, None, None)?);
        }
        Ok(out)
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
        self.run_pipeline(self.load(table), &pipeline, None, None)
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
        let clones_before = deep_clones_total();
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
                                out.push((Origin::Unit(a.id(), b.id()), (v, fixes)));
                            }
                        }
                    }
                }
                Metrics::add(&metrics.pairs_generated, pairs);
                Metrics::add(&metrics.detect_calls, pairs);
                Ok(out)
            })
            .run()?;
        self.collect_detected(detected_ds, clones_before)
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

    #[test]
    fn shared_scan_loads_once_per_detect_call() {
        let table = example1();
        let rules: Vec<Arc<dyn Rule>> = vec![fd_rule(), fd_rule()];
        let exec = Executor::new(Engine::sequential());
        let _ = exec.detect(&table, &rules).unwrap();
        let shared = Metrics::get(&exec.engine().metrics().tuples_scanned);
        exec.engine().metrics().reset();
        for rule in &rules {
            let _ = exec.detect(&table, std::slice::from_ref(rule)).unwrap();
        }
        let unshared = Metrics::get(&exec.engine().metrics().tuples_scanned);
        assert_eq!(shared, table.len() as u64);
        assert_eq!(unshared, 2 * table.len() as u64);
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
        let out = exec
            .run_pipeline(exec.load(&table), &pipeline, Some(&guard), None)
            .unwrap();
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
        let err = exec
            .run_pipeline(exec.load(&table), &pipeline, Some(&guard), None)
            .unwrap_err();
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
        let out = exec
            .run_pipeline(exec.load(&table), &pipeline, Some(&guard), None)
            .unwrap();
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
