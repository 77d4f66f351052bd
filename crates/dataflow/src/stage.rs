//! The stage-graph IR: lazy, fused, per-partition execution.
//!
//! [`Stage`] is the one way to transform a [`PDataset`]. Running every
//! logical operator as its own physical pass (materializing a full
//! `Vec<Vec<T>>` between passes) is how the paper describes naive
//! plans — and exactly the redundancy its planner exists to remove
//! (Algorithm 1 consolidates shared scans; Appendix G fuses logical
//! operators into platform stages). So a stage is lazy: narrow
//! transforms (`map`, `filter`, `flat_map`, `map_parts`) accumulate
//! into one per-partition closure chain, and a wide boundary — shuffle
//! ([`Stage::group_by_key`] / [`Stage::co_group`]), checkpoint, or
//! collect — forces the whole chain as a **single** pass per partition.
//!
//! Governance compatibility falls out of the design: every forced pass
//! executes through [`Engine::run_stage`], so cancellation checks,
//! fault retries, and panic isolation fire once per *fused pass* (a
//! retried task re-runs the entire chain against its borrowed input
//! partition), and checkpoint boundaries still register in the memory
//! ledger exactly as before.
//!
//! Every pass is recorded on the engine as a [`PassRecord`];
//! [`Engine::explain`] renders the trace so the fusion win is
//! observable (`passes_executed` / `stages_fused` count it).

use crate::engine::Engine;
use crate::grouping::{bucket_of, merge_buckets};
use crate::pdataset::PDataset;
use bigdansing_common::codec::Codec;
use bigdansing_common::error::Result;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// What kind of physical pass a [`PassRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// A fused chain of narrow operators, one task per partition.
    Narrow,
    /// Map side of a shuffle: fused narrow chain + key extraction +
    /// per-reducer bucketing, one task per input partition.
    ShuffleMap,
    /// Reducer-side merge: parallel move-based transpose of map-side
    /// buckets into one bucket per reducer.
    ShuffleMerge,
    /// Reducer-side group/co-group construction, one task per reducer.
    ShuffleReduce,
    /// A join enumeration pass (cartesian, UCrossProduct, OCJoin).
    Join,
    /// A materializing checkpoint boundary (disk round-trip or
    /// ledger-tracked).
    Checkpoint,
    /// A fused repair pass: hypergraph build + BSP connected
    /// components + one per-component repair task per partition.
    Repair,
}

impl PassKind {
    fn label(&self) -> &'static str {
        match self {
            PassKind::Narrow => "narrow",
            PassKind::ShuffleMap => "shuffle-map",
            PassKind::ShuffleMerge => "shuffle-merge",
            PassKind::ShuffleReduce => "shuffle-reduce",
            PassKind::Join => "join",
            PassKind::Checkpoint => "checkpoint",
            PassKind::Repair => "repair",
        }
    }
}

/// One physical pass executed by the fused stage-graph path: which
/// logical operators ran in it, and over how many partitions.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// The kind of pass.
    pub kind: PassKind,
    /// Labels of the logical operators fused into this pass, in
    /// execution order. Empty for engine-internal passes.
    pub ops: Vec<String>,
    /// Number of partitions (or reducers) the pass ran over.
    pub partitions: usize,
}

/// Render a pass trace as the human-readable stage graph shown by
/// `--explain`.
pub fn render_plan(trace: &[PassRecord]) -> String {
    if trace.is_empty() {
        return "stage graph: no fused passes recorded".to_string();
    }
    let passes = trace.len();
    let logical: usize = trace.iter().map(|p| p.ops.len().max(1)).sum();
    let mut out =
        format!("stage graph: {logical} logical stage(s) fused into {passes} physical pass(es)\n");
    for (i, p) in trace.iter().enumerate() {
        let ops = if p.ops.is_empty() {
            "(engine-internal)".to_string()
        } else {
            p.ops.join(" + ")
        };
        out.push_str(&format!(
            "  pass {:>2}  {:<14} x{:<4} {}\n",
            i + 1,
            p.kind.label(),
            p.partitions,
            ops
        ));
    }
    out
}

type BoxIter<'a, T> = Box<dyn Iterator<Item = Result<T>> + 'a>;
type Chain<S, T> = Arc<dyn for<'a> Fn(&'a [S]) -> BoxIter<'a, T> + Send + Sync>;
type SharedPred<T> = Arc<dyn Fn(&T) -> Result<bool> + Send + Sync>;

/// The stage a [`Stage::group_by_key`] shuffle produces: grouped pairs
/// stored as `(K, T)`, consumed as `(K, Vec<T>)`.
pub type GroupedStage<K, T> = Stage<(K, T), (K, Vec<T>)>;

/// Nudge closure inference toward the higher-ranked `Fn` signature the
/// chain type needs.
fn hr<S, T, F>(f: F) -> F
where
    F: for<'a> Fn(&'a [S]) -> BoxIter<'a, T>,
{
    f
}

/// A lazy pipeline over a [`PDataset`]: the dataset it reads, the
/// labels of the logical operators queued so far, and the fused
/// per-partition closure chain that runs them all in one pass.
///
/// `S` is the stored element type, `T` the element type the chain
/// produces. Forcing (via [`Stage::run`], [`Stage::collect`],
/// [`Stage::checkpoint`], or a shuffle) executes the chain as a single
/// [`Engine::run_stage`] pass and records it in the engine's plan
/// trace.
pub struct Stage<S, T> {
    data: PDataset<S>,
    ops: Vec<String>,
    chain: Chain<S, T>,
}

impl<S> Stage<S, S>
where
    S: Clone + Send + Sync + 'static,
{
    /// Start a lazy pipeline over `data` (the identity chain — records
    /// are cloned out of the borrowed partitions when forced, so a
    /// retried task re-reads intact input).
    pub fn over(data: PDataset<S>) -> Stage<S, S> {
        Stage {
            data,
            ops: Vec::new(),
            chain: Arc::new(hr(|part: &[S]| -> BoxIter<'_, S> {
                Box::new(part.iter().map(|s| Ok(s.clone())))
            })),
        }
    }
}

impl<T> Stage<T, T>
where
    T: Clone + Send + Sync + 'static,
{
    /// Consume the stage into a dataset without a pass if no operators
    /// are queued (the chain is still the identity); otherwise force.
    pub fn into_dataset(self) -> Result<PDataset<T>> {
        if self.ops.is_empty() {
            Ok(self.data)
        } else {
            self.run()
        }
    }
}

impl<S, T> Stage<S, T>
where
    S: Send + Sync + 'static,
    T: Send + 'static,
{
    /// Labels of the logical operators queued so far.
    pub fn ops(&self) -> &[String] {
        &self.ops
    }

    /// The owning engine.
    pub fn engine(&self) -> &Engine {
        self.data.engine()
    }

    /// Queue an element-wise map. Narrow: fuses into the current pass.
    pub fn map<R, F>(mut self, name: impl Into<String>, f: F) -> Stage<S, R>
    where
        R: Send + 'static,
        F: Fn(T) -> Result<R> + Send + Sync + 'static,
    {
        self.ops.push(name.into());
        let prev = self.chain;
        let f: Arc<dyn Fn(T) -> Result<R> + Send + Sync> = Arc::new(f);
        Stage {
            data: self.data,
            ops: self.ops,
            chain: Arc::new(hr(move |part: &[S]| -> BoxIter<'_, R> {
                let f = Arc::clone(&f);
                Box::new(prev(part).map(move |r| r.and_then(|t| f(t))))
            })),
        }
    }

    /// Queue a filter. Narrow: fuses into the current pass.
    pub fn filter<F>(mut self, name: impl Into<String>, pred: F) -> Stage<S, T>
    where
        F: Fn(&T) -> Result<bool> + Send + Sync + 'static,
    {
        self.ops.push(name.into());
        let prev = self.chain;
        let pred: SharedPred<T> = Arc::new(pred);
        Stage {
            data: self.data,
            ops: self.ops,
            chain: Arc::new(hr(move |part: &[S]| -> BoxIter<'_, T> {
                let pred = Arc::clone(&pred);
                Box::new(prev(part).filter_map(move |r| match r {
                    Ok(t) => match pred(&t) {
                        Ok(true) => Some(Ok(t)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    },
                    Err(e) => Some(Err(e)),
                }))
            })),
        }
    }

    /// Queue an element-wise flat map. Narrow: fuses into the current
    /// pass.
    pub fn flat_map<R, I, F>(mut self, name: impl Into<String>, f: F) -> Stage<S, R>
    where
        R: Send + 'static,
        I: IntoIterator<Item = R> + 'static,
        I::IntoIter: 'static,
        F: Fn(T) -> Result<I> + Send + Sync + 'static,
    {
        self.ops.push(name.into());
        let prev = self.chain;
        let f: Arc<dyn Fn(T) -> Result<I> + Send + Sync> = Arc::new(f);
        Stage {
            data: self.data,
            ops: self.ops,
            chain: Arc::new(hr(move |part: &[S]| -> BoxIter<'_, R> {
                let f = Arc::clone(&f);
                Box::new(
                    prev(part).flat_map(move |r| -> Box<dyn Iterator<Item = Result<R>>> {
                        match r.and_then(|t| f(t)) {
                            Ok(items) => Box::new(items.into_iter().map(Ok)),
                            Err(e) => Box::new(std::iter::once(Err(e))),
                        }
                    }),
                )
            })),
        }
    }

    /// Queue a whole-partition transform. Still narrow — it fuses into
    /// the same physical pass — but the chain's output is materialized
    /// at this point within the pass, so per-partition batched work
    /// (grouped detection, batched metrics) has a natural home.
    pub fn map_parts<R, F>(mut self, name: impl Into<String>, f: F) -> Stage<S, R>
    where
        R: Send + 'static,
        F: Fn(Vec<T>) -> Result<Vec<R>> + Send + Sync + 'static,
    {
        self.ops.push(name.into());
        let prev = self.chain;
        let f: Arc<dyn Fn(Vec<T>) -> Result<Vec<R>> + Send + Sync> = Arc::new(f);
        Stage {
            data: self.data,
            ops: self.ops,
            chain: Arc::new(hr(move |part: &[S]| -> BoxIter<'_, R> {
                let collected: Result<Vec<T>> = prev(part).collect();
                match collected.and_then(|v| f(v)) {
                    Ok(out) => Box::new(out.into_iter().map(Ok)),
                    Err(e) => Box::new(std::iter::once(Err(e))),
                }
            })),
        }
    }

    /// Force the queued chain as one fused physical pass (per
    /// partition, under the engine's fault policy and cancellation
    /// checks) and record it in the plan trace.
    pub fn run(self) -> Result<PDataset<T>> {
        self.force(PassKind::Narrow)
    }

    fn force(self, kind: PassKind) -> Result<PDataset<T>> {
        let Stage { data, ops, chain } = self;
        let (engine, parts) = data.take_parts()?;
        let out = engine.run_stage(&parts, |_, part: &Vec<S>| {
            chain(part).collect::<Result<Vec<T>>>()
        })?;
        engine.record_pass(kind, ops, parts.len());
        Ok(PDataset::from_partitions(engine, out))
    }

    /// Force and gather every record on the "driver".
    pub fn collect(self) -> Result<Vec<T>> {
        self.run()?.collect()
    }

    /// Map side of a shuffle, recorded as one **shuffle-map** pass named
    /// `op`: run the fused chain over every input partition, key each
    /// record, and bucket it by the reducer its key hashes to.
    #[allow(clippy::type_complexity)]
    fn shuffle_map<K, KF>(self, op: String, key: KF) -> Result<(Engine, Vec<Vec<Vec<(K, T)>>>)>
    where
        K: Hash + Send,
        KF: Fn(&T) -> Result<K> + Sync,
    {
        let Stage {
            data,
            mut ops,
            chain,
        } = self;
        let (engine, parts) = data.take_parts()?;
        let reducers = engine.default_partitions();
        let bucketed = engine.run_stage(&parts, |_, part: &Vec<S>| {
            let mut buckets: Vec<Vec<(K, T)>> = (0..reducers).map(|_| Vec::new()).collect();
            for r in chain(part) {
                let t = r?;
                let k = key(&t)?;
                let b = bucket_of(&k, reducers);
                buckets[b].push((k, t));
            }
            Ok(buckets)
        })?;
        ops.push(op);
        engine.record_pass(PassKind::ShuffleMap, ops, parts.len());
        Ok((engine, bucketed))
    }

    /// Shuffle boundary: force the chain and group its output by a
    /// key, in two parallel passes — a **shuffle-map** pass running
    /// the fused chain + key extraction + per-reducer bucketing over
    /// every input partition, and a move-based **merge** transposing
    /// the buckets to the reducers. The per-reducer group construction
    /// is queued as a narrow op on the returned stage, so it fuses
    /// with whatever runs next (e.g. Iterate→Detect).
    pub fn group_by_key<K, KF>(self, name: &str, key: KF) -> Result<GroupedStage<K, T>>
    where
        T: Clone + Sync,
        K: Hash + Eq + Clone + Send + Sync + 'static,
        KF: Fn(&T) -> Result<K> + Sync,
    {
        let (engine, bucketed) = self.shuffle_map(format!("{name}.key"), key)?;
        let reducers = engine.default_partitions();
        let buckets = merge_buckets(&engine, bucketed, reducers);
        engine.record_pass(PassKind::ShuffleMerge, Vec::new(), reducers);
        let ds = PDataset::from_partitions(engine, buckets);
        Ok(
            Stage::over(ds).map_parts(format!("{name}.group"), |bucket: Vec<(K, T)>| {
                let mut groups: HashMap<K, Vec<T>> = HashMap::new();
                for (k, t) in bucket {
                    groups.entry(k).or_default().push(t);
                }
                Ok(groups.into_iter().collect())
            }),
        )
    }

    /// CoBlock boundary: force both chains and co-group their outputs
    /// on a shared key type. Both map sides and the reduce side run as
    /// parallel passes; keys present in either input appear with both
    /// bags (one possibly empty), as §4.2 specifies.
    #[allow(clippy::type_complexity)]
    pub fn co_group<S2, U, K, KL, KR>(
        self,
        other: Stage<S2, U>,
        name: &str,
        key_left: KL,
        key_right: KR,
    ) -> Result<Stage<(K, Vec<T>, Vec<U>), (K, Vec<T>, Vec<U>)>>
    where
        T: Clone + Sync,
        S2: Send + Sync + 'static,
        U: Clone + Send + Sync + 'static,
        K: Hash + Eq + Clone + Send + Sync + 'static,
        KL: Fn(&T) -> Result<K> + Sync,
        KR: Fn(&U) -> Result<K> + Sync,
    {
        let (engine, bucketed_l) = self.shuffle_map(format!("{name}.key-left"), key_left)?;
        let (_, bucketed_r) = other.shuffle_map(format!("{name}.key-right"), key_right)?;
        let reducers = engine.default_partitions();
        let buckets_l = merge_buckets(&engine, bucketed_l, reducers);
        let buckets_r = merge_buckets(&engine, bucketed_r, reducers);
        engine.record_pass(PassKind::ShuffleMerge, Vec::new(), reducers);
        #[allow(clippy::type_complexity)]
        let zipped: Vec<(Vec<(K, T)>, Vec<(K, U)>)> =
            buckets_l.into_iter().zip(buckets_r).collect();
        let partitions = engine.run_stage(&zipped, |_, (bl, br)| {
            let mut groups: HashMap<K, (Vec<T>, Vec<U>)> = HashMap::new();
            // The zipped buckets stay borrowed so retries re-run intact;
            // records are cloned in, but each key only once per distinct
            // key (not once per record per side).
            for (k, t) in bl {
                match groups.get_mut(k) {
                    Some(g) => g.0.push(t.clone()),
                    None => {
                        groups.insert(k.clone(), (vec![t.clone()], Vec::new()));
                    }
                }
            }
            for (k, u) in br {
                match groups.get_mut(k) {
                    Some(g) => g.1.push(u.clone()),
                    None => {
                        groups.insert(k.clone(), (Vec::new(), vec![u.clone()]));
                    }
                }
            }
            Ok(groups
                .into_iter()
                .map(|(k, (l, r))| (k, l, r))
                .collect::<Vec<_>>())
        })?;
        engine.record_pass(
            PassKind::ShuffleReduce,
            vec![format!("{name}.cogroup")],
            reducers,
        );
        Ok(Stage::over(PDataset::from_partitions(engine, partitions)))
    }
}

impl<S, T> Stage<S, T>
where
    S: Send + Sync + 'static,
    T: Codec + Clone + Send + Sync + 'static,
{
    /// Checkpoint boundary: force the chain, then materialize through
    /// [`PDataset::checkpoint`] (disk round-trip under DiskBacked;
    /// ledger-tracked under a memory budget).
    pub fn checkpoint(self) -> Result<Stage<T, T>> {
        Ok(Stage::over(self.run()?.checkpoint()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;
    use crate::fault::{FaultInjector, FaultPolicy};
    use bigdansing_common::error::Error;
    use bigdansing_common::metrics::Metrics;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn fused_chain_matches_iterator_oracle() {
        let e = Engine::parallel(4);
        let data: Vec<i64> = (0..200).collect();
        let fused = Stage::over(PDataset::from_vec(e, data.clone()))
            .map("double", |x: i64| Ok(x * 2))
            .filter("mod4", |x: &i64| Ok(x % 4 == 0))
            .flat_map("expand", |x: i64| Ok(vec![x, x + 1]))
            .map_parts("negate", |p: Vec<i64>| {
                Ok(p.into_iter().map(|x| -x).collect())
            })
            .collect()
            .unwrap();
        let oracle: Vec<i64> = data
            .into_iter()
            .map(|x| x * 2)
            .filter(|x| x % 4 == 0)
            .flat_map(|x| vec![x, x + 1])
            .map(|x| -x)
            .collect();
        assert_eq!(sorted(fused), sorted(oracle));
    }

    #[test]
    fn three_ops_run_as_one_pass() {
        let e = Engine::parallel(4);
        let _ = Stage::over(PDataset::from_vec(e.clone(), (0..100i64).collect()))
            .map("a", |x: i64| Ok(x + 1))
            .filter("b", |x: &i64| Ok(*x % 2 == 0))
            .map("c", |x: i64| Ok(x * 3))
            .run()
            .unwrap();
        assert_eq!(Metrics::get(&e.metrics().passes_executed), 1);
        assert_eq!(Metrics::get(&e.metrics().stages_fused), 2);
        let plan = e.plan_trace();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].kind, PassKind::Narrow);
        assert_eq!(plan[0].ops, vec!["a", "b", "c"]);
    }

    /// Every group's members, sorted, in key order.
    fn norm_groups(mut g: Vec<(i64, Vec<i64>)>) -> Vec<(i64, Vec<i64>)> {
        for (_, v) in g.iter_mut() {
            v.sort();
        }
        g.sort();
        g
    }

    fn group_oracle(data: &[i64], key: impl Fn(i64) -> i64) -> Vec<(i64, Vec<i64>)> {
        let mut groups: HashMap<i64, Vec<i64>> = HashMap::new();
        for &x in data {
            groups.entry(key(x)).or_default().push(x);
        }
        norm_groups(groups.into_iter().collect())
    }

    #[test]
    fn group_by_key_matches_hashmap_oracle() {
        let e = Engine::parallel(4);
        let data: Vec<i64> = (0..300).collect();
        let fused = norm_groups(
            Stage::over(PDataset::from_vec(e, data.clone()))
                .group_by_key("block", |x: &i64| Ok(x % 13))
                .unwrap()
                .collect()
                .unwrap(),
        );
        assert_eq!(fused.len(), 13);
        assert_eq!(fused, group_oracle(&data, |x| x % 13));
    }

    #[test]
    fn group_by_key_recovers_from_injected_panics() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(4)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(31).with_task_panics(0.3))
            .build();
        let data: Vec<i64> = (0..200).collect();
        let groups = norm_groups(
            Stage::over(PDataset::from_vec(e.clone(), data.clone()))
                .group_by_key("block", |x: &i64| Ok(x % 7))
                .unwrap()
                .collect()
                .unwrap(),
        );
        assert_eq!(groups, group_oracle(&data, |x| x % 7));
        assert!(Metrics::get(&e.metrics().panics_caught) > 0);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let data: Vec<i64> = (0..1000).rev().map(|x| x * 31 % 97).collect();
        let run = |e: Engine| {
            norm_groups(
                Stage::over(PDataset::from_vec(e, data.clone()))
                    .map("mod37", |x: i64| Ok(x % 37))
                    .filter("odd", |x: &i64| Ok(x % 2 == 1))
                    .group_by_key("block", |x: &i64| Ok(x % 11))
                    .unwrap()
                    .collect()
                    .unwrap(),
            )
        };
        assert_eq!(run(Engine::sequential()), run(Engine::parallel(8)));
    }

    #[test]
    fn shuffle_records_map_and_merge_passes() {
        let e = Engine::parallel(2);
        let _ = Stage::over(PDataset::from_vec(e.clone(), (0..40i64).collect()))
            .map("tag", |x: i64| Ok(x))
            .group_by_key("block", |x: &i64| Ok(x % 3))
            .unwrap()
            .run()
            .unwrap();
        let kinds: Vec<PassKind> = e.plan_trace().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PassKind::ShuffleMap,
                PassKind::ShuffleMerge,
                PassKind::Narrow
            ]
        );
        // The map op fused into the shuffle-map pass; the group build
        // fused into the downstream narrow pass.
        assert_eq!(e.plan_trace()[0].ops, vec!["tag", "block.key"]);
        assert_eq!(e.plan_trace()[2].ops, vec!["block.group"]);
        assert_eq!(Metrics::get(&e.metrics().records_shuffled), 40);
    }

    #[test]
    fn errors_propagate_from_fused_ops() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .build();
        let err = Stage::over(PDataset::from_vec(e, (0..10i64).collect()))
            .map("boom", |x: i64| {
                if x == 7 {
                    Err(Error::Parse("bad record".into()))
                } else {
                    Ok(x)
                }
            })
            .collect()
            .unwrap_err();
        assert!(matches!(err, Error::Task { attempts: 1, .. }), "{err:?}");
    }

    #[test]
    fn fused_pass_recovers_from_injected_panics() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(4)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(13).with_task_panics(0.3))
            .build();
        let out = Stage::over(PDataset::from_vec(e.clone(), (0..200i64).collect()))
            .map("inc", |x: i64| Ok(x + 1))
            .filter("odd", |x: &i64| Ok(x % 2 == 1))
            .collect()
            .unwrap();
        assert_eq!(
            sorted(out),
            (0..200)
                .map(|x| x + 1)
                .filter(|x| x % 2 == 1)
                .collect::<Vec<_>>()
        );
        assert!(Metrics::get(&e.metrics().panics_caught) > 0);
    }

    #[test]
    fn cancellation_preempts_a_fused_pass() {
        use bigdansing_common::error::CancelReason;
        let e = Engine::parallel(2);
        let guard = e.begin_job("doomed", None);
        e.cancel_job(CancelReason::User);
        let err = Stage::over(PDataset::from_vec(e, (0..100i64).collect()))
            .map("id", Ok)
            .collect()
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }), "{err:?}");
        drop(guard);
    }

    #[test]
    fn into_dataset_skips_the_identity_pass() {
        let e = Engine::parallel(2);
        let ds = PDataset::from_vec(e.clone(), (0..10i64).collect());
        let out = Stage::over(ds).into_dataset().unwrap();
        assert_eq!(out.count(), 10);
        assert_eq!(Metrics::get(&e.metrics().passes_executed), 0);
    }

    #[test]
    fn co_group_matches_hashmap_oracle() {
        let e = Engine::parallel(3);
        let l: Vec<(i64, i64)> = (0..60).map(|x| (x % 5, x)).collect();
        let r: Vec<(i64, i64)> = (0..40).map(|x| (x % 7, x)).collect();
        type Grouped = Vec<(i64, Vec<(i64, i64)>, Vec<(i64, i64)>)>;
        let norm = |mut out: Grouped| {
            for (_, a, b) in out.iter_mut() {
                a.sort();
                b.sort();
            }
            out.sort_by_key(|(k, _, _)| *k);
            out
        };
        let fused = norm(
            Stage::over(PDataset::from_vec(e.clone(), l.clone()))
                .co_group(
                    Stage::over(PDataset::from_vec(e, r.clone())),
                    "coblock",
                    |x: &(i64, i64)| Ok(x.0),
                    |x: &(i64, i64)| Ok(x.0),
                )
                .unwrap()
                .collect()
                .unwrap(),
        );
        #[allow(clippy::type_complexity)]
        let mut bags: HashMap<i64, (Vec<(i64, i64)>, Vec<(i64, i64)>)> = HashMap::new();
        for x in l {
            bags.entry(x.0).or_default().0.push(x);
        }
        for x in r {
            bags.entry(x.0).or_default().1.push(x);
        }
        let oracle = norm(bags.into_iter().map(|(k, (a, b))| (k, a, b)).collect());
        assert_eq!(fused, oracle);
        // keys 5 and 6 exist on the right only: present, with an empty
        // left bag (§4.2: all keys from both inputs are collected)
        assert_eq!(fused.len(), 7);
        assert!(fused[5].1.is_empty() && !fused[5].2.is_empty());
    }

    #[test]
    fn explain_renders_the_trace() {
        let e = Engine::disk_backed(2);
        let _ = Stage::over(PDataset::from_vec(e.clone(), (0..50i64).collect()))
            .map("scope", |x: i64| Ok(x))
            .group_by_key("block", |x: &i64| Ok(x % 5))
            .unwrap()
            .map_parts("detect", Ok)
            .checkpoint()
            .unwrap();
        let plan = e.explain();
        assert!(plan.contains("stage graph:"), "{plan}");
        assert!(plan.contains("scope + block.key"), "{plan}");
        assert!(plan.contains("block.group + detect"), "{plan}");
        // the materializing checkpoint is a pass of its own, recorded once
        let kinds: Vec<PassKind> = e.plan_trace().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PassKind::ShuffleMap,
                PassKind::ShuffleMerge,
                PassKind::Narrow,
                PassKind::Checkpoint
            ]
        );
        // the next job starts from an empty trace
        drop(e.begin_job("next", None));
        assert!(e.explain().contains("no fused passes"));
    }
}
