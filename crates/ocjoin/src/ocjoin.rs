//! Algorithm 2: the OCJoin operator.
//!
//! The join phase is **streaming**: [`try_ocjoin_sink`] enumerates
//! joined pairs and feeds each one straight into a caller-supplied
//! sink inside the join tasks, so the full pair list is never
//! materialized. [`try_ocjoin`] is that join with a sink that collects
//! the pairs, for callers that want them (tests, ablations).
//!
//! Two further refinements over the paper's pseudocode:
//!
//! * the pruning phase sorts the partitions once by the relevant
//!   boundary statistic and binary-searches the feasibility frontier —
//!   O(P log P + tasks) instead of the quadratic all-pairs scan, with
//!   an identical surviving set;
//! * when the rule carries a second ordering condition, each partition
//!   builds a merge-sort tree over its primary-sorted order keyed by
//!   the secondary attribute, so enumeration is output-sensitive
//!   (O(log² n + k) per probe) instead of scan-and-verify over every
//!   primary-condition candidate.

use bigdansing_common::error::{Error, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Tuple, Value};
use bigdansing_dataflow::{PDataset, PassKind};
use bigdansing_rules::ops::Op;
use bigdansing_rules::OrderCond;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for [`try_ocjoin`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OcJoinConfig {
    /// Number of range partitions (`nbParts`). Defaults to
    /// 4 × workers when zero.
    pub nb_parts: usize,
}

/// Below this many primary-condition candidates a linear verify-scan
/// beats the merge-sort tree's O(log² n) descent.
const TREE_MIN_RANGE: usize = 64;

/// A merge-sort tree over a fixed ordering of tuple indices: node `k`
/// of the heap-shaped segment tree stores its range of the ordering
/// re-sorted by a secondary attribute. "Which positions in `[lo, hi)`
/// of the primary order also satisfy `v op t2.B`" decomposes into
/// O(log n) covered nodes, each answering with a binary search and
/// emitting only matching candidates.
struct MergeTree {
    /// Scoped attribute the nodes are sorted by.
    attr: usize,
    len: usize,
    /// Heap layout: root at 1, children of `k` at `2k`/`2k+1`.
    nodes: Vec<Vec<u32>>,
}

impl MergeTree {
    fn build(tuples: &[Tuple], order: &[u32], attr: usize) -> MergeTree {
        let len = order.len();
        let mut nodes = vec![Vec::new(); (4 * len).max(1)];
        if len > 0 {
            Self::build_node(tuples, order, attr, 1, 0, len, &mut nodes);
        }
        MergeTree { attr, len, nodes }
    }

    fn build_node(
        tuples: &[Tuple],
        order: &[u32],
        attr: usize,
        k: usize,
        l: usize,
        r: usize,
        nodes: &mut Vec<Vec<u32>>,
    ) {
        if r - l == 1 {
            nodes[k] = vec![order[l]];
            return;
        }
        let m = (l + r) / 2;
        Self::build_node(tuples, order, attr, 2 * k, l, m, nodes);
        Self::build_node(tuples, order, attr, 2 * k + 1, m, r, nodes);
        let merged = {
            let (a, b) = (&nodes[2 * k], &nodes[2 * k + 1]);
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let va = tuples[a[i] as usize].value(attr);
                let vb = tuples[b[j] as usize].value(attr);
                if va <= vb {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        };
        nodes[k] = merged;
    }

    /// Visit every index at positions `[ql, qr)` of the primary order
    /// whose secondary value satisfies `probe op value` (i.e. the
    /// condition with the *left* tuple's value fixed at `probe`).
    fn for_each_matching<F>(
        &self,
        tuples: &[Tuple],
        ql: usize,
        qr: usize,
        op: Op,
        probe: &Value,
        f: &mut F,
    ) -> Result<()>
    where
        F: FnMut(u32) -> Result<()>,
    {
        if self.len == 0 || ql >= qr {
            return Ok(());
        }
        self.visit(tuples, 1, 0, self.len, ql, qr, op, probe, f)
    }

    #[allow(clippy::too_many_arguments)]
    fn visit<F>(
        &self,
        tuples: &[Tuple],
        k: usize,
        l: usize,
        r: usize,
        ql: usize,
        qr: usize,
        op: Op,
        probe: &Value,
        f: &mut F,
    ) -> Result<()>
    where
        F: FnMut(u32) -> Result<()>,
    {
        if qr <= l || r <= ql {
            return Ok(());
        }
        if ql <= l && r <= qr {
            let list = &self.nodes[k];
            let val = |i: u32| tuples[i as usize].value(self.attr);
            // Keep t2 where `op.holds(probe, t2.value(attr))`: matching
            // entries form a suffix (Lt/Le) or prefix (Gt/Ge) of the
            // node's sorted list.
            let matching = match op {
                Op::Lt => &list[list.partition_point(|&i| val(i) <= probe)..],
                Op::Le => &list[list.partition_point(|&i| val(i) < probe)..],
                Op::Gt => &list[..list.partition_point(|&i| val(i) < probe)],
                Op::Ge => &list[..list.partition_point(|&i| val(i) <= probe)],
                // The tree is only built for ordering ops.
                Op::Eq | Op::Ne => unreachable!("merge tree built for ordering ops only"),
            };
            for &i in matching {
                f(i)?;
            }
            return Ok(());
        }
        let m = (l + r) / 2;
        self.visit(tuples, 2 * k, l, m, ql, qr, op, probe, f)?;
        self.visit(tuples, 2 * k + 1, m, r, ql, qr, op, probe, f)
    }
}

/// One range partition with cached statistics for pruning: min/max of
/// the partitioning attribute, the tuple indices sorted by the primary
/// condition's right-side attribute (the "Sorts" lists of Algorithm 2,
/// kept as `u32` indices so sorting moves no `Value`s), and — for
/// two-plus-condition joins — the merge-sort tree over that order.
struct Part {
    tuples: Vec<Tuple>,
    /// Indices into `tuples`, sorted by the primary right attribute.
    order: Vec<u32>,
    tree: Option<MergeTree>,
    /// What a resident (non-fresh) `t1` joins against.
    fresh: FreshSide,
    min_left: Value,
    max_left: Value,
    min_right: Value,
    max_right: Value,
}

/// The fresh members of a [`Part`] as a right side of their own: a
/// semi-naive join pairs a resident `t1` only with fresh `t2`s.
enum FreshSide {
    /// Every member is fresh: the part itself.
    Whole,
    /// The fresh members, sorted and indexed like any part.
    Some(Box<Part>),
    /// No member is fresh.
    Empty,
}

/// The freshness mask of a semi-naive join: pairs of two tuples it
/// rejects are not enumerated. A full join passes [`ALL_FRESH`].
pub type IsFresh<'a> = &'a (dyn Fn(&Tuple) -> bool + Sync);

/// Everything is fresh: the mask of a full join.
pub const ALL_FRESH: IsFresh<'static> = &|_| true;

/// The secondary attribute a merge-sort tree should index, if the
/// rule's second condition is an ordering comparison.
fn secondary_tree_attr(conds: &[OrderCond]) -> Option<usize> {
    match conds.get(1) {
        Some(c) if matches!(c.op, Op::Lt | Op::Le | Op::Gt | Op::Ge) => Some(c.right_attr),
        _ => None,
    }
}

impl Part {
    fn build(tuples: Vec<Tuple>, conds: &[OrderCond], is_fresh: IsFresh) -> Option<Part> {
        if tuples.is_empty() {
            return None;
        }
        let fresh = if tuples.iter().all(is_fresh) {
            FreshSide::Whole
        } else {
            let fresh = tuples.iter().filter(|t| is_fresh(t)).cloned().collect();
            Part::build(fresh, conds, ALL_FRESH)
                .map_or(FreshSide::Empty, |p| FreshSide::Some(Box::new(p)))
        };
        let left_attr = conds[0].left_attr;
        let right_attr = conds[0].right_attr;
        let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
        order.sort_by(|&a, &b| {
            tuples[a as usize]
                .value(right_attr)
                .cmp(tuples[b as usize].value(right_attr))
        });
        let (mut min_l, mut max_l) = (tuples[0].value(left_attr), tuples[0].value(left_attr));
        for t in &tuples {
            let v = t.value(left_attr);
            if v < min_l {
                min_l = v;
            }
            if v > max_l {
                max_l = v;
            }
        }
        let (min_l, max_l) = (min_l.clone(), max_l.clone());
        let min_r = tuples[order[0] as usize].value(right_attr).clone();
        let max_r = tuples[order[order.len() - 1] as usize]
            .value(right_attr)
            .clone();
        let tree = secondary_tree_attr(conds).map(|attr| MergeTree::build(&tuples, &order, attr));
        Some(Part {
            tuples,
            order,
            tree,
            fresh,
            min_left: min_l,
            max_left: max_l,
            min_right: min_r,
            max_right: max_r,
        })
    }
}

/// Can a pair `(t1 ∈ left, t2 ∈ right)` possibly satisfy
/// `t1.A op t2.B` given the partitions' min/max statistics? This is the
/// pruning predicate (Algorithm 2, line 7) made *sound* for pure
/// inequality conditions: a partition pair is skipped only when no value
/// pair in the ranges can satisfy the primary condition. Kept as the
/// oracle the sweep in [`feasible_tasks`] is tested against.
#[cfg_attr(not(test), allow(dead_code))]
fn feasible(op: Op, left: &Part, right: &Part) -> bool {
    match op {
        Op::Lt => left.min_left < right.max_right,
        Op::Le => left.min_left <= right.max_right,
        Op::Gt => left.max_left > right.min_right,
        Op::Ge => left.max_left >= right.min_right,
        // equality ops are not routed to OCJoin, but stay conservative
        Op::Eq | Op::Ne => true,
    }
}

/// Enumerate the feasible (left, right) partition pairs with a sorted
/// interval sweep instead of the quadratic all-pairs scan: for an
/// ordering op the feasible left set of each right partition is a
/// prefix (Lt/Le, by `min_left`) or suffix (Gt/Ge, by `max_left`) of
/// the sorted partition order, found by binary search. Produces exactly
/// the set [`feasible`] accepts, in row-major order, plus the count of
/// pruned pairs.
fn feasible_tasks(op: Op, parts: &[Part]) -> (Vec<(usize, usize)>, u64) {
    let p = parts.len();
    let mut tasks: Vec<(usize, usize)> = Vec::new();
    match op {
        Op::Lt | Op::Le => {
            let mut by_min: Vec<usize> = (0..p).collect();
            by_min.sort_by(|&a, &b| parts[a].min_left.cmp(&parts[b].min_left));
            for j in 0..p {
                let hi = if op == Op::Lt {
                    by_min.partition_point(|&i| parts[i].min_left < parts[j].max_right)
                } else {
                    by_min.partition_point(|&i| parts[i].min_left <= parts[j].max_right)
                };
                tasks.extend(by_min[..hi].iter().map(|&i| (i, j)));
            }
        }
        Op::Gt | Op::Ge => {
            let mut by_max: Vec<usize> = (0..p).collect();
            by_max.sort_by(|&a, &b| parts[a].max_left.cmp(&parts[b].max_left));
            for j in 0..p {
                let lo = if op == Op::Gt {
                    by_max.partition_point(|&i| parts[i].max_left <= parts[j].min_right)
                } else {
                    by_max.partition_point(|&i| parts[i].max_left < parts[j].min_right)
                };
                tasks.extend(by_max[lo..].iter().map(|&i| (i, j)));
            }
        }
        Op::Eq | Op::Ne => {
            tasks.extend((0..p).flat_map(|i| (0..p).map(move |j| (i, j))));
        }
    }
    // Row-major order keeps the join-task schedule (and thus output
    // partition layout) identical to the old quadratic enumeration.
    tasks.sort_unstable();
    let pruned = (p * p) as u64 - tasks.len() as u64;
    (tasks, pruned)
}

/// The merge pass for one (left-role, right-role) partition pair: for
/// each `t1`, binary-search the right partition's primary-sorted order
/// for the range matching the primary condition, then either walk the
/// merge-sort tree (second ordering condition — emits only candidates
/// that satisfy both) or verify-scan the range. Remaining conditions
/// are verified per emitted pair. Pairs stream into `emit`; nothing is
/// materialized here.
fn enumerate_pair<E>(
    left: &Part,
    right: &Part,
    conds: &[OrderCond],
    is_fresh: IsFresh,
    emit: &mut E,
) -> Result<()>
where
    E: FnMut(&Tuple, &Tuple) -> Result<()>,
{
    let primary = conds[0];
    let rest = &conds[1..];
    for t1 in &left.tuples {
        // semi-naive: a fresh t1 meets every t2, a resident one only
        // the fresh t2s
        let right = match &right.fresh {
            FreshSide::Some(fresh) if !is_fresh(t1) => fresh,
            FreshSide::Empty if !is_fresh(t1) => continue,
            _ => right,
        };
        let ord = &right.order;
        let v1 = t1.value(primary.left_attr);
        let val = |i: &u32| right.tuples[*i as usize].value(primary.right_attr);
        // candidate index range in `order` satisfying the primary op
        let (lo, hi) = match primary.op {
            // t1.A < t2.B  → t2.B in (v1, +∞): first index with value > v1
            Op::Lt => (ord.partition_point(|i| val(i) <= v1), ord.len()),
            Op::Le => (ord.partition_point(|i| val(i) < v1), ord.len()),
            // t1.A > t2.B → t2.B in (-∞, v1): up to first index with value >= v1
            Op::Gt => (0, ord.partition_point(|i| val(i) < v1)),
            Op::Ge => (0, ord.partition_point(|i| val(i) <= v1)),
            Op::Eq => (
                ord.partition_point(|i| val(i) < v1),
                ord.partition_point(|i| val(i) <= v1),
            ),
            Op::Ne => (0, ord.len()),
        };
        match (&right.tree, rest) {
            (Some(tree), [c2, more @ ..]) if primary.op != Op::Ne && hi - lo >= TREE_MIN_RANGE => {
                let probe = t1.value(c2.left_attr);
                tree.for_each_matching(&right.tuples, lo, hi, c2.op, probe, &mut |idx| {
                    let t2 = &right.tuples[idx as usize];
                    if t1.id() == t2.id() {
                        return Ok(());
                    }
                    for c in more {
                        if !c.op.holds(t1.value(c.left_attr), t2.value(c.right_attr)) {
                            return Ok(());
                        }
                    }
                    emit(t1, t2)
                })?;
            }
            _ => {
                'cand: for &idx in &ord[lo..hi] {
                    let t2 = &right.tuples[idx as usize];
                    if t1.id() == t2.id() {
                        continue;
                    }
                    if primary.op == Op::Ne
                        && t1.value(primary.left_attr) == t2.value(primary.right_attr)
                    {
                        continue;
                    }
                    for c in rest {
                        if !c.op.holds(t1.value(c.left_attr), t2.value(c.right_attr)) {
                            continue 'cand;
                        }
                    }
                    emit(t1, t2)?;
                }
            }
        }
    }
    Ok(())
}

/// OCJoin: all ordered pairs `(t1, t2)` (with `t1.id() != t2.id()`)
/// satisfying every condition in `conds`, computed with range
/// partitioning + sorting + pruning + merge joining, and collected.
pub fn try_ocjoin(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
    config: OcJoinConfig,
) -> Result<PDataset<(Tuple, Tuple)>> {
    try_ocjoin_sink(input, conds, config, ALL_FRESH, "pairs", |a, b, out| {
        out.push((a.clone(), b.clone()));
        Ok(())
    })
}

/// Streaming OCJoin: each enumerated pair is handed to `sink` inside
/// the join task, which appends whatever records it derives (typically
/// detected violations) to the task's output — the `(Tuple, Tuple)`
/// pair list is never materialized. `label` names the fused consumer in
/// the recorded pass. `pairs_generated` counts every enumerated pair,
/// attributed once per successfully completed task.
///
/// `conds` must be non-empty (a typed error otherwise — the job path
/// must never bring down the process); the first condition drives
/// partitioning ("OCJoin chooses the first attribute involved in the
/// first condition", §4.3). The sorting and joining phases run under
/// the engine's retry policy with panic isolation; the partitioning and
/// pruning phases are driver-side and cannot lose worker tasks.
///
/// The join is semi-naive under `is_fresh`: only pairs with a fresh
/// member are enumerated, each once. [`ALL_FRESH`] is the full join.
pub fn try_ocjoin_sink<R, F>(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
    config: OcJoinConfig,
    is_fresh: IsFresh,
    label: &str,
    sink: F,
) -> Result<PDataset<R>>
where
    R: Send,
    F: Fn(&Tuple, &Tuple, &mut Vec<R>) -> Result<()> + Sync,
{
    if conds.is_empty() {
        return Err(Error::InvalidPlan(
            "OCJoin needs at least one condition".into(),
        ));
    }
    let engine = input.engine().clone();
    let nb_parts = if config.nb_parts == 0 {
        engine.default_partitions()
    } else {
        config.nb_parts
    };
    let primary = conds[0];

    // Partitioning phase: range partition on the primary left attribute,
    // reading the key in place (no per-record Value construction).
    let raw = input
        .range_partition_by(|t: &Tuple| t.value(primary.left_attr), nb_parts)?
        .into_partitions()?;
    engine.record_pass(
        PassKind::ShuffleMap,
        vec!["ocjoin.range-partition".into()],
        raw.len(),
    );

    // Sorting phase: partitions are borrowed (tuples clone cheaply), so
    // a panicking sort task re-runs against intact input.
    let parts: Vec<Part> = engine
        .run_stage(&raw, |_, p: &Vec<Tuple>| {
            Ok(Part::build(p.clone(), conds, is_fresh))
        })?
        .into_iter()
        .flatten()
        .collect();
    engine.record_pass(PassKind::Join, vec!["ocjoin.sort".into()], raw.len());

    // Pruning phase: sorted interval sweep over partition statistics.
    let (tasks, pruned) = feasible_tasks(primary.op, &parts);
    Metrics::add(&engine.metrics().partitions_pruned, pruned);
    Metrics::add(&engine.metrics().partitions_joined, tasks.len() as u64);

    // Joining phase (parallel over surviving partition pairs).
    let parts_ref = &parts;
    let pairs_seen = AtomicU64::new(0);
    let partitions = engine.run_stage(&tasks, |_, &(i, j)| {
        let mut out = Vec::new();
        let mut local = 0u64;
        enumerate_pair(
            &parts_ref[i],
            &parts_ref[j],
            conds,
            is_fresh,
            &mut |a, b| {
                local += 1;
                sink(a, b, &mut out)
            },
        )?;
        // Counted only when the attempt completes, so retried tasks do
        // not double-count.
        pairs_seen.fetch_add(local, Ordering::Relaxed);
        Ok(out)
    })?;
    Metrics::add(
        &engine.metrics().pairs_generated,
        pairs_seen.load(Ordering::Relaxed),
    );
    engine.record_pass(
        PassKind::Join,
        vec![format!("ocjoin.merge-join+{label}")],
        partitions.len(),
    );
    Ok(PDataset::from_partitions(engine, partitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cross_join_filter;
    use bigdansing_dataflow::Engine;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn tup(id: u64, salary: i64, rate: i64) -> Tuple {
        Tuple::new(id, vec![Value::Int(salary), Value::Int(rate)])
    }

    fn phi2_conds() -> Vec<OrderCond> {
        // t1.salary > t2.salary & t1.rate < t2.rate (scoped attrs 0, 1)
        vec![
            OrderCond {
                left_attr: 0,
                op: Op::Gt,
                right_attr: 0,
            },
            OrderCond {
                left_attr: 1,
                op: Op::Lt,
                right_attr: 1,
            },
        ]
    }

    fn pair_ids(pairs: Result<PDataset<(Tuple, Tuple)>>) -> HashSet<(u64, u64)> {
        let pairs = pairs.unwrap().collect().unwrap();
        pairs.into_iter().map(|(a, b)| (a.id(), b.id())).collect()
    }

    #[test]
    fn matches_naive_on_small_input() {
        let data: Vec<Tuple> = vec![
            tup(1, 100, 30), // poor, high rate
            tup(2, 200, 10), // rich, low rate → (2,1) violates
            tup(3, 150, 20),
            tup(4, 300, 5),
        ];
        let e = Engine::parallel(4);
        let conds = phi2_conds();
        let fast = pair_ids(try_ocjoin(
            PDataset::from_vec(e.clone(), data.clone()),
            &conds,
            OcJoinConfig::default(),
        ));
        let slow = pair_ids(cross_join_filter(PDataset::from_vec(e, data), &conds));
        assert_eq!(fast, slow);
        assert!(fast.contains(&(2, 1)));
        assert!(fast.contains(&(4, 3)));
    }

    #[test]
    fn matches_naive_on_input_large_enough_to_engage_the_tree() {
        // 300 rows spread over few partitions → primary ranges larger
        // than TREE_MIN_RANGE, so the merge-sort-tree path runs.
        let data: Vec<Tuple> = (0..300)
            .map(|i| tup(i, (i as i64 * 31) % 180, (i as i64 * 17) % 90))
            .collect();
        for conds in [
            phi2_conds(),
            vec![
                OrderCond {
                    left_attr: 0,
                    op: Op::Le,
                    right_attr: 0,
                },
                OrderCond {
                    left_attr: 1,
                    op: Op::Ge,
                    right_attr: 1,
                },
            ],
        ] {
            let e = Engine::parallel(4);
            let fast = pair_ids(try_ocjoin(
                PDataset::from_vec(e.clone(), data.clone()),
                &conds,
                OcJoinConfig { nb_parts: 2 },
            ));
            let slow = pair_ids(cross_join_filter(
                PDataset::from_vec(e, data.clone()),
                &conds,
            ));
            assert_eq!(fast, slow);
            assert!(!fast.is_empty());
        }
    }

    #[test]
    fn sweep_pruning_matches_quadratic_oracle() {
        // Partitions with assorted overlapping/disjoint ranges; the
        // sweep must accept exactly the pairs the quadratic oracle
        // accepts, for every ordering op.
        let mk = |lo: i64, hi: i64, id0: u64| -> Part {
            let tuples: Vec<Tuple> = (lo..=hi)
                .enumerate()
                .map(|(k, v)| tup(id0 + k as u64, v, -v))
                .collect();
            Part::build(
                tuples,
                &[OrderCond {
                    left_attr: 0,
                    op: Op::Lt,
                    right_attr: 0,
                }],
                ALL_FRESH,
            )
            .unwrap()
        };
        let parts: Vec<Part> = vec![
            mk(0, 10, 0),
            mk(5, 15, 100),
            mk(20, 30, 200),
            mk(30, 40, 300),
            mk(-5, 2, 400),
            mk(33, 33, 500),
        ];
        for op in [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Ne] {
            let (tasks, pruned) = feasible_tasks(op, &parts);
            let mut oracle: Vec<(usize, usize)> = Vec::new();
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    if feasible(op, &parts[i], &parts[j]) {
                        oracle.push((i, j));
                    }
                }
            }
            assert_eq!(tasks, oracle, "feasible set diverged for {op:?}");
            assert_eq!(
                pruned,
                (parts.len() * parts.len() - oracle.len()) as u64,
                "pruned count diverged for {op:?}"
            );
        }
    }

    #[test]
    fn single_condition_join() {
        let data: Vec<Tuple> = (0..50).map(|i| tup(i, i as i64, 0)).collect();
        let e = Engine::parallel(2);
        let conds = vec![OrderCond {
            left_attr: 0,
            op: Op::Lt,
            right_attr: 0,
        }];
        let out = try_ocjoin(
            PDataset::from_vec(e, data),
            &conds,
            OcJoinConfig { nb_parts: 5 },
        )
        .unwrap();
        // i < j pairs: 50*49/2
        assert_eq!(out.count(), 50 * 49 / 2);
    }

    #[test]
    fn pruning_actually_prunes() {
        let data: Vec<Tuple> = (0..200).map(|i| tup(i, i as i64, -(i as i64))).collect();
        let e = Engine::parallel(2);
        try_ocjoin(
            PDataset::from_vec(e.clone(), data),
            &[OrderCond {
                left_attr: 0,
                op: Op::Gt,
                right_attr: 0,
            }],
            OcJoinConfig { nb_parts: 8 },
        )
        .unwrap();
        assert!(
            Metrics::get(&e.metrics().partitions_pruned) > 0,
            "no partition pair pruned"
        );
    }

    #[test]
    fn no_self_pairs() {
        let data = vec![tup(1, 10, 5), tup(2, 10, 5)];
        let e = Engine::sequential();
        let out = pair_ids(try_ocjoin(
            PDataset::from_vec(e, data),
            &[OrderCond {
                left_attr: 0,
                op: Op::Ge,
                right_attr: 0,
            }],
            OcJoinConfig::default(),
        ));
        assert_eq!(out, HashSet::from([(1, 2), (2, 1)]));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let e = Engine::sequential();
        let conds = phi2_conds();
        for data in [vec![], vec![tup(1, 1, 1)]] {
            let out = try_ocjoin(
                PDataset::from_vec(e.clone(), data),
                &conds,
                OcJoinConfig::default(),
            );
            assert_eq!(out.unwrap().count(), 0);
        }
    }

    #[test]
    fn try_ocjoin_rejects_empty_conditions_with_typed_error() {
        let e = Engine::sequential();
        let err = try_ocjoin(
            PDataset::from_vec(e, vec![tup(1, 1, 1)]),
            &[],
            OcJoinConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(_)), "{err:?}");
    }

    #[test]
    fn try_ocjoin_is_unchanged_under_injected_panics() {
        use bigdansing_dataflow::{ExecMode, FaultInjector, FaultPolicy};
        let data: Vec<Tuple> = (0..120)
            .map(|i| tup(i, (i as i64 * 31) % 50, (i as i64 * 17) % 50))
            .collect();
        let conds = phi2_conds();
        let plain = pair_ids(try_ocjoin(
            PDataset::from_vec(Engine::parallel(4), data.clone()),
            &conds,
            OcJoinConfig { nb_parts: 6 },
        ));
        assert!(!plain.is_empty());
        let faulty_engine = bigdansing_dataflow::Engine::builder(ExecMode::Parallel)
            .workers(4)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(42).with_task_panics(0.3))
            .build();
        let faulty = pair_ids(try_ocjoin(
            PDataset::from_vec(faulty_engine.clone(), data),
            &conds,
            OcJoinConfig { nb_parts: 6 },
        ));
        assert_eq!(plain, faulty);
        assert!(Metrics::get(&faulty_engine.metrics().panics_caught) > 0);
    }

    #[test]
    fn sink_streams_the_naive_joins_pairs_and_counts_each_once() {
        let data: Vec<Tuple> = (0..150)
            .map(|i| tup(i, (i as i64 * 13) % 70, (i as i64 * 29) % 70))
            .collect();
        let conds = phi2_conds();
        let naive = pair_ids(cross_join_filter(
            PDataset::from_vec(Engine::parallel(4), data.clone()),
            &conds,
        ));
        let sink_engine = Engine::parallel(4);
        let streamed: Vec<(u64, u64)> = try_ocjoin_sink(
            PDataset::from_vec(sink_engine.clone(), data),
            &conds,
            OcJoinConfig { nb_parts: 4 },
            ALL_FRESH,
            "collect-ids",
            |a, b, out| {
                out.push((a.id(), b.id()));
                Ok(())
            },
        )
        .unwrap()
        .collect()
        .unwrap();
        assert_eq!(streamed.len(), naive.len(), "a pair was streamed twice");
        assert_eq!(streamed.into_iter().collect::<HashSet<_>>(), naive);
        assert_eq!(
            Metrics::get(&sink_engine.metrics().pairs_generated),
            naive.len() as u64
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn equivalent_to_naive_cross_filter(
            rows in prop::collection::vec((0i64..40, 0i64..40), 0..60),
            op1 in prop::sample::select(vec![Op::Lt, Op::Gt, Op::Le, Op::Ge]),
            op2 in prop::sample::select(vec![Op::Lt, Op::Gt, Op::Le, Op::Ge]),
            nb_parts in 1usize..8,
        ) {
            let data: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .map(|(i, (s, r))| tup(i as u64, *s, *r))
                .collect();
            let conds = vec![
                OrderCond { left_attr: 0, op: op1, right_attr: 0 },
                OrderCond { left_attr: 1, op: op2, right_attr: 1 },
            ];
            let e = Engine::parallel(3);
            let fast = pair_ids(try_ocjoin(PDataset::from_vec(e.clone(), data.clone()), &conds, OcJoinConfig { nb_parts }));
            let slow = pair_ids(cross_join_filter(PDataset::from_vec(e, data), &conds));
            prop_assert_eq!(fast, slow);
        }

        /// The semi-naive join under a mask is exactly the full join's
        /// pairs with at least one fresh member, each emitted once.
        #[test]
        fn masked_join_is_the_fresh_subset_of_the_full_join(
            rows in prop::collection::vec((0i64..40, 0i64..40, any::<bool>()), 0..200),
            op1 in prop::sample::select(vec![Op::Lt, Op::Gt, Op::Le, Op::Ge]),
            op2 in prop::sample::select(vec![Op::Lt, Op::Gt, Op::Le, Op::Ge]),
            nb_parts in 1usize..8,
        ) {
            let data: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .map(|(i, (s, r, _))| tup(i as u64, *s, *r))
                .collect();
            let conds = vec![
                OrderCond { left_attr: 0, op: op1, right_attr: 0 },
                OrderCond { left_attr: 1, op: op2, right_attr: 1 },
            ];
            let fresh = |t: &Tuple| rows[t.id() as usize].2;
            let e = Engine::parallel(3);
            let masked: Vec<(u64, u64)> = try_ocjoin_sink(
                PDataset::from_vec(e.clone(), data.clone()),
                &conds,
                OcJoinConfig { nb_parts },
                &fresh,
                "collect-ids",
                |a, b, out| {
                    out.push((a.id(), b.id()));
                    Ok(())
                },
            )
            .unwrap()
            .collect()
            .unwrap();
            let mut expected: Vec<(u64, u64)> = cross_join_filter(PDataset::from_vec(e, data), &conds)
                .unwrap()
                .collect()
                .unwrap()
                .iter()
                .filter(|(a, b)| fresh(a) || fresh(b))
                .map(|(a, b)| (a.id(), b.id()))
                .collect();
            let mut masked = masked;
            masked.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(masked, expected);
        }
    }
}
