//! Incremental OCJoin: probe the per-partition sorted lists with a
//! delta instead of re-sorting the base.
//!
//! A batch run of [`crate::ocjoin`] range-partitions the input on the
//! primary condition's attribute, sorts every partition, prunes
//! partition pairs with min/max statistics, and merge-joins the
//! survivors. When only a handful of tuples changed, almost all of that
//! work re-derives state that did not change. [`OcIndex`] keeps the
//! partitioned sorted lists alive across delta batches: removing or
//! inserting a tuple is a binary search plus a `Vec` splice, and a
//! probe binary-searches the lists from *both* sides (delta as `t1`
//! and delta as `t2`) so the produced ordered pairs are exactly the
//! OCJoin pairs that involve at least one delta tuple.

use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Tuple, Value};
use bigdansing_dataflow::Engine;
use bigdansing_rules::ops::Op;
use bigdansing_rules::OrderCond;
use std::collections::HashMap;

/// One range partition of the index: the resident tuples plus two
/// sorted lists — by the primary condition's left attribute (to find
/// resident `t1` candidates for a delta `t2`) and by its right
/// attribute (to find resident `t2` candidates for a delta `t1`).
#[derive(Debug, Default)]
struct IncPart {
    tuples: HashMap<u64, Tuple>,
    /// Sorted `(value at primary.left_attr, tuple id)`.
    sorted_left: Vec<(Value, u64)>,
    /// Sorted `(value at primary.right_attr, tuple id)`.
    sorted_right: Vec<(Value, u64)>,
}

impl IncPart {
    fn insert(&mut self, left: Value, right: Value, t: Tuple) {
        let id = t.id();
        let li = self
            .sorted_left
            .partition_point(|e| *e < (left.clone(), id));
        self.sorted_left.insert(li, (left, id));
        let ri = self
            .sorted_right
            .partition_point(|e| *e < (right.clone(), id));
        self.sorted_right.insert(ri, (right, id));
        self.tuples.insert(id, t);
    }

    fn remove(&mut self, left: &Value, right: &Value, id: u64) -> bool {
        if self.tuples.remove(&id).is_none() {
            return false;
        }
        if let Ok(i) = self
            .sorted_left
            .binary_search_by(|e| e.cmp(&(left.clone(), id)))
        {
            self.sorted_left.remove(i);
        }
        if let Ok(i) = self
            .sorted_right
            .binary_search_by(|e| e.cmp(&(right.clone(), id)))
        {
            self.sorted_right.remove(i);
        }
        true
    }

    /// Min/max of a sorted list (`None` when empty).
    fn bounds(list: &[(Value, u64)]) -> Option<(&Value, &Value)> {
        Some((&list.first()?.0, &list.last()?.0))
    }
}

/// Candidate index range of `list` whose values `v` satisfy
/// `v rel probe` — the same partition-point arithmetic the batch merge
/// join uses, parameterized by which side of the comparison the sorted
/// values sit on.
fn search_range(list: &[(Value, u64)], rel: Op, probe: &Value) -> (usize, usize) {
    match rel {
        Op::Lt => (0, list.partition_point(|(v, _)| v < probe)),
        Op::Le => (0, list.partition_point(|(v, _)| v <= probe)),
        Op::Gt => (list.partition_point(|(v, _)| v <= probe), list.len()),
        Op::Ge => (list.partition_point(|(v, _)| v < probe), list.len()),
        Op::Eq => (
            list.partition_point(|(v, _)| v < probe),
            list.partition_point(|(v, _)| v <= probe),
        ),
        Op::Ne => (0, list.len()),
    }
}

/// Every condition holds on the ordered pair `(t1, t2)`?
fn holds_all(conds: &[OrderCond], t1: &Tuple, t2: &Tuple) -> bool {
    t1.id() != t2.id()
        && conds
            .iter()
            .all(|c| c.op.holds(t1.value(c.left_attr), t2.value(c.right_attr)))
}

/// A persistent OCJoin index over one rule's ordering conditions:
/// range-partitioned sorted lists maintained across delta batches.
#[derive(Debug)]
pub struct OcIndex {
    conds: Vec<OrderCond>,
    /// Upper-exclusive split keys on the primary left attribute;
    /// `boundaries.len() + 1 == parts.len()`.
    boundaries: Vec<Value>,
    parts: Vec<IncPart>,
}

impl OcIndex {
    /// Build the index over `base` (scoped tuples), partitioned into
    /// `nb_parts` ranges on the primary condition's left attribute —
    /// the same partitioning choice as Algorithm 2.
    ///
    /// # Panics
    /// Panics when `conds` is empty.
    pub fn build(conds: Vec<OrderCond>, base: &[Tuple], nb_parts: usize) -> OcIndex {
        assert!(!conds.is_empty(), "OcIndex needs at least one condition");
        let primary = conds[0];
        let mut keys: Vec<Value> = base
            .iter()
            .map(|t| t.value(primary.left_attr).clone())
            .collect();
        keys.sort();
        let nb_parts = nb_parts.clamp(1, keys.len().max(1));
        let mut boundaries = Vec::new();
        for p in 1..nb_parts {
            let b = keys[p * keys.len() / nb_parts].clone();
            if boundaries.last() != Some(&b) {
                boundaries.push(b);
            }
        }
        let mut index = OcIndex {
            conds,
            parts: (0..=boundaries.len()).map(|_| IncPart::default()).collect(),
            boundaries,
        };
        for t in base {
            index.insert(t.clone());
        }
        index
    }

    /// The partition a primary-left-attribute value routes to.
    fn route(&self, v: &Value) -> usize {
        self.boundaries.partition_point(|b| b <= v)
    }

    /// Resident tuple count.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.tuples.len()).sum()
    }

    /// True when no tuples are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a scoped tuple.
    pub fn insert(&mut self, t: Tuple) {
        let primary = self.conds[0];
        let left = t.value(primary.left_attr).clone();
        let right = t.value(primary.right_attr).clone();
        let p = self.route(&left);
        self.parts[p].insert(left, right, t);
    }

    /// Remove the scoped tuple `t` (matched by id). Returns whether it
    /// was resident.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let primary = self.conds[0];
        let left = t.value(primary.left_attr);
        let right = t.value(primary.right_attr);
        let p = self.route(left);
        self.parts[p].remove(left, right, t.id())
    }

    /// All ordered pairs `(t1, t2)` satisfying every condition where at
    /// least one side is a `delta` tuple: resident×delta and
    /// delta×resident via binary probes of the sorted lists, plus
    /// delta×delta directly. Partitions whose min/max ranges cannot
    /// satisfy the primary condition in either orientation are skipped
    /// (the batch pruning rule, applied to the probe); prune/join and
    /// pair counts land in the engine's metrics.
    ///
    /// Call this *after* removing updated/deleted tuples and *before*
    /// inserting the delta, so resident pairs are never double-counted.
    pub fn probe(&self, engine: &Engine, delta: &[Tuple]) -> Vec<(Tuple, Tuple)> {
        let mut out = Vec::new();
        if delta.is_empty() {
            return out;
        }
        let primary = self.conds[0];
        let (mut dmin_l, mut dmax_l) = (
            delta[0].value(primary.left_attr).clone(),
            delta[0].value(primary.left_attr).clone(),
        );
        let (mut dmin_r, mut dmax_r) = (
            delta[0].value(primary.right_attr).clone(),
            delta[0].value(primary.right_attr).clone(),
        );
        for d in delta {
            for (v, min, max) in [
                (d.value(primary.left_attr), &mut dmin_l, &mut dmax_l),
                (d.value(primary.right_attr), &mut dmin_r, &mut dmax_r),
            ] {
                if v < min {
                    *min = v.clone();
                }
                if v > max {
                    *max = v.clone();
                }
            }
        }
        let mut pruned = 0u64;
        let mut joined = 0u64;
        for part in &self.parts {
            let Some((pmin_l, pmax_l)) = IncPart::bounds(&part.sorted_left) else {
                continue;
            };
            let (pmin_r, pmax_r) =
                IncPart::bounds(&part.sorted_right).expect("lists populated together");
            // delta-as-t1 vs part (probe sorted_right), unless no value
            // pair in range can satisfy the primary condition
            let fwd = feasible_range(primary.op, &dmin_l, &dmax_l, pmin_r, pmax_r);
            // part-as-t1 vs delta (probe sorted_left)
            let bwd = feasible_range(primary.op, pmin_l, pmax_l, &dmin_r, &dmax_r);
            if !fwd && !bwd {
                pruned += 1;
                continue;
            }
            joined += 1;
            for d in delta {
                if fwd {
                    // d is t1: find resident t2 with  d.A op t2.B,
                    // i.e. values v in sorted_right with  v flip(op) d.A
                    let v1 = d.value(primary.left_attr);
                    let (lo, hi) = search_range(&part.sorted_right, primary.op.flip(), v1);
                    for (_, id) in &part.sorted_right[lo..hi] {
                        let t2 = &part.tuples[id];
                        if holds_all(&self.conds, d, t2) {
                            out.push((d.clone(), t2.clone()));
                        }
                    }
                }
                if bwd {
                    // d is t2: find resident t1 with  t1.A op d.B
                    let v2 = d.value(primary.right_attr);
                    let (lo, hi) = search_range(&part.sorted_left, primary.op, v2);
                    for (_, id) in &part.sorted_left[lo..hi] {
                        let t1 = &part.tuples[id];
                        if holds_all(&self.conds, t1, d) {
                            out.push((t1.clone(), d.clone()));
                        }
                    }
                }
            }
        }
        for d1 in delta {
            for d2 in delta {
                if holds_all(&self.conds, d1, d2) {
                    out.push((d1.clone(), d2.clone()));
                }
            }
        }
        Metrics::add(&engine.metrics().partitions_pruned, pruned);
        Metrics::add(&engine.metrics().partitions_joined, joined);
        Metrics::add(&engine.metrics().pairs_generated, out.len() as u64);
        out
    }
}

/// Can any `(l, r)` with `l ∈ [lmin, lmax]`, `r ∈ [rmin, rmax]` satisfy
/// `l op r`? The batch pruning rule over explicit ranges.
fn feasible_range(op: Op, lmin: &Value, lmax: &Value, rmin: &Value, rmax: &Value) -> bool {
    match op {
        Op::Lt => lmin < rmax,
        Op::Le => lmin <= rmax,
        Op::Gt => lmax > rmin,
        Op::Ge => lmax >= rmin,
        Op::Eq | Op::Ne => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_ocjoin, OcJoinConfig};
    use bigdansing_dataflow::PDataset;
    use std::collections::HashSet;

    fn tup(id: u64, salary: i64, rate: i64) -> Tuple {
        Tuple::new(id, vec![Value::Int(salary), Value::Int(rate)])
    }

    fn phi2_conds() -> Vec<OrderCond> {
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

    fn pair_ids(pairs: &[(Tuple, Tuple)]) -> HashSet<(u64, u64)> {
        pairs.iter().map(|(a, b)| (a.id(), b.id())).collect()
    }

    /// Oracle: the delta-involving subset of a batch OCJoin over
    /// base ∪ delta.
    fn oracle(
        base: &[Tuple],
        delta: &[Tuple],
        conds: &[OrderCond],
        engine: &Engine,
    ) -> HashSet<(u64, u64)> {
        let mut all: Vec<Tuple> = base.to_vec();
        all.extend(delta.iter().cloned());
        let delta_ids: HashSet<u64> = delta.iter().map(Tuple::id).collect();
        try_ocjoin(
            PDataset::from_vec(engine.clone(), all),
            conds,
            OcJoinConfig::default(),
        )
        .and_then(PDataset::collect)
        .unwrap()
        .iter()
        .map(|(a, b)| (a.id(), b.id()))
        .filter(|(a, b)| delta_ids.contains(a) || delta_ids.contains(b))
        .collect()
    }

    #[test]
    fn probe_matches_batch_ocjoin_subset() {
        let base: Vec<Tuple> = (0..100)
            .map(|i| tup(i, (i as i64 * 37) % 60, (i as i64 * 23) % 60))
            .collect();
        let delta = vec![tup(1000, 30, 10), tup(1001, 5, 55), tup(1002, 59, 0)];
        let conds = phi2_conds();
        let engine = Engine::parallel(2);
        let index = OcIndex::build(conds.clone(), &base, 8);
        let got = index.probe(&engine, &delta);
        assert_eq!(pair_ids(&got), oracle(&base, &delta, &conds, &engine));
        assert_eq!(got.len(), pair_ids(&got).len(), "no duplicate pairs");
    }

    #[test]
    fn remove_then_probe_reflects_deletion() {
        let base = vec![tup(1, 100, 30), tup(2, 200, 10), tup(3, 150, 20)];
        let conds = phi2_conds();
        let engine = Engine::sequential();
        let mut index = OcIndex::build(conds, &base, 2);
        assert!(index.remove(&base[1]));
        assert!(!index.remove(&base[1]), "second removal is a no-op");
        assert_eq!(index.len(), 2);
        let delta = vec![tup(9, 300, 5)];
        let got = index.probe(&engine, &delta);
        // partner 2 is gone; pairs only against 1 and 3
        assert!(pair_ids(&got).contains(&(9, 1)));
        assert!(!pair_ids(&got).iter().any(|&(a, b)| a == 2 || b == 2));
    }

    #[test]
    fn inserted_delta_joins_future_probes() {
        let conds = phi2_conds();
        let engine = Engine::sequential();
        let mut index = OcIndex::build(conds, &[tup(1, 100, 30)], 2);
        index.insert(tup(2, 200, 10));
        let got = index.probe(&engine, &[tup(3, 300, 5)]);
        let ids = pair_ids(&got);
        assert!(ids.contains(&(3, 1)) && ids.contains(&(3, 2)));
    }

    #[test]
    fn delta_delta_pairs_are_included_once() {
        let conds = phi2_conds();
        let engine = Engine::sequential();
        let index = OcIndex::build(conds, &[], 4);
        let delta = vec![tup(1, 100, 30), tup(2, 200, 10)];
        let got = index.probe(&engine, &delta);
        assert_eq!(pair_ids(&got), HashSet::from([(2, 1)]));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn empty_partitions_prune() {
        let base: Vec<Tuple> = (0..200).map(|i| tup(i, i as i64, -(i as i64))).collect();
        let engine = Engine::sequential();
        let index = OcIndex::build(
            vec![OrderCond {
                left_attr: 0,
                op: Op::Gt,
                right_attr: 0,
            }],
            &base,
            8,
        );
        let before = Metrics::get(&engine.metrics().partitions_pruned);
        // a delta smaller than everything: as t1 it beats nothing, and
        // no resident left value can exceed every resident right value
        // in high partitions... probe still correct, pruning counted
        let _ = index.probe(&engine, &[tup(999, -1000, 5000)]);
        assert!(Metrics::get(&engine.metrics().partitions_pruned) >= before);
    }
}
