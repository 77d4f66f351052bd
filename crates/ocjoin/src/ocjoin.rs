//! Algorithm 2: the OCJoin operator, and its resident form.
//!
//! The join phase is **streaming**: [`try_ocjoin_sink`] enumerates
//! joined pairs and feeds each one straight into a caller-supplied
//! sink inside the join tasks, so the full pair list is never
//! materialized. [`try_ocjoin`] is that join with a sink that collects
//! the pairs, for callers that want them (tests, ablations). Each join
//! task hands its records over in the order of the ids of the pairs
//! that derived them, so no part layout decides their order.
//!
//! Two further refinements over the paper's pseudocode:
//!
//! * the pruning phase sorts the partitions once by the relevant
//!   boundary statistic and binary-searches the feasibility frontier —
//!   O(P log P + tasks) instead of the quadratic all-pairs scan, with
//!   an identical surviving set;
//! * when the rule carries a second ordering condition, a partition
//!   pair is joined with IEJoin's sweep (Khayyat et al., *Lightning
//!   Fast and Space Efficient Inequality Joins*, PVLDB 2015): the left
//!   side is walked in primary-key order while a monotone pointer over
//!   the right side's sorted primary keys sets the bit of each `t2`
//!   that comes to satisfy the primary condition, in a bit array
//!   ordered by the secondary key; each `t1` then emits the set bits of
//!   its secondary range. Enumeration reads contiguous key arrays and
//!   machine words instead of scan-and-verify over every
//!   primary-condition candidate.
//!
//! When every sorted condition compares an attribute with itself
//! (`t1.A op t2.A`, every DC shape of the paper's tax rules), a part's
//! sorted right keys are also its members' left keys, and the join
//! reads only the parts' arrays until a pair is emitted: `t1`'s primary
//! key is `keys[p]` at its primary position `p`, its secondary key
//! `keys[rank[p]]` of the secondary array, and the range of right keys
//! each left key matches comes from IEJoin's offset array — one
//! galloping merge of the two ascending key arrays, each bound found by
//! an exponential search from the one before: O(n + m) for a full join,
//! O(n log m) for a small Δ. The same merge bounds the single-condition
//! scan, whose `t1`s are then visited in primary order. A condition
//! across attributes (`t1.A op t2.B`) reads each visited `t1`'s keys
//! through its tuple and binary-searches the right keys instead.
//!
//! A [`JoinIndex`] keeps a join's range parts — the sorted key arrays,
//! the permutation and the left order — between joins, the structure of
//! the incremental IEJoin (Khayyat et al., VLDBJ 2017). A change is
//! staged into it: the held versions of the records it replaces or
//! deletes are marked stale, and its new versions are sorted into one
//! small Δ part. The next join is then ΔR ⋈ R ∪ R ⋈ ΔR ∪ ΔR ⋈ ΔR, pruned
//! and swept as any join, skipping stale members, and a merge folds Δ
//! into the parts, merging each array's live run with the sorted
//! additions.

use bigdansing_common::error::{Error, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Tuple, TupleId, Value};
use bigdansing_dataflow::{Engine, PDataset, PassKind};
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

/// One range partition, fresh or resident, with cached statistics for
/// pruning: min/max of the partitioning attribute, the primary
/// condition's right keys sorted (the "Sorts" lists of Algorithm 2,
/// copied once into a contiguous array) with the tuple index of each,
/// and — for joins with two ordering conditions — IEJoin's arrays.
#[derive(Clone, Debug)]
struct Part {
    tuples: Vec<Tuple>,
    /// Whether the members are fresh: a semi-naive join pairs two parts
    /// only when one of them is.
    fresh: bool,
    /// The members a staged change replaced or deleted: every join
    /// skips them, and the next merge drops them.
    stale: Vec<bool>,
    /// The primary right keys ascending, and the tuple index of each.
    keys: Vec<Value>,
    order: Vec<u32>,
    sweep: Option<Sweep>,
    min_left: Value,
    max_left: Value,
    min_right: Value,
    max_right: Value,
}

/// IEJoin's arrays for the second ordering condition `t1.C op t2.D`.
#[derive(Clone, Debug)]
struct Sweep {
    /// Tuple indices sorted by the primary left attribute; `None` when
    /// that is the primary right attribute, whose `order` serves.
    left_order: Option<Vec<u32>>,
    /// The secondary right keys ascending (IEJoin's L2), and the tuple
    /// index of each.
    keys: Vec<Value>,
    order: Vec<u32>,
    /// The rank in `keys` of each position of the part's primary
    /// `order` (IEJoin's permutation array).
    rank: Vec<u32>,
}

/// True when the join sweeps: its first two conditions are orderings.
fn sweeps(conds: &[OrderCond]) -> bool {
    matches!(conds, [c1, c2, ..] if c1.op.is_ordering() && c2.op.is_ordering())
}

/// Ascending keys and the tuple index of each.
type Sorted = (Vec<Value>, Vec<u32>);

/// The values of `attr` ascending, and the tuple index of each: one
/// sort of `(key, index)` pairs, so ties stay in index order.
fn sorted_keys(tuples: &[Tuple], attr: usize) -> Sorted {
    let mut pairs: Vec<(Value, u32)> = tuples
        .iter()
        .zip(0..)
        .map(|(t, i)| (t.value(attr).clone(), i))
        .collect();
    pairs.sort_unstable();
    pairs.into_iter().unzip()
}

/// The positions `[lo, hi)` of ascending `keys` holding every `k` with
/// `v op k` (for `Ne`, a superset: every position).
fn matching(keys: &[Value], op: Op, v: &Value) -> (usize, usize) {
    match op {
        Op::Lt => (keys.partition_point(|k| k <= v), keys.len()),
        Op::Le => (keys.partition_point(|k| k < v), keys.len()),
        Op::Gt => (0, keys.partition_point(|k| k < v)),
        Op::Ge => (0, keys.partition_point(|k| k <= v)),
        Op::Eq => (
            keys.partition_point(|k| k < v),
            keys.partition_point(|k| k <= v),
        ),
        Op::Ne => (0, keys.len()),
    }
}

/// `keys.partition_point(pred)`, known to be at least `from`: an
/// exponential search from `from`, then a binary one within its last
/// step — O(log d) for a bound `d` positions on.
fn gallop(keys: &[Value], from: usize, pred: impl Fn(&Value) -> bool) -> usize {
    let (mut at, mut step) = (from, 1);
    while at + step <= keys.len() && pred(&keys[at + step - 1]) {
        at += step;
        step *= 2;
    }
    at + keys[at..keys.len().min(at + step)].partition_point(pred)
}

/// IEJoin's offset array: for each of ascending `vs`, the positions
/// `[lo, hi)` of ascending `keys` that [`matching`] gives it, from one
/// galloping merge of the two arrays — each bound is searched from the
/// one before.
fn offsets(vs: &[Value], op: Op, keys: &[Value]) -> Vec<(u32, u32)> {
    let len = keys.len();
    // how many keys lie below the last `v`, and up to it
    let (mut below, mut upto) = (0, 0);
    let bound = |v: &Value| {
        if matches!(op, Op::Le | Op::Gt | Op::Eq) {
            below = gallop(keys, below, |k| k < v);
        }
        if matches!(op, Op::Lt | Op::Ge | Op::Eq) {
            upto = gallop(keys, upto.max(below), |k| k <= v);
        }
        let (lo, hi) = match op {
            Op::Lt => (upto, len),
            Op::Le => (below, len),
            Op::Gt => (0, below),
            Op::Ge => (0, upto),
            Op::Eq => (below, upto),
            Op::Ne => (0, len),
        };
        (lo as u32, hi as u32)
    };
    vs.iter().map(bound).collect()
}

/// One sorted array of a merged part: the live run of a held array —
/// its `keys`, and its `held` tuple indices renumbered by `remap`
/// (`u32::MAX` for a dropped member) — merged with the sorted
/// additions. Ties take the live run first: index order, as
/// [`Part::build`] sorts.
fn merge_live<'a>(
    keys: impl Iterator<Item = &'a Value>,
    held: &[u32],
    remap: &[u32],
    (add_keys, add_order): Sorted,
) -> Sorted {
    let live = keys.zip(held).map(|(k, &i)| (k, remap[i as usize]));
    let mut live = live.filter(|&(_, i)| i != u32::MAX).peekable();
    let mut adds = add_keys.into_iter().zip(add_order).peekable();
    let len = held.len() + adds.len();
    let (mut keys, mut order) = (Vec::with_capacity(len), Vec::with_capacity(len));
    loop {
        let (k, i) = match (live.peek(), adds.peek()) {
            (Some(h), Some(a)) if a.0 < *h.0 => adds.next().expect("peeked"),
            (Some(_), _) => live.next().map(|(k, i)| (k.clone(), i)).expect("peeked"),
            (None, Some(_)) => adds.next().expect("peeked"),
            (None, None) => break,
        };
        keys.push(k);
        order.push(i);
    }
    (keys, order)
}

impl Part {
    fn build(tuples: Vec<Tuple>, conds: &[OrderCond], fresh: bool) -> Option<Part> {
        if tuples.is_empty() {
            return None;
        }
        let (left_attr, right_attr) = (conds[0].left_attr, conds[0].right_attr);
        let primary = sorted_keys(&tuples, right_attr);
        let secondary = sweeps(conds).then(|| {
            let left_order = (left_attr != right_attr).then(|| sorted_keys(&tuples, left_attr).1);
            (sorted_keys(&tuples, conds[1].right_attr), left_order)
        });
        Some(Part::sorted(tuples, conds, primary, secondary, fresh))
    }

    /// A part over `tuples` in the given orders: the primary right keys
    /// and, for a sweep, the secondary right keys and the left order.
    fn sorted(
        tuples: Vec<Tuple>,
        conds: &[OrderCond],
        (keys, order): Sorted,
        secondary: Option<(Sorted, Option<Vec<u32>>)>,
        fresh: bool,
    ) -> Part {
        let lefts = tuples.iter().map(|t| t.value(conds[0].left_attr));
        // a same-attribute primary's right keys are its left keys
        let (min_left, max_left) = match conds[0].left_attr == conds[0].right_attr {
            true => (keys.first(), keys.last()),
            false => (lefts.clone().min(), lefts.max()),
        };
        let sweep = secondary.map(|((sec_keys, sec_order), left_order)| {
            let mut rank_of = vec![0u32; tuples.len()];
            for (r, &i) in (0..).zip(&sec_order) {
                rank_of[i as usize] = r;
            }
            Sweep {
                left_order,
                keys: sec_keys,
                order: sec_order,
                rank: order.iter().map(|&i| rank_of[i as usize]).collect(),
            }
        });
        Part {
            min_left: min_left.expect("a part has members").clone(),
            max_left: max_left.expect("a part has members").clone(),
            min_right: keys[0].clone(),
            max_right: keys[keys.len() - 1].clone(),
            stale: vec![false; tuples.len()],
            tuples,
            keys,
            order,
            sweep,
            fresh,
        }
    }

    /// This part with its stale members dropped and `adds` merged in,
    /// every member resident, or `None` when no member is left. Each
    /// sorted array keeps its live run and its keys and merges in the
    /// additions sorted by the same attribute ([`merge_live`]); only a
    /// cross-attribute primary's left order reads its keys through the
    /// tuples, as no array holds them.
    fn merged(&self, adds: &[Tuple], conds: &[OrderCond]) -> Option<Part> {
        let mut remap = vec![u32::MAX; self.tuples.len()];
        let mut tuples = Vec::with_capacity(self.tuples.len() + adds.len());
        for (i, t) in self.tuples.iter().enumerate() {
            if !self.stale[i] {
                remap[i] = tuples.len() as u32;
                tuples.push(t.clone());
            }
        }
        let base = tuples.len() as u32;
        tuples.extend_from_slice(adds);
        let added = |attr| {
            let (keys, order) = sorted_keys(adds, attr);
            (keys, order.into_iter().map(|i| base + i).collect())
        };
        let (left, right) = (conds[0].left_attr, conds[0].right_attr);
        let primary = merge_live(self.keys.iter(), &self.order, &remap, added(right));
        let secondary = self.sweep.as_ref().map(|s| {
            let left_order = s.left_order.as_ref().map(|held| {
                let keys = held.iter().map(|&i| self.tuples[i as usize].value(left));
                merge_live(keys, held, &remap, added(left)).1
            });
            let rights = added(conds[1].right_attr);
            let secondary = merge_live(s.keys.iter(), &s.order, &remap, rights);
            (secondary, left_order)
        });
        (!tuples.is_empty()).then(|| Part::sorted(tuples, conds, primary, secondary, false))
    }

    /// The members that are not stale.
    fn members(&self) -> impl Iterator<Item = &Tuple> {
        let members = self.tuples.iter().zip(&self.stale);
        members.filter(|(_, &stale)| !stale).map(|(t, _)| t)
    }

    /// The index of the live member `id` whose primary right key is
    /// `key`.
    fn live(&self, id: TupleId, key: &Value) -> Option<usize> {
        let from = self.keys.partition_point(|k| k < key);
        let ties = self.keys[from..].iter().take_while(|&k| k == key);
        let mut ties = ties.zip(&self.order[from..]).map(|(_, &i)| i as usize);
        ties.find(|&i| !self.stale[i] && self.tuples[i].id() == id)
    }
}

/// Enumerate the feasible (left, right) partition pairs with a sorted
/// interval sweep instead of the quadratic all-pairs scan: for an
/// ordering op the feasible left set of each right partition is a
/// prefix (Lt/Le, by `min_left`) or suffix (Gt/Ge, by `max_left`) of
/// the sorted partition order, found by binary search. Produces exactly
/// the pairs whose min/max ranges can satisfy `t1.A op t2.B` (Algorithm
/// 2, line 7, made sound for pure inequality conditions), in row-major
/// order, plus the count of pruned pairs.
fn feasible_tasks(op: Op, parts: &[&Part]) -> (Vec<(usize, usize)>, u64) {
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

/// A candidate pair holds: two distinct tuples meeting every condition
/// in `rest`.
fn holds_all(t1: &Tuple, t2: &Tuple, rest: &[OrderCond]) -> bool {
    t1.id() != t2.id()
        && rest
            .iter()
            .all(|c| c.op.holds(t1.value(c.left_attr), t2.value(c.right_attr)))
}

/// True when each condition the parts are sorted by compares an
/// attribute with itself: a part's sorted right keys are then its
/// members' left keys as well, which the join reads in place and a
/// swapped join reuses.
fn in_place(conds: &[OrderCond]) -> bool {
    let sorted = if sweeps(conds) { 2 } else { 1 };
    conds[..sorted].iter().all(|c| c.left_attr == c.right_attr)
}

/// `conds` with the roles of `t1` and `t2` swapped, when a part's
/// arrays serve the swapped join as well ([`in_place`]).
fn flipped(conds: &[OrderCond]) -> Option<Vec<OrderCond>> {
    let flip = |c: &OrderCond| OrderCond {
        left_attr: c.right_attr,
        op: c.op.flip(),
        right_attr: c.left_attr,
    };
    in_place(conds).then(|| conds.iter().map(flip).collect())
}

/// The merge pass for one (left-role, right-role) pair of parts, one
/// of them fresh: a fresh `t1` meets every `t2`, a resident one the
/// fresh `t2`s, and stale members take part on neither side. A
/// resident part meets a smaller fresh one (R ⋈ ΔR) as the fresh
/// part's join with it in swapped roles when the parts' arrays allow
/// ([`flipped`]): a join walks its left side, so its cost then follows
/// the change, not the part. Pairs stream into `emit`; nothing is
/// materialized here.
fn enumerate_pair<E>(left: &Part, right: &Part, conds: &[OrderCond], emit: &mut E) -> Result<()>
where
    E: FnMut(&Tuple, &Tuple) -> Result<()>,
{
    let swap = right.fresh && !left.fresh && right.tuples.len() < left.tuples.len();
    if let Some(flipped) = flipped(conds).filter(|_| swap) {
        let join = if sweeps(conds) { sweep } else { scan };
        return join(right, left, &flipped, &mut |a, b| emit(b, a));
    }
    let join = if sweeps(conds) { sweep::<E> } else { scan::<E> };
    join(left, right, conds, emit)
}

/// The sort-merge pass of single-condition and equality-primary joins:
/// each live `t1` takes `right`'s primary keys in the range matching the
/// primary condition, and the remaining conditions are verified per
/// live candidate. In place ([`in_place`]) the `t1`s are visited in
/// primary order, reading their keys from `left.keys` and their ranges
/// from the offset array; otherwise in index order, each key read
/// through its tuple and its range binary-searched.
fn scan<E>(left: &Part, right: &Part, conds: &[OrderCond], emit: &mut E) -> Result<()>
where
    E: FnMut(&Tuple, &Tuple) -> Result<()>,
{
    let primary = conds[0];
    // `matching` takes every key for `Ne`, so it is verified per pair.
    let rest = if primary.op == Op::Ne {
        conds
    } else {
        &conds[1..]
    };
    let mut visit = |i: usize, (lo, hi): (usize, usize)| -> Result<()> {
        if left.stale[i] {
            return Ok(());
        }
        let t1 = &left.tuples[i];
        for &j in &right.order[lo..hi] {
            let t2 = &right.tuples[j as usize];
            if !right.stale[j as usize] && holds_all(t1, t2, rest) {
                emit(t1, t2)?;
            }
        }
        Ok(())
    };
    if in_place(conds) {
        let ranges = offsets(&left.keys, primary.op, &right.keys);
        let mut walk = left.order.iter().zip(ranges);
        walk.try_for_each(|(&i, (lo, hi))| visit(i as usize, (lo as usize, hi as usize)))
    } else {
        left.tuples.iter().enumerate().try_for_each(|(i, t1)| {
            let range = matching(&right.keys, primary.op, t1.value(primary.left_attr));
            visit(i, range)
        })
    }
}

/// IEJoin's sweep of the live `t1`s against `right`, for a join whose
/// first two conditions `t1.A op1 t2.B` and `t1.C op2 t2.D` are
/// orderings. The `t1`s are visited in `A` order — ascending for
/// `>`/`≥`, descending for `<`/`≤` — so the `t2`s meeting `op1` only
/// grow: a monotone pointer over `right`'s sorted `B` keys sets the bit
/// of each live newcomer at its `D` rank, *before* the `t1` probes, so ties
/// fall out of `op1` itself. Each `t1` then emits the set bits in its
/// `op2` range of the `D` keys and verifies the rest per pair. In place
/// ([`in_place`]: `A = B` and `C = D`) the walk reads `t1`'s `A` key as
/// `left.keys[p]` at its primary position `p` and its `op2` range from
/// the offset array at its `D` rank `rank[p]`; otherwise both keys are
/// read through the tuple and the range binary-searched.
fn sweep<E>(left: &Part, right: &Part, conds: &[OrderCond], emit: &mut E) -> Result<()>
where
    E: FnMut(&Tuple, &Tuple) -> Result<()>,
{
    let (c1, c2, rest) = (conds[0], conds[1], &conds[2..]);
    let (Some(ls), Some(rs)) = (&left.sweep, &right.sweep) else {
        unreachable!("sweep arrays are built for two ordering conditions")
    };
    let mut bits = vec![0u64; right.keys.len().div_ceil(64)];
    // right positions `[lo, hi)` are not yet inserted
    let (mut lo, mut hi) = (0, right.keys.len());
    // the ranks `[set_lo, set_hi)` hold every set bit
    let (mut set_lo, mut set_hi) = (usize::MAX, 0);
    let ascending = matches!(c1.op, Op::Gt | Op::Ge);
    // the `op2` range of each of `left`'s secondary ranks
    let ranges = in_place(conds).then(|| offsets(&ls.keys, c2.op, &rs.keys));
    let left_order = ls.left_order.as_deref().unwrap_or(&left.order);
    let mut visit = |p: usize| -> Result<()> {
        let i = left_order[p] as usize;
        if left.stale[i] {
            return Ok(());
        }
        let t1 = &left.tuples[i];
        let (a, (from, to)) = match &ranges {
            Some(ranges) => {
                let (from, to) = ranges[ls.rank[p] as usize];
                (&left.keys[p], (from as usize, to as usize))
            }
            None => {
                let range = matching(&rs.keys, c2.op, t1.value(c2.left_attr));
                (t1.value(c1.left_attr), range)
            }
        };
        while lo < hi {
            let at = if ascending { lo } else { hi - 1 };
            if !c1.op.holds(a, &right.keys[at]) {
                break;
            }
            if !right.stale[right.order[at] as usize] {
                let r = rs.rank[at] as usize;
                bits[r / 64] |= 1 << (r % 64);
                (set_lo, set_hi) = (set_lo.min(r), set_hi.max(r + 1));
            }
            (lo, hi) = if ascending {
                (lo + 1, hi)
            } else {
                (lo, hi - 1)
            };
        }
        let (from, to) = (from.max(set_lo), to.min(set_hi));
        if from >= to {
            return Ok(());
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        for (w, &bits_w) in (first..).zip(&bits[first..=last]) {
            let mut word = bits_w;
            if w == first {
                word &= !0 << (from % 64);
            }
            if w == last {
                word &= !0 >> (63 - (to - 1) % 64);
            }
            while word != 0 {
                let t2 = &right.tuples[rs.order[w * 64 + word.trailing_zeros() as usize] as usize];
                if holds_all(t1, t2, rest) {
                    emit(t1, t2)?;
                }
                word &= word - 1;
            }
        }
        Ok(())
    };
    if ascending {
        (0..left_order.len()).try_for_each(&mut visit)
    } else {
        (0..left_order.len()).rev().try_for_each(&mut visit)
    }
}

/// A join task's records `out` reordered by `ids`, the ids of the pair
/// that derived each (stable, so one pair's records keep their order):
/// a walk's order follows its parts' keys, not the table.
fn in_pair_order<R>(out: Vec<R>, ids: &[(TupleId, TupleId)]) -> Vec<R> {
    if ids.is_sorted() {
        return out;
    }
    let mut order: Vec<u32> = (0..out.len() as u32).collect();
    order.sort_unstable_by_key(|&k| (ids[k as usize], k));
    let mut out: Vec<Option<R>> = out.into_iter().map(Some).collect();
    let take = |k: u32| out[k as usize].take().expect("each record once");
    order.into_iter().map(take).collect()
}

/// Range-partition `input` on `attr` into `nb_parts` ranges (zero: the
/// engine's default), reading the key in place (no per-record Value
/// construction).
fn range_parts(input: PDataset<Tuple>, attr: usize, nb_parts: usize) -> Result<Vec<Vec<Tuple>>> {
    let nb_parts = match nb_parts {
        0 => input.engine().default_partitions(),
        n => n,
    };
    input
        .range_partition_by(|t: &Tuple| t.value(attr), nb_parts)?
        .into_partitions()
}

/// Sort each range partition into a [`Part`], fresh or resident.
/// Partitions are borrowed (tuples clone cheaply), so a panicking sort
/// task re-runs against intact input.
fn sort_parts(
    engine: &Engine,
    raw: &[Vec<Tuple>],
    conds: &[OrderCond],
    fresh: bool,
) -> Result<Vec<Part>> {
    let parts = engine.run_stage(raw, |_, p: &Vec<Tuple>| {
        Ok(Part::build(p.clone(), conds, fresh))
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// OCJoin's state kept between joins: the range parts of a join, each
/// with its sorted key arrays, so that a change joins as the small side
/// instead of re-running the join. [`JoinIndex::build`] runs Algorithm
/// 2's partitioning and sorting phases, [`JoinIndex::join_sink`] its
/// pruning and joining phases over the pairs with a fresh member,
/// [`JoinIndex::stage`] stages a change, and [`JoinIndex::merge`] folds
/// it in, after which nothing is fresh.
#[derive(Clone, Debug)]
pub struct JoinIndex {
    conds: Vec<OrderCond>,
    /// The range parts, in ascending order of the partitioning key.
    parts: Vec<Part>,
    /// A staged change's new versions: the fresh side of the next join.
    news: Vec<Tuple>,
    /// `nbParts` of a re-partition; zero for the engine's default.
    nb_parts: usize,
}

impl JoinIndex {
    /// An empty index over `conds`.
    pub fn new(conds: &[OrderCond]) -> JoinIndex {
        JoinIndex {
            conds: conds.to_vec(),
            parts: Vec::new(),
            news: Vec::new(),
            nb_parts: 0,
        }
    }

    /// Algorithm 2's partitioning phase — a range partition on the
    /// primary left attribute ("OCJoin chooses the first attribute
    /// involved in the first condition", §4.3) — and its sorting phase,
    /// one task per partition under the engine's retry policy with panic
    /// isolation. Every record is fresh until the first merge.
    ///
    /// `conds` must be non-empty: a typed error otherwise, as the job
    /// path must never bring down the process.
    pub fn build(
        input: PDataset<Tuple>,
        conds: &[OrderCond],
        config: OcJoinConfig,
    ) -> Result<JoinIndex> {
        if conds.is_empty() {
            return Err(Error::InvalidPlan(
                "OCJoin needs at least one condition".into(),
            ));
        }
        let engine = input.engine().clone();
        let raw = range_parts(input, conds[0].left_attr, config.nb_parts)?;
        let ranges = vec!["ocjoin.range-partition".into()];
        engine.record_pass(PassKind::ShuffleMap, ranges, raw.len());
        let parts = sort_parts(&engine, &raw, conds, true)?;
        engine.record_pass(PassKind::Join, vec!["ocjoin.sort".into()], raw.len());
        Ok(JoinIndex {
            conds: conds.to_vec(),
            parts,
            news: Vec::new(),
            nb_parts: config.nb_parts,
        })
    }

    /// Algorithm 2's pruning and joining phases: every ordered pair
    /// `(t1, t2)` (with `t1.id() != t2.id()`) meeting every condition
    /// and holding a fresh member, each once, handed to `sink` inside
    /// the join task, which appends whatever records it derives to the
    /// task's output; a task's records come out in the order of the ids
    /// of the pairs behind them. A staged change's new versions are
    /// sorted into one Δ part first, which joins the parts as the fresh
    /// side. Pruning is a sweep, before the tasks start, over the parts'
    /// statistics that also drops every pair of parts without a fresh
    /// member; the join tasks run under the engine's retry policy with
    /// panic isolation. `label` names the fused consumer in the recorded
    /// pass, and `pairs_generated` counts every enumerated pair,
    /// attributed once per successfully completed task.
    pub fn join_sink<R, F>(&self, engine: &Engine, label: &str, sink: F) -> Result<PDataset<R>>
    where
        R: Send,
        F: Fn(&Tuple, &Tuple, &mut Vec<R>) -> Result<()> + Sync,
    {
        let delta = Part::build(self.news.clone(), &self.conds, true);
        let parts: Vec<&Part> = self.parts.iter().chain(&delta).collect();
        let (mut tasks, pruned) = feasible_tasks(self.conds[0].op, &parts);
        tasks.retain(|&(i, j)| parts[i].fresh || parts[j].fresh);
        Metrics::add(&engine.metrics().partitions_pruned, pruned);
        Metrics::add(&engine.metrics().partitions_joined, tasks.len() as u64);

        let pairs_seen = AtomicU64::new(0);
        let partitions = engine.run_stage(&tasks, |_, &(i, j)| {
            // what the sink derived, and the ids of the pair behind each
            let (mut out, mut ids) = (Vec::new(), Vec::new());
            let mut local = 0u64;
            enumerate_pair(parts[i], parts[j], &self.conds, &mut |a, b| {
                local += 1;
                sink(a, b, &mut out)?;
                ids.resize(out.len(), (a.id(), b.id()));
                Ok(())
            })?;
            // Counted only when the attempt completes, so retried tasks do
            // not double-count.
            pairs_seen.fetch_add(local, Ordering::Relaxed);
            Ok(in_pair_order(out, &ids))
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
        Ok(PDataset::from_partitions(engine.clone(), partitions))
    }

    /// Stage a change: the held versions `gone` of the records it
    /// replaces or deletes turn stale, and its new versions `news` are
    /// the only fresh records. The next join then enumerates exactly the
    /// pairs with a new version.
    ///
    /// # Panics
    ///
    /// When a change is staged already, or no live member of the index
    /// is a record of `gone`: the change did not name what it held.
    pub fn stage<'a>(&mut self, gone: impl IntoIterator<Item = &'a Tuple>, news: Vec<Tuple>) {
        assert!(self.news.is_empty(), "a staged change is merged first");
        let attr = self.conds[0].right_attr;
        for t in gone {
            let mut parts = self.parts.iter_mut();
            let held = parts.find_map(|p| Some((p.live(t.id(), t.value(attr))?, p)));
            let (at, part) = held.unwrap_or_else(|| panic!("tuple {} is not indexed", t.id()));
            part.stale[at] = true;
        }
        self.news = news;
    }

    /// Fold the staged change in by a fixed rule, after which every
    /// member is resident. Stale members are dropped, and each new
    /// record joins the first part whose range reaches its partitioning
    /// key (else the last): a touched part merges them into each sorted
    /// array by one stable sort, in a task of its own under the engine's
    /// retry policy. A change at least as large as the rest of the index
    /// re-partitions and re-sorts the whole of it instead, as an empty
    /// index's first change does. Either is one recorded pass,
    /// `ocjoin.fold-delta`; with no change staged nothing runs.
    pub fn merge(&mut self, engine: &Engine) -> Result<()> {
        let news = std::mem::take(&mut self.news);
        if news.is_empty() && self.parts.iter().all(|p| !p.stale.contains(&true)) {
            self.parts.iter_mut().for_each(|p| p.fresh = false);
            return Ok(());
        }
        if news.len() >= self.records().count() {
            let all = self.records().cloned().chain(news).collect();
            let all = PDataset::from_vec(engine.clone(), all);
            let raw = range_parts(all, self.conds[0].left_attr, self.nb_parts)?;
            self.parts = sort_parts(engine, &raw, &self.conds, false)?;
        } else {
            let attr = self.conds[0].left_attr;
            let mut adds: Vec<Vec<Tuple>> = vec![Vec::new(); self.parts.len()];
            for t in news {
                let at = self.parts.partition_point(|p| p.max_left < *t.value(attr));
                adds[at.min(self.parts.len() - 1)].push(t);
            }
            let work: Vec<(&Part, Vec<Tuple>)> = self.parts.iter().zip(adds).collect();
            let merged = engine.run_stage(&work, |_, (part, adds)| {
                let touched = !adds.is_empty() || part.stale.contains(&true);
                Ok(touched.then(|| part.merged(adds, &self.conds)))
            })?;
            let parts = std::mem::take(&mut self.parts).into_iter().zip(merged);
            let kept = |(mut part, merged): (Part, Option<Option<Part>>)| {
                merged.unwrap_or_else(|| {
                    part.fresh = false;
                    Some(part)
                })
            };
            self.parts = parts.filter_map(kept).collect();
        }
        let fold = vec!["ocjoin.fold-delta".into()];
        engine.record_pass(PassKind::Join, fold, self.parts.len());
        Ok(())
    }

    /// The live records: every part's, then a staged change's new
    /// versions.
    pub fn records(&self) -> impl Iterator<Item = &Tuple> {
        let parts = self.parts.iter().flat_map(Part::members);
        parts.chain(&self.news)
    }
}

/// OCJoin: all ordered pairs `(t1, t2)` (with `t1.id() != t2.id()`)
/// satisfying every condition in `conds`, computed with range
/// partitioning + sorting + pruning + merge joining, and collected.
pub fn try_ocjoin(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
    config: OcJoinConfig,
) -> Result<PDataset<(Tuple, Tuple)>> {
    try_ocjoin_sink(input, conds, config, "pairs", |a, b, out| {
        out.push((a.clone(), b.clone()));
        Ok(())
    })
}

/// Streaming OCJoin: [`JoinIndex::build`] over `input`, then
/// [`JoinIndex::join_sink`] — each enumerated pair is handed to `sink`
/// inside the join task, so the `(Tuple, Tuple)` pair list is never
/// materialized. `conds` must be non-empty (a typed error otherwise).
pub fn try_ocjoin_sink<R, F>(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
    config: OcJoinConfig,
    label: &str,
    sink: F,
) -> Result<PDataset<R>>
where
    R: Send,
    F: Fn(&Tuple, &Tuple, &mut Vec<R>) -> Result<()> + Sync,
{
    let engine = input.engine().clone();
    JoinIndex::build(input, conds, config)?.join_sink(&engine, label, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::cross_join_filter;
    use bigdansing_common::rng::check;
    use bigdansing_common::rng::SplitMix64;
    use bigdansing_dataflow::Engine;
    use std::collections::{BTreeMap, HashSet};

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

    /// The pairs' ids as a sorted multiset: a pair emitted twice shows.
    fn pair_ids(pairs: Result<PDataset<(Tuple, Tuple)>>) -> Vec<(u64, u64)> {
        let pairs = pairs.unwrap().collect().unwrap();
        let mut ids: Vec<_> = pairs.into_iter().map(|(a, b)| (a.id(), b.id())).collect();
        ids.sort_unstable();
        ids
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
    fn matches_naive_on_input_larger_than_a_bit_word() {
        // 300 rows spread over few partitions → each sweep's bit array
        // spans several 64-bit words.
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

    /// Can a pair `(t1 ∈ left, t2 ∈ right)` possibly satisfy
    /// `t1.A op t2.B` given the partitions' min/max statistics? The
    /// quadratic pruning predicate (Algorithm 2, line 7) the sweep in
    /// [`feasible_tasks`] is tested against.
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
                true,
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
        let parts: Vec<&Part> = parts.iter().collect();
        for op in [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Ne] {
            let (tasks, pruned) = feasible_tasks(op, &parts);
            let mut oracle: Vec<(usize, usize)> = Vec::new();
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    if feasible(op, parts[i], parts[j]) {
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
        assert_eq!(out, vec![(1, 2), (2, 1)]);
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
        let mut streamed: Vec<(u64, u64)> = try_ocjoin_sink(
            PDataset::from_vec(sink_engine.clone(), data),
            &conds,
            OcJoinConfig { nb_parts: 4 },
            "collect-ids",
            |a, b, out| {
                out.push((a.id(), b.id()));
                Ok(())
            },
        )
        .unwrap()
        .collect()
        .unwrap();
        streamed.sort_unstable();
        assert_eq!(streamed, naive, "a pair was streamed twice or not at all");
        assert_eq!(
            Metrics::get(&sink_engine.metrics().pairs_generated),
            naive.len() as u64
        );
    }

    const OPS: [Op; 4] = [Op::Lt, Op::Gt, Op::Le, Op::Ge];

    /// A random self-join: 0–600 rows of three cells and two or three
    /// ordering conditions over any attributes, so cross-attribute
    /// conditions (`t1.a op t2.b` with `a ≠ b`) occur. Half the draws
    /// take values from `0..8` (heavy ties), half from `-200..200`; one
    /// cell in ten is `Null` and one in ten a `Float`, integral half the
    /// time so that it ties with an `Int`.
    fn arb_join(g: &mut SplitMix64) -> (Vec<Tuple>, Vec<OrderCond>) {
        let (lo, hi): (i64, i64) = if g.chance(0.5) { (0, 8) } else { (-200, 200) };
        let rows = g.range(0..=600u64);
        let data = (0..rows)
            .map(|id| {
                let cells = (0..3)
                    .map(|_| match g.range(0..10) {
                        0 => Value::Null,
                        1 => Value::Float(g.range(lo..hi) as f64 + [0.0, 0.5][g.range(0..2usize)]),
                        _ => Value::Int(g.range(lo..hi)),
                    })
                    .collect();
                Tuple::new(id, cells)
            })
            .collect();
        let conds = (0..g.range(2..=3))
            .map(|_| OrderCond {
                left_attr: g.range(0..3),
                op: OPS[g.range(0..4usize)],
                right_attr: g.range(0..3),
            })
            .collect();
        (data, conds)
    }

    #[test]
    fn equivalent_to_naive_cross_filter() {
        check(32, |g| {
            let (data, conds) = arb_join(g);
            let nb_parts = g.range(1usize..8);
            let e = Engine::parallel(3);
            let fast = pair_ids(try_ocjoin(
                PDataset::from_vec(e.clone(), data.clone()),
                &conds,
                OcJoinConfig { nb_parts },
            ));
            let slow = pair_ids(cross_join_filter(PDataset::from_vec(e, data), &conds));
            assert_eq!(fast, slow);
        });
    }

    /// Every sorted array of every part of `index` holds what
    /// [`Part::build`] would give the part's live members.
    fn assert_sorted(index: &JoinIndex) {
        let conds = &index.conds;
        for part in &index.parts {
            assert!(!part.stale.contains(&true) && !part.fresh);
            let built = Part::build(part.tuples.clone(), conds, false).unwrap();
            let arrays = |p: &Part| {
                let sweep = p.sweep.as_ref();
                let sweep = sweep.map(|s| (s.left_order.clone(), s.keys.clone(), s.order.clone()));
                let stats = [&p.min_left, &p.max_left, &p.min_right, &p.max_right];
                let rank = p.sweep.as_ref().map(|s| s.rank.clone());
                format!("{:?}", (&p.keys, &p.order, sweep, rank, stats))
            };
            assert_eq!(arrays(part), arrays(&built));
        }
    }

    /// A resident index joins each change as the small side: after 1–4
    /// rounds of random updates, inserts and deletes, each round's
    /// Δ-join is the pair multiset of a full join over the current table
    /// with a new version of the round as a member, and the merged index holds
    /// the current table, sorted as a fresh build sorts it. Covers the
    /// four DC shapes of CI's smoke step, a one-condition and a
    /// three-condition join, conditions across attributes (which walk a
    /// resident part against the change rather than swap roles), ties,
    /// negative values, and parts of more than 64 rows.
    #[test]
    fn delta_join_is_the_masked_join_of_the_current_table() {
        let c = |left_attr, op, right_attr| OrderCond {
            left_attr,
            op,
            right_attr,
        };
        let shapes = [
            vec![c(0, Op::Gt, 0), c(1, Op::Lt, 1)],
            vec![c(0, Op::Ge, 0), c(1, Op::Le, 1)],
            vec![c(0, Op::Lt, 0), c(1, Op::Ge, 1)],
            vec![c(1, Op::Lt, 1), c(0, Op::Gt, 0)],
            vec![c(0, Op::Lt, 0)],
            vec![c(0, Op::Gt, 0), c(1, Op::Lt, 1), c(2, Op::Ge, 0)],
            vec![c(0, Op::Gt, 1), c(1, Op::Le, 2)],
        ];
        let ids = |pairs: Result<PDataset<(u64, u64)>>| {
            let mut ids = pairs.unwrap().collect().unwrap();
            ids.sort_unstable();
            ids
        };
        let collect = |a: &Tuple, b: &Tuple, out: &mut Vec<(u64, u64)>| {
            out.push((a.id(), b.id()));
            Ok(())
        };
        check(32, |g| {
            let conds = &shapes[g.range(0..shapes.len())];
            let hi: i64 = [4, 40][g.range(0..2usize)];
            let row = |g: &mut SplitMix64, id| {
                let cell = |g: &mut SplitMix64| match g.range(0..10) {
                    0 => Value::Null,
                    1 => Value::Float(g.range(-hi..hi) as f64),
                    _ => Value::Int(g.range(-hi..hi)),
                };
                Tuple::new(id, (0..3).map(|_| cell(g)).collect())
            };
            let n = g.range(0..=400u64);
            let mut table: BTreeMap<u64, Tuple> = (0..n).map(|id| (id, row(g, id))).collect();
            let config = OcJoinConfig {
                nb_parts: g.range(1usize..5),
            };
            let e = Engine::parallel(2);
            let rows = PDataset::from_vec(e.clone(), table.values().cloned().collect());
            let mut index = JoinIndex::build(rows, conds, config).unwrap();
            index.merge(&e).unwrap();
            let mut next = n;
            for _ in 0..g.range(1..=4) {
                let share = [0.01, 0.1, 0.6][g.range(0..3usize)];
                let (mut gone, mut news) = (Vec::new(), Vec::new());
                for id in table.keys().copied().collect::<Vec<_>>() {
                    if g.chance(share) {
                        gone.push(table.remove(&id).unwrap());
                        if g.chance(0.7) {
                            news.push(row(g, id));
                        }
                    }
                }
                news.extend((0..g.range(0..5)).map(|k| row(g, next + k)));
                next += news.len() as u64;
                table.extend(news.iter().map(|t| (t.id(), t.clone())));
                let fresh: HashSet<u64> = news.iter().map(Tuple::id).collect();
                index.stage(&gone, news);
                let delta = ids(index.join_sink(&e, "delta", collect));
                let current = PDataset::from_vec(e.clone(), table.values().cloned().collect());
                let mut masked = ids(try_ocjoin_sink(current, conds, config, "full", collect));
                masked.retain(|(a, b)| fresh.contains(a) || fresh.contains(b));
                assert_eq!(delta, masked);
                index.merge(&e).unwrap();
                let mut held: Vec<String> = index.records().map(|t| format!("{t:?}")).collect();
                held.sort();
                let mut live: Vec<String> = table.values().map(|t| format!("{t:?}")).collect();
                live.sort();
                assert_eq!(held, live);
                assert_sorted(&index);
            }
        });
    }

    /// IEJoin's sweep as it read every visited `t1`'s keys through its
    /// tuple and binary-searched its secondary range, with a plain flag
    /// per right rank for the bit array: the pairs [`sweep`] must emit,
    /// in the order it must emit them.
    fn tuple_sweep(left: &Part, right: &Part, conds: &[OrderCond]) -> Vec<(u64, u64)> {
        let (c1, c2, rest) = (conds[0], conds[1], &conds[2..]);
        let (Some(ls), Some(rs)) = (&left.sweep, &right.sweep) else {
            unreachable!("sweep arrays are built for two ordering conditions")
        };
        let ascending = matches!(c1.op, Op::Gt | Op::Ge);
        let mut walk = ls.left_order.clone().unwrap_or_else(|| left.order.clone());
        if !ascending {
            walk.reverse();
        }
        let (mut set, mut pairs) = (vec![false; right.keys.len()], Vec::new());
        let (mut lo, mut hi) = (0, right.keys.len());
        for i in walk.into_iter().filter(|&i| !left.stale[i as usize]) {
            let t1 = &left.tuples[i as usize];
            while lo < hi {
                let at = if ascending { lo } else { hi - 1 };
                if !c1.op.holds(t1.value(c1.left_attr), &right.keys[at]) {
                    break;
                }
                set[rs.rank[at] as usize] = !right.stale[right.order[at] as usize];
                (lo, hi) = if ascending {
                    (lo + 1, hi)
                } else {
                    (lo, hi - 1)
                };
            }
            let (from, to) = matching(&rs.keys, c2.op, t1.value(c2.left_attr));
            for r in (from..to).filter(|&r| set[r]) {
                let t2 = &right.tuples[rs.order[r] as usize];
                if holds_all(t1, t2, rest) {
                    pairs.push((t1.id(), t2.id()));
                }
            }
        }
        pairs
    }

    /// The in-place join — keys read from the parts' arrays, ranges from
    /// the offset array — over sorted conditions that each compare an
    /// attribute with itself: the four DC shapes of CI's smoke step,
    /// random pairs with a `<`/`>` primary, one-condition scans and
    /// `=`/`≠`-primary scans, a third condition across attributes or `≠`
    /// a third of the time; `Null`s, `Float`s tying with `Int`s, and
    /// heavy ties. A full join, then a staged change — one row against
    /// parts of hundreds, or a share of the table leaving stale members
    /// — each yields the cross product's pairs with a fresh member; every
    /// sweep over two parts of the staged index (Δ included) emits the
    /// pairs of [`tuple_sweep`] in its order; and the fold leaves every
    /// array as a fresh build sorts it.
    #[test]
    fn in_place_join_matches_the_tuple_reads() {
        let c = |left_attr, op, right_attr| OrderCond {
            left_attr,
            op,
            right_attr,
        };
        let ci = [
            vec![c(0, Op::Gt, 0), c(1, Op::Lt, 1)],
            vec![c(0, Op::Ge, 0), c(1, Op::Le, 1)],
            vec![c(0, Op::Lt, 0), c(1, Op::Ge, 1)],
            vec![c(1, Op::Lt, 1), c(0, Op::Gt, 0)],
        ];
        let ids = |pairs: Result<PDataset<(u64, u64)>>| {
            let mut ids = pairs.unwrap().collect().unwrap();
            ids.sort_unstable();
            ids
        };
        let collect = |a: &Tuple, b: &Tuple, out: &mut Vec<(u64, u64)>| {
            out.push((a.id(), b.id()));
            Ok(())
        };
        check(40, |g| {
            let same = |g: &mut SplitMix64, ops: &[Op]| {
                let (op, a) = (ops[g.range(0..ops.len())], g.range(0..3));
                c(a, op, a)
            };
            let mut conds = match g.range(0..4) {
                0 => ci[g.range(0..ci.len())].clone(),
                1 => vec![same(g, &[Op::Lt, Op::Gt]), same(g, &OPS)],
                2 => vec![same(g, &OPS)],
                _ => vec![same(g, &[Op::Eq, Op::Ne]), same(g, &OPS)],
            };
            if g.chance(0.33) {
                let a = g.range(0..3);
                let op = if g.chance(0.5) {
                    OPS[g.range(0..4usize)]
                } else {
                    Op::Ne
                };
                conds.push(c(a, op, (a + g.range(1..3usize)) % 3));
            }
            let hi: i64 = [3, 12, 200][g.range(0..3usize)];
            let row = |g: &mut SplitMix64, id| {
                let cell = |g: &mut SplitMix64| match g.range(0..10) {
                    0 => Value::Null,
                    1 => Value::Float(g.range(-hi..hi) as f64 + [0.0, 0.5][g.range(0..2usize)]),
                    _ => Value::Int(g.range(-hi..hi)),
                };
                Tuple::new(id, (0..3).map(|_| cell(g)).collect())
            };
            let n = g.range(0..=500u64);
            let mut table: BTreeMap<u64, Tuple> = (0..n).map(|id| (id, row(g, id))).collect();
            let e = Engine::parallel(2);
            let rows = |table: &BTreeMap<u64, Tuple>| {
                PDataset::from_vec(e.clone(), table.values().cloned().collect())
            };
            let cross = |table: &BTreeMap<u64, Tuple>, fresh: &dyn Fn(u64) -> bool| {
                let mut pairs = pair_ids(cross_join_filter(rows(table), &conds));
                pairs.retain(|&(a, b)| fresh(a) || fresh(b));
                pairs
            };
            let config = OcJoinConfig {
                nb_parts: g.range(1usize..4),
            };
            let mut index = JoinIndex::build(rows(&table), &conds, config).unwrap();
            let full = ids(index.join_sink(&e, "full", collect));
            assert_eq!(full, cross(&table, &|_| true));
            index.merge(&e).unwrap();
            let (mut gone, mut news) = (Vec::new(), Vec::new());
            if g.chance(0.5) {
                // one row: an update, or an insert
                let held: Vec<u64> = table.keys().copied().collect();
                let id = match held.len() {
                    0 => n,
                    len if g.chance(0.7) => held[g.range(0..len)],
                    _ => n,
                };
                gone.extend(table.remove(&id));
                news.push(row(g, id));
            } else {
                let share = [0.05, 0.3][g.range(0..2usize)];
                for id in table.keys().copied().collect::<Vec<_>>() {
                    if g.chance(share) {
                        gone.push(table.remove(&id).unwrap());
                        if g.chance(0.7) {
                            news.push(row(g, id));
                        }
                    }
                }
            }
            table.extend(news.iter().map(|t| (t.id(), t.clone())));
            let fresh: HashSet<u64> = news.iter().map(Tuple::id).collect();
            index.stage(&gone, news.clone());
            let delta = ids(index.join_sink(&e, "delta", collect));
            assert_eq!(delta, cross(&table, &|id| fresh.contains(&id)));
            if sweeps(&conds) {
                let delta = Part::build(news, &conds, true);
                let parts: Vec<&Part> = index.parts.iter().chain(&delta).collect();
                for (left, right) in parts.iter().flat_map(|l| parts.iter().map(move |r| (l, r))) {
                    let mut walked = Vec::new();
                    sweep(left, right, &conds, &mut |a: &Tuple, b: &Tuple| {
                        walked.push((a.id(), b.id()));
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(walked, tuple_sweep(left, right, &conds));
                }
            }
            index.merge(&e).unwrap();
            assert_sorted(&index);
        });
    }
}
