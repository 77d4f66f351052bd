//! The hypergraph-based repair algorithm for general (e.g. DC) rules —
//! the second centralized algorithm BigDansing ships (§5.1), following
//! the holistic strategy of Chu et al. \[6\] and the vertex-cover
//! heuristic of Kolahi & Lakshmanan \[23\]. Each round:
//!
//! 1. gathers the constraints the possible fixes of every unresolved
//!    violation place on their cells into a dense index: cells sorted
//!    and deduplicated, each cell's constraints one run of a CSR array
//!    in gather order, so a cell's violation degree is its run length;
//! 2. visits cells in descending degree (a greedy vertex cover of the
//!    hyperedges), ties broken toward the cheapest repair (§2.1's cost
//!    model) and then by cell;
//! 3. assigns each visited cell the value that satisfies the most of
//!    its still-uncovered constraints at the least cost — for numeric
//!    inequality constraints this clamps the cell into the feasible
//!    `[max lower bound, min upper bound]` interval, our stand-in for
//!    the quadratic-programming relaxation of \[6\] — and marks the
//!    violations it satisfies covered;
//!
//! and rounds repeat until every violation is resolved (or the round
//! budget is exhausted — the §2.2 loop re-detects and retries).
//!
//! **Cost.** A round over `e` constraint entries costs O(e log e) to
//! gather and, for a cell of degree `d`, O(d log d) per best-value
//! search: each op's targets are sorted once, and each of the O(d)
//! candidates is scored with two binary searches per op. That count is
//! exact because [`Op::holds`] reads only `Value::cmp`, wherever that
//! order is transitive (everywhere but `Int`s beyond ±2^53 compared
//! with `Float`s, where sorting was already ambiguous). Only cells that
//! still have an uncovered violation are costed at all, and each at
//! most twice: once in its degree group, once more in the cover step
//! when a neighbour changed its inputs.
//!
//! **Why the shortcuts are exact.** Cell costs are scored against the
//! round-start values, one degree group at a time, just before the group
//! is visited. `covered` only grows during a round, so a cell whose
//! violations are all covered when its group starts would also be
//! skipped at its turn in a full up-front sort, and the visit order of
//! the others is the same. A cell's best value from the group pass is
//! reused in the cover step when none of its constraints is covered yet
//! and no partner cell was assigned earlier in the round: its inputs are
//! then the very ones the group pass saw.

use crate::blackbox::RepairAlgorithm;
use crate::fixeval::{value_above, value_below, violation_resolved};
use crate::{Assignment, Detected};
use bigdansing_common::{Cell, Value};
use bigdansing_rules::{FixRhs, Op};
use std::cmp::Reverse;

/// Greedy holistic hypergraph repair.
#[derive(Debug, Clone)]
pub struct HypergraphRepair {
    /// Safety bound on cover/assign rounds over the component.
    pub max_rounds: usize,
}

impl Default for HypergraphRepair {
    fn default() -> Self {
        HypergraphRepair { max_rounds: 4 }
    }
}

/// A requirement `cell op <target>` derived from a possible fix of
/// violation `vi`. The target is the partner cell's value in the round's
/// value table (so a partner repaired earlier in the same round supplies
/// its *new* value), or the observed value when the partner is
/// unassigned or the bound is a constant.
#[derive(Debug, Clone, Copy)]
struct Constraint<'a> {
    vi: usize,
    op: Op,
    /// Dense id of the partner cell, when the bound comes from another
    /// element.
    partner: Option<usize>,
    /// Observed value (of the partner cell, or the constant).
    value: &'a Value,
}

impl<'a> Constraint<'a> {
    /// The bound's value under `values` (assigned values by dense id).
    fn target<'v>(&self, values: &'v [Option<Value>]) -> &'v Value
    where
        'a: 'v,
    {
        self.partner
            .and_then(|p| values[p].as_ref())
            .unwrap_or(self.value)
    }
}

/// One round's dense index over the unresolved violations' constraints:
/// cell `i` is `cells[i]` and owns `constraints[runs[i]..runs[i + 1]]`.
struct Round<'a> {
    cells: Vec<Cell>,
    runs: Vec<usize>,
    constraints: Vec<Constraint<'a>>,
}

impl<'a> Round<'a> {
    /// Each fix `x op y` constrains `x` (`x op y`) and, when `y` is a
    /// cell, `y` (`y flip(op) x`).
    fn gather(component: &[&'a Detected], unresolved: &[usize]) -> Round<'a> {
        let mut tagged: Vec<(Cell, usize, Op, Option<Cell>, &'a Value)> = Vec::new();
        for &vi in unresolved {
            for fix in &component[vi].1 {
                match &fix.rhs {
                    FixRhs::Cell(c, v) => {
                        tagged.push((fix.left, vi, fix.op, Some(*c), v));
                        tagged.push((*c, vi, fix.op.flip(), Some(fix.left), &fix.left_value));
                    }
                    FixRhs::Const(v) => tagged.push((fix.left, vi, fix.op, None, v)),
                }
            }
        }
        // stable: a cell's constraints stay in gather order
        tagged.sort_by_key(|t| t.0);
        let mut cells: Vec<Cell> = tagged.iter().map(|t| t.0).collect();
        cells.dedup();
        let mut runs = Vec::with_capacity(cells.len() + 1);
        runs.extend((0..tagged.len()).filter(|&k| k == 0 || tagged[k - 1].0 != tagged[k].0));
        runs.push(tagged.len());
        let id = |c: Cell| cells.binary_search(&c).expect("every partner is gathered");
        let constraints = tagged
            .iter()
            .map(|&(_, vi, op, partner, value)| Constraint {
                vi,
                op,
                partner: partner.map(id),
                value,
            })
            .collect();
        Round {
            cells,
            runs,
            constraints,
        }
    }

    /// Cell `i`'s constraints; their count is its violation degree.
    fn of(&self, i: usize) -> &[Constraint<'a>] {
        &self.constraints[self.runs[i]..self.runs[i + 1]]
    }
}

/// The six ops in declaration order: `Scratch::by_op[op as usize]`.
const OPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Gt, Op::Le, Op::Ge];

/// Buffers [`best_value`] reuses across cells.
#[derive(Default)]
struct Scratch {
    /// The constraints' resolved `(op, target)`s, in constraint order.
    targets: Vec<(Op, Value)>,
    /// Each op's targets, sorted.
    by_op: [Vec<Value>; 6],
    /// Interior samples: every target, sorted and deduplicated.
    samples: Vec<Value>,
    candidates: Vec<Value>,
}

impl Scratch {
    /// Resolve each constraint's target once and sort each op's targets.
    fn load<'v>(&mut self, constraints: impl Iterator<Item = (Op, &'v Value)>) {
        self.targets.clear();
        self.by_op.iter_mut().for_each(Vec::clear);
        for (op, target) in constraints {
            self.targets.push((op, target.clone()));
            self.by_op[op as usize].push(target.clone());
        }
        self.by_op.iter_mut().for_each(|ts| ts.sort_unstable());
    }

    /// How many loaded constraints `v` satisfies: two binary searches
    /// split each op's sorted targets into those below, equal to and
    /// above `v`.
    fn satisfied(&self, v: &Value) -> usize {
        OPS.iter()
            .zip(&self.by_op)
            .filter(|(_, ts)| !ts.is_empty())
            .map(|(op, ts)| {
                let below = ts.partition_point(|t| t < v);
                let not_above = below + ts[below..].partition_point(|t| t <= v);
                let (equal, above) = (not_above - below, ts.len() - not_above);
                match op {
                    Op::Eq => equal,
                    Op::Ne => below + above,
                    Op::Lt => above,
                    Op::Gt => below,
                    Op::Le => equal + above,
                    Op::Ge => below + equal,
                }
            })
            .sum()
    }
}

/// The value for a cell satisfying the most of its constraints, at
/// minimal distance from its current value. Numeric bound constraints
/// are combined into a feasible interval first.
fn best_value<'v>(
    current_value: &Value,
    constraints: impl Iterator<Item = (Op, &'v Value)>,
    s: &mut Scratch,
) -> Value {
    s.load(constraints);
    // feasible interval from the ordering constraints
    let mut lower: Option<Value> = None; // c >= lower
    let mut upper: Option<Value> = None; // c <= upper
    s.candidates.clear();
    s.candidates.push(current_value.clone());
    for (op, target) in &s.targets {
        match op {
            Op::Ge => {
                if lower.as_ref().is_none_or(|l| target > l) {
                    lower = Some(target.clone());
                }
            }
            Op::Gt => {
                let v = value_above(target);
                if lower.as_ref().is_none_or(|l| v > *l) {
                    lower = Some(v);
                }
            }
            Op::Le => {
                if upper.as_ref().is_none_or(|u| target < u) {
                    upper = Some(target.clone());
                }
            }
            Op::Lt => {
                let v = value_below(target);
                if upper.as_ref().is_none_or(|u| v < *u) {
                    upper = Some(v);
                }
            }
            Op::Eq => s.candidates.push(target.clone()),
            Op::Ne => s.candidates.push(value_above(target)),
        }
    }
    // the clamp of the current value into [lower, upper] is the
    // minimal-change point of the feasible interval
    let mut clamped = current_value.clone();
    if let Some(l) = &lower {
        if clamped < *l {
            clamped = l.clone();
        }
    }
    if let Some(u) = &upper {
        if clamped > *u {
            clamped = u.clone();
        }
    }
    s.candidates.push(clamped);
    s.candidates.extend(lower);
    s.candidates.extend(upper);
    // Interior candidates: with contradictory bounds (typical when some
    // bounds come from *other dirty cells*) the optimum sits strictly
    // between the extremes, so sample the constraint targets themselves.
    s.samples.clear();
    s.samples.extend(s.targets.iter().map(|(_, t)| t.clone()));
    s.samples.sort();
    s.samples.dedup();
    const MAX_SAMPLES: usize = 32;
    let stride = (s.samples.len() / MAX_SAMPLES).max(1);
    for t in s.samples.iter().step_by(stride) {
        s.candidates.push(t.clone());
        s.candidates.push(value_above(t));
    }
    // score candidates: satisfied constraints desc, distance asc, value asc
    s.candidates.sort();
    s.candidates.dedup();
    s.candidates
        .iter()
        .map(|v| (v, s.satisfied(v), current_value.distance(v)))
        .max_by(|(va, sa, da), (vb, sb, db)| {
            sa.cmp(sb)
                .then_with(|| db.total_cmp(da))
                .then_with(|| vb.cmp(va))
        })
        .map(|(v, _, _)| v.clone())
        .expect("candidates never empty")
}

impl RepairAlgorithm for HypergraphRepair {
    fn name(&self) -> &str {
        "hypergraph"
    }

    fn repair(&self, component: &[&Detected]) -> Assignment {
        let mut assign = Assignment::new();
        let mut scratch = Scratch::default();
        for _ in 0..self.max_rounds.max(1) {
            let unresolved: Vec<usize> = (0..component.len())
                .filter(|&i| !violation_resolved(component[i], &assign))
                .collect();
            if unresolved.is_empty() {
                break;
            }
            let round = Round::gather(component, &unresolved);
            if round.cells.is_empty() {
                break; // violations with no possible fixes: terminal (§2.2)
            }
            let n = round.cells.len();
            // values assigned before the round, and as the round assigns
            let start: Vec<Option<Value>> =
                round.cells.iter().map(|c| assign.get(c).cloned()).collect();
            let mut now = start.clone();
            let mut fresh = vec![false; n];
            let mut covered = vec![false; component.len()];
            // a cell's current value: assigned, or as violation `vi` records it
            let current = |values: &[Option<Value>], i: usize, vi: usize| -> Value {
                values[i]
                    .clone()
                    .or_else(|| component[vi].0.value_of(round.cells[i]).cloned())
                    .unwrap_or(Value::Null)
            };
            // greedy cover: cells in descending violation degree, then
            // cheapest repair, then cell; skip violations already
            // covered within this round
            let mut by_degree: Vec<usize> = (0..n).collect();
            by_degree.sort_by_key(|&i| Reverse(round.of(i).len()));
            let mut group: Vec<(f64, usize, Value)> = Vec::new();
            for same in by_degree.chunk_by(|&a, &b| round.of(a).len() == round.of(b).len()) {
                for &i in same {
                    let cs = round.of(i);
                    if cs.iter().all(|c| covered[c.vi]) {
                        continue;
                    }
                    let cur = current(&start, i, cs[0].vi);
                    let targets = cs.iter().map(|c| (c.op, c.target(&start)));
                    let best = best_value(&cur, targets, &mut scratch);
                    group.push((cur.distance(&best), i, best));
                }
                group.sort_by(|(ca, ia, _), (cb, ib, _)| ca.total_cmp(cb).then(ia.cmp(ib)));
                for (_, i, best) in group.drain(..) {
                    let cs = round.of(i);
                    let Some(first) = cs.iter().find(|c| !covered[c.vi]) else {
                        continue;
                    };
                    let cur = current(&now, i, first.vi);
                    let untouched = cs
                        .iter()
                        .all(|c| !covered[c.vi] && c.partner.is_none_or(|p| !fresh[p]));
                    let v = if untouched {
                        best
                    } else {
                        let pending = cs.iter().filter(|c| !covered[c.vi]);
                        best_value(&cur, pending.map(|c| (c.op, c.target(&now))), &mut scratch)
                    };
                    if v != cur {
                        assign.insert(round.cells[i], v.clone());
                        now[i] = Some(v.clone());
                        fresh[i] = true;
                    }
                    for c in cs {
                        if !covered[c.vi] && c.op.holds(&v, c.target(&now)) {
                            covered[c.vi] = true;
                        }
                    }
                }
            }
            if !fresh.contains(&true) {
                break;
            }
        }
        assign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::repair_serial;
    use crate::fixeval::fix_holds;
    use bigdansing_common::rng::{check, SplitMix64};
    use bigdansing_rules::{Fix, Violation};

    /// A φD-style violation: t1 (rich, low rate) vs t2 (poor, high rate).
    /// Possible fixes: t1.salary ≤ t2.salary OR t1.rate ≥ t2.rate.
    fn dc_detected(t1: u64, s1: i64, r1: i64, t2: u64, s2: i64, r2: i64) -> Detected {
        let sal = |t: u64| Cell::new(t, 4);
        let rate = |t: u64| Cell::new(t, 5);
        let mut v = Violation::new("dc:phi2");
        v.add_cell(sal(t1), Value::Int(s1));
        v.add_cell(sal(t2), Value::Int(s2));
        v.add_cell(rate(t1), Value::Int(r1));
        v.add_cell(rate(t2), Value::Int(r2));
        let fixes = vec![
            Fix::compare(
                sal(t1),
                Value::Int(s1),
                Op::Le,
                FixRhs::Cell(sal(t2), Value::Int(s2)),
            ),
            Fix::compare(
                rate(t1),
                Value::Int(r1),
                Op::Ge,
                FixRhs::Cell(rate(t2), Value::Int(r2)),
            ),
        ];
        (v, fixes)
    }

    #[test]
    fn resolves_dc_violation_with_minimal_change() {
        // salary gap is huge (200k→100k), rate gap tiny (10→11):
        // the cheap repair touches a rate, not a salary.
        let det = dc_detected(1, 200_000, 10, 2, 100_000, 11);
        let assign = repair_serial(std::slice::from_ref(&det), &HypergraphRepair::default());
        assert!(violation_resolved(&det, &assign));
        assert!(
            !assign.contains_key(&Cell::new(1, 4)) && !assign.contains_key(&Cell::new(2, 4)),
            "salaries should be untouched: {assign:?}"
        );
    }

    #[test]
    fn high_degree_cell_is_repaired_once_for_many_violations() {
        // one dirty tuple (id 0, rate far too low) violates against many
        // others; the cover heuristic should fix tuple 0's rate once
        let dets: Vec<Detected> = (1..20)
            .map(|i| dc_detected(0, 900, 1, i, 100 + i as i64, 50))
            .collect();
        let assign = repair_serial(&dets, &HypergraphRepair::default());
        // a single cell assignment (on tuple 0) resolves everything
        assert_eq!(assign.len(), 1, "{assign:?}");
        assert_eq!(assign.keys().next().unwrap().tuple, 0);
        for d in &dets {
            assert!(violation_resolved(d, &assign));
        }
    }

    #[test]
    fn every_violation_ends_resolved() {
        let dets = vec![
            dc_detected(1, 200, 10, 2, 100, 20),
            dc_detected(3, 500, 1, 2, 100, 20),
            dc_detected(1, 200, 10, 4, 50, 90),
        ];
        let assign = repair_serial(&dets, &HypergraphRepair::default());
        for d in &dets {
            assert!(violation_resolved(d, &assign), "unresolved: {:?}", d.0);
        }
        assert!(dets
            .iter()
            .all(|d| d.1.iter().any(|f| fix_holds(f, &assign)) || violation_resolved(d, &assign)));
    }

    #[test]
    fn violations_without_fixes_are_left_alone() {
        let mut v = Violation::new("r");
        v.add_cell(Cell::new(1, 0), Value::Int(1));
        let assign = repair_serial(&[(v, vec![])], &HypergraphRepair::default());
        assert!(
            assign.is_empty(),
            "no possible fixes → no repair (terminal state per §2.2)"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let dets: Vec<Detected> = (0..10)
            .map(|i| dc_detected(i, 100 + i as i64, 10, i + 100, 50, 20 + i as i64))
            .collect();
        let a1 = repair_serial(&dets, &HypergraphRepair::default());
        let a2 = repair_serial(&dets, &HypergraphRepair::default());
        assert_eq!(a1, a2);
    }

    #[test]
    fn poisoned_bounds_do_not_win() {
        // lower bounds from clean partners 15..19, one poisoned 80;
        // upper bounds 21..23, one poisoned 3. The optimum sits near 19,
        // satisfying 8 of 10 constraints — not at either extreme.
        let mut cs: Vec<(Op, Value)> = Vec::new();
        for v in [15, 16, 17, 18, 19, 80] {
            cs.push((Op::Ge, Value::Int(v)));
        }
        for v in [21, 22, 23, 3] {
            cs.push((Op::Le, Value::Int(v)));
        }
        let v = best(&Value::Int(2), &cs);
        let sat = satisfied(&v, &cs);
        assert_eq!(
            sat, 8,
            "best candidate satisfies 8/10, got {v:?} with {sat}"
        );
        assert!(v >= Value::Int(19) && v <= Value::Int(21), "{v:?}");
    }

    #[test]
    fn feasible_interval_clamps_minimally() {
        // c must be >= 10 and <= 20; current 5 → clamp to 10
        let cs = vec![(Op::Ge, Value::Int(10)), (Op::Le, Value::Int(20))];
        assert_eq!(best(&Value::Int(5), &cs), Value::Int(10));
        // current inside the interval → unchanged
        assert_eq!(best(&Value::Int(15), &cs), Value::Int(15));
        // infeasible bounds → best-scoring candidate still returned
        let cs = vec![(Op::Ge, Value::Int(20)), (Op::Le, Value::Int(10))];
        let v = best(&Value::Int(15), &cs);
        let sat = satisfied(&v, &cs);
        assert_eq!(sat, 1, "one of two incompatible constraints satisfied");
    }

    /// `best_value` over constant bounds.
    fn best(current: &Value, cs: &[(Op, Value)]) -> Value {
        best_value(
            current,
            cs.iter().map(|(op, t)| (*op, t)),
            &mut Scratch::default(),
        )
    }

    /// The linear count the binary searches must equal.
    fn satisfied(v: &Value, cs: &[(Op, Value)]) -> usize {
        cs.iter().filter(|(op, t)| op.holds(v, t)).count()
    }

    /// Null, a small `Int`, a `Float` that is integral half the time (so
    /// it compares `Equal` to an `Int`), or a one-letter string: a pool
    /// small enough that targets and candidates tie often.
    fn arb_value(g: &mut SplitMix64) -> Value {
        match g.range(0..4) {
            0 => Value::Null,
            1 => Value::Int(g.range(-4i64..5)),
            2 => {
                let k = g.range(-4i64..5) as f64;
                Value::Float(if g.chance(0.5) { k } else { k + 0.5 })
            }
            _ => Value::str(["a", "b", "c"][g.range(0..3usize)]),
        }
    }

    #[test]
    fn binary_search_count_equals_the_linear_count() {
        check(256, |g| {
            let cs: Vec<(Op, Value)> = (0..g.range(0..40usize))
                .map(|_| (OPS[g.range(0..6usize)], arb_value(g)))
                .collect();
            let mut s = Scratch::default();
            s.load(cs.iter().map(|(op, t)| (*op, t)));
            for _ in 0..16 {
                let v = arb_value(g);
                assert_eq!(s.satisfied(&v), satisfied(&v, &cs), "{v:?} against {cs:?}");
            }
        });
    }

    /// The round body without the two shortcuts: every cell costed up
    /// front against the round-start values, one full sort, and a fresh
    /// best-value search for every visited cell.
    fn reference_repair(component: &[&Detected], max_rounds: usize) -> Assignment {
        let mut assign = Assignment::new();
        let mut s = Scratch::default();
        for _ in 0..max_rounds {
            let unresolved: Vec<usize> = (0..component.len())
                .filter(|&i| !violation_resolved(component[i], &assign))
                .collect();
            if unresolved.is_empty() {
                break;
            }
            let round = Round::gather(component, &unresolved);
            let start: Vec<Option<Value>> =
                round.cells.iter().map(|c| assign.get(c).cloned()).collect();
            let mut now = start.clone();
            let value = |values: &[Option<Value>], i: usize, vi: usize| {
                values[i]
                    .clone()
                    .or_else(|| component[vi].0.value_of(round.cells[i]).cloned())
                    .unwrap_or(Value::Null)
            };
            let mut order: Vec<(usize, f64, usize)> = (0..round.cells.len())
                .map(|i| {
                    let cs = round.of(i);
                    let cur = value(&start, i, cs[0].vi);
                    let targets = cs.iter().map(|c| (c.op, c.target(&start)));
                    (
                        cs.len(),
                        cur.distance(&best_value(&cur, targets, &mut s)),
                        i,
                    )
                })
                .collect();
            order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut covered = vec![false; component.len()];
            let mut changed = false;
            for (_, _, i) in order {
                let pending: Vec<&Constraint> =
                    round.of(i).iter().filter(|c| !covered[c.vi]).collect();
                let Some(first) = pending.first() else {
                    continue;
                };
                let cur = value(&now, i, first.vi);
                let targets = pending.iter().map(|c| (c.op, c.target(&now)));
                let v = best_value(&cur, targets, &mut s);
                if v != cur {
                    assign.insert(round.cells[i], v.clone());
                    now[i] = Some(v.clone());
                    changed = true;
                }
                for c in pending {
                    if c.op.holds(&v, c.target(&now)) {
                        covered[c.vi] = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        assign
    }

    /// A small numeric value: an `Int`, or a `Float` equal to one half
    /// the time.
    fn arb_num(g: &mut SplitMix64) -> Value {
        let k = g.range(0i64..6);
        match g.range(0..3) {
            0 => Value::Float(k as f64),
            1 => Value::Float(k as f64 + 0.5),
            _ => Value::Int(k),
        }
    }

    /// Up to 30 two-tuple violations over a few rows with two numeric
    /// attributes, each with one fix per attribute under a random op,
    /// one in five against a constant: dense enough that cells share
    /// partners and degrees tie.
    fn arb_component(g: &mut SplitMix64) -> Vec<Detected> {
        let rows = g.range(2usize..10);
        let table: Vec<[Value; 2]> = (0..rows).map(|_| [arb_num(g), arb_num(g)]).collect();
        (0..g.range(1usize..30))
            .map(|_| {
                let a = g.range(0..rows);
                let b = (a + g.range(1..rows)) % rows;
                let cell = |t: usize, attr: usize| Cell::new(t as u64, attr);
                let mut v = Violation::new("dc");
                for (t, attr) in [(a, 0), (a, 1), (b, 0), (b, 1)] {
                    v.add_cell(cell(t, attr), table[t][attr].clone());
                }
                let fixes = (0..2)
                    .map(|attr| {
                        let rhs = if g.chance(0.2) {
                            FixRhs::Const(arb_num(g))
                        } else {
                            FixRhs::Cell(cell(b, attr), table[b][attr].clone())
                        };
                        let op = OPS[g.range(0..6usize)];
                        Fix::compare(cell(a, attr), table[a][attr].clone(), op, rhs)
                    })
                    .collect();
                (v, fixes)
            })
            .collect()
    }

    #[test]
    fn shortcuts_match_the_full_sort_and_fresh_searches() {
        check(256, |g| {
            let dets = arb_component(g);
            let component: Vec<&Detected> = dets.iter().collect();
            let algo = HypergraphRepair::default();
            assert_eq!(
                algo.repair(&component),
                reference_repair(&component, algo.max_rounds),
                "{dets:?}"
            );
        });
    }
}
