//! The scalable equivalence-class algorithm (§5.2).
//!
//! "We extend the equivalence class algorithm to a distributed setting
//! by modeling it as a distributed word counting algorithm … with two
//! map-reduce sequences":
//!
//! * round 1 maps each possible fix's elements to
//!   `⟨(ccid, value), 1⟩` — counting each element's value **once** even
//!   if it appears in several fixes — and reduces to per-(class, value)
//!   frequencies;
//! * round 2 re-keys by `ccid` and reduces to the highest-frequency
//!   value, which becomes `targ(E)` for every element of the class.
//!
//! Classes (`ccid`) come from the semi-naive BSP connected components
//! over the equality-fix graph, exactly the GraphX step of §5.1. Cells
//! are interned through a [`KeyDict`] into dense `u32` node ids, so the
//! class map is a flat `node_labels` vector rather than a hash map, and
//! isolated cells fall out as singleton classes for free (a node with
//! no incident edge keeps its own id as its label). The result is
//! bit-identical to the centralized [`crate::EquivalenceClassRepair`]
//! (both break frequency ties toward the smaller value), which the
//! parity tests assert.

use crate::cc::{components_bsp, EdgeList};
use crate::{Assignment, Detected};
use bigdansing_common::error::Result;
use bigdansing_common::keys::KeyDict;
use bigdansing_common::{Cell, Value};
use bigdansing_dataflow::{Engine, PDataset, Stage};
use bigdansing_rules::{FixRhs, Op};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// Fold the values of equal keys into one `(key, value)` per key.
fn fold_by_key<K: Hash + Eq, V>(
    pairs: impl IntoIterator<Item = (K, V)>,
    fold: fn(V, V) -> V,
) -> Vec<(K, V)> {
    let mut acc: HashMap<K, V> = HashMap::new();
    for (k, v) in pairs {
        let v = match acc.remove(&k) {
            Some(prev) => fold(prev, v),
            None => v,
        };
        acc.insert(k, v);
    }
    acc.into_iter().collect()
}

/// One map-reduce round, queued on `records`: map-side combine per
/// input partition, hash shuffle on the key, reducer-side fold. `fold`
/// must be associative and commutative.
#[allow(clippy::type_complexity)]
fn reduce_round<S, K, V>(
    records: Stage<S, (K, V)>,
    round: &str,
    fold: fn(V, V) -> V,
) -> Result<Stage<(K, (K, V)), (K, V)>>
where
    S: Send + Sync + 'static,
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    Ok(records
        .map_parts(format!("{round}.combine"), move |part| {
            Ok(fold_by_key(part, fold))
        })
        .group_by_key(round, |(k, _)| Ok(k.clone()))?
        .map_parts(format!("{round}.fold"), move |groups| {
            Ok(fold_by_key(
                groups.into_iter().flat_map(|(_, pairs)| pairs),
                fold,
            ))
        }))
}

/// Run the distributed equivalence-class repair on `engine`.
pub fn repair_distributed_equivalence(
    engine: &Engine,
    detected: &[Detected],
) -> Result<Assignment> {
    // -- class formation: BSP connected components over Eq-fix edges --
    // Interning is single-threaded here, so ordinals are dense AND
    // deterministic (first-appearance order).
    let dict: KeyDict<Cell> = KeyDict::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut observed: Vec<Value> = Vec::new();
    let intern = |c: Cell, v: &Value, cells: &mut Vec<Cell>, observed: &mut Vec<Value>| -> u32 {
        let id = dict.encode(c);
        if id.ordinal() as usize == cells.len() {
            cells.push(c);
            observed.push(v.clone());
        }
        id.ordinal()
    };
    let mut graph = EdgeList::with_nodes(0);
    let mut consts: BTreeSet<(u32, Value)> = BTreeSet::new();
    for (violation, fixes) in detected {
        for (c, v) in violation.cells() {
            intern(*c, v, &mut cells, &mut observed);
        }
        for fix in fixes {
            if fix.op != Op::Eq {
                continue;
            }
            let left = intern(fix.left, &fix.left_value, &mut cells, &mut observed);
            match &fix.rhs {
                FixRhs::Cell(rc, rv) => {
                    let right = intern(*rc, rv, &mut cells, &mut observed);
                    graph.push_edge([left, right]);
                }
                FixRhs::Const(k) => {
                    consts.insert((left, k.clone()));
                }
            }
        }
    }
    // untouched cells are singleton classes: their identity label needs
    // no edge, only a node slot
    graph.num_nodes = cells.len();
    let labels = components_bsp(engine, &graph)?.node_labels;

    // -- map-reduce round 1: ⟨(ccid, value), count⟩ with count-once ----
    // map: one record per element (deduplicated) and per const candidate
    let mut records: Vec<((u32, Value), u64)> = (0..cells.len())
        .map(|i| ((labels[i], observed[i].clone()), 1u64))
        .collect();
    records.extend(
        consts
            .iter()
            .map(|(n, k)| ((labels[*n as usize], k.clone()), 1u64)),
    );
    let counted = reduce_round(
        PDataset::from_vec(engine.clone(), records).stage(),
        "count",
        |a, b| a + b,
    )?;

    // -- map-reduce round 2: ⟨ccid, (value, count)⟩ → max-frequency -----
    let rekeyed = counted.map("rekey", |((cc, value), count)| Ok((cc, (value, count))));
    let targets = reduce_round(rekeyed, "max", |(va, ca), (vb, cb)| {
        // higher count wins; ties toward the smaller value
        match ca.cmp(&cb) {
            std::cmp::Ordering::Less => (vb, cb),
            std::cmp::Ordering::Greater => (va, ca),
            std::cmp::Ordering::Equal => {
                if va <= vb {
                    (va, ca)
                } else {
                    (vb, cb)
                }
            }
        }
    })?
    .collect()?;
    let targ: HashMap<u32, Value> = targets.into_iter().map(|(cc, (v, _))| (cc, v)).collect();

    // -- final assignment: every element moves to its class target ------
    let mut out = Assignment::new();
    for (i, cell) in cells.iter().enumerate() {
        if let Some(t) = targ.get(&labels[i]) {
            if observed[i] != *t {
                out.insert(*cell, t.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::repair_serial;
    use crate::EquivalenceClassRepair;
    use bigdansing_rules::{Fix, Violation};
    use proptest::prelude::*;

    fn fd_detected(a: u64, va: &str, b: u64, vb: &str, attr: usize) -> Detected {
        let ca = Cell::new(a, attr);
        let cb = Cell::new(b, attr);
        let mut v = Violation::new("fd");
        v.add_cell(ca, Value::str(va));
        v.add_cell(cb, Value::str(vb));
        (
            v,
            vec![Fix::assign_cell(ca, Value::str(va), cb, Value::str(vb))],
        )
    }

    #[test]
    fn matches_centralized_on_example1() {
        let detected = vec![
            fd_detected(2, "LA", 4, "SF", 2),
            fd_detected(6, "LA", 4, "SF", 2),
        ];
        let engine = Engine::parallel(4);
        let dist = repair_distributed_equivalence(&engine, &detected).unwrap();
        let central = repair_serial(&detected, &EquivalenceClassRepair);
        assert_eq!(dist, central);
        assert_eq!(dist[&Cell::new(4, 2)], Value::str("LA"));
    }

    #[test]
    fn const_candidates_count_once() {
        let ca = Cell::new(1, 0);
        let cb = Cell::new(2, 0);
        let mut v = Violation::new("cfd");
        v.add_cell(ca, Value::str("B"));
        v.add_cell(cb, Value::str("Z"));
        let fixes = vec![
            Fix::assign_cell(ca, Value::str("B"), cb, Value::str("Z")),
            Fix::assign_const(ca, Value::str("B"), Value::str("Z")),
            Fix::assign_const(ca, Value::str("B"), Value::str("Z")), // duplicate
        ];
        let engine = Engine::sequential();
        let detected = vec![(v, fixes)];
        let dist = repair_distributed_equivalence(&engine, &detected).unwrap();
        let central = repair_serial(&detected, &EquivalenceClassRepair);
        assert_eq!(dist, central);
        assert_eq!(dist[&ca], Value::str("Z"));
    }

    #[test]
    fn empty_input() {
        let engine = Engine::sequential();
        assert!(repair_distributed_equivalence(&engine, &[])
            .unwrap()
            .is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn distributed_equals_centralized(
            // random small FD-violation batches over a few cells/values
            pairs in prop::collection::vec(
                ((0u64..8, 0u64..8), prop::sample::select(vec!["A", "B", "C"]),
                 prop::sample::select(vec!["A", "B", "C"])), 0..12)
        ) {
            let detected: Vec<Detected> = pairs
                .into_iter()
                .filter(|((a, b), _, _)| a != b)
                .map(|((a, b), va, vb)| fd_detected(a, va, b, vb, 1))
                .collect();
            let engine = Engine::parallel(3);
            let dist = repair_distributed_equivalence(&engine, &detected).unwrap();
            let central = repair_serial(&detected, &EquivalenceClassRepair);
            prop_assert_eq!(dist, central);
        }
    }
}
