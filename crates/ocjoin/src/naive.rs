//! The baseline: cross product + post-selection.
//!
//! "Existing systems handle joins over ordering comparisons using a cross
//! product and a post-selection predicate, leading to poor performance"
//! (§4.3). This module implements that strategy so the Figure 11(c)
//! ablation (CrossProduct vs UCrossProduct vs OCJoin) and the SQL-engine
//! baselines have something honest to run.

use bigdansing_common::error::Result;
use bigdansing_common::Tuple;
use bigdansing_dataflow::PDataset;
use bigdansing_rules::OrderCond;

/// All ordered pairs (full n² cross product, minus same-id pairs)
/// satisfying every condition — the *CrossProduct* physical operator.
pub fn cross_join_filter(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
) -> Result<PDataset<(Tuple, Tuple)>> {
    let conds = conds.to_vec();
    input
        .self_cross_product()?
        .stage()
        .filter("post-select", move |(a, b)| {
            Ok(a.id() != b.id()
                && conds
                    .iter()
                    .all(|c| c.op.holds(a.value(c.left_attr), b.value(c.right_attr))))
        })
        .run()
}

/// The *UCrossProduct* variant: each unordered pair is materialized once
/// (n·(n−1)/2 candidates), then checked in both orientations — valid for
/// any condition set because a satisfied orientation is emitted
/// explicitly. Halves the candidate count relative to
/// [`cross_join_filter`] but is still quadratic (Figure 11(c)).
pub fn ucross_join_filter(
    input: PDataset<Tuple>,
    conds: &[OrderCond],
) -> Result<PDataset<(Tuple, Tuple)>> {
    let conds = conds.to_vec();
    input
        .self_cartesian()?
        .stage()
        .map_parts("post-select", move |pairs: Vec<(Tuple, Tuple)>| {
            let holds = |a: &Tuple, b: &Tuple| {
                conds
                    .iter()
                    .all(|c| c.op.holds(a.value(c.left_attr), b.value(c.right_attr)))
            };
            let mut out = Vec::new();
            for (a, b) in pairs {
                if holds(&a, &b) {
                    out.push((a.clone(), b.clone()));
                }
                if holds(&b, &a) {
                    out.push((b, a));
                }
            }
            Ok(out)
        })
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Value;
    use bigdansing_dataflow::Engine;
    use bigdansing_rules::ops::Op;
    use std::collections::HashSet;

    fn tup(id: u64, a: i64, b: i64) -> Tuple {
        Tuple::new(id, vec![Value::Int(a), Value::Int(b)])
    }

    fn conds() -> Vec<OrderCond> {
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

    fn ids(pairs: Result<PDataset<(Tuple, Tuple)>>) -> HashSet<(u64, u64)> {
        let pairs = pairs.unwrap().collect().unwrap();
        pairs.into_iter().map(|(x, y)| (x.id(), y.id())).collect()
    }

    #[test]
    fn cross_and_ucross_agree() {
        let data: Vec<Tuple> = (0..30)
            .map(|i| tup(i, (i as i64 * 13) % 7, (i as i64 * 5) % 11))
            .collect();
        let e = Engine::parallel(2);
        let a = ids(cross_join_filter(
            PDataset::from_vec(e.clone(), data.clone()),
            &conds(),
        ));
        let b = ids(ucross_join_filter(PDataset::from_vec(e, data), &conds()));
        assert_eq!(a, b);
    }

    #[test]
    fn ucross_generates_half_the_candidates() {
        let data: Vec<Tuple> = (0..20).map(|i| tup(i, i as i64, i as i64)).collect();
        let e = Engine::parallel(2);
        ucross_join_filter(PDataset::from_vec(e.clone(), data), &conds()).unwrap();
        // selfCartesian materializes n(n-1)/2 = 190 candidates, not 400
        assert_eq!(
            bigdansing_common::metrics::Metrics::get(&e.metrics().pairs_generated),
            190
        );
    }

    #[test]
    fn known_violating_pair_found() {
        let data = vec![tup(1, 100, 30), tup(2, 200, 10)];
        let e = Engine::sequential();
        let out = ids(cross_join_filter(PDataset::from_vec(e, data), &conds()));
        assert_eq!(out, HashSet::from([(2, 1)]));
    }
}
