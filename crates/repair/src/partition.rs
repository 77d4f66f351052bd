//! Dealing with big connected components (§5.1, Example 2).
//!
//! When a component exceeds one worker's capacity the paper splits it
//! with a k-way hypergraph partitioner and repairs the parts on distinct
//! machines, assigning one part the **master** role: master changes are
//! immutable; a slave change contradicting a master-involved repair is
//! undone and retried in the next iteration, so "the algorithm always
//! reaches a fix point … because an updated value cannot change in the
//! following iterations."
//!
//! The partitioner here is a greedy affinity heuristic (edges go to the
//! part sharing the most cells, ties to the smallest part) standing in
//! for the multilevel k-way algorithm of Karypis & Kumar \[22\]; the
//! master/slave protocol is implemented faithfully.

use crate::blackbox::RepairAlgorithm;
use crate::fixeval::{overlay_detected, violation_resolved};
use crate::{Assignment, Detected};
use bigdansing_common::Cell;
use std::collections::{HashMap, HashSet};

/// Configuration for the partitioned repair.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts (k).
    pub k: usize,
    /// Maximum master/slave iterations before giving up on the
    /// still-contradicted residue.
    pub max_iterations: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            k: 4,
            max_iterations: 8,
        }
    }
}

/// Greedy balanced k-way split of a component's violations. Returns
/// `k` (possibly empty) groups of indices into `component`.
pub fn partition_component(component: &[&Detected], k: usize) -> Vec<Vec<usize>> {
    let k = k.max(1);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut part_cells: Vec<HashSet<Cell>> = vec![HashSet::new(); k];
    let target = component.len().div_ceil(k);
    for (i, (v, fixes)) in component.iter().map(|d| (&d.0, &d.1)).enumerate() {
        let cells: HashSet<Cell> = v
            .cells()
            .iter()
            .map(|(c, _)| *c)
            .chain(fixes.iter().flat_map(|f| f.cells()))
            .collect();
        // highest shared-cell affinity among parts with remaining capacity,
        // ties to the emptiest part
        let mut best = 0usize;
        let mut best_key = (i64::MIN, i64::MIN);
        for p in 0..k {
            if parts[p].len() >= target && parts.iter().any(|q| q.len() < target) {
                continue;
            }
            let shared = cells.intersection(&part_cells[p]).count() as i64;
            let key = (shared, -(parts[p].len() as i64));
            if key > best_key {
                best_key = key;
                best = p;
            }
        }
        parts[best].push(i);
        part_cells[best].extend(cells);
    }
    parts
}

/// Repair an oversized component with the master/slave protocol.
///
/// The only place the repair path materializes violation copies: each
/// part's pending violations are overlaid with the partially repaired
/// data before re-running the black box (metered as deep clones via
/// [`overlay_detected`]).
pub fn repair_partitioned(
    algo: &dyn RepairAlgorithm,
    component: &[&Detected],
    config: PartitionConfig,
) -> Assignment {
    let parts = partition_component(component, config.k);
    let mut global = Assignment::new();
    let mut immutable: HashSet<Cell> = HashSet::new();
    for _ in 0..config.max_iterations.max(1) {
        // every part repairs its still-unresolved violations in
        // isolation, observing the partially repaired data (overlay) and
        // with immutable values reinforced as constant candidates so the
        // cost function pulls toward them
        let mut proposals: Vec<(usize, Assignment)> = Vec::new();
        for (p, idxs) in parts.iter().enumerate() {
            let pending: Vec<Detected> = idxs
                .iter()
                .map(|&i| component[i])
                .filter(|d| !violation_resolved(d, &global))
                .map(|d| {
                    let mut biased = overlay_detected(d, &global);
                    for (c, _) in d.0.cells() {
                        if immutable.contains(c) {
                            if let Some(v) = global.get(c) {
                                biased.1.push(bigdansing_rules::Fix::assign_const(
                                    *c,
                                    v.clone(),
                                    v.clone(),
                                ));
                            }
                        }
                    }
                    biased
                })
                .collect();
            if pending.is_empty() {
                continue;
            }
            let pending_refs: Vec<&Detected> = pending.iter().collect();
            proposals.push((p, algo.repair(&pending_refs)));
        }
        if proposals.is_empty() {
            break;
        }
        // union of the results with the extra consistency test: the
        // master's (part 0, and transitively, earlier iterations')
        // changes are immutable; contradicting slave changes are undone.
        let mut changed = false;
        let mut claimed_this_round: HashMap<Cell, usize> = HashMap::new();
        for (p, assign) in proposals {
            for (cell, value) in assign {
                if immutable.contains(&cell) {
                    continue; // immutable: a contradicting slave repair is undone
                }
                if let Some(&owner) = claimed_this_round.get(&cell) {
                    if owner != p {
                        continue; // two slaves raced; first (lower part) wins
                    }
                }
                claimed_this_round.insert(cell, p);
                if global.get(&cell) != Some(&value) {
                    global.insert(cell, value);
                    changed = true;
                }
            }
        }
        // everything applied so far becomes immutable for later rounds —
        // "an updated value cannot change in the following iterations"
        immutable.extend(global.keys().copied());
        if !changed {
            break;
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::EquivalenceClassRepair;
    use crate::hyper::HypergraphRepair;
    use bigdansing_common::Value;
    use bigdansing_rules::{Fix, Violation};

    fn refs(comp: &[Detected]) -> Vec<&Detected> {
        comp.iter().collect()
    }

    fn fd_detected(a: u64, va: &str, b: u64, vb: &str) -> Detected {
        let ca = Cell::new(a, 2);
        let cb = Cell::new(b, 2);
        let mut v = Violation::new("fd");
        v.add_cell(ca, Value::str(va));
        v.add_cell(cb, Value::str(vb));
        (
            v,
            vec![Fix::assign_cell(ca, Value::str(va), cb, Value::str(vb))],
        )
    }

    #[test]
    fn partition_is_balanced_and_complete() {
        let comp: Vec<Detected> = (0..20).map(|i| fd_detected(i, "A", i + 1, "B")).collect();
        let parts = partition_component(&refs(&comp), 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
        for p in &parts {
            assert!(p.len() <= 6, "part too large: {}", p.len());
        }
        // no index duplicated
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn affinity_groups_shared_cells() {
        // two clusters of violations over disjoint cells
        let mut comp = Vec::new();
        for _ in 0..4 {
            comp.push(fd_detected(1, "A", 2, "B"));
        }
        for _ in 0..4 {
            comp.push(fd_detected(100, "X", 101, "Y"));
        }
        let parts = partition_component(&refs(&comp), 2);
        // each part should be pure (all same cluster)
        for p in parts.iter().filter(|p| !p.is_empty()) {
            let first_cluster = comp[p[0]].0.cells()[0].0.tuple < 50;
            assert!(p
                .iter()
                .all(|&i| (comp[i].0.cells()[0].0.tuple < 50) == first_cluster));
        }
    }

    #[test]
    fn partitioned_repair_resolves_everything() {
        let comp: Vec<Detected> = (0..12).map(|i| fd_detected(i, "LA", i + 1, "SF")).collect();
        let assign = repair_partitioned(
            &EquivalenceClassRepair,
            &refs(&comp),
            PartitionConfig {
                k: 3,
                max_iterations: 8,
            },
        );
        for d in &comp {
            assert!(violation_resolved(d, &assign), "unresolved {:?}", d.0);
        }
    }

    #[test]
    fn master_values_never_flip() {
        // Example 2's shape: overlapping violations whose naive split
        // repairs contradict. With the protocol, once a cell is set it
        // stays set.
        let comp: Vec<Detected> = vec![
            fd_detected(1, "A", 2, "B"),
            fd_detected(2, "B", 3, "C"),
            fd_detected(3, "C", 4, "D"),
            fd_detected(4, "D", 5, "E"),
        ];
        let a1 = repair_partitioned(
            &HypergraphRepair::default(),
            &refs(&comp),
            PartitionConfig {
                k: 2,
                max_iterations: 4,
            },
        );
        // run again: deterministic
        let a2 = repair_partitioned(
            &HypergraphRepair::default(),
            &refs(&comp),
            PartitionConfig {
                k: 2,
                max_iterations: 4,
            },
        );
        assert_eq!(a1, a2);
        for d in &comp {
            assert!(violation_resolved(d, &a1));
        }
    }

    #[test]
    fn k_one_degenerates_to_plain_repair() {
        let comp: Vec<Detected> = vec![fd_detected(1, "A", 2, "B")];
        let direct = EquivalenceClassRepair.repair(&refs(&comp));
        let part = repair_partitioned(
            &EquivalenceClassRepair,
            &refs(&comp),
            PartitionConfig {
                k: 1,
                max_iterations: 2,
            },
        );
        assert_eq!(direct, part);
    }
}
