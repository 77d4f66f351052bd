//! Scaling data repair as a black box (§5.1).
//!
//! "We divide a repair task into independent smaller repair tasks":
//! build the violation hypergraph, find its connected components, and
//! hand each component to an independent instance of a centralized
//! [`RepairAlgorithm`], run in parallel across the engine's workers.
//!
//! The driver is zero-copy: components are groups of *indexes* into the
//! shared `detected` slice, and each repair task borrows its violations
//! from it — no per-`Detected` clone. Component tasks run through
//! [`Engine::run_stage`], so they inherit cancellation/deadline/memory
//! governance, retry-with-isolation, and the fused pass shows up in the
//! plan trace (`--explain`) as a `repair` pass.

use crate::cc::{components_bsp, group_by_component};
use crate::hypergraph::Hypergraph;
use crate::partition::{repair_partitioned, PartitionConfig};
use crate::{Assignment, Detected};
use bigdansing_common::error::Result;
use bigdansing_common::metrics::Metrics;
use bigdansing_dataflow::stage::PassKind;
use bigdansing_dataflow::Engine;

/// A centralized repair algorithm, treated as a black box: it receives
/// one connected component of the violation hypergraph (violations with
/// their possible fixes, borrowed from the shared detection output) and
/// returns cell assignments.
pub trait RepairAlgorithm: Send + Sync {
    /// Algorithm name (for reports).
    fn name(&self) -> &str;
    /// Compute a repair for one component.
    fn repair(&self, component: &[&Detected]) -> Assignment;
}

/// Options for the parallel driver.
#[derive(Debug, Clone, Copy)]
pub struct RepairOptions {
    /// Components with more violations than this are k-way partitioned
    /// and repaired with the master/slave protocol (the paper's
    /// "dealing with big connected components"). `usize::MAX` disables.
    pub max_component_size: usize,
    /// k for the partitioned path.
    pub k: usize,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            max_component_size: usize::MAX,
            k: 4,
        }
    }
}

/// Run `algo` independently on every connected component, in parallel —
/// the distributed black-box repair of §5.1. Assignments are disjoint
/// across components, so the union is conflict-free.
///
/// Records `components_found` / `components_partitioned` /
/// `repair_cells_assigned` on the engine's metrics (plus
/// `cc_supersteps` via the CC pass). Component tasks run on the
/// engine, so their deep payload copies count in `tuples_cloned` —
/// zero on the component-grouping path, which moves only indexes.
pub fn repair_parallel(
    engine: &Engine,
    detected: &[Detected],
    algo: &dyn RepairAlgorithm,
    options: RepairOptions,
) -> Result<Assignment> {
    if detected.is_empty() {
        return Ok(Assignment::new());
    }
    let graph = Hypergraph::build(detected);
    let bsp = components_bsp(engine, graph.topology())?;
    let groups = group_by_component(&bsp.edge_labels);
    let metrics = engine.metrics();
    Metrics::add(&metrics.components_found, groups.len() as u64);
    let partitioned = groups
        .iter()
        .filter(|g| g.len() > options.max_component_size)
        .count();
    Metrics::add(&metrics.components_partitioned, partitioned as u64);
    engine.record_pass(
        PassKind::Repair,
        vec![
            "hypergraph".into(),
            "cc-bsp".into(),
            format!("repair:{}", algo.name()),
        ],
        groups.len(),
    );
    let results = engine.run_stage(&groups, |_, idxs: &Vec<usize>| {
        let component: Vec<&Detected> = idxs
            .iter()
            .map(|&e| &detected[graph.detected_index(e)])
            .collect();
        Ok(if component.len() > options.max_component_size {
            repair_partitioned(
                algo,
                &component,
                PartitionConfig {
                    k: options.k,
                    max_iterations: 8,
                },
            )
        } else {
            algo.repair(&component)
        })
    })?;
    let mut out = Assignment::new();
    for r in results {
        out.extend(r);
    }
    Metrics::add(&metrics.repair_cells_assigned, out.len() as u64);
    Ok(out)
}

/// The centralized baseline: one repair instance over the entire
/// violation set (what NADEEF does; the serial arm of Figure 12(b)).
pub fn repair_serial(detected: &[Detected], algo: &dyn RepairAlgorithm) -> Assignment {
    let refs: Vec<&Detected> = detected.iter().collect();
    algo.repair(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EquivalenceClassRepair;
    use bigdansing_common::{Cell, Value};
    use bigdansing_rules::{Fix, Violation};

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
    fn parallel_equals_serial_for_equivalence_class() {
        let detected = vec![
            fd_detected(1, "LA", 2, "SF", 2),
            fd_detected(3, "LA", 2, "SF", 2),
            fd_detected(10, "NY", 11, "BO", 3),
            fd_detected(12, "NY", 11, "BO", 3),
        ];
        let algo = EquivalenceClassRepair;
        let serial = repair_serial(&detected, &algo);
        let engine = Engine::parallel(4);
        let parallel =
            repair_parallel(&engine, &detected, &algo, RepairOptions::default()).unwrap();
        assert_eq!(serial, parallel);
        assert!(!parallel.is_empty());
    }

    #[test]
    fn components_repair_independently() {
        // two disjoint components; the second should not affect the first
        let detected = vec![
            fd_detected(1, "A", 2, "B", 0),
            fd_detected(100, "X", 101, "Y", 1),
        ];
        let engine = Engine::parallel(2);
        let assign = repair_parallel(
            &engine,
            &detected,
            &EquivalenceClassRepair,
            RepairOptions::default(),
        )
        .unwrap();
        // each pair ties → smaller value wins → one change per component
        assert_eq!(assign.len(), 2);
        assert_eq!(assign[&Cell::new(2, 0)], Value::str("A"));
        assert_eq!(assign[&Cell::new(101, 1)], Value::str("X"));
    }

    #[test]
    fn grouping_path_is_zero_copy_and_metered() {
        let detected: Vec<Detected> = (0..20)
            .map(|i| fd_detected(10 * i, "LA", 10 * i + 1, "SF", 2))
            .collect();
        let engine = Engine::parallel(2);
        let assign = repair_parallel(
            &engine,
            &detected,
            &EquivalenceClassRepair,
            RepairOptions::default(),
        )
        .unwrap();
        assert!(!assign.is_empty());
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.components_found, 20);
        assert_eq!(snap.components_partitioned, 0);
        assert!(snap.cc_supersteps >= 1);
        assert_eq!(snap.repair_cells_assigned, assign.len() as u64);
        assert_eq!(
            snap.tuples_cloned, 0,
            "component grouping must not clone violations"
        );
        // the fused repair pass is visible in the plan trace
        assert!(engine.explain().contains("repair"));
    }

    #[test]
    fn oversized_components_take_the_partitioned_path() {
        // a chain component with 6 violations, threshold 2 → partitioned
        let mut detected = Vec::new();
        for i in 0..6u64 {
            detected.push(fd_detected(i, "LA", i + 1, "SF", 2));
        }
        let engine = Engine::parallel(2);
        let assign = repair_parallel(
            &engine,
            &detected,
            &EquivalenceClassRepair,
            RepairOptions {
                max_component_size: 2,
                k: 3,
            },
        )
        .unwrap();
        assert!(!assign.is_empty());
        assert_eq!(Metrics::get(&engine.metrics().components_partitioned), 1);
    }

    #[test]
    fn cancelled_engine_aborts_between_components() {
        let engine = Engine::parallel(2);
        let detected: Vec<Detected> = (0..8)
            .map(|i| fd_detected(10 * i, "A", 10 * i + 1, "B", 0))
            .collect();
        engine.cancel_job(bigdansing_dataflow::CancelReason::User);
        let err = repair_parallel(
            &engine,
            &detected,
            &EquivalenceClassRepair,
            RepairOptions::default(),
        );
        assert!(err.is_err(), "cancelled repair must surface the error");
    }

    #[test]
    fn empty_input_is_a_noop() {
        let engine = Engine::sequential();
        let assign = repair_parallel(
            &engine,
            &[],
            &EquivalenceClassRepair,
            RepairOptions::default(),
        )
        .unwrap();
        assert!(assign.is_empty());
    }
}
