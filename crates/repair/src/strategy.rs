//! Repair-strategy selection, shared by the batch cleanse loop and the
//! incremental session.
//!
//! The strategy names the paper's two distribution routes (§5.1 black
//! box per connected component, §5.2 native equivalence classes) plus
//! the centralized baseline; [`run_repair`] dispatches one repair round
//! over a violation set accordingly.

use crate::blackbox::RepairOptions;
use crate::dist_equivalence::repair_distributed_equivalence;
use crate::{repair_parallel, repair_serial, Assignment, Detected};
use crate::{EquivalenceClassRepair, RepairAlgorithm};
use bigdansing_common::error::Result;
use bigdansing_dataflow::Engine;
use std::sync::Arc;

/// How repairs are computed each iteration.
#[derive(Clone)]
pub enum RepairStrategy {
    /// §5.1: run a centralized algorithm per connected component, in
    /// parallel (the default, with the equivalence-class algorithm).
    ParallelBlackBox(Arc<dyn RepairAlgorithm>),
    /// The centralized baseline: one instance over all violations.
    SerialBlackBox(Arc<dyn RepairAlgorithm>),
    /// §5.2: the natively distributed equivalence-class algorithm
    /// (two map-reduce rounds).
    DistributedEquivalence,
}

impl Default for RepairStrategy {
    fn default() -> Self {
        RepairStrategy::ParallelBlackBox(Arc::new(EquivalenceClassRepair))
    }
}

impl std::fmt::Debug for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairStrategy::ParallelBlackBox(a) => write!(f, "ParallelBlackBox({})", a.name()),
            RepairStrategy::SerialBlackBox(a) => write!(f, "SerialBlackBox({})", a.name()),
            RepairStrategy::DistributedEquivalence => write!(f, "DistributedEquivalence"),
        }
    }
}

/// Run one repair round over `detected` with the chosen strategy.
pub fn run_repair(
    engine: &Engine,
    detected: &[Detected],
    strategy: &RepairStrategy,
    options: RepairOptions,
) -> Result<Assignment> {
    match strategy {
        RepairStrategy::ParallelBlackBox(algo) => {
            repair_parallel(engine, detected, algo.as_ref(), options)
        }
        RepairStrategy::SerialBlackBox(algo) => Ok(repair_serial(detected, algo.as_ref())),
        RepairStrategy::DistributedEquivalence => repair_distributed_equivalence(engine, detected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::{Cell, Value};
    use bigdansing_rules::{Fix, Violation};

    fn one_violation() -> Vec<Detected> {
        let ca = Cell::new(1, 0);
        let cb = Cell::new(2, 0);
        let mut v = Violation::new("fd");
        v.add_cell(ca, Value::str("A"));
        v.add_cell(cb, Value::str("B"));
        vec![(
            v,
            vec![Fix::assign_cell(ca, Value::str("A"), cb, Value::str("B"))],
        )]
    }

    #[test]
    fn all_strategies_dispatch() {
        let engine = Engine::parallel(2);
        let detected = one_violation();
        for strategy in [
            RepairStrategy::default(),
            RepairStrategy::SerialBlackBox(Arc::new(EquivalenceClassRepair)),
            RepairStrategy::DistributedEquivalence,
        ] {
            let a = run_repair(&engine, &detected, &strategy, RepairOptions::default()).unwrap();
            assert!(!a.is_empty(), "{strategy:?} produced no assignment");
        }
    }

    /// §5.2's two map-reduce rounds are engine passes: injected task
    /// panics are retried and the assignment is the clean run's. The
    /// input has constant fixes only, so class formation has no edge to
    /// propagate over and every retry seen comes from the rounds.
    #[test]
    fn distributed_equivalence_is_unchanged_under_injected_faults() {
        use bigdansing_common::metrics::Metrics;
        use bigdansing_dataflow::{ExecMode, FaultInjector, FaultPolicy};
        let detected: Vec<Detected> = (0..200u64)
            .map(|i| {
                let cell = Cell::new(i, 0);
                let seen = Value::str("M");
                let mut v = Violation::new("cfd");
                v.add_cell(cell, seen.clone());
                let fixes = ["Z", ["A", "N", "Q"][i as usize % 3]]
                    .map(|k| Fix::assign_const(cell, seen.clone(), Value::str(k)));
                (v, fixes.to_vec())
            })
            .collect();
        let strategy = RepairStrategy::DistributedEquivalence;
        let run = |e: &Engine| run_repair(e, &detected, &strategy, RepairOptions::default());
        let clean = run(&Engine::parallel(4)).unwrap();
        assert_eq!(clean.len(), 67, "ties go to the smaller value: only A < M");
        let faulty = Engine::builder(ExecMode::Parallel)
            .workers(4)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(0xB16D).with_task_panics(0.15))
            .build();
        assert_eq!(run(&faulty).unwrap(), clean);
        assert!(Metrics::get(&faulty.metrics().tasks_retried) > 0);
    }

    #[test]
    fn debug_names_the_algorithm() {
        let s = format!("{:?}", RepairStrategy::default());
        assert!(s.contains("ParallelBlackBox"));
    }
}
