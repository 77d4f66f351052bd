//! The iterative detect ⇄ repair rounds driver (§2.2 of the paper):
//! the rounds of a session's apply, which are also the batch cleanse
//! loop's — a batch cleanse is a session's one empty apply.
//!
//! "An iterative process terminates if there are no more violations or
//! there are only violations with no corresponding possible fixes. The
//! repair step may introduce new violations … to ensure termination, the
//! algorithm puts a special variable on such units after a fixed number
//! of iterations" — here a per-cell change counter; cells that exceed it
//! are *frozen* and excluded from further updates.
//!
//! The driver owns the round body — repair, the freeze / no-op filter,
//! cost and change accounting — and is parameterised only by a
//! [`RepairTarget`]: how the caller (re-)detects and how it mutates its
//! table. The session's target re-detects semi-naively — only the
//! candidate units a round's updates touched — driving every rule
//! group one way: [`bigdansing_plan::RuleGroup::open`] once, over the
//! whole table, when the session opens, then
//! [`bigdansing_plan::RuleGroup::redetect`] of each change against the
//! group's resident store, which the session keeps between rounds and
//! batches. The driver never
//! asks for a detect it can answer itself: a verdict on the final table
//! costs a detect only when something was applied since the last one.

use crate::CleanseOptions;
use bigdansing_common::error::Result;
use bigdansing_common::{Cell, Value};
use bigdansing_dataflow::Engine;
use bigdansing_repair::{run_repair, Assignment, Detected};
use std::collections::HashMap;

/// What the rounds driver needs from the table it repairs.
pub trait RepairTarget {
    /// The violations of the current table, with their possible fixes.
    /// The slice is the target's own: it may be carried into the next
    /// round instead of being recomputed.
    fn detect(&mut self) -> Result<&[Detected]>;

    /// The current value of `cell` (`None` when the tuple is gone).
    fn cell_value(&self, cell: Cell) -> Option<&Value>;

    /// Apply one round's cell updates to the table, and to whatever the
    /// target keeps in sync with it.
    fn apply(&mut self, updates: &Assignment) -> Result<()>;
}

/// What a run of the rounds driver did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundsReport {
    /// Detect ⇄ repair iterations executed.
    pub iterations: usize,
    /// Violations seen across all iterations.
    pub total_violations: usize,
    /// Distinct cell updates applied.
    pub cells_changed: usize,
    /// Cells frozen by the termination rule.
    pub frozen_cells: usize,
    /// Σ distance(old, new) over all applied updates (§2.1 cost).
    pub repair_cost: f64,
    /// True when the final table has no violations (false when the loop
    /// stopped on unfixable violations or the iteration cap).
    pub converged: bool,
    /// True when the loop ended stably: violation-free, or with every
    /// surviving fix filtered as a no-op — never by the freeze counter
    /// or the iteration cap. Re-running it over unchanged violations
    /// would change nothing.
    pub stable: bool,
}

/// Run detect ⇄ repair rounds over `target` until it is clean, only
/// unfixable violations remain, or the iteration cap is reached. Of
/// `options`, the driver reads the round limits (`max_iterations`, at
/// least one round runs, and `max_changes_per_cell`), `strategy` and
/// `repair_options`.
pub fn run_rounds(
    engine: &Engine,
    target: &mut impl RepairTarget,
    options: &CleanseOptions,
) -> Result<RoundsReport> {
    let mut report = RoundsReport::default();
    let mut change_count: HashMap<Cell, usize> = HashMap::new();
    let mut froze = false;
    let mut only_noops_left = false;
    // updates applied since the last detect: the table's verdict is open
    let mut unverified = false;
    for _ in 0..options.max_iterations.max(1) {
        // a deadline/cancellation that trips mid-repair is honoured at
        // the next iteration boundary
        engine.check_cancelled()?;
        let detected = target.detect()?;
        unverified = false;
        if detected.is_empty() {
            report.converged = true;
            break;
        }
        report.iterations += 1;
        report.total_violations += detected.len();
        let assignment = run_repair(engine, detected, &options.strategy, options.repair_options)?;

        // honour frozen cells, drop no-ops, count changes
        let mut applicable: Assignment = HashMap::new();
        for (cell, value) in assignment {
            let count = change_count.entry(cell).or_insert(0);
            if *count >= options.max_changes_per_cell {
                froze = true;
                continue;
            }
            if target.cell_value(cell) == Some(&value) {
                continue;
            }
            *count += 1;
            if *count == options.max_changes_per_cell {
                report.frozen_cells += 1;
            }
            applicable.insert(cell, value);
        }
        if applicable.is_empty() {
            // only violations with no (applicable) fixes remain: the
            // paper's second termination condition
            only_noops_left = !froze;
            break;
        }
        // summed in cell order: a float sum in `HashMap` order would
        // differ in its last bits from run to run
        let mut changed: Vec<_> = applicable.iter().collect();
        changed.sort_unstable_by_key(|(cell, _)| **cell);
        for (cell, value) in changed {
            if let Some(old) = target.cell_value(*cell) {
                report.repair_cost += old.distance(value);
            }
        }
        report.cells_changed += applicable.len();
        target.apply(&applicable)?;
        unverified = true;
    }
    // a loop that stopped on violations it could not fix holds their
    // detections: the table is known not to be clean
    if unverified {
        report.converged = target.detect()?.is_empty();
    }
    report.stable = report.converged || only_noops_left;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_rules::{Fix, Violation};

    /// One two-cell table whose single violation asks cell 0 to take
    /// cell 1's value. `clean_after` applies make it clean; until then
    /// every apply leaves a violation behind.
    struct Stub {
        values: [Value; 2],
        dirty: bool,
        clean_after: usize,
        applies: usize,
        detects: usize,
        detected: Vec<Detected>,
    }

    impl Stub {
        fn new(dirty: bool, clean_after: usize) -> Stub {
            Stub {
                values: [Value::Int(0), Value::Int(1)],
                dirty,
                clean_after,
                applies: 0,
                detects: 0,
                detected: Vec::new(),
            }
        }
    }

    impl RepairTarget for Stub {
        fn detect(&mut self) -> Result<&[Detected]> {
            self.detects += 1;
            let (a, b) = (Cell::new(0, 0), Cell::new(1, 0));
            let [va, vb] = self.values.clone();
            let violation = Violation::new("stub")
                .with_cell(a, va.clone())
                .with_cell(b, vb.clone());
            self.detected = match self.dirty {
                true => vec![(violation, vec![Fix::assign_cell(a, va, b, vb)])],
                false => Vec::new(),
            };
            Ok(&self.detected)
        }

        fn cell_value(&self, cell: Cell) -> Option<&Value> {
            self.values.get(cell.tuple as usize)
        }

        fn apply(&mut self, updates: &Assignment) -> Result<()> {
            for (cell, value) in updates {
                self.values[cell.tuple as usize] = value.clone();
            }
            self.applies += 1;
            self.dirty = self.applies < self.clean_after;
            // an unresolved violation keeps asking for a different value
            if self.dirty {
                self.values[1] = Value::Int(self.applies as i64 + 1);
            }
            Ok(())
        }
    }

    fn run(stub: &mut Stub, max_iterations: usize) -> RoundsReport {
        let options = CleanseOptions {
            max_iterations,
            max_changes_per_cell: usize::MAX,
            ..CleanseOptions::default()
        };
        run_rounds(&Engine::sequential(), stub, &options).unwrap()
    }

    /// The driver asks for a detect only when it cannot answer itself:
    /// once per round, plus a final one only if something was applied
    /// since the last.
    #[test]
    fn detects_are_never_repeated_without_an_apply_in_between() {
        // (a) clean input: the first detect is the verdict
        let mut clean = Stub::new(false, 0);
        let report = run(&mut clean, 10);
        assert_eq!((clean.detects, report.iterations), (1, 0));
        assert!(report.converged);

        // (b) one-round repair: detect, apply, detect confirms
        let mut one_round = Stub::new(true, 1);
        let report = run(&mut one_round, 10);
        assert_eq!((one_round.detects, report.iterations), (2, 1));
        assert!(report.converged);

        // (c) only no-ops left: the violation stays but its fix changes
        // nothing, so the detections in hand already say "not clean"
        let mut noops = Stub::new(true, usize::MAX);
        noops.values = [Value::Int(7), Value::Int(7)];
        let report = run(&mut noops, 10);
        assert_eq!((noops.detects, noops.applies), (1, 0));
        assert!(!report.converged && report.stable);

        // (d) iteration cap: every round applies, so the table after
        // the last apply needs one more detect for its verdict
        let mut capped = Stub::new(true, usize::MAX);
        let report = run(&mut capped, 3);
        assert_eq!((capped.detects, capped.applies), (4, 3));
        assert_eq!(report.iterations, 3);
        assert!(!report.converged && !report.stable);
    }
}
