//! The iterative detect ⇄ repair rounds driver (§2.2 of the paper),
//! shared by the batch cleanse loop and the incremental session.
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
//! table. The batch loop re-detects with a full fused detect over the
//! whole table; a session feeds the changed cells back through its
//! incremental index.

use crate::blackbox::RepairOptions;
use crate::{run_repair, Assignment, Detected, RepairStrategy};
use bigdansing_common::error::Result;
use bigdansing_common::{Cell, Value};
use bigdansing_dataflow::Engine;
use std::collections::HashMap;

/// What the rounds driver needs from the table it repairs.
pub trait RepairTarget {
    /// The violations of the current table, with their possible fixes.
    fn detect(&mut self) -> Result<Vec<Detected>>;

    /// Whether the current table is violation-free.
    fn is_clean(&mut self) -> Result<bool> {
        Ok(self.detect()?.is_empty())
    }

    /// The current value of `cell` (`None` when the tuple is gone).
    fn cell_value(&self, cell: Cell) -> Option<&Value>;

    /// Apply one round's cell updates to the table, and to whatever the
    /// target keeps in sync with it.
    fn apply(&mut self, updates: &Assignment) -> Result<()>;
}

/// The knobs of the rounds driver.
#[derive(Debug, Clone, Copy)]
pub struct RoundsOptions<'a> {
    /// Maximum detect ⇄ repair iterations (at least one round runs).
    pub max_iterations: usize,
    /// Freeze threshold: after this many updates a cell stops changing.
    pub max_changes_per_cell: usize,
    /// Repair strategy.
    pub strategy: &'a RepairStrategy,
    /// Options forwarded to the parallel black-box driver.
    pub repair_options: RepairOptions,
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
/// unfixable violations remain, or the iteration cap is reached.
pub fn run_rounds(
    engine: &Engine,
    target: &mut impl RepairTarget,
    options: RoundsOptions<'_>,
) -> Result<RoundsReport> {
    let mut report = RoundsReport::default();
    let mut change_count: HashMap<Cell, usize> = HashMap::new();
    let mut froze = false;
    let mut only_noops_left = false;
    for _ in 0..options.max_iterations.max(1) {
        // a deadline/cancellation that trips mid-repair is honoured at
        // the next iteration boundary
        engine.check_cancelled()?;
        let detected = target.detect()?;
        if detected.is_empty() {
            report.converged = true;
            break;
        }
        report.iterations += 1;
        report.total_violations += detected.len();
        let assignment = run_repair(engine, &detected, options.strategy, options.repair_options)?;

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
        for (cell, value) in &applicable {
            if let Some(old) = target.cell_value(*cell) {
                report.repair_cost += old.distance(value);
            }
        }
        report.cells_changed += applicable.len();
        target.apply(&applicable)?;
    }
    if !report.converged {
        report.converged = target.is_clean()?;
    }
    report.stable = report.converged || only_noops_left;
    Ok(report)
}
