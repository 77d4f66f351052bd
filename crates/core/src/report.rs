//! Violation/fix reports.
//!
//! Detect-only jobs don't end in a repair: "if no GenFix operator is
//! provided, the output of the Detect operator is written to disk"
//! (§3.2). This module renders a [`DetectOutput`] as CSV for exactly
//! that purpose (and for the CLI's `detect` command).

use crate::cleanse::{CleanseOutcome, RuleHealth};
use bigdansing_common::metrics::MetricsSnapshot;
use bigdansing_common::{Result, Table};
use bigdansing_plan::DetectOutput;
use std::fmt::Write as _;
use std::path::Path;

pub use bigdansing_dataflow::stage::render_plan;

fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render violations as CSV: one row per violating element, with the
/// violation id, rule, tuple, attribute (named when `schema` is given),
/// and observed value.
pub fn violations_csv(output: &DetectOutput, table: Option<&Table>) -> String {
    let mut out = String::from("violation,rule,tuple,attribute,value\n");
    for (i, (v, _)) in output.detected.iter().enumerate() {
        for (cell, value) in v.cells() {
            let attr = table
                .and_then(|t| t.schema().name_of(cell.attr as usize).ok())
                .map(str::to_string)
                .unwrap_or_else(|| cell.attr.to_string());
            let _ = writeln!(
                out,
                "{i},{},{},{},{}",
                csv_quote(v.rule()),
                cell.tuple,
                csv_quote(&attr),
                csv_quote(&value.to_string())
            );
        }
    }
    out
}

/// Render possible fixes as CSV: one row per fix expression.
pub fn fixes_csv(output: &DetectOutput, table: Option<&Table>) -> String {
    let attr_name = |attr: u32| -> String {
        table
            .and_then(|t| t.schema().name_of(attr as usize).ok())
            .map(str::to_string)
            .unwrap_or_else(|| attr.to_string())
    };
    let mut out = String::from("violation,rule,tuple,attribute,op,target\n");
    for (i, (v, fixes)) in output.detected.iter().enumerate() {
        for f in fixes {
            let target = match &f.rhs {
                bigdansing_rules::FixRhs::Cell(c, val) => {
                    format!("t{}[{}] (={})", c.tuple, attr_name(c.attr), val)
                }
                bigdansing_rules::FixRhs::Const(val) => val.to_string(),
            };
            let _ = writeln!(
                out,
                "{i},{},{},{},{},{}",
                csv_quote(v.rule()),
                f.left.tuple,
                csv_quote(&attr_name(f.left.attr)),
                f.op,
                csv_quote(&target)
            );
        }
    }
    out
}

/// Summarize the engine's fault-tolerance and resource-governance
/// counters for a finished run.
///
/// Returns `None` when the run was fault-free and nothing was governed
/// (nothing worth reporting); otherwise one line per active counter
/// group — faults (retries, caught panics, spill failures, degraded
/// stages), governance (cancelled jobs, deadline trips, pressure
/// spills, queued/rejected jobs), input quarantine, incremental-
/// cleansing work (tuples reprocessed, dirty blocks, retracted
/// violations, re-repaired components), LSH blocking activity
/// (candidate pairs, band buckets, cross-band prunes), window expiry,
/// and durability activity (WAL appends, snapshots, transient IO
/// retries) — suitable for appending to the CLI's run report.
pub fn fault_summary(m: &MetricsSnapshot) -> Option<String> {
    let mut lines: Vec<String> = Vec::new();
    if m.tasks_retried != 0
        || m.panics_caught != 0
        || m.spill_failures != 0
        || m.stages_degraded != 0
    {
        lines.push(format!(
            "fault tolerance: {} task(s) retried, {} panic(s) caught, \
             {} spill failure(s), {} stage(s) degraded to in-memory",
            m.tasks_retried, m.panics_caught, m.spill_failures, m.stages_degraded
        ));
    }
    if m.jobs_cancelled != 0
        || m.deadline_trips != 0
        || m.pressure_spills != 0
        || m.jobs_queued != 0
        || m.jobs_rejected != 0
    {
        lines.push(format!(
            "governance: {} job(s) cancelled, {} deadline trip(s), \
             {} pressure spill(s), {} job(s) queued, {} job(s) rejected",
            m.jobs_cancelled, m.deadline_trips, m.pressure_spills, m.jobs_queued, m.jobs_rejected
        ));
    }
    if m.rows_quarantined != 0 || m.records_quarantined != 0 {
        lines.push(format!(
            "quarantine: {} malformed input row(s) and {} streamed \
             record(s) set aside",
            m.rows_quarantined, m.records_quarantined
        ));
    }
    if m.tuples_reprocessed != 0
        || m.blocks_dirty != 0
        || m.violations_retracted != 0
        || m.components_rerepaired != 0
    {
        lines.push(format!(
            "incremental: {} tuple(s) reprocessed across {} dirty block(s), \
             {} violation(s) retracted, {} component(s) re-repaired",
            m.tuples_reprocessed, m.blocks_dirty, m.violations_retracted, m.components_rerepaired
        ));
    }
    if m.lsh_candidate_pairs != 0 || m.lsh_pairs_pruned != 0 || m.lsh_bands_probed != 0 {
        lines.push(format!(
            "lsh blocking: {} candidate pair(s) from {} band bucket(s), \
             {} cross-band duplicate(s) pruned",
            m.lsh_candidate_pairs, m.lsh_bands_probed, m.lsh_pairs_pruned
        ));
    }
    if m.tuples_expired != 0 {
        lines.push(format!(
            "windows: {} tuple(s) expired past the watermark",
            m.tuples_expired
        ));
    }
    if m.io_retries != 0 || m.wal_appends != 0 || m.snapshots_written != 0 {
        lines.push(format!(
            "durability: {} WAL append(s), {} snapshot(s) written, \
             {} transient IO retry(ies)",
            m.wal_appends, m.snapshots_written, m.io_retries
        ));
    }
    if m.rules_quarantined != 0 || m.units_skipped != 0 || m.retries_short_circuited != 0 {
        lines.push(format!(
            "isolation: {} rule(s) quarantined, {} unit(s) skipped by guards, \
             {} retry(ies) short-circuited",
            m.rules_quarantined, m.units_skipped, m.retries_short_circuited
        ));
    }
    if lines.is_empty() {
        None
    } else {
        Some(lines.join("\n"))
    }
}

/// Render a best-effort cleanse's per-rule health: one line per rule
/// plus the job's completeness fraction.
///
/// Returns `None` when every rule completed (a fully healthy run needs
/// no health report).
pub fn health_report(outcome: &CleanseOutcome) -> Option<String> {
    if !outcome.is_degraded() {
        return None;
    }
    let mut lines = vec![format!(
        "cleanse completeness: {:.1}% of detection work ran",
        outcome.completeness * 100.0
    )];
    for (name, health) in &outcome.rules {
        lines.push(match health {
            RuleHealth::Completed => format!("  rule {name}: completed"),
            RuleHealth::Degraded { units_skipped } => {
                format!("  rule {name}: degraded ({units_skipped} unit(s) skipped)")
            }
            RuleHealth::Quarantined { cause } => {
                format!("  rule {name}: quarantined — {cause}")
            }
        });
    }
    Some(lines.join("\n"))
}

/// Summarize the repair half of a finished run: hypergraph components
/// found (and how many were k-way partitioned), BSP supersteps spent
/// finding them, and cells assigned by the repair algorithms.
///
/// Returns `None` when no repair work ran (detect-only jobs, clean
/// inputs).
pub fn repair_summary(m: &MetricsSnapshot) -> Option<String> {
    if m.components_found == 0 && m.repair_cells_assigned == 0 {
        return None;
    }
    Some(format!(
        "repair: {} component(s) ({} partitioned) via {} BSP superstep(s), \
         {} cell(s) assigned",
        m.components_found, m.components_partitioned, m.cc_supersteps, m.repair_cells_assigned
    ))
}

/// Summarize stage-graph execution for a finished run: how many
/// physical passes ran and how many logical stages were fused away
/// into them (plus shuffle volume when a wide boundary ran).
///
/// Returns `None` when no fused passes were recorded (e.g. a run built
/// entirely from the eager combinators).
pub fn plan_summary(m: &MetricsSnapshot) -> Option<String> {
    if m.passes_executed == 0 {
        return None;
    }
    let logical = m.passes_executed + m.stages_fused;
    let mut line = format!(
        "stage graph: {} logical stage(s) ran as {} physical pass(es) \
         ({} fused away)",
        logical, m.passes_executed, m.stages_fused
    );
    if m.records_shuffled != 0 {
        let _ = write!(line, ", {} record(s) shuffled", m.records_shuffled);
    }
    Some(line)
}

/// Write both reports next to each other:
/// `<stem>.violations.csv` and `<stem>.fixes.csv`.
pub fn write_reports(
    output: &DetectOutput,
    table: Option<&Table>,
    stem: impl AsRef<Path>,
) -> Result<()> {
    let stem = stem.as_ref();
    let with_ext = |ext: &str| {
        let mut os = stem.as_os_str().to_os_string();
        os.push(ext);
        std::path::PathBuf::from(os)
    };
    std::fs::write(with_ext(".violations.csv"), violations_csv(output, table))?;
    std::fs::write(with_ext(".fixes.csv"), fixes_csv(output, table))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigDansing;
    use bigdansing_common::{csv, Schema};

    fn detect() -> (Table, DetectOutput) {
        let table = csv::parse_str("t", "zipcode,city\n1,LA\n1,SF\n", true, None).unwrap();
        let mut sys = BigDansing::sequential();
        sys.add_fd("zipcode -> city", table.schema()).unwrap();
        let out = sys.detect(&table).unwrap();
        (table, out)
    }

    #[test]
    fn violations_csv_names_attributes() {
        let (table, out) = detect();
        let rendered = violations_csv(&out, Some(&table));
        assert!(rendered.starts_with("violation,rule,tuple,attribute,value\n"));
        assert!(rendered.contains("fd:zipcode->city"));
        assert!(rendered.contains(",city,SF"));
        assert!(rendered.contains(",zipcode,1"));
    }

    #[test]
    fn fixes_csv_renders_expressions() {
        let (table, out) = detect();
        let rendered = fixes_csv(&out, Some(&table));
        assert!(rendered.contains("=,"), "equality op rendered");
        assert!(
            rendered.contains("t1[city]"),
            "target cell rendered: {rendered}"
        );
    }

    #[test]
    fn reports_hit_disk() {
        let (table, out) = detect();
        let dir = std::env::temp_dir().join("bigdansing_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("run1");
        write_reports(&out, Some(&table), &stem).unwrap();
        let v = std::fs::read_to_string(dir.join("run1.violations.csv")).unwrap();
        assert!(v.lines().count() > 1);
        let f = std::fs::read_to_string(dir.join("run1.fixes.csv")).unwrap();
        assert!(f.lines().count() > 1);
    }

    #[test]
    fn fault_summary_silent_when_fault_free() {
        assert_eq!(fault_summary(&Default::default()), None);
    }

    #[test]
    fn fault_summary_reports_nonzero_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            tasks_retried: 3,
            panics_caught: 2,
            stages_degraded: 1,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("3 task(s) retried"), "{line}");
        assert!(line.contains("2 panic(s) caught"), "{line}");
        assert!(line.contains("1 stage(s) degraded"), "{line}");
    }

    #[test]
    fn fault_summary_reports_lsh_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            lsh_candidate_pairs: 120,
            lsh_bands_probed: 16,
            lsh_pairs_pruned: 40,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("120 candidate pair(s)"), "{line}");
        assert!(line.contains("16 band bucket(s)"), "{line}");
        assert!(line.contains("40 cross-band duplicate(s) pruned"), "{line}");
    }

    #[test]
    fn fault_summary_reports_governance_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            jobs_cancelled: 1,
            deadline_trips: 1,
            pressure_spills: 4,
            jobs_rejected: 2,
            rows_quarantined: 7,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("1 job(s) cancelled"), "{line}");
        assert!(line.contains("1 deadline trip(s)"), "{line}");
        assert!(line.contains("4 pressure spill(s)"), "{line}");
        assert!(line.contains("2 job(s) rejected"), "{line}");
        assert!(line.contains("7 malformed input row(s)"), "{line}");
        assert!(
            !line.contains("fault tolerance"),
            "no fault line without fault counters: {line}"
        );
    }

    #[test]
    fn fault_summary_reports_incremental_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            tuples_reprocessed: 42,
            blocks_dirty: 6,
            violations_retracted: 3,
            components_rerepaired: 2,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("42 tuple(s) reprocessed"), "{line}");
        assert!(line.contains("6 dirty block(s)"), "{line}");
        assert!(line.contains("3 violation(s) retracted"), "{line}");
        assert!(line.contains("2 component(s) re-repaired"), "{line}");
        assert!(
            !line.contains("governance"),
            "no governance line without governance counters: {line}"
        );
    }

    #[test]
    fn fault_summary_reports_durability_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            wal_appends: 9,
            snapshots_written: 2,
            io_retries: 5,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("9 WAL append(s)"), "{line}");
        assert!(line.contains("2 snapshot(s) written"), "{line}");
        assert!(line.contains("5 transient IO retry(ies)"), "{line}");
        assert!(
            !line.contains("incremental:"),
            "no incremental line without its counters: {line}"
        );
    }

    #[test]
    fn fault_summary_reports_isolation_counters() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            rules_quarantined: 1,
            units_skipped: 5,
            retries_short_circuited: 2,
            ..Default::default()
        };
        let line = fault_summary(&snap).unwrap();
        assert!(line.contains("1 rule(s) quarantined"), "{line}");
        assert!(line.contains("5 unit(s) skipped"), "{line}");
        assert!(line.contains("2 retry(ies) short-circuited"), "{line}");
    }

    #[test]
    fn health_report_silent_when_all_rules_completed() {
        let outcome = CleanseOutcome {
            rules: vec![("fd:a->b".into(), RuleHealth::Completed)],
            completeness: 1.0,
        };
        assert_eq!(health_report(&outcome), None);
    }

    #[test]
    fn health_report_attributes_degradation_per_rule() {
        let outcome = CleanseOutcome {
            rules: vec![
                ("fd:a->b".into(), RuleHealth::Completed),
                ("udf:slow".into(), RuleHealth::Degraded { units_skipped: 9 }),
                (
                    "udf:bad".into(),
                    RuleHealth::Quarantined {
                        cause: "panicked".into(),
                    },
                ),
            ],
            completeness: 0.5,
        };
        let report = health_report(&outcome).unwrap();
        assert!(report.contains("50.0% of detection work ran"), "{report}");
        assert!(report.contains("rule fd:a->b: completed"), "{report}");
        assert!(report.contains("9 unit(s) skipped"), "{report}");
        assert!(report.contains("quarantined — panicked"), "{report}");
    }

    #[test]
    fn repair_summary_silent_without_repair_work() {
        assert_eq!(repair_summary(&Default::default()), None);
    }

    #[test]
    fn repair_summary_reports_components_and_supersteps() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            components_found: 12,
            components_partitioned: 2,
            cc_supersteps: 5,
            repair_cells_assigned: 30,
            ..Default::default()
        };
        let line = repair_summary(&snap).unwrap();
        assert!(line.contains("12 component(s)"), "{line}");
        assert!(line.contains("2 partitioned"), "{line}");
        assert!(line.contains("5 BSP superstep(s)"), "{line}");
        assert!(line.contains("30 cell(s) assigned"), "{line}");
    }

    #[test]
    fn plan_summary_silent_without_fused_passes() {
        assert_eq!(plan_summary(&Default::default()), None);
    }

    #[test]
    fn plan_summary_counts_logical_stages_and_shuffles() {
        let snap = bigdansing_common::metrics::MetricsSnapshot {
            passes_executed: 3,
            stages_fused: 4,
            records_shuffled: 12,
            ..Default::default()
        };
        let line = plan_summary(&snap).unwrap();
        assert!(line.contains("7 logical stage(s)"), "{line}");
        assert!(line.contains("3 physical pass(es)"), "{line}");
        assert!(line.contains("4 fused away"), "{line}");
        assert!(line.contains("12 record(s) shuffled"), "{line}");
    }

    #[test]
    fn schemaless_reports_fall_back_to_indices() {
        let (_, out) = detect();
        let rendered = violations_csv(&out, None);
        assert!(rendered.contains(",1,"), "attribute index used");
        let _ = Schema::parse("a"); // keep import used
    }
}
