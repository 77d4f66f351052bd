//! Evaluating and enforcing fix expressions under a partial assignment.
//!
//! Shared by the hypergraph repair algorithm and the master/slave
//! partitioned driver: both need to know whether a violation is already
//! resolved by the assignments made so far.

use crate::{Assignment, Detected};
use bigdansing_common::{Cell, Value};
use bigdansing_rules::{Fix, FixRhs};

/// The current value of `cell`: the assignment if present, else the
/// observed value recorded in the fix/violation.
pub fn current<'a>(assign: &'a Assignment, cell: Cell, observed: &'a Value) -> &'a Value {
    assign.get(&cell).unwrap_or(observed)
}

/// Does `fix` hold under the assignment?
pub fn fix_holds(fix: &Fix, assign: &Assignment) -> bool {
    let left = current(assign, fix.left, &fix.left_value);
    let right = match &fix.rhs {
        FixRhs::Cell(c, v) => current(assign, *c, v),
        FixRhs::Const(v) => v,
    };
    fix.op.holds(left, right)
}

/// Is the violation resolved, i.e. does at least one of its possible
/// fixes hold under the assignment, or was any of its cells already
/// changed from its observed value? (A changed cell means the violating
/// configuration no longer exists as detected; a later detection pass
/// re-checks, matching the iterate-until-clean loop of §2.2.)
pub fn violation_resolved(detected: &Detected, assign: &Assignment) -> bool {
    let (violation, fixes) = detected;
    if fixes.iter().any(|f| fix_holds(f, assign)) {
        return true;
    }
    violation
        .cells()
        .iter()
        .any(|(c, observed)| assign.get(c).is_some_and(|v| v != observed))
}

/// A value strictly above `v` (for enforcing `>` / `≠` fixes).
pub fn value_above(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.saturating_add(1)),
        Value::Float(f) => Value::Float(f + f.abs().max(1.0) * 1e-9),
        Value::Str(s) => Value::str(format!("{s}~")),
        Value::Null => Value::Int(0),
    }
}

/// A value strictly below `v` (for enforcing `<` fixes). `Null` is the
/// minimum of the value order, so `value_below(Null)` returns `Null`
/// itself — a `< NULL` fix is unenforceable and stays violated.
pub fn value_below(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.saturating_sub(1)),
        Value::Float(f) => Value::Float(f - f.abs().max(1.0) * 1e-9),
        Value::Str(s) if s.is_empty() => Value::Null,
        Value::Str(s) => Value::str(s.strip_suffix('~').unwrap_or("")),
        Value::Null => Value::Null,
    }
}

/// Rewrite a detected violation so its recorded cell values reflect the
/// current assignment — what a repair instance would observe if it
/// re-read the partially repaired data (used by the master/slave
/// iterations of §5.1).
pub fn overlay_detected(d: &Detected, assign: &Assignment) -> Detected {
    // the one place the repair path materializes a violation copy —
    // metered so the zero-copy gate can prove the grouping path never
    // takes it
    bigdansing_common::metrics::record_deep_clones(1);
    let (v, fixes) = d;
    let mut nv = bigdansing_rules::Violation::new(v.rule());
    for (c, val) in v.cells() {
        nv.add_cell(*c, current(assign, *c, val).clone());
    }
    let nfixes = fixes
        .iter()
        .map(|f| Fix {
            left: f.left,
            left_value: current(assign, f.left, &f.left_value).clone(),
            op: f.op,
            rhs: match &f.rhs {
                FixRhs::Cell(c, val) => FixRhs::Cell(*c, current(assign, *c, val).clone()),
                FixRhs::Const(k) => FixRhs::Const(k.clone()),
            },
        })
        .collect();
    (nv, nfixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_rules::Violation;
    use std::collections::HashMap;

    fn cell(t: u64) -> Cell {
        Cell::new(t, 0)
    }

    #[test]
    fn fix_holds_uses_assignment_overlay() {
        let fix = Fix::assign_cell(cell(1), Value::str("SF"), cell(2), Value::str("LA"));
        let mut a: Assignment = HashMap::new();
        assert!(!fix_holds(&fix, &a));
        a.insert(cell(1), Value::str("LA"));
        assert!(fix_holds(&fix, &a));
        a.insert(cell(2), Value::str("CH"));
        assert!(!fix_holds(&fix, &a), "rhs cell reassignment re-breaks it");
    }

    #[test]
    fn violation_resolution_via_fix_or_changed_cell() {
        let mut v = Violation::new("r");
        v.add_cell(cell(1), Value::str("SF"));
        v.add_cell(cell(2), Value::str("LA"));
        let fix = Fix::assign_cell(cell(1), Value::str("SF"), cell(2), Value::str("LA"));
        let det: Detected = (v, vec![fix]);
        let mut a: Assignment = HashMap::new();
        assert!(!violation_resolved(&det, &a));
        a.insert(cell(1), Value::str("LA"));
        assert!(violation_resolved(&det, &a));
        // resolution by changing a participating cell to something new
        let mut a2: Assignment = HashMap::new();
        a2.insert(cell(2), Value::str("NY"));
        assert!(violation_resolved(&det, &a2));
    }

    #[test]
    fn above_below_are_strict() {
        for v in [
            Value::Int(0),
            Value::Float(-3.5),
            Value::str("ab"),
            Value::Null,
        ] {
            assert!(value_above(&v) > v, "{v:?}");
        }
        for v in [
            Value::Int(0),
            Value::Float(-3.5),
            Value::str("ab"),
            Value::str(""),
        ] {
            assert!(value_below(&v) < v, "{v:?}");
        }
        // Null is the order minimum: below(Null) saturates
        assert_eq!(value_below(&Value::Null), Value::Null);
    }

    #[test]
    fn overlay_rewrites_observed_values() {
        let mut v = Violation::new("r");
        v.add_cell(cell(1), Value::str("SF"));
        let fix = Fix::assign_cell(cell(1), Value::str("SF"), cell(2), Value::str("LA"));
        let mut a: Assignment = HashMap::new();
        a.insert(cell(1), Value::str("LA"));
        let (nv, nfixes) = overlay_detected(&(v, vec![fix]), &a);
        assert_eq!(nv.cells()[0].1, Value::str("LA"));
        assert_eq!(nfixes[0].left_value, Value::str("LA"));
    }
}
