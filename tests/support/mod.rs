//! Code shared by the integration suites: the from-scratch oracle a
//! session's table must agree with ([`apply_batch_to_table`]), and UDFs
//! that make the planner choose the whole-block list strategy
//! (BlockList) and the order-sensitive unblocked pair strategy
//! (CrossProduct), over any table whose column 0 should determine
//! column 1.

use bigdansing::{
    BlockKey, DeltaBatch, DeltaOp, DetectUnit, Error, Fix, Result, Table, Tuple, UdfRule, UnitKind,
    Violation,
};
use std::collections::HashMap;

/// Materialize `batch` against `table`: deletes remove the row, updates
/// replace values in place (the tuple keeps its position), inserts
/// append at the end in batch order. This is the from-scratch oracle
/// the incremental `Session` must agree with.
pub fn apply_batch_to_table(table: &Table, batch: &DeltaBatch) -> Result<Table> {
    let mut tuples: Vec<Option<Tuple>> = table.tuples().iter().cloned().map(Some).collect();
    let by_id = table.tuples().iter().enumerate();
    let mut pos: HashMap<u64, usize> = by_id.map(|(i, t)| (t.id(), i)).collect();
    let arity = table.schema().arity();
    let check_arity = |t: &Tuple| {
        if t.arity() == arity {
            return Ok(());
        }
        Err(Error::Parse(format!(
            "delta tuple {} has arity {}, schema needs {arity}",
            t.id(),
            t.arity(),
        )))
    };
    for op in &batch.ops {
        match op {
            DeltaOp::Insert(t) => {
                if pos.contains_key(&t.id()) {
                    return Err(Error::Parse(format!(
                        "delta inserts tuple {} which already exists",
                        t.id()
                    )));
                }
                check_arity(t)?;
                pos.insert(t.id(), tuples.len());
                tuples.push(Some(t.clone()));
            }
            DeltaOp::Update(t) => {
                let idx = *pos.get(&t.id()).ok_or_else(|| {
                    Error::Parse(format!("delta updates missing tuple {}", t.id()))
                })?;
                check_arity(t)?;
                tuples[idx] = Some(t.clone());
            }
            DeltaOp::Delete(id) => {
                let idx = pos
                    .remove(id)
                    .ok_or_else(|| Error::Parse(format!("delta deletes missing tuple {id}")))?;
                tuples[idx] = None;
            }
        }
    }
    Ok(Table::new(
        table.name().to_string(),
        table.schema().clone(),
        tuples.into_iter().flatten().collect(),
    ))
}

/// "Two rows disagree on column 1": the violation over both cells and
/// the fix equating them, as an FD would emit.
fn conflict(rule: &str, a: &Tuple, b: &Tuple) -> Violation {
    Violation::new(rule)
        .with_cell(a.cell(1), a.value(1).clone())
        .with_cell(b.cell(1), b.value(1).clone())
}

fn equate(v: &Violation) -> Vec<Fix> {
    let [(c1, v1), (c2, v2)] = v.cells() else {
        panic!("conflicts span two cells, got {v:?}");
    };
    vec![Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone())]
}

/// Column 0 → column 1 as a whole-block list UDF (BlockList): every row
/// is compared against its block's *first* row, so the detections
/// depend on buckets kept in table order.
pub fn list_udf() -> UdfRule {
    UdfRule::builder("udf:zip-list", |unit| {
        let DetectUnit::List(block) = unit else {
            panic!("list rule fed {unit:?}");
        };
        let mut rows = block.iter();
        let first = rows.next().expect("blocks are never empty");
        rows.filter(|t| t.value(1) != first.value(1))
            .map(|t| conflict("udf:zip-list", first, t))
            .collect()
    })
    .unit_kind(UnitKind::List)
    .block(|t| Some(BlockKey::single(t.value(0).clone())))
    .gen_fix(equate)
    .build()
}

/// An order-sensitive unblocked pair UDF (CrossProduct): `(a, b)`
/// violates only when the rows agree on column 0 and `a`'s column 1
/// sorts before `b`'s, so each conflict is caught in exactly one of the
/// two orientations — and only if both are enumerated.
pub fn ordered_pair_udf() -> UdfRule {
    UdfRule::builder("udf:zip-ordered", |unit| {
        let (a, b) = unit.as_pair();
        if a.value(0) == b.value(0) && a.value(1) < b.value(1) {
            vec![conflict("udf:zip-ordered", a, b)]
        } else {
            Vec::new()
        }
    })
    .symmetric(false)
    .gen_fix(equate)
    .build()
}
