//! Delta batches: the unit of change a [`crate::Session`] consumes.
//!
//! A batch is an ordered list of inserts, updates, and deletes. The CSV
//! form mirrors the base-table parser with two leading columns:
//!
//! ```csv
//! op,id,zipcode,city
//! insert,4,90210,LA
//! update,1,90210,SF
//! delete,2
//! ```
//!
//! `op` is `insert`/`update`/`delete` (case-insensitive), `id` is the
//! tuple id the operation targets, and the remaining fields follow the
//! base table's schema (`delete` rows may omit them). Ops apply in file
//! order, so `delete,7` followed by `insert,7,…` re-creates tuple 7 at
//! the end of the table.

use bigdansing_common::csv::split_line;
use bigdansing_common::{Error, Quarantine, Result, Schema, Table, Tuple, TupleId, Value};
use std::collections::HashMap;
use std::path::Path;

/// One change to the base table.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Add a tuple whose id must not be present.
    Insert(Tuple),
    /// Replace the values of an existing tuple (same id, same position).
    Update(Tuple),
    /// Remove an existing tuple.
    Delete(TupleId),
}

impl DeltaOp {
    /// The tuple id this op targets.
    pub fn id(&self) -> TupleId {
        match self {
            DeltaOp::Insert(t) | DeltaOp::Update(t) => t.id(),
            DeltaOp::Delete(id) => *id,
        }
    }
}

/// An ordered batch of [`DeltaOp`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The operations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Append an insert.
    pub fn insert(mut self, id: TupleId, values: Vec<Value>) -> DeltaBatch {
        self.ops.push(DeltaOp::Insert(Tuple::new(id, values)));
        self
    }

    /// Append an update.
    pub fn update(mut self, id: TupleId, values: Vec<Value>) -> DeltaBatch {
        self.ops.push(DeltaOp::Update(Tuple::new(id, values)));
        self
    }

    /// Append a delete.
    pub fn delete(mut self, id: TupleId) -> DeltaBatch {
        self.ops.push(DeltaOp::Delete(id));
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parse the CSV delta format described in the module docs. A
    /// leading `op,id,…` header line is skipped when present.
    pub fn parse_str(text: &str, schema: &Schema) -> Result<DeltaBatch> {
        let mut ops = Vec::new();
        let mut first = true;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // The header is the first non-empty line (blank lines above
            // it don't make it data).
            let head = std::mem::take(&mut first);
            if head && is_header(line) {
                continue;
            }
            match parse_delta_line(line, schema) {
                Ok(op) => ops.push(op),
                Err(reason) => return Err(Error::Parse(format!("delta line {}: {reason}", i + 1))),
            }
        }
        Ok(DeltaBatch { ops })
    }

    /// Lenient variant of [`DeltaBatch::parse_str`]: malformed lines are
    /// diverted into a [`Quarantine`] report (keyed by 1-based line
    /// number) instead of failing the whole batch — the streamed-ingest
    /// counterpart of the lenient CSV file parser. The well-formed ops
    /// are returned in input order.
    pub fn parse_str_lenient(
        text: &str,
        schema: &Schema,
        source: impl Into<String>,
    ) -> (DeltaBatch, Quarantine) {
        let mut ops = Vec::new();
        let mut quarantine = Quarantine::new(source);
        let mut first = true;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let head = std::mem::take(&mut first);
            if head && is_header(line) {
                continue;
            }
            match parse_delta_line(line, schema) {
                Ok(op) => ops.push(op),
                Err(reason) => quarantine.push(i + 1, reason),
            }
        }
        (DeltaBatch { ops }, quarantine)
    }

    /// Read a delta CSV file from disk.
    pub fn read_file(path: impl AsRef<Path>, schema: &Schema) -> Result<DeltaBatch> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| Error::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::parse_str(&text, schema)
    }
}

fn is_header(line: &str) -> bool {
    split_line(line)[0].trim().eq_ignore_ascii_case("op")
}

/// Parse one non-header CSV delta line. Errors carry the reason only;
/// callers prepend the line number (strict mode) or quarantine it.
fn parse_delta_line(line: &str, schema: &Schema) -> std::result::Result<DeltaOp, String> {
    let fields = split_line(line);
    if fields.len() < 2 {
        return Err("expected `op,id,…`".into());
    }
    let op = fields[0].trim().to_ascii_lowercase();
    let id: TupleId = fields[1]
        .trim()
        .parse()
        .map_err(|_| format!("invalid tuple id `{}`", fields[1]))?;
    let values = || -> std::result::Result<Vec<Value>, String> {
        let cols = &fields[2..];
        if cols.len() != schema.arity() {
            return Err(format!(
                "expected {} value fields, found {}",
                schema.arity(),
                cols.len()
            ));
        }
        Ok(cols.iter().map(|f| Value::parse_lossy(f)).collect())
    };
    Ok(match op.as_str() {
        "insert" => DeltaOp::Insert(Tuple::new(id, values()?)),
        "update" => DeltaOp::Update(Tuple::new(id, values()?)),
        "delete" => DeltaOp::Delete(id),
        other => return Err(format!("unknown op `{other}`")),
    })
}

/// The index of every tuple in `table`, by id.
fn positions(table: &Table) -> HashMap<TupleId, usize> {
    let by_id = table.tuples().iter().enumerate();
    by_id.map(|(i, t)| (t.id(), i)).collect()
}

/// Materialize `batch` against `table`: deletes remove the row, updates
/// replace values in place (the tuple keeps its position), inserts
/// append at the end in batch order. This is the from-scratch oracle
/// the incremental [`crate::Session`] must agree with.
pub fn apply_batch_to_table(table: &Table, batch: &DeltaBatch) -> Result<Table> {
    let mut tuples: Vec<Option<Tuple>> = table.tuples().iter().cloned().map(Some).collect();
    let mut pos = positions(table);
    for op in &batch.ops {
        match op {
            DeltaOp::Insert(t) => {
                if pos.contains_key(&t.id()) {
                    return Err(Error::Parse(format!(
                        "delta inserts tuple {} which already exists",
                        t.id()
                    )));
                }
                check_arity(table, t)?;
                pos.insert(t.id(), tuples.len());
                tuples.push(Some(t.clone()));
            }
            DeltaOp::Update(t) => {
                let idx = *pos.get(&t.id()).ok_or_else(|| {
                    Error::Parse(format!("delta updates missing tuple {}", t.id()))
                })?;
                check_arity(table, t)?;
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

pub(crate) fn check_arity(table: &Table, t: &Tuple) -> Result<()> {
    if t.arity() != table.schema().arity() {
        return Err(Error::Parse(format!(
            "delta tuple {} has arity {}, schema needs {}",
            t.id(),
            t.arity(),
            table.schema().arity()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "t",
            schema,
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        )
    }

    #[test]
    fn parse_all_op_kinds() {
        let schema = Schema::parse("zipcode,city");
        let b = DeltaBatch::parse_str(
            "op,id,zipcode,city\ninsert,5,90210,LA\nupdate,0,10001,NY\ndelete,1\n",
            &schema,
        )
        .unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.ops[2], DeltaOp::Delete(1));
        match &b.ops[0] {
            DeltaOp::Insert(t) => assert_eq!(t.value(0), &Value::Int(90210)),
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn header_after_blank_lines_is_skipped() {
        let schema = Schema::parse("zipcode,city");
        let b =
            DeltaBatch::parse_str("\n\nop,id,zipcode,city\ninsert,5,90210,LA\n", &schema).unwrap();
        assert_eq!(b.len(), 1);
        // Only the first non-empty line can be a header.
        assert!(DeltaBatch::parse_str("insert,5,90210,LA\nop,id,zipcode,city\n", &schema).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        let schema = Schema::parse("zipcode,city");
        assert!(DeltaBatch::parse_str("upsert,1,1,LA\n", &schema).is_err());
        assert!(DeltaBatch::parse_str("insert,notanid,1,LA\n", &schema).is_err());
        assert!(DeltaBatch::parse_str("insert,1,justonefield\n", &schema).is_err());
    }

    #[test]
    fn lenient_parse_quarantines_bad_lines_keeps_good_ones() {
        let schema = Schema::parse("zipcode,city");
        let text = "op,id,zipcode,city\n\
                    insert,5,90210,LA\n\
                    upsert,6,1,NY\n\
                    insert,notanid,2,SF\n\
                    insert,7,justonefield\n\
                    delete,5\n";
        let (batch, q) = DeltaBatch::parse_str_lenient(text, &schema, "tenant-a");
        assert_eq!(batch.len(), 2, "good insert + delete survive");
        assert_eq!(batch.ops[1], DeltaOp::Delete(5));
        assert_eq!(q.len(), 3);
        assert_eq!(q.source(), "tenant-a");
        assert_eq!(q.entries()[0].0, 3, "1-based line numbers");
        assert!(q.entries()[0].1.contains("unknown op"), "{:?}", q.entries());
    }

    #[test]
    fn lenient_parse_of_clean_input_matches_strict() {
        let schema = Schema::parse("zipcode,city");
        let text = "op,id,zipcode,city\ninsert,5,90210,LA\nupdate,0,1,NY\n";
        let strict = DeltaBatch::parse_str(text, &schema).unwrap();
        let (lenient, q) = DeltaBatch::parse_str_lenient(text, &schema, "t");
        assert_eq!(strict, lenient);
        assert!(q.is_empty());
    }

    #[test]
    fn materialize_preserves_order() {
        let t = base();
        let batch = DeltaBatch::new()
            .update(0, vec![Value::Int(1), Value::str("SF")])
            .delete(1)
            .insert(7, vec![Value::Int(3), Value::str("CH")]);
        let out = apply_batch_to_table(&t, &batch).unwrap();
        let ids: Vec<_> = out.tuples().iter().map(Tuple::id).collect();
        assert_eq!(ids, vec![0, 7]);
        assert_eq!(out.tuple(0).unwrap().value(1), &Value::str("SF"));
    }

    #[test]
    fn delete_then_reinsert_moves_to_end() {
        let t = base();
        let batch = DeltaBatch::new()
            .delete(0)
            .insert(0, vec![Value::Int(9), Value::str("XX")]);
        let out = apply_batch_to_table(&t, &batch).unwrap();
        let ids: Vec<_> = out.tuples().iter().map(Tuple::id).collect();
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    fn materialize_rejects_conflicts() {
        let t = base();
        assert!(
            apply_batch_to_table(&t, &DeltaBatch::new().insert(0, vec![])).is_err(),
            "insert of existing id"
        );
        assert!(apply_batch_to_table(
            &t,
            &DeltaBatch::new().update(9, vec![Value::Int(1), Value::str("a")])
        )
        .is_err());
        assert!(apply_batch_to_table(&t, &DeltaBatch::new().delete(9)).is_err());
    }
}
