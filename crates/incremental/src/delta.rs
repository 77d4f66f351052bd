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
//!
//! Records and fields are read by the base-table parser's own splitter
//! and field kernel ([`csv::records`], [`csv::field_value`]), so quoting
//! works as in base files: a quoted field may hold commas, `""` quotes
//! and line breaks, and values are typed the same way. Line numbers in
//! errors and quarantine entries are the line a record starts on.

use bigdansing_common::csv::{self, split_line};
use bigdansing_common::{Error, Quarantine, Result, Schema, Table, Tuple, TupleId, Value};
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
        for (line, record) in data_records(text) {
            match parse_delta_record(record, schema) {
                Ok(op) => ops.push(op),
                Err(reason) => return Err(Error::Parse(format!("delta line {line}: {reason}"))),
            }
        }
        Ok(DeltaBatch { ops })
    }

    /// Lenient variant of [`DeltaBatch::parse_str`]: malformed records
    /// are diverted into a [`Quarantine`] report (keyed by the 1-based
    /// line a record starts on) instead of failing the whole batch — the
    /// streamed-ingest counterpart of the lenient CSV file parser. The
    /// well-formed ops are returned in input order.
    pub fn parse_str_lenient(
        text: &str,
        schema: &Schema,
        source: impl Into<String>,
    ) -> (DeltaBatch, Quarantine) {
        let mut ops = Vec::new();
        let mut quarantine = Quarantine::new(source);
        for (line, record) in data_records(text) {
            match parse_delta_record(record, schema) {
                Ok(op) => ops.push(op),
                Err(reason) => quarantine.push(line, reason),
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

/// The non-blank records of delta CSV text with the line each starts
/// on, minus a leading `op,id,…` header. Only the first non-blank record
/// can be a header (blank lines above it don't make it data).
fn data_records(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut records = csv::records(text)
        .filter(|(_, record)| !record.trim().is_empty())
        .peekable();
    records.next_if(|(_, record)| is_header(record));
    records
}

fn is_header(record: &str) -> bool {
    split_line(record)[0].trim().eq_ignore_ascii_case("op")
}

/// Parse one non-header CSV delta record. Errors carry the reason only;
/// callers prepend the line number (strict mode) or quarantine it.
fn parse_delta_record(record: &str, schema: &Schema) -> std::result::Result<DeltaOp, String> {
    let mut head: Vec<String> = Vec::with_capacity(2);
    let mut values = Vec::with_capacity(schema.arity());
    csv::for_each_field(record, |raw, quoted| {
        if head.len() < 2 {
            head.push(raw.to_string());
        } else {
            values.push(csv::field_value(raw, quoted));
        }
    });
    let [op, id] = &head[..] else {
        return Err("expected `op,id,…`".into());
    };
    let op = op.trim().to_ascii_lowercase();
    let id: TupleId = id
        .trim()
        .parse()
        .map_err(|_| format!("invalid tuple id `{id}`"))?;
    let values = || -> std::result::Result<Vec<Value>, String> {
        if values.len() != schema.arity() {
            return Err(format!(
                "expected {} value fields, found {}",
                schema.arity(),
                values.len()
            ));
        }
        Ok(values)
    };
    Ok(match op.as_str() {
        "insert" => DeltaOp::Insert(Tuple::new(id, values()?)),
        "update" => DeltaOp::Update(Tuple::new(id, values()?)),
        "delete" => DeltaOp::Delete(id),
        other => return Err(format!("unknown op `{other}`")),
    })
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
    use bigdansing_common::rng::{check, SplitMix64};

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

    fn inserted(batch: &DeltaBatch, i: usize) -> &Tuple {
        match &batch.ops[i] {
            DeltaOp::Insert(t) => t,
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn quoted_fields_read_as_in_base_files() {
        let schema = Schema::parse("zipcode,city");
        // a line break inside quotes keeps the record whole, in strict
        // and lenient mode alike (lenient is serve's CSV ingest)
        let text = "op,id,zipcode,city\ninsert,9,1,\"a,\nb\"\ninsert,10,2,\"x,y\"\n";
        let strict = DeltaBatch::parse_str(text, &schema).unwrap();
        let (lenient, q) = DeltaBatch::parse_str_lenient(text, &schema, "t");
        assert_eq!(strict, lenient);
        assert!(q.is_empty(), "{:?}", q.entries());
        assert_eq!(strict.len(), 2);
        assert_eq!(inserted(&strict, 0).value(1), &Value::str("a,\nb"));
        assert_eq!(inserted(&strict, 1).value(1), &Value::str("x,y"));

        // a line break at the edge of a quoted field is data, not padding
        let text = "insert,9,1,\"\nb\"\r\ninsert,3,2,\" c\r\"\n";
        let edge = DeltaBatch::parse_str(text, &schema).unwrap();
        assert_eq!(inserted(&edge, 0).value(1), &Value::str("\nb"));
        assert_eq!(inserted(&edge, 1).value(1), &Value::str("c\r"));

        // line numbers are the line a record starts on
        let bad = "insert,9,1,\"a\nb\nc\"\nupsert,1,1,x\n";
        let err = DeltaBatch::parse_str(bad, &schema).unwrap_err();
        assert!(err.to_string().contains("delta line 4:"), "{err}");
        let (ok, q) = DeltaBatch::parse_str_lenient(bad, &schema, "t");
        assert_eq!(ok.len(), 1);
        assert_eq!(q.entries()[0].0, 4);
    }

    /// A string over letters, padding, digits and every character CSV
    /// quoting has to protect.
    fn arb_field(g: &mut SplitMix64) -> Value {
        const CHARS: [char; 8] = ['a', 'b', ' ', '7', ',', '"', '\n', '\r'];
        match g.range(0..5) {
            0 => Value::Null,
            1 => Value::Int(g.range(-99..100)),
            _ => {
                let len = g.range(1..6);
                Value::from(
                    (0..len)
                        .map(|_| CHARS[g.range(0..CHARS.len())])
                        .collect::<String>(),
                )
            }
        }
    }

    /// Rows rendered with the loader's quoting and sent as inserts parse
    /// to the tuples the base-table loader reads from the same rows.
    #[test]
    fn inserts_parse_like_the_table_loader() {
        check(256, |g| {
            let schema = Schema::parse("a,b,c");
            let rows: Vec<Vec<Value>> = (0..g.range(1..8))
                .map(|_| (0..3).map(|_| arb_field(g)).collect())
                .collect();
            let base = Table::from_rows("t", schema.clone(), rows.clone());
            let loaded = csv::parse_str("t", &csv::to_string(&base), true, None).unwrap();

            let delta_rows = rows.into_iter().enumerate().map(|(id, row)| {
                let head = [Value::str("insert"), Value::Int(id as i64)];
                head.into_iter().chain(row).collect()
            });
            let delta = Table::from_rows("d", Schema::parse("op,id,a,b,c"), delta_rows.collect());
            let batch = DeltaBatch::parse_str(&csv::to_string(&delta), &schema).unwrap();
            let got: Vec<Tuple> = (0..batch.len())
                .map(|i| inserted(&batch, i).clone())
                .collect();
            assert_eq!(got, loaded.tuples());
        });
    }
}
