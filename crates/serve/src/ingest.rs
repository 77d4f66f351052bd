//! Ingest payload decoding: CSV delta lines or JSONL, both lenient.
//!
//! The CSV form is exactly [`DeltaBatch::parse_str_lenient`]'s format
//! (`op,id,…`). The JSONL form carries one object per line:
//!
//! ```json
//! {"op": "insert", "id": 4, "values": ["90210", "LA"]}
//! {"op": "delete", "id": 2}
//! ```
//!
//! Malformed lines never fail the HTTP request: they are diverted into
//! the tenant's [`Quarantine`] report (keyed by 1-based line number in
//! the request body) and counted by the `records_quarantined` metric,
//! while the well-formed ops proceed to the micro-batcher. A stream
//! with one bad producer keeps cleansing everyone else's records.

use bigdansing_common::{Quarantine, Schema, Tuple, TupleId, Value};
use bigdansing_incremental::{DeltaBatch, DeltaOp};

/// Payload encoding of one ingest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `op,id,v1,v2,…` lines, optional leading header.
    Csv,
    /// One JSON object per line.
    Jsonl,
}

impl Format {
    /// Pick the format from a Content-Type header value; defaults to
    /// CSV when the header is absent or unrecognized.
    pub fn from_content_type(ct: Option<&str>) -> Format {
        match ct {
            Some(ct) if ct.contains("json") || ct.contains("ndjson") || ct.contains("jsonl") => {
                Format::Jsonl
            }
            _ => Format::Csv,
        }
    }
}

/// Decode a request body into delta ops, quarantining malformed lines.
pub fn parse_lenient(
    text: &str,
    format: Format,
    schema: &Schema,
    source: impl Into<String>,
) -> (DeltaBatch, Quarantine) {
    match format {
        Format::Csv => DeltaBatch::parse_str_lenient(text, schema, source),
        Format::Jsonl => parse_jsonl_lenient(text, schema, source),
    }
}

fn parse_jsonl_lenient(
    text: &str,
    schema: &Schema,
    source: impl Into<String>,
) -> (DeltaBatch, Quarantine) {
    let mut batch = DeltaBatch::new();
    let mut quarantine = Quarantine::new(source);
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_jsonl_line(line, schema) {
            Ok(op) => batch.ops.push(op),
            Err(reason) => quarantine.push(i + 1, reason),
        }
    }
    (batch, quarantine)
}

fn parse_jsonl_line(line: &str, schema: &Schema) -> Result<DeltaOp, String> {
    let json = Json::parse(line)?;
    let obj = json.as_object().ok_or("expected a JSON object")?;
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    let id = obj
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("missing numeric field `id`")? as TupleId;
    let values = || -> Result<Vec<Value>, String> {
        let vals = obj
            .get("values")
            .and_then(Json::as_array)
            .ok_or("missing array field `values`")?;
        if vals.len() != schema.arity() {
            return Err(format!(
                "expected {} values, found {}",
                schema.arity(),
                vals.len()
            ));
        }
        Ok(vals.iter().map(json_to_value).collect())
    };
    match op {
        "insert" => Ok(DeltaOp::Insert(Tuple::new(id, values()?))),
        "update" => Ok(DeltaOp::Update(Tuple::new(id, values()?))),
        "delete" => Ok(DeltaOp::Delete(id)),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            }
        }
        Json::Str(s) => Value::parse_lossy(s),
        // nested containers are not table values; stringify them
        other => Value::str(format!("{other:?}")),
    }
}

/// A minimal recursive-descent JSON reader. The workspace carries no
/// serde, and the ingest path needs only enough JSON to read flat
/// one-line objects — so this stays tiny and allocation-light.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing garbage is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup helper view.
    pub fn as_object(&self) -> Option<ObjView<'_>> {
        match self {
            Json::Obj(fields) => Some(ObjView(fields)),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integer accessor.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Borrowed view of a JSON object's fields.
pub struct ObjView<'a>(&'a [(String, Json)]);

impl<'a> ObjView<'a> {
    /// First field with the given key.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The reader
/// recurses once per `[` / `{`, so without a bound one request line of
/// nothing but brackets overflows the handler thread's stack — which
/// aborts the whole server, not just the request.
const MAX_DEPTH: usize = 64;

/// Parse one value; `depth` is the number of containers around it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err("object key must be a string".into()),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at offset {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err("bad escape".into()),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // consume one UTF-8 scalar (body already validated)
                        let start = *pos;
                        *pos += 1;
                        while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                            *pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&b[start..*pos])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?,
                        );
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        Some(_) => {
            for (lit, v) in [
                ("null", Json::Null),
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
            ] {
                if b[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    return Ok(v);
                }
            }
            Err(format!("unexpected byte at offset {pos}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_ops_parse_and_bad_lines_quarantine() {
        let schema = Schema::parse("zipcode,city");
        let text = concat!(
            "{\"op\":\"insert\",\"id\":4,\"values\":[\"90210\",\"LA\"]}\n",
            "{\"op\":\"delete\",\"id\":2}\n",
            "{\"op\":\"insert\",\"id\":5,\"values\":[\"1\"]}\n",
            "not json at all\n",
            "{\"op\":\"update\",\"id\":1,\"values\":[10001,\"NY\"]}\n",
        );
        let (batch, q) = parse_lenient(text, Format::Jsonl, &schema, "test");
        assert_eq!(batch.ops.len(), 3);
        assert_eq!(q.entries().len(), 2);
        assert_eq!(q.entries()[0].0, 3, "arity error on line 3");
        assert_eq!(q.entries()[1].0, 4, "parse error on line 4");
        match &batch.ops[0] {
            DeltaOp::Insert(t) => {
                assert_eq!(*t.value(0), Value::Int(90210));
                assert_eq!(*t.value(1), Value::str("LA"));
            }
            other => panic!("expected insert, got {other:?}"),
        }
        match &batch.ops[2] {
            DeltaOp::Update(t) => assert_eq!(*t.value(0), Value::Int(10001)),
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn format_negotiation_from_content_type() {
        assert_eq!(Format::from_content_type(None), Format::Csv);
        assert_eq!(Format::from_content_type(Some("text/csv")), Format::Csv);
        assert_eq!(
            Format::from_content_type(Some("application/x-ndjson")),
            Format::Jsonl
        );
        assert_eq!(
            Format::from_content_type(Some("application/jsonl")),
            Format::Jsonl
        );
    }

    #[test]
    fn json_reader_handles_escapes_and_rejects_trailing() {
        let v = Json::parse(r#"{"k": "a\"bA", "n": [1, -2.5, null, true]}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("k").unwrap().as_str(), Some("a\"bA"));
        assert_eq!(o.get("n").unwrap().as_array().unwrap().len(), 4);
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }
}
