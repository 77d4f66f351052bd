//! A small CSV reader/writer.
//!
//! BigDansing "provides a set of parsers for producing data units and
//! elements from input datasets" (§2.1). This module is the relational
//! parser: comma-separated, double-quote quoting with `""` escapes, no
//! external dependencies. A quoted field may hold delimiters, quotes
//! and line breaks; fields are trimmed of padding, never of a line
//! break inside quotes.
//!
//! Most records hold no quote at all. Such a record is split on `,`
//! into borrowed slices and each field is typed straight from its
//! slice, so a string cell costs one allocation (its `Arc<str>`); only
//! a record with a `"` runs the quote-aware loop. Delta CSV
//! (`incremental`) reads its records through the same [`records`],
//! [`for_each_field`] and [`field_value`], so quoting means the same in
//! a base file and in a delta.

use crate::quarantine::Quarantine;
use crate::{Error, Result, Schema, Table, Tuple, TupleId, Value};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Split one CSV record into raw fields. Always runs the quote-aware
/// loop, so it is the reference the quote-free slice path agrees with.
pub fn split_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    quoted_fields(line, |field, _| fields.push(field.to_string()));
    fields
}

/// Call `f(field, quoted)` for every field of one CSV record, in order;
/// `quoted` tells whether the field opened with a quote. A record with
/// no `"` is split on `,` into slices of `line`.
pub fn for_each_field(line: &str, mut f: impl FnMut(&str, bool)) {
    if line.contains('"') {
        quoted_fields(line, f);
    } else {
        line.split(',').for_each(|field| f(field, false));
    }
}

/// [`for_each_field`] for a record that may hold quotes: every field
/// is unescaped into one reused buffer.
fn quoted_fields(line: &str, mut f: impl FnMut(&str, bool)) {
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let (mut in_quotes, mut quoted) = (false, false);
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => (in_quotes, quoted) = (true, true),
            ',' if !in_quotes => {
                f(&cur, quoted);
                cur.clear();
                quoted = false;
            }
            c => cur.push(c),
        }
    }
    f(&cur, quoted);
}

/// The records of CSV text, each with the 1-based line it starts on:
/// split at every line break outside a quoted field (quoting as
/// [`split_line`] reads it), a `\r\n` break counting as one.
pub fn records(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let (mut rest, mut line) = (text, 1);
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (end, inner_breaks) = record_end(rest);
        let (record, start) = (&rest[..end], line);
        line += inner_breaks + 1;
        match rest[end..].strip_prefix('\n') {
            Some(tail) => {
                rest = tail;
                Some((start, record.strip_suffix('\r').unwrap_or(record)))
            }
            None => {
                rest = "";
                Some((start, record))
            }
        }
    })
}

/// Byte offset of the line break that ends the record starting `s` (or
/// `s.len()` for the last record), and the number of line breaks inside
/// its quoted fields.
fn record_end(s: &str) -> (usize, usize) {
    let line = s.find('\n').unwrap_or(s.len());
    if !s[..line].contains('"') {
        return (line, 0);
    }
    let b = s.as_bytes();
    // `empty`: nothing read into the current field yet — only then does
    // a quote open a quoted section
    let (mut in_quotes, mut empty, mut breaks) = (false, true, 0);
    let mut i = 0;
    while i < b.len() {
        match (in_quotes, b[i]) {
            (true, b'"') if b.get(i + 1) == Some(&b'"') => (i, empty) = (i + 1, false),
            (true, b'"') => in_quotes = false,
            (true, b'\n') => (empty, breaks) = (false, breaks + 1),
            (true, _) => empty = false,
            (false, b'"') if empty => in_quotes = true,
            (false, b',') => empty = true,
            (false, b'\n') => return (i, breaks),
            (false, _) => empty = false,
        }
        i += 1;
    }
    (b.len(), breaks)
}

/// A field's value, typed as [`Value::parse_lossy`] does. Every field
/// loses its padding, but a line break at either end of a quoted field
/// is data: such a field is kept as it is, as a string.
pub fn field_value(raw: &str, quoted: bool) -> Value {
    if quoted {
        let line_break = |c: char| c == '\r' || c == '\n';
        let unpadded = raw.trim_matches(|c: char| c.is_whitespace() && !line_break(c));
        if unpadded.starts_with(line_break) || unpadded.ends_with(line_break) {
            return Value::str(unpadded);
        }
    }
    Value::parse_lossy(raw)
}

/// Append `field`, quoted if it contains a delimiter, quote or line
/// break.
fn push_field(out: &mut String, field: &str) {
    if field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Shared parse loop: `strict` fails fast on the first ragged row,
/// lenient mode quarantines it (1-based data-line number) and keeps
/// loading.
fn parse_inner(
    name: &str,
    text: &str,
    header: bool,
    schema: Option<Schema>,
    strict: bool,
) -> Result<(Table, Quarantine)> {
    let mut lines = records(text)
        .map(|(_, record)| record)
        .filter(|l| !l.trim().is_empty());
    let schema = if header {
        let head = lines
            .next()
            .ok_or_else(|| Error::Parse("empty CSV input".into()))?;
        Schema::new(&split_line(head))
    } else {
        schema.ok_or_else(|| Error::Parse("headerless CSV needs an explicit schema".into()))?
    };
    let mut quarantine = Quarantine::new(name);
    let mut tuples = Vec::new();
    for (i, line) in lines.enumerate() {
        let mut values = Vec::with_capacity(schema.arity());
        for_each_field(line, |f, quoted| values.push(field_value(f, quoted)));
        if values.len() != schema.arity() {
            let reason = format!("expected {} fields, found {}", schema.arity(), values.len());
            if strict {
                return Err(Error::Parse(format!("line {}: {reason}", i + 1)));
            }
            quarantine.push(i + 1, reason);
            continue;
        }
        tuples.push(Tuple::new(tuples.len() as TupleId, values));
    }
    Ok((Table::new(name, schema, tuples), quarantine))
}

/// Parse CSV text into a [`Table`]. When `header` is true the first line
/// supplies the schema; otherwise `schema` must be provided. Fails fast
/// on the first malformed row; see [`parse_str_lenient`] to quarantine
/// malformed rows instead.
pub fn parse_str(name: &str, text: &str, header: bool, schema: Option<Schema>) -> Result<Table> {
    parse_inner(name, text, header, schema, true).map(|(t, _)| t)
}

/// Like [`parse_str`], but malformed rows are diverted into a
/// [`Quarantine`] report instead of aborting the load. Structural
/// errors (empty input, missing schema) still fail.
pub fn parse_str_lenient(
    name: &str,
    text: &str,
    header: bool,
    schema: Option<Schema>,
) -> Result<(Table, Quarantine)> {
    parse_inner(name, text, header, schema, false)
}

/// Read a CSV file from disk (fail-fast on malformed rows).
pub fn read_file(path: impl AsRef<Path>, header: bool, schema: Option<Schema>) -> Result<Table> {
    let (text, name) = read_to_parts(path.as_ref())?;
    parse_str(&name, &text, header, schema)
}

/// Read a CSV file from disk, quarantining malformed rows.
pub fn read_file_lenient(
    path: impl AsRef<Path>,
    header: bool,
    schema: Option<Schema>,
) -> Result<(Table, Quarantine)> {
    let (text, name) = read_to_parts(path.as_ref())?;
    parse_str_lenient(&name, &text, header, schema)
}

fn read_to_parts(path: &Path) -> Result<(String, String)> {
    let text = fs::read_to_string(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    Ok((text, name))
}

/// Render a table as CSV text (with a header line), every field written
/// straight into one buffer.
pub fn to_string(table: &Table) -> String {
    let mut out = String::with_capacity(8 * table.len() * table.schema().arity());
    for (i, a) in table.schema().attrs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, a);
    }
    out.push('\n');
    for t in table.tuples() {
        for (i, v) in t.iter_values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Value::Str(s) => push_field(&mut out, s),
                // numbers and Null never need quoting
                other => write!(out, "{other}").expect("writing to a String cannot fail"),
            }
        }
        out.push('\n');
    }
    out
}

/// Write a table as CSV to disk.
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, to_string(table))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check, SplitMix64};

    #[test]
    fn split_handles_quotes_and_escapes() {
        assert_eq!(split_line("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_line(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(
            split_line(r#""he said ""hi""",x"#),
            vec![r#"he said "hi""#, "x"]
        );
        assert_eq!(split_line(""), vec![""]);
        assert_eq!(split_line("a,,c"), vec!["a", "", "c"]);
    }

    #[test]
    fn parse_with_header_types_values() {
        let t = parse_str("D", "zip,city\n90210,LA\n60601,CH\n", true, None).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().attrs(), &["zip".to_string(), "city".to_string()]);
        assert_eq!(t.tuple(0).unwrap().value(0), &Value::Int(90210));
        assert_eq!(t.tuple(1).unwrap().value(1), &Value::str("CH"));
    }

    #[test]
    fn parse_rejects_ragged_rows() {
        let err = parse_str("D", "a,b\n1,2\n3\n", true, None).unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
    }

    #[test]
    fn lenient_parse_quarantines_ragged_rows() {
        let (t, q) = parse_str_lenient("D", "a,b\n1,2\n3\n4,5,6\n7,8\n", true, None).unwrap();
        assert_eq!(t.len(), 2);
        // Tuple ids stay dense despite the skipped rows.
        assert_eq!(t.tuple(1).unwrap().value(0), &Value::Int(7));
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries()[0], (2, "expected 2 fields, found 1".into()));
        assert_eq!(q.entries()[1], (3, "expected 2 fields, found 3".into()));
    }

    #[test]
    fn lenient_parse_still_fails_on_structural_errors() {
        assert!(parse_str_lenient("D", "", true, None).is_err());
        assert!(parse_str_lenient("D", "1,2\n", false, None).is_err());
        let (t, q) = parse_str_lenient("D", "a,b\n1,2\n", true, None).unwrap();
        assert_eq!(t.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn headerless_requires_schema() {
        assert!(parse_str("D", "1,2\n", false, None).is_err());
        let t = parse_str("D", "1,2\n", false, Some(Schema::parse("a,b"))).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn roundtrip_through_text() {
        let src = "name,city\n\"Doe, Jane\",NY\nBob,LA\n";
        let t = parse_str("D", src, true, None).unwrap();
        let rendered = to_string(&t);
        let t2 = parse_str("D", &rendered, true, None).unwrap();
        assert_eq!(t.len(), t2.len());
        assert_eq!(t.tuple(0).unwrap().value(0), t2.tuple(0).unwrap().value(0));
    }

    #[test]
    fn trailing_carriage_return_survives_a_roundtrip() {
        let rows = vec![vec![Value::Int(1), Value::str("x\r")]];
        let t = Table::from_rows("D", Schema::parse("a,b"), rows);
        let rendered = to_string(&t);
        assert_eq!(rendered, "a,b\n1,\"x\r\"\n");
        let back = parse_str("D", &rendered, true, None).unwrap();
        assert_eq!(back.tuple(0).unwrap().value(1), &Value::str("x\r"));
    }

    #[test]
    fn quoted_line_breaks_stay_inside_their_record() {
        let back = parse_str("D", "a,b\r\n\"x\ny\",2\r\n3,\" z \"\n", true, None).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.tuple(0).unwrap().value(0), &Value::str("x\ny"));
        assert_eq!(back.tuple(0).unwrap().value(1), &Value::Int(2));
        // padding goes, quoted or not
        assert_eq!(back.tuple(1).unwrap().value(1), &Value::str("z"));
        // a quote inside a bare field is a literal and opens nothing
        let odd = parse_str("D", "h,w\nbob,5'10\"\nann,6'\n", true, None).unwrap();
        assert_eq!(odd.len(), 2);
        assert_eq!(odd.tuple(0).unwrap().value(1), &Value::str("5'10\""));
    }

    /// Non-empty strings (1–7 chars) over letters and every character
    /// CSV quoting has to protect.
    fn arb_text(g: &mut SplitMix64) -> Value {
        const CHARS: [char; 6] = ['a', 'b', ',', '"', '\n', '\r'];
        let len = g.range(1..8);
        let s: String = (0..len).map(|_| CHARS[g.range(0..CHARS.len())]).collect();
        Value::from(s)
    }

    #[test]
    fn render_then_parse_is_the_identity() {
        check(256, |g| {
            let rows = (0..g.range(0..8))
                .map(|_| vec![arb_text(g), Value::Int(g.next_u64() as i64), arb_text(g)])
                .collect();
            let t = Table::from_rows("t", Schema::parse("a,n,b"), rows);
            let back = parse_str("t", &to_string(&t), true, None).unwrap();
            assert_eq!(back.schema().attrs(), t.schema().attrs());
            assert_eq!(back.tuples(), t.tuples());
        });
    }

    /// A field with no quote: padding around an empty value, an int, a
    /// float, `nan`/`inf` text or letters.
    fn arb_bare_field(g: &mut SplitMix64) -> String {
        let words: Vec<&str> = "|0|-17|90210|1.5|-0.25|1e3|nan|NaN|inf|-infinity"
            .split('|')
            .collect();
        let pads = ["", "", " ", "\t "];
        let word: String = if g.chance(0.3) {
            let letter = |g: &mut SplitMix64| if g.chance(0.5) { 'a' } else { 'X' };
            (0..g.range(1..5)).map(|_| letter(g)).collect()
        } else {
            words[g.range(0..words.len())].to_string()
        };
        let (pre, post) = (pads[g.range(0..4usize)], pads[g.range(0..4usize)]);
        format!("{pre}{word}{post}")
    }

    /// A field holding a quote: quoted content with a comma, an escaped
    /// quote or a line break between two letters, a padded quoted
    /// number, or a bare field whose inner quote opens nothing.
    fn arb_quoted_field(g: &mut SplitMix64) -> String {
        const FIELDS: [&str; 6] = [
            "\"x,y\"",
            "\"x\"\"y\"",
            "\"x\ny\"",
            "\"x \r\n y\"",
            "\" 12 \"",
            "5'10\"",
        ];
        FIELDS[g.range(0..FIELDS.len())].to_string()
    }

    /// The slice path for quote-free records types and quarantines
    /// exactly as the quote-aware reference (`split_line` +
    /// `Value::parse_lossy` per field) does, on quote-free files and on
    /// files mixing quoted and quote-free records.
    #[test]
    fn slice_path_matches_the_quote_aware_reference() {
        check(256, |g| {
            let arity = g.range(1..5usize);
            let mixed = g.chance(0.5);
            let header: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            let records: Vec<String> = (0..g.range(0..12))
                .map(|_| {
                    let ragged = g.chance(0.2);
                    let n = if ragged { g.range(1..arity + 2) } else { arity };
                    let fields: Vec<String> = (0..n)
                        .map(|_| match mixed && g.chance(0.2) {
                            true => arb_quoted_field(g),
                            false => arb_bare_field(g),
                        })
                        .collect();
                    fields.join(",")
                })
                .collect();
            let mut text = header.join(",");
            for r in &records {
                text.push_str(if g.chance(0.2) { "\r\n" } else { "\n" });
                text.push_str(r);
            }
            if g.chance(0.5) {
                text.push('\n');
            }
            let (table, q) = parse_str_lenient("t", &text, true, None).unwrap();

            let mut want_rows = Vec::new();
            let mut want_q = Quarantine::new("t");
            let data = records.iter().filter(|r| !r.trim().is_empty());
            for (i, r) in data.enumerate() {
                let row: Vec<Value> = split_line(r)
                    .iter()
                    .map(|f| Value::parse_lossy(f))
                    .collect();
                if row.len() == arity {
                    want_rows.push(row);
                } else {
                    want_q.push(
                        i + 1,
                        format!("expected {arity} fields, found {}", row.len()),
                    );
                }
            }
            let want = Table::from_rows("t", Schema::new(&header), want_rows);
            assert_eq!(table.tuples(), want.tuples(), "{text:?}");
            assert_eq!(q, want_q, "{text:?}");
        });
    }

    #[test]
    fn records_report_the_line_they_start_on() {
        let got: Vec<_> = records("a\r\n\"x\ny\nz\",1\n\nb,\"\"\"\n\"").collect();
        assert_eq!(
            got,
            vec![(1, "a"), (2, "\"x\ny\nz\",1"), (5, ""), (6, "b,\"\"\"\n\"")]
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("bigdansing_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = parse_str("t", "a,b\n1,x\n", true, None).unwrap();
        write_file(&t, &path).unwrap();
        let back = read_file(&path, true, None).unwrap();
        assert_eq!(back.name(), "t");
        assert_eq!(back.len(), 1);
    }
}
