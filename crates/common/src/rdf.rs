//! RDF data units (Appendix C of the paper).
//!
//! BigDansing is "not restricted to a specific data model": for RDF the
//! data unit is a triple and the elements are subject / predicate /
//! object. We model a triple store as a 3-attribute [`Table`] so every
//! logical operator works on it unchanged.

use crate::quarantine::Quarantine;
use crate::{Error, Result, Schema, Table, Tuple, TupleId, Value};

/// Attribute index of the subject in a triple-table schema.
pub const SUBJECT: usize = 0;
/// Attribute index of the predicate in a triple-table schema.
pub const PREDICATE: usize = 1;
/// Attribute index of the object in a triple-table schema.
pub const OBJECT: usize = 2;

/// The fixed schema used for triple tables.
pub fn triple_schema() -> Schema {
    Schema::parse("subject,predicate,object")
}

/// An RDF triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Triple {
    /// Subject resource.
    pub subject: String,
    /// Predicate resource.
    pub predicate: String,
    /// Object resource or literal.
    pub object: String,
}

impl Triple {
    /// Construct a triple.
    pub fn new(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

/// Build a triple [`Table`] from triples.
pub fn to_table(name: &str, triples: &[Triple]) -> Table {
    let tuples = triples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            Tuple::new(
                i as TupleId,
                vec![
                    Value::str(&t.subject),
                    Value::str(&t.predicate),
                    Value::str(&t.object),
                ],
            )
        })
        .collect();
    Table::new(name, triple_schema(), tuples)
}

/// Shared parse loop: `strict` fails fast on the first malformed line,
/// lenient mode quarantines it (1-based line number) and keeps going.
fn parse_inner(name: &str, text: &str, strict: bool) -> Result<(Table, Quarantine)> {
    let mut quarantine = Quarantine::new(name);
    let mut triples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = line.strip_suffix('.').map(str::trim).unwrap_or(line);
        let mut parts = line.split_whitespace();
        let reason = match (parts.next(), parts.next()) {
            (Some(s), Some(p)) => {
                let o: Vec<&str> = parts.collect();
                if o.is_empty() {
                    "missing object".to_string()
                } else {
                    triples.push(Triple::new(s, p, o.join(" ")));
                    continue;
                }
            }
            _ => "expected `subject predicate object`".to_string(),
        };
        if strict {
            return Err(Error::Parse(format!("line {}: {reason}", lineno + 1)));
        }
        quarantine.push(lineno + 1, reason);
    }
    Ok((to_table(name, &triples), quarantine))
}

/// Parse a whitespace-separated line-oriented triple format
/// (`subject predicate object`, one per line; `#` comments allowed).
/// This is the minimal N-Triples-like parser the examples use. Fails
/// fast on the first malformed line; see [`parse_str_lenient`].
pub fn parse_str(name: &str, text: &str) -> Result<Table> {
    parse_inner(name, text, true).map(|(t, _)| t)
}

/// Like [`parse_str`], but malformed lines are diverted into a
/// [`Quarantine`] report instead of aborting the load.
pub fn parse_str_lenient(name: &str, text: &str) -> Result<(Table, Quarantine)> {
    parse_inner(name, text, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_triples() {
        let text = "# students\nJohn student_in MIT .\nJohn advised_by William\n\n";
        let t = parse_str("rdf", text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.tuple(0).unwrap().value(OBJECT), &Value::str("MIT"));
        assert_eq!(
            t.tuple(1).unwrap().value(PREDICATE),
            &Value::str("advised_by")
        );
    }

    #[test]
    fn parse_rejects_short_lines() {
        assert!(parse_str("rdf", "onlysubject\n").is_err());
        assert!(parse_str("rdf", "s p\n").is_err());
    }

    #[test]
    fn lenient_parse_quarantines_short_lines() {
        let text = "# hdr\ns1 p1 o1\nonlysubject\ns2 p2\ns3 p3 o3 .\n";
        let (t, q) = parse_str_lenient("rdf", text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.tuple(1).unwrap().value(OBJECT), &Value::str("o3"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries()[0].0, 3);
        assert!(q.entries()[0].1.contains("subject predicate object"));
        assert_eq!(q.entries()[1], (4, "missing object".into()));
    }

    #[test]
    fn multiword_objects_join() {
        let t = parse_str("rdf", "s p New York City\n").unwrap();
        assert_eq!(
            t.tuple(0).unwrap().value(OBJECT),
            &Value::str("New York City")
        );
    }

    #[test]
    fn table_roundtrip() {
        let triples = vec![
            Triple::new("Sally", "professor_in", "Yale"),
            Triple::new("Sally", "advised_by", "William"),
        ];
        let table = to_table("rdf", &triples);
        assert_eq!(table.schema(), &triple_schema());
        assert_eq!(table.len(), 2);
        let advisor = table.tuple(1).unwrap();
        assert_eq!(advisor.value(PREDICATE), &Value::str("advised_by"));
        assert_eq!(advisor.value(OBJECT), &Value::str("William"));
    }
}
