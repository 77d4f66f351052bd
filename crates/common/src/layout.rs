//! Binary column-oriented layout with Scope pushdown (Appendix F (3)).
//!
//! "BigDansing converts a dataset to binary format when storing it …
//! this helps avoid expensive string parsing operations. Additionally,
//! we store a dataset in a column-oriented fashion. This enables
//! pushing down the Scope operator to the storage manager and hence
//! reduces I/O costs significantly."
//!
//! File format (all little-endian, built on the workspace codec):
//!
//! ```text
//! magic "BDCOL1" | arity u64 | rows u64
//! column directory: arity × (attr name, byte offset u64, byte len u64)
//! row-id column: rows × u64
//! per column: rows × Value
//! ```

use crate::codec::Codec;
use crate::{Error, Result, Schema, Table, Tuple, Value};
use std::fs;
use std::path::Path;

const MAGIC: &[u8; 6] = b"BDCOL1";

/// Write `table` in the columnar binary layout.
pub fn write_table(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    (table.schema().arity() as u64).encode(&mut header);
    (table.len() as u64).encode(&mut header);

    // encode each column body first so the directory can carry offsets
    let mut ids = Vec::new();
    for t in table.tuples() {
        t.id().encode(&mut ids);
    }
    let mut columns: Vec<(String, Vec<u8>)> = Vec::with_capacity(table.schema().arity());
    for (attr, name) in table.schema().attrs().iter().enumerate() {
        let mut body = Vec::new();
        for t in table.tuples() {
            t.value(attr).encode(&mut body);
        }
        columns.push((name.clone(), body));
    }
    // directory
    let mut dir = Vec::new();
    let mut offset = 0u64;
    // offsets are relative to the start of the data section (after ids)
    for (name, body) in &columns {
        name.clone().encode(&mut dir);
        offset.encode(&mut dir);
        (body.len() as u64).encode(&mut dir);
        offset += body.len() as u64;
    }
    let mut out = header;
    (dir.len() as u64).encode(&mut out);
    out.extend_from_slice(&dir);
    (ids.len() as u64).encode(&mut out);
    out.extend_from_slice(&ids);
    for (_, body) in columns {
        out.extend_from_slice(&body);
    }
    fs::write(path, out)?;
    Ok(())
}

struct Header {
    arity: usize,
    rows: usize,
    /// (attr name, offset into data section, byte length)
    directory: Vec<(String, u64, u64)>,
    ids: Vec<u64>,
    /// absolute byte offset of the data section
    data_start: usize,
}

fn read_header(bytes: &[u8]) -> Result<Header> {
    if bytes.len() < 6 || &bytes[..6] != MAGIC {
        return Err(Error::Parse("not a BDCOL1 columnar file".into()));
    }
    let mut cur = &bytes[6..];
    let arity = u64::decode(&mut cur)? as usize;
    let rows = u64::decode(&mut cur)? as usize;
    let dir_len = u64::decode(&mut cur)? as usize;
    let mut dir_slice = cur
        .get(..dir_len)
        .ok_or_else(|| Error::Parse("columnar directory truncated".into()))?;
    cur = &cur[dir_len..];
    let mut directory = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = String::decode(&mut dir_slice)?;
        let offset = u64::decode(&mut dir_slice)?;
        let len = u64::decode(&mut dir_slice)?;
        directory.push((name, offset, len));
    }
    let ids_len = u64::decode(&mut cur)? as usize;
    let mut ids_slice = cur
        .get(..ids_len)
        .ok_or_else(|| Error::Parse("columnar id section truncated".into()))?;
    let mut ids = Vec::with_capacity(rows);
    for _ in 0..rows {
        ids.push(u64::decode(&mut ids_slice)?);
    }
    let data_start = bytes.len() - (cur.len() - ids_len);
    Ok(Header {
        arity,
        rows,
        directory,
        ids,
        data_start,
    })
}

fn read_column(bytes: &[u8], h: &Header, attr: usize) -> Result<Vec<Value>> {
    let (_, offset, len) = &h.directory[attr];
    let start = h.data_start + *offset as usize;
    let end = start + *len as usize;
    let mut slice = bytes
        .get(start..end)
        .ok_or_else(|| Error::Parse("columnar column truncated".into()))?;
    let mut out = Vec::with_capacity(h.rows);
    for _ in 0..h.rows {
        out.push(Value::decode(&mut slice)?);
    }
    Ok(out)
}

/// Read a full table back.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table> {
    read_with_stats(path, None).map(|(table, _)| table)
}

/// Read with Scope pushdown: when `attrs` is `Some`, only those columns
/// are decoded; every other cell is `Value::Null`, with the schema and
/// attribute positions preserved so rules' source-indexed cells keep
/// working. Also returns the number of column bytes actually decoded,
/// for the I/O-savings ablation.
pub fn read_with_stats(path: impl AsRef<Path>, attrs: Option<&[usize]>) -> Result<(Table, u64)> {
    let path = path.as_ref();
    let bytes = fs::read(path)?;
    let h = read_header(&bytes)?;
    let wanted: Vec<usize> = match attrs {
        Some(a) => a.to_vec(),
        None => (0..h.arity).collect(),
    };
    for &a in &wanted {
        if a >= h.arity {
            return Err(Error::Schema(format!("attribute {a} out of range")));
        }
    }
    let mut decoded_bytes = 0u64;
    let mut columns: Vec<Option<Vec<Value>>> = (0..h.arity).map(|_| None).collect();
    for &a in &wanted {
        decoded_bytes += h.directory[a].2;
        columns[a] = Some(read_column(&bytes, &h, a)?);
    }
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    let attr_names: Vec<&str> = h.directory.iter().map(|(n, _, _)| n.as_str()).collect();
    let schema = Schema::new(&attr_names);
    let tuples = (0..h.rows)
        .map(|row| {
            let values: Vec<Value> = columns
                .iter()
                .map(|col| match col {
                    Some(c) => c[row].clone(),
                    None => Value::Null,
                })
                .collect();
            Tuple::new(h.ids[row], values)
        })
        .collect();
    Ok((Table::new(name, schema, tuples), decoded_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            "t",
            Schema::parse("zipcode,city,salary"),
            vec![
                vec![Value::Int(90210), Value::str("LA"), Value::Float(1.5)],
                vec![Value::Int(10001), Value::str("NY"), Value::Null],
                vec![Value::Int(60601), Value::str("CH"), Value::Int(7)],
            ],
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bigdansing_layout_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_roundtrip() {
        let t = sample();
        let p = tmp("full.bdcol");
        write_table(&t, &p).unwrap();
        let back = read_table(&p).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(t.diff_cells(&back), 0);
        assert_eq!(back.schema().attrs(), t.schema().attrs());
        assert_eq!(back.tuple(1).unwrap().id(), 1);
    }

    #[test]
    fn projection_decodes_fewer_bytes() {
        let t = sample();
        let p = tmp("proj.bdcol");
        write_table(&t, &p).unwrap();
        let (_, all) = read_with_stats(&p, None).unwrap();
        let (projected, some) = read_with_stats(&p, Some(&[0])).unwrap();
        assert!(
            some < all,
            "projection must decode fewer bytes: {some} vs {all}"
        );
        assert_eq!(projected.tuple(0).unwrap().value(0), &Value::Int(90210));
        assert_eq!(projected.tuple(0).unwrap().value(1), &Value::Null);
        // positions preserved: attribute 2 still addressable
        assert_eq!(projected.schema().index_of("salary").unwrap(), 2);
    }

    #[test]
    fn rejects_foreign_files() {
        let p = tmp("garbage.bdcol");
        std::fs::write(&p, b"zipcode,city\n1,LA\n").unwrap();
        assert!(read_table(&p).is_err());
        assert!(read_with_stats(&p, Some(&[0])).is_err());
    }

    #[test]
    fn out_of_range_projection_errors() {
        let t = sample();
        let p = tmp("range.bdcol");
        write_table(&t, &p).unwrap();
        assert!(read_with_stats(&p, Some(&[9])).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = Table::from_rows("t", Schema::parse("a,b"), vec![]);
        let p = tmp("empty.bdcol");
        write_table(&t, &p).unwrap();
        let back = read_table(&p).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.schema().arity(), 2);
    }
}
