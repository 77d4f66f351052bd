//! In-memory relations: a [`Schema`] plus a vector of [`Tuple`]s.

use crate::{Cell, Error, Result, Schema, Tuple, TupleId, Value};
use std::collections::HashMap;

/// A named, schema-ful collection of tuples — the unit handed to
/// `BigDansing.addInputPath` in the paper's job API.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Table {
    /// Create a table from already-identified tuples.
    pub fn new(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        Table {
            name: name.into(),
            schema,
            tuples,
        }
    }

    /// Create a table from raw rows, assigning sequential tuple ids.
    pub fn from_rows(name: impl Into<String>, schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let tuples = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| Tuple::new(i as TupleId, r))
            .collect();
        Table::new(name, schema, tuples)
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Look up a tuple by id.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.position(id).map(|at| &self.tuples[at])
    }

    /// The position of tuple `id`. Ids are usually dense, so try a direct
    /// index first and fall back to a scan (ids stay stable across
    /// repairs but a table may be a scoped subset).
    pub fn position(&self, id: TupleId) -> Option<usize> {
        match self.tuples.get(id as usize) {
            Some(t) if t.id() == id => Some(id as usize),
            _ => self.tuples.iter().position(|t| t.id() == id),
        }
    }

    /// The current value of `cell`.
    pub fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.tuple(cell.tuple)
            .and_then(|t| t.get(cell.attr as usize))
    }

    /// Apply a set of cell assignments, returning the updated table
    /// ([`Table::apply_at`] on a copy). Unknown cells are reported as
    /// errors so repair bugs surface early.
    pub fn apply(&self, assignments: &HashMap<Cell, Value>) -> Result<Table> {
        let mut table = self.clone();
        table.apply_at(assignments, |id| self.position(id))?;
        Ok(table)
    }

    /// Replace the tuple at `position` in place. The caller is
    /// responsible for keeping ids unique; panics if `position` is out
    /// of range.
    pub fn set_at(&mut self, position: usize, tuple: Tuple) {
        self.tuples[position] = tuple;
    }

    /// Append a tuple at the end. The caller is responsible for keeping
    /// ids unique.
    pub fn push(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Remove the rows at the given positions (strictly ascending) in
    /// one compaction pass; the survivors keep their relative order.
    /// Panics if a position is out of range or the list is not
    /// ascending.
    pub fn remove_at(&mut self, positions: &[usize]) {
        remove_sorted(&mut self.tuples, positions);
    }

    /// Apply a set of cell assignments in place, each tuple id resolved
    /// to its position by `position_of`: only the targeted rows change.
    /// Every assignment is validated before anything is touched, so an
    /// error leaves the table unchanged.
    pub fn apply_at(
        &mut self,
        assignments: &HashMap<Cell, Value>,
        position_of: impl Fn(TupleId) -> Option<usize>,
    ) -> Result<()> {
        let mut by_tuple: HashMap<TupleId, Vec<(usize, &Value)>> = HashMap::new();
        for (cell, v) in assignments {
            by_tuple
                .entry(cell.tuple)
                .or_default()
                .push((cell.attr as usize, v));
        }
        let mut missing = 0usize;
        let mut targets = Vec::with_capacity(by_tuple.len());
        for (id, edits) in by_tuple {
            let target =
                position_of(id).filter(|&p| self.tuples.get(p).is_some_and(|t| t.id() == id));
            match target {
                Some(p) => {
                    let arity = self.tuples[p].arity();
                    for (attr, _) in &edits {
                        if *attr >= arity {
                            return Err(Error::Repair(format!(
                                "fix targets attribute {attr} of arity-{arity} tuple {id}"
                            )));
                        }
                    }
                    targets.push((p, id, edits));
                }
                None => missing += 1,
            }
        }
        if missing > 0 {
            return Err(Error::Repair(format!(
                "{missing} fixes target tuples missing from `{}`",
                self.name
            )));
        }
        for (p, id, edits) in targets {
            let mut values = self.tuples[p].to_values();
            for (attr, v) in edits {
                values[attr] = v.clone();
            }
            self.tuples[p] = Tuple::new(id, values);
        }
        Ok(())
    }

    /// Count cells that differ from `other` (same ids assumed) — used by
    /// the repair-quality experiments.
    pub fn diff_cells(&self, other: &Table) -> usize {
        self.tuples
            .iter()
            .zip(other.tuples.iter())
            .map(|(a, b)| {
                a.iter_values()
                    .zip(b.iter_values())
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum()
    }
}

/// Remove the elements of `items` at the strictly ascending `positions`
/// in one `retain` pass — the compaction a table and the columns kept
/// beside it share, so they stay aligned.
pub fn remove_sorted<T>(items: &mut Vec<T>, positions: &[usize]) {
    assert!(
        positions.windows(2).all(|w| w[0] < w[1])
            && positions.last().is_none_or(|&p| p < items.len()),
        "remove_sorted: positions must ascend within 0..{}",
        items.len()
    );
    let mut dead = positions.iter().copied().peekable();
    let mut at = 0usize;
    items.retain(|_| {
        let hit = dead.next_if_eq(&at).is_some();
        at += 1;
        !hit
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::parse("zipcode,city");
        Table::from_rows(
            "D",
            schema,
            vec![
                vec![Value::Int(90210), Value::str("LA")],
                vec![Value::Int(90210), Value::str("SF")],
                vec![Value::Int(60601), Value::str("CH")],
            ],
        )
    }

    #[test]
    fn sequential_ids_and_lookup() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.tuple(1).unwrap().value(1), &Value::str("SF"));
        assert_eq!(t.tuple(9), None);
        assert_eq!(t.cell_value(Cell::new(2, 0)), Some(&Value::Int(60601)));
    }

    #[test]
    fn apply_rewrites_only_targeted_cells() {
        let t = sample();
        let mut fixes = HashMap::new();
        fixes.insert(Cell::new(1, 1), Value::str("LA"));
        let t2 = t.apply(&fixes).unwrap();
        assert_eq!(t2.tuple(1).unwrap().value(1), &Value::str("LA"));
        assert_eq!(t2.tuple(0).unwrap().value(1), &Value::str("LA"));
        assert_eq!(t.diff_cells(&t2), 1);
    }

    #[test]
    fn apply_rejects_unknown_targets() {
        let t = sample();
        let mut fixes = HashMap::new();
        fixes.insert(Cell::new(77, 0), Value::Null);
        assert!(t.apply(&fixes).is_err());
        let mut fixes = HashMap::new();
        fixes.insert(Cell::new(0, 9), Value::Null);
        assert!(t.apply(&fixes).is_err());
    }

    #[test]
    fn apply_at_matches_apply() {
        let t = sample();
        let positions: HashMap<TupleId, usize> = t
            .tuples()
            .iter()
            .enumerate()
            .map(|(i, tu)| (tu.id(), i))
            .collect();
        let mut fixes = HashMap::new();
        fixes.insert(Cell::new(1, 1), Value::str("LA"));
        fixes.insert(Cell::new(2, 0), Value::Int(60602));
        let rebuilt = t.apply(&fixes).unwrap();
        let mut in_place = t;
        in_place
            .apply_at(&fixes, |id| positions.get(&id).copied())
            .unwrap();
        assert_eq!(rebuilt.diff_cells(&in_place), 0);
    }

    #[test]
    fn apply_at_rejects_bad_targets_without_mutating() {
        let t = sample();
        let positions: HashMap<TupleId, usize> = t
            .tuples()
            .iter()
            .enumerate()
            .map(|(i, tu)| (tu.id(), i))
            .collect();
        let mut bad = HashMap::new();
        bad.insert(Cell::new(0, 0), Value::Int(1));
        bad.insert(Cell::new(77, 0), Value::Null);
        let mut scratch = t.clone();
        let position_of = |id| positions.get(&id).copied();
        assert!(scratch.apply_at(&bad, position_of).is_err());
        assert_eq!(
            t.diff_cells(&scratch),
            0,
            "error must leave table unchanged"
        );
        let mut bad = HashMap::new();
        bad.insert(Cell::new(0, 9), Value::Null);
        assert!(scratch.apply_at(&bad, position_of).is_err());
        assert_eq!(t.diff_cells(&scratch), 0);
    }

    #[test]
    fn remove_at_compacts_in_order() {
        let mut t = sample();
        t.push(Tuple::new(9, vec![Value::Int(11111), Value::str("SJ")]));
        t.remove_at(&[0, 2]);
        let ids: Vec<TupleId> = t.tuples().iter().map(Tuple::id).collect();
        assert_eq!(ids, vec![1, 9]);
        t.remove_at(&[]);
        assert_eq!(t.len(), 2);
        let mut col = vec![10u64, 20, 30, 40];
        remove_sorted(&mut col, &[1, 3]);
        assert_eq!(col, vec![10, 30]);
    }

    #[test]
    fn set_at_and_push_edit_in_place() {
        let mut t = sample();
        t.set_at(1, Tuple::new(1, vec![Value::Int(90210), Value::str("LA")]));
        t.push(Tuple::new(9, vec![Value::Int(11111), Value::str("SJ")]));
        assert_eq!(t.len(), 4);
        assert_eq!(t.tuple(1).unwrap().value(1), &Value::str("LA"));
        assert_eq!(t.tuple(9).unwrap().value(1), &Value::str("SJ"));
    }

    #[test]
    fn lookup_survives_non_dense_ids() {
        let schema = Schema::parse("a");
        let tuples = vec![
            Tuple::new(10, vec![Value::Int(1)]),
            Tuple::new(3, vec![Value::Int(2)]),
        ];
        let t = Table::new("D", schema, tuples);
        assert_eq!(t.tuple(3).unwrap().value(0), &Value::Int(2));
        assert_eq!(t.tuple(10).unwrap().value(0), &Value::Int(1));
    }
}
