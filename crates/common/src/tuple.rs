//! Data units and elements (§2.1 of the paper).
//!
//! A [`Tuple`] is the relational *data unit*: a stable identifier plus a
//! shared slice of [`Value`]s. A [`Cell`] names one *element* of a unit —
//! the `(tuple id, attribute)` pair that violations and fixes refer to.
//!
//! Tuples are zero-copy throughout the detect hot path: the payload is a
//! shared `Arc<[Value]>`, and `Scope` projections are *views* — the
//! payload plus a logical→physical column map — so neither cloning a
//! tuple nor projecting it copies cell values. The column map is owned
//! by the view (inline for up to six columns), so cloning or dropping a
//! view touches only its own row's refcount, never one that every view
//! of a rule shares across workers.

use crate::metrics::record_deep_clones;
use crate::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Stable tuple identifier, assigned at load time and preserved across
/// `Scope` projections so fixes can be applied back to the source table.
pub type TupleId = u64;

/// Sentinel selector entry: logical column reads as `Value::Null`.
const NULL_COL: u32 = u32::MAX;

/// Most columns a view keeps inline; wider maps go to the heap.
const INLINE_COLS: usize = 6;

static NULL: Value = Value::Null;

/// A rule's precomputed projection selector: logical column → physical
/// column.
///
/// Build one per rule (not per tuple) with [`Tuple::selector`] and apply
/// it with [`Tuple::project_shared`]. A view copies the selector's
/// entries into its own column map rather than holding the `Arc`, so
/// projecting costs one bump of the row's refcount and no `Value`
/// traffic.
pub type Selector = Arc<[u32]>;

/// A view's logical→physical column map. Up to [`INLINE_COLS`] entries
/// live inside the tuple as `u16`s; wider maps (or payloads too wide
/// for `u16` positions) sit behind a one-pointer box that each view
/// owns. Entries past the payload's end read as `Value::Null`.
#[derive(Clone, PartialEq, Eq)]
enum ColMap {
    /// Logical column `i` is physical column `i`.
    Identity,
    /// The first `len` entries of `cols`.
    Inline { len: u8, cols: [u16; INLINE_COLS] },
    /// Wider maps.
    Heap(Box<Box<[u32]>>),
}

impl ColMap {
    /// The map of a view over a payload of `width` columns whose
    /// logical columns are the physical columns `phys`.
    fn new(phys: impl ExactSizeIterator<Item = u32>, width: usize) -> ColMap {
        let len = phys.len();
        if len > INLINE_COLS || width >= usize::from(u16::MAX) {
            return ColMap::Heap(Box::new(phys.collect()));
        }
        // every payload position fits below u16::MAX, so the clamped
        // sentinel stays out of range and reads as Null
        let mut cols = [u16::MAX; INLINE_COLS];
        for (c, p) in cols.iter_mut().zip(phys) {
            *c = u16::try_from(p).unwrap_or(u16::MAX);
        }
        ColMap::Inline {
            len: len as u8,
            cols,
        }
    }

    /// The physical column behind logical column `idx` of a tuple whose
    /// payload is `width` columns wide, or `None` when `idx` is past the
    /// tuple's arity.
    #[inline]
    fn physical(&self, idx: usize, width: usize) -> Option<usize> {
        match self {
            ColMap::Identity => (idx < width).then_some(idx),
            ColMap::Inline { len, cols } => cols[..usize::from(*len)].get(idx).map(|&p| p.into()),
            ColMap::Heap(cols) => cols.get(idx).map(|&p| p as usize),
        }
    }
}

/// A relational data unit.
///
/// Cloning is O(1): the cell payload is behind an `Arc`, which is what
/// makes replicating tuples into multiple data flows (the paper's labeled
/// copies, Appendix A) affordable. Equality and hashing are *logical* —
/// a projection view and its materialization compare equal.
#[derive(Clone)]
pub struct Tuple {
    id: TupleId,
    values: Arc<[Value]>,
    /// Logical→physical column map of a projection view.
    sel: ColMap,
}

// An id, a payload handle and the column map: every shuffle record and
// bucket entry is sized by this, so the inline map must fit in 16 bytes.
const _: () = assert!(std::mem::size_of::<Tuple>() == 40);

impl Tuple {
    /// Build a tuple with an explicit id.
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple {
            id,
            values: values.into(),
            sel: ColMap::Identity,
        }
    }

    /// The tuple's stable identifier.
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// Number of (logical) cells.
    pub fn arity(&self) -> usize {
        match &self.sel {
            ColMap::Identity => self.values.len(),
            ColMap::Inline { len, .. } => usize::from(*len),
            ColMap::Heap(cols) => cols.len(),
        }
    }

    /// Whether this tuple is a projection view over a wider payload.
    pub fn is_view(&self) -> bool {
        self.sel != ColMap::Identity
    }

    /// Borrow the cell value at `idx`; panics if out of range (mirrors the
    /// paper's `getCellValue`, which assumes in-schema access).
    #[inline]
    pub fn value(&self, idx: usize) -> &Value {
        match self.get(idx) {
            Some(v) => v,
            None => panic!(
                "cell {idx} out of range for a tuple of arity {}",
                self.arity()
            ),
        }
    }

    /// Borrow the cell value at `idx`, or `None` when out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        let p = self.sel.physical(idx, self.values.len())?;
        Some(self.values.get(p).unwrap_or(&NULL))
    }

    /// Iterate the logical cell values without materializing them.
    pub fn iter_values(&self) -> impl Iterator<Item = &Value> + '_ {
        (0..self.arity()).map(move |i| self.value(i))
    }

    /// Materialize the logical row as an owned `Vec<Value>`. This is a
    /// deep payload copy, counted in the `tuples_cloned` metric of the
    /// engine whose task makes it; the detect hot path never calls it.
    pub fn to_values(&self) -> Vec<Value> {
        record_deep_clones(1);
        self.iter_values().cloned().collect()
    }

    /// Build a rule's selector from attribute indices. Indices beyond
    /// `u32::MAX` (practically: none) read as `Value::Null`.
    pub fn selector(indices: &[usize]) -> Selector {
        indices
            .iter()
            .map(|&i| u32::try_from(i).unwrap_or(NULL_COL))
            .collect()
    }

    /// A zero-copy projection view with the same id: keeps only the
    /// columns named by `sel` (Scope). Out-of-range entries yield
    /// `Value::Null`, keeping the operator total as required for
    /// UDF-provided scopes. Projecting an existing view composes the
    /// maps. The view copies `sel`'s entries into its own column map, so
    /// `sel`'s refcount is never touched: the one refcount projecting
    /// writes is the row's own.
    pub fn project_shared(&self, sel: &Selector) -> Tuple {
        let width = self.values.len();
        let phys = sel.iter().map(|&i| {
            let p = self.sel.physical(i as usize, width);
            p.map_or(NULL_COL, |p| u32::try_from(p).unwrap_or(NULL_COL))
        });
        Tuple {
            id: self.id,
            values: Arc::clone(&self.values),
            sel: ColMap::new(phys, width),
        }
    }

    /// A projection view built from ad-hoc indices; prefer
    /// [`Tuple::project_shared`] with a rule-cached [`Selector`] on hot
    /// paths so the selector is allocated once, not per tuple.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        self.project_shared(&Tuple::selector(indices))
    }

    /// A new tuple with the same id and `idx` replaced by `v`. This
    /// materializes the row (a deep copy, see [`Tuple::to_values`]); it
    /// runs on the repair path, not during detection.
    pub fn with_value(&self, idx: usize, v: Value) -> Tuple {
        let mut values = self.to_values();
        values[idx] = v;
        Tuple::new(self.id, values)
    }

    /// The [`Cell`] handle for attribute `idx` of this tuple.
    pub fn cell(&self, idx: usize) -> Cell {
        Cell {
            tuple: self.id,
            attr: idx as u32,
        }
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        if self.id != other.id || self.arity() != other.arity() {
            return false;
        }
        // Views over the same payload with the same column map are
        // equal without touching values.
        if Arc::ptr_eq(&self.values, &other.values) && self.sel == other.sel {
            return true;
        }
        self.iter_values().eq(other.iter_values())
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        state.write_usize(self.arity());
        for v in self.iter_values() {
            v.hash(state);
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}(", self.id)?;
        for (i, v) in self.iter_values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// An element: one attribute of one data unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Owning tuple.
    pub tuple: TupleId,
    /// Attribute index within the *source* schema.
    pub attr: u32,
}

impl Cell {
    /// Construct a cell handle.
    pub fn new(tuple: TupleId, attr: usize) -> Self {
        Cell {
            tuple,
            attr: attr as u32,
        }
    }

    /// Dense encoding used as a graph-node id by the repair hypergraph.
    pub fn encode(&self) -> u64 {
        (self.tuple << 16) | (self.attr as u64 & 0xFFFF)
    }

    /// Inverse of [`Cell::encode`].
    pub fn decode(code: u64) -> Cell {
        Cell {
            tuple: code >> 16,
            attr: (code & 0xFFFF) as u32,
        }
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}[{}]", self.tuple, self.attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::check;

    fn tup() -> Tuple {
        Tuple::new(
            7,
            vec![Value::str("Annie"), Value::Int(10001), Value::str("NY")],
        )
    }

    #[test]
    fn accessors() {
        let t = tup();
        assert_eq!(t.id(), 7);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(2), &Value::str("NY"));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn projection_keeps_id_and_pads_nulls() {
        let t = tup();
        let p = t.project(&[1, 2, 9]);
        assert_eq!(p.id(), 7);
        assert_eq!(
            p.to_values(),
            vec![Value::Int(10001), Value::str("NY"), Value::Null]
        );
        assert_eq!(p.get(1), Some(&Value::str("NY")));
        assert_eq!(p.get(2), Some(&Value::Null));
        assert_eq!(p.get(3), None);
    }

    #[test]
    fn projection_is_a_view_not_a_copy() {
        let t = tup();
        crate::metrics::swap_deep_clones(0);
        let p = t.project(&[1, 2]);
        assert!(p.is_view());
        assert!(Arc::ptr_eq(&t.values, &p.values), "payload must be shared");
        assert_eq!(
            crate::metrics::swap_deep_clones(0),
            0,
            "projection must not deep-copy values"
        );
    }

    #[test]
    fn projection_composes() {
        let t = tup();
        let p = t.project(&[2, 1, 0]).project(&[1, 0, 5]);
        assert_eq!(p.value(0), &Value::Int(10001));
        assert_eq!(p.value(1), &Value::str("NY"));
        assert_eq!(p.value(2), &Value::Null);
        assert!(Arc::ptr_eq(&t.values, &p.values));
    }

    #[test]
    fn views_never_hold_the_rule_selector() {
        let t = tup();
        let sel = Tuple::selector(&[2, 0]);
        let views: Vec<Tuple> = (0..4).map(|_| t.project_shared(&sel)).collect();
        let clones = views.clone();
        assert_eq!(Arc::strong_count(&sel), 1, "views copy the map inline");
        assert_eq!(Arc::strong_count(&t.values), 1 + 2 * views.len());
        assert_eq!(clones[3].value(0), &Value::str("NY"));
    }

    #[test]
    fn wide_views_spill_the_map_and_read_the_same() {
        let row: Vec<Value> = (0..10).map(Value::Int).collect();
        let t = Tuple::new(1, row);
        let idx = [9, 8, 7, 6, 5, 4, 3, 42];
        let wide = t.project(&idx);
        assert!(matches!(wide.sel, ColMap::Heap(_)));
        assert_eq!(wide.arity(), idx.len());
        assert_eq!(wide.value(0), &Value::Int(9));
        assert_eq!(wide.value(7), &Value::Null);
        assert_eq!(wide.get(8), None);
        // composing a wide view down to a narrow one inlines again
        let narrow = wide.project(&[1, 7, 20]);
        assert!(matches!(narrow.sel, ColMap::Inline { len: 3, .. }));
        assert_eq!(
            narrow.to_values(),
            vec![Value::Int(8), Value::Null, Value::Null]
        );
        assert_eq!(wide.clone(), wide);
        assert_eq!(Tuple::new(1, wide.to_values()), wide);
    }

    #[test]
    fn view_equals_its_materialization() {
        let t = tup();
        let view = t.project(&[1, 2]);
        let deep = Tuple::new(7, view.to_values());
        assert_eq!(view, deep);
        use std::collections::hash_map::DefaultHasher;
        let h = |t: &Tuple| {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&view), h(&deep));
    }

    #[test]
    fn with_value_is_persistent() {
        let t = tup();
        let t2 = t.with_value(2, Value::str("LA"));
        assert_eq!(t.value(2), &Value::str("NY"));
        assert_eq!(t2.value(2), &Value::str("LA"));
        assert_eq!(t2.id(), t.id());
    }

    #[test]
    fn clone_is_shallow() {
        let t = tup();
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.values, &c.values));
    }

    #[test]
    fn cell_roundtrip() {
        let c = Cell::new(123456, 5);
        assert_eq!(Cell::decode(c.encode()), c);
    }

    #[test]
    fn cell_encode_is_injective() {
        check(256, |g| {
            let c1 = Cell::new(g.range(0u64..1 << 40), g.range(0usize..100));
            let c2 = Cell::new(g.range(0u64..1 << 40), g.range(0usize..100));
            assert_eq!(c1 == c2, c1.encode() == c2.encode());
        });
    }
}
