//! Dynamically typed cell values with a total order.
//!
//! Quality rules compare cells with `{=, ≠, <, >, ≤, ≥}` (§2.1), so
//! [`Value`] implements `Ord` — floats are compared via
//! [`f64::total_cmp`], and values of different types order by a fixed
//! type rank (Null < Int/Float < Str). Numeric `Int`/`Float` values
//! compare *with each other* numerically so that declarative rules work
//! across integer and float columns.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style NULL / missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, ordered with `total_cmp`.
    Float(f64),
    /// UTF-8 string; `Arc` keeps tuple cloning cheap, every clone
    /// sharing the one allocation made when the cell was parsed.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }

    /// Parse a raw field the way the CSV loader does: empty → Null,
    /// otherwise try integer, then float, falling back to string.
    pub fn parse_lossy(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        Value::str(t)
    }

    /// The repair cost distance between two values (§2.1): 0 on exact
    /// match, otherwise 1 for non-numeric pairs and the absolute
    /// difference normalised to (0, 1] ∪ {1} for numeric pairs.
    ///
    /// The paper's cost function only requires `dis(a, a) = 0` and larger
    /// values for "further" repairs; this keeps numeric repairs comparable
    /// while staying bounded.
    pub fn distance(&self, other: &Value) -> f64 {
        if self == other {
            return 0.0;
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => {
                let d = (a - b).abs();
                let m = a.abs().max(b.abs()).max(1.0);
                (d / m).min(1.0)
            }
            _ => 1.0,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            // Clones of one cell (a tuple copied between stages, a
            // repair's value written into other cells) share one `Arc`,
            // so the pointer check settles them before any byte
            // comparison.
            (Value::Str(a), Value::Str(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Float that compare equal must hash equally, so hash
            // integers through their f64 bit pattern when exact.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{arb, check, SplitMix64};

    #[test]
    fn ordering_across_types_is_by_rank() {
        assert!(Value::Null < Value::Int(0));
        assert!(Value::Int(7) < Value::str("a"));
        assert!(Value::Float(1.5) < Value::str(""));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn equal_int_float_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(42)), h(&Value::Float(42.0)));
    }

    #[test]
    fn parse_lossy_types() {
        assert_eq!(Value::parse_lossy("42"), Value::Int(42));
        assert_eq!(Value::parse_lossy("4.5"), Value::Float(4.5));
        assert_eq!(Value::parse_lossy(" NY "), Value::str("NY"));
        assert_eq!(Value::parse_lossy(""), Value::Null);
        assert_eq!(Value::parse_lossy("  "), Value::Null);
    }

    #[test]
    fn distance_properties() {
        assert_eq!(Value::str("a").distance(&Value::str("a")), 0.0);
        assert_eq!(Value::str("a").distance(&Value::str("b")), 1.0);
        let d = Value::Int(10).distance(&Value::Int(11));
        assert!(d > 0.0 && d < 1.0);
        assert_eq!(Value::Int(10).distance(&Value::str("10x")), 1.0);
    }

    #[test]
    fn display_roundtrip_for_strings() {
        assert_eq!(Value::str("LA").to_string(), "LA");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }

    /// Null, any `i64`, any `f64` bit pattern, or a `[a-z]{0,8}` string.
    fn arb_value(g: &mut SplitMix64) -> Value {
        match g.range(0..4) {
            0 => Value::Null,
            1 => Value::Int(g.next_u64() as i64),
            2 => Value::Float(arb::f64(g)),
            _ => {
                let len = g.range(0..=8);
                let s: String = (0..len).map(|_| char::from(g.range(b'a'..=b'z'))).collect();
                Value::from(s)
            }
        }
    }

    #[test]
    fn ord_is_total_and_antisymmetric() {
        check(256, |g| {
            let (a, b) = (arb_value(g), arb_value(g));
            assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        });
    }

    #[test]
    fn ord_is_transitive() {
        check(256, |g| {
            let mut v = [arb_value(g), arb_value(g), arb_value(g)];
            v.sort();
            assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
        });
    }

    #[test]
    fn eq_implies_equal_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher as _;
        check(256, |g| {
            let (a, b) = (arb_value(g), arb_value(g));
            if a == b {
                let mut ha = DefaultHasher::new();
                a.hash(&mut ha);
                let mut hb = DefaultHasher::new();
                b.hash(&mut hb);
                assert_eq!(ha.finish(), hb.finish());
            }
        });
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        check(256, |g| {
            let (a, b) = (arb_value(g), arb_value(g));
            let d1 = a.distance(&b);
            let d2 = b.distance(&a);
            assert!((d1 - d2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&d1));
        });
    }
}
