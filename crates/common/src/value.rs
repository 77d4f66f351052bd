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
use std::ops::Deref;
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
    /// UTF-8 string: up to [`Text::INLINE`] bytes held in the cell
    /// itself, a longer one in an `Arc` every clone shares.
    Str(Text),
}

// A string cell of up to 22 bytes costs no allocation only while the
// whole value stays three words.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

/// The string of a [`Value::Str`] cell.
///
/// A string of at most [`Text::INLINE`] bytes is stored inline, so
/// parsing, cloning and dropping it touch no heap; a longer one keeps
/// one shared `Arc<str>`. Every constructor goes through [`Text::new`],
/// so equal strings always have the same representation. Comparison
/// and hashing read the bytes alone: `Ord` is `str` order and `Hash`
/// writes what hashing the `&str` writes.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Text::INLINE] },
    Shared(Arc<str>),
}

impl Text {
    /// The longest string held inline: what fits beside the tags in
    /// a 24-byte [`Value`].
    pub const INLINE: usize = 22;

    /// Store `s`, inline when it fits.
    pub fn new(s: &str) -> Text {
        match s.len() {
            len @ 0..=Text::INLINE => {
                let mut bytes = [0; Text::INLINE];
                bytes[..len].copy_from_slice(s.as_bytes());
                Text(Repr::Inline {
                    len: len as u8,
                    bytes,
                })
            }
            _ => Text(Repr::Shared(Arc::from(s))),
        }
    }

    /// The string's bytes, read without a UTF-8 check.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes are copied from a str")
            }
            Repr::Shared(s) => s,
        }
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// Byte order, which is `str` order. Clones of one long cell (a
    /// tuple copied between stages, a repair's value written into other
    /// cells) share one `Arc`, so the pointer check settles them before
    /// any byte comparison.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Shared(a), Repr::Shared(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl Hash for Text {
    /// What `str`'s `Hash` writes: the bytes, then `0xff`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Text::new(s.as_ref()))
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
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{arb, check, SplitMix64};
    use crate::stable_hash_of;

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

    /// 0–40 bytes of letters (none spells a float, so `parse_lossy`
    /// keeps the string) and `é`, `€`, `😀`; every other case puts one
    /// multi-byte char across the inline limit.
    fn arb_text(g: &mut SplitMix64) -> String {
        const WIDE: [char; 3] = ['é', '€', '😀'];
        let target = g.range(0..=40);
        let mut s = String::new();
        if g.range(0..2) == 0 {
            let c = WIDE[g.range(0..3usize)];
            let start = Text::INLINE - g.range(1..c.len_utf8());
            s.extend(std::iter::repeat_n('o', start));
            s.push(c);
        }
        while s.len() < target {
            let c = match g.range(0..4) {
                0 => WIDE[g.range(0..3usize)],
                _ => char::from(g.range(b'o'..=b'z')),
            };
            s.push(if s.len() + c.len_utf8() <= 40 { c } else { 'o' });
        }
        s
    }

    #[test]
    fn every_constructor_builds_one_text() {
        use crate::codec::Codec;
        check(512, |g| {
            let s = arb_text(g);
            let v = Value::str(&s);
            let Value::Str(text) = &v else {
                panic!("{s:?} is not a string")
            };
            assert_eq!(
                matches!(text.0, Repr::Inline { .. }),
                s.len() <= Text::INLINE
            );
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            let mut built = vec![
                Value::from(s.clone()),
                Value::decode(&mut &bytes[..]).unwrap(),
            ];
            if !s.is_empty() {
                let csv = crate::csv::parse_str("t", &format!("s\n{s}\n"), true, None).unwrap();
                built.extend([Value::parse_lossy(&s), csv.tuples()[0].value(0).clone()]);
            }
            for other in &built {
                assert_eq!(other, &v, "{s:?}");
                assert_eq!(stable_hash_of(other), stable_hash_of(&v));
            }
            assert_eq!(v.to_string(), s);
            let t = arb_text(g);
            assert_eq!(v.cmp(&Value::str(&t)), s.as_str().cmp(&t), "{s:?} vs {t:?}");
        });
    }

    /// Taken from the `Arc<str>` cells that preceded inline ones: the
    /// stable hash and the codec bytes of a 22-byte string, a 23-byte
    /// one and one whose `€` straddles byte 22.
    #[test]
    fn string_hash_and_codec_are_pinned() {
        use crate::codec::Codec;
        let pins = [
            (
                "abcdefghijklmnopqrstuv",
                0x3c44fba900ba4196,
                "0316000000000000006162636465666768696a6b6c6d6e6f70717273747576",
            ),
            (
                "abcdefghijklmnopqrstuvw",
                0x1659e407d79acc5c,
                "0317000000000000006162636465666768696a6b6c6d6e6f7071727374757677",
            ),
            (
                "aaaaaaaaaaaaaaaaaaaa€",
                0x717b4b126e6ebf04,
                "0317000000000000006161616161616161616161616161616161616161e282ac",
            ),
        ];
        for (s, hash, codec) in pins {
            let v = Value::str(s);
            assert_eq!(stable_hash_of(&v), hash, "{s:?}");
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, codec, "{s:?}");
        }
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
