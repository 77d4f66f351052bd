//! The [`Rule`] trait: BigDansing's five-operator abstraction (§3.1).
//!
//! `Detect` and `GenFix` are the two fundamental functions every rule
//! must provide; `Scope` and `Block` are the scalability hooks; `Iterate`
//! is owned by the planner (it materializes candidate units from blocks)
//! but rules steer it through [`Rule::unit_kind`], [`Rule::symmetric`],
//! and [`Rule::ordering_conditions`].

use crate::ops::{DetectUnit, Op, UnitKind};
use crate::violation::{Fix, Violation};
use bigdansing_common::{LshParams, Tuple, Value};

/// A blocking key: one or more values extracted from a data unit.
/// Composite keys block on several attributes at once.
///
/// `Clone` is instrumented: every deep copy bumps the process-wide
/// deep-clone counter (see `bigdansing_common::metrics`), so the
/// zero-copy regression tests can assert the detect hot path extracts
/// each key exactly once and routes it by [`KeyId`] thereafter.
///
/// [`KeyId`]: bigdansing_common::KeyId
#[derive(Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey(Vec<Value>);

impl BlockKey {
    /// An empty key.
    pub fn new() -> BlockKey {
        BlockKey(Vec::new())
    }

    /// A single-attribute key.
    pub fn single(v: Value) -> BlockKey {
        BlockKey(vec![v])
    }

    /// The key's values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Consume the key, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Append one more attribute value to a composite key.
    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }
}

impl Clone for BlockKey {
    fn clone(&self) -> Self {
        bigdansing_common::metrics::record_deep_clones(1);
        BlockKey(self.0.clone())
    }
}

impl From<Vec<Value>> for BlockKey {
    fn from(values: Vec<Value>) -> Self {
        BlockKey(values)
    }
}

impl FromIterator<Value> for BlockKey {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        BlockKey(iter.into_iter().collect())
    }
}

impl std::ops::Deref for BlockKey {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

/// One ordering-comparison join condition of a rule, used by the planner
/// to route candidate generation to OCJoin (§4.3). Attribute indices are
/// in *scoped* (post-Scope) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderCond {
    /// Attribute of the left tuple.
    pub left_attr: usize,
    /// The ordering comparison (`<, >, ≤, ≥`).
    pub op: Op,
    /// Attribute of the right tuple.
    pub right_attr: usize,
}

/// A data-quality rule.
///
/// Implementations must be thread-safe: the engine invokes the operators
/// from many workers concurrently.
pub trait Rule: Send + Sync {
    /// A stable identifier, used to label violations.
    fn name(&self) -> &str;

    /// `Scope(U) → list⟨U⟩`: keep/transform the units relevant to this
    /// rule. The default keeps everything. Returning an empty vector
    /// drops the unit; returning several replicates it.
    ///
    /// Scoped tuples keep their original ids, and any cells emitted by
    /// `detect`/`gen_fix` must reference **source-schema attribute
    /// indices** so fixes can be applied to the base table.
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        vec![unit.clone()]
    }

    /// `Block(U) → key`: the blocking key under which violations may
    /// occur, or `None` when the rule cannot block (candidates are then
    /// generated with UCrossProduct / OCJoin over the whole scope).
    ///
    /// Contract: for a given rule this must return `Some` for every unit
    /// or `None` for every unit, consistently with [`Rule::blocks`].
    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        let _ = unit;
        None
    }

    /// Whether this rule provides a Block operator — the planner's
    /// data-independent view of [`Rule::block`].
    fn blocks(&self) -> bool {
        false
    }

    /// The source-schema columns this rule's Block key is made of, when
    /// it is exactly their values: every Scope output `u` of a tuple `t`
    /// has `block(u)` equal to `t`'s values at these columns, in order.
    /// Rules that declare the same columns share one Block pass — one
    /// shuffle, one bucket build, one session index. `None` (the
    /// default) for rules whose key is computed (prefixes, signatures,
    /// UDFs) or that do not block.
    fn block_columns(&self) -> Option<&[usize]> {
        None
    }

    /// MinHash/LSH blocking parameters, when this rule wants multi-key
    /// LSH candidate generation instead of a single [`Rule::block`]
    /// prefix key. Similarity rules (Levenshtein dedup, fuzzy-match
    /// UDFs) return `Some`; the planner then routes the rule to the
    /// `LshBlocks` Iterate strategy and takes precedence over
    /// [`Rule::blocks`].
    fn lsh(&self) -> Option<LshParams> {
        None
    }

    /// One bucket hash per LSH band for `unit` — the multi-key analogue
    /// of [`Rule::block`]. Must return exactly `bands` hashes for every
    /// unit when [`Rule::lsh`] is `Some` (and is never called
    /// otherwise). The default returns no hashes.
    fn lsh_band_hashes(&self, unit: &Tuple, bands: usize, rows_per_band: usize) -> Vec<u64> {
        let _ = (unit, bands, rows_per_band);
        Vec::new()
    }

    /// The Detect input shape the planner must produce.
    fn unit_kind(&self) -> UnitKind {
        UnitKind::Pair
    }

    /// True when `detect` is invariant under swapping the pair — allows
    /// the UCrossProduct enhancer (each unordered pair visited once).
    fn symmetric(&self) -> bool {
        true
    }

    /// Ordering-comparison join conditions, if any, for OCJoin routing.
    fn ordering_conditions(&self) -> Vec<OrderCond> {
        Vec::new()
    }

    /// `Detect(U | ⟨Ui,Uj⟩ | list⟨U⟩) → list⟨violation⟩`. The unit
    /// lends the candidate's tuples; anything a violation keeps is
    /// copied out of them (cell values), never the tuples themselves.
    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation>;

    /// `GenFix(violation) → possible fixes`.
    fn gen_fix(&self, violation: &Violation) -> Vec<Fix>;
}

/// Convenience helpers layered on every rule.
pub trait RuleExt: Rule {
    /// Detect over an explicit pair, lent to the rule as is.
    fn detect_pair(&self, a: &Tuple, b: &Tuple) -> Vec<Violation> {
        self.detect(&DetectUnit::Pair(a, b))
    }

    /// Run detect + gen_fix over a pair, returning `(violations, fixes)`.
    fn detect_and_fix_pair(&self, a: &Tuple, b: &Tuple) -> (Vec<Violation>, Vec<Fix>) {
        let vs = self.detect_pair(a, b);
        let fixes = vs.iter().flat_map(|v| self.gen_fix(v)).collect();
        (vs, fixes)
    }
}

impl<R: Rule + ?Sized> RuleExt for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Cell;

    /// A toy rule: two units with equal attr-0 but different attr-1
    /// violate; fix equalizes attr-1.
    struct Toy;

    impl Rule for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn block(&self, unit: &Tuple) -> Option<BlockKey> {
            Some(BlockKey::single(unit.value(0).clone()))
        }
        fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
            let (a, b) = input.as_pair();
            if a.value(0) == b.value(0) && a.value(1) != b.value(1) {
                vec![Violation::new("toy")
                    .with_cell(a.cell(1), a.value(1).clone())
                    .with_cell(b.cell(1), b.value(1).clone())]
            } else {
                vec![]
            }
        }
        fn gen_fix(&self, v: &Violation) -> Vec<Fix> {
            let (c1, v1) = &v.cells()[0];
            let (c2, v2) = &v.cells()[1];
            vec![Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone())]
        }
    }

    #[test]
    fn defaults_are_sane() {
        let r = Toy;
        let t = Tuple::new(0, vec![Value::Int(1), Value::str("x")]);
        assert_eq!(r.scope(&t), vec![t.clone()]);
        assert_eq!(r.unit_kind(), UnitKind::Pair);
        assert!(r.symmetric());
        assert!(r.ordering_conditions().is_empty());
        assert_eq!(r.block(&t), Some(BlockKey::single(Value::Int(1))));
    }

    #[test]
    fn detect_and_fix_pair_helper() {
        let r = Toy;
        let a = Tuple::new(0, vec![Value::Int(1), Value::str("x")]);
        let b = Tuple::new(1, vec![Value::Int(1), Value::str("y")]);
        let (vs, fixes) = r.detect_and_fix_pair(&a, &b);
        assert_eq!(vs.len(), 1);
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].left, Cell::new(0, 1));
        let c = Tuple::new(2, vec![Value::Int(2), Value::str("x")]);
        assert!(r.detect_pair(&a, &c).is_empty());
    }

    /// The [`Rule::block_columns`] contract over random tuples: every
    /// Scope output's Block key is its source tuple's values at the
    /// declared columns — including for a CFD whose Scope drops some of
    /// them — and rules whose key is computed declare none.
    #[test]
    fn block_columns_name_every_scope_outputs_block_key() {
        use crate::{CfdRule, DcRule, DedupRule, FdRule, UdfRule};
        use bigdansing_common::rng::check;
        use bigdansing_common::{LshParams, Schema};
        let schema = Schema::parse("name,zipcode,city,state,rate");
        let rules: Vec<Box<dyn Rule>> = vec![
            Box::new(FdRule::parse("zipcode, state -> city", &schema).unwrap()),
            Box::new(CfdRule::parse("zipcode -> city | zipcode=1, city=_", &schema).unwrap()),
            Box::new(
                DcRule::parse(
                    "t1.state = t2.state & t1.zipcode = t2.zipcode & t1.rate > t2.rate",
                    &schema,
                )
                .unwrap(),
            ),
        ];
        let pick = |g: &mut bigdansing_common::rng::SplitMix64, of: &[&str]| {
            Value::str(of[g.range(0..of.len())])
        };
        let (mut kept, mut dropped) = (0, 0);
        check(64, |g| {
            let t = Tuple::new(
                g.range(0..1000),
                vec![
                    pick(g, &["ann", "bob"]),
                    Value::Int(g.range(0..3)),
                    pick(g, &["LA", "SF", "NY"]),
                    pick(g, &["CA", "NY"]),
                    Value::Int(g.range(0..50)),
                ],
            );
            for rule in &rules {
                let cols = rule.block_columns().expect("blocks on source columns");
                let key: BlockKey = cols.iter().map(|&c| t.value(c).clone()).collect();
                let scoped = rule.scope(&t);
                match scoped.len() {
                    0 => dropped += 1,
                    _ => kept += 1,
                }
                for unit in &scoped {
                    assert_eq!(rule.block(unit).as_ref(), Some(&key), "{}", rule.name());
                }
            }
        });
        assert!(kept > 0 && dropped > 0, "kept {kept}, dropped {dropped}");
        let computed: Vec<Box<dyn Rule>> = vec![
            Box::new(CfdRule::parse("zipcode -> city | zipcode=1, city=LA", &schema).unwrap()),
            Box::new(DedupRule::new("udf:dedup", 0, 0.8).with_lsh(LshParams::default())),
            Box::new(DedupRule::new("udf:dedup", 0, 0.8)),
            Box::new(UdfRule::builder("udf:any", |_| Vec::new()).build()),
        ];
        for rule in &computed {
            assert_eq!(rule.block_columns(), None, "{}", rule.name());
        }
    }

    #[test]
    fn trait_objects_work() {
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(Toy)];
        let a = Tuple::new(0, vec![Value::Int(1), Value::str("x")]);
        let b = Tuple::new(1, vec![Value::Int(1), Value::str("y")]);
        assert_eq!(rules[0].detect_pair(&a, &b).len(), 1);
    }
}
