//! Fully procedural rules from closures.
//!
//! This is the paper's UDF path: "rules can implement any detection and
//! repair method expressible with procedural code … as long as they
//! implement the signatures of the two abstract functions" (§2.1). The
//! builder mirrors the operator templates of Appendix B — provide any
//! subset of Scope / Block / Iterate hints, and at least `detect`.
//!
//! # Fault isolation
//!
//! UDF closures are untrusted code from the engine's point of view: a
//! panic inside `detect`/`gen_fix` is caught at the task layer, retried
//! only if the payload varies (a repeated payload short-circuits the
//! retry budget), and — when the job runs with partial isolation —
//! charged to this rule rather than the job: the rule is quarantined
//! for the rest of the job (or session), and other rules' detection and
//! repair proceed untouched. UDFs therefore don't need defensive
//! `catch_unwind` wrappers of their own.

use crate::ops::{DetectUnit, UnitKind};
use crate::rule::{BlockKey, OrderCond, Rule};
use crate::violation::{Fix, Violation};
use bigdansing_common::minhash::{self, LshParams};
use bigdansing_common::Tuple;
use std::sync::Arc;

type ScopeFn = Arc<dyn Fn(&Tuple) -> Vec<Tuple> + Send + Sync>;
type BlockFn = Arc<dyn Fn(&Tuple) -> Option<BlockKey> + Send + Sync>;
type DetectFn = Arc<dyn Fn(&DetectUnit) -> Vec<Violation> + Send + Sync>;
type GenFixFn = Arc<dyn Fn(&Violation) -> Vec<Fix> + Send + Sync>;

/// A rule assembled from user closures.
#[derive(Clone)]
pub struct UdfRule {
    name: String,
    scope: Option<ScopeFn>,
    block: Option<BlockFn>,
    detect: DetectFn,
    gen_fix: Option<GenFixFn>,
    unit_kind: UnitKind,
    symmetric: bool,
    ordering: Vec<OrderCond>,
    /// `(string attribute, params)` for MinHash/LSH candidate
    /// generation; supersedes `block` when set.
    lsh: Option<(usize, LshParams)>,
}

/// Builder for [`UdfRule`].
pub struct UdfRuleBuilder {
    inner: UdfRule,
}

impl UdfRule {
    /// Start building a UDF rule around a `Detect` function. The closure
    /// is handed a [`DetectUnit`] that borrows the candidate's tuples:
    /// read cells through the borrows and copy out only the values a
    /// violation keeps.
    ///
    /// ```
    /// use bigdansing_common::{Tuple, Value};
    /// use bigdansing_rules::{DetectUnit, Rule, RuleExt, UdfRule, Violation};
    ///
    /// let phi_f = UdfRule::builder("udf:phiF", |unit| match *unit {
    ///     DetectUnit::Pair(a, b) if a.value(0) == b.value(0) && a.value(1) != b.value(1) => {
    ///         vec![Violation::new("udf:phiF")
    ///             .with_cell(a.cell(1), a.value(1).clone())
    ///             .with_cell(b.cell(1), b.value(1).clone())]
    ///     }
    ///     _ => vec![],
    /// })
    /// .build();
    /// let la = Tuple::new(1, vec![Value::Int(90210), Value::str("LA")]);
    /// let sf = Tuple::new(3, vec![Value::Int(90210), Value::str("SF")]);
    /// assert_eq!(phi_f.detect(&DetectUnit::Pair(&la, &sf)).len(), 1);
    /// assert_eq!(phi_f.detect_pair(&la, &la).len(), 0);
    /// ```
    pub fn builder(
        name: impl Into<String>,
        detect: impl Fn(&DetectUnit) -> Vec<Violation> + Send + Sync + 'static,
    ) -> UdfRuleBuilder {
        UdfRuleBuilder {
            inner: UdfRule {
                name: name.into(),
                scope: None,
                block: None,
                detect: Arc::new(detect),
                gen_fix: None,
                unit_kind: UnitKind::Pair,
                symmetric: true,
                ordering: Vec::new(),
                lsh: None,
            },
        }
    }
}

impl UdfRuleBuilder {
    /// Provide a Scope operator.
    pub fn scope(mut self, f: impl Fn(&Tuple) -> Vec<Tuple> + Send + Sync + 'static) -> Self {
        self.inner.scope = Some(Arc::new(f));
        self
    }

    /// Provide a Block operator.
    pub fn block(mut self, f: impl Fn(&Tuple) -> Option<BlockKey> + Send + Sync + 'static) -> Self {
        self.inner.block = Some(Arc::new(f));
        self
    }

    /// Provide a GenFix operator (detect-only jobs write violations to
    /// disk instead, §3.2).
    pub fn gen_fix(mut self, f: impl Fn(&Violation) -> Vec<Fix> + Send + Sync + 'static) -> Self {
        self.inner.gen_fix = Some(Arc::new(f));
        self
    }

    /// Declare the Detect input shape (default: pairs).
    pub fn unit_kind(mut self, kind: UnitKind) -> Self {
        self.inner.unit_kind = kind;
        self
    }

    /// Declare whether Detect is order-insensitive (default: true).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.inner.symmetric = yes;
        self
    }

    /// Declare ordering join conditions for OCJoin routing.
    pub fn ordering_conditions(mut self, conds: Vec<OrderCond>) -> Self {
        self.inner.ordering = conds;
        self
    }

    /// Declare MinHash/LSH candidate generation over the string in
    /// `attr` — the similarity-UDF analogue of
    /// [`crate::DedupRule::with_lsh`]. Supersedes any `block` closure.
    pub fn lsh(mut self, attr: usize, params: LshParams) -> Self {
        self.inner.lsh = Some((attr, params));
        self
    }

    /// Finish the rule.
    pub fn build(self) -> UdfRule {
        self.inner
    }
}

impl Rule for UdfRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        match &self.scope {
            Some(f) => f(unit),
            None => vec![unit.clone()],
        }
    }

    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        if self.lsh.is_some() {
            return None;
        }
        self.block.as_ref().and_then(|f| f(unit))
    }

    fn blocks(&self) -> bool {
        self.block.is_some() && self.lsh.is_none()
    }

    fn lsh(&self) -> Option<LshParams> {
        self.lsh.map(|(_, p)| p)
    }

    fn lsh_band_hashes(&self, unit: &Tuple) -> Vec<u64> {
        let Some((attr, params)) = &self.lsh else {
            return Vec::new();
        };
        let s = unit.value(*attr).as_str().unwrap_or("");
        minhash::band_hashes(s, params)
    }

    fn unit_kind(&self) -> UnitKind {
        self.unit_kind
    }

    fn symmetric(&self) -> bool {
        self.symmetric
    }

    fn ordering_conditions(&self) -> Vec<OrderCond> {
        self.ordering.clone()
    }

    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        (self.detect)(input)
    }

    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        match &self.gen_fix {
            Some(f) => f(violation),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleExt;
    use bigdansing_common::{Cell, Value};

    /// Rebuild the paper's φF as a hand-written UDF (Listings 1-2, 4-6).
    fn phi_f_udf() -> UdfRule {
        UdfRule::builder("udf:phiF", |input| {
            let (a, b) = input.as_pair();
            if a.value(0) == b.value(0) && a.value(1) != b.value(1) {
                vec![Violation::new("udf:phiF")
                    .with_cell(a.cell(1), a.value(1).clone())
                    .with_cell(b.cell(1), b.value(1).clone())]
            } else {
                vec![]
            }
        })
        .scope(|t| vec![t.project(&[1, 2])])
        .block(|t| Some(BlockKey::single(t.value(0).clone())))
        .gen_fix(|v| {
            let (c1, v1) = &v.cells()[0];
            let (c2, v2) = &v.cells()[1];
            vec![Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone())]
        })
        .build()
    }

    fn row(id: u64, zip: i64, city: &str) -> Tuple {
        Tuple::new(id, vec![Value::str("x"), Value::Int(zip), Value::str(city)])
    }

    #[test]
    fn udf_phi_f_detects_figure2_violations() {
        let r = phi_f_udf();
        let s = |t: &Tuple| r.scope(t).remove(0);
        let t2 = s(&row(2, 90210, "LA"));
        let t4 = s(&row(4, 90210, "SF"));
        let t3 = s(&row(3, 60601, "CH"));
        assert_eq!(r.block(&t2), Some(BlockKey::single(Value::Int(90210))));
        let (vs, fixes) = r.detect_and_fix_pair(&t2, &t4);
        assert_eq!(vs.len(), 1);
        assert_eq!(fixes.len(), 1);
        assert!(r.detect_pair(&t2, &t3).is_empty());
    }

    #[test]
    fn defaults_without_optional_operators() {
        let r = UdfRule::builder("udf:min", |_| vec![]).build();
        let t = row(0, 1, "a");
        assert_eq!(r.scope(&t), vec![t.clone()]);
        assert_eq!(r.block(&t), None);
        assert!(r.symmetric());
        assert!(r.ordering_conditions().is_empty());
        let v = Violation::new("udf:min").with_cell(Cell::new(0, 0), Value::Null);
        assert!(r.gen_fix(&v).is_empty(), "no GenFix → no fixes");
    }

    #[test]
    fn builder_flags_propagate() {
        let r = UdfRule::builder("udf:flags", |_| vec![])
            .unit_kind(UnitKind::Single)
            .symmetric(false)
            .ordering_conditions(vec![OrderCond {
                left_attr: 0,
                op: crate::ops::Op::Lt,
                right_attr: 0,
            }])
            .build();
        assert_eq!(r.unit_kind(), UnitKind::Single);
        assert!(!r.symmetric());
        assert_eq!(r.ordering_conditions().len(), 1);
    }
}
