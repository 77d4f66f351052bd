//! Conditional functional dependencies (CFDs) [Fan et al., TODS 2008],
//! cited by the paper as one of the declarative rule classes BigDansing
//! parses automatically.
//!
//! A CFD is an embedded FD `X → Y` plus a pattern tuple restricting where
//! it applies: constants must match, `_` is a wildcard. When the Y
//! pattern is a constant the rule degenerates to a *single-tuple* check
//! (every X-matching tuple must carry that constant); with a wildcard Y
//! it behaves like an FD over the pattern-matching subset.

use crate::fd::FdRule;
use crate::ops::{DetectUnit, UnitKind};
use crate::rule::{BlockKey, Rule};
use crate::violation::{Fix, Violation};
use bigdansing_common::{Cell, Error, Result, Schema, Selector, Tuple, Value};

/// One pattern entry: the attribute (source index) and its required
/// constant, or `None` for the `_` wildcard.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Source attribute index.
    pub attr: usize,
    /// `Some(v)` for a constant pattern, `None` for `_`.
    pub constant: Option<Value>,
}

/// A conditional functional dependency with a single pattern tuple.
#[derive(Debug, Clone)]
pub struct CfdRule {
    name: std::sync::Arc<str>,
    fd: FdRule,
    /// Patterns over LHS attributes (checked on both tuples of a pair).
    lhs_patterns: Vec<Pattern>,
    /// Pattern over the (single) RHS attribute.
    rhs_pattern: Option<Value>,
    rhs_attr: usize,
    scope_attrs: Vec<usize>,
    /// Precomputed projection selector over `scope_attrs`, applied by
    /// every `scope` call so scoping is a view, not a copy.
    scope_sel: Selector,
}

impl CfdRule {
    /// Parse `"zipcode -> city | zipcode=90210, city=_"`.
    ///
    /// The part before `|` is the embedded FD (single RHS attribute); the
    /// part after lists `attr=constant` or `attr=_` patterns. Attributes
    /// not listed default to `_`.
    pub fn parse(spec: &str, schema: &Schema) -> Result<CfdRule> {
        let (fd_part, pat_part) = spec
            .split_once('|')
            .ok_or_else(|| Error::RuleParse(format!("CFD `{spec}`: missing `|` tableau")))?;
        let fd = FdRule::parse(fd_part.trim(), schema)?;
        if fd.rhs().len() != 1 {
            return Err(Error::RuleParse(format!(
                "CFD `{spec}`: exactly one RHS attribute supported"
            )));
        }
        let rhs_attr = fd.rhs()[0];
        let mut lhs_patterns: Vec<Pattern> = fd
            .lhs()
            .iter()
            .map(|&attr| Pattern {
                attr,
                constant: None,
            })
            .collect();
        let mut rhs_pattern = None;
        for entry in pat_part.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (attr_name, val) = entry
                .split_once('=')
                .ok_or_else(|| Error::RuleParse(format!("CFD pattern `{entry}`: missing `=`")))?;
            let attr = schema.index_of(attr_name.trim())?;
            let val = val.trim();
            let constant = if val == "_" {
                None
            } else {
                let v = val.trim_matches(|c| c == '\'' || c == '"');
                Some(Value::parse_lossy(v))
            };
            if attr == rhs_attr {
                rhs_pattern = constant;
            } else if let Some(p) = lhs_patterns.iter_mut().find(|p| p.attr == attr) {
                p.constant = constant;
            } else {
                return Err(Error::RuleParse(format!(
                    "CFD pattern references `{}` which is not in the FD",
                    attr_name.trim()
                )));
            }
        }
        let mut scope_attrs: Vec<usize> = fd.lhs().to_vec();
        scope_attrs.push(rhs_attr);
        Ok(CfdRule {
            name: format!("cfd:{}", spec.replace(' ', "")).into(),
            fd,
            lhs_patterns,
            rhs_pattern,
            rhs_attr,
            scope_sel: Tuple::selector(&scope_attrs),
            scope_attrs,
        })
    }

    fn scoped_rhs(&self) -> usize {
        self.scope_attrs.len() - 1
    }

    /// Does a scoped tuple match every LHS constant pattern?
    fn matches_lhs(&self, t: &Tuple) -> bool {
        self.lhs_patterns
            .iter()
            .enumerate()
            .all(|(i, p)| p.constant.as_ref().is_none_or(|c| t.value(i) == c))
    }

    /// True when the RHS pattern is a constant (single-tuple semantics).
    pub fn is_constant_cfd(&self) -> bool {
        self.rhs_pattern.is_some()
    }

    /// The Scope selector every view of this rule is projected with.
    /// Views copy it into their own column map; it is never shared with
    /// them.
    pub fn scope_selector(&self) -> &Selector {
        &self.scope_sel
    }
}

impl Rule for CfdRule {
    fn name(&self) -> &str {
        &self.name
    }

    /// Project onto LHS ∪ RHS *and* filter to pattern-matching tuples —
    /// Scope both removes attributes and drops irrelevant units (§3.1).
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        let t = unit.project_shared(&self.scope_sel);
        if self.matches_lhs(&t) {
            vec![t]
        } else {
            vec![]
        }
    }

    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        if self.is_constant_cfd() {
            return None; // single-tuple rule needs no candidate pairs
        }
        Some(
            (0..self.fd.lhs().len())
                .map(|i| unit.value(i).clone())
                .collect(),
        )
    }

    fn blocks(&self) -> bool {
        !self.is_constant_cfd()
    }

    fn block_columns(&self) -> Option<&[usize]> {
        self.blocks().then_some(self.fd.lhs())
    }

    fn unit_kind(&self) -> UnitKind {
        if self.is_constant_cfd() {
            UnitKind::Single
        } else {
            UnitKind::Pair
        }
    }

    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        match (&self.rhs_pattern, *input) {
            (Some(expected), DetectUnit::Single(t)) => {
                let got = t.value(self.scoped_rhs());
                if got != expected {
                    vec![Violation::new(self.name.clone())
                        .with_cell(Cell::new(t.id(), self.rhs_attr), got.clone())]
                } else {
                    vec![]
                }
            }
            (None, DetectUnit::Pair(a, b)) => {
                let nl = self.fd.lhs().len();
                if (0..nl).any(|i| a.value(i) != b.value(i)) {
                    return vec![];
                }
                let (va, vb) = (a.value(self.scoped_rhs()), b.value(self.scoped_rhs()));
                if va == vb {
                    return vec![];
                }
                vec![Violation::new(self.name.clone())
                    .with_cell(Cell::new(a.id(), self.rhs_attr), va.clone())
                    .with_cell(Cell::new(b.id(), self.rhs_attr), vb.clone())]
            }
            _ => vec![],
        }
    }

    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        match &self.rhs_pattern {
            Some(expected) => {
                let (c, v) = &violation.cells()[0];
                vec![Fix::assign_const(*c, v.clone(), expected.clone())]
            }
            None => {
                let (c1, v1) = &violation.cells()[0];
                let (c2, v2) = &violation.cells()[1];
                vec![Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone())]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleExt;

    fn schema() -> Schema {
        Schema::parse("name,zipcode,city")
    }

    fn t(id: u64, zip: i64, city: &str) -> Tuple {
        Tuple::new(id, vec![Value::str("p"), Value::Int(zip), Value::str(city)])
    }

    #[test]
    fn constant_cfd_checks_single_tuples() {
        let cfd = CfdRule::parse("zipcode -> city | zipcode=90210, city=LA", &schema()).unwrap();
        assert!(cfd.is_constant_cfd());
        assert_eq!(cfd.unit_kind(), UnitKind::Single);
        let good = cfd.scope(&t(1, 90210, "LA"));
        let bad = cfd.scope(&t(2, 90210, "SF"));
        let out_of_pattern = cfd.scope(&t(3, 11111, "SF"));
        assert_eq!(good.len(), 1);
        assert!(out_of_pattern.is_empty(), "scope drops non-matching tuples");
        let vs = cfd.detect(&DetectUnit::Single(&bad[0]));
        assert_eq!(vs.len(), 1);
        let fixes = cfd.gen_fix(&vs[0]);
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].rhs.value(), &Value::str("LA"));
        assert!(cfd.detect(&DetectUnit::Single(&good[0])).is_empty());
    }

    #[test]
    fn wildcard_cfd_behaves_like_scoped_fd() {
        let cfd = CfdRule::parse("zipcode -> city | zipcode=90210, city=_", &schema()).unwrap();
        assert!(!cfd.is_constant_cfd());
        let a = cfd.scope(&t(1, 90210, "LA")).remove(0);
        let b = cfd.scope(&t(2, 90210, "SF")).remove(0);
        assert_eq!(cfd.block(&a), Some(BlockKey::single(Value::Int(90210))));
        let (vs, fixes) = cfd.detect_and_fix_pair(&a, &b);
        assert_eq!(vs.len(), 1);
        assert_eq!(fixes.len(), 1);
        assert_eq!(vs[0].cells()[0].0, Cell::new(1, 2));
        // tuples outside the pattern never reach detect
        assert!(cfd.scope(&t(3, 11111, "LA")).is_empty());
    }

    #[test]
    fn unlisted_pattern_attrs_default_to_wildcard() {
        let cfd = CfdRule::parse("zipcode -> city | city=_", &schema()).unwrap();
        assert_eq!(cfd.scope(&t(1, 1, "LA")).len(), 1);
        assert_eq!(cfd.scope(&t(2, 2, "SF")).len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(CfdRule::parse("zipcode -> city", &schema()).is_err());
        assert!(CfdRule::parse("zipcode -> city | name", &schema()).is_err());
        assert!(CfdRule::parse("zipcode -> city | name=LA", &schema()).is_err());
        assert!(CfdRule::parse("zipcode -> city, name | city=_", &schema()).is_err());
    }
}
