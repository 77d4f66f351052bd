//! Functional dependencies, e.g. φ1/φF: `zipcode -> city`.
//!
//! The parser "automatically implements the abstract functions" (§2.1):
//! * `Scope` projects onto the LHS ∪ RHS attributes (Figure 2, step 1),
//! * `Block` groups on the LHS values (step 2),
//! * `Detect` flags pairs with equal LHS but different RHS (step 4),
//! * `GenFix` equalizes the differing RHS cells (step 5, Listing 2).

use crate::ops::{DetectUnit, UnitKind};
use crate::rule::{BlockKey, Rule};
use crate::violation::{Fix, Violation};
use bigdansing_common::{Error, Result, Schema, Selector, Tuple};

/// A (possibly multi-attribute) functional dependency `X → Y`.
#[derive(Debug, Clone)]
pub struct FdRule {
    name: std::sync::Arc<str>,
    /// Source-schema indices of the determinant attributes.
    lhs: Vec<usize>,
    /// Source-schema indices of the dependent attributes.
    rhs: Vec<usize>,
    /// Precomputed `[lhs..., rhs...]` projection, applied by every
    /// `scope` call so scoping is a view, not a copy.
    scope_sel: Selector,
    /// When true, `GenFix` additionally proposes breaking the LHS
    /// agreement (`t1[X] ≠ t2[X]`), the alternative repair the paper
    /// mentions for φF.
    fix_lhs: bool,
}

fn scope_selector(lhs: &[usize], rhs: &[usize]) -> Selector {
    let idx: Vec<usize> = lhs.iter().chain(rhs).copied().collect();
    Tuple::selector(&idx)
}

impl FdRule {
    /// Parse `"zipcode -> city"` (or `"a,b -> c,d"`) against `schema`.
    pub fn parse(spec: &str, schema: &Schema) -> Result<FdRule> {
        let (l, r) = spec
            .split_once("->")
            .ok_or_else(|| Error::RuleParse(format!("FD `{spec}`: missing `->`")))?;
        let parse_side = |side: &str| -> Result<Vec<usize>> {
            let names: Vec<&str> = side
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if names.is_empty() {
                return Err(Error::RuleParse(format!(
                    "FD `{spec}`: empty attribute list"
                )));
            }
            names.iter().map(|n| schema.index_of(n)).collect()
        };
        let lhs = parse_side(l)?;
        let rhs = parse_side(r)?;
        for a in &rhs {
            if lhs.contains(a) {
                return Err(Error::RuleParse(format!(
                    "FD `{spec}`: attribute appears on both sides"
                )));
            }
        }
        Ok(FdRule {
            name: format!("fd:{}", spec.replace(' ', "")).into(),
            scope_sel: scope_selector(&lhs, &rhs),
            lhs,
            rhs,
            fix_lhs: false,
        })
    }

    /// Build from explicit source-schema attribute indices.
    pub fn from_indices(name: impl Into<String>, lhs: Vec<usize>, rhs: Vec<usize>) -> FdRule {
        FdRule {
            name: name.into().into(),
            scope_sel: scope_selector(&lhs, &rhs),
            lhs,
            rhs,
            fix_lhs: false,
        }
    }

    /// Also generate LHS-breaking fixes.
    pub fn with_lhs_fixes(mut self) -> FdRule {
        self.fix_lhs = true;
        self
    }

    /// Source indices of the determinant.
    pub fn lhs(&self) -> &[usize] {
        &self.lhs
    }

    /// Source indices of the dependent attributes.
    pub fn rhs(&self) -> &[usize] {
        &self.rhs
    }

    /// The Scope selector every view of this rule is projected with.
    /// Views copy it into their own column map; it is never shared with
    /// them.
    pub fn scope_selector(&self) -> &Selector {
        &self.scope_sel
    }
}

impl Rule for FdRule {
    fn name(&self) -> &str {
        &self.name
    }

    /// Projection onto LHS ∪ RHS — but emitted tuples keep *source*
    /// arity-preserving semantics by carrying original indices through
    /// the projection selector: we keep the scoped tuple laid out as
    /// `[lhs..., rhs...]` and translate back in `detect`. The selector
    /// is precomputed once per rule, so scoping shares the row payload
    /// instead of copying cells.
    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        vec![unit.project_shared(&self.scope_sel)]
    }

    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        // scoped layout: the first |lhs| cells are the determinant
        Some((0..self.lhs.len()).map(|i| unit.value(i).clone()).collect())
    }

    fn blocks(&self) -> bool {
        true
    }

    fn block_columns(&self) -> Option<&[usize]> {
        Some(&self.lhs)
    }

    fn unit_kind(&self) -> UnitKind {
        UnitKind::Pair
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        let (a, b) = input.as_pair();
        let nl = self.lhs.len();
        // equal determinant?
        if (0..nl).any(|i| a.value(i) != b.value(i)) {
            return Vec::new();
        }
        // any differing dependent attribute?
        let mut cells = Vec::new();
        for (j, &src) in self.rhs.iter().enumerate() {
            let (va, vb) = (a.value(nl + j), b.value(nl + j));
            if va != vb {
                cells.push((a.id(), src, va.clone()));
                cells.push((b.id(), src, vb.clone()));
            }
        }
        if cells.is_empty() {
            return Vec::new();
        }
        let mut v = Violation::new(self.name.clone());
        // include the (agreeing) LHS cells so LHS repairs stay possible
        for (i, &src) in self.lhs.iter().enumerate() {
            v.add_cell(
                bigdansing_common::Cell::new(a.id(), src),
                a.value(i).clone(),
            );
            v.add_cell(
                bigdansing_common::Cell::new(b.id(), src),
                b.value(i).clone(),
            );
        }
        for (tid, src, val) in cells {
            v.add_cell(bigdansing_common::Cell::new(tid, src), val);
        }
        vec![v]
    }

    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        use crate::ops::Op;
        let mut fixes = Vec::new();
        // RHS cells come after the 2·|lhs| LHS cells, in (a, b) pairs
        let rhs_cells = &violation.cells()[2 * self.lhs.len()..];
        for pair in rhs_cells.chunks(2) {
            if let [(c1, v1), (c2, v2)] = pair {
                fixes.push(Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone()));
            }
        }
        if self.fix_lhs {
            let lhs_cells = &violation.cells()[..2 * self.lhs.len()];
            for pair in lhs_cells.chunks(2) {
                if let [(c1, v1), (c2, v2)] = pair {
                    fixes.push(Fix::compare(
                        *c1,
                        v1.clone(),
                        Op::Ne,
                        crate::violation::FixRhs::Cell(*c2, v2.clone()),
                    ));
                }
            }
        }
        fixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleExt;
    use bigdansing_common::{Cell, Value};

    fn schema() -> Schema {
        Schema::parse("name,zipcode,city,state,salary,rate")
    }

    fn tup(id: u64, zip: i64, city: &str) -> Tuple {
        Tuple::new(
            id,
            vec![
                Value::str("p"),
                Value::Int(zip),
                Value::str(city),
                Value::str("st"),
                Value::Int(100),
                Value::Int(10),
            ],
        )
    }

    #[test]
    fn parse_resolves_attributes() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        assert_eq!(fd.lhs(), &[1]);
        assert_eq!(fd.rhs(), &[2]);
        assert_eq!(fd.name(), "fd:zipcode->city");
        let multi = FdRule::parse("zipcode, state -> city, name", &schema()).unwrap();
        assert_eq!(multi.lhs(), &[1, 3]);
        assert_eq!(multi.rhs(), &[2, 0]);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FdRule::parse("zipcode city", &schema()).is_err());
        assert!(FdRule::parse("nope -> city", &schema()).is_err());
        assert!(FdRule::parse("-> city", &schema()).is_err());
        assert!(FdRule::parse("city -> city", &schema()).is_err());
    }

    #[test]
    fn scope_projects_and_blocks_on_lhs() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        let t = tup(3, 90210, "LA");
        let scoped = fd.scope(&t);
        assert_eq!(scoped.len(), 1);
        assert_eq!(
            scoped[0].to_values(),
            vec![Value::Int(90210), Value::str("LA")]
        );
        assert_eq!(scoped[0].id(), 3);
        assert_eq!(
            fd.block(&scoped[0]),
            Some(BlockKey::single(Value::Int(90210)))
        );
    }

    #[test]
    fn detect_fires_only_on_same_lhs_diff_rhs() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        let s = |t: &Tuple| fd.scope(t).remove(0);
        let a = s(&tup(2, 90210, "LA"));
        let b = s(&tup(4, 90210, "SF"));
        let c = s(&tup(5, 60601, "SF"));
        let d = s(&tup(6, 90210, "LA"));
        assert_eq!(fd.detect_pair(&a, &b).len(), 1);
        assert!(fd.detect_pair(&a, &c).is_empty());
        assert!(fd.detect_pair(&a, &d).is_empty());
    }

    #[test]
    fn violation_cells_use_source_indices() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        let s = |t: &Tuple| fd.scope(t).remove(0);
        let v = fd
            .detect_pair(&s(&tup(2, 90210, "LA")), &s(&tup(4, 90210, "SF")))
            .remove(0);
        // 2 LHS cells (zipcode = attr 1) + 2 RHS cells (city = attr 2)
        assert_eq!(v.cells().len(), 4);
        assert_eq!(v.cells()[0].0, Cell::new(2, 1));
        assert_eq!(v.cells()[2].0, Cell::new(2, 2));
        assert_eq!(v.cells()[3], (Cell::new(4, 2), Value::str("SF")));
    }

    #[test]
    fn genfix_equalizes_rhs() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        let s = |t: &Tuple| fd.scope(t).remove(0);
        let (_, fixes) = fd.detect_and_fix_pair(&s(&tup(2, 90210, "LA")), &s(&tup(4, 90210, "SF")));
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].left, Cell::new(2, 2));
        assert_eq!(fixes[0].op, crate::ops::Op::Eq);
    }

    #[test]
    fn lhs_fix_variant_adds_ne_fix() {
        let fd = FdRule::parse("zipcode -> city", &schema())
            .unwrap()
            .with_lhs_fixes();
        let s = |t: &Tuple| fd.scope(t).remove(0);
        let (_, fixes) = fd.detect_and_fix_pair(&s(&tup(2, 90210, "LA")), &s(&tup(4, 90210, "SF")));
        assert_eq!(fixes.len(), 2);
        assert_eq!(fixes[1].op, crate::ops::Op::Ne);
        assert_eq!(fixes[1].left, Cell::new(2, 1));
    }

    #[test]
    fn multi_rhs_emits_fix_per_differing_attr() {
        let fd = FdRule::parse("zipcode -> city, state", &schema()).unwrap();
        let mut t1 = tup(1, 1, "LA");
        let mut t2 = tup(2, 1, "SF");
        t1 = t1.with_value(3, Value::str("CA"));
        t2 = t2.with_value(3, Value::str("WA"));
        let s = |t: &Tuple| fd.scope(t).remove(0);
        let (vs, fixes) = fd.detect_and_fix_pair(&s(&t1), &s(&t2));
        assert_eq!(vs.len(), 1);
        assert_eq!(fixes.len(), 2);
    }
}
