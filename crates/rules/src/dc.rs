//! Denial constraints (DCs), e.g. φ2/φD:
//! `t1.salary > t2.salary & t1.rate < t2.rate`.
//!
//! A DC `∀t1,t2 ¬(p1 ∧ … ∧ pk)` is violated by a (ordered) tuple pair on
//! which every predicate holds. The parser classifies the predicates so
//! the planner can pick its physical operators (§4.2):
//!
//! * `t1.A = t2.A` equality predicates become *blocking keys*;
//! * ordering predicates (`<,>,≤,≥`) become OCJoin conditions (§4.3);
//! * everything else is evaluated by `Detect` as a post-filter.
//!
//! `GenFix` proposes, per predicate, the fix that negates it — e.g. for
//! φ2's violation on (t1, t2): `t1.salary ≤ t2.salary` or
//! `t1.rate ≥ t2.rate` (§2.1's fix language).

use crate::ops::{DetectUnit, Op, UnitKind};
use crate::rule::{BlockKey, OrderCond, Rule};
use crate::violation::{Fix, FixRhs, Violation};
use bigdansing_common::{Cell, Error, Result, Schema, Selector, Tuple, Value};

/// One side of a DC predicate. Attribute indices are in **source**
/// schema coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Attribute of the first tuple.
    T1(usize),
    /// Attribute of the second tuple.
    T2(usize),
    /// A constant.
    Const(Value),
}

/// A DC predicate `left op right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub left: Operand,
    /// Comparison.
    pub op: Op,
    /// Right operand.
    pub right: Operand,
}

impl Predicate {
    /// Normal form: T2-only predicates are flipped so T1 (or a lone T2)
    /// appears on the left, making classification uniform.
    fn normalize(mut self) -> Predicate {
        let left_rank = |o: &Operand| match o {
            Operand::T1(_) => 0,
            Operand::T2(_) => 1,
            Operand::Const(_) => 2,
        };
        if left_rank(&self.left) > left_rank(&self.right) {
            std::mem::swap(&mut self.left, &mut self.right);
            self.op = self.op.flip();
        }
        self
    }

    /// The predicate with tuple roles exchanged.
    fn role_swapped(&self) -> Predicate {
        let swap = |o: &Operand| match o {
            Operand::T1(a) => Operand::T2(*a),
            Operand::T2(a) => Operand::T1(*a),
            Operand::Const(v) => Operand::Const(v.clone()),
        };
        Predicate {
            left: swap(&self.left),
            op: self.op,
            right: swap(&self.right),
        }
        .normalize()
    }

    /// Source attributes referenced, as (role-is-t1, attr) pairs.
    fn attrs(&self) -> Vec<(bool, usize)> {
        let mut out = Vec::new();
        for o in [&self.left, &self.right] {
            match o {
                Operand::T1(a) => out.push((true, *a)),
                Operand::T2(a) => out.push((false, *a)),
                Operand::Const(_) => {}
            }
        }
        out
    }
}

/// A parsed denial constraint.
#[derive(Debug, Clone)]
pub struct DcRule {
    name: std::sync::Arc<str>,
    predicates: Vec<Predicate>,
    /// Sorted, deduplicated source attributes referenced by any predicate;
    /// also the Scope projection.
    scope_attrs: Vec<usize>,
    /// Precomputed projection selector over `scope_attrs`, applied by
    /// every `scope` call so scoping is a view, not a copy.
    scope_sel: Selector,
    /// Source attributes of the `t1.A = t2.A` predicates, sorted: the
    /// Block key.
    block_attrs: Vec<usize>,
    /// Whether any predicate references the second tuple.
    pairwise: bool,
}

impl DcRule {
    /// Parse a conjunction like
    /// `t1.salary > t2.salary & t1.rate < t2.rate` against `schema`.
    /// `&`, `&&` and `and` all separate predicates; constants may be
    /// 'single-quoted', "double-quoted", or numeric literals.
    pub fn parse(spec: &str, schema: &Schema) -> Result<DcRule> {
        let norm = spec
            .replace("&&", "&")
            .replace(" and ", " & ")
            .replace(" AND ", " & ");
        let mut predicates = Vec::new();
        for raw in norm.split('&') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            predicates.push(Self::parse_predicate(raw, schema)?);
        }
        if predicates.is_empty() {
            return Err(Error::RuleParse(format!("DC `{spec}`: no predicates")));
        }
        Self::from_predicates(format!("dc:{}", spec.replace(' ', "")), predicates)
    }

    /// Build from explicit predicates.
    pub fn from_predicates(name: impl Into<String>, predicates: Vec<Predicate>) -> Result<DcRule> {
        let predicates: Vec<Predicate> = predicates.into_iter().map(Predicate::normalize).collect();
        let mut scope_attrs: Vec<usize> = predicates
            .iter()
            .flat_map(|p| p.attrs().into_iter().map(|(_, a)| a))
            .collect();
        scope_attrs.sort_unstable();
        scope_attrs.dedup();
        if scope_attrs.is_empty() {
            return Err(Error::RuleParse("DC references no attributes".into()));
        }
        let pairwise = predicates
            .iter()
            .any(|p| matches!(p.left, Operand::T2(_)) || matches!(p.right, Operand::T2(_)));
        let mut block_attrs: Vec<usize> = predicates
            .iter()
            .filter_map(|p| match (p.op, &p.left, &p.right) {
                (Op::Eq, Operand::T1(a), Operand::T2(b)) if a == b => Some(*a),
                _ => None,
            })
            .collect();
        block_attrs.sort_unstable();
        block_attrs.dedup();
        Ok(DcRule {
            name: name.into().into(),
            predicates,
            scope_sel: Tuple::selector(&scope_attrs),
            scope_attrs,
            block_attrs,
            pairwise,
        })
    }

    fn parse_predicate(raw: &str, schema: &Schema) -> Result<Predicate> {
        // longest-match first so `<=` is not read as `<`
        for op_txt in ["<=", ">=", "!=", "<>", "==", "=", "<", ">"] {
            if let Some(pos) = raw.find(op_txt) {
                let (l, r) = (raw[..pos].trim(), raw[pos + op_txt.len()..].trim());
                let op = Op::parse(op_txt).expect("known operator text");
                return Ok(Predicate {
                    left: Self::parse_operand(l, schema)?,
                    op,
                    right: Self::parse_operand(r, schema)?,
                }
                .normalize());
            }
        }
        Err(Error::RuleParse(format!(
            "predicate `{raw}`: no comparison operator"
        )))
    }

    fn parse_operand(raw: &str, schema: &Schema) -> Result<Operand> {
        if let Some(rest) = raw.strip_prefix("t1.") {
            return Ok(Operand::T1(schema.index_of(rest.trim())?));
        }
        if let Some(rest) = raw.strip_prefix("t2.") {
            return Ok(Operand::T2(schema.index_of(rest.trim())?));
        }
        if (raw.starts_with('\'') && raw.ends_with('\'') && raw.len() >= 2)
            || (raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2)
        {
            return Ok(Operand::Const(Value::str(&raw[1..raw.len() - 1])));
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(Operand::Const(Value::Int(i)));
        }
        if let Ok(f) = raw.parse::<f64>() {
            return Ok(Operand::Const(Value::Float(f)));
        }
        Err(Error::RuleParse(format!(
            "operand `{raw}`: expected t1.attr, t2.attr, a quoted string, or a number"
        )))
    }

    /// The parsed predicates (normalized).
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The Scope selector every view of this rule is projected with.
    /// Views copy it into their own column map; it is never shared with
    /// them.
    pub fn scope_selector(&self) -> &Selector {
        &self.scope_sel
    }

    /// Scoped position of a source attribute.
    fn scoped(&self, src_attr: usize) -> usize {
        self.scope_attrs
            .binary_search(&src_attr)
            .expect("attribute is in scope by construction")
    }

    /// Evaluate one operand against the scoped pair.
    fn eval<'a>(&self, o: &'a Operand, a: &'a Tuple, b: &'a Tuple) -> &'a Value {
        match o {
            Operand::T1(attr) => a.value(self.scoped(*attr)),
            Operand::T2(attr) => b.value(self.scoped(*attr)),
            Operand::Const(v) => v,
        }
    }

    /// Attributes blocked on: predicates of the shape `t1.A = t2.A`.
    pub fn blocking_attrs(&self) -> &[usize] {
        &self.block_attrs
    }
}

impl Rule for DcRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn scope(&self, unit: &Tuple) -> Vec<Tuple> {
        vec![unit.project_shared(&self.scope_sel)]
    }

    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        let attrs = self.block_columns()?;
        Some(
            attrs
                .iter()
                .map(|&a| unit.value(self.scoped(a)).clone())
                .collect(),
        )
    }

    fn blocks(&self) -> bool {
        !self.block_attrs.is_empty()
    }

    fn block_columns(&self) -> Option<&[usize]> {
        self.blocks().then_some(&self.block_attrs)
    }

    fn unit_kind(&self) -> UnitKind {
        if self.pairwise {
            UnitKind::Pair
        } else {
            UnitKind::Single
        }
    }

    /// A DC is order-insensitive exactly when its predicate set is
    /// invariant under exchanging t1 and t2.
    fn symmetric(&self) -> bool {
        self.predicates
            .iter()
            .all(|p| self.predicates.contains(&p.role_swapped()))
    }

    fn ordering_conditions(&self) -> Vec<OrderCond> {
        let mut out = Vec::new();
        for p in &self.predicates {
            if p.op.is_ordering() {
                if let (Operand::T1(a), Operand::T2(b)) = (&p.left, &p.right) {
                    out.push(OrderCond {
                        left_attr: self.scoped(*a),
                        op: p.op,
                        right_attr: self.scoped(*b),
                    });
                }
            }
        }
        out
    }

    fn detect(&self, input: &DetectUnit<'_>) -> Vec<Violation> {
        let (a, b) = match *input {
            DetectUnit::Single(t) => (t, t),
            DetectUnit::Pair(a, b) => (a, b),
            DetectUnit::List(_) => return Vec::new(),
        };
        if self.pairwise && a.id() == b.id() {
            return Vec::new();
        }
        for p in &self.predicates {
            if !p
                .op
                .holds(self.eval(&p.left, a, b), self.eval(&p.right, a, b))
            {
                return Vec::new();
            }
        }
        // every predicate holds: record the referenced cells, predicate by
        // predicate, in a deterministic order GenFix relies on.
        let mut v = Violation::new(self.name.clone());
        for p in &self.predicates {
            for o in [&p.left, &p.right] {
                match o {
                    Operand::T1(attr) => {
                        v.add_cell(
                            Cell::new(a.id(), *attr),
                            a.value(self.scoped(*attr)).clone(),
                        );
                    }
                    Operand::T2(attr) => {
                        v.add_cell(
                            Cell::new(b.id(), *attr),
                            b.value(self.scoped(*attr)).clone(),
                        );
                    }
                    Operand::Const(_) => {}
                }
            }
        }
        vec![v]
    }

    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        let mut fixes = Vec::new();
        let mut cursor = 0usize;
        let cells = violation.cells();
        for p in &self.predicates {
            let mut take = |o: &Operand| -> Option<(Cell, Value)> {
                match o {
                    Operand::Const(_) => None,
                    _ => {
                        let c = cells[cursor].clone();
                        cursor += 1;
                        Some(c)
                    }
                }
            };
            let left = take(&p.left);
            let right = take(&p.right);
            let neg = p.op.negate();
            match (left, right, &p.left, &p.right) {
                (Some((lc, lv)), Some((rc, rv)), _, _) => {
                    fixes.push(Fix::compare(lc, lv, neg, FixRhs::Cell(rc, rv)));
                }
                (Some((lc, lv)), None, _, Operand::Const(k)) => {
                    fixes.push(Fix::compare(lc, lv, neg, FixRhs::Const(k.clone())));
                }
                (None, Some((rc, rv)), Operand::Const(k), _) => {
                    fixes.push(Fix::compare(rc, rv, neg.flip(), FixRhs::Const(k.clone())));
                }
                _ => {}
            }
        }
        fixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleExt;

    fn schema() -> Schema {
        Schema::parse("name,zipcode,city,state,salary,rate")
    }

    fn person(id: u64, salary: i64, rate: i64) -> Tuple {
        Tuple::new(
            id,
            vec![
                Value::str("p"),
                Value::Int(10000),
                Value::str("NY"),
                Value::str("NY"),
                Value::Int(salary),
                Value::Int(rate),
            ],
        )
    }

    fn phi2() -> DcRule {
        DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", &schema()).unwrap()
    }

    #[test]
    fn parse_phi2() {
        let dc = phi2();
        assert_eq!(dc.predicates().len(), 2);
        assert_eq!(dc.unit_kind(), UnitKind::Pair);
        assert!(!dc.symmetric());
        assert_eq!(dc.blocking_attrs(), Vec::<usize>::new());
        let oc = dc.ordering_conditions();
        assert_eq!(oc.len(), 2);
        // scoped attrs are [salary(4), rate(5)] -> positions [0, 1]
        assert_eq!(
            oc[0],
            OrderCond {
                left_attr: 0,
                op: Op::Gt,
                right_attr: 0
            }
        );
        assert_eq!(
            oc[1],
            OrderCond {
                left_attr: 1,
                op: Op::Lt,
                right_attr: 1
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(DcRule::parse("", &schema()).is_err());
        assert!(DcRule::parse("t1.salary ~ t2.salary", &schema()).is_err());
        assert!(DcRule::parse("t1.wat > t2.salary", &schema()).is_err());
        assert!(DcRule::parse("salary > t2.salary", &schema()).is_err());
    }

    #[test]
    fn detect_ordered_pair_semantics() {
        let dc = phi2();
        let s = |t: &Tuple| dc.scope(t).remove(0);
        // t1 earns less but pays a higher rate than t2 → (t1, t2) with
        // t1.salary > t2.salary fails; the violating order is (t2-ish)
        let poor_high = s(&person(1, 100, 30));
        let rich_low = s(&person(2, 200, 10));
        // (rich_low, poor_high): salary 200>100 ok, rate 10<30 ok → violation
        assert_eq!(dc.detect_pair(&rich_low, &poor_high).len(), 1);
        assert!(dc.detect_pair(&poor_high, &rich_low).is_empty());
    }

    #[test]
    fn self_pair_never_violates() {
        let dc = phi2();
        let s = |t: &Tuple| dc.scope(t).remove(0);
        let t = s(&person(1, 100, 30));
        assert!(dc.detect_pair(&t, &t).is_empty());
    }

    #[test]
    fn violation_cells_are_source_indexed() {
        let dc = phi2();
        let s = |t: &Tuple| dc.scope(t).remove(0);
        let v = dc
            .detect_pair(&s(&person(2, 200, 10)), &s(&person(1, 100, 30)))
            .remove(0);
        // pred1 cells: t2.salary(4)=200, t1.salary(4)=100 ; pred2: rates
        assert_eq!(v.cells()[0], (Cell::new(2, 4), Value::Int(200)));
        assert_eq!(v.cells()[1], (Cell::new(1, 4), Value::Int(100)));
        assert_eq!(v.cells()[2], (Cell::new(2, 5), Value::Int(10)));
        assert_eq!(v.cells()[3], (Cell::new(1, 5), Value::Int(30)));
    }

    #[test]
    fn genfix_negates_each_predicate() {
        let dc = phi2();
        let s = |t: &Tuple| dc.scope(t).remove(0);
        let (_, fixes) = dc.detect_and_fix_pair(&s(&person(2, 200, 10)), &s(&person(1, 100, 30)));
        assert_eq!(fixes.len(), 2);
        assert_eq!(fixes[0].op, Op::Le); // salary > becomes <=
        assert_eq!(fixes[1].op, Op::Ge); // rate < becomes >=
    }

    #[test]
    fn equality_dc_blocks_and_is_symmetric() {
        // §4.2's consolidation example: same city must imply same state
        let dc = DcRule::parse("t1.city = t2.city & t1.state != t2.state", &schema()).unwrap();
        assert_eq!(dc.blocking_attrs(), vec![2]);
        assert!(dc.symmetric());
        assert!(dc.ordering_conditions().is_empty());
        let s = |t: &Tuple| dc.scope(t).remove(0);
        let a = s(&Tuple::new(
            1,
            vec![
                Value::str("x"),
                Value::Int(1),
                Value::str("LA"),
                Value::str("CA"),
                Value::Int(0),
                Value::Int(0),
            ],
        ));
        let b = s(&Tuple::new(
            2,
            vec![
                Value::str("y"),
                Value::Int(2),
                Value::str("LA"),
                Value::str("WA"),
                Value::Int(0),
                Value::Int(0),
            ],
        ));
        assert_eq!(dc.block(&a), Some(BlockKey::single(Value::str("LA"))));
        assert_eq!(dc.detect_pair(&a, &b).len(), 1);
    }

    #[test]
    fn constant_predicates_and_single_unit() {
        let dc = DcRule::parse("t1.state = 'XX'", &schema()).unwrap();
        assert_eq!(dc.unit_kind(), UnitKind::Single);
        let s = |t: &Tuple| dc.scope(t).remove(0);
        let bad = s(&Tuple::new(
            1,
            vec![
                Value::str("x"),
                Value::Int(1),
                Value::str("LA"),
                Value::str("XX"),
                Value::Int(0),
                Value::Int(0),
            ],
        ));
        let ok = s(&Tuple::new(
            2,
            vec![
                Value::str("y"),
                Value::Int(2),
                Value::str("LA"),
                Value::str("CA"),
                Value::Int(0),
                Value::Int(0),
            ],
        ));
        let vs = dc.detect(&DetectUnit::Single(&bad));
        assert_eq!(vs.len(), 1);
        let fixes = dc.gen_fix(&vs[0]);
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].op, Op::Ne);
        assert!(matches!(fixes[0].rhs, FixRhs::Const(_)));
        assert!(dc.detect(&DetectUnit::Single(&ok)).is_empty());
    }

    #[test]
    fn numeric_constant_operands_parse() {
        let dc = DcRule::parse("t1.salary > 1000 & t1.rate <= 3.5", &schema()).unwrap();
        assert_eq!(dc.predicates().len(), 2);
        assert!(matches!(
            dc.predicates()[0].right,
            Operand::Const(Value::Int(1000))
        ));
    }
}
