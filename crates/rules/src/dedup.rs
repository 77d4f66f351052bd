//! The φU-style deduplication rule (§2.1, §6.5).
//!
//! Two units are duplicates when an ad-hoc similarity function accepts
//! their key attributes (the paper's `simF`, instantiated as Levenshtein
//! in §6.5) and an optional context mapping agrees (the paper's
//! `getCounty` lookup). `Block` narrows candidates to a cheap prefix key
//! so the quadratic comparison only runs inside blocks.

use crate::ops::{DetectUnit, UnitKind};
use crate::rule::{BlockKey, Rule};
use crate::violation::{Fix, Violation};
use bigdansing_common::minhash::{self, LshParams};
use bigdansing_common::sim;
use bigdansing_common::{Cell, Tuple, Value};
use std::sync::Arc;

/// A context mapping applied before the equality check (e.g. city →
/// county). Must be pure and thread-safe.
pub type ContextFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;

/// A similarity-based duplicate-detection rule.
#[derive(Clone)]
pub struct DedupRule {
    name: std::sync::Arc<str>,
    /// Attribute compared with the similarity function.
    sim_attr: usize,
    /// Similarity threshold in [0, 1].
    threshold: f64,
    /// Characters of the blocking prefix (0 disables blocking).
    block_prefix: usize,
    /// MinHash/LSH blocking; when set it supersedes the prefix key.
    lsh: Option<LshParams>,
    /// Optional `(attribute, mapping)` that must agree after mapping.
    context: Option<(usize, ContextFn)>,
    /// Attributes to equalize when generating fixes; defaults to the
    /// similarity attribute plus the context attribute.
    merge_attrs: Vec<usize>,
}

impl DedupRule {
    /// A Levenshtein-similarity dedup rule over `sim_attr`.
    pub fn new(name: impl Into<String>, sim_attr: usize, threshold: f64) -> DedupRule {
        DedupRule {
            name: name.into().into(),
            sim_attr,
            threshold,
            block_prefix: 2,
            lsh: None,
            context: None,
            merge_attrs: vec![sim_attr],
        }
    }

    /// Require `mapping(t1[attr]) = mapping(t2[attr])` as well — the
    /// `getCounty` part of φU.
    pub fn with_context(mut self, attr: usize, mapping: ContextFn) -> DedupRule {
        self.context = Some((attr, mapping));
        if !self.merge_attrs.contains(&attr) {
            self.merge_attrs.push(attr);
        }
        self
    }

    /// Override the blocking-prefix length (0 = no blocking, candidates
    /// come from a UCrossProduct over the whole dataset — see the
    /// `unblocked_dedup_gets_ucross` planner regression test). Ignored
    /// when [`DedupRule::with_lsh`] is also set: LSH banding supersedes
    /// the prefix key.
    pub fn with_block_prefix(mut self, chars: usize) -> DedupRule {
        self.block_prefix = chars;
        self
    }

    /// Use MinHash/LSH banding over the similarity attribute instead of
    /// a single prefix key: each tuple is bucketed once per band, so
    /// near-duplicates that disagree in their first characters still
    /// meet in some band, and dissimilar strings almost never collide.
    pub fn with_lsh(mut self, params: LshParams) -> DedupRule {
        self.lsh = Some(params);
        self
    }

    /// Equalize these attributes when fixing (defaults to the compared
    /// attributes).
    pub fn with_merge_attrs(mut self, attrs: Vec<usize>) -> DedupRule {
        self.merge_attrs = attrs;
        self
    }

    fn is_duplicate(&self, a: &Tuple, b: &Tuple) -> bool {
        let (sa, sb) = (a.value(self.sim_attr), b.value(self.sim_attr));
        let (sa, sb) = match (sa.as_str(), sb.as_str()) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if !sim::similar(sa, sb, self.threshold) {
            return false;
        }
        if let Some((attr, mapping)) = &self.context {
            if mapping(a.value(*attr)) != mapping(b.value(*attr)) {
                return false;
            }
        }
        true
    }
}

impl Rule for DedupRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn block(&self, unit: &Tuple) -> Option<BlockKey> {
        if self.block_prefix == 0 || self.lsh.is_some() {
            return None;
        }
        let key = unit
            .value(self.sim_attr)
            .as_str()
            .map(|s| sim::prefix_key(s, self.block_prefix))
            .unwrap_or_default();
        Some(BlockKey::single(Value::str(key)))
    }

    fn blocks(&self) -> bool {
        self.block_prefix > 0 && self.lsh.is_none()
    }

    fn lsh(&self) -> Option<LshParams> {
        self.lsh
    }

    fn lsh_band_hashes(&self, unit: &Tuple, bands: usize, rows_per_band: usize) -> Vec<u64> {
        let shingle = self.lsh.map(|p| p.shingle).unwrap_or(2);
        let params = LshParams {
            bands,
            rows_per_band,
            shingle,
        };
        let s = unit.value(self.sim_attr).as_str().unwrap_or("");
        minhash::band_hashes(s, &params)
    }

    fn unit_kind(&self) -> UnitKind {
        UnitKind::Pair
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn detect(&self, input: &DetectUnit) -> Vec<Violation> {
        let (a, b) = input.as_pair();
        if a.id() == b.id() || !self.is_duplicate(a, b) {
            return vec![];
        }
        let mut v = Violation::new(self.name.clone());
        for &attr in &self.merge_attrs {
            v.add_cell(Cell::new(a.id(), attr), a.value(attr).clone());
            v.add_cell(Cell::new(b.id(), attr), b.value(attr).clone());
        }
        vec![v]
    }

    /// "Assign the same values to both tuples so that one of them is
    /// removed in set semantics" (§2.1): equalize each merge attribute.
    fn gen_fix(&self, violation: &Violation) -> Vec<Fix> {
        violation
            .cells()
            .chunks(2)
            .filter_map(|pair| match pair {
                [(c1, v1), (c2, v2)] if v1 != v2 => {
                    Some(Fix::assign_cell(*c1, v1.clone(), *c2, v2.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleExt;

    fn t(id: u64, name: &str, city: &str) -> Tuple {
        Tuple::new(id, vec![Value::str(name), Value::str(city)])
    }

    fn county(v: &Value) -> Value {
        // toy mapping: LA and SF share a "county" for testing
        match v.as_str() {
            Some("LA") | Some("SF") => Value::str("west"),
            Some(other) => Value::str(other),
            None => Value::Null,
        }
    }

    #[test]
    fn similar_names_same_context_are_duplicates() {
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_context(1, Arc::new(county));
        let a = t(1, "Robert", "LA");
        let b = t(2, "Roberta", "SF");
        let vs = r.detect_pair(&a, &b);
        assert_eq!(vs.len(), 1);
        // merge attrs: name + city → 4 cells
        assert_eq!(vs[0].cells().len(), 4);
        let fixes = r.gen_fix(&vs[0]);
        assert_eq!(fixes.len(), 2, "name and city both differ");
    }

    #[test]
    fn context_mismatch_blocks_duplicate() {
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_context(1, Arc::new(county));
        let a = t(1, "Robert", "LA");
        let b = t(2, "Roberta", "CH");
        assert!(r.detect_pair(&a, &b).is_empty());
    }

    #[test]
    fn dissimilar_names_pass() {
        let r = DedupRule::new("udf:dedup", 0, 0.8);
        assert!(r
            .detect_pair(&t(1, "Robert", "LA"), &t(2, "Xavier", "LA"))
            .is_empty());
    }

    #[test]
    fn blocking_key_is_lowercase_prefix() {
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_block_prefix(3);
        assert_eq!(
            r.block(&t(1, "Robert", "LA")),
            Some(BlockKey::single(Value::str("rob")))
        );
        let r0 = DedupRule::new("udf:dedup", 0, 0.8).with_block_prefix(0);
        assert_eq!(r0.block(&t(1, "Robert", "LA")), None);
    }

    #[test]
    fn lsh_supersedes_prefix_blocking() {
        let r = DedupRule::new("udf:dedup", 0, 0.8)
            .with_block_prefix(3)
            .with_lsh(LshParams::default());
        let row = t(1, "Robert", "LA");
        assert!(r.lsh().is_some());
        assert!(!r.blocks(), "LSH replaces the prefix Block operator");
        assert_eq!(r.block(&row), None);
        let p = LshParams::default();
        let hashes = r.lsh_band_hashes(&row, p.bands, p.rows_per_band);
        assert_eq!(hashes.len(), p.bands);
        assert_eq!(
            hashes,
            r.lsh_band_hashes(&row, p.bands, p.rows_per_band),
            "band hashes must be deterministic"
        );
    }

    #[test]
    fn identical_tuples_produce_no_fixes() {
        let r = DedupRule::new("udf:dedup", 0, 0.9);
        let vs = r.detect_pair(&t(1, "Mary", "LA"), &t(2, "Mary", "LA"));
        assert_eq!(vs.len(), 1, "exact duplicates are violations");
        assert!(r.gen_fix(&vs[0]).is_empty(), "but nothing to change");
    }

    #[test]
    fn non_string_sim_attr_never_matches() {
        let r = DedupRule::new("udf:dedup", 0, 0.5);
        let a = Tuple::new(1, vec![Value::Int(5), Value::str("LA")]);
        let b = Tuple::new(2, vec![Value::Int(5), Value::str("LA")]);
        assert!(r.detect_pair(&a, &b).is_empty());
    }

    #[test]
    fn self_pair_is_not_a_duplicate() {
        let r = DedupRule::new("udf:dedup", 0, 0.5);
        let a = t(1, "Mary", "LA");
        assert!(r.detect_pair(&a, &a).is_empty());
    }
}
