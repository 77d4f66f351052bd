//! Physical plans: wrappers and enhancers (§4.1-4.2).
//!
//! Each logical Detect chain becomes a [`RulePipeline`] whose Iterate is
//! realized by one of the [`IterateStrategy`] variants. The enhancer
//! selection follows §4.2 exactly:
//!
//! * rule declares LSH params → **LshBlocks** (MinHash banding, each
//!   pair compared once in the first band it shares);
//! * rule blocks → within-block enumeration (unordered when Detect is
//!   symmetric — the UCrossProduct optimization applied inside blocks);
//! * no block + ordering comparisons → **OCJoin**;
//! * no block + symmetric comparisons only → **UCrossProduct**;
//! * otherwise → plain **CrossProduct** (ordered pairs);
//! * single-unit rules detect unit-by-unit;
//! * two non-consolidated Blocks into one Detect → **CoBlock** (handled
//!   by [`crate::executor::Executor::detect_two_tables`]).
//!
//! Cross-rule Block consolidation lives here too: [`block_groups`]
//! groups the pipelines whose rules block on the same source columns
//! ([`Rule::block_columns`]), and the executor runs each group as one
//! Block pass ([`crate::executor::Executor::run_group`]). Algorithm 1
//! ([`crate::consolidate`]) merges operators of one rule only.

use crate::consolidate::consolidate;
use crate::logical::{LogicalPlan, OpKind};
use bigdansing_common::{LshParams, Result};
use bigdansing_rules::{OrderCond, Rule, UnitKind};
use std::sync::Arc;

/// How candidate detect-units are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterateStrategy {
    /// Feed each unit to Detect on its own (`UnitKind::Single` rules).
    SingleUnits,
    /// Block, then enumerate pairs within each block; `ordered` pairs for
    /// order-sensitive Detects, unordered otherwise.
    BlockPairs {
        /// Enumerate ordered (i≠j) instead of unordered (i<j) pairs.
        ordered: bool,
    },
    /// Block, then hand each whole block to Detect (`UnitKind::List`).
    BlockList,
    /// MinHash/LSH banding for similarity rules: each unit is bucketed
    /// once per band by its signature's band hash, pairs are enumerated
    /// within buckets, and a pair sharing several bands is compared
    /// exactly once (in the *first* band both signatures agree on).
    LshBlocks {
        /// Number of LSH bands (per-tuple replication factor).
        bands: usize,
        /// Signature rows hashed together per band.
        rows_per_band: usize,
    },
    /// The UCrossProduct enhancer: all unordered pairs, n(n−1)/2.
    UCrossProduct,
    /// Plain cross product: all ordered pairs (minus the diagonal).
    CrossProduct,
    /// The OCJoin enhancer with its ordering conditions.
    OcJoin(Vec<OrderCond>),
}

/// One executable detection pipeline: a rule, its source dataset, and the
/// chosen physical operators.
#[derive(Clone)]
pub struct RulePipeline {
    /// The rule driving every wrapper in the pipeline.
    pub rule: Arc<dyn Rule>,
    /// The dataset this pipeline scans.
    pub source: String,
    /// Whether a Scope operator runs (plans without Scope push the input
    /// through, §3.2).
    pub use_scope: bool,
    /// Candidate generation strategy.
    pub strategy: IterateStrategy,
    /// Whether a GenFix operator runs (otherwise violations are the
    /// final output).
    pub use_genfix: bool,
}

impl std::fmt::Debug for RulePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RulePipeline[{} on {}: scope={} iterate={:?} genfix={}]",
            self.rule.name(),
            self.source,
            self.use_scope,
            self.strategy,
            self.use_genfix
        )
    }
}

/// A full physical plan: one pipeline per Detect.
#[derive(Debug)]
pub struct PhysicalPlan {
    /// Pipelines in plan order.
    pub pipelines: Vec<RulePipeline>,
    /// How many logical operators Algorithm 1 merged while building this
    /// plan (0 when consolidation found nothing).
    pub consolidated_ops: usize,
}

/// Pick the Iterate implementation for a rule (§4.2's enhancer rules).
pub fn choose_strategy(rule: &dyn Rule) -> IterateStrategy {
    choose_strategy_with(rule, None)
}

/// [`choose_strategy`] under a job-level override of the MinHash/LSH
/// banding geometry — the strategy both the batch cleanse loop and an
/// incremental session run a rule with. The override only touches rules
/// routed to [`IterateStrategy::LshBlocks`].
pub fn choose_strategy_with(rule: &dyn Rule, lsh: Option<LshParams>) -> IterateStrategy {
    match rule.unit_kind() {
        UnitKind::Single => IterateStrategy::SingleUnits,
        UnitKind::List => IterateStrategy::BlockList,
        UnitKind::Pair => {
            if let Some(declared) = rule.lsh() {
                let p = lsh.unwrap_or(declared);
                IterateStrategy::LshBlocks {
                    bands: p.bands,
                    rows_per_band: p.rows_per_band,
                }
            } else if rule.blocks() {
                IterateStrategy::BlockPairs {
                    ordered: !rule.symmetric(),
                }
            } else {
                let conds = rule.ordering_conditions();
                if !conds.is_empty() {
                    IterateStrategy::OcJoin(conds)
                } else if rule.symmetric() {
                    IterateStrategy::UCrossProduct
                } else {
                    IterateStrategy::CrossProduct
                }
            }
        }
    }
}

/// Translate a logical plan into a physical plan: consolidate
/// (Algorithm 1), then map each Detect chain onto wrappers/enhancers.
pub fn translate(plan: LogicalPlan) -> Result<PhysicalPlan> {
    plan.validate()?;
    let (plan, consolidated_ops) = consolidate(plan);
    let mut pipelines = Vec::new();
    for detect in plan.detects() {
        let rule = Arc::clone(&detect.rule);
        let sources = plan.sources_of_op(detect);
        let source = sources
            .into_iter()
            .next()
            .expect("validated plan: detect has a source");
        let use_scope = plan.find_op(OpKind::Scope, rule.name()).is_some();
        let has_block_op = plan.find_op(OpKind::Block, rule.name()).is_some();
        let mut strategy = choose_strategy(rule.as_ref());
        // a rule that *could* block but whose job omitted the Block
        // operator falls back to UCrossProduct (§4.2: used when "users do
        // not provide a matching Block for the Iterate operator")
        if !has_block_op {
            strategy = match strategy {
                IterateStrategy::BlockPairs { ordered: false } => IterateStrategy::UCrossProduct,
                IterateStrategy::BlockPairs { ordered: true } => IterateStrategy::CrossProduct,
                IterateStrategy::BlockList => IterateStrategy::SingleUnits,
                other => other,
            };
        }
        let use_genfix = plan
            .ops
            .iter()
            .any(|o| o.kind == OpKind::GenFix && o.rule.name() == rule.name());
        pipelines.push(RulePipeline {
            rule,
            source,
            use_scope,
            strategy,
            use_genfix,
        });
    }
    Ok(PhysicalPlan {
        pipelines,
        consolidated_ops,
    })
}

/// Group pipelines that can share one Block pass, in registration
/// order: every pipeline that blocks (a `BlockPairs`/`BlockList`
/// strategy) after a Scope joins the first earlier one over the same
/// source whose rule declares the same [`Rule::block_columns`]. Every
/// other pipeline is a group of one. Each group lists pipeline indices
/// in ascending order.
pub fn block_groups(pipelines: &[RulePipeline]) -> Vec<Vec<usize>> {
    fn shares(p: &RulePipeline) -> Option<(&str, &[usize])> {
        let blocks = p.strategy.blocks() && p.use_scope;
        let columns = p.rule.block_columns().filter(|_| blocks)?;
        Some((p.source.as_str(), columns))
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, p) in pipelines.iter().enumerate() {
        let key = shares(p);
        let joined = key.and_then(|key| {
            groups
                .iter_mut()
                .find(|g| shares(&pipelines[g[0]]) == Some(key))
        });
        match joined {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// The standard pipelines of `rules` over `src`, each rule's Iterate
/// strategy chosen under the job-level LSH override (as a batch cleanse
/// and a session both run them).
pub fn pipelines(rules: &[Arc<dyn Rule>], src: &str, lsh: Option<LshParams>) -> Vec<RulePipeline> {
    let pipeline = |rule: &Arc<dyn Rule>| RulePipeline {
        strategy: choose_strategy_with(rule.as_ref(), lsh),
        ..pipeline_for_rule(Arc::clone(rule), src)
    };
    rules.iter().map(pipeline).collect()
}

/// Build the standard pipeline for a rule directly (the path used when a
/// declarative rule is registered without a hand-written job).
pub fn pipeline_for_rule(rule: Arc<dyn Rule>, source: impl Into<String>) -> RulePipeline {
    let strategy = choose_strategy(rule.as_ref());
    RulePipeline {
        rule,
        source: source.into(),
        use_scope: true,
        strategy,
        use_genfix: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use bigdansing_common::{Schema, Tuple, Value};
    use bigdansing_rules::{CfdRule, DcRule, DedupRule, FdRule};

    fn schema() -> Schema {
        Schema::parse("name,zipcode,city,state,salary,rate")
    }

    #[test]
    fn fd_gets_blocked_unordered_pairs() {
        let fd = FdRule::parse("zipcode -> city", &schema()).unwrap();
        assert_eq!(
            choose_strategy(&fd),
            IterateStrategy::BlockPairs { ordered: false }
        );
    }

    #[test]
    fn inequality_dc_gets_ocjoin() {
        let dc = DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", &schema()).unwrap();
        match choose_strategy(&dc) {
            IterateStrategy::OcJoin(conds) => assert_eq!(conds.len(), 2),
            other => panic!("expected OCJoin, got {other:?}"),
        }
    }

    #[test]
    fn equality_dc_blocks() {
        let dc = DcRule::parse("t1.city = t2.city & t1.state != t2.state", &schema()).unwrap();
        assert_eq!(
            choose_strategy(&dc),
            IterateStrategy::BlockPairs { ordered: false }
        );
    }

    #[test]
    fn constant_cfd_is_single_units() {
        let cfd = CfdRule::parse("zipcode -> city | zipcode=90210, city=LA", &schema()).unwrap();
        assert_eq!(choose_strategy(&cfd), IterateStrategy::SingleUnits);
    }

    /// Regression for the `with_block_prefix(0)` docstring promise: a
    /// prefix of 0 really does mean "no Block operator", so the planner
    /// must fall back to the UCrossProduct enhancer — not BlockPairs
    /// over a degenerate single block, and not a panic.
    #[test]
    fn unblocked_dedup_gets_ucross() {
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_block_prefix(0);
        assert!(!r.blocks(), "prefix 0 must disable the Block operator");
        assert_eq!(r.block(&Tuple::new(1, vec![Value::str("Robert")])), None);
        assert_eq!(choose_strategy(&r), IterateStrategy::UCrossProduct);
        // and the auto-built pipeline agrees end to end
        let p = pipeline_for_rule(Arc::new(r), "D");
        assert_eq!(p.strategy, IterateStrategy::UCrossProduct);
    }

    #[test]
    fn lsh_dedup_gets_lsh_blocks() {
        let r = DedupRule::new("udf:dedup", 0, 0.8).with_lsh(LshParams {
            bands: 6,
            rows_per_band: 4,
            shingle: 2,
        });
        assert_eq!(
            choose_strategy(&r),
            IterateStrategy::LshBlocks {
                bands: 6,
                rows_per_band: 4
            }
        );
        // LSH wins even when a prefix is also configured, and even when
        // the prefix is 0 (the UCrossProduct fallback is for rules with
        // *no* candidate-generation hint at all).
        let r = DedupRule::new("udf:dedup", 0, 0.8)
            .with_block_prefix(0)
            .with_lsh(LshParams::default());
        assert!(matches!(
            choose_strategy(&r),
            IterateStrategy::LshBlocks { .. }
        ));
    }

    #[test]
    fn pipelines_blocking_on_the_same_columns_share_a_group() {
        let s = schema();
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &s).unwrap()) };
        let dc = |spec| -> Arc<dyn Rule> { Arc::new(DcRule::parse(spec, &s).unwrap()) };
        let cfd: Arc<dyn Rule> =
            Arc::new(CfdRule::parse("zipcode -> state | state=_", &s).unwrap());
        let unscoped = RulePipeline {
            use_scope: false,
            ..pipeline_for_rule(fd("zipcode -> rate"), "D")
        };
        let pipelines = vec![
            pipeline_for_rule(fd("zipcode -> city"), "D"),
            pipeline_for_rule(dc("t1.salary > t2.salary & t1.rate < t2.rate"), "D"),
            pipeline_for_rule(cfd, "D"),
            pipeline_for_rule(fd("city -> state"), "D"),
            pipeline_for_rule(dc("t1.zipcode = t2.zipcode & t1.rate != t2.rate"), "D"),
            pipeline_for_rule(fd("zipcode -> state"), "E"),
            unscoped,
        ];
        assert_eq!(
            block_groups(&pipelines),
            vec![vec![0, 2, 4], vec![1], vec![3], vec![5], vec![6]]
        );
    }

    #[test]
    fn translate_auto_job() {
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema()).unwrap());
        let mut job = Job::new("t");
        job.add_rule(Arc::clone(&fd), "D");
        let phys = translate(job.build().unwrap()).unwrap();
        assert_eq!(phys.pipelines.len(), 1);
        let p = &phys.pipelines[0];
        assert_eq!(p.source, "D");
        assert!(p.use_scope && p.use_genfix);
        assert_eq!(p.strategy, IterateStrategy::BlockPairs { ordered: false });
    }

    #[test]
    fn job_without_block_falls_back_to_ucross() {
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema()).unwrap());
        let mut job = Job::new("t");
        job.add_input("D", &["S"]);
        job.add_scope(&fd, "S");
        job.add_detect(&fd, "S"); // no Block, no Iterate
        let phys = translate(job.build().unwrap()).unwrap();
        assert_eq!(phys.pipelines[0].strategy, IterateStrategy::UCrossProduct);
        assert!(!phys.pipelines[0].use_genfix);
    }

    #[test]
    fn translate_counts_consolidation() {
        // two flows of the same rule over the same dataset consolidate
        let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema()).unwrap());
        let mut job = Job::new("t");
        job.add_input("D", &["S", "T"]);
        job.add_scope(&fd, "S");
        job.add_scope(&fd, "T");
        job.add_detect(&fd, "S");
        let phys = translate(job.build().unwrap()).unwrap();
        assert_eq!(phys.consolidated_ops, 1);
    }
}
