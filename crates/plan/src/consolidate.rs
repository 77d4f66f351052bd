//! Logical plan consolidation — Algorithm 1 of the paper.
//!
//! "Whenever logical operators use a different label for the same
//! dataset, BigDansing … consolidates redundant logical operators into a
//! single logical operator", turning the twin Scope/Block chains of
//! Figure 5(a) into the shared-scan plan of Figure 5(b). Two operators
//! match when they have the same kind, invoke the same UDF (rule), and
//! read the same source dataset(s); the consolidated operator takes the
//! labels of both.
//!
//! Operators of *different* rules never match here, because their UDFs
//! differ. Rules whose Block keys are the same source columns are
//! consolidated one layer down instead:
//! [`crate::physical::block_groups`] groups their pipelines, and the
//! executor runs each group as one Block pass — one shuffle, one bucket
//! build — that every member rule's Scope and Detect read.

use crate::logical::{LogicalOp, LogicalPlan, OpKind};

fn matches(plan: &LogicalPlan, a: &LogicalOp, b: &LogicalOp) -> bool {
    a.kind == b.kind
        && a.kind != OpKind::Detect      // one Detect per flow, never merged
        && a.kind != OpKind::GenFix
        && a.rule.name() == b.rule.name()
        && plan.sources_of_op(a) == plan.sources_of_op(b)
        && a.out_labels != b.out_labels
}

/// Run Algorithm 1: returns the consolidated plan and how many operator
/// pairs were merged.
pub fn consolidate(plan: LogicalPlan) -> (LogicalPlan, usize) {
    let mut ops: Vec<Option<LogicalOp>> = plan.ops.iter().cloned().map(Some).collect();
    let mut merged = 0usize;
    // lines 2-10: for each operator, find a matching one and merge
    for i in 0..ops.len() {
        let Some(op_i) = ops[i].clone() else { continue };
        for j in (i + 1)..ops.len() {
            let Some(op_j) = ops[j].clone() else { continue };
            if matches(&plan, &op_i, &op_j) {
                let mut lop_c = op_i.clone();
                for l in &op_j.in_labels {
                    if !lop_c.in_labels.contains(l) {
                        lop_c.in_labels.push(l.clone());
                    }
                }
                for l in &op_j.out_labels {
                    if !lop_c.out_labels.contains(l) {
                        lop_c.out_labels.push(l.clone());
                    }
                }
                ops[i] = Some(lop_c);
                ops[j] = None;
                merged += 1;
                break;
            }
        }
    }
    if merged == 0 {
        // line 15: nothing consolidated, return the original plan
        return (plan, 0);
    }
    let new_ops: Vec<LogicalOp> = ops.into_iter().flatten().collect();
    (
        LogicalPlan {
            sources: plan.sources,
            ops: new_ops,
        },
        merged,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Schema;
    use bigdansing_rules::{DcRule, Rule};
    use std::sync::Arc;

    /// Build Figure 5(a): the TPC-H DC whose Scope and Block are applied
    /// twice over the same input dataset under labels T1 and T2.
    fn figure5_plan() -> LogicalPlan {
        let schema = Schema::parse("c_name,c_phone,c_city,s_name,s_phone,s_city");
        let dc: Arc<dyn Rule> = Arc::new(
            DcRule::parse(
                "t1.c_name = t2.c_name & t1.c_phone = t2.c_phone & t1.c_city != t2.c_city",
                &schema,
            )
            .unwrap(),
        );
        let op = |kind, ins: &[&str], outs: &[&str]| LogicalOp {
            kind,
            rule: Arc::clone(&dc),
            in_labels: ins.iter().map(|s| s.to_string()).collect(),
            out_labels: outs.iter().map(|s| s.to_string()).collect(),
        };
        LogicalPlan {
            sources: vec![("D1".into(), "T1".into()), ("D1".into(), "T2".into())],
            ops: vec![
                op(OpKind::Scope, &["T1"], &["T1"]),
                op(OpKind::Scope, &["T2"], &["T2"]),
                op(OpKind::Block, &["T1"], &["T1"]),
                op(OpKind::Block, &["T2"], &["T2"]),
                op(OpKind::Iterate, &["T1", "T2"], &["T12"]),
                op(OpKind::Detect, &["T12"], &["V"]),
                op(OpKind::GenFix, &["V"], &["F"]),
            ],
        }
    }

    #[test]
    fn figure5_scope_and_block_are_merged() {
        let (plan, merged) = consolidate(figure5_plan());
        assert_eq!(merged, 2, "one Scope pair + one Block pair");
        let scopes: Vec<&LogicalOp> = plan
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Scope)
            .collect();
        assert_eq!(scopes.len(), 1);
        assert_eq!(
            scopes[0].out_labels,
            vec!["T1".to_string(), "T2".to_string()]
        );
        let blocks: Vec<&LogicalOp> = plan
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Block)
            .collect();
        assert_eq!(blocks.len(), 1);
        // Detect and GenFix are untouched
        assert_eq!(plan.detects().len(), 1);
        plan.validate().unwrap();
    }

    #[test]
    fn different_sources_are_not_merged() {
        let mut plan = figure5_plan();
        plan.sources = vec![("D1".into(), "T1".into()), ("D2".into(), "T2".into())];
        let (plan, merged) = consolidate(plan);
        assert_eq!(merged, 0);
        assert_eq!(
            plan.ops.iter().filter(|o| o.kind == OpKind::Scope).count(),
            2
        );
    }

    #[test]
    fn detect_is_never_consolidated() {
        let mut plan = figure5_plan();
        // duplicate the Detect under another label
        let mut d2 = plan.ops[5].clone();
        d2.out_labels = vec!["V2".into()];
        plan.ops.push(d2);
        let (plan, _) = consolidate(plan);
        assert_eq!(plan.detects().len(), 2);
    }

    #[test]
    fn consolidation_is_idempotent() {
        let (plan, merged1) = consolidate(figure5_plan());
        let ops_before = plan.ops.len();
        let (plan, merged2) = consolidate(plan);
        assert!(merged1 > 0);
        assert_eq!(merged2, 0);
        assert_eq!(plan.ops.len(), ops_before);
    }
}
