//! The labeled job API and the planner, end to end (Appendix A + §3.2 +
//! §4.2): build a job by hand, validate it into a logical plan, watch
//! Algorithm 1 consolidate redundant operators, and inspect the physical
//! plan's enhancer choices.
//!
//! Run with: `cargo run --release --example job_api`

use bigdansing::{Engine, Job};
use bigdansing_common::Schema;
use bigdansing_plan::{physical, Executor};
use bigdansing_rules::{DcRule, FdRule, Rule};
use std::sync::Arc;

fn main() {
    let schema = Schema::parse("name,zipcode,city,state,salary,rate");
    let fd: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap());
    let dc: Arc<dyn Rule> =
        Arc::new(DcRule::parse("t1.salary > t2.salary & t1.rate < t2.rate", &schema).unwrap());

    // -- a hand-written job, mirroring Listing 3 of the paper ----------
    let mut job = Job::new("Example Job");
    job.add_input("D1", &["S", "T"]); // two labeled flows of one dataset
    job.add_scope(&fd, "S");
    job.add_scope(&fd, "T"); // redundant on purpose: same rule, same source
    job.add_block(&fd, "S");
    job.add_iterate(&fd, &["S"], "M");
    job.add_detect(&fd, "M");
    job.add_genfix(&fd, "M");
    let logical = job.build().expect("valid job");
    println!("logical plan:\n{logical:?}");

    // -- Algorithm 1: the twin Scope collapses into a shared scan ------
    let physical_plan = physical::translate(logical).expect("translatable");
    println!(
        "consolidation merged {} operator pair(s)",
        physical_plan.consolidated_ops
    );
    for p in &physical_plan.pipelines {
        println!("pipeline: {p:?}");
    }

    // -- enhancer selection per rule class ------------------------------
    println!("\nenhancer choices (§4.2):");
    for (name, rule) in [("FD φF", &fd), ("DC φD", &dc)] {
        println!("  {name}: {:?}", physical::choose_strategy(rule.as_ref()));
    }

    // -- and the auto-generated job for declarative rules ---------------
    let mut auto = Job::new("auto");
    auto.add_rule(Arc::clone(&dc), "D1");
    let plan = auto.build().expect("valid");
    println!("\nauto-generated job for the DC:\n{plan:?}");

    // pipelines execute on any engine; here the sequential oracle
    let table = bigdansing_common::csv::parse_str(
        "D1",
        "name,zipcode,city,state,salary,rate\nA,1,NY,NY,10,5\nB,1,LA,CA,20,1\n",
        true,
        None,
    )
    .unwrap();
    let exec = Executor::new(Engine::sequential());
    for pipeline in &physical::translate(plan).unwrap().pipelines {
        let out = exec
            .run_group(exec.load(&table), table.schema(), &[pipeline], None)
            .unwrap();
        println!(
            "executed {} → {} violation(s)",
            pipeline.rule.name(),
            out[0].violation_count()
        );
    }
}
