//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bigdansing-bench --bin paper_experiments -- all
//! cargo run --release -p bigdansing-bench --bin paper_experiments -- fig9b fig11c
//! BIGDANSING_SCALE=4 cargo run --release ... -- fig10c
//! ```

use bigdansing_bench::experiments;
use bigdansing_bench::Report;

fn run(name: &str) -> Option<Vec<Report>> {
    Some(match name {
        "inventory" => experiments::inventory(),
        "fig8a" => vec![experiments::fig8a()],
        "fig8b" => vec![experiments::fig8b()],
        "fig9a" => vec![experiments::fig9a()],
        "fig9b" => vec![experiments::fig9b()],
        "fig9c" => vec![experiments::fig9c()],
        "fig10a" => vec![experiments::fig10a()],
        "fig10b" => vec![experiments::fig10b()],
        "fig10c" => vec![experiments::fig10c()],
        "fig11a" => vec![experiments::fig11a()],
        "fig11b" => vec![experiments::fig11b()],
        "fig11c" => vec![experiments::fig11c()],
        "fig12a" => vec![experiments::fig12a()],
        "fig12b" => vec![experiments::fig12b()],
        "table4" => experiments::table4(),
        "ablations" => bigdansing_bench::ablations::all(),
        "all" => {
            let mut r = experiments::all();
            r.extend(bigdansing_bench::ablations::all());
            r
        }
        _ => return None,
    })
}

const USAGE: &str = "usage: paper_experiments <experiment>...
experiments: inventory fig8a fig8b fig9a fig9b fig9c fig10a fig10b fig10c
             fig11a fig11b fig11c fig12a fig12b table4 ablations all
env:         BIGDANSING_SCALE=<f64>   row-count multiplier (default 1)
             BIGDANSING_QUAD_CAP=<n>  DNF threshold for quadratic baselines";

/// The workloads allocate and free millions of violation/fix objects
/// across worker threads; mimalloc removes the cross-thread contention
/// of the system allocator (see DESIGN.md, "Dependencies").
#[global_allocator]
static GLOBAL: mimalloc::MiMalloc = mimalloc::MiMalloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for name in &args {
        match run(name) {
            Some(reports) => {
                for r in reports {
                    r.print();
                }
            }
            None => {
                eprintln!("unknown experiment `{name}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
