#![warn(missing_docs)]

//! # bigdansing-bench
//!
//! The paper's figures only: the harness that regenerates every table
//! and figure of the paper's evaluation (§6). Each `fig_*` / `table4`
//! function in [`experiments`] produces a [`Report`] with the same
//! rows/series the paper plots; the `paper_experiments` binary prints
//! them as tables
//! (`cargo run --release -p bigdansing-bench --bin paper_experiments -- all`),
//! and the `paper` bench target runs the full battery under
//! `cargo bench`. What a change to the system is judged by — end-to-end
//! and per-layer numbers for `clean`, `delta` and `serve`, with their
//! byte-parity checks — is the repo benchmark (`BENCHMARK.json`,
//! `benchmark/`), not this crate.
//!
//! Absolute numbers are not expected to match the paper (its testbed was
//! a 17-node cluster; ours is a container) — the *shape* is the claim:
//! who wins, by roughly what factor, and where the crossovers fall.
//! Dataset sizes default to container scale and stretch with
//! `BIGDANSING_SCALE` (a float multiplier on row counts).

pub mod ablations;
pub mod experiments;
pub mod report;
pub mod runners;

pub use report::Report;

/// Row-count multiplier from the `BIGDANSING_SCALE` env var (default 1).
pub fn scale() -> f64 {
    std::env::var("BIGDANSING_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a base row count.
pub fn rows(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Wall-clock a closure twice and keep the faster run — the first run
/// pays one-off costs (allocator growth, page faults, thread spawns)
/// that would otherwise bias whichever system is measured first.
pub fn time_best<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (_, first) = time(&mut f);
    let (out, second) = time(&mut f);
    (out, first.min(second))
}

/// The row cap beyond which quadratic baselines (NADEEF, cross-product
/// engines) are skipped and reported as `DNF` — the analogue of the
/// paper's 4-hour timeout.
pub fn quadratic_cap() -> usize {
    std::env::var("BIGDANSING_QUAD_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_defaults() {
        assert_eq!(rows(100), (100.0 * scale()) as usize);
        assert!(quadratic_cap() > 0);
    }

    #[test]
    fn time_measures_something() {
        let ((), secs) = time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(secs >= 0.004);
    }
}
