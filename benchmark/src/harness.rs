//! What every workload shares: the frozen sizes, the run configuration,
//! the measured outcome, percentiles, quality scores and process
//! memory.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of every parallel engine: the CLI default on the
/// 2-core box the sizes were calibrated on.
pub const WORKERS: usize = 2;
/// Load-generating threads / connections of `serve_stream`.
pub const SERVE_CLIENTS: usize = 2;
/// Set-up repetitions per run, at least; `setup_s` is their median.
/// Cheap set-ups (a few milliseconds for `clean_*`) repeat up to
/// [`SETUP_REPS_MAX`] times within [`SETUP_BUDGET_S`], because the
/// median of five 4 ms samples moves by 40% between runs.
pub const SETUP_REPS: usize = 5;
pub const SETUP_REPS_MAX: usize = 25;
pub const SETUP_BUDGET_S: f64 = 0.5;
/// Snapshot cadence of the durable session, in batches.
pub const SNAPSHOT_EVERY: u64 = 64;

/// Input sizes. The full sizes are frozen: they were calibrated once on
/// the seed commit (see README.md) and every baseline depends on them.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fd_rows: usize,
    pub dc_rows: usize,
    pub dedup_rows: usize,
    pub delta_base_rows: usize,
    /// Batches generated up front; a run applies as many as fit in
    /// `--seconds`, at most all of them.
    pub delta_batches: usize,
    pub serve_tenants: usize,
    /// Request bodies generated per tenant, same rule.
    pub serve_requests_per_tenant: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        fd_rows: 120_000,
        dc_rows: 60_000,
        dedup_rows: 25_000,
        delta_base_rows: 100_000,
        delta_batches: 2_048,
        serve_tenants: 64,
        serve_requests_per_tenant: 200,
    };

    /// About 1/50 of the rows: the whole set runs in seconds.
    pub const SMOKE: Sizes = Sizes {
        fd_rows: 2_400,
        dc_rows: 1_200,
        dedup_rows: 500,
        delta_base_rows: 2_000,
        delta_batches: 96,
        serve_tenants: 8,
        serve_requests_per_tenant: 24,
    };

    pub fn to_json(self) -> String {
        format!(
            "{{\"fd_rows\": {}, \"dc_rows\": {}, \"dedup_rows\": {}, \"delta_base_rows\": {}, \
             \"delta_batches\": {}, \"serve_tenants\": {}, \"serve_requests_per_tenant\": {}}}",
            self.fd_rows,
            self.dc_rows,
            self.dedup_rows,
            self.delta_base_rows,
            self.delta_batches,
            self.serve_tenants,
            self.serve_requests_per_tenant
        )
    }
}

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Scratch directory of this run, inside the checkout.
    pub work_dir: PathBuf,
}

impl Cfg {
    /// The same run at smoke scale with a short measured phase, for
    /// the layers a traced workload does not itself exercise.
    pub fn fill_in(&self, sub_dir: &str) -> Cfg {
        Cfg {
            seed: self.seed,
            seconds: 0.2,
            sizes: Sizes::SMOKE,
            work_dir: self.work_dir.join(sub_dir),
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median wall time of the set-ups (at least [`SETUP_REPS`]).
    pub setup_s: f64,
    /// Latency of each measured operation.
    pub latencies_ms: Vec<f64>,
    /// Input rows fully cleansed by the measured operations.
    pub rows: u64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// `VmHWM` over the measured phase (`clean_*`: median of the
    /// per-operation peaks).
    pub peak_rss_mb: f64,
    /// Operations plus output checks attempted.
    pub attempted: u64,
    /// Operations that failed or were refused, plus output checks that
    /// did not hold.
    pub failed: u64,
    pub quality_f1: f64,
}

/// Per-layer metrics of a traced run, by `BENCHMARK.json` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Time `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Run `setup` repeatedly (see [`SETUP_REPS`]), keep the last result,
/// report the median wall time.
pub fn median_setup<R>(mut setup: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_REPS_MAX && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take()); // release the previous set-up's resources first
        let (out, secs) = timed(&mut setup);
        times.push(secs);
        last = Some(out);
    }
    (last.expect("SETUP_REPS > 0"), median(&mut times))
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile; sorts `values`. With fewer than 100
/// samples p99 is the slowest one.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// How a changed cell counts as correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellTruth {
    /// The paper's Table 4: the repair must restore the clean value.
    /// Precision over changed cells, recall over dirtied cells.
    Restored,
    /// The repair must change a cell of a row the generator dirtied.
    /// An inequality DC is as consistent after moving `salary` as after
    /// moving `rate`, and the hypergraph repair moves `salary`, so
    /// asking for the dirtied cell itself would score every repair 0.
    /// Precision over changed cells, recall over dirtied rows.
    ErrorRow,
}

/// Cell-level F1 of a repair. The three CSV texts hold the same rows in
/// the same order; generated values need no quoting, so fields split on
/// commas.
pub fn cell_f1(dirty: &str, repaired: &str, clean: &str, truth: CellTruth) -> f64 {
    // (changed cells, of them correct) and (dirtied units, of them repaired)
    let (mut changed, mut changed_ok, mut dirtied, mut dirtied_ok) = (0u64, 0u64, 0u64, 0u64);
    let mut lines = 0usize;
    for ((d, r), c) in dirty.lines().zip(repaired.lines()).zip(clean.lines()) {
        lines += 1;
        if d == r && d == c {
            continue;
        }
        match truth {
            CellTruth::Restored => {
                for ((df, rf), cf) in d.split(',').zip(r.split(',')).zip(c.split(',')) {
                    let restored = df != rf && rf == cf;
                    changed += (df != rf) as u64;
                    changed_ok += restored as u64;
                    dirtied += (df != cf) as u64;
                    dirtied_ok += restored as u64;
                }
            }
            CellTruth::ErrorRow => {
                let cells = d
                    .split(',')
                    .zip(r.split(','))
                    .filter(|(df, rf)| df != rf)
                    .count();
                changed += cells as u64;
                if d != c {
                    changed_ok += cells as u64;
                    dirtied += 1;
                    dirtied_ok += (cells > 0) as u64;
                }
            }
        }
    }
    // a repaired table with other rows than its input scores nothing
    if [dirty, repaired, clean]
        .iter()
        .any(|t| t.lines().count() != lines)
    {
        return 0.0;
    }
    f1(share(changed_ok, changed), share(dirtied_ok, dirtied))
}

/// Pair-level F1 of a dedup repair: the repair equalizes the names of
/// the rows it merged, so rows sharing a repaired name are the pairs it
/// found; rows sharing an entity are the pairs there are.
pub fn pair_f1(repaired: &str, entity: &[u32]) -> f64 {
    let pairs = |n: u64| n * n.saturating_sub(1) / 2;
    let mut groups: HashMap<&str, HashMap<u32, u64>> = HashMap::new();
    let mut rows = 0usize;
    for (line, e) in repaired.lines().skip(1).zip(entity) {
        let name = line.split(',').next().unwrap_or("");
        *groups.entry(name).or_default().entry(*e).or_default() += 1;
        rows += 1;
    }
    if rows != entity.len() {
        return 0.0;
    }
    let mut per_entity: HashMap<u32, u64> = HashMap::new();
    for e in entity {
        *per_entity.entry(*e).or_default() += 1;
    }
    let actual: u64 = per_entity.values().map(|n| pairs(*n)).sum();
    let (mut found, mut right) = (0u64, 0u64);
    for members in groups.values() {
        found += pairs(members.values().sum());
        right += members.values().map(|n| pairs(*n)).sum::<u64>();
    }
    f1(share(right, found), share(right, actual))
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the peak
/// read after the measured phase does not include set-up. Best effort:
/// where `clear_refs` is not writable the peak covers set-up too.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 100.0);
        assert_eq!(percentile(&mut v, 99.0), 198.0);
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut few, 99.0), 3.0);
        assert_eq!(median(&mut few), 2.0);
    }

    #[test]
    fn cell_f1_counts_restored_and_located_cells() {
        let clean = "h\na,1\nb,2\nc,3\nd,4\n";
        let dirty = "h\na,9\nb,8\nc,3\nd,4\n"; // two errors
                                               // one restored, one changed wrongly, one clean cell broken
        let repaired = "h\na,1\nb,7\nc,5\nd,4\n";
        let restored = cell_f1(dirty, repaired, clean, CellTruth::Restored);
        // precision 1/3, recall 1/2
        assert!((restored - 0.4).abs() < 1e-9, "{restored}");
        let located = cell_f1(dirty, repaired, clean, CellTruth::ErrorRow);
        // precision 2/3 of changed cells sit in dirtied rows, recall 2/2 rows
        assert!((located - 0.8).abs() < 1e-9, "{located}");
        assert_eq!(cell_f1(dirty, dirty, clean, CellTruth::Restored), 0.0);
        assert_eq!(cell_f1(dirty, "h\na,1\n", clean, CellTruth::Restored), 0.0);
    }

    #[test]
    fn pair_f1_scores_merged_names_against_entities() {
        let entity = [0, 0, 1, 1, 2, 2];
        // entity 0 merged, entity 1 missed, entity 2 merged with a stranger
        let repaired = "name,x\naa,1\naa,2\nbb,3\nbc,4\ncc,5\ncc,6\n";
        assert!((pair_f1(repaired, &entity) - 0.8).abs() < 1e-9);
        let wrong = "name,x\naa,1\naa,2\nbb,3\nbc,4\ncc,5\naa,6\n";
        // found {0,1,5}: 3 pairs, 1 right; actual 3 → p 1/3, r 1/3
        assert!((pair_f1(wrong, &entity) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
