//! Lightweight execution counters.
//!
//! The paper explains BigDansing's wins through *how much work each plan
//! avoids*: tuples scanned once instead of twice (plan consolidation,
//! Fig 5), candidate pairs generated inside blocks only (Fig 2), partition
//! pairs pruned by OCJoin. These counters let tests and EXPERIMENTS.md
//! verify those claims structurally, independent of wall-clock noise.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// This thread's count of deep row/key payload copies (a fresh
    /// `Vec<Value>` cloned out of an existing tuple or blocking key).
    ///
    /// The copies happen deep inside `Tuple`/`BlockKey` clone paths that
    /// have no engine handle, so they are tallied per thread; the task
    /// runner charges what each task attempt made to its engine's
    /// [`Metrics::tuples_cloned`].
    static COPY_TALLY: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` deep payload copies against this thread's tally.
#[inline]
pub fn record_deep_clones(n: u64) {
    COPY_TALLY.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Replace this thread's deep-copy tally with `n`, returning what it
/// held.
#[inline]
pub fn swap_deep_clones(n: u64) -> u64 {
    COPY_TALLY.with(|c| c.replace(n))
}

/// Declares every counter exactly once. One `doc comment + name` entry
/// generates the [`Metrics`] field, its `reset` and `snapshot` lines,
/// the [`MetricsSnapshot`] field and its `counters()` row — so a metric
/// is one line here and nowhere else.
macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident, )*) => {
        /// Shared, thread-safe counters incremented by the engine and operators.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( $(#[$doc])* pub $name: AtomicU64, )*
        }

        impl Metrics {
            /// Reset every counter to zero.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )*
            }

            /// Snapshot all counters, for printing in the bench harness.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: Metrics::get(&self.$name), )*
                }
            }
        }

        /// A plain-value snapshot of [`Metrics`]: one `u64` per counter,
        /// under the same name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl MetricsSnapshot {
            /// Number of counters declared.
            pub const COUNT: usize = [$(stringify!($name)),*].len();

            /// Every counter as a `(name, value)` pair, in declaration order.
            /// Lets callers aggregate snapshots from several engines (the serve
            /// subsystem sums one per shard) without naming each field.
            pub fn counters(&self) -> [(&'static str, u64); Self::COUNT] {
                [$( (stringify!($name), self.$name), )*]
            }
        }
    };
}

counters! {
    /// Tuples read from input datasets (counts repeated scans).
    tuples_scanned,
    /// Candidate units/pairs emitted by Iterate-style operators.
    pairs_generated,
    /// Detect invocations.
    detect_calls,
    /// Violations produced.
    violations,
    /// Records moved through a shuffle (group-by / co-group / repartition).
    records_shuffled,
    /// Partition pairs pruned by OCJoin's min/max check.
    partitions_pruned,
    /// Partition pairs actually joined by OCJoin.
    partitions_joined,
    /// Bytes written by the disk-backed (Hadoop-style) execution mode.
    bytes_spilled,
    /// Task attempts re-executed after a failure (panic or I/O error).
    tasks_retried,
    /// Worker panics caught and isolated by the task runner.
    panics_caught,
    /// Spills that failed for good: a spill directory that could not be
    /// created, a write that exhausted its retries, or a checkpoint
    /// partition that did not read back.
    spill_failures,
    /// Checkpoints that degraded from disk-backed to in-memory because
    /// a spill failed.
    stages_degraded,
    /// Jobs cancelled cooperatively (user, deadline, or memory ceiling).
    jobs_cancelled,
    /// Jobs that ended cancelled because their deadline passed.
    deadline_trips,
    /// Encoded bytes registered in the engine's memory ledger.
    bytes_tracked,
    /// Checkpointed datasets evicted to disk by memory-budget pressure.
    pressure_spills,
    /// Jobs that waited in the admission queue before starting.
    jobs_queued,
    /// Jobs refused admission by the concurrent-job gate.
    jobs_rejected,
    /// Malformed input rows diverted to a quarantine report by the
    /// lenient parsers instead of aborting the load.
    rows_quarantined,
    /// Physical passes over partitioned data executed by the fused
    /// stage-graph path (shuffle map/merge/reduce and narrow passes).
    passes_executed,
    /// Logical operators that fused into an already-open physical pass
    /// instead of running as their own pass.
    stages_fused,
    /// Tuples touched by incremental delta detection (delta tuples plus
    /// the base tuples probed as candidate partners).
    tuples_reprocessed,
    /// Distinct (rule, blocking-key) blocks marked dirty by a delta batch.
    blocks_dirty,
    /// Stored violations retracted because a contributing row was
    /// deleted or updated.
    violations_retracted,
    /// Violation-graph connected components re-repaired incrementally.
    components_rerepaired,
    /// Deep row/key payload copies (fresh `Vec<Value>` materialized from
    /// an existing tuple or blocking key) made inside this engine's
    /// tasks, failed attempts included. The zero-copy detect path keeps
    /// this at 0: shuffles and pair enumeration move `Arc` handles and
    /// `KeyId`s, never row payloads.
    tuples_cloned,
    /// Bytes moved across wide boundaries (shuffle / co-group /
    /// range-repartition), computed as record size × records routed.
    bytes_shuffled,
    /// Transient durable-IO failures (spill, checkpoint, WAL, snapshot)
    /// retried with backoff instead of surfacing.
    io_retries,
    /// Delta batches appended (and fsync'd) to a session write-ahead log.
    wal_appends,
    /// Durable session snapshots written atomically.
    snapshots_written,
    /// Retry attempts skipped because the failure would repeat (same
    /// panic payload twice on one partition, or a typed error that is
    /// not transient) — backoff budget not burned.
    retries_short_circuited,
    /// Rules quarantined for the rest of a job (or session) after a
    /// failed detect pass in partial mode.
    rules_quarantined,
    /// Candidate units skipped by the outlier-block guard in partial
    /// mode instead of failing the rule.
    units_skipped,
    /// Connected components found in the violation hypergraph by a
    /// repair round (each repaired independently).
    components_found,
    /// Components that exceeded `max_component_size` and took the
    /// k-way partitioned master/slave path.
    components_partitioned,
    /// BSP supersteps executed by the semi-naive connected-components
    /// label propagation until its frontier drained.
    cc_supersteps,
    /// Cell assignments produced by repair rounds (before the cleanse
    /// loop's freeze/no-op filtering).
    repair_cells_assigned,
    /// Malformed streamed ingest records diverted to a quarantine
    /// report by the serve front-end's lenient delta parse (the
    /// streaming counterpart of `rows_quarantined`).
    records_quarantined,
    /// Tuples retired from windowed sessions because the watermark
    /// passed their last containing window (their violations are
    /// retracted through the provenance path).
    tuples_expired,
    /// Candidate pairs actually compared by LSH blocking (after the
    /// cross-band first-shared-band dedup).
    lsh_candidate_pairs,
    /// Within-bucket pairs skipped by LSH because the pair shares an
    /// earlier band (it is compared exactly once, there).
    lsh_pairs_pruned,
    /// LSH band buckets enumerated (batch) or probed by delta tuples
    /// (incremental sessions).
    lsh_bands_probed,
}

impl Metrics {
    /// A fresh, shareable metrics handle.
    pub fn new_shared() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

impl MetricsSnapshot {
    /// Render every counter as one flat JSON object (the serve
    /// subsystem's `GET /stats` payload; the workspace deliberately has
    /// no serde dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new_shared();
        Metrics::add(&m.pairs_generated, 4);
        Metrics::add(&m.pairs_generated, 6);
        assert_eq!(Metrics::get(&m.pairs_generated), 10);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = Metrics::new_shared();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        Metrics::add(&m.records_shuffled, 1);
                    }
                });
            }
        });
        assert_eq!(Metrics::get(&m.records_shuffled), 8000);
    }

    #[test]
    fn every_counter_is_declared_once() {
        let names: Vec<&str> = MetricsSnapshot::default()
            .counters()
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(names.len(), MetricsSnapshot::COUNT);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate counter name");
    }
}
