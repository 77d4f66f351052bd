//! Fault tolerance: retry policy, deterministic fault injection, and
//! the per-rule guard.
//!
//! The platforms the paper targets treat task failure as routine: Spark
//! re-executes failed tasks from lineage, Hadoop re-runs them from the
//! materialized map output. This module gives the laptop-scale stand-in
//! the same property. A [`FaultPolicy`] bounds how often a partition
//! task (or a durable write) is retried and how long the engine backs
//! off between attempts; a [`FaultInjector`] deterministically injects
//! panics, I/O errors, and delays so tests can prove that recovery
//! actually works — same seed, same faults, regardless of thread
//! scheduling.
//!
//! BigDansing's rules are user code, so a panicking, hanging, or
//! pathological Detect/GenFix UDF must degrade only its own output, not
//! the multi-rule job around it (Bleach runs each rule in an isolated
//! channel for the same reason). A [`RuleGuard`] armed per rule pass
//! carries the rule's soft time budget and the outlier-block straggler
//! threshold, and counts the processed/skipped units the completeness
//! fraction is computed from. What a fault costs depends on
//! [`FaultMode`]: strict jobs fail with a typed error; in partial mode
//! the batch cleanse loop and the incremental session both quarantine a
//! rule on its first failed pass and drop what it had detected.

use bigdansing_common::error::{Error, Result};
use bigdansing_common::rng::mix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry and backoff bounds for partition tasks and durable writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Attempts per task before the stage fails with `Error::Task`
    /// (minimum 1 — the initial attempt counts).
    pub max_attempts: u32,
    /// Base backoff slept after a failed attempt; doubles per retry.
    pub backoff: Duration,
}

impl Default for FaultPolicy {
    /// Three attempts with a small exponential backoff — the Spark-like
    /// "tasks are retried a few times before the job fails" default.
    fn default() -> Self {
        FaultPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(2),
        }
    }
}

impl FaultPolicy {
    /// No retries: the first failure aborts the job.
    pub fn fail_fast() -> FaultPolicy {
        FaultPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// `attempts` per task, keeping the default backoff.
    pub fn with_max_attempts(attempts: u32) -> FaultPolicy {
        FaultPolicy {
            max_attempts: attempts.max(1),
            ..FaultPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based attempt that just
    /// failed): `backoff · 2^(attempt−1)`, capped at 1 s.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        self.backoff
            .saturating_mul(factor)
            .min(Duration::from_secs(1))
    }
}

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A partition task body (panic injection).
    Task,
    /// A spill write: a DiskBacked checkpoint partition or a pressure
    /// spill (durable IO fault injection).
    SpillWrite,
    /// A write-ahead-log append (durable IO fault injection).
    WalAppend,
    /// A session snapshot write (durable IO fault injection).
    SnapshotWrite,
}

/// A durable-write fault decision from [`FaultInjector::io_write_fault`].
///
/// `FailWrite` is *loud* — the write reports an error and the caller's
/// retry/backoff path runs. `ShortWrite` and `CorruptByte` are *silent*
/// — the write reports success but the bytes on disk are wrong, which
/// only the checksummed frame codec can catch at read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The write attempt fails with an I/O error (retryable).
    FailWrite,
    /// Only a prefix of the buffer reaches disk; success is reported.
    ShortWrite,
    /// One byte of the buffer is flipped before writing; success is
    /// reported.
    CorruptByte,
}

/// Deterministic, seeded fault injector.
///
/// Every decision is a pure function of `(seed, site, stage, partition,
/// attempt)`, so a given engine configuration produces the same faults
/// on every run and on every thread interleaving. A retried attempt
/// rolls fresh, so a site only exhausts its retries when all
/// `max_attempts` rolls land under the fault probability — chance
/// `p^max_attempts` per site; tests pin seeds where every site recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    task_panic: f64,
    delay: f64,
    delay_for: Duration,
    io_write_fail: f64,
    io_short_write: f64,
    io_corrupt_byte: f64,
    io_fsync_fail: f64,
    io_fail_first_attempt: bool,
}

impl FaultInjector {
    /// An injector that injects nothing (yet); chain `with_*` setters.
    pub fn seeded(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            task_panic: 0.0,
            delay: 0.0,
            delay_for: Duration::ZERO,
            io_write_fail: 0.0,
            io_short_write: 0.0,
            io_corrupt_byte: 0.0,
            io_fsync_fail: 0.0,
            io_fail_first_attempt: false,
        }
    }

    /// Probability that a task attempt panics.
    pub fn with_task_panics(mut self, p: f64) -> FaultInjector {
        self.task_panic = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that a task attempt is delayed by `for_each` first
    /// (straggler simulation).
    pub fn with_delays(mut self, p: f64, for_each: Duration) -> FaultInjector {
        self.delay = p.clamp(0.0, 1.0);
        self.delay_for = for_each;
        self
    }

    /// Probability that a durable write attempt (WAL append, snapshot,
    /// spill) fails loudly with an I/O error.
    pub fn with_io_write_failures(mut self, p: f64) -> FaultInjector {
        self.io_write_fail = p.clamp(0.0, 1.0);
        self
    }

    /// Every durable write's *first* attempt fails loudly; retries
    /// succeed. The deterministic "fail-once" fault for proving the
    /// retry/backoff path without risking retry exhaustion.
    pub fn with_io_fail_once(mut self) -> FaultInjector {
        self.io_fail_first_attempt = true;
        self
    }

    /// Probability that a durable write silently persists only a prefix
    /// of the buffer (torn write). Only the frame CRC can catch this.
    pub fn with_io_short_writes(mut self, p: f64) -> FaultInjector {
        self.io_short_write = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that a durable write silently flips one byte.
    pub fn with_io_corrupt_bytes(mut self, p: f64) -> FaultInjector {
        self.io_corrupt_byte = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that the fsync after a durable write fails loudly.
    pub fn with_io_fsync_failures(mut self, p: f64) -> FaultInjector {
        self.io_fsync_fail = p.clamp(0.0, 1.0);
        self
    }

    /// A uniform draw in `[0, 1)` for one decision, keyed by every
    /// coordinate that identifies the attempt plus a purpose salt.
    fn roll(&self, salt: u64, site: FaultSite, stage: u64, partition: usize, attempt: u32) -> f64 {
        let site_id = match site {
            FaultSite::Task => 1u64,
            FaultSite::SpillWrite => 2,
            FaultSite::WalAppend => 4,
            FaultSite::SnapshotWrite => 5,
        };
        let z = mix(self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(site_id.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(stage.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
            .wrapping_add((partition as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9FB2_1C65_1E98_DF25)));
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Run the injections configured for one task attempt: possibly
    /// sleep, then possibly panic.
    pub(crate) fn inject_task(&self, stage: u64, partition: usize, attempt: u32) {
        let site = FaultSite::Task;
        if self.delay > 0.0 && self.roll(11, site, stage, partition, attempt) < self.delay {
            std::thread::sleep(self.delay_for);
        }
        if self.task_panic > 0.0 && self.roll(13, site, stage, partition, attempt) < self.task_panic
        {
            panic!("injected panic: stage {stage} partition {partition} attempt {attempt}");
        }
    }

    /// The durable-write fault (if any) for one attempt at `site`.
    /// `stream` distinguishes independent byte streams through the same
    /// site (a WAL record seq, a snapshot generation, a spill slot).
    /// Loud faults win over silent ones so retry tests stay simple.
    pub fn io_write_fault(&self, site: FaultSite, stream: u64, attempt: u32) -> Option<IoFault> {
        if self.io_fail_first_attempt && attempt == 1 {
            return Some(IoFault::FailWrite);
        }
        if self.io_write_fail > 0.0 && self.roll(19, site, stream, 0, attempt) < self.io_write_fail
        {
            return Some(IoFault::FailWrite);
        }
        if self.io_short_write > 0.0
            && self.roll(23, site, stream, 0, attempt) < self.io_short_write
        {
            return Some(IoFault::ShortWrite);
        }
        if self.io_corrupt_byte > 0.0
            && self.roll(29, site, stream, 0, attempt) < self.io_corrupt_byte
        {
            return Some(IoFault::CorruptByte);
        }
        None
    }

    /// Whether the fsync after a durable write at `site` fails loudly.
    pub fn io_fsync_fails(&self, site: FaultSite, stream: u64, attempt: u32) -> bool {
        self.io_fsync_fail > 0.0 && self.roll(31, site, stream, 0, attempt) < self.io_fsync_fail
    }
}

/// What happens when a rule faults: fail the whole job (strict, the
/// default) or sacrifice that rule's output and keep cleansing with the
/// survivors (partial / best-effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Any rule fault fails the job with a typed error.
    #[default]
    Strict,
    /// A rule fault quarantines the rule; the job completes with a
    /// degraded, per-rule-attributed result.
    Partial,
}

/// Isolation knobs for one job or session, threaded from
/// `CleanseOptions` (or the CLI's `--partial` / `--rule-timeout-ms` /
/// `--max-block-size`) down to the detect reducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IsolationOptions {
    /// Strict (fail the job) or partial (quarantine faulty rules).
    pub mode: FaultMode,
    /// Soft wall-clock budget for one rule's detect pass, batch or
    /// delta. Checked between units, so a single hung UDF invocation is
    /// bounded by the *unit*, not the pass.
    pub rule_time_budget: Option<Duration>,
    /// Straggler threshold of Block and LSH buckets, batch and session
    /// alike: buckets with more tuples than this are outliers
    /// (skipped-and-counted in partial mode, a typed error in strict
    /// mode). `None` disables the guard.
    pub max_block_size: Option<usize>,
}

impl IsolationOptions {
    /// Best-effort defaults: partial mode with everything else stock.
    pub fn partial() -> IsolationOptions {
        IsolationOptions {
            mode: FaultMode::Partial,
            ..IsolationOptions::default()
        }
    }

    /// Whether faults degrade instead of failing the job.
    pub fn is_partial(&self) -> bool {
        self.mode == FaultMode::Partial
    }
}

/// Per-pass guard the detect reducers poll between units: soft time
/// budget, outlier-block straggler threshold, and the unit counters the
/// completeness fraction is computed from.
#[derive(Debug)]
pub struct RuleGuard {
    rule: String,
    partial: bool,
    max_block: Option<usize>,
    /// When the soft time budget runs out (`None`: no budget).
    expires: Option<Instant>,
    units_processed: AtomicU64,
    units_skipped: AtomicU64,
}

impl RuleGuard {
    /// Arm a guard for one rule pass; its time budget starts now.
    pub fn arm(rule: &str, iso: &IsolationOptions) -> Arc<RuleGuard> {
        Arc::new(RuleGuard {
            rule: rule.to_string(),
            partial: iso.is_partial(),
            max_block: iso.max_block_size,
            expires: iso.rule_time_budget.map(|budget| Instant::now() + budget),
            units_processed: AtomicU64::new(0),
            units_skipped: AtomicU64::new(0),
        })
    }

    /// The rule this guard watches.
    pub fn rule(&self) -> &str {
        &self.rule
    }

    /// Check the soft time budget; reads the clock only when a budget is
    /// set. An expired budget is a typed [`Error::Rule`] in both modes —
    /// a hung rule cannot deliver a usable partial result, so partial
    /// mode quarantines it.
    pub fn check_budget(&self) -> Result<()> {
        match self.expires {
            Some(at) if Instant::now() >= at => Err(Error::Rule {
                rule: self.rule.clone(),
                cause: "soft time budget exceeded".into(),
            }),
            _ => Ok(()),
        }
    }

    /// Gate one block of `len` tuples producing `units` candidate
    /// units. `Ok(true)` admits it; an outlier block is skipped and
    /// counted in partial mode (`Ok(false)`) and a typed error in
    /// strict mode.
    pub fn admit_block(&self, len: usize, units: u64) -> Result<bool> {
        let Some(cap) = self.max_block else {
            return Ok(true);
        };
        if len <= cap {
            return Ok(true);
        }
        if self.partial {
            self.units_skipped
                .fetch_add(units.max(1), Ordering::Relaxed);
            Ok(false)
        } else {
            Err(Error::Rule {
                rule: self.rule.clone(),
                cause: format!(
                    "outlier block of {len} tuples exceeds the {cap}-tuple straggler threshold"
                ),
            })
        }
    }

    /// Count `n` units processed.
    pub fn count_units(&self, n: u64) {
        self.units_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Units processed so far this pass.
    pub fn units_processed(&self) -> u64 {
        self.units_processed.load(Ordering::Relaxed)
    }

    /// Units skipped by the straggler guard so far this pass.
    pub fn units_skipped(&self) -> u64 {
        self.units_skipped.load(Ordering::Relaxed)
    }
}

/// Candidate pairs in a block of `len` tuples: `len·(len−1)/2`
/// unordered, doubled when both orientations are enumerated.
pub fn pairs_in_block(len: usize, ordered: bool) -> u64 {
    let n = len as u64;
    let unordered = n.saturating_mul(n.saturating_sub(1)) / 2;
    if ordered {
        unordered.saturating_mul(2)
    } else {
        unordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_retries_with_backoff() {
        let p = FaultPolicy::default();
        assert_eq!(p.max_attempts, 3);
        assert!(p.backoff_for(2) > p.backoff_for(1));
        assert!(p.backoff_for(30) <= Duration::from_secs(1));
    }

    #[test]
    fn fail_fast_policy_does_not_retry() {
        let p = FaultPolicy::fail_fast();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_for(1), Duration::ZERO);
    }

    #[test]
    fn injection_is_deterministic() {
        let a = FaultInjector::seeded(42).with_task_panics(0.5);
        let b = FaultInjector::seeded(42).with_task_panics(0.5);
        for stage in 0..4u64 {
            for part in 0..16usize {
                for attempt in 1..4u32 {
                    assert_eq!(
                        a.roll(13, FaultSite::Task, stage, part, attempt),
                        b.roll(13, FaultSite::Task, stage, part, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn different_attempts_roll_differently() {
        let inj = FaultInjector::seeded(7).with_task_panics(1.0);
        let r1 = inj.roll(13, FaultSite::Task, 0, 0, 1);
        let r2 = inj.roll(13, FaultSite::Task, 0, 0, 2);
        assert_ne!(r1, r2);
    }

    #[test]
    fn task_site_panics_when_probability_is_one() {
        let inj = FaultInjector::seeded(1).with_task_panics(1.0);
        let caught = std::panic::catch_unwind(|| {
            inj.inject_task(0, 0, 1);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let inj = FaultInjector::seeded(5);
        for part in 0..100 {
            inj.inject_task(0, part, 1);
        }
        for stream in 0..100 {
            assert_eq!(inj.io_write_fault(FaultSite::WalAppend, stream, 1), None);
            assert!(!inj.io_fsync_fails(FaultSite::SnapshotWrite, stream, 1));
        }
    }

    #[test]
    fn io_fail_once_fails_exactly_the_first_attempt() {
        let inj = FaultInjector::seeded(3).with_io_fail_once();
        for stream in 0..32u64 {
            assert_eq!(
                inj.io_write_fault(FaultSite::WalAppend, stream, 1),
                Some(IoFault::FailWrite)
            );
            assert_eq!(inj.io_write_fault(FaultSite::WalAppend, stream, 2), None);
            assert_eq!(
                inj.io_write_fault(FaultSite::SnapshotWrite, stream, 3),
                None
            );
        }
    }

    #[test]
    fn io_faults_are_deterministic_and_site_keyed() {
        let a = FaultInjector::seeded(11)
            .with_io_short_writes(0.4)
            .with_io_corrupt_bytes(0.2)
            .with_io_fsync_failures(0.3);
        let b = FaultInjector::seeded(11)
            .with_io_short_writes(0.4)
            .with_io_corrupt_bytes(0.2)
            .with_io_fsync_failures(0.3);
        let mut differs = false;
        for stream in 0..64u64 {
            for attempt in 1..4u32 {
                let wal = a.io_write_fault(FaultSite::WalAppend, stream, attempt);
                assert_eq!(wal, b.io_write_fault(FaultSite::WalAppend, stream, attempt));
                let snap = a.io_write_fault(FaultSite::SnapshotWrite, stream, attempt);
                assert_eq!(
                    snap,
                    b.io_write_fault(FaultSite::SnapshotWrite, stream, attempt)
                );
                differs |= wal != snap;
                assert_eq!(
                    a.io_fsync_fails(FaultSite::WalAppend, stream, attempt),
                    b.io_fsync_fails(FaultSite::WalAppend, stream, attempt)
                );
            }
        }
        assert!(differs, "sites must roll independently");
    }

    #[test]
    fn io_fault_probabilities_are_roughly_honored() {
        let inj = FaultInjector::seeded(77).with_io_write_failures(0.25);
        let n = 10_000u64;
        let fails = (0..n)
            .filter(|s| inj.io_write_fault(FaultSite::WalAppend, *s, 1).is_some())
            .count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn guard_skips_outlier_blocks_in_partial_mode() {
        let iso = IsolationOptions {
            mode: FaultMode::Partial,
            max_block_size: Some(4),
            ..IsolationOptions::default()
        };
        let g = RuleGuard::arm("r", &iso);
        assert!(g.admit_block(3, 3).unwrap());
        assert!(!g.admit_block(9, pairs_in_block(9, false)).unwrap());
        assert_eq!(g.units_skipped(), 36);
        g.count_units(3);
        assert_eq!(g.units_processed(), 3);
    }

    #[test]
    fn guard_errors_on_outlier_blocks_in_strict_mode() {
        let iso = IsolationOptions {
            mode: FaultMode::Strict,
            max_block_size: Some(4),
            ..IsolationOptions::default()
        };
        let g = RuleGuard::arm("dc:t1.a<t2.a", &iso);
        let err = g.admit_block(10, 45).unwrap_err();
        match err {
            Error::Rule { rule, cause } => {
                assert_eq!(rule, "dc:t1.a<t2.a");
                assert!(cause.contains("straggler"), "{cause}");
            }
            other => panic!("expected Error::Rule, got {other:?}"),
        }
        assert_eq!(g.units_skipped(), 0);
    }

    #[test]
    fn guard_budget_expires() {
        let iso = IsolationOptions {
            rule_time_budget: Some(Duration::ZERO),
            ..IsolationOptions::default()
        };
        let err = RuleGuard::arm("slow", &iso).check_budget().unwrap_err();
        assert!(
            matches!(err, Error::Rule { ref cause, .. } if cause.contains("time budget")),
            "{err:?}"
        );
        let iso = IsolationOptions {
            rule_time_budget: Some(Duration::from_secs(600)),
            ..IsolationOptions::default()
        };
        assert!(RuleGuard::arm("slow", &iso).check_budget().is_ok());
        // Without a budget the check is free and always Ok.
        let g = RuleGuard::arm("fast", &IsolationOptions::default());
        assert!(g.check_budget().is_ok());
    }

    #[test]
    fn pairs_in_block_counts() {
        assert_eq!(pairs_in_block(0, false), 0);
        assert_eq!(pairs_in_block(1, false), 0);
        assert_eq!(pairs_in_block(4, false), 6);
        assert_eq!(pairs_in_block(4, true), 12);
    }
}
