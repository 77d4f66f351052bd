//! Per-rule fault isolation: circuit breakers, quarantine, and the
//! guard the fused detect reducer polls between units.
//!
//! BigDansing's rules are user code — a panicking, hanging, or
//! pathological Detect/GenFix UDF must degrade only its own output, not
//! the multi-rule job around it (Bleach runs each rule in an isolated
//! channel for the same reason). This module provides the two pieces:
//!
//! * a [`Bulkhead`] registry of per-rule [`BreakerState`] machines
//!   (closed → open → half-open) keyed on panic/timeout/error counts.
//!   A deterministic failure opens the breaker immediately — the task
//!   layer already proved retrying is futile; transient failures must
//!   repeat [`BreakerConfig::transient_threshold`] times. An open
//!   breaker quarantines the rule for the rest of the job (or, with
//!   [`BreakerConfig::half_open_after`], until a probe is allowed);
//! * a [`RuleGuard`] armed per rule pass carrying the soft time budget
//!   (a [`SoftBudget`](crate::govern::SoftBudget) watchdog) and the
//!   outlier-block straggler threshold, plus the processed/skipped unit
//!   counters that feed the completeness fraction.
//!
//! Whether a guard violation is fatal depends on [`FaultMode`]: strict
//! jobs turn stragglers into typed [`Error::Rule`] failures; partial
//! jobs skip-and-count them and deliver a degraded result.

use crate::govern::SoftBudget;
use bigdansing_common::error::{Error, ErrorClass, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What happens when a rule faults: fail the whole job (strict, the
/// default) or sacrifice that rule's output and keep cleansing with the
/// survivors (partial / best-effort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Any rule fault fails the job with a typed error.
    #[default]
    Strict,
    /// Rule faults quarantine the rule; the job completes with a
    /// degraded, per-rule-attributed result.
    Partial,
}

/// Tuning for the per-rule circuit breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive *transient* failures before the breaker opens.
    /// Deterministic failures open it on the first count — the retry
    /// layer already absorbed anything transient.
    pub transient_threshold: u32,
    /// How many quarantined (skipped) invocations an open breaker waits
    /// before moving to half-open and admitting one probe. `None` means
    /// open is permanent — right for batch jobs, where "the rest of the
    /// job" is the quarantine scope; long-lived sessions may want a
    /// probe cadence.
    pub half_open_after: Option<u32>,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            transient_threshold: 3,
            half_open_after: None,
        }
    }
}

/// Isolation knobs for one job, threaded from `CleanseOptions` (or the
/// CLI's `--partial` / `--rule-timeout-ms` / `--max-block-size`) down
/// to the fused reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationOptions {
    /// Strict (fail the job) or partial (degrade around faulty rules).
    pub mode: FaultMode,
    /// Soft wall-clock budget for one rule's detect pass. Polled
    /// between units, so a single hung UDF invocation is bounded by
    /// the *unit*, not the pass.
    pub rule_time_budget: Option<Duration>,
    /// Straggler threshold: blocks with more tuples than this are
    /// outliers (skipped-and-counted in partial mode, a typed error in
    /// strict mode). `None` disables the guard.
    pub max_block_size: Option<usize>,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for IsolationOptions {
    fn default() -> Self {
        IsolationOptions {
            mode: FaultMode::Strict,
            rule_time_budget: None,
            max_block_size: None,
            breaker: BreakerConfig::default(),
        }
    }
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

/// One rule's breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: invocations flow through.
    Closed,
    /// Quarantined: invocations are skipped.
    Open,
    /// One probe invocation is admitted; its outcome decides
    /// closed-vs-open.
    HalfOpen,
}

#[derive(Debug, Default)]
struct BreakerEntry {
    open: bool,
    half_open: bool,
    consecutive_failures: u32,
    skips_while_open: u32,
    ever_opened: bool,
    cause: String,
}

/// Registry of per-rule circuit breakers for one job or session.
///
/// Rules are keyed by name. All methods take `&self`; the registry is
/// internally locked so a bulkhead can be shared across the executor
/// and the cleanse loop.
#[derive(Debug)]
pub struct Bulkhead {
    config: BreakerConfig,
    mode: FaultMode,
    metrics: Arc<Metrics>,
    entries: Mutex<HashMap<String, BreakerEntry>>,
}

impl Bulkhead {
    /// A fresh bulkhead with every breaker closed.
    pub fn new(config: BreakerConfig, mode: FaultMode, metrics: Arc<Metrics>) -> Bulkhead {
        Bulkhead {
            config,
            mode,
            metrics,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The job's fault mode.
    pub fn mode(&self) -> FaultMode {
        self.mode
    }

    /// Should this rule run now? `false` while quarantined. An open
    /// breaker with a probe cadence counts the skip and, once
    /// `half_open_after` skips have accumulated, transitions to
    /// half-open and admits the call as the probe.
    pub fn admit(&self, rule: &str) -> bool {
        let mut entries = self.entries.lock();
        let e = entries.entry(rule.to_string()).or_default();
        if !e.open {
            return true;
        }
        if e.half_open {
            return true;
        }
        match self.config.half_open_after {
            Some(after) => {
                e.skips_while_open += 1;
                if e.skips_while_open >= after.max(1) {
                    e.half_open = true;
                    true
                } else {
                    false
                }
            }
            None => false,
        }
    }

    /// The rule's breaker position.
    pub fn state(&self, rule: &str) -> BreakerState {
        let entries = self.entries.lock();
        match entries.get(rule) {
            Some(e) if e.open && e.half_open => BreakerState::HalfOpen,
            Some(e) if e.open => BreakerState::Open,
            _ => BreakerState::Closed,
        }
    }

    /// The failure that opened the rule's breaker, while it is open.
    pub fn quarantine_cause(&self, rule: &str) -> Option<String> {
        let entries = self.entries.lock();
        entries
            .get(rule)
            .filter(|e| e.open)
            .map(|e| e.cause.clone())
    }

    /// Record a successful pass: resets the failure streak; a
    /// successful half-open probe closes the breaker.
    pub fn record_success(&self, rule: &str) {
        let mut entries = self.entries.lock();
        let e = entries.entry(rule.to_string()).or_default();
        e.consecutive_failures = 0;
        e.open = false;
        e.half_open = false;
        e.skips_while_open = 0;
    }

    /// Record a failed pass. Deterministic failures open the breaker
    /// immediately; transient/resource failures open it after
    /// `transient_threshold` consecutive counts; a failed half-open
    /// probe re-opens it. Returns `true` when this call tripped the
    /// breaker closed → open (or half-open → open).
    pub fn record_failure(&self, rule: &str, class: ErrorClass, cause: &str) -> bool {
        let mut entries = self.entries.lock();
        let e = entries.entry(rule.to_string()).or_default();
        let was_open = e.open && !e.half_open;
        e.consecutive_failures += 1;
        let trip = class == ErrorClass::Deterministic
            || e.half_open
            || e.consecutive_failures >= self.config.transient_threshold.max(1);
        if !trip {
            return false;
        }
        e.open = true;
        e.half_open = false;
        e.skips_while_open = 0;
        e.cause = cause.to_string();
        if !was_open {
            Metrics::add(&self.metrics.breaker_trips, 1);
            if !e.ever_opened {
                e.ever_opened = true;
                Metrics::add(&self.metrics.rules_quarantined, 1);
            }
            return true;
        }
        false
    }
}

/// Per-pass guard the fused Detect/GenFix reducer polls between units:
/// soft time budget, outlier-block straggler threshold, and the unit
/// counters the completeness fraction is computed from.
#[derive(Debug)]
pub struct RuleGuard {
    rule: String,
    partial: bool,
    max_block: Option<usize>,
    budget: Option<SoftBudget>,
    units_processed: AtomicU64,
    units_skipped: AtomicU64,
}

impl RuleGuard {
    /// Arm a guard for one rule pass. The soft budget's watchdog starts
    /// ticking now and disarms when the guard is dropped.
    pub fn arm(rule: &str, iso: &IsolationOptions) -> Arc<RuleGuard> {
        Arc::new(RuleGuard {
            rule: rule.to_string(),
            partial: iso.is_partial(),
            max_block: iso.max_block_size,
            budget: iso.rule_time_budget.map(SoftBudget::arm),
            units_processed: AtomicU64::new(0),
            units_skipped: AtomicU64::new(0),
        })
    }

    /// The rule this guard watches.
    pub fn rule(&self) -> &str {
        &self.rule
    }

    /// Poll the soft time budget. An expired budget is a typed
    /// [`Error::Rule`] in both modes — a hung rule cannot deliver a
    /// usable partial result, so the breaker (not the skip counter)
    /// decides its fate.
    pub fn check_budget(&self) -> Result<()> {
        if let Some(b) = &self.budget {
            if b.exceeded() {
                return Err(Error::Rule {
                    rule: self.rule.clone(),
                    cause: "soft time budget exceeded".into(),
                });
            }
        }
        Ok(())
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

    fn bulkhead(config: BreakerConfig) -> Bulkhead {
        Bulkhead::new(config, FaultMode::Partial, Metrics::new_shared())
    }

    #[test]
    fn deterministic_failure_opens_immediately() {
        let b = bulkhead(BreakerConfig::default());
        assert!(b.admit("r"));
        assert!(b.record_failure("r", ErrorClass::Deterministic, "panic: boom"));
        assert_eq!(b.state("r"), BreakerState::Open);
        assert!(!b.admit("r"), "open breaker must quarantine");
        assert_eq!(b.quarantine_cause("r").as_deref(), Some("panic: boom"));
        assert_eq!(Metrics::get(&b.metrics.breaker_trips), 1);
        assert_eq!(Metrics::get(&b.metrics.rules_quarantined), 1);
    }

    #[test]
    fn transient_failures_need_the_threshold() {
        let b = bulkhead(BreakerConfig {
            transient_threshold: 3,
            half_open_after: None,
        });
        assert!(!b.record_failure("r", ErrorClass::Transient, "io"));
        assert!(!b.record_failure("r", ErrorClass::Transient, "io"));
        assert_eq!(b.state("r"), BreakerState::Closed);
        assert!(b.admit("r"));
        assert!(b.record_failure("r", ErrorClass::Transient, "io"));
        assert_eq!(b.state("r"), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = bulkhead(BreakerConfig {
            transient_threshold: 2,
            half_open_after: None,
        });
        assert!(!b.record_failure("r", ErrorClass::Transient, "io"));
        b.record_success("r");
        assert!(!b.record_failure("r", ErrorClass::Transient, "io"));
        assert_eq!(b.state("r"), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_failure() {
        let b = bulkhead(BreakerConfig {
            transient_threshold: 1,
            half_open_after: Some(2),
        });
        assert!(b.record_failure("r", ErrorClass::Transient, "io"));
        assert!(!b.admit("r"), "first skip while open");
        assert!(b.admit("r"), "second skip reaches the probe cadence");
        assert_eq!(b.state("r"), BreakerState::HalfOpen);
        // Failed probe: straight back to open, and the trip is counted.
        assert!(b.record_failure("r", ErrorClass::Transient, "io again"));
        assert_eq!(b.state("r"), BreakerState::Open);
        // Work back to half-open; a successful probe closes it.
        assert!(!b.admit("r"));
        assert!(b.admit("r"));
        b.record_success("r");
        assert_eq!(b.state("r"), BreakerState::Closed);
        assert!(b.admit("r"));
        // rules_quarantined counts the rule once, not per trip.
        assert_eq!(Metrics::get(&b.metrics.rules_quarantined), 1);
        assert!(Metrics::get(&b.metrics.breaker_trips) >= 2);
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
            rule_time_budget: Some(Duration::from_millis(5)),
            ..IsolationOptions::default()
        };
        let g = RuleGuard::arm("slow", &iso);
        std::thread::sleep(Duration::from_millis(60));
        let err = g.check_budget().unwrap_err();
        assert!(
            matches!(err, Error::Rule { ref cause, .. } if cause.contains("time budget")),
            "{err:?}"
        );
        // Without a budget the check is free and always Ok.
        let g2 = RuleGuard::arm("fast", &IsolationOptions::default());
        assert!(g2.check_budget().is_ok());
    }

    #[test]
    fn pairs_in_block_counts() {
        assert_eq!(pairs_in_block(0, false), 0);
        assert_eq!(pairs_in_block(1, false), 0);
        assert_eq!(pairs_in_block(4, false), 6);
        assert_eq!(pairs_in_block(4, true), 12);
    }
}
