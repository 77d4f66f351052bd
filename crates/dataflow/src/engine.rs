//! The execution context: worker count, mode, metrics, fault policy,
//! spill directory.

use crate::fault::{FaultInjector, FaultPolicy};
use crate::govern::{CancellationToken, MemoryBudget, Spillable};
use crate::pool::{self, TaskCtx};
use crate::stage::{render_plan, PassKind, PassRecord};
use bigdansing_common::error::{CancelReason, Error, Result};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// How a [`crate::PDataset`] executes its transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single worker, inline execution. The correctness oracle.
    Sequential,
    /// Spark-like: in-memory, multi-threaded.
    Parallel,
    /// Hadoop-like: multi-threaded, but [`crate::PDataset::checkpoint`]
    /// round-trips every partition through disk at stage boundaries.
    DiskBacked,
}

struct EngineInner {
    mode: ExecMode,
    workers: usize,
    metrics: Arc<Metrics>,
    spill_dir: PathBuf,
    spill_seq: AtomicU64,
    /// Stage counter keying the fault injector's deterministic rolls;
    /// bumped once per fault-tolerant pool run, from the driver thread.
    stage_seq: AtomicU64,
    policy: FaultPolicy,
    injector: Option<FaultInjector>,
    /// Set when a DiskBacked checkpoint demoted itself to in-memory.
    degraded: AtomicBool,
    /// Set when the engine actually created its spill directory, so
    /// Drop only removes directories this engine made.
    spill_dir_created: AtomicBool,
    /// Set once a pre-existing spill directory has been swept of
    /// orphaned `.tmp` files, so the sweep runs at most once.
    tmp_swept: AtomicBool,
    /// Memory-budget policy; `None` disables the ledger entirely.
    budget: Option<MemoryBudget>,
    /// The token of the job currently running on this engine; replaced
    /// by [`Engine::begin_job`], reset when its guard drops.
    current: Mutex<CancellationToken>,
    /// Weak registry of budget-tracked datasets; pruned on enforcement.
    ledger: Mutex<Vec<Weak<dyn Spillable>>>,
    /// Logical clock ordering ledger accesses, for coldest-first
    /// eviction.
    ledger_clock: AtomicU64,
    /// Trace of physical passes executed by the fused stage-graph path,
    /// rendered by [`Engine::explain`].
    plan_trace: Mutex<Vec<PassRecord>>,
}

impl Drop for EngineInner {
    fn drop(&mut self) {
        // Best-effort cleanup of the temp spill dir when the last
        // Engine handle goes away; leaks here were previously permanent.
        if self.spill_dir_created.load(Ordering::Relaxed) {
            let _ = std::fs::remove_dir_all(&self.spill_dir);
        } else if self.spill_dir.is_dir() {
            // Pre-existing (user-provided) dir: keep it, but sweep any
            // `.tmp` orphans left by interrupted atomic writes.
            crate::dio::sweep_orphan_tmps(&self.spill_dir);
        }
    }
}

/// Configures an [`Engine`] before construction: worker count, fault
/// policy, fault injection, and spill directory.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    mode: ExecMode,
    workers: usize,
    policy: FaultPolicy,
    injector: Option<FaultInjector>,
    spill_dir: Option<PathBuf>,
    budget: Option<MemoryBudget>,
}

impl EngineBuilder {
    /// Number of worker threads (clamped to at least 1; ignored by
    /// `Sequential`).
    pub fn workers(mut self, workers: usize) -> EngineBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Retry/backoff bounds for partition tasks and durable writes.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Deterministic fault injection for tests and chaos runs.
    pub fn fault_injector(mut self, injector: FaultInjector) -> EngineBuilder {
        self.injector = Some(injector);
        self
    }

    /// Override the checkpoint spill directory (default: a fresh
    /// process-unique directory under the system temp dir).
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Bound the resident bytes of checkpointed datasets. Past the soft
    /// limit the coldest datasets are evicted to disk; a dataset whose
    /// estimate alone exceeds the hard ceiling cancels its job with
    /// [`CancelReason::MemoryExceeded`].
    pub fn memory_budget(mut self, budget: MemoryBudget) -> EngineBuilder {
        self.budget = Some(budget);
        self
    }

    /// Construct the engine.
    ///
    /// When the `BIGDANSING_CHAOS` environment variable is set to a
    /// numeric seed and the builder has no injector of its own, the
    /// engine is built with a chaos [`FaultInjector`]: sporadic task
    /// panics plus fail-once durable IO, with the retry budget raised
    /// to absorb them, and — unless a budget was configured — a tiny
    /// soft memory budget without a hard ceiling, so datasets spill
    /// under pressure but no job is cancelled for its size. CI's chaos
    /// matrix uses this to run the ordinary test suites under fault
    /// injection without touching their code.
    pub fn build(mut self) -> Engine {
        if self.injector.is_none() {
            if let Some(seed) = std::env::var("BIGDANSING_CHAOS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            {
                self.injector = Some(
                    FaultInjector::seeded(seed)
                        .with_task_panics(0.02)
                        .with_io_fail_once(),
                );
                self.policy.max_attempts = self.policy.max_attempts.max(5);
                if self.budget.is_none() {
                    self.budget = Some(MemoryBudget::new(1 << 20, u64::MAX));
                }
            }
        }
        let spill_dir = self.spill_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "bigdansing-spill-{}-{}",
                std::process::id(),
                NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed)
            ))
        });
        Engine {
            inner: Arc::new(EngineInner {
                mode: self.mode,
                workers: self.workers,
                metrics: Metrics::new_shared(),
                spill_dir,
                spill_seq: AtomicU64::new(0),
                stage_seq: AtomicU64::new(0),
                policy: self.policy,
                injector: self.injector,
                degraded: AtomicBool::new(false),
                spill_dir_created: AtomicBool::new(false),
                tmp_swept: AtomicBool::new(false),
                budget: self.budget,
                current: Mutex::new(CancellationToken::new("ad-hoc", None)),
                ledger: Mutex::new(Vec::new()),
                ledger_clock: AtomicU64::new(0),
                plan_trace: Mutex::new(Vec::new()),
            }),
        }
    }
}

/// A cheaply clonable handle on the execution context. All datasets
/// created from the same engine share its worker pool, metrics, fault
/// policy, and spill directory.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Start configuring an engine for `mode`.
    pub fn builder(mode: ExecMode) -> EngineBuilder {
        EngineBuilder {
            mode,
            workers: 1,
            policy: FaultPolicy::default(),
            injector: None,
            spill_dir: None,
            budget: None,
        }
    }

    /// A single-threaded engine.
    pub fn sequential() -> Engine {
        Engine::builder(ExecMode::Sequential).build()
    }

    /// A Spark-like in-memory engine with `workers` threads.
    pub fn parallel(workers: usize) -> Engine {
        Engine::builder(ExecMode::Parallel).workers(workers).build()
    }

    /// A Hadoop-like engine with `workers` threads whose checkpoints
    /// materialize through disk.
    pub fn disk_backed(workers: usize) -> Engine {
        Engine::builder(ExecMode::DiskBacked)
            .workers(workers)
            .build()
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.inner.mode
    }

    /// Number of worker threads used for each stage.
    pub fn workers(&self) -> usize {
        match self.inner.mode {
            ExecMode::Sequential => 1,
            _ => self.inner.workers,
        }
    }

    /// Default number of partitions for new datasets: a few per worker so
    /// dynamic scheduling can smooth skew.
    pub fn default_partitions(&self) -> usize {
        (self.workers() * 4).max(1)
    }

    /// The shared metrics counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// The retry/backoff policy tasks run under.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.inner.policy
    }

    /// The configured fault injector, if any.
    pub fn fault_injector(&self) -> Option<FaultInjector> {
        self.inner.injector
    }

    /// Whether any DiskBacked checkpoint on this engine demoted itself
    /// to in-memory because a spill failed.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Record a checkpoint demotion (spill failed → in-memory).
    pub(crate) fn mark_degraded(&self) {
        self.inner.degraded.store(true, Ordering::Relaxed);
        Metrics::add(&self.inner.metrics.stages_degraded, 1);
    }

    /// Directory used by [`crate::PDataset::checkpoint`] spills.
    pub fn spill_dir(&self) -> &PathBuf {
        &self.inner.spill_dir
    }

    /// Create the spill directory if needed, remembering that this
    /// engine made it (so Drop can clean it up).
    pub(crate) fn ensure_spill_dir(&self) -> std::io::Result<()> {
        if !self.inner.spill_dir.is_dir() {
            std::fs::create_dir_all(&self.inner.spill_dir)?;
            self.inner.spill_dir_created.store(true, Ordering::Relaxed);
            self.inner.tmp_swept.store(true, Ordering::Relaxed);
        } else if !self.inner.tmp_swept.swap(true, Ordering::Relaxed) {
            // First use of a pre-existing spill dir: sweep `.tmp`
            // orphans a crashed process may have left mid-rename.
            crate::dio::sweep_orphan_tmps(&self.inner.spill_dir);
        }
        Ok(())
    }

    /// A fresh spill-file path.
    pub fn next_spill_path(&self) -> PathBuf {
        let id = self.inner.spill_seq.fetch_add(1, Ordering::Relaxed);
        self.inner.spill_dir.join(format!("stage-{id}.bin"))
    }

    /// A task context for one fault-tolerant stage, with a fresh stage
    /// id. Called once per pool run from the driver thread, so stage
    /// ids — and therefore injected faults — are deterministic.
    pub(crate) fn task_ctx(&self) -> TaskCtx {
        TaskCtx {
            policy: self.inner.policy,
            injector: self.inner.injector,
            stage: self.inner.stage_seq.fetch_add(1, Ordering::Relaxed),
            metrics: Arc::clone(&self.inner.metrics),
            cancel: self.cancellation_token(),
        }
    }

    /// Run one fault-tolerant stage: `f` over every item, in parallel,
    /// order-preserving, with per-task panic isolation, retries, and
    /// fault injection per this engine's configuration. Items are
    /// borrowed so failed attempts can be re-run against the same input.
    pub fn run_stage<I, R, F>(&self, items: &[I], f: F) -> Result<Vec<R>>
    where
        I: Sync,
        R: Send,
        F: Fn(usize, &I) -> Result<R> + Sync,
    {
        let ctx = self.task_ctx();
        pool::try_par_map_indexed(self.workers(), items, &ctx, f)
    }

    /// A fresh stage id for a non-pool stage (checkpoint spill phases),
    /// keying the injector's deterministic rolls.
    pub(crate) fn next_stage_id(&self) -> u64 {
        self.inner.stage_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The memory budget configured on this engine, if any.
    pub fn memory_budget(&self) -> Option<MemoryBudget> {
        self.inner.budget
    }

    /// The cancellation token of the job currently running on this
    /// engine (a live "ad-hoc" token when no job guard is active).
    pub fn cancellation_token(&self) -> CancellationToken {
        self.inner.current.lock().clone()
    }

    /// Trip the current job's token. Returns `true` if this call
    /// performed the cancellation.
    pub fn cancel_job(&self, reason: CancelReason) -> bool {
        self.cancellation_token().cancel(reason)
    }

    /// `Ok(())` while the current job is live, `Error::Cancelled` once
    /// its token trips — checked at every stage boundary.
    pub fn check_cancelled(&self) -> Result<()> {
        self.cancellation_token().check()
    }

    /// Begin a governed job: install a fresh token as this engine's
    /// current job, expiring `deadline` from now if given. The returned
    /// guard must wrap the job's result via [`JobGuard::complete`];
    /// dropping it restores an ad-hoc token.
    ///
    /// One engine hosts one governed job at a time — concurrent jobs
    /// need one engine each (see `AdmissionControl` in the core crate).
    pub fn begin_job(&self, name: &str, deadline: Option<Duration>) -> JobGuard {
        let token = CancellationToken::new(name, deadline.map(|d| Instant::now() + d));
        *self.inner.current.lock() = token.clone();
        // The pass trace describes one job; start it afresh here so
        // reads (`explain` / `plan_trace`) can stay non-destructive and
        // be called any number of times after the job without losing
        // the record.
        self.inner.plan_trace.lock().clear();
        JobGuard {
            engine: self.clone(),
            token,
        }
    }

    /// Best-effort removal of every file in the spill directory — the
    /// guaranteed-cleanup path for cancelled jobs. (Tracked datasets
    /// also remove their own spill files when dropped.)
    pub fn remove_spill_files(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.inner.spill_dir) {
            for entry in entries.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Advance the ledger clock; tracked datasets stamp accesses with
    /// it so eviction can find the coldest entry.
    pub(crate) fn ledger_tick(&self) -> u64 {
        self.inner.ledger_clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a checkpointed dataset (estimated at `bytes`) in the
    /// memory ledger, then enforce the budget: cancel the job if the
    /// dataset alone exceeds the hard ceiling, otherwise evict the
    /// coldest entries until resident bytes fall under the soft limit.
    pub(crate) fn track(&self, slot: Arc<dyn Spillable>, bytes: u64) -> Result<()> {
        let Some(budget) = self.inner.budget else {
            return Ok(());
        };
        Metrics::add(&self.inner.metrics.bytes_tracked, bytes);
        if bytes > budget.hard_bytes {
            self.cancel_job(CancelReason::MemoryExceeded);
            return self.check_cancelled();
        }
        self.inner.ledger.lock().push(Arc::downgrade(&slot));
        self.enforce_budget(budget);
        Ok(())
    }

    /// Spill coldest-first until resident tracked bytes are within the
    /// soft limit. Spill failures are counted, never fatal: the data
    /// simply stays resident.
    fn enforce_budget(&self, budget: MemoryBudget) {
        loop {
            let entries: Vec<Arc<dyn Spillable>> = {
                let mut ledger = self.inner.ledger.lock();
                ledger.retain(|w| w.strong_count() > 0);
                ledger.iter().filter_map(Weak::upgrade).collect()
            };
            let resident: u64 = entries.iter().map(|e| e.resident_bytes()).sum();
            if resident <= budget.soft_bytes {
                return;
            }
            let Some(coldest) = entries
                .iter()
                .filter(|e| e.resident_bytes() > 0)
                .min_by_key(|e| e.last_touch())
            else {
                return;
            };
            if self.ensure_spill_dir().is_err() {
                Metrics::add(&self.inner.metrics.spill_failures, 1);
                return;
            }
            match coldest.spill(self.next_spill_path(), &crate::dio::Dio::from_engine(self)) {
                Ok(written) if written > 0 => {
                    Metrics::add(&self.inner.metrics.pressure_spills, 1);
                    Metrics::add(&self.inner.metrics.bytes_spilled, written);
                }
                Ok(_) => return,
                Err(_) => {
                    Metrics::add(&self.inner.metrics.spill_failures, 1);
                    return;
                }
            }
        }
    }

    /// Record one physical pass executed by the fused stage-graph path:
    /// appends to the plan trace, bumps `passes_executed`, and counts
    /// every logical operator beyond the first as fused
    /// (`stages_fused`). An eager engine would have run each of `ops`
    /// as its own pass; the difference is the observable win.
    pub fn record_pass(&self, kind: PassKind, ops: Vec<String>, partitions: usize) {
        Metrics::add(&self.inner.metrics.passes_executed, 1);
        Metrics::add(
            &self.inner.metrics.stages_fused,
            ops.len().saturating_sub(1) as u64,
        );
        self.inner.plan_trace.lock().push(PassRecord {
            kind,
            ops,
            partitions,
        });
    }

    /// The physical passes of the current (or most recent) job, in
    /// execution order. Reading it — like calling [`Engine::explain`] —
    /// never clears the trace; the trace resets when the next job
    /// begins.
    pub fn plan_trace(&self) -> Vec<PassRecord> {
        self.inner.plan_trace.lock().clone()
    }

    /// Human-readable dump of the stage graph: which logical operators
    /// fused into which physical passes. Surfaced by the CLI's
    /// `--explain` flag.
    pub fn explain(&self) -> String {
        render_plan(&self.plan_trace())
    }

    /// Split `data` into `nparts` round-robin-balanced partitions.
    pub(crate) fn split<T>(data: Vec<T>, nparts: usize) -> Vec<Vec<T>> {
        let nparts = nparts.max(1);
        let n = data.len();
        let base = n / nparts;
        let extra = n % nparts;
        let mut parts = Vec::with_capacity(nparts);
        let mut it = data.into_iter();
        for p in 0..nparts {
            let take = base + usize::from(p < extra);
            parts.push(it.by_ref().take(take).collect());
        }
        parts
    }
}

/// RAII handle on one governed job, returned by [`Engine::begin_job`].
///
/// Wrap the job's result in [`JobGuard::complete`] so a cancelled
/// outcome is counted and the job's spill files are removed. Dropping
/// the guard (even on an early return) restores the engine's ad-hoc
/// token.
#[derive(Debug)]
pub struct JobGuard {
    engine: Engine,
    token: CancellationToken,
}

impl JobGuard {
    /// The cancellation token governing this job.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Finish the job: if `result` is `Error::Cancelled`, count the
    /// cancellation (and, for a passed deadline, the deadline trip) and
    /// remove the job's spill files before passing the result through.
    pub fn complete<R>(self, result: Result<R>) -> Result<R> {
        if let Err(Error::Cancelled { reason, .. }) = &result {
            let metrics = self.engine.metrics();
            Metrics::add(&metrics.jobs_cancelled, 1);
            if *reason == CancelReason::DeadlineExceeded {
                Metrics::add(&metrics.deadline_trips, 1);
            }
            self.engine.remove_spill_files();
        }
        result
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let mut current = self.engine.inner.current.lock();
        if current.same_as(&self.token) {
            *current = CancellationToken::new("ad-hoc", None);
        }
    }
}

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine({:?}, workers={})",
            self.inner.mode,
            self.workers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_and_workers() {
        assert_eq!(Engine::sequential().workers(), 1);
        assert_eq!(Engine::parallel(8).workers(), 8);
        assert_eq!(Engine::parallel(0).workers(), 1);
        assert_eq!(Engine::disk_backed(4).mode(), ExecMode::DiskBacked);
        assert!(Engine::parallel(2).default_partitions() >= 2);
    }

    #[test]
    fn split_is_balanced_and_complete() {
        let parts = Engine::split((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let all: Vec<i32> = parts.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn split_more_parts_than_items() {
        let parts = Engine::split(vec![1, 2], 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn spill_paths_are_unique() {
        let e = Engine::disk_backed(2);
        assert_ne!(e.next_spill_path(), e.next_spill_path());
    }

    #[test]
    fn builder_carries_policy_and_injector() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(3)
            .fault_policy(FaultPolicy::with_max_attempts(5))
            .fault_injector(FaultInjector::seeded(9).with_task_panics(0.1))
            .spill_dir("/tmp/bigdansing-test-spill-builder")
            .build();
        assert_eq!(e.workers(), 3);
        assert_eq!(e.fault_policy().max_attempts, 5);
        assert!(e.fault_injector().is_some());
        assert_eq!(
            e.spill_dir(),
            &PathBuf::from("/tmp/bigdansing-test-spill-builder")
        );
        assert!(!e.is_degraded());
    }

    #[test]
    fn run_stage_executes_and_preserves_order() {
        let e = Engine::parallel(4);
        let items: Vec<i64> = (0..50).collect();
        let out = e.run_stage(&items, |_, x| Ok(x * 3)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn spill_dir_removed_when_last_handle_drops() {
        let e = Engine::disk_backed(2);
        let dir = e.spill_dir().clone();
        e.ensure_spill_dir().unwrap();
        std::fs::write(dir.join("stage-0.bin"), b"junk").unwrap();
        assert!(dir.is_dir());
        let clone = e.clone();
        drop(e);
        assert!(dir.is_dir(), "dir must survive while a handle is live");
        drop(clone);
        assert!(!dir.exists(), "last handle drop must remove the dir");
    }

    #[test]
    fn begin_job_installs_and_clears_the_token() {
        let e = Engine::parallel(2);
        assert_eq!(e.cancellation_token().job(), "ad-hoc");
        let guard = e.begin_job("detect-0", None);
        assert_eq!(e.cancellation_token().job(), "detect-0");
        assert!(e.check_cancelled().is_ok());
        let out = guard.complete(Ok(7));
        assert_eq!(out.unwrap(), 7);
        assert_eq!(e.cancellation_token().job(), "ad-hoc");
    }

    #[test]
    fn explain_is_non_destructive_and_resets_at_job_start() {
        let e = Engine::parallel(2);
        e.record_pass(PassKind::Narrow, vec!["scope".into(), "iterate".into()], 2);
        // reads never consume the trace: explain twice, plan_trace, explain
        let first = e.explain();
        assert_eq!(e.explain(), first, "second explain must see the same plan");
        assert_eq!(e.plan_trace().len(), 1);
        assert_eq!(e.explain(), first, "explain after plan_trace still intact");
        // a new job starts a fresh trace
        let guard = e.begin_job("next", None);
        assert!(e.plan_trace().is_empty(), "begin_job resets the trace");
        guard.complete(Ok(())).unwrap();
    }

    #[test]
    fn cancelled_job_counts_and_cleans_spill_files() {
        let e = Engine::disk_backed(2);
        e.ensure_spill_dir().unwrap();
        std::fs::write(e.next_spill_path(), b"junk").unwrap();
        let guard = e.begin_job("doomed", None);
        assert!(e.cancel_job(CancelReason::User));
        let err = guard.complete::<()>(e.check_cancelled()).unwrap_err();
        assert!(matches!(
            err,
            Error::Cancelled {
                reason: CancelReason::User,
                ..
            }
        ));
        assert_eq!(Metrics::get(&e.metrics().jobs_cancelled), 1);
        let leftover = std::fs::read_dir(e.spill_dir()).unwrap().count();
        assert_eq!(leftover, 0, "spill files must be removed on cancel");
    }

    #[test]
    fn passed_deadline_cancels_the_job_at_its_next_check() {
        let e = Engine::parallel(2);
        let guard = e.begin_job("slow", Some(Duration::ZERO));
        let err = guard.complete::<()>(e.check_cancelled()).unwrap_err();
        assert!(matches!(
            err,
            Error::Cancelled {
                reason: CancelReason::DeadlineExceeded,
                ..
            }
        ));
        assert_eq!(Metrics::get(&e.metrics().deadline_trips), 1);
        assert_eq!(Metrics::get(&e.metrics().jobs_cancelled), 1);
        // the next job starts with a live token
        let guard = e.begin_job("fast", Some(Duration::from_secs(600)));
        assert!(guard.complete(e.check_cancelled()).is_ok());
        assert_eq!(Metrics::get(&e.metrics().deadline_trips), 1);
    }

    #[test]
    fn hard_ceiling_cancels_instead_of_growing() {
        use crate::govern::TrackedSlot;
        let e = Engine::builder(ExecMode::Parallel)
            .workers(1)
            .memory_budget(MemoryBudget::new(64, 128))
            .build();
        let guard = e.begin_job("hog", None);
        let slot = TrackedSlot::create(vec![(0..1000u64).collect()], e.ledger_tick());
        let bytes = slot.bytes();
        assert!(bytes > 128);
        let err = guard.complete::<()>(e.track(slot, bytes)).unwrap_err();
        assert!(matches!(
            err,
            Error::Cancelled {
                reason: CancelReason::MemoryExceeded,
                ..
            }
        ));
    }

    #[test]
    fn soft_budget_spills_coldest_entry() {
        use crate::govern::TrackedSlot;
        let e = Engine::builder(ExecMode::Parallel)
            .workers(1)
            .memory_budget(MemoryBudget::new(64, 1 << 30))
            .build();
        let cold = TrackedSlot::create(vec![(0..64u64).collect()], e.ledger_tick());
        let cold_dyn: Arc<dyn Spillable> = cold.clone();
        e.track(cold_dyn, cold.bytes()).unwrap();
        let hot = TrackedSlot::create(vec![(0..64u64).collect()], e.ledger_tick());
        let hot_dyn: Arc<dyn Spillable> = hot.clone();
        e.track(hot_dyn, hot.bytes()).unwrap();
        assert!(Metrics::get(&e.metrics().pressure_spills) > 0);
        assert_eq!(cold.resident_bytes(), 0, "coldest entry must spill first");
        // Spilled data faults back in intact.
        assert_eq!(cold.take().unwrap(), vec![(0..64u64).collect::<Vec<_>>()]);
    }

    #[test]
    fn drop_leaves_preexisting_dirs_alone() {
        let dir =
            std::env::temp_dir().join(format!("bigdansing-preexisting-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        {
            let e = Engine::builder(ExecMode::DiskBacked)
                .workers(2)
                .spill_dir(&dir)
                .build();
            e.ensure_spill_dir().unwrap();
        }
        assert!(dir.is_dir(), "engine must not delete a dir it didn't make");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
