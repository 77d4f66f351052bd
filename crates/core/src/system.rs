//! The BigDansing system façade (Figure 1 of the paper): rules in,
//! clean data out — plus the resource-governance front door: admission
//! control bounding concurrent jobs, and per-job wall-clock deadlines.

use crate::cleanse::{cleanse_loop, CleanseOptions, CleanseResult};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result, Schema, Table};
use bigdansing_dataflow::Engine;
use bigdansing_incremental::{DeltaBatch, DeltaReport, DurabilityOptions, RecoverStats, Session};
use bigdansing_plan::{physical, DetectOutput, Executor, Job};
use bigdansing_rules::{CfdRule, DcRule, FdRule, Rule};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What happens when a job arrives while the concurrency limit is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a slot frees up, rejecting only
    /// once `max_queued` submissions are already waiting.
    Queue {
        /// Maximum number of waiting submissions before rejection.
        max_queued: usize,
    },
    /// Reject immediately with [`Error::Rejected`].
    Reject,
}

#[derive(Default)]
struct AdmState {
    running: usize,
    queued: usize,
}

struct AdmInner {
    max_running: usize,
    policy: AdmissionPolicy,
    state: Mutex<AdmState>,
    cv: Condvar,
}

/// A bounded gate on concurrent job execution — the YARN-style admission
/// controller in front of the engine. Clone it and hand the clones to
/// several [`BigDansing`] instances to make them share one limit.
#[derive(Clone)]
pub struct AdmissionControl {
    inner: Arc<AdmInner>,
}

impl std::fmt::Debug for AdmissionControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("AdmissionControl")
            .field("max_running", &self.inner.max_running)
            .field("policy", &self.inner.policy)
            .field("running", &state.running)
            .field("queued", &state.queued)
            .finish()
    }
}

impl AdmissionControl {
    /// Gate at `max_running` concurrent jobs (clamped to ≥ 1) with the
    /// given overflow policy.
    pub fn new(max_running: usize, policy: AdmissionPolicy) -> AdmissionControl {
        AdmissionControl {
            inner: Arc::new(AdmInner {
                max_running: max_running.max(1),
                policy,
                state: Mutex::new(AdmState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Queue-or-reject gate: up to `max_running` jobs run, up to
    /// `max_queued` wait, the rest are rejected.
    pub fn queue(max_running: usize, max_queued: usize) -> AdmissionControl {
        Self::new(max_running, AdmissionPolicy::Queue { max_queued })
    }

    /// Reject-on-full gate.
    pub fn reject(max_running: usize) -> AdmissionControl {
        Self::new(max_running, AdmissionPolicy::Reject)
    }

    /// Ask to run `job`. Returns an RAII permit (dropping it frees the
    /// slot), blocks if the Queue policy applies and the queue has room,
    /// or fails with [`Error::Rejected`]. Counts `jobs_queued` /
    /// `jobs_rejected` on `metrics`.
    pub fn admit(&self, job: &str, metrics: &Metrics) -> Result<AdmissionPermit> {
        let inner = &self.inner;
        let mut state = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.running < inner.max_running {
            state.running += 1;
            return Ok(AdmissionPermit {
                inner: Arc::clone(inner),
            });
        }
        let full_queue = match inner.policy {
            AdmissionPolicy::Reject => true,
            AdmissionPolicy::Queue { max_queued } => state.queued >= max_queued,
        };
        if full_queue {
            Metrics::add(&metrics.jobs_rejected, 1);
            return Err(Error::Rejected {
                job: job.to_string(),
                limit: inner.max_running,
            });
        }
        state.queued += 1;
        Metrics::add(&metrics.jobs_queued, 1);
        while state.running >= inner.max_running {
            state = inner.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        state.queued -= 1;
        state.running += 1;
        Ok(AdmissionPermit {
            inner: Arc::clone(inner),
        })
    }
}

/// An admitted job's slot; dropping it releases the slot and wakes one
/// queued submission.
pub struct AdmissionPermit {
    inner: Arc<AdmInner>,
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("max_running", &self.inner.max_running)
            .finish()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.inner.cv.notify_all();
    }
}

/// The system: an execution engine plus a set of registered rules.
pub struct BigDansing {
    executor: Executor,
    rules: Vec<Arc<dyn Rule>>,
    deadline: Option<Duration>,
    admission: Option<AdmissionControl>,
    job_seq: AtomicU64,
}

impl BigDansing {
    /// Build on an explicit engine.
    pub fn on_engine(engine: Engine) -> BigDansing {
        BigDansing {
            executor: Executor::new(engine),
            rules: Vec::new(),
            deadline: None,
            admission: None,
            job_seq: AtomicU64::new(0),
        }
    }

    /// Single-threaded system (the correctness oracle).
    pub fn sequential() -> BigDansing {
        Self::on_engine(Engine::sequential())
    }

    /// Spark-like in-memory parallel system.
    pub fn parallel(workers: usize) -> BigDansing {
        Self::on_engine(Engine::parallel(workers))
    }

    /// Hadoop-like disk-backed parallel system.
    pub fn disk_backed(workers: usize) -> BigDansing {
        Self::on_engine(Engine::disk_backed(workers))
    }

    /// The execution engine.
    pub fn engine(&self) -> &Engine {
        self.executor.engine()
    }

    /// The executor (for advanced pipeline control).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Registered rules.
    pub fn rules(&self) -> &[Arc<dyn Rule>] {
        &self.rules
    }

    /// Register a declarative FD, e.g. `"zipcode -> city"`.
    pub fn add_fd(&mut self, spec: &str, schema: &Schema) -> Result<&mut Self> {
        let rule = FdRule::parse(spec, schema)?;
        self.rules.push(Arc::new(rule));
        Ok(self)
    }

    /// Register a declarative DC, e.g.
    /// `"t1.salary > t2.salary & t1.rate < t2.rate"`.
    pub fn add_dc(&mut self, spec: &str, schema: &Schema) -> Result<&mut Self> {
        let rule = DcRule::parse(spec, schema)?;
        self.rules.push(Arc::new(rule));
        Ok(self)
    }

    /// Register a declarative CFD, e.g.
    /// `"zipcode -> city | zipcode=90210, city=LA"`.
    pub fn add_cfd(&mut self, spec: &str, schema: &Schema) -> Result<&mut Self> {
        let rule = CfdRule::parse(spec, schema)?;
        self.rules.push(Arc::new(rule));
        Ok(self)
    }

    /// Register any rule (UDF rules, dedup rules, custom impls).
    pub fn add_rule(&mut self, rule: Arc<dyn Rule>) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Give every job submitted through this system a wall-clock
    /// deadline; a job still running past it is cancelled at its next
    /// check with [`Error::Cancelled`] (`reason: DeadlineExceeded`).
    pub fn with_deadline(mut self, deadline: Duration) -> BigDansing {
        self.deadline = Some(deadline);
        self
    }

    /// Gate jobs submitted through this system behind `admission`. Share
    /// one [`AdmissionControl`] (it clones cheaply) across systems to
    /// bound their combined concurrency.
    pub fn with_admission(mut self, admission: AdmissionControl) -> BigDansing {
        self.admission = Some(admission);
        self
    }

    /// Run `f` as one governed job: admission gate first, then a
    /// [`bigdansing_dataflow::JobGuard`] carrying the cancellation token
    /// and its deadline; the guard's completion accounts cancellations
    /// and removes the job's spill files.
    fn governed<R>(&self, kind: &str, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let seq = self.job_seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("{kind}-{seq}");
        let _permit = match &self.admission {
            Some(adm) => Some(adm.admit(&name, self.engine().metrics())?),
            None => None,
        };
        let guard = self.engine().begin_job(&name, self.deadline);
        guard.complete(f())
    }

    /// Run violation detection for every registered rule over `table`
    /// (one shared scan). Stages run fault-tolerantly under the engine's
    /// [`bigdansing_dataflow::FaultPolicy`]; a task that exhausts its
    /// retry budget surfaces as [`Error::Task`](bigdansing_common::Error).
    ///
    /// Runs as a governed job: it respects the configured admission
    /// gate, deadline, and memory budget, and a cancelled run surfaces
    /// as [`Error::Cancelled`] with its spill files removed.
    pub fn detect(&self, table: &Table) -> Result<DetectOutput> {
        self.governed("detect", || self.executor.detect(table, &self.rules))
    }

    /// Run the full iterative cleansing process (§2.2): detect, repair,
    /// re-detect, until no violations remain or only unfixable ones do.
    /// Governed like [`Self::detect`].
    pub fn cleanse(&self, table: &Table, options: CleanseOptions) -> Result<CleanseResult> {
        self.governed("cleanse", || {
            cleanse_loop(&self.executor, &self.rules, table, options)
        })
    }

    /// Open an incremental cleansing [`Session`] over `table` with the
    /// registered rules. The session keeps a persistent block index and
    /// violation store so later [`Self::apply_delta`] calls reprocess
    /// only the blocks a batch dirties. Opening runs the initial full
    /// detect as a governed job (admission, deadline, cancellation).
    pub fn open_session(&self, table: &Table, options: CleanseOptions) -> Result<Session> {
        self.governed("session-open", || {
            Session::new(self.executor.clone(), self.rules.clone(), table, options)
        })
    }

    /// Open a **durable** incremental session rooted at
    /// `durability.dir`: every applied batch is appended to a
    /// checksummed write-ahead log before any in-memory mutation, and
    /// atomic snapshots (every `durability.snapshot_every` batches)
    /// bound replay time. A crashed — or poisoned — session is
    /// rebuilt with [`Self::recover_session`]. Governed like
    /// [`Self::open_session`].
    pub fn open_durable_session(
        &self,
        table: &Table,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<Session> {
        self.governed("session-open", || {
            Session::open_durable(
                self.executor.clone(),
                self.rules.clone(),
                table,
                options,
                durability,
            )
        })
    }

    /// Recover a durable session from its directory: fold its log's base
    /// and state frames, verify the rule set matches, and replay the
    /// batch records logged after them (including a batch whose apply
    /// crashed or poisoned the previous session). Governed like [`Self::open_session`].
    pub fn recover_session(
        &self,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<(Session, RecoverStats)> {
        self.governed("session-recover", || {
            Session::recover(
                self.executor.clone(),
                self.rules.clone(),
                options,
                durability,
            )
        })
    }

    /// Apply one [`DeltaBatch`] to an open session: incremental detect
    /// over the dirtied blocks, violation retraction, and scoped
    /// re-repair. Governed like [`Self::detect`].
    pub fn apply_delta(&self, session: &mut Session, batch: DeltaBatch) -> Result<DeltaReport> {
        self.governed("delta", || session.apply(batch))
    }

    /// Execute a hand-authored [`Job`] (Appendix A): validate it into a
    /// logical plan, consolidate and translate it (§3.2, §4.2), then run
    /// the resulting pipelines against the named input `tables`, one
    /// pass per [`physical::block_groups`] group. Detections come out
    /// per pipeline, in plan order. Governed like [`Self::detect`].
    pub fn run_job(&self, job: Job, tables: &HashMap<String, Table>) -> Result<DetectOutput> {
        self.governed("job", || {
            let plan = job.build()?;
            let pipelines = physical::translate(plan)?.pipelines;
            self.executor.run_pipelines(&pipelines, |source| {
                let table = tables.get(source).ok_or_else(|| {
                    Error::InvalidPlan(format!("job references unknown dataset `{source}`"))
                })?;
                Ok((self.executor.load(table), table.schema()))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Value;

    fn dirty_table() -> Table {
        let schema = Schema::parse("zipcode,city,salary,rate");
        Table::from_rows(
            "tax",
            schema,
            vec![
                vec![
                    Value::Int(90210),
                    Value::str("LA"),
                    Value::Int(100),
                    Value::Int(10),
                ],
                vec![
                    Value::Int(90210),
                    Value::str("SF"),
                    Value::Int(200),
                    Value::Int(20),
                ],
                vec![
                    Value::Int(90210),
                    Value::str("LA"),
                    Value::Int(300),
                    Value::Int(30),
                ],
            ],
        )
    }

    #[test]
    fn declarative_registration() {
        let t = dirty_table();
        let mut sys = BigDansing::sequential();
        sys.add_fd("zipcode -> city", t.schema()).unwrap();
        sys.add_dc("t1.salary > t2.salary & t1.rate < t2.rate", t.schema())
            .unwrap();
        sys.add_cfd("zipcode -> city | zipcode=90210, city=LA", t.schema())
            .unwrap();
        assert_eq!(sys.rules().len(), 3);
        assert!(sys.add_fd("bogus", t.schema()).is_err());
    }

    #[test]
    fn detect_counts_fd_violations() {
        let t = dirty_table();
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("zipcode -> city", t.schema()).unwrap();
        let out = sys.detect(&t).unwrap();
        assert_eq!(out.violation_count(), 2); // (0,1) and (1,2)
    }

    #[test]
    fn run_job_executes_hand_authored_plans() {
        let t = dirty_table();
        let rule: Arc<dyn Rule> = Arc::new(FdRule::parse("zipcode -> city", t.schema()).unwrap());
        let mut job = Job::new("manual");
        job.add_input("tax", &["S"]);
        job.add_scope(&rule, "S");
        job.add_block(&rule, "S");
        job.add_detect(&rule, "S");
        job.add_genfix(&rule, "S");
        let sys = BigDansing::parallel(2);
        let tables = HashMap::from([("tax".to_string(), t)]);
        let out = sys.run_job(job, &tables).unwrap();
        assert_eq!(out.violation_count(), 2);
        assert_eq!(out.fix_count(), 2);
        // unknown dataset is a plan error
        let mut bad = Job::new("bad");
        bad.add_input("nope", &["S"]);
        bad.add_detect(&rule, "S");
        assert!(sys.run_job(bad, &tables).is_err());
    }

    #[test]
    fn reject_policy_fails_fast_when_full() {
        let metrics = Metrics::default();
        let adm = AdmissionControl::reject(1);
        let permit = adm.admit("first", &metrics).unwrap();
        let err = adm.admit("second", &metrics).unwrap_err();
        match err {
            Error::Rejected { job, limit } => {
                assert_eq!(job, "second");
                assert_eq!(limit, 1);
            }
            other => panic!("expected Error::Rejected, got {other:?}"),
        }
        assert_eq!(Metrics::get(&metrics.jobs_rejected), 1);
        drop(permit);
        // slot freed: admission succeeds again
        let _ = adm.admit("third", &metrics).unwrap();
    }

    #[test]
    fn queue_policy_blocks_until_a_slot_frees() {
        let metrics = Arc::new(Metrics::default());
        let adm = AdmissionControl::queue(1, 4);
        let permit = adm.admit("running", &metrics).unwrap();
        let m2 = Arc::clone(&metrics);
        let waiter = std::thread::spawn(move || {
            let _p = adm.admit("queued", &m2).unwrap();
        });
        // let the waiter actually queue, then free the slot
        while Metrics::get(&metrics.jobs_queued) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(permit);
        waiter.join().unwrap();
        assert_eq!(Metrics::get(&metrics.jobs_queued), 1);
        assert_eq!(Metrics::get(&metrics.jobs_rejected), 0);
    }

    #[test]
    fn full_queue_rejects_the_overflow_job() {
        let metrics = Arc::new(Metrics::default());
        let adm = AdmissionControl::queue(1, 0);
        let _permit = adm.admit("running", &metrics).unwrap();
        let err = adm.admit("overflow", &metrics).unwrap_err();
        assert!(matches!(err, Error::Rejected { .. }), "{err:?}");
        assert_eq!(Metrics::get(&metrics.jobs_rejected), 1);
    }

    #[test]
    fn governed_detect_releases_its_admission_slot() {
        let t = dirty_table();
        let adm = AdmissionControl::reject(1);
        let mut sys = BigDansing::parallel(2).with_admission(adm);
        sys.add_fd("zipcode -> city", t.schema()).unwrap();
        // back-to-back jobs both succeed: the permit is released each time
        assert_eq!(sys.detect(&t).unwrap().violation_count(), 2);
        assert_eq!(sys.detect(&t).unwrap().violation_count(), 2);
        assert_eq!(Metrics::get(&sys.engine().metrics().jobs_rejected), 0);
    }

    #[test]
    fn generous_deadline_does_not_disturb_detection() {
        let t = dirty_table();
        let mut sys = BigDansing::parallel(2).with_deadline(Duration::from_secs(60));
        sys.add_fd("zipcode -> city", t.schema()).unwrap();
        assert_eq!(sys.detect(&t).unwrap().violation_count(), 2);
        assert_eq!(Metrics::get(&sys.engine().metrics().deadline_trips), 0);
        assert_eq!(Metrics::get(&sys.engine().metrics().jobs_cancelled), 0);
    }

    #[test]
    fn cleanse_reaches_a_clean_table() {
        let t = dirty_table();
        let mut sys = BigDansing::parallel(2);
        sys.add_fd("zipcode -> city", t.schema()).unwrap();
        let result = sys.cleanse(&t, crate::CleanseOptions::default()).unwrap();
        assert!(result.converged);
        assert!(sys.detect(&result.table).unwrap().is_clean());
        // majority LA wins; one cell changed
        assert_eq!(result.cells_changed, 1);
        assert_eq!(result.table.tuple(1).unwrap().value(1), &Value::str("LA"));
    }
}
