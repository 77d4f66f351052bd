//! The incremental cleansing [`Session`]: delta-driven detection over
//! persistent per-group bucket stores, violation retraction, and
//! re-repair through the same rounds driver as the batch `cleanse_loop`.
//!
//! # Oracle equivalence
//!
//! The session maintains one invariant: **after every index update, the
//! violation store equals a full `Executor::detect` over the current
//! table, as a multiset**. A batch cleanse is a session too — its open
//! and one empty apply — so there is one detect body, the executor's,
//! driven through one type, [`RuleGroup`]: the open over the buckets a
//! shuffle builds with every member fresh, every later re-detect over
//! the runs its groups' `BucketStore`s keep in table order, with the
//! delta as the freshness mask. Every mutation (batch, window expiry,
//! repair) captures each tuple's version before it first changes it, and
//! the version it leaves, so a group's store is told what it holds and
//! what replaces it. A group re-detects in one pass
//! of its healthy rules, and the session maps each detection's origin
//! back to the provenance its violation store keeps. When a tuple
//! changes, exactly the units that involve its new version
//! (`delta×resident ∪ delta×delta`) are re-detected, and one pass over
//! the store retracts every violation whose generating unit involved
//! it; units among untouched residents are unchanged by construction.
//!
//! The repair phase runs [`crate::rounds::run_rounds`] — the one
//! detect ⇄ repair driver — with the store's detections, lent as they
//! are, as its detect and the
//! changed cells of each round fed back through the incremental
//! detection path. The one *scoped* shortcut — skipping repair entirely
//! when a batch adds and retracts nothing and the previous run ended
//! stably (every surviving fix filtered as a no-op) — is sound because
//! repair input depends only on the stored violations, which are
//! untouched, so the driver would break on an empty applicable set in
//! its first round too.

use crate::delta::{check_arity, DeltaBatch, DeltaOp};
use crate::durable::Durable;
pub use crate::report::DeltaReport;
use crate::report::{mark, ApplyStats};
use crate::rounds::{run_rounds, RepairTarget};
use crate::store::Store;
use crate::wal::ProvState;
use crate::window::{Win, WindowSpec};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::table::remove_sorted;
use bigdansing_common::{stable_hash_of, Cell, Error, Result, Table, Tuple, TupleId, Value};
use bigdansing_dataflow::{Engine, IsolationOptions};
use bigdansing_plan::physical::pipelines;
use bigdansing_plan::{key_hash, Executor, GroupMember, IterateStrategy, Origin, Ran, RuleGroup};
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::cc::UnionFind;
use bigdansing_repair::{Assignment, Detected, RepairStrategy};
use bigdansing_rules::{BlockKey, Rule};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The tuples an apply changed: each id with the version the group
/// stores hold (`None`: none — an insert) and its live version (`None`:
/// gone). For an id changed several times, the version captured first
/// and the last.
pub(crate) type Touched = BTreeMap<TupleId, (Option<Tuple>, Option<Tuple>)>;

/// Options of a cleansing job: the batch `cleanse_loop` and a
/// [`Session`] take the same knobs, so a session and a from-scratch run
/// are comparable.
#[derive(Debug, Clone)]
pub struct CleanseOptions {
    /// Maximum detect ⇄ repair iterations (per applied batch, in a
    /// session).
    pub max_iterations: usize,
    /// Freeze threshold: after this many updates a cell stops changing
    /// (the paper's "special variable" guaranteeing termination). A
    /// session resets it for every batch, like a fresh batch run.
    pub max_changes_per_cell: usize,
    /// Repair strategy.
    pub strategy: RepairStrategy,
    /// Options forwarded to the parallel black-box driver.
    pub repair_options: RepairOptions,
    /// Rule isolation: strict-vs-partial fault mode, per-rule soft time
    /// budget, outlier-block threshold. In partial mode a rule whose
    /// detection fails is quarantined on that failure and what it
    /// detected is dropped — a session also drops its indexes and skips
    /// it in later applies. Session quarantine is in-memory only:
    /// [`Session::recover`] gives every rule a fresh trial.
    pub isolation: IsolationOptions,
    /// Violation window (Bleach-style) for sessions. When set, every
    /// arriving record gets a logical event time and tuples whose last
    /// containing window closes behind the watermark are retired
    /// through the delete path after each apply — their violations
    /// retracted via the provenance indexes. `None` keeps the unbounded
    /// behaviour. The batch `cleanse_loop` sets it to `None`: a
    /// one-shot table has no stream to window.
    pub window: Option<WindowSpec>,
}

/// One rule's health at the end of a cleansing run.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleHealth {
    /// Every pass completed, nothing skipped.
    Completed,
    /// The rule ran, but the straggler guard skipped candidate units.
    Degraded {
        /// Candidate units skipped by the outlier-block guard.
        units_skipped: u64,
    },
    /// A detect pass of the rule failed in partial mode: the rule was
    /// abandoned for the rest of the job and its detections dropped.
    Quarantined {
        /// The failure that quarantined the rule.
        cause: String,
    },
}

/// Per-rule health and the job-level completeness fraction a
/// best-effort cleanse delivers alongside the repaired table.
#[derive(Debug, Clone, Default)]
pub struct CleanseOutcome {
    /// `(rule name, health)` in registration order.
    pub rules: Vec<(String, RuleHealth)>,
    /// Fraction in `[0, 1]` of the job's detection work that actually
    /// ran: each rule scores `units processed / units enumerated`,
    /// quarantined rules score 0, and the job's fraction is the mean
    /// over rules. `1.0` means a complete, undegraded cleanse.
    pub completeness: f64,
}

impl CleanseOutcome {
    /// True when any rule ended degraded or quarantined.
    pub fn is_degraded(&self) -> bool {
        self.rules
            .iter()
            .any(|(_, h)| !matches!(h, RuleHealth::Completed))
    }

    /// The quarantined rules, with the failure that tripped each one.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &str)> {
        self.rules.iter().filter_map(|(name, h)| match h {
            RuleHealth::Quarantined { cause } => Some((name.as_str(), cause.as_str())),
            _ => None,
        })
    }
}

impl Default for CleanseOptions {
    fn default() -> Self {
        CleanseOptions {
            max_iterations: 10,
            max_changes_per_cell: 3,
            strategy: RepairStrategy::default(),
            repair_options: RepairOptions::default(),
            isolation: IsolationOptions::default(),
            window: None,
        }
    }
}

/// A long-lived incremental cleansing session over one base table.
pub struct Session {
    pub(crate) executor: Executor,
    pub(crate) rules: Vec<Arc<dyn Rule>>,
    pub(crate) options: CleanseOptions,
    /// The materialized table, always in ascending order of its tuples'
    /// sequence numbers.
    pub(crate) table: Table,
    /// Sequence number per live tuple: base tuples keep their position,
    /// inserts get fresh increasing numbers (they append at the end),
    /// updates keep theirs, deletes drop theirs. The group stores
    /// order bucket members by it.
    pub(crate) seqs: HashMap<TupleId, u64>,
    /// The sequence numbers again, as a column beside the table:
    /// `seq_col[i]` belongs to `table.tuples()[i]`. Strictly increasing,
    /// so a tuple's position is a binary search for its sequence number
    /// ([`Session::position`]) and no id → position map has to be kept
    /// current when deletes shift rows.
    pub(crate) seq_col: Vec<u64>,
    /// The next sequence number; above everything in `seq_col`.
    pub(crate) next_seq: u64,
    /// The rule groups, each over its resident bucket store.
    pub(crate) groups: Vec<RuleGroup>,
    pub(crate) store: Store,
    /// True when the last repair loop ended stably: violation-free, or
    /// with every surviving fix filtered as a no-op (never by the freeze
    /// counter or the iteration cap). Gates the skip-repair shortcut.
    pub(crate) stable: bool,
    /// True when an earlier [`Session::apply`] failed *after* the table
    /// was materialized (cancellation, deadline, memory ceiling, or a
    /// stage failure mid-redetect/repair): the indexes and violation
    /// store no longer match the table, so further applies are refused.
    pub(crate) poisoned: bool,
    pub(crate) applies: u64,
    /// Durability state when the session was opened with
    /// [`Session::open_durable`] or [`Session::recover`].
    pub(crate) durable: Option<Durable>,
    /// Window state when [`CleanseOptions::window`] was set.
    pub(crate) win: Option<Win>,
}

impl Session {
    /// A session skeleton over `table` with `seq_col` beside it — id
    /// lookup, empty group stores and violation store — before any
    /// detection or index build. Every session constructor comes through
    /// here, so everything position lookup rests on is checked here
    /// once: one sequence number per tuple, strictly increasing, no tuple
    /// id twice (`duplicate` words that error).
    pub(crate) fn skeleton(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: CleanseOptions,
        table: Table,
        seq_col: Vec<u64>,
        duplicate: fn(TupleId) -> Error,
    ) -> Result<Session> {
        if rules.is_empty() {
            return Err(Error::Repair("no rules registered".into()));
        }
        if seq_col.len() != table.len() {
            return Err(Error::Corrupt(
                "sequence numbers do not cover the table".into(),
            ));
        }
        if let Some(w) = seq_col.windows(2).find(|w| w[0] >= w[1]) {
            return Err(Error::Corrupt(format!(
                "sequence numbers out of table order: {} before {}",
                w[0], w[1]
            )));
        }
        let mut seqs: HashMap<TupleId, u64> = HashMap::with_capacity(table.len());
        for (t, &seq) in table.tuples().iter().zip(&seq_col) {
            if seqs.insert(t.id(), seq).is_some() {
                return Err(duplicate(t.id()));
            }
        }
        Ok(Session {
            groups: RuleGroup::of(&pipelines(&rules, table.name()), options.isolation),
            executor,
            rules,
            options,
            next_seq: seq_col.last().map_or(0, |last| last + 1),
            table,
            seqs,
            seq_col,
            store: Store::default(),
            stable: false,
            poisoned: false,
            applies: 0,
            durable: None,
            win: None,
        })
    }

    /// Open a session over `table`: the paper's detect phase over the
    /// whole table, as the first semi-naive iteration with every row
    /// fresh. Each rule group runs one full pass ([`RuleGroup::open`]):
    /// a Block or LSH group keeps the sorted runs its shuffle built as
    /// its store, as a batch cleanse's first round does, and any other group indexes the table and detects
    /// over its store. The detections fill
    /// the violation store with provenance, as an apply's do, and the
    /// table counts as scanned once. The base
    /// table is *not* repaired — the first [`Session::apply`] cleanses
    /// pre-existing violations together with the batch's.
    pub fn new(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        table: &Table,
        options: CleanseOptions,
    ) -> Result<Session> {
        // Base rows get sequence numbers — and, windowed, event times —
        // in table order, as if they had streamed in one at a time.
        let ordinals = 0..table.len() as u64;
        let ids = table.tuples().iter().map(Tuple::id);
        let win = options
            .window
            .map(|spec| Win::new(spec, table.len() as u64, ids.zip(ordinals.clone())));
        let seq_col = ordinals.collect();
        let mut session =
            Session::skeleton(executor, rules, options, table.clone(), seq_col, |id| {
                Error::Repair(format!("duplicate tuple id {id} in base table"))
            })?;
        session.win = win;
        let metrics = session.executor.engine().metrics();
        Metrics::add(&metrics.tuples_scanned, table.len() as u64);
        for group in session.groups.iter_mut() {
            session.executor.engine().check_cancelled()?;
            let outs = group.open(&session.executor, &session.table, |id| session.seqs[&id])?;
            let stores = group.store.iter();
            let keys = stores.flat_map(|s| s.buckets().map(|(key, _)| key));
            keep(&mut session.store, group, outs, keys, |_, _| {});
        }
        // A base table longer than the window already has closed
        // windows behind its watermark: retire them now so the session
        // starts with only live-window rows.
        let mut expired = Touched::new();
        if session.expire_past_watermark(&mut expired) > 0 {
            session.redetect(&expired, &mut ApplyStats::default(), None)?;
        }
        Ok(session)
    }

    /// The session's current (repaired-so-far) table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The session's table, ending the session.
    pub fn into_table(self) -> Table {
        self.table
    }

    /// The registered rules.
    pub fn rules(&self) -> &[Arc<dyn Rule>] {
        &self.rules
    }

    /// The executor driving detection stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Live violations with their fixes — always equal to a full detect
    /// over [`Session::table`].
    pub fn detected(&self) -> Vec<Detected> {
        self.store.detected.clone()
    }

    /// Number of live violations.
    pub fn violation_count(&self) -> usize {
        self.store.detected.len()
    }

    /// True when the current table has no violations.
    pub fn is_clean(&self) -> bool {
        self.store.detected.is_empty()
    }

    /// Number of batches applied so far.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// True when an earlier apply failed after mutation began and the
    /// session refuses further batches (open a new session to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Every rule's health so far, in registration order, and the
    /// completeness fraction of the detection work.
    pub fn outcome(&self) -> CleanseOutcome {
        let mut members: Vec<&GroupMember> = self.groups.iter().flat_map(|g| &g.members).collect();
        members.sort_by_key(|m| m.rule);
        let health = |m: &&GroupMember| match (&m.quarantined, m.units_skipped) {
            (Some(cause), _) => (
                RuleHealth::Quarantined {
                    cause: cause.clone(),
                },
                0.0,
            ),
            (None, 0) => (RuleHealth::Completed, 1.0),
            (None, units_skipped) => {
                let done = m.units_processed as f64;
                let score = done / (done + units_skipped as f64);
                (RuleHealth::Degraded { units_skipped }, score)
            }
        };
        let (health, scores): (Vec<_>, Vec<f64>) = members.iter().map(health).unzip();
        let names = members.iter().map(|m| m.pipeline.rule.name().to_string());
        let completeness = match scores.len() {
            0 => 1.0,
            n => scores.iter().sum::<f64>() / n as f64,
        };
        CleanseOutcome {
            rules: names.zip(health).collect(),
            completeness,
        }
    }

    /// Rules quarantined by partial-mode fault isolation, as
    /// `(rule name, cause)` pairs in registration order. Empty in
    /// strict mode and for healthy sessions.
    pub fn quarantined_rules(&self) -> Vec<(String, String)> {
        let outcome = self.outcome();
        let named = outcome.quarantined();
        named
            .map(|(name, cause)| (name.into(), cause.into()))
            .collect()
    }

    /// Apply one delta batch: materialize it, re-detect only the dirty
    /// candidate units, retract violations whose contributing rows
    /// changed, and re-repair — mirroring a from-scratch cleanse over
    /// the materialized table.
    ///
    /// Durable sessions additionally append the batch to their log (and
    /// fsync) *after* validation but *before* any in-memory mutation:
    /// a crash at any later point replays the batch on
    /// [`Session::recover`], and a crash earlier loses nothing because
    /// nothing changed.
    pub fn apply(&mut self, batch: DeltaBatch) -> Result<DeltaReport> {
        self.apply_impl(batch, true)
    }

    pub(crate) fn apply_impl(&mut self, batch: DeltaBatch, log: bool) -> Result<DeltaReport> {
        if self.poisoned {
            return Err(Error::Repair(
                "session poisoned: an earlier apply failed after mutation began; \
                 open a new session over the desired table — durable sessions can \
                 instead be reopened with Session::recover"
                    .into(),
            ));
        }
        let engine = self.executor.engine().clone();
        engine.check_cancelled()?;

        // Validate the whole batch before mutating anything: a
        // malformed batch must corrupt neither the session nor its log.
        self.validate(&batch)?;

        // The batch is valid: make it durable before the mutation it
        // describes begins.
        let wal_seq = match &mut self.durable {
            Some(d) if log => {
                let seq = d.last_seq + 1;
                d.wal.append(seq, &batch, &d.dio)?;
                Metrics::add(&engine.metrics().wal_appends, 1);
                Some(seq)
            }
            _ => None,
        };

        let touched = self.materialize(&batch);

        // The table is mutated; everything below must finish for the
        // indexes and violation store to match it again. A governed
        // abort mid-way (cancellation, deadline, memory ceiling, stage
        // failure) leaves them out of sync, so poison the session and
        // let later applies fail loudly instead of computing on
        // corrupted state. For durable sessions the batch is already in
        // the log, so recovery replays it against consistent state.
        match self.detect_and_repair(&batch, touched, &engine) {
            Ok(report) => {
                if let Some(seq) = wal_seq {
                    let d = self.durable.as_mut().expect("wal_seq implies durable");
                    d.last_seq = seq;
                    let due = d.snapshot_every > 0 && seq - d.last_snapshot_seq >= d.snapshot_every;
                    // The batch is applied and in the log: a failed
                    // snapshot must not turn the apply into an error
                    // (a retry would hit duplicate ids). The snapshot
                    // watermark stays put, so the next apply retries.
                    if due {
                        let _ = self.snapshot();
                    }
                }
                Ok(report)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The post-materialization half of [`Session::apply`]: index
    /// maintenance, delta-driven detection, retraction, and re-repair.
    fn detect_and_repair(
        &mut self,
        batch: &DeltaBatch,
        mut touched: Touched,
        engine: &Engine,
    ) -> Result<DeltaReport> {
        let mut report = DeltaReport::default();
        for op in &batch.ops {
            match op {
                DeltaOp::Insert(_) => report.inserted += 1,
                DeltaOp::Update(_) => report.updated += 1,
                DeltaOp::Delete(_) => report.deleted += 1,
            }
        }
        // Window bookkeeping: every insert/update is a fresh arrival
        // (it gets the next event time and advances the watermark);
        // explicit deletes leave the window. Then retire everything the
        // advanced watermark pushed out of its last containing window —
        // expired ids join `touched`, so the redetect below retracts
        // their violations exactly like an explicit delete's.
        if let Some(win) = &mut self.win {
            win.arrive(batch);
        }
        report.tuples_expired = self.expire_past_watermark(&mut touched);

        // Delta-driven detection + retraction.
        let mut stats = ApplyStats::default();
        let mut markers = Vec::new();
        self.redetect(&touched, &mut stats, Some(&mut markers))?;
        report.components_rerepaired = self.touched_components(markers);

        // Scoped re-repair: when the batch left the store untouched and
        // the previous loop ended stably, a batch loop's first round
        // would filter every fix as a no-op and break — skip it.
        let skip = stats.added == 0 && stats.retracted == 0 && self.stable;
        report.repair_skipped = skip;
        if skip {
            report.converged = self.store.detected.is_empty();
        } else {
            let options = self.options.clone();
            let mut target = SessionTarget {
                session: self,
                stats: &mut stats,
            };
            let rounds = run_rounds(engine, &mut target, &options)?;
            report.iterations = rounds.iterations;
            report.total_violations = rounds.total_violations;
            report.cells_changed = rounds.cells_changed;
            report.frozen_cells = rounds.frozen_cells;
            report.repair_cost = rounds.repair_cost;
            report.converged = rounds.converged;
            self.stable = rounds.stable;
        }

        report.violations_added = stats.added;
        report.violations_retracted = stats.retracted;
        (report.tuples_reprocessed, report.blocks_dirty) = stats.distinct();
        report.violations_remaining = self.store.detected.len();
        report.rules_quarantined = self.quarantined_rules().len() as u64;
        let m = engine.metrics();
        Metrics::add(&m.tuples_reprocessed, report.tuples_reprocessed);
        Metrics::add(&m.blocks_dirty, report.blocks_dirty);
        Metrics::add(&m.violations_retracted, report.violations_retracted);
        Metrics::add(&m.components_rerepaired, report.components_rerepaired);
        Metrics::add(&m.tuples_expired, report.tuples_expired as u64);
        self.applies += 1;
        Ok(report)
    }

    /// Check a batch against the live id set without mutating anything,
    /// in op order: an op sees the ids as the ops before it left them, so
    /// an update or delete may target an id inserted earlier in the same
    /// batch (never later), and a deleted id may be inserted again.
    fn validate(&self, batch: &DeltaBatch) -> Result<()> {
        // liveness of the ids earlier ops of this batch changed
        let mut staged: HashMap<TupleId, bool> = HashMap::new();
        for op in &batch.ops {
            let id = op.id();
            let live = match staged.get(&id) {
                Some(&live) => live,
                None => self.seqs.contains_key(&id),
            };
            let refuse = |what: &str| Err(Error::Parse(format!("delta {what}")));
            match op {
                DeltaOp::Insert(_) if live => {
                    return refuse(&format!("inserts tuple {id} which already exists"))
                }
                DeltaOp::Update(_) if !live => {
                    return refuse(&format!("updates missing tuple {id}"))
                }
                DeltaOp::Delete(_) if !live => {
                    return refuse(&format!("deletes missing tuple {id}"))
                }
                DeltaOp::Insert(t) => {
                    check_arity(&self.table, t)?;
                    staged.insert(id, true);
                }
                DeltaOp::Update(t) => check_arity(&self.table, t)?,
                DeltaOp::Delete(_) => {
                    staged.insert(id, false);
                }
            }
        }
        Ok(())
    }

    /// Edit a validated batch into the table in place: inserts append
    /// under the next sequence numbers, updates replace their row, and
    /// the rows deletes leave behind are compacted away in one pass at
    /// the end (until then positions hold, so later ops of the batch
    /// still resolve). Returns the tuples the batch touched, each with
    /// its version before the batch and after it.
    fn materialize(&mut self, batch: &DeltaBatch) -> Touched {
        let mut dead = Vec::new();
        let mut touched = Touched::new();
        for op in &batch.ops {
            let id = op.id();
            let entry = touched.entry(id);
            let (_, live) = entry.or_insert_with(|| (self.version(id), None));
            *live = match op {
                DeltaOp::Delete(_) => None,
                DeltaOp::Insert(t) | DeltaOp::Update(t) => Some(t.clone()),
            };
            match op {
                DeltaOp::Insert(t) => {
                    self.seqs.insert(t.id(), self.next_seq);
                    self.seq_col.push(self.next_seq);
                    self.next_seq += 1;
                    self.table.push(t.clone());
                }
                DeltaOp::Update(t) => {
                    let at = self
                        .position(t.id())
                        .expect("validated: update of a live id");
                    self.table.set_at(at, t.clone());
                }
                DeltaOp::Delete(id) => dead.push(self.unlink(*id)),
            }
        }
        self.remove_rows(dead);
        touched
    }

    /// The position of live tuple `id` in the table: its sequence number,
    /// found in the sorted column beside the table — at its own index
    /// while no row before it has left.
    pub(crate) fn position(&self, id: TupleId) -> Option<usize> {
        let seq = *self.seqs.get(&id)?;
        match self.seq_col.get(seq as usize) {
            Some(&at) if at == seq => Some(seq as usize),
            _ => self.seq_col.binary_search(&seq).ok(),
        }
    }

    /// The live version of tuple `id`, if it is live.
    pub(crate) fn version(&self, id: TupleId) -> Option<Tuple> {
        Some(self.table.tuples()[self.position(id)?].clone())
    }

    /// Forget live tuple `id`'s sequence number (telling a durable
    /// session's next delta frame the row is gone) and return the
    /// position of its row, which the caller hands to
    /// [`Session::remove_rows`].
    pub(crate) fn unlink(&mut self, id: TupleId) -> usize {
        let seq = self.seqs.remove(&id).expect("unlink of a live id");
        if let Some(d) = &mut self.durable {
            d.removed.push(seq);
        }
        let at = self.seq_col.binary_search(&seq);
        at.expect("a live tuple's sequence number is in the column")
    }

    /// Drop the rows at `dead` — explicit deletes and window expiry both
    /// end here — compacting the table and the sequence column in one
    /// pass each over their handles. The only table-sized step of an
    /// apply, taken only when rows actually leave.
    pub(crate) fn remove_rows(&mut self, mut dead: Vec<usize>) {
        if dead.is_empty() {
            return;
        }
        dead.sort_unstable();
        self.table.remove_at(&dead);
        remove_sorted(&mut self.seq_col, &dead);
    }

    /// The current value of `cell` (`Table::cell_value` falls back to an
    /// O(n) scan once ids and positions diverge).
    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        let t = &self.table.tuples()[self.position(cell.tuple)?];
        t.get(cell.attr as usize)
    }

    /// Re-detect everything the touched tuples can influence. One pass
    /// over the violation store first retracts every violation whose
    /// unit holds a touched tuple, so no re-detect's output sits in
    /// memory next to what it replaces. Then every rule group reindexes
    /// the tuples and re-detects what its store holds with the live ones
    /// as the freshness mask (`delta×resident ∪ delta×delta`); a second
    /// pass, taken only when a list rule's bucket changed or a rule was
    /// quarantined, retracts those buckets' and rules' violations; and
    /// the groups' detections are appended in group order, each with the
    /// provenance its [`Origin`] names. The records handed over count as
    /// reprocessed, and every changed bucket as dirty for each healthy
    /// rule of its group. With `markers`, the tuples of every retracted
    /// and added violation are marked there.
    fn redetect(
        &mut self,
        touched: &Touched,
        stats: &mut ApplyStats,
        mut markers: Option<&mut Vec<TupleId>>,
    ) -> Result<()> {
        // Every table mutation comes through here, so this is where a
        // durable session learns what its next delta frame must carry.
        if let Some(d) = &mut self.durable {
            d.dirty.extend(touched.keys());
        }
        let mut each = |d: &Detected, p: &ProvState| {
            if let Some(markers) = markers.as_deref_mut() {
                mark(markers, d, p);
            }
        };
        let ids: HashSet<TupleId> = touched.keys().copied().collect();
        let gone = |_, prov: &ProvState| match prov {
            ProvState::Tuples(unit) => unit.iter().any(|id| ids.contains(id)),
            ProvState::Block(_) => false,
        };
        stats.retracted += self.store.retract(gone, &mut each);
        // every group's re-detect, with its healthy list rules
        let (mut found, mut quarantined) = (Vec::new(), Vec::new());
        for (g, group) in self.groups.iter_mut().enumerate() {
            self.executor.engine().check_cancelled()?;
            let healthy = group.healthy().into_iter().map(|m| &group.members[m]);
            let rules: Vec<usize> = healthy.clone().map(|m| m.rule).collect();
            if rules.is_empty() {
                continue;
            }
            let list = |m: &&GroupMember| m.pipeline.strategy == IterateStrategy::BlockList;
            let lists: Vec<usize> = healthy.filter(list).map(|m| m.rule).collect();
            let changes = touched
                .iter()
                .map(|(id, (held, live))| (*id, held.as_ref(), live.as_ref()));
            let done = group.redetect(&self.executor, changes, |id| self.seqs[&id])?;
            let tripped = group.members.iter().filter(|m| m.quarantined.is_some());
            let tripped = tripped.filter(|m| rules.contains(&m.rule));
            quarantined.extend(tripped.map(|m| m.rule as u64));
            found.push((g, rules, lists, done));
        }
        // a list rule's run that changed: its buckets' detections go
        let mut dirty: HashSet<(u64, u64)> = HashSet::new();
        for (_, _, lists, done) in &found {
            for ((_, hash), _) in done.change.runs() {
                dirty.extend(lists.iter().map(|&r| (r as u64, hash)));
            }
        }
        if !dirty.is_empty() || !quarantined.is_empty() {
            let gone = |rule, prov: &ProvState| {
                let list = matches!(prov, ProvState::Block(key)
                    if dirty.contains(&(rule, key_hash(key.iter()))));
                list || quarantined.contains(&rule)
            };
            stats.retracted += self.store.retract(gone, &mut each);
        }
        // the new detections, in group order
        for (g, rules, _, mut done) in found {
            let keys = std::mem::take(&mut done.keys).into_iter();
            stats.added += keep(&mut self.store, &self.groups[g], done.outs, keys, &mut each);
            stats.reprocessed.extend(done.ids);
            // counted at the apply's end; the new records are the table's
            done.change.news = Vec::new();
            stats.changes.push((rules, done.change));
        }
        Ok(())
    }

    /// Count connected components of the violation graph (tuples linked
    /// by sharing a violation) containing a tuple of `markers`: a tuple
    /// whose violations were added or retracted this apply.
    fn touched_components(&self, markers: Vec<TupleId>) -> u64 {
        if markers.is_empty() {
            return 0;
        }
        let mut uf = UnionFind::new();
        for (detected, prov) in self.store.iter() {
            let mut ids = Vec::new();
            mark(&mut ids, detected, prov);
            for w in ids.windows(2) {
                uf.union(w[0], w[1]);
            }
        }
        let roots: HashSet<u64> = markers.into_iter().map(|id| uf.find(id)).collect();
        roots.len() as u64
    }
}

/// Store the detections of `outs`, a pass of `group`'s members, each
/// under its rule with the provenance its [`Origin`] names — the tuple
/// ids of its unit, or the key among `keys` of the bucket a list rule
/// detected over — handing each to `each` first. Returns how many.
fn keep(
    store: &mut Store,
    group: &RuleGroup,
    outs: Ran,
    keys: impl Iterator<Item = BlockKey>,
    mut each: impl FnMut(&Detected, &ProvState),
) -> u64 {
    let before = store.detected.len();
    let mut origins = outs.iter().flat_map(|(_, out)| &out.origins);
    let lists = origins.any(|o| matches!(o, Origin::Bucket(_)));
    // a list unit's origin is its bucket's hash: name the keys only for one
    let keys = keys.take_while(|_| lists).map(|k| (stable_hash_of(&k), k));
    let named: HashMap<u64, BlockKey> = keys.collect();
    for (m, out) in outs {
        let member = &group.members[m];
        let single = member.pipeline.strategy == IterateStrategy::SingleUnits;
        for (detected, origin) in out.detected.into_iter().zip(out.origins) {
            let prov = match origin {
                Origin::Unit(a, _) if single => ProvState::Tuples(vec![a]),
                Origin::Unit(a, b) => ProvState::Tuples(vec![a, b]),
                Origin::Bucket(hash) => ProvState::Block(named[&hash].values().to_vec()),
            };
            each(&detected, &prov);
            store.add(member.rule, detected, prov);
        }
    }
    (store.detected.len() - before) as u64
}

/// The session side of the shared rounds driver: detect lends the
/// violation store's detections, and a round's updates edit the table in
/// place and flow back through incremental re-detection (only
/// repair-changed tuples are dirty).
struct SessionTarget<'a> {
    session: &'a mut Session,
    stats: &'a mut ApplyStats,
}

impl RepairTarget for SessionTarget<'_> {
    fn detect(&mut self) -> Result<&[Detected]> {
        Ok(&self.session.store.detected)
    }

    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.session.cell_value(cell)
    }

    fn apply(&mut self, updates: &Assignment) -> Result<()> {
        let session = &mut *self.session;
        let mut ids: Vec<TupleId> = updates.keys().map(|c| c.tuple).collect();
        ids.sort_unstable();
        ids.dedup();
        let at: Vec<Option<usize>> = ids.iter().map(|&id| session.position(id)).collect();
        let version = |rows: &[Tuple]| at.iter().map(|at| at.map(|at| rows[at].clone())).collect();
        let was: Vec<_> = version(session.table.tuples());
        let position = |id| at[ids.binary_search(&id).ok()?];
        session.table.apply_at(updates, position)?;
        let now: Vec<_> = version(session.table.tuples());
        let touched: Touched = ids.iter().copied().zip(was.into_iter().zip(now)).collect();
        session.redetect(&touched, self.stats, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::Schema;
    use bigdansing_repair::HypergraphRepair;
    use bigdansing_rules::{DcRule, DetectUnit, FdRule, Violation};

    fn fd_session(rows: Vec<Vec<Value>>) -> Session {
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows("t", schema.clone(), rows);
        let rules: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap())];
        Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn open_session_detects_existing_violations() {
        let s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(1), Value::str("SF")],
        ]);
        assert_eq!(s.violation_count(), 1);
        assert!(!s.is_clean());
    }

    #[test]
    fn insert_creating_violation_is_detected_and_repaired() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        assert!(s.is_clean());
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert_eq!(report.inserted, 1);
        assert!(report.violations_added >= 1);
        assert!(report.converged, "repair should clean the FD violation");
        assert!(s.is_clean());
        // only the dirty block's tuples were reprocessed
        assert!(report.tuples_reprocessed < 4);
    }

    #[test]
    fn partial_isolation_quarantines_faulty_rule_and_continues() {
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![
            Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap()),
            Arc::new(
                bigdansing_rules::UdfRule::builder("udf:faulty", |_| panic!("bad udf"))
                    .unit_kind(bigdansing_rules::UnitKind::Single)
                    .build(),
            ),
        ];
        let mut s = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions {
                isolation: IsolationOptions::partial(),
                ..Default::default()
            },
        )
        .unwrap();
        // the faulty rule was quarantined during the opening detect;
        // only its state is poisoned, not the session
        assert_eq!(
            s.quarantined_rules()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["udf:faulty"]
        );
        assert!(!s.is_poisoned());
        // the healthy FD rule keeps detecting and repairing
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert!(report.violations_added >= 1);
        assert!(report.converged);
        assert_eq!(report.rules_quarantined, 1);
        assert!(s.is_clean());
    }

    #[test]
    fn quarantine_retracts_the_faulted_rules_stored_violations() {
        // the faulty rule produces violations for a while, then starts
        // panicking: quarantine must retract what it already stored
        let table = Table::from_rows(
            "t",
            Schema::parse("zipcode,city"),
            vec![
                vec![Value::Int(1), Value::str("LA")],
                vec![Value::Int(2), Value::str("NY")],
            ],
        );
        let trip = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let trip_in_detect = Arc::clone(&trip);
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            bigdansing_rules::UdfRule::builder("udf:flaky", move |unit| {
                if trip_in_detect.load(std::sync::atomic::Ordering::SeqCst) {
                    panic!("flaky udf tripped");
                }
                let t = match unit {
                    DetectUnit::Single(t) => t,
                    other => panic!("unexpected unit {other:?}"),
                };
                // complain about every row, with no fixes: the store
                // keeps these violations live across applies
                vec![Violation::new("udf:flaky").with_cell(t.cell(1), t.value(1).clone())]
            })
            .unit_kind(bigdansing_rules::UnitKind::Single)
            .build(),
        )];
        let mut s = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions {
                isolation: IsolationOptions::partial(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.violation_count(), 2);
        assert!(s.quarantined_rules().is_empty());
        trip.store(true, std::sync::atomic::Ordering::SeqCst);
        let report = s
            .apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("SEA")]))
            .unwrap();
        assert_eq!(report.rules_quarantined, 1);
        assert!(
            s.is_clean(),
            "quarantine must retract the rule's stored violations"
        );
        assert!(!s.is_poisoned());
    }

    #[test]
    fn strict_mode_poisons_the_session_on_rule_fault() {
        let table = Table::from_rows(
            "t",
            Schema::parse("zipcode,city"),
            vec![vec![Value::Int(1), Value::str("LA")]],
        );
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(
            bigdansing_rules::UdfRule::builder("udf:faulty", |_| panic!("bad udf"))
                .unit_kind(bigdansing_rules::UnitKind::Single)
                .build(),
        )];
        let err = Session::new(
            Executor::new(Engine::sequential()),
            rules,
            &table,
            CleanseOptions::default(),
        );
        assert!(err.is_err(), "strict isolation propagates the fault");
    }

    #[test]
    fn delete_retracts_violations() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(1), Value::str("SF")],
        ]);
        assert_eq!(s.violation_count(), 1);
        let report = s.apply(DeltaBatch::new().delete(1)).unwrap();
        assert_eq!(report.violations_retracted, 1);
        assert!(s.is_clean());
        assert!(report.converged);
    }

    #[test]
    fn malformed_batch_leaves_session_intact() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        // Valid insert followed by an invalid update: the in-place fast
        // path must reject the whole batch before mutating anything.
        let bad = DeltaBatch::new()
            .insert(7, vec![Value::Int(3), Value::str("CH")])
            .update(99, vec![Value::Int(3), Value::str("CH")]);
        assert!(s.apply(bad).is_err());
        assert_eq!(s.table().len(), 2);
        assert!(s.is_clean());
        // Arity mismatches are caught up front too.
        assert!(s
            .apply(DeltaBatch::new().insert(8, vec![Value::Int(3)]))
            .is_err());
        assert_eq!(s.table().len(), 2);
        // An update may target an id inserted later in the batch only
        // in op order — this one comes first, so it must fail.
        let out_of_order = DeltaBatch::new()
            .update(7, vec![Value::Int(3), Value::str("CH")])
            .insert(7, vec![Value::Int(3), Value::str("CH")]);
        assert!(s.apply(out_of_order).is_err());
        // The session still works after the rejections.
        let r = s
            .apply(DeltaBatch::new().insert(7, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert!(r.converged);
        assert_eq!(s.table().len(), 3);
    }

    #[test]
    fn delete_then_reinsert_same_id_purges_stale_block_entry() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        assert!(s.is_clean());
        // Tuple 0 dies and is reborn in the SAME block with a new city.
        // `apply` reassigns its seq before the indexes are cleaned up,
        // so removal must go by the seq the old entry was indexed under
        // — otherwise the dead version stays resident and pairs with
        // the reborn one as a phantom violation.
        let r = s
            .apply(
                DeltaBatch::new()
                    .delete(0)
                    .insert(0, vec![Value::Int(1), Value::str("SF")]),
            )
            .unwrap();
        assert_eq!(
            r.violations_added, 0,
            "reborn tuple is the only zip-1 row; any violation pairs it \
             with its dead version"
        );
        assert!(s.is_clean());
        // Future deltas into the block must pair with the live version only.
        let r2 = s
            .apply(DeltaBatch::new().insert(9, vec![Value::Int(1), Value::str("SF")]))
            .unwrap();
        assert_eq!(r2.violations_added, 0);
        assert!(s.is_clean());
    }

    #[test]
    fn mid_apply_failure_poisons_the_session() {
        use bigdansing_dataflow::{ExecMode, FaultInjector, FaultPolicy};
        // An empty base runs no detect stage at open; the first batch
        // does, and every task attempt panics — a deterministic failure
        // after the table has been materialized.
        let schema = Schema::parse("zipcode,city");
        let table = Table::from_rows("t", schema.clone(), vec![]);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(FaultInjector::seeded(1).with_task_panics(1.0))
            .build();
        let rules: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("zipcode -> city", &schema).unwrap())];
        let mut s = Session::new(
            Executor::new(engine),
            rules,
            &table,
            CleanseOptions::default(),
        )
        .unwrap();
        assert!(!s.is_poisoned());
        // Two inserts into one block form a delta×delta pair, so the
        // batch runs a detect stage (a lone insert would not).
        let err = s
            .apply(
                DeltaBatch::new()
                    .insert(0, vec![Value::Int(1), Value::str("LA")])
                    .insert(1, vec![Value::Int(1), Value::str("SF")]),
            )
            .unwrap_err();
        assert!(
            !err.to_string().contains("poisoned"),
            "first failure surfaces the stage error: {err}"
        );
        assert!(s.is_poisoned());
        // Every later apply — even an empty batch — is refused.
        let err = s.apply(DeltaBatch::new()).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
    }

    #[test]
    fn clean_delta_skips_repair_after_stable_apply() {
        let mut s = fd_session(vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ]);
        // first apply establishes stability
        let r1 = s
            .apply(DeltaBatch::new().insert(5, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert!(r1.converged);
        let r2 = s
            .apply(DeltaBatch::new().insert(6, vec![Value::Int(4), Value::str("SD")]))
            .unwrap();
        assert!(r2.repair_skipped, "clean insert into stable session");
        assert!(r2.converged);
    }

    #[test]
    fn empty_rules_is_an_error() {
        let schema = Schema::parse("a");
        let table = Table::from_rows("t", schema, vec![vec![Value::Int(1)]]);
        assert!(Session::new(
            Executor::new(Engine::sequential()),
            Vec::new(),
            &table,
            CleanseOptions::default(),
        )
        .is_err());
    }

    /// Two FDs on one key share one rule group: the open is one full
    /// pass of both, every re-detect of an apply — the batch's, then one
    /// per repair round — is one pass over the group's buckets, and the
    /// apply reports what the session did when it re-detected each FD in
    /// a pass of its own.
    #[test]
    fn two_fds_on_one_key_redetect_in_one_pass_per_round() {
        let schema = Schema::parse("zipcode,city,state");
        let row = |zip, city: &str, state: &str| {
            vec![Value::Int(zip), Value::str(city), Value::str(state)]
        };
        let table = Table::from_rows(
            "t",
            schema.clone(),
            vec![
                row(90210, "LA", "CA"),
                row(90210, "LA", "CA"),
                row(90210, "SF", "CA"),
                row(10001, "NY", "NY"),
                row(10001, "NY", "NJ"),
                row(60601, "CH", "IL"),
            ],
        );
        let fd = |spec| -> Arc<dyn Rule> { Arc::new(FdRule::parse(spec, &schema).unwrap()) };
        let rules = vec![fd("zipcode -> city"), fd("zipcode -> state")];
        let exec = Executor::new(Engine::sequential());
        let mut s = Session::new(exec, rules, &table, CleanseOptions::default()).unwrap();
        let report = s
            .apply(
                DeltaBatch::new()
                    .insert(6, row(60601, "CH", "WI"))
                    .update(3, row(10001, "NYC", "NY"))
                    .delete(1)
                    .insert(7, row(90210, "LA", "NV")),
            )
            .unwrap();
        let plan = s.executor().engine().explain();
        let open = "iterate+detect+genfix(fd:zipcode->city, fd:zipcode->state)";
        assert_eq!(
            plan.lines().filter(|l| l.contains(open)).count(),
            1,
            "{plan}"
        );
        let redetects: Vec<&str> = plan.lines().filter(|l| l.contains("redetect(")).collect();
        // the batch, and the one repair round
        assert_eq!(redetects.len(), 2, "{plan}");
        let shared = "redetect(fd:zipcode->city, fd:zipcode->state)";
        assert!(redetects.iter().all(|l| l.ends_with(shared)), "{plan}");
        let counts = (
            report.tuples_reprocessed,
            report.blocks_dirty,
            report.violations_added,
            report.violations_retracted,
        );
        assert_eq!(counts, (7, 6, 6, 9));
        assert!(report.converged && s.is_clean());
    }

    /// A DC session joins an apply's delta against the join index its
    /// open seeded: a one-row update of 500 rows reprocesses the rows it
    /// and its repair changed, and sorts nothing.
    #[test]
    fn a_dc_apply_joins_only_its_delta() {
        let schema = Schema::parse("salary,rate");
        let row = |salary, rate| vec![Value::Int(salary), Value::Int(rate)];
        let rows = (0..500).map(|i| row(10 * i, i)).collect();
        let table = Table::from_rows("tax", schema.clone(), rows);
        let dc = "t1.salary > t2.salary & t1.rate < t2.rate";
        let rules: Vec<Arc<dyn Rule>> = vec![Arc::new(DcRule::parse(dc, &schema).unwrap())];
        let exec = Executor::new(Engine::parallel(2));
        let options = CleanseOptions {
            strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
            ..Default::default()
        };
        let mut s = Session::new(exec, rules, &table, options).unwrap();
        assert!(s.is_clean());
        // (85, 7) outearns row 8 at a lower rate: one violation; the
        // apply runs as a job of its own, so the trace holds it alone
        let job = s.executor().engine().begin_job("apply", None);
        let report = job
            .complete(s.apply(DeltaBatch::new().update(7, row(85, 7))))
            .unwrap();
        assert_eq!(report.violations_added, 1);
        assert!(report.converged && s.is_clean());
        assert!(report.tuples_reprocessed <= 2, "{report:?}");
        let plan = s.executor().engine().explain();
        assert!(!plan.contains("ocjoin.sort"), "{plan}");
        assert!(plan.contains("ocjoin.merge-join+redetect("), "{plan}");
    }

    /// The rounds target of a session's apply, checking after every
    /// detect that the join index of its inequality rule holds the
    /// rule's scope of the current table — what an index rebuilt from
    /// the table holds.
    struct JoinChecked<'a> {
        target: SessionTarget<'a>,
        rule: Arc<dyn Rule>,
        detects: usize,
    }

    impl RepairTarget for JoinChecked<'_> {
        fn detect(&mut self) -> Result<&[Detected]> {
            self.detects += 1;
            let session = &*self.target.session;
            let store = session.groups[0].store.as_ref();
            let index = store
                .and_then(|s| s.join())
                .expect("a DC group holds a join index");
            let shown = |ts: Vec<&Tuple>| {
                let mut shown: Vec<String> = ts.iter().map(|t| format!("{t:?}")).collect();
                shown.sort();
                shown
            };
            let table = session.table.tuples().iter();
            let scoped: Vec<Tuple> = table.flat_map(|t| self.rule.scope(t)).collect();
            assert_eq!(
                shown(index.records().collect()),
                shown(scoped.iter().collect())
            );
            self.target.detect()
        }

        fn cell_value(&self, cell: Cell) -> Option<&Value> {
            self.target.cell_value(cell)
        }

        fn apply(&mut self, updates: &Assignment) -> Result<()> {
            self.target.apply(updates)
        }
    }

    /// An inequality DC that takes three detect rounds or more on two
    /// workers, driven as a batch cleanse drives it — a session's open,
    /// then the rounds of one empty apply: each re-detect joins the
    /// repaired rows against the join index the round before merged,
    /// which holds the current table after every round, and the run ends
    /// where a sequential cleanse ends.
    #[test]
    fn a_dc_cleanse_joins_each_round_against_the_merged_index() {
        let schema = Schema::parse("salary,rate");
        let rows = (0..240i64).map(|i| {
            let s = (i * 37) % 161 - 80;
            vec![Value::Int(s), Value::Int(s / 8 + (i * 7) % 3 - 1)]
        });
        let t = Table::from_rows("tax", schema.clone(), rows.collect());
        let dc = "t1.salary >= t2.salary & t1.rate <= t2.rate";
        let rule: Arc<dyn Rule> = Arc::new(DcRule::parse(dc, &schema).unwrap());
        let rules = vec![Arc::clone(&rule)];
        let options = CleanseOptions {
            strategy: RepairStrategy::ParallelBlackBox(Arc::new(HypergraphRepair::default())),
            ..Default::default()
        };
        let exec = Executor::new(Engine::parallel(2));
        let engine = exec.engine().clone();
        let mut s = Session::new(exec, rules.clone(), &t, options.clone()).unwrap();
        let mut stats = ApplyStats::default();
        s.redetect(&Touched::new(), &mut stats, None).unwrap();
        let target = SessionTarget {
            session: &mut s,
            stats: &mut stats,
        };
        let mut checked = JoinChecked {
            target,
            rule,
            detects: 0,
        };
        let got = run_rounds(&engine, &mut checked, &options).unwrap();
        assert!(checked.detects >= 3, "{} detect rounds", checked.detects);
        let seq = Executor::new(Engine::sequential());
        let mut want = Session::new(seq, rules, &t, options).unwrap();
        let want_rounds = want.apply(DeltaBatch::new()).unwrap();
        let table = |t: &Table| bigdansing_common::csv::to_string(t);
        assert_eq!(table(s.table()), table(want.table()));
        let counts = (got.iterations, got.cells_changed, got.converged);
        let want_counts = (
            want_rounds.iterations,
            want_rounds.cells_changed,
            want_rounds.converged,
        );
        assert_eq!(counts, want_counts);
        let plan = engine.explain();
        let sorts = plan.lines().filter(|l| l.contains("ocjoin.sort")).count();
        assert_eq!(
            sorts, 1,
            "re-detects join against the resident parts: {plan}"
        );
    }

    /// A session over an empty table — as serve opens every tenant —
    /// runs no pass at open, and its first insert is detected.
    #[test]
    fn an_empty_open_runs_no_pass() {
        let mut s = fd_session(Vec::new());
        let plan = s.executor().engine().explain();
        assert!(s.executor().engine().plan_trace().is_empty(), "{plan}");
        let row = |zip, city: &str| vec![Value::Int(zip), Value::str(city)];
        let batch = DeltaBatch::new()
            .insert(0, row(1, "LA"))
            .insert(1, row(1, "SF"));
        let report = s.apply(batch).unwrap();
        assert_eq!(report.violations_added, 1);
        assert!(report.converged && s.is_clean());
    }
}
