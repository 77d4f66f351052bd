//! The incremental cleansing [`Session`]: delta-driven detection over
//! persistent per-group bucket stores, violation retraction, and
//! re-repair through the same rounds driver as the batch `cleanse_loop`.
//!
//! # Oracle equivalence
//!
//! The session maintains one invariant: **after every index update, the
//! violation store equals a full `Executor::detect` over the current
//! table, as a multiset**. Batch and session detect with one body, the
//! executor's, and drive it through one type, [`RuleGroup`] — the batch
//! over buckets a shuffle builds with every member fresh, the session
//! over buckets its groups' `BucketStore`s keep in table order, with the
//! delta as the freshness mask. Every mutation (batch, window expiry,
//! repair) captures each tuple's version before it first changes it, so
//! a group's store is told what it holds. A group re-detects in one pass
//! of its healthy rules, and the session maps each detection's origin
//! back to the provenance its violation store keeps. When a tuple
//! changes, every violation whose generating unit involved it is
//! retracted and exactly the units that involve its new version
//! (`delta×resident ∪ delta×delta`) are re-detected; units among
//! untouched residents are unchanged by construction.
//!
//! The repair phase runs [`crate::rounds::run_rounds`] — the one
//! detect ⇄ repair driver — with the store as its detect and the
//! changed cells of each round fed back through the incremental
//! detection path. The one *scoped* shortcut — skipping repair entirely
//! when a batch adds and retracts nothing and the previous run ended
//! stably (every surviving fix filtered as a no-op) — is sound because
//! repair input depends only on the stored violations, which are
//! untouched, so the driver would break on an empty applicable set in
//! its first round too.

use crate::delta::{check_arity, DeltaBatch, DeltaOp};
use crate::durable::Durable;
use crate::report::ApplyStats;
pub use crate::report::DeltaReport;
use crate::rounds::{run_rounds, RepairTarget};
use crate::store::Store;
use crate::wal::{ProvState, StoredState};
use crate::window::{Win, WindowSpec};
use bigdansing_common::metrics::Metrics;
use bigdansing_common::table::remove_sorted;
use bigdansing_common::{stable_hash_of, Cell, Error, Result, Table, Tuple, TupleId, Value};
use bigdansing_dataflow::{Engine, IsolationOptions};
use bigdansing_plan::physical::pipelines;
use bigdansing_plan::{Delta, Executor, GroupMember, IterateStrategy, Origin, Ran, RuleGroup};
use bigdansing_repair::blackbox::RepairOptions;
use bigdansing_repair::cc::UnionFind;
use bigdansing_repair::{Assignment, Detected, RepairStrategy};
use bigdansing_rules::{BlockKey, Rule};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The tuples an apply changed: each id with the version the group
/// stores hold (`None`: none — an insert). For an id changed several
/// times, the version captured first.
pub(crate) type Touched = BTreeMap<TupleId, Option<Tuple>>;

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
    /// behaviour. Ignored by the batch loop (a one-shot table has no
    /// stream to window).
    pub window: Option<WindowSpec>,
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
            groups: RuleGroup::of(&pipelines(&rules, ""), options.isolation, true),
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
    /// a Block group keeps the buckets its shuffle built as its store,
    /// as a batch cleanse's first round does, and any other group
    /// indexes the table and detects over its store. The detections fill
    /// the violation store with provenance, as an apply's do. The base
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
        for group in session.groups.iter_mut() {
            session.executor.engine().check_cancelled()?;
            let mut outs = group.open(&session.executor, &session.table, |id| session.seqs[&id])?;
            // stored in unit order, not shuffle order, the violation
            // ids — and a durable session's base frame — do not vary
            // from run to run
            outs.iter_mut().for_each(|(_, out)| out.sort_by_origin());
            let keys = group.store.iter().flat_map(|s| s.iter().map(|(k, _)| k));
            keep(&mut session.store, group, outs, keys, |_| {});
        }
        // A base table longer than the window already has closed
        // windows behind its watermark: retire them now so the session
        // starts with only live-window rows.
        let mut expired = Touched::new();
        if session.expire_past_watermark(&mut expired) > 0 {
            session.redetect(&expired, &mut ApplyStats::default())?;
        }
        Ok(session)
    }

    /// The session's current (repaired-so-far) table.
    pub fn table(&self) -> &Table {
        &self.table
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
        self.store.detected()
    }

    /// Number of live violations.
    pub fn violation_count(&self) -> usize {
        self.store.len()
    }

    /// True when the current table has no violations.
    pub fn is_clean(&self) -> bool {
        self.store.is_empty()
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

    /// Rules quarantined by partial-mode fault isolation, as
    /// `(rule name, cause)` pairs in registration order. Empty in
    /// strict mode and for healthy sessions.
    pub fn quarantined_rules(&self) -> Vec<(String, String)> {
        let mut members: Vec<&GroupMember> = self.groups.iter().flat_map(|g| &g.members).collect();
        members.sort_by_key(|m| m.rule);
        let named = |m: &GroupMember| Some((m.pipeline.rule.name().into(), m.quarantined.clone()?));
        members.into_iter().filter_map(named).collect()
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
        self.redetect(&touched, &mut stats)?;
        report.components_rerepaired = self.touched_components(&stats);

        // Scoped re-repair: when the batch left the store untouched and
        // the previous loop ended stably, a batch loop's first round
        // would filter every fix as a no-op and break — skip it.
        let skip = stats.added == 0 && stats.retracted == 0 && self.stable;
        report.repair_skipped = skip;
        if skip {
            report.converged = self.store.is_empty();
        } else {
            let options = self.options.clone();
            let mut target = SessionTarget {
                session: self,
                stats: &mut stats,
                detected: Vec::new(),
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

        report.tuples_reprocessed = stats.reprocessed.len() as u64;
        report.blocks_dirty = stats.blocks.len() as u64;
        report.violations_added = stats.added;
        report.violations_retracted = stats.retracted;
        report.violations_remaining = self.store.len();
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
    /// replaying [`crate::apply_batch_to_table`]'s op-order semantics: an
    /// op sees the ids as the ops before it left them, so an update or
    /// delete may target an id inserted earlier in the same batch (never
    /// later), and a deleted id may be inserted again.
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
    /// its version before the batch.
    fn materialize(&mut self, batch: &DeltaBatch) -> Touched {
        let mut dead = Vec::new();
        let mut touched = Touched::new();
        for op in &batch.ops {
            let id = op.id();
            touched.entry(id).or_insert_with(|| self.version(id));
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
    /// found in the sorted column beside the table.
    pub(crate) fn position(&self, id: TupleId) -> Option<usize> {
        position_in(&self.seqs, &self.seq_col, id)
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

    /// Re-detect everything the touched tuples can influence: retract
    /// their violations, then have every rule group reindex them and
    /// re-detect what its store holds with the live ones as the
    /// freshness mask (`delta×resident ∪ delta×delta`). Each detection
    /// is stored with the provenance its [`Origin`] names, after the
    /// detections whose unit is a changed bucket (a list rule's) are
    /// retracted, and a rule the pass quarantined takes its stored
    /// violations with it. The records handed over count as
    /// reprocessed, and every changed bucket as dirty for each healthy
    /// rule of its group.
    fn redetect(&mut self, touched: &Touched, stats: &mut ApplyStats) -> Result<()> {
        // Every table mutation comes through here, so this is where a
        // durable session learns what its next delta frame must carry.
        if let Some(d) = &mut self.durable {
            d.dirty.extend(touched.keys());
        }
        // Rule-agnostic retraction by generating-unit tuple ids.
        stats.retract(self.store.retract_tuples(touched.keys()));
        // each id with the version the stores hold and its live one
        let versions: Vec<_> = touched
            .iter()
            .map(|(&id, held)| (id, held.as_ref(), self.version(id)))
            .collect();
        let fresh = versions.iter().filter(|(_, _, now)| now.is_some());
        let mask = Arc::new(Delta {
            ids: fresh.map(|(id, _, _)| *id).collect(),
        });
        for group in self.groups.iter_mut() {
            self.executor.engine().check_cancelled()?;
            let healthy = group.healthy();
            if healthy.is_empty() {
                continue;
            }
            let changes = versions
                .iter()
                .map(|(id, held, now)| (*id, *held, now.as_ref()));
            let done = group.redetect(&self.executor, changes, |id| self.seqs[&id], Some(&mask))?;
            for rule in healthy.iter().map(|&m| group.members[m].rule) {
                for key in done.change.keys.keys() {
                    stats.blocks.insert((rule, key.clone()));
                    stats.retract(self.store.retract_block(rule, key));
                }
            }
            stats.reprocessed.extend(done.ids);
            keep(&mut self.store, group, done.outs, done.keys.iter(), |s| {
                stats.add(s)
            });
            // a rule the pass quarantined takes its stored violations along
            let members = healthy.into_iter().map(|m| &group.members[m]);
            for member in members.filter(|m| m.quarantined.is_some()) {
                stats.retract(self.store.retract_rule(member.rule));
            }
        }
        Ok(())
    }

    /// Count connected components of the violation graph (tuples linked
    /// by sharing a violation) containing a tuple whose violations were
    /// added or retracted this apply.
    fn touched_components(&self, stats: &ApplyStats) -> u64 {
        if stats.markers.is_empty() {
            return 0;
        }
        let mut uf = UnionFind::new();
        for stored in self.store.items.values() {
            let mut ids: Vec<TupleId> = stored.violation.tuple_ids();
            if let ProvState::Tuples(unit) = &stored.prov {
                ids.extend(unit.iter().copied());
            }
            for w in ids.windows(2) {
                uf.union(w[0], w[1]);
            }
        }
        let roots: BTreeSet<u64> = stats.markers.iter().map(|&id| uf.find(id)).collect();
        roots.len() as u64
    }
}

/// Store the detections of `outs`, a pass of `group`'s members, each
/// under its rule with the provenance its [`Origin`] names — the tuple
/// ids of its unit, or the key among `keys` of the bucket a list rule
/// detected over — handing each to `each` first.
fn keep<'a>(
    store: &mut Store,
    group: &RuleGroup,
    outs: Ran,
    keys: impl Iterator<Item = &'a BlockKey>,
    mut each: impl FnMut(&StoredState),
) {
    let mut origins = outs.iter().flat_map(|(_, out)| &out.origins);
    let lists = origins.any(|o| matches!(o, Origin::Bucket(_)));
    // a list unit's origin is its bucket's hash: name the keys only for one
    let keys = keys.take_while(|_| lists).map(|k| (stable_hash_of(k), k));
    let named: HashMap<u64, &BlockKey> = keys.collect();
    for (m, out) in outs {
        let member = &group.members[m];
        let single = member.pipeline.strategy == IterateStrategy::SingleUnits;
        for ((violation, fixes), origin) in out.detected.into_iter().zip(out.origins) {
            let prov = match origin {
                Origin::Unit(a, _) if single => ProvState::Tuples(vec![a]),
                Origin::Unit(a, b) => ProvState::Tuples(vec![a, b]),
                Origin::Bucket(hash) => ProvState::Block(named[&hash].values().to_vec()),
            };
            let stored = StoredState {
                id: 0, // assigned by the store
                rule: member.rule as u64,
                violation,
                fixes,
                prov,
            };
            each(&stored);
            store.add(stored);
        }
    }
}

/// [`Session::position`] over the two fields it reads, for callers that
/// hold the table mutably at the same time.
fn position_in(seqs: &HashMap<TupleId, u64>, seq_col: &[u64], id: TupleId) -> Option<usize> {
    seq_col.binary_search(seqs.get(&id)?).ok()
}

/// The session side of the shared rounds driver: detect is a read of
/// the violation store, and a round's updates edit the table in place
/// and flow back through incremental re-detection (only repair-changed
/// tuples are dirty).
struct SessionTarget<'a> {
    session: &'a mut Session,
    stats: &'a mut ApplyStats,
    /// The store's detections as of the last [`RepairTarget::detect`].
    detected: Vec<Detected>,
}

impl RepairTarget for SessionTarget<'_> {
    fn detect(&mut self) -> Result<&[Detected]> {
        self.detected = self.session.store.detected();
        Ok(&self.detected)
    }

    fn is_clean(&mut self) -> Result<bool> {
        Ok(self.session.store.is_empty())
    }

    fn cell_value(&self, cell: Cell) -> Option<&Value> {
        self.session.cell_value(cell)
    }

    fn apply(&mut self, updates: &Assignment) -> Result<()> {
        let session = &mut *self.session;
        let ids = updates.keys().map(|c| c.tuple);
        let touched: Touched = ids.map(|id| (id, session.version(id))).collect();
        let Session {
            table,
            seqs,
            seq_col,
            ..
        } = &mut *session;
        table.apply_at(updates, |id| position_in(seqs, seq_col, id))?;
        session.redetect(&touched, self.stats)
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
