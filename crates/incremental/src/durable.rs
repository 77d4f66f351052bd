//! The durable side of a [`Session`]: applies logged as batch records,
//! state frames appended to the same log every `snapshot_every`
//! batches, and recovery (base + state-frame fold, deterministic index
//! rebuild, replay of the batch records past the folded watermark).

use crate::session::{CleanseOptions, Session};
use crate::wal::{
    self, DeltaFrame, DurabilityOptions, RecoverStats, SessionState, Upsert, Wal, WindowState,
};
use crate::window::Win;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result, Table, Tuple, TupleId};
use bigdansing_dataflow::Dio;
use bigdansing_plan::{Executor, RuleGroup};
use bigdansing_rules::Rule;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The durability attachment of a session: the open log, the snapshot
/// cadence, and the watermarks tying it to the apply sequence.
pub(crate) struct Durable {
    pub(crate) wal: Wal,
    pub(crate) snapshot_every: u64,
    /// Batch sequence the log's state frames are current through.
    pub(crate) last_snapshot_seq: u64,
    /// Sequence of the last *successfully applied* batch. A batch that
    /// reached the log but failed mid-apply is excluded — recovery
    /// replays it.
    pub(crate) last_seq: u64,
    /// Ids whose tuple changed or appeared since the last state frame:
    /// everything `Session::redetect` was handed, which is every table
    /// mutation (batch ops, repair, expiry). The next state frame
    /// carries the live ones' current versions.
    pub(crate) dirty: BTreeSet<TupleId>,
    /// Sequence numbers of the rows that left the table over the same
    /// span (`Session::unlink` reports them), and the `next_seq` the
    /// last frame stands at: a removed number at or past it belongs to a
    /// row that came and went between two frames and was never on disk.
    pub(crate) removed: Vec<u64>,
    file_next_seq: u64,
    /// Size of the log's base frame (0: none written yet).
    base_bytes: u64,
    /// Total size of the state frames appended after it.
    delta_bytes: u64,
    pub(crate) dio: Dio,
}

impl Session {
    /// Open a **durable** session: like [`Session::new`], but every
    /// applied batch is logged before mutation and a state frame is
    /// appended every `durability.snapshot_every` batches (after a base
    /// written now, so the directory is recoverable from the start).
    /// Refuses a directory that already holds a log — recover it with
    /// [`Session::recover`] or clear it explicitly.
    pub fn open_durable(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        table: &Table,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<Session> {
        if wal::snapshot_path(&durability.dir).exists() {
            return Err(Error::Io(format!(
                "{}: already a durable session directory; use Session::recover \
                 (or remove it) instead of opening over it",
                durability.dir.display()
            )));
        }
        let mut session = Session::new(executor, rules, table, options)?;
        let w = Wal::create(&durability.dir)?;
        session.attach(durability, w, 0, (0, 0));
        session.snapshot()?;
        Ok(session)
    }

    /// Attach the durable directory: `seq` is the batch sequence both
    /// the session and its log's state stand at, `file` the sizes of the
    /// log's base frame and state frames.
    fn attach(&mut self, durability: DurabilityOptions, wal: Wal, seq: u64, file: (u64, u64)) {
        self.durable = Some(Durable {
            wal,
            snapshot_every: durability.snapshot_every,
            last_snapshot_seq: seq,
            last_seq: seq,
            dirty: BTreeSet::new(),
            removed: Vec::new(),
            file_next_seq: self.next_seq,
            base_bytes: file.0,
            delta_bytes: file.1,
            dio: Dio::from_engine(self.executor.engine()),
        });
    }

    /// Rebuild a session from a durable directory: read its log (cutting
    /// a torn tail left by a crash mid-append, see [`wal`]), verify the
    /// folded state was produced by the same rule set, rebuild the
    /// group stores deterministically, then replay the batch records
    /// past the folded watermark. A batch that was logged but whose apply
    /// never finished — including one that *poisoned* the previous
    /// session — is applied now. If anything was replayed, a state frame
    /// is appended so the next recovery starts hot.
    pub fn recover(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: CleanseOptions,
        durability: DurabilityOptions,
    ) -> Result<(Session, RecoverStats)> {
        let (w, log) = Wal::open(&durability.dir)?;
        let names: Vec<String> = rules.iter().map(|r| r.name().to_string()).collect();
        if names != log.state.rule_names {
            return Err(Error::Repair(format!(
                "recover: rule set mismatch — snapshot was written with [{}], \
                 session opened with [{}]",
                log.state.rule_names.join(", "),
                names.join(", ")
            )));
        }
        let snapshot_seq = log.state.last_seq;
        let mut session = Session::from_state(executor, rules, options, log.state)?;
        session.attach(
            durability,
            w,
            snapshot_seq,
            (log.base_bytes, log.state_bytes),
        );
        let mut stats = RecoverStats {
            snapshot_seq,
            replayed: 0,
            last_seq: snapshot_seq,
        };
        for (seq, batch) in log.batches {
            session.apply_impl(batch, false)?;
            let d = session.durable.as_mut().expect("durable was just attached");
            d.last_seq = seq;
            stats.last_seq = seq;
            stats.replayed += 1;
        }
        if stats.replayed > 0 {
            session.snapshot()?;
        }
        Ok((session, stats))
    }

    /// Rebuild a session from snapshot state: table, sequence numbers,
    /// violation store (ids preserved), and freshly re-scoped per-group
    /// indexes — no detection runs, the store is trusted.
    fn from_state(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: CleanseOptions,
        state: SessionState,
    ) -> Result<Session> {
        let ids = state.tuples.iter().map(Tuple::id);
        let win = match (&options.window, &state.window) {
            (None, None) => None,
            (Some(spec), Some(ws)) if spec.size == ws.size && spec.slide == ws.slide => {
                Some(Win::new(*spec, ws.clock, ids.zip(ws.times.iter().copied())))
            }
            (opt, snap) => {
                let show_opt = opt.map(|w| w.to_string()).unwrap_or_else(|| "none".into());
                let show_snap = snap
                    .as_ref()
                    .map(|w| format!("{}:{}", w.size, w.slide))
                    .unwrap_or_else(|| "none".into());
                return Err(Error::Repair(format!(
                    "recover: window mismatch — snapshot has {show_snap}, \
                     session opened with {show_opt}"
                )));
            }
        };
        if state
            .seqs
            .last()
            .is_some_and(|&last| last >= state.next_seq)
        {
            return Err(Error::Corrupt(format!(
                "snapshot: next sequence number {} is not past the table's last",
                state.next_seq
            )));
        }
        let table = Table::new(
            state.table_name,
            bigdansing_common::Schema::new(&state.attrs),
            state.tuples,
        );
        let mut session = Session::skeleton(executor, rules, options, table, state.seqs, |id| {
            Error::Corrupt(format!("snapshot: duplicate tuple id {id}"))
        })?;
        for item in state.items {
            if item.rule as usize >= session.rules.len() {
                return Err(Error::Corrupt(format!(
                    "snapshot: violation references rule {} of {}",
                    item.rule,
                    session.rules.len()
                )));
            }
            session.store.insert(item);
        }
        session.store.next = session.store.next.max(state.store_next);
        session.next_seq = state.next_seq;
        session.stable = state.stable;
        session.applies = state.applies;
        session.win = win;
        session.rebuild_indexes();
        Ok(session)
    }

    /// Re-index every live tuple into the per-group indexes — the same
    /// entries incremental maintenance would have accumulated, rebuilt
    /// in one pass through the same insert path. The indexes share
    /// nothing but the table they read, so a parallel engine's workers
    /// each take a share of the groups. An inequality rule's join index
    /// stages the records as one change, which its first re-detect folds
    /// in by partitioning and sorting them.
    fn rebuild_indexes(&mut self) {
        let workers = self.executor.engine().workers();
        let (table, seqs) = (&self.table, &self.seqs);
        let rebuild = |groups: &mut [RuleGroup]| {
            for store in groups.iter_mut().filter_map(|g| g.store.as_mut()) {
                let live = table.tuples().iter().map(|t| (t.id(), None, Some(t)));
                store.reindex(live, |id| seqs[&id]);
            }
        };
        let share = self.groups.len().div_ceil(workers);
        if share == self.groups.len() {
            return rebuild(&mut self.groups);
        }
        // scope joins every thread and re-raises a rule's panic here
        std::thread::scope(|scope| {
            for indexes in self.groups.chunks_mut(share) {
                scope.spawn(|| rebuild(indexes));
            }
        });
    }

    /// Bring the log's state up to date with the session. Returns the
    /// batch sequence it now covers. Normally that is one appended
    /// *state frame* — the tuples touched since the frame before, the
    /// violation store and the watermarks — so the cost follows the
    /// change, not the table. The full state is rewritten as a new base
    /// (atomically: temp file, fsync, rename, dropping every frame before
    /// it) only when there is no base yet or the state frames since the
    /// last one, this one included, would outweigh it; every base of `B`
    /// bytes is thus paid for by `B` bytes of state frames, which bounds
    /// the bytes written per byte of change by a constant.
    ///
    /// Errors if the session is not durable or is poisoned; a failed
    /// write leaves the log as it was and the session usable.
    pub fn snapshot(&mut self) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Err(Error::Io(
                "session has no durable directory; open it with open_durable".into(),
            ));
        };
        if self.poisoned {
            return Err(Error::Repair(
                "session poisoned: its state no longer matches its log; recover it instead".into(),
            ));
        }
        let seq = d.last_seq;
        if d.base_bytes > 0 && seq == d.last_snapshot_seq {
            return Ok(seq); // nothing applied since the last frame
        }
        // A state frame — unless there is no base to append to, or the
        // frames since it, this one included, would outweigh it.
        let delta = (d.base_bytes > 0)
            .then(|| wal::encode_delta_frame(&self.delta_frame()))
            .filter(|frame| d.delta_bytes + frame.len() as u64 <= d.base_bytes);
        let base = delta.is_none().then(|| self.capture_state());
        let d = self.durable.as_mut().expect("checked above");
        if let Some(frame) = delta {
            d.wal.append_state(seq, &frame, &d.dio)?;
            d.delta_bytes += frame.len() as u64;
        } else if let Some(state) = base {
            d.base_bytes = d.wal.write_base(&state, &d.dio)?;
            d.delta_bytes = 0;
        }
        Metrics::add(&d.dio.metrics().snapshots_written, 1);
        d.last_snapshot_seq = seq;
        d.dirty.clear();
        d.removed.clear();
        d.file_next_seq = self.next_seq;
        Ok(seq)
    }

    /// What changed since the last state frame.
    fn delta_frame(&self) -> DeltaFrame {
        let d = self
            .durable
            .as_ref()
            .expect("delta frames are for durable sessions");
        let upsert = |id: &TupleId| {
            let at = self.position(*id)?; // no longer live: `removed` has its row
            Some(Upsert {
                tuple: self.table.tuples()[at].clone(),
                seq: self.seq_col[at],
                time: self.event_time(*id).unwrap_or(0),
            })
        };
        let mut upserts: Vec<Upsert> = d.dirty.iter().filter_map(upsert).collect();
        upserts.sort_unstable_by_key(|up| up.seq);
        DeltaFrame {
            prev_seq: d.last_snapshot_seq,
            last_seq: d.last_seq,
            next_seq: self.next_seq,
            applies: self.applies,
            stable: self.stable,
            store_next: self.store.next,
            clock: self.win.as_ref().map(|w| w.clock),
            upserts,
            removed: d
                .removed
                .iter()
                .copied()
                .filter(|seq| *seq < d.file_next_seq)
                .collect(),
            items: self.store.items.values().cloned().collect(),
        }
    }

    /// Serialize the session's logical state. Per-rule indexes are
    /// omitted — they are a deterministic function of the table and
    /// sequence numbers and are rebuilt on recovery.
    fn capture_state(&self) -> SessionState {
        let items = self.store.items.values().cloned().collect();
        SessionState {
            table_name: self.table.name().to_string(),
            attrs: self.table.schema().attrs().to_vec(),
            tuples: self.table.tuples().to_vec(),
            seqs: self.seq_col.clone(),
            next_seq: self.next_seq,
            applies: self.applies,
            stable: self.stable,
            last_seq: self.durable.as_ref().map_or(0, |d| d.last_seq),
            rule_names: self.rules.iter().map(|r| r.name().to_string()).collect(),
            store_next: self.store.next,
            items,
            window: self.win.as_ref().map(|w| WindowState {
                size: w.spec.size,
                slide: w.spec.slide,
                clock: w.clock,
                times: self
                    .table
                    .tuples()
                    .iter()
                    .map(|t| w.time_of(t.id()).expect("live tuple has an event time"))
                    .collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{base_table, fd_rules};
    use crate::wal::{KIND_SNAPSHOT, KIND_SNAPSHOT_DELTA as DELTA, KIND_WAL};
    use crate::{DeltaBatch, WindowSpec};
    use bigdansing_common::codec::{scan_frames, FRAME_HEADER, FRAME_TRAILER};
    use bigdansing_common::{Schema, Value};
    use bigdansing_dataflow::{Engine, ExecMode, FaultInjector, FaultPolicy, FaultSite};
    use bigdansing_rules::{CfdRule, DcRule, FdRule};
    use std::path::{Path, PathBuf};

    fn err_of<T>(r: Result<T>) -> Error {
        match r {
            Ok(_) => panic!("expected an error"),
            Err(e) => e,
        }
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bd-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn zip_city() -> Schema {
        Schema::parse("zipcode,city")
    }

    fn windowed(window: Option<WindowSpec>) -> CleanseOptions {
        CleanseOptions {
            window,
            ..Default::default()
        }
    }

    /// A durable FD session over `table`, a state frame every `every`
    /// batches.
    fn open_on(engine: Engine, dir: &Path, table: &Table, every: u64) -> Result<Session> {
        let durability = DurabilityOptions::new(dir).snapshot_every(every);
        let (rules, opts) = (fd_rules(&zip_city()), CleanseOptions::default());
        Session::open_durable(Executor::new(engine), rules, table, opts, durability)
    }

    fn open_fd(dir: &Path, table: &Table, opts: CleanseOptions, every: u64) -> Session {
        let durability = DurabilityOptions::new(dir).snapshot_every(every);
        let executor = Executor::new(Engine::sequential());
        Session::open_durable(executor, fd_rules(&zip_city()), table, opts, durability).unwrap()
    }

    /// The in-memory twin of [`open_fd`].
    fn plain_fd(table: &Table, opts: CleanseOptions) -> Session {
        let executor = Executor::new(Engine::sequential());
        Session::new(executor, fd_rules(&zip_city()), table, opts).unwrap()
    }

    fn recover_fd(dir: &Path, opts: CleanseOptions) -> Result<(Session, RecoverStats)> {
        let durability = DurabilityOptions::new(dir).snapshot_every(1);
        let executor = Executor::new(Engine::sequential());
        Session::recover(executor, fd_rules(&zip_city()), opts, durability)
    }

    fn recover_plain(dir: &Path) -> Result<(Session, RecoverStats)> {
        recover_fd(dir, CleanseOptions::default())
    }

    fn files(dir: &Path) -> Vec<String> {
        let names = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name());
        names.map(|n| n.to_string_lossy().into_owned()).collect()
    }

    fn batches() -> Vec<DeltaBatch> {
        vec![
            DeltaBatch::new().insert(10, vec![Value::Int(1), Value::str("SF")]),
            DeltaBatch::new()
                .insert(11, vec![Value::Int(3), Value::str("CH")])
                .update(10, vec![Value::Int(2), Value::str("NY")]),
            DeltaBatch::new().delete(1),
            DeltaBatch::new().insert(12, vec![Value::Int(3), Value::str("AU")]),
        ]
    }

    fn assert_same(a: &Session, b: &Session) {
        assert_eq!(a.table().tuples(), b.table().tuples());
        assert_eq!(a.table().schema().attrs(), b.table().schema().attrs());
        assert_eq!(a.detected(), b.detected());
        assert_eq!(a.violation_count(), b.violation_count());
    }

    #[test]
    fn durable_session_matches_plain_session() {
        let dir = durable_dir("parity");
        let base = base_table(&zip_city());
        let mut durable = open_fd(&dir, &base, CleanseOptions::default(), 2);
        let mut plain = plain_fd(&base, CleanseOptions::default());
        for b in batches() {
            durable.apply(b.clone()).unwrap();
            plain.apply(b).unwrap();
            assert_same(&durable, &plain);
        }
        let m = durable.executor().engine().metrics().snapshot();
        assert_eq!(m.wal_appends, 4);
        assert!(m.snapshots_written >= 2, "baseline + cadence snapshots");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The FD beside rules that share its Block key — a variable CFD
    /// whose Scope drops rows and an equality DC: one session index.
    fn shared_key_rules(schema: &Schema) -> Vec<Arc<dyn Rule>> {
        let mut rules = fd_rules(schema);
        let cfd = CfdRule::parse("zipcode -> city | zipcode=3, city=_", schema).unwrap();
        let dc = DcRule::parse("t1.zipcode = t2.zipcode & t1.city != t2.city", schema).unwrap();
        rules.extend([Arc::new(cfd) as Arc<dyn Rule>, Arc::new(dc)]);
        rules
    }

    #[test]
    fn recover_replays_wal_suffix_and_matches_uninterrupted() {
        type Rules = fn(&Schema) -> Vec<Arc<dyn Rule>>;
        let rule_sets: [(&str, Rules); 2] = [("replay", fd_rules), ("shared", shared_key_rules)];
        for (tag, rules) in rule_sets {
            let dir = durable_dir(tag);
            let base = base_table(&zip_city());
            let exec = || Executor::new(Engine::sequential());
            let (rules, opts) = (|| rules(&zip_city()), CleanseOptions::default);
            // Cadence 100: nothing beyond the baseline snapshot, so every
            // batch must come back from its record.
            let durability = DurabilityOptions::new(&dir).snapshot_every(100);
            let durable = Session::open_durable(exec(), rules(), &base, opts(), durability);
            let mut durable = durable.unwrap();
            let mut oracle = Session::new(exec(), rules(), &base, opts()).unwrap();
            for b in batches() {
                durable.apply(b.clone()).unwrap();
                oracle.apply(b).unwrap();
            }
            drop(durable); // "crash" — recovery sees only the disk state

            let recover = || {
                let durability = DurabilityOptions::new(&dir).snapshot_every(1);
                Session::recover(exec(), rules(), opts(), durability).unwrap()
            };
            let (recovered, stats) = recover();
            assert_eq!(
                (stats.snapshot_seq, stats.replayed, stats.last_seq),
                (0, 4, 4),
                "{tag}"
            );
            assert_same(&recovered, &oracle);

            // Recovery wrote a catch-up snapshot: a second recovery
            // replays nothing, still matches, and its rebuilt indexes
            // pair a later delta against the residents as the live ones
            // do.
            let (mut again, stats2) = recover();
            assert_eq!((stats2.snapshot_seq, stats2.replayed), (4, 0), "{tag}");
            assert_same(&again, &oracle);
            let next = DeltaBatch::new().insert(13, vec![Value::Int(3), Value::str("XX")]);
            again.apply(next.clone()).unwrap();
            oracle.apply(next).unwrap();
            assert_same(&again, &oracle);
            again.snapshot().unwrap();
            assert_eq!(
                files(&dir),
                ["snapshot.bin"],
                "the log is the whole directory"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn recovered_session_keeps_cleansing_correctly() {
        // Indexes are rebuilt, not restored — later deltas must still
        // pair against pre-crash residents.
        let dir = durable_dir("cont");
        let mut s = open_fd(&dir, &base_table(&zip_city()), CleanseOptions::default(), 1);
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        drop(s);
        let (mut recovered, _) = recover_plain(&dir).unwrap();
        // Conflicts with resident tuple 10 (zip 3 → CH): detection must
        // see the delta×base pair and repair it.
        let r = recovered
            .apply(DeltaBatch::new().insert(11, vec![Value::Int(3), Value::str("AU")]))
            .unwrap();
        assert!(r.violations_added >= 1, "delta×resident pair detected");
        assert!(r.converged);
        assert!(recovered.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_durable_session_is_recoverable() {
        let dir = durable_dir("poison");
        let table = Table::from_rows("t", zip_city(), vec![]);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(FaultInjector::seeded(1).with_task_panics(1.0))
            .build();
        let mut s = open_on(engine, &dir, &table, 8).unwrap();
        let batch = DeltaBatch::new()
            .insert(0, vec![Value::Int(1), Value::str("LA")])
            .insert(1, vec![Value::Int(1), Value::str("SF")]);
        assert!(s.apply(batch.clone()).is_err());
        assert!(s.is_poisoned());
        drop(s);

        // The batch reached the log before the failing detect stage;
        // recovery with a healthy engine replays it to completion.
        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(recovered.table().len(), 2);
        assert!(recovered.is_clean(), "replay repaired the FD violation");

        let mut oracle = plain_fd(&table, CleanseOptions::default());
        oracle.apply(batch).unwrap();
        assert_same(&recovered, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_durable_refuses_existing_snapshot() {
        let dir = durable_dir("refuse");
        let open = || open_on(Engine::sequential(), &dir, &base_table(&zip_city()), 8);
        assert!(open().is_ok());
        assert_eq!(files(&dir), ["snapshot.bin"]);
        let err = err_of(open());
        assert!(err.to_string().contains("recover"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_rule_mismatch_and_missing_dir() {
        let dir = durable_dir("mismatch");
        open_fd(&dir, &base_table(&zip_city()), CleanseOptions::default(), 8);
        let other: Vec<Arc<dyn Rule>> = vec![Arc::new(
            FdRule::parse("city -> zipcode", &zip_city()).unwrap(),
        )];
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            other,
            CleanseOptions::default(),
            DurabilityOptions::new(&dir),
        ));
        assert!(err.to_string().contains("rule set mismatch"), "{err}");

        let empty = durable_dir("mismatch-empty");
        let err = err_of(recover_plain(&empty));
        assert!(err.to_string().contains("no snapshot"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_batch_never_reaches_the_wal() {
        let dir = durable_dir("badbatch");
        let mut s = open_fd(
            &dir,
            &base_table(&zip_city()),
            CleanseOptions::default(),
            100,
        );
        assert!(s
            .apply(DeltaBatch::new().update(99, vec![Value::Int(1), Value::str("X")]))
            .is_err());
        assert!(s.apply(DeltaBatch::new().delete(42).delete(42)).is_err());
        s.apply(DeltaBatch::new().insert(5, vec![Value::Int(9), Value::str("TK")]))
            .unwrap();
        drop(s);
        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!(stats.replayed, 1, "only the valid batch was logged");
        assert_eq!(recovered.table().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_durable_session_recovers_watermark() {
        let dir = durable_dir("window");
        let opts = || windowed(WindowSpec::tumbling(3).ok());
        let mut s = open_fd(&dir, &base_table(&zip_city()), opts(), 1);
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert_eq!(s.watermark(), Some(2));
        drop(s);

        // window spec must match the snapshot
        let err = err_of(recover_plain(&dir));
        assert!(err.to_string().contains("window mismatch"), "{err}");

        let (mut s, _) = recover_fd(&dir, opts()).unwrap();
        assert_eq!(s.watermark(), Some(2));
        assert_eq!(s.window_live(), Some(3));
        // the very next arrival closes [0,3): recovery resumed the clock
        let r = s
            .apply(DeltaBatch::new().insert(11, vec![Value::Int(4), Value::str("SE")]))
            .unwrap();
        assert_eq!(r.tuples_expired, 3);
        assert_eq!(s.window_live(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed periodic snapshot must not fail an apply that already
    /// committed: the batch is applied and logged, so the apply reports
    /// `Ok`, the snapshot watermark stays put (the next apply retries),
    /// and recovery replays the batch record to the same state.
    #[test]
    fn failed_periodic_snapshot_does_not_fail_the_committed_apply() {
        let dir = durable_dir("snapfail");
        // A seed whose only injected IO fault is the snapshot write
        // after batch 1 — the baseline snapshot (stream 0) and the batch
        // records go through.
        let faults = |seed| FaultInjector::seeded(seed).with_io_write_failures(0.5);
        let seed = (0u64..)
            .find(|&seed| {
                let inj = faults(seed);
                inj.io_write_fault(FaultSite::SnapshotWrite, 1, 1).is_some()
                    && inj.io_write_fault(FaultSite::SnapshotWrite, 0, 1).is_none()
                    && (1..=2).all(|seq| inj.io_write_fault(FaultSite::WalAppend, seq, 1).is_none())
            })
            .unwrap();
        let engine = Engine::builder(ExecMode::Sequential)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(faults(seed))
            .build();
        let base = base_table(&zip_city());
        let mut faulty = open_on(engine, &dir, &base, 1).unwrap();
        let mut twin = plain_fd(&base, CleanseOptions::default());
        let batch = batches().remove(0);
        faulty
            .apply(batch.clone())
            .expect("the batch committed; only its snapshot failed");
        twin.apply(batch).unwrap();
        assert!(!faulty.is_poisoned());
        assert_same(&faulty, &twin);
        let m = faulty.executor().engine().metrics().snapshot();
        assert_eq!(m.snapshots_written, 1, "only the baseline snapshot landed");
        assert_eq!(
            faulty.durable.as_ref().unwrap().last_snapshot_seq,
            0,
            "the next apply must retry the snapshot"
        );
        drop(faulty);

        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!((stats.snapshot_seq, stats.replayed), (0, 1));
        assert_same(&recovered, &twin);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `n` clean rows, one zipcode each: room for delta frames before
    /// the size rule asks for a new base.
    fn wide_base(n: i64) -> Table {
        let row = |i: i64| vec![Value::Int(i), Value::str(format!("city-{i}"))];
        Table::from_rows("t", zip_city(), (0..n).map(row).collect())
    }

    /// Batch `k` of a stream over [`wide_base`]: three inserts, then one
    /// update and one delete of base ids nothing else in the stream
    /// touches, plus — every fourth batch — a second row for an inserted
    /// zipcode with another city, which repair then rewrites; every
    /// fifth batch deletes and reinserts one id, moving it to the end of
    /// the table. The `own_rows` variant (for windowed sessions, whose
    /// base rows expire under the stream) updates and deletes rows of
    /// the same batch instead.
    fn stream_batch(k: u64, own_rows: bool) -> DeltaBatch {
        let zip = |i: u64| 1000 + (3 * k + i) as i64;
        let fresh = |i: u64| 100 + 3 * k + i;
        let mut b = DeltaBatch::new();
        for i in 0..3 {
            b = b.insert(fresh(i), vec![Value::Int(zip(i)), Value::str("NEW")]);
        }
        if own_rows {
            b = b
                .update(fresh(0), vec![Value::Int(zip(0)), Value::str("UPD")])
                .delete(fresh(1));
        } else {
            b = b
                .update(k, vec![Value::Int(k as i64), Value::str("UPD")])
                .delete(30 + k);
            if k.is_multiple_of(5) {
                b = b
                    .delete(60 + k)
                    .insert(60 + k, vec![Value::Int(-zip(0)), Value::str("BACK")]);
            }
        }
        if k.is_multiple_of(4) {
            b = b.insert(1000 + k, vec![Value::Int(zip(2)), Value::str("OTHER")]);
        }
        b
    }

    fn copy_dir(from: &Path, to: &Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    /// Everything recovery must reproduce, bytes included: the table in
    /// order, the sequence column beside it, the store, the counters.
    fn assert_identical(a: &Session, b: &Session, context: &str) {
        assert_eq!(
            bigdansing_common::csv::to_string(a.table()),
            bigdansing_common::csv::to_string(b.table()),
            "{context}"
        );
        assert_eq!(a.seq_col, b.seq_col, "{context}");
        assert_eq!(a.detected(), b.detected(), "{context}");
        assert_eq!(
            (a.next_seq, a.applies, a.stable, a.store.next),
            (b.next_seq, b.applies, b.stable, b.store.next),
            "{context}"
        );
        assert_eq!(
            (a.watermark(), a.window_live()),
            (b.watermark(), b.window_live())
        );
    }

    /// Drive 30 batches at cadence 2 through a durable session, a copy
    /// of its directory recovered after every batch, and an in-memory
    /// twin. Returns, per cadence, how much `snapshot.bin` grew beyond
    /// the batch records (negative: a base rewrite replaced it) and the
    /// bytes of those records.
    fn run_cadences(tag: &str, window: Option<WindowSpec>) -> Vec<(i64, usize)> {
        let dir = durable_dir(tag);
        let scratch = durable_dir(&format!("{tag}-copy"));
        let base = wide_base(100);
        let mut live = open_fd(&dir, &base, windowed(window), 2);
        let mut twin = plain_fd(&base, windowed(window));
        let size = |d: &Path| std::fs::metadata(wal::snapshot_path(d)).unwrap().len();
        let mut cadences = Vec::new();
        let (mut before, mut wal_bytes) = (size(&dir) as i64, 0);
        for k in 0..30u64 {
            let batch = stream_batch(k, window.is_some());
            wal_bytes += Wal::record_size(&batch);
            live.apply(batch.clone()).unwrap();
            twin.apply(batch).unwrap();
            assert_identical(&live, &twin, &format!("batch {k}: live vs twin"));
            copy_dir(&dir, &scratch);
            let (recovered, stats) = recover_fd(&scratch, windowed(window)).unwrap();
            assert_eq!(stats.last_seq, k + 1);
            assert_eq!(stats.replayed, (k + 1) % 2, "odd batches are replayed");
            assert_identical(&recovered, &live, &format!("batch {k}: recovered vs live"));
            if k % 2 == 1 {
                let after = size(&dir) as i64;
                cadences.push((after - before - wal_bytes as i64, wal_bytes));
                (before, wal_bytes) = (after, 0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
        cadences
    }

    #[test]
    fn snapshot_file_grows_with_the_change_and_recovers_byte_for_byte() {
        let cadences = run_cadences("cadences", None);
        let appended: Vec<_> = cadences.iter().filter(|(grew, _)| *grew > 0).collect();
        assert!(appended.len() >= 3, "delta frames: {cadences:?}");
        assert!(
            appended.len() < cadences.len(),
            "the size rule must rewrite the base at least once: {cadences:?}"
        );
        // A state frame holds the cadence's touched tuples once (what the
        // batch records held, plus the row repair rewrote) and ~100 bytes
        // of frame header and watermarks — never the 100-row table.
        for (grew, wal_bytes) in appended {
            assert!(
                *grew as usize <= 2 * wal_bytes + 128,
                "a state frame of {grew} bytes for {wal_bytes} record bytes: {cadences:?}"
            );
        }
    }

    #[test]
    fn windowed_delta_frames_recover_event_times_and_expiry() {
        // ~4 arrivals per batch: the tumbling window closes twice along
        // the stream, retiring rows that the delta frames must then drop.
        let cadences = run_cadences("cadences-win", WindowSpec::tumbling(64).ok());
        assert!(cadences.iter().any(|(grew, _)| *grew > 0), "{cadences:?}");
    }

    /// A directory whose log is a base, batch 1, its state frame, batch
    /// 2, its state frame — and the live session that wrote it.
    fn base_and_two_frames(tag: &str) -> (PathBuf, Session) {
        let dir = durable_dir(tag);
        let mut s = open_fd(&dir, &wide_base(100), CleanseOptions::default(), 1);
        s.apply(stream_batch(0, false)).unwrap();
        s.apply(stream_batch(1, false)).unwrap();
        let kinds: Vec<u8> = frame_starts(&log_bytes(&dir)).iter().map(|f| f.1).collect();
        assert_eq!(kinds, [KIND_SNAPSHOT, KIND_WAL, DELTA, KIND_WAL, DELTA]);
        (dir, s)
    }

    fn log_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(wal::snapshot_path(dir)).unwrap()
    }

    /// Where each whole frame of a log starts, with its kind.
    fn frame_starts(bytes: &[u8]) -> Vec<(usize, u8)> {
        let (mut at, mut starts) = (0, Vec::new());
        for (kind, p) in scan_frames(bytes).frames {
            starts.push((at, kind));
            at += FRAME_HEADER + p.len() + FRAME_TRAILER;
        }
        starts
    }

    /// The frame codec's single-byte-flip property, for the one log: a
    /// flip with a whole frame after it is `Error::Corrupt`; a flip in
    /// the last frame is that too, or a torn tail whose batch is replayed.
    /// Recovery never returns a session missing an applied batch.
    #[test]
    fn flipped_byte_anywhere_in_the_log_is_corrupt_or_recovers_whole() {
        let (dir, live) = base_and_two_frames("flip");
        let path = wal::snapshot_path(&dir);
        let good = log_bytes(&dir);
        let (last, mut torn) = (frame_starts(&good)[4].0, 0);
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 1 << (at % 8);
            std::fs::write(&path, &bad).unwrap();
            match recover_plain(&dir) {
                Err(Error::Corrupt(_)) => {}
                Err(other) => panic!("flip at byte {at}: wrong error class: {other}"),
                Ok((recovered, stats)) if at >= last => {
                    assert_eq!((stats.snapshot_seq, stats.replayed), (1, 1), "{at}");
                    assert_identical(&recovered, &live, &format!("flip at byte {at}"));
                    torn += 1;
                }
                Ok((_, stats)) => panic!("flip at byte {at}: recovered anyway ({stats:?})"),
            }
        }
        assert!(torn > 0, "no flip in the last frame read as a torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_last_frame_is_cut_and_its_batches_replayed() {
        let (dir, mut live) = base_and_two_frames("torn");
        // batch 3 reaches the log; its state frame is cut short
        live.durable.as_mut().unwrap().snapshot_every = 0;
        live.apply(stream_batch(2, false)).unwrap();
        let frame = wal::encode_delta_frame(&live.delta_frame());
        let torn = [log_bytes(&dir), frame[..frame.len() / 2].to_vec()].concat();
        std::fs::write(wal::snapshot_path(&dir), &torn).unwrap();
        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!(
            (stats.snapshot_seq, stats.replayed, stats.last_seq),
            (2, 1, 3)
        );
        assert_identical(&recovered, &live, "torn last frame");
        // recovery cut the tear away before appending its catch-up frame
        let log = wal::read_log(&wal::snapshot_path(&dir)).unwrap();
        assert_eq!((log.state.last_seq, log.torn_at), (3, None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_batch_record_is_corrupt_and_named() {
        let (dir, mut live) = base_and_two_frames("gap");
        live.durable.as_mut().unwrap().snapshot_every = 0;
        live.apply(stream_batch(2, false)).unwrap();
        live.apply(stream_batch(3, false)).unwrap();
        drop(live);
        // cut batch record 3 out, keep record 4
        let mut bytes = log_bytes(&dir);
        let starts = frame_starts(&bytes);
        assert_eq!((starts[5].1, starts[6].1), (KIND_WAL, KIND_WAL));
        bytes.drain(starts[5].0..starts[6].0);
        std::fs::write(wal::snapshot_path(&dir), &bytes).unwrap();
        match recover_plain(&dir) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("missing batch 3"), "{msg}"),
            other => panic!("expected Error::Corrupt, got {:?}", other.map(|(_, s)| s)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory in the two-file layout of builds before the one log
    /// — batch records in a `wal.log` beside `snapshot.bin` — is refused
    /// by recovery and by a fresh open, and left as it was.
    #[test]
    fn two_file_directory_is_refused() {
        let (dir, live) = base_and_two_frames("two-file");
        drop(live);
        std::fs::write(dir.join("wal.log"), b"").unwrap();
        let before = log_bytes(&dir);
        match recover_plain(&dir) {
            Err(Error::Corrupt(msg)) => {
                assert!(
                    msg.contains("wal.log") && msg.contains("unsupported"),
                    "{msg}"
                )
            }
            other => panic!("expected Error::Corrupt, got {:?}", other.map(|(_, s)| s)),
        }
        std::fs::remove_file(wal::snapshot_path(&dir)).unwrap();
        let open = open_on(Engine::sequential(), &dir, &wide_base(4), 8);
        assert!(matches!(err_of(open), Error::Corrupt(_)));
        assert_eq!(files(&dir), ["wal.log"]);
        std::fs::write(wal::snapshot_path(&dir), &before).unwrap();
        std::fs::remove_file(dir.join("wal.log")).unwrap();
        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!((stats.snapshot_seq, stats.last_seq), (2, 2));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_load_rejects_what_position_lookup_cannot_survive() {
        let dir = durable_dir("doctored");
        let s = open_fd(&dir, &wide_base(4), CleanseOptions::default(), 8);
        let good = s.capture_state();
        drop(s);
        type Doctor = fn(&mut SessionState);
        let doctored: [(&str, Doctor); 4] = [
            ("out of table order", |st| st.seqs.swap(1, 2)),
            ("out of table order", |st| st.seqs[2] = st.seqs[1]),
            ("duplicate tuple id", |st| {
                st.tuples[3] = st.tuples[0].clone()
            }),
            ("not past the table's last", |st| st.next_seq = 3),
        ];
        for (want, doctor) in doctored {
            let mut st = good.clone();
            doctor(&mut st);
            let mut log = Wal::create(&dir).unwrap();
            log.write_base(&st, &Dio::plain()).unwrap();
            match recover_plain(&dir) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: got {:?}", other.map(|(_, s)| s)),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_session_refuses_to_snapshot() {
        let dir = durable_dir("poison-snap");
        let mut s = open_fd(&dir, &base_table(&zip_city()), CleanseOptions::default(), 8);
        s.poisoned = true;
        assert!(err_of(s.snapshot()).to_string().contains("poisoned"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two opens of one base write the same base frame, byte for byte:
    /// the open stores its detections in the order of their units, not
    /// in the order a shuffle's buckets come out in.
    #[test]
    fn the_base_frame_is_byte_reproducible() {
        let row = |i: i64| vec![Value::Int(i % 40), Value::str(format!("c{}", i % 7))];
        let table = Table::from_rows("t", zip_city(), (0..600).map(row).collect());
        let frame = |tag| {
            let dir = durable_dir(tag);
            drop(open_on(Engine::parallel(2), &dir, &table, 8).unwrap());
            let bytes = std::fs::read(wal::snapshot_path(&dir)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        };
        assert!(
            frame("repro-a") == frame("repro-b"),
            "the base frames differ"
        );
    }
}
