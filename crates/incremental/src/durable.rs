//! The durable side of a [`Session`]: WAL-logged applies, a snapshot
//! file kept current by delta frames, and recovery (base + delta-frame
//! fold, deterministic index rebuild, WAL replay).

use crate::index::RuleIndex;
use crate::session::{Session, SessionOptions};
use crate::wal::{
    self, DeltaFrame, DurabilityOptions, RecoverStats, SessionState, Upsert, Wal, WindowState,
};
use crate::window::Win;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result, Table, Tuple, TupleId};
use bigdansing_dataflow::Dio;
use bigdansing_plan::Executor;
use bigdansing_rules::Rule;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The durability attachment of a session: the open WAL, the snapshot
/// cadence, and the watermarks tying both to the apply sequence.
pub(crate) struct Durable {
    pub(crate) dir: std::path::PathBuf,
    pub(crate) wal: Wal,
    pub(crate) snapshot_every: u64,
    /// Batch sequence the snapshot file is current through.
    pub(crate) last_snapshot_seq: u64,
    /// Sequence of the last *successfully applied* batch. A batch that
    /// reached the WAL but failed mid-apply is excluded — recovery
    /// replays it.
    pub(crate) last_seq: u64,
    /// Ids whose tuple changed or appeared since the snapshot file was
    /// last made current: everything `Session::redetect` was handed,
    /// which is every table mutation (batch ops, repair, expiry). The
    /// next delta frame carries the live ones' current versions.
    pub(crate) dirty: BTreeSet<TupleId>,
    /// Sequence numbers of the rows that left the table over the same
    /// span (`Session::unlink` reports them), and the `next_seq` the
    /// file stands at: a removed number at or past it belongs to a row
    /// that came and went between two frames and was never on disk.
    pub(crate) removed: Vec<u64>,
    file_next_seq: u64,
    /// Size of the base frame in the snapshot file (0: none written yet).
    base_bytes: u64,
    /// Total size of the delta frames appended after it.
    delta_bytes: u64,
    pub(crate) dio: Dio,
}

impl Session {
    /// Open a **durable** session: like [`Session::new`], but every
    /// applied batch is WAL-logged before mutation and the snapshot file
    /// is brought up to date every `durability.snapshot_every` batches
    /// (plus a base snapshot now, so the directory is recoverable from
    /// the start). Refuses a directory that already holds a snapshot —
    /// recover it with [`Session::recover`] or clear it explicitly.
    pub fn open_durable(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        table: &Table,
        options: SessionOptions,
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
        wal::sweep_dir(&durability.dir);
        let w = Wal::create(&durability.dir)?;
        session.attach(durability, w, 0, (0, 0));
        session.snapshot()?;
        Ok(session)
    }

    /// Attach the durable directory: `seq` is the batch sequence both
    /// the session and its snapshot file stand at, `file` the sizes of
    /// that file's base frame and delta frames.
    fn attach(&mut self, durability: DurabilityOptions, wal: Wal, seq: u64, file: (u64, u64)) {
        self.durable = Some(Durable {
            dir: durability.dir,
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

    /// Rebuild a session from a durable directory: fold the snapshot
    /// file's base and delta frames, verify it was produced by the same
    /// rule set, rebuild the per-rule indexes deterministically, then
    /// replay the WAL records past the snapshot watermark (truncating
    /// any torn tail left by a crash mid-append). A batch that was
    /// WAL-logged but whose apply never finished — including one that
    /// *poisoned* the previous session — is applied now. If anything was
    /// replayed, the snapshot file is brought up to date so the next
    /// recovery starts hot.
    ///
    /// The WAL must continue the snapshot without a gap, and a snapshot
    /// file that ends in an undecodable frame is accepted only when the
    /// WAL still holds the batches that frame would have covered (a
    /// crash mid-append, before the WAL was truncated); anything else is
    /// [`Error::Corrupt`].
    pub fn recover(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: SessionOptions,
        durability: DurabilityOptions,
    ) -> Result<(Session, RecoverStats)> {
        wal::sweep_dir(&durability.dir);
        let file = wal::read_snapshot(&durability.dir)?.ok_or_else(|| {
            Error::Io(format!(
                "{}: no snapshot to recover from",
                durability.dir.display()
            ))
        })?;
        let names: Vec<String> = rules.iter().map(|r| r.name().to_string()).collect();
        if names != file.state.rule_names {
            return Err(Error::Repair(format!(
                "recover: rule set mismatch — snapshot was written with [{}], \
                 session opened with [{}]",
                file.state.rule_names.join(", "),
                names.join(", ")
            )));
        }
        let snapshot_seq = file.state.last_seq;
        let (w, mut records) = Wal::open(&durability.dir)?;
        records.retain(|(seq, _)| *seq > snapshot_seq);
        let continues = (snapshot_seq + 1..)
            .zip(&records)
            .all(|(want, (seq, _))| want == *seq);
        if !continues || (file.torn_tail && records.is_empty()) {
            return Err(Error::Corrupt(format!(
                "{}: the WAL does not continue the snapshot file from batch {}{}",
                durability.dir.display(),
                snapshot_seq + 1,
                if file.torn_tail {
                    ", and the snapshot file ends in a frame that does not decode"
                } else {
                    ""
                }
            )));
        }
        if file.torn_tail {
            wal::truncate_snapshot(&durability.dir, file.base_bytes + file.delta_bytes)?;
        }
        let sizes = (file.base_bytes, file.delta_bytes);
        let mut session = Session::from_state(executor, rules, options, file.state)?;
        session.attach(durability, w, snapshot_seq, sizes);
        let mut stats = RecoverStats {
            snapshot_seq,
            replayed: 0,
            last_seq: snapshot_seq,
        };
        for (seq, batch) in records {
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
    /// violation store (ids preserved), and freshly re-scoped per-rule
    /// indexes — no detection runs, the store is trusted.
    fn from_state(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: SessionOptions,
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

    /// Re-scope every live tuple into the per-rule indexes — the same
    /// entries incremental maintenance would have accumulated, rebuilt
    /// in one pass through the same insert path. The indexes share
    /// nothing but the table they read, so a parallel engine's workers
    /// each take a share of the rules.
    fn rebuild_indexes(&mut self) {
        let engine = self.executor.engine().clone();
        let (table, seqs) = (&self.table, &self.seqs);
        let rebuild = |indexes: &mut [RuleIndex]| {
            for index in indexes {
                let live = table.tuples().iter().map(|t| (t.id(), Some(t)));
                let delta = index.reindex(live, seqs);
                index.load_oc(delta, &engine);
            }
        };
        let share = self.states.len().div_ceil(engine.workers());
        if share == self.states.len() {
            return rebuild(&mut self.states);
        }
        // scope joins every thread and re-raises a rule's panic here
        std::thread::scope(|scope| {
            for indexes in self.states.chunks_mut(share) {
                scope.spawn(|| rebuild(indexes));
            }
        });
    }

    /// Bring the snapshot file up to date with the session and truncate
    /// the WAL it supersedes. Returns the batch sequence the file now
    /// covers. Normally that is one appended *delta frame* — the tuples
    /// touched since the file was last current, the violation store and
    /// the watermarks — so the cost follows the change, not the table.
    /// The full state is rewritten as a new base (atomically: temp file,
    /// fsync, rename) only when there is no base yet or the delta frames
    /// since the last one, this one included, would outweigh it; every
    /// base of `B` bytes is thus paid for by `B` bytes of delta frames,
    /// which bounds the bytes written per byte of change by a constant.
    ///
    /// Errors if the session is not durable or is poisoned; a failed
    /// write leaves the file as it was and the session usable.
    pub fn snapshot(&mut self) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Err(Error::Io(
                "session has no durable directory; open it with open_durable".into(),
            ));
        };
        if self.poisoned {
            return Err(Error::Repair(
                "session poisoned: its state no longer matches the WAL; recover it instead".into(),
            ));
        }
        let seq = d.last_seq;
        if d.base_bytes > 0 && seq == d.last_snapshot_seq {
            return Ok(seq); // nothing applied since the file was made current
        }
        // A delta frame — unless there is no base to append to, or the
        // frames since it, this one included, would outweigh it.
        let delta = (d.base_bytes > 0)
            .then(|| wal::encode_delta_frame(&self.delta_frame()))
            .filter(|frame| d.delta_bytes + frame.len() as u64 <= d.base_bytes);
        let base = delta.is_none().then(|| self.capture_state());
        let d = self.durable.as_mut().expect("checked above");
        if let Some(frame) = delta {
            wal::append_delta_frame(&d.dir, seq, &frame, &d.dio)?;
            d.delta_bytes += frame.len() as u64;
        } else if let Some(state) = base {
            d.base_bytes = wal::write_snapshot(&d.dir, &state, &d.dio)?;
            d.delta_bytes = 0;
        }
        Metrics::add(&d.dio.metrics().snapshots_written, 1);
        d.last_snapshot_seq = seq;
        d.dirty.clear();
        d.removed.clear();
        d.file_next_seq = self.next_seq;
        d.wal.truncate_all()?;
        Ok(seq)
    }

    /// What changed since the snapshot file was last current.
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
    use crate::{DeltaBatch, WindowSpec};
    use bigdansing_common::{Schema, Value};
    use bigdansing_dataflow::{Engine, ExecMode, FaultInjector, FaultPolicy, FaultSite};
    use bigdansing_rules::FdRule;

    fn err_of<T>(r: Result<T>) -> Error {
        match r {
            Ok(_) => panic!("expected an error"),
            Err(e) => e,
        }
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bd-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
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
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("parity");
        let mut durable = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(2),
        )
        .unwrap();
        let mut plain = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
        )
        .unwrap();
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

    #[test]
    fn recover_replays_wal_suffix_and_matches_uninterrupted() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("replay");
        // Cadence 100: nothing beyond the baseline snapshot, so every
        // batch must come back from the WAL.
        let mut durable = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        for b in batches() {
            durable.apply(b).unwrap();
        }
        drop(durable); // "crash" — recovery sees only the disk state

        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert_eq!(stats.snapshot_seq, 0);
        assert_eq!(stats.replayed, 4);
        assert_eq!(stats.last_seq, 4);

        let mut oracle = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
        )
        .unwrap();
        for b in batches() {
            oracle.apply(b).unwrap();
        }
        assert_same(&recovered, &oracle);

        // Recovery wrote a catch-up snapshot: a second recovery replays
        // nothing and still matches.
        let (again, stats2) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert_eq!(stats2.replayed, 0);
        assert_eq!(stats2.snapshot_seq, 4);
        assert_same(&again, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_session_keeps_cleansing_correctly() {
        // Indexes are rebuilt, not restored — later deltas must still
        // pair against pre-crash residents.
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("cont");
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        drop(s);
        let (mut recovered, _) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
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
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("poison");
        let table = Table::from_rows("t", schema.clone(), vec![]);
        let engine = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .fault_policy(FaultPolicy::fail_fast())
            .fault_injector(FaultInjector::seeded(1).with_task_panics(1.0))
            .build();
        let mut s = Session::open_durable(
            Executor::new(engine),
            fd_rules(&schema),
            &table,
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        let batch = DeltaBatch::new()
            .insert(0, vec![Value::Int(1), Value::str("LA")])
            .insert(1, vec![Value::Int(1), Value::str("SF")]);
        assert!(s.apply(batch.clone()).is_err());
        assert!(s.is_poisoned());
        drop(s);

        // The batch reached the WAL before the failing detect stage;
        // recovery with a healthy engine replays it to completion.
        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(recovered.table().len(), 2);
        assert!(recovered.is_clean(), "replay repaired the FD violation");

        let mut oracle = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &table,
            SessionOptions::default(),
        )
        .unwrap();
        oracle.apply(batch).unwrap();
        assert_same(&recovered, &oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_durable_refuses_existing_snapshot() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("refuse");
        let open = |dir: &std::path::Path| {
            Session::open_durable(
                Executor::new(Engine::sequential()),
                fd_rules(&schema),
                &base_table(&schema),
                SessionOptions::default(),
                DurabilityOptions::new(dir),
            )
        };
        assert!(open(&dir).is_ok());
        let err = err_of(open(&dir));
        assert!(err.to_string().contains("recover"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_rule_mismatch_and_missing_dir() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("mismatch");
        Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        let other: Vec<Arc<dyn Rule>> =
            vec![Arc::new(FdRule::parse("city -> zipcode", &schema).unwrap())];
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            other,
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        ));
        assert!(err.to_string().contains("rule set mismatch"), "{err}");

        let empty = durable_dir("mismatch-empty");
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&empty),
        ));
        assert!(err.to_string().contains("no snapshot"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn malformed_batch_never_reaches_the_wal() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("badbatch");
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(100),
        )
        .unwrap();
        assert!(s
            .apply(DeltaBatch::new().update(99, vec![Value::Int(1), Value::str("X")]))
            .is_err());
        assert!(s.apply(DeltaBatch::new().delete(42).delete(42)).is_err());
        s.apply(DeltaBatch::new().insert(5, vec![Value::Int(9), Value::str("TK")]))
            .unwrap();
        drop(s);
        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(stats.replayed, 1, "only the valid batch was logged");
        assert_eq!(recovered.table().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_durable_session_recovers_watermark() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("window");
        let opts = || SessionOptions {
            window: Some(WindowSpec::tumbling(3).unwrap()),
            ..Default::default()
        };
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            opts(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        s.apply(DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]))
            .unwrap();
        assert_eq!(s.watermark(), Some(2));
        drop(s);

        // window spec must match the snapshot
        let err = err_of(Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        ));
        assert!(err.to_string().contains("window mismatch"), "{err}");

        let (mut s, _) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            opts(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
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
    /// committed: the batch is applied and in the WAL, so the apply
    /// reports `Ok`, the snapshot watermark stays put (the next apply
    /// retries), and recovery replays the WAL to the same state.
    #[test]
    fn failed_periodic_snapshot_does_not_fail_the_committed_apply() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("snapfail");
        // A seed whose only injected IO fault is the snapshot write
        // after batch 1 — the baseline snapshot (stream 0) and the WAL
        // appends go through.
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
        let mut faulty = Session::open_durable(
            Executor::new(engine),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        let mut twin = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
        )
        .unwrap();
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

        let (recovered, stats) = Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        assert_eq!((stats.snapshot_seq, stats.replayed), (0, 1));
        assert_same(&recovered, &twin);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `n` clean rows, one zipcode each: room for delta frames before
    /// the size rule asks for a new base.
    fn wide_base(schema: &Schema, n: i64) -> Table {
        let row = |i: i64| vec![Value::Int(i), Value::str(format!("city-{i}"))];
        Table::from_rows("t", schema.clone(), (0..n).map(row).collect())
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

    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
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
    /// twin. Returns, per cadence, how much `snapshot.bin` grew (negative:
    /// a base rewrite replaced it) and the WAL bytes of its batches.
    fn run_cadences(tag: &str, window: Option<WindowSpec>) -> Vec<(i64, usize)> {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir(tag);
        let scratch = durable_dir(&format!("{tag}-copy"));
        let opts = || SessionOptions {
            window,
            ..Default::default()
        };
        let base = wide_base(&schema, 100);
        let durability = |d: &std::path::Path| DurabilityOptions::new(d).snapshot_every(2);
        let mut live = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base,
            opts(),
            durability(&dir),
        )
        .unwrap();
        let mut twin = Session::new(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base,
            opts(),
        )
        .unwrap();
        let size = |d: &std::path::Path| std::fs::metadata(wal::snapshot_path(d)).unwrap().len();
        let mut cadences = Vec::new();
        let (mut before, mut wal_bytes) = (size(&dir) as i64, 0);
        for k in 0..30u64 {
            let batch = stream_batch(k, window.is_some());
            wal_bytes += Wal::record_size(&batch);
            live.apply(batch.clone()).unwrap();
            twin.apply(batch).unwrap();
            assert_identical(&live, &twin, &format!("batch {k}: live vs twin"));
            copy_dir(&dir, &scratch);
            let (recovered, stats) = Session::recover(
                Executor::new(Engine::sequential()),
                fd_rules(&schema),
                opts(),
                durability(&scratch),
            )
            .unwrap();
            assert_eq!(stats.last_seq, k + 1);
            assert_eq!(stats.replayed, (k + 1) % 2, "odd batches come from the WAL");
            assert_identical(&recovered, &live, &format!("batch {k}: recovered vs live"));
            if k % 2 == 1 {
                let after = size(&dir) as i64;
                cadences.push((after - before, wal_bytes));
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
        // A delta frame holds the cadence's touched tuples once (what the
        // WAL held, plus the row repair rewrote) and ~100 bytes of frame
        // header and watermarks — never the 100-row table.
        for (grew, wal_bytes) in appended {
            assert!(
                *grew as usize <= 2 * wal_bytes + 128,
                "a delta frame of {grew} bytes for {wal_bytes} WAL bytes: {cadences:?}"
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

    /// A directory whose snapshot file is a base and two delta frames,
    /// WAL truncated — and the live session that wrote it.
    fn base_and_two_frames(tag: &str) -> (std::path::PathBuf, Session) {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir(tag);
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &wide_base(&schema, 100),
            SessionOptions::default(),
            DurabilityOptions::new(&dir).snapshot_every(1),
        )
        .unwrap();
        s.apply(stream_batch(0, false)).unwrap();
        s.apply(stream_batch(1, false)).unwrap();
        let file = wal::read_snapshot(&dir).unwrap().unwrap();
        assert!(file.delta_bytes > 0 && !file.torn_tail);
        assert_eq!(std::fs::metadata(wal::wal_path(&dir)).unwrap().len(), 0);
        (dir, s)
    }

    fn recover_plain(dir: &std::path::Path) -> Result<(Session, RecoverStats)> {
        let schema = Schema::parse("zipcode,city");
        Session::recover(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(dir).snapshot_every(1),
        )
    }

    /// The frame codec's single-byte-flip property, for the multi-frame
    /// file: wherever the flip lands — base, either delta frame, a
    /// length field that makes the tail look torn — recovery reports
    /// `Error::Corrupt`; it never returns a session missing the batches
    /// the damaged frame held.
    #[test]
    fn flipped_byte_anywhere_in_base_plus_delta_frames_is_corrupt() {
        let (dir, live) = base_and_two_frames("flip");
        drop(live);
        let path = wal::snapshot_path(&dir);
        let good = std::fs::read(&path).unwrap();
        let (recovered, stats) = recover_plain(&dir).unwrap();
        assert_eq!((stats.snapshot_seq, stats.replayed), (2, 0));
        drop(recovered);
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 1 << (at % 8);
            std::fs::write(&path, &bad).unwrap();
            match recover_plain(&dir) {
                Err(Error::Corrupt(_)) => {}
                Err(other) => panic!("flip at byte {at}: wrong error class: {other}"),
                Ok((_, stats)) => panic!("flip at byte {at}: recovered anyway ({stats:?})"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_tail_needs_the_wal_to_cover_it() {
        let (dir, mut live) = base_and_two_frames("torn");
        // batch 3 reaches the WAL; its delta frame is cut short
        live.durable.as_mut().unwrap().snapshot_every = 0;
        live.apply(stream_batch(2, false)).unwrap();
        let frame = wal::encode_delta_frame(&live.delta_frame());
        let mut torn = std::fs::read(wal::snapshot_path(&dir)).unwrap();
        torn.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(wal::snapshot_path(&dir), &torn).unwrap();
        let scratch = durable_dir("torn-copy");
        copy_dir(&dir, &scratch);
        let (recovered, stats) = recover_plain(&scratch).unwrap();
        assert_eq!(
            (stats.snapshot_seq, stats.replayed, stats.last_seq),
            (2, 1, 3)
        );
        assert_identical(&recovered, &live, "torn tail, WAL intact");
        // recovery cut the tear away before appending its catch-up frame
        let file = wal::read_snapshot(&scratch).unwrap().unwrap();
        assert_eq!((file.state.last_seq, file.torn_tail), (3, false));
        // the same tear with the WAL gone is data loss, and says so
        copy_dir(&dir, &scratch);
        std::fs::write(wal::wal_path(&scratch), b"").unwrap();
        assert!(matches!(recover_plain(&scratch), Err(Error::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn wal_gap_after_the_snapshot_is_corrupt() {
        let (dir, mut live) = base_and_two_frames("gap");
        live.durable.as_mut().unwrap().snapshot_every = 0;
        live.apply(stream_batch(2, false)).unwrap();
        live.apply(stream_batch(3, false)).unwrap();
        drop(live);
        // drop WAL record 3, keep record 4
        let (_, records) = Wal::open(&dir).unwrap();
        let mut w = Wal::create(&dir).unwrap();
        w.append(4, &records[1].1, &Dio::plain()).unwrap();
        drop(w);
        match recover_plain(&dir) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("batch 3"), "{msg}"),
            other => panic!("expected Error::Corrupt, got {:?}", other.map(|(_, s)| s)),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_load_rejects_what_position_lookup_cannot_survive() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("doctored");
        let s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &wide_base(&schema, 4),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
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
            wal::write_snapshot(&dir, &st, &Dio::plain()).unwrap();
            match recover_plain(&dir) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: got {:?}", other.map(|(_, s)| s)),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_session_refuses_to_snapshot() {
        let schema = Schema::parse("zipcode,city");
        let dir = durable_dir("poison-snap");
        let mut s = Session::open_durable(
            Executor::new(Engine::sequential()),
            fd_rules(&schema),
            &base_table(&schema),
            SessionOptions::default(),
            DurabilityOptions::new(&dir),
        )
        .unwrap();
        s.poisoned = true;
        assert!(err_of(s.snapshot()).to_string().contains("poisoned"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
