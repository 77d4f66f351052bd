//! The durable side of a [`Session`]: WAL-logged applies, atomic
//! snapshots, and recovery (snapshot load, deterministic index rebuild,
//! WAL replay).

use crate::session::{Session, SessionOptions};
use crate::wal::{self, DurabilityOptions, RecoverStats, SessionState, Wal, WindowState};
use crate::window::Win;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::{Error, Result, Table};
use bigdansing_dataflow::Dio;
use bigdansing_plan::Executor;
use bigdansing_rules::Rule;
use std::sync::Arc;

/// The durability attachment of a session: the open WAL, the snapshot
/// cadence, and the watermarks tying both to the apply sequence.
pub(crate) struct Durable {
    pub(crate) dir: std::path::PathBuf,
    pub(crate) wal: Wal,
    pub(crate) snapshot_every: u64,
    /// Batch sequence covered by the latest on-disk snapshot.
    pub(crate) last_snapshot_seq: u64,
    /// Sequence of the last *successfully applied* batch. A batch that
    /// reached the WAL but failed mid-apply is excluded — recovery
    /// replays it.
    pub(crate) last_seq: u64,
    pub(crate) dio: Dio,
}

impl Session {
    /// Open a **durable** session: like [`Session::new`], but every
    /// applied batch is WAL-logged before mutation and the full state
    /// is snapshotted atomically every `durability.snapshot_every`
    /// batches (plus a baseline snapshot now, so the directory is
    /// recoverable from the start). Refuses a directory that already
    /// holds a snapshot — recover it with [`Session::recover`] or
    /// clear it explicitly.
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
        session.attach(durability, w, 0);
        session.snapshot()?;
        Ok(session)
    }

    /// Attach the durable directory: `seq` is the batch sequence both
    /// the session and its latest snapshot stand at.
    fn attach(&mut self, durability: DurabilityOptions, wal: Wal, seq: u64) {
        self.durable = Some(Durable {
            dir: durability.dir,
            wal,
            snapshot_every: durability.snapshot_every,
            last_snapshot_seq: seq,
            last_seq: seq,
            dio: Dio::from_engine(self.executor.engine()),
        });
    }

    /// Rebuild a session from a durable directory: load the latest
    /// snapshot, verify it was produced by the same rule set, rebuild
    /// the per-rule indexes deterministically, then replay the WAL
    /// records past the snapshot watermark (truncating any torn tail
    /// left by a crash mid-append). A batch that was WAL-logged but
    /// whose apply never finished — including one that *poisoned* the
    /// previous session — is applied now. If anything was replayed, a
    /// fresh snapshot is written so the next recovery starts hot.
    pub fn recover(
        executor: Executor,
        rules: Vec<Arc<dyn Rule>>,
        options: SessionOptions,
        durability: DurabilityOptions,
    ) -> Result<(Session, RecoverStats)> {
        wal::sweep_dir(&durability.dir);
        let state = wal::read_snapshot(&durability.dir)?.ok_or_else(|| {
            Error::Io(format!(
                "{}: no snapshot to recover from",
                durability.dir.display()
            ))
        })?;
        let names: Vec<String> = rules.iter().map(|r| r.name().to_string()).collect();
        if names != state.rule_names {
            return Err(Error::Repair(format!(
                "recover: rule set mismatch — snapshot was written with [{}], \
                 session opened with [{}]",
                state.rule_names.join(", "),
                names.join(", ")
            )));
        }
        let mut session = Session::from_state(executor, rules, options, &state)?;
        let (w, records) = Wal::open(&durability.dir)?;
        session.attach(durability, w, state.last_seq);
        let mut stats = RecoverStats {
            snapshot_seq: state.last_seq,
            replayed: 0,
            last_seq: state.last_seq,
        };
        for (seq, batch) in records {
            if seq <= state.last_seq {
                continue;
            }
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
        state: &SessionState,
    ) -> Result<Session> {
        let table = state.table();
        let win = match (&options.window, &state.window) {
            (None, None) => None,
            (Some(spec), Some(ws)) if spec.size == ws.size && spec.slide == ws.slide => Some(Win {
                spec: *spec,
                clock: ws.clock,
                times: table
                    .tuples()
                    .iter()
                    .zip(&ws.times)
                    .map(|(t, ts)| (t.id(), *ts))
                    .collect(),
            }),
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
        let seqs = state.seqs.iter().copied();
        let mut session = Session::skeleton(executor, rules, options, table, seqs, |id| {
            Error::Corrupt(format!("snapshot: duplicate tuple id {id}"))
        })?;
        for item in &state.items {
            if item.rule as usize >= session.rules.len() {
                return Err(Error::Corrupt(format!(
                    "snapshot: violation references rule {} of {}",
                    item.rule,
                    session.rules.len()
                )));
            }
            session.store.insert(item.clone());
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
    /// in one pass through the same insert path.
    fn rebuild_indexes(&mut self) {
        let engine = self.executor.engine().clone();
        for index in &mut self.states {
            let live = self.table.tuples().iter().map(|t| (t.id(), Some(t)));
            let delta = index.reindex(live, &self.seqs);
            index.load_oc(delta, &engine);
        }
    }

    /// Write an atomic snapshot of the full session state (table,
    /// sequence numbers, violation store) and truncate the WAL it
    /// supersedes. Returns the batch sequence the snapshot covers.
    /// Errors if the session is not durable; a failed write leaves the
    /// previous snapshot intact and the session usable.
    pub fn snapshot(&mut self) -> Result<u64> {
        if self.durable.is_none() {
            return Err(Error::Io(
                "session has no durable directory; open it with open_durable".into(),
            ));
        }
        let state = self.capture_state();
        let engine = self.executor.engine().clone();
        let d = self.durable.as_mut().expect("checked above");
        wal::write_snapshot(&d.dir, &state, &d.dio)?;
        Metrics::add(&engine.metrics().snapshots_written, 1);
        d.last_snapshot_seq = state.last_seq;
        d.wal.truncate_all()?;
        Ok(state.last_seq)
    }

    /// Serialize the session's logical state. Per-rule indexes are
    /// omitted — they are a deterministic function of the table and
    /// sequence numbers and are rebuilt on recovery.
    fn capture_state(&self) -> SessionState {
        let seqs = self
            .table
            .tuples()
            .iter()
            .map(|t| *self.seqs.get(&t.id()).expect("live tuple has a seq"))
            .collect();
        let items = self.store.items.values().cloned().collect();
        SessionState {
            table_name: self.table.name().to_string(),
            attrs: self.table.schema().attrs().to_vec(),
            tuples: self.table.tuples().to_vec(),
            seqs,
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
                    .map(|t| *w.times.get(&t.id()).expect("live tuple has an event time"))
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
}
