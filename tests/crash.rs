//! Crash-recovery harness for durable incremental sessions.
//!
//! Each case forks the CLI in its hidden `crash-apply` mode with
//! `BIGDANSING_CRASH_AT=<point>[:N]` set, so the child process aborts
//! itself at a seeded durability crash point — mid-append of a batch
//! record (torn frame tailing the log, `snapshot.bin`), after the
//! record's fsync but before any in-memory mutation, mid-append of a
//! state frame (torn frame after the records it covers), after that
//! frame's fsync, or mid-rename of a base rewrite (complete temp file,
//! old base and everything after it still visible). The parent then
//! recovers the durable directory through the library, applies whatever
//! batches the crash swallowed, and asserts the result is identical to
//! an uninterrupted sequential session over the same inputs.

use bigdansing::{
    BigDansing, CleanseOptions, DeltaBatch, DurabilityOptions, RecoverStats, Session,
};
use bigdansing_common::Schema;
use std::path::PathBuf;
use std::process::Command;

const BASE_CSV: &str = "zipcode,city\n1,LA\n2,NY\n";
const DELTA_CSVS: [&str; 4] = [
    "op,id,zipcode,city\ninsert,10,1,SF\n",
    "op,id,zipcode,city\ninsert,11,3,CH\nupdate,10,2,NY\n",
    "op,id,zipcode,city\ndelete,1\n",
    "op,id,zipcode,city\ninsert,12,3,AU\n",
];
const FD: &str = "zipcode -> city";

/// Locate the CLI binary built alongside the test executable, falling
/// back to asking cargo for a build when it is missing (e.g. `cargo
/// test` without a prior workspace build).
fn cli_binary() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // the test executable
    if dir.ends_with("deps") {
        dir.pop(); // target/<profile>/
    }
    let exe = format!("bigdansing-cli{}", std::env::consts::EXE_SUFFIX);
    let debug = dir.join(&exe);
    if debug.exists() {
        return debug;
    }
    // A release-only build leaves the binary under target/release.
    if let Some(target) = dir.parent() {
        let release = target.join("release").join(&exe);
        if release.exists() {
            return release;
        }
    }
    let status = Command::new(env!("CARGO"))
        .args(["build", "-p", "bigdansing-cli"])
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "cargo build -p bigdansing-cli failed");
    assert!(
        debug.exists(),
        "{} still missing after build",
        debug.display()
    );
    debug
}

struct Scenario {
    root: PathBuf,
    base: PathBuf,
    deltas: Vec<PathBuf>,
    durable: PathBuf,
}

impl Scenario {
    fn new(tag: &str) -> Scenario {
        let root = std::env::temp_dir().join(format!("bd-crash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let base = root.join("base.csv");
        std::fs::write(&base, BASE_CSV).unwrap();
        let deltas: Vec<PathBuf> = DELTA_CSVS
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let p = root.join(format!("d{}.csv", i + 1));
                std::fs::write(&p, text).unwrap();
                p
            })
            .collect();
        let durable = root.join("session");
        Scenario {
            root,
            base,
            deltas,
            durable,
        }
    }

    /// Run the child with a seeded crash point; it must die abnormally.
    fn crash_child(&self, crash_at: &str) {
        let out = Command::new(cli_binary())
            .arg("crash-apply")
            .arg(&self.base)
            .args(&self.deltas)
            .args(["--fd", FD])
            .arg("--durable-dir")
            .arg(&self.durable)
            .args(["--snapshot-every", "2", "--workers", "1"])
            .env("BIGDANSING_CRASH_AT", crash_at)
            .output()
            .expect("spawn crash-apply child");
        assert!(
            !out.status.success(),
            "child with BIGDANSING_CRASH_AT={crash_at} exited cleanly:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            self.durable.join("snapshot.bin").exists(),
            "baseline snapshot must exist whatever the kill point"
        );
    }

    fn system() -> BigDansing {
        let mut sys = BigDansing::sequential();
        sys.add_fd(FD, &Schema::parse("zipcode,city")).unwrap();
        sys
    }

    /// Recover the durable directory and finish applying the batches
    /// the crash swallowed (batch sequence numbers are 1-based and map
    /// directly onto the delta file order).
    fn recover_and_finish(&self) -> (Session, RecoverStats) {
        let sys = Self::system();
        let (mut session, stats) = sys
            .recover_session(
                CleanseOptions::default(),
                DurabilityOptions::new(&self.durable).snapshot_every(2),
            )
            .expect("recovery");
        let schema = Schema::parse("zipcode,city");
        for path in &self.deltas[stats.last_seq as usize..] {
            let batch = DeltaBatch::read_file(path, &schema).unwrap();
            sys.apply_delta(&mut session, batch)
                .expect("catch-up apply");
        }
        (session, stats)
    }

    /// The oracle: an uninterrupted sequential session over the same
    /// base and batches.
    fn oracle(&self) -> Session {
        let sys = Self::system();
        let table = bigdansing::csv::read_file(&self.base, true, None).unwrap();
        let mut session = sys.open_session(&table, CleanseOptions::default()).unwrap();
        let schema = Schema::parse("zipcode,city");
        for path in &self.deltas {
            let batch = DeltaBatch::read_file(path, &schema).unwrap();
            sys.apply_delta(&mut session, batch).unwrap();
        }
        session
    }

    fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn assert_parity(recovered: &Session, oracle: &Session, context: &str) {
    assert_eq!(
        recovered.table().tuples(),
        oracle.table().tuples(),
        "{context}: recovered table diverges from the uninterrupted run"
    );
    assert_eq!(
        recovered.detected(),
        oracle.detected(),
        "{context}: recovered violation store diverges"
    );
}

/// Crash the child at `crash_at`, recover, finish the stream, and
/// compare with the uninterrupted run. `expect` is what recovery itself
/// must report (before the catch-up applies): the batch the log's state
/// frames covered, how many batch records were replayed on top, and the
/// batch the recovered session stood at.
fn run_case(tag: &str, crash_at: &str, expect: RecoverStats) {
    let scenario = Scenario::new(tag);
    scenario.crash_child(crash_at);
    let (recovered, stats) = scenario.recover_and_finish();
    assert_eq!(stats, expect, "{crash_at}");
    let oracle = scenario.oracle();
    assert_parity(&recovered, &oracle, crash_at);
    // what the catch-up left on disk recovers to the same state again
    drop(recovered);
    let (again, stats) = scenario.recover_and_finish();
    assert_eq!(stats.last_seq, DELTA_CSVS.len() as u64, "{crash_at}");
    assert_parity(&again, &oracle, crash_at);
    scenario.cleanup();
}

fn stats(snapshot_seq: u64, replayed: u64, last_seq: u64) -> RecoverStats {
    RecoverStats {
        snapshot_seq,
        replayed,
        last_seq,
    }
}

// With `--snapshot-every 2` over the two-row base, batch 2 appends a
// state frame after the baseline and batch 4 rewrites the base (that one
// frame plus the next would outweigh it).

/// Kill mid-append on batch 2: a torn half-record tails the log. Only
/// batch 1 is recoverable; recovery truncates the tear and the parent
/// re-applies batches 2–4.
#[test]
fn crash_mid_wal_append_recovers_to_parity() {
    run_case("pre-sync", "wal-pre-sync:2", stats(0, 1, 1));
}

/// Kill after batch 2's WAL fsync but before the in-memory apply: the
/// record is durable, so recovery replays both batches 1 and 2.
#[test]
fn crash_after_wal_sync_recovers_to_parity() {
    run_case("post-sync", "wal-post-sync:2", stats(0, 2, 2));
}

/// Kill mid-append of the first state frame (after batch 2): half a
/// frame tails the log, after the records of batches 1 and 2. Recovery
/// drops the tear and replays them.
#[test]
fn crash_mid_delta_frame_append_recovers_to_parity() {
    run_case("delta-torn", "snapshot-delta-pre-sync:1", stats(0, 2, 2));
}

/// Kill right after the state frame's fsync: the frame covers batches 1
/// and 2, so their records before it are skipped, not applied twice.
#[test]
fn crash_after_delta_frame_sync_recovers_to_parity() {
    run_case("delta-synced", "snapshot-delta-post-sync:1", stats(2, 0, 2));
}

/// Kill between the temp-file fsync and the rename of the base rewrite
/// after batch 4 (the second base — the first is the baseline at open):
/// the old base *and the frames appended to it* must still be intact,
/// the orphan temp swept, and the replay of batch records 3 and 4
/// must reach the state the new base would have captured.
#[test]
fn crash_mid_base_rewrite_rename_recovers_to_parity() {
    run_case("snap-rename", "snapshot-pre-rename:2", stats(2, 2, 4));
}

/// No crash at all: the child applies everything, the parent recovery
/// replays nothing new and still matches the oracle — the degenerate
/// case that pins the harness itself.
#[test]
fn clean_run_recovers_to_parity() {
    let scenario = Scenario::new("clean");
    let out = Command::new(cli_binary())
        .arg("crash-apply")
        .arg(&scenario.base)
        .args(&scenario.deltas)
        .args(["--fd", FD])
        .arg("--durable-dir")
        .arg(&scenario.durable)
        .args(["--snapshot-every", "2", "--workers", "1"])
        .output()
        .expect("spawn clean child");
    assert!(
        out.status.success(),
        "clean run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (recovered, stats) = scenario.recover_and_finish();
    assert_eq!(stats.last_seq, 4);
    assert_eq!(stats.replayed, 0, "the base at seq 4 covers every batch");
    let oracle = scenario.oracle();
    assert_parity(&recovered, &oracle, "clean");
    scenario.cleanup();
}

/// A session poisoned by a faulty rule mid-stream — then recovered —
/// must resume with its violation-window state (watermark, event
/// times) intact: the next arrival closes exactly the windows it would
/// have closed had the fault never happened.
#[test]
fn poisoned_windowed_session_recovers_with_window_state_intact() {
    use bigdansing::{Rule, UdfRule, UnitKind, WindowSpec};
    use bigdansing_common::{csv, Table, Value};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    static ARMED: AtomicBool = AtomicBool::new(false);

    let root = std::env::temp_dir().join(format!("bd-crash-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let schema = Schema::parse("zipcode,city");
    let system = |schema: &Schema| {
        let mut sys = BigDansing::sequential();
        sys.add_fd(FD, schema).unwrap();
        sys.add_rule(Arc::new(
            UdfRule::builder("udf:armed", |_| {
                if ARMED.load(Ordering::SeqCst) {
                    panic!("armed fault");
                }
                Vec::new()
            })
            .unit_kind(UnitKind::Single)
            .build(),
        ) as Arc<dyn Rule>);
        sys
    };
    let copts = || CleanseOptions {
        window: Some(WindowSpec::tumbling(3).unwrap()),
        ..CleanseOptions::default()
    };
    let base = Table::from_rows(
        "t",
        schema.clone(),
        vec![
            vec![Value::Int(1), Value::str("LA")],
            vec![Value::Int(2), Value::str("NY")],
        ],
    );
    let batch1 = || DeltaBatch::new().insert(10, vec![Value::Int(3), Value::str("CH")]);
    let batch2 = || DeltaBatch::new().insert(11, vec![Value::Int(4), Value::str("SE")]);

    let sys = system(&schema);
    let mut s = sys
        .open_durable_session(
            &base,
            copts(),
            DurabilityOptions::new(&root).snapshot_every(10),
        )
        .unwrap();
    sys.apply_delta(&mut s, batch1()).unwrap();
    assert_eq!(s.watermark(), Some(2), "base ts 0,1 + one arrival");

    // arm the fault: the apply is logged, then fails and poisons
    ARMED.store(true, Ordering::SeqCst);
    assert!(sys.apply_delta(&mut s, batch2()).is_err());
    assert!(s.is_poisoned());
    drop(s);
    ARMED.store(false, Ordering::SeqCst);

    let (recovered, stats) = sys
        .recover_session(copts(), DurabilityOptions::new(&root))
        .unwrap();
    assert!(
        stats.replayed >= 1,
        "the poisoned batch replays from the log"
    );
    // tuple 11 takes event time 3, closing tumbling window [0,3):
    // tuples with ts 0,1,2 retire — only tuple 11 stays live
    assert_eq!(recovered.watermark(), Some(3));
    assert_eq!(recovered.window_live(), Some(1));
    assert_eq!(recovered.table().len(), 1);

    // byte-parity with an uninterrupted windowed session
    let oracle_sys = system(&schema);
    let mut oracle = oracle_sys.open_session(&base, copts()).unwrap();
    oracle_sys.apply_delta(&mut oracle, batch1()).unwrap();
    oracle_sys.apply_delta(&mut oracle, batch2()).unwrap();
    assert_eq!(
        csv::to_string(recovered.table()),
        csv::to_string(oracle.table())
    );
    assert_eq!(recovered.violation_count(), oracle.violation_count());
    let _ = std::fs::remove_dir_all(&root);
}
