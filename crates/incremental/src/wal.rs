//! Durability layer for incremental sessions: a write-ahead log of
//! [`DeltaBatch`]es plus a checksummed snapshot file — one *base* frame
//! holding full session state, followed by *delta* frames holding what
//! changed since the frame before.
//!
//! Both artifacts live in one *durable directory* and share the
//! self-describing frame codec from `bigdansing_common::codec`
//! (magic, format version, kind byte, CRC32 trailer):
//!
//! ```text
//! <dir>/wal.log       frame(KIND_WAL) per batch: seq u64 + DeltaBatch
//! <dir>/snapshot.bin  frame(KIND_SNAPSHOT): full SessionState, then
//!                     zero or more frame(KIND_SNAPSHOT_DELTA): DeltaFrame
//! ```
//!
//! The WAL is append-only and fsync'd before any in-memory mutation;
//! a torn tail (partial last frame after a crash) is detected by the
//! frame CRC and truncated away on open. A base is written to a temp
//! sibling, fsync'd, then renamed into place, so a crash leaves either
//! the old file (base + its delta frames) or the new base — never a
//! hybrid. A delta frame is appended and fsync'd *before* the WAL it
//! supersedes is truncated, so a frame cut short by a crash is always
//! still covered by the WAL: recovery drops an undecodable tail of
//! `snapshot.bin` only when the WAL holds the batch right after the
//! last whole frame, and reports anything else as corruption. Recovery
//! is: fold base + delta frames in order, then replay the WAL suffix
//! whose sequence numbers exceed the folded watermark.

use crate::delta::{DeltaBatch, DeltaOp};
use bigdansing_common::codec::{
    begin_frame, finish_frame, scan_frames, Codec, FRAME_HEADER, FRAME_TRAILER,
};
use bigdansing_common::table::remove_sorted;
use bigdansing_common::{Error, Result, Schema, Table, Tuple, Value};
use bigdansing_dataflow::dio::{crash_hit, crash_point, Dio};
use bigdansing_dataflow::FaultSite;
use bigdansing_rules::{Fix, Violation};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame kind for WAL records.
pub const KIND_WAL: u8 = 1;
/// Frame kind for a base snapshot: full session state.
pub const KIND_SNAPSHOT: u8 = 2;
/// Frame kind for a snapshot delta: what changed since the frame before.
pub const KIND_SNAPSHOT_DELTA: u8 = 3;

/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Where and how often a session persists its state.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Directory holding `wal.log` and `snapshot.bin` (created if
    /// missing).
    pub dir: PathBuf,
    /// Bring `snapshot.bin` up to date (and truncate the WAL) every this
    /// many applied batches. `0` disables automatic snapshots; explicit
    /// `Session::snapshot()` calls still work.
    pub snapshot_every: u64,
}

impl DurabilityOptions {
    /// Durability rooted at `dir` with the default snapshot cadence
    /// (every 8 batches).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            snapshot_every: 8,
        }
    }

    /// Override the automatic snapshot cadence.
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }
}

/// What recovery found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverStats {
    /// Sequence number covered by the snapshot that seeded recovery
    /// (0 when no snapshot existed and the session was rebuilt from
    /// the base table + full WAL).
    pub snapshot_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: u64,
    /// Highest batch sequence number in the recovered session.
    pub last_seq: u64,
}

// --- delta codecs -------------------------------------------------------

impl Codec for DeltaOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            DeltaOp::Insert(t) => {
                buf.push(0);
                t.encode(buf);
            }
            DeltaOp::Update(t) => {
                buf.push(1);
                t.encode(buf);
            }
            DeltaOp::Delete(id) => {
                buf.push(2);
                id.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let tag = *buf
            .first()
            .ok_or_else(|| Error::Parse("delta op codec underrun".into()))?;
        *buf = &buf[1..];
        Ok(match tag {
            0 => DeltaOp::Insert(Tuple::decode(buf)?),
            1 => DeltaOp::Update(Tuple::decode(buf)?),
            2 => DeltaOp::Delete(u64::decode(buf)?),
            t => return Err(Error::Parse(format!("delta op codec: bad tag {t}"))),
        })
    }
}

impl Codec for DeltaBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.ops.len() as u64).encode(buf);
        for op in &self.ops {
            op.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let n = u64::decode(buf)? as usize;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ops.push(DeltaOp::decode(buf)?);
        }
        Ok(DeltaBatch { ops })
    }
}

// --- write-ahead log ----------------------------------------------------

/// Append-only, fsync'd log of applied delta batches.
pub struct Wal {
    path: PathBuf,
    file: File,
}

/// Path of the WAL file inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Path of the snapshot file inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

impl Wal {
    /// Create (or truncate) the WAL in `dir`.
    pub fn create(dir: &Path) -> Result<Wal> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("create durable dir {}: {e}", dir.display())))?;
        let path = wal_path(dir);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| Error::Io(format!("create {}: {e}", path.display())))?;
        Ok(Wal { path, file })
    }

    /// Open the WAL in `dir`, returning the valid records in order. A
    /// torn tail — any suffix that fails frame decoding, e.g. a
    /// half-written record from a crash mid-append — is truncated away
    /// so subsequent appends start at a clean record boundary. A
    /// missing file is treated as an empty log.
    pub fn open(dir: &Path) -> Result<(Wal, Vec<(u64, DeltaBatch)>)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("create durable dir {}: {e}", dir.display())))?;
        let path = wal_path(dir);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // existing records are replayed, not discarded
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| Error::Io(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;

        // A torn tail: keep the whole frames, drop the rest.
        let scan = scan_frames(&bytes);
        let mut records = Vec::with_capacity(scan.frames.len());
        for (kind, payload) in scan.frames {
            if kind != KIND_WAL {
                return Err(Error::Corrupt(format!(
                    "{}: unexpected frame kind {kind} in WAL",
                    path.display()
                )));
            }
            let mut p = payload;
            let seq = u64::decode(&mut p)?;
            let batch = DeltaBatch::decode(&mut p)?;
            if !p.is_empty() {
                return Err(Error::Corrupt(format!(
                    "{}: {} trailing byte(s) inside WAL record {seq}",
                    path.display(),
                    p.len()
                )));
            }
            records.push((seq, batch));
        }
        let good = scan.good as u64;
        if good < bytes.len() as u64 {
            file.set_len(good)
                .map_err(|e| Error::Io(format!("truncate torn tail {}: {e}", path.display())))?;
            file.sync_data()
                .map_err(|e| Error::Io(format!("sync {}: {e}", path.display())))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| Error::Io(format!("seek {}: {e}", path.display())))?;
        Ok((Wal { path, file }, records))
    }

    /// Append one batch under sequence number `seq` and fsync before
    /// returning. Transient IO faults are retried by `dio` with the
    /// partial write rolled back, so the log only ever grows by whole
    /// frames. Fires the `wal-pre-sync` crash point (simulating a torn
    /// write: half the frame reaches disk) and `wal-post-sync` (record
    /// durable, in-memory state not yet mutated).
    pub fn append(&mut self, seq: u64, batch: &DeltaBatch, dio: &Dio) -> Result<()> {
        let mut frame = begin_frame(KIND_WAL);
        seq.encode(&mut frame);
        batch.encode(&mut frame);
        finish_frame(&mut frame);

        if crash_hit("wal-pre-sync") {
            // Simulate a crash mid-append: half the frame reaches the
            // disk, then the process dies. Recovery must truncate it.
            // (`crash_hit` already consumed the configured hit, so
            // abort directly rather than via `crash_point`.)
            let half = &frame[..frame.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            std::process::abort();
        }

        dio.append_sync(FaultSite::WalAppend, seq, &mut self.file, &frame)?;
        crash_point("wal-post-sync");
        Ok(())
    }

    /// Drop all records (after a snapshot made them redundant).
    pub fn truncate_all(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| Error::Io(format!("truncate {}: {e}", self.path.display())))?;
        self.file
            .sync_data()
            .map_err(|e| Error::Io(format!("sync {}: {e}", self.path.display())))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| Error::Io(format!("seek {}: {e}", self.path.display())))?;
        Ok(())
    }

    /// Expected size in bytes of one appended record for `batch`.
    pub fn record_size(batch: &DeltaBatch) -> usize {
        let mut payload = Vec::new();
        0u64.encode(&mut payload);
        batch.encode(&mut payload);
        FRAME_HEADER + payload.len() + FRAME_TRAILER
    }
}

// --- snapshot state -----------------------------------------------------

/// Serialized provenance of a stored violation.
#[derive(Clone, Debug, PartialEq)]
pub enum ProvState {
    /// Violation derived from these tuple ids.
    Tuples(Vec<u64>),
    /// Violation derived from the block with this key.
    Block(Vec<Value>),
}

impl Codec for ProvState {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProvState::Tuples(ids) => {
                buf.push(0);
                (ids.len() as u64).encode(buf);
                for id in ids {
                    id.encode(buf);
                }
            }
            ProvState::Block(vals) => {
                buf.push(1);
                (vals.len() as u64).encode(buf);
                for v in vals {
                    v.encode(buf);
                }
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let tag = *buf
            .first()
            .ok_or_else(|| Error::Parse("prov codec underrun".into()))?;
        *buf = &buf[1..];
        let n = u64::decode(buf)? as usize;
        Ok(match tag {
            0 => {
                let mut ids = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    ids.push(u64::decode(buf)?);
                }
                ProvState::Tuples(ids)
            }
            1 => {
                let mut vals = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    vals.push(Value::decode(buf)?);
                }
                ProvState::Block(vals)
            }
            t => return Err(Error::Parse(format!("prov codec: bad tag {t}"))),
        })
    }
}

/// One stored violation with its repair context and provenance.
#[derive(Clone, Debug)]
pub struct StoredState {
    /// Store id (preserved across snapshot/recover so retraction sets
    /// stay aligned).
    pub id: u64,
    /// Index of the originating rule in the session's rule list.
    pub rule: u64,
    /// The violation itself.
    pub violation: Violation,
    /// Possible fixes generated for it.
    pub fixes: Vec<Fix>,
    /// Where it came from (for retraction on later deltas).
    pub prov: ProvState,
}

impl Codec for StoredState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.rule.encode(buf);
        self.violation.encode(buf);
        (self.fixes.len() as u64).encode(buf);
        for f in &self.fixes {
            f.encode(buf);
        }
        self.prov.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = u64::decode(buf)?;
        let rule = u64::decode(buf)?;
        let violation = Violation::decode(buf)?;
        let n = u64::decode(buf)? as usize;
        let mut fixes = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            fixes.push(Fix::decode(buf)?);
        }
        let prov = ProvState::decode(buf)?;
        Ok(StoredState {
            id,
            rule,
            violation,
            fixes,
            prov,
        })
    }
}

/// Complete serializable session state. Per-rule scoping indexes are
/// *not* stored — they are rebuilt deterministically from the table
/// and sequence numbers on recovery, which keeps the snapshot small
/// and the format stable across index-layout changes.
#[derive(Clone, Debug)]
pub struct SessionState {
    /// Materialized table name.
    pub table_name: String,
    /// Schema attribute names.
    pub attrs: Vec<String>,
    /// Tuples in table order.
    pub tuples: Vec<Tuple>,
    /// Ingestion sequence number per tuple, aligned with `tuples`.
    pub seqs: Vec<u64>,
    /// Next ingestion sequence number.
    pub next_seq: u64,
    /// Batches applied so far.
    pub applies: u64,
    /// Whether the last repair pass converged.
    pub stable: bool,
    /// Highest WAL batch sequence number covered by this snapshot.
    pub last_seq: u64,
    /// Rule names at snapshot time, order-sensitive; recovery refuses
    /// a mismatched rule set.
    pub rule_names: Vec<String>,
    /// Violation store id counter.
    pub store_next: u64,
    /// Live violations.
    pub items: Vec<StoredState>,
    /// Violation-window state, for windowed sessions: geometry, logical
    /// clock, and per-tuple event times aligned with `tuples`.
    pub window: Option<WindowState>,
}

/// Serialized violation-window state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowState {
    /// Window length in events.
    pub size: u64,
    /// Distance between window starts.
    pub slide: u64,
    /// Next event time to assign (the watermark is `clock - 1`).
    pub clock: u64,
    /// Event time per live tuple, aligned with `SessionState::tuples`.
    pub times: Vec<u64>,
}

fn encode_bool(b: bool, buf: &mut Vec<u8>) {
    buf.push(b as u8);
}

fn decode_bool(buf: &mut &[u8]) -> Result<bool> {
    let b = *buf
        .first()
        .ok_or_else(|| Error::Parse("bool codec underrun".into()))?;
    *buf = &buf[1..];
    match b {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(Error::Parse(format!("bool codec: bad byte {t}"))),
    }
}

impl Codec for SessionState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.table_name.encode(buf);
        (self.attrs.len() as u64).encode(buf);
        for a in &self.attrs {
            a.encode(buf);
        }
        (self.tuples.len() as u64).encode(buf);
        for t in &self.tuples {
            t.encode(buf);
        }
        (self.seqs.len() as u64).encode(buf);
        for s in &self.seqs {
            s.encode(buf);
        }
        self.next_seq.encode(buf);
        self.applies.encode(buf);
        encode_bool(self.stable, buf);
        self.last_seq.encode(buf);
        (self.rule_names.len() as u64).encode(buf);
        for r in &self.rule_names {
            r.encode(buf);
        }
        self.store_next.encode(buf);
        (self.items.len() as u64).encode(buf);
        for it in &self.items {
            it.encode(buf);
        }
        encode_bool(self.window.is_some(), buf);
        if let Some(w) = &self.window {
            w.size.encode(buf);
            w.slide.encode(buf);
            w.clock.encode(buf);
            (w.times.len() as u64).encode(buf);
            for t in &w.times {
                t.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        fn vec_of<T: Codec>(buf: &mut &[u8]) -> Result<Vec<T>> {
            let n = u64::decode(buf)? as usize;
            let mut out = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                out.push(T::decode(buf)?);
            }
            Ok(out)
        }
        let table_name = String::decode(buf)?;
        let attrs = vec_of::<String>(buf)?;
        let tuples = vec_of::<Tuple>(buf)?;
        let seqs = vec_of::<u64>(buf)?;
        let next_seq = u64::decode(buf)?;
        let applies = u64::decode(buf)?;
        let stable = decode_bool(buf)?;
        let last_seq = u64::decode(buf)?;
        let rule_names = vec_of::<String>(buf)?;
        let store_next = u64::decode(buf)?;
        let items = vec_of::<StoredState>(buf)?;
        let window = if decode_bool(buf)? {
            let size = u64::decode(buf)?;
            let slide = u64::decode(buf)?;
            let clock = u64::decode(buf)?;
            let times = vec_of::<u64>(buf)?;
            if times.len() != tuples.len() {
                return Err(Error::Corrupt(format!(
                    "snapshot: {} window event times for {} tuples",
                    times.len(),
                    tuples.len()
                )));
            }
            Some(WindowState {
                size,
                slide,
                clock,
                times,
            })
        } else {
            None
        };
        if seqs.len() != tuples.len() {
            return Err(Error::Corrupt(format!(
                "snapshot: {} seqs for {} tuples",
                seqs.len(),
                tuples.len()
            )));
        }
        Ok(SessionState {
            table_name,
            attrs,
            tuples,
            seqs,
            next_seq,
            applies,
            stable,
            last_seq,
            rule_names,
            store_next,
            items,
            window,
        })
    }
}

impl SessionState {
    /// The materialized table of the snapshot, consuming the state.
    pub fn into_table(self) -> Table {
        Table::new(self.table_name, Schema::new(&self.attrs), self.tuples)
    }

    /// Fold `frame` — the next delta frame after this state in
    /// `snapshot.bin` — into it. The frame must continue exactly where
    /// the state stops. Rows are addressed by sequence number, binary
    /// searched in the (strictly increasing) sequence column: a removed
    /// number must be present, an upsert under a present number must
    /// name the same tuple id and replaces that row in place, an upsert
    /// under any other number must sort after the last row and appends
    /// — so the tuples stay in sequence order, which is table order,
    /// and a frame that fits nowhere is corruption, never a misplaced
    /// row. The positions the frame removes are added to `dead`; the
    /// caller compacts them away once every frame is folded
    /// ([`SessionState::compact`]).
    fn fold(&mut self, frame: DeltaFrame, dead: &mut Vec<usize>) -> Result<()> {
        let corrupt = |what: String| Err(Error::Corrupt(format!("snapshot: delta frame {what}")));
        if frame.prev_seq != self.last_seq || frame.last_seq <= self.last_seq {
            return corrupt(format!(
                "covering batches {}..={} cannot follow state at batch {}",
                frame.prev_seq, frame.last_seq, self.last_seq
            ));
        }
        if frame.clock.is_some() != self.window.is_some() {
            return corrupt("and base disagree on whether the session is windowed".into());
        }
        for seq in frame.removed {
            match self.seqs.binary_search(&seq) {
                Ok(at) => dead.push(at),
                Err(_) => {
                    return corrupt(format!("removes sequence number {seq}, which no row has"))
                }
            }
        }
        for up in frame.upserts {
            match self.seqs.binary_search(&up.seq) {
                Ok(at) if self.tuples[at].id() == up.tuple.id() => {
                    self.tuples[at] = up.tuple;
                    if let Some(w) = &mut self.window {
                        w.times[at] = up.time;
                    }
                }
                Ok(at) => {
                    return corrupt(format!(
                        "puts tuple {} under sequence number {} of tuple {}",
                        up.tuple.id(),
                        up.seq,
                        self.tuples[at].id()
                    ))
                }
                Err(at) if at == self.seqs.len() => {
                    self.tuples.push(up.tuple);
                    self.seqs.push(up.seq);
                    if let Some(w) = &mut self.window {
                        w.times.push(up.time);
                    }
                }
                Err(_) => {
                    return corrupt(format!(
                        "appends tuple {} under sequence number {} behind the table's last",
                        up.tuple.id(),
                        up.seq
                    ))
                }
            }
        }
        self.last_seq = frame.last_seq;
        self.next_seq = frame.next_seq;
        self.applies = frame.applies;
        self.stable = frame.stable;
        self.store_next = frame.store_next;
        self.items = frame.items;
        if let (Some(w), Some(clock)) = (&mut self.window, frame.clock) {
            w.clock = clock;
        }
        Ok(())
    }

    /// Drop the rows at `dead` (positions collected by
    /// [`SessionState::fold`]; rows only ever append, so they hold across
    /// frames) from the tuples and the columns aligned with them.
    fn compact(&mut self, mut dead: Vec<usize>) -> Result<()> {
        dead.sort_unstable();
        if dead.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::Corrupt(
                "snapshot: delta frames remove one row twice".into(),
            ));
        }
        remove_sorted(&mut self.tuples, &dead);
        remove_sorted(&mut self.seqs, &dead);
        if let Some(w) = &mut self.window {
            remove_sorted(&mut w.times, &dead);
        }
        Ok(())
    }
}

/// One upserted tuple of a [`DeltaFrame`].
#[derive(Clone, Debug, PartialEq)]
pub struct Upsert {
    /// The tuple's current version.
    pub tuple: Tuple,
    /// Its table-order sequence number.
    pub seq: u64,
    /// Its event time (encoded for windowed sessions only).
    pub time: u64,
}

/// What changed between two snapshot frames: the tuples inserted,
/// updated or repaired since the predecessor (current versions), the
/// sequence numbers of the rows that left the table, and — whole, they
/// are small — the violation store and the scalar watermarks.
#[derive(Clone, Debug)]
pub struct DeltaFrame {
    /// `last_seq` of the frame this one follows.
    pub prev_seq: u64,
    /// Highest WAL batch sequence number this frame covers.
    pub last_seq: u64,
    /// Next ingestion sequence number.
    pub next_seq: u64,
    /// Batches applied so far.
    pub applies: u64,
    /// Whether the last repair pass converged.
    pub stable: bool,
    /// Violation store id counter.
    pub store_next: u64,
    /// The window clock, for windowed sessions.
    pub clock: Option<u64>,
    /// Live tuples touched since the predecessor, ascending by `seq`.
    pub upserts: Vec<Upsert>,
    /// Sequence numbers of the predecessor's rows that have left the
    /// table since (deleted, expired, or deleted and reinserted — the
    /// new version is then an upsert under a new number).
    pub removed: Vec<u64>,
    /// Live violations.
    pub items: Vec<StoredState>,
}

impl Codec for DeltaFrame {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.prev_seq.encode(buf);
        self.last_seq.encode(buf);
        self.next_seq.encode(buf);
        self.applies.encode(buf);
        encode_bool(self.stable, buf);
        self.store_next.encode(buf);
        encode_bool(self.clock.is_some(), buf);
        if let Some(clock) = self.clock {
            clock.encode(buf);
        }
        (self.upserts.len() as u64).encode(buf);
        for up in &self.upserts {
            up.tuple.encode(buf);
            up.seq.encode(buf);
            if self.clock.is_some() {
                up.time.encode(buf);
            }
        }
        self.removed.encode(buf);
        self.items.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let prev_seq = u64::decode(buf)?;
        let last_seq = u64::decode(buf)?;
        let next_seq = u64::decode(buf)?;
        let applies = u64::decode(buf)?;
        let stable = decode_bool(buf)?;
        let store_next = u64::decode(buf)?;
        let clock = match decode_bool(buf)? {
            true => Some(u64::decode(buf)?),
            false => None,
        };
        let n = u64::decode(buf)? as usize;
        let mut upserts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let tuple = Tuple::decode(buf)?;
            let seq = u64::decode(buf)?;
            let time = match clock {
                Some(_) => u64::decode(buf)?,
                None => 0,
            };
            upserts.push(Upsert { tuple, seq, time });
        }
        Ok(DeltaFrame {
            prev_seq,
            last_seq,
            next_seq,
            applies,
            stable,
            store_next,
            clock,
            upserts,
            removed: Vec::decode(buf)?,
            items: Vec::decode(buf)?,
        })
    }
}

/// Encode `state` as one frame of `kind`, straight into the frame
/// buffer.
fn frame_of<T: Codec>(kind: u8, state: &T) -> Vec<u8> {
    let mut frame = begin_frame(kind);
    state.encode(&mut frame);
    finish_frame(&mut frame);
    frame
}

/// Write `state` as the base of the durable snapshot for `dir`,
/// replacing the previous base and every delta frame that followed it:
/// encode one checksummed frame, write to a temp sibling, fsync, rename.
/// Fires the `snapshot-pre-rename` crash point between fsync and rename.
/// Returns the size of the new file.
pub fn write_snapshot(dir: &Path, state: &SessionState, dio: &Dio) -> Result<u64> {
    let frame = frame_of(KIND_SNAPSHOT, state);
    dio.write_atomic(
        FaultSite::SnapshotWrite,
        state.last_seq,
        &snapshot_path(dir),
        &frame,
        "snapshot",
    )?;
    Ok(frame.len() as u64)
}

/// Append `frame` (an encoded [`DeltaFrame`]) to the snapshot file of
/// `dir` and fsync. The caller truncates the WAL only after this
/// returns, so a frame cut short by a crash is still covered by the WAL.
/// Fires the `snapshot-delta-pre-sync` crash point (half the frame
/// reaches the disk, then the process dies) and
/// `snapshot-delta-post-sync` (frame durable, WAL not yet truncated).
pub fn append_delta_frame(dir: &Path, seq: u64, frame: &[u8], dio: &Dio) -> Result<()> {
    let path = snapshot_path(dir);
    let mut file = OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| Error::Io(format!("open {}: {e}", path.display())))?;
    if crash_hit("snapshot-delta-pre-sync") {
        let _ = file.write_all(&frame[..frame.len() / 2]);
        let _ = file.sync_data();
        std::process::abort();
    }
    dio.append_sync(FaultSite::SnapshotWrite, seq, &mut file, frame)?;
    crash_point("snapshot-delta-post-sync");
    Ok(())
}

/// Encode a [`DeltaFrame`] as the frame [`append_delta_frame`] appends.
pub fn encode_delta_frame(delta: &DeltaFrame) -> Vec<u8> {
    frame_of(KIND_SNAPSHOT_DELTA, delta)
}

/// The folded content of a snapshot file.
#[derive(Debug)]
pub struct SnapshotFile {
    /// Base state with every whole delta frame folded in.
    pub state: SessionState,
    /// Size of the base frame.
    pub base_bytes: u64,
    /// Total size of the whole delta frames after it.
    pub delta_bytes: u64,
    /// True when the file continues past the last whole frame with bytes
    /// that do not decode — a delta frame cut short by a crash, or
    /// corruption. Recovery may drop such a tail only when the WAL holds
    /// the batch right after [`SessionState::last_seq`].
    pub torn_tail: bool,
}

/// Read the snapshot file in `dir` — the base frame with its delta
/// frames folded in — or `None` when no snapshot exists yet. Corruption
/// (bad CRC, wrong kind, trailing bytes, a frame that does not continue
/// its predecessor) and newer-than-supported format versions surface as
/// [`Error::Corrupt`].
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotFile>> {
    let path = snapshot_path(dir);
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(&path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
    let scan = scan_frames(&bytes);
    let corrupt = |what: String| Error::Corrupt(format!("{}: {what}", path.display()));
    // decode one frame payload, whole
    fn payload_of<T: Codec>(mut p: &[u8]) -> Result<T> {
        let state = T::decode(&mut p)?;
        match p.len() {
            0 => Ok(state),
            n => Err(Error::Corrupt(format!("{n} trailing byte(s) in frame"))),
        }
    }
    let mut frames = scan.frames.iter();
    let (mut state, base_bytes) = match (frames.next(), scan.tail) {
        (Some(&(KIND_SNAPSHOT, p)), _) => (
            payload_of::<SessionState>(p).map_err(|e| corrupt(format!("snapshot state: {e}")))?,
            FRAME_HEADER + p.len() + FRAME_TRAILER,
        ),
        (Some(&(kind, _)), _) => {
            return Err(corrupt(format!("frame kind {kind} is not a snapshot")))
        }
        // not even a base frame decodes: that is never a torn append
        (None, Some(e)) => return Err(corrupt(e.to_string())),
        (None, None) => return Err(corrupt("empty file".into())),
    };
    let mut dead = Vec::new();
    for &(kind, p) in frames {
        if kind != KIND_SNAPSHOT_DELTA {
            return Err(corrupt(format!(
                "frame kind {kind} after the base snapshot"
            )));
        }
        let delta = payload_of::<DeltaFrame>(p);
        let delta = delta.map_err(|e| corrupt(format!("snapshot delta frame: {e}")))?;
        state.fold(delta, &mut dead)?;
    }
    state.compact(dead)?;
    Ok(Some(SnapshotFile {
        state,
        base_bytes: base_bytes as u64,
        delta_bytes: (scan.good - base_bytes) as u64,
        torn_tail: scan.good < bytes.len(),
    }))
}

/// Cut the snapshot file of `dir` back to its whole frames (`len`
/// bytes), so the next delta frame lands on a frame boundary.
pub(crate) fn truncate_snapshot(dir: &Path, len: u64) -> Result<()> {
    let path = snapshot_path(dir);
    let file = OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(|e| Error::Io(format!("open {}: {e}", path.display())))?;
    file.set_len(len)
        .and_then(|()| file.sync_data())
        .map_err(|e| Error::Io(format!("truncate torn tail {}: {e}", path.display())))
}

/// Read just the materialized table out of the snapshot in `dir`.
/// Used by the CLI `recover` subcommand to learn the schema before
/// constructing rules.
pub fn read_snapshot_table(dir: &Path) -> Result<Table> {
    match read_snapshot(dir)? {
        Some(file) => Ok(file.state.into_table()),
        None => Err(Error::Io(format!(
            "{}: no snapshot found",
            snapshot_path(dir).display()
        ))),
    }
}

/// Remove stray temp files (crash leftovers) from a durable directory.
/// Returns how many were removed.
pub fn sweep_dir(dir: &Path) -> usize {
    bigdansing_dataflow::dio::sweep_orphan_tmps(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigdansing_common::codec::{encode_frame, encode_frame_versioned, FORMAT_VERSION};
    use bigdansing_dataflow::FaultInjector;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bd-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(n: u64) -> DeltaBatch {
        let b = DeltaBatch::new().insert(n, vec![Value::Int(n as i64), Value::str("x")]);
        if n.is_multiple_of(2) {
            b.update(n, vec![Value::Int(n as i64 + 1), Value::str("y")])
        } else {
            b
        }
    }

    #[test]
    fn delta_codec_roundtrip() {
        let b = batch(4).delete(9);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let back = DeltaBatch::decode(&mut buf.as_slice()).unwrap();
        assert_eq!(back.ops.len(), b.ops.len());
        let mut buf2 = Vec::new();
        back.encode(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn wal_append_and_replay() {
        let dir = tdir("replay");
        let dio = Dio::plain();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 1..=5u64 {
            wal.append(seq, &batch(seq), &dio).unwrap();
        }
        drop(wal);
        let (_wal, records) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 5);
        for (i, (seq, b)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(b.ops.len(), batch(*seq).ops.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tdir("torn");
        let dio = Dio::plain();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 1..=3u64 {
            wal.append(seq, &batch(seq), &dio).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: append half of a 4th record.
        let mut payload = Vec::new();
        4u64.encode(&mut payload);
        batch(4).encode(&mut payload);
        let frame = encode_frame(KIND_WAL, &payload);
        let full = std::fs::read(wal_path(&dir)).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(wal_path(&dir), &torn).unwrap();

        let (mut wal, records) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 3, "torn record dropped");
        assert_eq!(
            std::fs::metadata(wal_path(&dir)).unwrap().len(),
            full.len() as u64,
            "file truncated back to the last whole frame"
        );
        // Appends after truncation land on a clean boundary.
        wal.append(4, &batch(4), &dio).unwrap();
        drop(wal);
        let (_w, records) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_is_rejected_at_tail() {
        // A flipped byte in the middle record makes that frame (and
        // everything after) untrusted: open keeps only the prefix.
        let dir = tdir("midflip");
        let dio = Dio::plain();
        let mut wal = Wal::create(&dir).unwrap();
        let mut offsets = Vec::new();
        for seq in 1..=3u64 {
            let mut payload = Vec::new();
            seq.encode(&mut payload);
            batch(seq).encode(&mut payload);
            offsets.push(encode_frame(KIND_WAL, &payload).len());
            wal.append(seq, &batch(seq), &dio).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(wal_path(&dir)).unwrap();
        let second_start = offsets[0];
        bytes[second_start + FRAME_HEADER + 2] ^= 0xFF;
        std::fs::write(wal_path(&dir), &bytes).unwrap();
        let (_w, records) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 1, "only the record before the flip survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_retries_transient_faults() {
        let dir = tdir("retry");
        let injector = FaultInjector::seeded(7).with_io_fail_once();
        let dio = Dio::plain().with_injector(injector);
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 1..=4u64 {
            wal.append(seq, &batch(seq), &dio).unwrap();
        }
        assert!(dio.metrics().snapshot().io_retries >= 1);
        drop(wal);
        let (_w, records) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 4, "retried appends leave whole frames only");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn state() -> SessionState {
        SessionState {
            table_name: "t".into(),
            attrs: vec!["id".into(), "city".into()],
            tuples: vec![
                Tuple::new(0, vec![Value::Int(1), Value::str("LA")]),
                Tuple::new(1, vec![Value::Int(2), Value::str("SF")]),
            ],
            seqs: vec![1, 2],
            next_seq: 3,
            applies: 2,
            stable: true,
            last_seq: 2,
            rule_names: vec!["fd:zip->city".into()],
            store_next: 5,
            items: vec![StoredState {
                id: 4,
                rule: 0,
                violation: Violation::new("fd:zip->city")
                    .with_cell(bigdansing_common::Cell::new(0, 1), Value::str("LA")),
                fixes: vec![Fix::assign_const(
                    bigdansing_common::Cell::new(0, 1),
                    Value::str("LA"),
                    Value::str("SF"),
                )],
                prov: ProvState::Block(vec![Value::str("90001")]),
            }],
            window: None,
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = tdir("snap");
        let dio = Dio::plain();
        let st = state();
        write_snapshot(&dir, &st, &dio).unwrap();
        let file = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(
            (file.base_bytes, file.delta_bytes, file.torn_tail),
            (
                std::fs::metadata(snapshot_path(&dir)).unwrap().len(),
                0,
                false
            )
        );
        let back = file.state;
        assert_eq!(back.table_name, st.table_name);
        assert_eq!(back.tuples, st.tuples);
        assert_eq!(back.seqs, st.seqs);
        assert_eq!(back.last_seq, st.last_seq);
        assert_eq!(back.rule_names, st.rule_names);
        assert_eq!(back.items.len(), 1);
        assert_eq!(back.items[0].id, 4);
        assert_eq!(back.items[0].prov, st.items[0].prov);
        let table = read_snapshot_table(&dir).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.schema().attrs(), ["id", "city"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The base frame is the whole file a pre-delta-frame build wrote:
    /// its bytes must not drift, or directories written by older builds
    /// stop recovering.
    #[test]
    fn base_frame_encoding_is_pinned() {
        let frame = frame_of(KIND_SNAPSHOT, &state());
        // length and CRC-32 of the file the parent of the delta-frame
        // change wrote for this state
        assert_eq!(frame.len(), 359);
        assert_eq!(bigdansing_common::codec::crc32(&frame), 2_306_179_943);
    }

    #[test]
    fn windowed_snapshot_roundtrip() {
        let dir = tdir("snapwin");
        let dio = Dio::plain();
        let mut st = state();
        st.window = Some(WindowState {
            size: 8,
            slide: 2,
            clock: 11,
            times: vec![9, 10],
        });
        write_snapshot(&dir, &st, &dio).unwrap();
        let back = read_snapshot(&dir).unwrap().unwrap().state;
        assert_eq!(back.window, st.window);
        // Misaligned event times are corruption, not a silent truncation.
        st.window.as_mut().unwrap().times.push(12);
        let mut payload = Vec::new();
        st.encode(&mut payload);
        std::fs::write(snapshot_path(&dir), encode_frame(KIND_SNAPSHOT, &payload)).unwrap();
        match read_snapshot(&dir) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("window event times"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_corruption_detected() {
        let dir = tdir("snapbad");
        let dio = Dio::plain();
        write_snapshot(&dir, &state(), &dio).unwrap();
        let mut bytes = std::fs::read(snapshot_path(&dir)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(snapshot_path(&dir), &bytes).unwrap();
        match read_snapshot(&dir) {
            Err(Error::Corrupt(_)) | Err(Error::Parse(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_version_too_new_rejected() {
        let dir = tdir("snapver");
        let mut payload = Vec::new();
        state().encode(&mut payload);
        let frame = encode_frame_versioned(KIND_SNAPSHOT, FORMAT_VERSION + 1, &payload);
        std::fs::write(snapshot_path(&dir), &frame).unwrap();
        match read_snapshot(&dir) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("version"), "msg: {msg}"),
            other => panic!("expected version rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = tdir("snapnone");
        assert!(read_snapshot(&dir).unwrap().is_none());
        assert!(read_snapshot_table(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A delta frame over [`state`] (tuples 0 and 1 under sequence
    /// numbers 1 and 2): tuple 1 updated in place, tuple 0 removed, tuple
    /// 7 appended.
    fn delta() -> DeltaFrame {
        DeltaFrame {
            prev_seq: 2,
            last_seq: 5,
            next_seq: 4,
            applies: 5,
            stable: false,
            store_next: 9,
            clock: None,
            upserts: vec![
                Upsert {
                    tuple: Tuple::new(1, vec![Value::Int(2), Value::str("NY")]),
                    seq: 2,
                    time: 0,
                },
                Upsert {
                    tuple: Tuple::new(7, vec![Value::Int(3), Value::str("CH")]),
                    seq: 3,
                    time: 0,
                },
            ],
            removed: vec![1],
            items: Vec::new(),
        }
    }

    /// Write `state()` as the base and append `frames` after it.
    fn write_file(dir: &Path, frames: &[DeltaFrame]) {
        let dio = Dio::plain();
        write_snapshot(dir, &state(), &dio).unwrap();
        for f in frames {
            append_delta_frame(dir, f.last_seq, &encode_delta_frame(f), &dio).unwrap();
        }
    }

    fn corrupt_msg(dir: &Path) -> String {
        match read_snapshot(dir) {
            Err(Error::Corrupt(msg)) => msg,
            other => panic!("expected Error::Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn delta_frames_fold_into_the_base_in_table_order() {
        let dir = tdir("fold");
        let mut second = delta();
        (second.prev_seq, second.last_seq, second.next_seq) = (5, 6, 5);
        second.removed = vec![2];
        // tuple 1 is deleted and reinserted: it moves to the end
        second.upserts = vec![Upsert {
            tuple: Tuple::new(1, vec![Value::Int(9), Value::str("XX")]),
            seq: 4,
            time: 0,
        }];
        second.items = state().items;
        write_file(&dir, &[delta(), second]);
        let file = read_snapshot(&dir).unwrap().unwrap();
        assert!(!file.torn_tail);
        assert_eq!(
            file.base_bytes + file.delta_bytes,
            std::fs::metadata(snapshot_path(&dir)).unwrap().len()
        );
        let st = file.state;
        assert_eq!(
            st.tuples,
            vec![
                Tuple::new(7, vec![Value::Int(3), Value::str("CH")]),
                Tuple::new(1, vec![Value::Int(9), Value::str("XX")]),
            ]
        );
        assert_eq!(st.seqs, vec![3, 4]);
        assert_eq!((st.last_seq, st.next_seq, st.applies), (6, 5, 5));
        assert_eq!((st.stable, st.store_next, st.items.len()), (false, 9, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_delta_frames_carry_event_times() {
        let dir = tdir("foldwin");
        let dio = Dio::plain();
        let mut st = state();
        st.window = Some(WindowState {
            size: 8,
            slide: 2,
            clock: 11,
            times: vec![9, 10],
        });
        write_snapshot(&dir, &st, &dio).unwrap();
        let mut d = delta();
        d.clock = Some(13);
        (d.upserts[0].time, d.upserts[1].time) = (11, 12);
        append_delta_frame(&dir, 5, &encode_delta_frame(&d), &dio).unwrap();
        let back = read_snapshot(&dir).unwrap().unwrap().state;
        let w = back.window.unwrap();
        assert_eq!((w.clock, w.times), (13, vec![11, 12]));
        // an unwindowed frame cannot follow a windowed base
        let mut plain = delta();
        (plain.prev_seq, plain.last_seq) = (5, 6);
        append_delta_frame(&dir, 6, &encode_delta_frame(&plain), &dio).unwrap();
        assert!(corrupt_msg(&dir).contains("windowed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctored_delta_frames_are_corrupt_not_misplaced() {
        // a frame that does not continue its predecessor
        for (prev, last) in [(1, 5), (2, 2), (3, 5)] {
            let dir = tdir("chain");
            let mut d = delta();
            (d.prev_seq, d.last_seq) = (prev, last);
            write_file(&dir, &[d]);
            assert!(
                corrupt_msg(&dir).contains("cannot follow"),
                "{prev}..{last}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // the same frame twice: the second does not advance `last_seq`
        let dir = tdir("twice");
        write_file(&dir, &[delta(), delta()]);
        assert!(corrupt_msg(&dir).contains("cannot follow"));
        // an appended tuple whose sequence number is not past the table's
        let mut d = delta();
        d.upserts[1].seq = 0;
        d.upserts.swap(0, 1);
        write_file(&dir, &[d]);
        assert!(corrupt_msg(&dir).contains("behind the table's last"));
        // a tuple under a sequence number that is another tuple's
        let mut d = delta();
        d.upserts[0].seq = 1;
        write_file(&dir, &[d]);
        assert!(corrupt_msg(&dir).contains("of tuple 0"));
        // a removal that names no row, and the same row removed twice
        let mut d = delta();
        d.removed = vec![7];
        write_file(&dir, &[d]);
        assert!(corrupt_msg(&dir).contains("which no row has"));
        let mut again = delta();
        (again.prev_seq, again.last_seq) = (5, 6);
        again.upserts.clear();
        write_file(&dir, &[delta(), again]);
        assert!(corrupt_msg(&dir).contains("twice"));
        // trailing bytes inside a delta frame, and a base after the base
        let dio = Dio::plain();
        write_snapshot(&dir, &state(), &dio).unwrap();
        let mut payload = Vec::new();
        delta().encode(&mut payload);
        payload.push(0);
        let frame = encode_frame(KIND_SNAPSHOT_DELTA, &payload);
        append_delta_frame(&dir, 5, &frame, &dio).unwrap();
        assert!(corrupt_msg(&dir).contains("trailing"));
        write_snapshot(&dir, &state(), &dio).unwrap();
        let base = std::fs::read(snapshot_path(&dir)).unwrap();
        append_delta_frame(&dir, 5, &base, &dio).unwrap();
        assert!(corrupt_msg(&dir).contains("after the base"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_delta_frame_tail_is_reported_not_folded() {
        let dir = tdir("torntail");
        write_file(&dir, &[delta()]);
        let whole = std::fs::metadata(snapshot_path(&dir)).unwrap().len();
        let mut second = delta();
        (second.prev_seq, second.last_seq) = (5, 6);
        second.upserts.clear();
        let frame = encode_delta_frame(&second);
        let mut f = OpenOptions::new()
            .append(true)
            .open(snapshot_path(&dir))
            .unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);
        let file = read_snapshot(&dir).unwrap().unwrap();
        assert!(file.torn_tail);
        assert_eq!(file.state.last_seq, 5, "only the whole frame is folded");
        assert_eq!(file.base_bytes + file.delta_bytes, whole);
        truncate_snapshot(&dir, whole).unwrap();
        let file = read_snapshot(&dir).unwrap().unwrap();
        assert!(!file.torn_tail);
        assert_eq!(file.state.last_seq, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
