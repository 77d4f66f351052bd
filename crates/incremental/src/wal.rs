//! Durability layer for incremental sessions: one append-only log per
//! durable directory. It opens with a *base* frame holding the full
//! session state; after it, in apply order, come *batch records* — each
//! [`DeltaBatch`], appended and fsync'd before it mutates anything — and
//! *state frames* holding what changed since the frame before. Every
//! frame uses the self-describing codec of `bigdansing_common::codec`
//! (magic, format version, kind byte, CRC32 trailer):
//!
//! ```text
//! <dir>/snapshot.bin  frame(KIND_SNAPSHOT): full SessionState, then
//!                     frame(KIND_WAL): seq u64 + DeltaBatch, per batch
//!                     frame(KIND_SNAPSHOT_DELTA): DeltaFrame, per cadence
//! ```
//!
//! A new base is written to a temp sibling, fsync'd, then renamed into
//! place, which drops every frame before it in one step. Recovery folds
//! the base and the state frames in order, then replays the batch
//! records past the folded watermark. A crash can only tear the last
//! frame, and every state frame follows the batch records it covers, so
//! dropping a torn tail never loses an applied batch. An undecodable
//! region counts as a torn tail only when no whole frame decodes
//! anywhere after it; anything else is [`Error::Corrupt`].

use crate::delta::{DeltaBatch, DeltaOp};
use bigdansing_common::codec::{
    begin_frame, decode_frame_borrowed, finish_frame, scan_frames, Codec, FRAME_HEADER,
    FRAME_MAGIC, FRAME_TRAILER,
};
use bigdansing_common::table::remove_sorted;
use bigdansing_common::{Error, Result, Schema, Table, Tuple, Value};
use bigdansing_dataflow::dio::{crash_hit, crash_point, sweep_orphan_tmps, Dio};
use bigdansing_dataflow::FaultSite;
use bigdansing_rules::{Fix, Violation};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Frame kind for a batch record.
pub const KIND_WAL: u8 = 1;
/// Frame kind for a base snapshot: full session state.
pub const KIND_SNAPSHOT: u8 = 2;
/// Frame kind for a state frame: what changed since the frame before.
pub const KIND_SNAPSHOT_DELTA: u8 = 3;

/// Where and how often a session persists its state.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Directory holding the log, `snapshot.bin` (created if missing).
    pub dir: PathBuf,
    /// Append a state frame to the log (or rewrite its base) every this
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
    /// Batch sequence number the folded base and state frames cover (0
    /// when only the base written at open existed).
    pub snapshot_seq: u64,
    /// Batch records replayed on top of it.
    pub replayed: u64,
    /// Highest batch sequence number in the recovered session.
    pub last_seq: u64,
}

// --- delta codecs -------------------------------------------------------

/// Read one tag byte off the front of `buf`.
fn take_byte(buf: &mut &[u8], what: &str) -> Result<u8> {
    let (&b, rest) = buf
        .split_first()
        .ok_or_else(|| Error::Parse(format!("{what} codec underrun")))?;
    *buf = rest;
    Ok(b)
}

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
        Ok(match take_byte(buf, "delta op")? {
            0 => DeltaOp::Insert(Tuple::decode(buf)?),
            1 => DeltaOp::Update(Tuple::decode(buf)?),
            2 => DeltaOp::Delete(u64::decode(buf)?),
            t => return Err(Error::Parse(format!("delta op codec: bad tag {t}"))),
        })
    }
}

impl Codec for DeltaBatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ops.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(DeltaBatch {
            ops: Vec::decode(buf)?,
        })
    }
}

// --- the log ------------------------------------------------------------

/// The log of a durable directory, `snapshot.bin`: batch records and
/// state frames append to its end, a base rewrite replaces it.
pub struct Wal {
    path: PathBuf,
    /// Append handle, opened on first use: a base rewrite renames a new
    /// file into place and leaves any open handle on the unlinked old one.
    file: Option<File>,
}

/// Path of the log inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

impl Wal {
    /// The log of a fresh session in `dir` (created if missing). Nothing
    /// is written before the first [`Wal::write_base`]. Temp files a
    /// crash left are removed; a directory in the two-file layout is
    /// refused ([`refuse_two_file_layout`]).
    pub(crate) fn create(dir: &Path) -> Result<Wal> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("create durable dir {}: {e}", dir.display())))?;
        refuse_two_file_layout(dir)?;
        sweep_orphan_tmps(dir);
        Ok(Wal {
            path: snapshot_path(dir),
            file: None,
        })
    }

    /// Open the log in `dir` for recovery: refuse the two-file layout
    /// ([`refuse_two_file_layout`]), sweep temp files a crash left, read
    /// the log ([`read_log`]) and cut its torn tail, so appends resume on
    /// a frame boundary.
    pub(crate) fn open(dir: &Path) -> Result<(Wal, Log)> {
        refuse_two_file_layout(dir)?;
        sweep_orphan_tmps(dir);
        let path = snapshot_path(dir);
        let log = read_log(&path)?;
        let mut wal = Wal { path, file: None };
        if let Some(at) = log.torn_at {
            let file = wal.file()?;
            file.set_len(at)
                .and_then(|()| file.sync_data())
                .map_err(|e| Error::Io(format!("truncate torn tail {}: {e}", dir.display())))?;
        }
        Ok((wal, log))
    }

    fn file(&mut self) -> Result<&mut File> {
        let file = match self.file.take() {
            Some(file) => file,
            None => OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(|e| Error::Io(format!("open {}: {e}", self.path.display())))?,
        };
        Ok(self.file.insert(file))
    }

    /// Append batch `seq` as a batch record and fsync before returning.
    /// Fires the `wal-pre-sync` crash point (half the record reaches the
    /// disk) and `wal-post-sync` (record durable, in-memory state not yet
    /// mutated).
    pub(crate) fn append(&mut self, seq: u64, batch: &DeltaBatch, dio: &Dio) -> Result<()> {
        let mut frame = begin_frame(KIND_WAL);
        seq.encode(&mut frame);
        batch.encode(&mut frame);
        finish_frame(&mut frame);
        self.append_frame(FaultSite::WalAppend, seq, &frame, "wal", dio)
    }

    /// Append `frame`, an encoded state frame ([`encode_delta_frame`])
    /// covering the batches through `seq`, and fsync. Fires the
    /// `snapshot-delta-pre-sync` and `snapshot-delta-post-sync` crash
    /// points.
    pub(crate) fn append_state(&mut self, seq: u64, frame: &[u8], dio: &Dio) -> Result<()> {
        self.append_frame(FaultSite::SnapshotWrite, seq, frame, "snapshot-delta", dio)
    }

    /// Transient IO faults are retried by `dio` with the partial write
    /// rolled back, so the log only ever grows by whole frames.
    fn append_frame(
        &mut self,
        site: FaultSite,
        seq: u64,
        frame: &[u8],
        crash: &str,
        dio: &Dio,
    ) -> Result<()> {
        let file = self.file()?;
        if crash_hit(&format!("{crash}-pre-sync")) {
            // A crash mid-append: half the frame reaches the disk, then
            // the process dies. (`crash_hit` already consumed the
            // configured hit, so abort directly.)
            let _ = file.write_all(&frame[..frame.len() / 2]);
            let _ = file.sync_data();
            std::process::abort();
        }
        dio.append_sync(site, seq, file, frame)?;
        crash_point(&format!("{crash}-post-sync"));
        Ok(())
    }

    /// Replace the log with one base frame holding `state`: temp sibling,
    /// fsync, rename, which drops every frame before it. Fires the
    /// `snapshot-pre-rename` crash point between fsync and rename.
    /// Returns the size of the base.
    pub(crate) fn write_base(&mut self, state: &SessionState, dio: &Dio) -> Result<u64> {
        let frame = frame_of(KIND_SNAPSHOT, state);
        let seq = state.last_seq;
        dio.write_atomic(
            FaultSite::SnapshotWrite,
            seq,
            &self.path,
            &frame,
            "snapshot",
        )?;
        self.file = None;
        Ok(frame.len() as u64)
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
                ids.encode(buf);
            }
            ProvState::Block(vals) => {
                buf.push(1);
                vals.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(match take_byte(buf, "prov")? {
            0 => ProvState::Tuples(Vec::decode(buf)?),
            1 => ProvState::Block(Vec::decode(buf)?),
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
        self.fixes.encode(buf);
        self.prov.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(StoredState {
            id: u64::decode(buf)?,
            rule: u64::decode(buf)?,
            violation: Violation::decode(buf)?,
            fixes: Vec::decode(buf)?,
            prov: ProvState::decode(buf)?,
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
    /// Highest batch sequence number covered by this snapshot.
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
    match take_byte(buf, "bool")? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(Error::Parse(format!("bool codec: bad byte {t}"))),
    }
}

impl Codec for SessionState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.table_name.encode(buf);
        self.attrs.encode(buf);
        self.tuples.encode(buf);
        self.seqs.encode(buf);
        self.next_seq.encode(buf);
        self.applies.encode(buf);
        encode_bool(self.stable, buf);
        self.last_seq.encode(buf);
        self.rule_names.encode(buf);
        self.store_next.encode(buf);
        self.items.encode(buf);
        encode_bool(self.window.is_some(), buf);
        if let Some(w) = &self.window {
            w.size.encode(buf);
            w.slide.encode(buf);
            w.clock.encode(buf);
            w.times.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let state = SessionState {
            table_name: String::decode(buf)?,
            attrs: Vec::decode(buf)?,
            tuples: Vec::decode(buf)?,
            seqs: Vec::decode(buf)?,
            next_seq: u64::decode(buf)?,
            applies: u64::decode(buf)?,
            stable: decode_bool(buf)?,
            last_seq: u64::decode(buf)?,
            rule_names: Vec::decode(buf)?,
            store_next: u64::decode(buf)?,
            items: Vec::decode(buf)?,
            window: match decode_bool(buf)? {
                true => Some(WindowState {
                    size: u64::decode(buf)?,
                    slide: u64::decode(buf)?,
                    clock: u64::decode(buf)?,
                    times: Vec::decode(buf)?,
                }),
                false => None,
            },
        };
        let rows = state.tuples.len();
        if let Some(w) = state.window.as_ref().filter(|w| w.times.len() != rows) {
            return Err(Error::Corrupt(format!(
                "snapshot: {} window event times for {rows} tuples",
                w.times.len()
            )));
        }
        if state.seqs.len() != rows {
            return Err(Error::Corrupt(format!(
                "snapshot: {} seqs for {rows} tuples",
                state.seqs.len()
            )));
        }
        Ok(state)
    }
}

impl SessionState {
    /// The materialized table of the snapshot, consuming the state.
    pub fn into_table(self) -> Table {
        Table::new(self.table_name, Schema::new(&self.attrs), self.tuples)
    }

    /// Fold `frame` — the next state frame after this state in the log —
    /// into it. The frame must continue exactly where the state stops.
    /// Rows are addressed by sequence number, binary searched in the
    /// (strictly increasing) sequence column: a removed number must be
    /// present, an upsert under a present number must name the same
    /// tuple id and replaces that row in place, an upsert under any other
    /// number must sort after the last row and appends — so the tuples
    /// stay in sequence order, which is table order, and a frame that
    /// fits nowhere is corruption, never a misplaced row. The positions
    /// the frame removes are added to `dead`; the caller compacts them
    /// away once every frame is folded ([`SessionState::compact`]).
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

/// What changed between two state frames: the tuples inserted, updated
/// or repaired since the predecessor (current versions), the sequence
/// numbers of the rows that left the table, and — whole, they are small
/// — the violation store and the scalar watermarks.
#[derive(Clone, Debug)]
pub struct DeltaFrame {
    /// `last_seq` of the frame this one follows.
    pub prev_seq: u64,
    /// Highest batch sequence number this frame covers.
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

/// Encode a [`DeltaFrame`] as the state frame a log appends.
pub fn encode_delta_frame(delta: &DeltaFrame) -> Vec<u8> {
    frame_of(KIND_SNAPSHOT_DELTA, delta)
}

/// What a log holds.
#[derive(Debug)]
pub(crate) struct Log {
    /// The base with every state frame folded in.
    pub(crate) state: SessionState,
    /// The batch records past `state.last_seq`, in order.
    pub(crate) batches: Vec<(u64, DeltaBatch)>,
    /// Size of the base frame.
    pub(crate) base_bytes: u64,
    /// Total size of the state frames after it.
    pub(crate) state_bytes: u64,
    /// Where a torn tail starts, if the log ends in one.
    pub(crate) torn_at: Option<u64>,
}

/// Read the log at `path`: fold the base and the state frames in order,
/// each continuing the one before, and collect the batch records past
/// the folded watermark, which must follow it without a gap. Bytes that
/// do not decode are a torn tail — a crash cut the last append short —
/// only if no whole frame decodes anywhere after them. Anything else that
/// does not decode or fit, and a frame of a newer format version, is
/// [`Error::Corrupt`].
pub(crate) fn read_log(path: &Path) -> Result<Log> {
    let bytes = std::fs::read(path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => {
            Error::Io(format!("{}: no snapshot to recover from", path.display()))
        }
        _ => Error::Io(format!("{}: {e}", path.display())),
    })?;
    let corrupt = |what: String| Error::Corrupt(format!("{}: {what}", path.display()));
    let scan = scan_frames(&bytes);
    if let Some(e) = &scan.tail {
        let whole_frame_at = |at: &usize| {
            bytes[*at..].starts_with(&FRAME_MAGIC)
                && decode_frame_borrowed(&mut &bytes[*at..]).is_ok()
        };
        if let Some(at) = (scan.good + 1..bytes.len()).find(whole_frame_at) {
            return Err(corrupt(format!(
                "bytes {}..{at} do not decode ({e}), yet a whole frame follows them",
                scan.good
            )));
        }
    }
    // decode one frame payload, whole
    fn payload_of<T: Codec>(mut p: &[u8]) -> Result<T> {
        let state = T::decode(&mut p)?;
        match p.len() {
            0 => Ok(state),
            n => Err(Error::Corrupt(format!("{n} trailing byte(s) in frame"))),
        }
    }
    let mut frames = scan.frames.iter();
    let (mut state, base_bytes) = match (frames.next(), &scan.tail) {
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
    let (mut dead, mut records, mut state_bytes) = (Vec::new(), Vec::new(), 0);
    for &(kind, p) in frames {
        match kind {
            KIND_WAL => records.push(p), // decoded once the watermark is known
            KIND_SNAPSHOT_DELTA => {
                let delta = payload_of::<DeltaFrame>(p);
                let delta = delta.map_err(|e| corrupt(format!("snapshot delta frame: {e}")))?;
                state.fold(delta, &mut dead)?;
                state_bytes += FRAME_HEADER + p.len() + FRAME_TRAILER;
            }
            _ => {
                return Err(corrupt(format!(
                    "frame kind {kind} after the base snapshot"
                )))
            }
        }
    }
    state.compact(dead)?;
    let mut batches = Vec::new();
    for mut p in records {
        let seq = u64::decode(&mut p).map_err(|e| corrupt(format!("batch record: {e}")))?;
        if seq <= state.last_seq {
            continue; // a state frame covers it
        }
        let want = state.last_seq + 1 + batches.len() as u64;
        if seq != want {
            return Err(corrupt(format!(
                "the log is missing batch {want}: the next batch record is batch {seq}"
            )));
        }
        let batch = payload_of::<DeltaBatch>(p);
        let batch = batch.map_err(|e| corrupt(format!("batch record {seq}: {e}")))?;
        batches.push((seq, batch));
    }
    Ok(Log {
        state,
        batches,
        base_bytes: base_bytes as u64,
        state_bytes: state_bytes as u64,
        torn_at: scan.tail.is_some().then_some(scan.good as u64),
    })
}

/// Builds before the one log kept batch records in a `wal.log` beside
/// `snapshot.bin`. That layout is not read: a directory holding one is
/// [`Error::Corrupt`], never silently recovered without its batches.
fn refuse_two_file_layout(dir: &Path) -> Result<()> {
    let old = dir.join("wal.log");
    if old.exists() {
        return Err(Error::Corrupt(format!(
            "{}: the two-file durable layout (wal.log beside snapshot.bin) is unsupported",
            old.display()
        )));
    }
    Ok(())
}

/// Read just the materialized table out of the log in `dir`. Used by
/// the CLI `recover` subcommand to learn the schema before constructing
/// rules.
pub fn read_snapshot_table(dir: &Path) -> Result<Table> {
    Ok(read_log(&snapshot_path(dir))?.state.into_table())
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

    fn read(dir: &Path) -> Result<Log> {
        read_log(&snapshot_path(dir))
    }

    fn len(dir: &Path) -> u64 {
        std::fs::metadata(snapshot_path(dir)).unwrap().len()
    }

    /// A log in `dir` holding the base [`state`] (batch 2) and the batch
    /// records `seqs`.
    fn log_with(dir: &Path, seqs: &[u64], dio: &Dio) -> Wal {
        let mut wal = Wal::create(dir).unwrap();
        wal.write_base(&state(), dio).unwrap();
        for &seq in seqs {
            wal.append(seq, &batch(seq), dio).unwrap();
        }
        wal
    }

    fn seqs(log: &Log) -> Vec<u64> {
        log.batches.iter().map(|(seq, _)| *seq).collect()
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
    fn batch_records_append_and_replay() {
        let dir = tdir("replay");
        let wal = log_with(&dir, &[3, 4, 5], &Dio::plain());
        drop(wal);
        let (_wal, log) = Wal::open(&dir).unwrap();
        assert_eq!(seqs(&log), [3, 4, 5]);
        for (seq, b) in &log.batches {
            assert_eq!(b.ops.len(), batch(*seq).ops.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tdir("torn");
        let dio = Dio::plain();
        drop(log_with(&dir, &[3, 4, 5], &dio));
        let whole = len(&dir);
        // a crash mid-append: half of a 6th record
        let mut payload = Vec::new();
        (6u64, batch(6)).encode(&mut payload);
        let frame = encode_frame(KIND_WAL, &payload);
        let mut f = OpenOptions::new()
            .append(true)
            .open(snapshot_path(&dir))
            .unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();

        let (mut wal, log) = Wal::open(&dir).unwrap();
        assert_eq!(seqs(&log), [3, 4, 5], "torn record dropped");
        assert_eq!(len(&dir), whole, "cut back to the last whole frame");
        // appends after the cut land on a clean boundary
        wal.append(6, &batch(6), &dio).unwrap();
        drop(wal);
        assert_eq!(seqs(&Wal::open(&dir).unwrap().1), [3, 4, 5, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_record_before_a_whole_frame_is_corrupt() {
        let dir = tdir("midflip");
        drop(log_with(&dir, &[3, 4, 5], &Dio::plain()));
        let mut bytes = std::fs::read(snapshot_path(&dir)).unwrap();
        let fourth = bytes.len() - Wal::record_size(&batch(5)) - Wal::record_size(&batch(4));
        bytes[fourth + FRAME_HEADER + 2] ^= 0xFF;
        std::fs::write(snapshot_path(&dir), &bytes).unwrap();
        assert!(corrupt_msg(&dir).contains("whole frame follows"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_retry_transient_faults() {
        let dir = tdir("retry");
        let dio = Dio::plain().with_injector(FaultInjector::seeded(7).with_io_fail_once());
        drop(log_with(&dir, &[3, 4, 5, 6], &dio));
        assert!(dio.metrics().snapshot().io_retries >= 1);
        let log = read(&dir).unwrap();
        assert_eq!(
            seqs(&log),
            [3, 4, 5, 6],
            "retried appends leave whole frames"
        );
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
        let st = state();
        drop(log_with(&dir, &[], &Dio::plain()));
        let log = read(&dir).unwrap();
        assert_eq!(
            (log.base_bytes, log.state_bytes, log.torn_at),
            (len(&dir), 0, None)
        );
        assert!(log.batches.is_empty());
        let back = log.state;
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
        let mut st = state();
        st.window = Some(WindowState {
            size: 8,
            slide: 2,
            clock: 11,
            times: vec![9, 10],
        });
        Wal::create(&dir)
            .unwrap()
            .write_base(&st, &Dio::plain())
            .unwrap();
        assert_eq!(read(&dir).unwrap().state.window, st.window);
        // Misaligned event times are corruption, not a silent truncation.
        st.window.as_mut().unwrap().times.push(12);
        std::fs::write(snapshot_path(&dir), frame_of(KIND_SNAPSHOT, &st)).unwrap();
        assert!(corrupt_msg(&dir).contains("window event times"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_corruption_detected() {
        let dir = tdir("snapbad");
        drop(log_with(&dir, &[], &Dio::plain()));
        let mut bytes = std::fs::read(snapshot_path(&dir)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(snapshot_path(&dir), &bytes).unwrap();
        corrupt_msg(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_version_too_new_rejected() {
        let dir = tdir("snapver");
        let mut payload = Vec::new();
        state().encode(&mut payload);
        let frame = encode_frame_versioned(KIND_SNAPSHOT, FORMAT_VERSION + 1, &payload);
        std::fs::write(snapshot_path(&dir), &frame).unwrap();
        assert!(corrupt_msg(&dir).contains("version"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_an_io_error() {
        let dir = tdir("snapnone");
        assert!(matches!(read(&dir), Err(Error::Io(m)) if m.contains("no snapshot")));
        assert!(read_snapshot_table(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A state frame over [`state`] (tuples 0 and 1 under sequence
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
    fn write_file(dir: &Path, frames: &[DeltaFrame]) -> Wal {
        let dio = Dio::plain();
        let mut wal = log_with(dir, &[], &dio);
        for f in frames {
            wal.append_state(f.last_seq, &encode_delta_frame(f), &dio)
                .unwrap();
        }
        wal
    }

    fn corrupt_msg(dir: &Path) -> String {
        match read(dir) {
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
        let log = read(&dir).unwrap();
        assert_eq!(log.torn_at, None);
        assert_eq!(log.base_bytes + log.state_bytes, len(&dir));
        let st = log.state;
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
        let mut wal = Wal::create(&dir).unwrap();
        wal.write_base(&st, &dio).unwrap();
        let mut d = delta();
        d.clock = Some(13);
        (d.upserts[0].time, d.upserts[1].time) = (11, 12);
        wal.append_state(5, &encode_delta_frame(&d), &dio).unwrap();
        let w = read(&dir).unwrap().state.window.unwrap();
        assert_eq!((w.clock, w.times), (13, vec![11, 12]));
        // an unwindowed frame cannot follow a windowed base
        let mut plain = delta();
        (plain.prev_seq, plain.last_seq) = (5, 6);
        wal.append_state(6, &encode_delta_frame(&plain), &dio)
            .unwrap();
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
        // trailing bytes inside a state frame, and a base after the base
        let dio = Dio::plain();
        let mut payload = Vec::new();
        delta().encode(&mut payload);
        payload.push(0);
        let frame = encode_frame(KIND_SNAPSHOT_DELTA, &payload);
        let mut wal = write_file(&dir, &[]);
        wal.append_state(5, &frame, &dio).unwrap();
        assert!(corrupt_msg(&dir).contains("trailing"));
        let mut wal = write_file(&dir, &[]);
        let base = std::fs::read(snapshot_path(&dir)).unwrap();
        wal.append_state(5, &base, &dio).unwrap();
        assert!(corrupt_msg(&dir).contains("after the base"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_delta_frame_tail_is_reported_not_folded() {
        let dir = tdir("torntail");
        drop(write_file(&dir, &[delta()]));
        let whole = len(&dir);
        let mut second = delta();
        (second.prev_seq, second.last_seq) = (5, 6);
        second.upserts.clear();
        let frame = encode_delta_frame(&second);
        let mut f = OpenOptions::new()
            .append(true)
            .open(snapshot_path(&dir))
            .unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        let log = read(&dir).unwrap();
        assert_eq!(log.torn_at, Some(whole));
        assert_eq!(log.state.last_seq, 5, "only the whole frame is folded");
        assert_eq!(log.base_bytes + log.state_bytes, whole);
        let (_wal, log) = Wal::open(&dir).unwrap();
        assert_eq!((log.state.last_seq, len(&dir)), (5, whole));
        assert_eq!(read(&dir).unwrap().torn_at, None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
