//! Resource governance: cooperative cancellation, deadlines, and memory
//! budgets with spill-under-pressure.
//!
//! The platforms the paper targets keep jobs inside a resource envelope
//! for free — Spark's memory manager spills shuffle state under
//! pressure and kills executors past their allotment, YARN admits jobs
//! against a cluster budget. This module gives the laptop-scale engine
//! the same discipline: a [`CancellationToken`] threaded through every
//! fallible stage so jobs abort cooperatively *between* partition
//! tasks — and trip themselves at the first check past their wall-clock
//! deadline — and a [`MemoryBudget`] enforced by an engine-wide ledger
//! of checkpointed datasets whose coldest entries are evicted to disk
//! when the soft limit is exceeded.

use bigdansing_common::codec::{decode_batch, encode_batch, Codec};
use bigdansing_common::error::{CancelReason, Error, Result};
use bigdansing_common::Mutex;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

const LIVE: u8 = 0;

fn reason_code(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::User => 1,
        CancelReason::DeadlineExceeded => 2,
        CancelReason::MemoryExceeded => 3,
    }
}

fn code_reason(code: u8) -> Option<CancelReason> {
    match code {
        1 => Some(CancelReason::User),
        2 => Some(CancelReason::DeadlineExceeded),
        3 => Some(CancelReason::MemoryExceeded),
        _ => None,
    }
}

/// Cooperative cancellation signal shared by every task of one job.
///
/// Cancellation is checked between partition tasks and between retry
/// attempts — a running task body is never interrupted, so partial
/// state is impossible. The first [`cancel`](CancellationToken::cancel)
/// wins; later calls are no-ops. A token with a deadline needs no timer:
/// the first check at or past it trips the token with
/// [`CancelReason::DeadlineExceeded`].
#[derive(Clone, Debug)]
pub struct CancellationToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    job: String,
    deadline: Option<Instant>,
    state: AtomicU8,
}

impl CancellationToken {
    /// A live token for the named job, expiring at `deadline` if given.
    pub fn new(job: impl Into<String>, deadline: Option<Instant>) -> CancellationToken {
        CancellationToken {
            inner: Arc::new(TokenInner {
                job: job.into(),
                deadline,
                state: AtomicU8::new(LIVE),
            }),
        }
    }

    /// The job this token governs.
    pub fn job(&self) -> &str {
        &self.inner.job
    }

    /// Trip the token. Returns `true` if this call performed the
    /// cancellation, `false` if the token was already tripped (the
    /// first reason sticks).
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.inner
            .state
            .compare_exchange(
                LIVE,
                reason_code(reason),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The token's state, after tripping it if its deadline has passed.
    fn state(&self) -> u8 {
        let state = self.inner.state.load(Ordering::Acquire);
        match self.inner.deadline {
            Some(at) if state == LIVE && Instant::now() >= at => {
                self.cancel(CancelReason::DeadlineExceeded);
                self.inner.state.load(Ordering::Acquire)
            }
            _ => state,
        }
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.state() != LIVE
    }

    /// Why the token was tripped, if it was.
    pub fn reason(&self) -> Option<CancelReason> {
        code_reason(self.state())
    }

    /// `Ok(())` while live, `Error::Cancelled { job, reason }` once
    /// tripped — the check every stage boundary performs.
    pub fn check(&self) -> Result<()> {
        match self.reason() {
            None => Ok(()),
            Some(reason) => Err(Error::Cancelled {
                job: self.inner.job.clone(),
                reason,
            }),
        }
    }

    pub(crate) fn same_as(&self, other: &CancellationToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Byte limits applied to the engine's ledger of checkpointed datasets.
///
/// Past `soft_bytes` of resident tracked data the engine evicts the
/// coldest datasets to disk (spill-under-pressure). A single dataset
/// whose estimate alone exceeds `hard_bytes` cancels its job with
/// [`CancelReason::MemoryExceeded`] instead of risking the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Resident-byte threshold that triggers pressure spilling.
    pub soft_bytes: u64,
    /// Per-dataset ceiling past which the job is cancelled.
    pub hard_bytes: u64,
}

impl MemoryBudget {
    /// A budget with an explicit soft and hard limit (the hard limit is
    /// clamped to at least the soft limit).
    pub fn new(soft_bytes: u64, hard_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            soft_bytes,
            hard_bytes: hard_bytes.max(soft_bytes),
        }
    }

    /// A budget with the conventional 4× headroom between the spill
    /// threshold and the kill ceiling.
    pub fn soft(soft_bytes: u64) -> MemoryBudget {
        MemoryBudget::new(soft_bytes, soft_bytes.saturating_mul(4))
    }
}

/// A ledger entry the engine can evict to disk, erased over the
/// element type so one ledger holds datasets of every record type.
pub(crate) trait Spillable: Send + Sync {
    /// Estimated encoded bytes currently held in memory (0 once
    /// spilled or consumed).
    fn resident_bytes(&self) -> u64;
    /// Ledger clock value of the last access — the eviction ordering.
    fn last_touch(&self) -> u64;
    /// Encode to `path` and drop the in-memory partitions, writing
    /// through `dio` (atomic temp+rename, retries, fault injection).
    /// Returns the bytes written (0 if nothing was resident to spill).
    fn spill(&self, path: PathBuf, dio: &crate::dio::Dio) -> Result<u64>;
}

/// Where a tracked dataset's partitions currently live.
enum SlotState<T> {
    Mem(Vec<Vec<T>>),
    Spilled(PathBuf),
    Taken,
}

/// One checkpointed dataset registered in the engine's memory ledger.
/// Encode/decode are captured as plain fn pointers at construction so
/// consumers that lack a `Codec` bound can still fault the data back in.
pub(crate) struct TrackedSlot<T> {
    nparts: usize,
    records: usize,
    bytes: u64,
    touch: AtomicU64,
    resident: AtomicU64,
    encode: fn(&[Vec<T>]) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<Vec<Vec<T>>>,
    state: Mutex<SlotState<T>>,
}

impl<T: Codec + Send> TrackedSlot<T> {
    /// Wrap `parts`, estimating bytes from the codec's encoded sizes.
    pub(crate) fn create(parts: Vec<Vec<T>>, tick: u64) -> Arc<TrackedSlot<T>> {
        let mut bytes = 0u64;
        for part in &parts {
            bytes += encode_batch(part).len() as u64;
        }
        Arc::new(TrackedSlot {
            nparts: parts.len(),
            records: parts.iter().map(Vec::len).sum(),
            bytes,
            touch: AtomicU64::new(tick),
            resident: AtomicU64::new(bytes),
            encode: encode_batch::<Vec<T>>,
            decode: decode_batch::<Vec<T>>,
            state: Mutex::new(SlotState::Mem(parts)),
        })
    }
}

impl<T> TrackedSlot<T> {
    pub(crate) fn nparts(&self) -> usize {
        self.nparts
    }

    pub(crate) fn records(&self) -> usize {
        self.records
    }

    /// Estimated encoded size of the whole dataset.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn touch(&self, tick: u64) {
        self.touch.store(tick, Ordering::Relaxed);
    }
}

impl<T: Send> TrackedSlot<T> {
    /// Consume the partitions, faulting them back in from disk (and
    /// removing the spill file) if they were evicted.
    pub(crate) fn take(&self) -> Result<Vec<Vec<T>>> {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Mem(parts) => {
                self.resident.store(0, Ordering::Relaxed);
                Ok(parts)
            }
            SlotState::Spilled(path) => {
                let buf = fs::read(&path).map_err(|e| {
                    Error::Io(format!("read pressure spill {}: {e}", path.display()))
                })?;
                let _ = fs::remove_file(&path);
                (self.decode)(&buf)
            }
            SlotState::Taken => Err(Error::InvalidPlan("tracked dataset consumed twice".into())),
        }
    }

    /// Copy the partitions without consuming the slot; a spilled slot
    /// is read back but stays on disk.
    pub(crate) fn clone_parts(&self) -> Result<Vec<Vec<T>>>
    where
        T: Clone,
    {
        let state = self.state.lock();
        match &*state {
            SlotState::Mem(parts) => Ok(parts.clone()),
            SlotState::Spilled(path) => {
                let buf = fs::read(path).map_err(|e| {
                    Error::Io(format!("read pressure spill {}: {e}", path.display()))
                })?;
                (self.decode)(&buf)
            }
            SlotState::Taken => Err(Error::InvalidPlan("tracked dataset consumed twice".into())),
        }
    }
}

impl<T: Send> Spillable for TrackedSlot<T> {
    fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    fn last_touch(&self) -> u64 {
        self.touch.load(Ordering::Relaxed)
    }

    fn spill(&self, path: PathBuf, dio: &crate::dio::Dio) -> Result<u64> {
        let mut state = self.state.lock();
        let SlotState::Mem(parts) = &*state else {
            return Ok(0);
        };
        let buf = (self.encode)(parts);
        // Atomic temp+fsync+rename: a crash mid-spill leaves at worst
        // an orphaned `.tmp` the engine sweeps on startup, never a
        // half-written file that would poison the fault-back-in path.
        dio.write_atomic(
            crate::fault::FaultSite::SpillWrite,
            self.touch.load(Ordering::Relaxed),
            &path,
            &buf,
            "spill",
        )?;
        let written = buf.len() as u64;
        *state = SlotState::Spilled(path);
        self.resident.store(0, Ordering::Relaxed);
        Ok(written)
    }
}

impl<T> Drop for TrackedSlot<T> {
    /// A cancelled or abandoned job drops its datasets without
    /// consuming them; remove the spill file so nothing is orphaned.
    fn drop(&mut self) {
        if let SlotState::Spilled(path) = &*self.state.lock() {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_first_cancel_wins() {
        let t = CancellationToken::new("job-1", None);
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.cancel(CancelReason::DeadlineExceeded));
        assert!(!t.cancel(CancelReason::User), "second cancel must lose");
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        match t.check() {
            Err(Error::Cancelled { job, reason }) => {
                assert_eq!(job, "job-1");
                assert_eq!(reason, CancelReason::DeadlineExceeded);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn token_clones_share_state() {
        let t = CancellationToken::new("j", None);
        let c = t.clone();
        t.cancel(CancelReason::User);
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::User));
    }

    #[test]
    fn deadline_trips_the_token_at_the_first_check_past_it() {
        let t = CancellationToken::new("slow", Some(Instant::now()));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        assert!(!t.cancel(CancelReason::User), "the deadline already won");
        let far = Instant::now() + std::time::Duration::from_secs(600);
        let t = CancellationToken::new("fast", Some(far));
        assert!(t.check().is_ok());
    }

    #[test]
    fn budget_clamps_hard_to_soft() {
        let b = MemoryBudget::new(100, 10);
        assert_eq!(b.hard_bytes, 100);
        let b = MemoryBudget::soft(8);
        assert_eq!(b.hard_bytes, 32);
    }

    #[test]
    fn tracked_slot_spills_and_faults_back_in() {
        let parts: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![4, 5]];
        let slot = TrackedSlot::create(parts.clone(), 0);
        assert_eq!(slot.nparts(), 2);
        assert_eq!(slot.records(), 5);
        assert!(slot.resident_bytes() > 0);
        let dir = std::env::temp_dir().join("bigdansing-govern-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slot-roundtrip.bin");
        let dio = crate::dio::Dio::plain();
        let written = slot.spill(path.clone(), &dio).unwrap();
        assert!(written > 0);
        assert_eq!(slot.resident_bytes(), 0);
        assert!(path.exists());
        assert!(
            !bigdansing_common::codec::tmp_sibling(&path).exists(),
            "atomic spill must not leave a temp file"
        );
        // Second spill is a no-op.
        assert_eq!(slot.spill(dir.join("slot-other.bin"), &dio).unwrap(), 0);
        assert_eq!(slot.clone_parts().unwrap(), parts);
        assert!(path.exists(), "clone_parts must leave the spill file");
        assert_eq!(slot.take().unwrap(), parts);
        assert!(!path.exists(), "take must remove the spill file");
        assert!(slot.take().is_err(), "double consume is an error");
    }

    #[test]
    fn dropping_a_spilled_slot_removes_its_file() {
        let slot = TrackedSlot::create(vec![vec![9u64; 16]], 0);
        let dir = std::env::temp_dir().join("bigdansing-govern-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slot-dropped.bin");
        slot.spill(path.clone(), &crate::dio::Dio::plain()).unwrap();
        assert!(path.exists());
        drop(slot);
        assert!(!path.exists(), "orphaned spill file after drop");
    }

    #[test]
    fn transient_spill_write_failure_is_retried() {
        use crate::fault::FaultInjector;
        use bigdansing_common::metrics::Metrics;
        let slot = TrackedSlot::create(vec![vec![7u64; 32]], 0);
        let dir = std::env::temp_dir().join("bigdansing-govern-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slot-retried.bin");
        let dio =
            crate::dio::Dio::plain().with_injector(FaultInjector::seeded(5).with_io_fail_once());
        let written = slot.spill(path, &dio).unwrap();
        assert!(written > 0);
        assert_eq!(Metrics::get(&dio.metrics().io_retries), 1);
        assert_eq!(slot.take().unwrap(), vec![vec![7u64; 32]]);
    }
}
