//! The partitioned dataset: a storage handle. Transformations run
//! through [`crate::Stage`]; this module holds construction, the
//! consuming accessors, and the checkpoint boundary.

use crate::dio::Dio;
use crate::engine::{Engine, ExecMode};
use crate::fault::FaultSite;
use crate::govern::TrackedSlot;
use crate::pool::par_map_indexed;
use crate::stage::PassKind;
use bigdansing_common::codec::{decode_batch, encode_batch, Codec};
use bigdansing_common::error::Result;
use bigdansing_common::metrics::Metrics;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Where a dataset's partitions live: directly in memory, or in a
/// budget-tracked slot the engine may evict to disk under pressure.
enum Store<T> {
    Mem(Vec<Vec<T>>),
    Tracked(Arc<TrackedSlot<T>>),
}

/// A partitioned, engine-bound collection — the RDD stand-in.
///
/// A `PDataset` only *holds* records. Every narrow or keyed
/// transformation runs through the lazy [`crate::Stage`] API
/// ([`PDataset::stage`]), and the wide pair primitives in
/// [`crate::joins`] run as engine stages too, so there is one execution
/// path: partitions are borrowed, and a failed partition task (panic or
/// error) is re-run under the configured [`crate::FaultPolicy`].
///
/// When the engine carries a [`crate::MemoryBudget`], checkpointed
/// datasets are registered in its memory ledger and may be evicted to
/// disk (spill-under-pressure). Every consumer faults evicted
/// partitions back in with typed errors, which is why the consuming
/// accessors return `Result`.
pub struct PDataset<T> {
    engine: Engine,
    store: Store<T>,
}

impl<T> std::fmt::Debug for PDataset<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (nparts, records, kind) = match &self.store {
            Store::Mem(parts) => (
                parts.len(),
                parts.iter().map(Vec::len).sum::<usize>(),
                "mem",
            ),
            Store::Tracked(slot) => (slot.nparts(), slot.records(), "tracked"),
        };
        write!(
            f,
            "PDataset({nparts} partitions, {records} records, {kind}, {:?})",
            self.engine
        )
    }
}

impl<T: Send> PDataset<T> {
    fn mem(engine: Engine, partitions: Vec<Vec<T>>) -> Self {
        PDataset {
            engine,
            store: Store::Mem(partitions),
        }
    }

    /// Create a dataset from partitions produced elsewhere.
    pub fn from_partitions(engine: Engine, partitions: Vec<Vec<T>>) -> Self {
        PDataset::mem(engine, partitions)
    }

    /// Distribute `data` over the engine's default partition count.
    pub fn from_vec(engine: Engine, data: Vec<T>) -> Self {
        let nparts = engine.default_partitions();
        Self::from_vec_with(engine, data, nparts)
    }

    /// Distribute `data` over `nparts` partitions.
    pub fn from_vec_with(engine: Engine, data: Vec<T>, nparts: usize) -> Self {
        let partitions = Engine::split(data, nparts);
        PDataset::mem(engine, partitions)
    }

    /// The owning engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        match &self.store {
            Store::Mem(parts) => parts.len(),
            Store::Tracked(slot) => slot.nparts(),
        }
    }

    /// Consume the dataset into `(engine, partitions)`, faulting
    /// evicted partitions back in from disk. The entry point every
    /// consumer goes through.
    pub(crate) fn take_parts(self) -> Result<(Engine, Vec<Vec<T>>)> {
        match self.store {
            Store::Mem(parts) => Ok((self.engine, parts)),
            Store::Tracked(slot) => {
                self.engine.check_cancelled()?;
                slot.touch(self.engine.ledger_tick());
                let parts = slot.take()?;
                Ok((self.engine, parts))
            }
        }
    }

    /// Consume the dataset into its partitions.
    pub fn into_partitions(self) -> Result<Vec<Vec<T>>> {
        self.take_parts().map(|(_, parts)| parts)
    }

    /// Total number of records.
    pub fn count(&self) -> usize {
        match &self.store {
            Store::Mem(parts) => parts.iter().map(Vec::len).sum(),
            Store::Tracked(slot) => slot.records(),
        }
    }

    /// Gather every record on the "driver".
    pub fn collect(self) -> Result<Vec<T>> {
        let (_, parts) = self.take_parts()?;
        Ok(parts.into_iter().flatten().collect())
    }
}

impl<T: Send + Sync + Clone + 'static> PDataset<T> {
    /// Enter the lazy stage-graph API: subsequent narrow transforms
    /// fuse into one physical pass per partition. See [`crate::Stage`].
    pub fn stage(self) -> crate::stage::Stage<T, T> {
        crate::stage::Stage::over(self)
    }
}

impl<T: Send + Sync + Codec + 'static> PDataset<T> {
    /// Stage-boundary materialization.
    ///
    /// Under [`ExecMode::DiskBacked`] every partition is encoded with the
    /// binary [`Codec`], written to the engine's spill directory, and
    /// read back — reproducing the dominant cost difference between
    /// BigDansing-Hadoop and BigDansing-Spark (Figures 10(a)/10(c)).
    /// Under the other modes the round-trip is skipped.
    ///
    /// When the engine carries a [`crate::MemoryBudget`], the result is
    /// additionally registered in the engine's memory ledger (with a
    /// byte estimate from the codec's encoded sizes), which may evict
    /// the coldest checkpointed datasets to disk — or cancel the job if
    /// this dataset alone exceeds the hard ceiling.
    ///
    /// Fault behaviour: a checkpoint never loses data and never fails
    /// on a spill. Partitions are written through
    /// [`Dio::write_atomic`], the path pressure spills take, with its
    /// retries under the engine's [`crate::FaultPolicy`], and each
    /// in-memory partition is dropped only once its spill file has read
    /// back. A spill directory that cannot be created, an exhausted
    /// write, or a failed read-back keeps the in-memory partitions
    /// flowing instead, counted in `spill_failures` and
    /// `stages_degraded`. A read-back gets no retry: the partition it
    /// checks is still in memory.
    ///
    /// A checkpoint that materializes (disk round-trip or ledger entry)
    /// is recorded in the plan trace as a pass of its own.
    pub fn checkpoint(self) -> Result<PDataset<T>> {
        let engine = self.engine.clone();
        engine.check_cancelled()?;
        let (_, parts) = self.take_parts()?;
        let nparts = parts.len();
        let disk = engine.mode() == ExecMode::DiskBacked;
        let parts = if disk {
            Self::disk_roundtrip(&engine, parts)
        } else {
            parts
        };
        let store = match engine.memory_budget() {
            None => Store::Mem(parts),
            Some(_) => {
                let slot = TrackedSlot::create(parts, engine.ledger_tick());
                let bytes = slot.bytes();
                engine.track(slot.clone(), bytes)?;
                Store::Tracked(slot)
            }
        };
        if disk || matches!(store, Store::Tracked(_)) {
            engine.record_pass(PassKind::Checkpoint, Vec::new(), nparts);
        }
        Ok(PDataset { engine, store })
    }

    /// The DiskBacked write-then-read-back phase of [`Self::checkpoint`].
    fn disk_roundtrip(engine: &Engine, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let metrics = engine.metrics();
        let degrade = |failures: usize| {
            Metrics::add(&metrics.spill_failures, failures as u64);
            engine.mark_degraded();
        };
        if engine.ensure_spill_dir().is_err() {
            degrade(1);
            return parts;
        }
        let paths: Vec<PathBuf> = (0..parts.len()).map(|_| engine.next_spill_path()).collect();
        let (dio, stage) = (Dio::from_engine(engine), engine.next_stage_id());

        // Write phase: partitions are borrowed, so a failed write never
        // loses the data it was spilling.
        let items: Vec<(&Vec<T>, &PathBuf)> = parts.iter().zip(&paths).collect();
        let written = par_map_indexed(engine.workers(), items, |i, (part, path)| {
            let buf = encode_batch(part);
            let stream = (stage << 32) | i as u64;
            dio.write_atomic(FaultSite::SpillWrite, stream, path, &buf, "spill")
                .map(|()| buf.len() as u64)
        });
        let failed = written.iter().filter(|w| w.is_err()).count();
        if failed > 0 {
            for p in &paths {
                let _ = fs::remove_file(p);
            }
            degrade(failed);
            return parts;
        }
        Metrics::add(&metrics.bytes_spilled, written.into_iter().flatten().sum());

        // Read phase: each original partition is dropped only after its
        // spill file decodes.
        let items: Vec<(Vec<T>, PathBuf)> = parts.into_iter().zip(paths).collect();
        let read_back = par_map_indexed(engine.workers(), items, |_, (original, path)| {
            let part = fs::read(&path).ok().and_then(|buf| decode_batch(&buf).ok());
            let _ = fs::remove_file(&path);
            part.ok_or(original)
        });
        let failed = read_back.iter().filter(|r| r.is_err()).count();
        if failed > 0 {
            degrade(failed);
        }
        read_back
            .into_iter()
            .map(|r| r.unwrap_or_else(|original| original))
            .collect()
    }
}

impl<T: Send + Clone> PDataset<T> {
    /// A copy sharing the same engine (clones the records). An evicted
    /// dataset is read back from disk; its spill file and slot are left
    /// intact.
    pub fn duplicate(&self) -> Result<PDataset<T>> {
        let partitions = match &self.store {
            Store::Mem(parts) => parts.clone(),
            Store::Tracked(slot) => {
                self.engine.check_cancelled()?;
                slot.touch(self.engine.ledger_tick());
                slot.clone_parts()?
            }
        };
        Ok(PDataset::mem(self.engine.clone(), partitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPolicy};
    use crate::govern::MemoryBudget;

    fn sorted(mut v: Vec<i64>) -> Vec<i64> {
        v.sort();
        v
    }

    #[test]
    fn count_and_partitions() {
        let e = Engine::parallel(3);
        let ds = PDataset::from_vec_with(e, (0..10i64).collect(), 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.count(), 10);
    }

    #[test]
    fn checkpoint_noop_in_memory_modes() {
        let e = Engine::parallel(2);
        let ds = PDataset::from_vec(e.clone(), (0..20u64).collect());
        let out = ds.checkpoint().unwrap().collect().unwrap();
        assert_eq!(
            sorted(out.into_iter().map(|x| x as i64).collect()),
            (0..20).collect::<Vec<_>>()
        );
        assert_eq!(Metrics::get(&e.metrics().bytes_spilled), 0);
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let e = Engine::disk_backed(2);
        let ds = PDataset::from_vec(e.clone(), (0..200u64).collect());
        let nparts = ds.num_partitions();
        let out = ds.checkpoint().unwrap().collect().unwrap();
        assert_eq!(out.len(), 200);
        let mut out = out;
        out.sort();
        assert_eq!(out, (0..200).collect::<Vec<u64>>());
        assert!(Metrics::get(&e.metrics().bytes_spilled) > 0);
        // the materializing checkpoint is the one recorded pass
        let plan = e.stage_plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(
            (plan[0].kind, plan[0].partitions),
            (PassKind::Checkpoint, nparts)
        );
        // spill files are cleaned up after the read-back
        if let Ok(read) = std::fs::read_dir(e.spill_dir()) {
            assert_eq!(read.count(), 0);
        }
    }

    #[test]
    fn budget_checkpoint_tracks_and_spills_under_pressure() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .memory_budget(MemoryBudget::new(64, 1 << 30))
            .build();
        let ds = PDataset::from_vec(e.clone(), (0..500u64).collect());
        let cp = ds.checkpoint().unwrap();
        // Well past the 64-byte soft limit: the dataset was evicted.
        assert!(Metrics::get(&e.metrics().pressure_spills) > 0);
        assert!(Metrics::get(&e.metrics().bytes_tracked) > 0);
        assert_eq!(cp.count(), 500, "count must work on an evicted dataset");
        // A stage over it faults the data back in.
        let mut out = cp.stage().map("id", Ok).collect().unwrap();
        out.sort();
        assert_eq!(out, (0..500).collect::<Vec<u64>>());
        // The spill file was consumed and removed.
        if let Ok(read) = std::fs::read_dir(e.spill_dir()) {
            assert_eq!(read.count(), 0);
        }
    }

    #[test]
    fn budget_checkpoint_duplicate_faults_in_without_consuming() {
        let e = Engine::builder(ExecMode::Parallel)
            .workers(2)
            .memory_budget(MemoryBudget::new(64, 1 << 30))
            .build();
        let cp = PDataset::from_vec(e, (0..100u64).collect())
            .checkpoint()
            .unwrap();
        let dup = cp.duplicate().unwrap();
        assert_eq!(dup.count(), 100);
        let mut a = dup.collect().unwrap();
        a.sort();
        assert_eq!(a, (0..100).collect::<Vec<u64>>());
        let mut b = cp.collect().unwrap();
        b.sort();
        assert_eq!(b, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn unbudgeted_checkpoint_stays_in_memory() {
        let e = Engine::parallel(2);
        let cp = PDataset::from_vec(e.clone(), (0..50u64).collect())
            .checkpoint()
            .unwrap();
        assert_eq!(Metrics::get(&e.metrics().bytes_tracked), 0);
        assert!(e.stage_plan().is_empty(), "nothing materialized");
        assert_eq!(cp.into_partitions().unwrap().concat().len(), 50);
    }

    #[test]
    fn checkpoint_survives_injected_spill_faults() {
        let e = Engine::builder(ExecMode::DiskBacked)
            .workers(2)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(77).with_io_write_failures(0.3))
            .build();
        let ds = PDataset::from_vec(e.clone(), (0..500u64).collect());
        let mut out = ds.checkpoint().unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out, (0..500).collect::<Vec<u64>>());
        assert!(Metrics::get(&e.metrics().io_retries) > 0);
        assert_eq!(Metrics::get(&e.metrics().spill_failures), 0);
        assert!(!e.is_degraded(), "retries should recover without degrading");
    }

    #[test]
    fn unwritable_spill_dir_degrades_to_memory() {
        let e = Engine::builder(ExecMode::DiskBacked)
            .workers(2)
            .spill_dir("/proc/definitely-not-writable/spill")
            .build();
        let ds = PDataset::from_vec(e.clone(), (0..100u64).collect());
        let mut out = ds.checkpoint().unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        assert!(e.is_degraded());
        assert!(Metrics::get(&e.metrics().stages_degraded) >= 1);
    }

    #[test]
    fn spill_write_exhaustion_degrades_without_data_loss() {
        // 100% write-fault probability: every attempt fails, the budget
        // exhausts, and Degrade keeps the in-memory partitions flowing.
        let e = Engine::builder(ExecMode::DiskBacked)
            .workers(2)
            .fault_policy(FaultPolicy::with_max_attempts(2))
            .fault_injector(FaultInjector::seeded(5).with_io_write_failures(1.0))
            .build();
        let ds = PDataset::from_vec(e.clone(), (0..100u64).collect());
        let mut out = ds.checkpoint().unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        assert!(e.is_degraded());
    }

    #[test]
    fn failed_read_back_keeps_the_in_memory_partitions() {
        // Every write silently persists half its bytes: each write
        // "succeeds", each read-back fails to decode, and the original
        // partitions flow on.
        let e = Engine::builder(ExecMode::DiskBacked)
            .workers(2)
            .fault_injector(FaultInjector::seeded(5).with_io_short_writes(1.0))
            .build();
        let ds = PDataset::from_vec(e.clone(), (0..100u64).collect());
        let nparts = ds.num_partitions() as u64;
        let mut out = ds.checkpoint().unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        assert!(e.is_degraded());
        assert_eq!(Metrics::get(&e.metrics().spill_failures), nparts);
        assert_eq!(
            Metrics::get(&e.metrics().io_retries),
            0,
            "no read-back retry"
        );
    }

    #[test]
    fn cancellation_is_never_degraded_by_checkpoint() {
        use bigdansing_common::error::{CancelReason, Error};
        let e = Engine::disk_backed(2);
        let guard = e.begin_job("cancelled-checkpoint", None);
        e.cancel_job(CancelReason::User);
        let ds = PDataset::from_vec(e, (0..100u64).collect());
        let err = ds.checkpoint().unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }), "{err:?}");
        drop(guard);
    }
}
