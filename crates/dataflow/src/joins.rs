//! Cartesian products and range partitioning.
//!
//! `self_cartesian` is the engine-level primitive behind the
//! UCrossProduct enhancer — the paper extended Spark with a
//! `selfCartesian()` function producing each unordered pair once,
//! n·(n−1)/2 instead of n² (§4.2). `cartesian` backs the plain
//! CrossProduct wrapper and the cross-input Iterate. `range_partition_by`
//! is the partitioning phase of OCJoin (Algorithm 2, line 2).
//!
//! The pair primitives run their tasks through [`Engine::run_stage`]
//! (panic isolation, retries, cancellation) and record a `Join` pass.

use crate::engine::Engine;
use crate::pdataset::PDataset;
use crate::stage::PassKind;
use bigdansing_common::error::Result;
use bigdansing_common::metrics::Metrics;

impl<T: Send + Sync + Clone> PDataset<T> {
    /// Every unordered pair `(a, b)` with `a` strictly before `b` in the
    /// dataset, produced exactly once. Parallelized over chunk pairs.
    pub fn self_cartesian(self) -> Result<PDataset<(T, T)>> {
        let engine = self.engine().clone();
        let all: Vec<T> = self.collect()?;
        // chunk so we get enough tasks for the pool: c*(c+1)/2 tasks
        let chunks = (engine.workers() * 2).max(1);
        let parts = Engine::split(all, chunks);
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        for i in 0..parts.len() {
            for j in i..parts.len() {
                tasks.push((i, j));
            }
        }
        let parts_ref = &parts;
        let partitions = engine.run_stage(&tasks, |_, &(i, j)| {
            let a = &parts_ref[i];
            let b = &parts_ref[j];
            let mut out = Vec::new();
            if i == j {
                for x in 0..a.len() {
                    for y in (x + 1)..a.len() {
                        out.push((a[x].clone(), a[y].clone()));
                    }
                }
            } else {
                out.reserve(a.len() * b.len());
                for x in a {
                    for y in b {
                        out.push((x.clone(), y.clone()));
                    }
                }
            }
            Ok(out)
        })?;
        let total: usize = partitions.iter().map(Vec::len).sum();
        Metrics::add(&engine.metrics().pairs_generated, total as u64);
        engine.record_pass(
            PassKind::Join,
            vec!["self-cartesian".into()],
            partitions.len(),
        );
        Ok(PDataset::from_partitions(engine, partitions))
    }

    /// Full cross product with `other` (n·m ordered pairs).
    pub fn cartesian<U: Send + Sync + Clone>(self, other: PDataset<U>) -> Result<PDataset<(T, U)>> {
        let (engine, left) = self.take_parts()?;
        let right: Vec<U> = other.collect()?;
        let right_ref = &right;
        let partitions = engine.run_stage(&left, |_, lp: &Vec<T>| {
            let mut out = Vec::with_capacity(lp.len() * right_ref.len());
            for a in lp {
                for b in right_ref {
                    out.push((a.clone(), b.clone()));
                }
            }
            Ok(out)
        })?;
        let total: usize = partitions.iter().map(Vec::len).sum();
        Metrics::add(&engine.metrics().pairs_generated, total as u64);
        engine.record_pass(PassKind::Join, vec!["cartesian".into()], partitions.len());
        Ok(PDataset::from_partitions(engine, partitions))
    }

    /// All n² ordered pairs of the dataset with itself — what a SQL
    /// self-join produces, and the CrossProduct physical operator.
    pub fn self_cross_product(self) -> Result<PDataset<(T, T)>> {
        let dup = self.duplicate()?;
        self.cartesian(dup)
    }

    /// Range partition by `key` into `nparts` ordered ranges
    /// (partition `i` holds keys ≤ every key in partition `i+1`).
    ///
    /// Cut points come from sorting a deterministic sample of the keys,
    /// mirroring how the paper's underlying platforms implement
    /// range partitioning. The key function *borrows*: the key is read
    /// in place from each record, so routing constructs no per-record
    /// key value — only the bounded cut-point sample (at most 4096
    /// keys) is cloned.
    pub fn range_partition_by<K, F>(self, key: F, nparts: usize) -> Result<PDataset<T>>
    where
        K: Ord + Clone + Send,
        F: for<'a> Fn(&'a T) -> &'a K + Sync,
    {
        let engine = self.engine().clone();
        let nparts = nparts.max(1);
        let all: Vec<T> = self.collect()?;
        Metrics::add(&engine.metrics().records_shuffled, all.len() as u64);
        Metrics::add(
            &engine.metrics().bytes_shuffled,
            (std::mem::size_of::<T>() * all.len()) as u64,
        );
        if nparts == 1 || all.len() <= 1 {
            return Ok(PDataset::from_partitions(engine, vec![all]));
        }
        // deterministic sample: every k-th key, capped at 4096 samples
        let stride = (all.len() / 4096).max(1);
        let mut sample: Vec<K> = all.iter().step_by(stride).map(|t| key(t).clone()).collect();
        sample.sort();
        let mut cuts: Vec<K> = Vec::with_capacity(nparts - 1);
        for i in 1..nparts {
            let idx = i * sample.len() / nparts;
            cuts.push(sample[idx.min(sample.len() - 1)].clone());
        }
        let mut partitions: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        for t in all {
            // first partition whose cut is >= the key
            let idx = cuts.partition_point(|c| c < key(&t));
            partitions[idx].push(t);
        }
        Ok(PDataset::from_partitions(engine, partitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn self_cartesian_yields_each_unordered_pair_once() {
        let e = Engine::parallel(4);
        let n = 40i64;
        let ds = PDataset::from_vec(e, (0..n).collect());
        let pairs: Vec<(i64, i64)> = ds.self_cartesian().unwrap().collect().unwrap();
        assert_eq!(pairs.len() as i64, n * (n - 1) / 2);
        let set: HashSet<(i64, i64)> = pairs.iter().map(|(a, b)| (*a.min(b), *a.max(b))).collect();
        assert_eq!(set.len(), pairs.len(), "duplicate unordered pair produced");
    }

    #[test]
    fn self_cartesian_counts_pairs_metric() {
        let e = Engine::parallel(2);
        let ds = PDataset::from_vec(e.clone(), (0..10i64).collect());
        let _ = ds.self_cartesian().unwrap();
        assert_eq!(Metrics::get(&e.metrics().pairs_generated), 45);
    }

    #[test]
    fn cartesian_is_complete() {
        let e = Engine::parallel(3);
        let a = PDataset::from_vec(e.clone(), vec![1i64, 2, 3]);
        let b = PDataset::from_vec(e, vec!["x", "y"]);
        let mut out: Vec<(i64, &str)> = a.cartesian(b).unwrap().collect().unwrap();
        out.sort();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], (1, "x"));
        assert_eq!(out[5], (3, "y"));
    }

    #[test]
    fn self_cross_product_is_n_squared() {
        let e = Engine::sequential();
        let ds = PDataset::from_vec(e, (0..7i64).collect());
        assert_eq!(ds.self_cross_product().unwrap().count(), 49);
    }

    #[test]
    fn self_cartesian_is_unchanged_under_faults() {
        use crate::fault::{FaultInjector, FaultPolicy};
        use crate::ExecMode;
        let n = 30i64;
        let mut expect: Vec<(i64, i64)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                expect.push((a, b));
            }
        }
        let faulty_engine = Engine::builder(ExecMode::Parallel)
            .workers(4)
            .fault_policy(FaultPolicy::with_max_attempts(6))
            .fault_injector(FaultInjector::seeded(13).with_task_panics(0.3))
            .build();
        let mut faulty: Vec<(i64, i64)> =
            PDataset::from_vec(faulty_engine.clone(), (0..n).collect())
                .self_cartesian()
                .unwrap()
                .collect()
                .unwrap()
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
        faulty.sort();
        assert_eq!(faulty, expect);
        assert!(Metrics::get(&faulty_engine.metrics().panics_caught) > 0);
    }

    #[test]
    fn range_partition_orders_ranges() {
        let e = Engine::parallel(4);
        let data: Vec<i64> = (0..500).map(|x| (x * 7919) % 1000).collect();
        let ds = PDataset::from_vec(e, data.clone());
        let parts = ds
            .range_partition_by(|x| x, 8)
            .unwrap()
            .into_partitions()
            .unwrap();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), data.len());
        // max of partition i <= min of partition i+1 (non-empty ones)
        let mut last_max: Option<i64> = None;
        for p in parts.iter().filter(|p| !p.is_empty()) {
            let mn = *p.iter().min().unwrap();
            let mx = *p.iter().max().unwrap();
            if let Some(lm) = last_max {
                assert!(lm <= mn, "ranges overlap: {lm} > {mn}");
            }
            last_max = Some(mx);
        }
    }

    #[test]
    fn range_partition_single_part_and_tiny_input() {
        let e = Engine::sequential();
        let count = |ds: PDataset<i64>, nparts| {
            let parts = ds.range_partition_by(|x| x, nparts).unwrap();
            parts.into_partitions().unwrap().concat().len()
        };
        assert_eq!(count(PDataset::from_vec(e.clone(), vec![5i64]), 4), 1);
        assert_eq!(count(PDataset::from_vec(e, Vec::new()), 3), 0);
    }

    #[test]
    fn skewed_keys_do_not_lose_records() {
        let e = Engine::parallel(2);
        let data: Vec<i64> = std::iter::repeat_n(42, 100).chain(0..10).collect();
        let ds = PDataset::from_vec(e, data.clone());
        let parts = ds.range_partition_by(|x| x, 5).unwrap();
        assert_eq!(parts.count(), data.len());
    }
}
