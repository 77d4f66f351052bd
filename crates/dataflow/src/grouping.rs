//! The hash shuffle's routing and reducer-side merge, shared by
//! [`crate::Stage::group_by_key`], [`crate::Stage::partition_by`] and
//! [`crate::Stage::co_group`] — the
//! substrate of the physical Block and CoBlock operators (Appendix G:
//! Spark-PBlock uses `groupBy()`, Spark-CoBlock adds a key `join()`).

use crate::engine::Engine;
use crate::pool::par_map_indexed;
use bigdansing_common::metrics::Metrics;
use bigdansing_common::stable_hash_of;
use bigdansing_common::Mutex;
use std::hash::Hash;

/// The reducer bucket `key` hashes to — deterministic across runs.
/// `KeyId` keys (CoBlock's) hash only their cached stable half, so
/// encoded keys route without re-hashing the key payload. A store that
/// keeps a shuffle's reducer shares routes later records by it too.
pub fn bucket_of<K: Hash>(key: &K, nbuckets: usize) -> usize {
    (stable_hash_of(key) as usize) % nbuckets
}

/// Reducer-side half of the shuffle: transpose per-partition bucket
/// lists into one bucket per reducer. Reducers run in parallel and
/// *move* their slices out of shared slots rather than cloning, so the
/// merge is a pointer shuffle, not a copy. Counts shuffled records.
pub(crate) fn merge_buckets<T: Send>(
    engine: &Engine,
    bucketed: Vec<Vec<Vec<T>>>,
    reducers: usize,
) -> Vec<Vec<T>> {
    let total: usize = bucketed.iter().flat_map(|bs| bs.iter().map(Vec::len)).sum();
    Metrics::add(&engine.metrics().records_shuffled, total as u64);
    // Bytes that cross the shuffle boundary. Records are shuffled as
    // handles (`Tuple` is an id + `Arc` + optional selector; a Block or
    // LSH pass shuffles 32-byte run entries), so this measures what
    // actually moves — not the pinned payloads, which never do.
    Metrics::add(
        &engine.metrics().bytes_shuffled,
        (std::mem::size_of::<T>() * total) as u64,
    );
    let slots: Vec<Vec<Mutex<Option<Vec<T>>>>> = bucketed
        .into_iter()
        .map(|bs| bs.into_iter().map(|b| Mutex::new(Some(b))).collect())
        .collect();
    par_map_indexed(
        engine.workers(),
        (0..reducers).collect::<Vec<usize>>(),
        |_, r| {
            let mut bucket: Vec<T> = Vec::new();
            for part in &slots {
                if let Some(b) = part.get(r).and_then(|slot| slot.lock().take()) {
                    if bucket.is_empty() {
                        bucket = b;
                    } else {
                        bucket.extend(b);
                    }
                }
            }
            bucket
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_deterministic_across_instances_and_threads() {
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let baseline: Vec<usize> = keys.iter().map(|k| bucket_of(k, 16)).collect();
        // Fresh hasher instances agree.
        let again: Vec<usize> = keys.iter().map(|k| bucket_of(k, 16)).collect();
        assert_eq!(baseline, again);
        // Threads agree (no per-process random state anywhere).
        let from_thread = std::thread::spawn({
            let keys = keys.clone();
            move || {
                keys.iter()
                    .map(|k| bucket_of(k, 16))
                    .collect::<Vec<usize>>()
            }
        })
        .join()
        .unwrap();
        assert_eq!(baseline, from_thread);
        // Cross-check against an independent inline FNV-1a fold: `str`
        // hashes as its bytes followed by a 0xff terminator.
        const STABLE_SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let reference = |s: &str| -> u64 {
            let mut h = STABLE_SEED;
            for &b in s.as_bytes().iter().chain(std::iter::once(&0xffu8)) {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^ (h >> 33)
        };
        for k in &keys {
            assert_eq!(bucket_of(k, 16), (reference(k) as usize) % 16);
        }
        // Integer keys funnel through the pinned little-endian path.
        assert_eq!(bucket_of(&42i64, 8), bucket_of(&42i64, 8));
    }

    #[test]
    fn stable_hasher_spreads_keys() {
        // Sanity: the fixed-seed hash must not degenerate into a single
        // bucket for realistic key shapes.
        let mut hit = [false; 8];
        for i in 0..256i64 {
            hit[bucket_of(&i, 8)] = true;
            hit[bucket_of(&format!("zip-{i}"), 8)] = true;
        }
        assert!(hit.iter().all(|h| *h), "all buckets should be reachable");
    }
}
