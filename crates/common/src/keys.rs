//! Dictionary-encoded shuffle keys.
//!
//! Blocking and range keys start life as `Vec<Value>`-shaped payloads;
//! hashing and cloning them at every shuffle hop (map-side bucketize,
//! reducer merge, group build) is the single biggest per-record cost of
//! the detect path. A [`KeyDict`] encodes each distinct key **once per
//! pass** into a [`KeyId`] — a `Copy` `u64` packing the key's cached
//! [`StableHasher`](crate::hash::StableHasher) hash (high 32 bits) with
//! a dense dictionary ordinal (low 32 bits). Downstream operators then
//! route, compare, and group on the 8-byte id; the key payload itself
//! never moves again.
//!
//! Determinism: bucket routing hashes only the *stable-hash half* of
//! the id (see [`KeyId`]'s `Hash` impl). The dense ordinal depends on
//! the thread interleaving of the encoding pass, so it must never reach
//! a hasher — but equality still uses the full id, so two distinct keys
//! that collide in the 32-bit hash stay distinct.

use crate::hash::stable_hash_of;
use crate::sync::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};

/// A dictionary-encoded key: cached stable hash (high 32 bits) plus
/// dense dictionary ordinal (low 32 bits). `Copy`, 8 bytes, and already
/// hashed — the zero-copy currency of every wide operator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct KeyId(u64);

impl KeyId {
    /// The cached stable hash of the underlying key.
    pub fn stable_hash(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The dense dictionary ordinal (assignment order is
    /// thread-dependent; never hash or persist it).
    pub fn ordinal(self) -> u32 {
        self.0 as u32
    }

    /// The raw packed representation.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Hash for KeyId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Only the pre-computed stable half: routing stays deterministic
        // across runs even though ordinal assignment is not.
        state.write_u32((self.0 >> 32) as u32);
    }
}

const SHARDS: usize = 16;

/// A per-pass key dictionary: encodes owned keys into [`KeyId`]s,
/// hashing each distinct key exactly once. Sharded by the key's stable
/// hash so concurrent map tasks rarely contend on the same lock.
pub struct KeyDict<K> {
    shards: Vec<Mutex<std::collections::HashMap<K, KeyId>>>,
    next: AtomicU32,
}

impl<K: Hash + Eq> KeyDict<K> {
    /// An empty dictionary.
    pub fn new() -> KeyDict<K> {
        KeyDict {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Default::default()))
                .collect(),
            next: AtomicU32::new(0),
        }
    }

    /// Encode `key`, registering it on first sight. The key is moved,
    /// not cloned: the dictionary becomes its only long-lived owner.
    pub fn encode(&self, key: K) -> KeyId {
        let h = stable_hash_of(&key);
        let mut shard = self.shards[(h as usize) % SHARDS].lock();
        if let Some(&id) = shard.get(&key) {
            return id;
        }
        let ordinal = self.next.fetch_add(1, Ordering::Relaxed);
        let id = KeyId((h & 0xFFFF_FFFF_0000_0000) | u64::from(ordinal));
        shard.insert(key, id);
        id
    }

    /// Number of distinct keys registered.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no key has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq> Default for KeyDict<K> {
    fn default() -> Self {
        KeyDict::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn same_key_same_id_distinct_keys_distinct_ids() {
        let d: KeyDict<Vec<Value>> = KeyDict::new();
        let a = d.encode(vec![Value::Int(1), Value::str("x")]);
        let b = d.encode(vec![Value::Int(1), Value::str("x")]);
        let c = d.encode(vec![Value::Int(2)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn id_hash_ignores_the_ordinal() {
        use crate::hash::stable_hash_of;
        // Two ids with the same stable hash but different ordinals must
        // route identically.
        let a = KeyId((7u64 << 32) | 1);
        let b = KeyId((7u64 << 32) | 2);
        assert_ne!(a, b);
        assert_eq!(stable_hash_of(&a), stable_hash_of(&b));
    }

    #[test]
    fn encoding_is_race_free_across_threads() {
        let d: KeyDict<i64> = KeyDict::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..256i64).map(|k| d.encode(k % 32)).collect::<Vec<_>>()))
                .collect();
            let all: Vec<Vec<KeyId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // Every thread saw the same id for the same key.
            for t in &all[1..] {
                assert_eq!(&all[0], t);
            }
        });
        assert_eq!(d.len(), 32);
    }

    #[test]
    fn stable_half_survives_the_encoding() {
        let d: KeyDict<i64> = KeyDict::new();
        let id = d.encode(99);
        assert_eq!(id.stable_hash(), (stable_hash_of(&99i64) >> 32) as u32);
    }
}
