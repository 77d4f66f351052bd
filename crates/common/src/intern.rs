//! A global string interner for loaded cell values.
//!
//! CSV columns repeat heavily (cities, states, codes); interning them
//! at parse time means (1) one heap allocation per *distinct* string
//! instead of per cell, and (2) repeated values share one `Arc<str>`,
//! so the `Value` comparison fast path (`Arc::ptr_eq`) short-circuits
//! the common equal case inside sorts, group builds, and OCJoin binary
//! searches.
//!
//! The pool is append-only for the process lifetime (bounded by the
//! number of distinct strings ever loaded) and sharded to keep parallel
//! loaders off each other's locks.

use crate::hash::stable_hash_of;
use crate::sync::Mutex;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 32;

static POOL: OnceLock<Vec<Mutex<HashSet<Arc<str>>>>> = OnceLock::new();

fn pool() -> &'static [Mutex<HashSet<Arc<str>>>] {
    POOL.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(HashSet::new())).collect())
}

/// Intern `s`: returns the pooled `Arc<str>`, allocating only on first
/// sight.
pub fn intern(s: &str) -> Arc<str> {
    let shard = &pool()[(stable_hash_of(s) as usize) % SHARDS];
    let mut set = shard.lock();
    if let Some(hit) = set.get(s) {
        return Arc::clone(hit);
    }
    let fresh: Arc<str> = Arc::from(s);
    set.insert(Arc::clone(&fresh));
    fresh
}

/// Number of distinct strings currently pooled.
pub fn interned_count() -> usize {
    pool().iter().map(|s| s.lock().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_interns_share_one_allocation() {
        let a = intern("intern-test-city");
        let b = intern("intern-test-city");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, "intern-test-city");
    }

    #[test]
    fn distinct_strings_stay_distinct() {
        let a = intern("intern-test-x");
        let b = intern("intern-test-y");
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
