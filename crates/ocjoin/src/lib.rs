#![warn(missing_docs)]

//! # bigdansing-ocjoin
//!
//! Fast joins with ordering comparisons (§4.3 of the paper).
//!
//! Quality rules like φ2/φD join a table with itself on `<`, `>`, `≤`,
//! `≥` conditions. SQL engines evaluate these as a cross product plus a
//! post-selection — O(n²) pairs materialized — which is exactly what the
//! paper's baselines do and why they fall over (Figures 9(b), 10(b),
//! 11(c)). OCJoin instead:
//!
//! 1. **Partitions** the input into `nb_parts` ranges on the first
//!    condition's attribute (Algorithm 2, lines 1-2);
//! 2. **Sorts** each partition once per condition attribute (lines 4-5),
//!    copying the keys into contiguous arrays;
//! 3. **Prunes** partition pairs whose min/max ranges cannot satisfy the
//!    primary condition in a given orientation (line 7);
//! 4. **Joins** surviving pairs (lines 9-14). With two ordering
//!    conditions a pair runs IEJoin's sweep (Khayyat et al., PVLDB
//!    2015): `t1`s in primary order set the bits of the `t2`s meeting
//!    the first condition, in secondary-key order, and each `t1` emits
//!    the set bits in its second condition's range. Otherwise a
//!    sort-merge pass binary-searches the sorted keys for the primary
//!    condition's range and verifies the remaining conditions.
//!
//! [`naive`] holds the CrossProduct + post-filter comparator used by the
//! physical-operator ablation (Figure 11(c)).
//!
//! The join takes a freshness mask ([`IsFresh`]) and is then
//! semi-naive: it enumerates only the pairs with a fresh member, each
//! once. The mask serves both incremental callers — a batch re-detect
//! marks the tuples a repair round changed, and an incremental session
//! joins every record it holds with its delta batch as the fresh side.

pub mod naive;
pub mod ocjoin;

pub use ocjoin::{try_ocjoin, try_ocjoin_sink, IsFresh, OcJoinConfig, ALL_FRESH};
