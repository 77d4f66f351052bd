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
//! 2. **Sorts** each partition once per condition attribute (lines 4-5);
//! 3. **Prunes** partition pairs whose min/max ranges cannot satisfy the
//!    primary condition in a given orientation (line 7);
//! 4. **Joins** surviving pairs with a sort-merge pass: binary-search the
//!    sorted list for the primary condition's matching range, then verify
//!    the remaining conditions (lines 9-14).
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
