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
//!    sort-merge pass takes the sorted keys in the primary condition's
//!    range and verifies the remaining conditions. When each sorted
//!    condition compares an attribute with itself, both read the `t1`
//!    keys from the part's own sorted arrays and every range from
//!    IEJoin's offset array (one galloping merge of two key arrays),
//!    touching a tuple only for a candidate pair; across attributes they
//!    read the keys through the tuples and binary-search the ranges.
//!
//! [`naive`] holds the CrossProduct + post-filter comparator used by the
//! physical-operator ablation (Figure 11(c)).
//!
//! Its resident form, a [`JoinIndex`], keeps the sorted range parts of
//! steps 1–2 between joins, so that later joins skip them. Both
//! incremental callers — a batch re-detect after a repair round, and an
//! incremental session's apply — stage their change in it: the held
//! versions of the changed and deleted records turn stale, and the new
//! versions are sorted into one small Δ part. The next join is
//! ΔR ⋈ R ∪ R ⋈ ΔR ∪ ΔR ⋈ ΔR — steps 3–4 over the parts plus Δ, skipping
//! stale members — and a merge then folds Δ into the touched parts'
//! sorted arrays, merging the sorted additions into each array's live
//! run. That Δ-join is the only semi-naive join: a join built from a
//! dataset enumerates every pair.

pub mod naive;
pub mod ocjoin;

pub use ocjoin::{try_ocjoin, try_ocjoin_sink, JoinIndex, OcJoinConfig};
