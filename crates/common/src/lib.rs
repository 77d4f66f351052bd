#![warn(missing_docs)]

//! # bigdansing-common
//!
//! The data model shared by every crate in the BigDansing reproduction.
//!
//! BigDansing (SIGMOD 2015, §2.1) defines its input as a set of *data
//! units* — the smallest unit of an input dataset — each carrying
//! *elements* identified by model-specific functions. For relational data
//! the unit is a [`Tuple`] and the elements are its attributes, addressed
//! through [`Cell`]s. For RDF data the unit is a triple (see [`rdf`]),
//! which maps onto a 3-attribute tuple.
//!
//! This crate provides:
//!
//! * [`Value`] — a dynamically typed cell value with a total order,
//! * [`Schema`] / [`Tuple`] / [`Cell`] / [`Table`] — the relational model,
//! * [`csv`] — a small CSV parser/writer used by examples and tools,
//! * [`rdf`] — the RDF triple model of Appendix C,
//! * [`sim`] — similarity functions (Levenshtein) used by dedup rules,
//! * [`minhash`] — MinHash signatures + banded LSH bucketing used to
//!   block similarity rules sub-quadratically,
//! * [`metrics`] — lightweight counters used to validate experiment shape,
//! * [`codec`] — the binary row codec used by the disk-backed execution
//!   mode that simulates Hadoop-style per-stage materialization,
//! * [`layout`] — the binary column-oriented table file with Scope
//!   pushdown (Appendix F (3)),
//! * [`quarantine`] — reports of malformed input rows set aside by the
//!   lenient parse modes instead of aborting the load,
//! * [`sync`] — the poison-ignoring [`Mutex`] every crate locks with,
//! * [`rng`] — the one seeded generator ([`rng::SplitMix64`]) and the
//!   property-test case runner ([`rng::check`]).

pub mod codec;
pub mod csv;
pub mod error;
pub mod hash;
pub mod keys;
pub mod layout;
pub mod metrics;
pub mod minhash;
pub mod quarantine;
pub mod rdf;
pub mod rng;
pub mod schema;
pub mod sim;
pub mod sync;
pub mod table;
pub mod tuple;
pub mod value;

pub use error::{CancelReason, Error, Result};
pub use hash::{stable_hash_of, StableHasher};
pub use keys::{KeyDict, KeyId};
pub use minhash::LshParams;
pub use quarantine::Quarantine;
pub use schema::Schema;
pub use sync::Mutex;
pub use table::Table;
pub use tuple::{Cell, Selector, Tuple, TupleId};
pub use value::Value;
