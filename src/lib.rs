//! Umbrella crate for the BigDansing reproduction workspace.
//!
//! This crate exists so that the repository root can host the cross-crate
//! integration tests (`/tests`) and the runnable examples (`/examples`).
//! It re-exports every workspace crate under one roof for convenience.

pub use bigdansing;
pub use bigdansing_baselines as baselines;
pub use bigdansing_common as common;
pub use bigdansing_dataflow as dataflow;
pub use bigdansing_datagen as datagen;
pub use bigdansing_ocjoin as ocjoin;
pub use bigdansing_plan as plan;
pub use bigdansing_repair as repair;
pub use bigdansing_rules as rules;
