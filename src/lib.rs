//! # sdq — SD-Query facade
//!
//! Umbrella crate re-exporting the whole SD-Query workspace: the core index
//! structures ([`sdq_core`]), the sharded engine ([`sdq_engine`]), the
//! evaluation baselines ([`sdq_baselines`]), the R*-tree substrate
//! ([`sdq_rstar`]), the workload generators ([`sdq_data`]), the snapshot
//! persistence layer ([`sdq_store`]) and the paper's §3–§4 reference
//! structures, which no engine path reaches ([`sdq_paper`]).
//!
//! See the repository `README.md` for a guided tour and the paper-to-module
//! mapping.

pub use sdq_baselines as baselines;
pub use sdq_core as core;
pub use sdq_data as data;
pub use sdq_engine as engine;
pub use sdq_paper as paper;
pub use sdq_rstar as rstar;
pub use sdq_store as store;

pub use sdq_core::{sd_score, Dataset, DimRole, PointId, ScoredPoint, SdError, SdQuery};
