//! # sdq-data
//!
//! Workload generators for the SD-Query evaluation (§6.1, §6.3):
//!
//! * [`synthetic`] — uniform, correlated and anti-correlated point clouds
//!   (the standard Börzsönyi-style generators used throughout the top-k /
//!   skyline literature) at any dimensionality and size,
//! * [`chembl`] — a synthetic stand-in for the ChEMBL v2 molecule dump
//!   (428,913 molecules with drug-likeness, molecular weight, polar surface
//!   area and logP) whose marginals match the statistics the paper reports
//!   and which embeds the high-MW / low-PSA / drug-like subpopulation that
//!   Table 1 discovers,
//! * [`queries`] — query workloads: 100 uniform query points with weights
//!   drawn from `U(0, 1)`, the paper's default.
//!
//! All generators are deterministic given a seed.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chembl;
pub mod queries;
pub mod rng;
pub mod synthetic;

pub use chembl::{generate_chembl, ChemblConfig, MoleculeDim};
pub use queries::{uniform_queries, uniform_queries_unit_weights};
pub use synthetic::{generate, Distribution};
