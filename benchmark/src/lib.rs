//! The repo benchmark. `README.md` has the workloads, the metrics, the
//! predictions and the measurement protocol; `api.rs` is the only file
//! that names the program under test.

pub mod alloc;
pub mod api;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
