//! The benchmark's whole view of the program: every `sdq_*` item any other
//! file of this package names is re-exported here and nowhere else, so the
//! surface a refactor of the engine has to keep alive is this one list.
//!
//! Deliberately absent: the v1–v4 writers, `SdIndex::query_shared` /
//! `query_masked` / `begin_query*`, the `threshold_aggregate*` family,
//! `PackedTopKIndex` and `Top1Index`.

pub use sdq_baselines::{SeqScan, TaIndex};
pub use sdq_core::integrity::crc32c;
pub use sdq_core::multidim::SdIndex;
pub use sdq_core::{
    sd_score, CrcState, Dataset, DimRole, LatencyHisto, PointId, QueryProfile, QueryScratch,
    ScoredPoint, SdQuery,
};
pub use sdq_data::{generate, uniform_queries, Distribution};
pub use sdq_engine::{EngineOptions, EngineScratch, SdEngine};
pub use sdq_store::{
    DiskStorage, DurableEngine, DurableOptions, MappedSnapshot, Snapshot, SyncPolicy,
};

/// The four kernel entry points the micro-timings call.
pub mod kernels {
    pub use sdq_core::kernels::{active, score_add_dim, score_zero, survivors, LANES};
}
