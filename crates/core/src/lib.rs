//! # sdq-core
//!
//! Core index structures for the **SD-Query** — top-k queries over a mixture
//! of attractive and repulsive dimensions (Ranu & Singh, PVLDB 5(3), 2011).
//!
//! Given a dataset of multidimensional points, a query point `q`, a set of
//! *repulsive* dimensions `D` (distance is desirable) and *attractive*
//! dimensions `S` (similarity is desirable) with weights `α`/`β`, the
//! SD-Query returns the `k` points maximising
//!
//! ```text
//! SD-score(p, q) = Σ_{i∈D} α_i·|p_i − q_i| − Σ_{j∈S} β_j·|p_j − q_j|
//! ```
//!
//! The crate provides:
//!
//! * [`geometry`] — the isoline/projection machinery of §2 (Claims 1–4),
//! * [`topk`] — the §4 projection-bound index for runtime `k`, `α`, `β`, in
//!   the bulk-loaded block form an engine shard stores per pair,
//! * [`multidim`] — the §5 pairing + threshold aggregation for any number of
//!   dimensions, with a per-pair [`planner`](multidim::plan) rule (every
//!   pair walks its own §4 frontier, indexed or Claim-6 bracketed) and one
//!   driver, [`answer_parts`](multidim::answer_parts), that answers a query
//!   over one index or over every shard of an engine,
//! * [`threshold`] — the one answer heap and k-th-score floor of a query
//!   ([`QueryFloor`]),
//! * [`mask`] — tombstone bitmaps ([`RowMask`]) whose dead rows are dropped
//!   at scoring time by every masked query path,
//! * [`delta`] — the exact scan of the engine's append-only delta region
//!   (the write path's unindexed rows): the scan exit's row kernel
//!   ([`kernels::score_rows`]) over the row-major delta rows,
//! * [`score`] — scoring kernels shared by indexes, baselines and tests,
//! * [`profile`] — always-on per-query execution counters ([`QueryProfile`])
//!   behind every hot path: pruning effectiveness, kernel batches, floor
//!   convergence, per-stage timings,
//! * [`telemetry`] — lock-free log-scale latency histograms
//!   ([`LatencyHisto`]), the bounded lifecycle [`EventJournal`] and the
//!   process-global registry ([`Telemetry`]) that the Prometheus exporter
//!   and slow-query log are built on,
//! * [`QueryScratch`] — reusable query-execution buffers; the `query_with`
//!   entry points answer steady-state queries with zero heap allocations,
//! * [`codec`] — serde-free binary round-trips of datasets and indexes (the
//!   foundation of the `sdq-store` snapshot layer; see its module docs for a
//!   persistence example).
//!
//! The paper's reference structures that no engine path reaches — the §3
//! top-1 region index, the Alg. 1 envelopes and the §4 dynamic tree with its
//! point updates — are the `sdq-paper` crate, built on this one.
//!
//! ## Quick start
//!
//! ```
//! use sdq_core::{Dataset, DimRole, SdQuery, multidim::SdIndex};
//!
//! // Two dimensions: similarity on x (attractive), distance on y (repulsive).
//! let data = Dataset::from_rows(2, &[
//!     vec![1.0, 9.0],
//!     vec![1.1, 2.0],
//!     vec![7.0, 8.5],
//! ]).unwrap();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive];
//! let index = SdIndex::build(data, &roles).unwrap();
//! let query = SdQuery::uniform_weights(vec![1.0, 2.0], &roles);
//! let top = index.query(&query, 1).unwrap();
//! assert_eq!(top[0].id.index(), 0); // same x as q, far away in y
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod deadline;
pub mod delta;
pub mod geometry;
pub mod integrity;
pub mod kernels;
pub mod mask;
pub mod multidim;
pub mod profile;
pub mod score;
mod scratch;
pub mod telemetry;
pub mod threshold;
pub mod topk;
mod types;
pub mod view;

pub use deadline::{CancelToken, Deadline};
pub use integrity::{CrcState, SectionIntegrity};
pub use mask::{MaskView, RowMask};
pub use profile::QueryProfile;
pub use score::{sd_score, DimRole, SdQuery};
pub use scratch::QueryScratch;
pub use telemetry::{EventJournal, EventKind, EventRecord, HistoSnapshot, LatencyHisto, Telemetry};
pub use threshold::{FloorEntry, QueryFloor, Verdict};
pub use types::{check_coordinate, Dataset, OrdF64, PointId, ScoredPoint, SdError, MAX_MAGNITUDE};
pub use view::ColumnarView;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, SdError>;
