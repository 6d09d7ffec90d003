//! # sdq-baselines
//!
//! The four comparison methods of the SD-Query evaluation (§6.1), each
//! answering the same non-monotonic top-k query exactly:
//!
//! * [`seqscan`] — sequential scan with a bounded result heap (also the
//!   test oracle for the whole workspace),
//! * [`ta`] — the adapted Threshold Algorithm \[Fagin et al., PODS'01\]:
//!   one sorted list per dimension, bidirectional pointers (farthest-first
//!   on repulsive dimensions, nearest-first on attractive ones) and the TA
//!   stopping rule,
//! * [`brs`] — Branch-and-Bound Processing of Ranked Queries \[Tao et al.,
//!   Inf. Syst. 2007\] over an in-memory R*-tree with closed-form MBR score
//!   bounds,
//! * [`pe`] — Progressive Exploration \[Xin, Han & Chang, SIGMOD'07\]:
//!   best-first exploration of the joint space of per-dimension
//!   hierarchies, degrading to a scan past its exploration budget (the
//!   behaviour the paper reports at d ≥ 6).
//!
//! All methods share the [`TopKAlgorithm`] trait so the benchmark harness
//! can drive them interchangeably.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod brs;
pub mod pe;
pub mod seqscan;
pub mod ta;

pub use brs::BrsIndex;
pub use pe::PeIndex;
pub use seqscan::SeqScan;
pub use ta::TaIndex;

use sdq_core::{ScoredPoint, SdError, SdQuery};

/// A uniform facade over every top-k method in the workspace, used by the
/// experiment harness.
pub trait TopKAlgorithm {
    /// Short method name, as used in the paper's plots.
    fn name(&self) -> &'static str;
    /// Exact top-k under the method's build-time roles.
    fn top_k(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError>;
}

impl TopKAlgorithm for sdq_core::multidim::SdIndex {
    fn name(&self) -> &'static str {
        "SD-Index"
    }
    fn top_k(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        self.query(query, k)
    }
}
