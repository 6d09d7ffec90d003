//! # sdq-paper
//!
//! The SD-Query paper's reference structures (Ranu & Singh, PVLDB 5(3),
//! 2011), as written — over 2-D points (`x` attractive, `y` repulsive), and
//! the §5 aggregation over any number of dimensions:
//!
//! * [`geometry`] — the projection types of Definition 4 and Eqn. 6, and
//!   the score-via-projection identities of Claims 1–3,
//! * [`envelope`] — tent-envelope line sweeps (Alg. 1) and k-levels,
//! * [`top1`] — the §3 region index for `k`, `α`, `β` fixed at build time
//!   (`O(log n)` query, point inserts and deletes),
//! * [`topk`] — the §4 dynamic tree for runtime `k`, `α`, `β`: one point
//!   per leaf slot, point-level inserts and deletes, the |U|/n rebuild
//!   policy, the certified per-type frontier (Alg. 2–3) and Alg. 4,
//! * [`aggregate`] — the §5 SD-index ([`PairedIndex`]): one §4 index per
//!   repulsive↔attractive pair, each streamed through `sdq-core`'s
//!   `Pair2DStream`, the unpaired dimensions bounded by their extents, and
//!   a TA-style threshold loop over them.
//!
//! They are what figs. 7 and 8 of the paper measure (`sdq-bench`'s
//! experiments), and an oracle independent of what an engine ships — an
//! engine answers a single pair with the §4 walk and every other query with
//! one box scan, never with the §5 streams: `sdq-core` stores a pair as a
//! bulk-loaded block set and takes updates through a delta, tombstones and
//! compaction, never through the tree. No engine, store or baseline crate
//! depends on this one. What it shares with `sdq-core` is the §2 geometry,
//! the envelope bounds and the closed-form Claim 6 evaluation
//! (`sdq_core::topk`), so a [`TopKIndex`] and an `SdIndex` over roles
//! `[a, r]` answer every query bit for bit alike.
//!
//! ```
//! use sdq_paper::TopKIndex;
//!
//! let mut index = TopKIndex::build(&[(1.0, 9.0), (1.1, 2.0), (7.0, 8.5)]).unwrap();
//! let top = index.query(1.0, 2.0, 2.0, 2.0, 1).unwrap();
//! assert_eq!(top[0].id.index(), 0); // same x as q, far away in y
//! let id = index.insert(1.0, 20.0).unwrap();
//! assert_eq!(index.query(1.0, 2.0, 2.0, 2.0, 1).unwrap()[0].id, id);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aggregate;
pub mod envelope;
pub mod geometry;
pub mod top1;
pub mod topk;

pub use aggregate::PairedIndex;
pub use top1::Top1Index;
pub use topk::{QueryScratch, TopKIndex};

use sdq_core::geometry::Angle;

/// The five indexed angles of the paper's §6.1 (0, 23, 45, 67, 90 there;
/// the exact uniform grid here): what [`TopKIndex::build`] indexes and what
/// the §6 reproductions (`sdq-bench`) build their SD-indexes over. An
/// engine's default is three (`sdq_core::topk::default_angles`).
pub fn section6_angles() -> Vec<Angle> {
    [0.0, 22.5, 45.0, 67.5, 90.0]
        .iter()
        .map(|&d| Angle::from_degrees(d).expect("static angles are valid"))
        .collect()
}
