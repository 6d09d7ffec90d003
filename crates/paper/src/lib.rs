//! # sdq-paper
//!
//! The SD-Query paper's reference structures (Ranu & Singh, PVLDB 5(3),
//! 2011), as written, over 2-D points (`x` attractive, `y` repulsive):
//!
//! * [`geometry`] — the projection types of Definition 4 and Eqn. 6, and
//!   the score-via-projection identities of Claims 1–3,
//! * [`envelope`] — tent-envelope line sweeps (Alg. 1) and k-levels,
//! * [`top1`] — the §3 region index for `k`, `α`, `β` fixed at build time
//!   (`O(log n)` query, point inserts and deletes),
//! * [`topk`] — the §4 dynamic tree for runtime `k`, `α`, `β`: one point
//!   per leaf slot, point-level inserts and deletes, the |U|/n rebuild
//!   policy, the certified per-type frontier (Alg. 2–3) and Alg. 4.
//!
//! They are what fig. 8 of the paper measures (`sdq-bench`'s branching,
//! insert, update, top-1, construction and memory experiments), and an
//! oracle independent of what an engine ships: `sdq-core` stores a pair as a
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

pub mod envelope;
pub mod geometry;
pub mod top1;
pub mod topk;

pub use top1::Top1Index;
pub use topk::{QueryScratch, TopKIndex};
