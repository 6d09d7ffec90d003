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
//! * [`topk`] — the §4 index for runtime `k`, `α`, `β`: the dynamic tree
//!   ([`TopKIndex`]: one point per leaf slot, point-level inserts and
//!   deletes, the |U|/n rebuild policy, the certified per-type frontier of
//!   Alg. 2–3 and Alg. 4), and its bulk-loaded block form ([`BlockIndex`]:
//!   32-point tiled leaves under fanout-8 envelopes, one certified walk at
//!   any weight angle, and the §5 pair stream),
//! * [`pairing`] — the §5 pairing step: arbitrary, as the paper does, or
//!   greedy by correlation, its future-work direction;
//! * [`aggregate`] — the §5 SD-index ([`PairedIndex`]): one [`BlockIndex`]
//!   per repulsive↔attractive pair, each streamed through a
//!   [`Pair2DStream`](topk::Pair2DStream), the unpaired dimensions bounded
//!   by their extents, and a TA-style threshold loop over them.
//!
//! They are what figs. 7 and 8 of the paper measure (`sdq-bench`'s
//! experiments), and an oracle independent of what an engine ships — an
//! engine answers every query, a single pair's too, with one box scan, never
//! with the §4 walk or the §5 streams. No engine, store or baseline crate
//! depends on this one. What it shares with `sdq-core` is the §2 geometry
//! (`sdq_core::geometry`), the row kernel and the query floor, so a
//! [`TopKIndex`], a [`BlockIndex`] and an `SdIndex` over roles `[a, r]`
//! answer every query bit for bit alike.
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
pub mod pairing;
pub mod top1;
pub mod topk;

pub use aggregate::{PairedIndex, PairedOptions};
pub use pairing::{pair_dimensions, DimPair, PairingStrategy};
pub use top1::Top1Index;
pub use topk::{BlockIndex, QueryScratch, TopKIndex};

use sdq_core::geometry::Angle;

/// The five indexed angles of the paper's §6.1 (0, 23, 45, 67, 90 there;
/// the exact uniform grid here): what [`TopKIndex::build`] indexes and what
/// the §6 reproductions (`sdq-bench`) build their SD-indexes over. A
/// [`PairedIndex`]'s default is three ([`topk::default_angles`]).
pub fn section6_angles() -> Vec<Angle> {
    [0.0, 22.5, 45.0, 67.5, 90.0]
        .iter()
        .map(|&d| Angle::from_degrees(d).expect("static angles are valid"))
        .collect()
}
