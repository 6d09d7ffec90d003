//! Reusable query-execution state: every heap, pool, seen-set and buffer
//! the query paths need, owned in one place so a steady-state query touches
//! the allocator **zero** times.
//!
//! A fresh [`QueryScratch`] is cheap (all containers start empty); after the
//! first query through it, every buffer has grown to its high-water mark and
//! subsequent queries of similar shape allocate nothing. One scratch serves
//! every query path in the crate — the §5 aggregation of an
//! [`SdIndex`](crate::multidim::SdIndex), the direct 2-D walk of a
//! single-pair query and the baselines' `query_with` — because they all
//! decompose into the same primitives: frontier heaps, a candidate pool, a
//! seen-set and an answer buffer.
//!
//! Scratches are plain owned values: keep one per worker thread and reuse
//! it across queries. The indexes themselves stay immutable during
//! queries and are freely shared across threads.
//!
//! ```
//! use sdq_core::{Dataset, DimRole, QueryScratch, SdQuery};
//! use sdq_core::multidim::SdIndex;
//!
//! let data = Dataset::from_rows(2, &[
//!     vec![1.0, 9.0],
//!     vec![1.1, 2.0],
//!     vec![7.0, 8.5],
//! ]).unwrap();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive];
//! let index = SdIndex::build(data, &roles).unwrap();
//!
//! // One scratch, many queries: buffers are recycled between calls.
//! let mut scratch = QueryScratch::new();
//! for qy in [0.0, 1.0, 2.0] {
//!     let query = SdQuery::uniform_weights(vec![1.0, qy], &roles);
//!     let top = index.query_with(&query, 1, &mut scratch).unwrap();
//!     assert_eq!(top[0].id.index(), 0);
//! }
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::deadline::Deadline;
use crate::multidim::Subproblem;
use crate::profile::QueryProfile;
use crate::topk::arbitrary::PartWalk;
use crate::topk::stream::HeapEntry;
use crate::types::{OrdF64, ScoredPoint};

/// A generation-stamped membership set over dense row ids `0..n`: one
/// `u32` stamp per row, `insert` is a single indexed compare-and-store —
/// an order of magnitude cheaper than hashing on the aggregation's
/// per-fetched-row dedup path. `begin(n)` opens a new generation (O(1)
/// amortised; the stamp array zeroes only on first growth and on the
/// ~4-billion-query generation wrap).
#[derive(Default)]
pub(crate) struct StampSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl StampSet {
    /// Starts a fresh set over ids `0..n` without clearing memory.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stale stamps from 2^32 generations ago could alias.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Bit `l` set when row `start + l` is **not** in the current
    /// generation, for the `count ≤ 32` rows from `start`: one slice
    /// compare over the stamps.
    #[inline]
    pub(crate) fn unseen_word(&self, start: usize, count: usize) -> u32 {
        debug_assert!(count <= 32);
        let mut word = 0u32;
        for (l, &stamp) in self.stamps[start..start + count].iter().enumerate() {
            word |= u32::from(stamp != self.generation) << l;
        }
        word
    }

    /// `true` when `row` was not yet in the current generation.
    #[inline]
    pub(crate) fn insert(&mut self, row: u32) -> bool {
        let slot = &mut self.stamps[row as usize];
        let fresh = *slot != self.generation;
        *slot = self.generation;
        fresh
    }
}

/// Owned, reusable buffers for the whole query path.
///
/// Obtain one with [`QueryScratch::new`], then pass it to the `query_with`
/// entry points ([`SdIndex::query_with`](crate::multidim::SdIndex::query_with)
/// or a baseline's equivalent). Results are returned as a slice borrowed from the
/// scratch — copy them out if they must outlive the next query.
///
/// The plain `query()` methods are thin wrappers that run `query_with` over
/// a fresh scratch, so both entry points return bit-identical answers.
#[derive(Default)]
pub struct QueryScratch {
    /// Recycled frontier heaps, one per block frontier of a query.
    pub(crate) heaps: Vec<BinaryHeap<HeapEntry>>,
    /// Candidate pool of the outer threshold loop (TA aggregation and the
    /// bracketed single-pair path).
    pub(crate) pool: BinaryHeap<(OrdF64, Reverse<u32>)>,
    /// Rows already scored by the outer loop (stamped, not hashed: the
    /// dedup check runs once per fetched row).
    pub(crate) seen: StampSet,
    /// The answer buffer `query_with` returns a borrow of.
    pub(crate) answers: Vec<ScoredPoint>,
    /// The rows one aggregation round fetched, staged for batched scoring.
    pub(crate) rows: Vec<u32>,
    /// The heap the [`QueryFloor`](crate::QueryFloor) of a query served
    /// from this scratch alone (`query_with`, the TA entry) borrows: the
    /// best `min(k, n)` exact scores seen so far.
    pub(crate) floor: BinaryHeap<Reverse<OrdF64>>,
    /// Gather buffer of the batched aggregation: fetched rows transposed
    /// into dimension-major SoA lanes for the scoring kernels
    /// (`dims × LANES` once warmed).
    pub(crate) gather: Vec<f64>,
    /// Per-lane kernel output of the batched aggregation.
    pub(crate) scores: Vec<f64>,
    /// Per-stream bound staging of one aggregation round (feeds the
    /// block-level floor-pruning thresholds).
    pub(crate) fbuf: Vec<f64>,
    /// Execution counters of the most recent query served from this
    /// scratch — reset at query start, always on (see
    /// [`QueryProfile`]). Set [`QueryProfile::timing`] before querying to
    /// also collect per-stage nanosecond timings.
    pub profile: QueryProfile,
    /// Cooperative deadline/cancel token of the next query served from
    /// this scratch, checked once per aggregation round. The default is
    /// unlimited (a single predictable branch per check); a bounded
    /// deadline captures its expiry at construction, so set a fresh one
    /// per query.
    pub deadline: Deadline,
    /// Recycled subproblem list of the §5 aggregation. Empty between
    /// queries; only the allocation is retained.
    subproblems: Vec<Subproblem<'static>>,
    /// Recycled per-part frontier list of the direct single-pair walk. Empty
    /// between queries; only the allocation is retained.
    walks: Vec<PartWalk<'static>>,
    /// The floor updates of each part of the last direct walk, in part
    /// order (see [`QueryScratch::part_floor_updates`]).
    pub(crate) part_floor_updates: Vec<u64>,
}

impl QueryScratch {
    /// Creates an empty scratch. Buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The answer buffer of the most recent query (or
    /// [`ShardExecution::finish_into`](crate::multidim::ShardExecution::finish_into))
    /// served from this scratch — the same slice the `query_with` entry
    /// points return a borrow of.
    pub fn answers(&self) -> &[ScoredPoint] {
        &self.answers
    }

    /// How the last direct single-pair walk
    /// ([`SinglePair::walk`](crate::multidim::SinglePair::walk)) served from
    /// this scratch splits its `profile.floor_updates` over its parts — one
    /// entry per shard, in the order the walk was handed them. Not touched
    /// by other query paths.
    pub fn part_floor_updates(&self) -> &[u64] {
        &self.part_floor_updates
    }

    /// Pops a recycled frontier heap (or a fresh one).
    pub(crate) fn take_heap(&mut self) -> BinaryHeap<HeapEntry> {
        self.heaps.pop().unwrap_or_default()
    }

    /// Returns a frontier heap to the pool for reuse.
    pub(crate) fn put_heap(&mut self, heap: BinaryHeap<HeapEntry>) {
        self.heaps.push(heap);
    }

    /// Hands out the recycled (empty) subproblem buffer for assembling a
    /// query's stream list. Give it back through
    /// [`threshold_aggregate_with`](crate::multidim::threshold_aggregate_with),
    /// which drains it and returns the allocation here.
    ///
    /// The move out is safe at any caller lifetime because `Subproblem` is
    /// covariant and the vector is empty.
    pub fn stream_buf<'a>(&mut self) -> Vec<Subproblem<'a>> {
        debug_assert!(self.subproblems.is_empty());
        std::mem::take(&mut self.subproblems)
    }

    /// Adopts a drained subproblem buffer back into the scratch, keeping
    /// its allocation for the next query.
    pub(crate) fn put_streams(&mut self, v: Vec<Subproblem<'_>>) {
        self.subproblems = recycle_vec(v);
    }

    /// Hands out the recycled (empty) part list of the direct walk; give it
    /// back through [`QueryScratch::put_walks`].
    pub(crate) fn walk_buf<'a>(&mut self) -> Vec<PartWalk<'a>> {
        debug_assert!(self.walks.is_empty());
        std::mem::take(&mut self.walks)
    }

    /// Adopts a drained part list back into the scratch.
    pub(crate) fn put_walks(&mut self, v: Vec<PartWalk<'_>>) {
        self.walks = recycle_vec(v);
    }
}

/// Empties `v` and hands its allocation on as an empty `Vec<U>` — how a
/// scratch keeps a buffer whose element type borrows from one query
/// (`Vec<Subproblem<'a>>`, the engine's `Vec<ShardExecution<'a>>`) for the
/// next query's lifetime without allocating again. `T` and `U` must agree in
/// size and alignment (checked at compile time); in practice they are one
/// type at two lifetimes.
pub fn recycle_vec<T, U>(mut v: Vec<T>) -> Vec<U> {
    const {
        assert!(
            std::mem::size_of::<T>() == std::mem::size_of::<U>()
                && std::mem::align_of::<T>() == std::mem::align_of::<U>()
        )
    };
    v.clear();
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    std::mem::forget(v);
    // SAFETY: the vector is empty, so no `T` survives to be read as a `U`;
    // only the raw allocation is adopted. It was made by the global
    // allocator for `cap` elements of `T`'s size and alignment, which the
    // assertion above makes `U`'s size and alignment too — all that
    // `from_raw_parts` requires of a zero-length vector.
    unsafe { Vec::from_raw_parts(ptr.cast::<U>(), 0, cap) }
}
