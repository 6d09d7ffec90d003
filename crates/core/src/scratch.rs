//! Reusable query-execution state: every heap, seen-set and buffer
//! the query paths need, owned in one place so a steady-state query touches
//! the allocator **zero** times.
//!
//! A fresh [`QueryScratch`] is cheap (all containers start empty); after the
//! first query through it, every buffer has grown to its high-water mark and
//! subsequent queries of similar shape allocate nothing. One scratch serves
//! a whole query, all its parts — the one index of an
//! [`SdIndex`](crate::multidim::SdIndex), or every shard of an engine —
//! through the one driver, [`answer_parts`](crate::multidim::answer_parts):
//! its §5 executions share the per-round buffers, the deadline, the frontier
//! heaps and one seen-set over the query's global ids, and the direct 2-D
//! walk of a single-pair query draws on the same heaps. A baseline's
//! `query_with` uses only its answer buffer, profile and deadline.
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

use std::collections::BinaryHeap;

use crate::deadline::Deadline;
use crate::multidim::{Pair2DStream, ShardExecution};
use crate::profile::QueryProfile;
use crate::threshold::FloorEntry;
use crate::topk::arbitrary::PartWalk;
use crate::topk::stream::HeapEntry;
use crate::types::ScoredPoint;

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
    /// Rows already scored by the aggregation, by global id, over every
    /// part of the query (stamped, not hashed: the dedup check runs once per
    /// fetched row).
    pub(crate) seen: StampSet,
    /// The answer buffer `query_with` returns a borrow of.
    pub(crate) answers: Vec<ScoredPoint>,
    /// The rows one aggregation round fetched, staged for batched scoring.
    pub(crate) rows: Vec<u32>,
    /// The heap the [`QueryFloor`](crate::QueryFloor) of a query served
    /// from this scratch alone (`SdIndex::query_with`) borrows: the best
    /// `min(k, n)` `(score, row)` entries seen so far.
    pub(crate) floor: BinaryHeap<FloorEntry>,
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
    /// Recycled pair-stream lists of the §5 aggregation, one per execution
    /// of a query. Each is empty between queries; only the allocations are
    /// retained.
    streams: Vec<Vec<Pair2DStream<'static>>>,
    /// Recycled execution list of the §5 aggregation, one entry per part.
    /// Empty between queries; only the allocation is retained.
    runs: Vec<ShardExecution<'static>>,
    /// Recycled per-part frontier list of the direct single-pair walk. Empty
    /// between queries; only the allocation is retained.
    walks: Vec<PartWalk<'static>>,
    /// The floor updates of each part of the last query, in part order
    /// (see [`QueryScratch::part_floor_updates`]).
    pub(crate) part_floor_updates: Vec<u64>,
}

impl QueryScratch {
    /// Creates an empty scratch. Buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The answer buffer of the most recent query served from this scratch
    /// — the same slice the `query_with` entry points return a borrow of.
    pub fn answers(&self) -> &[ScoredPoint] {
        &self.answers
    }

    /// The answer buffer itself, for a query path outside this crate (a
    /// baseline's `query_with`) to leave its answer where
    /// [`QueryScratch::answers`] reads it.
    pub fn answers_mut(&mut self) -> &mut Vec<ScoredPoint> {
        &mut self.answers
    }

    /// How the last query served from this scratch by the one driver
    /// ([`answer_parts`](crate::multidim::answer_parts)) splits its
    /// `profile.floor_updates` over its parts — one entry per part (an
    /// engine's shard), in the order the driver was handed them, whether
    /// the query walked or aggregated.
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

    /// Hands out a recycled (empty) pair-stream list (or a fresh one) for
    /// assembling one execution's streams; give it back through
    /// [`QueryScratch::put_streams`].
    pub(crate) fn stream_buf<'a>(&mut self) -> Vec<Pair2DStream<'a>> {
        self.streams.pop().unwrap_or_default()
    }

    /// Adopts a drained pair-stream list back into the scratch, keeping its
    /// allocation for the next query.
    pub(crate) fn put_streams(&mut self, v: Vec<Pair2DStream<'_>>) {
        self.streams.push(recycle_vec(v));
    }

    /// Hands out the recycled (empty) execution list of the aggregation;
    /// give it back through [`QueryScratch::put_runs`].
    pub(crate) fn run_buf<'a>(&mut self) -> Vec<ShardExecution<'a>> {
        debug_assert!(self.runs.is_empty());
        std::mem::take(&mut self.runs)
    }

    /// Adopts a drained execution list back into the scratch.
    pub(crate) fn put_runs(&mut self, v: Vec<ShardExecution<'_>>) {
        self.runs = recycle_vec(v);
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
/// (`Vec<Pair2DStream<'a>>`, `Vec<ShardExecution<'a>>`) for the next query's
/// lifetime without allocating again. `T` and `U` must agree in size and
/// alignment (checked at compile time); in practice they are one type at
/// two lifetimes.
fn recycle_vec<T, U>(mut v: Vec<T>) -> Vec<U> {
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
