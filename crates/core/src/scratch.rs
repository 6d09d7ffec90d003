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
//! the box scan of every part shares the descent's heap, the chunk bounds,
//! the staged weights and the deadline.
//!
//! Every `query_with` — the index's, the engine's (an engine's scratch is
//! this one) and the TA baseline's — ends in the scratch's one answer step,
//! [`QueryScratch::answer_with`]: one [`QueryFloor`] over the scratch's
//! recycled heap, every scorer of the query offering its exact scores to
//! it, and one drain of it into the answer buffer. The entry point resets
//! the one [`QueryProfile`] once; the delta scan, the driver and the
//! baseline's own loop add their counters to it and check the one
//! [`Deadline`], so one scratch serves an index, an engine and a baseline
//! in turn, each query reading its own answer and profile.
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
use crate::multidim::ScanBufs;
use crate::profile::QueryProfile;
use crate::threshold::{FloorEntry, QueryFloor};
use crate::types::{ScoredPoint, SdError};

/// The seen-set of a caller's own per-query loop, served from a
/// [`QueryScratch`] ([`QueryScratch::loop_scratch`]): which row ids of
/// `0..n` the loop has met this query — one bit a row, cleared when the
/// loop begins (`n / 8` bytes), so it stays in cache where a byte or a stamp
/// a row would not, and allocates nothing once the scratch has served `n`
/// rows.
pub struct SeenRows<'a> {
    bits: &'a mut Vec<u64>,
}

impl SeenRows<'_> {
    /// `true` the first time `row` is inserted this query.
    ///
    /// # Panics
    ///
    /// When `row` is not below the `n` the set was opened over.
    #[inline]
    pub fn insert(&mut self, row: u32) -> bool {
        let (word, bit) = (row as usize / 64, 1u64 << (row % 64));
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }
}

/// What a caller's own per-query loop — one that answers through
/// [`QueryScratch::answer_with`] but is not the crate's driver, like the
/// adapted-TA baseline — borrows from the scratch, all at once.
pub struct LoopScratch<'a> {
    /// Row ids met so far this query, over `0..n`.
    pub seen: SeenRows<'a>,
    /// A recycled list of words for the loop's own per-query state, left
    /// empty (the adapted-TA baseline keeps each sorted list's two cursors
    /// in it).
    pub words: &'a mut Vec<usize>,
    /// The query's profile, for the loop's counters.
    pub profile: &'a mut QueryProfile,
    /// The query's deadline, for the loop to check.
    pub deadline: &'a Deadline,
}

/// Owned, reusable buffers for the whole query path.
///
/// Obtain one with [`QueryScratch::new`], then pass it to the `query_with`
/// entry points ([`SdIndex::query_with`](crate::multidim::SdIndex::query_with),
/// the engine's or the TA baseline's). Results are returned as a slice
/// borrowed from the scratch — copy them out if they must outlive the next
/// query.
///
/// The plain `query()` methods are thin wrappers that run `query_with` over
/// a fresh scratch, so both entry points return bit-identical answers.
#[derive(Default)]
pub struct QueryScratch {
    /// The answer buffer `query_with` returns a borrow of.
    pub(crate) answers: Vec<ScoredPoint>,
    /// The heap the [`QueryFloor`] of the query served from this scratch
    /// borrows ([`QueryScratch::answer_with`]): the best `min(k, n)`
    /// `(score, id)` entries seen so far.
    floor: BinaryHeap<FloorEntry>,
    /// Per-lane kernel output of the box scan.
    pub(crate) scores: Vec<f64>,
    /// The role-signed weights of the query, staged by the delta scan and
    /// the driver for every scorer of the query's parts.
    pub(crate) fbuf: Vec<f64>,
    /// The box scan's descent heap, the chunks its lead scored and the
    /// chunk bounds it took.
    pub(crate) scan: ScanBufs,
    /// Execution counters of the most recent query served from this
    /// scratch — reset at query start, always on (see
    /// [`QueryProfile`]). Set [`QueryProfile::timing`] before querying to
    /// also collect per-stage nanosecond timings.
    pub profile: QueryProfile,
    /// Cooperative deadline/cancel token of the next query served from
    /// this scratch, checked by every scorer of the query: once per
    /// scanned piece of rows and delta chunk. The
    /// default is unlimited (a single predictable branch per check); a
    /// bounded deadline captures its expiry at construction, so set a fresh
    /// one per query.
    pub deadline: Deadline,
    /// The floor updates of each part of the last query, in part order
    /// (see [`QueryScratch::part_floor_updates`]).
    pub(crate) part_floor_updates: Vec<u64>,
    /// The recycled seen bits and words of [`QueryScratch::loop_scratch`].
    loop_seen: Vec<u64>,
    loop_words: Vec<usize>,
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

    /// The one answer step of every `query_with`: makes a fresh
    /// [`QueryFloor`] of `cap` entries — `min(k, live rows the query
    /// ranks)` — over this scratch's recycled heap, runs `score` with the
    /// scratch and the floor, and on success drains the floor into the
    /// answer buffer, setting `profile.floor_value` and `profile.emitted`
    /// (the drain timed as `merge_nanos`). The profile is not reset here:
    /// the entry point resets it once, before its first scorer. On an error
    /// the previous answer stays and the profile holds the work done so
    /// far.
    pub fn answer_with<F>(&mut self, cap: usize, score: F) -> Result<&[ScoredPoint], SdError>
    where
        F: FnOnce(&mut QueryScratch, &mut QueryFloor<'_>) -> Result<(), SdError>,
    {
        let mut heap = std::mem::take(&mut self.floor);
        let mut floor = QueryFloor::new(&mut heap, cap);
        let ran = score(self, &mut floor);
        if ran.is_ok() {
            let t0 = self.profile.timing.then(std::time::Instant::now);
            self.profile.floor_value = floor.value();
            floor.drain_into(&mut self.answers);
            self.profile.emitted = self.answers.len() as u64;
            if let Some(t0) = t0 {
                self.profile.merge_nanos += t0.elapsed().as_nanos() as u64;
            }
        }
        self.floor = heap;
        ran.map(|()| &self.answers[..])
    }

    /// How the last query served from this scratch by the one driver
    /// ([`answer_parts`](crate::multidim::answer_parts)) splits its
    /// `profile.floor_updates` over its parts — one entry per part (an
    /// engine's shard), in the order the driver was handed them.
    pub fn part_floor_updates(&self) -> &[u64] {
        &self.part_floor_updates
    }

    /// The buffers of a caller's own loop over row ids `0..n`: a cleared
    /// seen-set, an emptied word list, the profile and the deadline. Call
    /// it inside [`QueryScratch::answer_with`]'s `score`, once per query.
    pub fn loop_scratch(&mut self, n: usize) -> LoopScratch<'_> {
        self.loop_seen.clear();
        self.loop_seen.resize(n.div_ceil(64), 0);
        self.loop_words.clear();
        LoopScratch {
            seen: SeenRows {
                bits: &mut self.loop_seen,
            },
            words: &mut self.loop_words,
            profile: &mut self.profile,
            deadline: &self.deadline,
        }
    }
}
