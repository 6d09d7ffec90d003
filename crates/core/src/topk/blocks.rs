//! The stored §4 index: a bulk-loaded, immutable, structure-of-arrays tree
//! over one pair's points, plus the best-first block frontier that walks it.
//!
//! A [`BlockSet`] is the whole per-pair index an engine shard
//! ([`SdIndex`](crate::multidim::SdIndex)) holds, persists and maps: the
//! points in *tiled* order (below), grouped into cache-aligned blocks of
//! [`LANES`] points with split `x`/`y` coordinate columns, the originating
//! point slots, a live-lane mask, and *micro-envelopes* — per-block
//! per-indexed-angle projection [`AngleBounds`] plus the block's x-range.
//! Above the blocks sits a pointer-free implicit tree (fanout
//! [`GROUP_FANOUT`]) of aggregated envelopes, so a frontier search descends
//! `O(log n)` levels and then consumes whole blocks. With the indexed angles
//! and the live-point count it is self-contained: nothing else is needed to
//! answer a 2-D query, and nothing else of a pair is written to a snapshot.
//!
//! **The bulk-load order is a two-level sort-tile-recursive one**, owned by
//! [`BlockSet::build`]: the points are sorted by x, cut into x-slabs of
//! [`SLAB_BLOCKS`] blocks, each slab is sorted by y and cut into its blocks,
//! and the lanes of a block run by (x, slot). A leaf block is therefore a 2-D
//! cell — 1/49 of the x-range by 1/16 of the y-range on 25 000 uniform
//! points — not a full-height x-strip, and the envelope of a cell is tight at
//! every angle: an index pruned by projection bounds is exactly as good as
//! those bounds. Why 16 and not the square tiling: a query whose weights are
//! very unequal (α/β under 0.05 or over 20) has a thin band for an answer set
//! and wants strips, and a row of square tiles bounds a band equally badly;
//! 16 blocks per slab takes nearly all of the gain a uniform 4-D aggregation
//! has to take and caps that tail (CHANGES.md, PR 23, has the sweep). The
//! order is a bulk-load choice and nothing else: every bound is a true
//! min/max over the block's points, so *any* assignment of points to blocks
//! is an admissible index (a file written in x-strips opens and answers), and
//! no reader knows which one it was handed.
//!
//! It has no point updates. An engine never mutates a pair in place (writes
//! go to its delta and tombstones, a compaction rebuilds), so a shard keeps
//! only this. The paper's *dynamic* tree — per-point leaves in x-sorted
//! order, `insert` / `delete`, the |U|/n rebuild policy — lives in the
//! `sdq-paper` crate and shares nothing with this index but the envelope
//! arithmetic ([`FrontierEval`], [`AngleBounds`]).
//!
//! The payoff of the layout is threefold:
//!
//! * the frontier heap holds **blocks, not points** — a pop surfaces up to
//!   32 points at once instead of one, collapsing heap churn ~32× — and
//!   holds each entry once, under the best of its projection types;
//! * surfaced blocks are scored by the [`kernels`](crate::kernels) batch
//!   kernels over contiguous SoA columns — no pointer chasing, no
//!   per-point call;
//! * a block whose envelope bound falls strictly below the caller's
//!   k-th-score floor (the `prune` hook of [`BlockFrontier::next_block`])
//!   is rejected **before any of its points is scored** — the §4
//!   bound-driven pruning of Claim 6, pushed below node granularity.

use std::collections::BinaryHeap;

use crate::codec::{corrupt, first_bad, Codec, Reader, Result, Writer, CHECK_CHUNK_BYTES};
use crate::geometry::Angle;
use crate::kernels::{prefetch, LaneBlock, LANES};
use crate::threshold::encode as order_key;
use crate::types::OrdF64;
use crate::view::ColumnarView;

use super::stream::{FrontierEval, HeapEntry, StreamKind};
use super::AngleBounds;

/// Fanout of the implicit envelope tree above the blocks.
pub(crate) const GROUP_FANOUT: usize = 8;

/// Blocks per x-slab of the bulk-load order: a slab of `SLAB_BLOCKS * LANES`
/// x-consecutive points is cut into that many blocks along y. A measured
/// constant, not a knob — see the module docs.
const SLAB_BLOCKS: usize = 16;

/// Puts `slots` into the tiled bulk-load order of the module docs. Every
/// sort is over `(key, slot)` with an order-preserving integer key, so it is
/// total — the result is a pure function of the point set — and compares
/// without touching `pts`.
fn tile(pts: &[(f64, f64)], slots: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let sort_on = |part: &mut [(u64, u32)], coord: fn(&(f64, f64)) -> f64| {
        for e in part.iter_mut() {
            e.0 = order_key(coord(&pts[e.1 as usize]));
        }
        part.sort_unstable();
    };
    let mut keyed: Vec<(u64, u32)> = slots.into_iter().map(|s| (0, s)).collect();
    sort_on(&mut keyed, |p| p.0);
    for slab in keyed.chunks_mut(SLAB_BLOCKS * LANES) {
        sort_on(slab, |p| p.1);
        for block in slab.chunks_mut(LANES) {
            sort_on(block, |p| p.0);
        }
    }
    keyed.into_iter().map(|(_, s)| s).collect()
}

/// One level of aggregated envelopes above the block level.
#[derive(Debug, Clone)]
struct Level {
    /// Node-major per-angle bounds: `bounds[node * m + angle_i]`.
    bounds: ColumnarView<AngleBounds>,
    /// Per-node `(xmin, xmax)`.
    xr: ColumnarView<(f64, f64)>,
}

/// The bulk-loaded SoA §4 index over one point set. See the module docs.
///
/// Every table is a [`ColumnarView`]: owned after a build, possibly
/// borrowed straight off a mapped format-v5 snapshot after `open_mapped` —
/// the file image **is** this in-memory representation.
#[derive(Debug, Clone)]
pub(crate) struct BlockSet {
    /// The indexed angles, ascending (`bounds` stride).
    angles: Vec<Angle>,
    /// Points indexed: the live lanes over all blocks.
    n_live: usize,
    n_blocks: usize,
    /// Cache-aligned coordinate columns, one [`LaneBlock`] per block.
    xs: ColumnarView<LaneBlock>,
    ys: ColumnarView<LaneBlock>,
    /// Originating point slots, `slots[b * LANES + l]`; dead lanes hold
    /// `u32::MAX` and are never read (masked by `live`).
    slots: ColumnarView<u32>,
    /// Per-block live-lane mask (only the tail block can be partial).
    live: ColumnarView<u32>,
    /// Block-major per-angle micro-envelopes: `bounds[b * m + angle_i]`.
    bounds: ColumnarView<AngleBounds>,
    /// Per-block `(xmin, xmax)`: the true x-range of the block's live lanes,
    /// which is what decides the side of the query a block can serve.
    xr: ColumnarView<(f64, f64)>,
    /// Implicit envelope tree: `levels[0]` groups blocks, each further
    /// level groups the one below, last level has a single root. Empty when
    /// `n_blocks <= 1`.
    levels: Vec<Level>,
}

impl BlockSet {
    /// Builds the index over `slots` (distinct, in any order — the layout
    /// depends on the points, not on how they arrived); `angles` ascending
    /// and non-empty (see [`normalize_angles`](super::normalize_angles)). No
    /// slots yield an index of zero blocks.
    pub(crate) fn build(
        pts: &[(f64, f64)],
        slots: impl IntoIterator<Item = u32>,
        angles: &[Angle],
    ) -> BlockSet {
        Self::from_order(pts, &tile(pts, slots), angles)
    }

    /// Deals the slots into blocks in exactly the order given:
    /// `order[b * LANES + l]` is lane `l` of block `b`. [`BlockSet::build`]
    /// hands it the tiled order; any other one is an index too, only a
    /// slower one — which is what the tests use it for.
    pub(crate) fn from_order(pts: &[(f64, f64)], order: &[u32], angles: &[Angle]) -> BlockSet {
        let m = angles.len();
        let n_blocks = order.len().div_ceil(LANES);
        let mut xs = vec![LaneBlock::default(); n_blocks];
        let mut ys = vec![LaneBlock::default(); n_blocks];
        let mut slots = vec![u32::MAX; n_blocks * LANES];
        let mut live = vec![0u32; n_blocks];
        let mut bounds = vec![AngleBounds::EMPTY; n_blocks * m];
        let mut xr = vec![(f64::INFINITY, f64::NEG_INFINITY); n_blocks];
        for (b, chunk) in order.chunks(LANES).enumerate() {
            let (xb, yb) = (&mut xs[b].0, &mut ys[b].0);
            for (l, &slot) in chunk.iter().enumerate() {
                let (x, y) = pts[slot as usize];
                xb[l] = x;
                yb[l] = y;
                slots[b * LANES + l] = slot;
                let xr = &mut xr[b];
                xr.0 = xr.0.min(x);
                xr.1 = xr.1.max(x);
                for (i, a) in angles.iter().enumerate() {
                    bounds[b * m + i].extend_point(a.u(x, y), a.v(x, y));
                }
            }
            // Pad dead lanes with the last live point: finite coordinates
            // keep the kernels NaN-free, the live mask keeps them unread.
            let last = chunk.len() - 1;
            for l in chunk.len()..LANES {
                xb[l] = xb[last];
                yb[l] = yb[last];
            }
            live[b] = if chunk.len() == LANES {
                u32::MAX
            } else {
                (1u32 << chunk.len()) - 1
            };
        }
        // Envelope tree above the blocks.
        let mut built: Vec<Level> = Vec::new();
        {
            type StagedLevel = (Vec<AngleBounds>, Vec<(f64, f64)>);
            let mut below: (&[AngleBounds], &[(f64, f64)]) = (&bounds, &xr);
            let mut staged: Vec<StagedLevel> = Vec::new();
            loop {
                let (below_bounds, below_xr) = below;
                if below_xr.len() <= 1 {
                    break;
                }
                let len = below_xr.len().div_ceil(GROUP_FANOUT);
                let mut lb = vec![AngleBounds::EMPTY; len * m];
                let mut lxr = vec![(f64::INFINITY, f64::NEG_INFINITY); len];
                for (j, bxr) in below_xr.iter().enumerate() {
                    let g = j / GROUP_FANOUT;
                    let xr = &mut lxr[g];
                    xr.0 = xr.0.min(bxr.0);
                    xr.1 = xr.1.max(bxr.1);
                    for i in 0..m {
                        lb[g * m + i].extend(&below_bounds[j * m + i]);
                    }
                }
                staged.push((lb, lxr));
                let last = staged.last().expect("just pushed");
                below = (&last.0, &last.1);
            }
            for (lb, lxr) in staged {
                built.push(Level {
                    bounds: ColumnarView::owned(lb),
                    xr: ColumnarView::owned(lxr),
                });
            }
        }
        BlockSet {
            angles: angles.to_vec(),
            n_live: order.len(),
            n_blocks,
            xs: ColumnarView::owned(xs),
            ys: ColumnarView::owned(ys),
            slots: ColumnarView::owned(slots),
            live: ColumnarView::owned(live),
            bounds: ColumnarView::owned(bounds),
            xr: ColumnarView::owned(xr),
            levels: built,
        }
    }

    /// The indexed angles, ascending.
    pub(crate) fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// Number of points indexed.
    pub(crate) fn n_live(&self) -> usize {
        self.n_live
    }

    /// The per-level sizes of the implicit envelope tree over `n_blocks`
    /// blocks — the shape every decoded layout must match exactly.
    pub(crate) fn level_sizes(n_blocks: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut n = n_blocks;
        while n > 1 {
            n = n.div_ceil(GROUP_FANOUT);
            sizes.push(n);
        }
        sizes
    }

    /// Writes the index (format v5): one `meta` region — angles, point and
    /// block counts — then every table as an aligned array region.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.meta_region(|w| {
            self.angles.encode(w);
            w.usize(self.n_live);
            w.usize(self.n_blocks);
        });
        w.pod_array(&self.xs);
        w.pod_array(&self.ys);
        w.pod_array(&self.slots);
        w.pod_array(&self.live);
        w.pod_array(&self.bounds);
        w.pod_array(&self.xr);
        for level in &self.levels {
            w.pod_array(&level.bounds);
            w.pod_array(&level.xr);
        }
    }

    /// Reads what [`BlockSet::encode`] wrote, enforcing the exact shape the
    /// metadata implies. Table contents are **not** inspected here: that
    /// waits for [`BlockSet::validate_structure`], after the region
    /// checksums pass.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let (angles, n_live, n_blocks) = r.meta_region("meta", |m| {
            Ok((Vec::<Angle>::decode(m)?, m.usize()?, m.usize()?))
        })?;
        if angles.is_empty() {
            return Err(corrupt("blocks: no indexed angles"));
        }
        // `stream::bracketing` binary-searches them and `FrontierEval` reads
        // a bracket as (lower, upper).
        if !angles.windows(2).all(|w| w[0].degrees() < w[1].degrees()) {
            return Err(corrupt("blocks: indexed angles not strictly ascending"));
        }
        // A zero weight is served at 0° or 90° as an indexed angle.
        if let Err(e) = super::check_axes(&angles) {
            return Err(corrupt(format!(
                "blocks: indexed angles must span 0° to 90°: {e}"
            )));
        }
        if n_live > u32::MAX as usize || n_blocks != n_live.div_ceil(LANES) {
            return Err(corrupt(format!(
                "blocks: {n_blocks} blocks for {n_live} points"
            )));
        }
        let m = angles.len();
        let fail = |what: &str, got: usize, want: usize| {
            corrupt(format!(
                "blocks: {what} holds {got} entries, expected {want}"
            ))
        };
        let (xs, _) = r.pod_array::<LaneBlock>("blocks.xs")?;
        let (ys, _) = r.pod_array::<LaneBlock>("blocks.ys")?;
        let (slots, _) = r.pod_array::<u32>("blocks.slots")?;
        let (live, _) = r.pod_array::<u32>("blocks.live")?;
        let (bounds, _) = r.pod_array::<AngleBounds>("blocks.bounds")?;
        let (xr, _) = r.pod_array::<(f64, f64)>("blocks.xr")?;
        if xs.len() != n_blocks {
            return Err(fail("xs", xs.len(), n_blocks));
        }
        if ys.len() != n_blocks {
            return Err(fail("ys", ys.len(), n_blocks));
        }
        if slots.len() != n_blocks * LANES {
            return Err(fail("slots", slots.len(), n_blocks * LANES));
        }
        if live.len() != n_blocks {
            return Err(fail("live", live.len(), n_blocks));
        }
        if bounds.len() != n_blocks * m {
            return Err(fail("bounds", bounds.len(), n_blocks * m));
        }
        if xr.len() != n_blocks {
            return Err(fail("xr", xr.len(), n_blocks));
        }
        let mut levels = Vec::new();
        for (li, size) in Self::level_sizes(n_blocks).into_iter().enumerate() {
            let t = r.push_prefix(&format!("blocks.lvl{li}"));
            let (lb, _) = r.pod_array::<AngleBounds>("bounds")?;
            let (lxr, _) = r.pod_array::<(f64, f64)>("xr")?;
            r.pop_prefix(t);
            if lb.len() != size * m {
                return Err(fail("level bounds", lb.len(), size * m));
            }
            if lxr.len() != size {
                return Err(fail("level xr", lxr.len(), size));
            }
            levels.push(Level {
                bounds: lb,
                xr: lxr,
            });
        }
        Ok(BlockSet {
            angles,
            n_live,
            n_blocks,
            xs,
            ys,
            slots,
            live,
            bounds,
            xr,
            levels,
        })
    }

    /// Content checks a decoded index must pass once (post-checksum) before
    /// any query trusts it: live-lane slot ids must stay below `n_slots` and
    /// the live lanes must cover exactly the `n_live` points the metadata
    /// promised — otherwise a forged-but-checksummed file could index out of
    /// bounds at scoring time.
    ///
    /// The census is one branch-free pass per [`CHECK_CHUNK_BYTES`] of
    /// slots that ORs "live and out of range" over every lane; only a chunk
    /// that trips is walked lane by lane to name the first offender.
    pub(crate) fn validate_structure(&self, n_slots: usize) -> std::result::Result<(), String> {
        /// Bit `l` of a live mask, per lane: the mask test as a lane-wise
        /// AND and compare.
        const LANE_BIT: [u32; LANES] = {
            let mut bits = [0; LANES];
            let mut l = 0;
            while l < LANES {
                bits[l] = 1 << l;
                l += 1;
            }
            bits
        };
        const CHUNK_BLOCKS: usize = CHECK_CHUNK_BYTES / (LANES * 4);
        // A slot is a `u32`: past `u32::MAX` points none is out of range,
        // and the lane walk below is what decides.
        let limit = u32::try_from(n_slots).unwrap_or(u32::MAX);
        let mut live_total = 0usize;
        let chunks = self
            .live
            .chunks(CHUNK_BLOCKS)
            .zip(self.slots.chunks(CHUNK_BLOCKS * LANES));
        for (c, (live, slots)) in chunks.enumerate() {
            let mut tripped = false;
            for (&mask, slots) in live.iter().zip(slots.chunks_exact(LANES)) {
                live_total += mask.count_ones() as usize;
                for (&bit, &slot) in LANE_BIT.iter().zip(slots) {
                    tripped |= (mask & bit != 0) & (slot >= limit);
                }
            }
            if !tripped {
                continue;
            }
            for (i, (&mask, slots)) in live.iter().zip(slots.chunks_exact(LANES)).enumerate() {
                for (l, &slot) in slots.iter().enumerate() {
                    if mask & (1 << l) != 0 && slot as usize >= n_slots {
                        let b = c * CHUNK_BLOCKS + i;
                        return Err(format!(
                            "block {b} lane {l}: slot {slot} out of range for {n_slots} points"
                        ));
                    }
                }
            }
        }
        if live_total != self.n_live {
            return Err(format!(
                "blocks cover {live_total} live lanes for {} live points",
                self.n_live
            ));
        }
        Ok(())
    }

    /// What only an eager open reads: every stored coordinate — padding
    /// lanes included, the kernels score them too — must be finite.
    pub(crate) fn check_finite(&self) -> Result<()> {
        for (table, what) in [(&self.xs, "x"), (&self.ys, "y")] {
            let bad_block = |b: &LaneBlock| b.0.iter().fold(false, |acc, v| acc | !v.is_finite());
            if let Some(b) = first_bad(table, bad_block) {
                let v = table[b].0.into_iter().find(|v| !v.is_finite());
                let v = v.expect("the block tripped");
                return Err(corrupt(format!("non-finite {what} coordinate: {v}")));
            }
        }
        Ok(())
    }

    /// Number of blocks.
    #[inline]
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// One block's x-coordinate lanes.
    #[inline]
    pub(crate) fn xs(&self, b: u32) -> &[f64; LANES] {
        &self.xs[b as usize].0
    }

    /// One block's y-coordinate lanes.
    #[inline]
    pub(crate) fn ys(&self, b: u32) -> &[f64; LANES] {
        &self.ys[b as usize].0
    }

    /// One block's originating point slots (dead lanes hold `u32::MAX`).
    #[inline]
    pub(crate) fn slots(&self, b: u32) -> &[u32] {
        &self.slots[b as usize * LANES..(b as usize + 1) * LANES]
    }

    /// One block's live-lane mask.
    #[inline]
    pub(crate) fn live(&self, b: u32) -> u32 {
        self.live[b as usize]
    }

    /// Approximate heap footprint in bytes. Tables over a file mapping count
    /// zero: their bytes are file pages, not heap.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.xs.heap_bytes()
            + self.ys.heap_bytes()
            + self.slots.heap_bytes()
            + self.live.heap_bytes()
            + self.bounds.heap_bytes()
            + self.xr.heap_bytes()
            + self
                .levels
                .iter()
                .map(|l| l.bounds.heap_bytes() + l.xr.heap_bytes())
                .sum::<usize>()
    }
}

/// Heap level code for block-level entries; `lvl_code(i) = i + 1` addresses
/// `levels[i]`.
const BLOCK_LVL: u32 = 0;

/// Uncertified best-first frontier over a [`BlockSet`]: one heap of
/// envelope-tree entries, each pushed once, whose priority is an admissible
/// normalised θ_q score bound on every point underneath — the maximum of
/// [`FrontierEval::score`] over the projection types the entry can serve
/// (the right-hand two iff `xmax ≥ x_q`, the left-hand two iff
/// `xmin < x_q`). A child's envelope and sides are within its parent's and
/// the bound is monotone in both, so priorities only fall along a path:
/// [`BlockFrontier::next_block`] surfaces whole leaf blocks, once each, in
/// non-increasing bound order — after giving the caller's `prune` hook a
/// chance to reject the entry against its k-th-score floor before any point
/// is scored — and [`BlockFrontier::bound`] is the heap's head and never
/// rises.
pub(crate) struct BlockFrontier<'a> {
    set: &'a BlockSet,
    eval: FrontierEval,
    /// The frontier, in a recycled allocation.
    heap: BinaryHeap<HeapEntry>,
    /// Walk counters since the last [`BlockFrontier::take_counters`]
    /// drain — flushed into a
    /// [`QueryProfile`](crate::profile::QueryProfile) by the aggregation
    /// loop.
    counters: FrontierCounters,
}

/// Internal accumulator for [`BlockFrontier`] walk statistics.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FrontierCounters {
    /// Envelope nodes expanded one level down (each at most once).
    pub(crate) nodes_visited: u64,
    /// Envelope nodes pruned whole (every block underneath discarded).
    pub(crate) envelope_rejected: u64,
    /// Leaf blocks pruned at pop time against the caller's floor.
    pub(crate) blocks_floor_pruned: u64,
    /// Leaf blocks surfaced to the caller.
    pub(crate) blocks_popped: u64,
}

impl<'a> BlockFrontier<'a> {
    /// Starts a frontier in a recycled heap (cleared here).
    pub(crate) fn with_scratch(
        set: &'a BlockSet,
        eval: FrontierEval,
        mut heap: BinaryHeap<HeapEntry>,
    ) -> Self {
        heap.clear();
        let mut f = BlockFrontier {
            set,
            eval,
            heap,
            counters: FrontierCounters::default(),
        };
        if set.n_blocks > 0 {
            f.push(set.levels.len() as u32, 0); // the root; 0 = the single block
        }
        f
    }

    /// Recovers the heap for reuse by a later query.
    pub(crate) fn into_scratch(self) -> BinaryHeap<HeapEntry> {
        self.heap
    }

    /// Drains the walk counters accumulated since the last call
    /// (profiling).
    #[inline]
    pub(crate) fn take_counters(&mut self) -> FrontierCounters {
        std::mem::take(&mut self.counters)
    }

    #[inline]
    fn entry_tables(&self, lvl: u32) -> (&[AngleBounds], &[(f64, f64)]) {
        if lvl == BLOCK_LVL {
            (&self.set.bounds, &self.set.xr)
        } else {
            let l = &self.set.levels[lvl as usize - 1];
            (&l.bounds, &l.xr)
        }
    }

    /// Pushes one entry under its bound: the best any point in it can score
    /// at θ_q, over the sides of the query axis it reaches.
    fn push(&mut self, lvl: u32, idx: u32) {
        let (bounds, xr) = self.entry_tables(lvl);
        let (xmin, xmax) = xr[idx as usize];
        let base = idx as usize * self.set.angles.len();
        let score = |kind| self.eval.score(bounds, base, kind);
        let mut prio = f64::NEG_INFINITY;
        if xmax >= self.eval.qx {
            prio = score(StreamKind::Llp).max(score(StreamKind::Lup));
        }
        if xmin < self.eval.qx {
            prio = prio.max(score(StreamKind::Rlp)).max(score(StreamKind::Rup));
        }
        self.heap
            .push((OrdF64::new(prio), std::cmp::Reverse(lvl), idx));
    }

    /// Admissible upper bound (normalised θ_q units) on every point in a
    /// block not yet surfaced; `None` once drained.
    #[inline]
    pub(crate) fn bound(&self) -> Option<f64> {
        self.heap.peek().map(|&(OrdF64(p), _, _)| p)
    }

    /// The evaluation this frontier bounds its entries under.
    #[inline]
    pub(crate) fn eval(&self) -> &FrontierEval {
        &self.eval
    }

    /// Surfaces the next block, or `None` once drained: [`BlockFrontier::pop`]
    /// until a block comes out.
    pub(crate) fn next_block(&mut self, mut prune: impl FnMut(f64) -> bool) -> Option<u32> {
        while !self.heap.is_empty() {
            if let Some(block) = self.pop(&mut prune) {
                return Some(block);
            }
        }
        None
    }

    /// Takes the head entry off the heap: `Some(block)` when it is a leaf
    /// block that survives `prune`, `None` when it was an envelope (now
    /// expanded one level down), a pruned entry, or nothing — the heap was
    /// empty. One call is one step of the best-first walk, which is what lets
    /// a caller interleave several frontiers in one global bound order.
    ///
    /// `prune(bound)` is consulted on the entry (inner envelope or block)
    /// with its admissible normalised score bound; returning `true` discards
    /// the entry — and with it every point underneath — without expansion or
    /// scoring. Callers prune against a k-th-score floor: once `k` exact
    /// scores dominate the bound, nothing below it can reach the answer, so
    /// the whole subtree is certifiably irrelevant.
    #[inline]
    pub(crate) fn pop(&mut self, prune: impl FnOnce(f64) -> bool) -> Option<u32> {
        let (OrdF64(prio), std::cmp::Reverse(lvl), idx) = self.heap.pop()?;
        if prune(prio) {
            if lvl == BLOCK_LVL {
                self.counters.blocks_floor_pruned += 1;
            } else {
                self.counters.envelope_rejected += 1;
            }
            return None;
        }
        if lvl == BLOCK_LVL {
            self.counters.blocks_popped += 1;
            self.prefetch_next();
            return Some(idx);
        }
        // Expand the envelope group one level down.
        self.counters.nodes_visited += 1;
        let child_lvl = lvl - 1;
        let (_, child_xr) = self.entry_tables(child_lvl);
        let start = idx as usize * GROUP_FANOUT;
        let end = (start + GROUP_FANOUT).min(child_xr.len());
        for c in start..end {
            self.push(child_lvl, c as u32);
        }
        None
    }

    /// Starts loading what the *next* pop will read while the caller is
    /// still busy scoring the block just surfaced: a block entry's `xs`,
    /// `ys` and `slots` lines, or — for an envelope — the bounds and
    /// x-ranges of the children its expansion pushes. The tables are far
    /// larger than L2 and popped in score order, not address order, so
    /// without the hint every pop starts with a chain of cache misses.
    #[inline]
    fn prefetch_next(&self) {
        let Some(&(_, std::cmp::Reverse(lvl), idx)) = self.heap.peek() else {
            return;
        };
        let i = idx as usize;
        let set = self.set;
        if lvl == BLOCK_LVL {
            let (xs, ys) = (
                set.xs.as_ptr().wrapping_add(i),
                set.ys.as_ptr().wrapping_add(i),
            );
            for line in 0..LANES / 8 {
                prefetch(xs.cast::<[f64; 8]>().wrapping_add(line));
                prefetch(ys.cast::<[f64; 8]>().wrapping_add(line));
            }
            let slots = set.slots.as_ptr().wrapping_add(i * LANES);
            prefetch(slots);
            prefetch(slots.wrapping_add(LANES / 2));
            return;
        }
        let (bounds, xr) = self.entry_tables(lvl - 1);
        let start = i * GROUP_FANOUT;
        let (a, b) = (self.eval.lo_i, self.eval.hi_i);
        let m = set.angles.len();
        for c in start..start + GROUP_FANOUT {
            prefetch(bounds.as_ptr().wrapping_add(c * m + a));
            if b != a {
                prefetch(bounds.as_ptr().wrapping_add(c * m + b));
            }
        }
        prefetch(xr.as_ptr().wrapping_add(start));
        prefetch(xr.as_ptr().wrapping_add(start + GROUP_FANOUT / 2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::default_angles;
    use rand::{Rng, SeedableRng};

    fn sample(n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                (
                    ((i * 37) % 101) as f64 * 0.31 - 3.0,
                    ((i * 53) % 97) as f64 * 0.17 - 2.0,
                )
            })
            .collect()
    }

    /// Sizes around every cut of the tiled order: the empty set, one block,
    /// one slab, three slabs, each ± 1.
    const SIZES: [usize; 11] = [
        0,
        1,
        LANES - 1,
        LANES,
        LANES + 1,
        SLAB_BLOCKS * LANES - 1,
        SLAB_BLOCKS * LANES,
        SLAB_BLOCKS * LANES + 1,
        SLAB_BLOCKS * LANES * 3 - 1,
        SLAB_BLOCKS * LANES * 3,
        SLAB_BLOCKS * LANES * 3 + 1,
    ];

    /// Point sets that leave a sort nothing to sort by: generic, all x
    /// equal, all y equal, every point identical, and ±0.0 / denormal
    /// coordinates (where the integer key tells apart what `==` does not).
    fn shapes(n: usize) -> Vec<Vec<(f64, f64)>> {
        const TINY: [f64; 6] = [0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE, -1e-310];
        let pts = sample(n);
        vec![
            pts.iter().map(|&(_, y)| (0.25, y)).collect(),
            pts.iter().map(|&(x, _)| (x, -1.5)).collect(),
            vec![(0.5, 0.5); n],
            (0..n).map(|i| (TINY[i % 6], TINY[(i / 6) % 6])).collect(),
            pts,
        ]
    }

    fn all_slots(pts: &[(f64, f64)]) -> std::ops::Range<u32> {
        0..pts.len() as u32
    }

    /// The live `(slot, x, y)` lanes of one block.
    fn lanes(set: &BlockSet, b: u32) -> impl Iterator<Item = (u32, f64, f64)> + '_ {
        (0..LANES)
            .filter(move |l| set.live(b) & (1 << l) != 0)
            .map(move |l| (set.slots(b)[l], set.xs(b)[l], set.ys(b)[l]))
    }

    #[test]
    fn build_covers_every_point_once() {
        for n in SIZES {
            for pts in shapes(n) {
                let set = BlockSet::build(&pts, all_slots(&pts), &default_angles());
                assert_eq!(set.n_blocks(), n.div_ceil(LANES));
                assert_eq!(set.n_live(), n);
                set.validate_structure(n).unwrap();
                set.check_finite().unwrap();
                let mut seen = vec![false; n];
                for b in 0..set.n_blocks() as u32 {
                    for (slot, x, y) in lanes(&set, b) {
                        let s = slot as usize;
                        assert!(!seen[s], "slot {s} twice");
                        seen[s] = true;
                        assert_eq!(x.to_bits(), pts[s].0.to_bits());
                        assert_eq!(y.to_bits(), pts[s].1.to_bits());
                    }
                }
                assert!(seen.iter().all(|&s| s), "every point in some block");
            }
        }
    }

    #[test]
    fn envelopes_are_conservative() {
        let angles = default_angles();
        let m = angles.len();
        for n in SIZES {
            for pts in shapes(n) {
                let set = BlockSet::build(&pts, all_slots(&pts), &angles);
                for b in 0..set.n_blocks() {
                    for (_, x, y) in lanes(&set, b as u32) {
                        let (xmin, xmax) = set.xr[b];
                        assert!(xmin <= x && x <= xmax);
                        for (i, a) in angles.iter().enumerate() {
                            let bd = &set.bounds[b * m + i];
                            let (u, v) = (a.u(x, y), a.v(x, y));
                            assert!(bd.min_u <= u && u <= bd.max_u);
                            assert!(bd.min_v <= v && v <= bd.max_v);
                        }
                    }
                }
                // Level envelopes cover their groups.
                for (li, level) in set.levels.iter().enumerate() {
                    let (below_bounds, below_xr): (&[AngleBounds], &[(f64, f64)]) = if li == 0 {
                        (&set.bounds, &set.xr)
                    } else {
                        (&set.levels[li - 1].bounds, &set.levels[li - 1].xr)
                    };
                    for (j, &(bxmin, bxmax)) in below_xr.iter().enumerate() {
                        let g = j / GROUP_FANOUT;
                        assert!(level.xr[g].0 <= bxmin && level.xr[g].1 >= bxmax);
                        for i in 0..m {
                            let gb = &level.bounds[g * m + i];
                            let cb = &below_bounds[j * m + i];
                            assert!(gb.max_u >= cb.max_u && gb.min_u <= cb.min_u);
                            assert!(gb.max_v >= cb.max_v && gb.min_v <= cb.min_v);
                        }
                    }
                }
            }
        }
    }

    /// A refactor that quietly falls back to x-order fails here, not in a
    /// benchmark: strips of 20 000 uniform points read 0.0016 × 0.94.
    #[test]
    fn blocks_are_cells_not_strips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let pts: Vec<(f64, f64)> = (0..20_000)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let set = BlockSet::build(&pts, all_slots(&pts), &default_angles());
        let (mut dx, mut dy) = (0.0, 0.0);
        for b in 0..set.n_blocks() as u32 {
            let (xmin, xmax) = set.xr[b as usize];
            let ys = || lanes(&set, b).map(|(_, _, y)| y);
            dx += xmax - xmin;
            dy += ys().fold(f64::MIN, f64::max) - ys().fold(f64::MAX, f64::min);
        }
        let (dx, dy) = (dx / set.n_blocks() as f64, dy / set.n_blocks() as f64);
        assert!(dx < 0.05 && dy < 0.15, "mean block extent {dx} × {dy}");
    }

    /// The layout depends on the points, not on how they arrived: the same
    /// rows under another slot numbering, handed over in another order,
    /// fall into the same blocks. (Distinct coordinates — a tie would be
    /// broken by slot, which is what makes one build deterministic, not two
    /// numberings equal.)
    #[test]
    fn layout_is_independent_of_arrival_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for n in [1usize, 700, 5_000] {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|i| (i as f64 + rng.gen_range(0.0..0.5), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut perm: Vec<u32> = all_slots(&pts).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let shuffled: Vec<(f64, f64)> = perm.iter().map(|&s| pts[s as usize]).collect();
            let angles = default_angles();
            let a = BlockSet::build(&pts, all_slots(&pts), &angles);
            let b = BlockSet::build(&shuffled, all_slots(&pts).rev(), &angles);
            assert_eq!(a.n_blocks(), b.n_blocks());
            for blk in 0..a.n_blocks() as u32 {
                let cell = |set: &BlockSet| -> Vec<(u64, u64)> {
                    lanes(set, blk)
                        .map(|(_, x, y)| (x.to_bits(), y.to_bits()))
                        .collect()
                };
                assert_eq!(cell(&a), cell(&b), "block {blk} of {n} points");
            }
        }
    }

    /// The census as a lane-at-a-time loop with an early exit: what the
    /// chunked pass must agree with, error text included.
    fn census_reference(set: &BlockSet, n_slots: usize) -> std::result::Result<(), String> {
        let mut live_total = 0usize;
        for b in 0..set.n_blocks {
            let mask = set.live[b];
            live_total += mask.count_ones() as usize;
            for l in 0..LANES {
                let slot = set.slots[b * LANES + l];
                if mask & (1 << l) != 0 && slot as usize >= n_slots {
                    return Err(format!(
                        "block {b} lane {l}: slot {slot} out of range for {n_slots} points"
                    ));
                }
            }
        }
        if live_total != set.n_live {
            return Err(format!(
                "blocks cover {live_total} live lanes for {} live points",
                set.n_live
            ));
        }
        Ok(())
    }

    /// Three census chunks and a partial fourth, ending in a partial block.
    fn chunked_set() -> (Vec<(f64, f64)>, BlockSet) {
        let chunk_points = CHECK_CHUNK_BYTES / 4;
        let pts = sample(3 * chunk_points + 500);
        let set = BlockSet::build(&pts, all_slots(&pts), &default_angles());
        (pts, set)
    }

    /// A forged slot in the first, a middle and the last census chunk — and
    /// two at once — is named exactly as the lane-at-a-time loop names it.
    #[test]
    fn census_names_the_first_offender_in_any_chunk() {
        let (pts, set) = chunked_set();
        let n = pts.len();
        let last = set.n_blocks - 1;
        let forged = |at: &[(usize, usize, u32)]| {
            let mut slots = set.slots.to_vec();
            for &(b, l, slot) in at {
                slots[b * LANES + l] = slot;
            }
            BlockSet {
                slots: ColumnarView::owned(slots),
                ..set.clone()
            }
        };
        let nu = n as u32;
        let cases: [&[(usize, usize, u32)]; 5] = [
            &[(0, 3, nu)],
            &[(40, 31, u32::MAX - 1)],
            &[(last, 0, nu + 7)],
            &[(70, 2, nu), (40, 9, nu + 1)],
            &[(33, 0, nu - 1)], // in range: no offender
        ];
        for at in cases {
            let set = forged(at);
            assert_eq!(
                set.validate_structure(n),
                census_reference(&set, n),
                "{at:?}"
            );
        }
        assert!(forged(&[(0, 3, nu)]).validate_structure(n).is_err());
        // A live lane dropped from a full block: the lane count fails.
        let mut live = set.live.to_vec();
        live[50] &= !(1 << 4);
        let dropped = BlockSet {
            live: ColumnarView::owned(live),
            ..set.clone()
        };
        let err = dropped.validate_structure(n).unwrap_err();
        assert_eq!(Err(err), census_reference(&dropped, n));
    }

    /// Dead lanes are never read, so what they hold is not the census's
    /// business — not even a slot past the point count.
    #[test]
    fn census_ignores_dead_lanes() {
        let (pts, set) = chunked_set();
        let last = set.n_blocks - 1;
        let dead = (set.live[last].trailing_ones() as usize)..LANES;
        assert!(!dead.is_empty(), "the last block is partial");
        let mut slots = set.slots.to_vec();
        for l in dead {
            slots[last * LANES + l] = pts.len() as u32 + l as u32;
        }
        let set = BlockSet {
            slots: ColumnarView::owned(slots),
            ..set
        };
        assert_eq!(set.validate_structure(pts.len()), Ok(()));
    }

    /// A non-finite coordinate in the first, a middle and the last chunk of
    /// either table — padding lanes included — reads as the value-at-a-time
    /// scan reads it: the first in x order, then in y order.
    #[test]
    fn check_finite_names_the_first_offender_in_any_chunk() {
        let reference = |set: &BlockSet| {
            for (table, what) in [(&set.xs, "x"), (&set.ys, "y")] {
                if let Some(v) = table.iter().flat_map(|b| b.0).find(|v| !v.is_finite()) {
                    return Err(corrupt(format!("non-finite {what} coordinate: {v}")).to_string());
                }
            }
            Ok(())
        };
        let (_, set) = chunked_set();
        let last = set.n_blocks - 1;
        let cases: [&[(bool, usize, usize, f64)]; 5] = [
            &[(false, 0, 0, f64::NAN)],
            &[(false, 50, 31, f64::INFINITY)],
            &[(true, last, LANES - 1, f64::NEG_INFINITY)], // a padding lane
            &[(true, 60, 1, f64::NAN), (true, 20, 8, f64::INFINITY)],
            &[(true, 3, 3, f64::NAN), (false, last, 0, f64::INFINITY)],
        ];
        for at in cases {
            let mut forged = set.clone();
            for &(y, b, l, v) in at {
                let table = if y { &mut forged.ys } else { &mut forged.xs };
                let mut blocks = table.to_vec();
                blocks[b].0[l] = v;
                *table = ColumnarView::owned(blocks);
            }
            let got = forged.check_finite().map_err(|e| e.to_string());
            assert!(got.is_err(), "{at:?}");
            assert_eq!(got, reference(&forged), "{at:?}");
        }
        set.check_finite().unwrap();
    }

    #[test]
    fn decode_refuses_angles_out_of_order() {
        let pts = sample(100);
        let set = BlockSet::build(&pts, all_slots(&pts), &default_angles());
        // An unpinned reader serves metadata only: the honest index gets as
        // far as its first table, a forged one not past its angles.
        let decode = |set: &BlockSet| {
            let mut w = Writer::new();
            set.encode(&mut w);
            let err = BlockSet::decode(&mut Reader::new(&w.into_bytes())).unwrap_err();
            err.to_string()
        };
        assert!(decode(&set).contains("blocks.xs"), "{}", decode(&set));
        let (mut swapped, mut repeated) = (set.clone(), set.clone());
        swapped.angles.swap(1, 2);
        repeated.angles[3] = repeated.angles[2];
        for forged in [swapped, repeated] {
            let err = decode(&forged);
            assert!(err.contains("not strictly ascending"), "{err}");
        }
        // Still ascending, but short of an axis: a zero weight would find
        // no indexed angle.
        let (mut low, mut high) = (set.clone(), set.clone());
        low.angles[0] = Angle::from_degrees(10.0).unwrap();
        high.angles[4] = Angle::from_degrees(80.0).unwrap();
        for forged in [low, high] {
            let err = decode(&forged);
            assert!(err.contains("must span 0° to 90°"), "{err}");
        }
    }

    /// One heap, every entry pushed once: each block surfaces exactly once
    /// and each envelope is expanded once, with no seen-set anywhere.
    #[test]
    fn frontier_surfaces_every_block_exactly_once() {
        let pts = sample(333);
        let angles = default_angles();
        let set = BlockSet::build(&pts, all_slots(&pts), &angles);
        for theta in [angles[2], Angle::from_weights(1.0, 0.3).unwrap()] {
            let eval = FrontierEval::at(&angles, &theta, 0.5, 0.5).unwrap();
            let mut f = BlockFrontier::with_scratch(&set, eval, BinaryHeap::new());
            let mut surfaced = vec![0u32; set.n_blocks()];
            while let Some(b) = f.next_block(|_| false) {
                surfaced[b as usize] += 1;
            }
            assert!(surfaced.iter().all(|&s| s == 1), "{surfaced:?}");
            assert!(f.next_block(|_| false).is_none());
            let c = f.take_counters();
            assert_eq!(c.blocks_popped, set.n_blocks() as u64);
            let inner: usize = set.levels.iter().map(|l| l.xr.len()).sum();
            assert_eq!(c.nodes_visited, inner as u64, "every envelope once");
            assert!(f.into_scratch().is_empty());
        }
    }

    #[test]
    fn frontier_bound_dominates_unsurfaced_scores() {
        let angles = default_angles();
        for n in SIZES {
            for pts in shapes(n) {
                let set = BlockSet::build(&pts, all_slots(&pts), &angles);
                for (qx, qy) in [(0.0, 0.0), (5.0, -2.0), (-3.0, 1.0)] {
                    for theta in [angles[1], Angle::from_weights(1.0, 0.3).unwrap()] {
                        let eval = FrontierEval::at(&angles, &theta, qx, qy).unwrap();
                        bound_dominates(&set, eval);
                    }
                }
            }
        }
    }

    /// Walks `set` to exhaustion, asserting before every pop that each point
    /// of each unsurfaced block scores at or under the frontier's bound, and
    /// that the bound never rises from one reading to the next.
    fn bound_dominates(set: &BlockSet, eval: FrontierEval) {
        let (theta, qx, qy) = (eval.theta, eval.qx, eval.qy);
        // Best score per block, once: the walk below is quadratic in blocks.
        let best: Vec<f64> = (0..set.n_blocks() as u32)
            .map(|b| {
                lanes(set, b)
                    .map(|(_, x, y)| theta.normalized_score(x, y, qx, qy))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let mut f = BlockFrontier::with_scratch(set, eval, BinaryHeap::new());
        let mut unsurfaced: std::collections::HashSet<u32> = (0..set.n_blocks() as u32).collect();
        let mut last = f64::INFINITY;
        loop {
            let bound = f.bound();
            if let Some(b) = bound {
                assert!(b <= last, "bound rose from {last} to {b}");
                last = b;
            }
            for &b in &unsurfaced {
                assert!(
                    best[b as usize] <= bound.expect("blocks remain") + 1e-9,
                    "unsurfaced point above bound"
                );
            }
            match f.next_block(|_| false) {
                Some(b) => {
                    unsurfaced.remove(&b);
                }
                None => break,
            }
        }
        assert!(unsurfaced.is_empty());
    }
}
