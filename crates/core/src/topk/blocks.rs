//! The stored §4 index: a bulk-loaded, immutable envelope tree over one
//! pair's rows, plus the best-first block frontier that walks it.
//!
//! A [`BlockSet`] is the envelope tree a walked pair's
//! [`SdIndex`](crate::multidim::SdIndex) holds, persists and maps above its
//! rows. The index stores its rows once, in *tiled* order (below), and leaf
//! block `b` is positions `[b·LANES, (b + 1)·LANES)` of them — [`LANES`]
//! rows, the last block short. The block set keeps only what bounds them:
//! per block per indexed angle the projection [`AngleBounds`] and the
//! block's x-range (*micro-envelopes*), and above the blocks a pointer-free
//! implicit tree (fanout [`GROUP_FANOUT`]) of aggregated envelopes, so a
//! frontier search descends `O(log n)` levels and then consumes whole
//! blocks, whose rows the walk scores straight off the index's row table
//! and names by its id column.
//!
//! **The bulk-load order is a two-level sort-tile-recursive one**, owned by
//! [`tile`]: the points are sorted by x, cut into x-slabs of
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
//! min/max over the block's points, so *any* order of the rows is an
//! admissible index ([`BlockSet::build`] bounds whatever order it is
//! handed), and no reader knows which one it was.
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
//! * surfaced blocks are scored by the [`kernels`](crate::kernels) row
//!   kernel over 32 adjacent rows — no pointer chasing, no per-point call;
//! * a block whose envelope bound falls strictly below the caller's
//!   k-th-score floor (the `prune` hook of [`BlockFrontier::next_block`])
//!   is rejected **before any of its points is scored** — the §4
//!   bound-driven pruning of Claim 6, pushed below node granularity.

use std::collections::BinaryHeap;

use crate::codec::{corrupt, Codec, Reader, Result, Writer};
use crate::geometry::Angle;
use crate::kernels::{prefetch, LANES};
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

/// The tiled bulk-load order of `pts` (module docs): the slots `0..n` of
/// the points, in the order their rows are stored. Every sort is over
/// `(key, slot)` with an order-preserving integer key, so it is total — the
/// result is a pure function of the points and their slots — and compares
/// without touching `pts`.
pub(crate) fn tile(pts: &[(f64, f64)]) -> Vec<u32> {
    let sort_on = |part: &mut [(u64, u32)], coord: fn(&(f64, f64)) -> f64| {
        for e in part.iter_mut() {
            e.0 = order_key(coord(&pts[e.1 as usize]));
        }
        part.sort_unstable();
    };
    let mut keyed: Vec<(u64, u32)> = (0..pts.len() as u32).map(|s| (0, s)).collect();
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

/// The bulk-loaded §4 envelope tree over one pair's rows. See the module
/// docs.
///
/// Every table is a [`ColumnarView`]: owned after a build, possibly
/// borrowed straight off a mapped format-v5 snapshot after `open_mapped` —
/// the file image **is** this in-memory representation.
#[derive(Debug, Clone)]
pub(crate) struct BlockSet {
    /// The indexed angles, ascending (`bounds` stride).
    angles: Vec<Angle>,
    /// Block-major per-angle micro-envelopes: `bounds[b * m + angle_i]`.
    bounds: ColumnarView<AngleBounds>,
    /// Per-block `(xmin, xmax)`: the true x-range of the block's rows,
    /// which is what decides the side of the query a block can serve.
    xr: ColumnarView<(f64, f64)>,
    /// Implicit envelope tree: `levels[0]` groups blocks, each further
    /// level groups the one below, last level has a single root. Empty when
    /// there is at most one block.
    levels: Vec<Level>,
}

impl BlockSet {
    /// Bounds `pts` — the pair's `(x, y)` of every row, in stored order —
    /// as blocks of [`LANES`] consecutive rows; `angles` ascending and
    /// non-empty (see [`normalize_angles`](super::normalize_angles)). The
    /// rows are bounded in whatever order they come: [`tile`] is the order
    /// a build stores them in, and any other one is an index too, only a
    /// slower one — which is what the tests use it for. No points yield an
    /// index of zero blocks.
    pub(crate) fn build(pts: &[(f64, f64)], angles: &[Angle]) -> BlockSet {
        let m = angles.len();
        let n_blocks = pts.len().div_ceil(LANES);
        let mut bounds = vec![AngleBounds::EMPTY; n_blocks * m];
        let mut xr = vec![(f64::INFINITY, f64::NEG_INFINITY); n_blocks];
        for (b, block) in pts.chunks(LANES).enumerate() {
            for &(x, y) in block {
                let xr = &mut xr[b];
                xr.0 = xr.0.min(x);
                xr.1 = xr.1.max(x);
                for (i, a) in angles.iter().enumerate() {
                    bounds[b * m + i].extend_point(a.u(x, y), a.v(x, y));
                }
            }
        }
        // Envelope tree above the blocks: each level groups the one below.
        let mut levels: Vec<Level> = Vec::new();
        loop {
            let (below_bounds, below_xr): (&[AngleBounds], &[(f64, f64)]) = match levels.last() {
                Some(level) => (&level.bounds, &level.xr),
                None => (&bounds, &xr),
            };
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
            levels.push(Level {
                bounds: ColumnarView::owned(lb),
                xr: ColumnarView::owned(lxr),
            });
        }
        BlockSet {
            angles: angles.to_vec(),
            bounds: ColumnarView::owned(bounds),
            xr: ColumnarView::owned(xr),
            levels,
        }
    }

    /// The indexed angles, ascending.
    pub(crate) fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// Entries a frontier over this index can hold at once, at most: every
    /// block and every envelope node, each pushed once.
    pub(crate) fn entries(&self) -> usize {
        self.n_blocks() + self.levels.iter().map(|l| l.xr.len()).sum::<usize>()
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

    /// Writes the index (format v5): one `meta` region — the angles — then
    /// every table as an aligned array region.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.meta_region(|w| self.angles.encode(w));
        w.pod_array(&self.bounds);
        w.pod_array(&self.xr);
        for level in &self.levels {
            w.pod_array(&level.bounds);
            w.pod_array(&level.xr);
        }
    }

    /// Reads what [`BlockSet::encode`] wrote over `rows` rows, enforcing the
    /// exact shape that implies. Bound contents are not inspected: a wrong
    /// bound can cost an answer its exactness but reads nothing out of
    /// bounds, like a wrong chunk box.
    pub(crate) fn decode(r: &mut Reader<'_>, rows: usize) -> Result<Self> {
        let angles = r.meta_region("meta", Vec::<Angle>::decode)?;
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
        let (m, n_blocks) = (angles.len(), rows.div_ceil(LANES));
        let fail = |what: &str, got: usize, want: usize| {
            corrupt(format!(
                "blocks: {what} holds {got} entries, expected {want} for {rows} rows"
            ))
        };
        let (bounds, _) = r.pod_array::<AngleBounds>("blocks.bounds")?;
        let (xr, _) = r.pod_array::<(f64, f64)>("blocks.xr")?;
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
            bounds,
            xr,
            levels,
        })
    }

    /// Number of blocks.
    #[inline]
    pub(crate) fn n_blocks(&self) -> usize {
        self.xr.len()
    }

    /// Approximate heap footprint in bytes. Tables over a file mapping count
    /// zero: their bytes are file pages, not heap.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bounds.heap_bytes()
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
    /// The rows the blocks bound, two coordinates each, and their ids: what
    /// the next pop's caller reads, so what [`BlockFrontier::prefetch_next`]
    /// loads.
    rows: &'a [f64],
    ids: &'a [u32],
    eval: FrontierEval,
    /// The frontier, in a recycled allocation.
    heap: BinaryHeap<HeapEntry>,
    /// Walk counters since the last [`BlockFrontier::take_counters`]
    /// drain — flushed into a
    /// [`QueryProfile`](crate::profile::QueryProfile) by the walk or the
    /// stream that owns the frontier.
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
    /// Starts a frontier over `set`, which bounds `rows` (two coordinates
    /// a row, in stored order) named by `ids`, in a recycled heap (cleared
    /// here), reserved to the index's entry count: a frontier never holds
    /// more, so a heap taken from a warmed scratch never grows mid-walk,
    /// however the walk goes.
    pub(crate) fn with_scratch(
        set: &'a BlockSet,
        (rows, ids): (&'a [f64], &'a [u32]),
        eval: FrontierEval,
        mut heap: BinaryHeap<HeapEntry>,
    ) -> Self {
        heap.clear();
        heap.reserve(set.entries());
        let mut f = BlockFrontier {
            set,
            rows,
            ids,
            eval,
            heap,
            counters: FrontierCounters::default(),
        };
        if set.n_blocks() > 0 {
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
    /// still busy scoring the block just surfaced: a block entry's rows and
    /// ids, or — for an envelope — the bounds and x-ranges of the children
    /// its expansion pushes. The tables are far larger than L2 and popped in
    /// score order, not address order, so without the hint every pop starts
    /// with a chain of cache misses.
    #[inline]
    fn prefetch_next(&self) {
        let Some(&(_, std::cmp::Reverse(lvl), idx)) = self.heap.peek() else {
            return;
        };
        let i = idx as usize;
        let set = self.set;
        if lvl == BLOCK_LVL {
            // A block's rows are `2·LANES` coordinates: eight lines of eight.
            let rows = self.rows.as_ptr().wrapping_add(i * 2 * LANES);
            for line in 0..2 * LANES / 8 {
                prefetch(rows.cast::<[f64; 8]>().wrapping_add(line));
            }
            let ids = self.ids.as_ptr().wrapping_add(i * LANES);
            prefetch(ids);
            prefetch(ids.wrapping_add(LANES / 2));
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

    /// What a build stores: `pts` in tiled order, and the block set over
    /// them.
    fn tiled(pts: &[(f64, f64)], angles: &[Angle]) -> (Vec<(f64, f64)>, BlockSet) {
        let stored: Vec<(f64, f64)> = tile(pts).iter().map(|&s| pts[s as usize]).collect();
        let set = BlockSet::build(&stored, angles);
        (stored, set)
    }

    /// The `(x, y)` rows of block `b`.
    fn lanes(stored: &[(f64, f64)], b: usize) -> &[(f64, f64)] {
        &stored[b * LANES..((b + 1) * LANES).min(stored.len())]
    }

    #[test]
    fn build_covers_every_point_once() {
        for n in SIZES {
            for pts in shapes(n) {
                let order = tile(&pts);
                let mut seen = vec![false; n];
                for &s in &order {
                    assert!(!seen[s as usize], "slot {s} twice");
                    seen[s as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "every point stored");
                let (_, set) = tiled(&pts, &default_angles());
                assert_eq!(set.n_blocks(), n.div_ceil(LANES));
                assert_eq!(set.entries(), {
                    let levels: usize = BlockSet::level_sizes(set.n_blocks()).iter().sum();
                    set.n_blocks() + levels
                });
            }
        }
    }

    #[test]
    fn envelopes_are_conservative() {
        let angles = default_angles();
        let m = angles.len();
        for n in SIZES {
            for pts in shapes(n) {
                let (stored, set) = tiled(&pts, &angles);
                for b in 0..set.n_blocks() {
                    for &(x, y) in lanes(&stored, b) {
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
        let (stored, set) = tiled(&pts, &default_angles());
        let (mut dx, mut dy) = (0.0, 0.0);
        for b in 0..set.n_blocks() {
            let (xmin, xmax) = set.xr[b];
            let ys = || lanes(&stored, b).iter().map(|&(_, y)| y);
            dx += xmax - xmin;
            dy += ys().fold(f64::MIN, f64::max) - ys().fold(f64::MAX, f64::min);
        }
        let (dx, dy) = (dx / set.n_blocks() as f64, dy / set.n_blocks() as f64);
        assert!(dx < 0.05 && dy < 0.15, "mean block extent {dx} × {dy}");
    }

    /// The layout depends on the points, not on how they arrived: the same
    /// rows handed over in another order fall into the same blocks.
    /// (Distinct coordinates — a tie would be broken by slot, which is what
    /// makes one build deterministic, not two arrival orders equal.)
    #[test]
    fn layout_is_independent_of_arrival_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for n in [1usize, 700, 5_000] {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|i| (i as f64 + rng.gen_range(0.0..0.5), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut shuffled = pts.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let angles = default_angles();
            let bits = |stored: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                stored
                    .iter()
                    .map(|(x, y)| (x.to_bits(), y.to_bits()))
                    .collect()
            };
            let (a, _) = tiled(&pts, &angles);
            let (b, _) = tiled(&shuffled, &angles);
            assert_eq!(bits(a), bits(b), "{n} points");
        }
    }

    #[test]
    fn decode_refuses_angles_out_of_order() {
        let pts = sample(100);
        let five: Vec<Angle> = [0.0, 22.5, 45.0, 67.5, 90.0]
            .iter()
            .map(|&d| Angle::from_degrees(d).unwrap())
            .collect();
        let (_, set) = tiled(&pts, &five);
        // An unpinned reader serves metadata only: the honest index gets as
        // far as its first table, a forged one not past its angles.
        let decode = |set: &BlockSet| {
            let mut w = Writer::new();
            set.encode(&mut w);
            let err = BlockSet::decode(&mut Reader::new(&w.into_bytes()), pts.len()).unwrap_err();
            err.to_string()
        };
        assert!(decode(&set).contains("blocks.bounds"), "{}", decode(&set));
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

    /// A frontier over `set` alone: these tests pop blocks and read no row.
    fn frontier(set: &BlockSet, eval: FrontierEval) -> BlockFrontier<'_> {
        BlockFrontier::with_scratch(set, (&[], &[]), eval, BinaryHeap::new())
    }

    /// One heap, every entry pushed once: each block surfaces exactly once
    /// and each envelope is expanded once, with no seen-set anywhere.
    #[test]
    fn frontier_surfaces_every_block_exactly_once() {
        let pts = sample(333);
        let angles = default_angles();
        let (_, set) = tiled(&pts, &angles);
        for theta in [angles[2], Angle::from_weights(1.0, 0.3).unwrap()] {
            let eval = FrontierEval::at(&angles, &theta, 0.5, 0.5).unwrap();
            let mut f = frontier(&set, eval);
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
                let (stored, set) = tiled(&pts, &angles);
                for (qx, qy) in [(0.0, 0.0), (5.0, -2.0), (-3.0, 1.0)] {
                    for theta in [angles[1], Angle::from_weights(1.0, 0.3).unwrap()] {
                        let eval = FrontierEval::at(&angles, &theta, qx, qy).unwrap();
                        bound_dominates(&stored, &set, eval);
                    }
                }
            }
        }
    }

    /// Walks `set` to exhaustion, asserting before every pop that each point
    /// of each unsurfaced block scores at or under the frontier's bound, and
    /// that the bound never rises from one reading to the next.
    fn bound_dominates(stored: &[(f64, f64)], set: &BlockSet, eval: FrontierEval) {
        let (theta, qx, qy) = (eval.theta, eval.qx, eval.qy);
        // Best score per block, once: the walk below is quadratic in blocks.
        let best: Vec<f64> = (0..set.n_blocks())
            .map(|b| {
                lanes(stored, b)
                    .iter()
                    .map(|&(x, y)| theta.normalized_score(x, y, qx, qy))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let mut f = frontier(set, eval);
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
