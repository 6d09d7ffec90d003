//! The §4 index structure for top-k queries with runtime `k`, `α`, `β`, in
//! two forms: **the paper's dynamic tree**, as written ([`TopKIndex`]), and
//! its bulk-loaded block form ([`BlockIndex`]).
//!
//! A balanced kd-style tree over the x-coordinates (branching factor `b`)
//! stores, at every non-leaf node and for every *indexed angle* θ, bounds on
//! the four projection intercepts of its subtree ([`AngleBounds`]):
//!
//! * `max u` — the highest llp, `min u` — the lowest rup,
//! * `max v` — the highest rlp, `min v` — the lowest lup,
//!
//! where `u = cosθ·y − sinθ·x`, `v = cosθ·y + sinθ·x` are the rotated keys
//! equivalent to projecting on `x = −∞` / `x = +∞` (§4.1). A query walks
//! four best-first streams (one per projection type) seeded at the root;
//! children on the wrong side of the query axis are skipped, which realises
//! the separating-path bound update of Alg. 3 without mutating the tree, so
//! the index stays shareable across concurrent queries. Every node is bounded
//! at the query's weight angle θ_q by [`FrontierEval`]: at an indexed angle
//! that is the stored key plus the query term, otherwise the Claim 6 bracket
//! (Alg. 4) in closed form. [`arbitrary::query_alg4`] keeps Alg. 4 as
//! published, for comparison.
//!
//! Storage is `O(n + m·n/(b−1))` for `m` indexed angles; queries cost
//! `O(k·b·log_b n + k)`; construction `O(n log n)` — the §4 bounds.
//!
//! [`TopKIndex`] has one point per leaf slot, point-level
//! [`insert`](TopKIndex::insert) / [`delete`](TopKIndex::delete) and the
//! |U|/n rebuild policy — what fig. 8's branching / insert / update
//! experiments measure. [`BlockIndex`] is the same index bulk-loaded — 32
//! points to a tiled leaf block, fanout-8 envelopes, no point updates
//! (`blocks.rs`) — that the §5 aggregation keeps per pair ([`Pair2DStream`])
//! and whose certified walk answers one pair directly (`stored.rs`). The two
//! answer every query bit for bit alike. Both are in-memory reference
//! structures: neither is persisted, and no engine path reaches them — an
//! engine answers every query, a single pair's too, with one box scan
//! (`sdq_core::multidim`).

pub mod arbitrary;
mod blocks;
mod eval;
mod stored;
pub(crate) mod stream;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdq_core::geometry::Angle;
use sdq_core::score::sd_score_2d;
use sdq_core::{OrdF64, PointId, ScoredPoint, SdError};

use stream::{FastSet, Heaps, Pool};

pub use eval::{bracketing, FrontierEval, StreamKind};
pub use stored::{BlockIndex, Pair2DStream};
pub use stream::AngleQuery;

/// The default indexed angles of a [`BlockIndex`] under
/// [`PairedIndex`](crate::PairedIndex): `{0°, 45°, 90°}` — the two axes
/// every index must hold (a zero weight is θ_q = 0° or 90°) and the
/// diagonal. A query between two indexed angles is bracketed in closed form
/// at about the cost of an indexed one; without the diagonal a single-pair
/// walk ran 11 % slower at p50. The §6 reproductions (`sdq-bench`) build
/// over §6.1's five ([`section6_angles`](crate::section6_angles)).
pub fn default_angles() -> Vec<Angle> {
    [0.0, 45.0, 90.0]
        .iter()
        .map(|&d| Angle::from_degrees(d).expect("static angles are valid"))
        .collect()
}

/// The indexed-angle set an index is built over: `angles` sorted ascending
/// and deduplicated; empty is [`SdError::NoAngles`].
pub fn normalize_angles(angles: &[Angle]) -> Result<Vec<Angle>, SdError> {
    if angles.is_empty() {
        return Err(SdError::NoAngles);
    }
    let mut sorted = angles.to_vec();
    sorted.sort_by_key(|a| OrdF64(a.degrees()));
    sorted.dedup_by(|a, b| (a.degrees() - b.degrees()).abs() < 1e-12);
    Ok(sorted)
}

/// Checks that an ascending, non-empty angle set runs from 0° to 90°, as
/// every [`BlockIndex`] must: a zero weight is θ_q = 0° or 90°, served from
/// the frontier at that indexed angle. The error
/// names the axis that is missing against the range the set does cover.
pub(crate) fn check_axes(angles: &[Angle]) -> Result<(), SdError> {
    let (first, last) = (&angles[0], &angles[angles.len() - 1]);
    let missing = if first.sin != 0.0 {
        0.0
    } else if last.cos != 0.0 {
        90.0
    } else {
        return Ok(());
    };
    Err(SdError::AngleOutOfRange {
        requested_deg: missing,
        min_deg: first.degrees(),
        max_deg: last.degrees(),
    })
}

/// Per-angle projection bounds of one envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleBounds {
    pub max_u: f64,
    pub min_u: f64,
    pub max_v: f64,
    pub min_v: f64,
}

impl AngleBounds {
    /// The bounds of nothing: every extension replaces them.
    pub const EMPTY: AngleBounds = AngleBounds {
        max_u: f64::NEG_INFINITY,
        min_u: f64::INFINITY,
        max_v: f64::NEG_INFINITY,
        min_v: f64::INFINITY,
    };

    /// Widens the bounds to cover a point with keys `(u, v)`.
    #[inline]
    pub fn extend_point(&mut self, u: f64, v: f64) {
        self.max_u = self.max_u.max(u);
        self.min_u = self.min_u.min(u);
        self.max_v = self.max_v.max(v);
        self.min_v = self.min_v.min(v);
    }

    /// Widens the bounds to cover another envelope.
    #[inline]
    pub fn extend(&mut self, other: &AngleBounds) {
        self.max_u = self.max_u.max(other.max_u);
        self.min_u = self.min_u.min(other.min_u);
        self.max_v = self.max_v.max(other.max_v);
        self.min_v = self.min_v.min(other.min_v);
    }
}

/// Owned, reusable buffers of [`TopKIndex::query_with`]: the tree's four
/// frontier heaps, the candidate pool, the seen-set, the k-th-score floor
/// and the answer buffer. After the first query through it every buffer has
/// grown to its high-water mark, and later queries of similar shape touch
/// the allocator zero times. Keep one per thread; the index itself stays
/// immutable during queries.
///
/// The tree's counterpart of `sdq_core::QueryScratch`, which serves the
/// stored index and the §5 aggregation; the two share no state.
#[derive(Default)]
pub struct QueryScratch {
    heaps: Heaps,
    pool: Pool,
    seen: FastSet,
    floor: BinaryHeap<Reverse<OrdF64>>,
    answers: Vec<ScoredPoint>,
}

impl QueryScratch {
    /// Creates an empty scratch. Buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sorts point slots into the dynamic tree's bulk-load order: x ascending,
/// ties by slot id.
fn sort_by_x(pts: &[(f64, f64)], order: &mut [u32]) {
    order.sort_by(|&a, &b| {
        OrdF64(pts[a as usize].0)
            .cmp(&OrdF64(pts[b as usize].0))
            .then(a.cmp(&b))
    });
}

/// A child slot: either a subtree or a single point (the paper's in-memory
/// variant stores one point per leaf).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Child {
    Inner(u32),
    Point(u32),
}

/// A tree node holds only its child list; the per-angle bounds and x-range
/// live in flat node-major tables on [`TopKIndex`] (`node_bounds`,
/// `node_xr`), so the frontier expansion of a query reads contiguous
/// memory instead of chasing one heap allocation per visited node.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) children: Vec<Child>,
}

/// The §4 top-k index over 2-D points (`x` attractive, `y` repulsive) —
/// the paper's dynamic tree; see the module docs.
///
/// Point identity is the insertion slot, as in
/// [`Top1Index`](crate::top1::Top1Index).
#[derive(Debug, Clone)]
pub struct TopKIndex {
    pub(crate) branching: usize,
    pub(crate) angles: Vec<Angle>,
    /// Interleaved point table: `(x, y)` per slot, one cache line touch per
    /// random point access on the per-point query path.
    pub(crate) pts: Vec<(f64, f64)>,
    pub(crate) alive: Vec<bool>,
    pub(crate) n_alive: usize,
    pub(crate) nodes: Vec<Node>,
    /// Per-node `(xmin, xmax)`, indexed by node id.
    pub(crate) node_xr: Vec<(f64, f64)>,
    /// Per-node per-angle projection bounds, node-major:
    /// `node_bounds[id * angles.len() + angle_i]` (the hashmap of §4.2 as
    /// one dense table — fixed angle set, cache-friendly expansion).
    pub(crate) node_bounds: Vec<AngleBounds>,
    pub(crate) root: Option<u32>,
    pub(crate) free_nodes: Vec<u32>,
    /// Leaves observed (at insert time) deeper than the balance limit; when
    /// `deep_leaves / n > rebuild_threshold` the tree is rebuilt (§4.1's
    /// |U|/n > θ policy).
    pub(crate) deep_leaves: usize,
    pub(crate) rebuild_threshold: f64,
}

impl TopKIndex {
    /// Builds the index with §6.1's five angles
    /// ([`section6_angles`](crate::section6_angles)) and branching 8.
    pub fn build(points: &[(f64, f64)]) -> Result<Self, SdError> {
        Self::build_with(points, &crate::section6_angles(), 8)
    }

    /// Builds the index over `points` for the given indexed `angles` and
    /// branching factor (`≥ 2`). Angles are sorted internally; queries with
    /// weight angles outside `[angles.first(), angles.last()]` fail with
    /// [`SdError::AngleOutOfRange`], so covering `[0°, 90°]` is recommended
    /// (§4.2).
    pub fn build_with(
        points: &[(f64, f64)],
        angles: &[Angle],
        branching: usize,
    ) -> Result<Self, SdError> {
        if branching < 2 {
            return Err(SdError::InvalidBranching(branching));
        }
        let angles = normalize_angles(angles)?;
        if points.len() > u32::MAX as usize {
            return Err(SdError::TooManyPoints(points.len()));
        }
        for (row, &(x, y)) in points.iter().enumerate() {
            if !x.is_finite() {
                return Err(SdError::NonFiniteCoordinate {
                    row,
                    dim: 0,
                    value: x,
                });
            }
            if !y.is_finite() {
                return Err(SdError::NonFiniteCoordinate {
                    row,
                    dim: 1,
                    value: y,
                });
            }
        }
        let mut idx = TopKIndex {
            branching,
            angles,
            pts: points.to_vec(),
            alive: vec![true; points.len()],
            n_alive: points.len(),
            nodes: Vec::new(),
            node_xr: Vec::new(),
            node_bounds: Vec::new(),
            root: None,
            free_nodes: Vec::new(),
            deep_leaves: 0,
            rebuild_threshold: 0.25,
        };
        idx.rebuild();
        Ok(idx)
    }

    /// Creates an empty index.
    pub fn new(angles: &[Angle], branching: usize) -> Result<Self, SdError> {
        Self::build_with(&[], angles, branching)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// The indexed angles, ascending.
    pub fn angles(&self) -> &[Angle] {
        &self.angles
    }

    /// The branching factor.
    pub fn branching(&self) -> usize {
        self.branching
    }

    /// Sets the unbalance ratio that triggers a rebuild (default 0.25).
    pub fn set_rebuild_threshold(&mut self, theta: f64) {
        self.rebuild_threshold = theta.max(0.0);
    }

    /// Coordinates of a live point.
    pub fn point(&self, id: PointId) -> Option<(f64, f64)> {
        let slot = id.index();
        if slot < self.pts.len() && self.alive[slot] {
            Some(self.pts[slot])
        } else {
            None
        }
    }

    /// Approximate heap footprint in bytes: point table and tree nodes with
    /// their per-angle bound tuples.
    pub fn memory_bytes(&self) -> usize {
        let pts = self.pts.len() * std::mem::size_of::<(f64, f64)>() + self.alive.len();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.children.len() * std::mem::size_of::<Child>())
            .sum();
        let tables = self.node_xr.len() * std::mem::size_of::<(f64, f64)>()
            + self.node_bounds.len() * std::mem::size_of::<AngleBounds>();
        pts + nodes + tables
    }

    /// Number of live tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Answers a top-k query with runtime weights `α` (repulsive, on `y`)
    /// and `β` (attractive, on `x`).
    ///
    /// One certified walk of the tree's four per-type frontiers, every node
    /// bounded at the weight angle `arctan(β/α)`: directly when it is an
    /// indexed angle, through the Claim 6 bracket of its two neighbouring
    /// indexed angles otherwise. Results are exact either way, in canonical
    /// order (score descending, ties by id ascending).
    ///
    /// Allocates fresh scratch state per call; steady-state callers should
    /// prefer [`TopKIndex::query_with`].
    pub fn query(
        &self,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
    ) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = QueryScratch::new();
        Ok(self
            .query_with(qx, qy, alpha, beta, k, &mut scratch)?
            .to_vec())
    }

    /// [`TopKIndex::query`] with caller-owned scratch buffers: a warmed
    /// scratch makes the steady-state query path allocation-free. Returns a
    /// slice borrowed from the scratch, bit-identical to what `query`
    /// returns for the same arguments.
    pub fn query_with<'s>(
        &self,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if !qx.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: 0,
                dim: 0,
                value: qx,
            });
        }
        if !qy.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: 0,
                dim: 1,
                value: qy,
            });
        }
        arbitrary::query_points_with(self, qx, qy, alpha, beta, k, scratch)?;
        Ok(&scratch.answers)
    }

    /// Exact SD-score of a slot under the caller's raw weights.
    pub(crate) fn rescore(
        &self,
        slot: u32,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
    ) -> ScoredPoint {
        let (x, y) = self.pts[slot as usize];
        ScoredPoint::new(PointId::new(slot), sd_score_2d(x, y, qx, qy, alpha, beta))
    }

    /// Inserts a point, returning its id. `O(log_b n)` plus bound updates.
    pub fn insert(&mut self, x: f64, y: f64) -> Result<PointId, SdError> {
        if !x.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: self.pts.len(),
                dim: 0,
                value: x,
            });
        }
        if !y.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: self.pts.len(),
                dim: 1,
                value: y,
            });
        }
        let slot = self.pts.len() as u32;
        self.pts.push((x, y));
        self.alive.push(true);
        self.n_alive += 1;
        match self.root {
            None => {
                let node = self.alloc_node(vec![Child::Point(slot)]);
                self.root = Some(node);
            }
            Some(root) => {
                let depth = self.insert_rec(root, slot, 1);
                let limit = self.depth_limit();
                if depth > limit {
                    self.deep_leaves += 1;
                    if (self.deep_leaves as f64) > self.rebuild_threshold * self.n_alive as f64 {
                        self.rebuild();
                    }
                }
            }
        }
        Ok(PointId::new(slot))
    }

    /// Deletes a point by id; `true` on success. `O(b·log_b n)`.
    pub fn delete(&mut self, id: PointId) -> bool {
        let slot = id.index();
        if slot >= self.pts.len() || !self.alive[slot] {
            return false;
        }
        let Some(root) = self.root else { return false };
        let x = self.pts[slot].0;
        if !self.delete_rec(root, x, slot as u32) {
            // The point exists in the table but not in the tree — cannot
            // happen unless internal invariants broke.
            debug_assert!(false, "live point missing from tree");
            return false;
        }
        self.alive[slot] = false;
        self.n_alive -= 1;
        // Collapse a single-child root chain.
        while let Some(r) = self.root {
            if self.nodes[r as usize].children.len() == 1 {
                match self.nodes[r as usize].children[0] {
                    Child::Inner(c) => {
                        self.free_node(r);
                        self.root = Some(c);
                    }
                    Child::Point(_) => break,
                }
            } else if self.nodes[r as usize].children.is_empty() {
                self.free_node(r);
                self.root = None;
            } else {
                break;
            }
        }
        true
    }

    // ── tree internals ───────────────────────────────────────────────────

    fn depth_limit(&self) -> usize {
        if self.n_alive <= 1 {
            return 2;
        }
        let b = self.branching as f64;
        (self.n_alive as f64).log(b).ceil() as usize + 2
    }

    fn alloc_node(&mut self, children: Vec<Child>) -> u32 {
        let id = if let Some(slot) = self.free_nodes.pop() {
            self.nodes[slot as usize].children = children;
            slot
        } else {
            self.nodes.push(Node { children });
            self.node_xr.push((f64::INFINITY, f64::NEG_INFINITY));
            self.node_bounds
                .resize(self.nodes.len() * self.angles.len(), AngleBounds::EMPTY);
            (self.nodes.len() - 1) as u32
        };
        self.refresh_node(id);
        id
    }

    fn free_node(&mut self, id: u32) {
        // The stale x-range/bound table rows are overwritten on realloc.
        self.nodes[id as usize].children.clear();
        self.free_nodes.push(id);
    }

    /// Recomputes a node's x-range and per-angle bounds from its children.
    fn refresh_node(&mut self, node_id: u32) {
        let m = self.angles.len();
        let id = node_id as usize;
        let base = id * m;
        // Take the child list out so the node tables can be borrowed freely.
        let children = std::mem::take(&mut self.nodes[id].children);
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        self.node_bounds[base..base + m].fill(AngleBounds::EMPTY);
        for child in &children {
            match *child {
                Child::Point(p) => {
                    let (x, y) = self.pts[p as usize];
                    xmin = xmin.min(x);
                    xmax = xmax.max(x);
                    for i in 0..m {
                        let a = self.angles[i];
                        self.node_bounds[base + i].extend_point(a.u(x, y), a.v(x, y));
                    }
                }
                Child::Inner(c) => {
                    let (cmin, cmax) = self.node_xr[c as usize];
                    xmin = xmin.min(cmin);
                    xmax = xmax.max(cmax);
                    let cbase = c as usize * m;
                    for i in 0..m {
                        let cb = self.node_bounds[cbase + i];
                        self.node_bounds[base + i].extend(&cb);
                    }
                }
            }
        }
        self.node_xr[id] = (xmin, xmax);
        self.nodes[id].children = children;
    }

    /// Extends a node's bounds with one point (exact for inserts).
    fn extend_node(&mut self, node_id: u32, x: f64, y: f64) {
        let m = self.angles.len();
        let id = node_id as usize;
        let xr = &mut self.node_xr[id];
        xr.0 = xr.0.min(x);
        xr.1 = xr.1.max(x);
        for (b, a) in self.node_bounds[id * m..(id + 1) * m]
            .iter_mut()
            .zip(&self.angles)
        {
            b.extend_point(a.u(x, y), a.v(x, y));
        }
    }

    fn child_lo(&self, child: &Child) -> f64 {
        match *child {
            Child::Point(p) => self.pts[p as usize].0,
            Child::Inner(c) => self.node_xr[c as usize].0,
        }
    }

    fn insert_rec(&mut self, node_id: u32, slot: u32, depth: usize) -> usize {
        let (x, y) = self.pts[slot as usize];
        self.extend_node(node_id, x, y);
        let n_children = self.nodes[node_id as usize].children.len();
        if n_children < self.branching {
            // Room here: insert as a new leaf child in x order.
            let pos = {
                let node = &self.nodes[node_id as usize];
                node.children.partition_point(|c| self.child_lo(c) <= x)
            };
            self.nodes[node_id as usize]
                .children
                .insert(pos, Child::Point(slot));
            return depth + 1;
        }
        // Full: descend into the child whose range matches x.
        let pos = {
            let node = &self.nodes[node_id as usize];
            let p = node.children.partition_point(|c| self.child_lo(c) <= x);
            p.saturating_sub(1)
        };
        match self.nodes[node_id as usize].children[pos] {
            Child::Inner(c) => self.insert_rec(c, slot, depth + 1),
            Child::Point(p) => {
                // Collision with a leaf: a fresh two-leaf node replaces it.
                let pair = if self.pts[p as usize].0 <= x {
                    vec![Child::Point(p), Child::Point(slot)]
                } else {
                    vec![Child::Point(slot), Child::Point(p)]
                };
                let fresh = self.alloc_node(pair);
                self.nodes[node_id as usize].children[pos] = Child::Inner(fresh);
                depth + 2
            }
        }
    }

    fn delete_rec(&mut self, node_id: u32, x: f64, slot: u32) -> bool {
        // Candidate children: any whose x-range contains x (duplicates can
        // straddle several children).
        let n_children = self.nodes[node_id as usize].children.len();
        for ci in 0..n_children {
            let child = self.nodes[node_id as usize].children[ci];
            match child {
                Child::Point(p) => {
                    if p == slot {
                        self.nodes[node_id as usize].children.remove(ci);
                        self.refresh_node(node_id);
                        return true;
                    }
                }
                Child::Inner(c) => {
                    let (cmin, cmax) = self.node_xr[c as usize];
                    if cmin <= x && x <= cmax && self.delete_rec(c, x, slot) {
                        // Splice out a single-child inner node.
                        let c_len = self.nodes[c as usize].children.len();
                        if c_len == 1 {
                            let only = self.nodes[c as usize].children[0];
                            self.nodes[node_id as usize].children[ci] = only;
                            self.free_node(c);
                        } else if c_len == 0 {
                            self.nodes[node_id as usize].children.remove(ci);
                            self.free_node(c);
                        }
                        self.refresh_node(node_id);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The live slots, ascending.
    fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.pts.len() as u32).filter(|&i| self.alive[i as usize])
    }

    /// Rebuilds the balanced tree over the live points (bulk load, in x
    /// order with ties by slot).
    pub fn rebuild(&mut self) {
        self.nodes.clear();
        self.node_xr.clear();
        self.node_bounds.clear();
        self.free_nodes.clear();
        self.deep_leaves = 0;
        self.root = None;
        let mut order: Vec<u32> = self.live_slots().collect();
        if order.is_empty() {
            return;
        }
        sort_by_x(&self.pts, &mut order);
        self.root = Some(self.build_rec(&order));
    }

    /// Bulk-loads the subtree over `slots` (x-sorted). Every child but the
    /// last is a complete `b`-ary subtree, so every leaf node but the last
    /// on each level holds `b` points and the tree has `≈ n/(b−1)` nodes —
    /// the §4 storage bound — whatever `n` is.
    fn build_rec(&mut self, slots: &[u32]) -> u32 {
        let b = self.branching;
        if slots.len() <= b {
            let children: Vec<Child> = slots.iter().map(|&s| Child::Point(s)).collect();
            return self.alloc_node(children);
        }
        // The largest power of `b` that still leaves at most `b` children.
        let mut cap = b;
        while cap * b < slots.len() {
            cap *= b;
        }
        let mut children = Vec::with_capacity(b);
        for part in slots.chunks(cap) {
            children.push(if part.len() == 1 {
                Child::Point(part[0])
            } else {
                Child::Inner(self.build_rec(part))
            });
        }
        self.alloc_node(children)
    }

    /// Exhaustively verifies tree invariants (tests / debugging).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.pts.len()];
        if let Some(root) = self.root {
            self.check_node(root, &mut seen);
        }
        for (i, &alive) in self.alive.iter().enumerate() {
            assert_eq!(
                alive, seen[i],
                "slot {i}: alive={alive} but in-tree={}",
                seen[i]
            );
        }
    }

    fn check_node(&self, node_id: u32, seen: &mut [bool]) {
        let m = self.angles.len();
        let id = node_id as usize;
        let node = &self.nodes[id];
        assert!(!node.children.is_empty(), "empty non-root node");
        let mut bounds = vec![AngleBounds::EMPTY; m];
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for child in &node.children {
            match *child {
                Child::Point(p) => {
                    assert!(self.alive[p as usize], "dead point {p} in tree");
                    assert!(!seen[p as usize], "point {p} appears twice");
                    seen[p as usize] = true;
                    let (x, y) = self.pts[p as usize];
                    xmin = xmin.min(x);
                    xmax = xmax.max(x);
                    for (b, a) in bounds.iter_mut().zip(&self.angles) {
                        b.extend_point(a.u(x, y), a.v(x, y));
                    }
                }
                Child::Inner(c) => {
                    self.check_node(c, seen);
                    let (cmin, cmax) = self.node_xr[c as usize];
                    xmin = xmin.min(cmin);
                    xmax = xmax.max(cmax);
                    let cbase = c as usize * m;
                    for (b, cb) in bounds.iter_mut().zip(&self.node_bounds[cbase..cbase + m]) {
                        b.extend(cb);
                    }
                }
            }
        }
        let (nxmin, nxmax) = self.node_xr[id];
        assert!(nxmin <= xmin && nxmax >= xmax, "x-range not conservative");
        for (nb, cb) in self.node_bounds[id * m..(id + 1) * m].iter().zip(&bounds) {
            assert!(
                nb.max_u >= cb.max_u - 1e-12
                    && nb.min_u <= cb.min_u + 1e-12
                    && nb.max_v >= cb.max_v - 1e-12
                    && nb.min_v <= cb.min_v + 1e-12,
                "projection bounds not conservative"
            );
        }
    }
}

#[cfg(test)]
mod tests;
