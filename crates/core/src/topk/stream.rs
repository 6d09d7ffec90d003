//! Query-time machinery of Alg. 2/3: per-projection-type best-first streams
//! over the bound tree, and the certified top-k loop at one indexed angle.
//!
//! ## Relation to the paper
//!
//! Alg. 3 finds the separating path and *mutates* bounds along it so the
//! root bound only reflects projections incident on the query axis; Alg. 2
//! then repeatedly extracts per-type top projections. We realise the same
//! pruning without mutation: each stream runs a best-first search whose
//! frontier is seeded at the root, skipping children entirely on the wrong
//! side of the axis. Popping the frontier in bound order visits exactly the
//! nodes the mutated search would, and the index remains immutable during
//! queries.
//!
//! Alg. 2's loop adds the best *projected* candidate straight to the answer
//! set and stops after `k + 3` searches. Projected order equals score order
//! only within the correct point group (`y_p ≥ y_q` for lower streams);
//! a stream head from the other group merely *upper-bounds* its own score.
//! [`AngleQuery`] therefore runs the standard certified threshold loop —
//! emit a pooled candidate only once its exact score dominates every
//! remaining stream bound — which is provably exact for every input and
//! performs the paper's `k + 3` pulls on the common path.
//!
//! ## Allocation discipline
//!
//! All four frontier heaps, the candidate pool and the seen-set live in an
//! [`AngleScratch`], which a query either creates fresh (the allocating
//! convenience path) or borrows from a
//! [`QueryScratch`](crate::QueryScratch) pool so steady-state queries touch
//! the allocator zero times.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hasher for the u32 seen-sets on the hot pull
/// path; SipHash's DoS resistance buys nothing for internal slot ids and
/// costs measurably per pull.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Seen-set keyed by point slot.
pub(crate) type FastSet = HashSet<u32, BuildHasherDefault<FastHasher>>;

use super::{AngleBounds, Child, TopKIndex};
use crate::geometry::Angle;
use crate::kernels::inflate;
use crate::types::{OrdF64, SdError};

/// One frontier-heap element. The meaning of the fields differs per tree
/// layout but the *type* is shared so one [`AngleScratch`] serves both:
///
/// * dynamic tree: `(priority, Reverse(node-or-slot id), is_point as u32)`,
/// * SoA block layout: `(priority, Reverse(level), index within level)`.
pub(crate) type HeapEntry = (OrdF64, Reverse<u32>, u32);

/// Reusable state of one certified angle query: the four projection-type
/// frontier heaps, the exact-score candidate pool and the seen-set.
///
/// Capacity is retained across [`AngleScratch::reset`], so a warmed scratch
/// answers subsequent queries without heap allocation.
#[derive(Debug, Default)]
pub(crate) struct AngleScratch {
    pub(crate) heaps: [BinaryHeap<HeapEntry>; 4],
    pub(crate) pool: BinaryHeap<(OrdF64, Reverse<u32>)>,
    pub(crate) seen: FastSet,
}

impl AngleScratch {
    /// Empties every container, keeping allocations.
    pub(crate) fn reset(&mut self) {
        for h in &mut self.heaps {
            h.clear();
        }
        self.pool.clear();
        self.seen.clear();
    }
}

/// The four stream kinds, mirroring the projection types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamKind {
    /// Highest llp first — points with `x ≥ x_q`, key `u` descending.
    Llp,
    /// Highest rlp first — points with `x < x_q`, key `v` descending.
    Rlp,
    /// Lowest lup first — points with `x ≥ x_q`, key `v` ascending.
    Lup,
    /// Lowest rup first — points with `x < x_q`, key `u` ascending.
    Rup,
}

impl StreamKind {
    pub(crate) const ALL: [StreamKind; 4] = [
        StreamKind::Llp,
        StreamKind::Rlp,
        StreamKind::Lup,
        StreamKind::Rup,
    ];

    /// Streams over points left of the axis?
    #[inline]
    pub(crate) fn left_side(self) -> bool {
        matches!(self, StreamKind::Rlp | StreamKind::Rup)
    }
}

/// The uncertified frontier union at one indexed angle: surfaces points in
/// best-first *frontier* order (per-type projection keys), which is only
/// approximately score order, while [`RawAngleStream::bound`] stays an
/// admissible upper bound on every point not yet surfaced.
///
/// The pool-free core of [`AngleQuery`], which adds the candidate pool and
/// the certification compares on top.
///
/// `next_raw` may surface the same slot twice (a point belongs to two of
/// the four projection streams); callers dedupe with a seen-set of their
/// choice.
pub(crate) struct RawAngleStream<'a> {
    index: &'a TopKIndex,
    angle_i: usize,
    qx: f64,
    qy: f64,
    angle: Angle,
    pub(crate) s: AngleScratch,
}

impl<'a> RawAngleStream<'a> {
    /// Starts a stream reusing a warmed scratch (reset internally).
    pub(crate) fn with_scratch(
        index: &'a TopKIndex,
        angle_i: usize,
        qx: f64,
        qy: f64,
        mut s: AngleScratch,
    ) -> Self {
        s.reset();
        let mut q = RawAngleStream {
            index,
            angle_i,
            qx,
            qy,
            angle: index.angles[angle_i],
            s,
        };
        if let Some(root) = index.root {
            for kind in StreamKind::ALL {
                q.push_node(kind, root);
            }
        }
        q
    }

    /// The angle this stream runs at.
    pub(crate) fn angle(&self) -> Angle {
        self.angle
    }

    #[inline]
    fn point_priority(&self, slot: u32, kind: StreamKind) -> f64 {
        let (x, y) = self.index.pts[slot as usize];
        let a = &self.index.angles[self.angle_i];
        match kind {
            StreamKind::Llp => a.u(x, y),
            StreamKind::Rlp => a.v(x, y),
            StreamKind::Lup => -a.v(x, y),
            StreamKind::Rup => -a.u(x, y),
        }
    }

    fn push_node(&mut self, kind: StreamKind, node_id: u32) {
        let id = node_id as usize;
        let (xmin, xmax) = self.index.node_xr[id];
        let valid = if kind.left_side() {
            xmin < self.qx
        } else {
            xmax >= self.qx
        };
        if !valid {
            return;
        }
        let b = &self.index.node_bounds[id * self.index.angles.len() + self.angle_i];
        let prio = match kind {
            StreamKind::Llp => b.max_u,
            StreamKind::Rlp => b.max_v,
            StreamKind::Lup => -b.min_v,
            StreamKind::Rup => -b.min_u,
        };
        self.s.heaps[kind as usize].push((OrdF64::new(prio), Reverse(node_id), 0));
    }

    fn push_point(&mut self, kind: StreamKind, slot: u32) {
        let x = self.index.pts[slot as usize].0;
        let valid = if kind.left_side() {
            x < self.qx
        } else {
            x >= self.qx
        };
        if !valid {
            return;
        }
        self.s.heaps[kind as usize].push((
            OrdF64::new(self.point_priority(slot, kind)),
            Reverse(slot),
            1,
        ));
    }

    /// Upper bound, in normalised-score units at this query's angle, on the
    /// score of every point stream `kind` has not yet emitted.
    #[inline]
    fn score_bound(&self, kind: StreamKind) -> Option<f64> {
        let a = &self.angle;
        self.s.heaps[kind as usize]
            .peek()
            .map(|&(OrdF64(p), _, _)| match kind {
                StreamKind::Llp => p + a.sin * self.qx - a.cos * self.qy,
                StreamKind::Rlp => p - a.sin * self.qx - a.cos * self.qy,
                StreamKind::Lup => a.cos * self.qy + p + a.sin * self.qx,
                StreamKind::Rup => a.cos * self.qy + p - a.sin * self.qx,
            })
    }

    /// Emits the next point `(slot, priority)` of stream `kind`, or `None`
    /// when that stream is drained.
    fn pull(&mut self, kind: StreamKind) -> Option<(u32, f64)> {
        // Copy the shared reference out so child iteration does not hold a
        // borrow of `self` while the heaps are pushed to.
        let index = self.index;
        while let Some((OrdF64(prio), Reverse(id), is_point)) = self.s.heaps[kind as usize].pop() {
            if is_point == 1 {
                return Some((id, prio));
            }
            for child in &index.nodes[id as usize].children {
                match *child {
                    Child::Inner(c) => self.push_node(kind, c),
                    Child::Point(p) => self.push_point(kind, p),
                }
            }
        }
        None
    }

    /// The stream with the highest head bound, and that bound. `>=` so ties
    /// pick the later stream, matching the `Iterator::max_by` semantics of
    /// the pre-refactor code.
    #[inline]
    fn best_kind(&self) -> Option<(StreamKind, f64)> {
        let mut best: Option<(StreamKind, f64)> = None;
        for kind in StreamKind::ALL {
            if let Some(b) = self.score_bound(kind) {
                let better = match best {
                    Some((_, cur)) => OrdF64(b) >= OrdF64(cur),
                    None => true,
                };
                if better {
                    best = Some((kind, b));
                }
            }
        }
        best
    }

    /// Admissible upper bound (normalised score units) on every point not
    /// yet surfaced by [`RawAngleStream::next_raw`]; `None` once drained.
    #[inline]
    pub(crate) fn bound(&self) -> Option<f64> {
        self.best_kind().map(|(_, b)| b)
    }

    /// Surfaces the next frontier point (possibly a duplicate of an
    /// earlier emission — points belong to two projection streams), or
    /// `None` once every stream is drained.
    pub(crate) fn next_raw(&mut self) -> Option<u32> {
        loop {
            let (kind, _) = self.best_kind()?;
            // A node entry can expand to zero valid children; retry on the
            // then-best stream until a point surfaces or all heaps drain.
            if let Some((slot, _)) = self.pull(kind) {
                return Some(slot);
            }
        }
    }
}

/// `sin(a − b)`: positive exactly when `a` lies above `b` on [0°, 90°] — the
/// angle order without an `atan2`.
#[inline]
fn sin_diff(a: &Angle, b: &Angle) -> f64 {
    a.sin * b.cos - a.cos * b.sin
}

/// Two angles closer than this on the sine of their difference are one
/// angle: a weight angle this close to an indexed one *is* indexed, and one
/// at least this far outside the indexed range is out of range.
const SAME_ANGLE_SIN: f64 = 1e-12;

/// Finds the indexed angle equal to `theta` (up to [`SAME_ANGLE_SIN`]).
pub(crate) fn indexed_angle(angles: &[Angle], theta: &Angle) -> Option<usize> {
    angles
        .iter()
        .position(|a| sin_diff(a, theta).abs() < SAME_ANGLE_SIN)
}

/// The two consecutive indexed angles bracketing `theta` (`angles`
/// ascending, non-empty).
pub(crate) fn bracketing(angles: &[Angle], theta: &Angle) -> Result<(usize, usize), SdError> {
    let (first, last) = (&angles[0], &angles[angles.len() - 1]);
    if sin_diff(first, theta) >= SAME_ANGLE_SIN || sin_diff(theta, last) >= SAME_ANGLE_SIN {
        return Err(SdError::AngleOutOfRange {
            requested_deg: theta.degrees(),
            min_deg: first.degrees(),
            max_deg: last.degrees(),
        });
    }
    let upper = angles.partition_point(|a| sin_diff(theta, a) > 0.0);
    let upper = upper.min(angles.len() - 1);
    Ok((upper.saturating_sub(1), upper))
}

/// The narrowest bracket the closed form of [`FrontierEval`] is trusted at,
/// as `sin(θ_u − θ_l)`: 0.01°. The λ's divide by that sine, so their
/// absolute error — and the bound's, relative to the projection keys — is
/// ≈ 1e-16 / sin(θ_u − θ_l): 3e-16 on the default 22.5° grid, 6e-13 here,
/// which is where it meets the 1e-12 relative slack of
/// [`inflate`](crate::kernels::inflate).
const MIN_BRACKET_SIN: f64 = 1.745e-4;

/// How a frontier ([`PairFrontier`] over the dynamic tree,
/// [`BlockFrontier`](super::blocks::BlockFrontier) over the stored one)
/// scores an envelope for the query `(θ_q, q)`: the Claim 6 bracket in
/// closed form, every query constant computed once.
///
/// **Why it is admissible.** Per projection type, a point's score at angle
/// θ is its projection key plus a term of the query alone — e.g. for the
/// right-lower type `u_θ(p) + sin θ·x_q − cos θ·y_q` — and both
/// `u_θ = cos θ·y − sin θ·x` and `v_θ = cos θ·y + sin θ·x` are linear in
/// `(cos θ, sin θ)`. For indexed angles θ_l ≤ θ_q ≤ θ_u,
///
/// ```text
/// (cos θ_q, sin θ_q) = λ₁·(cos θ_l, sin θ_l) + λ₂·(cos θ_u, sin θ_u)
/// λ₁ = sin(θ_u − θ_q) / sin(θ_u − θ_l) ≥ 0,   λ₂ = sin(θ_q − θ_l) / sin(θ_u − θ_l) ≥ 0
/// ```
///
/// so a point's key at θ_q *is* λ₁·(its key at θ_l) + λ₂·(its key at θ_u),
/// and the maximum of that over an envelope is at most
/// `λ₁·max_l + λ₂·max_u` (the minimum at least `λ₁·min_l + λ₂·min_u`): the
/// two stored tables bound the type at θ_q with two multiplies and two adds.
/// This is the both-constraints-tight vertex of the linear programme Claim 6
/// poses over a pair of stream bounds; its other two vertices bind only
/// where a type's non-negativity cuts in, and are not evaluated. An indexed
/// θ_q is the bracket `λ = (1, 0)` on its own table, where the mix is exact:
/// the stored key plus the query term, bit for bit.
///
/// The λ's are trusted down to a bracket of [`MIN_BRACKET_SIN`];
/// [`FrontierEval::at`] widens a narrower one to the next indexed
/// neighbour (any θ_l ≤ θ_q ≤ θ_u brackets, adjacent or not).
pub(crate) struct FrontierEval {
    /// θ_q — the indexed angle itself when θ_q is one.
    pub(crate) theta: Angle,
    pub(crate) qx: f64,
    pub(crate) qy: f64,
    /// Table columns of θ_l and θ_u; equal when θ_q is indexed.
    pub(crate) lo_i: usize,
    pub(crate) hi_i: usize,
    l1: f64,
    l2: f64,
    /// The query term of each projection type at θ_q, by [`StreamKind`].
    k: [f64; 4],
}

impl FrontierEval {
    /// The evaluation of the query `(theta, (qx, qy))` over an index whose
    /// indexed angles are `angles` (ascending). The single source of the
    /// indexed-or-bracketed decision: the planner, the §5 pair streams and
    /// the direct 2-D path all read it here.
    pub(crate) fn at(angles: &[Angle], theta: &Angle, qx: f64, qy: f64) -> Result<Self, SdError> {
        let (theta, lo_i, hi_i, l1, l2) = match indexed_angle(angles, theta) {
            Some(i) => (angles[i], i, i, 1.0, 0.0),
            None => {
                let (mut lo, mut hi) = bracketing(angles, theta)?;
                while sin_diff(&angles[hi], &angles[lo]) < MIN_BRACKET_SIN {
                    if lo > 0 {
                        lo -= 1;
                    } else if hi + 1 < angles.len() {
                        hi += 1;
                    } else {
                        break; // the whole indexed range is that narrow
                    }
                }
                let (l, u) = (&angles[lo], &angles[hi]);
                let det = sin_diff(u, l);
                (
                    *theta,
                    lo,
                    hi,
                    sin_diff(u, theta) / det,
                    sin_diff(theta, l) / det,
                )
            }
        };
        let (sx, cy) = (theta.sin * qx, theta.cos * qy);
        Ok(FrontierEval {
            theta,
            qx,
            qy,
            lo_i,
            hi_i,
            l1,
            l2,
            k: [sx - cy, -sx - cy, cy + sx, cy - sx],
        })
    }

    /// `true` when θ_q is an indexed angle (no bracket).
    pub(crate) fn indexed(&self) -> bool {
        self.lo_i == self.hi_i
    }

    /// Admissible normalised θ_q score bound, for points on `kind`'s side of
    /// the axis, of the envelope whose per-angle bounds start at
    /// `table[base]`.
    #[inline]
    pub(crate) fn score(&self, table: &[AngleBounds], base: usize, kind: StreamKind) -> f64 {
        let (lo, hi) = (&table[base + self.lo_i], &table[base + self.hi_i]);
        let mix = |l: f64, u: f64| self.l1 * l + self.l2 * u;
        match kind {
            StreamKind::Llp => mix(lo.max_u, hi.max_u) + self.k[0],
            StreamKind::Rlp => mix(lo.max_v, hi.max_v) + self.k[1],
            StreamKind::Lup => self.k[2] - mix(lo.min_v, hi.min_v),
            StreamKind::Rup => self.k[3] - mix(lo.min_u, hi.min_u),
        }
    }
}

/// Uncertified best-first frontier over a [`TopKIndex`]'s per-point tree
/// whose heap priorities *are* admissible normalised θ_q score bounds —
/// exact scores for point entries. What a `TopKIndex` query walks after a
/// point-level mutation dropped its derived blocks; reachable from nothing
/// else (an engine shard walks a
/// [`BlockFrontier`](super::blocks::BlockFrontier)).
///
/// `next_raw` may surface the same slot twice (a point belongs to two of
/// the four projection streams); callers dedupe with a seen-set.
pub(crate) struct PairFrontier<'a> {
    index: &'a TopKIndex,
    eval: FrontierEval,
    s: AngleScratch,
}

impl<'a> PairFrontier<'a> {
    /// Starts a frontier reusing a warmed scratch (reset internally).
    pub(crate) fn with_scratch(
        index: &'a TopKIndex,
        eval: FrontierEval,
        mut s: AngleScratch,
    ) -> Self {
        s.reset();
        let mut f = PairFrontier { index, eval, s };
        if let Some(root) = index.root {
            for kind in StreamKind::ALL {
                f.push_node(kind, root);
            }
        }
        f
    }

    /// Recovers the scratch buffers for reuse by a later query.
    pub(crate) fn into_scratch(self) -> AngleScratch {
        self.s
    }

    /// Exact normalised θ_q score of one point.
    #[inline]
    fn point_score(&self, slot: u32) -> f64 {
        let (x, y) = self.index.pts[slot as usize];
        let e = &self.eval;
        e.theta.normalized_score(x, y, e.qx, e.qy)
    }

    fn push_node(&mut self, kind: StreamKind, node_id: u32) {
        let id = node_id as usize;
        let (xmin, xmax) = self.index.node_xr[id];
        let valid = if kind.left_side() {
            xmin < self.eval.qx
        } else {
            xmax >= self.eval.qx
        };
        if !valid {
            return;
        }
        let base = id * self.index.angles.len();
        let prio = self.eval.score(&self.index.node_bounds, base, kind);
        self.s.heaps[kind as usize].push((OrdF64::new(prio), Reverse(node_id), 0));
    }

    fn push_point(&mut self, kind: StreamKind, slot: u32) {
        let x = self.index.pts[slot as usize].0;
        let valid = if kind.left_side() {
            x < self.eval.qx
        } else {
            x >= self.eval.qx
        };
        if !valid {
            return;
        }
        self.s.heaps[kind as usize].push((OrdF64::new(self.point_score(slot)), Reverse(slot), 1));
    }

    /// Admissible upper bound (normalised θ_q units) on every point not yet
    /// surfaced; `None` once drained.
    #[inline]
    pub(crate) fn bound(&self) -> Option<f64> {
        let mut acc: Option<f64> = None;
        for h in &self.s.heaps {
            if let Some(&(OrdF64(p), _, _)) = h.peek() {
                acc = Some(match acc {
                    Some(a) if a >= p => a,
                    _ => p,
                });
            }
        }
        acc
    }

    /// Surfaces the next frontier entry `(slot, exact θ_q score)`, possibly
    /// a duplicate of an earlier emission; `None` once drained.
    pub(crate) fn next_raw(&mut self) -> Option<(u32, f64)> {
        loop {
            // Argmax over the four heads; priorities are score bounds, so
            // no conversion is needed at scan time.
            let mut best: Option<(usize, f64)> = None;
            for (k, h) in self.s.heaps.iter().enumerate() {
                if let Some(&(OrdF64(p), _, _)) = h.peek() {
                    let better = match best {
                        Some((_, cur)) => OrdF64(p) >= OrdF64(cur),
                        None => true,
                    };
                    if better {
                        best = Some((k, p));
                    }
                }
            }
            let (kind_i, _) = best?;
            let kind = StreamKind::ALL[kind_i];
            let index = self.index;
            let (OrdF64(prio), Reverse(id), is_point) =
                self.s.heaps[kind_i].pop().expect("peeked entry");
            if is_point == 1 {
                return Some((id, prio));
            }
            // Inner node: expand, then re-evaluate the argmax.
            for child in &index.nodes[id as usize].children {
                match *child {
                    Child::Inner(c) => self.push_node(kind, c),
                    Child::Point(p) => self.push_point(kind, p),
                }
            }
        }
    }
}

/// Certified incremental top-k at one *indexed* angle: successive calls to
/// [`AngleQuery::next`] yield points in exact non-increasing normalised
/// score order.
///
/// This is the engine behind the published Alg. 4
/// ([`query_alg4`](super::arbitrary::query_alg4)). All mutable state lives
/// in the owned [`AngleScratch`], which [`AngleQuery::into_scratch`] recovers for
/// reuse once the query is done.
pub struct AngleQuery<'a> {
    raw: RawAngleStream<'a>,
}

impl<'a> AngleQuery<'a> {
    /// Starts a query at indexed angle `angle_i` with fresh (allocating)
    /// scratch state.
    pub(crate) fn new(index: &'a TopKIndex, angle_i: usize, qx: f64, qy: f64) -> Self {
        Self::with_scratch(index, angle_i, qx, qy, AngleScratch::default())
    }

    /// Starts a query reusing a warmed scratch (reset internally).
    pub(crate) fn with_scratch(
        index: &'a TopKIndex,
        angle_i: usize,
        qx: f64,
        qy: f64,
        s: AngleScratch,
    ) -> Self {
        AngleQuery {
            raw: RawAngleStream::with_scratch(index, angle_i, qx, qy, s),
        }
    }

    /// The angle this query runs at.
    pub fn angle(&self) -> Angle {
        self.raw.angle()
    }

    /// Upper bound on the normalised score of every point not yet
    /// *returned* by [`AngleQuery::next`] (pooled candidates included);
    /// `None` once the query is fully drained.
    pub fn bound(&self) -> Option<f64> {
        let t = self.raw.bound();
        let p = self.raw.s.pool.peek().map(|&(OrdF64(s), _)| s);
        match (t, p) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Yields the next-best point as `(slot, normalised score)`.
    ///
    /// Deliberately named like `Iterator::next`; the certified stream is
    /// stateful and fallible-free, but an `Iterator` impl would hide the
    /// `bound()` coupling callers rely on.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u32, f64)> {
        loop {
            let threshold = self.raw.bound();
            if let Some(&(OrdF64(best), Reverse(slot))) = self.raw.s.pool.peek() {
                // Emit only once the pooled best dominates every stream
                // bound with slack to spare, so FP skew between key-space
                // bounds and direct scoring can never emit prematurely.
                let dominated = match threshold {
                    Some(t) => best >= inflate(t),
                    None => true,
                };
                if dominated {
                    self.raw.s.pool.pop();
                    return Some((slot, best));
                }
            } else if threshold.is_none() {
                return None;
            }
            // Pull one point from the stream with the highest bound and
            // pool its exact score.
            if let Some(slot) = self.raw.next_raw() {
                if self.raw.s.seen.insert(slot) {
                    let (px, py) = self.raw.index.pts[slot as usize];
                    let score = self
                        .raw
                        .angle
                        .normalized_score(px, py, self.raw.qx, self.raw.qy);
                    self.raw.s.pool.push((OrdF64::new(score), Reverse(slot)));
                }
            }
        }
    }
}
