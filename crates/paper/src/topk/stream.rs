//! Query-time machinery of Alg. 2/3 over the dynamic tree: its per-point
//! frontier, and the certified stream at one indexed angle.
//!
//! ## Relation to the paper
//!
//! Alg. 3 finds the separating path and *mutates* bounds along it so the
//! root bound only reflects projections incident on the query axis; Alg. 2
//! then repeatedly extracts per-type top projections. [`PairFrontier`]
//! realises the same pruning without mutation: each projection type runs a
//! best-first search seeded at the root, skipping children entirely on the
//! wrong side of the axis. Popping in bound order visits exactly the nodes
//! the mutated search would, and the index remains immutable during queries.
//!
//! Alg. 2's loop adds the best *projected* candidate straight to the answer
//! set and stops after `k + 3` searches. Projected order equals score order
//! only within the correct point group (`y_p ≥ y_q` for lower streams);
//! a stream head from the other group merely *upper-bounds* its own score.
//! [`AngleQuery`] therefore runs the standard certified threshold loop —
//! emit a pooled candidate only once its exact score dominates every
//! remaining stream bound — which is provably exact for every input and
//! performs the paper's `k + 3` pulls on the common path.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use sdq_core::kernels::inflate;
use sdq_core::topk::{FrontierEval, StreamKind};
use sdq_core::OrdF64;

use super::{Child, TopKIndex};

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

/// One frontier-heap element: `(bound, Reverse(node-or-slot id), is_point as
/// u32)`.
type HeapEntry = (OrdF64, Reverse<u32>, u32);

/// The four per-type frontier heaps of one walk, indexed by [`StreamKind`].
pub(crate) type Heaps = [BinaryHeap<HeapEntry>; 4];

/// Exact-score candidate pool: best first, ties by slot ascending.
pub(crate) type Pool = BinaryHeap<(OrdF64, Reverse<u32>)>;

/// Uncertified best-first frontier over a [`TopKIndex`] whose heap
/// priorities *are* admissible normalised θ_q score bounds under `eval` —
/// exact scores for point entries. The tree's one frontier: a query at any
/// weight angle walks it, and so does [`AngleQuery`] at an indexed one.
///
/// `next_raw` may surface the same slot twice (a point belongs to two of
/// the four projection streams); callers dedupe with a seen-set.
pub(crate) struct PairFrontier<'a> {
    index: &'a TopKIndex,
    eval: FrontierEval,
    heaps: Heaps,
}

impl<'a> PairFrontier<'a> {
    /// Starts a frontier in recycled heaps (cleared here).
    pub(crate) fn with_heaps(index: &'a TopKIndex, eval: FrontierEval, mut heaps: Heaps) -> Self {
        for h in &mut heaps {
            h.clear();
        }
        let mut f = PairFrontier { index, eval, heaps };
        if let Some(root) = index.root {
            for kind in StreamKind::ALL {
                f.push_node(kind, root);
            }
        }
        f
    }

    /// Recovers the heaps for reuse by a later query.
    pub(crate) fn into_heaps(self) -> Heaps {
        self.heaps
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
        self.heaps[kind as usize].push((OrdF64::new(prio), Reverse(node_id), 0));
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
        self.heaps[kind as usize].push((OrdF64::new(self.point_score(slot)), Reverse(slot), 1));
    }

    /// Admissible upper bound (normalised θ_q units) on every point not yet
    /// surfaced; `None` once drained.
    #[inline]
    pub(crate) fn bound(&self) -> Option<f64> {
        let mut acc: Option<f64> = None;
        for h in &self.heaps {
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
            for (k, h) in self.heaps.iter().enumerate() {
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
                self.heaps[kind_i].pop().expect("peeked entry");
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
/// ([`query_alg4`](super::arbitrary::query_alg4)): the tree's
/// `PairFrontier` under the indexed evaluation — `λ = (1, 0)`, the stored
/// key plus the query term — plus a candidate pool and a seen-set.
pub struct AngleQuery<'a> {
    frontier: PairFrontier<'a>,
    pool: Pool,
    seen: FastSet,
}

impl<'a> AngleQuery<'a> {
    /// Starts a query at indexed angle `angle_i` with fresh (allocating)
    /// state.
    pub(crate) fn new(index: &'a TopKIndex, angle_i: usize, qx: f64, qy: f64) -> Self {
        let eval = FrontierEval::at(&index.angles, &index.angles[angle_i], qx, qy)
            .expect("an indexed angle is in range");
        AngleQuery {
            frontier: PairFrontier::with_heaps(index, eval, Heaps::default()),
            pool: Pool::new(),
            seen: FastSet::default(),
        }
    }

    /// Yields the next-best point as `(slot, normalised score)`, or `None`
    /// once every point has been.
    #[allow(clippy::should_implement_trait)] // a stream the callers pull by hand
    pub fn next(&mut self) -> Option<(u32, f64)> {
        loop {
            let threshold = self.frontier.bound();
            if let Some(&(OrdF64(best), Reverse(slot))) = self.pool.peek() {
                // Emit only once the pooled best dominates every stream
                // bound with slack to spare, so FP skew between key-space
                // bounds and direct scoring can never emit prematurely.
                if threshold.is_none_or(|t| best >= inflate(t)) {
                    self.pool.pop();
                    return Some((slot, best));
                }
            } else if threshold.is_none() {
                return None;
            }
            // Pull one point from the stream with the highest bound and
            // pool its exact score.
            if let Some((slot, score)) = self.frontier.next_raw() {
                if self.seen.insert(slot) {
                    self.pool.push((OrdF64::new(score), Reverse(slot)));
                }
            }
        }
    }
}
