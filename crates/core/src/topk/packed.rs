//! The disk-oriented variant of the §4 index.
//!
//! §4.1 closes with a disk-resident adaptation: the tree "is highly
//! similar to B+-tree", should be **bulk-loaded bottom-up** from
//! x-sorted data with every node "packed entirely full, except for the
//! rightmost node", leaves hold **multiple data points** (a page), and at
//! query time "a comparison among those points is required to identify the
//! one with the highest score".
//!
//! [`PackedTopKIndex`] realises that layout in memory: an implicit
//! array-packed tree (children of node `i` are the fixed range
//! `[i·f, (i+1)·f)` of the level below — no pointers at all), page-sized
//! leaves over the x-sorted point table, and per-angle projection bounds
//! per node. Queries run the same certified four-stream threshold loop as
//! the pointer-based index, including Claim 6 bracketing for non-indexed
//! weight angles. The structure is immutable; updates are served by the
//! dynamic [`TopKIndex`](super::TopKIndex) (or by rebuilding, as bulk
//! loading is `O(n log n)`).

use std::cmp::Reverse;

use super::stream::AngleScratch;
use super::AngleBounds;
use crate::geometry::Angle;
use crate::kernels::{self, inflate, LANES};
use crate::score::{rank_cmp, sd_score_2d};
use crate::scratch::QueryScratch;
use crate::types::{OrdF64, PointId, ScoredPoint, SdError};

/// One packed node: its x-range and per-angle projection bounds. Children
/// are implicit.
#[derive(Debug, Clone)]
struct PackedNode {
    xmin: f64,
    xmax: f64,
    bounds: Vec<AngleBounds>,
}

/// Bulk-loaded, pointer-free top-k index with page-sized leaves (§4.1's
/// disk-resident layout).
///
/// Point identity is the *input slot* of [`PackedTopKIndex::build`], as in
/// the dynamic index.
#[derive(Debug, Clone)]
pub struct PackedTopKIndex {
    fanout: usize,
    page: usize,
    angles: Vec<Angle>,
    /// Points sorted by x; `ids[i]` maps back to the input slot.
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
    /// `levels[0]` = leaf pages (over point ranges), last level = root.
    levels: Vec<Vec<PackedNode>>,
}

impl PackedTopKIndex {
    /// Bulk loads with the default five angles, page size 64 and fanout 16.
    pub fn build(points: &[(f64, f64)]) -> Result<Self, SdError> {
        Self::build_with(points, &super::default_angles(), 64, 16)
    }

    /// Bulk loads with explicit `angles`, leaf `page` size (points per
    /// leaf) and inner-node `fanout`.
    pub fn build_with(
        points: &[(f64, f64)],
        angles: &[Angle],
        page: usize,
        fanout: usize,
    ) -> Result<Self, SdError> {
        if fanout < 2 {
            return Err(SdError::InvalidBranching(fanout));
        }
        if page < 1 {
            return Err(SdError::InvalidBranching(page));
        }
        if angles.is_empty() {
            return Err(SdError::NoAngles);
        }
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
        let mut sorted_angles = angles.to_vec();
        sorted_angles.sort_by_key(|a| OrdF64(a.degrees()));
        sorted_angles.dedup_by(|a, b| (a.degrees() - b.degrees()).abs() < 1e-12);

        // Sort by x; ids keep the caller-visible identity.
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        order.sort_by(|&a, &b| {
            OrdF64(points[a as usize].0)
                .cmp(&OrdF64(points[b as usize].0))
                .then(a.cmp(&b))
        });
        let xs: Vec<f64> = order.iter().map(|&i| points[i as usize].0).collect();
        let ys: Vec<f64> = order.iter().map(|&i| points[i as usize].1).collect();

        let mut index = PackedTopKIndex {
            fanout,
            page,
            angles: sorted_angles,
            xs,
            ys,
            ids: order,
            levels: Vec::new(),
        };
        index.pack();
        Ok(index)
    }

    /// Builds all levels bottom-up, every node full except the rightmost.
    fn pack(&mut self) {
        self.levels.clear();
        let n = self.xs.len();
        if n == 0 {
            return;
        }
        // Leaf pages.
        let mut leaves = Vec::with_capacity(n.div_ceil(self.page));
        for start in (0..n).step_by(self.page) {
            let end = (start + self.page).min(n);
            let mut node = PackedNode {
                xmin: f64::INFINITY,
                xmax: f64::NEG_INFINITY,
                bounds: vec![AngleBounds::EMPTY; self.angles.len()],
            };
            for i in start..end {
                let (x, y) = (self.xs[i], self.ys[i]);
                node.xmin = node.xmin.min(x);
                node.xmax = node.xmax.max(x);
                for (b, a) in node.bounds.iter_mut().zip(&self.angles) {
                    b.extend_point(a.u(x, y), a.v(x, y));
                }
            }
            leaves.push(node);
        }
        self.levels.push(leaves);
        // Inner levels.
        while self.levels.last().unwrap().len() > 1 {
            let below = self.levels.last().unwrap();
            let mut level = Vec::with_capacity(below.len().div_ceil(self.fanout));
            for start in (0..below.len()).step_by(self.fanout) {
                let end = (start + self.fanout).min(below.len());
                let mut node = PackedNode {
                    xmin: f64::INFINITY,
                    xmax: f64::NEG_INFINITY,
                    bounds: vec![AngleBounds::EMPTY; self.angles.len()],
                };
                for child in &below[start..end] {
                    node.xmin = node.xmin.min(child.xmin);
                    node.xmax = node.xmax.max(child.xmax);
                    for (b, cb) in node.bounds.iter_mut().zip(&child.bounds) {
                        b.extend(cb);
                    }
                }
                level.push(node);
            }
            self.levels.push(level);
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Approximate heap footprint in bytes; pointer-free packing makes this
    /// noticeably smaller than the dynamic tree at equal parameters.
    pub fn memory_bytes(&self) -> usize {
        let pts = self.xs.len() * (2 * 8 + 4);
        let nodes: usize = self
            .levels
            .iter()
            .flatten()
            .map(|n| {
                std::mem::size_of::<PackedNode>()
                    + n.bounds.len() * std::mem::size_of::<AngleBounds>()
            })
            .sum();
        pts + nodes
    }

    /// Answers a top-k query with runtime weights, exactly as
    /// [`TopKIndex::query`](super::TopKIndex::query).
    ///
    /// Allocates fresh scratch state per call; steady-state callers should
    /// prefer [`PackedTopKIndex::query_with`].
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

    /// [`PackedTopKIndex::query`] with caller-owned scratch buffers: a
    /// warmed scratch makes the steady-state query path allocation-free.
    /// Returns a slice borrowed from the scratch, bit-identical to what
    /// `query` returns for the same arguments.
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
        if !qx.is_finite() || !qy.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: 0,
                dim: usize::from(qx.is_finite()),
                value: if qx.is_finite() { qy } else { qx },
            });
        }
        let theta = Angle::from_weights(alpha, beta)?;
        let exact = self
            .angles
            .iter()
            .position(|a| (a.sin * theta.cos - a.cos * theta.sin).abs() < 1e-12);
        scratch.answers.clear();
        if let Some(i) = exact {
            let mut aq = PackedAngleQuery::with_scratch(self, i, qx, qy, scratch.take_angle());
            scratch.answers.reserve(k.min(self.len()));
            while scratch.answers.len() < k {
                match aq.next() {
                    Some((pos, _)) => scratch.answers.push(self.rescore(pos, qx, qy, alpha, beta)),
                    None => break,
                }
            }
            scratch.put_angle(aq.into_scratch());
        } else {
            self.query_bracketed_with(qx, qy, alpha, beta, k, &theta, scratch)?;
        }
        scratch.answers.sort_unstable_by(rank_cmp);
        scratch.answers.truncate(k);
        Ok(&scratch.answers)
    }

    /// Claim 6 over the packed layout (same procedure as
    /// `topk::arbitrary::query_alg4`). Appends unsorted candidates to
    /// `scratch.answers`; the caller sorts and truncates.
    #[allow(clippy::too_many_arguments)] // internal hot path; mirrors query_with
    fn query_bracketed_with(
        &self,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
        theta: &Angle,
        scratch: &mut QueryScratch,
    ) -> Result<(), SdError> {
        let deg = theta.degrees();
        let lo_deg = self.angles.first().map(|a| a.degrees()).unwrap_or(0.0);
        let hi_deg = self.angles.last().map(|a| a.degrees()).unwrap_or(0.0);
        if deg < lo_deg - 1e-12 || deg > hi_deg + 1e-12 {
            return Err(SdError::AngleOutOfRange {
                requested_deg: deg,
                min_deg: lo_deg,
                max_deg: hi_deg,
            });
        }
        let hi = self
            .angles
            .partition_point(|a| a.degrees() < deg)
            .min(self.angles.len() - 1);
        let lo = hi.saturating_sub(1);

        // θ_l pass: the top-k positions the θ_u prefix must cover. One
        // angle scratch serves both passes back to back.
        let mut needed = scratch.take_set();
        let mut aq_l = PackedAngleQuery::with_scratch(self, lo, qx, qy, scratch.take_angle());
        for _ in 0..k {
            match aq_l.next() {
                Some((pos, _)) => {
                    needed.insert(pos as u32);
                }
                None => break,
            }
        }
        let angle_scratch = aq_l.into_scratch();

        // θ_u pass: grow the smallest prefix containing every needed
        // position, with tie padding at the cut.
        let candidates = &mut scratch.rows;
        candidates.clear();
        candidates.reserve(2 * k);
        let mut aq_u = PackedAngleQuery::with_scratch(self, hi, qx, qy, angle_scratch);
        let mut last_score = f64::INFINITY;
        while !needed.is_empty() {
            match aq_u.next() {
                Some((pos, s)) => {
                    needed.remove(&(pos as u32));
                    candidates.push(pos as u32);
                    last_score = s;
                }
                None => break,
            }
        }
        if last_score.is_finite() {
            let slack = 1e-9 * (1.0 + last_score.abs());
            while let Some((pos, s)) = aq_u.next() {
                candidates.push(pos as u32);
                if s < last_score - slack {
                    break;
                }
            }
        }
        scratch.put_angle(aq_u.into_scratch());
        scratch.put_set(needed);
        scratch.answers.reserve(scratch.rows.len());
        for i in 0..scratch.rows.len() {
            let pos = scratch.rows[i] as usize;
            let sp = self.rescore(pos, qx, qy, alpha, beta);
            scratch.answers.push(sp);
        }
        Ok(())
    }

    fn rescore(&self, pos: usize, qx: f64, qy: f64, alpha: f64, beta: f64) -> ScoredPoint {
        ScoredPoint::new(
            PointId::new(self.ids[pos]),
            sd_score_2d(self.xs[pos], self.ys[pos], qx, qy, alpha, beta),
        )
    }
}

/// Heap entries of the packed stream reuse the shared
/// [`AngleScratch`] element type: a node is `(priority, Reverse(level),
/// idx)`, a point `(priority, Reverse(POINT_LEVEL), sorted position)`.
const POINT_LEVEL: u32 = u32::MAX;

/// Certified incremental next-best over the packed layout — the
/// array-packed twin of [`super::AngleQuery`]. All mutable state lives in
/// the owned [`AngleScratch`], recovered via
/// [`PackedAngleQuery::into_scratch`] for reuse.
struct PackedAngleQuery<'a> {
    index: &'a PackedTopKIndex,
    angle_i: usize,
    angle: Angle,
    qx: f64,
    qy: f64,
    s: AngleScratch,
}

impl<'a> PackedAngleQuery<'a> {
    fn with_scratch(
        index: &'a PackedTopKIndex,
        angle_i: usize,
        qx: f64,
        qy: f64,
        mut s: AngleScratch,
    ) -> Self {
        s.reset();
        let mut q = PackedAngleQuery {
            index,
            angle_i,
            angle: index.angles[angle_i],
            qx,
            qy,
            s,
        };
        if !index.levels.is_empty() {
            let root_level = (index.levels.len() - 1) as u32;
            for kind in 0..4 {
                q.push_node(kind, root_level, 0);
            }
        }
        q
    }

    fn into_scratch(self) -> AngleScratch {
        self.s
    }

    /// kind: 0 = llp (x ≥ qx, max u), 1 = rlp (x < qx, max v),
    /// 2 = lup (x ≥ qx, min v), 3 = rup (x < qx, min u).
    fn push_node(&mut self, kind: usize, level: u32, idx: u32) {
        let node = &self.index.levels[level as usize][idx as usize];
        let left_side = kind == 1 || kind == 3;
        let valid = if left_side {
            node.xmin < self.qx
        } else {
            node.xmax >= self.qx
        };
        if !valid {
            return;
        }
        let b = &node.bounds[self.angle_i];
        let prio = match kind {
            0 => b.max_u,
            1 => b.max_v,
            2 => -b.min_v,
            _ => -b.min_u,
        };
        self.s.heaps[kind].push((OrdF64::new(prio), Reverse(level), idx));
    }

    fn stream_bound(&self, kind: usize) -> Option<f64> {
        let a = &self.angle;
        self.s.heaps[kind]
            .peek()
            .map(|&(OrdF64(p), _, _)| match kind {
                0 => p + a.sin * self.qx - a.cos * self.qy,
                1 => p - a.sin * self.qx - a.cos * self.qy,
                2 => a.cos * self.qy + p + a.sin * self.qx,
                _ => a.cos * self.qy + p - a.sin * self.qx,
            })
    }

    /// Pops one stream element; emits a point position when it surfaces.
    fn pull(&mut self, kind: usize) -> Option<u32> {
        while let Some((_, Reverse(level), idx)) = self.s.heaps[kind].pop() {
            if level == POINT_LEVEL {
                return Some(idx);
            }
            if level == 0 {
                // Leaf page: surface its points individually (the paper's
                // in-leaf comparison step). The page is SoA and x-sorted,
                // so both rotated keys of every point come from one batched
                // kernel call — bit-identical to the scalar `Angle::u`/`v`.
                let index = self.index;
                let start = idx as usize * index.page;
                let end = (start + index.page).min(index.xs.len());
                let a = self.angle;
                let left_side = kind == 1 || kind == 3;
                let (mut u, mut v) = ([0.0f64; LANES], [0.0f64; LANES]);
                let mut s = start;
                while s < end {
                    let e = (s + LANES).min(end);
                    let c = e - s;
                    kernels::rotate_block(
                        &mut u[..c],
                        &mut v[..c],
                        &index.xs[s..e],
                        &index.ys[s..e],
                        a.cos,
                        a.sin,
                    );
                    for l in 0..c {
                        let x = index.xs[s + l];
                        let valid = if left_side { x < self.qx } else { x >= self.qx };
                        if !valid {
                            continue;
                        }
                        let prio = match kind {
                            0 => u[l],
                            1 => v[l],
                            2 => -v[l],
                            _ => -u[l],
                        };
                        self.s.heaps[kind].push((
                            OrdF64::new(prio),
                            Reverse(POINT_LEVEL),
                            (s + l) as u32,
                        ));
                    }
                    s = e;
                }
            } else {
                let child_level = level - 1;
                let start = idx as usize * self.index.fanout;
                let end =
                    (start + self.index.fanout).min(self.index.levels[child_level as usize].len());
                for c in start..end {
                    self.push_node(kind, child_level, c as u32);
                }
            }
        }
        None
    }

    /// Next-best `(sorted position, normalised score)`.
    fn next(&mut self) -> Option<(usize, f64)> {
        loop {
            let threshold = (0..4)
                .filter_map(|kind| self.stream_bound(kind))
                .fold(None, |acc: Option<f64>, b| {
                    Some(acc.map_or(b, |a| a.max(b)))
                });
            if let Some(&(OrdF64(best), Reverse(pos))) = self.s.pool.peek() {
                let dominated = match threshold {
                    Some(t) => best >= inflate(t),
                    None => true,
                };
                if dominated {
                    self.s.pool.pop();
                    return Some((pos as usize, best));
                }
            } else if threshold.is_none() {
                return None;
            }
            let best_kind = (0..4)
                .filter_map(|kind| self.stream_bound(kind).map(|b| (kind, b)))
                .max_by(|a, b| OrdF64(a.1).cmp(&OrdF64(b.1)))
                .map(|(kind, _)| kind);
            let Some(kind) = best_kind else { continue };
            if let Some(pos) = self.pull(kind) {
                if self.s.seen.insert(pos) {
                    let s = self.angle.normalized_score(
                        self.index.xs[pos as usize],
                        self.index.ys[pos as usize],
                        self.qx,
                        self.qy,
                    );
                    self.s.pool.push((OrdF64::new(s), Reverse(pos)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn oracle(
        pts: &[(f64, f64)],
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
    ) -> Vec<ScoredPoint> {
        let mut all: Vec<ScoredPoint> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                ScoredPoint::new(
                    PointId::new(i as u32),
                    sd_score_2d(x, y, qx, qy, alpha, beta),
                )
            })
            .collect();
        all.sort_by(rank_cmp);
        all.truncate(k);
        all
    }

    fn assert_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.score - w.score).abs() < 1e-9,
                "got {got:?}\nwant {want:?}"
            );
        }
    }

    #[test]
    fn packed_matches_oracle_indexed_and_bracketed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(900);
        for _ in 0..25 {
            let n = rng.gen_range(1..300);
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect();
            let index = PackedTopKIndex::build(&pts).unwrap();
            for _ in 0..10 {
                let (qx, qy) = (rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
                let (alpha, beta): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.01..1.0));
                let k = rng.gen_range(1..9);
                let got = index.query(qx, qy, alpha, beta, k).unwrap();
                assert_equiv(&got, &oracle(&pts, qx, qy, alpha, beta, k));
            }
        }
    }

    #[test]
    fn packed_agrees_with_dynamic_index() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(901);
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let packed = PackedTopKIndex::build(&pts).unwrap();
        let dynamic = super::super::TopKIndex::build(&pts).unwrap();
        for _ in 0..30 {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (alpha, beta): (f64, f64) = (rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0));
            let a = packed.query(qx, qy, alpha, beta, 7).unwrap();
            let b = dynamic.query(qx, qy, alpha, beta, 7).unwrap();
            assert_equiv(&a, &b);
        }
    }

    #[test]
    fn packed_is_smaller_than_dynamic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(902);
        let pts: Vec<(f64, f64)> = (0..20_000)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let packed = PackedTopKIndex::build(&pts).unwrap();
        let dynamic = super::super::TopKIndex::build(&pts).unwrap();
        assert!(
            packed.memory_bytes() < dynamic.memory_bytes(),
            "packed {} vs dynamic {}",
            packed.memory_bytes(),
            dynamic.memory_bytes()
        );
    }

    #[test]
    fn page_and_fanout_validation() {
        assert!(matches!(
            PackedTopKIndex::build_with(&[], &super::super::default_angles(), 64, 1),
            Err(SdError::InvalidBranching(1))
        ));
        assert!(matches!(
            PackedTopKIndex::build_with(&[], &super::super::default_angles(), 0, 8),
            Err(SdError::InvalidBranching(0))
        ));
        assert!(matches!(
            PackedTopKIndex::build_with(&[], &[], 64, 8),
            Err(SdError::NoAngles)
        ));
    }

    #[test]
    fn empty_and_single_point() {
        let empty = PackedTopKIndex::build(&[]).unwrap();
        assert!(empty.is_empty());
        assert!(empty.query(0.0, 0.0, 1.0, 1.0, 3).unwrap().is_empty());
        let one = PackedTopKIndex::build(&[(0.3, 0.7)]).unwrap();
        let r = one.query(0.0, 0.0, 1.0, 1.0, 3).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0].score - (0.7 - 0.3)).abs() < 1e-12);
    }

    #[test]
    fn tiny_pages_and_fanouts_still_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(903);
        let pts: Vec<(f64, f64)> = (0..97)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        for (page, fanout) in [(1, 2), (2, 2), (3, 5), (97, 2)] {
            let index =
                PackedTopKIndex::build_with(&pts, &super::super::default_angles(), page, fanout)
                    .unwrap();
            let got = index.query(0.4, 0.6, 1.0, 1.0, 5).unwrap();
            assert_equiv(&got, &oracle(&pts, 0.4, 0.6, 1.0, 1.0, 5));
        }
    }
}
