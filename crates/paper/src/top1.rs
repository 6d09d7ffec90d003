//! The §3 index structure for queries with `k`, `α`, `β` known a priori.
//!
//! The 2-D plane is partitioned (separately for the lower- and
//! upper-projection sides) into regions in which the identity of the `k`
//! best projection providers is static (Claim 5). A query binary-searches
//! the region containing its axis, compares the ≤ 2k candidate points
//! exactly, and returns — `O(log n + k)` per query, `O(kn)` storage,
//! `O(n log n + nk)` construction, exactly the bounds of §3.
//!
//! For `k = 1` the regions are the plain tent envelopes (Alg. 1) and the
//! paper's incremental *insert*/*delete* operations are supported at their
//! stated `O(n)` worst-case cost: inserts splice the envelopes locally,
//! deletes of an indexed provider re-sweep from cached sorted projection
//! lists ("we do not need to recompute or sort the projections since they
//! were already computed while constructing the index"). For `k > 1`
//! updates rebuild the k-level, which the paper leaves unspecified.

use crate::envelope::{k_level, k_level_lower, sweep_presorted, KLevel, Keyed, Tent};
use sdq_core::geometry::Angle;
use sdq_core::score::{rank_cmp, sd_score_2d};
use sdq_core::{PointId, ScoredPoint, SdError};

/// Precomputed top-k index for fixed `k` and fixed weights `α`, `β`.
///
/// Point identity is the insertion slot: the `i`-th point passed to
/// [`Top1Index::build`] (or returned by [`Top1Index::insert`]) has
/// `PointId::new(i)`. Deleted slots are tombstoned and never reused.
#[derive(Debug, Clone)]
pub struct Top1Index {
    k: usize,
    alpha: f64,
    beta: f64,
    angle: Angle,
    tents: Vec<Tent>,
    alive: Vec<bool>,
    n_alive: usize,
    /// Regions of the k highest lower projections.
    lower: KLevel,
    /// Regions of the k lowest upper projections.
    upper: KLevel,
    /// Cached sweep orders (lower / mirrored upper) for O(n) delete rebuilds.
    order_lower: Vec<Keyed>,
    order_upper: Vec<Keyed>,
}

impl Top1Index {
    /// Builds the index over `points` (pairs `(x, y)` with `x` the
    /// attractive and `y` the repulsive dimension).
    ///
    /// `O(n log n + nk)`.
    pub fn build(points: &[(f64, f64)], alpha: f64, beta: f64, k: usize) -> Result<Self, SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        let angle = Angle::from_weights(alpha, beta)?;
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
        if points.len() > u32::MAX as usize {
            return Err(SdError::TooManyPoints(points.len()));
        }
        let tents: Vec<Tent> = points.iter().map(|&(x, y)| Tent::new(x, y)).collect();
        let mut idx = Top1Index {
            k,
            alpha,
            beta,
            angle,
            alive: vec![true; tents.len()],
            n_alive: tents.len(),
            tents,
            lower: empty_level(),
            upper: empty_level(),
            order_lower: Vec::new(),
            order_upper: Vec::new(),
        };
        idx.rebuild();
        Ok(idx)
    }

    /// Creates an empty index ready for [`Top1Index::insert`]s.
    pub fn new(alpha: f64, beta: f64, k: usize) -> Result<Self, SdError> {
        Self::build(&[], alpha, beta, k)
    }

    /// The fixed result size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The fixed weights `(α, β)`.
    pub fn weights(&self) -> (f64, f64) {
        (self.alpha, self.beta)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// Coordinates of a live point.
    pub fn point(&self, id: PointId) -> Option<(f64, f64)> {
        let slot = id.index();
        if slot < self.tents.len() && self.alive[slot] {
            Some((self.tents[slot].x, self.tents[slot].y))
        } else {
            None
        }
    }

    /// Number of indexed regions (lower + upper side).
    pub fn num_regions(&self) -> usize {
        self.lower.num_regions() + self.upper.num_regions()
    }

    /// Approximate heap footprint of the *index* (regions + providers) in
    /// bytes. When `include_caches` is set, the tent table and the cached
    /// sweep orders kept for O(n) updates are counted too — the memory
    /// experiment (Fig. 8h) reports the index-only figure, as the paper
    /// counts only indexed regions.
    pub fn memory_bytes(&self, include_caches: bool) -> usize {
        let mut total = self.lower.memory_bytes() + self.upper.memory_bytes();
        if include_caches {
            total += self.tents.len() * std::mem::size_of::<Tent>()
                + self.alive.len()
                + (self.order_lower.len() + self.order_upper.len()) * std::mem::size_of::<Keyed>();
        }
        total
    }

    /// Answers the fixed-`k` query for query point `(qx, qy)`:
    /// `min(k, n)` results ordered best-first (score descending, ties by id).
    ///
    /// `O(log n + k)`.
    pub fn query(&self, qx: f64, qy: f64) -> Vec<ScoredPoint> {
        if self.n_alive == 0 {
            return Vec::new();
        }
        let mut cand: Vec<u32> = Vec::with_capacity(self.lower.stride + self.upper.stride);
        cand.extend_from_slice(self.lower.region_at(qx));
        cand.extend_from_slice(self.upper.region_at(qx));
        cand.sort_unstable();
        cand.dedup();
        let mut scored: Vec<ScoredPoint> = cand
            .into_iter()
            .map(|slot| {
                let t = self.tents[slot as usize];
                ScoredPoint::new(
                    PointId::new(slot),
                    sd_score_2d(t.x, t.y, qx, qy, self.alpha, self.beta),
                )
            })
            .collect();
        scored.sort_by(rank_cmp);
        scored.truncate(self.k.min(self.n_alive));
        scored
    }

    /// Inserts a point and returns its id.
    ///
    /// For `k = 1` this is the paper's incremental insert: a region lookup
    /// decides whether the point can ever be an answer; if so the affected
    /// envelope stretch is spliced in place (`O(n)` worst case, far less on
    /// average since most points are dominated). For `k > 1` the k-level is
    /// rebuilt.
    pub fn insert(&mut self, x: f64, y: f64) -> Result<PointId, SdError> {
        if !x.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: self.tents.len(),
                dim: 0,
                value: x,
            });
        }
        if !y.is_finite() {
            return Err(SdError::NonFiniteCoordinate {
                row: self.tents.len(),
                dim: 1,
                value: y,
            });
        }
        let slot = self.tents.len() as u32;
        self.tents.push(Tent::new(x, y));
        self.alive.push(true);
        self.n_alive += 1;
        if self.k == 1 && self.n_alive > 1 {
            let kl = Keyed::of(&self.angle, &self.tents, slot, false);
            let ku = Keyed::of(&self.angle, &self.tents, slot, true);
            let pos = self
                .order_lower
                .binary_search_by(|probe| probe.sweep_cmp(&kl))
                .unwrap_or_else(|e| e);
            self.order_lower.insert(pos, kl);
            let pos = self
                .order_upper
                .binary_search_by(|probe| probe.sweep_cmp(&ku))
                .unwrap_or_else(|e| e);
            self.order_upper.insert(pos, ku);
            splice_insert(&self.angle, &mut self.lower, kl, &self.tents, false);
            splice_insert(&self.angle, &mut self.upper, ku, &self.tents, true);
        } else {
            self.rebuild();
        }
        Ok(PointId::new(slot))
    }

    /// Deletes a point by id. Returns `false` when the id is unknown or
    /// already deleted.
    pub fn delete(&mut self, id: PointId) -> bool {
        let slot = id.index();
        if slot >= self.tents.len() || !self.alive[slot] {
            return false;
        }
        self.alive[slot] = false;
        self.n_alive -= 1;
        if self.k == 1 {
            self.order_lower.retain(|kd| kd.idx != id.raw());
            self.order_upper.retain(|kd| kd.idx != id.raw());
            if self.n_alive == 0 {
                self.lower = empty_level();
                self.upper = empty_level();
                return true;
            }
            // Claim 5: a provider's region contains its own x, so a single
            // region lookup per side decides whether a re-sweep is needed.
            if self.lower.region_at(self.tents[slot].x).contains(&id.raw()) {
                self.lower = level_from_regions(sweep_presorted(self.angle.sin, &self.order_lower));
            }
            if self.upper.region_at(self.tents[slot].x).contains(&id.raw()) {
                self.upper = level_from_regions(sweep_presorted(self.angle.sin, &self.order_upper));
            }
        } else {
            self.rebuild();
        }
        true
    }

    /// Full reconstruction from the live points.
    fn rebuild(&mut self) {
        let live: Vec<u32> = (0..self.tents.len() as u32)
            .filter(|&i| self.alive[i as usize])
            .collect();

        if self.k == 1 {
            self.order_lower = live
                .iter()
                .map(|&i| Keyed::of(&self.angle, &self.tents, i, false))
                .collect();
            self.order_lower.sort_by(Keyed::sweep_cmp);
            self.order_upper = live
                .iter()
                .map(|&i| Keyed::of(&self.angle, &self.tents, i, true))
                .collect();
            self.order_upper.sort_by(Keyed::sweep_cmp);
            if live.is_empty() {
                self.lower = empty_level();
                self.upper = empty_level();
                return;
            }
            self.lower = level_from_regions(sweep_presorted(self.angle.sin, &self.order_lower));
            self.upper = level_from_regions(sweep_presorted(self.angle.sin, &self.order_upper));
        } else {
            let live_tents: Vec<Tent> = live.iter().map(|&i| self.tents[i as usize]).collect();
            let remap = |kl: KLevel| KLevel {
                x_starts: kl.x_starts,
                providers: kl.providers.iter().map(|&p| live[p as usize]).collect(),
                stride: kl.stride,
            };
            self.lower = remap(k_level(&self.angle, &live_tents, self.k));
            self.upper = remap(k_level_lower(&self.angle, &live_tents, self.k));
            self.order_lower.clear();
            self.order_upper.clear();
        }
    }
}

fn empty_level() -> KLevel {
    KLevel {
        x_starts: vec![f64::NEG_INFINITY],
        providers: Vec::new(),
        stride: 0,
    }
}

/// Converts a stride-1 envelope region list into the [`KLevel`] layout.
fn level_from_regions(regions: Vec<crate::envelope::EnvelopeRegion>) -> KLevel {
    let mut x_starts = Vec::with_capacity(regions.len());
    let mut providers = Vec::with_capacity(regions.len());
    for r in regions {
        x_starts.push(r.x_start);
        providers.push(r.provider);
    }
    KLevel {
        x_starts,
        providers,
        stride: 1,
    }
}

/// Splices a newly inserted tent into a stride-1 envelope level in place.
///
/// `mirror` selects the upper-projection side (vee functions, handled by
/// the y-negation identity).
fn splice_insert(angle: &Angle, level: &mut KLevel, new: Keyed, tents: &[Tent], mirror: bool) {
    debug_assert_eq!(level.stride, 1);
    let sin = angle.sin;
    let key_of = |idx: u32| -> Keyed { Keyed::of(angle, tents, idx, mirror) };
    let n_regions = level.x_starts.len();

    // Region containing the new apex.
    let r = level.x_starts.partition_point(|&b| b <= new.x) - 1;
    let prov = key_of(level.providers[r]);

    if sin == 0.0 {
        // Flat tents: one region; replace iff strictly higher.
        if new.u > prov.u {
            level.providers[0] = new.idx;
        }
        return;
    }

    // Peak test: the new tent is on the envelope iff its apex pokes above
    // the current provider's tent (the envelope-minus-tent difference is
    // monotone away from the apex, so this single comparison decides).
    let apex = new.u + sin * new.x;
    let prov_at_apex = (prov.u + sin * new.x).min(prov.v - sin * new.x);
    if apex <= prov_at_apex {
        return;
    }

    // Walk left: find the last region (jl) that survives, cut at xl.
    let mut left_cut: Option<(usize, f64)> = None;
    for j in (0..=r).rev() {
        let pj = key_of(level.providers[j]);
        if pj.u > new.u {
            // pj rules the far left; it overtakes `new` at x*.
            let x_star = (pj.v - new.u) / (2.0 * sin);
            if x_star > level.x_starts[j] {
                left_cut = Some((j, x_star));
                break;
            }
        }
        // Otherwise `new` covers all of region j; keep walking.
    }

    // Walk right: find the first region (jr) that resumes, from xr.
    let mut right_cut: Option<(usize, f64)> = None;
    for j in r..n_regions {
        let pj = key_of(level.providers[j]);
        if pj.v > new.v {
            // pj rules the far right; it overtakes `new` at x*.
            let x_star = (new.v - pj.u) / (2.0 * sin);
            let right_edge = if j + 1 < n_regions {
                level.x_starts[j + 1]
            } else {
                f64::INFINITY
            };
            if x_star < right_edge {
                right_cut = Some((j, x_star));
                break;
            }
        }
    }

    let mut x_starts = Vec::with_capacity(n_regions + 2);
    let mut providers = Vec::with_capacity(n_regions + 2);
    match left_cut {
        Some((jl, xl)) => {
            x_starts.extend_from_slice(&level.x_starts[..=jl]);
            providers.extend_from_slice(&level.providers[..=jl]);
            x_starts.push(xl);
        }
        None => x_starts.push(f64::NEG_INFINITY),
    }
    providers.push(new.idx);
    if let Some((jr, xr)) = right_cut {
        x_starts.push(xr);
        providers.push(level.providers[jr]);
        if jr + 1 < n_regions {
            x_starts.extend_from_slice(&level.x_starts[jr + 1..]);
            providers.extend_from_slice(&level.providers[jr + 1..]);
        }
    }
    level.x_starts = x_starts;
    level.providers = providers;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Oracle: exhaustive top-k under the canonical rank order.
    fn oracle(
        points: &[(f64, f64)],
        alive: &[bool],
        qx: f64,
        qy: f64,
        a: f64,
        b: f64,
        k: usize,
    ) -> Vec<ScoredPoint> {
        let mut all: Vec<ScoredPoint> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(i, &(x, y))| {
                ScoredPoint::new(PointId::new(i as u32), sd_score_2d(x, y, qx, qy, a, b))
            })
            .collect();
        all.sort_by(rank_cmp);
        all.truncate(k);
        all
    }

    fn assert_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) {
        assert_eq!(got.len(), want.len(), "got {got:?}\nwant {want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.score - w.score).abs() < 1e-9,
                "score mismatch: got {got:?}\nwant {want:?}"
            );
        }
    }

    #[test]
    fn paper_figure1_top1() {
        // Figure 1: q1's best match is p1 (same phylogeny x, distant
        // habitat y); q2's is p3.
        let pts = [
            (1.0, 9.0), // p1
            (6.0, 8.0), // p2
            (8.0, 9.0), // p3
            (2.0, 2.0), // p4
            (7.0, 3.0), // p5
        ];
        let idx = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
        let q1 = (1.0, 2.0);
        assert_eq!(idx.query(q1.0, q1.1)[0].id.index(), 0);
        let q2 = (8.0, 3.0);
        assert_eq!(idx.query(q2.0, q2.1)[0].id.index(), 2);
    }

    #[test]
    fn top1_matches_oracle_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..50 {
            let n = rng.gen_range(1..80);
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect();
            let alpha = rng.gen_range(0.01..1.0);
            let beta = rng.gen_range(0.0..1.0);
            let idx = Top1Index::build(&pts, alpha, beta, 1).unwrap();
            let alive = vec![true; n];
            for _ in 0..30 {
                let (qx, qy) = (rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
                let got = idx.query(qx, qy);
                let want = oracle(&pts, &alive, qx, qy, alpha, beta, 1);
                assert_equiv(&got, &want);
                let _ = trial;
            }
        }
    }

    #[test]
    fn fixed_k_matches_oracle_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let n = rng.gen_range(1..60);
            let k = rng.gen_range(2..9);
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect();
            let alpha = rng.gen_range(0.05..1.0);
            let beta = rng.gen_range(0.0..1.0);
            let idx = Top1Index::build(&pts, alpha, beta, k).unwrap();
            let alive = vec![true; n];
            for _ in 0..20 {
                let (qx, qy) = (rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
                assert_equiv(
                    &idx.query(qx, qy),
                    &oracle(&pts, &alive, qx, qy, alpha, beta, k),
                );
            }
        }
    }

    #[test]
    fn pure_attraction_angle_90() {
        // α = 0 is the degenerate "nearest in x" query; the index must
        // still answer (θ = 90°).
        let pts = [(0.0, 5.0), (3.0, -2.0), (7.0, 1.0)];
        let idx = Top1Index::build(&pts, 0.0, 1.0, 1).unwrap();
        assert_eq!(idx.query(6.5, 0.0)[0].id.index(), 2);
        assert_eq!(idx.query(0.5, 0.0)[0].id.index(), 0);
    }

    #[test]
    fn pure_repulsion_angle_0() {
        // β = 0: farthest in y wins regardless of x.
        let pts = [(0.0, 5.0), (3.0, -2.0), (7.0, 1.0)];
        let idx = Top1Index::build(&pts, 1.0, 0.0, 1).unwrap();
        assert_eq!(idx.query(0.0, -3.0)[0].id.index(), 0);
        assert_eq!(idx.query(0.0, 4.0)[0].id.index(), 1);
    }

    #[test]
    fn insert_matches_rebuilt_index() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut pts: Vec<(f64, f64)> = (0..20)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut idx = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
        for _ in 0..60 {
            let p = (rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5));
            pts.push(p);
            idx.insert(p.0, p.1).unwrap();
            let alive = vec![true; pts.len()];
            for _ in 0..8 {
                let (qx, qy) = (rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5));
                assert_equiv(
                    &idx.query(qx, qy),
                    &oracle(&pts, &alive, qx, qy, 1.0, 1.0, 1),
                );
            }
        }
    }

    #[test]
    fn delete_matches_rebuilt_index() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut idx = Top1Index::build(&pts, 0.8, 0.6, 1).unwrap();
        let mut alive = vec![true; pts.len()];
        let mut order: Vec<usize> = (0..pts.len()).collect();
        // Deterministic shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &victim in order.iter().take(49) {
            assert!(idx.delete(PointId::new(victim as u32)));
            assert!(
                !idx.delete(PointId::new(victim as u32)),
                "double delete must fail"
            );
            alive[victim] = false;
            for _ in 0..6 {
                let (qx, qy) = (rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5));
                assert_equiv(
                    &idx.query(qx, qy),
                    &oracle(&pts, &alive, qx, qy, 0.8, 0.6, 1),
                );
            }
        }
    }

    #[test]
    fn mixed_updates_fixed_k() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let mut idx = Top1Index::build(&pts, 1.0, 0.5, 3).unwrap();
        let mut shadow: Vec<(f64, f64)> = pts.clone();
        let mut alive = vec![true; pts.len()];
        for step in 0..40 {
            if step % 3 == 0 && alive.iter().any(|&a| a) {
                let victims: Vec<usize> = alive
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| a)
                    .map(|(i, _)| i)
                    .collect();
                let victim = victims[rng.gen_range(0..victims.len())];
                idx.delete(PointId::new(victim as u32));
                alive[victim] = false;
            } else {
                let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                idx.insert(p.0, p.1).unwrap();
                shadow.push(p);
                alive.push(true);
            }
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            assert_equiv(
                &idx.query(qx, qy),
                &oracle(&shadow, &alive, qx, qy, 1.0, 0.5, 3),
            );
        }
    }

    #[test]
    fn empty_index_lifecycle() {
        let mut idx = Top1Index::new(1.0, 1.0, 1).unwrap();
        assert!(idx.is_empty());
        assert!(idx.query(0.0, 0.0).is_empty());
        let id = idx.insert(0.5, 0.5).unwrap();
        assert_eq!(idx.query(0.0, 0.0)[0].id, id);
        assert!(idx.delete(id));
        assert!(idx.is_empty());
        assert!(idx.query(0.0, 0.0).is_empty());
        // Insert again after emptying.
        let id2 = idx.insert(0.1, 0.9).unwrap();
        assert_eq!(idx.query(0.3, 0.3)[0].id, id2);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            Top1Index::build(&[], 1.0, 1.0, 0),
            Err(SdError::ZeroK)
        ));
        assert!(Top1Index::build(&[], 0.0, 0.0, 1).is_err());
        assert!(Top1Index::build(&[(f64::NAN, 0.0)], 1.0, 1.0, 1).is_err());
        let mut idx = Top1Index::new(1.0, 1.0, 1).unwrap();
        assert!(idx.insert(f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn k_larger_than_n() {
        let pts = [(0.0, 0.0), (1.0, 1.0)];
        let idx = Top1Index::build(&pts, 1.0, 1.0, 5).unwrap();
        assert_eq!(idx.query(0.5, 0.5).len(), 2);
    }

    #[test]
    fn duplicate_points_both_returned() {
        let pts = [(0.3, 0.7), (0.3, 0.7), (0.9, 0.1)];
        let idx = Top1Index::build(&pts, 1.0, 1.0, 2).unwrap();
        let res = idx.query(0.3, 0.0);
        assert_eq!(res.len(), 2);
        assert!((res[0].score - res[1].score).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let idx = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
        assert!(idx.memory_bytes(false) > 0);
        assert!(idx.memory_bytes(true) > idx.memory_bytes(false));
        // Far fewer regions than points: the index only keeps potential
        // answers (the rotated-space skyline).
        assert!(idx.num_regions() < 2 * pts.len());
    }
}
