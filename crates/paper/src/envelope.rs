//! Tent-envelope machinery behind the §3 top-1 index.
//!
//! The *lower projection* of a point `p = (x_p, y_p)` is the tent function
//! `T_p(ax) = cosθ·y_p − sinθ·|ax − x_p|` over axis positions `ax`; the
//! point providing the **highest lower projection** for a query with axis
//! `x = ax` is the provider of the *upper envelope* of all tents at `ax`.
//! Symmetrically, upper projections are vee functions
//! `V_p(ax) = cosθ·y_p + sinθ·|ax − x_p|` and the **lowest upper
//! projection** comes from their *lower envelope*.
//!
//! [`upper_envelope`] implements Alg. 1's left-to-right line sweep. A tent
//! is characterised by its rotated keys `u = cosθ·y − sinθ·x`
//! (llp intercept) and `v = cosθ·y + sinθ·x` (rlp intercept); a tent appears
//! on the envelope iff no other tent dominates it in `(u, v)` — the sweep is
//! a skyline scan in rotated coordinates, which is why correlated and
//! anti-correlated data produce much smaller top-1 indexes (§6.2, Fig. 8h).
//!
//! [`k_level`] generalises to the `k` highest tents per region (the paper's
//! fixed-`k` extension of the top-1 index): candidates are gathered by `k`
//! rounds of envelope peeling — any tent ever among the top `k` lies on one
//! of the first `k` peels — followed by an exact kinetic sweep over the
//! candidate set that records every region where the ordered top-`k`
//! changes. Storage is `O(kn)` as claimed in §3.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdq_core::geometry::Angle;
use sdq_core::OrdF64;

/// One tent: a point of the 2-D sub-space identified by its slice index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tent {
    /// Attractive-dimension coordinate.
    pub x: f64,
    /// Repulsive-dimension coordinate.
    pub y: f64,
}

impl Tent {
    /// Creates a tent at `(x, y)`.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Tent { x, y }
    }
}

/// A maximal interval `[x_start, next region's x_start)` with one static
/// envelope provider (Claim 5 guarantees providers form contiguous runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeRegion {
    /// Left boundary of the region; `-∞` for the first region.
    pub x_start: f64,
    /// Index (into the input tent slice) of the providing point.
    pub provider: u32,
}

/// A tent with its rotated sweep keys. Shared with the top-1 index, which
/// caches sorted `Keyed` lists to honour the paper's `O(n)` delete bound
/// ("we do not need to recompute or sort the projections").
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Keyed {
    pub(crate) idx: u32,
    pub(crate) x: f64,
    pub(crate) u: f64,
    pub(crate) v: f64,
}

impl Keyed {
    /// Keys of one tent; `mirror` negates `y` (upper-projection side).
    pub(crate) fn of(angle: &Angle, tents: &[Tent], i: u32, mirror: bool) -> Keyed {
        let t = tents[i as usize];
        let y = if mirror { -t.y } else { t.y };
        Keyed {
            idx: i,
            x: t.x,
            u: angle.u(t.x, y),
            v: angle.v(t.x, y),
        }
    }

    /// The canonical sweep order: `u` descending, ties by `v` descending
    /// (the right-reaching twin wins), then index ascending.
    pub(crate) fn sweep_cmp(&self, other: &Keyed) -> std::cmp::Ordering {
        OrdF64(other.u)
            .cmp(&OrdF64(self.u))
            .then_with(|| OrdF64(other.v).cmp(&OrdF64(self.v)))
            .then_with(|| self.idx.cmp(&other.idx))
    }
}

fn keyed(angle: &Angle, tents: &[Tent], subset: Option<&[u32]>) -> Vec<Keyed> {
    match subset {
        Some(ids) => ids
            .iter()
            .map(|&i| Keyed::of(angle, tents, i, false))
            .collect(),
        None => (0..tents.len() as u32)
            .map(|i| Keyed::of(angle, tents, i, false))
            .collect(),
    }
}

fn sweep_sort(items: &mut [Keyed]) {
    items.sort_by(Keyed::sweep_cmp);
}

/// Alg. 1's sweep over an already-sorted item list (see [`Keyed::sweep_cmp`]).
pub(crate) fn sweep_presorted(sin: f64, items: &[Keyed]) -> Vec<EnvelopeRegion> {
    if items.is_empty() {
        return Vec::new();
    }
    let mut regions = vec![EnvelopeRegion {
        x_start: f64::NEG_INFINITY,
        provider: items[0].idx,
    }];
    if sin == 0.0 {
        return regions;
    }
    let mut top = items[0];
    for &next in &items[1..] {
        if next.x < top.x {
            continue;
        }
        let x_in = (top.v - next.u) / (2.0 * sin);
        if x_in < next.x {
            match regions.last_mut() {
                Some(last) if x_in <= last.x_start => last.provider = next.idx,
                _ => regions.push(EnvelopeRegion {
                    x_start: x_in,
                    provider: next.idx,
                }),
            }
            top = next;
        }
    }
    regions
}

/// Computes the upper envelope of the lower-projection tents of `tents`
/// (restricted to `subset` when given) at projection angle `angle`.
///
/// Returns regions ordered by `x_start`; the provider of region `i` gives
/// the highest lower projection for every axis position in
/// `[regions[i].x_start, regions[i+1].x_start)`.
///
/// Runs in `O(n log n)` (Alg. 1).
pub fn upper_envelope(
    angle: &Angle,
    tents: &[Tent],
    subset: Option<&[u32]>,
) -> Vec<EnvelopeRegion> {
    let mut items = keyed(angle, tents, subset);
    sweep_sort(&mut items);
    sweep_presorted(angle.sin, &items)
}

/// Computes the lower envelope of the upper-projection vees: the provider
/// of the **lowest upper projection** per region.
///
/// Implemented by the mirror identity `min_p V_p = −max_p T'_p` where `T'`
/// is the tent of the y-negated point.
pub fn lower_envelope(
    angle: &Angle,
    tents: &[Tent],
    subset: Option<&[u32]>,
) -> Vec<EnvelopeRegion> {
    let mirrored: Vec<Tent> = tents.iter().map(|t| Tent::new(t.x, -t.y)).collect();
    upper_envelope(angle, &mirrored, subset)
}

/// Looks up the provider of the region containing axis position `ax`.
///
/// `regions` must be non-empty and sorted by `x_start` (as produced by the
/// sweeps above). `O(log n)`.
pub fn provider_at(regions: &[EnvelopeRegion], ax: f64) -> u32 {
    debug_assert!(!regions.is_empty());
    let mut lo = 0usize;
    let mut hi = regions.len();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if regions[mid].x_start <= ax {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    regions[lo].provider
}

/// The regions of the `k`-level: for every region, the ordered list of the
/// `k` tents with the highest lower projections (or, via
/// [`k_level_lower`], the `k` lowest upper projections).
#[derive(Debug, Clone, PartialEq)]
pub struct KLevel {
    /// Region left boundaries; `x_starts[0] == -∞`.
    pub x_starts: Vec<f64>,
    /// Flattened provider lists, `stride` entries per region, best first.
    pub providers: Vec<u32>,
    /// Providers per region: `min(k, n)`.
    pub stride: usize,
}

impl KLevel {
    /// Ordered providers of the region containing `ax`.
    pub fn region_at(&self, ax: f64) -> &[u32] {
        debug_assert!(!self.x_starts.is_empty());
        let mut lo = 0usize;
        let mut hi = self.x_starts.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.x_starts[mid] <= ax {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        &self.providers[lo * self.stride..(lo + 1) * self.stride]
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.x_starts.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.x_starts.len() * std::mem::size_of::<f64>()
            + self.providers.len() * std::mem::size_of::<u32>()
    }
}

/// Unique crossing of two tents, if any: returns the axis position where
/// `b` strictly overtakes `a`, given that `a` is (weakly) above `b` on the
/// far left. Equal-slope tents cross at most once because their difference
/// is monotone.
fn cross_over(angle: &Angle, a: &Keyed, b: &Keyed) -> Option<f64> {
    let s = angle.sin;
    if s == 0.0 {
        return None;
    }
    // `a` above at −∞ requires u_a ≥ u_b; a strict overtake requires
    // v_b > v_a (b's rlp eventually rules).
    if a.u > b.u && b.v > a.v {
        Some((a.v - b.u) / (2.0 * s))
    } else {
        None
    }
}

/// Computes the `k`-level of the lower-projection tents: every region where
/// the ordered top-`k` (by tent value, descending) changes, with its ordered
/// provider list.
///
/// Construction: `k` peeling rounds of [`upper_envelope`] gather the
/// candidate set (`O(k·n log n)`), then a kinetic sorted-list sweep over the
/// candidates enumerates the exact change points.
pub fn k_level(angle: &Angle, tents: &[Tent], k: usize) -> KLevel {
    assert!(k >= 1, "k must be ≥ 1");
    let n = tents.len();
    let stride = k.min(n);
    if n == 0 {
        return KLevel {
            x_starts: vec![f64::NEG_INFINITY],
            providers: Vec::new(),
            stride: 0,
        };
    }

    // ── Phase 1: candidate gathering by envelope peeling ────────────────
    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut candidates: Vec<u32> = Vec::new();
    for _ in 0..stride {
        if active.is_empty() {
            break;
        }
        let regions = upper_envelope(angle, tents, Some(&active));
        let mut providers: Vec<u32> = regions.iter().map(|r| r.provider).collect();
        providers.sort_unstable();
        providers.dedup();
        active.retain(|i| providers.binary_search(i).is_err());
        candidates.extend_from_slice(&providers);
    }
    // Top-up: the kinetic list needs at least `stride` tents.
    if candidates.len() < stride {
        candidates.extend(active.iter().take(stride - candidates.len()));
    }

    // ── Phase 2: exact kinetic sweep over the candidates ────────────────
    let mut items = keyed(angle, tents, Some(&candidates));
    sweep_sort(&mut items);

    let mut x_starts = vec![f64::NEG_INFINITY];
    let mut providers: Vec<u32> = items.iter().take(stride).map(|t| t.idx).collect();

    // Event = (crossing x, position, ids of the pair when scheduled).
    type Event = Reverse<(OrdF64, usize, u32, u32)>;
    let mut events: BinaryHeap<Event> = BinaryHeap::new();
    let schedule = |events: &mut BinaryHeap<Event>, items: &[Keyed], pos: usize| {
        if pos + 1 >= items.len() {
            return;
        }
        if let Some(x) = cross_over(angle, &items[pos], &items[pos + 1]) {
            events.push(Reverse((
                OrdF64::new(x),
                pos,
                items[pos].idx,
                items[pos + 1].idx,
            )));
        }
    };
    for pos in 0..items.len().saturating_sub(1) {
        schedule(&mut events, &items, pos);
    }

    while let Some(Reverse((OrdF64(x), pos, a, b))) = events.pop() {
        // Stale events: the pair moved since scheduling.
        if pos + 1 >= items.len() || items[pos].idx != a || items[pos + 1].idx != b {
            continue;
        }
        items.swap(pos, pos + 1);
        if pos < stride {
            // The ordered top-k changed: open a new region at x.
            let snapshot = items.iter().take(stride).map(|t| t.idx);
            if *x_starts.last().unwrap() == x {
                // Coalesce simultaneous crossings into one region.
                let base = (x_starts.len() - 1) * stride;
                for (slot, idx) in providers[base..].iter_mut().zip(snapshot) {
                    *slot = idx;
                }
            } else {
                x_starts.push(x);
                providers.extend(snapshot);
            }
        }
        if pos > 0 {
            schedule(&mut events, &items, pos - 1);
        }
        schedule(&mut events, &items, pos + 1);
    }

    KLevel {
        x_starts,
        providers,
        stride,
    }
}

/// The `k`-level of the *upper* projections: per region, the `k` vees with
/// the lowest values, ascending. Uses the y-mirror identity.
pub fn k_level_lower(angle: &Angle, tents: &[Tent], k: usize) -> KLevel {
    let mirrored: Vec<Tent> = tents.iter().map(|t| Tent::new(t.x, -t.y)).collect();
    k_level(angle, &mirrored, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{lower_at, upper_at};

    fn a45() -> Angle {
        Angle::from_weights(1.0, 1.0).unwrap()
    }

    fn tent_value(angle: &Angle, t: &Tent, ax: f64) -> f64 {
        lower_at(angle, t.x, t.y, ax)
    }

    fn brute_envelope_provider(angle: &Angle, tents: &[Tent], ax: f64) -> f64 {
        tents
            .iter()
            .map(|t| tent_value(angle, t, ax))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn single_tent_single_region() {
        let tents = [Tent::new(1.0, 2.0)];
        let regions = upper_envelope(&a45(), &tents, None);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].provider, 0);
        assert_eq!(regions[0].x_start, f64::NEG_INFINITY);
    }

    #[test]
    fn figure3_style_three_regions() {
        // Mirror of the paper's Figure 3: p2 rules the far left, p1 the
        // middle, p3 the right; p4/p5 are dominated.
        let a = a45();
        let tents = [
            Tent::new(0.0, 10.0), // p1: tall, middle
            Tent::new(-8.0, 7.0), // p2: left
            Tent::new(9.0, 8.0),  // p3: right
            Tent::new(-4.0, 2.0), // p4: dominated
            Tent::new(3.0, 1.0),  // p5: dominated
        ];
        let regions = upper_envelope(&a, &tents, None);
        let providers: Vec<u32> = regions.iter().map(|r| r.provider).collect();
        assert_eq!(providers, vec![1, 0, 2]);
        // Check exactness on a dense grid.
        for i in -300..300 {
            let ax = i as f64 / 10.0;
            let got = tent_value(&a, &tents[provider_at(&regions, ax) as usize], ax);
            let want = brute_envelope_provider(&a, &tents, ax);
            assert!((got - want).abs() < 1e-9, "at {ax}: {got} vs {want}");
        }
    }

    #[test]
    fn envelope_matches_bruteforce_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..60 {
            let n = rng.gen_range(1..60);
            let tents: Vec<Tent> = (0..n)
                .map(|_| Tent::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let angle = Angle::from_weights(
                rng.gen_range(0.0..1.0f64).max(1e-3),
                rng.gen_range(0.0..1.0),
            )
            .unwrap();
            let regions = upper_envelope(&angle, &tents, None);
            for i in -60..60 {
                let ax = i as f64 / 6.0;
                let got = tent_value(&angle, &tents[provider_at(&regions, ax) as usize], ax);
                let want = brute_envelope_provider(&angle, &tents, ax);
                assert!(
                    (got - want).abs() < 1e-9,
                    "trial {trial}, ax {ax}: envelope {got} vs brute {want}"
                );
            }
        }
    }

    #[test]
    fn envelope_theta_zero_picks_max_y() {
        let a = Angle::from_degrees(0.0).unwrap();
        let tents = [
            Tent::new(0.0, 1.0),
            Tent::new(5.0, 3.0),
            Tent::new(-2.0, 2.0),
        ];
        let regions = upper_envelope(&a, &tents, None);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].provider, 1);
    }

    #[test]
    fn envelope_theta_ninety() {
        // θ = 90°: tents are −|x − x_p|; the envelope provider at ax is the
        // x-nearest point.
        let a = Angle::from_degrees(90.0).unwrap();
        let tents = [Tent::new(0.0, 9.0), Tent::new(10.0, -3.0)];
        let regions = upper_envelope(&a, &tents, None);
        assert_eq!(regions.len(), 2);
        assert_eq!(provider_at(&regions, 1.0), 0);
        assert_eq!(provider_at(&regions, 9.0), 1);
        // Boundary at the midpoint.
        assert!((regions[1].x_start - 5.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_handled() {
        let a = a45();
        let tents = [
            Tent::new(1.0, 1.0),
            Tent::new(1.0, 1.0),
            Tent::new(1.0, 1.0),
        ];
        let regions = upper_envelope(&a, &tents, None);
        assert_eq!(regions.len(), 1);
    }

    #[test]
    fn lower_envelope_matches_bruteforce() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let tents: Vec<Tent> = (0..40)
            .map(|_| Tent::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let angle = Angle::from_weights(0.7, 0.9).unwrap();
        let regions = lower_envelope(&angle, &tents, None);
        for i in -50..50 {
            let ax = i as f64 / 5.0;
            let p = provider_at(&regions, ax) as usize;
            let got = upper_at(&angle, tents[p].x, tents[p].y, ax);
            let want = tents
                .iter()
                .map(|t| upper_at(&angle, t.x, t.y, ax))
                .fold(f64::INFINITY, f64::min);
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn subset_restricts_envelope() {
        let a = a45();
        let tents = [
            Tent::new(0.0, 100.0),
            Tent::new(1.0, 1.0),
            Tent::new(4.0, 2.0),
        ];
        let regions = upper_envelope(&a, &tents, Some(&[1, 2]));
        let providers: Vec<u32> = regions.iter().map(|r| r.provider).collect();
        assert!(!providers.contains(&0));
    }

    fn brute_topk(angle: &Angle, tents: &[Tent], ax: f64, k: usize) -> Vec<f64> {
        let mut vals: Vec<f64> = tents.iter().map(|t| tent_value(angle, t, ax)).collect();
        vals.sort_by(|x, y| y.partial_cmp(x).unwrap());
        vals.truncate(k);
        vals
    }

    #[test]
    fn k_level_matches_bruteforce_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n = rng.gen_range(1..50);
            let k = rng.gen_range(1..8);
            let tents: Vec<Tent> = (0..n)
                .map(|_| Tent::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)))
                .collect();
            let angle =
                Angle::from_weights(rng.gen_range(0.05..1.0), rng.gen_range(0.0..1.0)).unwrap();
            let kl = k_level(&angle, &tents, k);
            assert_eq!(kl.stride, k.min(n));
            for i in -40..40 {
                let ax = i as f64 / 4.0;
                let got: Vec<f64> = kl
                    .region_at(ax)
                    .iter()
                    .map(|&p| tent_value(&angle, &tents[p as usize], ax))
                    .collect();
                let want = brute_topk(&angle, &tents, ax, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() < 1e-9,
                        "trial {trial} ax {ax} k {k}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_level_k1_equals_envelope() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let tents: Vec<Tent> = (0..30)
            .map(|_| Tent::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let angle = a45();
        let kl = k_level(&angle, &tents, 1);
        let env = upper_envelope(&angle, &tents, None);
        for i in -30..30 {
            let ax = i as f64 / 3.0;
            assert_eq!(kl.region_at(ax)[0], provider_at(&env, ax));
        }
    }

    #[test]
    fn k_level_lower_matches_bruteforce() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let tents: Vec<Tent> = (0..35)
            .map(|_| Tent::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let angle = Angle::from_weights(0.9, 0.4).unwrap();
        let k = 4;
        let kl = k_level_lower(&angle, &tents, k);
        for i in -30..30 {
            let ax = i as f64 / 3.0;
            let got: Vec<f64> = kl
                .region_at(ax)
                .iter()
                .map(|&p| upper_at(&angle, tents[p as usize].x, tents[p as usize].y, ax))
                .collect();
            let mut want: Vec<f64> = tents
                .iter()
                .map(|t| upper_at(&angle, t.x, t.y, ax))
                .collect();
            want.sort_by(|x, y| x.partial_cmp(y).unwrap());
            want.truncate(k);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn k_level_empty_input() {
        let kl = k_level(&a45(), &[], 3);
        assert_eq!(kl.stride, 0);
        assert_eq!(kl.num_regions(), 1);
    }

    #[test]
    fn k_bigger_than_n_returns_all() {
        let tents = [Tent::new(0.0, 0.0), Tent::new(1.0, 1.0)];
        let kl = k_level(&a45(), &tents, 10);
        assert_eq!(kl.stride, 2);
        for ax in [-5.0, 0.0, 5.0] {
            assert_eq!(kl.region_at(ax).len(), 2);
        }
    }
}
