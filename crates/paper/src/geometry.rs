//! The projection geometry of §2 that the paper's proofs stand on — the
//! four projection types of Definition 4, Eqn. 6's choice among them, and
//! the score-via-projection identities of Claims 1–3 — over the angles and
//! projection keys of `sdq_core::geometry`.
//!
//! An engine never evaluates a projection at a query's axis: its frontier
//! bounds whole blocks by their projection keys (`Angle::u` / `Angle::v`).
//! These functions are what the §3 top-1 index sweeps (a lower projection is
//! the tent whose upper envelope it stores) and what the paper's claims are
//! checked against.

use sdq_core::geometry::Angle;

/// The four projection directions of Definition 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectionType {
    /// Left lower projection: ray towards `−x`, descending.
    Llp,
    /// Right lower projection: ray towards `+x`, descending.
    Rlp,
    /// Left upper projection: ray towards `−x`, ascending.
    Lup,
    /// Right upper projection: ray towards `+x`, ascending.
    Rup,
}

impl ProjectionType {
    /// All four types, in the order Alg. 2 seeds its candidates.
    pub const ALL: [ProjectionType; 4] = [
        ProjectionType::Llp,
        ProjectionType::Lup,
        ProjectionType::Rlp,
        ProjectionType::Rup,
    ];

    /// Is this a lower projection (relevant for points with `y_p ≥ y_q`)?
    #[inline]
    pub fn is_lower(self) -> bool {
        matches!(self, ProjectionType::Llp | ProjectionType::Rlp)
    }

    /// Is this a left projection (emanating towards `−x`, i.e. relevant
    /// when the query lies left of the point, `x_p ≥ x_q`)?
    #[inline]
    pub fn is_left(self) -> bool {
        matches!(self, ProjectionType::Llp | ProjectionType::Lup)
    }
}

/// Selects the unique projection of `p` that intersects `q`'s axis with the
/// correct value — Eqn. 6 of the paper.
#[inline]
pub fn projection_for(px: f64, py: f64, qx: f64, qy: f64) -> ProjectionType {
    match (py >= qy, px >= qx) {
        (true, true) => ProjectionType::Llp,
        (true, false) => ProjectionType::Rlp,
        (false, true) => ProjectionType::Lup,
        (false, false) => ProjectionType::Rup,
    }
}

/// Value of the *lower* projection of `(x, y)` at axis position `ax` in
/// normalised units: `cos θ·y − sin θ·|ax − x|`.
///
/// This is the tent function whose upper envelope the top-1 index stores;
/// for a query with `y_q ≤ y`, the normalised score equals
/// `lower_at(ax) − cos θ·y_q` (Claims 2–3 combined).
#[inline]
pub fn lower_at(angle: &Angle, x: f64, y: f64, ax: f64) -> f64 {
    angle.cos * y - angle.sin * (ax - x).abs()
}

/// Value of the *upper* projection of `(x, y)` at axis position `ax`:
/// `cos θ·y + sin θ·|ax − x|`. For `y_q > y` the normalised score is
/// `cos θ·y_q − upper_at(ax)`.
#[inline]
pub fn upper_at(angle: &Angle, x: f64, y: f64, ax: f64) -> f64 {
    angle.cos * y + angle.sin * (ax - x).abs()
}

/// `true` when `p` satisfies the Claim 1 condition with respect to `q`:
/// `q` lies between the two intersection points of `p`'s left (or right)
/// projections with `q`'s axis, which guarantees `SD-score(p, q) ≤ 0`.
#[inline]
pub fn claim1_negative_region(angle: &Angle, px: f64, py: f64, qx: f64, qy: f64) -> bool {
    // The projections intersect the axis at upper_at and lower_at; q sits
    // between them iff cosθ·y_q is inside [lower, upper].
    let cy = angle.cos * qy;
    lower_at(angle, px, py, qx) <= cy && cy <= upper_at(angle, px, py, qx)
}

/// Normalised score computed *through the projected point* (Claims 2–3):
/// for `y_p ≥ y_q` it is `lower_at − cosθ·y_q`, otherwise
/// `cosθ·y_q − upper_at`. Always equals `Angle::normalized_score`; the
/// identity is what makes projection-order pruning sound.
#[inline]
pub fn score_via_projection(angle: &Angle, px: f64, py: f64, qx: f64, qy: f64) -> f64 {
    if py >= qy {
        lower_at(angle, px, py, qx) - angle.cos * qy
    } else {
        angle.cos * qy - upper_at(angle, px, py, qx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::score::sd_score_2d;

    fn deg45() -> Angle {
        Angle::from_weights(1.0, 1.0).unwrap()
    }

    #[test]
    fn projection_selection_matches_eqn6() {
        // Query at the origin; quadrant of p decides the type.
        assert_eq!(projection_for(1.0, 1.0, 0.0, 0.0), ProjectionType::Llp);
        assert_eq!(projection_for(-1.0, 1.0, 0.0, 0.0), ProjectionType::Rlp);
        assert_eq!(projection_for(1.0, -1.0, 0.0, 0.0), ProjectionType::Lup);
        assert_eq!(projection_for(-1.0, -1.0, 0.0, 0.0), ProjectionType::Rup);
        // Boundary: y_p = y_q picks a lower projection (Eqn. 6 uses ≥).
        assert!(projection_for(1.0, 0.0, 0.0, 0.0).is_lower());
    }

    #[test]
    fn claim2_claim3_score_identity_45deg() {
        let a = deg45();
        let cases = [
            // (px, py, qx, qy) spanning all quadrants and the Claim 1 cone
            (2.0, 5.0, 0.0, 1.0),
            (-3.0, 5.0, 0.0, 1.0),
            (2.0, -5.0, 0.0, 1.0),
            (-2.0, -5.0, 0.0, 1.0),
            (4.0, 1.5, 0.0, 1.0), // inside negative cone
            (0.0, 1.0, 0.0, 1.0), // p == q
            (5.0, 1.0, 0.0, 1.0), // same y
        ];
        for (px, py, qx, qy) in cases {
            let via_proj = score_via_projection(&a, px, py, qx, qy);
            let direct = a.normalized_score(px, py, qx, qy);
            assert!(
                (via_proj - direct).abs() < 1e-12,
                "mismatch at ({px},{py}) vs ({qx},{qy}): {via_proj} vs {direct}"
            );
        }
    }

    #[test]
    fn claim2_claim3_score_identity_random_angles() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let alpha: f64 = rng.gen_range(0.0..1.0);
            let beta: f64 = rng.gen_range(0.0..1.0);
            if alpha == 0.0 && beta == 0.0 {
                continue;
            }
            let a = Angle::from_weights(alpha, beta).unwrap();
            let (px, py, qx, qy): (f64, f64, f64, f64) = (
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
            );
            let via = score_via_projection(&a, px, py, qx, qy);
            let direct = a.normalized_score(px, py, qx, qy);
            assert!((via - direct).abs() < 1e-9);
            // Normalised score times r equals the raw SD-score.
            let r = alpha.hypot(beta);
            let raw = sd_score_2d(px, py, qx, qy, alpha, beta);
            assert!((r * direct - raw).abs() < 1e-9);
        }
    }

    #[test]
    fn claim1_condition_implies_nonpositive_score() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut hits = 0;
        for _ in 0..5000 {
            let a =
                Angle::from_weights(rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0)).unwrap();
            let (px, py, qx, qy): (f64, f64, f64, f64) = (
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
            );
            if claim1_negative_region(&a, px, py, qx, qy) {
                hits += 1;
                assert!(a.normalized_score(px, py, qx, qy) <= 1e-12);
            }
        }
        assert!(hits > 100, "claim-1 region should be exercised");
    }

    #[test]
    fn projection_keys_order_parallel_projections() {
        // Two points; the one with larger u has the higher llp everywhere
        // left of both points.
        let a = deg45();
        let (p1, p2) = ((0.0, 5.0), (2.0, 6.0));
        let (u1, u2) = (a.u(p1.0, p1.1), a.u(p2.0, p2.1));
        for ax in [-10.0, -5.0, -1.0] {
            let l1 = lower_at(&a, p1.0, p1.1, ax);
            let l2 = lower_at(&a, p2.0, p2.1, ax);
            assert_eq!(u1 < u2, l1 < l2, "u-order must match llp order at {ax}");
        }
    }

    #[test]
    fn lower_upper_at_meet_at_peak() {
        let a = Angle::from_weights(0.8, 0.3).unwrap();
        let (x, y) = (1.7, -2.2);
        assert!((lower_at(&a, x, y, x) - upper_at(&a, x, y, x)).abs() < 1e-15);
        assert!((lower_at(&a, x, y, x) - a.cos * y).abs() < 1e-15);
    }
}
