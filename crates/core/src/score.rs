//! SD-score evaluation (Definition 1, Eqn. 3) and query descriptors.
//!
//! These kernels are shared by every index structure and baseline so that a
//! single definition of the scoring function backs the whole workspace.

use crate::types::{check_coordinate, Dataset, PointId, ScoredPoint, SdError, MAX_MAGNITUDE};

/// Role of one dimension in an SD-Query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimRole {
    /// Dimension in `S`: similarity is desired; its weighted distance is
    /// *subtracted* from the score.
    Attractive,
    /// Dimension in `D`: distance is desired; its weighted distance is
    /// *added* to the score.
    Repulsive,
}

impl DimRole {
    /// Sign with which this dimension's weighted distance enters the score.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            DimRole::Attractive => -1.0,
            DimRole::Repulsive => 1.0,
        }
    }
}

/// A fully specified SD-Query: a query point plus per-dimension weights.
///
/// Roles are a property of the *index* (fixed at build time per §5 pairing);
/// weights (`α` for repulsive dims, `β` for attractive dims) are supplied at
/// query time, matching §4.2.
#[derive(Debug, Clone, PartialEq)]
pub struct SdQuery {
    /// Query point coordinates, one per dimension.
    pub point: Vec<f64>,
    /// Per-dimension non-negative weight: `α_i` when the dimension is
    /// repulsive, `β_j` when attractive.
    pub weights: Vec<f64>,
}

impl SdQuery {
    /// Creates a query after validating shapes, finiteness, weight signs and
    /// the magnitude bound ([`MAX_MAGNITUDE`]) on coordinates and weights.
    pub fn new(point: Vec<f64>, weights: Vec<f64>) -> Result<Self, SdError> {
        if point.len() != weights.len() {
            return Err(SdError::DimensionMismatch {
                expected: point.len(),
                got: weights.len(),
            });
        }
        for (dim, &v) in point.iter().enumerate() {
            check_coordinate(0, dim, v)?;
        }
        for (dim, &w) in weights.iter().enumerate() {
            // A NaN lies in no range.
            if !(0.0..=MAX_MAGNITUDE).contains(&w) {
                return Err(SdError::InvalidWeight { dim, value: w });
            }
        }
        Ok(SdQuery { point, weights })
    }

    /// Creates a query with all weights set to 1 (the paper's default
    /// `α = β = 1`). Roles are only used for arity checking.
    pub fn uniform_weights(point: Vec<f64>, roles: &[DimRole]) -> Self {
        assert_eq!(point.len(), roles.len(), "query arity must match roles");
        let weights = vec![1.0; point.len()];
        SdQuery { point, weights }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.point.len()
    }
}

/// Evaluates `SD-score(p, q)` (Eqn. 3) for raw coordinate slices.
///
/// `roles`, `weights`, `p` and `q` must share one length; debug builds
/// assert this, release builds rely on the caller (hot path).
#[inline]
pub fn sd_score(p: &[f64], q: &[f64], roles: &[DimRole], weights: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    debug_assert_eq!(p.len(), roles.len());
    debug_assert_eq!(p.len(), weights.len());
    let mut score = 0.0;
    for i in 0..p.len() {
        score += roles[i].sign() * weights[i] * (p[i] - q[i]).abs();
    }
    score
}

/// Evaluates the score of a dataset point against a query.
#[inline]
pub fn sd_score_point(data: &Dataset, id: PointId, query: &SdQuery, roles: &[DimRole]) -> f64 {
    sd_score(data.point(id), &query.point, roles, &query.weights)
}

/// The 2-D specialisation (Eqn. 4): `α·|y_p − y_q| − β·|x_p − x_q|`, where
/// `x` is the attractive dimension and `y` the repulsive one.
#[inline]
pub fn sd_score_2d(px: f64, py: f64, qx: f64, qy: f64, alpha: f64, beta: f64) -> f64 {
    alpha * (py - qy).abs() - beta * (px - qx).abs()
}

/// Orders two `(score, id)` pairs: primary by score descending, tie-broken by
/// id ascending so every algorithm in the workspace agrees on one canonical
/// top-k answer even under score ties.
#[inline]
pub fn rank_cmp(a: &ScoredPoint, b: &ScoredPoint) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.id.cmp(&b.id))
}

/// Returns `true` when `a` ranks strictly better than `b` under [`rank_cmp`].
#[inline]
pub fn ranks_before(a: &ScoredPoint, b: &ScoredPoint) -> bool {
    rank_cmp(a, b) == std::cmp::Ordering::Less
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Dataset, PointId};

    #[test]
    fn paper_running_example_scores() {
        // Figure 1 / §2 example: with α = β = 1,
        // SD-score(p1, q1) = 3 − 0 = 3 and SD-score(p3, q2) = 2 − 0 = 2.
        // Coordinates reconstructed to honour those gaps: x attractive
        // (phylogeny), y repulsive (habitat).
        let q1 = [1.0, 1.0];
        let p1 = [1.0, 4.0]; // same phylogeny, habitat distance 3
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let w = [1.0, 1.0];
        assert_eq!(sd_score(&p1, &q1, &roles, &w), 3.0);

        let q2 = [5.0, 6.0];
        let p3 = [5.0, 8.0];
        assert_eq!(sd_score(&p3, &q2, &roles, &w), 2.0);
    }

    #[test]
    fn score_is_non_monotonic() {
        // f(x) = −β|x − q| over an attractive dim first rises then falls as x
        // sweeps past q: witnesses non-monotonicity.
        let roles = [DimRole::Attractive];
        let w = [1.0];
        let q = [5.0];
        let s = |x: f64| sd_score(&[x], &q, &roles, &w);
        assert!(s(4.0) > s(3.0));
        assert!(s(6.0) > s(7.0));
        assert!(s(5.0) > s(4.0) && s(5.0) > s(6.0));
    }

    #[test]
    fn weights_scale_contributions() {
        let roles = [DimRole::Repulsive, DimRole::Attractive];
        let s = sd_score(&[3.0, 3.0], &[1.0, 1.0], &roles, &[2.0, 0.5]);
        assert_eq!(s, 2.0 * 2.0 - 0.5 * 2.0);
    }

    #[test]
    fn sd_score_2d_matches_generic() {
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let p = [2.0, 7.0];
        let q = [4.5, 3.0];
        let (beta, alpha) = (0.7, 1.3);
        let generic = sd_score(&p, &q, &roles, &[beta, alpha]);
        let special = sd_score_2d(p[0], p[1], q[0], q[1], alpha, beta);
        assert!((generic - special).abs() < 1e-12);
    }

    #[test]
    fn query_validation() {
        assert!(SdQuery::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(SdQuery::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(SdQuery::new(vec![0.0], vec![-1.0]).is_err());
        assert!(SdQuery::new(vec![0.0], vec![f64::INFINITY]).is_err());
        assert!(SdQuery::new(vec![0.0, 1.0], vec![0.0, 3.0]).is_ok());
    }

    #[test]
    fn a_query_whose_scores_could_overflow_is_refused() {
        // −∞ attractive plus +∞ repulsive would score NaN on any row.
        let err = SdQuery::new(vec![1e308, -1e308], vec![1e308, 1e308]).unwrap_err();
        assert!(matches!(
            err,
            SdError::CoordinateOutOfRange { row: 0, dim: 0, .. }
        ));
        let err = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1e308]).unwrap_err();
        assert!(matches!(err, SdError::InvalidWeight { dim: 1, .. }));
        let m = MAX_MAGNITUDE;
        let q = SdQuery::new(vec![m, -m], vec![m, m]).unwrap();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let s = sd_score(&[-m, m], &q.point, &roles, &q.weights);
        assert!(s.is_finite(), "the bound keeps every score finite: {s}");
    }

    #[test]
    fn score_point_reads_dataset() {
        let data = Dataset::from_rows(2, &[vec![0.0, 10.0]]).unwrap();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(sd_score_point(&data, PointId::new(0), &q, &roles), 10.0);
    }

    #[test]
    fn rank_cmp_breaks_ties_by_id() {
        let a = ScoredPoint::new(PointId::new(3), 1.0);
        let b = ScoredPoint::new(PointId::new(1), 1.0);
        assert!(ranks_before(&b, &a));
        let c = ScoredPoint::new(PointId::new(9), 2.0);
        assert!(ranks_before(&c, &b));
    }
}
