//! Isoline geometry of §2: projection angles and rotated projection keys —
//! what an engine's frontier bounds blocks with. (The projection types of
//! Eqn. 6 and the score-via-projection identities of Claims 1–3 live with
//! the paper's reference structures, in `sdq-paper`'s `geometry`.)
//!
//! ## Parametrisation
//!
//! The paper parametrises the projection slope as `m = β/α = tan θ`
//! (Eqn. 5), which degenerates at `θ = 90°` (`α = 0`). We instead normalise
//! the weight vector to the unit circle: `(α, β) = r·(cos θ, sin θ)` with
//! `r = √(α² + β²) > 0`. Because the top-k ordering of
//! `SD-score = α|Δy| − β|Δx| = r·(cos θ·|Δy| − sin θ·|Δx|)` is invariant
//! under the positive rescaling by `r`, all index machinery works on the
//! *normalised* score `cos θ·|Δy| − sin θ·|Δx|` and exact answers are
//! re-scored with the caller's raw weights.
//!
//! ## Projection keys
//!
//! Every point has four projections (Definition 4). Projections of one type
//! are parallel, so their relative order is captured by a scalar intercept:
//!
//! * `u = cos θ·y − sin θ·x` orders **llp** (descending = higher) and
//!   **rup** (ascending = lower) projections,
//! * `v = cos θ·y + sin θ·x` orders **rlp** (descending = higher) and
//!   **lup** (ascending = lower) projections.
//!
//! `u`/`v` are the coordinates of the point in the frame rotated by `θ` —
//! projecting on `x = −∞` / `x = +∞` as §4.1 describes is exactly a
//! comparison of these keys.

use crate::types::SdError;

/// A projection angle `θ ∈ [0°, 90°]` stored as `(cos θ, sin θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    /// `cos θ` — the normalised repulsive weight.
    pub cos: f64,
    /// `sin θ` — the normalised attractive weight.
    pub sin: f64,
}

impl Angle {
    /// Builds the angle for weights `α` (repulsive) and `β` (attractive):
    /// `θ = arctan(β/α)` (Eqn. 5), handled via `atan2` so `α = 0` is exact.
    pub fn from_weights(alpha: f64, beta: f64) -> Result<Self, SdError> {
        if !(alpha.is_finite() && beta.is_finite()) || alpha < 0.0 || beta < 0.0 {
            return Err(SdError::InvalidWeight {
                dim: 0,
                value: if alpha.is_finite() && alpha >= 0.0 {
                    beta
                } else {
                    alpha
                },
            });
        }
        let r = alpha.hypot(beta);
        if r == 0.0 {
            return Err(SdError::DegenerateWeights);
        }
        Ok(Angle {
            cos: alpha / r,
            sin: beta / r,
        })
    }

    /// Builds an angle from degrees in `[0, 90]`.
    pub fn from_degrees(deg: f64) -> Result<Self, SdError> {
        if !deg.is_finite() || !(0.0..=90.0).contains(&deg) {
            return Err(SdError::AngleOutOfRange {
                requested_deg: deg,
                min_deg: 0.0,
                max_deg: 90.0,
            });
        }
        let rad = deg.to_radians();
        // Pin the endpoints so 0° and 90° are exact (sin 90° via cos 0°).
        let (sin, cos) = if deg == 0.0 {
            (0.0, 1.0)
        } else if deg == 90.0 {
            (1.0, 0.0)
        } else {
            rad.sin_cos()
        };
        Ok(Angle { cos, sin })
    }

    /// The angle in degrees.
    #[inline]
    pub fn degrees(&self) -> f64 {
        self.sin.atan2(self.cos).to_degrees()
    }

    /// Projection key `u = cos θ·y − sin θ·x` (orders llp/rup projections).
    #[inline]
    pub fn u(&self, x: f64, y: f64) -> f64 {
        self.cos * y - self.sin * x
    }

    /// Projection key `v = cos θ·y + sin θ·x` (orders rlp/lup projections).
    #[inline]
    pub fn v(&self, x: f64, y: f64) -> f64 {
        self.cos * y + self.sin * x
    }

    /// Normalised SD-score `cos θ·|y_p − y_q| − sin θ·|x_p − x_q|`.
    #[inline]
    pub fn normalized_score(&self, px: f64, py: f64, qx: f64, qy: f64) -> f64 {
        self.cos * (py - qy).abs() - self.sin * (px - qx).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angle_from_weights_normalises() {
        let a = Angle::from_weights(3.0, 4.0).unwrap();
        assert!((a.cos - 0.6).abs() < 1e-12);
        assert!((a.sin - 0.8).abs() < 1e-12);
        assert!((a.degrees() - (4.0f64 / 3.0).atan().to_degrees()).abs() < 1e-9);
    }

    #[test]
    fn angle_endpoints_are_exact() {
        let a0 = Angle::from_degrees(0.0).unwrap();
        assert_eq!((a0.cos, a0.sin), (1.0, 0.0));
        let a90 = Angle::from_degrees(90.0).unwrap();
        assert_eq!((a90.cos, a90.sin), (0.0, 1.0));
        // Pure attraction (α = 0) maps to 90°.
        let a = Angle::from_weights(0.0, 2.5).unwrap();
        assert_eq!((a.cos, a.sin), (0.0, 1.0));
    }

    #[test]
    fn angle_rejects_bad_weights() {
        assert!(Angle::from_weights(0.0, 0.0).is_err());
        assert!(Angle::from_weights(-1.0, 1.0).is_err());
        assert!(Angle::from_weights(f64::NAN, 1.0).is_err());
        assert!(Angle::from_degrees(90.5).is_err());
        assert!(Angle::from_degrees(-0.1).is_err());
    }

    #[test]
    fn score_monotone_nonincreasing_in_theta() {
        // S_p(θ) = cosθ|Δy| − sinθ|Δx| is non-increasing in θ — the property
        // behind both Claim 6 and the multi-angle stream bounds.
        let (px, py, qx, qy) = (3.0, 4.0, 1.0, 1.5);
        let mut last = f64::INFINITY;
        for deg in 0..=90 {
            let a = Angle::from_degrees(deg as f64).unwrap();
            let s = a.normalized_score(px, py, qx, qy);
            assert!(s <= last + 1e-12);
            last = s;
        }
    }
}
