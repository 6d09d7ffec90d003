//! What a frontier over the §4 index scores its entries by: the four
//! projection types ([`StreamKind`]), the indexed-or-bracketed decision for
//! a weight angle ([`indexed_angle`], [`bracketing`]) and the closed-form
//! Claim 6 bound of an envelope at that angle ([`FrontierEval`]).
//!
//! ## Relation to the paper
//!
//! Alg. 3 finds the separating path and *mutates* bounds along it so the
//! root bound only reflects projections incident on the query axis; Alg. 2
//! then repeatedly extracts per-type top projections. A frontier realises
//! the same pruning without mutation: it is seeded at the root and scores an
//! envelope only under the projection types of the sides of the axis its
//! x-range reaches, so popping in bound order visits exactly the envelopes
//! the mutated search would, and the index stays immutable during queries.

use std::cmp::Reverse;

use super::AngleBounds;
use crate::geometry::Angle;
use crate::types::{OrdF64, SdError};

/// One frontier-heap element of the block walk: `(priority, Reverse(level),
/// index within level)`.
pub(crate) type HeapEntry = (OrdF64, Reverse<u32>, u32);

/// The four projection types, one per side of the query axis and direction
/// of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
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
    /// Every type, in table order.
    pub const ALL: [StreamKind; 4] = [
        StreamKind::Llp,
        StreamKind::Rlp,
        StreamKind::Lup,
        StreamKind::Rup,
    ];

    /// Serves points left of the axis?
    #[inline]
    pub fn left_side(self) -> bool {
        matches!(self, StreamKind::Rlp | StreamKind::Rup)
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
pub fn bracketing(angles: &[Angle], theta: &Angle) -> Result<(usize, usize), SdError> {
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

/// How a frontier (the block walk's `BlockFrontier` over a
/// stored pair, or the `sdq-paper` crate's over the dynamic tree) scores an
/// envelope for the query `(θ_q, q)`: the Claim 6 bracket in
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
/// The λ's are trusted down to a bracket of `MIN_BRACKET_SIN` (0.01°);
/// [`FrontierEval::at`] widens a narrower one to the next indexed
/// neighbour (any θ_l ≤ θ_q ≤ θ_u brackets, adjacent or not).
///
/// [`FrontierEval::at`] is the only constructor, and the public fields are
/// its outputs, to be read: the private λ's and query terms were computed
/// from them.
pub struct FrontierEval {
    /// θ_q — the indexed angle itself when θ_q is one.
    pub theta: Angle,
    /// The query point.
    pub qx: f64,
    pub qy: f64,
    /// Table columns of θ_l and θ_u; equal when θ_q is indexed.
    pub lo_i: usize,
    pub hi_i: usize,
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
    pub fn at(angles: &[Angle], theta: &Angle, qx: f64, qy: f64) -> Result<Self, SdError> {
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
    pub fn indexed(&self) -> bool {
        self.lo_i == self.hi_i
    }

    /// Admissible normalised θ_q score bound, for points on `kind`'s side of
    /// the axis, of the envelope whose per-angle bounds start at
    /// `table[base]`.
    #[inline]
    pub fn score(&self, table: &[AngleBounds], base: usize, kind: StreamKind) -> f64 {
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
