//! The §4 index structure for top-k queries with runtime `k`, `α`, `β`, in
//! the form an engine stores: one pair's `BlockSet` (`blocks.rs`) — points in
//! SoA leaf blocks under a fanout-8 envelope tree that keeps, for every
//! *indexed angle* θ, bounds on the four projection intercepts of what lies
//! underneath:
//!
//! * `max u` — the highest llp, `min u` — the lowest rup,
//! * `max v` — the highest rlp, `min v` — the lowest lup,
//!
//! where `u = cosθ·y − sinθ·x`, `v = cosθ·y + sinθ·x` are the rotated keys
//! equivalent to projecting on `x = −∞` / `x = +∞` (§4.1). A query walks
//! one best-first frontier of envelopes seeded at the root; an envelope
//! serves only the projection types of the sides of the query axis its
//! x-range reaches, which realises the separating-path bound update of
//! Alg. 3 without mutating the index, so it stays shareable across
//! concurrent queries.
//!
//! Queries whose weight angle is not indexed are bounded through the Claim 6
//! bracket in closed form ([`FrontierEval`]); the walk itself, over one
//! block set or over every shard's at once, is `arbitrary.rs`.
//!
//! The paper's *dynamic* tree — one point per leaf slot, point-level
//! `insert` / `delete` and the |U|/n rebuild policy — is not here but in the
//! `sdq-paper` crate, a reference structure that reads [`FrontierEval`],
//! [`StreamKind`], [`AngleBounds`], [`normalize_angles`] and [`bracketing`]
//! from this module. An engine never mutates a pair in place (writes go to
//! its delta and tombstones, a compaction rebuilds).

pub(crate) mod arbitrary;
pub(crate) mod blocks;
pub(crate) mod stream;

use crate::geometry::Angle;
use crate::types::{OrdF64, SdError};

pub use stream::{bracketing, FrontierEval, StreamKind};

/// Default indexed angles: `{0°, 45°, 90°}` — the two axes every index must
/// hold (a zero weight is θ_q = 0° or 90°) and the diagonal.
///
/// §6.1 indexes five (0, 23, 45, 67, 90), and so did this crate until the
/// bytes were wanted for box order (`multidim`'s id column and chunk
/// table). Each indexed angle costs 32 B a block and envelope node — 2.29
/// B/row a pair of 25 000 rows for 22.5° and 67.5° together — and a query
/// between two indexed angles is bracketed in closed form at about the
/// cost of an indexed one. Three alternating pairs of benchmark runs (6 s
/// each, every answer checked) read: `mem_bytes_per_row` 53.03 → 48.44 on
/// the 2-pair shapes and 26.55 → 24.26 on the single-pair one, with
/// latency unmoved (`direct_2d` p50 8.54 → 8.44 µs, the 4-D shapes and the
/// 6-D one within their noise). `{0°, 90°}` alone cost the single-pair
/// walk 11 % of its p50, so the diagonal stays. The paper's §6
/// reproductions (`sdq-paper`, `sdq-bench`) keep §6.1's five.
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
/// every pair an engine stores must: a zero weight is θ_q = 0° or 90°, and
/// the planner serves it from the frontier at that indexed angle. The error
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
///
/// `#[repr(C)]` because format v5 maps bound tables straight off the
/// snapshot file as `[AngleBounds]`; the field order here **is** the wire
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct AngleBounds {
    pub max_u: f64,
    pub min_u: f64,
    pub max_v: f64,
    pub min_v: f64,
}

// SAFETY: `#[repr(C)]` over four f64 fields — no padding, any bit pattern
// is four valid f64s.
unsafe impl crate::view::Pod for AngleBounds {}

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

#[cfg(test)]
mod tests;
