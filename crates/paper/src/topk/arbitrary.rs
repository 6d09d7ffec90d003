//! Queries over the dynamic tree at any weight angle — §4.2, Claim 6,
//! Alg. 4.
//!
//! **Alg. 4** ([`query_alg4`]): compute top-k at the lower bracketing
//! indexed angle `θ_l`, pull the certified θ_u stream until it contains
//! every θ_l answer (by Claim 6 this prefix ⊇ the true top-k at θ_q),
//! re-score and keep the best k. Its soundness rests on the
//! single-crossing property: two points' score orderings flip at most once
//! as θ grows. Its *cost*, however, explodes when the bracket is wide and
//! θ_q sits near one end: the θ_l order is then a poor proxy for θ_q and
//! the "smallest enclosing prefix" can reach a constant fraction of the
//! dataset (measured: hundreds of ms at n = 10⁶ for θ_q ≈ 20° under the
//! default 22.5° grid).
//!
//! **Bracketed frontier** (what [`TopKIndex::query`] runs,
//! `query_points_with`): one best-first walk of the tree whose every node
//! is bounded *at θ_q* from its two bracketing tables —
//! `λ₁·(bound at θ_l) + λ₂·(bound at θ_u)` per projection type, the closed
//! form of the Claim 6 bracket (`sdq_core::topk::FrontierEval` has the
//! argument) — so the bracket is applied per node rather than per stream,
//! and the tree is walked once, not once per bracketing angle. Every
//! surfaced point is scored exactly at the caller's weights; emission
//! happens once the pooled best beats the frontier's bound. Exact for every
//! input, and immune to the one-sided pathology.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdq_core::geometry::Angle;
use sdq_core::kernels::inflate;
use sdq_core::score::rank_cmp;
use sdq_core::topk::{bracketing, FrontierEval};
use sdq_core::{OrdF64, PointId, ScoredPoint, SdError};

use super::stream::{AngleQuery, FastSet, PairFrontier};
use super::{QueryScratch, TopKIndex};

/// Ties at the θ_u cut are padded within this relative score slack so a
/// floating-point-equal prefix boundary cannot exclude a true answer.
const TIE_EPS: f64 = 1e-9;

/// The certified-frontier loop over the tree's [`PairFrontier`], leaving
/// the answer in `scratch.answers`.
///
/// Canonical-emission invariant: a pooled candidate is emitted only when
/// its exact score is **strictly** above the inflated admissible bound on
/// everything unsurfaced, so score ties always resolve through the pool's
/// `(score, Reverse(slot))` order — smallest slot first — independent of
/// frontier traversal order. That is the order `sdq_core`'s block walk
/// emits in, so the two answer bit for bit alike. Once `k` exact scores
/// have been seen, no unsurfaced point strictly below the k-th of them can
/// enter the answer: when the admissible bound falls below that floor the
/// pool drains directly (in canonical order).
pub(crate) fn query_points_with(
    index: &TopKIndex,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scratch: &mut QueryScratch,
) -> Result<(), SdError> {
    let theta = Angle::from_weights(alpha, beta)?;
    let eval = FrontierEval::at(&index.angles, &theta, qx, qy)?;
    let r = alpha.hypot(beta);
    let QueryScratch {
        heaps,
        pool,
        seen,
        floor,
        answers,
    } = scratch;
    let mut frontier = PairFrontier::with_heaps(index, eval, std::mem::take(heaps));
    let k_eff = k.min(index.n_alive);
    pool.clear();
    seen.clear();
    floor.clear();
    answers.clear();
    answers.reserve(k_eff);
    while answers.len() < k_eff {
        let threshold = frontier.bound().map(|b| r * b);
        // Certified canonical emission.
        if let Some(&(OrdF64(s), Reverse(slot))) = pool.peek() {
            if threshold.is_none_or(|t| s > inflate(t)) {
                pool.pop();
                answers.push(ScoredPoint::new(PointId::new(slot), s));
                continue;
            }
        }
        let Some(t) = threshold else {
            break; // drained, and so is the pool
        };
        // Floor-based early termination.
        if floor.len() == k_eff && floor.peek().expect("floor is non-empty").0 .0 > inflate(t) {
            while answers.len() < k_eff {
                match pool.pop() {
                    Some((OrdF64(s), Reverse(slot))) => {
                        answers.push(ScoredPoint::new(PointId::new(slot), s))
                    }
                    None => break,
                }
            }
            break;
        }
        if let Some((slot, _)) = frontier.next_raw() {
            if seen.insert(slot) {
                let sp = index.rescore(slot, qx, qy, alpha, beta);
                track_floor(floor, k_eff, sp.score);
                pool.push((OrdF64::new(sp.score), Reverse(slot)));
            }
        }
    }
    answers.sort_unstable_by(rank_cmp);
    *heaps = frontier.into_heaps();
    Ok(())
}

/// Feeds one exact candidate score into a size-capped min-heap tracking the
/// best `cap` scores seen so far; the heap top is then the running
/// k-th-best floor.
fn track_floor(floor: &mut BinaryHeap<Reverse<OrdF64>>, cap: usize, score: f64) {
    if floor.len() < cap {
        floor.push(Reverse(OrdF64::new(score)));
    } else if floor
        .peek()
        .is_some_and(|&Reverse(kth)| kth < OrdF64(score))
    {
        floor.pop();
        floor.push(Reverse(OrdF64::new(score)));
    }
}

/// Alg. 4 exactly as published (kept for fidelity and comparison; see the
/// module docs for its cost caveat).
pub fn query_alg4(
    index: &TopKIndex,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    theta: &Angle,
) -> Result<Vec<ScoredPoint>, SdError> {
    let (lo, hi) = bracketing(&index.angles, theta)?;

    // Step 1: top-k at the lower indexed angle.
    let mut aq_l = AngleQuery::new(index, lo, qx, qy);
    // No answer holds more than the live points, whatever `k` asks.
    let cap = k.min(index.len());
    let mut needed: Vec<u32> = Vec::with_capacity(cap);
    for _ in 0..k {
        match aq_l.next() {
            Some((slot, _)) => needed.push(slot),
            None => break,
        }
    }

    // Step 2: grow the smallest θ_u-prefix containing the θ_l answer.
    let mut aq_u = AngleQuery::new(index, hi, qx, qy);
    let mut candidates: Vec<u32> = Vec::with_capacity(2 * cap);
    let mut remaining: FastSet = needed.iter().copied().collect();
    let mut last_score = f64::INFINITY;
    while !remaining.is_empty() {
        match aq_u.next() {
            Some((slot, s)) => {
                remaining.remove(&slot);
                candidates.push(slot);
                last_score = s;
            }
            None => break, // stream enumerated everything
        }
    }
    // Tie padding: pull while the θ_u score stays within FP slack of the
    // cut so equal-score boundary points cannot be lost.
    if last_score.is_finite() {
        let slack = TIE_EPS * (1.0 + last_score.abs());
        // Peeking is not available; pull and stop on the first point
        // clearly below the cut.
        while let Some((slot, s)) = aq_u.next() {
            candidates.push(slot);
            if s < last_score - slack {
                break;
            }
        }
    }

    // Step 3: exact re-scoring at the caller's weights.
    let mut out: Vec<ScoredPoint> = candidates
        .iter()
        .map(|&slot| index.rescore(slot, qx, qy, alpha, beta))
        .collect();
    out.sort_by(rank_cmp);
    out.truncate(k.min(index.n_alive));
    Ok(out)
}
