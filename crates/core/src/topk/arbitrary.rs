//! Arbitrary-weight queries via angle bracketing — §4.2, Claim 6, Alg. 4 —
//! plus the bracketed frontier search this library uses by default.
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
//! **Bracketed frontier** (the default, via [`query_canonical_with`]): one
//! best-first walk of the index whose every envelope is bounded *at θ_q*
//! from its two bracketing tables — `λ₁·(bound at θ_l) + λ₂·(bound at θ_u)`
//! per projection type, the closed form of the Claim 6 bracket
//! ([`FrontierEval`] has the argument) — so the bracket is applied per
//! envelope rather than per stream, and the index is walked once, not once
//! per bracketing angle. Every surfaced point is scored exactly at the
//! caller's weights; emission happens once the pooled best beats the
//! frontier's bound. Exact for every input, and immune to the one-sided
//! pathology.

use std::cmp::Reverse;

use super::blocks::{BlockFrontier, BlockSet};
use super::stream::{AngleQuery, FrontierEval, PairFrontier};
use super::TopKIndex;
use crate::geometry::Angle;
use crate::kernels::{self, inflate, LANES};
use crate::score::rank_cmp;
use crate::scratch::QueryScratch;
use crate::threshold::{track_floor, SharedThreshold};
use crate::types::{OrdF64, PointId, ScoredPoint, SdError};

/// Ties at the θ_u cut are padded within this relative score slack so a
/// floating-point-equal prefix boundary cannot exclude a true answer.
const TIE_EPS: f64 = 1e-9;

/// Full 2-D query over one [`TopKIndex`] as a single certified frontier
/// search: over the derived blocks while they are current
/// ([`query_blocks_with`]), over the per-point tree after a point-level
/// mutation. Either way the emission is **canonical** (score descending,
/// ties by slot ascending).
#[allow(clippy::too_many_arguments)] // internal hot path; mirrors query_with
pub(crate) fn query_canonical_with(
    index: &TopKIndex,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scratch: &mut QueryScratch,
    shared: Option<&SharedThreshold>,
) -> Result<(), SdError> {
    match index.blocks() {
        Some(blocks) => query_blocks_with(blocks, qx, qy, alpha, beta, k, scratch, shared),
        None => query_points_with(index, qx, qy, alpha, beta, k, scratch, shared),
    }
}

/// The certified-frontier loop over the dynamic tree's per-point frontier.
///
/// Canonical-emission invariant: a pooled candidate is emitted only when
/// its exact score is **strictly** above the inflated admissible bound on
/// everything unsurfaced, so score ties always resolve through the pool's
/// `(score, Reverse(slot))` order — smallest slot first — independent of
/// frontier traversal order. Two additional stop rules terminate early
/// without breaking canonicity:
///
/// * **k-th-score floor**: once `k` exact scores have been seen, no
///   unsurfaced point strictly below the k-th of them can enter the answer;
///   when the admissible bound falls below that floor the pool drains
///   directly (in canonical order).
/// * **shared floor**: the same rule against the cross-shard
///   [`SharedThreshold`] floor, which other shards of the same logical
///   query raise concurrently. Every candidate this search drops is
///   strictly below a score attained by `k` real points elsewhere, so the
///   global merge cannot miss an answer.
///
/// `scratch.deadline` is consulted before every frontier pop and ends the
/// search with the typed deadline/cancel error; the scratch keeps every
/// buffer.
#[allow(clippy::too_many_arguments)] // internal hot path; mirrors query_with
fn query_points_with(
    index: &TopKIndex,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scratch: &mut QueryScratch,
    shared: Option<&SharedThreshold>,
) -> Result<(), SdError> {
    let theta = Angle::from_weights(alpha, beta)?;
    let eval = FrontierEval::at(&index.angles, &theta, qx, qy)?;
    let r = alpha.hypot(beta);
    let mut frontier = PairFrontier::with_scratch(index, eval, scratch.take_angle());
    let k_eff = k.min(index.n_alive);
    // The floor is only publishable when it covers k real points; a tree
    // with fewer than k live points can never certify a global k-th score.
    let publish = k_eff == k;
    let mut outcome = Ok(());
    {
        let QueryScratch {
            pool,
            seen,
            answers,
            floor,
            deadline,
            ..
        } = &mut *scratch;
        pool.clear();
        seen.begin(index.pts.len());
        answers.clear();
        floor.clear();
        answers.reserve(k_eff);

        while answers.len() < k_eff {
            let threshold = frontier.bound().map(|b| r * b);
            // Certified canonical emission.
            if let Some(&(OrdF64(s), Reverse(slot))) = pool.peek() {
                let done = match threshold {
                    Some(t) => s > inflate(t),
                    None => true,
                };
                if done {
                    pool.pop();
                    answers.push(ScoredPoint::new(PointId::new(slot), s));
                    continue;
                }
            } else if threshold.is_none() {
                break;
            }
            // Floor-based early termination.
            if let Some(t) = threshold {
                let mut f = f64::NEG_INFINITY;
                if floor.len() == k_eff {
                    f = floor.peek().expect("floor is non-empty").0 .0;
                    if publish {
                        if let Some(h) = shared {
                            h.raise(f);
                        }
                    }
                }
                if let Some(h) = shared {
                    f = f.max(h.floor());
                }
                if f > inflate(t) {
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
            }
            outcome = deadline.check();
            if outcome.is_err() {
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
    }
    scratch.put_angle(frontier.into_scratch());
    outcome
}

/// Full 2-D query over one stored §4 index as a single certified frontier
/// search — an engine shard's *direct* strategy for single-pair queries,
/// and a [`TopKIndex`]'s while its blocks are current. Picks the
/// indexed-angle evaluation when θ_q is indexed and the Claim 6 bracket
/// otherwise ([`FrontierEval::at`]); the emission is **canonical**, so the
/// result is bit-identical to what the §5 aggregation produces for the same
/// pair.
///
/// The block-layout twin of [`query_points_with`]: pops whole SoA leaf
/// blocks in best-first bound order, batch-scores every popped block
/// through the 2-D kernel (bit-identical to `sd_score_2d`), and pools the
/// surviving lanes. Identical emission and stop rules — strict
/// inflated-bound certification, k-th-score floor, shared floor — plus two
/// block-level savings:
///
/// * a popped envelope or block whose bound already falls below the floor
///   is discarded without expanding or scoring anything under it;
/// * blocks surface exactly once, so there is no seen-set on this path.
#[allow(clippy::too_many_arguments)] // internal hot path; mirrors query_with
pub(crate) fn query_blocks_with(
    blocks: &BlockSet,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scratch: &mut QueryScratch,
    shared: Option<&SharedThreshold>,
) -> Result<(), SdError> {
    let theta = Angle::from_weights(alpha, beta)?;
    let eval = FrontierEval::at(blocks.angles(), &theta, qx, qy)?;
    let r = alpha.hypot(beta);
    let mut frontier = BlockFrontier::with_scratch(blocks, eval, scratch.take_angle());
    let k_eff = k.min(blocks.n_live());
    let publish = k_eff == k;
    let mut outcome = Ok(());
    {
        let QueryScratch {
            pool,
            answers,
            floor,
            scores,
            deadline,
            ..
        } = &mut *scratch;
        pool.clear();
        answers.clear();
        floor.clear();
        answers.reserve(k_eff);
        scores.resize(LANES, 0.0);

        while answers.len() < k_eff {
            let threshold = frontier.bound().map(|b| r * b);
            // Certified canonical emission.
            if let Some(&(OrdF64(s), Reverse(slot))) = pool.peek() {
                let done = match threshold {
                    Some(t) => s > inflate(t),
                    None => true,
                };
                if done {
                    pool.pop();
                    answers.push(ScoredPoint::new(PointId::new(slot), s));
                    continue;
                }
            } else if threshold.is_none() {
                break;
            }
            // Floor-based early termination (and the block-prune value).
            let mut f = f64::NEG_INFINITY;
            if let Some(t) = threshold {
                if floor.len() == k_eff {
                    f = floor.peek().expect("floor is non-empty").0 .0;
                    if publish {
                        if let Some(h) = shared {
                            h.raise(f);
                        }
                    }
                }
                if let Some(h) = shared {
                    f = f.max(h.floor());
                }
                if f > inflate(t) {
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
            }
            outcome = deadline.check();
            if outcome.is_err() {
                break;
            }
            // Fetch one block; anything bounded below the floor dies here.
            let Some(block) = frontier.next_block(|b| f > inflate(r * b)) else {
                continue; // drained: the next iteration drains the pool
            };
            kernels::score_block_2d(
                scores,
                blocks.xs(block),
                blocks.ys(block),
                qx,
                qy,
                alpha,
                beta,
            );
            // Lanes strictly below k_eff known scores can never be emitted.
            let fl = if floor.len() == k_eff {
                f.max(floor.peek().expect("floor is non-empty").0 .0)
            } else {
                f64::NEG_INFINITY
            };
            let slots = blocks.slots(block);
            let mut surv = kernels::survivors(scores, blocks.live(block), fl);
            while surv != 0 {
                let l = surv.trailing_zeros() as usize;
                surv &= surv - 1;
                let score = scores[l];
                track_floor(floor, k_eff, score);
                pool.push((OrdF64::new(score), Reverse(slots[l])));
            }
        }
        answers.sort_unstable_by(rank_cmp);
    }
    scratch.put_angle(frontier.into_scratch());
    outcome
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
    let (lo, hi) = super::stream::bracketing(&index.angles, theta)?;

    // Step 1: top-k at the lower indexed angle.
    let mut aq_l = AngleQuery::new(index, lo, qx, qy);
    let mut needed: Vec<u32> = Vec::with_capacity(k);
    for _ in 0..k {
        match aq_l.next() {
            Some((slot, _)) => needed.push(slot),
            None => break,
        }
    }

    // Step 2: grow the smallest θ_u-prefix containing the θ_l answer.
    let mut aq_u = AngleQuery::new(index, hi, qx, qy);
    let mut candidates: Vec<u32> = Vec::with_capacity(2 * k);
    let mut remaining: super::stream::FastSet = needed.iter().copied().collect();
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
