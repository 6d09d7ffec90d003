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
use crate::mask::MaskView;
use crate::score::rank_cmp;
use crate::scratch::QueryScratch;
use crate::threshold::{track_floor, SharedThreshold};
use crate::types::{OrdF64, PointId, ScoredPoint, SdError};

/// Ties at the θ_u cut are padded within this relative score slack so a
/// floating-point-equal prefix boundary cannot exclude a true answer.
const TIE_EPS: f64 = 1e-9;

/// Full 2-D query over one [`TopKIndex`] as a single certified frontier
/// search: over the derived blocks while they are current
/// ([`query_blocks_with`], one part), over the per-point tree after a
/// point-level mutation. Either way the emission is **canonical** (score
/// descending, ties by slot ascending).
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
        Some(blocks) => query_blocks_with(
            [BlockPart {
                blocks,
                offset: 0,
                mask: None,
            }],
            qx,
            qy,
            alpha,
            beta,
            k,
            scratch,
            shared,
        ),
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

/// One part of a [`query_blocks_with`] walk — in an engine, one shard: the
/// pair's stored §4 index over the part's rows, the id its slot 0 answers
/// under, and the part's tombstones (viewed at its slots).
pub(crate) struct BlockPart<'a> {
    pub(crate) blocks: &'a BlockSet,
    pub(crate) offset: u32,
    pub(crate) mask: Option<MaskView<'a>>,
}

/// A [`BlockPart`] in flight: the part and the frontier walking it. Lives in
/// [`QueryScratch::walk_buf`] for the length of one walk.
pub(crate) struct PartWalk<'a> {
    part: BlockPart<'a>,
    frontier: BlockFrontier<'a>,
}

/// Full 2-D query over the stored §4 indexes of one pair as a single
/// certified frontier search — the *direct* strategy for single-pair
/// queries, over one bare index, over every shard of an engine at once, and
/// a [`TopKIndex`]'s while its blocks are current. Picks the indexed-angle
/// evaluation when θ_q is indexed and the Claim 6 bracket otherwise
/// ([`FrontierEval::at`], per part); the emission is **canonical** (score
/// descending, ties by `offset + slot` ascending), so the result is
/// bit-identical to what the §5 aggregation produces for the same pair.
///
/// The parts are walked as one index: every part has its own
/// [`BlockFrontier`], and each step pops the head entry of the frontier
/// whose head bound is highest — a k-way merge of best-first streams, which
/// is one best-first walk under a virtual root over all of them — so the
/// threshold on everything unsurfaced is that head times `r`. A popped leaf
/// block is batch-scored through the 2-D kernel (bit-identical to
/// `sd_score_2d`) and its surviving lanes are pooled under their part's
/// offset. Stop rules — strict inflated-bound certification, k-th-score
/// floor, shared floor — as in [`query_points_with`], plus two block-level
/// savings:
///
/// * a popped envelope or block whose bound already falls below the floor
///   is discarded without expanding or scoring anything under it;
/// * blocks surface exactly once, so there is no seen-set on this path.
///
/// A part's tombstoned lanes leave the block's live word before the floor
/// compare, so a dead row reaches neither floor nor pool, and `k_eff` is
/// `min(k, live rows)` over all parts. The walk fills `scratch.profile`
/// (reset here): the frontier counters, `rows_fetched` (live lanes of the
/// popped blocks), `tombstones_skipped`, `points_gathered`,
/// `kernel_batches`, `points_scored`, `floor_updates`, `floor_value` and
/// `emitted`; `rounds` stays 0. `scratch.deadline` is consulted before
/// every pop. The frontiers live in the scratch's recycled buffers, so a
/// warmed scratch walks any number of parts without allocating.
#[allow(clippy::too_many_arguments)] // internal hot path; mirrors query_with
pub(crate) fn query_blocks_with<'a>(
    parts: impl IntoIterator<Item = BlockPart<'a>>,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
    scratch: &mut QueryScratch,
    shared: Option<&SharedThreshold>,
) -> Result<(), SdError> {
    scratch.profile.reset();
    let theta = Angle::from_weights(alpha, beta)?;
    let mut walks = scratch.walk_buf();
    let mut live = 0;
    let mut outcome = Ok(());
    for part in parts {
        match FrontierEval::at(part.blocks.angles(), &theta, qx, qy) {
            Ok(eval) => {
                let n = part.blocks.n_live();
                live += n - part.mask.map_or(0, |m| m.dead_among(n));
                let frontier = BlockFrontier::with_scratch(part.blocks, eval, scratch.take_angle());
                walks.push(PartWalk { part, frontier });
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    if outcome.is_ok() {
        let pair = (qx, qy, alpha, beta);
        outcome = walk_parts(&mut walks, pair, k.min(live), k, scratch, shared);
    }
    for PartWalk { mut frontier, .. } in walks.drain(..) {
        let c = frontier.take_counters();
        let prof = &mut scratch.profile;
        prof.nodes_visited += c.nodes_visited;
        prof.envelope_nodes_rejected += c.envelope_rejected;
        prof.blocks_floor_pruned += c.blocks_floor_pruned;
        prof.blocks_popped += c.blocks_popped;
        scratch.put_angle(frontier.into_scratch());
    }
    scratch.put_walks(walks);
    outcome
}

/// The loop of [`query_blocks_with`] over its set-up parts: leaves the
/// canonical answer in `scratch.answers`, or the certified prefix emitted
/// so far when the deadline ends it.
fn walk_parts(
    walks: &mut [PartWalk<'_>],
    (qx, qy, alpha, beta): (f64, f64, f64, f64),
    k_eff: usize,
    k: usize,
    scratch: &mut QueryScratch,
    shared: Option<&SharedThreshold>,
) -> Result<(), SdError> {
    let r = alpha.hypot(beta);
    // The floor is only publishable when it covers k real points; parts
    // with fewer than k live rows can never certify a global k-th score.
    let publish = k_eff == k;
    let QueryScratch {
        pool,
        answers,
        floor,
        scores,
        deadline,
        profile: prof,
        ..
    } = scratch;
    pool.clear();
    answers.clear();
    floor.clear();
    answers.reserve(k_eff);
    scores.resize(LANES, 0.0);
    let mut outcome = Ok(());
    while answers.len() < k_eff {
        // The walk's head: the part whose frontier bound is highest.
        let mut head: Option<(usize, f64)> = None;
        for (i, w) in walks.iter().enumerate() {
            if let Some(b) = w.frontier.bound() {
                if head.is_none_or(|(_, hb)| b > hb) {
                    head = Some((i, b));
                }
            }
        }
        let threshold = head.map(|(_, b)| r * b);
        // Certified canonical emission.
        if let Some(&(OrdF64(s), Reverse(id))) = pool.peek() {
            if threshold.is_none_or(|t| s > inflate(t)) {
                pool.pop();
                answers.push(ScoredPoint::new(PointId::new(id), s));
                continue;
            }
        }
        let (Some((i, _)), Some(t)) = (head, threshold) else {
            break; // drained, and so is the pool
        };
        // Floor-based early termination (and the block-prune value).
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
                    Some((OrdF64(s), Reverse(id))) => {
                        answers.push(ScoredPoint::new(PointId::new(id), s))
                    }
                    None => break,
                }
            }
            break;
        }
        outcome = deadline.check();
        if outcome.is_err() {
            break;
        }
        // One step of the walk; anything bounded below the floor dies here.
        let PartWalk { part, frontier } = &mut walks[i];
        let Some(block) = frontier.pop(|b| f > inflate(r * b)) else {
            continue; // an envelope expanded, or an entry pruned
        };
        let (blocks, slots) = (part.blocks, part.blocks.slots(block));
        let mut live = blocks.live(block);
        prof.rows_fetched += u64::from(live.count_ones());
        if let Some(mask) = part.mask {
            // Tombstoned lanes stop here, before floor and pool.
            let mut lanes = live;
            while lanes != 0 {
                let l = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                if mask.is_dead(slots[l]) {
                    live &= !(1 << l);
                    prof.tombstones_skipped += 1;
                }
            }
        }
        prof.points_gathered += u64::from(live.count_ones());
        if live == 0 {
            continue;
        }
        prof.kernel_batches += 1;
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
        let mut surv = kernels::survivors(scores, live, fl);
        while surv != 0 {
            let l = surv.trailing_zeros() as usize;
            surv &= surv - 1;
            let score = scores[l];
            prof.points_scored += 1;
            prof.floor_updates += u64::from(track_floor(floor, k_eff, score));
            pool.push((OrdF64::new(score), Reverse(part.offset + slots[l])));
        }
    }
    answers.sort_unstable_by(rank_cmp);
    prof.floor_value = floor.peek().map_or(f64::NEG_INFINITY, |r| r.0 .0);
    prof.emitted = answers.len() as u64;
    if prof.kernel_batches > 0 {
        prof.isa = kernels::active().name();
    }
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
