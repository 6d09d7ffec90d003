//! The direct §4 search: one certified best-first walk over the stored
//! index of one pair — one [`BlockSet`], or every shard's at once — that
//! answers a single-pair query exactly, at an indexed weight angle and at
//! any other.
//!
//! Every envelope is bounded *at θ_q* from its two bracketing tables —
//! `λ₁·(bound at θ_l) + λ₂·(bound at θ_u)` per projection type, the closed
//! form of the Claim 6 bracket ([`FrontierEval`] has the argument) — so the
//! bracket is applied per envelope rather than per stream, and the index is
//! walked once, not once per bracketing angle. Every surfaced point is
//! scored exactly at the caller's weights into the query's one
//! [`QueryFloor`], which ends holding the answer. Exact for every input, and
//! immune to the one-sided pathology of Alg. 4 as published (a wide bracket
//! with θ_q near one end makes its θ_l order a poor proxy for θ_q; the
//! `sdq-paper` crate keeps it for comparison).

use super::blocks::{BlockFrontier, BlockSet};
use super::stream::FrontierEval;
use crate::geometry::Angle;
use crate::kernels::{self, inflate, LANES};
use crate::mask::MaskView;
use crate::scratch::QueryScratch;
use crate::threshold::QueryFloor;
use crate::types::SdError;

/// One part of a [`query_blocks_with`] walk — in an engine, one shard: the
/// pair's stored §4 index over the part's rows, the id its slot 0 answers
/// under, and the part's tombstones (viewed at its slots).
pub(crate) struct BlockPart<'a> {
    pub(crate) blocks: &'a BlockSet,
    pub(crate) offset: u32,
    pub(crate) mask: Option<MaskView<'a>>,
}

/// A [`BlockPart`] in flight: the part, the frontier walking it and the
/// floor updates its lanes made. Lives in [`QueryScratch::walk_buf`] for the
/// length of one walk.
pub(crate) struct PartWalk<'a> {
    part: BlockPart<'a>,
    frontier: BlockFrontier<'a>,
    floor_updates: u64,
}

/// Full 2-D query over the stored §4 indexes of one pair as a single
/// certified frontier search — the *direct* strategy for single-pair
/// queries, over one bare index and over every shard of an engine at once.
/// Picks the indexed-angle evaluation when θ_q is indexed and the Claim 6
/// bracket otherwise ([`FrontierEval::at`], per part); every score it keeps
/// goes into the query's `floor` under `offset + slot`, so the answer is
/// bit-identical to what the box scan produces for the same pair.
///
/// The parts are walked as one index: every part has its own
/// [`BlockFrontier`], and each step pops the head entry of the frontier
/// whose head bound is highest — a k-way merge of best-first streams, which
/// is one best-first walk under a virtual root over all of them — so the
/// threshold on everything unsurfaced is that head times `r`. A popped leaf
/// block is batch-scored through the 2-D kernel (bit-identical to
/// `sd_score_2d`) and its lanes that reach the floor's bar are offered to
/// it.
///
/// The walk stops when every frontier has drained or when the floor's bar —
/// the k-th best exact score of the query, which may already hold scores
/// found elsewhere (an engine's delta rows) — is strictly above the
/// inflated admissible bound on everything unsurfaced: every row left is
/// then strictly below `k` kept scores and can be in no answer, however
/// ties fall. And two block-level savings:
///
/// * a popped envelope or block whose bound already falls below the floor
///   is discarded without expanding or scoring anything under it;
/// * blocks surface exactly once, so there is no seen-set on this path.
///
/// A part's tombstoned lanes leave the block's live word before the floor
/// compare, so a dead row never reaches the floor. The walk adds to
/// `scratch.profile` (reset by its one caller, the driver
/// [`answer_parts`](crate::multidim::answer_parts)): the frontier counters,
/// `rows_fetched` (live lanes of the popped blocks), `tombstones_skipped`,
/// `points_gathered`, `kernel_batches`, `points_scored` and `floor_updates`
/// (its updates to the query's floor); `rounds` stays 0. It appends each
/// part's share of `floor_updates`, in part order, to
/// `scratch.part_floor_updates`.
/// `scratch.deadline` is consulted before every pop. The frontiers live in
/// the scratch's recycled buffers, so a warmed scratch walks any number of
/// parts without allocating.
pub(crate) fn query_blocks_with<'a>(
    parts: impl IntoIterator<Item = BlockPart<'a>>,
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError> {
    let theta = Angle::from_weights(alpha, beta)?;
    let mut walks = scratch.walk_buf();
    let mut outcome = Ok(());
    for part in parts {
        match FrontierEval::at(part.blocks.angles(), &theta, qx, qy) {
            Ok(eval) => {
                let frontier = BlockFrontier::with_scratch(part.blocks, eval, scratch.take_heap());
                walks.push(PartWalk {
                    part,
                    frontier,
                    floor_updates: 0,
                });
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    if outcome.is_ok() {
        outcome = walk_parts(&mut walks, (qx, qy, alpha, beta), scratch, floor);
    }
    for mut w in walks.drain(..) {
        let c = w.frontier.take_counters();
        let prof = &mut scratch.profile;
        prof.nodes_visited += c.nodes_visited;
        prof.envelope_nodes_rejected += c.envelope_rejected;
        prof.blocks_floor_pruned += c.blocks_floor_pruned;
        prof.blocks_popped += c.blocks_popped;
        prof.floor_updates += w.floor_updates;
        scratch.part_floor_updates.push(w.floor_updates);
        scratch.put_heap(w.frontier.into_scratch());
    }
    scratch.put_walks(walks);
    outcome
}

/// The loop of [`query_blocks_with`] over its set-up parts: walks until the
/// floor certifies, every part drains, or the deadline ends it.
fn walk_parts(
    walks: &mut [PartWalk<'_>],
    (qx, qy, alpha, beta): (f64, f64, f64, f64),
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError> {
    let r = alpha.hypot(beta);
    let QueryScratch {
        scores,
        deadline,
        profile: prof,
        ..
    } = scratch;
    scores.resize(LANES, 0.0);
    let outcome = loop {
        // The walk's head: the part whose frontier bound is highest.
        let mut head: Option<(usize, f64)> = None;
        for (i, w) in walks.iter().enumerate() {
            if let Some(b) = w.frontier.bound() {
                if head.is_none_or(|(_, hb)| b > hb) {
                    head = Some((i, b));
                }
            }
        }
        let Some((i, b)) = head else {
            break Ok(()); // drained: every live row has been offered
        };
        // Floor-based termination (and the block-prune value).
        let f = floor.bar();
        if f > inflate(r * b) {
            break Ok(());
        }
        if let Err(e) = deadline.check() {
            break Err(e);
        }
        // One step of the walk; anything bounded below the floor dies here.
        let PartWalk {
            part,
            frontier,
            floor_updates,
        } = &mut walks[i];
        let Some(block) = frontier.pop(|b| f > inflate(r * b)) else {
            continue; // an envelope expanded, or an entry pruned
        };
        let (blocks, slots) = (part.blocks, part.blocks.slots(block));
        let mut live = blocks.live(block);
        prof.rows_fetched += u64::from(live.count_ones());
        if let Some(mask) = part.mask {
            // Tombstoned lanes stop here, before the floor.
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
        // Lanes strictly below k known scores can be in no answer.
        let mut surv = kernels::survivors(scores, live, floor.bar());
        while surv != 0 {
            let l = surv.trailing_zeros() as usize;
            surv &= surv - 1;
            prof.points_scored += 1;
            *floor_updates += u64::from(floor.offer(scores[l], part.offset + slots[l]));
        }
    };
    if prof.kernel_batches > 0 {
        prof.isa = kernels::active().name();
    }
    outcome
}
