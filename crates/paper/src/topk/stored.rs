//! The §4 index in bulk-loaded block form: one pair's rows stored once, in
//! the tiled order of [`tile`], under their [`BlockSet`] — what the §5
//! SD-index ([`PairedIndex`](crate::PairedIndex)) keeps per pair, and what
//! figs. 7 and 8 measure through it.
//!
//! Two readers walk it. [`BlockIndex::query_with`] is the direct §4 search:
//! one certified best-first walk over the envelope tree that answers the
//! pair's top k exactly, at an indexed weight angle and at any other. Every
//! envelope is bounded *at θ_q* from its two bracketing tables —
//! `λ₁·(bound at θ_l) + λ₂·(bound at θ_u)` per projection type, the closed
//! form of the Claim 6 bracket ([`FrontierEval`] has the argument) — so the
//! bracket is applied per envelope rather than per stream, and the index is
//! walked once, not once per bracketing angle. Exact for every input, and
//! immune to the one-sided pathology of Alg. 4 as published (a wide bracket
//! with θ_q near one end makes its θ_l order a poor proxy for θ_q;
//! [`query_alg4`](super::arbitrary::query_alg4) keeps it for comparison).
//! [`Pair2DStream`] is the §5 aggregation's view: the same frontier,
//! uncertified, surfacing whole blocks with an admissible bound on the rest.

use sdq_core::geometry::Angle;
use sdq_core::kernels::{self, inflate, LANES};
use sdq_core::{check_coordinate, QueryProfile, QueryScratch, ScoredPoint, SdError};

use super::blocks::{tile, BlockFrontier, BlockSet};
use super::eval::FrontierEval;
use super::{check_axes, normalize_angles};

/// The bulk-loaded §4 index over 2-D points (`x` attractive, `y`
/// repulsive): the points in tiled order, the slot of each, and the
/// envelope tree over them (module docs). Immutable: it has no point
/// updates. Point identity is the input slot, as in
/// [`TopKIndex`](super::TopKIndex), and the two answer every query bit for
/// bit alike.
#[derive(Debug, Clone)]
pub struct BlockIndex {
    /// `(x, y)` of every stored position, interleaved: block `b` is
    /// positions `[32b, 32b + 32)`.
    rows: Vec<f64>,
    /// The slot of each stored position.
    ids: Vec<u32>,
    blocks: BlockSet,
}

impl BlockIndex {
    /// Indexes `points` — finite, within ±2^500 — over the indexed `angles`
    /// (sorted and deduplicated here), which must span 0° to 90°: a zero
    /// weight is θ_q = 0° or 90°.
    pub fn build(points: &[(f64, f64)], angles: &[Angle]) -> Result<Self, SdError> {
        let angles = normalize_angles(angles)?;
        check_axes(&angles)?;
        if points.len() > u32::MAX as usize {
            return Err(SdError::TooManyPoints(points.len()));
        }
        for (row, &(x, y)) in points.iter().enumerate() {
            check_coordinate(row, 0, x)?;
            check_coordinate(row, 1, y)?;
        }
        let ids = tile(points);
        let stored: Vec<(f64, f64)> = ids.iter().map(|&s| points[s as usize]).collect();
        let blocks = BlockSet::build(&stored, &angles);
        let rows = stored.iter().flat_map(|&(x, y)| [x, y]).collect();
        Ok(BlockIndex { rows, ids, blocks })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the index holds no point.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed angles, ascending.
    pub fn angles(&self) -> &[Angle] {
        self.blocks.angles()
    }

    /// Heap bytes: the stored rows, their slots and the envelope tree.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.rows[..])
            + std::mem::size_of_val(&self.ids[..])
            + self.blocks.memory_bytes()
    }

    /// The `min(k, n)` highest `α·|y − q_y| − β·|x − q_x|`, in the canonical
    /// order (score descending, ties by slot ascending).
    pub fn query(
        &self,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
    ) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = QueryScratch::new();
        Ok(self
            .query_with(qx, qy, alpha, beta, k, &mut scratch)?
            .to_vec())
    }

    /// [`BlockIndex::query`] through `scratch`'s one answer step
    /// ([`QueryScratch::answer_with`]), as one certified walk (module
    /// docs): each step pops the frontier's head, and a popped leaf block is
    /// the 32 rows at its positions, scored by `sdq_core`'s row kernel
    /// (bit-identical to `sd_score`) and offered to the floor where they
    /// reach its bar. The walk stops when the frontier drains or when the
    /// floor's bar is strictly above the inflated admissible bound on
    /// everything unsurfaced; a popped envelope or block whose bound is
    /// already below the floor is discarded unexpanded. Both weights zero
    /// leave no angle to walk at: every row scores 0 and is offered.
    ///
    /// `scratch.profile` (reset here) counts the frontier's nodes and
    /// blocks, `rows_fetched`, `points_gathered`, `kernel_batches`,
    /// `points_scored` and `floor_updates`; `scratch.deadline` is consulted
    /// before every pop. The frontier heap is allocated per query.
    pub fn query_with<'s>(
        &self,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        scratch.profile.reset();
        let weights = (alpha, beta);
        let eval = if alpha == 0.0 && beta == 0.0 {
            None
        } else {
            let theta = Angle::from_weights(alpha, beta)?;
            Some(FrontierEval::at(self.angles(), &theta, qx, qy)?)
        };
        scratch.answer_with(k.min(self.len()), |scratch, floor| {
            let (prof, deadline) = (&mut scratch.profile, &scratch.deadline);
            let Some(eval) = eval else {
                for &id in &self.ids {
                    prof.rows_fetched += 1;
                    prof.points_gathered += 1;
                    prof.points_scored += 1;
                    prof.floor_updates += u64::from(floor.offer(0.0, id));
                }
                return Ok(());
            };
            let (q, sw) = ([qx, qy], [-weights.1, weights.0]);
            let r = alpha.hypot(beta);
            let mut scores = [0.0; LANES];
            let mut frontier = BlockFrontier::new(&self.blocks, (&self.rows, &self.ids), eval);
            let outcome = loop {
                let Some(b) = frontier.bound() else {
                    break Ok(()); // drained: every row has been offered
                };
                let f = floor.bar();
                if f > inflate(r * b) {
                    break Ok(());
                }
                if let Err(e) = deadline.check() {
                    break Err(e);
                }
                let Some(block) = frontier.pop(|b| f > inflate(r * b)) else {
                    continue; // an envelope expanded, or an entry pruned
                };
                let start = block as usize * LANES;
                let count = LANES.min(self.len() - start);
                prof.rows_fetched += count as u64;
                prof.points_gathered += count as u64;
                prof.kernel_batches += 1;
                // Rows strictly below k known scores can be in no answer.
                let run = &self.rows[2 * start..2 * (start + count)];
                let mut surv =
                    kernels::score_rows(&mut scores[..count], run, 2, &q, &sw, floor.bar());
                while surv != 0 {
                    let l = surv.trailing_zeros() as usize;
                    surv &= surv - 1;
                    prof.points_scored += 1;
                    prof.floor_updates += u64::from(floor.offer(scores[l], self.ids[start + l]));
                }
            };
            let c = frontier.take_counters();
            prof.nodes_visited += c.nodes_visited;
            prof.envelope_nodes_rejected += c.envelope_rejected;
            prof.blocks_floor_pruned += c.blocks_floor_pruned;
            prof.blocks_popped += c.blocks_popped;
            if prof.kernel_batches > 0 {
                prof.isa = kernels::active().name();
            }
            outcome
        })
    }
}

/// A 2-D subproblem stream over one pair's [`BlockIndex`]: the piece of the
/// paper's §5 aggregation that [`PairedIndex`](crate::PairedIndex) runs one
/// of per pair.
///
/// Emissions arrive in *frontier* order, not sorted subscore order — a
/// threshold aggregation only requires an admissible **bound** on unemitted
/// rows, so the stream runs on the uncertified [`BlockFrontier`], whose one
/// heap is ordered by θ_q score bounds ([`FrontierEval`]: for non-indexed
/// θ_q the Claim 6 bracket in closed form, per envelope). Whole blocks
/// surface (and are prunable against a floor) at once;
/// [`Pair2DStream::next_unit`] kernel-scores a popped block's rows on the
/// pair and filters them against the floor before emission.
pub struct Pair2DStream<'a> {
    frontier: BlockFrontier<'a>,
    index: &'a BlockIndex,
    /// The pair's query point and role-signed weights, `(x, y)`.
    q: [f64; 2],
    sw: [f64; 2],
    r: f64,
}

impl<'a> Pair2DStream<'a> {
    /// The stream of `index` under the query `(q_x, q_y)` weighted `α` on
    /// `y` and `β` on `x`; `None` when both weights are zero (the pair then
    /// adds 0 to every score and streams nothing). Its frontier heap is a
    /// fresh one.
    pub fn new(
        index: &'a BlockIndex,
        qx: f64,
        qy: f64,
        alpha: f64,
        beta: f64,
    ) -> Result<Option<Self>, SdError> {
        if alpha == 0.0 && beta == 0.0 {
            return Ok(None);
        }
        let theta = Angle::from_weights(alpha, beta)?;
        let eval = FrontierEval::at(index.angles(), &theta, qx, qy)?;
        let rows = (&index.rows[..], &index.ids[..]);
        Ok(Some(Pair2DStream {
            frontier: BlockFrontier::new(&index.blocks, rows, eval),
            index,
            q: [qx, qy],
            sw: [-beta, alpha],
            r: alpha.hypot(beta),
        }))
    }

    /// Fetches this stream's next *emission unit* into `out`: the slot of
    /// every row of its next surviving leaf block (up to [`LANES`] at once),
    /// after block-level floor pruning. With `prune = Some((f, others))` —
    /// `f` the current k-th-score floor and `others` what the rest of the
    /// score can add at most — any block whose raw subscore bound `b`
    /// satisfies `f > inflate(b + others)` is certifiably outside the top-k
    /// (every point in it scores at most `b + others`) and is discarded
    /// before a single point is scored, and so is every lane with `f >
    /// inflate(subscore + others)`.
    ///
    /// Returns `false` once the stream is drained (nothing appended).
    /// `prof` receives the fetch's execution counters (frontier walk
    /// statistics, per-lane mask drops).
    pub fn next_unit(
        &mut self,
        prune: Option<(f64, f64)>,
        out: &mut Vec<u32>,
        prof: &mut QueryProfile,
    ) -> bool {
        let r = self.r;
        // One whole block per round; envelope-level pruning first.
        let picked = self.frontier.next_block(|b| match prune {
            Some((f, others)) => f > inflate(r * b + others),
            None => false,
        });
        let c = self.frontier.take_counters();
        prof.nodes_visited += c.nodes_visited;
        prof.envelope_nodes_rejected += c.envelope_rejected;
        prof.blocks_floor_pruned += c.blocks_floor_pruned;
        prof.blocks_popped += c.blocks_popped;
        let Some(block) = picked else {
            return false;
        };
        let start = block as usize * LANES;
        let count = LANES.min(self.index.len() - start);
        let mut live = u32::MAX >> (LANES - count);
        if let Some((f, others)) = prune {
            // Per-lane floor filter on the pair subscores: a lane with `f >
            // inflate(subscore + others)` can hold no top-k row no matter
            // what the rest contributes, and dies here.
            let mut scores = [0.0f64; LANES];
            let run = &self.index.rows[2 * start..2 * (start + count)];
            kernels::score_rows(
                &mut scores[..count],
                run,
                2,
                &self.q,
                &self.sw,
                f64::NEG_INFINITY,
            );
            let keep = kernels::lane_filter(&scores[..count], live, others, f);
            prof.lanes_masked += u64::from((live & !keep).count_ones());
            live = keep;
        }
        while live != 0 {
            let l = live.trailing_zeros() as usize;
            live &= live - 1;
            out.push(self.index.ids[start + l]);
        }
        true
    }

    /// Admissible upper bound on the raw pair subscore of every row not yet
    /// surfaced; `None` once drained (at which point it has surfaced every
    /// row of the index, bar the lanes its floor filter dropped).
    #[inline]
    pub fn bound(&self) -> Option<f64> {
        self.frontier.bound().map(|b| self.r * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKIndex;
    use rand::{Rng, SeedableRng};
    use sdq_core::multidim::SdIndex;
    use sdq_core::score::{rank_cmp, sd_score};
    use sdq_core::{Dataset, DimRole, PointId, QueryFloor, SdQuery};

    fn bits(answer: &[ScoredPoint]) -> Vec<(PointId, u64)> {
        answer
            .iter()
            .map(|sp| (sp.id, sp.score.to_bits()))
            .collect()
    }

    /// The canonical top k of `data` under `roles`, row by row.
    fn oracle(data: &Dataset, roles: &[DimRole], q: &SdQuery, k: usize) -> Vec<ScoredPoint> {
        let mut all: Vec<ScoredPoint> = data
            .iter()
            .map(|(id, p)| ScoredPoint::new(id, sd_score(p, &q.point, roles, &q.weights)))
            .collect();
        all.sort_unstable_by(rank_cmp);
        all.truncate(k);
        all
    }

    /// The certified walk answers what the dynamic tree and the box scan of
    /// an `[a, r]` index answer, bit for bit, at indexed and bracketed
    /// angles, a zero weight on either side and both — on scattered rows and
    /// on rows repeated many times over.
    #[test]
    fn the_walk_matches_the_tree_and_the_scan() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        for (n, distinct) in [(1, 1), (31, 31), (700, 700), (3_000, 9)] {
            let base: Vec<(f64, f64)> = (0..distinct)
                .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
                .collect();
            let pts: Vec<(f64, f64)> = (0..n).map(|i| base[i % distinct]).collect();
            let index = BlockIndex::build(&pts, &crate::section6_angles()).unwrap();
            let tree = TopKIndex::build(&pts).unwrap();
            let data =
                Dataset::from_flat(2, pts.iter().flat_map(|&(x, y)| [x, y]).collect()).unwrap();
            let scan = SdIndex::build(data, &roles).unwrap();
            for (alpha, beta) in [(1.0, 1.0), (1.0, 0.3), (0.0, 2.0), (0.7, 0.0), (0.0, 0.0)] {
                let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                let q = SdQuery::new(vec![qx, qy], vec![beta, alpha]).unwrap();
                for k in [1, 16, n] {
                    let got = index.query(qx, qy, alpha, beta, k).unwrap();
                    let ctx = format!("n {n} α {alpha} β {beta} k {k}");
                    assert_eq!(bits(&got), bits(&scan.query(&q, k).unwrap()), "{ctx}");
                    if alpha != 0.0 || beta != 0.0 {
                        let want = tree.query(qx, qy, alpha, beta, k).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                    }
                }
            }
        }
    }

    /// A build refuses what an index cannot hold: an angle set short of an
    /// axis, no angle at all, and a coordinate out of range.
    #[test]
    fn a_build_refuses_angles_without_an_axis_and_bad_coordinates() {
        let deg = |d: f64| Angle::from_degrees(d).unwrap();
        let pts = [(0.0, 0.0), (1.0, 2.0)];
        for (angles, missing) in [
            (vec![deg(10.0), deg(45.0), deg(90.0)], 0.0),
            (vec![deg(0.0), deg(45.0), deg(80.0)], 90.0),
            (vec![deg(45.0)], 0.0),
        ] {
            match BlockIndex::build(&pts, &angles) {
                Err(SdError::AngleOutOfRange { requested_deg, .. }) => {
                    assert_eq!(requested_deg, missing)
                }
                other => panic!("a set without {missing}° built: {other:?}"),
            }
        }
        assert!(BlockIndex::build(&pts, &[deg(90.0), deg(0.0)]).is_ok());
        assert_eq!(BlockIndex::build(&pts, &[]).unwrap_err(), SdError::NoAngles);
        assert!(matches!(
            BlockIndex::build(&[(f64::NAN, 0.0)], &[deg(0.0), deg(90.0)]),
            Err(SdError::NonFiniteCoordinate { row: 0, dim: 0, .. })
        ));
    }

    /// A walk checks its deadline before every pop: a cancelled token ends
    /// it with the typed error, and the scratch answers the next query.
    #[test]
    fn a_cancelled_walk_stops_with_the_typed_error() {
        let pts: Vec<(f64, f64)> = (0..2_000)
            .map(|i| ((i % 37) as f64, (i % 23) as f64))
            .collect();
        let index = BlockIndex::build(&pts, &crate::section6_angles()).unwrap();
        let mut scratch = QueryScratch::new();
        let token = sdq_core::CancelToken::new();
        token.cancel();
        scratch.deadline = sdq_core::Deadline::cancelled_by(&token);
        let err = index
            .query_with(3.0, 4.0, 1.0, 1.0, 8, &mut scratch)
            .unwrap_err();
        assert_eq!(err, SdError::Cancelled);
        scratch.deadline = sdq_core::Deadline::none();
        let again = index
            .query_with(3.0, 4.0, 1.0, 1.0, 8, &mut scratch)
            .unwrap();
        assert_eq!(again.len(), 8);
        assert!(scratch.profile.blocks_popped > 0);
    }

    /// One certifying stream against the box scan, at size. A
    /// [`Pair2DStream`] over one pair's [`BlockIndex`], run as a one-stream
    /// threshold loop — fetch a block, score its rows, stop once the k-th
    /// best beats the stream's bound — is what the §5 aggregation runs one
    /// of per pair. On 20 000 uniform rows it certifies before it has
    /// fetched a quarter of them, and answers, bit for bit, what the box
    /// scan answers over the same rows (a third column, unpaired and
    /// weighted 0, beside them).
    #[test]
    fn certifying_streams_match_the_scan_at_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(302);
        let n = 20_000;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let pair = Dataset::from_flat(2, pts.iter().flat_map(|&(x, y)| [x, y]).collect()).unwrap();
        let streamed = BlockIndex::build(&pts, &crate::topk::default_angles()).unwrap();
        let flat = pts
            .iter()
            .flat_map(|&(x, y)| [x, y, rng.gen_range(0.0..1.0)])
            .collect();
        let scanned = SdIndex::build(
            Dataset::from_flat(3, flat).unwrap(),
            &[DimRole::Attractive, DimRole::Repulsive, DimRole::Attractive],
        )
        .unwrap();
        let k = 16;
        let (mut scratch, mut prof) = (QueryScratch::new(), QueryProfile::default());
        let (mut heap, mut batch) = (std::collections::BinaryHeap::new(), Vec::new());
        for _ in 0..16 {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (beta, alpha) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
            let q = SdQuery::new(vec![qx, qy], vec![beta, alpha]).unwrap();
            let mut stream = Pair2DStream::new(&streamed, qx, qy, alpha, beta)
                .unwrap()
                .expect("one pair");
            let mut floor = QueryFloor::new(&mut heap, k);
            let mut fetched = 0;
            while let Some(bound) = stream.bound() {
                let f = floor.bar();
                if f > inflate(bound) {
                    break;
                }
                batch.clear();
                let prune = (f > f64::NEG_INFINITY).then_some((f, 0.0));
                if !stream.next_unit(prune, &mut batch, &mut prof) {
                    break;
                }
                fetched += batch.len();
                for &row in &batch {
                    let p = pair.point(PointId::new(row));
                    floor.offer(sd_score(p, &q.point, &roles, &q.weights), row);
                }
            }
            let mut got = Vec::new();
            floor.drain_into(&mut got);
            assert_eq!(bits(&got), bits(&oracle(&pair, &roles, &q, k)));
            assert!(fetched < n / 4, "fetched {fetched} of {n}");

            let wide = SdQuery::new(
                vec![qx, qy, rng.gen_range(0.0..1.0)],
                vec![beta, alpha, 0.0],
            )
            .unwrap();
            let want = scanned.query_with(&wide, k, &mut scratch).unwrap();
            assert_eq!(bits(&got), bits(want));
            let p = scratch.profile;
            assert_eq!((p.parts_scanned, p.rounds, p.blocks_popped), (1, 0, 0));
        }
    }
}
