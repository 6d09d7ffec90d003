//! The paper's §5 SD-index for any number of dimensions: one §4 index per
//! repulsive↔attractive pair, aggregated under a TA-style threshold.
//!
//! The SD-score (Eqn. 3) is re-expressed as Eqn. 10: `min(|D|, |S|)` 2-D
//! subproblems — chosen by the pairing step ([`crate::pairing`]), each
//! served by a stored §4 index over the pair's
//! projection, built here as one 2-D `[a, r]` [`SdIndex`] — plus the
//! leftover dimensions. Every pair subproblem yields rows in frontier order
//! together with an admissible bound ([`Pair2DStream`]); the loop fetches
//! one block from every stream a round, scores the new rows exactly on the
//! *full* query, and stops once the k-th best exact score beats the
//! threshold `τ = Σ` (per-stream bounds) — the TA stopping rule with two
//! dimensions per subproblem, the paper's scalability edge over classic TA
//! (§6.2).
//!
//! A leftover (unpaired) dimension gets no stream. The paper serves it with
//! a 1-D sorted list; here its extent `[lo, hi]` over the rows adds one
//! constant to `τ` and to every stream's pruning bar:
//! `w·max(|hi − q|, |q − lo|)` for a repulsive dimension, `−w·dist(q, [lo,
//! hi])` for an attractive one. A query with no stream at all (every pair
//! weight zero, or no pair) scores every row.
//!
//! This is the reproduction, not what an engine runs: `sdq-core` answers
//! the same queries with one box scan over rows in median-split chunks,
//! which beat these streams on every aggregation shape measured (its
//! `multidim::boxes` module has the table). The fig. 7 experiments of
//! `sdq-bench` build this index, so they measure the paper's algorithm.
//!
//! ```
//! use sdq_core::{Dataset, DimRole, SdQuery};
//! use sdq_paper::PairedIndex;
//!
//! let rows: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 13) as f64, (i % 7) as f64, (i % 5) as f64, i as f64 * 0.01])
//!     .collect();
//! let roles = [DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive, DimRole::Attractive];
//! let index = PairedIndex::build(Dataset::from_rows(4, &rows).unwrap(), &roles).unwrap();
//! assert_eq!(index.pairs().len(), 2);
//! let query = SdQuery::uniform_weights(vec![3.0, 1.0, 2.0, 0.5], &roles);
//! assert_eq!(index.query(&query, 5).unwrap().len(), 5);
//! ```

use std::sync::Arc;

use sdq_core::geometry::Angle;
use sdq_core::kernels::inflate;
use sdq_core::multidim::{Pair2DStream, SdIndex, SdIndexOptions};
use sdq_core::score::sd_score;
use sdq_core::{
    Dataset, DimRole, LoopScratch, PointId, QueryScratch, ScoredPoint, SdError, SdQuery,
};

use crate::pairing::{pair_dimensions, DimPair, PairingStrategy};

/// Tuning knobs for [`PairedIndex::build_with`].
#[derive(Debug, Clone)]
pub struct PairedOptions {
    /// How repulsive and attractive dimensions are matched into pairs (§5,
    /// and its future-work direction).
    pub pairing: PairingStrategy,
    /// Indexed projection angles of every pair's §4 index (§4.2).
    pub angles: Vec<Angle>,
}

impl Default for PairedOptions {
    fn default() -> Self {
        PairedOptions {
            pairing: PairingStrategy::Arbitrary,
            angles: sdq_core::topk::default_angles(),
        }
    }
}

/// The §5 SD-index: pairs, one 2-D §4 index each, and the extent of every
/// unpaired dimension (module docs).
#[derive(Debug, Clone)]
pub struct PairedIndex {
    data: Arc<Dataset>,
    roles: Vec<DimRole>,
    pairs: Vec<DimPair>,
    unpaired: Vec<usize>,
    /// One `[a, r]` index per pair over the projection `(x = attractive,
    /// y = repulsive)` of the rows; its row ids are the rows'.
    pair_indexes: Vec<SdIndex>,
    /// `(lo, hi)` of each unpaired dimension, in `unpaired` order (`(0, 0)`
    /// when there are no rows).
    extents: Vec<(f64, f64)>,
}

impl PairedIndex {
    /// Builds with default options (arbitrary pairing, the engine's
    /// angles).
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with(data, roles, &PairedOptions::default())
    }

    /// Builds with explicit options: the pairing strategy, and the indexed
    /// angles of every pair's §4 index.
    pub fn build_with(
        data: impl Into<Arc<Dataset>>,
        roles: &[DimRole],
        options: &PairedOptions,
    ) -> Result<Self, SdError> {
        let data: Arc<Dataset> = data.into();
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        let (pairs, unpaired) = pair_dimensions(&data, roles, options.pairing);
        let pair_roles = [DimRole::Attractive, DimRole::Repulsive];
        let pair_options = SdIndexOptions {
            angles: options.angles.clone(),
        };
        let pair_indexes = pairs
            .iter()
            .map(|p| {
                let flat = data
                    .iter()
                    .flat_map(|(_, c)| [c[p.attractive], c[p.repulsive]])
                    .collect();
                SdIndex::build_with(Dataset::from_flat(2, flat)?, &pair_roles, &pair_options)
            })
            .collect::<Result<_, _>>()?;
        let extents = unpaired
            .iter()
            .map(|&d| {
                let column = data.column(d);
                match column.split_first() {
                    Some((&first, rest)) => rest
                        .iter()
                        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
                    None => (0.0, 0.0),
                }
            })
            .collect();
        Ok(PairedIndex {
            data,
            roles: roles.to_vec(),
            pairs,
            unpaired,
            pair_indexes,
            extents,
        })
    }

    /// The 2-D subproblem pairs.
    pub fn pairs(&self) -> &[DimPair] {
        &self.pairs
    }

    /// Approximate heap footprint of the per-pair §4 indexes: each pair's
    /// `(x, y)` rows, which its index stores in its leaf order, and what
    /// the index keeps beside them (the full rows are the caller's).
    pub fn memory_bytes(&self) -> usize {
        self.pair_indexes
            .iter()
            .map(|index| index.memory_bytes() + std::mem::size_of_val(index.data().flat()))
            .sum::<usize>()
            + std::mem::size_of_val(&self.extents[..])
    }

    /// What the unpaired dimensions can add to any row's score under
    /// `query`: each dimension's term at the end of its extent that serves
    /// it best; `0` with nothing unpaired.
    fn extent_bound(&self, query: &SdQuery) -> f64 {
        let mut bound = 0.0;
        for (&d, &(lo, hi)) in self.unpaired.iter().zip(&self.extents) {
            let (q, w) = (query.point[d], query.weights[d]);
            if w != 0.0 {
                bound += match self.roles[d] {
                    DimRole::Repulsive => w * (hi - q).abs().max((q - lo).abs()),
                    DimRole::Attractive => -(w * (lo - q).max(q - hi).max(0.0)),
                };
            }
        }
        bound
    }

    /// Answers the SD-Query: the `min(k, n)` highest SD-scores, in the
    /// canonical order (score descending, ties by row id ascending).
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = QueryScratch::new();
        Ok(self.query_with(query, k, &mut scratch)?.to_vec())
    }

    /// [`PairedIndex::query`] answering through `scratch`'s one answer step
    /// ([`QueryScratch::answer_with`]): its profile counts the loop's
    /// `rounds`, the streams' frontier counters and `lanes_masked`,
    /// `rows_fetched` (duplicates included), `seen_hits`, and the rows
    /// scored into the floor; its deadline is checked once a round. The
    /// seen rows are the scratch's ([`QueryScratch::loop_scratch`]); the
    /// streams and their heaps are allocated per query.
    pub fn query_with<'s>(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        scratch.profile.reset();
        let n = self.data.len();
        // Each pair's 2-D query; a pair whose weights are both zero adds 0
        // to every score and streams nothing.
        let pair_queries = self
            .pairs
            .iter()
            .map(|p| {
                SdQuery::new(
                    vec![query.point[p.attractive], query.point[p.repulsive]],
                    vec![query.weights[p.attractive], query.weights[p.repulsive]],
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut streams = Vec::with_capacity(self.pairs.len());
        for (index, pair_query) in self.pair_indexes.iter().zip(&pair_queries) {
            streams.extend(Pair2DStream::new(index, pair_query)?);
        }
        let extent_bound = self.extent_bound(query);
        let (data, roles) = (&*self.data, &self.roles[..]);
        let score = |row: u32| {
            let point = data.point(PointId::new(row));
            sd_score(point, &query.point, roles, &query.weights)
        };
        scratch.answer_with(k.min(n), |scratch, floor| {
            let LoopScratch {
                mut seen,
                profile: prof,
                deadline,
                ..
            } = scratch.loop_scratch(n);
            if streams.is_empty() {
                // Nothing to certify with: every row is scored.
                for row in 0..n as u32 {
                    prof.rows_fetched += 1;
                    prof.points_gathered += 1;
                    prof.points_scored += 1;
                    prof.floor_updates += u64::from(floor.offer(score(row), row));
                }
                return Ok(());
            }
            let (mut bounds, mut batch) = (Vec::with_capacity(streams.len()), Vec::new());
            loop {
                prof.rounds += 1;
                deadline.check()?;
                // A drained stream has surfaced every row it did not prune
                // under the floor: nothing left can enter the answer.
                let mut tau = extent_bound;
                bounds.clear();
                for s in &streams {
                    let Some(b) = s.bound() else {
                        return Ok(());
                    };
                    bounds.push(b);
                    tau += b;
                }
                // Every unfetched row scores at most τ: once the k-th best
                // beats it, no unfetched row can enter or tie its way in.
                let f = floor.bar();
                if f > inflate(tau) {
                    return Ok(());
                }
                // One block from every stream, each pruned against the floor
                // less what the rest of the score can add.
                batch.clear();
                let mut progressed = false;
                for (i, s) in streams.iter_mut().enumerate() {
                    let prune = (f > f64::NEG_INFINITY).then(|| {
                        let mut others = extent_bound;
                        for (j, &b) in bounds.iter().enumerate() {
                            if j != i {
                                others += b;
                            }
                        }
                        (f, others)
                    });
                    progressed |= s.next_unit(prune, &mut batch, prof);
                }
                prof.rows_fetched += batch.len() as u64;
                for &row in &batch {
                    if seen.insert(row) {
                        prof.points_gathered += 1;
                        prof.points_scored += 1;
                        prof.floor_updates += u64::from(floor.offer(score(row), row));
                    } else {
                        prof.seen_hits += 1;
                    }
                }
                if !progressed {
                    return Ok(());
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sdq_core::score::rank_cmp;

    /// The canonical top k, row by row.
    fn oracle(data: &Dataset, roles: &[DimRole], q: &SdQuery, k: usize) -> Vec<ScoredPoint> {
        let mut all: Vec<ScoredPoint> = data
            .iter()
            .map(|(id, p)| ScoredPoint::new(id, sd_score(p, &q.point, roles, &q.weights)))
            .collect();
        all.sort_unstable_by(rank_cmp);
        all.truncate(k);
        all
    }

    fn bits(answer: &[ScoredPoint]) -> Vec<(PointId, u64)> {
        answer
            .iter()
            .map(|sp| (sp.id, sp.score.to_bits()))
            .collect()
    }

    fn roles_of(rng: &mut impl Rng, dims: usize) -> Vec<DimRole> {
        (0..dims)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    DimRole::Repulsive
                } else {
                    DimRole::Attractive
                }
            })
            .collect()
    }

    /// Every dimensionality, role mix, pairing and weight pattern — zero
    /// weights, ties from a coarse grid, `k` past `n` — answers like the
    /// row-by-row oracle, bit for bit.
    #[test]
    fn matches_the_oracle_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for case in 0..60 {
            let dims = rng.gen_range(1..7);
            let n = rng.gen_range(0..300);
            let grid: f64 = if case % 3 == 0 { 4.0 } else { 1e6 };
            let flat = (0..n * dims)
                .map(|_| (rng.gen_range(0.0..1.0f64) * grid).round() / grid)
                .collect();
            let data = Dataset::from_flat(dims, flat).unwrap();
            let roles = roles_of(&mut rng, dims);
            let pairing = if case % 2 == 0 {
                PairingStrategy::Arbitrary
            } else {
                PairingStrategy::CorrelationAware
            };
            let options = PairedOptions {
                pairing,
                ..PairedOptions::default()
            };
            let index = PairedIndex::build_with(data.clone(), &roles, &options).unwrap();
            let mut scratch = QueryScratch::new();
            for _ in 0..8 {
                let point = (0..dims).map(|_| rng.gen_range(-0.2..1.2)).collect();
                let weights = (0..dims)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            rng.gen_range(0.0..1.0)
                        }
                    })
                    .collect();
                let q = SdQuery::new(point, weights).unwrap();
                let k = rng.gen_range(1..n.max(1) + 20);
                let got = index.query_with(&q, k, &mut scratch).unwrap();
                assert_eq!(
                    bits(got),
                    bits(&oracle(&data, &roles, &q, k)),
                    "case {case}"
                );
            }
        }
    }

    /// On friendly data at size the streams certify long before they have
    /// fetched every row, and answer what the engine's box scan answers.
    #[test]
    fn certifying_streams_match_the_scan_at_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(56);
        let (n, dims) = (20_000, 4);
        let flat = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
        let data = Dataset::from_flat(dims, flat).unwrap();
        let roles = [
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let paired = PairedIndex::build(data.clone(), &roles).unwrap();
        let scan = SdIndex::build(data, &roles).unwrap();
        let mut scratch = QueryScratch::new();
        for _ in 0..16 {
            let point = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            let weights = (0..dims).map(|_| rng.gen_range(0.1..1.0)).collect();
            let q = SdQuery::new(point, weights).unwrap();
            let want = scan.query_with(&q, 16, &mut scratch).unwrap().to_vec();
            assert_eq!(scratch.profile.rounds, 0, "the box scan runs no rounds");
            let got = paired.query_with(&q, 16, &mut scratch).unwrap();
            assert_eq!(bits(got), bits(&want));
            let p = scratch.profile;
            assert!(p.rounds > 0 && p.rows_fetched < n as u64 / 4, "{p:?}");
        }
    }

    /// The streams prune lanes: over random queries, the pair filter drops
    /// lanes of popped blocks under the floor less what the other pair can
    /// add, before they are scored. (Whole blocks and envelopes are never
    /// rejected here, nor by the engine's §4 walk: both stop at the first
    /// head under their own floor, so only a floor raised elsewhere — an
    /// engine's other shards, once — reaches under a head.)
    #[test]
    fn the_lane_filter_prunes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let (n, dims) = (40_000, 4);
        let flat = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
        let data = Dataset::from_flat(dims, flat).unwrap();
        let roles = [
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let index = PairedIndex::build(data.clone(), &roles).unwrap();
        let mut scratch = QueryScratch::new();
        for _ in 0..16 {
            let point = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            let weights = (0..dims).map(|_| rng.gen_range(0.05..1.0)).collect();
            let q = SdQuery::new(point, weights).unwrap();
            let got = index.query_with(&q, 16, &mut scratch).unwrap();
            assert_eq!(bits(got), bits(&oracle(&data, &roles, &q, 16)));
            let p = scratch.profile;
            assert!(p.lanes_masked > 0, "{p:?}");
            assert!(p.points_scored < p.rows_fetched, "{p:?}");
        }
    }

    #[test]
    fn validation() {
        let data = Dataset::from_flat(2, vec![0.0, 0.0]).unwrap();
        assert!(PairedIndex::build(data.clone(), &[DimRole::Repulsive]).is_err());
        let index = PairedIndex::build(data, &[DimRole::Repulsive, DimRole::Attractive]).unwrap();
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(matches!(index.query(&q, 0), Err(SdError::ZeroK)));
        let wrong = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        assert!(matches!(
            index.query(&wrong, 1),
            Err(SdError::DimensionMismatch { .. })
        ));
    }
}
