//! The BRS baseline: branch-and-bound ranked search over an R*-tree
//! (Tao, Papadias, Hristidis & Papakonstantinou, Information Systems 2007),
//! adapted to main memory as in §6.1 of the SD-Query paper.
//!
//! BRS explores the tree best-first by an upper bound of the scoring
//! function over each MBR. For the SD-score the bound is closed-form and
//! per-dimension separable:
//!
//! ```text
//! ub(R) = Σ_{i∈D} α_i·maxdist(q_i, R_i) − Σ_{j∈S} β_j·mindist(q_j, R_j)
//! ```
//!
//! The original paper splits space into regions where the function is
//! monotone and runs constrained searches per region; the global bound
//! search explores the same frontier (every constrained search is a
//! best-first walk under the same per-region bound, merged here through
//! one priority queue) — a deliberate simplification of the baseline.
//!
//! Node capacities follow the paper's tuning: 28 / 16 / 12 / 9 for
//! dimensionalities 2 / 4 / 6 / 8.

use sdq_core::score::{rank_cmp, sd_score};
use sdq_core::{Dataset, DimRole, PointId, ScoredPoint, SdError, SdQuery};
use sdq_rstar::{RStarTree, Rect};

use crate::TopKAlgorithm;

/// The node capacity the paper tuned per dimensionality (§6.1).
pub fn paper_node_capacity(dims: usize) -> usize {
    match dims {
        0..=2 => 28,
        3..=4 => 16,
        5..=6 => 12,
        _ => 9,
    }
}

/// Branch-and-bound ranked search over an R*-tree.
#[derive(Debug, Clone)]
pub struct BrsIndex {
    roles: Vec<DimRole>,
    tree: RStarTree,
}

impl BrsIndex {
    /// Bulk-loads the R*-tree (STR) with the paper's node capacity.
    pub fn build(data: &Dataset, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with_capacity(data, roles, paper_node_capacity(data.dims()))
    }

    /// Bulk-loads with an explicit node capacity.
    pub fn build_with_capacity(
        data: &Dataset,
        roles: &[DimRole],
        capacity: usize,
    ) -> Result<Self, SdError> {
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        let tree = RStarTree::bulk_load(data.dims(), data.flat(), capacity);
        Ok(BrsIndex {
            roles: roles.to_vec(),
            tree,
        })
    }

    /// Creates an empty index for incremental insertion.
    pub fn new(dims: usize, roles: &[DimRole]) -> Result<Self, SdError> {
        if roles.len() != dims {
            return Err(SdError::DimensionMismatch {
                expected: dims,
                got: roles.len(),
            });
        }
        Ok(BrsIndex {
            roles: roles.to_vec(),
            tree: RStarTree::new(dims, paper_node_capacity(dims)),
        })
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts a point (R* insert with forced reinsertion).
    pub fn insert(&mut self, point: &[f64]) -> PointId {
        PointId::new(self.tree.insert(point))
    }

    /// Deletes a point by id.
    pub fn delete(&mut self, id: PointId) -> bool {
        self.tree.delete(id.raw())
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
    }

    /// Exact top-k by best-first branch-and-bound.
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if query.dims() != self.tree.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.tree.dims(),
                got: query.dims(),
            });
        }
        let roles = &self.roles;
        let (point, weights) = (&query.point, &query.weights);
        let bound = |rect: &Rect| {
            let mut b = 0.0;
            for d in 0..roles.len() {
                b += match roles[d] {
                    DimRole::Repulsive => weights[d] * rect.max_dist_dim(d, point[d]),
                    DimRole::Attractive => -weights[d] * rect.min_dist_dim(d, point[d]),
                };
            }
            b
        };
        let score = |p: &[f64]| sd_score(p, point, roles, weights);
        let mut out: Vec<ScoredPoint> = self
            .tree
            .search_best_first(k, bound, score)
            .into_iter()
            .map(|(id, s)| ScoredPoint::new(PointId::new(id), s))
            .collect();
        out.sort_by(rank_cmp);
        Ok(out)
    }
}

impl TopKAlgorithm for BrsIndex {
    fn name(&self) -> &'static str {
        "BRS"
    }
    fn top_k(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        self.query(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqscan::SeqScan;
    use rand::{Rng, SeedableRng};

    fn assert_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.score - w.score).abs() < 1e-9,
                "got {got:?}\nwant {want:?}"
            );
        }
    }

    #[test]
    fn matches_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(500);
        for _ in 0..20 {
            let dims = rng.gen_range(1..8);
            let n = rng.gen_range(1..250);
            let coords: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            let data = Dataset::from_flat(dims, coords).unwrap();
            let roles: Vec<DimRole> = (0..dims)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        DimRole::Repulsive
                    } else {
                        DimRole::Attractive
                    }
                })
                .collect();
            let brs = BrsIndex::build(&data, &roles).unwrap();
            let oracle = SeqScan::new(data, &roles).unwrap();
            for _ in 0..10 {
                let q = SdQuery::new(
                    (0..dims).map(|_| rng.gen_range(-0.2..1.2)).collect(),
                    (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                )
                .unwrap();
                let k = rng.gen_range(1..10);
                assert_equiv(&brs.query(&q, k).unwrap(), &oracle.query(&q, k).unwrap());
            }
        }
    }

    #[test]
    fn incremental_build_matches_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(501);
        let dims = 3;
        let roles = vec![DimRole::Repulsive, DimRole::Attractive, DimRole::Repulsive];
        let mut brs = BrsIndex::new(dims, &roles).unwrap();
        let mut rows = Vec::new();
        for _ in 0..300 {
            let row: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            brs.insert(&row);
            rows.push(row);
        }
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let oracle = SeqScan::new(data, &roles).unwrap();
        for _ in 0..15 {
            let q = SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.1..1.0)).collect(),
            )
            .unwrap();
            assert_equiv(&brs.query(&q, 5).unwrap(), &oracle.query(&q, 5).unwrap());
        }
    }

    #[test]
    fn delete_keeps_answers_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(502);
        let dims = 2;
        let roles = vec![DimRole::Attractive, DimRole::Repulsive];
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let mut brs = BrsIndex::build(&data, &roles).unwrap();
        // Delete half the points.
        for i in 0..50u32 {
            assert!(brs.delete(PointId::new(i * 2)));
        }
        let remaining: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, r)| r.clone())
            .collect();
        let oracle = SeqScan::new(Dataset::from_rows(dims, &remaining).unwrap(), &roles).unwrap();
        let q = SdQuery::new(vec![0.4, 0.6], vec![1.0, 1.0]).unwrap();
        let got = brs.query(&q, 5).unwrap();
        let want = oracle.query(&q, 5).unwrap();
        assert_equiv(&got, &want);
    }

    #[test]
    fn paper_capacities() {
        assert_eq!(paper_node_capacity(2), 28);
        assert_eq!(paper_node_capacity(4), 16);
        assert_eq!(paper_node_capacity(6), 12);
        assert_eq!(paper_node_capacity(8), 9);
    }

    #[test]
    fn empty_tree_query() {
        let brs = BrsIndex::new(2, &[DimRole::Attractive, DimRole::Repulsive]).unwrap();
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(brs.query(&q, 3).unwrap().is_empty());
    }
}
