//! Sequential scan: the unbeatable-in-simplicity baseline and the oracle
//! every other method is tested against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sdq_core::score::{rank_cmp, sd_score};
use sdq_core::{Dataset, DimRole, OrdF64, PointId, ScoredPoint, SdError, SdQuery};

use crate::TopKAlgorithm;

/// Full-scan top-k with an `O(n log k)` bounded heap.
#[derive(Debug, Clone)]
pub struct SeqScan {
    data: Arc<Dataset>,
    roles: Vec<DimRole>,
}

impl SeqScan {
    /// Wraps a dataset; no preprocessing.
    pub fn new(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        let data = data.into();
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        Ok(SeqScan {
            data,
            roles: roles.to_vec(),
        })
    }

    /// The wrapped dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Exact top-k by exhaustive scoring.
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        // Min-heap of the current best k: the root is the worst kept entry.
        // Reverse(score) makes the heap pop the lowest score first; ties
        // break towards keeping the *smaller* id, matching `rank_cmp`. It
        // never holds more than every row plus one, whatever `k` asks.
        let mut heap: BinaryHeap<(Reverse<OrdF64>, PointId)> =
            BinaryHeap::with_capacity(k.min(self.data.len()) + 1);
        for (id, coords) in self.data.iter() {
            let s = sd_score(coords, &query.point, &self.roles, &query.weights);
            heap.push((Reverse(OrdF64::new(s)), id));
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut out: Vec<ScoredPoint> = heap
            .into_iter()
            .map(|(Reverse(OrdF64(s)), id)| ScoredPoint::new(id, s))
            .collect();
        out.sort_by(rank_cmp);
        out.truncate(k);
        Ok(out)
    }
}

impl TopKAlgorithm for SeqScan {
    fn name(&self) -> &'static str {
        "SeqScan"
    }
    fn top_k(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        self.query(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_rows(
            2,
            &[
                vec![0.0, 0.0],
                vec![1.0, 5.0],
                vec![0.5, 2.0],
                vec![3.0, 1.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn top1_is_global_max() {
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let scan = SeqScan::new(dataset(), &roles).unwrap();
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let r = scan.query(&q, 1).unwrap();
        // p1 = (1, 5): score 5 − 1 = 4 is the max.
        assert_eq!(r[0].id.index(), 1);
        assert_eq!(r[0].score, 4.0);
    }

    #[test]
    fn heap_truncation_matches_full_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let data = Dataset::from_rows(2, &rows).unwrap();
        let roles = [DimRole::Repulsive, DimRole::Attractive];
        let scan = SeqScan::new(data.clone(), &roles).unwrap();
        let q = SdQuery::new(vec![0.3, 0.7], vec![0.9, 0.4]).unwrap();
        let got = scan.query(&q, 10).unwrap();
        let mut all: Vec<ScoredPoint> = data
            .iter()
            .map(|(id, c)| ScoredPoint::new(id, sd_score(c, &q.point, &roles, &q.weights)))
            .collect();
        all.sort_by(rank_cmp);
        for (g, w) in got.iter().zip(&all) {
            assert_eq!(g.id, w.id);
            assert_eq!(g.score, w.score);
        }
    }

    #[test]
    fn tie_break_prefers_smaller_id() {
        let data = Dataset::from_rows(1, &[vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let scan = SeqScan::new(data, &[DimRole::Repulsive]).unwrap();
        let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        let r = scan.query(&q, 2).unwrap();
        assert_eq!(r[0].id.index(), 0);
        assert_eq!(r[1].id.index(), 1);
    }

    #[test]
    fn validation() {
        let scan = SeqScan::new(dataset(), &[DimRole::Attractive, DimRole::Repulsive]).unwrap();
        let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        assert!(scan.query(&q, 1).is_err());
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(matches!(scan.query(&q, 0), Err(SdError::ZeroK)));
        assert!(SeqScan::new(dataset(), &[DimRole::Attractive]).is_err());
    }

    #[test]
    fn k_exceeds_n() {
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let scan = SeqScan::new(dataset(), &roles).unwrap();
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(scan.query(&q, 100).unwrap().len(), 4);
    }
}
