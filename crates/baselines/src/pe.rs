//! The PE baseline: Progressive Exploration of the joint space of
//! per-attribute hierarchies (after Xin, Han & Chang, "Progressive and
//! selective merge: computing top-k with ad-hoc ranking functions",
//! SIGMOD 2007), adapted to main memory as in §6.1.
//!
//! Every dimension is indexed by a balanced hierarchy over its sorted value
//! list. A *state* is one interval per dimension — a cell of the joint
//! space — with the admissible score bound
//! `Σ_D α·maxdist(q, I) − Σ_S β·mindist(q, I)`. Exploration is best-first:
//! the top state either splits its loosest dimension in half or, when small
//! enough, materialises its actual points (membership is checked against
//! the cell's value ranges). A point's exact score certifies it once it
//! reaches the top of the result pool above every frontier bound.
//!
//! Joint-space cells multiply with dimensionality, so PE's frontier grows
//! combinatorially — the effect behind the paper's observation that PE
//! performs like a sequential scan at d ≥ 6 (Fig. 7a–c). Past a
//! configurable exploration budget this implementation completes the query
//! by scanning, making the degradation explicit rather than unbounded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use std::sync::Arc;

use sdq_core::score::{rank_cmp, sd_score};
use sdq_core::{Dataset, DimRole, OrdF64, PointId, ScoredPoint, SdError, SdQuery};

use crate::TopKAlgorithm;

/// Cells whose every interval holds at most this many entries materialise
/// instead of splitting.
const LEAF_SIZE: usize = 48;

/// A joint-space cell: one index interval `[lo, hi)` per dimension into the
/// per-dimension sorted lists. (`Ord` exists only to satisfy the heap's
/// bounds; the unique sequence number tie-breaks before it is ever used.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    ranges: Box<[(u32, u32)]>,
}

/// Progressive joint-space exploration index.
#[derive(Debug, Clone)]
pub struct PeIndex {
    data: Arc<Dataset>,
    roles: Vec<DimRole>,
    /// Per dimension: values ascending with their row ids.
    sorted: Vec<Vec<(f64, u32)>>,
    /// Exploration budget in state expansions before degrading to a scan.
    budget: usize,
}

impl PeIndex {
    /// Builds the per-dimension hierarchies (`O(d·n log n)`).
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        let data = data.into();
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        let mut sorted = Vec::with_capacity(data.dims());
        for d in 0..data.dims() {
            let mut col: Vec<(f64, u32)> = data
                .column(d)
                .into_iter()
                .zip(0..data.len() as u32)
                .collect();
            col.sort_by(|a, b| OrdF64(a.0).cmp(&OrdF64(b.0)).then(a.1.cmp(&b.1)));
            sorted.push(col);
        }
        let budget = 8 * data.len() + 1024;
        Ok(PeIndex {
            data,
            roles: roles.to_vec(),
            sorted,
            budget,
        })
    }

    /// Overrides the exploration budget (state expansions before the
    /// sequential-scan fallback).
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// The indexed dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.sorted
            .iter()
            .map(|c| c.len() * std::mem::size_of::<(f64, u32)>())
            .sum()
    }

    /// Inserts a point into every per-dimension list (`O(d·n)` memmove —
    /// the linear growth visible in the paper's Fig. 8b).
    pub fn insert(&mut self, point: &[f64]) -> Result<PointId, SdError> {
        if point.len() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: point.len(),
            });
        }
        // The dataset is shared; clone-on-write to extend it.
        let data = Arc::make_mut(&mut self.data);
        let row = data.push_row(point)?.raw();
        for (d, col) in self.sorted.iter_mut().enumerate() {
            let key = (point[d], row);
            let pos = col.partition_point(|&(v, id)| {
                OrdF64(v).cmp(&OrdF64(key.0)).then(id.cmp(&key.1)) == std::cmp::Ordering::Less
            });
            col.insert(pos, key);
        }
        Ok(PointId::new(row))
    }

    /// Score bound of a cell.
    fn state_bound(&self, q: &SdQuery, s: &State) -> f64 {
        let mut b = 0.0;
        for d in 0..self.roles.len() {
            let (lo, hi) = s.ranges[d];
            let vlo = self.sorted[d][lo as usize].0;
            let vhi = self.sorted[d][hi as usize - 1].0;
            let (qv, w) = (q.point[d], q.weights[d]);
            b += match self.roles[d] {
                DimRole::Repulsive => w * (qv - vlo).abs().max((qv - vhi).abs()),
                DimRole::Attractive => {
                    let dist = if qv < vlo {
                        vlo - qv
                    } else if qv > vhi {
                        qv - vhi
                    } else {
                        0.0
                    };
                    -w * dist
                }
            };
        }
        b
    }

    /// Exact top-k by progressive exploration.
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
        let n = self.data.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let dims = self.data.dims();
        let k_eff = k.min(n);

        let mut frontier: BinaryHeap<(OrdF64, Reverse<u64>, State)> = BinaryHeap::new();
        let mut state_seq = 0u64;
        let root = State {
            ranges: vec![(0u32, n as u32); dims].into_boxed_slice(),
        };
        frontier.push((
            OrdF64::new(self.state_bound(query, &root)),
            Reverse(state_seq),
            root,
        ));

        let mut pool: BinaryHeap<(OrdF64, Reverse<u32>)> = BinaryHeap::new();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut answers: Vec<ScoredPoint> = Vec::with_capacity(k_eff);
        let mut expansions = 0usize;

        loop {
            let frontier_bound = frontier.peek().map(|&(OrdF64(b), _, _)| b);
            // Certified emissions: strictly above every unexplored cell's
            // bound, which may still hold a tied row with a smaller id.
            while answers.len() < k_eff {
                match pool.peek() {
                    Some(&(OrdF64(s), Reverse(row))) if frontier_bound.is_none_or(|b| s > b) => {
                        pool.pop();
                        answers.push(ScoredPoint::new(PointId::new(row), s));
                    }
                    _ => break,
                }
            }
            if answers.len() >= k_eff {
                break;
            }
            let Some((_, _, state)) = frontier.pop() else {
                // Frontier exhausted: drain the pool.
                while answers.len() < k_eff {
                    match pool.pop() {
                        Some((OrdF64(s), Reverse(row))) => {
                            answers.push(ScoredPoint::new(PointId::new(row), s))
                        }
                        None => break,
                    }
                }
                break;
            };
            expansions += 1;
            if expansions > self.budget {
                // Budget exceeded: finish by scanning everything unseen
                // (the sequential-scan degradation of Fig. 7a–c).
                for (id, coords) in self.data.iter() {
                    if seen.insert(id.raw()) {
                        let s = sd_score(coords, &query.point, &self.roles, &query.weights);
                        pool.push((OrdF64::new(s), Reverse(id.raw())));
                    }
                }
                frontier.clear();
                continue;
            }

            let widest = (0..dims)
                .max_by_key(|&d| state.ranges[d].1 - state.ranges[d].0)
                .expect("dims ≥ 1");
            let width = (state.ranges[widest].1 - state.ranges[widest].0) as usize;
            if width <= LEAF_SIZE {
                // Materialise: enumerate the smallest interval, check cell
                // membership against every dimension's value range.
                let narrowest = (0..dims)
                    .min_by_key(|&d| state.ranges[d].1 - state.ranges[d].0)
                    .expect("dims ≥ 1");
                let (lo, hi) = state.ranges[narrowest];
                'cand: for i in lo..hi {
                    let (_, row) = self.sorted[narrowest][i as usize];
                    let coords = self.data.point(PointId::new(row));
                    for (d, &c) in coords.iter().enumerate() {
                        let (dlo, dhi) = state.ranges[d];
                        let vlo = self.sorted[d][dlo as usize].0;
                        let vhi = self.sorted[d][dhi as usize - 1].0;
                        if c < vlo || c > vhi {
                            continue 'cand;
                        }
                    }
                    if seen.insert(row) {
                        let s = sd_score(coords, &query.point, &self.roles, &query.weights);
                        pool.push((OrdF64::new(s), Reverse(row)));
                    }
                }
            } else {
                // Split the widest dimension in half.
                let (lo, hi) = state.ranges[widest];
                let mid = lo + (hi - lo) / 2;
                for (a, b) in [(lo, mid), (mid, hi)] {
                    let mut ranges = state.ranges.clone();
                    ranges[widest] = (a, b);
                    let child = State { ranges };
                    state_seq += 1;
                    frontier.push((
                        OrdF64::new(self.state_bound(query, &child)),
                        Reverse(state_seq),
                        child,
                    ));
                }
            }
        }
        answers.sort_by(rank_cmp);
        Ok(answers)
    }
}

impl TopKAlgorithm for PeIndex {
    fn name(&self) -> &'static str {
        "PE"
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(600);
        for _ in 0..20 {
            let dims = rng.gen_range(1..6);
            let n = rng.gen_range(1..200);
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
            let pe = PeIndex::build(data.clone(), &roles).unwrap();
            let oracle = SeqScan::new(data, &roles).unwrap();
            for _ in 0..8 {
                let q = SdQuery::new(
                    (0..dims).map(|_| rng.gen_range(-0.2..1.2)).collect(),
                    (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                )
                .unwrap();
                let k = rng.gen_range(1..10);
                assert_equiv(&pe.query(&q, k).unwrap(), &oracle.query(&q, k).unwrap());
            }
        }
    }

    #[test]
    fn tiny_budget_still_exact_via_scan_fallback() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(601);
        let dims = 4;
        let n = 300;
        let coords: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
        let data = Dataset::from_flat(dims, coords).unwrap();
        let roles = vec![
            DimRole::Repulsive,
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let mut pe = PeIndex::build(data.clone(), &roles).unwrap();
        pe.set_budget(3); // force the degradation path
        let oracle = SeqScan::new(data, &roles).unwrap();
        for _ in 0..10 {
            let q = SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.1..1.0)).collect(),
            )
            .unwrap();
            assert_equiv(&pe.query(&q, 5).unwrap(), &oracle.query(&q, 5).unwrap());
        }
    }

    #[test]
    fn insert_extends_all_lists() {
        let data = Dataset::from_rows(2, &[vec![0.1, 0.9], vec![0.5, 0.5]]).unwrap();
        let roles = vec![DimRole::Attractive, DimRole::Repulsive];
        let mut pe = PeIndex::build(data, &roles).unwrap();
        let id = pe.insert(&[0.3, 0.7]).unwrap();
        assert_eq!(id.index(), 2);
        assert_eq!(pe.data().len(), 3);
        let q = SdQuery::new(vec![0.3, 0.0], vec![1.0, 1.0]).unwrap();
        let oracle = SeqScan::new(pe.data().clone(), &roles).unwrap();
        assert_equiv(&pe.query(&q, 3).unwrap(), &oracle.query(&q, 3).unwrap());
    }

    #[test]
    fn duplicates_and_degenerate_columns() {
        // All points identical: every cell collapses to one value.
        let data = Dataset::from_rows(3, &vec![vec![0.5; 3]; 20]).unwrap();
        let roles = vec![DimRole::Repulsive, DimRole::Attractive, DimRole::Repulsive];
        let pe = PeIndex::build(data.clone(), &roles).unwrap();
        let q = SdQuery::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let got = pe.query(&q, 5).unwrap();
        assert_eq!(got.len(), 5);
        for g in &got {
            assert!((g.score - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::from_flat(2, vec![]).unwrap();
        let roles = vec![DimRole::Attractive, DimRole::Repulsive];
        let pe = PeIndex::build(data, &roles).unwrap();
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(pe.query(&q, 4).unwrap().is_empty());
    }
}
