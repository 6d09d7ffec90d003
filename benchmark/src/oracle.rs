//! Answer checking, outside every timed region.
//!
//! `SeqScan::query` pushes every row through a heap (4.5 ms on 200k 2-D
//! rows), which would make checking all 4096 `direct_2d` queries cost more
//! than the run measures. [`is_exact_top_k`] proves the same thing in one
//! heap-free pass with the same `sd_score`: the answer is in canonical
//! order, every `(id, score)` in it is bit-identical to the oracle score of
//! that row, and exactly `len` live rows rank at or before its last entry.
//! `SeqScan` itself cross-checks the baseline sample of a traced run.

use crate::api::{sd_score, DimRole, ScoredPoint, SdQuery};

/// Canonical rank order: score descending, id ascending.
fn ranks_before(a_score: f64, a_id: u32, b_score: f64, b_id: u32) -> bool {
    a_score > b_score || (a_score == b_score && a_id < b_id)
}

/// The benchmark's own copy of the rows an engine should hold, addressed
/// by the engine's row ids.
pub struct Shadow {
    dims: usize,
    flat: Vec<f64>,
    live: Vec<bool>,
    /// Live ids, unordered: `delete` picks from it in O(1).
    live_ids: Vec<u32>,
}

impl Shadow {
    pub fn new(dims: usize, flat: Vec<f64>) -> Self {
        let rows = flat.len() / dims;
        Shadow {
            dims,
            flat,
            live: vec![true; rows],
            live_ids: (0..rows as u32).collect(),
        }
    }

    pub fn live_rows(&self) -> usize {
        self.live_ids.len()
    }

    /// Appends a row; returns the id the engine must assign to it.
    pub fn insert(&mut self, row: &[f64]) -> u32 {
        let id = self.live.len() as u32;
        self.flat.extend_from_slice(row);
        self.live.push(true);
        self.live_ids.push(id);
        id
    }

    /// Removes and returns the live id at position `pick % live_rows`.
    pub fn delete_pick(&mut self, pick: usize) -> u32 {
        let id = self.live_ids.swap_remove(pick % self.live_ids.len());
        self.live[id as usize] = false;
        id
    }

    /// Mirrors compaction: live rows keep their order and are renumbered
    /// densely (the engine's renumbering is monotone).
    pub fn compact(&mut self) {
        let dims = self.dims;
        let mut kept = 0usize;
        for id in 0..self.live.len() {
            if self.live[id] {
                self.flat
                    .copy_within(id * dims..(id + 1) * dims, kept * dims);
                kept += 1;
            }
        }
        self.flat.truncate(kept * dims);
        self.live.clear();
        self.live.resize(kept, true);
        self.live_ids.clear();
        self.live_ids.extend(0..kept as u32);
    }

    fn rows(&self) -> impl Iterator<Item = (u32, &[f64])> {
        self.flat
            .chunks_exact(self.dims)
            .enumerate()
            .filter(|&(id, _)| self.live[id])
            .map(|(id, row)| (id as u32, row))
    }

    fn row(&self, id: u32) -> Option<&[f64]> {
        let i = id as usize;
        (i < self.live.len() && self.live[i])
            .then(|| &self.flat[i * self.dims..(i + 1) * self.dims])
    }

    /// `true` when `answer` is exactly the canonical top-`k` of the live
    /// rows: same ids, same order, bit-identical scores.
    pub fn is_exact_top_k(
        &self,
        roles: &[DimRole],
        query: &SdQuery,
        k: usize,
        answer: &[ScoredPoint],
    ) -> bool {
        if answer.len() != k.min(self.live_rows()) {
            return false;
        }
        let Some(last) = answer.last() else {
            return true;
        };
        let score = |row: &[f64]| sd_score(row, &query.point, roles, &query.weights);
        let genuine = answer.iter().all(|sp| {
            self.row(sp.id.raw())
                .is_some_and(|row| score(row).to_bits() == sp.score.to_bits())
        });
        let ordered = answer
            .windows(2)
            .all(|w| ranks_before(w[0].score, w[0].id.raw(), w[1].score, w[1].id.raw()));
        if !genuine || !ordered {
            return false;
        }
        // The answer's entries are distinct genuine rows that all rank at
        // or before `last`; it is the top-k iff no other row does.
        let (ls, lid) = (last.score, last.id.raw());
        let at_or_before = self
            .rows()
            .filter(|&(id, row)| {
                let s = score(row);
                id == lid || ranks_before(s, id, ls, lid)
            })
            .count();
        at_or_before == answer.len()
    }
}

/// A fixed set of rows and, per distinct query, the first answer an engine
/// over them gave: every later answer must be bit-identical to it, and the
/// oracle checks the first ones when the run ends.
pub struct Reference {
    rows: Shadow,
    first: Vec<Option<Vec<ScoredPoint>>>,
}

impl Reference {
    pub fn new(dims: usize, flat: Vec<f64>, distinct: usize) -> Self {
        Reference {
            rows: Shadow::new(dims, flat),
            first: vec![None; distinct],
        }
    }

    /// Records the first answer to query `qi`; `false` when a later one
    /// differs from it.
    pub fn agrees(&mut self, qi: usize, answer: &[ScoredPoint]) -> bool {
        match &self.first[qi] {
            None => {
                self.first[qi] = Some(answer.to_vec());
                true
            }
            Some(first) => same_answer(first, answer),
        }
    }

    /// The queries whose first answer is not the oracle's top-k, checked on
    /// `threads` threads.
    pub fn wrong(
        &self,
        roles: &[DimRole],
        queries: &[SdQuery],
        k: usize,
        threads: usize,
    ) -> Vec<usize> {
        let threads = threads.max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..self.first.len())
                            .step_by(threads)
                            .filter(|&qi| {
                                self.first[qi].as_ref().is_some_and(|answer| {
                                    !self.rows.is_exact_top_k(roles, &queries[qi], k, answer)
                                })
                            })
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        })
    }
}

/// Bitwise equality of two answers.
pub fn same_answer(a: &[ScoredPoint], b: &[ScoredPoint]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Dataset, PointId, SeqScan};

    fn roles() -> Vec<DimRole> {
        vec![DimRole::Attractive, DimRole::Repulsive]
    }

    #[test]
    fn accepts_seqscan_and_rejects_anything_else() {
        let mut rng = crate::stats::Rng::new(3);
        let flat: Vec<f64> = (0..400).map(|_| (rng.below(10) as f64) / 10.0).collect();
        let roles = roles();
        let shadow = Shadow::new(2, flat.clone());
        let scan = SeqScan::new(Dataset::from_flat(2, flat).unwrap(), &roles).unwrap();
        let q = SdQuery::new(vec![0.3, 0.7], vec![0.5, 0.9]).unwrap();
        let good = scan.query(&q, 7).unwrap();
        assert!(shadow.is_exact_top_k(&roles, &q, 7, &good));
        let mut swapped = good.clone();
        swapped.swap(0, 6);
        assert!(!shadow.is_exact_top_k(&roles, &q, 7, &swapped));
        let mut wrong_score = good.clone();
        wrong_score[3].score += 1e-12;
        assert!(!shadow.is_exact_top_k(&roles, &q, 7, &wrong_score));
        // Dropping the best row and appending the 8th is ordered and
        // genuine, but not the top 7.
        let eight = scan.query(&q, 8).unwrap();
        assert!(!shadow.is_exact_top_k(&roles, &q, 7, &eight[1..]));
        assert!(!shadow.is_exact_top_k(&roles, &q, 7, &good[..6]));
    }

    #[test]
    fn shadow_follows_engine_ids_through_compaction() {
        let roles = roles();
        let mut shadow = Shadow::new(2, vec![0.1, 0.1, 0.2, 0.2, 0.3, 0.3]);
        assert_eq!(shadow.insert(&[0.9, 0.9]), 3);
        let dead = shadow.delete_pick(1);
        assert_eq!(shadow.live_rows(), 3);
        let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let dead_answer = [ScoredPoint::new(
            PointId::new(dead),
            sd_score(&[0.0, 0.0], &q.point, &roles, &q.weights),
        )];
        assert!(!shadow.is_exact_top_k(&roles, &q, 1, &dead_answer));
        shadow.compact();
        assert_eq!(shadow.live_rows(), 3);
        assert_eq!(shadow.insert(&[0.5, 0.5]), 3);
    }
}
