//! The answer heap of one logical query.
//!
//! Every exact score a query finds — in any shard's box scan, in the
//! engine's delta scan, in `sdq-paper`'s walks — goes into one
//! [`QueryFloor`], passed `&mut` to whatever scores a row of the query, together with the row's
//! global id. The floor keeps the best `min(k, live rows the query ranks)`
//! `(score, id)` entries in the canonical order ([`rank_cmp`]: score
//! descending, ties by id ascending), so one drain at the end of the query
//! ([`QueryFloor::drain_into`]) is its answer. Once it holds that many, its
//! lowest score is a lower bound on the query's final k-th score, so a
//! scorer drops any row strictly below it, a box scan skips any chunk whose
//! bound is below it, and a walk stops once its admissible bound falls
//! below it (the paper's threshold rule, Ranu & Singh, arXiv 1111.7165).
//! The shards of an engine query thus prune against the union of every
//! score found so far, not against their own.
//!
//! As a floor it is a pure *pruning hint*: a lower floor only prunes less.
//! Every reader compares against it with `>` or `>=`, so a `−0` floor and a
//! `+0` floor prune alike. A reader that knows the smallest id a group of
//! rows can carry may also drop the group at a score *equal* to the floor
//! ([`QueryFloor::worst`]): a tied row enters only under a smaller id than
//! the worst kept one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::score::rank_cmp;
use crate::types::{OrdF64, PointId, ScoredPoint};

/// One kept entry of a [`QueryFloor`]: the heap's top is the entry the
/// floor evicts first — the lowest score, and among equal scores the
/// largest id, the last under [`rank_cmp`].
pub type FloorEntry = (Reverse<OrdF64>, u32);

/// Maps a non-NaN `f64` onto a `u64` whose unsigned order equals the float
/// order: positive floats get the sign bit set, negative floats are
/// bit-inverted. The split's sort key (`multidim::boxes`) and the
/// descent's heap order.
#[inline]
pub(crate) fn encode(v: f64) -> u64 {
    // Branch-free: the mask is all ones for a negative float, the sign bit
    // alone otherwise (the box scan encodes bounds of either sign).
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The one answer heap of one logical query and its k-th-score floor.
///
/// Make one per query over a recycled heap ([`QueryFloor::new`]) and hand
/// it `&mut` to everything that scores a row of the query; each scorer
/// feeds it every exact score it keeps with the row's global id
/// ([`QueryFloor::offer`]) and prunes against [`QueryFloor::bar`]. Only
/// exact scores of **distinct live rows** of this query may enter: a score
/// from another query, a dead row or a row counted twice could lift the bar
/// above the query's real k-th score, or answer with it. A caller may put
/// in lower scores than that under ids no row of the query has (a test's
/// pre-filled floor): they only prune less.
#[derive(Debug)]
pub struct QueryFloor<'h> {
    /// The best `cap` entries offered so far, worst on top.
    heap: &'h mut BinaryHeap<FloorEntry>,
    cap: usize,
}

impl<'h> QueryFloor<'h> {
    /// An empty floor over `heap` (cleared here) that keeps the best `cap`
    /// entries — `min(k, live rows the query ranks)` — and prunes nothing
    /// until it holds them.
    pub fn new(heap: &'h mut BinaryHeap<FloorEntry>, cap: usize) -> Self {
        heap.clear();
        QueryFloor { heap, cap }
    }

    /// Feeds the exact score of the live row `id` of this query. Returns
    /// `true` when the kept scores changed (a floor update): the entry
    /// filled a free place or displaced a lower score. An entry that only
    /// displaces an equal score under a larger id changes the answer, not
    /// the floor, and returns `false`.
    #[inline]
    pub fn offer(&mut self, score: f64, id: u32) -> bool {
        let entry = (Reverse(OrdF64::new(score)), id);
        if self.heap.len() < self.cap {
            self.heap.push(entry);
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut worst) if entry < *worst => {
                let rose = score > worst.0 .0 .0;
                *worst = entry;
                rose
            }
            _ => false,
        }
    }

    /// The score a row must reach to matter: the lowest kept score once the
    /// floor holds `cap` of them, `−∞` before. With fewer than `k` live rows
    /// a full floor has scored every one of them, so nothing is left for the
    /// bar to drop; a floor of no rows (`cap` 0) keeps none, so its bar is
    /// `+∞`.
    #[inline]
    pub fn bar(&self) -> f64 {
        if self.heap.len() < self.cap {
            return f64::NEG_INFINITY;
        }
        self.heap.peek().map_or(f64::INFINITY, |e| e.0 .0 .0)
    }

    /// The entry the floor evicts first, `(score, id)`, once it holds its
    /// `cap` entries; `None` before (and for a floor of no rows). A row
    /// scoring exactly `score` enters only under an id below `id`, so a
    /// group of rows none of which can score above `score` and whose ids
    /// are all above `id` cannot change the answer.
    #[inline]
    pub fn worst(&self) -> Option<(f64, u32)> {
        if self.heap.len() < self.cap {
            return None;
        }
        self.heap.peek().map(|e| (e.0 .0 .0, e.1))
    }

    /// The lowest kept score — the k-th best once full — or `−∞` while
    /// empty: what a profile reports as `floor_value`.
    pub fn value(&self) -> f64 {
        self.heap.peek().map_or(f64::NEG_INFINITY, |e| e.0 .0 .0)
    }

    /// Empties the floor into `answers` (cleared first), sorted by
    /// [`rank_cmp`]: once every scorer of the query is done, the query's
    /// canonical answer.
    pub fn drain_into(&mut self, answers: &mut Vec<ScoredPoint>) {
        answers.clear();
        answers.extend(
            self.heap
                .drain()
                .map(|(Reverse(OrdF64(score)), id)| ScoredPoint::new(PointId::new(id), score)),
        );
        answers.sort_unstable_by(rank_cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_monotone() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.75,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(encode(w[0]) <= encode(w[1]), "{} vs {}", w[0], w[1]);
        }
        // -0.0 and 0.0 keep their bit distinction but order consistently.
        assert!(encode(-0.0) < encode(0.0));
    }

    #[test]
    fn floor_only_rises() {
        let mut heap = BinaryHeap::new();
        heap.push((Reverse(OrdF64(9.0)), 0)); // a previous query's, cleared
        let mut t = QueryFloor::new(&mut heap, 2);
        assert_eq!((t.bar(), t.value()), (f64::NEG_INFINITY, f64::NEG_INFINITY));
        assert!(t.offer(-3.0, 1));
        // Not full: the bar prunes nothing, the value is the lowest kept.
        assert_eq!((t.bar(), t.value()), (f64::NEG_INFINITY, -3.0));
        assert!(t.offer(2.0, 2));
        assert_eq!(t.bar(), -3.0);
        assert!(!t.offer(-5.0, 3), "a score under the bar is no update");
        assert!(t.offer(4.0, 4));
        assert_eq!((t.bar(), t.value()), (2.0, 2.0));
        // A tie with the bar is no update, whichever id it carries.
        assert!(!t.offer(2.0, 5));
        assert!(!t.offer(2.0, 0));
        // A floor of no rows keeps nothing and lets nothing through.
        let mut empty = BinaryHeap::new();
        let mut z = QueryFloor::new(&mut empty, 0);
        assert!(!z.offer(1.0, 0));
        assert_eq!((z.bar(), z.value()), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn ties_keep_the_smaller_id_and_drain_canonically() {
        // At a tie on the k-th score the smaller id stays, as `rank_cmp`
        // orders it, whichever order the entries arrive in.
        let mut heap = BinaryHeap::new();
        let mut answers = vec![ScoredPoint::new(PointId::new(99), 0.0)];
        for order in [[7, 3, 5, 1], [1, 5, 3, 7]] {
            let mut t = QueryFloor::new(&mut heap, 3);
            for id in order {
                t.offer(if id == 7 { 2.0 } else { 1.0 }, id);
            }
            assert_eq!(t.worst(), Some((1.0, 3)));
            t.drain_into(&mut answers);
            let got: Vec<(u32, f64)> = answers.iter().map(|sp| (sp.id.raw(), sp.score)).collect();
            assert_eq!(got, [(7, 2.0), (1, 1.0), (3, 1.0)], "{order:?}");
            assert_eq!((t.value(), t.worst()), (f64::NEG_INFINITY, None));
        }
    }
}
