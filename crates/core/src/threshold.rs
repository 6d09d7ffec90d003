//! The k-th-score floor of one logical query.
//!
//! Every exact score a query finds — in any shard execution, in the direct
//! walk, in the engine's delta scan — goes into one [`QueryFloor`], passed
//! `&mut` to whatever scores a row of the query. The floor keeps the best
//! `min(k, live rows the query ranks)` of them; once it holds that many,
//! its lowest is a lower bound on the query's final k-th score, so a scorer
//! drops any row strictly below it and an aggregation stops once its own
//! admissible bound `τ` falls below it (the paper's §5 stopping rule, Ranu &
//! Singh, arXiv 1111.7165). The shards of an engine query thus prune against
//! the union of every score found so far, not against their own.
//!
//! The floor is a pure *pruning hint*: a lower floor only prunes less. Every
//! reader compares against it with `>` or `>=`, so a `−0` floor and a `+0`
//! floor prune alike.
//!
//! The floor also carries the query's scan verdict
//! ([`QueryFloor::mark_lost`]): the first execution that gives up on its
//! streams and finishes by scanning says so here, and every sibling still
//! open reads it at its next round head and scans too, instead of spending
//! its own stream phase to reach the same verdict. The verdict can also be
//! there before round one ([`QueryFloor::start_lost`]): the engine sets it
//! when the query's shape lost its recent queries, and then every execution
//! scans at its first round head. The floor keeps the two apart
//! ([`Verdict`]), so a profile can say which one sent an execution to its
//! scan. It is a cost hint as well: a scan is exact whenever it runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::OrdF64;

/// Feeds one exact candidate score into a size-capped min-heap tracking the
/// best `cap` scores seen so far; the heap top is then the running
/// k-th-best floor. [`QueryFloor::offer`] is this over the query's heap.
/// Returns `true` when the heap changed (the score entered the tracked top
/// `cap`) — the query profile counts these as floor updates.
#[inline]
pub fn track_floor(floor: &mut BinaryHeap<Reverse<OrdF64>>, cap: usize, score: f64) -> bool {
    if floor.len() < cap {
        floor.push(Reverse(OrdF64::new(score)));
        true
    } else if let Some(&Reverse(kth)) = floor.peek() {
        if kth < OrdF64(score) {
            floor.pop();
            floor.push(Reverse(OrdF64::new(score)));
            true
        } else {
            false
        }
    } else {
        false
    }
}

/// Maps a non-NaN `f64` onto a `u64` whose unsigned order equals the float
/// order: positive floats get the sign bit set, negative floats are
/// bit-inverted. The bulk load's sort key (`topk::blocks`).
#[inline]
pub(crate) fn encode(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// What the executions of one query know about its streams, read at a round
/// head ([`QueryFloor::verdict`]). Ordered: marking a query lost never
/// hides that it started lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No execution has given up on its streams.
    Open,
    /// An execution of this query took the scan exit
    /// ([`QueryFloor::mark_lost`]).
    Lost,
    /// The query was marked lost before any execution began
    /// ([`QueryFloor::start_lost`]).
    StartedLost,
}

/// The one k-th-score floor of one logical query, and its scan verdict.
///
/// Make one per query over a recycled heap ([`QueryFloor::new`]) and hand
/// it `&mut` to everything that scores a row of the query; each scorer
/// feeds it every exact score it keeps ([`QueryFloor::offer`]) and prunes
/// against [`QueryFloor::bar`]. Only exact scores of **distinct live rows**
/// of this query may enter: a score from another query, a dead row or a
/// row counted twice could lift the bar above the query's real k-th score.
/// A caller may put in lower scores than that (a test's pre-filled floor):
/// they only prune less.
#[derive(Debug)]
pub struct QueryFloor<'h> {
    /// Min-heap over the best `cap` scores offered so far.
    heap: &'h mut BinaryHeap<Reverse<OrdF64>>,
    cap: usize,
    verdict: Verdict,
}

impl<'h> QueryFloor<'h> {
    /// An empty floor over `heap` (cleared here) that keeps the best `cap`
    /// scores — `min(k, live rows the query ranks)` — and prunes nothing
    /// until it holds them; the query is not lost.
    pub fn new(heap: &'h mut BinaryHeap<Reverse<OrdF64>>, cap: usize) -> Self {
        heap.clear();
        QueryFloor {
            heap,
            cap,
            verdict: Verdict::Open,
        }
    }

    /// Feeds the exact score of one live row of this query; `true` when it
    /// entered the kept best (a floor update).
    #[inline]
    pub fn offer(&mut self, score: f64) -> bool {
        track_floor(self.heap, self.cap, score)
    }

    /// The score a row must reach to matter: the lowest kept score once the
    /// floor holds `cap` of them, `−∞` before. With fewer than `k` live rows
    /// a full floor has scored every one of them, so nothing is left for the
    /// bar to drop.
    #[inline]
    pub fn bar(&self) -> f64 {
        match self.heap.peek() {
            Some(&Reverse(OrdF64(kth))) if self.heap.len() == self.cap => kth,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The lowest kept score — the k-th best once full — or `−∞` while
    /// empty: what a profile reports as `floor_value`.
    pub fn value(&self) -> f64 {
        self.heap.peek().map_or(f64::NEG_INFINITY, |r| r.0 .0)
    }

    /// Records that an execution of this query took the scan exit: its
    /// streams could not certify inside its fetch budget. The shards of one
    /// engine partition one dataset, so the verdict stands for them all.
    #[inline]
    pub fn mark_lost(&mut self) {
        self.verdict = self.verdict.max(Verdict::Lost);
    }

    /// Marks the query lost before any of its executions begins: each one
    /// then scans at its first round head, unless the floor certifies it
    /// there. The engine calls this when the query's shape lost its recent
    /// queries; [`Verdict::StartedLost`] tells such a scan apart from one a
    /// sibling's exit sent it to.
    #[inline]
    pub fn start_lost(&mut self) {
        self.verdict = Verdict::StartedLost;
    }

    /// Sets the verdict back to open, keeping every score: the engine's
    /// audit runs its last shard stream-first against the floor its started
    /// lost siblings left.
    pub fn reopen(&mut self) {
        self.verdict = Verdict::Open;
    }

    /// The query's scan verdict so far.
    #[inline]
    pub fn verdict(&self) -> Verdict {
        self.verdict
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
        heap.push(Reverse(OrdF64(9.0))); // a previous query's, cleared
        let mut t = QueryFloor::new(&mut heap, 2);
        assert_eq!((t.bar(), t.value()), (f64::NEG_INFINITY, f64::NEG_INFINITY));
        assert!(t.offer(-3.0));
        // Not full: the bar prunes nothing, the value is the lowest kept.
        assert_eq!((t.bar(), t.value()), (f64::NEG_INFINITY, -3.0));
        assert!(t.offer(2.0));
        assert_eq!(t.bar(), -3.0);
        assert!(!t.offer(-5.0), "a score under the bar is no update");
        assert!(t.offer(4.0));
        assert_eq!((t.bar(), t.value()), (2.0, 2.0));
        // A tie with the bar is no update either.
        assert!(!t.offer(2.0));
        // A floor of no rows never fills with anything.
        let mut empty = BinaryHeap::new();
        let mut z = QueryFloor::new(&mut empty, 0);
        assert!(!z.offer(1.0));
        assert_eq!(z.bar(), f64::NEG_INFINITY);
    }

    #[test]
    fn lost_is_sticky_and_leaves_the_floor_alone() {
        let mut heap = BinaryHeap::new();
        let mut t = QueryFloor::new(&mut heap, 1);
        assert_eq!(t.verdict(), Verdict::Open);
        t.offer(1.5);
        t.mark_lost();
        t.mark_lost();
        assert_eq!(t.verdict(), Verdict::Lost);
        assert_eq!(t.bar(), 1.5);
        // The audit reopens the verdict on the same scores.
        t.reopen();
        assert_eq!((t.verdict(), t.bar()), (Verdict::Open, 1.5));
    }

    #[test]
    fn a_query_that_started_lost_stays_told_apart() {
        let mut heap = BinaryHeap::new();
        let mut t = QueryFloor::new(&mut heap, 1);
        assert_eq!(t.verdict(), Verdict::Open);
        t.start_lost();
        assert_eq!(t.verdict(), Verdict::StartedLost);
        // An execution that scans marks the floor in turn; that must not
        // turn the prediction into a sibling's verdict.
        t.mark_lost();
        assert_eq!(t.verdict(), Verdict::StartedLost);
        let mut heap = BinaryHeap::new();
        let mut u = QueryFloor::new(&mut heap, 1);
        u.mark_lost();
        assert_eq!(u.verdict(), Verdict::Lost);
    }
}
