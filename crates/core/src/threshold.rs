//! Cross-execution kth-score threshold sharing.
//!
//! When one logical top-k query is decomposed into several physical
//! executions — the sharded engine runs one §5 aggregation per shard — every
//! execution produces *real* candidate scores, and the k-th best score seen
//! anywhere is a valid lower bound on the final global k-th score. A
//! [`SharedThreshold`] carries that bound across executions (and across
//! threads): each publishes its running k-th-best score with
//! [`SharedThreshold::raise`], and each reads the global floor with
//! [`SharedThreshold::floor`] to terminate early once its own admissible
//! bound `τ` certifies that no unfetched point can reach the floor.
//!
//! The floor is a pure *pruning hint*: readers may observe it arbitrarily
//! stale without affecting correctness (a stale floor only prunes less), so
//! all atomic accesses are `Relaxed`. Scores are totally ordered by encoding
//! the `f64` bits into a monotone `u64` (sign-flip trick), which makes
//! `fetch_max` the whole synchronisation story — no locks, no CAS loops.
//!
//! The handle also carries the query's scan verdict
//! ([`SharedThreshold::mark_lost`]): the first execution that gives up on
//! its streams and finishes by scanning says so here, and every sibling
//! still open reads it at its next round head and scans too, instead of
//! spending its own stream phase to reach the same verdict. The verdict can
//! also be there before round one ([`SharedThreshold::start_lost`]): the
//! engine sets it when the query's shape lost its recent queries, and then
//! every execution scans at its first round head. The handle keeps the two
//! apart ([`Verdict`]), so a profile can say which one sent an execution to
//! its scan. It is a cost hint as well — a scan is exact whenever it runs —
//! so it is `Relaxed` too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::types::OrdF64;

/// Feeds one exact candidate score into a size-capped min-heap tracking the
/// best `cap` scores seen so far; the heap top is then the running
/// k-th-best floor — the value to [`SharedThreshold::raise`] once the heap
/// holds `cap = k` real scores. Shared by the aggregation loops in this
/// crate and the engine's merged cross-shard tracker. Returns `true` when
/// the heap changed (the score entered the tracked top `cap`) — the
/// query profile counts these as floor updates.
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
/// bit-inverted.
#[inline]
pub(crate) fn encode(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`encode`].
#[inline]
fn decode(e: u64) -> f64 {
    let bits = if e >> 63 == 1 { e & !(1 << 63) } else { !e };
    f64::from_bits(bits)
}

/// What the executions of one query know about its streams, read at a round
/// head ([`SharedThreshold::verdict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No execution has given up on its streams.
    Open,
    /// An execution of this query took the scan exit
    /// ([`SharedThreshold::mark_lost`]).
    Lost,
    /// The query was marked lost before any execution began
    /// ([`SharedThreshold::start_lost`]).
    StartedLost,
}

/// A monotonically rising lower bound on the global k-th best score of one
/// logical query, shared across shard executions.
///
/// Start at `-∞` via [`SharedThreshold::new`], hand `Some(&t)` to every
/// shard execution of the same `(query, k)`, and drop it with the query.
/// Never reuse one handle across *different* logical queries — a floor from
/// another query would prune incorrectly, and its scan verdict would send
/// this one's executions to scans they may not need.
#[derive(Debug)]
pub struct SharedThreshold {
    bits: AtomicU64,
    /// [`Verdict`] as `OPEN < LOST < STARTED_LOST`, so marking a query lost
    /// is a `fetch_max` that never hides that it started lost.
    verdict: AtomicU8,
}

const OPEN: u8 = 0;
const LOST: u8 = 1;
const STARTED_LOST: u8 = 2;

impl SharedThreshold {
    /// A fresh threshold with floor `-∞` (prunes nothing), not lost.
    pub fn new() -> Self {
        SharedThreshold {
            bits: AtomicU64::new(encode(f64::NEG_INFINITY)),
            verdict: AtomicU8::new(OPEN),
        }
    }

    /// Records that an execution of this query took the scan exit: its
    /// streams could not certify inside its fetch budget. The shards of one
    /// engine partition one dataset, so the verdict stands for them all.
    #[inline]
    pub fn mark_lost(&self) {
        self.verdict.fetch_max(LOST, Ordering::Relaxed);
    }

    /// Marks the query lost before any of its executions begins: each one
    /// then scans at its first round head, unless the floor certifies it
    /// there. The engine calls this when the query's shape lost its recent
    /// queries; [`Verdict::StartedLost`] tells such a scan apart from one a
    /// sibling's exit sent it to.
    #[inline]
    pub fn start_lost(&self) {
        self.verdict.store(STARTED_LOST, Ordering::Relaxed);
    }

    /// The query's scan verdict so far.
    #[inline]
    pub fn verdict(&self) -> Verdict {
        match self.verdict.load(Ordering::Relaxed) {
            OPEN => Verdict::Open,
            LOST => Verdict::Lost,
            _ => Verdict::StartedLost,
        }
    }

    /// The highest k-th-best score any execution has published so far.
    #[inline]
    pub fn floor(&self) -> f64 {
        decode(self.bits.load(Ordering::Relaxed))
    }

    /// Publishes a k-th-best score; the floor only ever rises. `score` must
    /// be the k-th best of **k real, exactly scored points** of this logical
    /// query (that is what makes the floor admissible for pruning).
    #[inline]
    pub fn raise(&self, score: f64) {
        debug_assert!(!score.is_nan(), "threshold floors must not be NaN");
        self.bits.fetch_max(encode(score), Ordering::Relaxed);
    }
}

impl Default for SharedThreshold {
    fn default() -> Self {
        Self::new()
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
            assert_eq!(decode(encode(w[0])), w[0]);
        }
        // -0.0 and 0.0 keep their bit distinction but order consistently.
        assert!(encode(-0.0) < encode(0.0));
    }

    #[test]
    fn floor_only_rises() {
        let t = SharedThreshold::new();
        assert_eq!(t.floor(), f64::NEG_INFINITY);
        t.raise(-3.0);
        assert_eq!(t.floor(), -3.0);
        t.raise(2.0);
        assert_eq!(t.floor(), 2.0);
        t.raise(-5.0); // lower publishes are ignored
        assert_eq!(t.floor(), 2.0);
    }

    #[test]
    fn lost_is_sticky_and_leaves_the_floor_alone() {
        let t = SharedThreshold::new();
        assert_eq!(t.verdict(), Verdict::Open);
        t.raise(1.5);
        t.mark_lost();
        t.mark_lost();
        assert_eq!(t.verdict(), Verdict::Lost);
        assert_eq!(t.floor(), 1.5);
    }

    #[test]
    fn a_query_that_started_lost_stays_told_apart() {
        let t = SharedThreshold::new();
        assert_eq!(t.verdict(), Verdict::Open);
        t.start_lost();
        assert_eq!(t.verdict(), Verdict::StartedLost);
        // An execution that scans marks the handle in turn; that must not
        // turn the prediction into a sibling's verdict.
        t.mark_lost();
        assert_eq!(t.verdict(), Verdict::StartedLost);
        let u = SharedThreshold::new();
        u.mark_lost();
        assert_eq!(u.verdict(), Verdict::Lost);
    }

    #[test]
    fn shared_across_threads() {
        let t = SharedThreshold::new();
        std::thread::scope(|s| {
            for i in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for j in 0..100 {
                        t.raise((i * 100 + j) as f64);
                    }
                });
            }
        });
        assert_eq!(t.floor(), 799.0);
    }
}
