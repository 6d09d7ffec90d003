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
//! spending its own stream phase to reach the same verdict. It is a cost
//! hint as well — a scan is exact whenever it runs — so it is `Relaxed` too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
    lost: AtomicBool,
}

impl SharedThreshold {
    /// A fresh threshold with floor `-∞` (prunes nothing), not lost.
    pub fn new() -> Self {
        SharedThreshold {
            bits: AtomicU64::new(encode(f64::NEG_INFINITY)),
            lost: AtomicBool::new(false),
        }
    }

    /// Records that an execution of this query took the scan exit: its
    /// streams could not certify inside its fetch budget. The shards of one
    /// engine partition one dataset, so the verdict stands for them all.
    #[inline]
    pub fn mark_lost(&self) {
        self.lost.store(true, Ordering::Relaxed);
    }

    /// `true` once any execution has called [`SharedThreshold::mark_lost`].
    #[inline]
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
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
        assert!(!t.is_lost());
        t.raise(1.5);
        t.mark_lost();
        t.mark_lost();
        assert!(t.is_lost());
        assert_eq!(t.floor(), 1.5);
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
