//! The engine's verdict history: per query *shape*, whether its recent
//! stream-first queries ended in the scan exit — so a shape that keeps
//! losing starts its next query lost instead of paying a stream phase to
//! find that out again.
//!
//! A shape is the query's zero-weight pattern and ⌈log₂ k⌉: both change
//! which streams run and how high the k-th-score floor sits, while dims and
//! roles are fixed per engine. A shape whose last [`STREAK`] stream-first
//! queries all scanned *starts lost* ([`SharedThreshold::start_lost`]):
//! every shard execution scans at its first round head. Every
//! [`RECHECK`]-th query of such a shape still runs stream-first, so a shape
//! whose queries turned friendly (the data changed, the query points moved)
//! is found out within [`RECHECK`] queries. A scan is exact whenever it runs,
//! so the history changes what a query costs, never what it answers.
//!
//! The table is [`SLOTS`] words, one per shape hash bucket, each packing a
//! tag of the shape, its streak and its tick. A tag that does not match
//! reads as no history, so two shapes that share a bucket can only cost each
//! other a stream phase, never start a query lost. Every access is one
//! `Relaxed` load or store: two queries racing on a word can lose an update,
//! which again only moves cost. It is not persisted — a freshly opened or
//! mapped engine starts with no history.
//!
//! `sdq_core::multidim::plan` (the scan exit) holds what it buys — `agg_6d`
//! p50 0.76× — and the measurements behind [`STREAK`] and [`RECHECK`].
//!
//! [`SharedThreshold::start_lost`]: sdq_core::SharedThreshold::start_lost

use std::sync::atomic::{AtomicU64, Ordering};

use sdq_core::SdQuery;

/// Stream-first queries of a shape that must all have scanned before its
/// next query starts lost.
pub const STREAK: u8 = 3;

/// A shape that starts lost runs every `RECHECK`-th query stream-first.
pub const RECHECK: u8 = 16;

/// Words in one engine's table.
const SLOTS: usize = 64;

const STREAK_BITS: u32 = 0;
const TICK_BITS: u32 = 8;
const TAG_BITS: u32 = 16;

/// A query's shape, hashed: the low bits pick the slot, the high 48 are the
/// tag stored in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape(u64);

impl Shape {
    /// The shape of `query` at `k` (`k ≥ 1`).
    pub(crate) fn of(query: &SdQuery, k: usize) -> Shape {
        // Exact for up to 64 dimensions; wider patterns fold, and a fold
        // collision is a tag collision like any other.
        let zeros = query
            .weights
            .iter()
            .fold(0u64, |z, &w| z.rotate_left(1) | u64::from(w == 0.0));
        let k_bucket = u64::from(k.next_power_of_two().trailing_zeros());
        Shape(mix(mix(zeros) ^ k_bucket))
    }

    fn slot(self) -> usize {
        self.0 as usize % SLOTS
    }

    fn tag(self) -> u64 {
        self.0 >> TAG_BITS
    }
}

/// The splitmix64 finaliser: every input bit moves every output bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One slot's word, unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u64,
    /// Consecutive stream-first queries that scanned, saturating at
    /// [`STREAK`].
    streak: u8,
    /// Queries of the shape since it took the slot, modulo [`RECHECK`].
    tick: u8,
}

impl Entry {
    fn unpack(word: u64) -> Entry {
        Entry {
            tag: word >> TAG_BITS,
            streak: (word >> STREAK_BITS) as u8,
            tick: (word >> TICK_BITS) as u8,
        }
    }

    fn pack(self) -> u64 {
        self.tag << TAG_BITS | u64::from(self.tick) << TICK_BITS | u64::from(self.streak)
    }

    fn lost(self) -> bool {
        self.streak >= STREAK
    }
}

/// One engine's verdict history, shared by its clones.
#[derive(Debug)]
pub(crate) struct VerdictHistory {
    slots: [AtomicU64; SLOTS],
}

impl Default for VerdictHistory {
    fn default() -> Self {
        VerdictHistory {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl VerdictHistory {
    /// The entry of `shape`, if its slot holds it.
    fn entry(&self, shape: Shape) -> Option<Entry> {
        let entry = Entry::unpack(self.slots[shape.slot()].load(Ordering::Relaxed));
        (entry.tag == shape.tag()).then_some(entry)
    }

    /// Consulted once per aggregated query, before its executions begin:
    /// `true` when the query should start lost. Counts the query's tick, so
    /// the `RECHECK`-th query of a lost shape answers `false`.
    pub(crate) fn begin(&self, shape: Shape) -> bool {
        let Some(mut entry) = self.entry(shape) else {
            return false;
        };
        entry.tick = (entry.tick + 1) % RECHECK;
        self.slots[shape.slot()].store(entry.pack(), Ordering::Relaxed);
        entry.lost() && entry.tick != 0
    }

    /// Records how a query of `shape` that ran stream-first ended: `scanned`
    /// when any of its executions took the scan exit. A scan lengthens the
    /// streak (and takes the slot from another shape); a query that
    /// certified everywhere resets it. A shape that never scans never takes
    /// a slot, so friendly queries write nothing.
    pub(crate) fn record(&self, shape: Shape, scanned: bool) {
        let held = self.entry(shape);
        let entry = match (held, scanned) {
            (Some(entry), true) => Entry {
                streak: (entry.streak + 1).min(STREAK),
                ..entry
            },
            (Some(entry), false) if entry.streak > 0 => Entry { streak: 0, ..entry },
            (None, true) => Entry {
                tag: shape.tag(),
                streak: 1,
                tick: 1,
            },
            _ => return,
        };
        self.slots[shape.slot()].store(entry.pack(), Ordering::Relaxed);
    }

    /// Whether `shape`'s next query would start lost, bar a re-check; reads
    /// without counting a tick.
    pub(crate) fn starts_lost(&self, shape: Shape) -> bool {
        self.entry(shape).is_some_and(Entry::lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(weights: &[f64]) -> SdQuery {
        SdQuery::new(vec![0.5; weights.len()], weights.to_vec()).unwrap()
    }

    /// Runs one query of `shape` through the table the way the engine does:
    /// `true` when it started lost; otherwise it ran stream-first, and its
    /// outcome `scanned` is recorded.
    fn serve(h: &VerdictHistory, shape: Shape, scanned: bool) -> bool {
        let lost = h.begin(shape);
        if !lost {
            h.record(shape, scanned);
        }
        lost
    }

    #[test]
    fn a_streak_of_scans_starts_the_next_query_lost() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for i in 0..STREAK {
            assert!(!serve(&h, s, true), "query {i} ran stream-first");
        }
        assert!(h.starts_lost(s));
        assert!(serve(&h, s, true));
    }

    #[test]
    fn a_certified_query_resets_the_streak() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 1..STREAK {
            serve(&h, s, true);
        }
        assert!(!serve(&h, s, false), "certified");
        for i in 0..STREAK {
            assert!(!serve(&h, s, true), "query {i} after the reset");
        }
        assert!(serve(&h, s, true));
        // A re-check that certifies ends the lost state.
        while serve(&h, s, true) {}
        h.record(s, false);
        assert!(!h.starts_lost(s));
        assert!(!serve(&h, s, true));
    }

    #[test]
    fn exactly_every_recheck_th_query_runs_stream_first() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 1.0]), 8);
        // The slot is taken by the first query (tick 1), so of the first
        // 3 × RECHECK queries exactly the first STREAK and every multiple of
        // RECHECK run stream-first.
        let first: Vec<usize> = (1..=3 * RECHECK as usize)
            .filter(|_| !serve(&h, s, true))
            .collect();
        let r = RECHECK as usize;
        assert_eq!(first, [1, 2, 3, r, 2 * r, 3 * r]);
    }

    #[test]
    fn zero_patterns_and_k_buckets_are_separate_shapes() {
        let h = VerdictHistory::default();
        let base = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 0..STREAK {
            serve(&h, base, true);
        }
        assert!(h.starts_lost(base));
        // Any non-zero weights and any k in the same power-of-two bucket
        // share the shape …
        assert_eq!(Shape::of(&query(&[3.0, 0.1, 9.0]), 33), base);
        // … a zero weight or another bucket does not.
        for other in [
            Shape::of(&query(&[1.0, 0.0, 0.2]), 64),
            Shape::of(&query(&[0.0, 0.5, 0.2]), 64),
            Shape::of(&query(&[1.0, 0.5, 0.2]), 65),
            Shape::of(&query(&[1.0, 0.5, 0.2]), 32),
        ] {
            assert_ne!(other, base);
            assert!(!h.starts_lost(other));
            assert!(!serve(&h, other, true));
        }
        assert!(h.starts_lost(base), "other shapes left it alone");
    }

    #[test]
    fn a_tag_collision_never_starts_a_query_lost() {
        let h = VerdictHistory::default();
        let a = Shape(5);
        let b = Shape(5 + 7 * SLOTS as u64 * (1 << TAG_BITS));
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a.tag(), b.tag());
        for _ in 0..STREAK {
            serve(&h, a, true);
        }
        assert!(h.starts_lost(a));
        // b reads a's slot as no history, and a certifying b leaves it alone.
        assert!(!h.starts_lost(b));
        assert!(!serve(&h, b, false));
        assert!(h.starts_lost(a));
        // A scanning b takes the slot: a has no history then, so it too
        // runs stream-first, and never inherits b's streak.
        assert!(!serve(&h, b, true));
        assert!(!h.starts_lost(a));
        for _ in 1..STREAK {
            serve(&h, b, true);
        }
        assert!(h.starts_lost(b));
        assert!(!h.starts_lost(a), "a never reads b's streak");
        assert!(!serve(&h, a, true));
    }
}
