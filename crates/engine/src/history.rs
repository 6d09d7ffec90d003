//! The engine's verdict history: per query *shape*, whether its recent
//! stream-first queries ended in the scan exit — so a shape that keeps
//! losing starts its next query lost instead of paying a stream phase to
//! find that out again.
//!
//! A shape is the query's zero-weight pattern and ⌈log₂ k⌉: both change
//! which streams run and how high the k-th-score floor sits, while dims and
//! roles are fixed per engine. A shape whose last [`STREAK`] stream-first
//! queries all scanned *starts lost* ([`QueryFloor::start_lost`]):
//! every shard execution scans at its first round head. Every
//! [`RECHECK`]-th query of such a shape is an *audit* ([`Start::Audit`]):
//! every shard execution but the last starts lost and scans, then the last
//! runs stream-first against the merged k-th-score floor those scans left,
//! and only its verdict is told back ([`VerdictHistory::audited`]). A
//! scanning audit leaves the shape lost; a certifying one runs the shape's
//! next query fully stream-first, and that query's [`record`] decides as
//! any stream-first query's does. So a shape whose queries turned friendly
//! (the data changed, the query points moved) is found out within
//! [`RECHECK`] + 1 queries, at the cost of one shard's stream phase per
//! [`RECHECK`] queries while it stays lost. A one-shard engine has no
//! sibling floor to audit against: its audit is a stream-first query,
//! recorded as one.
//!
//! The audit's verdict is sound evidence. The floor the audit shard starts
//! from is the k-th best of every row its siblings scanned — their exact
//! top k — and of the delta's: no shard of a stream-first query starts from
//! a higher one, and at every round of its stream phase the audit shard's
//! floor (that, merged with its own scored rows) is at least what the same
//! shard would read in a stream-first query. So an audit that still scans
//! is at least the evidence a full re-check's any-shard-scanned verdict
//! gives. A scan is exact whenever it runs, and a certified shard's answer
//! holds every row of its part of the global top k, so the answer is the
//! exact merge either way: the history changes what a query costs, never
//! what it answers.
//!
//! The table is [`SLOTS`] words, one per shape hash bucket, each packing a
//! tag of the shape, its streak, its tick and whether its last audit
//! certified. A tag that does not match reads as no history, so two shapes
//! that share a bucket can only cost each other a stream phase, never start
//! a query lost. Every access is one `Relaxed` load or store: two queries
//! racing on a word can lose an update, which again only moves cost. It is
//! not persisted — a freshly opened or mapped engine starts with no
//! history.
//!
//! `sdq_core::multidim::plan` (the scan exit) holds what it buys and the
//! measurements behind [`STREAK`] and [`RECHECK`]. Measured when it
//! landed, `agg_6d` p50 read 0.76× and, with the audit, p95 0.81×. Re-read
//! once every shard of a query scored into one answer heap (deleted on a
//! scratch build, every query stream-first; 9 runs of 8 s each, 2-core VM)
//! it is worth more, not less: p50 377 → 248 µs (≈ 0.66×, lower on all 9
//! seeds) and p95 423 → 318 µs (≈ 0.75×).
//!
//! [`QueryFloor::start_lost`]: sdq_core::QueryFloor::start_lost
//! [`record`]: VerdictHistory::record

use std::sync::atomic::{AtomicU64, Ordering};

use sdq_core::SdQuery;

use crate::ShapeState;

/// Stream-first queries of a shape that must all have scanned before its
/// next query starts lost.
pub const STREAK: u8 = 3;

/// A shape that starts lost audits every `RECHECK`-th query: its last shard
/// runs stream-first against the others' floor.
pub const RECHECK: u8 = 16;

/// Words in one engine's table.
const SLOTS: usize = 64;

const STREAK_BITS: u32 = 0;
/// The top bit of the streak's byte: the shape's last audit certified.
const CERTIFIED_BIT: u32 = 7;
const TICK_BITS: u32 = 8;
const TAG_BITS: u32 = 16;
const _: () = assert!(STREAK < 1 << CERTIFIED_BIT);

/// How a query of an aggregated shape begins ([`VerdictHistory::begin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// Every execution runs its streams first; the query's verdict is
    /// [`VerdictHistory::record`]ed.
    Streams,
    /// Every execution scans at its first round head; nothing is recorded.
    Lost,
    /// Every execution but the last starts lost, and the last runs
    /// stream-first against the floor the others' scans left; its verdict
    /// is told back through [`VerdictHistory::audited`].
    Audit,
}

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
        // ⌈log₂ k⌉, defined for every `k` (`next_power_of_two` overflows
        // past `usize::MAX / 2 + 1`).
        let k_bucket = u64::from(usize::BITS - k.saturating_sub(1).leading_zeros());
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
    /// The shape's last audit certified: its next query runs stream-first.
    certified: bool,
}

impl Entry {
    fn unpack(word: u64) -> Entry {
        Entry {
            tag: word >> TAG_BITS,
            streak: (word >> STREAK_BITS) as u8 & !(1 << CERTIFIED_BIT),
            tick: (word >> TICK_BITS) as u8,
            certified: word >> CERTIFIED_BIT & 1 == 1,
        }
    }

    fn pack(self) -> u64 {
        self.tag << TAG_BITS
            | u64::from(self.tick) << TICK_BITS
            | u64::from(self.certified) << CERTIFIED_BIT
            | u64::from(self.streak) << STREAK_BITS
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
    /// how the query starts. Counts the query's tick, so the `RECHECK`-th
    /// query of a lost shape is an audit, and takes back the certified mark
    /// of the audit before it, so exactly one query runs stream-first on it.
    pub(crate) fn begin(&self, shape: Shape) -> Start {
        let Some(mut entry) = self.entry(shape) else {
            return Start::Streams;
        };
        entry.tick = (entry.tick + 1) % RECHECK;
        let certified = std::mem::take(&mut entry.certified);
        self.slots[shape.slot()].store(entry.pack(), Ordering::Relaxed);
        match (entry.lost(), certified, entry.tick) {
            (false, _, _) | (true, true, _) => Start::Streams,
            (true, false, 0) => Start::Audit,
            (true, false, _) => Start::Lost,
        }
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
                certified: false,
            },
            _ => return,
        };
        self.slots[shape.slot()].store(entry.pack(), Ordering::Relaxed);
    }

    /// Records how an audit of `shape` ended: `scanned` when its last shard,
    /// run stream-first, took the scan exit. A scanning audit leaves the
    /// shape lost, its streak and tick as they are; a certifying one marks
    /// the shape so its next query runs fully stream-first and is
    /// [`record`](Self::record)ed.
    pub(crate) fn audited(&self, shape: Shape, scanned: bool) {
        if scanned {
            return;
        }
        if let Some(entry) = self.entry(shape) {
            let entry = Entry {
                certified: true,
                ..entry
            };
            self.slots[shape.slot()].store(entry.pack(), Ordering::Relaxed);
        }
    }

    /// The state `shape`'s next query would meet, bar an audit; reads
    /// without counting a tick.
    pub(crate) fn state(&self, shape: Shape) -> ShapeState {
        match self.entry(shape) {
            Some(entry) if entry.certified => ShapeState::AuditCertified,
            Some(entry) if entry.lost() => ShapeState::StartsLost,
            _ => ShapeState::StreamsFirst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(weights: &[f64]) -> SdQuery {
        SdQuery::new(vec![0.5; weights.len()], weights.to_vec()).unwrap()
    }

    /// Runs one query of `shape` through the table the way the engine does
    /// at more than one shard: how it started; a stream-first query's
    /// outcome `scanned` is recorded, an audit's is told back as the audit
    /// shard's.
    fn serve(h: &VerdictHistory, shape: Shape, scanned: bool) -> Start {
        let start = h.begin(shape);
        match start {
            Start::Streams => h.record(shape, scanned),
            Start::Audit => h.audited(shape, scanned),
            Start::Lost => {}
        }
        start
    }

    fn starts_lost(h: &VerdictHistory, shape: Shape) -> bool {
        h.state(shape) == ShapeState::StartsLost
    }

    /// Serves scanning queries of a lost `shape` up to and including its
    /// next audit, which ends `audit_scanned`.
    fn serve_to_audit(h: &VerdictHistory, shape: Shape, audit_scanned: bool) {
        while h.entry(shape).unwrap().tick != RECHECK - 1 {
            assert_eq!(serve(h, shape, true), Start::Lost);
        }
        assert_eq!(serve(h, shape, audit_scanned), Start::Audit);
    }

    #[test]
    fn a_streak_of_scans_starts_the_next_query_lost() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for i in 0..STREAK {
            assert_eq!(serve(&h, s, true), Start::Streams, "query {i}");
        }
        assert!(starts_lost(&h, s));
        assert_eq!(serve(&h, s, true), Start::Lost);
    }

    #[test]
    fn a_certified_query_resets_the_streak() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 1..STREAK {
            serve(&h, s, true);
        }
        assert_eq!(serve(&h, s, false), Start::Streams, "certified");
        for i in 0..STREAK {
            assert_eq!(
                serve(&h, s, true),
                Start::Streams,
                "query {i} after the reset"
            );
        }
        assert_eq!(serve(&h, s, true), Start::Lost);
        // A stream-first query that certifies ends the lost state.
        h.record(s, false);
        assert_eq!(h.state(s), ShapeState::StreamsFirst);
        assert_eq!(serve(&h, s, true), Start::Streams);
    }

    #[test]
    fn exactly_every_recheck_th_query_runs_stream_first() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 1.0]), 8);
        // The slot is taken by the first query (tick 1), so of the first
        // 3 × RECHECK queries the first STREAK run stream-first, every
        // multiple of RECHECK is an audit — whose last shard runs
        // stream-first — and every other one starts lost.
        let r = RECHECK as usize;
        let starts: Vec<Start> = (0..3 * r).map(|_| serve(&h, s, true)).collect();
        let at = |want: Start| -> Vec<usize> {
            (1..)
                .zip(&starts)
                .filter(|(_, &st)| st == want)
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(at(Start::Streams), [1, 2, 3]);
        assert_eq!(at(Start::Audit), [r, 2 * r, 3 * r]);
        assert_eq!(at(Start::Lost).len(), 3 * r - 6);
    }

    #[test]
    fn a_scanning_audit_leaves_streak_and_tick() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 0..STREAK {
            serve(&h, s, true);
        }
        while h.entry(s).unwrap().tick != RECHECK - 1 {
            serve(&h, s, true);
        }
        assert_eq!(h.begin(s), Start::Audit);
        let before = h.entry(s);
        h.audited(s, true);
        assert_eq!(h.entry(s), before, "the audit scanned: nothing moves");
        assert_eq!(h.state(s), ShapeState::StartsLost);
        // Still lost, and the next audit is RECHECK queries on.
        for _ in 1..RECHECK {
            assert_eq!(serve(&h, s, true), Start::Lost);
        }
        assert_eq!(serve(&h, s, true), Start::Audit);
    }

    #[test]
    fn a_certifying_audit_runs_exactly_the_next_query_stream_first() {
        let h = VerdictHistory::default();
        let s = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 0..STREAK {
            serve(&h, s, true);
        }
        serve_to_audit(&h, s, false);
        assert_eq!(h.state(s), ShapeState::AuditCertified);
        // The next query runs stream-first; it scans, so its record keeps
        // the shape lost and the query after it starts lost again.
        assert_eq!(serve(&h, s, true), Start::Streams);
        assert!(starts_lost(&h, s));
        assert_eq!(serve(&h, s, true), Start::Lost);
        // The next audit certifies too, and this time the stream-first
        // query after it certifies: the streak resets.
        serve_to_audit(&h, s, false);
        assert_eq!(serve(&h, s, false), Start::Streams);
        assert_eq!(h.state(s), ShapeState::StreamsFirst);
        for i in 0..STREAK {
            assert_eq!(
                serve(&h, s, true),
                Start::Streams,
                "query {i} after the reset"
            );
        }
        assert_eq!(serve(&h, s, true), Start::Lost);
    }

    #[test]
    fn zero_patterns_and_k_buckets_are_separate_shapes() {
        let h = VerdictHistory::default();
        let base = Shape::of(&query(&[1.0, 0.5, 0.2]), 64);
        for _ in 0..STREAK {
            serve(&h, base, true);
        }
        assert!(starts_lost(&h, base));
        // Any non-zero weights and any k in the same power-of-two bucket
        // share the shape …
        assert_eq!(Shape::of(&query(&[3.0, 0.1, 9.0]), 33), base);
        // Every k has a bucket, the absurd ones too: all past 2⁶³ share one.
        assert_eq!(
            Shape::of(&query(&[1.0, 0.5, 0.2]), usize::MAX),
            Shape::of(&query(&[1.0, 0.5, 0.2]), (1 << 63) + 1)
        );
        // … a zero weight or another bucket does not.
        for other in [
            Shape::of(&query(&[1.0, 0.0, 0.2]), 64),
            Shape::of(&query(&[0.0, 0.5, 0.2]), 64),
            Shape::of(&query(&[1.0, 0.5, 0.2]), 65),
            Shape::of(&query(&[1.0, 0.5, 0.2]), 32),
        ] {
            assert_ne!(other, base);
            assert!(!starts_lost(&h, other));
            assert_eq!(serve(&h, other, true), Start::Streams);
        }
        assert!(starts_lost(&h, base), "other shapes left it alone");
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
        assert!(starts_lost(&h, a));
        // b reads a's slot as no history, and a certifying b (or a
        // certifying audit it never had) leaves it alone.
        assert!(!starts_lost(&h, b));
        assert_eq!(serve(&h, b, false), Start::Streams);
        h.audited(b, false);
        assert!(starts_lost(&h, a));
        // A scanning b takes the slot: a has no history then, so it too
        // runs stream-first, and never inherits b's streak.
        assert_eq!(serve(&h, b, true), Start::Streams);
        assert!(!starts_lost(&h, a));
        for _ in 1..STREAK {
            serve(&h, b, true);
        }
        assert!(starts_lost(&h, b));
        assert!(!starts_lost(&h, a), "a never reads b's streak");
        assert_eq!(serve(&h, a, true), Start::Streams);
    }
}
