//! Engine-wide telemetry: lock-free latency histograms, a bounded
//! structured event journal, and the process-level registry that ties them
//! together.
//!
//! Everything here is **always on** and designed to disappear on the hot
//! path: recording a latency is one relaxed `fetch_add` into a fixed
//! 64-bucket histogram (plus a count/sum/max update), and the journal is
//! written once per *lifecycle* event (compaction, checkpoint, WAL
//! rotation, …), never per query. The only per-query cost beyond the
//! histogram is a threshold compare for the slow-query log.
//!
//! ## Bucket scheme
//!
//! [`LatencyHisto`] covers nanosecond durations with two sub-buckets per
//! power-of-two octave: octave `o` (values in `[2^o, 2^(o+1))`) splits at
//! `1.5·2^o`. Bucket 0 absorbs everything below 48 ns, bucket 63 is
//! unbounded (`+Inf` in the Prometheus rendering); in between the buckets
//! run 48 ns, 64 ns, 96 ns, 128 ns … up to ~103 s, so every percentile is
//! read with ≤ 33% relative quantization error while the whole histogram
//! is 64 relaxed `AtomicU64`s.
//!
//! ## Journal
//!
//! [`EventJournal`] is a bounded multi-producer ring of [`EventRecord`]s,
//! one `Mutex` per slot: a writer copies its `Copy` record in under the
//! slot's lock and a reader copies it out under the same lock, so a
//! drained snapshot never contains a torn record. Lifecycle events are
//! rare, so the locks are uncontended. Once the ring laps, the oldest
//! records are overwritten — [`EventJournal::overwritten`] says how many.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::profile::QueryProfile;

/// Number of buckets in a [`LatencyHisto`].
pub const HISTO_BUCKETS: usize = 64;

/// Lowest octave tracked: values below `2^MIN_OCTAVE` ns land in bucket 0.
const MIN_OCTAVE: u32 = 5; // 32 ns

/// A lock-free, fixed-footprint log-scale latency histogram.
///
/// Recording is wait-free: one relaxed `fetch_add` into the value's
/// bucket plus count/sum/max updates. Snapshots are plain arrays that
/// merge associatively across histograms (and across scrapes), and
/// percentile extraction interpolates inside the winning bucket — with
/// the true maximum tracked exactly via `fetch_max`.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use sdq_core::telemetry::LatencyHisto;
///
/// let histo = LatencyHisto::new();
/// // Ten fast queries and one straggler.
/// for _ in 0..10 {
///     histo.record(Duration::from_micros(100));
/// }
/// histo.record(Duration::from_millis(50));
///
/// let snap = histo.snapshot();
/// assert_eq!(snap.count(), 11);
/// // p50 sits in the 100 µs bucket (≤ 33% quantization)…
/// assert!((64_000.0..=128_000.0).contains(&snap.p50()));
/// // …while the max is exact.
/// assert_eq!(snap.max_nanos(), 50_000_000);
/// assert!(snap.p999() <= 50_000_000.0);
/// ```
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index a duration of `nanos` falls into.
fn bucket_index(nanos: u64) -> usize {
    if nanos < (1 << MIN_OCTAVE) {
        return 0;
    }
    let octave = 63 - nanos.leading_zeros(); // ≥ MIN_OCTAVE
    let sub = ((nanos >> (octave - 1)) & 1) as usize;
    let idx = 2 * (octave - MIN_OCTAVE) as usize + sub;
    idx.min(HISTO_BUCKETS - 1)
}

/// Inclusive-exclusive nanosecond bounds `[lo, hi)` of bucket `index`
/// (bucket 0 starts at 0; the last bucket's `hi` is `u64::MAX`).
pub fn bucket_bounds_nanos(index: usize) -> (u64, u64) {
    debug_assert!(index < HISTO_BUCKETS);
    let lo = if index == 0 {
        0
    } else {
        let (o, sub) = (MIN_OCTAVE + index as u32 / 2, index as u32 % 2);
        if sub == 0 {
            1u64 << o
        } else {
            3u64 << (o - 1)
        }
    };
    let hi = if index == HISTO_BUCKETS - 1 {
        u64::MAX
    } else {
        bucket_bounds_nanos(index + 1).0
    };
    (lo, hi)
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHisto {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration (wait-free, relaxed atomics only).
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording skews individual
    /// counters by at most the in-flight events; percentile extraction
    /// totals the copied buckets themselves, so it is always internally
    /// consistent (never a torn rank).
    pub fn snapshot(&self) -> HistoSnapshot {
        let mut buckets = [0u64; HISTO_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistoSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A plain, mergeable copy of a [`LatencyHisto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Per-bucket event counts; see [`bucket_bounds_nanos`].
    pub buckets: [u64; HISTO_BUCKETS],
    /// Total events recorded (may lag the bucket sum under concurrency).
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_nanos: u64,
    /// Exact maximum recorded duration, in nanoseconds.
    pub max_nanos: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl HistoSnapshot {
    /// Total events, read from the copied buckets (internally consistent).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded durations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Exact maximum recorded duration in nanoseconds (0 when empty).
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean in nanoseconds (0.0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / n as f64
        }
    }

    /// Folds another snapshot in (bucket-wise addition; max of maxes).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds, linearly
    /// interpolated inside the winning bucket and clamped to the exact
    /// max. Returns 0.0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum;
            cum += n;
            if (cum as f64) >= rank {
                let (lo, hi) = bucket_bounds_nanos(i);
                // The open-ended last bucket interpolates toward the
                // exact max instead of +Inf.
                let hi = if hi == u64::MAX {
                    self.max_nanos.max(lo)
                } else {
                    hi
                };
                let frac = (rank - prev as f64) / n as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.min(self.max_nanos as f64);
            }
        }
        self.max_nanos as f64
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency in nanoseconds.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in nanoseconds.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

// ---------------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------------

/// Slots in an [`EventJournal`] (a power of two; the ring overwrites its
/// oldest records once more than this many events have been pushed).
pub const JOURNAL_CAPACITY: usize = 1024;

/// A structured lifecycle event, stamped into the journal.
//
// The slow-query variant carries a whole `QueryProfile`; the journal is a
// ring of `Copy` records written without allocating, so it cannot be boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A compaction with work to do began at this engine epoch.
    CompactionStart {
        /// Engine epoch before the compaction.
        epoch: u64,
    },
    /// A compaction finished; the fields mirror `CompactionReport`.
    CompactionFinish {
        /// Engine epoch after the compaction.
        epoch: u64,
        /// Shards rebuilt this epoch.
        rebuilt_shards: u64,
        /// Live delta rows folded into the indexed shards.
        merged_delta_rows: u64,
        /// Tombstones physically dropped.
        dropped_tombstones: u64,
        /// Rows physically rewritten into rebuilt shards.
        rows_moved: u64,
        /// Wall time of the compaction, in microseconds.
        duration_micros: u64,
        /// Whether the shard layout was repartitioned evenly.
        rebalanced: bool,
    },
    /// The engine epoch advanced (one per effective compaction).
    EpochTransition {
        /// Epoch before.
        from: u64,
        /// Epoch after.
        to: u64,
    },
    /// A durable checkpoint folded the WAL into a new snapshot.
    Checkpoint {
        /// The new checkpoint generation.
        generation: u64,
        /// Engine epoch captured by the snapshot.
        epoch: u64,
    },
    /// A fresh WAL was started (checkpoint rotation or stale-log reset).
    WalRotation {
        /// The generation the new log carries.
        generation: u64,
    },
    /// The durable engine poisoned itself: on-disk state may disagree
    /// with memory until a checkpoint or reopen.
    WalPoison {
        /// Why (a static description of the failed step).
        reason: &'static str,
    },
    /// Recovery replayed a WAL into a reopened engine.
    WalRecovery {
        /// Records replayed.
        replayed: u64,
        /// Torn-tail bytes truncated.
        truncated_bytes: u64,
    },
    /// A lazily-checksummed snapshot region was verified on first touch.
    LazyVerify {
        /// Region length in bytes.
        bytes: u64,
        /// Whether the CRC-32C matched.
        ok: bool,
        /// The expected CRC-32C.
        crc: u32,
    },
    /// The delta region crossed a fraction-of-base-rows threshold.
    DeltaThreshold {
        /// Delta rows at the crossing.
        delta_rows: u64,
        /// Indexed base rows.
        base_rows: u64,
        /// The threshold crossed, in percent of base rows.
        percent: u8,
    },
    /// Tombstones crossed a fraction-of-total-rows threshold.
    TombstoneThreshold {
        /// Tombstoned rows at the crossing.
        tombstones: u64,
        /// Addressable rows (base + delta).
        total_rows: u64,
        /// The threshold crossed, in percent of total rows.
        percent: u8,
    },
    /// The durable engine's health state machine transitioned (healthy ↔
    /// degraded ↔ poisoned). The detailed reason lives on the engine's
    /// health state; the journal records the edge.
    HealthTransition {
        /// Health label before ("healthy", "degraded", "poisoned").
        from: &'static str,
        /// Health label after.
        to: &'static str,
    },
    /// A query exceeded the configured slow-query threshold; its full
    /// profile funnel rides along.
    SlowQuery {
        /// Wall time of the query, in microseconds.
        wall_micros: u64,
        /// The query's `k`.
        k: u64,
        /// The threshold it tripped, in microseconds.
        threshold_micros: u64,
        /// The complete execution profile of the slow query.
        profile: QueryProfile,
    },
}

impl EventKind {
    /// Stable kebab-case label for CLI/JSON rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::CompactionStart { .. } => "compaction-start",
            EventKind::CompactionFinish { .. } => "compaction-finish",
            EventKind::EpochTransition { .. } => "epoch-transition",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::WalRotation { .. } => "wal-rotation",
            EventKind::WalPoison { .. } => "wal-poison",
            EventKind::WalRecovery { .. } => "wal-recovery",
            EventKind::LazyVerify { .. } => "lazy-verify",
            EventKind::DeltaThreshold { .. } => "delta-threshold",
            EventKind::TombstoneThreshold { .. } => "tombstone-threshold",
            EventKind::HealthTransition { .. } => "health-transition",
            EventKind::SlowQuery { .. } => "slow-query",
        }
    }
}

/// One journal entry: a monotonic sequence number, a coarse wall-clock
/// stamp, and the structured event itself.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord {
    /// Journal-wide monotonic sequence (0-based, never reused).
    pub seq: u64,
    /// Coarse wall-clock stamp: microseconds since the Unix epoch.
    pub unix_micros: u64,
    /// The event.
    pub kind: EventKind,
}

/// A bounded multi-producer ring of structured lifecycle events.
///
/// A sequence number picks the slot; the slot's lock orders the writers
/// and readers of that slot only, so writers to disjoint slots never meet.
/// [`EventJournal::snapshot`] copies each record out under its slot's
/// lock, so every returned record is whole.
pub struct EventJournal {
    /// `None` until the slot's first record.
    slots: Box<[Mutex<Option<EventRecord>>]>,
    next: AtomicU64,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.next.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventJournal {
    /// An empty journal of [`JOURNAL_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(JOURNAL_CAPACITY)
    }

    /// An empty journal with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        EventJournal {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// The slot `seq` lands in, locked. A record is `Copy` and written in
    /// one assignment, so a panic elsewhere cannot leave it half-written:
    /// a poisoned lock is taken as is.
    ///
    /// Spins on `try_lock` rather than blocking in `lock`: two pushes meet
    /// on a slot only when the ring laps mid-push, and a reader holds a
    /// slot for one copy. It also keeps every lock operation in code
    /// compiled with this crate, so ThreadSanitizer — which cannot see
    /// inside a standard library built without it, where `lock`'s blocking
    /// path lives — sees each acquire and release.
    fn slot(&self, seq: u64) -> MutexGuard<'_, Option<EventRecord>> {
        let slot = &self.slots[(seq & (self.slots.len() as u64 - 1)) as usize];
        loop {
            match slot.try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => std::thread::yield_now(),
            }
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (the next sequence number).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Events the ring has overwritten (or dropped in a lap race): every
    /// sequence below `pushed() − capacity()` is gone for good.
    pub fn overwritten(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Events currently retained (the journal depth).
    pub fn depth(&self) -> u64 {
        self.pushed().min(self.slots.len() as u64)
    }

    /// Stamps and publishes one event. Lifecycle events are rare, so the
    /// coarse wall-clock read here is off every hot path.
    pub fn push(&self, kind: EventKind) {
        let seq = self.next.fetch_add(1, Ordering::AcqRel);
        let record = EventRecord {
            seq,
            unix_micros: unix_micros_now(),
            kind,
        };
        let mut slot = self.slot(seq);
        // A newer record already published here (we were lapped mid-flight)
        // wins; ours is dropped and accounted as overwritten.
        if slot.is_none_or(|held| held.seq < seq) {
            *slot = Some(record);
        }
    }

    /// Copies out every retained record, ascending by sequence. A sequence
    /// whose writer has not stored it yet, or whose slot a later lap has
    /// already taken, is skipped — the latter counts as overwritten.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        let head = self.pushed();
        let start = head.saturating_sub(self.slots.len() as u64);
        (start..head)
            .filter_map(|seq| (*self.slot(seq)).filter(|rec| rec.seq == seq))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The telemetry registry: one latency histogram per instrumented
/// operation family, the event journal, and the slow-query threshold.
///
/// Engines default to the process-global registry
/// ([`Telemetry::global`]), so one scrape sees every engine in the
/// process; tests needing isolation inject their own via
/// `Arc<Telemetry>`.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// End-to-end `query_with` latency (every served query).
    pub query: LatencyHisto,
    /// Per-row insert/delete latency (WAL excluded; see `wal_append`).
    pub mutation: LatencyHisto,
    /// WAL record append (write syscall, fsync excluded).
    pub wal_append: LatencyHisto,
    /// WAL fsync latency (per-record or group-commit flushes).
    pub wal_fsync: LatencyHisto,
    /// Durable checkpoint latency (snapshot write + WAL rotation).
    pub checkpoint: LatencyHisto,
    /// Compaction latency (no-op compactions included).
    pub compaction: LatencyHisto,
    /// Lazy CRC-32C region verification latency (first touch only).
    pub verify: LatencyHisto,
    /// The structured lifecycle event journal.
    pub journal: EventJournal,
    /// Slow-query threshold in nanoseconds; 0 disables the slow-query log.
    slow_query_nanos: AtomicU64,
}

impl Telemetry {
    /// A fresh, isolated registry (tests; production code normally shares
    /// [`Telemetry::global`]).
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry::default())
    }

    /// The process-global registry every engine records into by default.
    pub fn global() -> &'static Arc<Telemetry> {
        static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Sets the slow-query threshold (microseconds; 0 disables). Queries
    /// at or above it journal their full profile as
    /// [`EventKind::SlowQuery`].
    pub fn set_slow_query_micros(&self, micros: u64) {
        self.slow_query_nanos
            .store(micros.saturating_mul(1000), Ordering::Relaxed);
    }

    /// The current slow-query threshold in nanoseconds (0 = disabled).
    pub fn slow_query_nanos(&self) -> u64 {
        self.slow_query_nanos.load(Ordering::Relaxed)
    }

    /// Every histogram with its stable metric name, for renderers.
    pub fn histograms(&self) -> [(&'static str, &LatencyHisto); 7] {
        [
            ("query", &self.query),
            ("mutation", &self.mutation),
            ("wal_append", &self.wal_append),
            ("wal_fsync", &self.wal_fsync),
            ("checkpoint", &self.checkpoint),
            ("compaction", &self.compaction),
            ("verify", &self.verify),
        ]
    }
}

/// Coarse wall-clock: microseconds since the Unix epoch.
fn unix_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_maps_half_octaves() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 0);
        assert_eq!(bucket_index(32), 0); // [32, 48)
        assert_eq!(bucket_index(47), 0);
        assert_eq!(bucket_index(48), 1); // [48, 64)
        assert_eq!(bucket_index(64), 2);
        assert_eq!(bucket_index(95), 2);
        assert_eq!(bucket_index(96), 3);
        assert_eq!(bucket_index(u64::MAX), HISTO_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_match_index() {
        let mut prev_hi = 0;
        for i in 0..HISTO_BUCKETS {
            let (lo, hi) = bucket_bounds_nanos(i);
            if i > 0 {
                assert_eq!(lo, prev_hi, "bucket {i}");
                assert_eq!(bucket_index(lo), i, "bucket {i} lo");
                assert_eq!(
                    bucket_index(hi - 1),
                    i.min(HISTO_BUCKETS - 1),
                    "bucket {i} hi-1"
                );
            }
            assert!(hi > lo, "bucket {i}");
            prev_hi = hi;
        }
        assert_eq!(prev_hi, u64::MAX);
    }

    #[test]
    fn percentiles_interpolate_and_clamp_to_max() {
        let h = LatencyHisto::new();
        for _ in 0..99 {
            h.record_nanos(1_000);
        }
        h.record_nanos(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max_nanos(), 1_000_000);
        let (lo, hi) = bucket_bounds_nanos(bucket_index(1_000));
        assert!(s.p50() >= lo as f64 && s.p50() < hi as f64);
        assert!(s.p90() < hi as f64);
        // The straggler owns the top percentile and clamps to the max.
        assert!(s.p999() > 500_000.0);
        assert!(s.p999() <= 1_000_000.0);
        assert!((s.mean_nanos() - (99.0 * 1_000.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_merge_associatively() {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        for i in 0..50 {
            a.record_nanos(100 + i);
            b.record_nanos(10_000 + i);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 100);
        assert_eq!(m.max_nanos(), 10_049);
        assert_eq!(
            m.sum_nanos(),
            a.snapshot().sum_nanos() + b.snapshot().sum_nanos()
        );
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = LatencyHisto::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p999(), 0.0);
        assert_eq!(s.mean_nanos(), 0.0);
    }

    #[test]
    fn journal_round_trips_in_order() {
        let j = EventJournal::with_capacity(8);
        for i in 0..5u64 {
            j.push(EventKind::EpochTransition { from: i, to: i + 1 });
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 5);
        assert_eq!(j.depth(), 5);
        assert_eq!(j.overwritten(), 0);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            match e.kind {
                EventKind::EpochTransition { from, to } => {
                    assert_eq!(from, i as u64);
                    assert_eq!(to, i as u64 + 1);
                }
                ref k => panic!("unexpected {k:?}"),
            }
        }
    }

    #[test]
    fn journal_overwrites_oldest_when_full() {
        let j = EventJournal::with_capacity(4);
        for i in 0..11u64 {
            j.push(EventKind::EpochTransition { from: i, to: i + 1 });
        }
        assert_eq!(j.pushed(), 11);
        assert_eq!(j.overwritten(), 7);
        assert_eq!(j.depth(), 4);
        let events = j.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
    }

    #[test]
    fn journal_concurrent_push_and_drain_never_tears() {
        let j = Arc::new(EventJournal::with_capacity(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        j.push(EventKind::DeltaThreshold {
                            delta_rows: w * 1_000 + i,
                            base_rows: w * 1_000 + i,
                            percent: 1,
                        });
                    }
                })
            })
            .collect();
        let reader = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                let mut last_seen = 0u64;
                for _ in 0..200 {
                    let events = j.snapshot();
                    let mut prev = None;
                    for e in &events {
                        // Whole records: the two mirrored fields agree.
                        match e.kind {
                            EventKind::DeltaThreshold {
                                delta_rows,
                                base_rows,
                                ..
                            } => assert_eq!(delta_rows, base_rows),
                            ref k => panic!("unexpected {k:?}"),
                        }
                        if let Some(p) = prev {
                            assert!(e.seq > p, "sequences ascend");
                        }
                        prev = Some(e.seq);
                        last_seen = last_seen.max(e.seq);
                    }
                }
                last_seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(j.pushed(), 2_000);
        let final_events = j.snapshot();
        assert_eq!(final_events.len(), 64);
        assert_eq!(final_events.last().unwrap().seq, 1_999);
    }

    #[test]
    fn slow_query_threshold_round_trips() {
        let t = Telemetry::new();
        assert_eq!(t.slow_query_nanos(), 0);
        t.set_slow_query_micros(250);
        assert_eq!(t.slow_query_nanos(), 250_000);
        t.set_slow_query_micros(0);
        assert_eq!(t.slow_query_nanos(), 0);
    }

    #[test]
    fn global_registry_is_one_instance() {
        let a = Arc::clone(Telemetry::global());
        let b = Arc::clone(Telemetry::global());
        assert!(Arc::ptr_eq(&a, &b));
    }
}
