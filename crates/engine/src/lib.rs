//! # sdq-engine
//!
//! The unified query-execution layer of the SD-Query workspace: one front
//! door ([`SdEngine`]) that plans, shards and merges every top-k query.
//!
//! ```text
//!                         SdEngine::query_with
//!                                 │
//!                    ┌────────────▼────────────┐
//!                    │  planner: one rule per  │   rule: indexed-angle
//!                    │  pair, on every shard   │   frontier, Claim-6 bracket,
//!                    └────────────┬────────────┘   or degenerate (weights only)
//!                                 │
//!              ┌──────────────────┼──────────────────┐
//!        ┌─────▼─────┐      ┌─────▼─────┐      ┌─────▼─────┐
//!        │  shard 0  │      │  shard 1  │  …   │ shard S−1 │  one SdIndex +
//!        │ (SdIndex) │      │ (SdIndex) │      │ (SdIndex) │  QueryScratch
//!        └─────┬─────┘      └─────┬─────┘      └─────┬─────┘  per shard
//!              │    ▲             │    ▲             │    ▲
//!              └────╂─────────────┴────╂─────────────┘    ┃
//!                   ┗━━━━━━━━ QueryFloor (the ━━━━━━━━━━━━┛
//!                        query's one k-th-score floor;
//!                        every shard and the delta scan
//!                        score into it and prune against it)
//!                                 │
//!                    ┌────────────▼────────────┐
//!                    │    exact k-way merge    │   (score desc, id asc)
//!                    └────────────┬────────────┘
//!                                 │
//!                          top-k answer
//! ```
//!
//! ## Why sharding helps
//!
//! The engine partitions the dataset into `S` contiguous shards at build
//! time, each with its own `SdIndex` (per-pair §4 indexes plus every
//! unpaired dimension's extent) over its row range, so compaction rebuilds
//! one shard, not the whole index. A query runs one §5 aggregation per
//! shard, all of them on the thread that calls it — parallelism is between
//! queries ([`SdEngine::par_query_batch`]) — and the per-shard bounds stay
//! admissible because each covers only its own rows: a shard's `τ` is its
//! pair streams' bounds plus what its unpaired dimensions can add at the
//! ends of their extents. A shard with no pair to stream scans — unless
//! the floor already beats that extent bound, and then it ends unread.
//!
//! The query's one [`QueryFloor`] is what keeps sharding from multiplying
//! work: the k-th best *exact* score found by any shard is a lower bound on
//! the final global k-th score, so every shard drops the rows below it and
//! terminates its aggregation as soon as its own admissible bound `τ` falls
//! below it. Later shards effectively only verify that they hold nothing
//! better than the current global top-k.
//!
//! ## Exactness
//!
//! Results are **bit-identical** to the unsharded [`SdIndex::query`] path —
//! including ties at the k-th score — because every execution strategy
//! emits the *canonical* answer (score descending, ties by row id
//! ascending) and per-point scores are computed by the same kernel on the
//! same coordinates. The merge compares with
//! [`rank_cmp`](sdq_core::score::rank_cmp) over globalised row ids, which
//! is a total order. Property tests in `tests/engine_equivalence.rs` pin
//! this across random datasets, roles, weights, `k` and shard counts.
//!
//! ## One driver, one walk
//!
//! Every shard aggregation runs the same way: [`SdIndex::begin_query`],
//! one 8-round [`ShardExecution::step`] per shard, then each shard still
//! open stepped to completion in shard order, [`ShardExecution::finish_into`].
//! The calling thread drives all shards, passing every step the query's one
//! [`QueryFloor`]: the best `min(k, live rows)` exact scores any step or the
//! delta scan has found. It also carries the query's scan verdict: once
//! one execution finds its streams lost and scans, its open siblings scan
//! at their next round head instead of reaching the verdict again. A query
//! that is one non-degenerate pair ([`SdIndex::single_pair`]) is not
//! aggregated at all, whatever the shard count or tombstones:
//! it is the paper's §4 walk over the pair's block sets of every shard at
//! once ([`SinglePair::walk`]), after the delta scan
//! when the engine is dirty. [`SdEngine::explain`] says `direct` on every
//! shard exactly then.
//!
//! [`SinglePair::walk`]: sdq_core::multidim::SinglePair::walk
//!
//! ## Migration
//!
//! [`SdIndex::query`] remains fully supported — over roles `[a, r]` it is
//! the 2-D index too; the engine is the recommended front door for serving —
//! it subsumes it as plan strategies and adds sharding, cross-shard pruning
//! and batch execution. `SdEngine::build_with` with `shards = 1` behaves
//! exactly like a planned `SdIndex` with engine ergonomics.
//!
//! ```
//! use sdq_core::{Dataset, DimRole, SdQuery};
//! use sdq_engine::{EngineOptions, EngineScratch, SdEngine};
//!
//! let rows: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![i as f64, (64 - i) as f64, (i * i % 17) as f64])
//!     .collect();
//! let data = Dataset::from_rows(3, &rows).unwrap();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive];
//! let engine = SdEngine::build_with(
//!     data,
//!     &roles,
//!     &EngineOptions { shards: 4, ..EngineOptions::default() },
//! )
//! .unwrap();
//!
//! let mut scratch = EngineScratch::new();
//! let query = SdQuery::uniform_weights(vec![10.0, 30.0, 5.0], &roles);
//! let top = engine.query_with(&query, 5, &mut scratch).unwrap();
//! assert_eq!(top.len(), 5);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sdq_core::mask::{MaskView, RowMask};
use sdq_core::multidim::{QueryPlan, SdIndex, SdIndexOptions, ShardExecution, ShardPart};
use sdq_core::score::rank_cmp;
use sdq_core::telemetry::{bucket_bounds_nanos, EventKind, Telemetry, HISTO_BUCKETS};
use sdq_core::{
    recycle_vec, Dataset, Deadline, DimRole, OrdF64, PointId, QueryFloor, QueryProfile,
    QueryScratch, ScoredPoint, SdError, SdQuery,
};

mod history;
pub mod mutation;

pub use history::{RECHECK, STREAK};
pub use mutation::{CompactionOptions, CompactionReport, MutationStats};

use history::{Shape, Start, VerdictHistory};

/// Tuning knobs for [`SdEngine::build_with`]. Every query runs its shards
/// on the thread that calls it; a batch spreads queries over threads
/// ([`SdEngine::par_query_batch`]).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Number of shards (`≥ 1`; capped at the row count so no shard is
    /// empty). Contiguous row ranges, balanced within one row.
    pub shards: usize,
    /// Read by nothing. It named the per-query shard worker count, and
    /// stays only because the repo benchmark, which a program change may
    /// not edit, still sets it; it goes with that benchmark's next change.
    #[deprecated(note = "a query runs on the thread that calls it; this field is ignored")]
    pub threads: usize,
    /// Per-shard [`SdIndex`] build options (pairing, angles).
    pub index: SdIndexOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        #[allow(deprecated)] // the shim's own definition
        EngineOptions {
            shards: 1,
            threads: 0,
            index: SdIndexOptions::default(),
        }
    }
}

/// Layout and footprint of one shard, as reported by
/// [`SdEngine::shard_infos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// First global row id this shard covers.
    pub offset: usize,
    /// Number of rows in the shard (dead ones included).
    pub rows: usize,
    /// Tombstoned rows inside this shard, pending compaction.
    pub dead_rows: usize,
    /// Engine epoch at which this shard was last rebuilt (`0` = initial
    /// build; see [`SdEngine::compact_with`]).
    pub epoch: u64,
    /// Approximate heap footprint of the shard's index structures.
    pub memory_bytes: usize,
}

/// Reusable execution state for one engine consumer: one [`QueryScratch`]
/// per shard, per-shard result staging, merge cursors and the engine-level
/// k-th-score tracker. Keep one per serving thread and reuse it across
/// queries — every buffer (heaps, pools, seen-sets, answer lists, the
/// driver's list of shard executions) is recycled, so a warmed query
/// touches the allocator zero times.
#[derive(Default)]
pub struct EngineScratch {
    /// One per shard: a [`ShardExecution`] owns its scratch's buffers while
    /// it is in flight, and all shards of a query are in flight at once.
    shards: Vec<QueryScratch>,
    /// The driver's execution list. Empty between queries; only the
    /// allocation is retained.
    runs: Vec<ShardExecution<'static>>,
    lists: Vec<Vec<ScoredPoint>>,
    heads: Vec<usize>,
    /// The heap the query's one [`QueryFloor`] borrows.
    floor: BinaryHeap<Reverse<OrdF64>>,
    /// Bounded top-k heap of the delta scan (mutated engines).
    delta_pool: BinaryHeap<(Reverse<OrdF64>, u32)>,
    /// Role-signed weight staging of the delta scan.
    delta_sw: Vec<f64>,
    answers: Vec<ScoredPoint>,
    /// Execution counters of the most recent query served through this
    /// scratch: the merged per-shard profiles plus the engine's own delta
    /// scan and merge statistics. Always on; set [`QueryProfile::timing`]
    /// before querying to also collect per-stage wall times. When the
    /// driver aborts on a deadline, the counters of the work its shard
    /// executions had done by then are still folded in.
    pub profile: QueryProfile,
    /// Cooperative deadline/cancel token of the next query served through
    /// this scratch, propagated to every shard execution and checked once per
    /// aggregation round and per delta chunk. Unlimited by default; a
    /// bounded deadline captures its expiry at construction, so set a
    /// fresh one per query.
    pub deadline: Deadline,
}

impl EngineScratch {
    /// Creates an empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        EngineScratch::default()
    }

    fn ensure(&mut self, lists: usize, shards: usize) {
        if self.lists.len() != lists {
            self.lists.resize_with(lists, Vec::new);
        }
        if self.shards.len() < shards {
            self.shards.resize_with(shards, QueryScratch::new);
        }
    }
}

/// Slots of the [`EngineMetrics`] per-shard floor-contribution histogram:
/// slot `i` accumulates the k-th-score-floor updates contributed by shard
/// `i`, with every shard `≥ FLOOR_HIST_SLOTS − 1` folded into the last
/// slot (so resharding never invalidates the registry). A single-pair walk
/// is one execution over every shard and credits each shard the updates its
/// own rows made.
pub const FLOOR_HIST_SLOTS: usize = 16;

#[derive(Debug, Default)]
struct MetricsInner {
    queries_served: AtomicU64,
    rows_scored: AtomicU64,
    compactions: AtomicU64,
    epoch_transitions: AtomicU64,
    floor_contributions: [AtomicU64; FLOOR_HIST_SLOTS],
    wal_records_appended: AtomicU64,
    wal_bytes_appended: AtomicU64,
    wal_syncs: AtomicU64,
    wal_records_replayed: AtomicU64,
    wal_checkpoints: AtomicU64,
    retries_attempted: AtomicU64,
    deadline_exceeded: AtomicU64,
    scrub_regions_ok: AtomicU64,
    scrub_regions_failed: AtomicU64,
    /// Health gauge, not a counter: [`HEALTH_HEALTHY`]/[`HEALTH_DEGRADED`]/
    /// [`HEALTH_POISONED`].
    health: AtomicU64,
}

/// [`EngineMetrics::set_health`] gauge code: fully serving.
pub const HEALTH_HEALTHY: u64 = 0;
/// [`EngineMetrics::set_health`] gauge code: read-only until recovery.
pub const HEALTH_DEGRADED: u64 = 1;
/// [`EngineMetrics::set_health`] gauge code: refusing all traffic.
pub const HEALTH_POISONED: u64 = 2;

/// The engine's lifetime metrics registry: monotonic atomic counters fed
/// by every query and compaction served by this engine (and by all of its
/// clones — the registry is shared behind an `Arc`, so serving threads
/// holding engine clones aggregate into one place).
///
/// All counters are updated with relaxed atomics on the serving paths;
/// [`EngineMetrics::snapshot`] reads a coherent-enough point-in-time copy
/// for dashboards (individual counters are exact, cross-counter skew is
/// bounded by in-flight queries).
///
/// The registry also carries the engine's [`Telemetry`] handle — latency
/// histograms and the lifecycle event journal. By default that is the
/// process-global registry ([`Telemetry::global`]), so one Prometheus
/// scrape sees every engine in the process; tests inject an isolated one
/// via [`SdEngine::set_telemetry`].
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    inner: Arc<MetricsInner>,
    telemetry: Arc<Telemetry>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            inner: Arc::default(),
            telemetry: Arc::clone(Telemetry::global()),
        }
    }
}

impl EngineMetrics {
    /// The telemetry registry (histograms + event journal) this engine
    /// records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Folds one completed query's profile into the registry.
    fn record_query(&self, prof: &QueryProfile) {
        self.inner.queries_served.fetch_add(1, Ordering::Relaxed);
        self.inner
            .rows_scored
            .fetch_add(prof.points_scored, Ordering::Relaxed);
    }

    /// Credits `shard` with `floor_updates`: the updates its rows made to
    /// the query's one k-th-score floor.
    fn record_shard_floor(&self, shard: usize, floor_updates: u64) {
        if floor_updates > 0 {
            let slot = shard.min(FLOOR_HIST_SLOTS - 1);
            self.inner.floor_contributions[slot].fetch_add(floor_updates, Ordering::Relaxed);
        }
    }

    /// Records one compaction and the epochs it advanced.
    fn record_compaction(&self, epoch_transitions: u64) {
        self.inner.compactions.fetch_add(1, Ordering::Relaxed);
        self.inner
            .epoch_transitions
            .fetch_add(epoch_transitions, Ordering::Relaxed);
    }

    /// Records `records` WAL records (`bytes` on disk) appended ahead of
    /// the mutations they log. Fed by the store crate's durable wrapper —
    /// the counters live here so `metrics` sees one registry per engine.
    pub fn record_wal_append(&self, records: u64, bytes: u64) {
        self.inner
            .wal_records_appended
            .fetch_add(records, Ordering::Relaxed);
        self.inner
            .wal_bytes_appended
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one WAL fsync (an explicit sync or a group-commit flush).
    pub fn record_wal_sync(&self) {
        self.inner.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `records` WAL records replayed during recovery.
    pub fn record_wal_replay(&self, records: u64) {
        self.inner
            .wal_records_replayed
            .fetch_add(records, Ordering::Relaxed);
    }

    /// Records one durable checkpoint (snapshot + WAL rotation).
    pub fn record_wal_checkpoint(&self) {
        self.inner.wal_checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried storage operation: a transient I/O failure the
    /// durable layer absorbed with bounded backoff instead of surfacing.
    pub fn record_retry(&self) {
        self.inner.retries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query aborted by its deadline or cancel token.
    pub fn record_deadline_exceeded(&self) {
        self.inner.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one scrub pass: `ok` regions whose CRCs
    /// verified and `failed` regions that did not.
    pub fn record_scrub_regions(&self, ok: u64, failed: u64) {
        self.inner.scrub_regions_ok.fetch_add(ok, Ordering::Relaxed);
        self.inner
            .scrub_regions_failed
            .fetch_add(failed, Ordering::Relaxed);
    }

    /// Publishes the engine health gauge ([`HEALTH_HEALTHY`],
    /// [`HEALTH_DEGRADED`] or [`HEALTH_POISONED`]). Fed by the durable
    /// wrapper's state machine on every transition.
    pub fn set_health(&self, code: u64) {
        self.inner.health.store(code, Ordering::Relaxed);
    }

    /// The last health code published via [`EngineMetrics::set_health`].
    pub fn health_code(&self) -> u64 {
        self.inner.health.load(Ordering::Relaxed)
    }

    /// A plain point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut floor_contributions = [0u64; FLOOR_HIST_SLOTS];
        for (out, c) in floor_contributions
            .iter_mut()
            .zip(&self.inner.floor_contributions)
        {
            *out = c.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            queries_served: self.inner.queries_served.load(Ordering::Relaxed),
            rows_scored: self.inner.rows_scored.load(Ordering::Relaxed),
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            epoch_transitions: self.inner.epoch_transitions.load(Ordering::Relaxed),
            floor_contributions,
            wal_records_appended: self.inner.wal_records_appended.load(Ordering::Relaxed),
            wal_bytes_appended: self.inner.wal_bytes_appended.load(Ordering::Relaxed),
            wal_syncs: self.inner.wal_syncs.load(Ordering::Relaxed),
            wal_records_replayed: self.inner.wal_records_replayed.load(Ordering::Relaxed),
            wal_checkpoints: self.inner.wal_checkpoints.load(Ordering::Relaxed),
            retries_attempted: self.inner.retries_attempted.load(Ordering::Relaxed),
            deadline_exceeded: self.inner.deadline_exceeded.load(Ordering::Relaxed),
            scrub_regions_ok: self.inner.scrub_regions_ok.load(Ordering::Relaxed),
            scrub_regions_failed: self.inner.scrub_regions_failed.load(Ordering::Relaxed),
            engine_health: self.inner.health.load(Ordering::Relaxed),
        }
    }

    /// Renders every counter, latency histogram and the event-journal
    /// depth in the Prometheus text exposition format (version 0.0.4).
    /// Histogram buckets are cumulative with `le` bounds in seconds;
    /// counters carry the `_total` suffix.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(16 * 1024);
        for (name, help, value) in snap.counters() {
            out.push_str(&format!(
                "# HELP sdq_{name}_total {help}\n# TYPE sdq_{name}_total counter\n\
                 sdq_{name}_total {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP sdq_engine_health Engine health (0 = healthy, 1 = degraded/read-only, 2 = poisoned).\n\
             # TYPE sdq_engine_health gauge\n\
             sdq_engine_health {}\n",
            snap.engine_health
        ));
        out.push_str(
            "# HELP sdq_floor_contributions_total Per-shard k-th-score-floor update credits.\n\
             # TYPE sdq_floor_contributions_total counter\n",
        );
        for (slot, &v) in snap.floor_contributions.iter().enumerate() {
            out.push_str(&format!(
                "sdq_floor_contributions_total{{slot=\"{}\"}} {v}\n",
                floor_slot_label(slot)
            ));
        }
        for (name, histo) in self.telemetry.histograms() {
            let s = histo.snapshot();
            let metric = format!("sdq_{name}_latency_seconds");
            out.push_str(&format!(
                "# HELP {metric} {} latency distribution.\n# TYPE {metric} histogram\n",
                name.replace('_', " ")
            ));
            let mut cum = 0u64;
            for (i, &n) in s.buckets.iter().enumerate() {
                cum += n;
                let (_, hi) = bucket_bounds_nanos(i);
                if i == HISTO_BUCKETS - 1 {
                    out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {cum}\n"));
                } else {
                    out.push_str(&format!(
                        "{metric}_bucket{{le=\"{}\"}} {cum}\n",
                        hi as f64 / 1e9
                    ));
                }
            }
            out.push_str(&format!(
                "{metric}_sum {}\n{metric}_count {cum}\n",
                s.sum_nanos() as f64 / 1e9
            ));
        }
        let journal = &self.telemetry.journal;
        out.push_str(&format!(
            "# HELP sdq_event_journal_depth Lifecycle events currently retained in the journal.\n\
             # TYPE sdq_event_journal_depth gauge\n\
             sdq_event_journal_depth {}\n\
             # HELP sdq_event_journal_events_total Lifecycle events ever journaled.\n\
             # TYPE sdq_event_journal_events_total counter\n\
             sdq_event_journal_events_total {}\n\
             # HELP sdq_event_journal_overwritten_total Journaled events lost to ring overwrites.\n\
             # TYPE sdq_event_journal_overwritten_total counter\n\
             sdq_event_journal_overwritten_total {}\n",
            journal.depth(),
            journal.pushed(),
            journal.overwritten()
        ));
        out
    }
}

/// The stable label of one [`FLOOR_HIST_SLOTS`] histogram slot: shard `i`
/// maps to `shard-i`, with every shard ≥ the last slot folded into
/// `shard-15+`.
pub fn floor_slot_label(slot: usize) -> String {
    if slot >= FLOOR_HIST_SLOTS - 1 {
        format!("shard-{}+", FLOOR_HIST_SLOTS - 1)
    } else {
        format!("shard-{slot}")
    }
}

/// A point-in-time copy of the [`EngineMetrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Queries answered (successful `query_with`/`query` calls).
    pub queries_served: u64,
    /// Points fully scored across all queries (post-pruning survivors).
    pub rows_scored: u64,
    /// Compactions performed (no-op compactions on clean engines included).
    pub compactions: u64,
    /// Shard epochs advanced by compactions (rebuilt shards).
    pub epoch_transitions: u64,
    /// Per-shard k-th-score-floor update credits; see [`FLOOR_HIST_SLOTS`].
    pub floor_contributions: [u64; FLOOR_HIST_SLOTS],
    /// WAL records appended ahead of mutations (durable wrapper only).
    pub wal_records_appended: u64,
    /// WAL bytes appended (record frames, header excluded).
    pub wal_bytes_appended: u64,
    /// WAL fsyncs issued (per-record or group-commit flushes).
    pub wal_syncs: u64,
    /// WAL records replayed into the engine during recovery.
    pub wal_records_replayed: u64,
    /// Durable checkpoints taken (snapshot + WAL rotation).
    pub wal_checkpoints: u64,
    /// Transient storage failures absorbed by retry-with-backoff.
    pub retries_attempted: u64,
    /// Queries aborted by their deadline or cancel token.
    pub deadline_exceeded: u64,
    /// Scrubbed CRC regions that verified clean.
    pub scrub_regions_ok: u64,
    /// Scrubbed CRC regions that failed verification.
    pub scrub_regions_failed: u64,
    /// Health gauge code: 0 = healthy, 1 = degraded (read-only), 2 =
    /// poisoned. See [`EngineMetrics::set_health`].
    pub engine_health: u64,
}

impl MetricsSnapshot {
    /// Every lifetime counter as `(name, help, value)`, in report order:
    /// the list `metrics --json` prints and
    /// [`EngineMetrics::render_prometheus`] exposes as `sdq_{name}_total`.
    /// Each name is its field's, written once; the destructure names every
    /// field, so a new one does not compile until it is listed or set aside
    /// after the `;`.
    pub fn counters(&self) -> [(&'static str, &'static str, u64); 13] {
        macro_rules! named {
            ($m:expr; $($counter:ident: $help:literal,)*; $($other:ident),*) => {{
                let MetricsSnapshot { $($counter,)* $($other: _,)* } = $m;
                [$((stringify!($counter), $help, $counter)),*]
            }};
        }
        named! {
            *self;
            queries_served: "Queries answered.",
            rows_scored: "Points fully scored across all queries.",
            compactions: "Compactions performed.",
            epoch_transitions: "Shard epochs advanced by compactions.",
            wal_records_appended: "WAL records appended.",
            wal_bytes_appended: "WAL bytes appended.",
            wal_syncs: "WAL fsyncs issued.",
            wal_records_replayed: "WAL records replayed during recovery.",
            wal_checkpoints: "Durable checkpoints taken.",
            retries_attempted: "Transient storage failures absorbed by retry-with-backoff.",
            deadline_exceeded: "Queries aborted by their deadline or cancel token.",
            scrub_regions_ok: "Scrubbed CRC regions that verified clean.",
            scrub_regions_failed: "Scrubbed CRC regions that failed verification.",
            ;
            floor_contributions, engine_health
        }
    }
}

/// The sharded SD-Query execution engine: the recommended front door for
/// every query. See the crate docs for the architecture.
///
/// Queries never mutate the engine, so one `SdEngine` is freely shared
/// across threads; each consumer keeps its own [`EngineScratch`].
#[derive(Debug, Clone)]
pub struct SdEngine {
    // The coordinates live only inside the shard indexes (each SdIndex owns
    // its sub-dataset); the engine keeps just the global shape, so building
    // or restoring an engine never duplicates the dataset.
    dims: usize,
    /// Indexed (base) rows; delta rows live in `muts` until compaction.
    rows: usize,
    roles: Vec<DimRole>,
    /// First global row of shard `i` (parallel to `shards`).
    offsets: Vec<u32>,
    shards: Vec<SdIndex>,
    /// Per-shard build options, reused by compaction-time rebuilds.
    index_options: SdIndexOptions,
    /// The write path: delta region, tombstones, epochs (see [`mutation`]).
    muts: mutation::MutationState,
    /// Lifetime counters, shared across engine clones (see
    /// [`EngineMetrics`]).
    metrics: EngineMetrics,
    /// Which query shapes start lost, shared across engine clones like the
    /// metrics; never persisted (see the `history` module).
    verdicts: Arc<VerdictHistory>,
}

/// What [`SdEngine::explain`] reports for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The planner's decision on every shard, in shard order.
    pub plans: Vec<QueryPlan>,
    /// How the engine's verdict history would start the query; `None` when
    /// the query walks (one non-degenerate pair), which never consults it,
    /// or the engine has no shard.
    pub shape: Option<ShapeState>,
}

/// A query shape's state in the engine's verdict history: the zero-weight
/// pattern and ⌈log₂ k⌉ of a query decide its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeState {
    /// The next query of the shape runs its streams first.
    StreamsFirst,
    /// The shape's last [`STREAK`] stream-first queries scanned: its next
    /// query starts lost, unless it is the shape's [`RECHECK`]-th, an audit
    /// whose last shard runs stream-first against the others' floor (at one
    /// shard, the audit runs stream-first whole).
    StartsLost,
    /// The shape's last audit certified: its next query runs its streams
    /// first, and that query's verdict decides whether the shape stays
    /// lost.
    AuditCertified,
}

impl fmt::Display for ShapeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeState::StreamsFirst => f.write_str("streams first"),
            ShapeState::StartsLost => write!(
                f,
                "starts lost: its last {STREAK} stream-first queries scanned; \
                 every {RECHECK}th audits its last shard stream-first against the others' floor"
            ),
            ShapeState::AuditCertified => f.write_str("streams first: its last audit certified"),
        }
    }
}

impl SdEngine {
    /// Builds a single-shard engine with default options.
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with(data, roles, &EngineOptions::default())
    }

    /// Builds the engine: partitions the dataset into contiguous shards and
    /// builds one [`SdIndex`] per shard.
    pub fn build_with(
        data: impl Into<Arc<Dataset>>,
        roles: &[DimRole],
        options: &EngineOptions,
    ) -> Result<Self, SdError> {
        let data: Arc<Dataset> = data.into();
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        let n = data.len();
        let dims = data.dims();
        let s = options.shards.max(1).min(n.max(1));
        let mut shards = Vec::with_capacity(s);
        let mut offsets = Vec::with_capacity(s);
        if n > 0 {
            for i in 0..s {
                let a = i * n / s;
                let b = (i + 1) * n / s;
                let sub = Dataset::from_flat(dims, data.flat()[a * dims..b * dims].to_vec())?;
                shards.push(SdIndex::build_with(sub, roles, &options.index)?);
                offsets.push(a as u32);
            }
        }
        let muts = mutation::MutationState::new(dims, n, shards.len());
        Ok(SdEngine {
            dims,
            rows: n,
            roles: roles.to_vec(),
            offsets,
            shards,
            index_options: options.index.clone(),
            muts,
            metrics: EngineMetrics::default(),
            verdicts: Arc::default(),
        })
    }

    /// Reassembles an engine from per-shard indexes (the snapshot restore
    /// path). Shards must share `roles` and dimensionality; global row ids
    /// are their row-order concatenation.
    pub fn from_parts(
        dims: usize,
        roles: Vec<DimRole>,
        shards: Vec<SdIndex>,
    ) -> Result<Self, SdError> {
        if dims == 0 {
            return Err(SdError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if roles.len() != dims {
            return Err(SdError::DimensionMismatch {
                expected: dims,
                got: roles.len(),
            });
        }
        let mut offsets = Vec::with_capacity(shards.len());
        let mut rows = 0usize;
        for shard in &shards {
            if shard.data().dims() != dims {
                return Err(SdError::DimensionMismatch {
                    expected: dims,
                    got: shard.data().dims(),
                });
            }
            if shard.roles() != roles.as_slice() {
                return Err(SdError::RoleMismatch);
            }
            offsets.push(rows as u32);
            rows += shard.data().len();
            if rows > u32::MAX as usize {
                return Err(SdError::TooManyPoints(rows));
            }
        }
        let index_options = shards
            .first()
            .map(SdIndex::rebuild_options)
            .unwrap_or_default();
        let muts = mutation::MutationState::new(dims, rows, shards.len());
        Ok(SdEngine {
            dims,
            rows,
            roles,
            offsets,
            shards,
            index_options,
            muts,
            metrics: EngineMetrics::default(),
            verdicts: Arc::default(),
        })
    }

    /// Dimensions per point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Build-time dimension roles.
    pub fn roles(&self) -> &[DimRole] {
        &self.roles
    }

    /// Number of **live** rows: indexed base rows plus delta rows, minus
    /// tombstones — the population every query ranks over. See
    /// [`SdEngine::total_rows`](SdEngine::total_rows) for the addressable
    /// id-space size.
    pub fn len(&self) -> usize {
        self.rows + self.muts.delta.len() - self.muts.tombstones.set_count()
    }

    /// `true` when the engine holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard indexes, in row order.
    pub fn shards(&self) -> &[SdIndex] {
        &self.shards
    }

    /// `true` when any shard serves queries off borrowed (mapped) memory.
    pub fn is_mapped(&self) -> bool {
        self.shards.iter().any(SdIndex::is_mapped)
    }

    /// Forces checksum verification of every lazily-verified region in
    /// every shard (a no-op for owned shards).
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        self.shards.iter().try_for_each(SdIndex::verify_integrity)
    }

    /// Does nothing. It set the per-query shard worker count, and stays
    /// only because the repo benchmark, which a program change may not
    /// edit, still calls it; it goes with that benchmark's next change.
    #[deprecated(note = "a query runs on the thread that calls it; this call does nothing")]
    pub fn set_threads(&mut self, _threads: usize) {}

    /// The engine's lifetime metrics registry. The handle is cheap to
    /// clone and stays connected to this engine (and all of its clones)
    /// after the engine itself is dropped.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Redirects this engine's latency histograms and event journal into
    /// an isolated registry (engines default to [`Telemetry::global`], so
    /// one scrape sees the whole process). Affects this instance and
    /// clones made after the call.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.metrics.telemetry = telemetry;
    }

    /// Approximate heap footprint of all shard index structures plus the
    /// write path (delta rows, tombstone bitmap).
    pub fn memory_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(SdIndex::memory_bytes).sum();
        let delta = self.muts.delta.flat().len() * 8;
        let mask = self.muts.tombstones.domain().div_ceil(64) * 8;
        shards + delta + mask
    }

    /// Per-shard layout, mutation pressure and footprint, in row order.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.shards
            .iter()
            .zip(&self.offsets)
            .zip(self.muts.shard_epochs.iter().zip(&self.muts.shard_dead))
            .map(|((shard, &offset), (&epoch, &dead_rows))| ShardInfo {
                offset: offset as usize,
                rows: shard.data().len(),
                dead_rows,
                epoch,
                memory_bytes: shard.memory_bytes(),
            })
            .collect()
    }

    /// The planner's decision for `query` on every shard — the rule reads
    /// the weights only, so every shard's pairs read alike; only the scan
    /// budget follows the shard's size — and the state of the query's
    /// shape in the verdict history. Observability for `sdq query
    /// --explain` and `sdq inspect`.
    ///
    /// Reflects how the engine executes: every shard plans like a
    /// standalone [`SdIndex`], so the plans say `direct` exactly when the
    /// query is one non-degenerate pair ([`SdIndex::single_pair`]) and the
    /// engine walks all its shards at once. The delta region, when
    /// non-empty, additionally executes as an exact scan outside these
    /// per-shard plans (see [`mutation`]). Reading the history counts no
    /// query.
    pub fn explain(&self, query: &SdQuery, k: usize) -> Result<Explain, SdError> {
        let plans = self
            .shards
            .iter()
            .map(|shard| shard.plan(query))
            .collect::<Result<Vec<_>, _>>()?;
        let shape = self.shape(query, k).map(|shape| self.verdicts.state(shape));
        Ok(Explain { plans, shape })
    }

    /// The shape under which the verdict history knows `query`: `None` when
    /// nothing aggregates it — no shard, or one non-degenerate pair that
    /// walks. `k ≥ 1` and `query` of the engine's dimensionality.
    fn shape(&self, query: &SdQuery, k: usize) -> Option<Shape> {
        let shard = self.shards.first()?;
        shard
            .single_pair(query)
            .is_none()
            .then(|| Shape::of(query, k))
    }

    /// Answers the top-k query, allocating fresh scratch state. Steady-state
    /// callers should prefer [`SdEngine::query_with`].
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = EngineScratch::new();
        Ok(self.query_with(query, k, &mut scratch)?.to_vec())
    }

    /// Answers the top-k query with caller-owned scratch buffers, running
    /// every shard on the calling thread — or, for a single-pair query,
    /// walking every shard at once. Returns a slice borrowed from the
    /// scratch, **bit-identical** to the unsharded [`SdIndex::query`] over
    /// the same data, whatever the shard count.
    ///
    /// Times the query into the query-latency histogram and journals the
    /// full profile when the slow-query threshold trips: one
    /// `Instant` pair and one relaxed `fetch_add` per query — the whole
    /// always-on telemetry cost of the clean read path.
    pub fn query_with<'s>(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &'s mut EngineScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        let t0 = std::time::Instant::now();
        let res = self.query_core(query, k, scratch);
        if matches!(
            res,
            Err(SdError::DeadlineExceeded { .. }) | Err(SdError::Cancelled)
        ) {
            self.metrics.record_deadline_exceeded();
        }
        res?;
        let nanos = t0.elapsed().as_nanos() as u64;
        let tel = self.metrics.telemetry();
        tel.query.record_nanos(nanos);
        let threshold = tel.slow_query_nanos();
        if threshold > 0 && nanos >= threshold {
            tel.journal.push(EventKind::SlowQuery {
                wall_micros: nanos / 1_000,
                k: k as u64,
                threshold_micros: threshold / 1_000,
                profile: scratch.profile,
            });
        }
        Ok(&scratch.answers)
    }

    fn query_core(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &mut EngineScratch,
    ) -> Result<(), SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if query.dims() != self.dims {
            return Err(SdError::DimensionMismatch {
                expected: self.dims,
                got: query.dims(),
            });
        }
        scratch.answers.clear();
        scratch.profile.reset();
        scratch.deadline.check()?;
        let timing = scratch.profile.timing;
        let s = self.shards.len();
        // The write path: a dirty engine scans its delta region exactly
        // (one extra merge list) and masks tombstoned rows out of every
        // shard execution.
        let dirty = self.has_mutations();
        if s == 0 && !dirty {
            self.metrics.record_query(&scratch.profile);
            return Ok(());
        }
        let lists_n = s + usize::from(dirty);
        scratch.ensure(lists_n, s);
        for qs in &mut scratch.shards[..s] {
            qs.profile.reset();
            qs.profile.timing = timing;
            qs.deadline = scratch.deadline.clone();
        }
        let mask = if self.muts.tombstones.any() {
            Some(&self.muts.tombstones)
        } else {
            None
        };
        let EngineScratch {
            shards: shard_scratches,
            runs,
            lists,
            heads,
            floor,
            delta_pool,
            delta_sw,
            answers,
            profile,
            deadline,
        } = &mut *scratch;
        // The query's one floor: every live row's score it keeps, whoever
        // scored the row — delta scan, shard execution or walk.
        let mut floor = QueryFloor::new(floor, k.min(self.len()));

        if dirty {
            // Delta scan first: its canonical top-k becomes merge list `s`,
            // and its live scores go into the floor, so the indexed shard
            // executions below terminate against fresh-row candidates
            // exactly like against a sibling shard's.
            let out = &mut lists[s];
            out.clear();
            if !self.muts.delta.is_empty() {
                let t0 = timing.then(std::time::Instant::now);
                sdq_core::delta::scan_delta_into(
                    &self.muts.delta,
                    &self.roles,
                    query,
                    k,
                    self.rows as u32,
                    mask.map(|m| MaskView::new(m, self.rows as u32)),
                    delta_pool,
                    &mut floor,
                    out,
                    delta_sw,
                    profile,
                    deadline,
                )?;
                if let Some(t0) = t0 {
                    profile.delta_scan_nanos += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        let t_agg = timing.then(std::time::Instant::now);

        let shard_scratches = &mut shard_scratches[..s];
        let pair = self
            .shards
            .first()
            .and_then(|shard| shard.single_pair(query));
        // An aggregation whose shape lost its recent stream-first queries
        // starts lost: every execution scans at its first round head —
        // except, on the shape's audit, the last shard's, which runs
        // stream-first once its siblings are done. A one-shard engine has no
        // sibling floor to audit against: its audit is a stream-first query.
        let shape = self.shape(query, k);
        let start = match shape.map(|shape| self.verdicts.begin(shape)) {
            Some(Start::Audit) if s == 1 => Start::Streams,
            start => start.unwrap_or(Start::Streams),
        };
        if start != Start::Streams {
            floor.start_lost();
        }
        let executed = if let Some(pair) = pair {
            // One walk over every shard's block set, whatever the shard
            // count, scoring into the floor the delta scan left.
            let parts = self
                .shards
                .iter()
                .zip(&self.offsets)
                .zip(&self.muts.shard_dead)
                .map(|((index, &offset), &dead)| ShardPart {
                    index,
                    offset,
                    mask: shard_mask_view(mask, offset, dead),
                });
            pair.walk(parts, k, &mut shard_scratches[0], &mut floor)
                .map(drop)
        } else if start == Start::Audit {
            // The audit shard runs stream-first against the floor the delta
            // and every lead shard's scan left.
            let (lead, last) = shard_scratches.split_at_mut(s - 1);
            self.aggregate(0, query, k, mask, &mut floor, lead, runs)
                .and_then(|()| {
                    floor.reopen();
                    self.aggregate(s - 1, query, k, mask, &mut floor, last, runs)
                })
        } else {
            self.aggregate(0, query, k, mask, &mut floor, shard_scratches, runs)
        };
        // Fold the per-shard profiles into the engine-level one (a walk's
        // idle scratches were reset above and merge as zeros) — also when a
        // deadline ended the query: the counters say how far it got.
        for qs in shard_scratches.iter() {
            profile.merge(&qs.profile);
        }
        executed?;
        if let Some(shape) = shape {
            match start {
                Start::Streams => self.verdicts.record(shape, profile.scan_fallbacks > 0),
                Start::Audit => self
                    .verdicts
                    .audited(shape, shard_scratches[s - 1].profile.scan_fallbacks > 0),
                Start::Lost => {}
            }
        }
        // A walk leaves one list, already in global ids (shard 0's offset is
        // 0), in the first scratch; an aggregation one list per shard.
        let ran = if pair.is_some() { 1 } else { s };
        for out in &mut lists[ran..s] {
            out.clear();
        }
        // A walk splits its floor updates by shard itself; an aggregation
        // left each shard's in that shard's scratch.
        if pair.is_some() {
            let walk = &shard_scratches[0];
            for (i, &updates) in walk.part_floor_updates().iter().enumerate() {
                self.metrics.record_shard_floor(i, updates);
            }
        } else {
            for (i, qs) in shard_scratches.iter().enumerate() {
                self.metrics.record_shard_floor(i, qs.profile.floor_updates);
            }
        }
        for (i, (qs, out)) in shard_scratches[..ran]
            .iter()
            .zip(lists.iter_mut())
            .enumerate()
        {
            let offset = self.offsets[i];
            out.clear();
            out.extend(
                qs.answers()
                    .iter()
                    .map(|sp| ScoredPoint::new(PointId::new(offset + sp.id.raw()), sp.score)),
            );
        }

        if let Some(t) = t_agg {
            profile.aggregate_nanos += t.elapsed().as_nanos() as u64;
        }

        // Exact k-way merge over the per-shard canonical lists (plus the
        // delta list when dirty). Global ids are unique, so rank_cmp is a
        // total order and the merge output is the canonical global top-k
        // of the live rows.
        let t_merge = timing.then(std::time::Instant::now);
        let k_eff = k.min(self.len());
        heads.clear();
        heads.resize(lists.len(), 0);
        answers.reserve(k_eff);
        while answers.len() < k_eff {
            let mut best: Option<usize> = None;
            for (i, list) in lists.iter().enumerate() {
                if heads[i] < list.len() {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            rank_cmp(&list[heads[i]], &lists[b][heads[b]])
                                == std::cmp::Ordering::Less
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            match best {
                Some(i) => {
                    profile.merge_rounds += 1;
                    answers.push(lists[i][heads[i]]);
                    heads[i] += 1;
                }
                None => break,
            }
        }
        // Pin the query-final facts: the emitted answer count and the
        // query's floor.
        profile.emitted = answers.len() as u64;
        profile.floor_value = floor.value();
        if let Some(t) = t_merge {
            profile.merge_nanos += t.elapsed().as_nanos() as u64;
        }
        self.metrics.record_query(profile);
        Ok(())
    }

    /// The one way shard aggregations run: begins shard `first + j` out of
    /// `scratches[j]` (with its tombstone view), steps them
    /// in two passes, and finishes each into the scratch it was begun from —
    /// where its canonical shard-local answer and its profile are left. The
    /// first pass gives every execution one `SLICE_ROUNDS` slice, so a floor
    /// forms from every shard's best rows; the second runs each one still
    /// open to completion, in shard order. So the first execution that
    /// finds its streams lost and takes the scan exit does so while its
    /// siblings have spent one slice each, and its verdict on `floor`
    /// sends them straight to their own scans at their next round head
    /// (`scan_inherited`) — unless the floor certifies them first. A
    /// deadline or cancellation inside one step (between rounds, or
    /// mid-scan) ends every in-flight execution: each hands its buffers
    /// back unfinished, so a tripped scratch serves its next query without
    /// re-allocating.
    ///
    /// `floor` is the query's one floor (holding the delta scan's scores, if
    /// any): every step scores into it and prunes against it, so each
    /// shard's step prunes against every score found so far, its own rows'
    /// in the same step included. It reaches the global k-th within a few
    /// slices, so every shard — including the first — terminates against a
    /// near-final floor instead of its own weaker local one (measured ≈ the
    /// oracle floor's cost, where strictly sequential shard execution
    /// leaves the first shard floorless). `runs` lends its allocation and
    /// is left empty.
    #[allow(clippy::too_many_arguments)] // internal: one body, three call sites
    fn aggregate(
        &self,
        first: usize,
        query: &SdQuery,
        k: usize,
        mask: Option<&RowMask>,
        floor: &mut QueryFloor<'_>,
        scratches: &mut [QueryScratch],
        runs: &mut Vec<ShardExecution<'static>>,
    ) -> Result<(), SdError> {
        // Rounds of the first pass: enough that each slice makes real bound
        // progress, small enough that the merged floor forms while every
        // shard is still early in its descent.
        const SLICE_ROUNDS: usize = 8;
        let mut active = recycle_vec(std::mem::take(runs));
        let mut advance = || -> Result<(), SdError> {
            for (i, qs) in (first..).zip(scratches.iter_mut()) {
                let shard_mask = shard_mask_view(mask, self.offsets[i], self.muts.shard_dead[i]);
                active.push(self.shards[i].begin_query(query, k, qs, shard_mask)?);
            }
            for rounds in [SLICE_ROUNDS, usize::MAX] {
                for run in active.iter_mut().filter(|run| !run.done()) {
                    run.step(rounds, floor)?;
                }
            }
            Ok(())
        };
        let advanced = advance();
        for (run, qs) in active.drain(..).zip(scratches.iter_mut()) {
            match advanced {
                Ok(()) => run.finish_into(qs),
                Err(_) => run.abandon_into(qs),
            }
        }
        *runs = recycle_vec(active);
        advanced
    }

    /// Answers a batch of queries in parallel with up to `threads` threads
    /// (`0` = auto, [`resolve_threads`]), one [`EngineScratch`] per thread;
    /// each query runs on one of them, like [`SdEngine::query_with`] on the
    /// thread that calls it. Explicit counts are clamped to
    /// the machine's available parallelism — oversubscribing a batch only
    /// adds scheduler churn (measured: `threads=4` on one core ran ~7%
    /// *slower* than serial). Results keep the input order and are
    /// bit-identical to a serial [`SdEngine::query`] loop.
    pub fn par_query_batch(
        &self,
        queries: &[SdQuery],
        k: usize,
        threads: usize,
    ) -> Result<Vec<Vec<ScoredPoint>>, SdError> {
        let threads = resolve_threads(threads).min(resolve_threads(0));
        if threads <= 1 || queries.len() <= 1 {
            let mut scratch = EngineScratch::new();
            return queries
                .iter()
                .map(|q| Ok(self.query_with(q, k, &mut scratch)?.to_vec()))
                .collect();
        }
        let n_workers = threads.min(queries.len());
        type Bucket = Vec<(usize, Result<Vec<ScoredPoint>, SdError>)>;
        let buckets: Vec<Bucket> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut scratch = EngineScratch::new();
                        queries
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(n_workers)
                            .map(|(i, q)| {
                                let r = self.query_with(q, k, &mut scratch).map(<[_]>::to_vec);
                                (i, r)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        let mut out: Vec<Vec<ScoredPoint>> = vec![Vec::new(); queries.len()];
        for bucket in buckets {
            for (i, r) in bucket {
                out[i] = r?;
            }
        }
        Ok(out)
    }
}

/// Resolves a thread-count argument of [`SdEngine::par_query_batch`] or
/// `sdq query --threads`: `0` means auto — the host's available
/// parallelism (1 when it cannot be determined), asked of the OS once per
/// process: the answer is an affinity mask plus cgroup quota files, read
/// and allocated for on every call.
pub fn resolve_threads(threads: usize) -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    if threads == 0 {
        *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    } else {
        threads
    }
}

/// The tombstone view one shard's execution should receive: `None` when no
/// dead row falls inside the shard's range (per-shard counters maintained
/// by `delete`, so this is O(1)), so delete-free shards skip the per-row
/// mask test.
fn shard_mask_view(mask: Option<&RowMask>, offset: u32, dead: usize) -> Option<MaskView<'_>> {
    let view = MaskView::new(mask?, offset);
    (dead > 0).then_some(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::multidim::PairAction;

    fn sample(n: usize, dims: usize) -> (Dataset, Vec<DimRole>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| ((i * 31 + d * 17) % 101) as f64 * 0.13 - 5.0)
                    .collect()
            })
            .collect();
        let roles: Vec<DimRole> = (0..dims)
            .map(|d| {
                if d % 2 == 0 {
                    DimRole::Attractive
                } else {
                    DimRole::Repulsive
                }
            })
            .collect();
        (Dataset::from_rows(dims, &rows).unwrap(), roles)
    }

    fn engine(n: usize, dims: usize, shards: usize) -> SdEngine {
        let (data, roles) = sample(n, dims);
        SdEngine::build_with(
            data,
            &roles,
            &EngineOptions {
                shards,
                ..EngineOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn shard_layout_is_contiguous_and_balanced() {
        let e = engine(103, 4, 4);
        assert_eq!(e.shard_count(), 4);
        let infos = e.shard_infos();
        let mut next = 0;
        for info in &infos {
            assert_eq!(info.offset, next);
            next += info.rows;
            assert!(info.rows >= 103 / 4);
            assert!(info.memory_bytes > 0);
        }
        assert_eq!(next, 103);
    }

    #[test]
    fn a_pair_costs_under_32_bytes_a_row() {
        // One pair's index is one SoA copy of its (x, y) — 16 B — plus row
        // ids, the live masks and the bound hierarchy: ≈ 27 B a row. A second
        // coordinate copy (a point table, a per-point tree) cannot hide
        // under 32.
        for (dims, pairs) in [(2, 1), (4, 2)] {
            let e = engine(20_000, dims, 2);
            let per_row = e.memory_bytes() as f64 / 20_000.0;
            assert!(
                per_row < 32.0 * pairs as f64,
                "{dims}-D: {per_row:.1} B/row over {pairs} pair(s)"
            );
        }
    }

    #[test]
    fn shards_capped_at_row_count() {
        let e = engine(3, 2, 16);
        assert_eq!(e.shard_count(), 3);
        assert_eq!(e.len(), 3);
    }

    /// Every step scores into the query's one floor, so a sibling's first
    /// slice already prunes against the scores of every slice before it,
    /// and every lane against the scores of its own step's earlier rows.
    /// On these 4-D queries over eight 5 000-row shards (seeded: the counts
    /// repeat exactly) the streams fetch 54 827 rows over the 32 queries;
    /// a copy of the merged floor published after every step fetched
    /// 56 444, and one published once per *pass* — after every shard had
    /// run its first slice against its own local floor — 69 180. (Scanned
    /// rows are left out: at this shard size some executions scan, most of
    /// them on an earlier sibling's verdict.)
    #[test]
    fn the_merged_floor_reaches_a_sibling_inside_the_first_pass() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(0.0..1.0)).collect() };
        let rows: Vec<Vec<f64>> = (0..40_000).map(|_| draw(4)).collect();
        let roles = [
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let e = SdEngine::build_with(
            Dataset::from_rows(4, &rows).unwrap(),
            &roles,
            &EngineOptions {
                shards: 8,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let mut scratch = EngineScratch::new();
        let mut fetched = 0;
        for _ in 0..32 {
            let point = draw(4);
            let weights = draw(4).iter().map(|w| 0.1 + 0.9 * w).collect();
            let query = SdQuery::new(point, weights).unwrap();
            e.query_with(&query, 8, &mut scratch).unwrap();
            fetched += scratch.profile.rows_fetched - scratch.profile.scan_rows;
        }
        assert!(
            fetched < 62_000,
            "{fetched} rows fetched through streams over 32 queries"
        );
    }

    /// The test above at one lane: two 33-row shards scored `|x|` (one
    /// repulsive dimension, so no stream: both scan). Shard 0 scores 10 and
    /// 5 in its first chunk; shard 1 scores 9 in its first chunk and 6 in
    /// its second. At k = 2 the 6 is below the two shards' 2nd best score
    /// together (9), but not below shard 0's own (5), shard 1's own (6) or
    /// a floor published once shard 0's step ended (5): only the query's
    /// one floor, which shard 1's 9 entered a chunk earlier, drops it
    /// unscored.
    #[test]
    fn a_lane_under_the_union_floor_is_never_scored() {
        let mut rows = vec![vec![0.0]; 66];
        for (row, x) in [(0, 10.0), (1, 5.0), (33, 9.0), (65, 6.0)] {
            rows[row][0] = x;
        }
        let e = SdEngine::build_with(
            Dataset::from_rows(1, &rows).unwrap(),
            &[DimRole::Repulsive],
            &EngineOptions {
                shards: 2,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
        let mut scratch = EngineScratch::new();
        let got = e.query_with(&q, 2, &mut scratch).unwrap();
        let got: Vec<(u32, f64)> = got.iter().map(|sp| (sp.id.raw(), sp.score)).collect();
        assert_eq!(got, [(0, 10.0), (33, 9.0)]);
        let p = scratch.profile;
        assert_eq!(p.scan_fallbacks, 2, "both shards scan");
        // Shard 0's whole first chunk (there was no floor yet) and shard
        // 1's 9: the 6 never reaches a heap.
        assert_eq!(p.points_scored, 33);
        assert_eq!(p.floor_value, 9.0);
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (data, roles) = sample(500, 4);
        let mono = SdIndex::build(data.clone(), &roles).unwrap();
        let query = SdQuery::uniform_weights(vec![0.0, 1.0, 2.0, 3.0], &roles);
        let want = mono.query(&query, 12).unwrap();
        for shards in [1, 2, 3, 5, 8] {
            let e = SdEngine::build_with(
                data.clone(),
                &roles,
                &EngineOptions {
                    shards,
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let got = e.query(&query, 12).unwrap();
            assert_eq!(got.len(), want.len(), "shards = {shards}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "shards = {shards}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "shards = {shards}");
            }
        }
    }

    #[test]
    fn empty_and_error_paths() {
        let e = SdEngine::build(
            Dataset::from_flat(2, vec![]).unwrap(),
            &[DimRole::Attractive, DimRole::Repulsive],
        )
        .unwrap();
        assert!(e.is_empty());
        let q =
            SdQuery::uniform_weights(vec![0.0, 0.0], &[DimRole::Attractive, DimRole::Repulsive]);
        assert!(e.query(&q, 3).unwrap().is_empty());
        assert!(matches!(e.query(&q, 0), Err(SdError::ZeroK)));
        let bad = SdQuery::uniform_weights(vec![0.0], &[DimRole::Attractive]);
        assert!(matches!(
            e.query(&bad, 1),
            Err(SdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_roundtrips_build() {
        let e = engine(120, 3, 4);
        let rebuilt = SdEngine::from_parts(3, e.roles().to_vec(), e.shards().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), e.len());
        for (a, b) in rebuilt.shards().iter().zip(e.shards()) {
            assert_eq!(a.data().flat(), b.data().flat());
        }
        assert_eq!(rebuilt.shard_count(), 4);
        let q = SdQuery::uniform_weights(vec![0.5, 1.5, -3.0], e.roles());
        assert_eq!(e.query(&q, 7).unwrap(), rebuilt.query(&q, 7).unwrap());
    }

    #[test]
    fn from_parts_rejects_mismatched_shards() {
        let e = engine(60, 3, 2);
        assert!(matches!(
            SdEngine::from_parts(2, e.roles()[..2].to_vec(), e.shards().to_vec()),
            Err(SdError::DimensionMismatch { .. })
        ));
        let mut wrong_roles = e.roles().to_vec();
        wrong_roles.swap(0, 1);
        assert!(matches!(
            SdEngine::from_parts(3, wrong_roles, e.shards().to_vec()),
            Err(SdError::RoleMismatch)
        ));
    }

    #[test]
    fn explain_reports_per_shard_plans() {
        let e = engine(400, 4, 4);
        let q = SdQuery::uniform_weights(vec![0.0; 4], e.roles());
        let plans = e.explain(&q, 8).unwrap().plans;
        assert_eq!(plans.len(), 4);
        for p in &plans {
            assert_eq!(p.pairs.len(), 2);
            // Unit weights hit the 45° indexed angle, whatever the shard size.
            assert!(p.pairs.iter().all(|pp| pp.action == PairAction::Frontier));
        }
    }

    /// The same engine with an empty verdict history.
    fn forgetful(e: &SdEngine) -> SdEngine {
        SdEngine {
            verdicts: Arc::default(),
            ..e.clone()
        }
    }

    /// 200-row shards under k = 64: the streams spend the 25-row budget
    /// long before they could certify, so every query scans.
    fn scanning() -> (SdEngine, SdQuery) {
        let e = engine(800, 6, 4);
        let q = SdQuery::uniform_weights(vec![0.5; 6], e.roles());
        (e, q)
    }

    #[test]
    fn a_shape_that_keeps_scanning_starts_lost_on_every_clone() {
        let (e, q) = scanning();
        let want = e.query(&q, 64).unwrap(); // stream-first query 1
        let twin = e.clone();
        let mut scratch = EngineScratch::new();
        for _ in 1..STREAK {
            twin.query_with(&q, 64, &mut scratch).unwrap();
            assert_eq!(scratch.profile.scan_predicted, 0);
            assert!(scratch.profile.scan_fallbacks > 0);
        }
        assert_eq!(
            e.explain(&q, 64).unwrap().shape,
            Some(ShapeState::StartsLost),
            "the clones share one history"
        );
        assert_eq!(e.query_with(&q, 64, &mut scratch).unwrap(), &want[..]);
        let p = scratch.profile;
        assert_eq!((p.scan_predicted, p.scan_fallbacks, p.rounds), (4, 4, 4));
        // An engine reassembled from the same shards starts with none.
        let rebuilt = SdEngine::from_parts(6, e.roles().to_vec(), e.shards().to_vec()).unwrap();
        assert_eq!(
            rebuilt.explain(&q, 64).unwrap().shape,
            Some(ShapeState::StreamsFirst)
        );
    }

    #[test]
    fn explain_names_the_audit_and_what_a_certifying_one_leaves() {
        let (e, q) = scanning();
        let mut scratch = EngineScratch::new();
        for _ in 1..RECHECK {
            e.query_with(&q, 64, &mut scratch).unwrap();
        }
        let lost = e.explain(&q, 64).unwrap().shape.unwrap();
        assert_eq!(lost, ShapeState::StartsLost);
        assert!(lost
            .to_string()
            .ends_with("every 16th audits its last shard stream-first against the others' floor"));
        // The RECHECK-th query is the audit: three shards predicted, the
        // last one's own scan, and the shape stays lost.
        e.query_with(&q, 64, &mut scratch).unwrap();
        let p = scratch.profile;
        assert_eq!(
            (p.scan_predicted, p.scan_inherited, p.scan_fallbacks),
            (3, 0, 4)
        );
        assert_eq!(e.explain(&q, 64).unwrap().shape, Some(lost));
        // Had it certified, the next query would run its streams first.
        e.verdicts.audited(e.shape(&q, 64).unwrap(), false);
        let certified = e.explain(&q, 64).unwrap().shape.unwrap();
        assert_eq!(certified, ShapeState::AuditCertified);
        assert_eq!(
            certified.to_string(),
            "streams first: its last audit certified"
        );
        e.query_with(&q, 64, &mut scratch).unwrap();
        assert_eq!(scratch.profile.scan_predicted, 0);
        assert_eq!(e.explain(&q, 64).unwrap().shape, Some(lost), "it scanned");
    }

    #[test]
    fn a_deadline_aborted_query_records_nothing() {
        let (e, q) = scanning();
        let mut scratch = EngineScratch::new();
        // Budgets until one trips after an execution stepped (earlier ones
        // trip at the entry check, later ones let the query finish).
        for micros in 1..20_000 {
            let e = forgetful(&e);
            for _ in 1..STREAK {
                e.query_with(&q, 64, &mut scratch).unwrap();
            }
            scratch.deadline = Deadline::within(std::time::Duration::from_micros(micros));
            let tripped = e.query_with(&q, 64, &mut scratch).is_err();
            scratch.deadline = Deadline::none();
            if !tripped || scratch.profile.rounds == 0 {
                continue;
            }
            assert_eq!(scratch.profile.scan_predicted, 0);
            // Still STREAK − 1 scans: the next query runs its streams first,
            // and only the one after it starts lost.
            e.query_with(&q, 64, &mut scratch).unwrap();
            assert_eq!(scratch.profile.scan_predicted, 0, "{micros} µs");
            e.query_with(&q, 64, &mut scratch).unwrap();
            assert_eq!(scratch.profile.scan_predicted, 4, "{micros} µs");
            return;
        }
        panic!("no budget tripped inside the aggregation");
    }

    #[test]
    fn a_walk_never_consults_the_history() {
        let e = engine(4_000, 2, 4);
        let q = SdQuery::uniform_weights(vec![0.0, 1.0], e.roles());
        assert_eq!(e.explain(&q, 16).unwrap().shape, None);
        let mut scratch = EngineScratch::new();
        for _ in 0..2 * STREAK {
            e.query_with(&q, 16, &mut scratch).unwrap();
            assert_eq!(scratch.profile.rounds, 0, "a walk");
        }
        // The same engine's aggregations (both weights zero) keep their own
        // history, and a walk wrote none of it.
        let both_zero = SdQuery::new(vec![0.0, 1.0], vec![0.0, 0.0]).unwrap();
        assert_eq!(
            e.explain(&both_zero, 16).unwrap().shape,
            Some(ShapeState::StreamsFirst)
        );
    }

    #[test]
    fn batch_matches_serial() {
        let e = engine(300, 4, 3);
        let queries: Vec<SdQuery> = (0..9)
            .map(|i| {
                SdQuery::new(vec![i as f64, 1.0, -2.0, 0.5], vec![1.0, 0.5, 2.0, 0.0]).unwrap()
            })
            .collect();
        let serial: Vec<_> = queries.iter().map(|q| e.query(q, 6).unwrap()).collect();
        for threads in [0, 1, 2, 4] {
            let batch = e.par_query_batch(&queries, 6, threads).unwrap();
            assert_eq!(batch, serial, "threads = {threads}");
        }
    }
}
