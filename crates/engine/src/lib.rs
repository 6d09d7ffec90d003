//! # sdq-engine
//!
//! The unified query-execution layer of the SD-Query workspace: one front
//! door ([`SdEngine`]) that plans and shards every top-k query, and answers
//! it from one heap.
//!
//! ```text
//!                         SdEngine::query_with
//!                                 │
//!                    ┌────────────▼────────────┐
//!                    │   one box scan of every │   the box tree's descent,
//!                    │   shard, whatever roles │   then a sweep that skips
//!                    └────────────┬────────────┘   chunks by box
//!                                 │
//!              ┌──────────────────┼──────────────────┐
//!        ┌─────▼─────┐      ┌─────▼─────┐      ┌─────▼─────┐
//!        │  shard 0  │      │  shard 1  │  …   │ shard S−1 │  one SdIndex
//!        │ (SdIndex) │      │ (SdIndex) │      │ (SdIndex) │  per shard, one
//!        └─────┬─────┘      └─────┬─────┘      └─────┬─────┘  QueryScratch
//!              │    ▲             │    ▲             │    ▲
//!              └────╂─────────────┴────╂─────────────┘    ┃
//!                   ┗━━━━━━━━ QueryFloor (the ━━━━━━━━━━━━┛
//!                        query's one answer heap: every
//!                        shard and the delta scan offer
//!                        (score, global id) to it and
//!                        prune against its k-th score)
//!                                 │
//!                    ┌────────────▼────────────┐
//!                    │       one drain         │   (score desc, id asc)
//!                    └────────────┬────────────┘
//!                                 │
//!                          top-k answer
//! ```
//!
//! ## Shards
//!
//! The engine cuts the dataset into `S` shards at build time, each with its
//! own `SdIndex`, so that the shards build side by side on every CPU.
//! Whatever the roles, the shards are the **cells of one box order**: the
//! subtrees of one recursive median split of all the rows. The split's top
//! `⌈log₂ S⌉` levels run over every row (the root's cut on the calling
//! thread, its two sides on two), and each shard's build finishes its own
//! cell ([`cells`], [`SdIndex::build_cell`]). Concatenated in shard order,
//! the shards' rows, ids, chunk codes and first ids are those of one
//! [`SdIndex`] over all the rows — and at up to 16 shards so are the stored
//! nodes of their box trees, each shard whole groups of it. At most one
//! shard a 64-row chunk. A shard stores its rows once, with the global id
//! of each, so every scorer names a row by its shard's id column and
//! nothing else.
//!
//! A query runs on the thread that calls it — parallelism is between
//! queries ([`SdEngine::par_query_batch`]). It walks the box trees of
//! every shard as one index — best first across all of them until the
//! best chunks are scored, then the groups that still reach the floor,
//! best first, each in row order — so a query over up to 16 cells bounds
//! and scores what a one-shard engine does, in its order, and counts what
//! it counts. A deleted id names no shard,
//! so every compaction re-splits the live rows and rebuilds every shard
//! ([`mutation`]).
//!
//! The query's one [`QueryFloor`](sdq_core::QueryFloor) is what keeps
//! sharding from multiplying work: the k-th best *exact* score found in any
//! shard is a lower bound on the final global k-th score, so every chunk
//! whose box cannot reach it is skipped, whichever shard holds it.
//!
//! ## Exactness
//!
//! Results are **bit-identical** to the unsharded [`SdIndex::query`] path —
//! including ties at the k-th score — because every scorer offers each row
//! it keeps under its global id to the one floor, which keeps the best
//! `min(k, live rows)` under [`rank_cmp`](sdq_core::score::rank_cmp)
//! (score descending, ties by id ascending, a total order), every row no
//! scorer offers is strictly below `k` scores it keeps, and per-point
//! scores are computed by the same kernel on the same coordinates.
//! Property tests in `tests/engine_equivalence.rs` pin this across random
//! datasets, roles, weights, `k` and shard counts.
//!
//! ## One driver, one scratch
//!
//! The engine's scratch is a [`QueryScratch`] ([`EngineScratch`] is only
//! its other name), and a query is answered the way
//! [`SdIndex::query_with`] answers one: through the scratch's one answer
//! step, [`QueryScratch::answer_with`], which makes the query's one
//! [`QueryFloor`](sdq_core::QueryFloor) and drains it into the answer.
//! Inside that step the delta scan runs first, then `sdq-core`'s one
//! driver, [`answer_parts`], called once per query with every shard as one
//! part, all on the calling thread. Every scorer adds its counters to the
//! scratch's one profile, reset once per query, and checks its one
//! deadline. Every shard scores into the query's floor: the best `min(k,
//! live rows)` `(score, global id)` entries any shard or the delta scan has
//! found, whose one drain is the answer. Every query — a single pair's too,
//! whatever the shard count or tombstones — is one box scan of every shard,
//! and [`SdEngine::explain`] reports each shard's.
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
//! use sdq_core::{Dataset, DimRole, QueryScratch, SdQuery};
//! use sdq_engine::{EngineOptions, SdEngine};
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
//! let mut scratch = QueryScratch::new();
//! let query = SdQuery::uniform_weights(vec![10.0, 30.0, 5.0], &roles);
//! let top = engine.query_with(&query, 5, &mut scratch).unwrap();
//! assert_eq!(top.len(), 5);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use sdq_core::mask::MaskView;
use sdq_core::multidim::{
    answer_parts, cells, id_census, ids_in_range, QueryPlan, SdIndex, ShardPart,
};
use sdq_core::telemetry::{bucket_bounds_nanos, EventKind, Telemetry, HISTO_BUCKETS};
use sdq_core::{Dataset, DimRole, QueryProfile, QueryScratch, ScoredPoint, SdError, SdQuery};

pub mod mutation;

pub use mutation::{CompactionOptions, CompactionReport, MutationStats};

/// Tuning knobs for [`SdEngine::build_with`]. Every query runs its shards
/// on the thread that calls it; a batch spreads queries over threads
/// ([`SdEngine::par_query_batch`]).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Number of shards (`≥ 1`; capped so that no shard is empty —
    /// [`shard_limit`](sdq_core::multidim::shard_limit)): the cells of one
    /// box order (see the crate docs).
    pub shards: usize,
    /// Read by nothing. It named the per-query shard worker count, and
    /// stays only because the repo benchmark, which a program change may
    /// not edit, still sets it; it goes with that benchmark's next change.
    #[deprecated(note = "a query runs on the thread that calls it; this field is ignored")]
    pub threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        #[allow(deprecated)] // the shim's own definition
        EngineOptions {
            shards: 1,
            threads: 0,
        }
    }
}

/// Layout and footprint of one shard, as reported by
/// [`SdEngine::shard_infos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// The smallest global row id in the shard: a cell of a box order holds
    /// ids from all over the id space.
    pub smallest_id: usize,
    /// Number of rows in the shard (dead ones included).
    pub rows: usize,
    /// Tombstoned rows inside this shard, pending compaction.
    pub dead_rows: usize,
    /// Engine epoch at which this shard was built: every compaction
    /// rebuilds every shard, so this is the engine's epoch (`0` = initial
    /// build; see [`SdEngine::compact_with`]).
    pub epoch: u64,
    /// Approximate heap footprint of the shard's index structures.
    pub memory_bytes: usize,
}

/// The engine's scratch is the [`QueryScratch`] every `query_with` runs
/// out of: the delta scan, every shard and the answer step share its
/// heaps, buffers, profile and deadline. Keep one per serving
/// thread and reuse it across queries; a warmed query touches the
/// allocator zero times. The name stays only for the repo benchmark, which
/// still uses it; it goes with that benchmark's next change.
pub type EngineScratch = QueryScratch;

/// Slots of the [`EngineMetrics`] per-shard floor-contribution histogram:
/// slot `i` accumulates the k-th-score-floor updates contributed by shard
/// `i`, with every shard `≥ FLOOR_HIST_SLOTS − 1` folded into the last
/// slot (so resharding never invalidates the registry). Each shard is
/// credited the updates its own rows made.
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

    /// Credits every slot with the updates its shards' rows made to one
    /// query's k-th-score floor.
    fn record_floor_credits(&self, credits: &[u64; FLOOR_HIST_SLOTS]) {
        for (slot, &updates) in self.inner.floor_contributions.iter().zip(credits) {
            if updates > 0 {
                slot.fetch_add(updates, Ordering::Relaxed);
            }
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
/// across threads; each consumer keeps its own [`QueryScratch`].
#[derive(Debug, Clone)]
pub struct SdEngine {
    // The coordinates live only inside the shard indexes (each SdIndex owns
    // its sub-dataset); the engine keeps just the global shape, so building
    // or restoring an engine never duplicates the dataset.
    dims: usize,
    /// Indexed (base) rows; delta rows live in `muts` until compaction.
    rows: usize,
    roles: Vec<DimRole>,
    /// The shards, each of whose id columns holds global ids.
    shards: Vec<SdIndex>,
    /// Whether every shard's ids lie in `0..rows`: settled when the engine
    /// is built or assembled from owned shards (there by the id census),
    /// and before a mapped engine's first answer ([`ids_in_range`]).
    ids_checked: Arc<OnceLock<Result<(), SdError>>>,
    /// The write path: delta region, tombstones, epochs (see [`mutation`]).
    muts: mutation::MutationState,
    /// Lifetime counters, shared across engine clones (see
    /// [`EngineMetrics`]).
    metrics: EngineMetrics,
}

/// What [`SdEngine::explain`] reports for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// The planner's decision on every shard, in shard order.
    pub plans: Vec<QueryPlan>,
}

impl SdEngine {
    /// Builds a single-shard engine with default options.
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with(data, roles, &EngineOptions::default())
    }

    /// Builds the engine: cuts the dataset into shards ([`EngineOptions::shards`],
    /// crate docs) and builds one [`SdIndex`] per shard. The shards are
    /// built concurrently, on up to the host's available parallelism
    /// ([`resolve_threads`]`(0)`), and the engine is the same whichever
    /// thread built which shard: its saved bytes are identical to a build
    /// on one core.
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
        let shards = build_layout(&data, roles, options.shards)?;
        Ok(SdEngine {
            dims: data.dims(),
            rows: data.len(),
            roles: roles.to_vec(),
            shards,
            ids_checked: Arc::new(OnceLock::from(Ok(()))),
            muts: mutation::MutationState::new(data.dims(), data.len()),
            metrics: EngineMetrics::default(),
        })
    }

    /// Reassembles an engine from per-shard indexes (the snapshot restore
    /// path). Shards must share `roles` and dimensionality; each shard's id
    /// column holds global ids, as [`SdEngine::build_with`] writes them.
    /// Owned shards' ids are checked here to name every row once
    /// ([`id_census`]); a mapped engine checks them in range before its
    /// first answer.
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
            rows += shard.data().len();
            if rows > u32::MAX as usize {
                return Err(SdError::TooManyPoints(rows));
            }
        }
        let ids_checked = Arc::new(OnceLock::new());
        if !shards.iter().any(SdIndex::is_mapped) {
            id_census(&shards, rows)?;
            let _ = ids_checked.set(Ok(()));
        }
        Ok(SdEngine {
            dims,
            rows,
            roles,
            shards,
            ids_checked,
            muts: mutation::MutationState::new(dims, rows),
            metrics: EngineMetrics::default(),
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
    /// every shard, then (once) that every shard's ids lie in range — what
    /// a mapped engine runs before its first answer; a no-op for owned
    /// shards.
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        self.shards.iter().try_for_each(SdIndex::verify_integrity)?;
        self.ids_checked
            .get_or_init(|| ids_in_range(&self.shards, self.rows))
            .clone()
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

    /// Per-shard layout, mutation pressure and footprint, in shard order.
    /// Observability: a shard's dead rows are counted over its id column.
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        let dead = &self.muts.tombstones;
        self.shards
            .iter()
            .map(|shard| {
                let ids = shard.row_ids();
                ShardInfo {
                    smallest_id: ids.iter().min().map_or(0, |&id| id as usize),
                    rows: ids.len(),
                    dead_rows: ids.iter().filter(|&&id| dead.get(id as usize)).count(),
                    epoch: self.muts.epoch,
                    memory_bytes: shard.memory_bytes(),
                }
            })
            .collect()
    }

    /// How `query` runs on every shard: one box scan each, its plan
    /// counting the shard's chunks and stored nodes. Observability for `sdq
    /// query --explain` and `sdq inspect`; nothing is executed.
    ///
    /// Reflects how the engine executes: every shard plans like a
    /// standalone [`SdIndex`], and the engine scans all its shards as one
    /// index. The delta region, when
    /// non-empty, additionally executes as an exact scan outside these
    /// per-shard plans (see [`mutation`]). Refuses what
    /// [`SdEngine::query_with`] refuses, with the same error.
    pub fn explain(&self, query: &SdQuery, k: usize) -> Result<Explain, SdError> {
        self.check_query(query, k)?;
        let plans = self
            .shards
            .iter()
            .map(|shard| shard.plan(query))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Explain { plans })
    }

    /// What every query entry — [`SdEngine::query_with`] and
    /// [`SdEngine::explain`] — refuses before looking at a shard: `k = 0`
    /// and a query of another dimensionality than the engine's.
    fn check_query(&self, query: &SdQuery, k: usize) -> Result<(), SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        if query.dims() != self.dims {
            return Err(SdError::DimensionMismatch {
                expected: self.dims,
                got: query.dims(),
            });
        }
        Ok(())
    }

    /// Answers the top-k query, allocating fresh scratch state. Steady-state
    /// callers should prefer [`SdEngine::query_with`].
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = QueryScratch::new();
        Ok(self.query_with(query, k, &mut scratch)?.to_vec())
    }

    /// Answers the top-k query with caller-owned scratch buffers, scanning
    /// every shard on the calling thread as one index. Returns a slice
    /// borrowed from the
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
        scratch: &'s mut QueryScratch,
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
        Ok(scratch.answers())
    }

    fn query_core(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Result<(), SdError> {
        self.check_query(query, k)?;
        self.verify_integrity()?;
        scratch.profile.reset();
        scratch.deadline.check()?;
        // The write path: a dirty engine scans its delta region exactly and
        // masks tombstoned rows out of every shard.
        let mask = if self.muts.tombstones.any() {
            Some(&self.muts.tombstones)
        } else {
            None
        };
        // The query's one floor keeps every live row's score, whoever
        // scored the row — the delta scan or a shard — under the row's
        // global id; its drain is the answer.
        let emitted = scratch.answer_with(k.min(self.len()), |qs, floor| {
            if !self.muts.delta.is_empty() {
                // Delta scan first: its live scores go into the floor, so the
                // shards below terminate against fresh-row candidates exactly
                // like against a sibling shard's.
                sdq_core::delta::scan_delta_into(
                    &self.muts.delta,
                    &self.roles,
                    query,
                    self.rows as u32,
                    mask.map(|m| MaskView::new(m, self.rows as u32)),
                    floor,
                    qs,
                )?;
            }
            // A deleted id does not name its shard, so every part reads the
            // mask when there is one.
            let parts = self.shards.iter().map(|index| ShardPart { index, mask });
            answer_parts(parts, query, qs, floor)?;
            // Each slot's floor updates, credited once the query is answered.
            let mut credits = [0; FLOOR_HIST_SLOTS];
            for (i, &updates) in qs.part_floor_updates().iter().enumerate() {
                credits[i.min(FLOOR_HIST_SLOTS - 1)] += updates;
            }
            self.metrics.record_floor_credits(&credits);
            Ok(())
        })?;
        scratch.profile.merge_rounds = emitted.len() as u64;
        self.metrics.record_query(&scratch.profile);
        Ok(())
    }

    /// Answers a batch of queries in parallel with up to `threads` threads
    /// (`0` = auto, [`resolve_threads`]), one [`QueryScratch`] per thread;
    /// each query runs on one of them, like [`SdEngine::query_with`] on the
    /// thread that calls it. Explicit counts are clamped to
    /// the machine's available parallelism — oversubscribing a batch only
    /// adds scheduler churn (measured: `threads=4` on one core ran ~7%
    /// *slower* than serial). Results keep the input order and are
    /// bit-identical to a serial [`SdEngine::query`] loop; so is the error
    /// when queries fail: the lowest failing index's.
    pub fn par_query_batch(
        &self,
        queries: &[SdQuery],
        k: usize,
        threads: usize,
    ) -> Result<Vec<Vec<ScoredPoint>>, SdError> {
        let threads = resolve_threads(threads).min(resolve_threads(0));
        if threads <= 1 || queries.len() <= 1 {
            let mut scratch = QueryScratch::new();
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
                        let mut scratch = QueryScratch::new();
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
        let mut out: Vec<Result<Vec<ScoredPoint>, SdError>> = vec![Ok(Vec::new()); queries.len()];
        for (i, r) in buckets.into_iter().flatten() {
            out[i] = r;
        }
        out.into_iter().collect()
    }
}

/// Resolves a thread-count argument of [`SdEngine::par_query_batch`] or
/// `sdq query --threads`, and sizes the workers of `build_shards` (engine
/// build and compaction) as `resolve_threads(0)`: `0` means auto — the host's available
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

/// The shards of `data` under `roles`, `shards` of them capped so that
/// none is empty: the [`cells`] of one box order of the rows, whose split's
/// top levels run here over all the rows, each built by
/// [`SdIndex::build_cell`]. No rows, no shards.
fn build_layout(data: &Dataset, roles: &[DimRole], shards: usize) -> Result<Vec<SdIndex>, SdError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let cells = cells(data, shards);
    build_shards(cells.len(), |i| SdIndex::build_cell(data, roles, &cells[i]))
}

/// Runs `build(i)` for every part `i` of `parts`. A shard build reads
/// only its own rows, so the parts are built side by side on up to
/// [`resolve_threads`]`(0)` workers: the calling thread is one, and each
/// worker claims the next unbuilt part, so one larger part leaves no worker
/// idle. With one part or one CPU the calling thread builds every part and
/// nothing is spawned; a worker the OS refuses to start is one fewer, the
/// others claiming its parts. The indexes come back in part order; when
/// builds fail, the error is the lowest failing part's, as a build of one
/// part after another would return.
fn build_shards(
    parts: usize,
    build: impl Fn(usize) -> Result<SdIndex, SdError> + Sync,
) -> Result<Vec<SdIndex>, SdError> {
    // `Relaxed`: the counter only hands out part numbers. A part's inputs
    // are read-only and shared before the workers start, and its index
    // comes back through `join`, which synchronises.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut built = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts {
                return built;
            }
            built.push((i, build(i)));
        }
    };
    let workers = resolve_threads(0).min(parts);
    let mut built = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
        let mut built = work();
        for helper in helpers {
            built.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        built
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    built.into_iter().map(|(_, index)| index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::multidim::QueryPlan;
    use sdq_core::{Deadline, PointId};
    use std::sync::{Barrier, Mutex};

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

    /// A 2-D engine's shards are cells of one box order like any other's:
    /// contiguous runs of the one-shard engine's positions, in order, and
    /// balanced within a chunk, each holding the global ids of its run.
    #[test]
    fn shard_layout_is_contiguous_and_balanced() {
        // 1 000 rows are 16 chunks: the top two cuts leave 8, 8 → 4, 4, 4, 4.
        let (e, one) = (engine(1000, 2, 4), engine(1000, 2, 1));
        let rows: Vec<usize> = e.shard_infos().iter().map(|i| i.rows).collect();
        assert_eq!(rows, [256, 256, 256, 232]);
        let ids: Vec<u32> = e
            .shards()
            .iter()
            .flat_map(|s| s.row_ids().to_vec())
            .collect();
        assert_eq!(ids, one.shards()[0].row_ids());
        for (info, shard) in e.shard_infos().iter().zip(e.shards()) {
            assert_eq!(
                Some(info.smallest_id as u32),
                shard.row_ids().iter().copied().min()
            );
            assert!(info.memory_bytes > 0);
        }
    }

    /// Any other engine's shards are cells of one box order: whole chunks
    /// (the last one aside), at most one a chunk, ids global.
    #[test]
    fn cells_are_whole_chunks_of_one_split() {
        // 1 000 rows are 16 chunks: the top two cuts leave 8, 8 → 4, 4, 4, 4.
        let e = engine(1000, 4, 4);
        let infos = e.shard_infos();
        let rows: Vec<usize> = infos.iter().map(|i| i.rows).collect();
        assert_eq!(rows, [256, 256, 256, 232]);
        assert!(infos.iter().all(|i| i.memory_bytes > 0));
        assert_eq!(engine(103, 4, 4).shard_count(), 2, "one cell a chunk");
    }

    #[test]
    fn a_pair_costs_under_32_bytes_a_row() {
        // Beside its rows a single pair's index, like any other, holds its
        // id column, box tree and first ids: ≈ 4.3 B a row at 2-D, ≈ 4.5
        // at 4-D. A coordinate copy (SoA blocks, a point table, a per-point
        // tree) or a pair's envelope tree (≈ 4 B a row more) cannot hide
        // under 6.
        for dims in [2, 4] {
            let e = engine(20_000, dims, 2);
            let per_row = e.memory_bytes() as f64 / 20_000.0;
            assert!(per_row < 6.0, "{dims}-D: {per_row:.1} B/row");
        }
    }

    #[test]
    fn shards_capped_at_row_count() {
        // At most one shard a 64-row chunk, at 2-D as at any other.
        let e = engine(3, 2, 16);
        assert_eq!(e.shard_count(), 1);
        assert_eq!(e.len(), 3);
        assert_eq!(engine(130, 2, 16).shard_count(), 3);
    }

    /// Every shard scans against the query's one floor, so a shard skips
    /// the chunks that cannot reach the best scores of every shard, not
    /// only its own. On these 4-D queries over eight 5 000-row cells
    /// (seeded: the counts repeat exactly) the engine scores 17 920 rows,
    /// the eight cells each answering alone 114 304. (Eight row-range
    /// shards, each scanned under its own lead, scored 82 784 and 127 352.)
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
        let mut scratch = QueryScratch::new();
        let (mut merged, mut alone) = (0, 0);
        for _ in 0..32 {
            let point = draw(4);
            let weights = draw(4).iter().map(|w| 0.1 + 0.9 * w).collect();
            let query = SdQuery::new(point, weights).unwrap();
            e.query_with(&query, 8, &mut scratch).unwrap();
            merged += scratch.profile.scan_rows;
            for shard in e.shards() {
                shard.query_with(&query, 8, &mut scratch).unwrap();
                alone += scratch.profile.scan_rows;
            }
        }
        assert!(
            4 * merged < alone,
            "{merged} rows scored by the engine, {alone} by its shards alone"
        );
    }

    /// The test above at one lane: 66 rows scored `|x|` (one repulsive
    /// dimension), two shards. The cut puts the 64 smallest values in shard
    /// 0 (the 5 and the 6 among zeros, a chunk bounded by 6) and the 9 and
    /// the 10 in shard 1. The query's one lead crosses shards: it scores
    /// shard 1's chunk first, whatever the shard order, and at k = 2 its 9
    /// and 10 are the answer — the 5 and the 6 are under that union floor,
    /// and shard 0's chunk is skipped unread.
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
        let mut scratch = QueryScratch::new();
        let got = e.query_with(&q, 2, &mut scratch).unwrap();
        let got: Vec<(u32, f64)> = got.iter().map(|sp| (sp.id.raw(), sp.score)).collect();
        assert_eq!(got, [(0, 10.0), (33, 9.0)]);
        let p = scratch.profile;
        assert_eq!(e.shard_infos()[1].rows, 2);
        assert_eq!(p.parts_scanned, 2, "both shards scan");
        assert_eq!((p.chunks_scored, p.chunks_skipped), (1, 1));
        assert_eq!(p.points_scored, 2);
        assert_eq!(p.floor_value, 9.0);
    }

    /// Every shard count answers what the index over all the rows does,
    /// and — the shards being cells of its box order, scanned under one
    /// lead — visits the same chunks: every counter of the query is the
    /// index's, `parts_scanned` and `merge_rounds` (the engine's alone)
    /// aside.
    #[test]
    fn sharded_matches_unsharded() {
        let (data, roles) = sample(500, 4);
        let mono = SdIndex::build(data.clone(), &roles).unwrap();
        let query = SdQuery::uniform_weights(vec![0.0, 1.0, 2.0, 3.0], &roles);
        let mut mono_scratch = QueryScratch::new();
        let want = mono
            .query_with(&query, 12, &mut mono_scratch)
            .unwrap()
            .to_vec();
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
            let mut scratch = QueryScratch::new();
            let got = e.query_with(&query, 12, &mut scratch).unwrap();
            assert_eq!(got.len(), want.len(), "shards = {shards}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "shards = {shards}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "shards = {shards}");
            }
            let counters = mono_scratch.profile.counters();
            for ((name, got), (_, want)) in scratch.profile.counters().into_iter().zip(counters) {
                if name != "merge_rounds" && name != "parts_scanned" {
                    assert_eq!(got, want, "shards = {shards}: {name}");
                }
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
        let e = engine(300, 3, 4);
        let rebuilt = SdEngine::from_parts(3, e.roles().to_vec(), e.shards().to_vec()).unwrap();
        assert_eq!(rebuilt.len(), e.len());
        for (a, b) in rebuilt.shards().iter().zip(e.shards()) {
            assert_eq!(a.data().flat(), b.data().flat());
        }
        assert_eq!(rebuilt.shard_count(), 4);
        let q = SdQuery::uniform_weights(vec![0.5, 1.5, -3.0], e.roles());
        assert_eq!(e.query(&q, 7).unwrap(), rebuilt.query(&q, 7).unwrap());
    }

    /// A pair's shard a library caller built and assembled — one 2-D index
    /// over every row, no angles to choose: a 2-D shard is a cell of a box
    /// order like any other — answers as the engine does, and a compaction
    /// rebuilds it as the engine builds.
    #[test]
    fn a_pair_over_other_angles_answers_and_compacts_to_the_default() {
        let (data, roles) = sample(300, 2);
        let shard = SdIndex::build(data.clone(), &roles).unwrap();
        let mut e = SdEngine::from_parts(2, roles.clone(), vec![shard]).unwrap();
        let fresh = |shards| {
            let options = EngineOptions {
                shards,
                ..EngineOptions::default()
            };
            SdEngine::build_with(data.clone(), &roles, &options).unwrap()
        };
        let q = SdQuery::new(vec![0.5, 1.5], vec![0.3, 1.0]).unwrap();
        let want = fresh(1).query(&q, 9).unwrap();
        assert_eq!(e.query(&q, 9).unwrap(), want);
        let report = e
            .compact_with(&CompactionOptions { shards: Some(2) })
            .unwrap();
        assert_eq!(report.rebuilt_shards, 2);
        assert_eq!(e.query(&q, 9).unwrap(), want);
        for (got, want) in e.shards().iter().zip(fresh(2).shards()) {
            assert_eq!(encoded(got), encoded(want));
        }
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

    /// The chunks a box scan's plan bounds under its tree.
    fn scan_chunks(plan: &QueryPlan) -> usize {
        let QueryPlan::Scan { chunks, .. } = plan;
        *chunks
    }

    #[test]
    fn explain_reports_per_shard_plans() {
        // 400 rows are 7 chunks: the top two cuts leave 4, 3 → 2, 2, 2, 1.
        let e = engine(400, 4, 4);
        let q = SdQuery::uniform_weights(vec![0.0; 4], e.roles());
        let plans = e.explain(&q, 8).unwrap().plans;
        let chunks: Vec<usize> = plans.iter().map(scan_chunks).collect();
        assert_eq!(chunks, [2, 2, 2, 1]);
        // A 2-D engine scans its cells too: three of the four subtrees
        // 2, 2, 2, 1, the last two in one cell.
        let e = engine(400, 2, 3);
        let q = SdQuery::uniform_weights(vec![0.0; 2], e.roles());
        let plans = e.explain(&q, 8).unwrap().plans;
        let chunks: Vec<usize> = plans.iter().map(scan_chunks).collect();
        assert_eq!(chunks, [2, 2, 3]);
    }

    #[test]
    fn explain_refuses_what_a_query_refuses() {
        // `k = 0` on an engine with shards, and a query of the wrong
        // dimensionality on one without any (no shard plan to catch it):
        // `explain` says no exactly where `query` does.
        let e = engine(400, 4, 4);
        let empty = SdEngine::from_parts(4, e.roles().to_vec(), Vec::new()).unwrap();
        let q4 = SdQuery::uniform_weights(vec![0.0; 4], e.roles());
        let q3 = SdQuery::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let wrong_dims = SdError::DimensionMismatch {
            expected: 4,
            got: 3,
        };
        for (engine, q, k, want) in [
            (&e, &q4, 0, SdError::ZeroK),
            (&empty, &q4, 0, SdError::ZeroK),
            (&empty, &q3, 8, wrong_dims.clone()),
            (&e, &q3, 8, wrong_dims),
        ] {
            assert_eq!(engine.explain(q, k).unwrap_err(), want);
            assert_eq!(engine.query(q, k).unwrap_err(), want);
        }
    }

    /// What once started lost — a shape whose streams kept losing to the
    /// scan (200-row shards under k = 64) — now starts in the scan on every
    /// engine that serves it: the engine, a clone of it and an engine
    /// reassembled from the same shards scan every shard from their first
    /// query on, counter for counter, to the same answer. No query leaves
    /// state that a later one, or a clone, reads.
    #[test]
    fn a_shape_that_keeps_scanning_starts_lost_on_every_clone() {
        let e = engine(800, 6, 4);
        let q = SdQuery::uniform_weights(vec![0.5; 6], e.roles());
        let mut scratch = QueryScratch::new();
        let want = e.query_with(&q, 64, &mut scratch).unwrap().to_vec();
        let first = scratch.profile;
        assert_eq!((first.rounds, first.parts_scanned), (0, 4));
        assert_eq!(first.rows_fetched, first.scan_rows, "{first:?}");
        let twin = e.clone();
        let rebuilt = SdEngine::from_parts(6, e.roles().to_vec(), e.shards().to_vec()).unwrap();
        for (name, engine) in [("twin", &twin), ("rebuilt", &rebuilt), ("itself", &e)] {
            for _ in 0..3 {
                let got = engine.query_with(&q, 64, &mut scratch).unwrap();
                assert_eq!(got, &want[..], "{name}");
                assert_eq!(scratch.profile, first, "{name}");
            }
        }
    }

    /// `explain` names the box scan each shard of an aggregating engine
    /// runs and the chunks it bounds; the query then scores some of them
    /// and leaves the rest unread, certified under the floor. Over four
    /// cells of 20 000 random 4-D rows (313 chunks: 79, 78, 78, 78): every
    /// plan is a scan of the shard's chunks, the query's scored and skipped
    /// chunks are exactly the plans' chunks, and the floor certifies some.
    #[test]
    fn explain_names_the_audit_and_what_a_certifying_one_leaves() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let rows: Vec<Vec<f64>> = (0..20_000)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
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
                shards: 4,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let mut scratch = QueryScratch::new();
        for _ in 0..8 {
            let point = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
            let weights = (0..4).map(|_| rng.gen_range(0.1..1.0)).collect();
            let q = SdQuery::new(point, weights).unwrap();
            let plans = e.explain(&q, 16).unwrap().plans;
            let chunks: Vec<usize> = plans.iter().map(scan_chunks).collect();
            assert_eq!(chunks, [79, 78, 78, 78]);
            // 313 chunks make 16 groups of 19 or 20, four a cell; a group of
            // at most 256 chunks is bounded by its chunks, so only its top
            // node is stored: 4 nodes in the first cell, 36 B each (a box and
            // a first id), and 8 B of codes a chunk.
            assert_eq!(
                plans[0].to_string(),
                "box scan over 79 chunk(s) under 4 node(s) on 1 stored level(s), \
                 776 B of node boxes and codes"
            );
            e.query_with(&q, 16, &mut scratch).unwrap();
            let p = scratch.profile;
            assert_eq!(p.chunks_scored + p.chunks_skipped, 313);
            assert!(p.chunks_skipped > 0, "{p:?}");
        }
    }

    /// A query that a deadline ends counts in no metric: not as served,
    /// not in any shard's floor credit — only as a deadline exceeded.
    #[test]
    fn a_deadline_aborted_query_records_nothing() {
        let e = engine(800, 6, 4);
        let q = SdQuery::uniform_weights(vec![0.5; 6], e.roles());
        let mut scratch = QueryScratch::new();
        e.query_with(&q, 64, &mut scratch).unwrap();
        let before = e.metrics().snapshot();
        let token = sdq_core::CancelToken::new();
        token.cancel();
        scratch.deadline = Deadline::cancelled_by(&token);
        assert!(matches!(
            e.query_with(&q, 64, &mut scratch),
            Err(SdError::Cancelled)
        ));
        scratch.deadline = Deadline::none();
        let after = e.metrics().snapshot();
        assert_eq!(after.queries_served, before.queries_served);
        assert_eq!(after.floor_contributions, before.floor_contributions);
        assert_eq!(after.deadline_exceeded, before.deadline_exceeded + 1);
    }

    /// A 2-D scan reads nothing an earlier query left: its answer and
    /// profile on a 2-D engine are the same before and after any number of
    /// scans and all-zero-weight scans on that engine, and on a clone of it.
    #[test]
    fn a_walk_never_consults_the_history() {
        let e = engine(4_000, 2, 4);
        let q = SdQuery::uniform_weights(vec![0.0, 1.0], e.roles());
        let both_zero = SdQuery::new(vec![0.0, 1.0], vec![0.0, 0.0]).unwrap();
        let mut scratch = QueryScratch::new();
        let want = e.query_with(&q, 16, &mut scratch).unwrap().to_vec();
        let walk = scratch.profile;
        assert_eq!(walk.parts_scanned, 4, "a scan of every cell");
        assert_eq!(walk.blocks_popped, 0, "{walk:?}");
        let twin = e.clone();
        for _ in 0..8 {
            e.query_with(&both_zero, 16, &mut scratch).unwrap();
            assert_eq!(scratch.profile.parts_scanned, 4, "an all-zero query scans");
            for engine in [&e, &twin] {
                let got = engine.query_with(&q, 16, &mut scratch).unwrap();
                assert_eq!(got, &want[..]);
                assert_eq!(scratch.profile, walk);
            }
        }
    }

    #[test]
    fn batch_matches_serial() {
        let e = engine(300, 4, 3);
        let queries: Vec<SdQuery> = (0..9)
            .map(|i| {
                SdQuery::new(vec![i as f64, 1.0, -2.0, 0.5], vec![1.0, 0.5, 2.0, 0.0]).unwrap()
            })
            .collect();
        // A 2-D engine's batch with two wrong-dimensional queries: on two
        // workers the 5-D one is the first failure of the first worker's
        // share, but the 3-D one comes first in input order.
        let flat = engine(40, 2, 2);
        let mixed: Vec<SdQuery> = [2, 3, 5, 2]
            .into_iter()
            .map(|dims| SdQuery::new(vec![0.5; dims], vec![1.0; dims]).unwrap())
            .collect();
        for (e, queries, k) in [(&e, &queries, 6), (&flat, &mixed, 4)] {
            let serial: Result<Vec<_>, _> = queries.iter().map(|q| e.query(q, k)).collect();
            for threads in [0, 1, 2, 4] {
                let batch = e.par_query_batch(queries, k, threads);
                assert_eq!(batch, serial, "threads = {threads}");
            }
        }
    }

    fn encoded(index: &SdIndex) -> Vec<u8> {
        sdq_core::codec::encode_to_vec(index)
    }

    /// Every shard of `e` encodes to the bytes of the cell of `flat`'s box
    /// order built alone — what building the cells one after another on
    /// one thread gives.
    fn assert_shards_built_alone(e: &SdEngine, flat: &[f64], ctx: &str) {
        let data = Dataset::from_flat(e.dims, flat.to_vec()).unwrap();
        let cells = cells(&data, e.shard_count());
        assert_eq!(cells.len(), e.shard_count(), "{ctx}");
        for (s, (shard, cell)) in e.shards.iter().zip(&cells).enumerate() {
            let alone = SdIndex::build_cell(&data, &e.roles, cell).unwrap();
            assert_eq!(encoded(shard), encoded(&alone), "{ctx}: shard {s}");
        }
    }

    #[test]
    fn concurrent_shard_builds_encode_like_lone_builds() {
        let (data, _) = sample(1009, 4);
        for shards in [1, 4, 7] {
            let e = engine(1009, 4, shards);
            assert_eq!(e.shard_count(), shards);
            assert_shards_built_alone(&e, data.flat(), &format!("{shards} shards"));
        }
    }

    /// Compaction is one path: deletes and inserts anywhere rebuild every
    /// shard, as a fresh build over the live rows builds them — at the
    /// engine's shard count, or at a new one.
    #[test]
    fn compaction_of_dirty_shards_matches_a_fresh_build() {
        let mut e = engine(400, 4, 4);
        for id in [3, 50, 99, 210, 211] {
            e.delete(PointId::new(id)).unwrap();
        }
        for i in 0..6 {
            let row: Vec<f64> = (0..4)
                .map(|d| (i * 7 + d * 3) as f64 * 0.21 - 4.0)
                .collect();
            e.insert(&row).unwrap();
        }
        e.delete(PointId::new(402)).unwrap();
        for shards in [None, Some(3)] {
            let live = e.live_rows().unwrap();
            let report = e.compact_with(&CompactionOptions { shards }).unwrap();
            assert_eq!(report.rebuilt_shards, e.shard_count());
            assert!(e.shard_infos().iter().all(|i| i.epoch == e.epoch()));
            assert_shards_built_alone(&e, &live, &format!("{shards:?}"));
            let fresh = SdEngine::build_with(
                Dataset::from_flat(4, live).unwrap(),
                &e.roles,
                &EngineOptions {
                    shards: shards.unwrap_or(4),
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            for (s, (got, want)) in e.shards.iter().zip(&fresh.shards).enumerate() {
                assert_eq!(encoded(got), encoded(want), "{shards:?}: shard {s}");
            }
            e.delete(PointId::new(7)).unwrap();
            e.insert(&[0.5, -1.0, 2.0, 0.25]).unwrap();
        }
    }

    /// `W + 1` parts on the `W` workers, made to interleave: each worker
    /// holds one of the first `W` parts until all of them are in flight,
    /// then the helpers' parts are held until the calling thread, the one
    /// worker let go, has claimed part `W` too. The calling thread's list,
    /// which comes first, is then `[c, W]`, out of part order whatever `c`
    /// is; the indexes, and the error when builds fail, must still follow
    /// part order. (One CPU is one worker: nothing interleaves.)
    #[test]
    fn parts_come_back_in_part_order_whichever_worker_built_them() {
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let workers = resolve_threads(0);
        let interleave = workers >= 2;
        let caller = std::thread::current().id();
        let rows = |i: usize| (0..2 * 2).map(|v| (i * 4 + v) as f64).collect::<Vec<f64>>();
        // With `fail`, part `W` fails at its row 0 and every part a helper
        // builds fails at its row 1. Returns what the calling thread built.
        let build = |fail: bool| {
            let (in_flight, claimed) = (Barrier::new(workers), Barrier::new(workers));
            let by_caller = Mutex::new(Vec::new());
            let got = build_shards(workers + 1, |i| {
                let on_caller = std::thread::current().id() == caller;
                if on_caller {
                    by_caller.lock().unwrap().push(i);
                }
                if interleave {
                    if i < workers {
                        in_flight.wait();
                    }
                    if i == workers || !on_caller {
                        claimed.wait();
                    }
                }
                let mut flat = rows(i);
                if fail && (i == workers || !on_caller) {
                    flat[usize::from(i < workers) * 2 + 1] = 1e300;
                }
                SdIndex::build(Dataset::from_flat(2, flat)?, &roles)
            });
            (got, by_caller.into_inner().unwrap())
        };
        let (ok, by_caller) = build(false);
        assert!(
            by_caller.len() == 2 && by_caller[1] == workers,
            "the calling thread built {by_caller:?}"
        );
        let ok = ok.unwrap();
        assert_eq!(ok.len(), workers + 1);
        for (i, index) in ok.iter().enumerate() {
            assert_eq!(
                index.rows_by_id().unwrap().flat(),
                rows(i).as_slice(),
                "part {i}"
            );
        }
        // The lowest failing part is a helper's (row 1), though the calling
        // thread's failed part `W` (row 0) is the first failure it holds.
        // On one worker only part `W` fails.
        let want_row = usize::from(interleave);
        let got = build(true).0.err();
        assert!(
            matches!(
                got,
                Some(SdError::CoordinateOutOfRange { row, dim: 1, .. }) if row == want_row
            ),
            "{got:?}"
        );
        assert!(build_shards(0, |_| unreachable!()).unwrap().is_empty());
    }
}
