//! The four workloads and the one pipeline that runs them.
//!
//! A workload is a dataset, an engine configuration and a *lap*: a fixed
//! number of read rounds, cold-open cycles and mutation cycles, and in
//! every fourth lap one more set-up. A run sets up, then repeats the lap
//! until `--seconds` have been measured, so every metric samples the whole
//! run instead of one slice of it (this host's speed shifts by a quarter or
//! more for seconds at a time; a lap of a second or less puts every metric
//! through the same mix, twenty to seventy times over). Counts inside a lap
//! never depend on time, so the counters of lap 0 repeat exactly for one
//! seed.
//!
//! Closed loop, one client, one thread: the next call is issued when the
//! previous one has returned. The two-thread paths are probed in the traced
//! run only (`layers::engine_comparisons`): on a two-core shared host they
//! measure the scheduler.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::api::{
    generate, uniform_queries, CrcState, Dataset, DimRole, DiskStorage, Distribution,
    DurableEngine, DurableOptions, EngineOptions, EngineScratch, PointId, QueryProfile,
    ScoredPoint, SdEngine, SdQuery, Snapshot, SyncPolicy,
};
use crate::metrics::Metrics;
use crate::oracle::{Reference, Shadow};
use crate::stats::{median, nanos_since, quantile, ratio, Rng};
use crate::trace::{Tracer, NO_PARENT};

/// Which stream of queries is the workload's own: it feeds `query_p50_us`,
/// `query_p95_us`, the per-query counters and `trace.overhead_pct`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Native {
    /// Rounds over the distinct queries on the clean engine, `threads=1`.
    Read,
    /// The queries of the mutation script, on the durable engine.
    Mixed,
    /// The follow-up queries of each mapped cold-open cycle.
    Cold,
}

/// What one lap executes; see the module docs.
pub struct Lap {
    /// Rounds of `query_with` over every distinct query, `threads=1`.
    pub read_rounds: usize,
    /// `open_mapped` → first answer → `followups` queries → drop.
    pub mapped_cycles: usize,
    pub followups: usize,
    /// `load` → first answer → drop.
    pub owned_cycles: usize,
    /// Mutation cycles, each of:
    pub cycles: usize,
    /// [`SLICE_OPS`]-op slices of the mutation script, which ends in
    /// `compact()`.
    pub cycle_slices: usize,
    /// Slices whose writes are appended after the compaction and left in
    /// the WAL for recovery.
    pub tail_slices: usize,
    /// `DurableEngine::open` calls replaying that tail.
    pub opens: usize,
    /// Queries checked against the shadow rows on the recovered store.
    pub checks: usize,
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub dist: Distribution,
    pub rows: usize,
    /// The snapshot and the durable store of a workload whose own phase
    /// uses neither hold the first `store_rows` rows of the dataset.
    pub store_rows: usize,
    /// `a` attractive, `r` repulsive; the length is the dimensionality.
    pub roles: &'static str,
    pub k: usize,
    pub distinct: usize,
    pub native: Native,
    pub lap: Lap,
}

pub const SHARDS: usize = 4;
pub const SYNC_EVERY: u32 = 32;
/// One slice of the mutation script: 80% queries, 15% inserts, 5% deletes
/// in seeded order. Its 32 writes are one group commit under
/// `EveryN(32)`, so every slice is the same work, one fsync included.
const SLICE_QUERIES: usize = 128;
const SLICE_INSERTS: usize = 24;
const SLICE_DELETES: usize = 8;
const SLICE_WRITES: usize = SLICE_INSERTS + SLICE_DELETES;
pub const SLICE_OPS: usize = SLICE_QUERIES + SLICE_WRITES;

#[derive(Clone, Copy)]
enum Op {
    /// The distinct query to run.
    Query(usize),
    Insert,
    Delete,
}

/// The ops of one mutation cycle before its compaction, the same in every
/// cycle of a run: each op is then one piece of work repeated cycle after
/// cycle, like a distinct query round after round. The queries go through
/// the distinct ones in turn; each slice is shuffled.
fn cycle_script(rng: &mut Rng, slices: usize, distinct: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(slices * SLICE_OPS);
    for slice in 0..slices {
        let start = ops.len();
        ops.extend((0..SLICE_QUERIES).map(|q| Op::Query((slice * SLICE_QUERIES + q) % distinct)));
        ops.extend([Op::Insert; SLICE_INSERTS]);
        ops.extend([Op::Delete; SLICE_DELETES]);
        for i in (start + 1..ops.len()).rev() {
            ops.swap(i, start + rng.below(i - start + 1));
        }
    }
    ops
}

/// Quantiles over repetitions; see [`Run::end_to_end`]. `LOW` summarises the
/// mapped opens, `BEST` the repetitions of one distinct query or scripted
/// op, the recoveries, the owned loads and the compaction stalls.
const LOW: f64 = 0.1;
const BEST: f64 = 0.0;
/// The set-up is timed again in every `SETUP_EVERY`-th lap: six to eighteen
/// times a run.
const SETUP_EVERY: usize = 4;

/// Per-lap counts are chosen so that a lap takes 0.4-1.3 s, the workload's
/// own phase takes half of it or more, and a run repeats every other phase
/// twenty times or more: a compaction, an owned load or a recovery takes
/// 20-150 ms and cannot be timed in parts, so what finds this host's quiet
/// moments for them is the number of tries. One mutation cycle per lap: a
/// compaction that starts within half a second of the last one waits for
/// the disk to finish with that one's checkpoint (150 ms and 450 ms
/// alternating on `direct_2d`).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "direct_2d",
        why: "200k x 2-D, one pair, 0.03 ms/query, 120 rows fetched: fixed per-query cost (plan, scheduler, merge, telemetry, allocation) dominates; kernel and aggregation changes must not move it",
        dist: Distribution::Uniform,
        rows: 200_000,
        // An owned load or a recovery of all 200k rows takes 45-60 ms, and
        // this host runs that long at its quiet speed in some runs and not
        // in others (44 ms or 57 ms, nothing between); at 20-25 ms every
        // run has such repetitions.
        store_rows: 100_000,
        roles: "ar",
        k: 16,
        distinct: 4096,
        native: Native::Read,
        lap: Lap {
            read_rounds: 2,
            mapped_cycles: 4,
            followups: 0,
            owned_cycles: 2,
            cycles: 1,
            cycle_slices: 3,
            tail_slices: 3,
            opens: 2,
            checks: 4,
        },
    },
    Spec {
        name: "agg_6d",
        why: "100k x 6-D anti-correlated, k=64, 2 ms/query, 44% of rows fetched, working set beyond L2: frontier walk, lane masking, gather and kernels dominate; overhead-only changes must not move it",
        dist: Distribution::AntiCorrelated,
        // The issue's 500k rows cost 15 ms per query: seven rounds in a
        // run, too few to find this host's quiet moments (spread 13-31%,
        // and still 10-13% at 200k rows and ten rounds).
        rows: 100_000,
        store_rows: 100_000,
        roles: "aaaarr",
        k: 64,
        distinct: 256,
        native: Native::Read,
        lap: Lap {
            read_rounds: 1,
            mapped_cycles: 6,
            followups: 0,
            owned_cycles: 2,
            cycles: 1,
            cycle_slices: 1,
            tail_slices: 3,
            opens: 2,
            checks: 4,
        },
    },
    Spec {
        name: "mixed_rw_4d",
        why: "100k x 4-D in a DurableEngine on disk, 80/15/5 query/insert/delete with compaction, checkpoint and recovery: a read-path gain paid for in writes, stalls or recovery shows here",
        dist: Distribution::Uniform,
        rows: 100_000,
        store_rows: 100_000,
        roles: "arra",
        k: 16,
        distinct: 256,
        native: Native::Mixed,
        lap: Lap {
            read_rounds: 0,
            mapped_cycles: 8,
            followups: 0,
            owned_cycles: 2,
            cycles: 1,
            cycle_slices: 12,
            tail_slices: 12,
            opens: 3,
            checks: 64,
        },
    },
    Spec {
        name: "cold_open_4d",
        why: "the same 100k x 4-D engine as a 19 MB v5 file, opened mapped and owned over and over: store, codec and lazy CRC do the work and the executor almost none",
        dist: Distribution::Uniform,
        rows: 100_000,
        store_rows: 100_000,
        roles: "arra",
        k: 16,
        distinct: 256,
        native: Native::Cold,
        lap: Lap {
            read_rounds: 0,
            mapped_cycles: 40,
            followups: 15,
            owned_cycles: 12,
            cycles: 1,
            cycle_slices: 2,
            tail_slices: 3,
            opens: 2,
            checks: 8,
        },
    },
];

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every size and count ÷ 20, one lap.
    pub smoke: bool,
    /// `benchmark/out`: stores, snapshots and span files live here.
    pub out_dir: PathBuf,
    /// `min(2, nproc)`: the traced run's two-thread probes and the oracle
    /// pass use it; nothing that feeds an end-to-end metric does.
    pub threads: usize,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub laps: usize,
    /// Wall seconds of set-up and store preparation, and of the laps.
    pub prepare_s: f64,
    pub measure_s: f64,
    pub metrics: Metrics,
    /// `(spans written, spans dropped)` of a traced run.
    pub spans: Option<(usize, u64)>,
}

const SNAP_FILE: &str = "snapshot.sdq";
const STORE_FILE: &str = "store.sdq";

fn parse_roles(spec: &str) -> Vec<DimRole> {
    spec.chars()
        .map(|c| match c {
            'a' => DimRole::Attractive,
            _ => DimRole::Repulsive,
        })
        .collect()
}

fn durable_options() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::EveryN(SYNC_EVERY),
    }
}

/// `map_err` adapter: names the call that failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Samples of every phase; the end-to-end metrics are computed from them
/// when the last lap has run.
#[derive(Default)]
struct Samples {
    /// Every timed set-up: the one the run uses, then one per lap.
    setup_s: Vec<f64>,
    /// Per distinct query, every latency of it in the native stream (ns).
    native_ns: Vec<Vec<f64>>,
    open_mapped_ms: Vec<f64>,
    first_query_mapped_ms: Vec<f64>,
    mapped_first_answer_ms: Vec<f64>,
    load_owned_ms: Vec<f64>,
    owned_first_answer_ms: Vec<f64>,
    /// Acknowledged inserts and deletes (ns).
    write_ns: Vec<f64>,
    /// Writes that did not fsync (traced runs only).
    append_ns: Vec<f64>,
    /// Per op of a cycle's script, the best time any cycle gave it (ns).
    script_best_ns: Vec<f64>,
    compact_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    replay_per_s: Vec<f64>,
}

/// Sum of the profiles of lap 0's native queries.
pub struct ProfileSum {
    pub queries: u64,
    /// The traced share of them: the only ones with stage times.
    pub timed_queries: u64,
    pub counters: QueryProfile,
    pub delta_scan_nanos: u64,
    pub aggregate_nanos: u64,
    pub merge_nanos: u64,
}

/// WAL and checkpoint traffic of lap 0's mutation cycle.
#[derive(Default)]
pub struct WalLap {
    pub records: u64,
    pub bytes: u64,
    pub fsyncs: u64,
    pub inserts: u64,
    pub checkpoint_bytes: u64,
}

/// Which rows an answer came from.
#[derive(Clone, Copy)]
pub enum Over {
    /// The clean engine over the whole dataset.
    Base,
    /// The snapshot of the first `store_rows` rows.
    Store,
}

pub struct Run<'a> {
    pub spec: &'a Spec,
    pub opts: &'a RunOptions,
    pub lap: Lap,
    pub roles: Vec<DimRole>,
    pub data: Arc<Dataset>,
    pub store_rows: usize,
    data_seed: u64,
    pub queries: Vec<SdQuery>,
    /// The clean engine, `threads=1`.
    pub engine: SdEngine,
    pub scratch: EngineScratch,
    pub snap_path: PathBuf,
    pub store_dir: PathBuf,
    /// Where the set-ups repeated inside the laps write.
    again_dir: PathBuf,
    pub durable: Option<DurableEngine>,
    /// Rows the durable store should hold.
    shadow: Shadow,
    /// The first answers of the clean engine and of the snapshot.
    base: Reference,
    store: Reference,
    /// Draws the inserted rows and the deleted ids.
    rng: Rng,
    script: Vec<Op>,
    mapped_cursor: usize,
    lap_index: usize,
    pub tracer: Tracer,
    s: Samples,
    pub profile: ProfileSum,
    pub wal: WalLap,
    /// Native-query latency totals of untraced `[0]` and traced `[1]` laps.
    native_ns: [f64; 2],
    native_ops: [u64; 2],
    pub regions: (usize, usize),
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

struct Built {
    data: Arc<Dataset>,
    engine: SdEngine,
    durable: Option<DurableEngine>,
    seconds: f64,
}

fn engine_options() -> EngineOptions {
    EngineOptions {
        shards: SHARDS,
        threads: 1,
        ..EngineOptions::default()
    }
}

/// Generate, build, and write the workload's own store — everything before
/// the first measured operation.
fn set_up(
    spec: &Spec,
    rows: usize,
    roles: &[DimRole],
    data_seed: u64,
    snap_path: &Path,
    store_dir: &Path,
) -> Result<Built, String> {
    let t0 = Instant::now();
    let data = Arc::new(generate(spec.dist, rows, roles.len(), data_seed));
    let engine = SdEngine::build_with(Arc::clone(&data), roles, &engine_options())
        .map_err(err("build_with"))?;
    let (engine, durable) = match spec.native {
        Native::Read => (Some(engine), None),
        Native::Cold => (Some(save_snapshot(snap_path, engine)?), None),
        // The durable wrapper owns its engine; the clean one is cloned back
        // out after the clock stops.
        Native::Mixed => (None, Some(create_store(store_dir, engine)?)),
    };
    let seconds = t0.elapsed().as_secs_f64();
    let engine = match (engine, &durable) {
        (Some(engine), _) => engine,
        (None, Some(durable)) => durable.engine().clone(),
        (None, None) => unreachable!("one of the two holds the engine"),
    };
    Ok(Built {
        data,
        engine,
        durable,
        seconds,
    })
}

fn create_store(dir: &Path, engine: SdEngine) -> Result<DurableEngine, String> {
    let storage = DiskStorage::new(dir).map_err(err("store dir"))?;
    DurableEngine::create(storage, STORE_FILE, engine, durable_options())
        .map_err(err("DurableEngine::create"))
}

/// `save_v5` takes the engine by value inside a `Snapshot`; hand it back.
fn save_snapshot(path: &Path, engine: SdEngine) -> Result<SdEngine, String> {
    let mut snap = Snapshot {
        engine: Some(engine),
        ..Snapshot::default()
    };
    snap.save_v5(path).map_err(err("save_v5"))?;
    Ok(snap.engine.take().expect("engine was just stored"))
}

fn file_len(path: &Path) -> Result<u64, String> {
    Ok(std::fs::metadata(path).map_err(err("stat"))?.len())
}

impl<'a> Run<'a> {
    /// Sets up (timed), then writes the stores the workload's non-native
    /// phases need, untimed.
    pub fn prepare(spec: &'a Spec, opts: &'a RunOptions) -> Result<Self, String> {
        let scale = if opts.smoke { 20 } else { 1 };
        let down = |n: usize| if n == 0 { 0 } else { (n / scale).max(1) };
        let rows = spec.rows / scale;
        let store_rows = spec.store_rows / scale;
        let distinct = (spec.distinct / scale).max(16);
        let l = &spec.lap;
        let lap = Lap {
            read_rounds: down(l.read_rounds),
            mapped_cycles: down(l.mapped_cycles),
            followups: l.followups,
            owned_cycles: down(l.owned_cycles),
            cycles: down(l.cycles),
            cycle_slices: down(l.cycle_slices),
            tail_slices: down(l.tail_slices),
            opens: down(l.opens),
            checks: down(l.checks).max(4),
        };
        let roles = parse_roles(spec.roles);
        let dims = roles.len();

        let mut seeds = Rng::new(opts.seed);
        let data_seed = seeds.next_u64();
        let query_seed = seeds.next_u64();
        let script_seed = seeds.next_u64();

        // One directory per process, so concurrent runs do not collide.
        let dir = opts
            .out_dir
            .join(format!("work-{}-{}", spec.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("work dir"))?;
        let snap_path = dir.join(SNAP_FILE);
        let store_dir = dir.join("store");
        let again_dir = dir.join("again");
        std::fs::create_dir_all(&again_dir).map_err(err("work dir"))?;

        let mut metrics = Metrics::default();
        let Built {
            data,
            engine,
            durable,
            seconds,
        } = set_up(spec, rows, &roles, data_seed, &snap_path, &store_dir)?;

        // Every workload's cold phases read this file. `cold_open_4d` already
        // wrote it inside its set-up; writing it again times `save_v5` alone.
        // A workload whose own phase is the store's measures the whole of it.
        assert!(spec.native == Native::Read || store_rows == rows);
        let store_flat = data.flat()[..store_rows * dims].to_vec();
        let store_engine = if store_rows == rows {
            engine.clone()
        } else {
            let prefix = Dataset::from_flat(dims, store_flat.clone()).map_err(err("store rows"))?;
            SdEngine::build_with(Arc::new(prefix), &roles, &engine_options())
                .map_err(err("build store"))?
        };
        let t0 = Instant::now();
        let store_engine = save_snapshot(&snap_path, store_engine)?;
        metrics.set("store.save_v5_ms", nanos_since(t0) / 1e6, 1);
        let durable = match durable {
            Some(d) => d,
            None => create_store(&store_dir, store_engine)?,
        };
        let queries = uniform_queries(distinct, dims, query_seed);
        let mut rng = Rng::new(script_seed);
        let script = cycle_script(&mut rng, lap.cycle_slices, distinct);
        let slots = script.len();
        Ok(Run {
            spec,
            opts,
            lap,
            shadow: Shadow::new(dims, store_flat.clone()),
            base: Reference::new(dims, data.flat().to_vec(), distinct),
            store: Reference::new(dims, store_flat, distinct),
            roles,
            data,
            store_rows,
            data_seed,
            queries,
            engine,
            scratch: EngineScratch::new(),
            snap_path,
            store_dir,
            again_dir,
            durable: Some(durable),
            script,
            rng,
            mapped_cursor: 0,
            lap_index: 0,
            tracer: Tracer::new(opts.trace),
            s: Samples {
                setup_s: vec![seconds],
                native_ns: vec![Vec::new(); distinct],
                script_best_ns: vec![f64::INFINITY; slots],
                ..Samples::default()
            },
            profile: ProfileSum {
                queries: 0,
                timed_queries: 0,
                counters: QueryProfile::new(),
                delta_scan_nanos: 0,
                aggregate_nanos: 0,
                merge_nanos: 0,
            },
            wal: WalLap::default(),
            native_ns: [0.0; 2],
            native_ops: [0; 2],
            regions: (0, 0),
            attempted: 0,
            failed: 0,
            metrics,
        })
    }

    /// The same set-up again, into a directory of its own: `setup_s` is
    /// sampled through the whole run like every other metric.
    fn set_up_again(&mut self) -> Result<(), String> {
        let built = set_up(
            self.spec,
            self.data.len(),
            &self.roles,
            self.data_seed,
            &self.again_dir.join(SNAP_FILE),
            &self.again_dir,
        )?;
        self.s.setup_s.push(built.seconds);
        self.attempted += 1;
        Ok(())
    }

    pub fn rows(&self) -> usize {
        self.data.len()
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("FAILED [{}]: {what}", self.spec.name);
    }

    /// Checks an answer to distinct query `qi`, by any execution path,
    /// against the first one the same rows gave (which the oracle checks
    /// when the run ends).
    pub fn check(&mut self, over: Over, qi: usize, answer: &[ScoredPoint], what: &str) {
        self.attempted += 1;
        let reference = match over {
            Over::Base => &mut self.base,
            Over::Store => &mut self.store,
        };
        if !reference.agrees(qi, answer) {
            self.fail(&format!("{what}: query {qi} differs from its first answer"));
        }
    }

    /// Whether a query runs with stage timing and a span. In a traced run
    /// every query does, except that native ones alternate by `parity`: the
    /// two halves then differ by the tracing alone (`trace.overhead_pct`).
    fn traces(&self, native: bool, parity: usize) -> bool {
        self.tracer.enabled && (!native || parity.is_multiple_of(2))
    }

    /// Books one native query: overhead totals always, counters on lap 0.
    fn native_query(&mut self, qi: usize, nanos: f64, profile: &QueryProfile, traced: bool) {
        self.s.native_ns[qi].push(nanos);
        self.native_ns[usize::from(traced)] += nanos;
        self.native_ops[usize::from(traced)] += 1;
        if self.lap_index == 0 {
            let p = &mut self.profile;
            p.queries += 1;
            p.counters.merge(profile);
            if traced {
                p.timed_queries += 1;
                p.delta_scan_nanos += profile.delta_scan_nanos;
                p.aggregate_nanos += profile.aggregate_nanos;
                p.merge_nanos += profile.merge_nanos;
            }
        }
    }

    /// Mean latency of the untraced, or of the traced, native queries.
    pub fn native_mean_ns(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        ratio(self.native_ns[i], self.native_ops[i] as f64)
    }

    fn native_ops_so_far(&self) -> usize {
        (self.native_ops[0] + self.native_ops[1]) as usize
    }

    /// An `engine.query_with` span with the profile's stages as children.
    fn query_span(&mut self, name: &'static str, t0: Instant, t1: Instant, profile: &QueryProfile) {
        let op = self.tracer.op();
        let parent = self.tracer.span(name, op, NO_PARENT, t0, t1);
        self.tracer.stages(
            parent,
            op,
            &[
                ("engine.delta_scan", profile.delta_scan_nanos),
                ("engine.aggregate", profile.aggregate_nanos),
                ("engine.merge", profile.merge_nanos),
            ],
        );
    }

    fn simple_span(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        if self.tracer.enabled {
            let op = self.tracer.op();
            self.tracer.span(name, op, NO_PARENT, t0, t1);
        }
    }

    // ── read phases ─────────────────────────────────────────────────────

    fn read_round(&mut self) -> Result<(), String> {
        let k = self.spec.k;
        let native = self.spec.native == Native::Read;
        // Flipped each round, so every distinct query is timed both ways.
        let round = self.s.native_ns[0].len();
        for qi in 0..self.queries.len() {
            let traced = self.traces(native, round + qi);
            self.scratch.profile.timing = traced;
            let t0 = Instant::now();
            let answer = self
                .engine
                .query_with(&self.queries[qi], k, &mut self.scratch)
                .map_err(err("query_with"))?;
            let t1 = Instant::now();
            let answer = answer.to_vec();
            let nanos = (t1 - t0).as_nanos() as f64;
            let profile = self.scratch.profile;
            if traced {
                self.query_span("engine.query_with", t0, t1, &profile);
            }
            if native {
                self.native_query(qi, nanos, &profile, traced);
            }
            self.check(Over::Base, qi, &answer, "query");
        }
        Ok(())
    }

    // ── cold phases ─────────────────────────────────────────────────────

    /// "Cold" is cold process state — a new mapping, unverified regions, an
    /// empty scratch. The page cache is warm: a sandbox cannot drop it.
    fn mapped_cycle(&mut self) -> Result<(), String> {
        let k = self.spec.k;
        let n = self.queries.len();
        let first = self.mapped_cursor % n;
        self.mapped_cursor += 1 + self.lap.followups;
        let mut scratch = EngineScratch::new();
        scratch.profile.timing = self.tracer.enabled;

        let t0 = Instant::now();
        let mut mapped = Snapshot::open_mapped(&self.snap_path).map_err(err("open_mapped"))?;
        let engine = mapped
            .snapshot
            .engine
            .as_mut()
            .ok_or("mapped snapshot holds no engine")?;
        engine.set_threads(1);
        let t_open = Instant::now();
        let answer = engine
            .query_with(&self.queries[first], k, &mut scratch)
            .map_err(err("first mapped query"))?;
        let t_first = Instant::now();
        let answer = answer.to_vec();
        self.s
            .open_mapped_ms
            .push((t_open - t0).as_nanos() as f64 / 1e6);
        self.s
            .first_query_mapped_ms
            .push((t_first - t_open).as_nanos() as f64 / 1e6);
        self.s
            .mapped_first_answer_ms
            .push((t_first - t0).as_nanos() as f64 / 1e6);
        if self.tracer.enabled {
            let op = self.tracer.op();
            let parent = self
                .tracer
                .span("cold.mapped_first_answer", op, NO_PARENT, t0, t_first);
            self.tracer
                .span("store.open_mapped", op, parent, t0, t_open);
            self.tracer
                .span("engine.query_with.first", op, parent, t_open, t_first);
        }
        if self.regions.1 == 0 {
            let regions = mapped.regions();
            let verified = regions
                .iter()
                .filter(|r| r.state() == CrcState::Verified)
                .count();
            self.regions = (verified, regions.len());
        }
        self.check(Over::Store, first, &answer, "first mapped query");

        let native = self.spec.native == Native::Cold;
        for f in 1..=self.lap.followups {
            let qi = (first + f) % n;
            let engine = mapped.snapshot.engine.as_ref().expect("checked above");
            let traced = self.traces(native, self.native_ops_so_far());
            scratch.profile.timing = traced;
            let t0 = Instant::now();
            let answer = engine
                .query_with(&self.queries[qi], k, &mut scratch)
                .map_err(err("mapped query"))?;
            let t1 = Instant::now();
            let answer = answer.to_vec();
            let nanos = (t1 - t0).as_nanos() as f64;
            let profile = scratch.profile;
            if traced {
                self.query_span("engine.query_with.mapped", t0, t1, &profile);
            }
            if native {
                self.native_query(qi, nanos, &profile, traced);
            }
            self.check(Over::Store, qi, &answer, "mapped query");
        }
        Ok(())
    }

    fn owned_cycle(&mut self) -> Result<(), String> {
        let qi = self.mapped_cursor % self.queries.len();
        self.mapped_cursor += 1;
        let mut scratch = EngineScratch::new();
        let t0 = Instant::now();
        let mut snap = Snapshot::load(&self.snap_path).map_err(err("load"))?;
        let engine = snap
            .engine
            .as_mut()
            .ok_or("loaded snapshot holds no engine")?;
        engine.set_threads(1);
        let t_load = Instant::now();
        let answer = engine
            .query_with(&self.queries[qi], self.spec.k, &mut scratch)
            .map_err(err("first owned query"))?;
        let t_first = Instant::now();
        let answer = answer.to_vec();
        self.s
            .load_owned_ms
            .push((t_load - t0).as_nanos() as f64 / 1e6);
        self.s
            .owned_first_answer_ms
            .push((t_first - t0).as_nanos() as f64 / 1e6);
        if self.tracer.enabled {
            let op = self.tracer.op();
            let parent = self
                .tracer
                .span("cold.owned_first_answer", op, NO_PARENT, t0, t_first);
            self.tracer.span("store.load", op, parent, t0, t_load);
            self.tracer
                .span("engine.query_with.first", op, parent, t_load, t_first);
        }
        self.check(Over::Store, qi, &answer, "first owned query");
        Ok(())
    }

    // ── mutation phase ──────────────────────────────────────────────────

    /// Runs one scripted op on the durable store. `slot` is its place in
    /// the cycle's script (the tail's writes have none): the best time each
    /// slot ever took feeds `mixed_ops_per_s`.
    fn scripted_op(&mut self, op: Op, slot: Option<usize>, first_cycle: bool) {
        self.attempted += 1;
        let native = self.spec.native == Native::Mixed;
        let traced = self.traces(native, self.native_ops_so_far());
        let durable = self.durable.as_mut().expect("store is open");
        let nanos = match op {
            Op::Query(qi) => {
                self.scratch.profile.timing = traced;
                let t0 = Instant::now();
                let result =
                    durable
                        .engine()
                        .query_with(&self.queries[qi], self.spec.k, &mut self.scratch);
                let t1 = Instant::now();
                if let Err(e) = result {
                    self.fail(&format!("script query: {e}"));
                    return;
                }
                let nanos = (t1 - t0).as_nanos() as f64;
                let profile = self.scratch.profile;
                if traced {
                    self.query_span("durable.engine.query_with", t0, t1, &profile);
                }
                if native {
                    self.native_query(qi, nanos, &profile, traced);
                }
                nanos
            }
            Op::Insert | Op::Delete => {
                let count_fsyncs = self.tracer.enabled;
                let fsyncs_before = if count_fsyncs {
                    durable.engine().metrics().snapshot().wal_syncs
                } else {
                    0
                };
                let (name, t0, t1, ok) = if let Op::Insert = op {
                    // A nudged copy of a row of the dataset: the store keeps
                    // its distribution however many cycles a run gets through
                    // (uniform rows in anti-correlated data are outliers that
                    // make later cycles' queries cheaper), and no two rows tie.
                    let dims = self.roles.len();
                    let from = self.rng.below(self.data.len()) * dims;
                    let row: Vec<f64> = self.data.flat()[from..from + dims]
                        .iter()
                        .map(|v| v + (self.rng.next_f64() - 0.5) * 1e-3)
                        .collect();
                    let expected = self.shadow.insert(&row);
                    let t0 = Instant::now();
                    let result = durable.insert(&row);
                    let t1 = Instant::now();
                    if first_cycle {
                        self.wal.inserts += 1;
                    }
                    let ok = matches!(&result, Ok(id) if id.raw() == expected);
                    ("durable.insert", t0, t1, ok)
                } else {
                    let id = self.shadow.delete_pick(self.rng.next_u64() as usize);
                    let t0 = Instant::now();
                    let result = durable.delete(PointId::new(id));
                    let t1 = Instant::now();
                    ("durable.delete", t0, t1, matches!(result, Ok(true)))
                };
                let nanos = (t1 - t0).as_nanos() as f64;
                self.s.write_ns.push(nanos);
                if count_fsyncs && durable.engine().metrics().snapshot().wal_syncs == fsyncs_before
                {
                    self.s.append_ns.push(nanos);
                }
                self.simple_span(name, t0, t1);
                if !ok {
                    self.fail(&format!("{name} was refused or assigned an unexpected id"));
                }
                nanos
            }
        };
        if let Some(slot) = slot {
            let best = &mut self.s.script_best_ns[slot];
            *best = best.min(nanos);
        }
    }

    fn mutation_cycle(&mut self) -> Result<(), String> {
        // The run's first cycle has fixed counts whatever `--seconds` is.
        let first_cycle = self.s.compact_ms.is_empty();
        let before = self
            .durable
            .as_ref()
            .expect("store is open")
            .engine()
            .metrics()
            .snapshot();
        for slot in 0..self.script.len() {
            self.scripted_op(self.script[slot], Some(slot), first_cycle);
        }
        let durable = self.durable.as_mut().expect("store is open");
        if first_cycle {
            let after = durable.engine().metrics().snapshot();
            self.wal.records = after.wal_records_appended - before.wal_records_appended;
            self.wal.bytes = after.wal_bytes_appended - before.wal_bytes_appended;
            self.wal.fsyncs = after.wal_syncs - before.wal_syncs;
        }
        let t0 = Instant::now();
        durable.compact().map_err(err("compact"))?;
        let t1 = Instant::now();
        self.shadow.compact();
        self.s.compact_ms.push((t1 - t0).as_nanos() as f64 / 1e6);
        self.simple_span("durable.compact", t0, t1);
        if first_cycle {
            // Exact counts of the first cycle: the file the compaction's
            // checkpoint wrote, over the rows it holds.
            let bytes = file_len(&self.store_dir.join(STORE_FILE))?;
            self.wal.checkpoint_bytes = bytes;
            if self.spec.native == Native::Mixed {
                let rows = self.shadow.live_rows();
                self.metrics
                    .set("disk_bytes_per_row", bytes as f64 / rows as f64, 1);
            }
        }

        // The tail stays in the WAL; recovery replays it. Writes only:
        // queries leave nothing to replay.
        for i in 0..self.lap.tail_slices * SLICE_WRITES {
            // Three inserts to a delete, like the script.
            let op = if i % 4 == 3 { Op::Delete } else { Op::Insert };
            self.scripted_op(op, None, false);
        }
        self.durable
            .as_mut()
            .expect("store is open")
            .sync()
            .map_err(err("sync"))?;
        // The writer stays open so its engine keeps `threads=1` (an opened
        // store's engine is at auto); a second handle only reads.
        let mut recovered = None;
        for _ in 0..self.lap.opens {
            drop(recovered.take());
            let storage = DiskStorage::new(&self.store_dir).map_err(err("store dir"))?;
            let t0 = Instant::now();
            let opened = DurableEngine::open(storage, STORE_FILE, durable_options())
                .map_err(err("DurableEngine::open"))?;
            let t1 = Instant::now();
            self.attempted += 1;
            let secs = (t1 - t0).as_secs_f64();
            self.s.recover_ms.push(secs * 1e3);
            self.s
                .replay_per_s
                .push(opened.wal_status().records as f64 / secs);
            self.simple_span("durable.open", t0, t1);
            recovered = Some(opened);
        }
        // Durability and exactness together: what recovery rebuilt from
        // the synced bytes must answer like the shadow rows.
        let mut engine = match &recovered {
            Some(r) => r.engine().clone(),
            None => self
                .durable
                .as_ref()
                .expect("store is open")
                .engine()
                .clone(),
        };
        drop(recovered);
        engine.set_threads(1);
        for _ in 0..self.lap.checks {
            let qi = self.rng.below(self.queries.len());
            self.attempted += 1;
            match engine.query_with(&self.queries[qi], self.spec.k, &mut self.scratch) {
                Ok(answer) => {
                    if !self.shadow.is_exact_top_k(
                        &self.roles,
                        &self.queries[qi],
                        self.spec.k,
                        answer,
                    ) {
                        self.fail(&format!(
                            "recovered store: query {qi} is not the oracle top-k"
                        ));
                    }
                }
                Err(e) => self.fail(&format!("recovered store: {e}")),
            }
        }
        Ok(())
    }

    // ── the lap loop ────────────────────────────────────────────────────

    fn one_lap(&mut self) -> Result<(), String> {
        for _ in 0..self.lap.read_rounds {
            self.read_round()?;
        }
        for _ in 0..self.lap.mapped_cycles {
            self.mapped_cycle()?;
        }
        for _ in 0..self.lap.owned_cycles {
            self.owned_cycle()?;
        }
        for _ in 0..self.lap.cycles {
            self.mutation_cycle()?;
        }
        if self.lap_index % SETUP_EVERY == SETUP_EVERY - 1 {
            self.set_up_again()?;
        }
        Ok(())
    }

    /// Repeats the lap until `seconds` have been measured (a smoke run
    /// stops after one).
    pub fn measure(&mut self, seconds: f64) -> Result<usize, String> {
        let started = Instant::now();
        loop {
            let lap_started = Instant::now();
            self.one_lap()?;
            self.lap_index += 1;
            let lap_s = lap_started.elapsed().as_secs_f64();
            if self.opts.smoke || started.elapsed().as_secs_f64() + lap_s / 2.0 >= seconds {
                self.scratch.profile.timing = false;
                return Ok(self.lap_index);
            }
        }
    }

    /// Checks the first answer every distinct query got, from the clean
    /// engine and from the snapshot, against the oracle.
    pub fn check_references(&mut self) {
        let (roles, queries, k, threads) =
            (&self.roles, &self.queries, self.spec.k, self.opts.threads);
        let mut wrong = self.base.wrong(roles, queries, k, threads);
        wrong.extend(self.store.wrong(roles, queries, k, threads));
        for qi in wrong {
            self.fail(&format!("query {qi}: the answer is not the oracle top-k"));
        }
    }

    /// Computes the end-to-end metrics from the samples.
    ///
    /// This sandbox adds time and never takes it away. A fixed loop runs at
    /// one of two speeds a quarter apart (a busy sibling thread on the
    /// host, by the look of it), switching every few seconds and sometimes
    /// staying slow for minutes, and the disk stalls a share of the fsyncs
    /// by 0.1-0.9 s. A median over repetitions follows the host (20-35%
    /// between ten runs of unchanged code); a low quantile follows the
    /// program, because most runs contain quiet moments and a low quantile
    /// finds them. The query latencies and the mutation script, where the
    /// statistic runs *across* distinct pieces of work and each one's luck
    /// averages out, take each piece's best repetition; so do recoveries
    /// and owned loads (see below); the mapped opens, a thousand of them
    /// with a different first query each, take the 10th percentile.
    /// `setup_s` is the median of its six to eighteen repetitions.
    pub fn end_to_end(&mut self) -> Result<(), String> {
        let s = &mut self.s;
        let m = &mut self.metrics;
        let setups = s.setup_s.len();
        m.set("setup_s", median(&mut s.setup_s), setups);
        // One value per distinct query over all its samples, then
        // percentiles across the distinct queries: what is left is the
        // queries' own spread, the intrinsic hard-query tail included.
        let n = s.native_ns.iter().map(Vec::len).sum::<usize>();
        let mut native: Vec<f64> = s
            .native_ns
            .iter_mut()
            .filter(|q| !q.is_empty())
            .map(|q| quantile(q, BEST))
            .collect();
        m.set("query_p50_us", quantile(&mut native, 0.50) / 1e3, n);
        m.set("query_p95_us", quantile(&mut native, 0.95) / 1e3, n);
        // The rate between compactions (the stall has its own metric):
        // a cycle's script with every op at its best repetition, as the
        // query latencies take every distinct query at its best.
        let slots = s.script_best_ns.len();
        let script_s = s.script_best_ns.iter().sum::<f64>() / 1e9;
        m.set(
            "mixed_ops_per_s",
            slots as f64 / script_s,
            slots * s.compact_ms.len(),
        );
        // Tens of milliseconds of decoding each, twenty to ninety times a
        // run: when the host is busy a tenth of those or fewer run at its
        // quiet speed, and the 10th percentile lands on either side.
        let opens = s.recover_ms.len();
        m.set("recover_ms", quantile(&mut s.recover_ms, BEST), opens);
        let opens = s.mapped_first_answer_ms.len();
        let mapped = quantile(&mut s.mapped_first_answer_ms, LOW);
        m.set("cold_mapped_first_answer_ms", mapped, opens);
        let opens = s.owned_first_answer_ms.len();
        let owned = quantile(&mut s.owned_first_answer_ms, BEST);
        m.set("cold_owned_first_answer_ms", owned, opens);
        if self.spec.native != Native::Mixed {
            let bytes = file_len(&self.snap_path)?;
            m.set(
                "disk_bytes_per_row",
                bytes as f64 / self.store_rows as f64,
                1,
            );
        }
        m.set(
            "mem_bytes_per_row",
            self.engine.memory_bytes() as f64 / self.data.len() as f64,
            1,
        );
        Ok(())
    }

    /// Layer numbers that fall out of the laps themselves (traced run).
    pub fn lap_layers(&mut self) {
        let s = &mut self.s;
        let m = &mut self.metrics;
        m.set(
            "store.open_mapped_ms",
            median(&mut s.open_mapped_ms),
            s.open_mapped_ms.len(),
        );
        m.set(
            "store.first_query_mapped_ms",
            median(&mut s.first_query_mapped_ms),
            s.first_query_mapped_ms.len(),
        );
        m.set(
            "store.load_owned_ms",
            median(&mut s.load_owned_ms),
            s.load_owned_ms.len(),
        );
        // The foreground pause of `compact()`: rebuild, checkpoint, fsync,
        // WAL rotation. Not an end-to-end metric on this host: 70-150 ms
        // that wait for a shared disk several times moved by 17-27%
        // between runs of unchanged code, whatever the estimator.
        m.set(
            "store.wal.compact_stall_ms",
            quantile(&mut s.compact_ms, BEST),
            s.compact_ms.len(),
        );
        let writes = s.write_ns.len();
        m.set(
            "store.wal.write_p50_us",
            median(&mut s.write_ns) / 1e3,
            writes,
        );
        m.set(
            "store.wal.append_p50_us",
            median(&mut s.append_ns) / 1e3,
            s.append_ns.len(),
        );
        m.set(
            "store.wal.replay_records_per_s",
            median(&mut s.replay_per_s),
            s.replay_per_s.len(),
        );
        let [untraced, traced] = [false, true].map(|t| self.native_mean_ns(t));
        self.metrics.set(
            "trace.overhead_pct",
            (ratio(traced, untraced) - 1.0) * 100.0,
            self.native_ops[1] as usize,
        );
    }

    /// Removes the run's stores and snapshot.
    pub fn clean_up(&mut self) {
        self.durable = None;
        if let Some(dir) = self.snap_path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
