//! Per-layer numbers of a traced run, measured from outside: by timing a
//! layer's public calls, or as a profile count times a unit cost measured
//! here. Nothing in the program is edited to produce them.

use std::hint::black_box;
use std::time::Instant;

use crate::alloc;
use crate::api::{
    crc32c, kernels, DiskStorage, DurableEngine, DurableOptions, EngineOptions, EngineScratch,
    LatencyHisto, PointId, QueryScratch, SdEngine, SeqScan, Snapshot, SyncPolicy, TaIndex,
};
use crate::oracle::same_answer;
use crate::stats::{median, nanos_since, ratio, Rng};
use crate::workload::{err, Over, Run};

/// Queries the comparison passes run over (all of them when fewer).
const PROBE_QUERIES: usize = 256;
/// The issue's baseline sample.
const BASELINE_QUERIES: usize = 64;

/// Median latency (ns) of `query` over the first `n` queries.
fn p50_ns(n: usize, mut query: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for qi in 0..n {
        let t0 = Instant::now();
        query(qi)?;
        samples.push(nanos_since(t0));
    }
    Ok(median(&mut samples))
}

pub fn measure(run: &mut Run) -> Result<(), String> {
    counters(run);
    kernels_and_units(run);
    engine_comparisons(run)?;
    bare_mutation(run)?;
    store(run)?;
    wal(run)?;
    baselines(run)
}

/// `/q` means of lap 0's native queries, and the ratios between them.
fn counters(run: &mut Run) {
    let p = &run.profile;
    let q = p.queries as f64;
    let n = p.queries as usize;
    let c = p.counters;
    let per_q = |v: u64| ratio(v as f64, q);
    // Stage times exist for the traced half of the queries only; the
    // counters they are divided by are scaled to that half.
    let timed = ratio(p.timed_queries as f64, q);
    let per_timed_q = |v: u64| ratio(v as f64, p.timed_queries as f64);
    let rows = run.rows() as f64;
    let values = [
        ("core.kernels.batches_per_q", per_q(c.kernel_batches)),
        (
            "core.kernels.scored_per_gathered",
            ratio(c.points_scored as f64, c.points_gathered as f64),
        ),
        ("core.topk.nodes_visited_per_q", per_q(c.nodes_visited)),
        (
            "core.topk.envelope_rejected_per_q",
            per_q(c.envelope_nodes_rejected),
        ),
        ("core.topk.blocks_popped_per_q", per_q(c.blocks_popped)),
        (
            "core.topk.blocks_floor_pruned_ratio",
            ratio(c.blocks_floor_pruned as f64, c.blocks_popped as f64),
        ),
        ("core.topk.lanes_masked_per_q", per_q(c.lanes_masked)),
        (
            "core.topk.ns_per_block_popped",
            ratio(p.aggregate_nanos as f64, c.blocks_popped as f64 * timed),
        ),
        ("core.multidim.rounds_per_q", per_q(c.rounds)),
        ("core.multidim.rows_fetched_per_q", per_q(c.rows_fetched)),
        ("core.multidim.fetch_ratio", per_q(c.rows_fetched) / rows),
        (
            "core.multidim.onedim_rows_per_q",
            per_q(c.onedim_rows_pulled),
        ),
        ("core.multidim.gathered_per_q", per_q(c.points_gathered)),
        (
            "core.multidim.seen_hit_ratio",
            ratio(c.seen_hits as f64, c.rows_fetched as f64),
        ),
        ("core.multidim.floor_updates_per_q", per_q(c.floor_updates)),
        (
            "core.multidim.ns_per_row_fetched",
            ratio(p.aggregate_nanos as f64, c.rows_fetched as f64 * timed),
        ),
        (
            "core.delta.delta_rows_scanned_per_q",
            per_q(c.delta_rows_scanned),
        ),
        (
            "core.delta.delta_blocks_pruned_per_q",
            per_q(c.delta_blocks_pruned),
        ),
        (
            "core.delta.tombstones_skipped_per_q",
            per_q(c.tombstones_skipped),
        ),
        (
            "core.delta.delta_scan_ns_per_row",
            ratio(
                p.delta_scan_nanos as f64,
                c.delta_rows_scanned as f64 * timed,
            ),
        ),
        ("engine.aggregate_ns_per_q", per_timed_q(p.aggregate_nanos)),
        ("engine.merge_ns_per_q", per_timed_q(p.merge_nanos)),
        ("engine.merge_rounds_per_q", per_q(c.merge_rounds)),
        (
            "core.integrity.regions_verified_after_first_query",
            run.regions.0 as f64,
        ),
        ("core.integrity.regions_total", run.regions.1 as f64),
    ];
    for (name, value) in values {
        run.metrics.set(name, value, n);
    }
}

/// Micro-timings of the kernels, the checksum and the histogram, and the
/// kernels' estimated share of a native query.
fn kernels_and_units(run: &mut Run) {
    const BLOCKS: usize = 1024;
    const REPS: usize = 64;
    let dims = run.roles.len();
    let lanes = kernels::LANES;
    let mut rng = Rng::new(run.opts.seed);
    let cols: Vec<f64> = (0..BLOCKS * dims * lanes).map(|_| rng.next_f64()).collect();
    let q: Vec<f64> = (0..dims).map(|_| rng.next_f64()).collect();
    let mut acc = vec![0.0f64; lanes];
    let mut sink = 0.0;

    let mut score = Vec::with_capacity(REPS);
    let mut survive = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for block in cols.chunks_exact(dims * lanes) {
            kernels::score_zero(&mut acc);
            for (d, col) in block.chunks_exact(lanes).enumerate() {
                kernels::score_add_dim(&mut acc, col, q[d], 0.5);
            }
            sink += acc[0];
        }
        score.push(nanos_since(t0) / (BLOCKS * dims * lanes) as f64);
        let t0 = Instant::now();
        let mut alive = 0u32;
        for b in 0..BLOCKS {
            alive ^= kernels::survivors(black_box(&acc), u32::MAX, b as f64 * 1e-3);
        }
        black_box(alive);
        survive.push(nanos_since(t0) / BLOCKS as f64);
    }
    black_box(sink);
    let score_ns = median(&mut score);
    let survivors_ns = median(&mut survive);
    run.metrics
        .set("core.kernels.score_ns_per_lane_dim", score_ns, REPS);
    run.metrics
        .set("core.kernels.survivors_ns_per_batch", survivors_ns, REPS);
    let batch_ns = score_ns * (dims * lanes) as f64 + survivors_ns;
    let share = ratio(
        ratio(
            run.profile.counters.kernel_batches as f64,
            run.profile.queries as f64,
        ) * batch_ns,
        run.native_mean_ns(false),
    );
    run.metrics
        .set("core.kernels.est_share_pct", share * 100.0, REPS);

    let buffer: Vec<u8> = (0..16usize << 20).map(|i| (i * 31) as u8).collect();
    let mut gbps = Vec::new();
    for _ in 0..8 {
        let t0 = Instant::now();
        black_box(crc32c(black_box(&buffer)));
        gbps.push(buffer.len() as f64 / nanos_since(t0));
    }
    run.metrics
        .set("core.integrity.crc32c_gbps", median(&mut gbps), 8);

    const RECORDS: u64 = 1 << 20;
    let histo = LatencyHisto::new();
    let t0 = Instant::now();
    for i in 0..RECORDS {
        histo.record_nanos(black_box(1_000 + (i & 0xFFFF)));
    }
    run.metrics.set(
        "core.telemetry.histo_record_ns",
        nanos_since(t0) / RECORDS as f64,
        RECORDS as usize,
    );
}

/// The clean engine against itself: planning, one shard of four, one shard
/// instead of four, two workers per query, two batch threads, allocations.
fn engine_comparisons(run: &mut Run) -> Result<(), String> {
    let n = run.queries.len().min(PROBE_QUERIES);
    let k = run.spec.k;
    let queries = &run.queries;
    let engine = &run.engine;
    let scratch = &mut run.scratch;

    let before = alloc::counters();
    let four = p50_ns(n, |qi| {
        engine
            .query_with(&queries[qi], k, scratch)
            .map(|_| ())
            .map_err(err("query_with"))
    })?;
    let after = alloc::counters();
    run.metrics.set(
        "engine.allocs_per_q",
        (after.0 - before.0) as f64 / n as f64,
        n,
    );
    run.metrics.set(
        "engine.alloc_bytes_per_q",
        (after.1 - before.1) as f64 / n as f64,
        n,
    );

    let t0 = Instant::now();
    for query in &queries[..n] {
        black_box(engine.explain(query, k).map_err(err("explain"))?);
    }
    run.metrics
        .set("core.multidim.plan_ns_per_q", nanos_since(t0) / n as f64, n);

    let shard = &engine.shards()[0];
    let mut shard_scratch = QueryScratch::new();
    let shard_ns = p50_ns(n, |qi| {
        shard
            .query_with(&queries[qi], k, &mut shard_scratch)
            .map(|_| ())
            .map_err(err("SdIndex::query_with"))
    })?;
    run.metrics
        .set("core.multidim.shard_query_p50_us", shard_ns / 1e3, n);

    let one = SdEngine::build_with(
        std::sync::Arc::clone(&run.data),
        &run.roles,
        &EngineOptions {
            shards: 1,
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .map_err(err("build one shard"))?;
    let one_ns = p50_ns(n, |qi| {
        one.query_with(&queries[qi], k, scratch)
            .map(|_| ())
            .map_err(err("one-shard query"))
    })?;
    drop(one);
    run.metrics
        .set("engine.vs_one_shard_ratio", ratio(four, one_ns), n);

    // The two-thread paths, here and not in an end-to-end metric: with
    // two cores of a shared host they measure the scheduler (ten runs of
    // unchanged code: 31k-57k batch queries/s, 51-91 us two-worker p50).
    // Their answers are checked like every other.
    let mut par_engine = engine.clone();
    par_engine.set_threads(run.opts.threads);
    let mut answers = Vec::with_capacity(n);
    let par_ns = p50_ns(n, |qi| {
        let answer = par_engine
            .query_with(&queries[qi], k, scratch)
            .map_err(err("par query"))?;
        answers.push(answer.to_vec());
        Ok(())
    })?;
    drop(par_engine);
    run.metrics.set("engine.query_par_p50_us", par_ns / 1e3, n);
    run.metrics
        .set("engine.par_speedup", ratio(four, par_ns), n);

    let mut qps = [0.0; 2];
    for (slot, threads) in [(0, 1), (1, run.opts.threads)] {
        let t0 = Instant::now();
        let batch = engine
            .par_query_batch(&queries[..n], k, threads)
            .map_err(err("batch"))?;
        qps[slot] = n as f64 / t0.elapsed().as_secs_f64();
        answers.extend(batch);
    }
    run.metrics.set("engine.batch_qps", qps[1], n);
    run.metrics
        .set("engine.batch_scaling", ratio(qps[1], qps[0]), n);
    for (i, answer) in answers.iter().enumerate() {
        run.check(Over::Base, i % n, answer, "two-thread probe");
    }
    Ok(())
}

/// The write path without the WAL, on a clone of the clean engine.
fn bare_mutation(run: &mut Run) -> Result<(), String> {
    let scale = if run.opts.smoke { 20 } else { 1 };
    let (inserts, deletes) = (1000 / scale, 300 / scale);
    let dims = run.roles.len();
    let mut engine = run.engine.clone();
    let mut rng = Rng::new(run.opts.seed ^ 0xBA5E);
    let mut row = vec![0.0; dims];
    let t0 = Instant::now();
    for _ in 0..inserts {
        for v in row.iter_mut() {
            *v = rng.next_f64();
        }
        engine.insert(&row).map_err(err("insert"))?;
    }
    run.metrics.set(
        "engine.mutation.insert_ns_per_row",
        nanos_since(t0) / inserts as f64,
        inserts,
    );
    // Distinct base rows, so every delete sets a tombstone.
    let stride = run.rows() / deletes;
    let t0 = Instant::now();
    for i in 0..deletes {
        engine
            .delete(PointId::new((i * stride) as u32))
            .map_err(err("delete"))?;
    }
    run.metrics.set(
        "engine.mutation.delete_ns_per_op",
        nanos_since(t0) / deletes as f64,
        deletes,
    );
    let live = (run.rows() + inserts - deletes) as f64;
    let t0 = Instant::now();
    engine.compact().map_err(err("compact"))?;
    let secs = t0.elapsed().as_secs_f64();
    run.metrics.set("engine.mutation.compact_ms", secs * 1e3, 1);
    run.metrics
        .set("engine.mutation.compact_rows_per_s", live / secs, 1);
    Ok(())
}

fn store(run: &mut Run) -> Result<(), String> {
    let bytes = std::fs::metadata(&run.snap_path)
        .map_err(err("stat snapshot"))?
        .len() as f64;
    run.metrics.set("store.file_bytes", bytes, 1);
    let raw = (run.store_rows * run.roles.len() * 8) as f64;
    run.metrics.set("store.space_amp", bytes / raw, 1);
    let mapped = Snapshot::open_mapped(&run.snap_path).map_err(err("open_mapped"))?;
    let t0 = Instant::now();
    mapped.verify_all().map_err(err("verify_all"))?;
    run.metrics
        .set("store.verify_all_ms", nanos_since(t0) / 1e6, 1);
    Ok(())
}

/// WAL counts of lap 0's cycle, then the unit costs: a checkpoint alone,
/// and an fsync per record on the same store reopened under `Always`.
fn wal(run: &mut Run) -> Result<(), String> {
    let w = &run.wal;
    let user_bytes = (w.inserts as usize * run.roles.len() * 8) as f64;
    let values = [
        ("store.wal.records", w.records as f64),
        ("store.wal.fsyncs", w.fsyncs as f64),
        (
            "store.wal.bytes_per_row",
            ratio(w.bytes as f64, w.records as f64),
        ),
        (
            "store.wal.write_amp",
            ratio((w.bytes + w.checkpoint_bytes) as f64, user_bytes),
        ),
    ];
    for (name, value) in values {
        run.metrics.set(name, value, w.records as usize);
    }

    let mut durable = run.durable.take().ok_or("store is closed")?;
    let t0 = Instant::now();
    durable.checkpoint().map_err(err("checkpoint"))?;
    run.metrics
        .set("store.wal.checkpoint_ms", nanos_since(t0) / 1e6, 1);
    drop(durable);

    let fsyncs = if run.opts.smoke { 25 } else { 500 };
    let storage = DiskStorage::new(&run.store_dir).map_err(err("store dir"))?;
    let always = DurableOptions {
        sync: SyncPolicy::Always,
    };
    let mut durable =
        DurableEngine::open(storage, "store.sdq", always).map_err(err("open under Always"))?;
    let mut rng = Rng::new(run.opts.seed ^ 0xF5);
    let mut row = vec![0.0; run.roles.len()];
    let mut samples = Vec::with_capacity(fsyncs);
    for _ in 0..fsyncs {
        for v in row.iter_mut() {
            *v = rng.next_f64();
        }
        let t0 = Instant::now();
        durable.insert(&row).map_err(err("insert under Always"))?;
        samples.push(nanos_since(t0));
    }
    run.metrics
        .set("store.wal.fsync_p50_us", median(&mut samples) / 1e3, fsyncs);
    Ok(())
}

/// The paper's §6 ratio through the shipped engine, on the first 64
/// queries; informational. `SeqScan` doubles as a second oracle here.
fn baselines(run: &mut Run) -> Result<(), String> {
    let n = run.queries.len().min(BASELINE_QUERIES);
    let k = run.spec.k;
    let queries = &run.queries;
    let engine = &run.engine;
    let mut scratch = EngineScratch::new();
    let mut answers = Vec::with_capacity(n);
    let sd = p50_ns(n, |qi| {
        let answer = engine
            .query_with(&queries[qi], k, &mut scratch)
            .map_err(err("query_with"))?;
        answers.push(answer.to_vec());
        Ok(())
    })?;

    let scan =
        SeqScan::new(std::sync::Arc::clone(&run.data), &run.roles).map_err(err("SeqScan"))?;
    let mut wrong = 0;
    let seq = p50_ns(n, |qi| {
        let answer = scan.query(&queries[qi], k).map_err(err("SeqScan::query"))?;
        wrong += usize::from(!same_answer(&answer, &answers[qi]));
        Ok(())
    })?;
    drop(scan);

    let ta_index =
        TaIndex::build(std::sync::Arc::clone(&run.data), &run.roles).map_err(err("TaIndex"))?;
    let mut ta_scratch = QueryScratch::new();
    let ta = p50_ns(n, |qi| {
        let answer = ta_index
            .query_with(&queries[qi], k, &mut ta_scratch)
            .map_err(err("TaIndex::query_with"))?;
        wrong += usize::from(!same_answer(answer, &answers[qi]));
        Ok(())
    })?;

    run.attempted += 2 * n as u64;
    run.failed += wrong as u64;
    if wrong > 0 {
        eprintln!(
            "FAILED [{}]: {wrong} baseline answers differ from the engine's",
            run.spec.name
        );
    }
    run.metrics.set("baselines.seqscan_p50_us", seq / 1e3, n);
    run.metrics.set("baselines.ta_p50_us", ta / 1e3, n);
    run.metrics
        .set("baselines.sd_speedup_vs_seqscan", ratio(seq, sd), n);
    run.metrics
        .set("baselines.sd_speedup_vs_ta", ratio(ta, sd), n);
    Ok(())
}
