//! Cross-crate integration tests: every index structure and baseline must
//! agree with the sequential-scan oracle on every distribution, any mix of
//! roles, runtime weights and k — and the sharded engine must agree with it
//! **bit for bit**, through the §4 walk and the box scan alike, on hostile
//! inputs as well as friendly ones.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sdq::baselines::{BrsIndex, PeIndex, SeqScan, TaIndex, TopKAlgorithm};
use sdq::core::multidim::{QueryPlan, SdIndex};
use sdq::core::{QueryProfile, QueryScratch};
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::Snapshot;
use sdq::{Dataset, DimRole, PointId, ScoredPoint};

fn assert_equiv(method: &str, got: &[ScoredPoint], want: &[ScoredPoint], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{method} length mismatch ({ctx})");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.score - w.score).abs() < 1e-9,
            "{method} mismatch ({ctx}):\n got {got:?}\nwant {want:?}"
        );
    }
}

fn roles_for(dims: usize, attractive: usize) -> Vec<DimRole> {
    (0..dims)
        .map(|d| {
            if d < attractive {
                DimRole::Attractive
            } else {
                DimRole::Repulsive
            }
        })
        .collect()
}

#[test]
fn all_methods_agree_across_distributions_and_dims() {
    for dist in Distribution::ALL {
        for dims in [1usize, 2, 3, 6] {
            let n = 400;
            let data = Arc::new(generate(dist, n, dims, 0xBEEF + dims as u64));
            for attractive in [0, dims / 2, dims] {
                let roles = roles_for(dims, attractive);
                let oracle = SeqScan::new(data.clone(), &roles).unwrap();
                let methods: Vec<Box<dyn TopKAlgorithm>> = vec![
                    Box::new(SdIndex::build(data.clone(), &roles).unwrap()),
                    Box::new(TaIndex::build(data.clone(), &roles).unwrap()),
                    Box::new(BrsIndex::build(&data, &roles).unwrap()),
                    Box::new(PeIndex::build(data.clone(), &roles).unwrap()),
                ];
                let queries = uniform_queries(6, dims, 0xCAFE);
                for q in &queries {
                    for k in [1usize, 5, 17] {
                        let want = oracle.query(q, k).unwrap();
                        for m in &methods {
                            let got = m.top_k(q, k).unwrap();
                            let ctx =
                                format!("{} dims={dims} att={attractive} k={k}", dist.label());
                            assert_equiv(m.name(), &got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn k_equals_n_and_beyond() {
    let data = Arc::new(generate(Distribution::Uniform, 23, 4, 7));
    let roles = roles_for(4, 2);
    let oracle = SeqScan::new(data.clone(), &roles).unwrap();
    let sd = SdIndex::build(data.clone(), &roles).unwrap();
    let queries = uniform_queries(4, 4, 11);
    for q in &queries {
        for k in [23usize, 24, 100] {
            assert_equiv(
                "SD-Index",
                &sd.query(q, k).unwrap(),
                &oracle.query(q, k).unwrap(),
                "k≥n",
            );
        }
    }
}

/// A `k` no dataset can fill — one that overflows `k + 1`, one whose heap
/// would not fit in memory — is answered with every row, in the canonical
/// order, by the oracle, TA, BRS, PE, a bare index and a sharded engine
/// alike; on one pair (the direct walk) and on two (the aggregation).
#[test]
fn absurd_k_answers_every_row_in_canonical_order() {
    for (dims, attractive) in [(2usize, 1usize), (4, 2)] {
        let data = Arc::new(generate(Distribution::AntiCorrelated, 57, dims, 31));
        let roles = roles_for(dims, attractive);
        let seqscan = SeqScan::new(data.clone(), &roles).unwrap();
        let ta = TaIndex::build(data.clone(), &roles).unwrap();
        let brs = BrsIndex::build(&data, &roles).unwrap();
        let pe = PeIndex::build(data.clone(), &roles).unwrap();
        let sd = SdIndex::build(data.clone(), &roles).unwrap();
        let engine = SdEngine::build_with(
            data.clone(),
            &roles,
            &EngineOptions {
                shards: 4,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for q in &uniform_queries(3, dims, 37) {
            let mut want: Vec<ScoredPoint> = data
                .iter()
                .map(|(id, p)| ScoredPoint::new(id, sdq::sd_score(p, &q.point, &roles, &q.weights)))
                .collect();
            want.sort_by(sdq::core::score::rank_cmp);
            for k in [usize::MAX, 1 << 40] {
                let answers: [(&str, Vec<ScoredPoint>); 6] = [
                    ("SeqScan::query", seqscan.query(q, k).unwrap()),
                    ("TaIndex::query", ta.query(q, k).unwrap()),
                    ("BrsIndex::query", brs.query(q, k).unwrap()),
                    ("PeIndex::query", pe.query(q, k).unwrap()),
                    (
                        "SdIndex::query_with",
                        sd.query_with(q, k, &mut sdq::core::QueryScratch::new())
                            .unwrap()
                            .to_vec(),
                    ),
                    ("SdEngine::query", engine.query(q, k).unwrap()),
                ];
                for (method, got) in answers {
                    let ids = |a: &[ScoredPoint]| a.iter().map(|p| p.id).collect::<Vec<_>>();
                    assert_eq!(ids(&got), ids(&want), "{method} dims={dims} k={k}");
                    assert_equiv(method, &got, &want, &format!("dims={dims} k={k}"));
                }
            }
        }
    }
}

/// Ties everywhere: coordinates from {0, −0, 1, 2} and weights from
/// {0, ½, 1, 2}, so most rows share their score with others and a row id
/// decides the k-th place. Every method must break those ties as the
/// oracle does — score descending, id ascending — bit for bit, including
/// the ones that emit a row as soon as nothing unexplored can beat it (a
/// BRS node or a PE cell whose bound only equals the row's score can still
/// hold a tied row with a smaller id). A dirty engine — three shards over
/// the first half of the rows, the rest inserted into its delta, whose ids
/// continue the shards' — puts the shards', the delta's and, on a 2-D
/// `[a, r]` dataset, the walk's tied rows into one answer heap.
#[test]
fn tie_heavy_inputs_answer_like_the_oracle_bit_for_bit() {
    const COORDS: [f64; 4] = [0.0, -0.0, 1.0, 2.0];
    const WEIGHTS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
    let bits = |a: &[ScoredPoint]| {
        a.iter()
            .map(|p| (p.id, p.score.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for _ in 0..3000 {
        let dims = rng.gen_range(1..=5);
        let n = rng.gen_range(1..80);
        let coords = (0..n * dims).map(|_| COORDS[rng.gen_range(0..4)]);
        let data = Arc::new(Dataset::from_flat(dims, coords.collect()).unwrap());
        let roles: Vec<DimRole> = (0..dims)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    DimRole::Attractive
                } else {
                    DimRole::Repulsive
                }
            })
            .collect();
        let oracle = SeqScan::new(data.clone(), &roles).unwrap();
        let ta = TaIndex::build(data.clone(), &roles).unwrap();
        let sd = SdIndex::build(data.clone(), &roles).unwrap();
        let engine = SdEngine::build_with(
            data.clone(),
            &roles,
            &EngineOptions {
                shards: 3,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let cut = n.div_ceil(2);
        let mut dirty = SdEngine::build_with(
            Dataset::from_flat(dims, data.flat()[..cut * dims].to_vec()).unwrap(),
            &roles,
            &EngineOptions {
                shards: 3,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        for row in data.flat()[cut * dims..].chunks_exact(dims) {
            dirty.insert(row).unwrap();
        }
        let brs = BrsIndex::build(&data, &roles).unwrap();
        let pe = PeIndex::build(data.clone(), &roles).unwrap();
        for _ in 0..5 {
            let point = (0..dims).map(|_| COORDS[rng.gen_range(0..4)]).collect();
            let weights = (0..dims).map(|_| WEIGHTS[rng.gen_range(0..4)]).collect();
            let q = sdq::SdQuery::new(point, weights).unwrap();
            let k = rng.gen_range(1..20);
            let want = bits(&oracle.query(&q, k).unwrap());
            let answers: [(&str, Vec<ScoredPoint>); 6] = [
                ("TaIndex", ta.query(&q, k).unwrap()),
                ("SdIndex", sd.query(&q, k).unwrap()),
                ("SdEngine(3 shards)", engine.query(&q, k).unwrap()),
                ("SdEngine(3 shards + delta)", dirty.query(&q, k).unwrap()),
                ("BrsIndex", brs.query(&q, k).unwrap()),
                ("PeIndex", pe.query(&q, k).unwrap()),
            ];
            for (method, got) in answers {
                assert_eq!(
                    bits(&got),
                    want,
                    "{method}: n={n} roles={roles:?} k={k} {q:?}"
                );
            }
        }
    }
}

/// The pairing step is the paper's §5 index's alone (an engine's shard
/// records none): its correlation-aware matching answers like the oracle.
#[test]
fn correlation_aware_pairing_agrees_with_oracle() {
    use sdq::paper::{PairedIndex, PairedOptions, PairingStrategy};
    let data = Arc::new(generate(Distribution::Correlated, 500, 6, 13));
    let roles = roles_for(6, 3);
    let oracle = SeqScan::new(data.clone(), &roles).unwrap();
    let opts = PairedOptions {
        pairing: PairingStrategy::CorrelationAware,
        ..Default::default()
    };
    let sd = PairedIndex::build_with(data, &roles, &opts).unwrap();
    assert_eq!(sd.pairs().len(), 3);
    for q in &uniform_queries(10, 6, 17) {
        assert_equiv(
            "SD-Index(corr)",
            &sd.query(q, 8).unwrap(),
            &oracle.query(q, 8).unwrap(),
            "",
        );
    }
}

#[test]
fn batch_parallel_query_agrees() {
    let data = Arc::new(generate(Distribution::AntiCorrelated, 600, 4, 19));
    let roles = roles_for(4, 2);
    let sd = SdIndex::build(data.clone(), &roles).unwrap();
    let queries = uniform_queries(24, 4, 23);
    let sequential: Vec<_> = queries.iter().map(|q| sd.query(q, 5).unwrap()).collect();
    let engine = SdEngine::build(data, &roles).unwrap();
    let parallel = engine.par_query_batch(&queries, 5, 4).unwrap();
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_equiv("par_query_batch", p, s, "");
    }
}

#[test]
fn facade_reexports_work() {
    // The umbrella crate must expose the full workflow.
    let data = sdq::Dataset::from_rows(2, &[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
    let roles = vec![sdq::DimRole::Attractive, sdq::DimRole::Repulsive];
    let idx = sdq::core::multidim::SdIndex::build(data, &roles).unwrap();
    let q = sdq::SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
    assert_eq!(idx.query(&q, 1).unwrap()[0].score, 1.0);
    let _ = sdq::sd_score(&[0.0, 1.0], &[0.0, 0.0], &roles, &[1.0, 1.0]);
}

// ─── the box scan against the oracle ────────────────────────────────────────

/// Cases run so far by the property below, and how many of them scanned
/// at least one shard.
static SCAN_CASES: AtomicU32 = AtomicU32::new(0);
static SCAN_CASES_SCANNED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // 6-D anti-correlated rows (with exact duplicates, so k-th-score ties
    // are real), tombstones and a delta region, 1–4 shards: the engine's
    // answer is SeqScan's over the live rows, bit for bit, through the box
    // scan — and at least half the cases must scan, so the property cannot
    // hold by never scanning.
    #[test]
    fn engine_matches_seqscan_through_the_scan_exit(
        n in 40usize..=4_000,
        seed in 0u64..1_000_000,
        dup_every in 0usize..4,
        k_small in 1usize..70,
        k_permille in 0usize..=1_000,
        k_is_small in 0usize..3,
        shards in 1usize..=4,
        deletes_permille in 0usize..120,
        inserts in 0usize..40,
    ) {
        let dims = 6;
        let roles = roles_for(dims, 4);
        // The per-case stream of duplicate sources, delta rows and victims.
        let mut stream = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f64>> = generate(Distribution::AntiCorrelated, n, dims, seed)
            .iter()
            .map(|(_, c)| c.to_vec())
            .collect();
        if dup_every > 0 {
            for i in (1..n).step_by(dup_every + 1) {
                rows[i] = rows[stream.gen_range(0..i)].clone();
            }
        }
        // k anywhere in [1, n + 3]; small k twice as often as not, because
        // that is where the aggregation can still certify before scanning.
        let k = if k_is_small > 0 { k_small } else { 1 + k_permille * (n + 2) / 1_000 };

        let mut engine = SdEngine::build_with(
            Dataset::from_rows(dims, &rows).unwrap(),
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();
        // Delta region: copies of indexed rows (ties across base and delta)
        // and fresh rows; then tombstones over base and delta alike.
        for i in 0..inserts {
            let row = if i % 2 == 0 {
                rows[stream.gen_range(0..n)].clone()
            } else {
                (0..dims).map(|d| stream.gen_range(0.0..0.5) + 0.1 * d as f64).collect()
            };
            engine.insert(&row).unwrap();
            rows.push(row);
        }
        let total = rows.len();
        let mut dead = vec![false; total];
        for _ in 0..total * deletes_permille / 1_000 {
            let victim = stream.gen_range(0..total);
            let newly = engine.delete(PointId::new(victim as u32)).unwrap();
            prop_assert_eq!(newly, !dead[victim]);
            dead[victim] = true;
        }
        let live_ids: Vec<u32> = (0..total as u32).filter(|&i| !dead[i as usize]).collect();
        let live_rows: Vec<Vec<f64>> = live_ids.iter().map(|&i| rows[i as usize].clone()).collect();
        let oracle = SeqScan::new(Dataset::from_rows(dims, &live_rows).unwrap(), &roles).unwrap();

        let mut scratch = QueryScratch::new();
        let mut scanned = false;
        for q in &uniform_queries(3, dims, seed ^ 0xC0FFEE) {
            let want = oracle.query(q, k).unwrap();
            let got = engine.query_with(q, k, &mut scratch).unwrap();
            prop_assert_eq!(got.len(), want.len(), "length (k = {})", k);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id.raw(), live_ids[w.id.index()], "id (k = {})", k);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits(), "score bits (k = {})", k);
            }
            let p = scratch.profile;
            prop_assert_eq!(p.parts_scanned == 0, p.scan_rows == 0);
            prop_assert!(p.parts_scanned <= shards as u64);
            // (The delta seqscan counts its dead rows without fetching
            // them, so the fetch algebra is the indexed rows' alone.)
            if inserts == 0 {
                prop_assert_eq!(
                    p.points_gathered + p.seen_hits + p.tombstones_skipped,
                    p.rows_fetched,
                    "fetch accounting leaks rows"
                );
            }
            scanned |= p.parts_scanned > 0;
        }
        let cases = SCAN_CASES.fetch_add(1, Ordering::Relaxed) + 1;
        let with_scan = SCAN_CASES_SCANNED.fetch_add(u32::from(scanned), Ordering::Relaxed)
            + u32::from(scanned);
        prop_assert!(
            cases < 16 || 2 * with_scan >= cases,
            "only {} of {} cases scanned",
            with_scan,
            cases
        );
    }
}

/// Every shard scans against the floor the shards before it left, so a
/// query's shards split into those whose rows raise that floor and those
/// whose boxes and rows certify they hold nothing better — query by query,
/// shard by shard: on these 24 uniform queries over four 4 500-row shards,
/// each a slab of the attractive dimension 0, both kinds occur, and the
/// merged answer is SeqScan's bit for bit.
#[test]
fn scanning_and_certifying_shards_merge_to_the_oracle() {
    let (n, dims, k, shards) = (18_000, 4, 16, 4);
    let mut rows: Vec<Vec<f64>> = generate(Distribution::Uniform, n, dims, 0x5CA9)
        .iter()
        .map(|(_, c)| c.to_vec())
        .collect();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let data = Arc::new(Dataset::from_rows(dims, &rows).unwrap());
    let roles = roles_for(dims, 2);
    let oracle = SeqScan::new(data.clone(), &roles).unwrap();
    let queries = uniform_queries(24, dims, 0x5CAA);
    let engine = SdEngine::build_with(
        data.clone(),
        &roles,
        &EngineOptions {
            shards,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let mut scratch = QueryScratch::new();
    let (mut one, mut some, mut all) = (0, 0, 0);
    for q in &queries {
        let want = oracle.query(q, k).unwrap();
        let got = engine.query_with(q, k, &mut scratch).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.id, g.score.to_bits()), (w.id, w.score.to_bits()));
        }
        assert_eq!(scratch.profile.parts_scanned, shards as u64);
        let raising = scratch
            .part_floor_updates()
            .iter()
            .filter(|&&updates| updates > 0)
            .count();
        match raising {
            1 => one += 1,
            r if r == shards => all += 1,
            _ => some += 1,
        }
    }
    // Which shards raise the floor is a fact of the data.
    assert!(
        one + some > 0,
        "{one} queries raised by one shard, {some} by some, {all} by all"
    );
}

/// How dirty an engine of the sweep below is.
#[derive(Debug, Clone, Copy)]
enum Dirt {
    Clean,
    Tombstoned,
    TombstonedDelta,
    /// Tombstoned and given delta rows, then compacted: the dirty shards
    /// rebuilt and the ids renumbered densely over the live rows.
    Compacted,
}

/// Where the engine of the sweep below serves its queries from.
#[derive(Debug, Clone, Copy)]
enum Serve {
    /// The engine that was built and dirtied in memory.
    Owned,
    /// The same engine saved to a v5 file and opened `open_mapped`: a
    /// fresh engine over the same rows, tombstones and delta region.
    Mapped,
}

static MAPPED_CASE: AtomicU32 = AtomicU32::new(0);

/// Builds `rows` into an engine of `shards` shards, dirties it, serves
/// it as `serve` says, and checks `queries` — in order, on one engine —
/// against SeqScan over its
/// live rows, bit for bit, and every shard's plan against the planner's
/// rule; returns each query's profile.
#[allow(clippy::too_many_arguments)] // one sweep cell
fn scans_match_the_oracle(
    rows: &[Vec<f64>],
    roles: &[DimRole],
    shards: usize,
    dirt: Dirt,
    serve: Serve,
    k: usize,
    queries: &[sdq::SdQuery],
) -> Vec<QueryProfile> {
    let dims = roles.len();
    let mut rows = rows.to_vec();
    let mut engine = SdEngine::build_with(
        Dataset::from_rows(dims, &rows).unwrap(),
        roles,
        &EngineOptions {
            shards,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    if let Dirt::TombstonedDelta | Dirt::Compacted = dirt {
        // Copies of indexed rows (ties across base and delta) and fresh ones.
        for i in 0..24 {
            let row = if i % 2 == 0 {
                rows[(i * 613) % rows.len()].clone()
            } else {
                (0..dims).map(|d| 0.05 * (i + d) as f64 % 1.0).collect()
            };
            engine.insert(&row).unwrap();
            rows.push(row);
        }
    }
    let mut dead = vec![false; rows.len()];
    if !matches!(dirt, Dirt::Clean) {
        for victim in (3..rows.len()).step_by(11) {
            assert!(engine.delete(PointId::new(victim as u32)).unwrap());
            dead[victim] = true;
        }
    }
    if let Dirt::Compacted = dirt {
        engine.compact().unwrap();
        rows = (0..rows.len())
            .filter(|&i| !dead[i])
            .map(|i| rows[i].clone())
            .collect();
        dead = vec![false; rows.len()];
    }
    if let Serve::Mapped = serve {
        let dir = std::env::temp_dir().join(format!("sdq-oracle-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "cell-{}.sdq",
            MAPPED_CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut snap = Snapshot::new();
        snap.engine = Some(engine);
        snap.save_v5(&path).unwrap();
        engine = Snapshot::open_mapped(&path)
            .unwrap()
            .snapshot
            .engine
            .unwrap();
        assert!(engine.is_mapped());
        std::fs::remove_file(&path).ok();
    }
    let live_ids: Vec<u32> = (0..rows.len() as u32)
        .filter(|&i| !dead[i as usize])
        .collect();
    let live_rows: Vec<Vec<f64>> = live_ids.iter().map(|&i| rows[i as usize].clone()).collect();
    let oracle = SeqScan::new(Dataset::from_rows(dims, &live_rows).unwrap(), roles).unwrap();
    let mut scratch = QueryScratch::new();
    let mut profiles = Vec::with_capacity(queries.len());
    for q in queries {
        let cell = format!("{shards} shard(s), {dirt:?}, {serve:?}");
        // Every plan is a box scan of its shard's chunks — one pair's,
        // with a live weight or none, as any other roles' — and the plans
        // count every chunk of the engine once.
        let plans = engine.explain(q, k).unwrap().plans;
        let chunks: usize = plans
            .iter()
            .map(|QueryPlan::Scan { chunks, .. }| chunks)
            .sum();
        let base: usize = engine
            .shard_infos()
            .iter()
            .map(|s| s.rows.div_ceil(64))
            .sum();
        assert_eq!(chunks, base, "{cell}: {q:?}");
        let want = oracle.query(q, k).unwrap();
        let got = engine.query_with(q, k, &mut scratch).unwrap();
        assert_eq!(got.len(), want.len(), "{cell}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.id.raw(), g.score.to_bits()),
                (live_ids[w.id.index()], w.score.to_bits()),
                "{cell}"
            );
        }
        profiles.push(scratch.profile);
    }
    profiles
}

/// A zero weight is bounded out of the box scan, at every shard size: each
/// query zeroes one dimension's weight, on 4 shards of {200, 800, 1 250,
/// 25 000} rows, at k {16, 64}, clean and tombstoned, owned and mapped, bit
/// for bit against SeqScan — over a 2-D `[a, r]` engine and a 4-D one, both
/// of which scan every shard and walk none. A last query zeroes every
/// weight: every shard scans, and the answer is the first k live ids at
/// score 0, read off the chunks of the smallest ids.
#[test]
fn zero_weight_pairs_walk_their_frontier_to_the_oracle() {
    let shards = 4;
    for dims in [2, 4] {
        let roles = roles_for(dims, dims / 2);
        let mut queries = uniform_queries(dims + 1, dims, 0x2E0);
        for (zero, q) in queries.iter_mut().enumerate() {
            match q.weights.get_mut(zero) {
                Some(w) => *w = 0.0,
                None => q.weights.fill(0.0),
            }
        }
        for shard_rows in [200, 800, 1_250, 25_000] {
            let rows: Vec<Vec<f64>> = generate(
                Distribution::Uniform,
                shards * shard_rows,
                dims,
                0x2E1 ^ shard_rows as u64,
            )
            .iter()
            .map(|(_, c)| c.to_vec())
            .collect();
            for k in [16, 64] {
                for dirt in [Dirt::Clean, Dirt::Tombstoned] {
                    for serve in [Serve::Owned, Serve::Mapped] {
                        let cell = format!(
                            "{dims}-D, {shard_rows} rows a shard, k = {k}, {dirt:?}, {serve:?}"
                        );
                        let profiles =
                            scans_match_the_oracle(&rows, &roles, shards, dirt, serve, k, &queries);
                        let (all_zero, one_zero) = profiles.split_last().unwrap();
                        for p in one_zero {
                            assert_eq!(p.parts_scanned, shards as u64, "{cell}: {p:?}");
                            assert_eq!(p.blocks_popped, 0, "{cell}: {p:?}");
                        }
                        assert_eq!(all_zero.parts_scanned, shards as u64, "{cell}");
                        assert!(
                            all_zero.scan_rows <= 2 * 64 * k as u64,
                            "{cell}: {all_zero:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Every shard after the first scans against the floor it inherits from
/// the shards before it (and from the delta scan), over shards {1, 2, 4,
/// 8} × clean, tombstoned and tombstoned-plus-delta engines, bit for bit
/// against SeqScan. And a hostile lead: shard 0 holds 10 000
/// anti-correlated rows, stretched about 0.5 so they compete for the top
/// k, and shards 1–3 hold 10 000 uniform rows each; the floor the lead
/// leaves lets the others skip chunks, and their answers must be exact too.
#[test]
fn inherited_scans_merge_to_the_oracle() {
    let (n, dims, k) = (16_000, 6, 64);
    let roles = roles_for(dims, 4);
    let rows: Vec<Vec<f64>> = generate(Distribution::AntiCorrelated, n, dims, 0x1A4)
        .iter()
        .map(|(_, c)| c.to_vec())
        .collect();
    let queries = uniform_queries(3, dims, 0x1A5);
    for shards in [1, 2, 4, 8] {
        for dirt in [Dirt::Clean, Dirt::Tombstoned, Dirt::TombstonedDelta] {
            let profiles =
                scans_match_the_oracle(&rows, &roles, shards, dirt, Serve::Owned, k, &queries);
            for p in &profiles {
                assert_eq!(
                    p.parts_scanned, shards as u64,
                    "{shards} shard(s), {dirt:?}"
                );
            }
        }
    }

    let (m, k) = (10_000, 16);
    let mut rows: Vec<Vec<f64>> = generate(Distribution::AntiCorrelated, m, dims, 0x1A6)
        .iter()
        .map(|(_, c)| c.iter().map(|x| 2.0 * x - 0.5).collect())
        .collect();
    rows.extend(
        generate(Distribution::Uniform, 3 * m, dims, 0x1A7)
            .iter()
            .map(|(_, c)| c.to_vec()),
    );
    let queries = uniform_queries(4, dims, 0x1A5);
    for dirt in [Dirt::Clean, Dirt::Tombstoned, Dirt::TombstonedDelta] {
        let profiles = scans_match_the_oracle(&rows, &roles, 4, dirt, Serve::Owned, k, &queries);
        let skipped: u64 = profiles.iter().map(|p| p.chunks_skipped).sum();
        assert!(skipped > 0, "{dirt:?}: no shard skipped a chunk");
    }
}

/// Every query starts where a query that started lost once did: with the
/// scan, no stream fetched first. Over shards {1, 2, 4, 8} × clean /
/// tombstoned / tombstoned-plus-delta, built in memory and opened mapped,
/// on rows with exact duplicates and signed zeros — ties at the k-th score
/// — and queries at a signed zero; and at k ≥ n: every answer is SeqScan's
/// bit for bit, every shard scans, and no query runs a round.
#[test]
fn started_lost_queries_merge_to_the_oracle() {
    let dims = 6;
    let roles = roles_for(dims, 4);
    let check = |rows: &[Vec<f64>], k: usize, queries: &[sdq::SdQuery], shards: &[usize]| {
        for &shards in shards {
            for dirt in [Dirt::Clean, Dirt::Tombstoned, Dirt::TombstonedDelta] {
                for serve in [Serve::Owned, Serve::Mapped] {
                    let profiles =
                        scans_match_the_oracle(rows, &roles, shards, dirt, serve, k, queries);
                    let cell = format!("{shards} shard(s), {dirt:?}, {serve:?}, k {k}");
                    for (i, p) in profiles.iter().enumerate() {
                        assert_eq!(p.rounds, 0, "{cell}: query {i}");
                        assert_eq!(p.parts_scanned, shards as u64, "{cell}: query {i}");
                    }
                }
            }
        }
    };

    let mut rows: Vec<Vec<f64>> = generate(Distribution::AntiCorrelated, 8_000, dims, 0x1A8)
        .iter()
        .map(|(_, c)| c.to_vec())
        .collect();
    for i in (7..rows.len()).step_by(7) {
        rows[i] = rows[i / 2].clone();
    }
    for (i, row) in rows.iter_mut().enumerate().step_by(13) {
        row[i % dims] = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    let mut queries = uniform_queries(4, dims, 0x1A9);
    queries[1].point[0] = -0.0;
    queries[2].point[0] = 0.0;
    check(&rows, 64, &queries, &[1, 2, 4, 8]);

    // k ≥ n: every live row is in the answer, and no floor ever forms.
    let small: Vec<Vec<f64>> = rows[..300].to_vec();
    check(&small, 340, &queries, &[1, 4]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The box scan against the oracle on hostile inputs: rows drawn from a
    // handful of distinct ones (exact duplicates, ties at every score) over
    // ±0 and a few repeated values, all-zero and single-non-zero weights
    // beside mixed ones, a query at ±0, and k from 1 to past n — on engines
    // built, opened mapped, dirty (tombstones and delta rows) and compacted,
    // at 1 to 4 shards, bit for bit. (CI runs it on both kernel arms.)
    #[test]
    fn box_first_engines_answer_hostile_inputs_like_the_oracle(
        seed in 0u64..1 << 48,
        n in 1usize..700,
        dims in 3usize..=6,
        shards in 1usize..=4,
        k_kind in 0usize..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            2 => 0.5,
            3 => -0.25,
            _ => rng.gen_range(-1.0..1.0),
        };
        let distinct: Vec<Vec<f64>> = (0..rng.gen_range(1..=12))
            .map(|_| (0..dims).map(|_| value(&mut rng)).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| distinct[rng.gen_range(0..distinct.len())].clone())
            .collect();
        let roles: Vec<DimRole> = (0..dims)
            .map(|_| if rng.gen_bool(0.5) { DimRole::Repulsive } else { DimRole::Attractive })
            .collect();
        let mut queries = Vec::new();
        for kind in 0..6 {
            let point = (0..dims).map(|_| value(&mut rng)).collect();
            let weights = (0..dims)
                .map(|d| match kind {
                    0 => 0.0,
                    1 | 2 => if d == kind % dims { rng.gen_range(0.1..2.0) } else { 0.0 },
                    _ => if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..2.0) },
                })
                .collect();
            queries.push(sdq::SdQuery::new(point, weights).unwrap());
        }
        queries[5].point.fill(-0.0);
        let k = [1, 7, n, n + 5][k_kind];
        for dirt in [Dirt::Clean, Dirt::TombstonedDelta, Dirt::Compacted] {
            for serve in [Serve::Owned, Serve::Mapped] {
                let profiles =
                    scans_match_the_oracle(&rows, &roles, shards, dirt, serve, k, &queries);
                for p in &profiles {
                    prop_assert_eq!(p.rounds, 0);
                    prop_assert!(p.parts_scanned >= 1);
                }
            }
        }
    }
}

/// Rows that score far above the rest for one query, against the oracle:
/// 200 rows far out in every dimension, spread over every shard, are the
/// worst rows for a query inside the unit cube and the best by far for one
/// at their attractive coordinates. Whichever shard finds them first, the
/// floor they raise certifies the chunks around them, so that query scores
/// fewer chunks than the plain queries before and after it; and the query
/// after it runs exactly as on a fresh engine — the scan at once, counter
/// for counter, nothing carried from one query to the next.
#[test]
fn a_certifying_audit_runs_the_next_query_stream_first() {
    let dims = 6;
    let roles = roles_for(dims, 4);
    let mut rows: Vec<Vec<f64>> = generate(Distribution::AntiCorrelated, 8_000, dims, 0x1AA)
        .iter()
        .map(|(_, c)| c.to_vec())
        .collect();
    for (j, i) in (0..rows.len()).step_by(rows.len() / 200).enumerate() {
        for (d, x) in rows[i].iter_mut().enumerate() {
            *x = if d < 4 {
                1000.0
            } else {
                20.0 + 0.01 * (j * 37 % 200) as f64
            };
        }
    }
    let mut queries = uniform_queries(3, dims, 0x1AB);
    queries[1] = sdq::SdQuery::new(
        vec![1000.0, 1000.0, 1000.0, 1000.0, 0.5, 0.5],
        vec![1.0; dims],
    )
    .unwrap();
    for shards in [2, 4, 8] {
        for dirt in [Dirt::Clean, Dirt::Tombstoned, Dirt::TombstonedDelta] {
            for serve in [Serve::Owned, Serve::Mapped] {
                let cell = format!("{shards} shard(s), {dirt:?}, {serve:?}");
                let profiles =
                    scans_match_the_oracle(&rows, &roles, shards, dirt, serve, 64, &queries);
                let fresh =
                    scans_match_the_oracle(&rows, &roles, shards, dirt, serve, 64, &queries[2..]);
                for p in &profiles {
                    assert_eq!((p.rounds, p.parts_scanned), (0, shards as u64), "{cell}");
                }
                let far = profiles[1];
                assert!(far.chunks_skipped > 0, "{cell}: {far:?}");
                for plain in [profiles[0], profiles[2]] {
                    assert!(
                        far.chunks_scored < plain.chunks_scored,
                        "{cell}: {far:?}\n{plain:?}"
                    );
                }
                assert_eq!(profiles[2], fresh[0], "{cell}: the next query");
            }
        }
    }
}

/// Box order, end to end: 4-D and 6-D engines — every shard's rows in box
/// order, scanned chunk by chunk — answer like SeqScan, bit for bit, built,
/// loaded owned, opened mapped, dirty (rows inserted, and every query's best
/// rows deleted, so its floor forms over rows the scan must find elsewhere)
/// and compacted (the dirty shards re-boxed). Each query runs twice on one
/// scratch, and every shard scans.
#[test]
fn box_ordered_engines_answer_like_the_oracle() {
    let k = 24;
    for (roles, dist, seed) in [
        ("arra", Distribution::Uniform, 0xB0C5),
        ("aaaarr", Distribution::AntiCorrelated, 0xB0C6),
    ] {
        let roles: Vec<DimRole> = roles
            .chars()
            .map(|c| {
                if c == 'a' {
                    DimRole::Attractive
                } else {
                    DimRole::Repulsive
                }
            })
            .collect();
        let dims = roles.len();
        let data = generate(dist, 6_000, dims, seed);
        let mut rows: Vec<Vec<f64>> = data.iter().map(|(_, c)| c.to_vec()).collect();
        let queries = uniform_queries(6, dims, seed + 1);
        let options = EngineOptions {
            shards: 3,
            ..EngineOptions::default()
        };
        let mut engine = SdEngine::build_with(data, &roles, &options).unwrap();
        let boxed = |engine: &SdEngine| engine.shards().iter().all(|s| s.tree_stats().0 > 0);
        assert!(
            boxed(&engine),
            "every shard of an aggregating engine is in box order"
        );
        // Every live row by global id; `None` once deleted.
        let check = |engine: &SdEngine, rows: &[Option<Vec<f64>>], cell: &str| {
            let live_ids: Vec<u32> = (0..rows.len() as u32)
                .filter(|&i| rows[i as usize].is_some())
                .collect();
            let live: Vec<Vec<f64>> = rows.iter().flatten().cloned().collect();
            let oracle = SeqScan::new(Dataset::from_rows(dims, &live).unwrap(), &roles).unwrap();
            let mut scratch = QueryScratch::new();
            for q in &queries {
                let want = oracle.query(q, k).unwrap();
                for run in 0..2 {
                    let got = engine.query_with(q, k, &mut scratch).unwrap();
                    let got: Vec<_> = got
                        .iter()
                        .map(|sp| (sp.id.raw(), sp.score.to_bits()))
                        .collect();
                    let want: Vec<_> = want
                        .iter()
                        .map(|sp| (live_ids[sp.id.index()], sp.score.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{cell}, run {run}");
                }
                assert_eq!(
                    scratch.profile.parts_scanned,
                    engine.shard_count() as u64,
                    "{cell}: every shard scans"
                );
            }
        };
        let mut by_id: Vec<Option<Vec<f64>>> = rows.iter().cloned().map(Some).collect();
        check(&engine, &by_id, "built");

        let bytes = {
            let mut snap = Snapshot::new();
            snap.engine = Some(engine.clone());
            snap.to_bytes_v5().unwrap()
        };
        let loaded = Snapshot::from_bytes(&bytes).unwrap().engine.unwrap();
        assert!(boxed(&loaded));
        check(&loaded, &by_id, "loaded");
        let dir = std::env::temp_dir().join(format!("sdq-box-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{dims}d.sdq"));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = Snapshot::open_mapped(&path)
            .unwrap()
            .snapshot
            .engine
            .unwrap();
        assert!(mapped.is_mapped() && boxed(&mapped));
        check(&mapped, &by_id, "mapped");
        drop(mapped);
        std::fs::remove_dir_all(&dir).ok();

        // Dirty: copies of indexed rows (ties across base and delta) and
        // fresh ones, then every query's three best rows deleted.
        for i in 0..120 {
            let row = if i % 2 == 0 {
                rows[(i * 331) % rows.len()].clone()
            } else {
                (0..dims)
                    .map(|d| ((i * 7 + d * 13) % 97) as f64 / 97.0)
                    .collect()
            };
            engine.insert(&row).unwrap();
            rows.push(row.clone());
            by_id.push(Some(row));
        }
        for q in &queries {
            let live: Vec<Vec<f64>> = by_id.iter().flatten().cloned().collect();
            let live_ids: Vec<u32> = (0..by_id.len() as u32)
                .filter(|&i| by_id[i as usize].is_some())
                .collect();
            let oracle = SeqScan::new(Dataset::from_rows(dims, &live).unwrap(), &roles).unwrap();
            for sp in oracle.query(q, 3).unwrap() {
                let id = live_ids[sp.id.index()];
                assert!(engine.delete(PointId::new(id)).unwrap());
                by_id[id as usize] = None;
            }
        }
        check(&engine, &by_id, "dirty");

        engine.compact().unwrap();
        assert!(boxed(&engine), "compaction re-boxes the shards it rebuilds");
        let compacted: Vec<Option<Vec<f64>>> = by_id.into_iter().flatten().map(Some).collect();
        check(&engine, &compacted, "compacted");
    }
}
