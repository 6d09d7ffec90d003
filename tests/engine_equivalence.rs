//! Exactness guarantees of the sharded `SdEngine`:
//!
//! * engine answers over `S` shards are **bit-identical** to the unsharded
//!   [`SdIndex`] path — same ids, same score bits — for random datasets,
//!   roles, weights and `k`, *including ties at the k-th score* (the
//!   coordinate generator deliberately draws from a tiny value alphabet so
//!   duplicated rows and tied scores are common, and zero weights force
//!   the planner through its degenerate branch and its 0°/90° frontiers),
//! * a dirty, reused [`QueryScratch`] answers exactly like a fresh one,
//! * `par_query_batch` is bit-identical to the serial loop,
//! * snapshot round-trips preserve engine answers bit-exactly,
//! * `explain` reports the direct 2-D search exactly when it runs.

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::baselines::SeqScan;
use sdq::core::multidim::{QueryPlan, SdIndex};
use sdq::core::QueryScratch;
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::Snapshot;
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdQuery};

/// Coordinates from a tiny alphabet: duplicate rows and exact score ties
/// at the k-th position are the norm, not the exception.
fn tie_heavy_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(2.0),
        1 => Just(3.0),
        1 => Just(-1.5),
        2 => -10.0..10.0f64,
    ]
}

/// Weights including zeros (degenerate pairs / dropped streams) and shared
/// magnitudes (tied contributions).
fn tie_heavy_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        2 => Just(0.0),
        2 => Just(1.0),
        1 => Just(0.5),
        2 => 0.0..4.0f64,
    ]
}

fn assert_bit_identical(
    what: &str,
    got: &[ScoredPoint],
    want: &[ScoredPoint],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length mismatch", what);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(g.id, w.id, "{}: id mismatch", what);
        prop_assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{}: score bits diverge ({} vs {})",
            what,
            g.score,
            w.score
        );
    }
    Ok(())
}

fn build_queries(dims: usize, raw: &[(Vec<f64>, Vec<f64>)]) -> Vec<SdQuery> {
    raw.iter()
        .map(|(p, w)| SdQuery::new(p[..dims].to_vec(), w[..dims].to_vec()).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The headline guarantee: shard-and-merge == monolithic, bit for bit,
    // ties included — and at two dimensions, one
    // walk over every shard == the walk over one index.
    #[test]
    fn engine_is_bit_identical_to_unsharded(
        rows in vec(vec(tie_heavy_coord(), 4), 1..80),
        raw_queries in vec((vec(tie_heavy_coord(), 4), vec(tie_heavy_weight(), 4)), 1..6),
        dims in prop_oneof![Just(2usize), Just(4)],
        role_bits in 0u8..16,
        k in 1usize..20,
        shards in 1usize..7,
    ) {
        let roles: Vec<DimRole> = (0..dims)
            .map(|d| if role_bits & (1 << d) != 0 { DimRole::Repulsive } else { DimRole::Attractive })
            .collect();
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r[..dims].to_vec()).collect();
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let queries = build_queries(dims, &raw_queries);

        let mono = SdIndex::build(data.clone(), &roles).unwrap();
        let engine = SdEngine::build_with(
            data.clone(),
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();

        for q in &queries {
            let want = mono.query(q, k).unwrap();
            let got = engine.query(q, k).unwrap();
            assert_bit_identical("sharded engine", &got, &want)?;
        }
    }

    // A scratch dirtied by arbitrary earlier queries returns exactly what
    // a fresh engine query returns.
    #[test]
    fn engine_scratch_reuse_is_bit_identical(
        rows in vec(vec(tie_heavy_coord(), 3), 1..60),
        raw_queries in vec((vec(tie_heavy_coord(), 3), vec(tie_heavy_weight(), 3)), 1..8),
        k in 1usize..10,
        shards in 1usize..5,
    ) {
        let dims = 3;
        let roles = [DimRole::Repulsive, DimRole::Attractive, DimRole::Attractive];
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let queries = build_queries(dims, &raw_queries);
        let engine = SdEngine::build_with(
            data,
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();

        let mut scratch = QueryScratch::new();
        for q in &queries {
            let fresh = engine.query(q, k).unwrap();
            let reused = engine.query_with(q, k, &mut scratch).unwrap();
            assert_bit_identical("QueryScratch reuse", reused, &fresh)?;
        }
    }

    // The parallel batch path returns exactly the serial answers, in input
    // order.
    #[test]
    fn engine_batch_is_bit_identical_to_serial(
        rows in vec(vec(tie_heavy_coord(), 3), 1..50),
        raw_queries in vec((vec(tie_heavy_coord(), 3), vec(tie_heavy_weight(), 3)), 1..10),
        k in 1usize..8,
        shards in 1usize..5,
        threads in 0usize..7,
    ) {
        let dims = 3;
        let roles = [DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive];
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let queries = build_queries(dims, &raw_queries);
        let engine = SdEngine::build_with(
            data,
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();

        let serial: Vec<Vec<ScoredPoint>> =
            queries.iter().map(|q| engine.query(q, k).unwrap()).collect();
        let batch = engine.par_query_batch(&queries, k, threads).unwrap();
        prop_assert_eq!(serial.len(), batch.len());
        for (s, b) in serial.iter().zip(&batch) {
            assert_bit_identical("engine par_query_batch", b, s)?;
        }
    }

    // Snapshot save → load → query is bit-identical, and the
    // reassembled engine keeps its shard layout.
    #[test]
    fn engine_snapshot_roundtrip_is_bit_identical(
        rows in vec(vec(tie_heavy_coord(), 4), 1..60),
        raw_queries in vec((vec(tie_heavy_coord(), 4), vec(tie_heavy_weight(), 4)), 1..4),
        k in 1usize..10,
        shards in 1usize..5,
    ) {
        let dims = 4;
        let roles = [
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let queries = build_queries(dims, &raw_queries);
        let engine = SdEngine::build_with(
            data,
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();

        let mut snap = Snapshot::new();
        snap.engine = Some(engine.clone());
        let bytes = snap.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        let restored = back.engine.as_ref().unwrap();
        prop_assert_eq!(restored.shard_count(), engine.shard_count());
        prop_assert_eq!(restored.len(), engine.len());
        for (a, b) in restored.shards().iter().zip(engine.shards()) {
            prop_assert_eq!(a.data().flat(), b.data().flat());
        }
        for q in &queries {
            let want = engine.query(q, k).unwrap();
            let got = restored.query(q, k).unwrap();
            assert_bit_identical("snapshot-restored engine", &got, &want)?;
        }
        // Deterministic bytes.
        prop_assert_eq!(back.to_bytes_v5().unwrap(), bytes);
    }
}

/// `explain` and the executor agree at 2-D, where a walk used to run: a
/// plan says box scan on every shard, and the query then scans every shard
/// and walks none — one zero weight, both zero or neither, whatever the
/// shard count, tombstones or delta rows. Every cell answers like the
/// sequential scan over the live rows.
#[test]
fn explain_says_direct_exactly_when_the_direct_search_runs() {
    let (n, k) = (2_000, 10);
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let data = generate(Distribution::Uniform, n, 2, 0xE1);
    let mut queries = uniform_queries(6, 2, 0xE2);
    let point = queries[0].point.clone();
    for weights in [[0.0, 1.5], [0.7, 0.0], [0.0, 0.0]] {
        queries.push(SdQuery::new(point.clone(), weights.to_vec()).unwrap());
    }
    let scan = SeqScan::new(data.clone(), &roles).unwrap();
    let best = scan.query(&queries[0], 1).unwrap()[0].id;
    // The delta row is a copy of that best row: it ties the row it replaces
    // and loses the tie to every indexed row of equal score.
    let mut flat = data.flat().to_vec();
    flat.extend_from_slice(&data.flat()[best.index() * 2..best.index() * 2 + 2]);
    let with_delta = SeqScan::new(Dataset::from_flat(2, flat).unwrap(), &roles).unwrap();
    for shards in [1, 4] {
        for (tombstones, delta) in [(false, false), (true, false), (true, true)] {
            let cell = format!("shards {shards} tombstones {tombstones} delta {delta}");
            let options = EngineOptions {
                shards,
                ..EngineOptions::default()
            };
            let mut engine = SdEngine::build_with(data.clone(), &roles, &options).unwrap();
            let mut dead = Vec::new();
            if tombstones {
                // One per shard, the best row of the first query among them.
                dead.push(best);
                for info in engine.shard_infos() {
                    let id = PointId::new(info.smallest_id as u32);
                    if !dead.contains(&id) {
                        dead.push(id);
                    }
                }
                for &id in &dead {
                    assert!(engine.delete(id).unwrap(), "{cell}");
                }
            }
            let scan = if delta {
                let row = &data.flat()[best.index() * 2..best.index() * 2 + 2];
                assert_eq!(engine.insert(row).unwrap(), PointId::new(n as u32));
                &with_delta
            } else {
                &scan
            };
            let mut scratch = QueryScratch::new();
            for q in &queries {
                let plans = engine.explain(q, k).unwrap().plans;
                let got = engine.query_with(q, k, &mut scratch).unwrap().to_vec();
                let p = scratch.profile;
                assert_eq!(p.parts_scanned, shards as u64, "{cell} {:?}", q.weights);
                assert_eq!(
                    (p.blocks_popped, p.nodes_visited, p.rounds),
                    (0, 0, 0),
                    "{cell}"
                );
                assert_eq!(plans.len(), shards, "{cell}");
                assert!(
                    plans.iter().all(|p| matches!(p, QueryPlan::Scan { .. })),
                    "{cell}"
                );
                let mut want = scan.query(q, k + dead.len()).unwrap();
                want.retain(|sp| !dead.contains(&sp.id));
                want.truncate(k);
                assert_bit_identical(&cell, &got, &want).unwrap();
            }
        }
    }
}
