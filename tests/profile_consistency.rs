//! Observability must be free and honest: the [`QueryProfile`] counters
//! threaded through every hot path may never change an answer, and the
//! numbers they report must be internally consistent.
//!
//! * A profiled query (timing on, dirty recycled scratch) is **bit
//!   identical** to the plain allocation path, on the monolithic
//!   [`SdIndex`] and on the sharded [`SdEngine`].
//! * Counters obey the pipeline algebra: `scored ≤ gathered ≤ fetched`,
//!   `gathered + seen_hits + tombstones_skipped == fetched`, the pruning
//!   funnel is monotone non-increasing past its dataset-size head, and
//!   `emitted == min(k, live)` — through the box scan, whose `scan_rows`
//!   are fetched rows that pass through the block stages, and through the
//!   walk, which scans no chunk.
//! * Forced-scalar kernels report exactly the same pruning counters as
//!   the dispatched ISA — only the ISA name (and, in principle, the batch
//!   granularity) may differ. Pruning decisions are ISA-independent.
//! * The engine-level [`EngineMetrics`] registry accumulates across
//!   queries and compactions, and cumulative `MutationStats` totals
//!   survive both compaction and `restore_mutations`.

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::core::kernels;
use sdq::core::multidim::SdIndex;
use sdq::core::{QueryProfile, QueryScratch};
use sdq::engine::{EngineOptions, SdEngine};
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdQuery};

/// Tiny coordinate alphabet: duplicate rows and tied scores are common,
/// which stresses the seen-set and floor-update counters.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(-2.0),
        3 => -8.0..8.0f64,
    ]
}

/// Weights with zeros so the planner's dropped pairs, its 0°/90° frontiers
/// and the all-zero query (no stream at all: it scans from the start, its
/// rows passing through the funnel's block stages) are exercised.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![1 => Just(0.0), 1 => Just(1.0), 2 => 0.0..3.0f64]
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

/// The counter algebra every profiled aggregation must satisfy. `live` is
/// the number of live rows the query ran over.
fn assert_counters_consistent(p: &QueryProfile, k: usize, live: u64) -> Result<(), TestCaseError> {
    prop_assert!(
        p.points_scored <= p.points_gathered,
        "scored {} > gathered {}",
        p.points_scored,
        p.points_gathered
    );
    prop_assert!(
        p.points_gathered <= p.rows_fetched,
        "gathered {} > fetched {}",
        p.points_gathered,
        p.rows_fetched
    );
    prop_assert_eq!(
        p.points_gathered + p.seen_hits + p.tombstones_skipped,
        p.rows_fetched,
        "fetch accounting leaks rows"
    );
    // A query either walks (no scan, no chunk) or scans every non-empty
    // part once, each chunk of it scored or skipped, never both: the
    // scanned rows are the scored chunks' rows.
    if p.parts_scanned == 0 {
        prop_assert_eq!((p.scan_rows, p.chunks_scored, p.chunks_skipped), (0, 0, 0));
    } else {
        prop_assert_eq!(p.blocks_popped, 0, "a query walked and scanned");
        prop_assert!(p.chunks_scored >= p.parts_scanned.min(1));
        prop_assert!(p.scan_rows <= p.rows_fetched);
    }
    prop_assert_eq!(p.emitted, (k as u64).min(live), "emitted != min(k, live)");
    let funnel = p.funnel(live);
    for w in funnel.windows(2).skip(1) {
        prop_assert!(
            w[0].1 >= w[1].1,
            "funnel not monotone: {} {} < {} {}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
    Ok(())
}

/// The first `dims` coordinates of every query, all-zero weights included.
fn build_queries(raw: &[(Vec<f64>, Vec<f64>)], dims: usize) -> Vec<SdQuery> {
    raw.iter()
        .map(|(p, w)| SdQuery::new(p[..dims].to_vec(), w[..dims].to_vec()).unwrap())
        .collect()
}

/// The first `dims` coordinates of every row.
fn truncate_rows(rows: &[Vec<f64>], dims: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = rows.iter().map(|r| r[..dims].to_vec()).collect();
    Dataset::from_rows(dims, &rows).unwrap()
}

fn roles_from_bits(dims: usize, bits: u8) -> Vec<DimRole> {
    (0..dims)
        .map(|d| {
            if bits & (1 << d) != 0 {
                DimRole::Repulsive
            } else {
                DimRole::Attractive
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Profiling is observation only: a dirty, timing-enabled scratch
    // returns exactly what the fresh allocation path returns, and the
    // counters it leaves behind are internally consistent — on the
    // aggregation (all-zero weights, which scan from the start, included)
    // and on the direct walk (2-D, one attractive and one repulsive
    // dimension).
    #[test]
    fn profiled_sd_index_query_is_bit_identical_and_consistent(
        rows in vec(vec(coord(), 4), 1..120),
        raw_queries in vec((vec(coord(), 4), vec(weight(), 4)), 1..6),
        dims in 2usize..5,
        role_bits in 0u8..16,
        k in 1usize..24,
    ) {
        let roles = roles_from_bits(dims, role_bits);
        let live = rows.len() as u64;
        let data = truncate_rows(&rows, dims);
        let queries = build_queries(&raw_queries, dims);
        let index = SdIndex::build(data, &roles).unwrap();

        let mut scratch = QueryScratch::new();
        scratch.profile.timing = true;
        for q in &queries {
            let want = index.query(q, k).unwrap();
            let got = index.query_with(q, k, &mut scratch).unwrap().to_vec();
            assert_bit_identical("profiled SdIndex", &got, &want)?;
            assert_counters_consistent(&scratch.profile, k, live)?;
        }
    }

    // The same contract through the sharded engine: per-shard profiles are
    // merged into one with the delta scan's, a walk over every shard counts
    // as one, and the counters still add up — also with tombstoned rows,
    // indexed and delta, which every road must count as fetched and
    // skipped.
    #[test]
    fn profiled_engine_query_is_bit_identical_and_consistent(
        rows in vec(vec(coord(), 3), 1..90),
        delta in vec(vec(coord(), 3), 1..4),
        raw_queries in vec((vec(coord(), 3), vec(weight(), 3)), 1..5),
        dims in 2usize..4,
        role_bits in 0u8..8,
        k in 1usize..12,
        shards in 1usize..5,
        dead_row in 0usize..2,
        dead_delta in 0usize..3,
    ) {
        let roles = roles_from_bits(dims, role_bits);
        let data = truncate_rows(&rows, dims);
        let queries = build_queries(&raw_queries, dims);
        let mut engine = SdEngine::build_with(
            data,
            &roles,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();
        // Indexed row 0 or none, and one of the 1–3 delta rows.
        if dead_row == 1 {
            engine.delete(PointId::new(0)).unwrap();
        }
        let ids: Vec<PointId> = delta
            .iter()
            .map(|row| engine.insert(&row[..dims]).unwrap())
            .collect();
        engine.delete(ids[dead_delta % ids.len()]).unwrap();
        let live = engine.len() as u64;

        let mut scratch = QueryScratch::new();
        scratch.profile.timing = true;
        for q in &queries {
            let want = engine.query(q, k).unwrap();
            let got = engine.query_with(q, k, &mut scratch).unwrap().to_vec();
            assert_bit_identical("profiled SdEngine", &got, &want)?;
            assert_counters_consistent(&scratch.profile, k, live)?;
        }
    }

    // Pruning decisions are ISA-independent: forcing the scalar kernels
    // changes the reported ISA name, nothing else.
    #[test]
    fn forced_scalar_reports_identical_pruning_counters(
        rows in vec(vec(coord(), 4), 2..100),
        point in vec(coord(), 4),
        weights in vec(weight(), 4),
        role_bits in 0u8..16,
        k in 1usize..16,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let dims = 4;
        let roles = roles_from_bits(dims, role_bits);
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let index = SdIndex::build(data, &roles).unwrap();
        let q = SdQuery::new(point, weights).unwrap();

        let mut scratch = QueryScratch::new();
        kernels::force_scalar(false);
        let dispatched = index.query_with(&q, k, &mut scratch).unwrap().to_vec();
        let p1 = scratch.profile;
        kernels::force_scalar(true);
        let scalar = index.query_with(&q, k, &mut scratch).unwrap().to_vec();
        let p2 = scratch.profile;
        kernels::force_scalar(false);

        assert_bit_identical("scalar vs dispatched", &scalar, &dispatched)?;
        // Everything except the ISA/batch keys must match exactly.
        prop_assert_eq!(p1.nodes_visited, p2.nodes_visited);
        prop_assert_eq!(p1.envelope_nodes_rejected, p2.envelope_nodes_rejected);
        prop_assert_eq!(p1.blocks_popped, p2.blocks_popped);
        prop_assert_eq!(p1.blocks_floor_pruned, p2.blocks_floor_pruned);
        prop_assert_eq!(p1.lanes_masked, p2.lanes_masked);
        prop_assert_eq!(p1.onedim_rows_pulled, p2.onedim_rows_pulled);
        prop_assert_eq!(p1.rows_fetched, p2.rows_fetched);
        prop_assert_eq!(p1.parts_scanned, p2.parts_scanned);
        prop_assert_eq!(p1.chunks_scored, p2.chunks_scored);
        prop_assert_eq!(p1.chunks_skipped, p2.chunks_skipped);
        prop_assert_eq!(p1.scan_rows, p2.scan_rows);
        prop_assert_eq!(p1.points_gathered, p2.points_gathered);
        prop_assert_eq!(p1.points_scored, p2.points_scored);
        prop_assert_eq!(p1.seen_hits, p2.seen_hits);
        prop_assert_eq!(p1.tombstones_skipped, p2.tombstones_skipped);
        prop_assert_eq!(p1.floor_updates, p2.floor_updates);
        prop_assert_eq!(p1.floor_value.to_bits(), p2.floor_value.to_bits());
        prop_assert_eq!(p1.rounds, p2.rounds);
        prop_assert_eq!(p1.emitted, p2.emitted);
    }
}

// ─── deterministic registry / cumulative-stats coverage ─────────────────────

/// Rows 0..n as a simple 4-D grid — deterministic fixture for the
/// metrics-registry tests below.
fn fixture_engine(n: usize, shards: usize) -> SdEngine {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                (i % 13) as f64,
                (i % 7) as f64,
                (i % 5) as f64,
                i as f64 * 0.25,
            ]
        })
        .collect();
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    SdEngine::build_with(
        Dataset::from_rows(4, &rows).unwrap(),
        &roles,
        &EngineOptions {
            shards,
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn engine_metrics_registry_accumulates() {
    let mut engine = fixture_engine(500, 3);
    let q = SdQuery::new(vec![3.0, 2.0, 1.0, 40.0], vec![1.0; 4]).unwrap();

    let mut scratch = QueryScratch::new();
    let mut scored_sum = 0u64;
    let mut updates = 0u64;
    for _ in 0..5 {
        engine.query_with(&q, 8, &mut scratch).unwrap();
        scored_sum += scratch.profile.points_scored;
        updates += scratch.profile.floor_updates;
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.queries_served, 5);
    assert_eq!(snap.rows_scored, scored_sum);
    // Every shard is credited exactly the floor updates its rows made.
    assert!(
        updates > 0,
        "some shard must have contributed floor updates"
    );
    assert_eq!(snap.floor_contributions.iter().sum::<u64>(), updates);
    assert_eq!(snap.compactions, 0);

    // Mutate + compact: the registry sees the compaction and its epoch
    // transitions; queries served keeps counting.
    engine.insert(&[1.0, 1.0, 1.0, 1.0]).unwrap();
    engine.delete(PointId::new(0)).unwrap();
    let report = engine.compact().unwrap();
    assert!(report.rebuilt_shards > 0);
    assert!(report.rows_moved > 0, "compaction rewrites live rows");
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.compactions, 1);
    assert_eq!(snap.epoch_transitions, report.rebuilt_shards as u64);
}

/// A 4-shard 2-D (`ar`) engine over `rows`: four cells of one box order.
fn engine_2d(rows: &[Vec<f64>]) -> SdEngine {
    SdEngine::build_with(
        Dataset::from_rows(2, rows).unwrap(),
        &[DimRole::Attractive, DimRole::Repulsive],
        &EngineOptions {
            shards: 4,
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

/// A single-pair query is one box scan over every cell, and each cell is
/// credited the floor updates its own rows made: the slots add up to the
/// profiles' `floor_updates`, and more than one slot is credited.
#[test]
fn single_pair_walk_floor_credits_sum_to_the_profile() {
    let rows: Vec<Vec<f64>> = (0..4000)
        .map(|i| vec![((i * 37) % 101) as f64 * 0.1, ((i * 53) % 97) as f64 * 0.1])
        .collect();
    let engine = engine_2d(&rows);
    let mut scratch = QueryScratch::new();
    let mut updates = 0;
    for i in 0..20 {
        let point = vec![(i % 5) as f64 * 2.0, (i % 7) as f64 * 1.5];
        let q = SdQuery::new(point, vec![1.0, 0.5 + i as f64 * 0.1]).unwrap();
        engine.query_with(&q, 16, &mut scratch).unwrap();
        let p = scratch.profile;
        assert_eq!(
            (p.parts_scanned, p.blocks_popped),
            (4, 0),
            "one scan of every cell"
        );
        updates += scratch.profile.floor_updates;
    }
    let slots = engine.metrics().snapshot().floor_contributions;
    assert_eq!(slots.iter().sum::<u64>(), updates);
    assert!(slots.iter().filter(|&&c| c > 0).count() > 1, "{slots:?}");
}

/// Every row that can reach the answer is a far one — the ids of the
/// third quarter, 100 up the repulsive dimension — near the query in the
/// attractive one. The split cuts the attractive dimension first and the
/// repulsive one second, so the far rows are the upper cell of each half,
/// and those near the query are cell 1's: every floor update of the scan
/// is cell 1's, none the other cells'.
#[test]
fn single_pair_walk_credits_the_shard_whose_rows_raised_the_floor() {
    let n = 4000;
    let far = |i: usize| (n / 2..3 * n / 4).contains(&i);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let y = ((i * 53) % 97) as f64 * 0.01 + if far(i) { 100.0 } else { 0.0 };
            vec![((i * 37) % 101) as f64 * 0.01, y]
        })
        .collect();
    let engine = engine_2d(&rows);
    let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
    let mut scratch = QueryScratch::new();
    engine.query_with(&q, 16, &mut scratch).unwrap();
    let updates = scratch.profile.floor_updates;
    assert!(updates > 0);
    let slots = engine.metrics().snapshot().floor_contributions;
    let holds_far: Vec<bool> = engine
        .shards()
        .iter()
        .map(|s| s.row_ids().iter().any(|&id| far(id as usize)))
        .collect();
    assert_eq!(holds_far, [false, true, false, true]);
    assert_eq!(slots[1], updates, "{slots:?}");
    assert_eq!(slots.iter().sum::<u64>(), updates, "{slots:?}");
}

#[test]
fn cumulative_mutation_totals_survive_compact_and_restore() {
    let mut engine = fixture_engine(200, 2);
    engine.insert(&[9.0, 9.0, 9.0, 9.0]).unwrap();
    engine.insert(&[8.0, 8.0, 8.0, 8.0]).unwrap();
    assert!(engine.delete(PointId::new(3)).unwrap());
    assert!(!engine.delete(PointId::new(3)).unwrap(), "already dead");

    let before = engine.mutation_stats();
    assert_eq!(before.inserted_total, 2);
    assert_eq!(before.deleted_total, 1);

    engine.compact().unwrap();
    let after_compact = engine.mutation_stats();
    assert_eq!(
        (after_compact.inserted_total, after_compact.deleted_total),
        (2, 1),
        "compaction folds the delta but keeps lifetime totals"
    );

    // Restore a snapshot-loaded write set: totals account for the
    // restored rows on top of what this engine already did.
    let delta = Dataset::from_rows(4, &[vec![7.0, 7.0, 7.0, 7.0]]).unwrap();
    engine.restore_mutations(delta, &[5]).unwrap();
    let after_restore = engine.mutation_stats();
    assert_eq!(after_restore.inserted_total, 3);
    assert_eq!(after_restore.deleted_total, 2);
}
