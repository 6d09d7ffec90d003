//! Equivalence guarantees of the reusable-scratch query engine:
//!
//! * `query_with` on a dirty, reused [`QueryScratch`] is **bit-identical**
//!   to a fresh `query` (same ids, same score bits) on every engine,
//! * one `SdIndex` shared immutably across 8 threads answers exactly like
//!   the serial loop (concurrency smoke test).

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::baselines::TaIndex;
use sdq::core::multidim::SdIndex;
use sdq::core::QueryScratch;
use sdq::paper::topk::TopKIndex;
use sdq::{Dataset, DimRole, ScoredPoint, SdQuery};

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -100.0..100.0f64,
        1 => Just(0.0),
        1 => Just(1.0),
        1 => -1e6..1e6f64,
    ]
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![4 => 0.0..10.0f64, 1 => Just(0.0), 1 => Just(1.0)]
}

/// Bit-level equality: same ids in the same order, score bits equal.
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

    // (a) A scratch dirtied by arbitrary earlier queries returns exactly
    // what a fresh allocating query returns — SdIndex and TA baseline.
    #[test]
    fn sd_scratch_reuse_is_bit_identical(
        rows in vec(vec(coord(), 4), 1..80),
        raw_queries in vec((vec(coord(), 4), vec(weight(), 4)), 1..8),
        role_bits in 0u8..16,
        k in 1usize..12,
    ) {
        let dims = 4;
        let roles: Vec<DimRole> = (0..dims)
            .map(|d| if role_bits & (1 << d) != 0 { DimRole::Repulsive } else { DimRole::Attractive })
            .collect();
        let data = Dataset::from_rows(dims, &rows).unwrap();
        let queries = build_queries(dims, &raw_queries);

        let sd = SdIndex::build(data.clone(), &roles).unwrap();
        let ta = TaIndex::build(data, &roles).unwrap();
        // One scratch across all queries: state from query i-1 is the
        // "dirt" query i must be immune to.
        let mut scratch = QueryScratch::new();
        for q in &queries {
            let fresh = sd.query(q, k).unwrap();
            let reused = sd.query_with(q, k, &mut scratch).unwrap();
            assert_bit_identical("SdIndex", reused, &fresh)?;

            let fresh = ta.query(q, k).unwrap();
            let reused = ta.query_with(q, k, &mut scratch).unwrap();
            assert_bit_identical("TaIndex", reused, &fresh)?;
        }
    }

    // (a) continued: the 2-D engine, with the same scratch fed both the
    // indexed-angle and the bracketed path in interleaved order.
    #[test]
    fn topk_scratch_reuse_is_bit_identical(
        pts in vec((coord(), coord()), 1..120),
        queries in vec((coord(), coord(), weight(), weight()), 1..10),
        k in 1usize..12,
    ) {
        let topk = TopKIndex::build(&pts).unwrap();
        let mut scratch = sdq::paper::QueryScratch::new();
        for &(qx, qy, alpha, beta) in &queries {
            if alpha == 0.0 && beta == 0.0 {
                continue; // degenerate weights are rejected by both paths
            }
            let fresh = topk.query(qx, qy, alpha, beta, k).unwrap();
            let reused = topk.query_with(qx, qy, alpha, beta, k, &mut scratch).unwrap();
            assert_bit_identical("TopKIndex", reused, &fresh)?;
        }
    }
}

/// (c) Concurrency smoke test: 8 threads hammer one shared `SdIndex`, each
/// with its own scratch, and every thread sees the serial answers.
#[test]
fn eight_threads_share_one_index() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(88);
    let dims = 4;
    let rows: Vec<Vec<f64>> = (0..4_000)
        .map(|_| (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let data = Dataset::from_rows(dims, &rows).unwrap();
    let sd = SdIndex::build(data, &roles).unwrap();
    let queries: Vec<SdQuery> = (0..32)
        .map(|_| {
            SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
            )
            .unwrap()
        })
        .collect();
    let serial: Vec<Vec<ScoredPoint>> = queries.iter().map(|q| sd.query(q, 8).unwrap()).collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let sd = &sd;
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                let mut scratch = QueryScratch::new();
                // Each thread walks the workload from a different offset so
                // the index is probed at 8 different spots at once.
                for i in 0..queries.len() {
                    let j = (i + t * 4) % queries.len();
                    let got = sd.query_with(&queries[j], 8, &mut scratch).unwrap();
                    let want = &serial[j];
                    assert_eq!(got.len(), want.len(), "thread {t}, query {j}");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.id, w.id, "thread {t}, query {j}");
                        assert_eq!(
                            g.score.to_bits(),
                            w.score.to_bits(),
                            "thread {t}, query {j}"
                        );
                    }
                }
            });
        }
    });
}
