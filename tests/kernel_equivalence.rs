//! Bit-identity guarantees of the vectorized scoring kernels:
//!
//! * the batch kernels reproduce the scalar [`sd_score`] **bit-for-bit**
//!   in every lane — all role mixes, weights including zero, NaN-free
//!   extreme magnitudes, signed-zero terms — under every dispatchable ISA
//!   (forced-scalar and the host's detected level),
//! * the batched k-th-floor survivor compare agrees with a per-lane scalar
//!   filter under arbitrary dirty live masks,
//! * the batched lane filter of the §5 aggregation is the per-lane
//!   `floor <= inflate(score + others)` on every ISA — exact ties, one ulp
//!   either side, infinities, signed zeros and denormals included,
//! * end-to-end: a mutated, sharded [`SdEngine`] answers **bit-identically**
//!   (ids and score bits, k-th-score ties included) with the scalar
//!   fallback forced and with runtime dispatch active — the property that
//!   makes `SDQ_FORCE_SCALAR` a pure performance knob and canonical
//!   answers host-independent.

use std::sync::Mutex;

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::core::kernels::{self, LANES};
use sdq::core::QueryScratch;
use sdq::engine::{EngineOptions, SdEngine};
use sdq::{sd_score, Dataset, DimRole, PointId, ScoredPoint, SdQuery};

/// `force_scalar` is process-global; serialize the tests that toggle it.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once with the scalar fallback forced and once with runtime
/// dispatch, restoring dispatch afterwards.
fn with_both_dispatches(mut f: impl FnMut(bool)) {
    let _guard = DISPATCH_LOCK.lock().unwrap();
    kernels::force_scalar(true);
    f(true);
    kernels::force_scalar(false);
    f(false);
}

/// Coordinates spanning ties (tiny alphabet) and NaN-free extremes.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        2 => Just(0.0),
        1 => Just(-0.0),
        2 => Just(1.0),
        1 => Just(-1.5),
        1 => Just(1e300),
        1 => Just(-1e300),
        1 => Just(1e-300),
        3 => -100.0..100.0f64,
    ]
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        2 => Just(0.0),
        2 => Just(1.0),
        1 => Just(2.5),
        2 => 0.0..10.0f64,
    ]
}

fn role() -> impl Strategy<Value = DimRole> {
    prop_oneof![Just(DimRole::Attractive), Just(DimRole::Repulsive)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Lane-for-lane, the kernel accumulation is the scalar `sd_score`.
    #[test]
    fn kernel_scores_match_scalar_bitwise(
        dims in 1usize..7,
        seed_cols in vec(coord(), 7 * LANES),
        q in vec(coord(), 7),
        w in vec(weight(), 7),
        roles in vec(role(), 7),
    ) {
        let cols: Vec<&[f64]> = (0..dims).map(|d| &seed_cols[d * LANES..(d + 1) * LANES]).collect();
        with_both_dispatches(|forced| {
            let mut out = [0.0f64; LANES];
            kernels::score_zero(&mut out);
            for d in 0..dims {
                kernels::score_add_dim(&mut out, cols[d], q[d], roles[d].sign() * w[d]);
            }
            for l in 0..LANES {
                let p: Vec<f64> = (0..dims).map(|d| cols[d][l]).collect();
                let want = sd_score(&p, &q[..dims], &roles[..dims], &w[..dims]);
                assert_eq!(
                    out[l].to_bits(),
                    want.to_bits(),
                    "lane {l} (forced_scalar = {forced})"
                );
            }
        });
    }

    // The batched survivor compare is the scalar filter, dirty masks
    // included (dead lanes never survive; ties at the floor do).
    #[test]
    fn survivors_match_scalar_filter(
        scores in vec(coord(), LANES),
        live in 0u32..=u32::MAX,
        floor in coord(),
    ) {
        with_both_dispatches(|forced| {
            let got = kernels::survivors(&scores, live, floor);
            for (l, &s) in scores.iter().enumerate() {
                let want = live & (1 << l) != 0 && s >= floor;
                assert_eq!(
                    got & (1 << l) != 0,
                    want,
                    "lane {l} (forced_scalar = {forced})"
                );
            }
        });
    }

    // The lane filter is the per-lane inflated compare, dirty masks and
    // extreme magnitudes included.
    #[test]
    fn lane_filter_matches_scalar_expression(
        scores in vec(coord(), LANES),
        live in 0u32..=u32::MAX,
        others in coord(),
        floor in coord(),
    ) {
        with_both_dispatches(|forced| {
            let got = kernels::lane_filter(&scores, live, others, floor);
            for (l, &s) in scores.iter().enumerate() {
                let want = live & (1 << l) != 0 && floor <= kernels::inflate(s + others);
                assert_eq!(
                    got & (1 << l) != 0,
                    want,
                    "lane {l} (forced_scalar = {forced})"
                );
            }
        });
    }
}

/// `v` moved `ulps` representable steps up (`v` finite and positive).
fn ulps_up(v: f64, ulps: i64) -> f64 {
    assert!(v.is_finite() && v > 0.0);
    f64::from_bits((v.to_bits() as i64 + ulps) as u64)
}

/// The edges the aggregation's lane filter meets, each checked on both
/// dispatch arms against the per-lane expression.
#[test]
fn lane_filter_edges() {
    let check = |scores: &[f64], live: u32, others: f64, floor: f64, want: u32, what: &str| {
        let mut expr = 0u32;
        for (l, &s) in scores.iter().enumerate() {
            expr |= u32::from(floor <= kernels::inflate(s + others)) << l;
        }
        assert_eq!(expr & live, want, "{what}: the test's own expectation");
        with_both_dispatches(|forced| {
            assert_eq!(
                kernels::lane_filter(scores, live, others, floor),
                want,
                "{what} (forced_scalar = {forced})"
            );
        });
    };
    let scores: Vec<f64> = (0..LANES).map(|l| 1.0 + l as f64 * 0.125).collect();
    let others = 0.75;
    for lane in [0usize, 3, 4, 17, 31] {
        // Exactly at the inflated sum: kept, with every lane above it.
        let at = kernels::inflate(scores[lane] + others);
        check(&scores, u32::MAX, others, at, u32::MAX << lane, "tie kept");
        // The floor one ulp higher: that lane is now below it.
        let above = u32::MAX.checked_shl(lane as u32 + 1).unwrap_or(0);
        check(
            &scores,
            u32::MAX,
            others,
            ulps_up(at, 1),
            above,
            "one ulp below dropped",
        );
        check(
            &scores,
            u32::MAX,
            others,
            ulps_up(at, -1),
            u32::MAX << lane,
            "one ulp above kept",
        );
    }
    let dirty = 0b1001_0110_1111_0000_1010_0101_0011_1100u32;
    check(
        &scores,
        dirty,
        others,
        f64::NEG_INFINITY,
        dirty,
        "floor -inf keeps all live",
    );
    check(
        &scores,
        dirty,
        others,
        f64::INFINITY,
        0,
        "floor +inf keeps none",
    );
    check(&scores, 0, others, 0.0, 0, "no live lane");
    check(
        &scores[..5],
        u32::MAX,
        others,
        0.0,
        0b1_1111,
        "short block: tail lanes dead",
    );
    // A drained sibling stream contributes -inf: inflate(-inf) is NaN and
    // the ordered compare drops every lane, whatever the floor.
    check(
        &scores,
        u32::MAX,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        0,
        "others -inf",
    );
    // Signed zeros: the sum's sign never reaches the compare.
    let zeros: Vec<f64> = (0..LANES)
        .map(|l| if l % 2 == 0 { 0.0 } else { -0.0 })
        .collect();
    for others in [0.0, -0.0] {
        check(
            &zeros,
            u32::MAX,
            others,
            0.0,
            u32::MAX,
            "±0 sums reach a floor of 0",
        );
        check(
            &zeros,
            u32::MAX,
            others,
            1e-12,
            u32::MAX,
            "slack of 1e-12 at 0",
        );
        check(
            &zeros,
            u32::MAX,
            others,
            ulps_up(1e-12, 1),
            0,
            "just past the slack",
        );
    }
    // Denormal scores: the sum stays denormal, the slack dominates.
    let tiny: Vec<f64> = (0..LANES)
        .map(|l| f64::from_bits(1 + l as u64 * 977))
        .collect();
    check(&tiny, dirty, 0.0, 5e-13, dirty, "denormals under the slack");
    check(&tiny, dirty, -0.0, 2e-12, 0, "denormals over the slack");
}

/// Tie-heavy end-to-end workload: forced-scalar answers must equal
/// dispatched answers bit-for-bit through the whole engine — sharding,
/// delta region, tombstones, k-th-score ties and all.
#[test]
fn engine_answers_bit_identical_scalar_vs_dispatched() {
    // Tiny coordinate alphabet: k-th-score ties are the norm.
    let rows: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            vec![
                (i % 5) as f64,
                (i % 3) as f64,
                ((i * 7) % 4) as f64 * 0.5,
                (i % 2) as f64,
            ]
        })
        .collect();
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let queries: Vec<SdQuery> = (0..24)
        .map(|i| {
            SdQuery::new(
                vec![
                    (i % 4) as f64,
                    (i % 3) as f64 * 0.5,
                    1.0,
                    (i % 5) as f64 * 0.25,
                ],
                vec![1.0, (i % 3) as f64, 0.5, if i % 4 == 0 { 0.0 } else { 2.0 }],
            )
            .unwrap()
        })
        .collect();

    let run = |queries: &[SdQuery]| -> Vec<Vec<ScoredPoint>> {
        let data = Dataset::from_rows(4, &rows).unwrap();
        let mut engine = SdEngine::build_with(
            data,
            &roles,
            &EngineOptions {
                shards: 3,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        // Dirty the engine: fresh rows in the delta region, tombstones in
        // base and delta — the masked + delta-scan paths must match too.
        for i in 0..40 {
            engine
                .insert(&[(i % 5) as f64, 2.0, (i % 3) as f64, 0.0])
                .unwrap();
        }
        for id in [3u32, 77, 200, 399, 401, 410] {
            engine.delete(PointId::new(id)).unwrap();
        }
        let mut scratch = QueryScratch::new();
        queries
            .iter()
            .flat_map(|q| {
                [1usize, 7, 16, 500]
                    .into_iter()
                    .map(|k| engine.query_with(q, k, &mut scratch).unwrap().to_vec())
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let _guard = DISPATCH_LOCK.lock().unwrap();
    kernels::force_scalar(true);
    let scalar = run(&queries);
    kernels::force_scalar(false);
    let dispatched = run(&queries);

    assert_eq!(scalar.len(), dispatched.len());
    for (i, (a, b)) in scalar.iter().zip(&dispatched).enumerate() {
        assert_eq!(a.len(), b.len(), "answer {i}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "answer {i}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "answer {i}: {} vs {}",
                x.score,
                y.score
            );
        }
    }
}

/// The box scan scores rows straight off the row-major table
/// (`kernels::score_rows`): shards whose row counts are not multiples of
/// [`LANES`] (a short last chunk) or of eight (the AVX2 arm's scalar tail —
/// 1, 4, 5 and 6 rows past its last eight-row step below), tombstones in
/// the mask word, every shard scanned — answers and every counter are the
/// same on both dispatch arms.
#[test]
fn scan_exit_bit_identical_scalar_vs_dispatched() {
    use sdq::data::{generate, uniform_queries, Distribution};
    let (dims, k) = (6, 64);
    let roles: Vec<DimRole> = "aaaarr"
        .chars()
        .map(|c| match c {
            'a' => DimRole::Attractive,
            _ => DimRole::Repulsive,
        })
        .collect();
    // Shard rows 1 333 / 1 334 / 1 334, then 2 012 × 2, then 1 001 × 3.
    for (n, shards) in [(4_001, 3), (4_024, 2), (3_003, 3)] {
        let build = || {
            let mut engine = SdEngine::build_with(
                generate(Distribution::AntiCorrelated, n, dims, 0x5CA7),
                &roles,
                &EngineOptions {
                    shards,
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            for id in (0..n as u32).step_by(13) {
                engine.delete(PointId::new(id)).unwrap();
            }
            engine
        };
        // Every shard ends in a short piece.
        assert!(build()
            .shard_infos()
            .iter()
            .all(|s| s.rows % LANES != 0 && s.rows % 8 != 0));
        let queries = uniform_queries(12, dims, 0x5CA8);
        let run = || {
            let engine = build();
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for q in &queries {
                let answer = engine.query_with(q, k, &mut scratch).unwrap().to_vec();
                out.push((answer, scratch.profile));
            }
            out
        };
        let _guard = DISPATCH_LOCK.lock().unwrap();
        kernels::force_scalar(true);
        let scalar = run();
        kernels::force_scalar(false);
        let dispatched = run();
        for (i, ((a, pa), (b, pb))) in scalar.iter().zip(&dispatched).enumerate() {
            assert_eq!(
                pa.parts_scanned, shards as u64,
                "query {i}: every shard scans"
            );
            assert!(pa.scan_rows > 0 && pa.tombstones_skipped > 0);
            assert!(pa.chunks_scored > 0, "query {i}");
            assert_eq!(a.len(), k);
            for (x, y) in a.iter().zip(b) {
                assert_eq!((x.id, x.score.to_bits()), (y.id, y.score.to_bits()));
            }
            // Field for field, but for the label of the arm that ran.
            assert_eq!(pa.isa, "scalar");
            assert_eq!(sdq::core::QueryProfile { isa: pb.isa, ..*pa }, *pb);
        }
    }
}

/// The direct 2-D walk — over one bare `SdIndex` over roles `[a, r]`, and
/// over every shard of a 3-shard engine at once, one row tombstoned — is
/// likewise dispatch-independent.
#[test]
fn topk_direct_path_bit_identical_scalar_vs_dispatched() {
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![((i * 13) % 7) as f64, ((i * 5) % 9) as f64 * 0.5])
        .collect();
    let data = Dataset::from_rows(2, &rows).unwrap();
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let index = sdq::core::multidim::SdIndex::build(data.clone(), &roles).unwrap();
    let mut engine = SdEngine::build_with(
        data,
        &roles,
        &EngineOptions {
            shards: 3,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    engine.delete(PointId::new(150)).unwrap();
    let run = || {
        let mut out = Vec::new();
        for (qx, qy, alpha, beta, k) in [
            (3.0, 1.0, 1.0, 1.0, 9),
            (0.5, 2.0, 2.0, 0.7, 25),
            (6.0, 0.0, 0.3, 1.9, 4),
        ] {
            let query = SdQuery::new(vec![qx, qy], vec![beta, alpha]).unwrap();
            out.push(index.query(&query, k).unwrap());
            out.push(engine.query(&query, k).unwrap());
        }
        out
    };
    let _guard = DISPATCH_LOCK.lock().unwrap();
    kernels::force_scalar(true);
    let scalar = run();
    kernels::force_scalar(false);
    let dispatched = run();
    for (a, b) in scalar.iter().zip(&dispatched) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }
}
