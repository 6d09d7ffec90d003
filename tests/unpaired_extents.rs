//! A dimension no pair takes is bounded by its chunks' extents — each chunk
//! box's, which the scan reads — never streamed, and a shard's layout is a
//! function of its roles alone:
//!
//! * for role sets heavy in unpaired dimensions — no pair at all included —
//!   and for the two that are one pair (`ar`, `ra`), every engine answer, at
//!   1, 2 and 4 shards, clean, tombstoned or with a delta region, built,
//!   reloaded or mapped, is bit-identical to [`SeqScan`] over the live
//!   rows; query points outside the data, zero and signed-zero weights and
//!   `k ≥ n` included. A one-pair file holds the pair's block set and no
//!   box order, every other file the box order and no block set;
//! * a shard with no pair certifies against its chunks' extents, not
//!   against 0: at 4 shards the rows that win are in the last shard.

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::baselines::SeqScan;
use sdq::core::multidim::walked_pair;
use sdq::core::QueryScratch;
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::{parse_roles, MappedBytes, Snapshot};
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdQuery};

/// The canonical top-`k` of `live` — `(global id, row)`, ascending by id —
/// by [`SeqScan`], its ids mapped back (the map is monotone, so ties
/// resolve as they would over the global ids).
fn oracle(live: &[(u32, Vec<f64>)], roles: &[DimRole], q: &SdQuery, k: usize) -> Vec<ScoredPoint> {
    if live.is_empty() {
        return Vec::new();
    }
    let rows: Vec<Vec<f64>> = live.iter().map(|(_, r)| r.clone()).collect();
    let scan = SeqScan::new(Dataset::from_rows(roles.len(), &rows).unwrap(), roles).unwrap();
    let mut answer = scan.query(q, k).unwrap();
    for sp in &mut answer {
        sp.id = PointId::new(live[sp.id.index()].0);
    }
    answer
}

fn bits(answer: &[ScoredPoint]) -> Vec<(PointId, u64)> {
    answer
        .iter()
        .map(|sp| (sp.id, sp.score.to_bits()))
        .collect()
}

/// Region names of a v5 image.
fn region_names(bytes: &[u8]) -> Vec<String> {
    let opened = Snapshot::from_mapped(MappedBytes::copy_from(bytes)).unwrap();
    opened
        .regions()
        .iter()
        .map(|r| r.name().to_string())
        .collect()
}

/// Coordinates from a small alphabet (ties, ±0) plus a continuous range.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(1.0),
        1 => Just(-2.5),
        3 => -10.0..10.0f64,
    ]
}

/// Query coordinates: the data's alphabet and range, and far outside it.
fn query_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => coord(),
        1 => Just(-40.0),
        1 => Just(55.0),
    ]
}

/// Weights: zero of both signs, one, and a range.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(1.0),
        2 => 0.0..4.0f64,
    ]
}

/// Role sets where unpaired dimensions dominate, none-paired ones included,
/// and the two that are one pair and so walk.
const ROLE_SETS: [&str; 12] = [
    "aar", "arr", "aaar", "arrr", "aaaarr", "a", "r", "aa", "rr", "rrr", "ar", "ra",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Dirt {
    Clean,
    Tombstoned,
    Delta,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unpaired_heavy_engines_match_seqscan(
        rows in vec(vec(coord(), 6), 1..48),
        extra in vec(vec(coord(), 6), 1..6),
        raw_queries in vec((vec(query_coord(), 6), vec(weight(), 6)), 1..4),
    ) {
        let n = rows.len();
        for spec in ROLE_SETS {
            let roles = parse_roles(spec).unwrap();
            let dims = roles.len();
            let cut = |r: &Vec<f64>| r[..dims].to_vec();
            let base: Vec<Vec<f64>> = rows.iter().map(cut).collect();
            let queries: Vec<SdQuery> = raw_queries
                .iter()
                .map(|(p, w)| SdQuery::new(p[..dims].to_vec(), w[..dims].to_vec()).unwrap())
                .collect();
            for shards in [1, 2, 4] {
                for dirt in [Dirt::Clean, Dirt::Tombstoned, Dirt::Delta] {
                    let mut engine = SdEngine::build_with(
                        Dataset::from_rows(dims, &base).unwrap(),
                        &roles,
                        &EngineOptions { shards, ..EngineOptions::default() },
                    )
                    .unwrap();
                    let mut live: Vec<(u32, Vec<f64>)> =
                        base.iter().cloned().enumerate().map(|(i, r)| (i as u32, r)).collect();
                    if dirt == Dirt::Delta {
                        for r in &extra {
                            let id = engine.insert(&cut(r)).unwrap();
                            live.push((id.index() as u32, cut(r)));
                        }
                    }
                    if dirt != Dirt::Clean {
                        // Every third row, base and delta alike.
                        for i in (0..live.len()).step_by(3).rev() {
                            let (id, _) = live.remove(i);
                            prop_assert!(engine.delete(PointId::new(id)).unwrap());
                        }
                    }
                    let image = Snapshot { engine: Some(engine.clone()), ..Snapshot::default() }
                        .to_bytes_v5()
                        .unwrap();
                    // The roles alone pick the layout: a pair's block set, or
                    // the box order.
                    let names = region_names(&image);
                    let walks = walked_pair(&roles).is_some();
                    prop_assert_eq!(names.iter().any(|r| r.ends_with("/pair0/meta")), walks);
                    prop_assert_eq!(names.iter().any(|r| r.ends_with("/data.firsts")), !walks);
                    let owned = Snapshot::from_bytes(&image).unwrap().engine.unwrap();
                    let mapped = Snapshot::from_mapped(MappedBytes::copy_from(&image)).unwrap();
                    let mapped = mapped.snapshot.engine.unwrap();
                    prop_assert!(mapped.is_mapped());
                    for q in &queries {
                        for k in [1, 3, n, n + 7] {
                            let want = bits(&oracle(&live, &roles, q, k));
                            for (mode, e) in [("built", &engine), ("owned", &owned), ("mapped", &mapped)] {
                                prop_assert_eq!(
                                    bits(&e.query(q, k).unwrap()),
                                    want.clone(),
                                    "{} {} shards {} {:?} k {} q {:?}",
                                    spec, mode, shards, dirt, k, q
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `rr` has no pair, so each shard is bounded by its chunks' extents (their
/// boxes) alone. Rows climb with their id, so under a query at the origin
/// the last shard holds every winner: a shard bounded by `0` would find the
/// floor of the first shard's scan above it and score nothing, answering
/// with the first shard's rows. Run backwards, the first shard's scan does
/// beat every later shard's boxes, and they score no row.
#[test]
fn a_pairless_execution_certifies_against_its_extents() {
    let roles = parse_roles("rr").unwrap();
    let n = 400;
    let climbing: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![i as f64 * 0.5, (i % 17) as f64 * 0.01 + i as f64])
        .collect();
    let falling: Vec<Vec<f64>> = climbing.iter().rev().cloned().collect();
    let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
    let k = 10;
    for (rows, scoring) in [(&climbing, 4), (&falling, 1)] {
        let live: Vec<(u32, Vec<f64>)> = rows
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u32, r))
            .collect();
        let want = bits(&oracle(&live, &roles, &q, k));
        let winners = if scoring == 4 { 300..400 } else { 0..100 };
        assert!(want.iter().all(|(id, _)| winners.contains(&id.index())));
        let engine = SdEngine::build_with(
            Dataset::from_rows(2, rows).unwrap(),
            &roles,
            &EngineOptions {
                shards: 4,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let mut scratch = QueryScratch::new();
        let got = bits(engine.query_with(&q, k, &mut scratch).unwrap());
        assert_eq!(got, want);
        let p = scratch.profile;
        assert_eq!(p.parts_scanned, 4, "{p:?}");
        // Each scoring shard scores its top chunk alone: box order cuts a
        // shard's 100 rows into a leaf of the 64 lowest and one of the 36
        // highest, and once those 36 put k = 10 scores in the floor, the
        // lower leaf's box bound is under it.
        assert_eq!(p.chunks_scored, scoring, "{p:?}");
        assert_eq!(p.chunks_skipped, 8 - scoring, "{p:?}");
        assert_eq!(p.scan_rows, 36 * scoring, "{p:?}");
    }
}
