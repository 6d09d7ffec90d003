//! A shard's layout is a function of its roles alone, and every layout
//! answers what [`SeqScan`] answers:
//!
//! * every file holds each shard's rows once, the global id of each row
//!   (`data.ids`) and each 64-row chunk's smallest id (`data.firsts`); a
//!   file of one pair (`ar`, `ra`) holds the pair's envelope tree
//!   (`pair0/*`) above them, and every other file the chunk boxes
//!   (`data.boxes`);
//! * for role sets heavy in unpaired dimensions — no pair at all included —
//!   and for the two that are one pair, every engine answer, at 1, 2 and 4
//!   shards, clean, tombstoned or with a delta region, built, reloaded or
//!   mapped, is bit-identical to [`SeqScan`] over the live rows; query
//!   points outside the data, zero and signed-zero weights and `k ≥ n`
//!   included;
//! * a dimension no pair takes is bounded by its chunks' boxes, never
//!   streamed, and a shard with no pair certifies against those boxes, not
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
                    // The roles alone pick the layout: every shard's ids and
                    // first ids, then a pair's envelope tree or the chunk
                    // boxes.
                    let names = region_names(&image);
                    let walks = walked_pair(&roles).is_some();
                    let holds = |region: &str| names.iter().any(|r| r.ends_with(region));
                    prop_assert!(holds("/data.ids") && holds("/data.firsts"));
                    prop_assert_eq!(holds("/pair0/meta"), walks);
                    prop_assert_eq!(holds("/data.boxes"), !walks);
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
/// boxes) alone. Rows climb with their id (or, run backwards, fall), so
/// under a query at the origin the winners are the rows farthest out: a
/// chunk bounded by `0` would find the floor of an earlier chunk above it
/// and score nothing. The shards are cells of one box order, whose last
/// leaf holds the 16 rows farthest out: the query's lead scores that chunk
/// first, whichever ids its rows carry, and every other chunk's box bound
/// is then under the floor.
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
    for (rows, winners) in [(&climbing, 300..400), (&falling, 0..100)] {
        let live: Vec<(u32, Vec<f64>)> = rows
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u32, r))
            .collect();
        let want = bits(&oracle(&live, &roles, &q, k));
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
        assert_eq!(
            (p.chunks_scored, p.chunks_skipped, p.scan_rows),
            (1, 6, 16),
            "{p:?}"
        );
    }
}
