//! An unpaired dimension is bounded by its extents, never streamed — its
//! index's, recorded in every file, and each chunk box's, which the scan
//! reads:
//!
//! * files written while unpaired dimensions were sorted columns (two
//!   checked-in fixtures, one with a lone attractive column, one with two
//!   lone repulsive ones) still open owned and mapped, answer like the
//!   oracle, scrub clean, and re-save without a single `col{i}` region;
//! * for role sets heavy in unpaired dimensions — no pair at all included —
//!   every engine answer, at 1, 2 and 4 shards, clean, tombstoned or with a
//!   delta region, built, reloaded or mapped, is bit-identical to
//!   [`SeqScan`] over the live rows; query points outside the data, zero
//!   and signed-zero weights and `k ≥ n` included;
//! * a shard with no pair certifies against its chunks' extents, not
//!   against 0: at 4 shards the rows that win are in the last shard.

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::baselines::SeqScan;
use sdq::core::QueryScratch;
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::{parse_roles, scrub_path, MappedBytes, Snapshot};
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

/// The rows of a clean engine (no delta, no tombstone), by global id:
/// every shard's rows by id, in shard order.
fn rows_of(engine: &SdEngine) -> Vec<(u32, Vec<f64>)> {
    let mut rows = Vec::new();
    for shard in engine.shards() {
        for (_, c) in shard.rows_by_id().unwrap().iter() {
            rows.push((rows.len() as u32, c.to_vec()));
        }
    }
    rows
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

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Both fixtures were written by `sdq build --shards 2` over 300 synthetic
/// rows while an unpaired dimension was a sorted column (`aaarr`: uniform,
/// seed 36, one attractive `col0`; `arrr`: anti-correlated, seed 37,
/// repulsive `col0` and `col1`) — and so before box order: their rows are
/// in id order, with no id column and no chunk table, and a scan reads each
/// shard as one run. A compaction re-boxes the shards it rebuilds.
#[test]
fn files_with_sorted_columns_open_owned_and_mapped() {
    for (name, roles, cols) in [
        ("aaarr-sorted-columns.sdq", "aaarr", 1),
        ("arrr-sorted-columns.sdq", "arrr", 2),
    ] {
        let path = fixture(name);
        let bytes = std::fs::read(&path).unwrap();
        let names = region_names(&bytes);
        for shard in 0..2 {
            for c in 0..cols {
                for half in ["values", "rows"] {
                    let region = format!("engine-shard{shard}/col{c}/{half}");
                    assert!(names.contains(&region), "{name}: no {region}");
                }
            }
        }
        assert!(
            names
                .iter()
                .all(|r| !r.ends_with("data.ids") && !r.ends_with("data.boxes")),
            "{name}: written before box order"
        );
        let roles = parse_roles(roles).unwrap();
        let dims = roles.len();
        let owned = Snapshot::load(&path).unwrap().engine.unwrap();
        assert!(owned.shards().iter().all(|s| s.row_ids().is_none()));
        let mapped = Snapshot::open_mapped(&path).unwrap();
        assert!(mapped.is_mapped());
        let mapped_engine = mapped.snapshot.engine.as_ref().unwrap();
        assert_eq!(owned.roles(), &roles[..]);
        assert_eq!(owned.len(), 300);
        let live = rows_of(&owned);
        let unpaired = owned.shards()[0].unpaired().to_vec();
        assert_eq!(unpaired.len(), cols);
        let lone = |d: usize| unpaired.contains(&d);

        let points = [
            vec![0.5; dims],
            vec![-3.0; dims],
            vec![4.0; dims],
            vec![-0.0; dims],
        ];
        let weights = [
            vec![1.0; dims],
            (0..dims).map(|d| (d + 1) as f64 * 0.5).collect(),
            // The unpaired dimensions alone, and everything but them.
            (0..dims).map(|d| f64::from(u8::from(lone(d)))).collect(),
            (0..dims)
                .map(|d| if lone(d) { -0.0 } else { 1.0 })
                .collect(),
        ];
        for point in &points {
            for w in &weights {
                let q = SdQuery::new(point.clone(), w.clone()).unwrap();
                for k in [1, 7, 64, 300, 305] {
                    let want = bits(&oracle(&live, &roles, &q, k));
                    let at = format!("{name} point {point:?} weights {w:?} k {k}");
                    assert_eq!(bits(&owned.query(&q, k).unwrap()), want, "owned {at}");
                    assert_eq!(
                        bits(&mapped_engine.query(&q, k).unwrap()),
                        want,
                        "mapped {at}"
                    );
                }
            }
        }

        // Every region, the columns' included, checks out.
        mapped.verify_all().unwrap();
        let report = scrub_path(&path, false).unwrap();
        assert!(report.clean(), "{name}: {report:?}");

        // Re-saved, both replicas write the extent layout: no column, the
        // same bytes from each, and the same answers once reopened.
        let resaved = |engine: &SdEngine| {
            Snapshot {
                engine: Some(engine.clone()),
                ..Snapshot::default()
            }
            .to_bytes_v5()
            .unwrap()
        };
        let image = resaved(&owned);
        assert_eq!(
            resaved(mapped_engine),
            image,
            "{name}: owned and mapped re-save alike"
        );
        assert!(
            image.len() < bytes.len(),
            "{name}: the columns' bytes are gone"
        );
        let names = region_names(&image);
        assert!(
            names.iter().all(|r| !r.contains("/col")),
            "{name}: {names:?}"
        );
        let reopened = Snapshot::from_bytes(&image).unwrap().engine.unwrap();
        let q = SdQuery::new(vec![0.25; dims], vec![1.0; dims]).unwrap();
        assert_eq!(
            reopened.query(&q, 10).unwrap(),
            owned.query(&q, 10).unwrap()
        );

        // A row deleted from each shard, then compacted: both shards are
        // rebuilt in box order, and answer for the rows left.
        let mut compacted = owned.clone();
        for id in [0, 150] {
            assert!(compacted.delete(PointId::new(id)).unwrap());
        }
        assert_eq!(compacted.compact().unwrap().rebuilt_shards, 2);
        assert!(compacted.shards().iter().all(|s| s.row_ids().is_some()));
        let left: Vec<(u32, Vec<f64>)> = (live.iter())
            .filter(|(id, _)| ![0, 150].contains(id))
            .enumerate()
            .map(|(i, (_, row))| (i as u32, row.clone()))
            .collect();
        for point in &points {
            let q = SdQuery::new(point.clone(), vec![1.0; dims]).unwrap();
            for k in [1, 64, 298] {
                let want = bits(&oracle(&left, &roles, &q, k));
                assert_eq!(
                    bits(&compacted.query(&q, k).unwrap()),
                    want,
                    "{name} compacted"
                );
            }
        }
    }
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

/// Role sets where unpaired dimensions dominate, none-paired ones included.
const ROLE_SETS: [&str; 10] = [
    "aar", "arr", "aaar", "arrr", "aaaarr", "a", "r", "aa", "rr", "rrr",
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
                    prop_assert!(region_names(&image).iter().all(|r| !r.contains("/col")));
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
        assert_eq!(p.scan_fallbacks, 4, "{p:?}");
        // Each scoring shard scores its top chunk alone: box order cuts a
        // shard's 100 rows into a leaf of the 64 lowest and one of the 36
        // highest, and once those 36 put k = 10 scores in the floor, the
        // lower leaf's box bound is under it.
        assert_eq!(p.chunks_scored, scoring, "{p:?}");
        assert_eq!(p.chunks_skipped, 8 - scoring, "{p:?}");
        assert_eq!(p.scan_rows, 36 * scoring, "{p:?}");
    }
}
