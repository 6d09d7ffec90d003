//! A shard that aggregates stores no pair index: nothing reads one, since
//! every query that is not a single pair is one box scan. Files written
//! while it still stored one `pair{i}` index per pair keep opening:
//!
//! * the checked-in fixture was written by `sdq build --synthetic uniform
//!   --n 700 --dims 4 --seed 11 --roles arra --shards 2` of that time — its
//!   rows in box order (ids and chunk boxes), and two pair indexes a shard;
//! * it opens owned and mapped, scrubs clean, and answers bit for bit what a
//!   fresh build over the same rows and [`SeqScan`] answer, the pair regions
//!   read past;
//! * re-saved — what `sdq compact` does with a clean store — it holds no
//!   pair region, and its bytes are a fresh build's.

use sdq::baselines::SeqScan;
use sdq::data::{generate, Distribution};
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::{parse_roles, scrub_path, MappedBytes, Snapshot};
use sdq::{PointId, ScoredPoint, SdQuery};

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
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

fn image(engine: &SdEngine) -> Vec<u8> {
    Snapshot {
        engine: Some(engine.clone()),
        ..Snapshot::default()
    }
    .to_bytes_v5()
    .unwrap()
}

#[test]
fn files_with_pair_regions_open_owned_and_mapped() {
    let path = fixture("arra-pair-regions.sdq");
    let bytes = std::fs::read(&path).unwrap();
    let names = region_names(&bytes);
    for shard in 0..2 {
        for region in ["data.ids", "data.boxes", "pair0/meta", "pair1/blocks.xs"] {
            let region = format!("engine-shard{shard}/{region}");
            assert!(names.contains(&region), "no {region}");
        }
        let firsts = format!("engine-shard{shard}/data.firsts");
        assert!(!names.contains(&firsts), "written before chunk first ids");
    }

    let roles = parse_roles("arra").unwrap();
    let data = generate(Distribution::Uniform, 700, 4, 11);
    let fresh = SdEngine::build_with(
        data.clone(),
        &roles,
        &EngineOptions {
            shards: 2,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let oracle = SeqScan::new(data, &roles).unwrap();
    let owned = Snapshot::load(&path).unwrap().engine.unwrap();
    let mapped = Snapshot::open_mapped(&path).unwrap();
    assert!(mapped.is_mapped());
    let mapped_engine = mapped.snapshot.engine.as_ref().unwrap();
    for engine in [&owned, mapped_engine] {
        assert_eq!(engine.len(), 700);
        assert!(engine.shards().iter().all(|s| s.row_ids().is_some()));
        assert!(engine.shards().iter().all(|s| s.block_stats() == (0, 0)));
    }

    let points = [vec![0.5; 4], vec![-0.0; 4], vec![0.9, 0.1, 0.3, 0.7]];
    let weights = [
        vec![1.0; 4],
        vec![0.0; 4],
        vec![0.0, 2.0, 0.0, 0.0],
        vec![0.3, 1.0, 0.0, 0.8],
    ];
    for point in &points {
        for w in &weights {
            let q = SdQuery::new(point.clone(), w.clone()).unwrap();
            for k in [1, 16, 700, 704] {
                let want = bits(&oracle.query(&q, k).unwrap());
                let at = format!("point {point:?} weights {w:?} k {k}");
                assert_eq!(bits(&fresh.query(&q, k).unwrap()), want, "fresh {at}");
                assert_eq!(bits(&owned.query(&q, k).unwrap()), want, "owned {at}");
                let got = mapped_engine.query(&q, k).unwrap();
                assert_eq!(bits(&got), want, "mapped {at}");
            }
        }
    }

    // Every region, the pair indexes' included, checks out.
    mapped.verify_all().unwrap();
    let report = scrub_path(&path, false).unwrap();
    assert!(report.clean(), "{report:?}");

    // Re-saved after a compaction (of a clean engine: nothing rebuilt),
    // both replicas write what a fresh build writes: no pair region, and
    // under half the bytes.
    let mut compacted = owned.clone();
    assert_eq!(compacted.compact().unwrap().rebuilt_shards, 0);
    let resaved = image(&compacted);
    assert_eq!(
        image(mapped_engine),
        resaved,
        "owned and mapped re-save alike"
    );
    assert_eq!(resaved, image(&fresh), "a fresh build's bytes");
    assert!(
        2 * resaved.len() < bytes.len(),
        "{} of {} bytes",
        resaved.len(),
        bytes.len()
    );
    let names = region_names(&resaved);
    assert!(names.iter().all(|r| !r.contains("/pair")), "{names:?}");
}
