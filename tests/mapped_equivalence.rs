//! Zero-copy equivalence: a snapshot opened with [`Snapshot::open_mapped`]
//! (queries served straight off the mapped file, checksums on first touch)
//! and the same file read and verified up front by [`Snapshot::load`] (the
//! same in-place decode over one owned buffer) must both be
//! indistinguishable from the engine that was built in memory and never
//! serialised — every query answered bit-identically, every region checksum
//! verifiable, and any interleaving of inserts / deletes / compactions
//! applied to all three replicas keeping them in lock-step, down to the
//! bytes each one re-serialises.
//!
//! Tie-heavy coordinate generators make duplicate rows and exact score ties
//! the norm, so "bit-identical" here exercises tie resolution at the k-th
//! position, not just well-separated scores.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::store::Snapshot;
use sdq::{Dataset, DimRole, PointId, SdQuery};

const DIMS: usize = 3;
const ROLES: [DimRole; DIMS] = [DimRole::Attractive, DimRole::Repulsive, DimRole::Attractive];

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh on-disk path per proptest case (cases run concurrently).
fn case_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sdq-mapped-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{}.sdq", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn tie_heavy_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(-2.5),
        2 => -10.0..10.0f64,
    ]
}

fn row() -> impl Strategy<Value = Vec<f64>> {
    vec(tie_heavy_coord(), DIMS)
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![2 => Just(1.0), 1 => Just(0.0), 2 => 0.0..4.0f64]
}

fn query() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (vec(tie_heavy_coord(), DIMS), vec(weight(), DIMS))
}

#[derive(Debug, Clone)]
enum Op {
    /// Append a row to every replica's delta region.
    Insert(Vec<f64>),
    /// Tombstone the (selector % live-ids)-th id on every replica.
    Delete(usize),
    /// Fold deltas back and renumber densely — on every replica, since
    /// compaction renumbers ids.
    Compact,
}

/// Weighted op generator (the vendored proptest shim has no `prop_map`,
/// so this composes the primitive strategies by hand): 4:2:1 over
/// insert / delete / compact.
#[derive(Debug)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn generate(&self, rng: &mut proptest::TestRng) -> Op {
        match (0usize..7).generate(rng) {
            0..=3 => Op::Insert(row().generate(rng)),
            4..=5 => Op::Delete((0usize..10_000).generate(rng)),
            _ => Op::Compact,
        }
    }
}

fn op() -> impl Strategy<Value = Op> {
    OpStrategy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The built engine, `open_mapped` and `load` answer every query — over
    // every mutation interleaving — with bit-identical results, and all
    // three replicas re-serialise to byte-identical v5 containers.
    #[test]
    fn mapped_and_owned_replicas_stay_bit_identical(
        rows in vec(row(), 1..40),
        raw_queries in vec(query(), 1..5),
        ks in vec(1usize..12, 1..5),
        ops in vec(op(), 0..10),
        shards in 1usize..4,
    ) {
        let queries: Vec<SdQuery> = raw_queries
            .iter()
            .map(|(p, w)| SdQuery::new(p.clone(), w.clone()).unwrap())
            .collect();
        let options = sdq::engine::EngineOptions {
            shards,
            ..sdq::engine::EngineOptions::default()
        };
        let engine = sdq::engine::SdEngine::build_with(
            Dataset::from_rows(DIMS, &rows).unwrap(),
            &ROLES,
            &options,
        )
        .unwrap();

        let mut built_snap = Snapshot::new();
        built_snap.engine = Some(engine);
        let path = case_path();
        built_snap.save_v5(&path).unwrap();

        // Two replicas of the same file beside the one that was never
        // written: borrowed file pages with lazy checksums, and one owned
        // buffer verified before `load` returned.
        let mapped = Snapshot::open_mapped(&path).unwrap();
        prop_assert!(mapped.is_mapped());
        let mut mapped_snap = mapped.snapshot;
        prop_assert!(mapped_snap.engine.as_ref().unwrap().is_mapped());
        let mut owned_snap = Snapshot::load(&path).unwrap();
        prop_assert!(!owned_snap.engine.as_ref().unwrap().is_mapped());

        let mut live: Vec<u32> = (0..rows.len() as u32).collect();
        let mut next_id = rows.len() as u32;

        // Interleave mutations with full query sweeps on every replica.
        for op in &ops {
            {
                let b = built_snap.engine.as_mut().unwrap();
                let m = mapped_snap.engine.as_mut().unwrap();
                let o = owned_snap.engine.as_mut().unwrap();
                match op {
                    Op::Insert(r) => {
                        let id_b = b.insert(r).unwrap();
                        let id_m = m.insert(r).unwrap();
                        let id_o = o.insert(r).unwrap();
                        prop_assert_eq!(id_b, id_m);
                        prop_assert_eq!(id_m, id_o);
                        live.push(next_id);
                        next_id += 1;
                    }
                    Op::Delete(sel) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.remove(sel % live.len());
                        let hit_b = b.delete(PointId::new(id)).unwrap();
                        let hit_m = m.delete(PointId::new(id)).unwrap();
                        let hit_o = o.delete(PointId::new(id)).unwrap();
                        prop_assert_eq!(hit_b, hit_m);
                        prop_assert_eq!(hit_m, hit_o);
                    }
                    Op::Compact => {
                        b.compact().unwrap();
                        m.compact().unwrap();
                        o.compact().unwrap();
                        // Compaction renumbers ids densely on every side.
                        live = (0..live.len() as u32).collect();
                        next_id = live.len() as u32;
                    }
                }
            }
            for q in &queries {
                for &k in &ks {
                    let want = built_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                    let a = mapped_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                    let b = owned_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                    prop_assert_eq!(&a, &want);
                    prop_assert_eq!(&b, &want);
                }
            }
        }

        // The query sweep must also hold on the untouched replicas
        // (the loop above only runs after a mutation).
        for q in &queries {
            for &k in &ks {
                let want = built_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                let a = mapped_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                let b = owned_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                prop_assert_eq!(&a, &want);
                prop_assert_eq!(&b, &want);
            }
        }

        // Every lazily-deferred region checksum still verifies, and all
        // three replicas re-serialise to the byte-identical v5 container.
        mapped_snap.verify_integrity().unwrap();
        let want = built_snap.to_bytes_v5().unwrap();
        prop_assert_eq!(&mapped_snap.to_bytes_v5().unwrap(), &want);
        prop_assert_eq!(&owned_snap.to_bytes_v5().unwrap(), &want);
        prop_assert!(!owned_snap.engine.as_ref().unwrap().is_mapped());

        std::fs::remove_file(&path).ok();
    }
}

/// The lazy-verification surface itself: a mapped open defers region CRCs,
/// a query verifies the regions it touched, and `verify_all` settles the
/// rest — with every state transition observable through the public API.
#[test]
fn mapped_regions_verify_on_demand() {
    use sdq::store::CrcState;

    let rows: Vec<Vec<f64>> = (0..64)
        .map(|i| vec![i as f64 * 0.25, (64 - i) as f64 * 0.5, (i % 7) as f64])
        .collect();
    let engine = sdq::engine::SdEngine::build_with(
        Dataset::from_rows(DIMS, &rows).unwrap(),
        &ROLES,
        &sdq::engine::EngineOptions {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut snap = Snapshot::new();
    snap.engine = Some(engine);
    let path = case_path();
    snap.save_v5(&path).unwrap();

    let mapped = Snapshot::open_mapped(&path).unwrap();
    assert!(mapped.is_mapped());
    assert!(!mapped.regions().is_empty());
    assert!(mapped.regions().iter().any(|r| r.state() == CrcState::Lazy));

    let q = SdQuery::uniform_weights(vec![1.0, 2.0, 3.0], &ROLES);
    mapped
        .snapshot
        .engine
        .as_ref()
        .unwrap()
        .query(&q, 5)
        .unwrap();
    assert!(mapped
        .regions()
        .iter()
        .any(|r| r.state() == CrcState::Verified));

    mapped.verify_all().unwrap();
    assert!(mapped
        .regions()
        .iter()
        .all(|r| r.state() == CrcState::Verified));

    std::fs::remove_file(&path).ok();
}
