//! Zero-copy equivalence: a snapshot opened with [`Snapshot::open_mapped`]
//! (format v5, queries served straight off the borrowed file bytes) must be
//! indistinguishable from the same file decoded eagerly with
//! [`Snapshot::load`] — every query answered bit-identically, every region
//! checksum verifiable, and any interleaving of inserts / deletes /
//! compactions applied to both replicas keeping them in lock-step, down to
//! the bytes each one re-serialises.
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
    /// Append a row to both replicas' delta regions.
    Insert(Vec<f64>),
    /// Tombstone the (selector % live-ids)-th id on both replicas.
    Delete(usize),
    /// Fold deltas back and renumber densely — on both replicas, since
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

    // `open_mapped` and the eager owned decode answer every query — over
    // every mutation interleaving — with bit-identical results, and both
    // replicas re-serialise to byte-identical v5 containers.
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
            threads: 1,
            ..sdq::engine::EngineOptions::default()
        };
        let engine = sdq::engine::SdEngine::build_with(
            Dataset::from_rows(DIMS, &rows).unwrap(),
            &ROLES,
            &options,
        )
        .unwrap();

        let mut snap = Snapshot::new();
        snap.roles = Some(ROLES.to_vec());
        snap.engine = Some(engine);
        let path = case_path();
        snap.save_v5(&path).unwrap();

        // Two replicas of the same file: borrowed bytes vs eager decode.
        let mapped = Snapshot::open_mapped(&path).unwrap();
        prop_assert!(mapped.is_mapped());
        let mut mapped_snap = mapped.snapshot;
        let mut owned_snap = Snapshot::load(&path).unwrap();

        let mut live: Vec<u32> = (0..rows.len() as u32).collect();
        let mut next_id = rows.len() as u32;

        // Interleave mutations with full query sweeps on both replicas.
        for op in &ops {
            {
                let m = mapped_snap.engine.as_mut().unwrap();
                let o = owned_snap.engine.as_mut().unwrap();
                match op {
                    Op::Insert(r) => {
                        let id_m = m.insert(r).unwrap();
                        let id_o = o.insert(r).unwrap();
                        prop_assert_eq!(id_m, id_o);
                        live.push(next_id);
                        next_id += 1;
                    }
                    Op::Delete(sel) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.remove(sel % live.len());
                        let hit_m = m.delete(PointId::new(id)).unwrap();
                        let hit_o = o.delete(PointId::new(id)).unwrap();
                        prop_assert_eq!(hit_m, hit_o);
                    }
                    Op::Compact => {
                        m.compact().unwrap();
                        o.compact().unwrap();
                        // Compaction renumbers ids densely on both sides.
                        live = (0..live.len() as u32).collect();
                        next_id = live.len() as u32;
                    }
                }
            }
            for q in &queries {
                for &k in &ks {
                    let a = mapped_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                    let b = owned_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                    prop_assert_eq!(a, b);
                }
            }
        }

        // The query sweep must also hold on the untouched replicas
        // (the loop above only runs after a mutation).
        for q in &queries {
            for &k in &ks {
                let a = mapped_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                let b = owned_snap.engine.as_ref().unwrap().query(q, k).unwrap();
                prop_assert_eq!(a, b);
            }
        }

        // Every lazily-deferred region checksum still verifies, and both
        // replicas re-serialise to the byte-identical v5 container.
        mapped_snap.verify_integrity().unwrap();
        prop_assert_eq!(
            mapped_snap.to_bytes_v5().unwrap(),
            owned_snap.to_bytes_v5().unwrap()
        );

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
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut snap = Snapshot::new();
    snap.roles = Some(ROLES.to_vec());
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
