//! Exactness guarantees of the live-mutation subsystem: **any** interleaving
//! of insert / delete / query / compact over an `SdEngine` answers every
//! query bit-identically to a *fresh engine rebuilt from the final logical
//! dataset* at that instant — including ties at the k-th score (tie-heavy
//! coordinate generators make duplicated rows and tied scores the norm).
//!
//! The logical dataset is the live base rows in id order followed by the
//! live delta rows in insertion order. A fresh rebuild numbers those rows
//! densely, while the mutated engine keeps stable sparse ids, so the
//! comparison maps the rebuild's ids through the (monotone) live-id table:
//! the same rows, the same score bits, the same tie resolution. After a
//! compaction the mapping becomes the identity and answers are literally
//! identical, ids included.
//!
//! A single `QueryScratch` is reused across every query of an op sequence
//! — dirty-scratch reuse after arbitrary mutations must equal a fresh
//! query, which each step also checks.

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::core::QueryScratch;
use sdq::engine::{EngineOptions, SdEngine};
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdQuery};

const DIMS: usize = 3;
const ROLES: [DimRole; DIMS] = [DimRole::Attractive, DimRole::Repulsive, DimRole::Attractive];

/// Coordinates from a tiny alphabet: duplicate rows and exact score ties
/// at the k-th position are the norm, not the exception.
fn tie_heavy_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(2.0),
        1 => Just(-1.5),
        1 => -8.0..8.0f64,
    ]
}

fn tie_heavy_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        2 => Just(0.0),
        2 => Just(1.0),
        1 => 0.0..3.0f64,
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Append a row to the delta region.
    Insert(Vec<f64>),
    /// Tombstone the (selector % addressable-rows)-th id; hitting an
    /// already-dead row must be a reported no-op.
    Delete(usize),
    /// Answer query (selector % workload) at the given k on the mutated
    /// engine and on a fresh rebuild of the logical dataset.
    Query(usize, usize),
    /// Fold the delta back, drop tombstones, renumber densely.
    Compact,
}

/// Weighted op generator (the vendored proptest shim has no `prop_map`, so
/// this composes the primitive strategies by hand): 3:3:3:1 over
/// insert / delete / query / compact.
#[derive(Debug)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn generate(&self, rng: &mut proptest::TestRng) -> Op {
        match (0usize..10).generate(rng) {
            0..=2 => Op::Insert(vec(tie_heavy_coord(), DIMS).generate(rng)),
            3..=5 => Op::Delete((0usize..10_000).generate(rng)),
            6..=8 => Op::Query((0usize..16).generate(rng), (1usize..12).generate(rng)),
            _ => Op::Compact,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    OpStrategy
}

fn assert_mapped_identical(
    what: &str,
    got: &[ScoredPoint],
    want: &[ScoredPoint],
    live_ids: &[u32],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length mismatch", what);
    for (g, w) in got.iter().zip(want) {
        prop_assert_eq!(
            g.id.raw(),
            live_ids[w.id.index()],
            "{}: id mismatch (fresh id {})",
            what,
            w.id.index()
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The headline guarantee of the mutation subsystem.
    #[test]
    fn mutated_engine_is_bit_identical_to_fresh_rebuild(
        rows in vec(vec(tie_heavy_coord(), DIMS), 0..40),
        ops in vec(op_strategy(), 1..28),
        raw_queries in vec((vec(tie_heavy_coord(), DIMS), vec(tie_heavy_weight(), DIMS)), 1..5),
        shards in 1usize..5,
    ) {
        let queries: Vec<SdQuery> = raw_queries
            .iter()
            .map(|(p, w)| SdQuery::new(p.clone(), w.clone()).unwrap())
            .collect();
        let options = EngineOptions { shards, ..EngineOptions::default() };
        let mut engine = SdEngine::build_with(
            Dataset::from_rows(DIMS, &rows).unwrap(),
            &ROLES,
            &options,
        ).unwrap();
        // The shadow model: live rows in logical order, and each one's
        // current engine id (always ascending, so the mapping is monotone).
        let mut logical: Vec<Vec<f64>> = rows.clone();
        let mut live_ids: Vec<u32> = (0..rows.len() as u32).collect();
        // One scratch for the whole interleaving: dirty reuse == fresh.
        let mut scratch = QueryScratch::new();

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(row) => {
                    let id = engine.insert(row).unwrap();
                    live_ids.push(id.raw());
                    logical.push(row.clone());
                }
                Op::Delete(sel) => {
                    let total = engine.total_rows();
                    if total == 0 {
                        prop_assert!(engine.delete(PointId::new(0)).is_err());
                        continue;
                    }
                    let target = (sel % total) as u32;
                    let newly = engine.delete(PointId::new(target)).unwrap();
                    match live_ids.binary_search(&target) {
                        Ok(pos) => {
                            prop_assert!(newly, "step {}: live row reported already dead", step);
                            live_ids.remove(pos);
                            logical.remove(pos);
                        }
                        Err(_) => prop_assert!(!newly, "step {}: dead row deleted twice", step),
                    }
                }
                Op::Query(qi, k) => {
                    let q = &queries[qi % queries.len()];
                    let fresh = SdEngine::build_with(
                        Dataset::from_rows(DIMS, &logical).unwrap(),
                        &ROLES,
                        &options,
                    ).unwrap();
                    let want = fresh.query(q, *k).unwrap();
                    let got = engine.query_with(q, *k, &mut scratch).unwrap().to_vec();
                    assert_mapped_identical(
                        &format!("step {step} (dirty scratch)"), &got, &want, &live_ids,
                    )?;
                    let got_fresh_scratch = engine.query(q, *k).unwrap();
                    prop_assert_eq!(
                        &got, &got_fresh_scratch,
                        "step {}: dirty scratch diverges from fresh scratch", step
                    );
                }
                Op::Compact => {
                    let report = engine.compact().unwrap();
                    prop_assert_eq!(report.live_rows, logical.len());
                    prop_assert!(!engine.has_mutations());
                    prop_assert_eq!(engine.total_rows(), logical.len());
                    live_ids = (0..logical.len() as u32).collect();
                }
            }
            prop_assert_eq!(engine.len(), logical.len(), "step {}: live count drifted", step);
        }

        // Epilogue: final query, then compact, then the same query — the
        // compacted engine must be *literally* identical to the rebuild.
        let q = &queries[0];
        let fresh = SdEngine::build_with(
            Dataset::from_rows(DIMS, &logical).unwrap(),
            &ROLES,
            &options,
        ).unwrap();
        let want = fresh.query(q, 7).unwrap();
        let got = engine.query_with(q, 7, &mut scratch).unwrap().to_vec();
        assert_mapped_identical("epilogue", &got, &want, &live_ids)?;
        engine.compact().unwrap();
        let got = engine.query_with(q, 7, &mut scratch).unwrap();
        prop_assert_eq!(got, want.as_slice(), "post-compact answers must match literally");
    }

    // Snapshot save → load preserves mutated answers bit-exactly
    // and the bytes stay deterministic.
    #[test]
    fn mutated_snapshot_roundtrip_is_bit_identical(
        rows in vec(vec(tie_heavy_coord(), DIMS), 1..40),
        inserts in vec(vec(tie_heavy_coord(), DIMS), 1..6),
        delete_sels in vec(0usize..10_000, 0..6),
        raw_query in (vec(tie_heavy_coord(), DIMS), vec(tie_heavy_weight(), DIMS)),
        k in 1usize..10,
        shards in 1usize..4,
    ) {
        use sdq::store::Snapshot;
        let q = SdQuery::new(raw_query.0, raw_query.1).unwrap();
        let mut engine = SdEngine::build_with(
            Dataset::from_rows(DIMS, &rows).unwrap(),
            &ROLES,
            &EngineOptions { shards, ..EngineOptions::default() },
        ).unwrap();
        for row in &inserts {
            engine.insert(row).unwrap();
        }
        for sel in &delete_sels {
            let target = (sel % engine.total_rows()) as u32;
            engine.delete(PointId::new(target)).unwrap();
        }

        let mut snap = Snapshot::new();
        snap.engine = Some(engine.clone());
        let bytes = snap.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        let restored = back.engine.as_ref().unwrap();
        prop_assert_eq!(restored.delta_rows(), engine.delta_rows());
        prop_assert_eq!(restored.tombstone_ids(), engine.tombstone_ids());
        let want = engine.query(&q, k).unwrap();
        let got = restored.query(&q, k).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
        }
        prop_assert_eq!(back.to_bytes_v5().unwrap(), bytes);
    }
}
