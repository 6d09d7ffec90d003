//! An engine's shards are the cells of one box order, scanned under one
//! lead:
//!
//! * at any shard count, every query visits the chunks a one-shard engine
//!   visits, in its order, and so counts what it counts — chunks scored and
//!   skipped, rows fetched, floor updates, every counter but the parts;
//! * at any shard count, answers are the sequential scan's bit for bit,
//!   owned and mapped, through a durable insert / delete / checkpoint /
//!   compact / recover script, under hostile weights.

use sdq::baselines::SeqScan;
use sdq::core::{QueryProfile, QueryScratch};
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{EngineOptions, SdEngine};
use sdq::store::{
    parse_roles, DurableEngine, DurableOptions, MappedBytes, MemStorage, Snapshot, Storage,
};
use sdq::{Dataset, PointId, SdQuery};

fn engine(data: &Dataset, roles: &str, shards: usize) -> SdEngine {
    SdEngine::build_with(
        data.clone(),
        &parse_roles(roles).unwrap(),
        &EngineOptions {
            shards,
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

/// Uniform queries, and the hostile ones: every weight zero, one weight
/// alone, a query at `-0`, and weights `2^500` apart.
fn queries(dims: usize, seed: u64) -> Vec<SdQuery> {
    let mut queries = uniform_queries(6, dims, seed);
    let one_alone = (0..dims).map(|d| f64::from(u8::from(d == 1))).collect();
    let huge = (0..dims)
        .map(|d| if d % 2 == 0 { 2f64.powi(500) } else { 1.0 })
        .collect();
    for weights in [vec![0.0; dims], one_alone, huge] {
        queries.push(SdQuery::new(vec![0.5; dims], weights).unwrap());
    }
    queries.push(SdQuery::new(vec![-0.0; dims], vec![1.0; dims]).unwrap());
    queries
}

/// Every counter of `p` but the parts scanned, by name.
fn counted(p: &QueryProfile) -> Vec<(&'static str, u64)> {
    p.counters()
        .into_iter()
        .filter(|&(name, _)| name != "parts_scanned")
        .collect()
}

/// Counter for counter, the query a one-shard engine runs: clean, and with
/// tombstones and delta rows (every part reads the mask then) — a single
/// pair's cells (`ar`, `ra`) as any other roles'.
#[test]
fn cells_count_what_one_shard_counts() {
    for (roles, dist) in [
        ("aaaarr", Distribution::AntiCorrelated),
        ("arra", Distribution::Uniform),
        ("ar", Distribution::Uniform),
        ("ra", Distribution::AntiCorrelated),
    ] {
        let dims = roles.len();
        let data = generate(dist, 5_000, dims, 0xCE11);
        let queries = queries(dims, 0xCE12);
        let mut one = engine(&data, roles, 1);
        let mut many: Vec<SdEngine> = [2, 3, 4, 5, 8]
            .into_iter()
            .map(|s| engine(&data, roles, s))
            .collect();
        for dirty in [false, true] {
            if dirty {
                for e in std::iter::once(&mut one).chain(&mut many) {
                    for id in (0..5_000).step_by(37) {
                        e.delete(PointId::new(id)).unwrap();
                    }
                    for i in 0..40 {
                        e.insert(data.point(PointId::new(i * 97))).unwrap();
                    }
                }
            }
            let mut scratch = QueryScratch::new();
            for (qi, q) in queries.iter().enumerate() {
                for k in [1, 16, 64] {
                    let want = one.query_with(q, k, &mut scratch).unwrap().to_vec();
                    let want_profile = scratch.profile;
                    assert_eq!(want_profile.parts_scanned, 1);
                    for e in &many {
                        let cell = format!(
                            "{roles} dirty {dirty} query {qi} k {k} shards {}",
                            e.shard_count()
                        );
                        let got = e.query_with(q, k, &mut scratch).unwrap();
                        assert_eq!(got, &want[..], "{cell}");
                        let p = scratch.profile;
                        assert_eq!(p.parts_scanned, e.shard_count() as u64, "{cell}");
                        assert_eq!(counted(&p), counted(&want_profile), "{cell}");
                    }
                }
            }
        }
    }
}

/// The live rows of `by_id` against the oracle: every query at several
/// `k`, ids mapped back to the global ids the engine names.
fn check(engine: &SdEngine, by_id: &[Option<Vec<f64>>], queries: &[SdQuery], cell: &str) {
    let dims = engine.dims();
    let live_ids: Vec<u32> = (0..by_id.len() as u32)
        .filter(|&i| by_id[i as usize].is_some())
        .collect();
    let live: Vec<Vec<f64>> = by_id.iter().flatten().cloned().collect();
    let oracle = SeqScan::new(Dataset::from_rows(dims, &live).unwrap(), engine.roles()).unwrap();
    let mut scratch = QueryScratch::new();
    for (qi, q) in queries.iter().enumerate() {
        for k in [1, 10, live.len() + 3] {
            let got: Vec<(u32, u64)> = engine
                .query_with(q, k, &mut scratch)
                .unwrap()
                .iter()
                .map(|sp| (sp.id.raw(), sp.score.to_bits()))
                .collect();
            let want: Vec<(u32, u64)> = oracle
                .query(q, k)
                .unwrap()
                .iter()
                .map(|sp| (live_ids[sp.id.index()], sp.score.to_bits()))
                .collect();
            assert_eq!(got, want, "{cell}: query {qi} k {k}");
        }
    }
}

/// The durable store's snapshot, opened mapped (checksums and the ids'
/// range check deferred to the first query).
fn mapped(d: &DurableEngine<MemStorage>) -> SdEngine {
    let bytes = d.storage().read("cells.sdq").unwrap();
    let engine = Snapshot::from_mapped(MappedBytes::copy_from(&bytes))
        .unwrap()
        .snapshot
        .engine
        .unwrap();
    assert!(engine.is_mapped());
    engine
}

#[test]
fn cells_answer_like_the_oracle_through_a_durable_script() {
    let roles = "araar";
    let dims = roles.len();
    let base = generate(Distribution::Correlated, 900, dims, 0xCE13);
    // Duplicates of indexed rows: ties at every score they reach.
    let extra: Vec<Vec<f64>> = (0..60u32)
        .map(|i| {
            if i % 3 == 0 {
                base.point(PointId::new(i * 11)).to_vec()
            } else {
                (0..dims as u32)
                    .map(|d| ((i * 7 + d * 5) % 23) as f64 / 23.0)
                    .collect()
            }
        })
        .collect();
    let queries = queries(dims, 0xCE14);
    for shards in 1..=5 {
        let cell = |step: &str| format!("{shards} shard(s), {step}");
        let mut by_id: Vec<Option<Vec<f64>>> = base.iter().map(|(_, c)| Some(c.to_vec())).collect();
        let opts = DurableOptions::default();
        let built = engine(&base, roles, shards);
        assert_eq!(built.shard_count(), shards);
        let mut d = DurableEngine::create(MemStorage::new(), "cells.sdq", built, opts).unwrap();
        check(d.engine(), &by_id, &queries, &cell("built"));
        for round in 0..2 {
            for row in &extra[round * 30..(round + 1) * 30] {
                let id = d.insert(row).unwrap();
                assert_eq!(id.index(), by_id.len());
                by_id.push(Some(row.clone()));
            }
            for id in (round..by_id.len()).step_by(29) {
                if by_id[id].take().is_some() {
                    assert!(d.delete(PointId::new(id as u32)).unwrap());
                }
            }
            check(d.engine(), &by_id, &queries, &cell("dirty"));
            d.checkpoint().unwrap();
            check(&mapped(&d), &by_id, &queries, &cell("checkpointed, mapped"));
            let storage = d.into_storage();
            d = DurableEngine::open(storage, "cells.sdq", opts).unwrap();
            check(d.engine(), &by_id, &queries, &cell("recovered"));
            d.compact().unwrap();
            by_id = by_id.into_iter().flatten().map(Some).collect();
            assert_eq!(d.engine().shard_count(), shards);
            check(d.engine(), &by_id, &queries, &cell("compacted"));
            check(&mapped(&d), &by_id, &queries, &cell("compacted, mapped"));
        }
    }
}
