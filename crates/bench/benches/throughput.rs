//! Criterion benchmark of the query engine's serving path: single-query
//! latency, fresh allocations vs reused [`QueryScratch`] (batch throughput
//! is `engine.batch_qps` / `engine.batch_scaling` in the repo benchmark).
//!
//! This is the perf baseline every future query-path PR measures against;
//! the same configuration is exported as machine-readable JSON by
//! `sdq bench-query` (see `BENCH_queries.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use sdq_core::multidim::SdIndex;
use sdq_core::topk::TopKIndex;
use sdq_core::DimRole;
use sdq_data::{generate, uniform_queries, Distribution};

/// The headline configuration: 100k × 4-D, two repulsive↔attractive pairs,
/// k = 16 — the acceptance workload of the zero-allocation refactor.
const N: usize = 100_000;
const DIMS: usize = 4;
const K: usize = 16;

fn bench_single_query(c: &mut Criterion) {
    let data = generate(Distribution::Uniform, N, DIMS, 11);
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data, &roles).unwrap();
    let queries = uniform_queries(64, DIMS, 13);

    let mut group = c.benchmark_group("sd_query_100k_4d");
    group.bench_function("fresh_alloc_k16", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            index.query(q, K).unwrap()
        })
    });
    group.bench_function("scratch_reuse_k16", |b| {
        let mut scratch = sdq_core::QueryScratch::new();
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            index.query_with(q, K, &mut scratch).unwrap().len()
        })
    });
    group.finish();

    // The 2-D §4 index on the same scale: the pure tree-walk hot path.
    let data2 = generate(Distribution::Uniform, N, 2, 11);
    let pts: Vec<(f64, f64)> = data2.iter().map(|(_, c)| (c[0], c[1])).collect();
    let topk = TopKIndex::build(&pts).unwrap();
    let queries2 = uniform_queries(64, 2, 13);

    let mut group = c.benchmark_group("topk_query_100k_2d");
    group.bench_function("fresh_alloc_k16", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries2[i % queries2.len()];
            i += 1;
            // Weights from the query: almost never an indexed angle, so this
            // exercises the dual-bracket path.
            topk.query(
                q.point[0],
                q.point[1],
                q.weights[1].max(0.01),
                q.weights[0],
                K,
            )
            .unwrap()
        })
    });
    group.bench_function("scratch_reuse_k16", |b| {
        let mut scratch = sdq_core::QueryScratch::new();
        let mut i = 0;
        b.iter(|| {
            let q = &queries2[i % queries2.len()];
            i += 1;
            topk.query_with(
                q.point[0],
                q.point[1],
                q.weights[1].max(0.01),
                q.weights[0],
                K,
                &mut scratch,
            )
            .unwrap()
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_query);
criterion_main!(benches);
