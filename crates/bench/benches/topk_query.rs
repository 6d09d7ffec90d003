//! Criterion micro-benchmark: the §4 top-k query path — direct (indexed
//! angle) vs Claim 6 bracketing (arbitrary weights) — plus the §3 top-1
//! lookup for contrast.

use criterion::{criterion_group, criterion_main, Criterion};
use sdq_data::{generate, uniform_queries, Distribution};
use sdq_paper::top1::Top1Index;
use sdq_paper::topk::TopKIndex;

fn bench_topk(c: &mut Criterion) {
    let n = 100_000;
    let data = generate(Distribution::Uniform, n, 2, 11);
    let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
    let index = TopKIndex::build(&pts).unwrap();
    let top1 = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
    let queries = uniform_queries(64, 2, 13);

    let mut group = c.benchmark_group("topk_query_100k");
    group.bench_function("indexed_angle_k5", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            index.query(q.point[0], q.point[1], 1.0, 1.0, 5).unwrap()
        })
    });
    group.bench_function("bracketed_angle_k5", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            // Weights from the query: almost never an indexed angle.
            index
                .query(
                    q.point[0],
                    q.point[1],
                    q.weights[1].max(0.01),
                    q.weights[0],
                    5,
                )
                .unwrap()
        })
    });
    group.bench_function("top1_region_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            top1.query(q.point[0], q.point[1])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
