//! Ablation bench: number of indexed angles (§4.2's design knob). More
//! angles mean tighter brackets for arbitrary-weight queries (fewer Claim 6
//! candidates) at the cost of storage per node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdq_core::geometry::Angle;
use sdq_data::{generate, uniform_queries, Distribution};
use sdq_paper::topk::TopKIndex;

fn angle_grid(count: usize) -> Vec<Angle> {
    (0..count)
        .map(|i| Angle::from_degrees(90.0 * i as f64 / (count - 1) as f64).unwrap())
        .collect()
}

fn bench_angles(c: &mut Criterion) {
    let n = 100_000;
    let data = generate(Distribution::Uniform, n, 2, 31);
    let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
    let queries = uniform_queries(64, 2, 37);

    let mut group = c.benchmark_group("indexed_angles_ablation");
    group.sample_size(20);
    for count in [2usize, 3, 5, 9, 17] {
        let index = TopKIndex::build_with(&pts, &angle_grid(count), 8).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(count), &index, |b, index| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
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
    }
    group.finish();
}

criterion_group!(benches, bench_angles);
criterion_main!(benches);
