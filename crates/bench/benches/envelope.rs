//! Criterion micro-benchmark: the Alg. 1 envelope sweep (top-1 index
//! construction kernel) across sizes and distributions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdq_core::geometry::Angle;
use sdq_data::{generate, Distribution};
use sdq_paper::envelope::{upper_envelope, Tent};

fn bench_envelope(c: &mut Criterion) {
    let mut group = c.benchmark_group("envelope_sweep");
    group.sample_size(20);
    let angle = Angle::from_weights(1.0, 1.0).unwrap();
    for dist in Distribution::ALL {
        for n in [10_000usize, 100_000] {
            let data = generate(dist, n, 2, 7);
            let tents: Vec<Tent> = data.iter().map(|(_, c)| Tent::new(c[0], c[1])).collect();
            group.bench_with_input(BenchmarkId::new(dist.label(), n), &tents, |b, tents| {
                b.iter(|| upper_envelope(&angle, std::hint::black_box(tents), None))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_envelope);
criterion_main!(benches);
