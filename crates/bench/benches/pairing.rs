//! Ablation bench: arbitrary vs correlation-aware dimension pairing (§5's
//! future-work direction), on the paper's §5 index. On data with strong
//! cross-role correlations the aware pairing produces tighter 2-D
//! subproblems and earlier threshold termination.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use sdq_core::multidim::{PairingStrategy, SdIndexOptions};
use sdq_core::{Dataset, DimRole};
use sdq_data::uniform_queries;
use sdq_paper::PairedIndex;

/// 6-D data where repulsive dim i strongly correlates with attractive dim
/// (5 − i): the arbitrary zip picks the worst mapping.
fn correlated_cross_roles(n: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * 6);
    for _ in 0..n {
        let a: f64 = rng.gen_range(0.0..1.0);
        let b: f64 = rng.gen_range(0.0..1.0);
        let c: f64 = rng.gen_range(0.0..1.0);
        let mut jitter = |v: f64| (v + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0);
        let (jc, jb, ja) = (jitter(c), jitter(b), jitter(a));
        flat.extend_from_slice(&[a, b, c, jc, jb, ja]);
    }
    Dataset::from_flat(6, flat).unwrap()
}

fn bench_pairing(c: &mut Criterion) {
    let n = 50_000;
    let data = correlated_cross_roles(n, 23);
    let roles = vec![
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
    ];
    let queries = uniform_queries(64, 6, 29);

    let mut group = c.benchmark_group("pairing_ablation");
    group.sample_size(20);
    for (label, strategy) in [
        ("arbitrary", PairingStrategy::Arbitrary),
        ("correlation_aware", PairingStrategy::CorrelationAware),
    ] {
        let opts = SdIndexOptions {
            pairing: strategy,
            ..Default::default()
        };
        let index = PairedIndex::build_with(data.clone(), &roles, &opts).unwrap();
        group.bench_function(label, |b| {
            let mut i = 0;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                index.query(q, 5).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pairing);
criterion_main!(benches);
