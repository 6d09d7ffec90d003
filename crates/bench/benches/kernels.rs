//! Criterion micro-benchmark: per-block throughput of the vectorized
//! scoring kernels vs the equivalent scalar loops — the proof that the
//! SoA block layout buys real per-point cycles, dispatched and forced
//! scalar side by side.

use criterion::{criterion_group, criterion_main, Criterion};
use sdq_core::kernels::{self, LANES};
use sdq_core::score::sd_score;
use sdq_core::DimRole;

const BLOCKS: usize = 256;
const DIMS: usize = 4;

/// Dimension-major SoA columns for `BLOCKS` blocks of `LANES` points.
fn soa_columns() -> Vec<f64> {
    (0..BLOCKS * DIMS * LANES)
        .map(|i| ((i * 2654435761) % 1000) as f64 * 0.001)
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let cols = soa_columns();
    let q = [0.5, 0.25, 0.75, 0.4];
    let w = [1.0, 0.7, 1.3, 0.4];
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let sw: Vec<f64> = roles.iter().zip(&w).map(|(r, &w)| r.sign() * w).collect();

    // 256 blocks × 32 lanes = 8192 points per iteration; per-point
    // throughput = iteration time / 8192.
    let mut group = c.benchmark_group("block_kernels");

    // The batched path, at whatever ISA the host dispatches to.
    group.bench_function(
        format!("score_block_4d_{}", kernels::active().name()),
        |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                let mut out = [0.0f64; LANES];
                for blk in 0..BLOCKS {
                    kernels::score_zero(&mut out);
                    for d in 0..DIMS {
                        let base = (blk * DIMS + d) * LANES;
                        kernels::score_add_dim(&mut out, &cols[base..base + LANES], q[d], sw[d]);
                    }
                    acc += out[0] + out[LANES - 1];
                }
                acc
            })
        },
    );

    // The forced-scalar fallback through the same entry points.
    group.bench_function("score_block_4d_forced_scalar", |b| {
        kernels::force_scalar(true);
        b.iter(|| {
            let mut acc = 0.0f64;
            let mut out = [0.0f64; LANES];
            for blk in 0..BLOCKS {
                kernels::score_zero(&mut out);
                for d in 0..DIMS {
                    let base = (blk * DIMS + d) * LANES;
                    kernels::score_add_dim(&mut out, &cols[base..base + LANES], q[d], sw[d]);
                }
                acc += out[0] + out[LANES - 1];
            }
            acc
        });
        kernels::force_scalar(false);
    });

    // The pre-block world: one `sd_score` call per point (AoS gather).
    let rows: Vec<[f64; DIMS]> = (0..BLOCKS * LANES)
        .map(|p| {
            let blk = p / LANES;
            let l = p % LANES;
            std::array::from_fn(|d| cols[(blk * DIMS + d) * LANES + l])
        })
        .collect();
    group.bench_function("sd_score_per_point_4d", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for row in &rows {
                acc += sd_score(row, &q, &roles, &w);
            }
            acc
        })
    });

    // Survivor selection against a k-th-score floor.
    let scores: Vec<f64> = (0..LANES).map(|l| l as f64 * 0.1).collect();
    group.bench_function("survivors_vs_floor", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..BLOCKS {
                acc ^= kernels::survivors(&scores, u32::MAX, 1.6);
            }
            acc
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
