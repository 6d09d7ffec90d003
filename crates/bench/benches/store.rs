//! Criterion benchmark: snapshot persistence vs. engine rebuild.
//!
//! Measures, over a 100k × 4-D one-shard engine:
//!
//! * `encode` / `decode` — in-memory snapshot serialisation throughput,
//! * `save` / `load` — the same through the filesystem,
//! * `rebuild_engine` — the in-memory construction the snapshot load
//!   replaces.
//!
//! The headline: decoding an engine is the same order as rebuilding it
//! (both are memory-bound at these sizes).

use criterion::{criterion_group, criterion_main, Criterion};
use sdq_data::{generate, Distribution};
use sdq_engine::SdEngine;
use sdq_store::Snapshot;

fn bench_store(c: &mut Criterion) {
    let n = 100_000;
    let dims = 4;
    let data = generate(Distribution::Uniform, n, dims, 71);
    let roles = sdq_store::parse_roles("arra").expect("static roles");
    let engine = SdEngine::build(data.clone(), &roles).expect("engine builds");

    let mut snap = Snapshot::new();
    snap.roles = Some(roles.clone());
    snap.engine = Some(engine);
    let bytes = snap.to_bytes_v5().expect("encode");
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    println!("snapshot payload: {mib:.1} MiB (n = {n}, dims = {dims})");

    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    group.bench_function("encode", |b| b.iter(|| snap.to_bytes_v5().expect("encode")));
    group.bench_function("decode", |b| {
        b.iter(|| Snapshot::from_bytes(&bytes).expect("bytes are valid"))
    });

    let dir = std::env::temp_dir().join(format!("sdq-store-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.sdq");
    group.bench_function("save", |b| b.iter(|| snap.save_v5(&path).expect("save")));
    snap.save_v5(&path).expect("save");
    group.bench_function("load", |b| b.iter(|| Snapshot::load(&path).expect("load")));

    group.bench_function("rebuild_engine", |b| {
        b.iter(|| SdEngine::build(data.clone(), &roles).expect("engine builds"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
