//! Proof of the zero-allocation query engine: after one warm-up pass, a
//! reused [`QueryScratch`] answers every query of the steady-state workload
//! with **zero** heap allocations on the [`SdIndex`] box scan and walk —
//! including the hostile queries that score most chunks.
//!
//! The measurement uses a counting global allocator with a thread-local
//! counter, so each `#[test]` in this binary observes exactly the
//! allocations of its own thread. Warm-up and measurement run the *same*
//! query sequence: buffer high-water marks are established in pass one, so
//! any allocation in pass two is a genuine per-query regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{Rng, SeedableRng};
use sdq_core::multidim::SdIndex;
use sdq_core::{Dataset, DimRole, QueryScratch, SdQuery};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown cannot panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Runs `f` and returns how many allocations it performed on this thread.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);

    let mut scratch = QueryScratch::new();
    let mut sink = 0.0f64;

    // ── §5 index: 4-D, two pairs, TA aggregation over Pair2DStreams ──────
    let dims = 4;
    let coords: Vec<f64> = (0..8_000 * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
    let data = Dataset::from_flat(dims, coords).unwrap();
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let sd = SdIndex::build(data, &roles).unwrap();
    let queries4d: Vec<SdQuery> = (0..16)
        .map(|_| {
            SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
            )
            .unwrap()
        })
        .collect();

    let run_sd = |scratch: &mut QueryScratch, sink: &mut f64| {
        for q in &queries4d {
            let r = sd.query_with(q, 16, scratch).unwrap();
            *sink += r.iter().map(|sp| sp.score).sum::<f64>();
        }
    };
    run_sd(&mut scratch, &mut sink);
    let n = count_allocs(|| run_sd(&mut scratch, &mut sink));
    assert_eq!(
        n, 0,
        "SdIndex::query_with allocated {n} times after warm-up"
    );

    // ── a zero pair weight, first of its kind: θ_q = 0° or 90°, an indexed
    //    angle of the pair's own frontier, so a scratch warmed by full-weight
    //    queries serves it as is and the index builds nothing for it ─────
    let bytes = sd.memory_bytes();
    for (zero, q) in queries4d.iter().enumerate().take(dims) {
        let mut q = q.clone();
        q.weights[zero] = 0.0;
        let n = count_allocs(|| {
            let r = sd.query_with(&q, 16, &mut scratch).unwrap();
            sink += r.iter().map(|sp| sp.score).sum::<f64>();
        });
        assert_eq!(
            n, 0,
            "the first query with d{zero} weighted 0 allocated {n} times"
        );
    }
    assert_eq!(sd.memory_bytes(), bytes, "a zero weight grew the index");

    // ── profiled path: counters + stage timestamps must also be free ─────
    scratch.profile.timing = true;
    run_sd(&mut scratch, &mut sink);
    let n = count_allocs(|| run_sd(&mut scratch, &mut sink));
    assert_eq!(
        n, 0,
        "profiled SdIndex::query_with allocated {n} times after warm-up"
    );
    // And the profile actually observed the work it rode along with.
    let p = &scratch.profile;
    assert!(
        p.rows_fetched > 0 && p.points_scored > 0,
        "profile is empty"
    );
    assert_eq!(p.emitted, 16);
    assert!(p.aggregate_nanos > 0, "timing was enabled");

    // ── 6-D anti-correlated rows: the scan scores most chunks ────────────
    let dims = 6;
    let mut coords = Vec::with_capacity(4_000 * dims);
    for _ in 0..4_000 {
        let raw: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
        let sum: f64 = raw.iter().sum();
        coords.extend(raw.iter().map(|v| v / sum));
    }
    let roles6 = [
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
    ];
    let sd6 = SdIndex::build(Dataset::from_flat(dims, coords).unwrap(), &roles6).unwrap();
    let queries6d: Vec<SdQuery> = (0..8)
        .map(|_| {
            SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.1..1.0)).collect(),
            )
            .unwrap()
        })
        .collect();
    let mut scans = 0;
    let mut run_scan = |scratch: &mut QueryScratch, sink: &mut f64| {
        for q in &queries6d {
            let r = sd6.query_with(q, 64, scratch).unwrap();
            *sink += r.iter().map(|sp| sp.score).sum::<f64>();
            scans += scratch.profile.parts_scanned;
        }
    };
    run_scan(&mut scratch, &mut sink);
    let n = count_allocs(|| run_scan(&mut scratch, &mut sink));
    assert_eq!(n, 0, "scanning queries allocated {n} times after warm-up");
    assert_eq!(scans, 16, "every one of these queries must take the scan");

    // The checksum keeps every query's work observable.
    assert!(sink.is_finite());
}

/// The same query twice on one scratch: the second run allocates nothing,
/// whatever the first one grew. A two-pair index takes one frontier heap
/// a stream; handed back in stream order to the scratch's last-in,
/// first-out pool, the heaps swapped streams on every query, and the
/// stream that walked further grew the other's heap again (about half the
/// second runs allocated, on each of these shapes).
#[test]
fn a_repeated_query_allocates_nothing() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EA9);
    let n = 20_000;
    let anti = |rng: &mut rand::rngs::StdRng, dims: usize| -> Vec<f64> {
        let mut coords = Vec::with_capacity(n * dims);
        for _ in 0..n {
            let raw: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
            let sum: f64 = raw.iter().sum();
            coords.extend(raw.iter().map(|v| v / sum));
        }
        coords
    };
    let roles = |s: &str| -> Vec<DimRole> {
        s.chars()
            .map(|c| match c {
                'a' => DimRole::Attractive,
                _ => DimRole::Repulsive,
            })
            .collect()
    };
    for (shape, anti_rows) in [("arra", false), ("aaaarr", true), ("arar", false)] {
        let dims = shape.len();
        let coords = if anti_rows {
            anti(&mut rng, dims)
        } else {
            (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        let index =
            SdIndex::build(Dataset::from_flat(dims, coords).unwrap(), &roles(shape)).unwrap();
        let mut scratch = QueryScratch::new();
        let mut grew = 0;
        for _ in 0..100 {
            let q = SdQuery::new(
                (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
                (0..dims).map(|_| rng.gen_range(0.1..1.0)).collect(),
            )
            .unwrap();
            let first = index.query_with(&q, 16, &mut scratch).unwrap().to_vec();
            let allocs = count_allocs(|| {
                assert_eq!(index.query_with(&q, 16, &mut scratch).unwrap(), &first[..]);
            });
            grew += u64::from(allocs > 0);
        }
        assert_eq!(grew, 0, "{shape}: {grew} of 100 second runs allocated");
    }
}
