//! Proof that the dynamic tree's query path allocates nothing in steady
//! state: after one warm-up pass, a reused [`QueryScratch`] answers every
//! [`TopKIndex`] query of the workload (indexed and bracketed angles) with
//! **zero** heap allocations.
//!
//! The measurement uses a counting global allocator with a thread-local
//! counter, so each `#[test]` in this binary observes exactly the
//! allocations of its own thread. Warm-up and measurement run the *same*
//! query sequence: buffer high-water marks are established in pass one, so
//! any allocation in pass two is a genuine per-query regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{Rng, SeedableRng};
use sdq_paper::{QueryScratch, TopKIndex};

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
fn steady_state_tree_queries_do_not_allocate() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);

    let pts: Vec<(f64, f64)> = (0..20_000)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let topk = TopKIndex::build(&pts).unwrap();
    // Mix of indexed (α = β → 45°) and arbitrary (bracketed) weights.
    let queries2d: Vec<(f64, f64, f64, f64)> = (0..24)
        .map(|i| {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            if i % 3 == 0 {
                (qx, qy, 1.0, 1.0)
            } else {
                (qx, qy, rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0))
            }
        })
        .collect();

    let mut scratch = QueryScratch::new();
    let mut sink = 0.0f64;
    let run_2d = |scratch: &mut QueryScratch, sink: &mut f64| {
        for &(qx, qy, alpha, beta) in &queries2d {
            let r = topk.query_with(qx, qy, alpha, beta, 16, scratch).unwrap();
            *sink += r.iter().map(|sp| sp.score).sum::<f64>();
        }
    };
    run_2d(&mut scratch, &mut sink); // warm-up: buffers grow here
    let n = count_allocs(|| run_2d(&mut scratch, &mut sink));
    assert_eq!(
        n, 0,
        "TopKIndex::query_with allocated {n} times after warm-up"
    );

    // The checksum keeps every query's work observable.
    assert!(sink.is_finite());
}
