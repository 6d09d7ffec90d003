//! A query deadline is an error for one query, not for the scratch that
//! served it: when the single-worker scheduler aborts — between two
//! aggregation rounds, in the middle of the kernel scan of the shard that
//! found the query lost, in one its siblings inherited from it, or in a scan
//! of a query that started lost — every suspended shard execution hands its
//! buffers back, the typed error surfaces, the `deadline_exceeded` metric
//! counts it, and the same [`EngineScratch`] answers the same query again
//! bit-identically to a fresh one **without allocating at all**, like any
//! warmed scratch — whether that query runs its streams first or starts
//! lost.
//!
//! The direct 2-D search — one certified frontier walk, no aggregation
//! rounds — honours the same token at every pop, on a bare [`SdIndex`] and
//! behind an engine of one or four shards, clean or dirty.
//!
//! Deadlines are wall-clock, so the test sweeps budgets across the
//! query's measured duration and classifies every trip from the partial
//! profile the abort leaves behind (`scan_fallbacks` is counted when a
//! scan starts): the sweep must produce at least one trip of each kind.
//!
//! Allocation counting as in `crates/core/tests/alloc_count.rs`: a
//! counting global allocator with a thread-local counter, one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use sdq::core::multidim::SdIndex;
use sdq::core::{CancelToken, Deadline, QueryScratch};
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{EngineOptions, EngineScratch, SdEngine, STREAK};
use sdq::{DimRole, ScoredPoint, SdError, SdQuery};

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

/// Runs `f` and returns how many allocations it performed on this thread.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn assert_bit_identical(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.id, g.score.to_bits()), (w.id, w.score.to_bits()));
    }
}

/// Where an aborted query was when its deadline tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trip {
    /// Between two aggregation rounds; no execution had started a scan.
    Aggregation,
    /// Inside the kernel scan of the shard that found the query lost (or
    /// between rounds after it); no sibling had inherited the verdict yet.
    Scan,
    /// Inside a scan a sibling started on that verdict (or at the round
    /// head of the next one).
    InheritedScan,
    /// Inside a scan of a query that started lost: the engine's history
    /// sent every execution to its scan at its first round head.
    PredictedScan,
}

#[test]
fn tripped_scratch_recovers_without_reallocating() {
    let (n, dims, k) = (40_000, 6, 64);
    let roles: Vec<DimRole> = "aaaarr"
        .chars()
        .map(|c| match c {
            'a' => DimRole::Attractive,
            _ => DimRole::Repulsive,
        })
        .collect();
    let engine = SdEngine::build_with(
        generate(Distribution::AntiCorrelated, n, dims, 0xDEAD),
        &roles,
        &EngineOptions {
            shards: 4,
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    // An engine over the same shards with no verdict history: its first
    // STREAK queries of this shape run their streams first.
    let fresh = || {
        let mut e = SdEngine::from_parts(dims, roles.clone(), engine.shards().to_vec()).unwrap();
        e.set_threads(1);
        e
    };
    let query: SdQuery = uniform_queries(1, dims, 0xD1).remove(0);
    let want = fresh().query(&query, k).unwrap(); // a fresh scratch's answer

    // Warm the scratch on this very query: buffer high-water marks are set
    // here, so a later run of it allocates nothing — stream-first, until the
    // engine's history has seen STREAK of them scan …
    let mut scratch = EngineScratch::new();
    let mut full = Duration::MAX;
    for i in 0..STREAK {
        let t0 = Instant::now();
        let allocs = count_allocs(|| {
            assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &want);
        });
        full = full.min(t0.elapsed());
        let p = scratch.profile;
        assert_eq!(p.scan_fallbacks, 4, "every shard must scan");
        assert_eq!(
            (p.scan_inherited, p.scan_predicted),
            (3, 0),
            "one verdict, three siblings inherit it"
        );
        if i > 0 {
            assert_eq!(allocs, 0, "a warmed single-worker query allocates nothing");
        }
    }
    // … and then started lost: its first such query sets the high-water
    // marks of that path (a scan from round one pools more candidates than
    // one that starts under a floor), and the next allocates nothing.
    assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &want);
    let steady = count_allocs(|| {
        engine.query_with(&query, k, &mut scratch).unwrap();
    });
    let p = scratch.profile;
    assert_eq!(
        (p.scan_fallbacks, p.scan_inherited, p.scan_predicted),
        (4, 0, 4),
        "the shape started lost"
    );
    assert_eq!(steady, 0, "a warmed started-lost query allocates nothing");

    // The sweep runs each budget on an engine with no history (the query
    // runs its streams first; a fresh one per budget, since the recovery
    // below lengthens its streak) and on the warmed one (the query starts
    // lost, but for its every RECHECK-th query).
    let mut seen = Vec::new();
    'sweep: for _attempt in 0..4 {
        for step in 1..48u32 {
            let stream_first = fresh();
            for engine in [&stream_first, &engine] {
                let before = engine.metrics().snapshot().deadline_exceeded;
                scratch.deadline = Deadline::within(full * step / 48);
                let trip = match engine.query_with(&query, k, &mut scratch) {
                    Ok(_) => continue, // the budget was enough this time
                    Err(SdError::DeadlineExceeded { budget_micros, .. }) => {
                        assert_eq!(budget_micros, (full * step / 48).as_micros() as u64);
                        let p = scratch.profile;
                        if p.rounds == 0 {
                            continue; // tripped before any execution stepped
                        } else if p.scan_fallbacks == 0 {
                            Trip::Aggregation
                        } else if p.scan_predicted > 0 {
                            assert!(p.scan_fallbacks <= 4 && p.emitted == 0);
                            assert_eq!(p.scan_fallbacks, p.scan_predicted, "{p:?}");
                            Trip::PredictedScan
                        } else {
                            assert!(p.scan_fallbacks <= 4 && p.emitted == 0);
                            assert_eq!(p.scan_fallbacks - p.scan_inherited, 1, "{p:?}");
                            if p.scan_inherited == 0 {
                                Trip::Scan
                            } else {
                                Trip::InheritedScan
                            }
                        }
                    }
                    Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
                };
                assert_eq!(
                    engine.metrics().snapshot().deadline_exceeded,
                    before + 1,
                    "{trip:?}"
                );

                // The tripped scratch, no deadline: same answer as a fresh
                // scratch, and still not one allocation.
                scratch.deadline = Deadline::none();
                let mut got = Vec::with_capacity(k);
                let allocs = count_allocs(|| {
                    got.extend_from_slice(engine.query_with(&query, k, &mut scratch).unwrap());
                });
                assert_bit_identical(&got, &want);
                assert_eq!(
                    allocs, 0,
                    "{trip:?}: the scratch re-allocated after a tripped deadline"
                );
                if !seen.contains(&trip) {
                    seen.push(trip);
                }
                if seen.len() == 4 {
                    break 'sweep;
                }
            }
        }
    }
    assert!(
        seen.contains(&Trip::Aggregation)
            && seen.contains(&Trip::Scan)
            && seen.contains(&Trip::InheritedScan)
            && seen.contains(&Trip::PredictedScan),
        "the sweep over {full:?} tripped only at {seen:?}"
    );
}

#[test]
fn direct_2d_search_honours_a_cancelled_token() {
    let (n, k) = (20_000, 16);
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let data = generate(Distribution::Uniform, n, 2, 0xCA7);
    let query: SdQuery = uniform_queries(1, 2, 0xC2).remove(0);
    let token = CancelToken::new();
    token.cancel();

    // The bare index: nothing but the frontier walk can see the token.
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    assert!(index.plan(&query).unwrap().direct);
    let want = index.query(&query, k).unwrap();
    let mut scratch = QueryScratch::new();
    index.query_with(&query, k, &mut scratch).unwrap(); // warm-up
    scratch.deadline = Deadline::cancelled_by(&token);
    assert!(matches!(
        index.query_with(&query, k, &mut scratch),
        Err(SdError::Cancelled)
    ));
    scratch.deadline = Deadline::none();
    let mut got = Vec::with_capacity(k);
    let allocs = count_allocs(|| {
        got.extend_from_slice(index.query_with(&query, k, &mut scratch).unwrap());
    });
    assert_bit_identical(&got, &want);
    assert_eq!(allocs, 0, "the cancelled scratch re-allocated");

    // An engine runs the same search over all its shards at once: one
    // shard, four, and four with a tombstone and a delta row. (`threads =
    // 1`: resolving the auto worker count asks the OS, which allocates.)
    for (shards, dirty) in [(1, false), (4, false), (4, true)] {
        let cell = format!("{shards} shard(s), dirty {dirty}");
        let options = EngineOptions {
            shards,
            threads: 1,
            ..EngineOptions::default()
        };
        let mut engine = SdEngine::build_with(data.clone(), &roles, &options).unwrap();
        if dirty {
            assert!(engine.delete(want[0].id).unwrap());
            engine.insert(&query.point).unwrap();
        }
        let plans = engine.explain(&query, k).unwrap().plans;
        assert!(
            plans.len() == shards && plans.iter().all(|p| p.direct),
            "{cell}"
        );
        let fresh = engine.query(&query, k).unwrap();
        if !dirty {
            assert_bit_identical(&fresh, &want);
        }
        let mut scratch = EngineScratch::new();
        assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &fresh);
        assert_eq!(scratch.profile.rounds, 0, "{cell}: the query walked");
        let before = engine.metrics().snapshot().deadline_exceeded;
        scratch.deadline = Deadline::cancelled_by(&token);
        assert!(
            matches!(
                engine.query_with(&query, k, &mut scratch),
                Err(SdError::Cancelled)
            ),
            "{cell}"
        );
        assert_eq!(
            engine.metrics().snapshot().deadline_exceeded,
            before + 1,
            "{cell}"
        );
        scratch.deadline = Deadline::none();
        got.clear();
        let allocs = count_allocs(|| {
            got.extend_from_slice(engine.query_with(&query, k, &mut scratch).unwrap());
        });
        assert_bit_identical(&got, &fresh);
        assert_eq!(
            allocs, 0,
            "{cell}: the cancelled engine scratch re-allocated"
        );
    }
}
