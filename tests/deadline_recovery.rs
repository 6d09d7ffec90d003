//! A query deadline is an error for one query, not for the scratch that
//! served it: when the engine aborts it — between two
//! aggregation rounds, in the middle of the kernel scan of the shard that
//! found the query lost, in one its siblings inherited from it, or in a scan
//! of a query that started lost — every suspended shard execution hands its
//! buffers back, the typed error surfaces, the `deadline_exceeded` metric
//! counts it, and the same [`EngineScratch`] answers the same query again
//! bit-identically to a fresh one **without allocating at all**, like any
//! warmed scratch — whether that query runs its streams first, starts lost
//! or is its shape's audit.
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
//! A query runs on the thread that calls it, so the engines here are built
//! with the default options and restored through `from_parts` as they come:
//! a warmed query allocates nothing on either, and the auto thread count
//! of a batch is asked of the OS once.
//!
//! Allocation counting as in `crates/core/tests/alloc_count.rs`: a
//! counting global allocator with a thread-local counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use sdq::core::multidim::SdIndex;
use sdq::core::{CancelToken, Deadline, QueryScratch};
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{resolve_threads, EngineOptions, EngineScratch, SdEngine, RECHECK, STREAK};
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
    /// Inside the last shard of the shape's audit (its every RECHECK-th
    /// query), run stream-first once the other three finished their
    /// predicted scans.
    Audit,
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
            ..EngineOptions::default()
        },
    )
    .unwrap();
    // An engine over the same shards with no verdict history: its first
    // STREAK queries of this shape run their streams first.
    let fresh = || SdEngine::from_parts(dims, roles.clone(), engine.shards().to_vec()).unwrap();
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
            assert_eq!(allocs, 0, "a warmed query allocates nothing");
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
    // The shape's audit — three predicted scans, then the last shard's
    // streams, longer than any it ran before — sets that path's marks, and
    // the next audit allocates nothing.
    for lap in 0..2 {
        let before = if lap == 0 { STREAK + 2 } else { 0 };
        for _ in before..RECHECK - 1 {
            engine.query_with(&query, k, &mut scratch).unwrap();
        }
        let audit = count_allocs(|| {
            assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &want);
        });
        let p = scratch.profile;
        assert_eq!((p.scan_predicted, p.scan_inherited), (3, 0), "audit {lap}");
        if lap > 0 {
            assert_eq!(audit, 0, "a warmed audit allocates nothing");
        }
    }

    // The sweep runs each budget on an engine with no history (the query
    // runs its streams first; a fresh one per budget, since the recovery
    // below lengthens its streak) and on the warmed one (the query starts
    // lost, but for its every RECHECK-th query).
    // An audit trip is taken when the sweep happens on one, not sought.
    let wanted = [
        Trip::Aggregation,
        Trip::Scan,
        Trip::InheritedScan,
        Trip::PredictedScan,
    ];
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
                        } else if p.scan_predicted > 0 && p.rows_fetched > p.scan_rows {
                            // A query that started lost fetches through its
                            // streams only in an audit's last shard, run once
                            // its three lead shards finished their predicted
                            // scans; a scan counts its rows only when it
                            // completes, so these came through streams.
                            assert_eq!((p.scan_predicted, p.scan_inherited), (3, 0), "{p:?}");
                            assert!(p.scan_fallbacks <= 4, "{p:?}");
                            Trip::Audit
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
                if wanted.iter().all(|t| seen.contains(t)) {
                    break 'sweep;
                }
            }
        }
    }
    assert!(
        wanted.iter().all(|t| seen.contains(t)),
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
    // shard, four, and four with a tombstone and a delta row.
    for (shards, dirty) in [(1, false), (4, false), (4, true)] {
        let cell = format!("{shards} shard(s), dirty {dirty}");
        let options = EngineOptions {
            shards,
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

/// A 4-shard engine as `EngineOptions::default()` builds it, and the same
/// shards as a store's open restores them (`SdEngine::from_parts`): once a
/// scratch has served the queries, serving them again allocates nothing.
/// No option picks a worker count, so no query spawns one.
#[test]
fn default_and_restored_engines_query_without_allocating() {
    let (n, dims, k) = (20_000, 4, 16);
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let built = SdEngine::build_with(
        generate(Distribution::Uniform, n, dims, 0xA110C),
        &roles,
        &EngineOptions {
            shards: 4,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let restored = SdEngine::from_parts(dims, roles.to_vec(), built.shards().to_vec()).unwrap();
    let queries = uniform_queries(8, dims, 0xA110D);
    for (name, engine) in [("built", &built), ("restored", &restored)] {
        let mut scratch = EngineScratch::new();
        for _ in 0..2 {
            for q in &queries {
                engine.query_with(q, k, &mut scratch).unwrap();
            }
        }
        let mut aggregated = 0;
        let mut got = Vec::with_capacity(k);
        for q in &queries {
            got.clear();
            let allocs = count_allocs(|| {
                got.extend_from_slice(engine.query_with(q, k, &mut scratch).unwrap());
            });
            assert_eq!(allocs, 0, "{name}: a warmed query allocated {allocs} times");
            aggregated += u32::from(scratch.profile.rounds > 0);
            assert_bit_identical(&got, &engine.query(q, k).unwrap());
        }
        assert_eq!(aggregated, 8, "{name}: every query ran the §5 aggregation");
    }
}

/// A batch's auto thread count (`resolve_threads(0)`) is asked of the OS
/// (affinity mask, cgroup quota files — reads that allocate) once, and is
/// a cached load from then on.
#[test]
fn auto_thread_count_is_resolved_once() {
    let first = resolve_threads(0); // warm-up: the one OS query
    assert!(first >= 1);
    let mut second = 0;
    let n = count_allocs(|| second = resolve_threads(0));
    assert_eq!(n, 0, "resolve_threads(0) allocated {n} times after warm-up");
    assert_eq!(second, first);
    assert_eq!(resolve_threads(3), 3, "explicit counts pass through");
}
