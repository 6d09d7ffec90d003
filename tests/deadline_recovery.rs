//! A query deadline is an error for one query, not for the scratch that
//! served it: when the engine aborts it — in the box scan's lead, or in
//! the sweeps after it — the typed
//! error surfaces, the `deadline_exceeded` metric counts it, and
//! the same [`QueryScratch`] answers the same query again bit-identically
//! to a fresh one **without allocating at all**, like any warmed scratch.
//!
//! The direct 2-D search — one certified frontier walk, no aggregation
//! rounds — honours the same token at every pop, on a bare [`SdIndex`] and
//! behind an engine of one or four shards, clean or dirty.
//!
//! Deadlines are wall-clock, so the test sweeps budgets across the
//! query's measured duration and classifies every trip from the partial
//! profile the abort leaves behind (`chunks_scored` counts a chunk when
//! its scoring starts): the sweep must produce at least one trip of each
//! kind.
//!
//! A query runs on the thread that calls it, so the engines here are built
//! with the default options and restored through `from_parts` as they come:
//! a warmed query allocates nothing on either, and the auto thread count
//! of a batch is asked of the OS once.
//!
//! One scratch also serves a bare index, a dirty engine and the TA
//! baseline in turn, each query reading its own answer and profile.
//!
//! Allocation counting as in `crates/core/tests/alloc_count.rs`: a
//! counting global allocator with a thread-local counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use sdq::baselines::{SeqScan, TaIndex};
use sdq::core::multidim::{QueryPlan, SdIndex};
use sdq::core::{CancelToken, Deadline, QueryScratch};
use sdq::data::{generate, uniform_queries, Distribution};
use sdq::engine::{resolve_threads, EngineOptions, SdEngine};
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdError, SdQuery};

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
    /// Inside the query's lead: at most its 16 best chunks, across every
    /// shard, scored.
    Lead,
    /// Inside the sweeps, past the lead: more than 16 chunks scored.
    Sweep,
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
    let query: SdQuery = uniform_queries(1, dims, 0xD1).remove(0);
    let want = engine.query(&query, k).unwrap(); // a fresh scratch's answer

    // Warm the scratch on this very query: buffer high-water marks are set
    // by its first run, so every later run allocates nothing.
    let mut scratch = QueryScratch::new();
    let mut full = Duration::MAX;
    for i in 0..3 {
        let t0 = Instant::now();
        let allocs = count_allocs(|| {
            assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &want);
        });
        full = full.min(t0.elapsed());
        let p = scratch.profile;
        assert_eq!(p.parts_scanned, 4, "every shard scans");
        assert!(p.chunks_skipped > 0, "{p:?}");
        if i > 0 {
            assert_eq!(allocs, 0, "a warmed query allocates nothing");
        }
    }

    let wanted = [Trip::Lead, Trip::Sweep];
    // The budgets step by 1/STEPS of the query: the first lead is a small
    // part of it.
    const STEPS: u32 = 192;
    let mut seen = Vec::new();
    'sweep: for _attempt in 0..4 {
        for step in 1..STEPS {
            let before = engine.metrics().snapshot().deadline_exceeded;
            scratch.deadline = Deadline::within(full * step / STEPS);
            let trip = match engine.query_with(&query, k, &mut scratch) {
                Ok(_) => continue, // the budget was enough this time
                Err(SdError::DeadlineExceeded { budget_micros, .. }) => {
                    assert_eq!(budget_micros, (full * step / STEPS).as_micros() as u64);
                    let p = scratch.profile;
                    assert!(p.parts_scanned <= 4 && p.emitted == 0, "{p:?}");
                    match p.chunks_scored {
                        0 => continue, // tripped before any chunk was scored
                        1..=16 => Trip::Lead,
                        _ => Trip::Sweep,
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

    // The bare index: nothing but its box scan can see the token.
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    assert!(matches!(
        index.plan(&query).unwrap(),
        QueryPlan::Scan { .. }
    ));
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

    // An engine runs the same box scan over all its shards at once: one
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
            plans.len() == shards && plans.iter().all(|p| matches!(p, QueryPlan::Scan { .. })),
            "{cell}"
        );
        let fresh = engine.query(&query, k).unwrap();
        if !dirty {
            assert_bit_identical(&fresh, &want);
        }
        let mut scratch = QueryScratch::new();
        assert_bit_identical(engine.query_with(&query, k, &mut scratch).unwrap(), &fresh);
        let p = scratch.profile;
        assert_eq!((p.rounds, p.blocks_popped), (0, 0), "{cell}: no walk");
        assert_eq!(
            p.parts_scanned, shards as u64,
            "{cell}: every shard scanned"
        );
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
        let mut scratch = QueryScratch::new();
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
            aggregated += u32::from(scratch.profile.parts_scanned == 4);
            assert_bit_identical(&got, &engine.query(q, k).unwrap());
        }
        assert_eq!(aggregated, 8, "{name}: every query scanned every shard");
    }
}

/// One [`QueryScratch`] serves three kinds of query in turn over the same
/// rows — a bare [`SdIndex`], a dirty 4-shard engine (delta rows and
/// tombstones) and the TA baseline — and each answers out of it as out of
/// its own: every answer is `SeqScan`'s bit for bit, every profile is its
/// own call's (no delta row, 1-D list row or leftover counter of the query
/// before), and once warmed the index and engine queries allocate nothing.
#[test]
fn one_scratch_serves_index_engine_and_ta_in_turn() {
    let (n, dims, k, fresh) = (20_000, 4, 16, 200);
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let data = generate(Distribution::Uniform, n, dims, 0x5C4A);
    let rows: Vec<Vec<f64>> = data.iter().map(|(_, c)| c.to_vec()).collect();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let ta = TaIndex::build(data.clone(), &roles).unwrap();
    let oracle = SeqScan::new(data, &roles).unwrap();
    // The engine holds the same rows, its last `fresh` in the delta region.
    let base = Dataset::from_rows(dims, &rows[..n - fresh]).unwrap();
    let options = EngineOptions {
        shards: 4,
        ..EngineOptions::default()
    };
    let mut engine = SdEngine::build_with(base, &roles, &options).unwrap();
    engine.insert_rows(&rows[n - fresh..]).unwrap();
    // Tombstones: every query's best row and the first delta row.
    let queries = uniform_queries(4, dims, 0x5C4B);
    let mut dead: Vec<PointId> = queries
        .iter()
        .map(|q| oracle.query(q, 1).unwrap()[0].id)
        .chain([PointId::new((n - fresh) as u32)])
        .collect();
    dead.sort();
    dead.dedup();
    for &id in &dead {
        assert!(engine.delete(id).unwrap());
    }
    let live_fresh = fresh - dead.iter().filter(|id| id.index() >= n - fresh).count();
    let want: Vec<(Vec<ScoredPoint>, Vec<ScoredPoint>)> = queries
        .iter()
        .map(|q| {
            let live = (oracle.query(q, k + dead.len()).unwrap().into_iter())
                .filter(|sp| !dead.contains(&sp.id))
                .take(k)
                .collect();
            (oracle.query(q, k).unwrap(), live)
        })
        .collect();
    // What each query's counters read off a scratch of its own.
    let own = |q: &SdQuery, ta_query: bool| {
        let mut scratch = QueryScratch::new();
        if ta_query {
            ta.query_with(q, k, &mut scratch).unwrap();
        } else {
            index.query_with(q, k, &mut scratch).unwrap();
        }
        scratch.profile.counters()
    };

    let mut scratch = QueryScratch::new();
    for pass in 0..4 {
        let warm = pass >= 2;
        for (i, (q, (all, live))) in queries.iter().zip(&want).enumerate() {
            let cell = format!("pass {pass}, query {i}");
            let allocs = count_allocs(|| {
                assert_bit_identical(index.query_with(q, k, &mut scratch).unwrap(), all);
            });
            assert_eq!(scratch.profile.counters(), own(q, false), "{cell}: index");
            assert_eq!(scratch.profile.delta_rows_scanned, 0, "{cell}");
            assert!(!warm || allocs == 0, "{cell}: index, {allocs} allocations");

            let allocs = count_allocs(|| {
                assert_bit_identical(engine.query_with(q, k, &mut scratch).unwrap(), live);
            });
            let p = scratch.profile;
            assert_eq!(p.delta_rows_scanned, live_fresh as u64, "{cell}: engine");
            assert!(p.tombstones_skipped >= 1, "{cell}: engine");
            assert_eq!((p.onedim_rows_pulled, p.emitted), (0, k as u64), "{cell}");
            assert!(!warm || allocs == 0, "{cell}: engine, {allocs} allocations");

            let allocs = count_allocs(|| {
                assert_bit_identical(ta.query_with(q, k, &mut scratch).unwrap(), all);
            });
            assert_eq!(scratch.profile.counters(), own(q, true), "{cell}: TA");
            assert_eq!(scratch.profile.delta_rows_scanned, 0, "{cell}");
            assert!(!warm || allocs == 0, "{cell}: TA, {allocs} allocations");
        }
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
