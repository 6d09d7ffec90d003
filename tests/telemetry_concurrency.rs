//! The telemetry registry must stay honest under fire: histograms and the
//! event journal are written from query and mutation threads with relaxed
//! atomics and a seqlock ring, so a concurrent reader may race every store.
//!
//! * **No torn percentiles** — any histogram snapshot taken mid-stream is
//!   internally consistent (quantiles are monotone in `q`, bounded by the
//!   recorded max) and per-bucket counts only ever grow between snapshots.
//! * **Journal seq discipline** — a drained snapshot's sequence numbers are
//!   strictly increasing, and the only missing prefixes are the ones the
//!   ring itself declares via `overwritten()`.
//! * **A scrape reads what a stopwatch reads** — the query histogram's p50 is
//!   within one half-octave bucket of the raw samples' median.
//! * **Telemetry is free** — the same workload served with a private
//!   recording registry and with the default registry returns bit-identical
//!   results: observability may never change an answer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::core::telemetry::{EventJournal, EventKind, HistoSnapshot, LatencyHisto, Telemetry};
use sdq::engine::{EngineOptions, EngineScratch, SdEngine};
use sdq::{Dataset, DimRole, ScoredPoint, SdQuery};

const DIMS: usize = 4;
const ROLES: [DimRole; DIMS] = [
    DimRole::Attractive,
    DimRole::Repulsive,
    DimRole::Repulsive,
    DimRole::Attractive,
];

fn build_engine(rows: &[Vec<f64>], shards: usize) -> SdEngine {
    let data = Dataset::from_rows(DIMS, rows).unwrap();
    SdEngine::build_with(
        data,
        &ROLES,
        &EngineOptions {
            shards,
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

/// Deterministic splitmix64 stream for the worker workloads.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn random_query(state: &mut u64) -> SdQuery {
    let point: Vec<f64> = (0..DIMS)
        .map(|_| unit_f64(splitmix64(state)) * 8.0)
        .collect();
    SdQuery::new(point, vec![1.0; DIMS]).unwrap()
}

/// A histogram snapshot must be internally consistent even when taken while
/// writers are racing it.
fn assert_snapshot_sane(s: &HistoSnapshot) {
    if s.count() == 0 {
        assert_eq!(s.max_nanos(), 0);
        return;
    }
    let p50 = s.quantile(0.50);
    let p90 = s.quantile(0.90);
    let p99 = s.quantile(0.99);
    assert!(
        p50 <= p90 && p90 <= p99,
        "quantiles not monotone: {p50} {p90} {p99}"
    );
    assert!(p50 >= 0.0);
    assert!(
        s.sum_nanos() >= s.count(),
        "sub-nanosecond mean is impossible here"
    );
}

/// Per-bucket counts may only grow: a later snapshot dominates an earlier
/// one bucket-wise, no matter how the reads interleave with writers.
fn assert_dominates(later: &HistoSnapshot, earlier: &HistoSnapshot) {
    for (i, (l, e)) in later.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
        assert!(l >= e, "bucket {i} shrank: {l} < {e}");
    }
    assert!(later.count() >= earlier.count());
    assert!(later.max_nanos() >= earlier.max_nanos());
}

#[test]
fn histograms_and_journal_survive_concurrent_hammering() {
    let rows: Vec<Vec<f64>> = (0..1500)
        .map(|i| {
            let mut state = 0xD1CE_u64 ^ (i as u64);
            (0..DIMS)
                .map(|_| unit_f64(splitmix64(&mut state)) * 8.0)
                .collect()
        })
        .collect();
    let engine = build_engine(&rows, 3);
    let tel = Telemetry::new();
    tel.set_slow_query_micros(1); // every probe query journals a slow-query event
    let stop = Arc::new(AtomicBool::new(false));

    // Query workers share the engine (and therefore the registry) by clone.
    let mut workers = Vec::new();
    for t in 0..3u64 {
        let mut engine = engine.clone();
        engine.set_telemetry(Arc::clone(&tel));
        let stop = Arc::clone(&stop);
        workers.push(thread::spawn(move || {
            let mut state = 0xBEEF ^ t;
            // At least one query each, however late this thread is
            // scheduled: the final count check below depends on it.
            for _ in 0..400 {
                let q = random_query(&mut state);
                engine.query(&q, 8).unwrap();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }));
    }
    // One mutator drives inserts, deletes and compactions on its own clone.
    {
        let mut engine = engine.clone();
        engine.set_telemetry(Arc::clone(&tel));
        let stop = Arc::clone(&stop);
        workers.push(thread::spawn(move || {
            let mut state = 0xFACE_u64;
            for round in 0..120u32 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let row: Vec<f64> = (0..DIMS)
                    .map(|_| unit_f64(splitmix64(&mut state)) * 8.0)
                    .collect();
                let id = engine.insert(&row).unwrap();
                if round % 3 == 0 {
                    engine.delete(id).unwrap();
                }
                if round % 40 == 39 {
                    engine.compact().unwrap();
                }
            }
        }));
    }

    // The reader races every writer: snapshots must never tear.
    let mut prev_query = tel.query.snapshot();
    let mut prev_seq_high: Option<u64> = None;
    for _ in 0..200 {
        for (_, histo) in tel.histograms() {
            assert_snapshot_sane(&histo.snapshot());
        }
        let query_now = tel.query.snapshot();
        assert_dominates(&query_now, &prev_query);
        prev_query = query_now;

        let records = tel.journal.snapshot();
        let mut last: Option<u64> = None;
        for rec in &records {
            if let Some(prev) = last {
                assert!(rec.seq > prev, "journal seqs not strictly increasing");
            }
            last = Some(rec.seq);
        }
        // Everything below the retained window must be declared overwritten.
        if let (Some(first), Some(_)) = (records.first(), records.last()) {
            assert!(
                first.seq <= tel.journal.overwritten(),
                "undeclared gap: first retained seq {} but only {} overwritten",
                first.seq,
                tel.journal.overwritten()
            );
        }
        if let Some(high) = records.last().map(|r| r.seq) {
            if let Some(prev_high) = prev_seq_high {
                assert!(high >= prev_high, "journal high-water mark went backwards");
            }
            prev_seq_high = Some(high);
        }
        thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // After quiescence the books must balance exactly.
    let final_query = tel.query.snapshot();
    assert!(final_query.count() >= 3, "query workers recorded nothing");
    assert_eq!(
        final_query.count(),
        final_query.buckets.iter().sum::<u64>(),
        "bucket sum disagrees with count"
    );
    assert_eq!(
        tel.journal.pushed(),
        tel.journal.depth() + tel.journal.overwritten(),
        "journal accounting broken"
    );
    let slow = tel
        .journal
        .snapshot()
        .iter()
        .filter(|r| matches!(r.kind, EventKind::SlowQuery { .. }))
        .count();
    assert!(slow > 0, "1 µs threshold captured no slow queries");

    // A scrape reads what a stopwatch reads: on a quiet registry the query
    // histogram's p50 lies within one half-octave bucket (×0.66…×1.34) of the
    // median of the raw wall-clock samples of the same 256 queries.
    let mut engine = engine;
    let quiet = Telemetry::new();
    engine.set_telemetry(Arc::clone(&quiet));
    let mut scratch = EngineScratch::new();
    let mut state = 0xC0FFEE_u64;
    let mut raw: Vec<u64> = (0..256)
        .map(|_| {
            let q = random_query(&mut state);
            let t0 = Instant::now();
            engine.query_with(&q, 8, &mut scratch).unwrap();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    raw.sort_unstable();
    let raw_p50 = raw[127] as f64; // rank 128 of 256, the rank `p50()` reads
    let p50 = quiet.query.snapshot().p50();
    assert!(
        raw_p50 * 0.66 <= p50 && p50 <= raw_p50 * 1.34,
        "histogram p50 {p50} ns vs raw p50 {raw_p50} ns"
    );
}

#[test]
fn journal_overwrite_declares_every_dropped_record() {
    let journal = EventJournal::with_capacity(8);
    for i in 0..50u64 {
        journal.push(EventKind::EpochTransition { from: i, to: i + 1 });
    }
    assert_eq!(journal.pushed(), 50);
    assert_eq!(journal.depth(), 8);
    assert_eq!(journal.overwritten(), 42);
    let records = journal.snapshot();
    assert_eq!(records.len(), 8);
    // The retained window is exactly the newest `capacity` records.
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, 42 + i as u64);
    }
}

#[test]
fn histogram_merge_is_lossless_across_threads() {
    let shards: Vec<Arc<LatencyHisto>> = (0..4).map(|_| Arc::new(LatencyHisto::new())).collect();
    let mut handles = Vec::new();
    for (t, histo) in shards.iter().enumerate() {
        let histo = Arc::clone(histo);
        handles.push(thread::spawn(move || {
            let mut state = 0xABCD ^ t as u64;
            for _ in 0..10_000 {
                histo.record_nanos(splitmix64(&mut state) % 1_000_000_000);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut merged = shards[0].snapshot();
    for histo in &shards[1..] {
        merged.merge(&histo.snapshot());
    }
    assert_eq!(merged.count(), 40_000);
    assert_eq!(merged.count(), merged.buckets.iter().sum::<u64>());
    assert_snapshot_sane(&merged);
}

fn assert_bit_identical(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.score.to_bits(), w.score.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Telemetry may never change an answer: the same engine serving the
    // same workload with recording on (private registry, aggressive
    // slow-query capture) and off (fresh quiet registry) is bit-identical.
    #[test]
    fn telemetry_on_off_results_bit_identical(
        rows in vec(vec(-8.0..8.0f64, DIMS), 8..120),
        raw_queries in vec(vec(-8.0..8.0f64, DIMS), 1..8),
        k in 1usize..10,
        shards in 1usize..4,
    ) {
        let queries: Vec<SdQuery> = raw_queries
            .iter()
            .map(|p| SdQuery::new(p.clone(), vec![1.0; DIMS]).unwrap())
            .collect();

        let mut on = build_engine(&rows, shards);
        let tel = Telemetry::new();
        tel.set_slow_query_micros(1);
        on.set_telemetry(Arc::clone(&tel));

        let mut off = build_engine(&rows, shards);
        off.set_telemetry(Telemetry::new());

        for q in &queries {
            let a = on.query(q, k).unwrap();
            let b = off.query(q, k).unwrap();
            assert_bit_identical(&a, &b);
        }
        // The recording registry really did record.
        prop_assert_eq!(tel.query.snapshot().count(), queries.len() as u64);
        let slow = tel
            .journal
            .snapshot()
            .iter()
            .filter(|r| matches!(r.kind, EventKind::SlowQuery { .. }))
            .count();
        prop_assert!(slow <= queries.len());
    }
}
