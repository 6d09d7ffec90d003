//! Deterministic chaos harness: randomized workloads under randomized
//! fault schedules, with the durability invariants asserted after every
//! operation.
//!
//! One [`run_chaos`] call drives a [`DurableEngine`] over [`MemStorage`]
//! through `ops` seeded-random operations (inserts, deletes, checkpoints,
//! query probes, deadline probes) while periodically installing a random
//! [`FaultScript`] — write failures, torn appends, whole-process crashes,
//! EINTR-shaped transients, and permanent errnos. After every step it
//! checks the contract the rest of this crate promises:
//!
//! * **acked writes survive** — after any crash, the reopened image equals
//!   the acknowledged prefix of the op sequence (possibly extended by the
//!   single in-flight op whose WAL record made it to disk), bit-identical
//!   under a probe query;
//! * **reads are never torn** — a healthy *or degraded* engine answers the
//!   probe identically to an in-memory oracle holding exactly the acked
//!   ops;
//! * **degraded is sticky** — after a non-crash I/O failure the engine
//!   refuses writes with a typed error until [`DurableEngine::try_recover`]
//!   succeeds, after which writes flow again;
//! * **deadline queries are bounded** — a query with a µs budget returns
//!   (either answers or [`SdError::DeadlineExceeded`]) within the budget
//!   plus one cooperative check interval, asserted with a generous
//!   wall-clock ceiling.
//!
//! Everything is driven by one `u64` seed (splitmix64), so a CI failure
//! reproduces exactly with `sdq chaos --seed <printed seed>`.

use std::time::Instant;

use sdq_core::{Dataset, Deadline, PointId, QueryScratch, SdError, SdQuery};
use sdq_engine::SdEngine;

use crate::durable::{DurableEngine, DurableOptions, Health, SyncPolicy};
use crate::io::{Fault, FaultScript, MemStorage};
use crate::parse_roles;

/// Parameters for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the splitmix64 stream; equal seeds replay identical runs.
    pub seed: u64,
    /// Operations to drive (mutations, checkpoints and probes combined).
    pub ops: u64,
}

/// What one chaos run did — every counter is deterministic in the seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Operations issued against the durable engine.
    pub ops_run: u64,
    /// Mutations acknowledged (insert/delete/checkpoint that returned Ok).
    pub ops_acked: u64,
    /// Fault scripts installed.
    pub faults_injected: u64,
    /// Whole-process crashes simulated (each followed by a verified
    /// reopen).
    pub crashes: u64,
    /// Transitions into the degraded state (each verified sticky, then
    /// recovered).
    pub degradations: u64,
    /// Successful [`DurableEngine::try_recover`] calls.
    pub recoveries: u64,
    /// Probe queries compared bit-for-bit against the oracle.
    pub probes: u64,
    /// Deadline-bounded probe queries issued.
    pub deadline_probes: u64,
    /// Deadline probes that returned [`SdError::DeadlineExceeded`].
    pub deadline_hits: u64,
    /// Transparent I/O retries observed (from the engine metrics).
    pub retries: u64,
}

/// splitmix64 — tiny, seedable, good enough to shuffle faults.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(f64, f64),
    Delete(u64),
    Checkpoint,
}

const SNAP: &str = "chaos.sdq";

/// Wall-clock ceiling for a deadline probe: the budget, doubled for the
/// cooperative check granularity, under a generous floor so slow CI
/// machines don't flake. The point is boundedness, not precision.
fn deadline_ceiling_micros(budget: u64) -> u64 {
    (budget * 2).max(100_000)
}

fn base_engine() -> SdEngine {
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let x = i as f64;
            vec![(x * 0.61).sin() * 9.0, 12.0 - x * 0.4]
        })
        .collect();
    let data = Dataset::from_rows(2, &rows).unwrap();
    SdEngine::build(data, &parse_roles("ar").unwrap()).unwrap()
}

fn probe_query() -> SdQuery {
    SdQuery::uniform_weights(vec![0.7, 1.3], &parse_roles("ar").unwrap())
}

fn fingerprint(engine: &SdEngine) -> (usize, Vec<u32>) {
    (engine.total_rows(), engine.tombstone_ids())
}

fn apply_durable(d: &mut DurableEngine<MemStorage>, op: Op) -> Result<(), SdError> {
    match op {
        Op::Insert(x, y) => d.insert(&[x, y]).map(|_| ()),
        Op::Delete(raw) => {
            let total = d.engine().total_rows() as u64;
            d.delete(PointId::new((raw % total) as u32)).map(|_| ())
        }
        Op::Checkpoint => d.checkpoint(),
    }
}

fn apply_plain(engine: &mut SdEngine, op: Op) {
    match op {
        Op::Insert(x, y) => {
            engine.insert(&[x, y]).unwrap();
        }
        Op::Delete(raw) => {
            let total = engine.total_rows() as u64;
            engine.delete(PointId::new((raw % total) as u32)).unwrap();
        }
        Op::Checkpoint => {}
    }
}

fn violation(report: &ChaosReport, seed: u64, msg: String) -> SdError {
    SdError::SnapshotIo(format!(
        "chaos invariant violated (seed {seed}, after {} op(s)): {msg}",
        report.ops_run
    ))
}

/// Compares the durable engine's probe answer to the oracle's,
/// bit-for-bit.
fn check_probe(
    d: &DurableEngine<MemStorage>,
    oracle: &SdEngine,
    report: &ChaosReport,
    seed: u64,
    context: &str,
) -> Result<(), SdError> {
    let want = oracle.query(&probe_query(), 5)?;
    let have = d
        .query(&probe_query(), 5)
        .map_err(|e| violation(report, seed, format!("{context}: probe query refused: {e}")))?;
    if want != have {
        return Err(violation(
            report,
            seed,
            format!("{context}: probe diverged from oracle:\n want {want:?}\n have {have:?}"),
        ));
    }
    Ok(())
}

/// Runs one seeded chaos schedule; `Err` means a durability invariant was
/// violated (the message carries the seed and op index for replay).
pub fn run_chaos(config: ChaosConfig) -> Result<ChaosReport, SdError> {
    let mut rng = Rng(config.seed);
    let mut report = ChaosReport::default();

    // Always-fsync so "acked" and "durable" coincide: every acknowledged
    // mutation must survive any later crash, with no group-commit window
    // to reason about.
    let opts = DurableOptions {
        sync: SyncPolicy::Always,
    };
    let mut d = DurableEngine::create(MemStorage::new(), SNAP, base_engine(), opts)
        .map_err(|e| SdError::SnapshotIo(format!("chaos setup: {e}")))?;

    // The oracle holds exactly the acknowledged ops; an op that fails
    // mid-flight may still surface after a crash (prefix + 1 tolerance).
    let mut oracle = base_engine();
    let mut scratch = QueryScratch::new();

    while report.ops_run < config.ops {
        report.ops_run += 1;

        // Occasionally arm a random fault script a few I/O points ahead.
        if rng.below(100) < 12 {
            let at = d.storage().io_points() + rng.below(10);
            let fault = match rng.below(6) {
                0 => Fault::Fail { at },
                1 => Fault::Torn {
                    at,
                    keep: rng.below(16) as usize,
                },
                2 => Fault::Crash { at },
                3 => Fault::Transient {
                    at,
                    times: 1 + rng.below(3) as u32,
                },
                4 => Fault::Errno { at, errno: 28 },
                _ => Fault::Errno { at, errno: 5 },
            };
            let mut script = FaultScript::none();
            script.push(fault);
            d.storage_mut().set_script(script);
            report.faults_injected += 1;
        }

        let roll = rng.below(100);
        if roll < 55 {
            // A mutation (insert-heavy so the store grows).
            let op = match rng.below(10) {
                0..=6 => Op::Insert(rng.f64_in(-40.0, 40.0), rng.f64_in(-40.0, 40.0)),
                7..=8 => Op::Delete(rng.next()),
                _ => Op::Checkpoint,
            };
            match apply_durable(&mut d, op) {
                Ok(()) => {
                    apply_plain(&mut oracle, op);
                    report.ops_acked += 1;
                }
                Err(e) => {
                    if d.storage().crashed() {
                        d = reopen_after_crash(d, &mut oracle, op, opts, &mut report, config.seed)?;
                    } else {
                        recover_from_degraded(&mut d, &oracle, &mut report, config.seed, &e)?;
                    }
                }
            }
        } else if roll < 80 {
            // Probe: reads serve (healthy or degraded) and match the
            // oracle exactly.
            report.probes += 1;
            check_probe(&d, &oracle, &report, config.seed, "steady-state probe")?;
        } else {
            // Deadline probe: bounded wall-clock, typed outcome.
            report.deadline_probes += 1;
            let budget = 1 + rng.below(400);
            scratch.deadline = Deadline::within_micros(budget);
            let started = Instant::now();
            let res = d
                .engine()
                .query_with(&probe_query(), 5, &mut scratch)
                .map(|_| ());
            let elapsed = started.elapsed().as_micros() as u64;
            scratch.deadline = Deadline::default();
            match res {
                Ok(_) | Err(SdError::DeadlineExceeded { .. }) => {
                    if res.is_err() {
                        report.deadline_hits += 1;
                    }
                }
                Err(e) => {
                    return Err(violation(
                        &report,
                        config.seed,
                        format!("deadline probe failed with a non-deadline error: {e}"),
                    ))
                }
            }
            let ceiling = deadline_ceiling_micros(budget);
            if elapsed > ceiling {
                return Err(violation(
                    &report,
                    config.seed,
                    format!(
                        "deadline probe ran {elapsed} µs against a {budget} µs budget \
                         (ceiling {ceiling} µs)"
                    ),
                ));
            }
        }
    }

    report.retries = d.engine().metrics().snapshot().retries_attempted;
    // Final sweep: the surviving store equals the oracle and round-trips
    // through one last crash-free reopen.
    check_probe(&d, &oracle, &report, config.seed, "final probe")?;
    let mut storage = d.into_storage();
    storage.set_script(FaultScript::none());
    let back = DurableEngine::open(storage, SNAP, opts)
        .map_err(|e| SdError::SnapshotIo(format!("chaos final reopen: {e}")))?;
    if fingerprint(back.engine()) != fingerprint(&oracle) {
        return Err(violation(
            &report,
            config.seed,
            "final reopen diverged from the oracle".to_string(),
        ));
    }
    Ok(report)
}

/// After a non-crash I/O failure: assert the degraded contract, then
/// recover.
fn recover_from_degraded(
    d: &mut DurableEngine<MemStorage>,
    oracle: &SdEngine,
    report: &mut ChaosReport,
    seed: u64,
    cause: &SdError,
) -> Result<(), SdError> {
    if !matches!(d.health(), Health::Degraded { .. }) {
        return Err(violation(
            report,
            seed,
            format!(
                "write failed ({cause}) but health is {:?}, not degraded",
                d.health()
            ),
        ));
    }
    report.degradations += 1;

    // Sticky: writes refuse with the typed error while degraded…
    match d.insert(&[0.0, 0.0]) {
        Err(SdError::EngineDegraded { .. }) => {}
        other => {
            return Err(violation(
                report,
                seed,
                format!("degraded engine answered a write with {other:?}"),
            ))
        }
    }
    // …and reads still serve, exactly the acked state.
    check_probe(d, oracle, report, seed, "degraded probe")?;

    // Clear the injected faults (the "operator fixed the disk" step) and
    // recover; the engine must be writable again.
    d.storage_mut().set_script(FaultScript::none());
    match d.try_recover() {
        Ok(true) => {}
        other => {
            return Err(violation(
                report,
                seed,
                format!("try_recover on a fault-free disk returned {other:?}"),
            ))
        }
    }
    if !matches!(d.health(), Health::Healthy) {
        return Err(violation(
            report,
            seed,
            "try_recover returned Ok(true) but health is not healthy".to_string(),
        ));
    }
    report.recoveries += 1;
    Ok(())
}

/// After a simulated whole-process crash: reopen what survived and assert
/// it equals the acked prefix, possibly extended by the in-flight op.
fn reopen_after_crash(
    d: DurableEngine<MemStorage>,
    oracle: &mut SdEngine,
    in_flight: Op,
    opts: DurableOptions,
    report: &mut ChaosReport,
    seed: u64,
) -> Result<DurableEngine<MemStorage>, SdError> {
    report.crashes += 1;
    let image = d.into_storage().crash_image();
    let back = DurableEngine::open(image, SNAP, opts)
        .map_err(|e| violation(report, seed, format!("reopen after crash failed: {e}")))?;

    let got = fingerprint(back.engine());
    if got != fingerprint(oracle) {
        // The in-flight op's WAL record may have hit the platter before
        // the crash; that is the one other legal state.
        let mut with_pending = oracle.clone();
        apply_plain(&mut with_pending, in_flight);
        if fingerprint(&with_pending) == got {
            *oracle = with_pending;
        } else {
            return Err(violation(
                report,
                seed,
                format!(
                    "crash recovery produced {got:?}, matching neither the acked \
                     prefix {:?} nor prefix+in-flight",
                    fingerprint(oracle)
                ),
            ));
        }
    }
    check_probe(&back, oracle, report, seed, "post-crash probe")?;
    Ok(back)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zeroes the one wall-clock-dependent counter (whether a µs budget
    /// actually expired depends on machine speed, not the seed).
    fn deterministic_part(mut r: ChaosReport) -> ChaosReport {
        r.deadline_hits = 0;
        r
    }

    #[test]
    fn chaos_run_is_deterministic_in_the_seed() {
        let a = run_chaos(ChaosConfig { seed: 42, ops: 300 }).unwrap();
        let b = run_chaos(ChaosConfig { seed: 42, ops: 300 }).unwrap();
        assert_eq!(deterministic_part(a), deterministic_part(b));
        assert_eq!(a.ops_run, 300);
        assert!(a.faults_injected > 0, "{a:?}");
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let a = run_chaos(ChaosConfig { seed: 1, ops: 300 }).unwrap();
        let b = run_chaos(ChaosConfig { seed: 2, ops: 300 }).unwrap();
        assert_ne!(deterministic_part(a), deterministic_part(b));
    }

    #[test]
    fn a_long_run_hits_every_fault_class() {
        let r = run_chaos(ChaosConfig { seed: 7, ops: 1500 }).unwrap();
        assert!(r.crashes > 0, "{r:?}");
        assert!(r.degradations > 0, "{r:?}");
        assert_eq!(r.degradations, r.recoveries, "{r:?}");
        assert!(r.probes > 0 && r.deadline_probes > 0, "{r:?}");
    }
}
