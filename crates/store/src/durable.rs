//! Crash-safe serving: an [`SdEngine`] whose every mutation is written to
//! a [WAL](crate::wal) *before* it is applied, paired with fsync'd
//! checkpoint rotation and torn-tail recovery.
//!
//! ## Files
//!
//! A durable engine owns two names inside one [`Storage`] directory:
//!
//! * `NAME` — the snapshot (container format v5, engine plus a
//!   `durability` section carrying the checkpoint generation).
//! * `NAME.wal` — the write-ahead log, whose header carries the same
//!   generation.
//!
//! ## The contract
//!
//! [`DurableEngine::insert`]/[`insert_rows`]/[`delete`] append to the WAL
//! first and apply to the in-memory engine second. What an `Ok` return
//! *means* depends on the [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Always`] — the record was fsync'd; the mutation
//!   survives any crash. This is the default.
//! * [`SyncPolicy::EveryN`] — group commit: the record is in the OS
//!   buffer; it is guaranteed durable once the batch fsync at the Nth
//!   pending record (or an explicit [`DurableEngine::sync`]) returns.
//! * [`SyncPolicy::Never`] — no fsync until [`DurableEngine::sync`] or a
//!   checkpoint; a crash may lose everything since then.
//!
//! In all cases recovery yields a *prefix* of the acknowledged ops: the
//! WAL is append-only and replayed in order, a torn tail is truncated at
//! the first bad record, and [`DurableEngine::durable_records`] records
//! how much of the log an fsync has confirmed.
//!
//! ## Checkpoint rotation
//!
//! [`DurableEngine::checkpoint`] folds the log into the snapshot
//! atomically: write the new snapshot to a temp file, fsync it, rename it
//! over the old one, fsync the directory — then start a fresh WAL (new
//! generation, written via the same temp + rename + dir-fsync dance). A
//! crash between the two renames leaves a new snapshot beside the old
//! log; the generation mismatch tells [`DurableEngine::open`] the log is
//! stale and its records are already inside the snapshot, so nothing is
//! replayed twice. Inserts double-checked: a stale log can never sneak
//! past the generation gate because the snapshot's generation only moves
//! forward.

use sdq_core::telemetry::EventKind;
use sdq_core::{PointId, ScoredPoint, SdError, SdQuery};
use sdq_engine::{
    CompactionOptions, CompactionReport, EngineMetrics, SdEngine, HEALTH_DEGRADED, HEALTH_HEALTHY,
    HEALTH_POISONED,
};

use crate::io::{DiskStorage, Storage};
use crate::wal::{self, WalHeader, WalRecord};
use crate::{DurabilityInfo, Snapshot};

/// The durable engine's health state machine.
///
/// ```text
///            write-path failure                  apply failure after a
///            (exhausted retries,                 durable append (memory
///            failed fsync, failed                may hold a torn batch)
///            checkpoint)                ┌─────────────────────────────┐
///  Healthy ─────────────────► Degraded ┤                             ▼
///     ▲                          │     └──────────────────────► Poisoned
///     │    try_recover() /       │
///     └──── checkpoint() ────────┘         (reopen from disk only)
/// ```
///
/// * **Healthy** — reads and writes both served.
/// * **Degraded** — *sticky* read-only mode: the on-disk WAL/snapshot pair
///   is questionable (a torn append, a failed fsync whose page-cache state
///   is unknowable, an interrupted rotation), so mutations are refused
///   with [`SdError::EngineDegraded`] while reads keep serving the
///   in-memory engine — which still holds exactly the acknowledged
///   prefix. [`DurableEngine::try_recover`] (or any successful
///   [`DurableEngine::checkpoint`]) rewrites snapshot + WAL from memory
///   into fresh files and returns to `Healthy`. A failed fsync is never
///   retried — after an fsync error the kernel may have dropped the dirty
///   pages, so "retry until it works" silently loses data (the fsyncgate
///   failure mode); re-checkpointing from memory is the only sound move.
/// * **Poisoned** — the in-memory engine itself may disagree with the
///   acknowledged history (a replay-validated record failed to apply, so
///   a batch may be half-applied). Reads and writes are both refused with
///   [`SdError::EnginePoisoned`]; the only way out is reopening from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Fully serving.
    Healthy,
    /// Read-only until [`DurableEngine::try_recover`]; `reason` is the
    /// failure that tripped the transition.
    Degraded {
        /// What failed.
        reason: String,
    },
    /// Refusing all traffic; reopen from disk.
    Poisoned {
        /// What failed.
        reason: String,
    },
}

impl Health {
    /// Stable lowercase label ("healthy", "degraded", "poisoned").
    pub fn label(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded { .. } => "degraded",
            Health::Poisoned { .. } => "poisoned",
        }
    }

    /// The `sdq_engine_health` gauge code (0/1/2).
    pub fn gauge_code(&self) -> u64 {
        match self {
            Health::Healthy => HEALTH_HEALTHY,
            Health::Degraded { .. } => HEALTH_DEGRADED,
            Health::Poisoned { .. } => HEALTH_POISONED,
        }
    }
}

/// Retries per storage operation for *transient* failures (EINTR-shaped:
/// [`std::io::ErrorKind::Interrupted`], `WouldBlock`, `TimedOut`) before
/// the failure is treated as permanent. Permanent errors (ENOSPC, EIO,
/// CRC mismatches) and fsync failures are never retried.
pub const RETRY_BUDGET: u32 = 4;

/// First backoff sleep; doubles per retry (50 → 100 → 200 → 400 µs).
const RETRY_BASE_DELAY_MICROS: u64 = 50;

/// Whether `e` is worth retrying: the EINTR/EAGAIN shapes that a second
/// attempt can genuinely clear, as opposed to environment failures
/// (ENOSPC, EIO) where retrying just hammers a broken disk.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `op`, absorbing up to [`RETRY_BUDGET`] transient failures with
/// doubling backoff. Every retry is counted in the metrics registry.
fn retry_io<T>(
    metrics: &EngineMetrics,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0u32;
    let mut delay = RETRY_BASE_DELAY_MICROS;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < RETRY_BUDGET => {
                attempt += 1;
                metrics.record_retry();
                std::thread::sleep(std::time::Duration::from_micros(delay));
                delay *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// When WAL appends are fsync'd — what an acknowledged write means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every record: an `Ok` mutation is durable.
    #[default]
    Always,
    /// Group commit: fsync once every `N` pending records.
    EveryN(u32),
    /// fsync only on explicit [`DurableEngine::sync`] or checkpoint.
    Never,
}

/// Tuning for [`DurableEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// The WAL fsync policy.
    pub sync: SyncPolicy,
}

/// What [`DurableEngine::open`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed into the engine.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated off the WAL.
    pub truncated_bytes: u64,
    /// The WAL predated the snapshot (crash between the checkpoint's two
    /// renames); its records were already in the snapshot and it was
    /// reset.
    pub stale_wal_reset: bool,
    /// The snapshot was not durability-enabled yet; a generation-1
    /// checkpoint bootstrapped it.
    pub bootstrapped: bool,
}

/// Point-in-time durability counters (the `sdq inspect` durability line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Records appended since the last checkpoint.
    pub records: u64,
    /// Records confirmed on stable storage by an fsync.
    pub durable_records: u64,
    /// Record bytes pending in the WAL since the last checkpoint.
    pub pending_bytes: u64,
    /// Total WAL file length (header included).
    pub wal_bytes: u64,
    /// Current checkpoint generation.
    pub generation: u64,
    /// Engine epoch recorded at the last checkpoint.
    pub last_checkpoint_epoch: u64,
}

/// The crash-safe engine wrapper. Generic over [`Storage`] so the
/// fault-injection tests drive it over [`crate::MemStorage`]; production
/// code uses [`DiskStorage`].
#[derive(Debug)]
pub struct DurableEngine<S: Storage = DiskStorage> {
    storage: S,
    snap_name: String,
    engine: SdEngine,
    opts: DurableOptions,
    generation: u64,
    checkpoint_epoch: u64,
    appended_records: u64,
    durable_records: u64,
    appended_bytes: u64,
    wal_len: u64,
    /// The health state machine; see [`Health`] for the transitions.
    health: Health,
    recovery: RecoveryReport,
}

fn io_err(what: &str, e: std::io::Error) -> SdError {
    SdError::SnapshotIo(format!("{what}: {e}"))
}

impl<S: Storage> DurableEngine<S> {
    fn wal_name(snap_name: &str) -> String {
        format!("{snap_name}.wal")
    }

    fn snap_tmp(snap_name: &str) -> String {
        format!("{snap_name}.tmp")
    }

    fn wal_tmp(snap_name: &str) -> String {
        format!("{snap_name}.wal.tmp")
    }

    /// Starts a new durable store: writes a generation-1 snapshot of
    /// `engine` plus a fresh WAL into `storage`, replacing whatever was
    /// at those names.
    pub fn create(
        storage: S,
        snap_name: impl Into<String>,
        engine: SdEngine,
        opts: DurableOptions,
    ) -> Result<Self, SdError> {
        let mut this = DurableEngine {
            storage,
            snap_name: snap_name.into(),
            engine,
            opts,
            generation: 0,
            checkpoint_epoch: 0,
            appended_records: 0,
            durable_records: 0,
            appended_bytes: 0,
            wal_len: 0,
            health: Health::Healthy,
            recovery: RecoveryReport {
                bootstrapped: true,
                ..Default::default()
            },
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Opens (and recovers) a durable store: restores the snapshot,
    /// validates the WAL against it, truncates a torn tail at the first
    /// bad record and replays the survivors. A snapshot that is not yet
    /// durability-enabled is bootstrapped with a generation-1 checkpoint.
    pub fn open(
        storage: S,
        snap_name: impl Into<String>,
        opts: DurableOptions,
    ) -> Result<Self, SdError> {
        let snap_name = snap_name.into();
        let wal_name = Self::wal_name(&snap_name);

        // One read into an owned aligned buffer (never a mapping: this
        // store renames new files over `snap_name`), decoded in place and
        // verified in full before anything is replayed on top of it.
        let snap_buffer = storage
            .read_aligned(&snap_name)
            .map_err(|e| io_err(&snap_name, e))?;
        let snap = Snapshot::from_aligned(&snap_buffer)?;
        let durability = snap.durability;
        let Some(engine) = snap.engine else {
            return Err(SdError::SnapshotCorrupt {
                detail: format!("{snap_name}: durable open needs an engine snapshot"),
            });
        };

        let mut this = DurableEngine {
            storage,
            snap_name,
            engine,
            opts,
            generation: durability.map(|d| d.generation).unwrap_or(0),
            checkpoint_epoch: durability.map(|d| d.checkpoint_epoch).unwrap_or(0),
            appended_records: 0,
            durable_records: 0,
            appended_bytes: 0,
            wal_len: 0,
            health: Health::Healthy,
            recovery: RecoveryReport::default(),
        };

        let wal_exists = this.storage.exists(&wal_name);
        match (durability, wal_exists) {
            (None, false) => {
                // Plain engine snapshot: bootstrap durability.
                this.recovery.bootstrapped = true;
                this.checkpoint()?;
            }
            (None, true) => {
                return Err(SdError::SnapshotCorrupt {
                    detail: format!(
                        "{} exists but {} carries no durability section; refusing to \
                         guess which is current (run `sdq recover` on a matched pair)",
                        wal_name, this.snap_name
                    ),
                });
            }
            (Some(d), false) => {
                return Err(SdError::SnapshotCorrupt {
                    detail: format!(
                        "{}: durability generation {} expects {}, which is missing — \
                         acknowledged writes may be lost; restore the log or re-create \
                         the store",
                        this.snap_name, d.generation, wal_name
                    ),
                });
            }
            (Some(d), true) => {
                let wal_bytes = this
                    .storage
                    .read(&wal_name)
                    .map_err(|e| io_err(&wal_name, e))?;
                let header = WalHeader::decode(&wal_bytes)?;
                if header.generation > d.generation {
                    return Err(SdError::SnapshotCorrupt {
                        detail: format!(
                            "{wal_name} is generation {} but the snapshot is generation {} \
                             — mismatched files",
                            header.generation, d.generation
                        ),
                    });
                }
                if header.generation < d.generation {
                    // Crash between the checkpoint's snapshot rename and
                    // its WAL rotation: every logged record is already in
                    // the snapshot.
                    this.recovery.stale_wal_reset = true;
                    this.reset_wal()?;
                } else {
                    this.validate_header(&header)?;
                    let rec = wal::recover(&wal_bytes)?;
                    if rec.truncated_bytes > 0 {
                        this.storage
                            .set_len(&wal_name, rec.valid_len)
                            .map_err(|e| io_err(&wal_name, e))?;
                        this.storage
                            .sync_file(&wal_name)
                            .map_err(|e| io_err(&wal_name, e))?;
                    }
                    this.recovery.truncated_bytes = rec.truncated_bytes;
                    this.recovery.replayed_records = rec.records.len() as u64;
                    for record in &rec.records {
                        this.apply(record).map_err(|e| SdError::SnapshotCorrupt {
                            detail: format!("{wal_name}: replay failed: {e}"),
                        })?;
                    }
                    this.engine
                        .metrics()
                        .record_wal_replay(rec.records.len() as u64);
                    this.engine
                        .metrics()
                        .telemetry()
                        .journal
                        .push(EventKind::WalRecovery {
                            replayed: rec.records.len() as u64,
                            truncated_bytes: rec.truncated_bytes,
                        });
                    this.appended_records = rec.records.len() as u64;
                    this.durable_records = this.appended_records;
                    this.appended_bytes = rec.valid_len - wal::WAL_HEADER_BYTES as u64;
                    this.wal_len = rec.valid_len;
                }
            }
        }

        // Leftover temp files from an interrupted checkpoint are garbage.
        for tmp in [
            Self::snap_tmp(&this.snap_name),
            Self::wal_tmp(&this.snap_name),
        ] {
            if this.storage.exists(&tmp) {
                let _ = this.storage.remove(&tmp);
            }
        }
        Ok(this)
    }

    fn validate_header(&self, header: &WalHeader) -> Result<(), SdError> {
        if header.dims as usize != self.engine.dims() {
            return Err(SdError::SnapshotCorrupt {
                detail: format!(
                    "wal names {} dims but the engine has {}",
                    header.dims,
                    self.engine.dims()
                ),
            });
        }
        if header.base_rows != self.engine.total_rows() as u64 {
            return Err(SdError::SnapshotCorrupt {
                detail: format!(
                    "wal base row count {} disagrees with the snapshot's {} addressable rows",
                    header.base_rows,
                    self.engine.total_rows()
                ),
            });
        }
        Ok(())
    }

    fn apply(&mut self, record: &WalRecord) -> Result<(), SdError> {
        match record {
            WalRecord::Insert(row) => {
                self.engine.insert(row)?;
            }
            WalRecord::InsertRows(rows) => {
                self.engine.insert_rows(rows)?;
            }
            // Deletes are idempotent (`Ok(false)` on an already-dead row),
            // which is what makes a stale-generation WAL of pure deletes
            // harmless even before the generation gate existed.
            WalRecord::Delete(id) => {
                self.engine.delete(PointId::new(*id))?;
            }
        }
        Ok(())
    }

    /// `Ok` only when writes may proceed; the typed refusal otherwise.
    fn ensure_writable(&self) -> Result<(), SdError> {
        match &self.health {
            Health::Healthy => Ok(()),
            Health::Degraded { reason } => Err(SdError::EngineDegraded {
                reason: reason.clone(),
            }),
            Health::Poisoned { reason } => Err(SdError::EnginePoisoned {
                reason: reason.clone(),
            }),
        }
    }

    /// Moves the state machine to `to`, journaling the edge and updating
    /// the health gauge. No-op when the label is unchanged (the first
    /// reason to trip a state wins — degraded/poisoned are sticky).
    fn transition(&mut self, to: Health) {
        let from = self.health.label();
        if from == to.label() {
            return;
        }
        let metrics = self.engine.metrics();
        metrics.set_health(to.gauge_code());
        metrics
            .telemetry()
            .journal
            .push(EventKind::HealthTransition {
                from,
                to: to.label(),
            });
        self.health = to;
    }

    /// Healthy → Degraded (read-only); sticky against later failures.
    fn degrade(&mut self, reason: String) {
        if matches!(self.health, Health::Healthy) {
            self.transition(Health::Degraded { reason });
        }
    }

    /// Any state → Poisoned (refusing reads too).
    fn poison(&mut self, reason: String) {
        if !matches!(self.health, Health::Poisoned { .. }) {
            self.transition(Health::Poisoned { reason });
        }
    }

    fn append_record(&mut self, record: &WalRecord) -> Result<(), SdError> {
        let bytes = record.encode();
        let wal_name = Self::wal_name(&self.snap_name);
        let t0 = std::time::Instant::now();
        let metrics = self.engine.metrics().clone();
        let storage = &mut self.storage;
        if let Err(e) = retry_io(&metrics, || storage.append(&wal_name, &bytes)) {
            self.degrade(format!("wal append failed ({e}); the log tail may be torn"));
            return Err(io_err(&wal_name, e));
        }
        self.engine
            .metrics()
            .telemetry()
            .wal_append
            .record(t0.elapsed());
        self.appended_records += 1;
        self.appended_bytes += bytes.len() as u64;
        self.wal_len += bytes.len() as u64;
        self.engine
            .metrics()
            .record_wal_append(1, bytes.len() as u64);
        match self.opts.sync {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::EveryN(n) => {
                if self.appended_records - self.durable_records >= u64::from(n.max(1)) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Forces the WAL to stable storage: after `Ok`, every previously
    /// acknowledged mutation is durable.
    pub fn sync(&mut self) -> Result<(), SdError> {
        if self.durable_records == self.appended_records && matches!(self.health, Health::Healthy) {
            return Ok(());
        }
        self.ensure_writable()?;
        let wal_name = Self::wal_name(&self.snap_name);
        let t0 = std::time::Instant::now();
        // Never retried: after a failed fsync the kernel may already have
        // discarded the dirty pages, so a retry that "succeeds" proves
        // nothing. Degrade and re-checkpoint from memory instead.
        if let Err(e) = self.storage.sync_file(&wal_name) {
            self.degrade(format!(
                "wal fsync failed ({e}); durability of recent writes is unknown"
            ));
            return Err(io_err(&wal_name, e));
        }
        let metrics = self.engine.metrics();
        metrics.telemetry().wal_fsync.record(t0.elapsed());
        self.durable_records = self.appended_records;
        metrics.record_wal_sync();
        Ok(())
    }

    /// Applies an already-logged mutation to the in-memory engine. A
    /// failure here means a durably logged record did not apply — memory
    /// may hold a torn batch, so the engine poisons (validation happens
    /// *before* logging, making this path defensively unreachable).
    fn apply_logged<T>(&mut self, res: Result<T, SdError>) -> Result<T, SdError> {
        if let Err(e) = &res {
            self.poison(format!(
                "a logged mutation failed to apply ({e}); in-memory state may be torn"
            ));
        }
        res
    }

    /// Durably inserts one row; the returned id is assigned exactly as
    /// [`SdEngine::insert`] would.
    pub fn insert(&mut self, row: &[f64]) -> Result<PointId, SdError> {
        self.ensure_writable()?;
        self.validate_row(row)?;
        self.append_record(&WalRecord::Insert(row.to_vec()))?;
        let res = self.engine.insert(row);
        self.apply_logged(res)
    }

    /// Durably inserts a batch as one WAL record (one fsync under
    /// [`SyncPolicy::Always`], however many rows).
    pub fn insert_rows(&mut self, rows: &[Vec<f64>]) -> Result<Vec<PointId>, SdError> {
        self.ensure_writable()?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        for row in rows {
            self.validate_row(row)?;
        }
        self.append_record(&WalRecord::InsertRows(rows.to_vec()))?;
        let res = self.engine.insert_rows(rows);
        self.apply_logged(res)
    }

    /// Durably tombstones a row; `Ok(true)` when newly dead.
    pub fn delete(&mut self, id: PointId) -> Result<bool, SdError> {
        self.ensure_writable()?;
        if id.index() >= self.engine.total_rows() {
            return Err(SdError::UnknownRow {
                row: id.index(),
                rows: self.engine.total_rows(),
            });
        }
        self.append_record(&WalRecord::Delete(id.raw()))?;
        let res = self.engine.delete(id);
        self.apply_logged(res)
    }

    /// Mutations are validated *before* they are logged, so the WAL never
    /// holds a record the engine would reject on replay.
    fn validate_row(&self, row: &[f64]) -> Result<(), SdError> {
        if row.len() != self.engine.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.engine.dims(),
                got: row.len(),
            });
        }
        let id = self.engine.total_rows();
        row.iter()
            .enumerate()
            .try_for_each(|(dim, &value)| sdq_core::check_coordinate(id, dim, value))
    }

    /// Builds the snapshot a checkpoint writes: the engine and the
    /// durability section.
    fn checkpoint_snapshot(&self, generation: u64) -> Snapshot {
        Snapshot {
            engine: Some(self.engine.clone()),
            durability: Some(DurabilityInfo {
                generation,
                checkpoint_epoch: self.engine.epoch(),
            }),
        }
    }

    /// Temp write → fsync → rename → dir fsync. The write and the rename
    /// absorb transient failures with bounded backoff; the two fsyncs are
    /// deliberately *not* retried (see [`Health`]).
    fn atomic_replace(&mut self, tmp: &str, target: &str, bytes: &[u8]) -> Result<(), SdError> {
        let metrics = self.engine.metrics().clone();
        let storage = &mut self.storage;
        retry_io(&metrics, || storage.write_file(tmp, bytes)).map_err(|e| io_err(tmp, e))?;
        storage.sync_file(tmp).map_err(|e| io_err(tmp, e))?;
        retry_io(&metrics, || storage.rename(tmp, target)).map_err(|e| io_err(target, e))?;
        storage.sync_dir().map_err(|e| io_err(target, e))?;
        Ok(())
    }

    /// Starts a fresh WAL for the current generation (atomically, via
    /// temp + rename, so the log never has a torn header).
    fn reset_wal(&mut self) -> Result<(), SdError> {
        let header = WalHeader {
            dims: self.engine.dims() as u32,
            generation: self.generation,
            base_rows: self.engine.total_rows() as u64,
        };
        let bytes = header.encode();
        self.atomic_replace(
            &Self::wal_tmp(&self.snap_name),
            &Self::wal_name(&self.snap_name),
            &bytes,
        )?;
        self.appended_records = 0;
        self.durable_records = 0;
        self.appended_bytes = 0;
        self.wal_len = bytes.len() as u64;
        self.engine
            .metrics()
            .telemetry()
            .journal
            .push(EventKind::WalRotation {
                generation: self.generation,
            });
        Ok(())
    }

    /// Folds the WAL into a new snapshot and rotates the log: temp
    /// snapshot → fsync → rename → dir fsync, then the same for a fresh
    /// WAL one generation up. Recovers a poisoned engine (the rewritten
    /// pair supersedes whatever was wrong on disk).
    pub fn checkpoint(&mut self) -> Result<(), SdError> {
        if let Health::Poisoned { reason } = &self.health {
            // Memory itself is untrustworthy; checkpointing it would
            // persist the damage.
            return Err(SdError::EnginePoisoned {
                reason: reason.clone(),
            });
        }
        let t0 = std::time::Instant::now();
        let generation = self.generation + 1;
        // The rewritten file is what a serving process reopens, and
        // `open_mapped` makes that O(1).
        let bytes = self.checkpoint_snapshot(generation).to_bytes_v5()?;
        let snap_name = self.snap_name.clone();
        if let Err(e) = self.atomic_replace(&Self::snap_tmp(&snap_name), &snap_name, &bytes) {
            self.degrade(format!("checkpoint write failed ({e})"));
            return Err(e);
        }
        // The snapshot is durable at the new generation; until the WAL
        // rotates too, the old log is stale (open() discards it by the
        // generation gate). A failure past this point therefore degrades:
        // in-memory appends would land in a log recovery ignores.
        self.generation = generation;
        self.checkpoint_epoch = self.engine.epoch();
        if let Err(e) = self.reset_wal() {
            self.degrade(format!(
                "wal rotation failed after the snapshot rename ({e})"
            ));
            return Err(e);
        }
        self.transition(Health::Healthy);
        let metrics = self.engine.metrics();
        metrics.record_wal_checkpoint();
        let tel = metrics.telemetry();
        tel.checkpoint.record(t0.elapsed());
        tel.journal.push(EventKind::Checkpoint {
            generation,
            epoch: self.checkpoint_epoch,
        });
        Ok(())
    }

    /// Compacts the engine and checkpoints. Compaction renumbers rows, so
    /// the checkpoint is not optional — a failure poisons the engine
    /// rather than letting new WAL records reference renumbered ids.
    pub fn compact_with(
        &mut self,
        options: &CompactionOptions,
    ) -> Result<CompactionReport, SdError> {
        self.ensure_writable()?;
        let report = self.engine.compact_with(options)?;
        // A checkpoint failure here leaves memory compacted (renumbered
        // ids) ahead of disk: reads stay correct, writes are refused, and
        // `try_recover` re-checkpoints — `checkpoint()` already degraded.
        self.checkpoint()?;
        Ok(report)
    }

    /// [`Self::compact_with`] under default options.
    pub fn compact(&mut self) -> Result<CompactionReport, SdError> {
        self.compact_with(&CompactionOptions::default())
    }

    /// Answers a query from the in-memory engine (acknowledged writes are
    /// immediately visible). Served in `Healthy` *and* `Degraded` states —
    /// degraded mode is read-only, not read-refusing — but refused when
    /// `Poisoned` (memory may hold a torn batch).
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        if let Health::Poisoned { reason } = &self.health {
            return Err(SdError::EnginePoisoned {
                reason: reason.clone(),
            });
        }
        self.engine.query(query, k)
    }

    /// The current health state.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Explicit recovery from degraded mode: re-checkpoints the in-memory
    /// engine (which still holds exactly the acknowledged prefix) into
    /// fresh snapshot + WAL files, superseding whatever was questionable
    /// on disk. Returns `Ok(true)` when a recovery checkpoint ran,
    /// `Ok(false)` when the engine was already healthy, and an error when
    /// recovery is impossible (`Poisoned`) or the checkpoint itself failed
    /// (the engine stays degraded and `try_recover` can be called again).
    pub fn try_recover(&mut self) -> Result<bool, SdError> {
        match &self.health {
            Health::Healthy => Ok(false),
            Health::Poisoned { reason } => Err(SdError::EnginePoisoned {
                reason: reason.clone(),
            }),
            Health::Degraded { .. } => {
                self.checkpoint()?;
                Ok(true)
            }
        }
    }

    /// The wrapped engine (read-only — mutations must go through the WAL).
    pub fn engine(&self) -> &SdEngine {
        &self.engine
    }

    /// What [`Self::open`] recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Records confirmed durable by an fsync.
    pub fn durable_records(&self) -> u64 {
        self.durable_records
    }

    /// Current durability counters.
    pub fn wal_status(&self) -> WalStatus {
        WalStatus {
            records: self.appended_records,
            durable_records: self.durable_records,
            pending_bytes: self.appended_bytes,
            wal_bytes: self.wal_len,
            generation: self.generation,
            last_checkpoint_epoch: self.checkpoint_epoch,
        }
    }

    /// The underlying storage (fault-injection tests inspect it).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Mutable access to the underlying storage (fault-injection tests and
    /// the chaos harness script failpoints mid-run).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consumes the engine, returning the storage.
    pub fn into_storage(self) -> S {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{Fault, FaultScript, MemStorage};
    use sdq_core::Dataset;
    use sdq_engine::EngineOptions;

    fn sample_engine() -> SdEngine {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.9).cos(), 5.0 - x * 0.4]
            })
            .collect();
        let data = Dataset::from_rows(2, &rows).unwrap();
        let roles = crate::parse_roles("ar").unwrap();
        SdEngine::build_with(
            data,
            &roles,
            &EngineOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn probe() -> SdQuery {
        SdQuery::uniform_weights(vec![0.3, 2.0], &crate::parse_roles("ar").unwrap())
    }

    #[test]
    fn create_append_reopen_replays() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        let id = d.insert(&[0.1, 0.2]).unwrap();
        assert_eq!(id.index(), 20);
        d.insert_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        assert!(d.delete(PointId::new(3)).unwrap());
        assert_eq!(d.wal_status().records, 3);
        assert_eq!(d.durable_records(), 3, "Always policy acks durably");

        let want = d.query(&probe(), 6).unwrap();
        let storage = d.into_storage();
        let back = DurableEngine::open(storage, "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(back.recovery().replayed_records, 3);
        assert_eq!(back.recovery().truncated_bytes, 0);
        assert_eq!(back.engine().total_rows(), 23);
        assert_eq!(back.query(&probe(), 6).unwrap(), want, "bit-identical");
    }

    #[test]
    fn checkpoint_rotates_and_reopen_is_identical() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.5, 0.5]).unwrap();
        d.delete(PointId::new(1)).unwrap();
        let gen_before = d.wal_status().generation;
        d.checkpoint().unwrap();
        let status = d.wal_status();
        assert_eq!(status.generation, gen_before + 1);
        assert_eq!(status.records, 0, "checkpoint folds the log");
        assert_eq!(status.pending_bytes, 0);

        let want = d.query(&probe(), 5).unwrap();
        let back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(back.recovery().replayed_records, 0);
        assert!(!back.recovery().stale_wal_reset);
        assert_eq!(back.query(&probe(), 5).unwrap(), want);
    }

    #[test]
    fn compact_checkpoints_and_survives_reopen() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.5, 0.5]).unwrap();
        d.delete(PointId::new(0)).unwrap();
        let report = d.compact().unwrap();
        assert!(report.merged_delta_rows > 0);
        assert!(!d.engine().has_mutations());
        let want = d.query(&probe(), 5).unwrap();
        let back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(back.query(&probe(), 5).unwrap(), want);
    }

    #[test]
    fn pairing_survives_compact_checkpoint_and_recover() {
        use sdq_core::multidim::{DimPair, PairingStrategy, SdIndexOptions};
        // Roles `arra` over rows where dim 2 follows dim 0 (tightly) and
        // dim 1 follows dim 3 (loosely): correlation-aware pairing crosses
        // what arbitrary pairing would take in dimension order.
        let row = |i: usize| {
            let (t, u) = ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos());
            vec![t, u + 0.2 * t, t - 1e-3 * u, u]
        };
        let rows: Vec<Vec<f64>> = (0..200).map(row).collect();
        let engine = SdEngine::build_with(
            Dataset::from_rows(4, &rows).unwrap(),
            &crate::parse_roles("arra").unwrap(),
            &EngineOptions {
                shards: 2,
                index: SdIndexOptions {
                    pairing: PairingStrategy::CorrelationAware,
                    ..SdIndexOptions::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let pairs_of = |e: &SdEngine| -> Vec<Vec<DimPair>> {
            e.shards().iter().map(|s| s.pairs().to_vec()).collect()
        };
        let crossed = vec![
            DimPair {
                repulsive: 2,
                attractive: 0,
            },
            DimPair {
                repulsive: 1,
                attractive: 3,
            },
        ];
        let built = pairs_of(&engine);
        assert_eq!(built, [crossed.clone(), crossed]);

        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            engine,
            DurableOptions::default(),
        )
        .unwrap();
        // A compaction (which checkpoints) rebuilds every touched shard.
        d.insert_rows(&(200..230).map(row).collect::<Vec<_>>())
            .unwrap();
        d.delete(PointId::new(5)).unwrap();
        d.compact().unwrap();
        assert_eq!(pairs_of(d.engine()), built);
        // A plain checkpoint, then a tail left in the log for recovery.
        d.delete(PointId::new(150)).unwrap();
        d.checkpoint().unwrap();
        d.insert_rows(&(230..250).map(row).collect::<Vec<_>>())
            .unwrap();
        let mut back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert!(back.recovery().replayed_records > 0);
        assert_eq!(pairs_of(back.engine()), built);
        // And the reopened store still compacts the way it was built.
        back.compact().unwrap();
        assert_eq!(pairs_of(back.engine()), built);
    }

    #[test]
    fn group_commit_acks_at_the_batch_boundary() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions {
                sync: SyncPolicy::EveryN(3),
            },
        )
        .unwrap();
        d.insert(&[0.1, 0.1]).unwrap();
        d.insert(&[0.2, 0.2]).unwrap();
        assert_eq!(d.durable_records(), 0, "pending in the OS buffer");
        d.insert(&[0.3, 0.3]).unwrap();
        assert_eq!(
            d.durable_records(),
            3,
            "third record triggers the group fsync"
        );
        d.insert(&[0.4, 0.4]).unwrap();
        assert_eq!(d.durable_records(), 3);
        d.sync().unwrap();
        assert_eq!(d.durable_records(), 4, "explicit sync drains the group");
    }

    #[test]
    fn torn_append_poisons_until_checkpoint() {
        let mut storage = MemStorage::new();
        // Creation consumes a deterministic number of points; script the
        // tear far enough ahead to hit the second insert's append.
        let d = DurableEngine::create(
            storage.clone(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        let insert_append_point = d.storage().io_points(); // next op = first append
        storage.set_script({
            let mut s = FaultScript::none();
            s.push(Fault::Torn {
                at: insert_append_point + 2, // first insert: append + fsync
                keep: 3,
            });
            s
        });
        let mut d = DurableEngine::create(
            storage,
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.1, 0.1]).unwrap();
        let err = d.insert(&[0.2, 0.2]).unwrap_err();
        assert!(matches!(err, SdError::SnapshotIo(_)), "got {err:?}");
        // Degraded: read-only until recovery.
        assert!(matches!(d.health(), Health::Degraded { .. }));
        assert!(matches!(
            d.insert(&[0.3, 0.3]).unwrap_err(),
            SdError::EngineDegraded { .. }
        ));
        assert_eq!(d.query(&probe(), 3).unwrap().len(), 3, "reads still serve");
        // Reopen: the torn tail is truncated, the acknowledged insert
        // survives.
        let back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(back.recovery().replayed_records, 1);
        assert!(back.recovery().truncated_bytes > 0);
        assert_eq!(back.engine().total_rows(), 21);
    }

    #[test]
    fn checkpoint_recovers_a_poisoned_engine() {
        let mut storage = MemStorage::new();
        let d = DurableEngine::create(
            storage.clone(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        let next = d.storage().io_points();
        storage.set_script({
            let mut s = FaultScript::none();
            s.push(Fault::Fail { at: next + 1 }); // first insert's fsync
            s
        });
        let mut d = DurableEngine::create(
            storage,
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        let err = d.insert(&[0.1, 0.1]).unwrap_err();
        assert!(matches!(err, SdError::SnapshotIo(_)));
        assert!(
            matches!(
                d.insert(&[0.2, 0.2]).unwrap_err(),
                SdError::EngineDegraded { .. }
            ),
            "degraded"
        );
        // The failed insert was logged but never applied (append-first
        // ordering) and never acknowledged. Checkpoint persists the
        // in-memory truth — without that phantom row — and rotates past
        // the questionable log, returning to healthy.
        assert!(d.try_recover().unwrap(), "recovery checkpoint ran");
        assert_eq!(*d.health(), Health::Healthy);
        d.insert(&[0.2, 0.2]).unwrap();
        let back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(back.engine().total_rows(), 21);
    }

    /// Creates a store, then re-creates it with `script` installed so the
    /// failpoint clock is positioned at the first post-create operation
    /// (the next insert's WAL append).
    fn scripted_engine(make: impl Fn(u64) -> FaultScript) -> DurableEngine<MemStorage> {
        let mut storage = MemStorage::new();
        let d = DurableEngine::create(
            storage.clone(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        storage.set_script(make(d.storage().io_points()));
        DurableEngine::create(
            storage,
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn transient_append_failures_are_absorbed_by_retries() {
        let mut d = scripted_engine(|next| FaultScript::transient_at(next, 2));
        d.insert(&[0.1, 0.1]).unwrap();
        assert_eq!(*d.health(), Health::Healthy);
        assert_eq!(
            d.engine().metrics().snapshot().retries_attempted,
            2,
            "two transient failures, two counted retries"
        );
        assert_eq!(d.engine().total_rows(), 21);
    }

    #[test]
    fn exhausted_retry_budget_degrades_and_recovers() {
        let mut d = scripted_engine(|next| FaultScript::transient_at(next, RETRY_BUDGET + 1));
        let err = d.insert(&[0.1, 0.1]).unwrap_err();
        assert!(matches!(err, SdError::SnapshotIo(_)), "got {err:?}");
        assert!(matches!(d.health(), Health::Degraded { .. }));
        assert_eq!(d.query(&probe(), 3).unwrap().len(), 3, "reads still serve");
        assert!(d.try_recover().unwrap(), "recovery checkpoint ran");
        assert_eq!(*d.health(), Health::Healthy);
        d.insert(&[0.1, 0.1]).unwrap();
        assert_eq!(
            d.engine().total_rows(),
            21,
            "the failed insert never applied"
        );
    }

    #[test]
    fn permanent_errno_is_not_retried() {
        let mut d = scripted_engine(|next| FaultScript::errno_at(next, 28)); // ENOSPC
        let before = d.storage().ops_attempted();
        let err = d.insert(&[0.1, 0.1]).unwrap_err();
        assert!(matches!(err, SdError::SnapshotIo(_)), "got {err:?}");
        assert_eq!(
            d.storage().ops_attempted() - before,
            1,
            "ENOSPC must surface on the first attempt, not hammer the disk"
        );
        assert_eq!(d.engine().metrics().snapshot().retries_attempted, 0);
        assert!(matches!(d.health(), Health::Degraded { .. }));
        assert!(d.try_recover().unwrap());
        assert_eq!(*d.health(), Health::Healthy);
    }

    #[test]
    fn failed_fsync_is_never_retried() {
        // The fsync after the first insert's append fails once with a
        // *transient*-shaped error; were fsync retried, the next attempt
        // would succeed and the insert would be acknowledged. It must not
        // be: a failed fsync means the page-cache state is unknowable.
        let mut d = scripted_engine(|next| FaultScript::transient_at(next + 1, 1));
        let before = d.storage().ops_attempted();
        let err = d.insert(&[0.1, 0.1]).unwrap_err();
        assert!(matches!(err, SdError::SnapshotIo(_)), "got {err:?}");
        assert_eq!(
            d.storage().ops_attempted() - before,
            2,
            "one append + exactly one fsync attempt"
        );
        assert!(matches!(d.health(), Health::Degraded { .. }));
        // Recovery re-checkpoints from memory to fresh files instead.
        assert!(d.try_recover().unwrap());
        let back =
            DurableEngine::open(d.into_storage(), "idx.sdq", DurableOptions::default()).unwrap();
        assert_eq!(
            back.engine().total_rows(),
            20,
            "unacked insert not resurrected"
        );
    }

    #[test]
    fn stale_wal_after_interrupted_rotation_is_discarded() {
        // Crash exactly between the checkpoint's snapshot rename and its
        // WAL rotation: the new snapshot already holds the logged insert;
        // replaying the stale log would double-apply it.
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.1, 0.2]).unwrap();
        let base = d.storage().io_points();
        let mut found_stale = false;
        // The checkpoint performs 8 storage ops (2 × write/sync/rename/
        // sync_dir); crash at each and reopen.
        for crash in base..base + 8 {
            let mut storage = d.storage().clone();
            storage.set_script(FaultScript::crash_at(crash));
            let mut victim = DurableEngine {
                storage,
                snap_name: d.snap_name.clone(),
                engine: d.engine.clone(),
                opts: d.opts,
                generation: d.generation,
                checkpoint_epoch: d.checkpoint_epoch,
                appended_records: d.appended_records,
                durable_records: d.durable_records,
                appended_bytes: d.appended_bytes,
                wal_len: d.wal_len,
                health: Health::Healthy,
                recovery: RecoveryReport::default(),
            };
            assert!(victim.checkpoint().is_err(), "crash point {crash}");
            let image = victim.into_storage().crash_image();
            let back = DurableEngine::open(image, "idx.sdq", DurableOptions::default())
                .unwrap_or_else(|e| panic!("crash point {crash}: reopen failed: {e}"));
            assert_eq!(
                back.engine().total_rows(),
                21,
                "crash point {crash}: exactly one insert, never double-applied"
            );
            found_stale |= back.recovery().stale_wal_reset;
        }
        assert!(
            found_stale,
            "some crash point must land between the two renames"
        );
    }

    #[test]
    fn mismatched_wal_generation_is_typed() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.1, 0.2]).unwrap();
        let mut storage = d.into_storage();
        // Forge a future-generation WAL header.
        let bytes = WalHeader {
            dims: 2,
            generation: 99,
            base_rows: 20,
        }
        .encode();
        storage.write_file("idx.sdq.wal", &bytes).unwrap();
        let err = DurableEngine::open(storage, "idx.sdq", DurableOptions::default()).unwrap_err();
        assert!(
            matches!(err, SdError::SnapshotCorrupt { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn missing_wal_for_durable_snapshot_is_typed() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[0.1, 0.2]).unwrap();
        let mut storage = d.into_storage();
        storage.remove("idx.sdq.wal").unwrap();
        let err = DurableEngine::open(storage, "idx.sdq", DurableOptions::default()).unwrap_err();
        assert!(
            matches!(err, SdError::SnapshotCorrupt { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn invalid_rows_are_rejected_before_logging() {
        let mut d = DurableEngine::create(
            MemStorage::new(),
            "idx.sdq",
            sample_engine(),
            DurableOptions::default(),
        )
        .unwrap();
        assert!(matches!(
            d.insert(&[1.0]).unwrap_err(),
            SdError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            d.insert(&[1.0, f64::NAN]).unwrap_err(),
            SdError::NonFiniteCoordinate { .. }
        ));
        assert!(matches!(
            d.delete(PointId::new(10_000)).unwrap_err(),
            SdError::UnknownRow { .. }
        ));
        assert_eq!(d.wal_status().records, 0, "nothing was logged");
    }
}
