//! Proactive integrity scrubbing: walk every CRC-protected region of a
//! snapshot (and its WAL sidecar), report what fails, and — in repair
//! mode — restore a servable state without guessing.
//!
//! A scrub is the offline complement of the lazy per-region verification
//! queries perform ([`sdq_core::SectionIntegrity::ensure`]): it forces
//! every region, including ones no query has touched, so silent media
//! decay is found before a query trips over it.
//!
//! Repair is deliberately conservative — it only performs actions whose
//! correctness follows from the durability contract:
//!
//! * a **torn WAL tail** is truncated to the last intact record (exactly
//!   what [`DurableEngine::open`](crate::DurableEngine::open) would do);
//! * a **corrupt snapshot** beside a fully-valid higher-generation
//!   `NAME.tmp` (an interrupted checkpoint whose rename never happened)
//!   is replaced by promoting the temp file;
//! * anything still failing is **quarantined** — renamed to
//!   `<name>.quarantined` so the bytes survive for forensics — and
//!   reported; acknowledged writes may be lost, which the report says
//!   out loud rather than papering over.

use std::path::{Path, PathBuf};

use sdq_core::{CrcState, SdError};

use crate::io::fsync_parent_dir;
use crate::{wal, Snapshot};

/// What one region scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionFinding {
    /// Region name (`engine-shard0/pair0/blocks.xs`, `wal`, `snapshot`).
    pub name: String,
    /// Byte offset inside its file (0 for whole-file findings).
    pub offset: u64,
    /// Region length in bytes.
    pub len: u64,
    /// What failed.
    pub detail: String,
}

/// The outcome of [`scrub_path`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// CRC regions that verified clean (snapshot regions + the WAL's
    /// intact records counted as one region).
    pub regions_ok: u64,
    /// Regions that failed verification.
    pub regions_failed: u64,
    /// Every failed region, with detail.
    pub failures: Vec<RegionFinding>,
    /// Container version of the snapshot, when its header parsed.
    pub snapshot_version: Option<u32>,
    /// Intact WAL records found (before any torn tail).
    pub wal_records: u64,
    /// Torn-tail bytes found past the last intact WAL record.
    pub wal_torn_bytes: u64,
    /// Repair actions performed (repair mode only), in order.
    pub repaired: Vec<String>,
    /// Files renamed aside as `<name>.quarantined` (repair mode only).
    pub quarantined: Vec<String>,
    /// `true` when a repair action may have dropped acknowledged writes
    /// (a quarantined WAL); torn-tail truncation of *unacknowledged*
    /// bytes does not set this.
    pub data_loss_possible: bool,
}

impl ScrubReport {
    /// `true` when every scanned region verified and nothing had to be
    /// quarantined.
    pub fn clean(&self) -> bool {
        self.regions_failed == 0 && self.quarantined.is_empty()
    }
}

fn fail(report: &mut ScrubReport, name: &str, offset: u64, len: u64, detail: String) {
    report.regions_failed += 1;
    report.failures.push(RegionFinding {
        name: name.to_string(),
        offset,
        len,
        detail,
    });
}

/// Forces verification of every framed region of one snapshot file,
/// folding the results into `report` under `label`.
fn scan_snapshot(path: &Path, label: &str, report: &mut ScrubReport) -> bool {
    match Snapshot::open_mapped(path) {
        Ok(mapped) => {
            report.snapshot_version = Some(crate::FORMAT_VERSION);
            let mut ok = true;
            for region in mapped.regions() {
                match region.ensure() {
                    Ok(()) => report.regions_ok += 1,
                    Err(e) => {
                        debug_assert_eq!(region.state(), CrcState::Failed);
                        ok = false;
                        fail(
                            report,
                            &format!("{label}:{}", region.name()),
                            region.file_offset(),
                            region.len(),
                            e.to_string(),
                        );
                    }
                }
            }
            ok
        }
        Err(e) => {
            fail(report, label, 0, 0, e.to_string());
            false
        }
    }
}

/// Quarantines `path` by renaming it to `<path>.quarantined`.
fn quarantine(path: &Path, report: &mut ScrubReport) -> Result<(), SdError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantined");
    let target = path.with_file_name(name);
    std::fs::rename(path, &target)
        .and_then(|()| fsync_parent_dir(&target))
        .map_err(|e| SdError::SnapshotIo(format!("{}: quarantine failed: {e}", path.display())))?;
    report.quarantined.push(target.display().to_string());
    Ok(())
}

/// Scrubs the snapshot at `path` and its `.wal` sidecar: every CRC region
/// is force-verified and the findings reported. With `repair`, the
/// recoverable defects are fixed in place (torn-tail truncation, temp-file
/// promotion) and unrecoverable files are quarantined; without it, the
/// scan is strictly read-only.
pub fn scrub_path(path: impl AsRef<Path>, repair: bool) -> Result<ScrubReport, SdError> {
    let path = path.as_ref();
    let mut report = ScrubReport::default();
    if !path.is_file() {
        return Err(SdError::SnapshotIo(format!(
            "{}: not found",
            path.display()
        )));
    }

    let mut snapshot_ok = scan_snapshot(path, "snapshot", &mut report);

    // An interrupted checkpoint can leave a fully-written `NAME.tmp` whose
    // rename never happened. When the main snapshot is corrupt, a valid
    // higher-generation temp file is the *newer* durable state — promote
    // it (the then-stale WAL is discarded by the generation gate on open).
    let tmp: PathBuf = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    if !snapshot_ok && repair && tmp.is_file() {
        let mut tmp_report = ScrubReport::default();
        if scan_snapshot(&tmp, "snapshot.tmp", &mut tmp_report) {
            let newer = match (
                Snapshot::open_mapped(&tmp)
                    .ok()
                    .and_then(|m| m.snapshot.durability),
                Snapshot::open_mapped(path)
                    .ok()
                    .and_then(|m| m.snapshot.durability),
            ) {
                (Some(t), Some(s)) => t.generation > s.generation,
                // The main snapshot does not even parse far enough to
                // compare generations; the verified temp wins.
                (Some(_), None) => true,
                _ => false,
            };
            if newer {
                quarantine(path, &mut report)?;
                std::fs::rename(&tmp, path)
                    .and_then(|()| fsync_parent_dir(path))
                    .map_err(|e| {
                        SdError::SnapshotIo(format!("{}: promote failed: {e}", tmp.display()))
                    })?;
                report.repaired.push(format!(
                    "promoted {} over the corrupt snapshot",
                    tmp.display()
                ));
                // Re-scan the promoted file so the totals describe the
                // repaired state.
                report.regions_ok += tmp_report.regions_ok;
                snapshot_ok = true;
            }
        }
    }
    if !snapshot_ok && repair {
        // No valid replacement: set the corrupt snapshot aside so serving
        // never trusts it. Its WAL (if any) is kept for forensics too.
        if path.is_file() {
            quarantine(path, &mut report)?;
            report.data_loss_possible = true;
        }
    }

    // The WAL sidecar: the header is CRC'd, every record is CRC'd, and a
    // torn tail (a crash mid-append) is the one defect that is *expected*
    // and safely repairable by truncation.
    let wal_path: PathBuf = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".wal");
        path.with_file_name(name)
    };
    if wal_path.is_file() {
        let bytes = std::fs::read(&wal_path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", wal_path.display())))?;
        match wal::recover(&bytes) {
            Ok(rec) => {
                report.regions_ok += 1;
                report.wal_records = rec.records.len() as u64;
                report.wal_torn_bytes = rec.truncated_bytes;
                if rec.truncated_bytes > 0 {
                    if repair {
                        let file = std::fs::OpenOptions::new()
                            .write(true)
                            .open(&wal_path)
                            .map_err(|e| {
                                SdError::SnapshotIo(format!("{}: {e}", wal_path.display()))
                            })?;
                        file.set_len(rec.valid_len)
                            .and_then(|()| file.sync_all())
                            .map_err(|e| {
                                SdError::SnapshotIo(format!("{}: {e}", wal_path.display()))
                            })?;
                        report.repaired.push(format!(
                            "truncated {} torn byte(s) off {}",
                            rec.truncated_bytes,
                            wal_path.display()
                        ));
                    } else {
                        fail(
                            &mut report,
                            "wal",
                            rec.valid_len,
                            rec.truncated_bytes,
                            format!(
                                "torn tail: {} byte(s) past the last intact record",
                                rec.truncated_bytes
                            ),
                        );
                    }
                }
            }
            Err(e) => {
                // Header or mid-log corruption: replay is impossible and
                // acknowledged writes since the last checkpoint may be in
                // there. Never silently dropped — quarantined, loudly.
                fail(&mut report, "wal", 0, bytes.len() as u64, e.to_string());
                if repair {
                    quarantine(&wal_path, &mut report)?;
                    report.data_loss_possible = true;
                    report.repaired.push(format!(
                        "quarantined unreadable {} (snapshot generation still serves; \
                         post-checkpoint writes may be lost)",
                        wal_path.display()
                    ));
                }
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableEngine, DurableOptions};
    use crate::io::DiskStorage;
    use sdq_core::Dataset;
    use sdq_engine::SdEngine;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sdq-scrub-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_pair(dir: &Path) -> PathBuf {
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let data = Dataset::from_rows(2, &rows).unwrap();
        let engine = SdEngine::build(data, &crate::parse_roles("ar").unwrap()).unwrap();
        let mut d = DurableEngine::create(
            DiskStorage::new(dir).unwrap(),
            "idx.sdq",
            engine,
            DurableOptions::default(),
        )
        .unwrap();
        d.insert(&[1.5, 2.5]).unwrap();
        d.insert(&[0.5, 3.5]).unwrap();
        dir.join("idx.sdq")
    }

    #[test]
    fn clean_pair_scrubs_clean() {
        let dir = temp_dir("clean");
        let snap = durable_pair(&dir);
        let report = scrub_path(&snap, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert!(report.regions_ok > 1);
        assert_eq!(report.wal_records, 2);
        assert_eq!(report.snapshot_version, Some(crate::FORMAT_VERSION));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_snapshot_byte_is_found_and_quarantined() {
        let dir = temp_dir("flip");
        let snap = durable_pair(&dir);
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0x40; // inside the last framed region's payload
        std::fs::write(&snap, &bytes).unwrap();

        let report = scrub_path(&snap, false).unwrap();
        assert!(!report.clean());
        assert!(report.regions_failed >= 1, "{report:?}");
        assert!(snap.is_file(), "read-only scrub must not move files");

        let report = scrub_path(&snap, true).unwrap();
        assert!(!report.quarantined.is_empty(), "{report:?}");
        assert!(report.data_loss_possible);
        assert!(!snap.is_file(), "corrupt snapshot set aside");
        assert!(dir.join("idx.sdq.quarantined").is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_reported_then_truncated() {
        let dir = temp_dir("torn");
        let snap = durable_pair(&dir);
        let wal = dir.join("idx.sdq.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0xAB; 17]);
        std::fs::write(&wal, &bytes).unwrap();

        let report = scrub_path(&snap, false).unwrap();
        assert_eq!(report.wal_torn_bytes, 17);
        assert!(!report.clean());

        let report = scrub_path(&snap, true).unwrap();
        assert_eq!(report.repaired.len(), 1, "{report:?}");
        assert!(!report.data_loss_possible, "torn tail is unacked bytes");
        assert_eq!(std::fs::read(&wal).unwrap().len(), intact);
        // The repaired pair reopens and replays both acked writes.
        let back = DurableEngine::open(
            DiskStorage::new(&dir).unwrap(),
            "idx.sdq",
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(back.engine().total_rows(), 34);
        // And a follow-up scrub is clean.
        assert!(scrub_path(&snap, false).unwrap().clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn valid_tmp_is_promoted_over_corrupt_snapshot() {
        let dir = temp_dir("promote");
        let snap = durable_pair(&dir);
        // Simulate a checkpoint interrupted between its fsync'd temp write
        // and the rename: copy the (valid, newer-generation) snapshot to
        // NAME.tmp, then corrupt the main file.
        let good = std::fs::read(&snap).unwrap();
        let tmp = dir.join("idx.sdq.tmp");
        std::fs::write(&tmp, &good).unwrap();
        let mut bad = good.clone();
        let n = bad.len();
        bad[n / 2] ^= 0xFF;
        bad[n - 9] ^= 0x40;
        std::fs::write(&snap, &bad).unwrap();

        let report = scrub_path(&snap, true).unwrap();
        assert!(
            report.repaired.iter().any(|r| r.contains("promoted")),
            "{report:?}"
        );
        assert_eq!(std::fs::read(&snap).unwrap(), good);
        assert!(dir.join("idx.sdq.quarantined").is_file());
        assert!(!tmp.is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
