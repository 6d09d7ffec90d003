//! Files of the retired shard layout (section kind 12) are refused by name.
//!
//! Its shards recorded a pairing strategy, its pairs and every unpaired
//! dimension's `(lo, hi)` range in `index.meta`, none of which a query
//! reads. The three checked-in files are of its older forms, which its
//! readers still decoded: `aaarr-` and `arrr-sorted-columns.sdq` (one sorted
//! column per unpaired dimension, rows in id order) and
//! `arra-pair-regions.sdq` (every pair's block set in an aggregating shard).
//! Every reader refuses each of them with a typed error naming the kind —
//! never a partial answer, never a panic — and `sdq inspect` still lists
//! the section table, the kind by its retired name.

use std::path::{Path, PathBuf};
use std::process::Command;

use sdq_core::SdError;
use sdq_store::{DiskStorage, DurableEngine, DurableOptions, Snapshot};

const FIXTURES: [&str; 3] = [
    "aaarr-sorted-columns.sdq",
    "arrr-sorted-columns.sdq",
    "arra-pair-regions.sdq",
];

const REFUSAL: &str = "section kind 12 (engine-shard) was retired";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// `result` is the retired-kind refusal.
fn assert_refused<T: std::fmt::Debug>(result: Result<T, SdError>, at: &str) {
    match result {
        Err(SdError::SnapshotCorrupt { detail }) => {
            assert!(detail.contains(REFUSAL), "{at}: {detail}")
        }
        other => panic!("{at}: not refused by name: {other:?}"),
    }
}

#[test]
fn old_shard_files_are_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("sdq-old-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in FIXTURES {
        let path = fixture(name);
        assert_refused(Snapshot::load(&path).map(|_| ()), &format!("{name} load"));
        assert_refused(
            Snapshot::open_mapped(&path).map(|_| ()),
            &format!("{name} open_mapped"),
        );
        // A durable open of a copy: refused before any WAL is bootstrapped.
        std::fs::copy(&path, dir.join(name)).unwrap();
        let storage = DiskStorage::new(&dir).unwrap();
        assert_refused(
            DurableEngine::open(storage, name, DurableOptions::default()).map(|_| ()),
            &format!("{name} DurableEngine::open"),
        );

        // The table is listed, the shards by their retired name, then the
        // refusal (exit 1).
        let info = Snapshot::inspect_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert!(info.sections.iter().any(|s| s.raw_kind == 12), "{name}");
        let out = Command::new(env!("CARGO_BIN_EXE_sdq"))
            .arg("inspect")
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("<retired: engine-shard>"),
            "{name}: {stdout}"
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(REFUSAL), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
