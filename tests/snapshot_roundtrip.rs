//! Property tests for the persistence subsystem: `save → load → query` must
//! be *bit-identical* to the in-memory index for arbitrary finite inputs,
//! and corrupt containers must surface typed errors, never panics.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::core::integrity::crc32c;
use sdq::core::multidim::SdIndex;
use sdq::engine::{EngineOptions, SdEngine};
use sdq::paper::topk::TopKIndex;
use sdq::store::{
    wal, DiskStorage, DurabilityInfo, DurableEngine, DurableOptions, MappedBytes, Snapshot,
    FORMAT_VERSION, MAGIC,
};
use sdq::{Dataset, DimRole, SdError, SdQuery};

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -100.0..100.0f64,
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(-1.0),
        1 => -1e6..1e6f64,
    ]
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![4 => 0.0..10.0f64, 1 => Just(0.0), 1 => Just(1.0)]
}

/// A snapshot error must be one of the typed snapshot variants.
fn assert_snapshot_error(err: &SdError) {
    assert!(
        matches!(
            err,
            SdError::SnapshotBadMagic
                | SdError::SnapshotVersion { .. }
                | SdError::SnapshotChecksum { .. }
                | SdError::SnapshotCorrupt { .. }
                | SdError::SnapshotIo(_)
        ),
        "unexpected error class: {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topk_snapshot_queries_bit_identical(
        pts in vec((coord(), coord()), 1..80),
        qx in coord(), qy in coord(),
        alpha in weight(), beta in weight(),
        k in 1usize..8,
        shards in prop_oneof![Just(1usize), Just(3)],
    ) {
        prop_assume!(alpha > 0.0 || beta > 0.0);
        // The paper's per-point §4 tree against the stored one: the same
        // points as a 2-D engine (x attractive, y repulsive) of one or three
        // shards, saved and loaded back, whose single-pair query is the §4
        // walk over every shard's block set at once.
        let index = TopKIndex::build(&pts).unwrap();
        let rows: Vec<Vec<f64>> = pts.iter().map(|&(x, y)| vec![x, y]).collect();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let options = EngineOptions { shards, ..EngineOptions::default() };
        let mut snap = Snapshot::new();
        snap.engine = Some(
            SdEngine::build_with(Dataset::from_rows(2, &rows).unwrap(), &roles, &options).unwrap(),
        );
        let back = Snapshot::from_bytes(&snap.to_bytes_v5().unwrap()).unwrap();
        let query = SdQuery::new(vec![qx, qy], vec![beta, alpha]).unwrap();
        // Bit-identical results: same ids, same score bits.
        prop_assert_eq!(
            back.engine.unwrap().query(&query, k).unwrap(),
            index.query(qx, qy, alpha, beta, k).unwrap()
        );
    }

    #[test]
    fn sd_snapshot_queries_bit_identical(
        rows in vec(vec(coord(), 3), 1..50),
        q in vec(coord(), 3),
        w in vec(weight(), 3),
        rep_mask in 0usize..8,
        k in 1usize..6,
    ) {
        let roles: Vec<DimRole> = (0..3).map(|d| {
            if rep_mask & (1 << d) != 0 { DimRole::Repulsive } else { DimRole::Attractive }
        }).collect();
        let data = Arc::new(Dataset::from_rows(3, &rows).unwrap());
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        let mut snap = Snapshot::new();
        snap.engine = Some(SdEngine::build(data, &roles).unwrap());
        let bytes = snap.to_bytes_v5().unwrap();
        let query = SdQuery::new(q, w).unwrap();
        let want = index.query(&query, k).unwrap();
        // A one-shard engine, loaded or mapped, answers like the built §5
        // index: same ids, same score bits.
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&loaded.engine.unwrap().query(&query, k).unwrap(), &want);
        let mapped = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        prop_assert_eq!(&mapped.snapshot.engine.unwrap().query(&query, k).unwrap(), &want);
    }

    #[test]
    fn corrupt_containers_are_typed_errors(
        pts in vec((coord(), coord()), 1..40),
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
        cut in 0usize..10_000,
    ) {
        let roles = vec![DimRole::Attractive, DimRole::Repulsive];
        let rows: Vec<Vec<f64>> = pts.iter().map(|&(x, y)| vec![x, y]).collect();
        let snap = Snapshot {
            engine: Some(SdEngine::build(Dataset::from_rows(2, &rows).unwrap(), &roles).unwrap()),
            durability: Some(DurabilityInfo { generation: 1, checkpoint_epoch: 0 }),
        };
        let bytes = snap.to_bytes_v5().unwrap();

        // Any single-bit flip must be detected (magic, version, checksum or
        // structural validation), with a typed error.
        let mut mutated = bytes.clone();
        let pos = flip_pos % mutated.len();
        mutated[pos] ^= 1 << flip_bit;
        let err = Snapshot::from_bytes(&mutated).expect_err("flip must be detected");
        assert_snapshot_error(&err);

        // Any truncation must fail with a typed error.
        let cut = cut % bytes.len();
        let err = Snapshot::from_bytes(&bytes[..cut]).expect_err("truncation must be detected");
        assert_snapshot_error(&err);
    }
}

#[test]
fn wrong_magic_and_future_version_are_typed() {
    let snap = Snapshot {
        durability: Some(DurabilityInfo {
            generation: 1,
            checkpoint_epoch: 0,
        }),
        ..Snapshot::default()
    };
    let bytes = snap.to_bytes_v5().unwrap();
    assert_eq!(&bytes[..8], &MAGIC);

    let mut wrong = bytes.clone();
    wrong[..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(
        Snapshot::from_bytes(&wrong).unwrap_err(),
        SdError::SnapshotBadMagic
    ));

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    match Snapshot::from_bytes(&future).unwrap_err() {
        SdError::SnapshotVersion { found, supported } => {
            assert_eq!(found, FORMAT_VERSION + 7);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
}

#[test]
fn snapshot_files_roundtrip_on_disk() {
    let dir = std::env::temp_dir().join(format!("sdq-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.sdq");

    let data = Dataset::from_rows(
        2,
        &[
            vec![1.0, 9.0],
            vec![1.1, 2.0],
            vec![7.0, 8.5],
            vec![-3.0, 0.5],
        ],
    )
    .unwrap();
    let roles = vec![DimRole::Attractive, DimRole::Repulsive];
    let index = SdIndex::build(data.clone(), &roles).unwrap();

    let mut snap = Snapshot::new();
    snap.engine = Some(SdEngine::build(data, &roles).unwrap());
    snap.save_v5(&path).unwrap();

    let engine = Snapshot::load(&path).unwrap().engine.unwrap();
    assert_eq!(engine.roles(), &roles[..]);
    let q = SdQuery::uniform_weights(vec![1.0, 2.0], &roles);
    assert_eq!(engine.query(&q, 3).unwrap(), index.query(&q, 3).unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
}

// ─── WAL corruption sweeps ──────────────────────────────────────────────────
//
// The same adversarial treatment the snapshot container gets, applied to
// the write-ahead log: every flipped byte, every truncation point and any
// garbage tail must surface a typed `SdError` through the strict reader —
// and the recovery reader must classify a damaged *tail* as torn (salvaging
// the intact prefix) without ever panicking.

/// A WAL image with a header and a few records of every kind.
fn sample_wal() -> Vec<u8> {
    let header = wal::WalHeader {
        dims: 2,
        generation: 3,
        base_rows: 10,
    };
    let mut bytes = header.encode();
    let records = [
        wal::WalRecord::Insert(vec![0.5, -1.5]),
        wal::WalRecord::Delete(4),
        wal::WalRecord::InsertRows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
        wal::WalRecord::Insert(vec![9.0, 9.5]),
    ];
    for r in &records {
        bytes.extend_from_slice(&r.encode());
    }
    bytes
}

#[test]
fn every_flipped_wal_byte_is_a_typed_strict_error() {
    let bytes = sample_wal();
    assert_eq!(wal::read_strict(&bytes).unwrap().records.len(), 4);
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        let err = wal::read_strict(&mutated)
            .err()
            .unwrap_or_else(|| panic!("flip at wal byte {pos} went undetected"));
        assert_snapshot_error(&err);
    }
}

#[test]
fn every_wal_truncation_is_strict_error_and_clean_recovery() {
    let bytes = sample_wal();
    let contents = wal::read_strict(&bytes).unwrap();
    let full = contents.records.len();
    // Cuts that land exactly on a record-frame boundary ARE valid logs —
    // a header-only file is what rotation writes, and a shorter record list
    // is simply an older log. Every other cut must be a typed error.
    let mut boundaries = vec![wal::WAL_HEADER_BYTES];
    for r in &contents.records {
        boundaries.push(boundaries.last().unwrap() + r.encode().len());
    }
    for cut in 0..bytes.len() {
        let cut_bytes = &bytes[..cut];
        if let Some(idx) = boundaries.iter().position(|&b| b == cut) {
            assert_eq!(wal::read_strict(cut_bytes).unwrap().records.len(), idx);
        } else {
            let err = wal::read_strict(cut_bytes)
                .err()
                .unwrap_or_else(|| panic!("truncation to {cut} wal bytes went undetected"));
            assert_snapshot_error(&err);
        }
        // Recovery: a truncated header is unrecoverable (typed error); a
        // truncated record list salvages the intact prefix.
        match wal::recover(cut_bytes) {
            Err(e) => {
                assert!(cut < wal::WAL_HEADER_BYTES, "cut {cut}: {e:?}");
                assert_snapshot_error(&e);
            }
            Ok(rec) => {
                assert!(rec.records.len() <= full);
                assert_eq!(rec.valid_len + rec.truncated_bytes, cut as u64);
                // The salvaged prefix must re-read strictly.
                let replay = wal::read_strict(&cut_bytes[..rec.valid_len as usize]).unwrap();
                assert_eq!(replay.records.len(), rec.records.len());
            }
        }
    }
}

#[test]
fn wal_garbage_tail_is_truncated_by_recovery_and_rejected_strictly() {
    let mut bytes = sample_wal();
    let clean_len = bytes.len() as u64;
    bytes.extend_from_slice(b"\xde\xad\xbe\xef garbage that is no record");
    let err = wal::read_strict(&bytes).unwrap_err();
    assert_snapshot_error(&err);
    let rec = wal::recover(&bytes).unwrap();
    assert_eq!(rec.records.len(), 4, "intact records salvaged");
    assert_eq!(rec.valid_len, clean_len);
    assert_eq!(
        rec.truncated_bytes as usize,
        bytes.len() - clean_len as usize
    );
}

#[test]
fn flipped_final_record_crc_is_torn_not_lost() {
    let bytes = sample_wal();
    // Flip one byte inside the *last* record's payload: recovery must drop
    // exactly that record and keep the first three.
    let mut mutated = bytes.clone();
    let last = bytes.len() - 3;
    mutated[last] ^= 0xff;
    let rec = wal::recover(&mutated).unwrap();
    assert_eq!(rec.records.len(), 3);
    assert!(rec.truncated_bytes > 0);
}

#[test]
fn mid_log_corruption_is_a_typed_error_not_a_silent_truncate() {
    let bytes = sample_wal();
    // Flip a payload byte of the FIRST record: valid records follow, so
    // this is real corruption — recovery must refuse rather than silently
    // truncate three good records away.
    let mut mutated = bytes.clone();
    mutated[wal::WAL_HEADER_BYTES + wal::RECORD_PREFIX_BYTES + 2] ^= 0xff;
    let err = wal::recover(&mutated).unwrap_err();
    assert_snapshot_error(&err);
}

// ─── a log framed with the wrong polynomial ─────────────────────────────────
//
// WAL frames once carried IEEE CRC-32; they now carry CRC-32C under the same
// on-disk version number. Such a log holds acknowledged records, so it must
// be refused outright — never mistaken for a torn tail and cut.

/// Bitwise CRC-32 (IEEE 802.3, reflected `0xEDB88320`). The reference lives
/// here, not in the crate: the store knows one polynomial.
fn ieee_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Re-signs the header and every record frame of a well-formed log.
fn resign_wal(bytes: &mut [u8], sum: fn(&[u8]) -> u32) {
    let crc = sum(&bytes[8..32]);
    bytes[32..36].copy_from_slice(&crc.to_le_bytes());
    let mut offset = wal::WAL_HEADER_BYTES;
    while offset < bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let payload = offset + wal::RECORD_PREFIX_BYTES;
        let crc = sum(&bytes[payload..payload + len]);
        bytes[offset + 4..payload].copy_from_slice(&crc.to_le_bytes());
        offset = payload + len;
    }
}

fn assert_wal_header_refused<T: std::fmt::Debug>(result: Result<T, SdError>) {
    match result {
        Err(SdError::SnapshotChecksum { section }) => assert_eq!(section, "wal header"),
        other => panic!("IEEE-framed log not refused at the header: {other:?}"),
    }
}

#[test]
fn ieee_framed_wal_is_refused_by_both_readers() {
    assert_eq!(ieee_crc32(b"123456789"), 0xCBF4_3926);
    // The whole log as the previous polynomial framed it.
    let mut old = sample_wal();
    resign_wal(&mut old, ieee_crc32);
    assert_wal_header_refused(wal::read_strict(&old));
    assert_wal_header_refused(wal::recover(&old));
    // The header alone: the records verify, the log is refused all the same.
    let mut bytes = sample_wal();
    let crc = ieee_crc32(&bytes[8..32]);
    bytes[32..36].copy_from_slice(&crc.to_le_bytes());
    assert_wal_header_refused(wal::read_strict(&bytes));
    assert_wal_header_refused(wal::recover(&bytes));
    // The final record alone: a strict error, and recovery — which cannot
    // tell that frame from a torn write — keeps every record before it.
    let mut bytes = sample_wal();
    let last = bytes.len() - wal::WalRecord::Insert(vec![9.0, 9.5]).encode().len();
    let payload = last + wal::RECORD_PREFIX_BYTES;
    let crc = ieee_crc32(&bytes[payload..]);
    bytes[last + 4..payload].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        wal::read_strict(&bytes).unwrap_err(),
        SdError::SnapshotChecksum { .. }
    ));
    let rec = wal::recover(&bytes).unwrap();
    assert_eq!((rec.records.len(), rec.valid_len), (3, last as u64));
    // Re-signed with the store's polynomial the old log reads again.
    resign_wal(&mut old, crc32c);
    assert_eq!(wal::read_strict(&old).unwrap().records.len(), 4);
}

#[test]
fn durable_open_refuses_an_ieee_framed_wal_and_truncates_nothing() {
    let dir = std::env::temp_dir().join(format!("sdq-ieee-wal-{}", std::process::id()));
    let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 12.0 - i as f64]).collect();
    let roles = vec![DimRole::Attractive, DimRole::Repulsive];
    let engine = SdEngine::build_with(
        Dataset::from_rows(2, &rows).unwrap(),
        &roles,
        &EngineOptions::default(),
    )
    .unwrap();
    let open = || {
        DurableEngine::open(
            DiskStorage::new(&dir).unwrap(),
            "idx.sdq",
            DurableOptions::default(),
        )
    };
    let mut d = DurableEngine::create(
        DiskStorage::new(&dir).unwrap(),
        "idx.sdq",
        engine,
        DurableOptions::default(),
    )
    .unwrap();
    d.insert(&[0.5, 0.5]).unwrap();
    d.insert(&[1.5, 2.5]).unwrap();
    d.delete(sdq::PointId::new(3)).unwrap();
    drop(d);

    // Three acknowledged records, framed as the previous polynomial did.
    let wal_path = dir.join("idx.sdq.wal");
    let mut old = std::fs::read(&wal_path).unwrap();
    resign_wal(&mut old, ieee_crc32);
    std::fs::write(&wal_path, &old).unwrap();
    assert_wal_header_refused(open().map(|_| ()));
    assert_eq!(
        std::fs::read(&wal_path).unwrap(),
        old,
        "the log was touched"
    );

    // Nothing was lost: under the right polynomial all three replay.
    resign_wal(&mut old, crc32c);
    std::fs::write(&wal_path, &old).unwrap();
    let back = open().unwrap();
    assert_eq!(back.recovery().replayed_records, 3);
    assert_eq!(back.recovery().truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
