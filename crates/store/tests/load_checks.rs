//! What the eager opens promise: [`Snapshot::load`] and
//! [`DurableEngine::open`] run the same in-place decode as
//! [`Snapshot::open_mapped`], but nothing they return is unverified. Every
//! damaged or forged file is refused by the open itself — not by the first
//! query.

use sdq_core::integrity::crc32c;
use sdq_core::{Dataset, PointId, SdError, SdQuery};
use sdq_engine::{EngineOptions, SdEngine};
use sdq_store::{
    parse_roles, DurableEngine, DurableOptions, MappedBytes, MemStorage, Snapshot, Storage,
};

const ROLES: &str = "arr";

/// 3-D rows under roles `arr`: not one pair, so its shards scan in box
/// order.
fn engine() -> SdEngine {
    engine_of(200, ROLES)
}

/// `n` rows under `roles` (`arr`, or `ar` for the first two dimensions: a
/// single pair, whose shards store its §4 envelope tree), in two shards
/// (two cells of one box order take at least 65 rows).
fn engine_of(n: usize, roles: &str) -> SdEngine {
    let dims = roles.len();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64;
            vec![(x * 0.7).sin(), x * 0.3, 10.0 - x * 0.2][..dims].to_vec()
        })
        .collect();
    SdEngine::build_with(
        Dataset::from_rows(dims, &rows).unwrap(),
        &parse_roles(roles).unwrap(),
        &EngineOptions {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap()
}

fn probe() -> SdQuery {
    probe_of(ROLES)
}

/// [`probe`] over the first `roles.len()` dimensions.
fn probe_of(roles: &str) -> SdQuery {
    let point = vec![0.2, 3.0, 7.0][..roles.len()].to_vec();
    SdQuery::uniform_weights(point, &parse_roles(roles).unwrap())
}

/// The engine with uncompacted writes: the honest file every sweep and
/// forgery below starts from.
fn honest_bytes() -> Vec<u8> {
    honest_bytes_of(ROLES)
}

/// [`honest_bytes`] over `roles`: 200 rows, one inserted, one deleted.
fn honest_bytes_of(roles: &str) -> Vec<u8> {
    let mut engine = engine_of(200, roles);
    engine.insert(&[0.5, 4.5, 9.0][..roles.len()]).unwrap();
    engine.delete(PointId::new(3)).unwrap();
    let snap = Snapshot {
        engine: Some(engine),
        ..Snapshot::default()
    };
    snap.to_bytes_v5().unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sdq-load-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_typed(err: &SdError) -> bool {
    matches!(
        err,
        SdError::SnapshotBadMagic
            | SdError::SnapshotVersion { .. }
            | SdError::SnapshotChecksum { .. }
            | SdError::SnapshotCorrupt { .. }
    )
}

// ── (a) what a file holds ───────────────────────────────────────────────

/// Every shard is its coordinates, once, in its stored order, the global
/// id of every position (`data.ids`) and each chunk's smallest id
/// (`data.firsts`). Between the two, a shard that scans (`arr`) holds the
/// box tree of its box order — its shape (`tree.meta`), its stored nodes'
/// boxes and smallest ids (`tree.boxes`, `tree.firsts`) and each chunk's
/// codes (`data.codes`): no flat table of chunk boxes, no pair index, no
/// point table, no sorted column. A single pair's shard (`ar`) holds its §4
/// envelope tree over its rows in tile order — one bound hierarchy, no
/// second copy of the pair's (x, y), no slots, no live masks, no node
/// records.
#[test]
fn an_engine_file_lists_exactly_these_regions() {
    // 300 rows a shard, and the same regions whatever the roles: a single
    // pair's shard is a cell of the one box order like any other.
    let regions = [
        "index.meta",
        "data.meta",
        "data.coords",
        "data.ids",
        "tree.meta",
        "tree.boxes",
        "tree.firsts",
        "data.codes",
        "data.firsts",
    ];
    for roles in ["arr", "ar"] {
        let snap = Snapshot {
            engine: Some(engine_of(600, roles)),
            ..Snapshot::default()
        };
        let opened = Snapshot::from_mapped(MappedBytes::copy_from(&snap.to_bytes_v5().unwrap()));
        let names: Vec<String> = opened
            .unwrap()
            .regions()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        let mut want = vec![String::from("engine-manifest/meta")];
        for shard in 0..2 {
            want.extend(
                regions
                    .iter()
                    .map(|region| format!("engine-shard{shard}/{region}")),
            );
        }
        assert_eq!(names, want, "{roles}");
    }
}

// ── (b) damaged files ───────────────────────────────────────────────────

#[test]
fn load_refuses_every_flipped_byte_and_every_truncation() {
    let bytes = honest_bytes();
    let dir = temp_dir("sweep");
    let path = dir.join("damaged.sdq");
    // Every position: headers, tables, array payloads, and the zero padding
    // between regions and between sections.
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        std::fs::write(&path, &mutated).unwrap();
        match Snapshot::load(&path) {
            Err(e) => assert!(is_typed(&e), "flip at {pos}: untyped {e:?}"),
            Ok(_) => panic!("flip at byte {pos} survived load"),
        }
    }
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match Snapshot::load(&path) {
            Err(e) => assert!(is_typed(&e), "cut at {cut}: untyped {e:?}"),
            Ok(_) => panic!("truncation to {cut} bytes survived load"),
        }
    }
    std::fs::write(&path, &bytes).unwrap();
    Snapshot::load(&path).expect("the honest file loads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_open_refuses_every_flipped_byte_and_every_truncation() {
    let d = DurableEngine::create(
        MemStorage::new(),
        "s.sdq",
        engine(),
        DurableOptions::default(),
    )
    .unwrap();
    let pristine = d.into_storage();
    let bytes = pristine.read("s.sdq").unwrap();
    let open = |snapshot: &[u8]| {
        let mut storage = pristine.clone();
        storage.write_file("s.sdq", snapshot).unwrap();
        DurableEngine::open(storage, "s.sdq", DurableOptions::default())
    };
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        match open(&mutated) {
            Err(e) => assert!(is_typed(&e), "flip at {pos}: untyped {e:?}"),
            Ok(_) => panic!("flip at byte {pos} survived DurableEngine::open"),
        }
    }
    for cut in (0..bytes.len()).step_by(7) {
        match open(&bytes[..cut]) {
            Err(e) => assert!(is_typed(&e), "cut at {cut}: untyped {e:?}"),
            Ok(_) => panic!("truncation to {cut} bytes survived DurableEngine::open"),
        }
    }
    let reopened = open(&bytes).expect("the honest store opens");
    assert!(!reopened.engine().is_mapped(), "nothing left lazy");
    assert_eq!(
        reopened.engine().query(&probe(), 5).unwrap(),
        engine().query(&probe(), 5).unwrap()
    );
}

// ── (c) forged but checksummed ──────────────────────────────────────────

/// Rewrites the named array region's payload in place and re-signs its
/// CRC-32C, so no checksum objects to the file: only a content check can.
fn forge(bytes: &mut [u8], region: &str, patch: impl FnOnce(&mut [u8])) {
    let opened = Snapshot::from_mapped(MappedBytes::copy_from(bytes)).unwrap();
    let regions = opened.regions();
    let i = regions
        .iter()
        .position(|r| r.name() == region)
        .unwrap_or_else(|| panic!("no region {region}"));
    let (at, len) = (regions[i].file_offset() as usize, regions[i].len() as usize);
    // A metadata region's `[crc32c][len]` header sits right before its
    // bytes. Otherwise regions are laid out back to back: this one's
    // `[crc32c][count]` header starts where its predecessor's payload ends.
    let header = if region.ends_with("meta") {
        at - 12
    } else {
        (regions[i - 1].file_offset() + regions[i - 1].len()) as usize
    };
    assert_eq!(
        bytes[header..header + 4],
        regions[i].expected_crc().to_le_bytes(),
        "header of {region} not where the layout says"
    );
    patch(&mut bytes[at..at + len]);
    let crc = crc32c(&bytes[at..at + len]);
    bytes[header..header + 4].copy_from_slice(&crc.to_le_bytes());
}

fn set_f64(payload: &mut [u8], index: usize, v: f64) {
    payload[index * 8..index * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

fn set_u32(payload: &mut [u8], index: usize, v: u32) {
    payload[index * 4..index * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

/// A forgery: the region it patches, what the refusal must say, the patch.
type Forgery = (&'static str, &'static str, fn(&mut [u8]));

/// The forgeries every layout must refuse: its id column and its chunks'
/// first ids, whatever the roles.
const ID_FORGERIES: [Forgery; 3] = [
    ("engine-shard1/data.ids", "row id 300 out of range", |p| {
        set_u32(p, 7, 300)
    }),
    // Position 1 names position 0's row: in range, but twice.
    ("engine-shard0/data.ids", "repeated", |p| {
        p.copy_within(0..4, 4)
    }),
    // Chunk 0's first id raised past its smallest: the tie-aware skip
    // would pass over a row it must score.
    ("engine-shard1/data.firsts", "first id", |p| {
        let first = u32::from_le_bytes(p[..4].try_into().unwrap());
        set_u32(p, 0, first + 1)
    }),
];

#[test]
fn load_refuses_forged_contents_under_valid_checksums() {
    let cases: [Forgery; 3] = [
        ("engine-shard0/data.coords", "non-finite coordinate", |p| {
            set_f64(p, 4, f64::NAN)
        }),
        // `index.meta` is the roles alone: a `u64` count, then one tag
        // byte a dimension.
        (
            "engine-shard0/index.meta",
            "invalid DimRole tag 0x02",
            |p| p[9] = 2,
        ),
        // The first group's first id raised past its chunks' smallest: a
        // tie at the floor would skip the group over a row it must score.
        (
            "engine-shard1/tree.firsts",
            "box tree node 0: first id",
            |p| {
                let first = u32::from_le_bytes(p[..4].try_into().unwrap());
                set_u32(p, 0, first + 1)
            },
        ),
    ];
    // Every forgery, on a file of two pairs' roles and on one of a single
    // pair's: the two store the same regions.
    let (scanning, single) = (honest_bytes(), honest_bytes_of("ar"));
    let runs = cases
        .iter()
        .chain(&ID_FORGERIES)
        .flat_map(|c| [(&scanning, c), (&single, c)]);
    for (honest, &(region, needle, patch)) in runs {
        let mut forged = honest.clone();
        forge(&mut forged, region, patch);
        assert_ne!(&forged, honest, "{region}: patch changed nothing");
        match Snapshot::from_bytes(&forged) {
            Err(SdError::SnapshotCorrupt { detail }) => {
                assert!(detail.contains(needle), "{region}: wrong detail: {detail}")
            }
            other => panic!("{region}: forged file not refused as corrupt: {other:?}"),
        }
        // The checksums really are valid: nothing but content is wrong. (A
        // metadata region is checksummed, decoded and so refused at every
        // open, the lazy one included.)
        match Snapshot::from_mapped(MappedBytes::copy_from(&forged)) {
            Ok(mapped) => mapped
                .verify_all()
                .unwrap_or_else(|e| panic!("{region}: forgery broke a checksum: {e}")),
            Err(SdError::SnapshotCorrupt { detail }) if region.ends_with("meta") => {
                assert!(detail.contains(needle), "{region}: wrong detail: {detail}")
            }
            Err(e) => panic!("{region}: forgery broke the lazy open: {e}"),
        }
    }
}

/// A mapped open leaves the id census to the reads that would trust the
/// ids for good: a file whose id column names a row twice under valid
/// checksums still opens (its ids are in range, so nothing reads out of
/// bounds), but neither `rows_by_id` nor a compaction reads its rows —
/// the compaction would otherwise write rows that were never inserted into
/// a fresh, correctly checksummed shard. Two pairs' roles or a single
/// pair's.
#[test]
fn a_mapped_shard_with_a_repeated_row_id_is_never_compacted() {
    for roles in [ROLES, "ar"] {
        let mut forged = honest_bytes_of(roles);
        forge(&mut forged, "engine-shard0/data.ids", |p| {
            p.copy_within(0..4, 4)
        });
        let mapped = Snapshot::from_mapped(MappedBytes::copy_from(&forged)).unwrap();
        let mut engine = mapped.snapshot.engine.expect("an engine");
        assert!(engine.is_mapped());
        for err in [
            engine.shards()[0].rows_by_id().err(),
            engine.compact().err(),
        ] {
            match err {
                Some(SdError::SnapshotCorrupt { detail }) => {
                    assert!(
                        detail.contains("row id") && detail.contains("repeated"),
                        "{roles}: {detail}"
                    )
                }
                other => panic!("{roles}: a forged shard was read: {other:?}"),
            }
        }
    }
}

/// A mapped open defers the ids' range check to the first query, and the
/// verdict sticks: a shard naming a row past the engine's rows answers
/// nothing, its honest twin answers, and a repeated id — in range — is
/// left to the census of an eager open or a compaction. Two pairs' roles
/// or a single pair's: every scan names its rows by the same id column.
#[test]
fn a_mapped_engine_checks_its_ids_in_range_before_its_first_answer() {
    for roles in [ROLES, "ar"] {
        let mut forged = honest_bytes_of(roles);
        forge(&mut forged, "engine-shard1/data.ids", |p| {
            set_u32(p, 7, 300)
        });
        let mapped = Snapshot::from_mapped(MappedBytes::copy_from(&forged)).unwrap();
        let engine = mapped.snapshot.engine.expect("an engine");
        for _ in 0..2 {
            match engine.query(&probe_of(roles), 3) {
                Err(SdError::SnapshotCorrupt { detail }) => {
                    assert!(
                        detail.contains("row id 300 out of range"),
                        "{roles}: {detail}"
                    )
                }
                other => panic!("{roles}: an id past the rows was served: {other:?}"),
            }
        }
        let honest =
            Snapshot::from_mapped(MappedBytes::copy_from(&honest_bytes_of(roles))).unwrap();
        let engine = honest.snapshot.engine.unwrap();
        assert!(engine.query(&probe_of(roles), 3).is_ok(), "{roles}");
    }
}

// ── (d) the aligned read ────────────────────────────────────────────────

#[test]
fn aligned_file_read_handles_every_length() {
    let dir = temp_dir("aligned");
    let path = dir.join("blob");
    for len in [0usize, 1, 63, 64, 65, 4096, 4097] {
        let content: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        std::fs::write(&path, &content).unwrap();
        for buffer in [
            MappedBytes::read_file(&path).unwrap(),
            MappedBytes::map_file(&path).unwrap(),
            MappedBytes::copy_from(&content),
        ] {
            assert_eq!(&buffer[..], &content[..], "len {len}");
            assert_eq!(buffer.as_ptr() as usize % 64, 0, "len {len}");
        }
        assert!(!MappedBytes::read_file(&path).unwrap().is_mapped());
        // Not a snapshot: a typed refusal, never a panic.
        let err = Snapshot::load(&path).unwrap_err();
        assert!(is_typed(&err), "len {len}: {err:?}");
    }
    let err = Snapshot::load(dir.join("missing")).unwrap_err();
    assert!(matches!(err, SdError::SnapshotIo(_)), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_that_cannot_deliver_the_file_is_an_io_error() {
    /// A store whose snapshot read comes up short, as a file truncated
    /// between the length query and the read does.
    #[derive(Debug)]
    struct Shrinking(MemStorage);
    impl Storage for Shrinking {
        fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
            self.0.read(name)
        }
        fn read_aligned(&self, _: &str) -> std::io::Result<MappedBytes> {
            sdq_core::view::AlignedBytes::read_from(&[1u8, 2, 3][..], 100)
                .map(|_| unreachable!("a short source cannot fill the buffer"))
        }
        fn exists(&self, name: &str) -> bool {
            self.0.exists(name)
        }
        fn file_len(&self, name: &str) -> std::io::Result<u64> {
            self.0.file_len(name)
        }
        fn write_file(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.0.write_file(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.0.append(name, bytes)
        }
        fn set_len(&mut self, name: &str, len: u64) -> std::io::Result<()> {
            self.0.set_len(name, len)
        }
        fn rename(&mut self, from: &str, to: &str) -> std::io::Result<()> {
            self.0.rename(from, to)
        }
        fn remove(&mut self, name: &str) -> std::io::Result<()> {
            self.0.remove(name)
        }
        fn sync_file(&mut self, name: &str) -> std::io::Result<()> {
            self.0.sync_file(name)
        }
        fn sync_dir(&mut self) -> std::io::Result<()> {
            self.0.sync_dir()
        }
    }
    let d = DurableEngine::create(
        MemStorage::new(),
        "s.sdq",
        engine(),
        DurableOptions::default(),
    )
    .unwrap();
    let err = DurableEngine::open(
        Shrinking(d.into_storage()),
        "s.sdq",
        DurableOptions::default(),
    )
    .unwrap_err();
    match err {
        SdError::SnapshotIo(detail) => assert!(detail.contains("expected 100 bytes"), "{detail}"),
        other => panic!("short read not an I/O error: {other:?}"),
    }
}
