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

/// 3-D rows under roles `arr`: one pair plus one unpaired dimension per
/// shard, so every kind of region is present and `index.meta` carries an
/// extent.
fn engine() -> SdEngine {
    engine_of(40)
}

fn engine_of(n: usize) -> SdEngine {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64;
            vec![(x * 0.7).sin(), x * 0.3, 10.0 - x * 0.2]
        })
        .collect();
    SdEngine::build_with(
        Dataset::from_rows(3, &rows).unwrap(),
        &parse_roles(ROLES).unwrap(),
        &EngineOptions {
            shards: 2,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap()
}

fn probe() -> SdQuery {
    SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], &parse_roles(ROLES).unwrap())
}

/// The engine with uncompacted writes: the honest file every sweep and
/// forgery below starts from.
fn honest_bytes() -> Vec<u8> {
    let mut engine = engine();
    engine.insert(&[0.5, 4.5, 9.0]).unwrap();
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

/// A shard is its coordinates and one §4 index per pair — one copy of the
/// pair's (x, y) besides `data.coords`, one bound hierarchy, no point
/// table, no node records and no sorted column: an unpaired dimension is
/// its extent, at the end of `index.meta`.
#[test]
fn an_engine_file_lists_exactly_these_regions() {
    // 300 rows a shard: 10 leaf blocks under two envelope levels.
    let snap = Snapshot {
        engine: Some(engine_of(600)),
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
            [
                "index.meta",
                "data.meta",
                "data.coords",
                "pair0/meta",
                "pair0/blocks.xs",
                "pair0/blocks.ys",
                "pair0/blocks.slots",
                "pair0/blocks.live",
                "pair0/blocks.bounds",
                "pair0/blocks.xr",
                "pair0/blocks.lvl0/bounds",
                "pair0/blocks.lvl0/xr",
                "pair0/blocks.lvl1/bounds",
                "pair0/blocks.lvl1/xr",
            ]
            .map(|region| format!("engine-shard{shard}/{region}")),
        );
    }
    assert_eq!(names, want);
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

#[test]
fn load_refuses_forged_contents_under_valid_checksums() {
    let honest = honest_bytes();
    type Patch = fn(&mut [u8]);
    let cases: [(&str, &str, Patch); 10] = [
        ("engine-shard0/data.coords", "non-finite coordinate", |p| {
            set_f64(p, 4, f64::NAN)
        }),
        (
            "engine-shard1/pair0/blocks.xs",
            "non-finite x coordinate",
            |p| set_f64(p, 6, f64::INFINITY),
        ),
        (
            "engine-shard0/pair0/blocks.ys",
            "non-finite y coordinate",
            // A padding lane: the kernels score those too.
            |p| set_f64(p, 31, f64::NAN),
        ),
        // `index.meta` ends in the unpaired dimension's `(lo, hi)`.
        (
            "engine-shard0/index.meta",
            "unpaired dimension 2: extent",
            |p| {
                // Swap the two ends of the extent.
                let lo = p.len() - 16;
                p[lo..].rotate_left(8);
            },
        ),
        (
            "engine-shard0/index.meta",
            "unpaired dimension 2: extent [-inf",
            |p| {
                let lo = p.len() - 16;
                p[lo..lo + 8].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes());
            },
        ),
        ("engine-shard1/index.meta", "NaN]", |p| {
            let hi = p.len() - 8;
            p[hi..].copy_from_slice(&f64::NAN.to_le_bytes());
        }),
        (
            "engine-shard0/pair0/blocks.slots",
            "slot 1000000 out of range",
            |p| set_u32(p, 0, 1_000_000),
        ),
        ("engine-shard1/pair0/blocks.live", "live lanes", |p| {
            set_u32(p, 0, 1)
        }),
        (
            "engine-shard0/pair0/meta",
            "indexed angles not strictly ascending",
            // `[count][cos sin][cos sin]…`: the first angle repeated where
            // the second stood. The bracket search assumes neither happens.
            |p| p.copy_within(8..24, 24),
        ),
        (
            "engine-shard1/pair0/meta",
            "indexed angles must span 0° to 90°",
            // The first angle, 0°, rewritten as 10°: still ascending, but a
            // zero attractive weight would find no indexed angle.
            |p| {
                let (sin, cos) = 10f64.to_radians().sin_cos();
                set_f64(p, 1, cos);
                set_f64(p, 2, sin);
            },
        ),
    ];
    for (region, needle, patch) in cases {
        let mut forged = honest.clone();
        forge(&mut forged, region, patch);
        assert_ne!(forged, honest, "{region}: patch changed nothing");
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
