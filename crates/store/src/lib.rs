//! # sdq-store
//!
//! The persistence subsystem of the SD-Query workspace: **build once, query
//! many**. A store is an engine: a [`Snapshot`] persists one [`SdEngine`]
//! (S ≥ 1 shards plus its uncompacted writes) and the durability record
//! that ties a checkpoint to its write-ahead log, as one versioned,
//! checksummed binary file that restores without any rebuilding.
//!
//! ## File format (version 5 — the only one)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----
//!      0     8  magic  b"SDQSNAP\0"
//!      8     4  format version (u32 LE) = 5
//!     12     4  section count (u32 LE)
//!     16   28·n section table: {kind u32, reserved u32, offset u64, len u64, zero u32}
//!      …     4  CRC-32C of the section table
//!      …        zero padding to the next 64-byte boundary
//!      …        section payloads (sdq_core::codec bytes), in table order,
//!               each starting on a 64-byte file offset (zero-padded gaps)
//! ```
//!
//! Section kinds, live and retired (a retired number stays reserved; a file
//! that carries one is refused by its name before a byte of it is read):
//!
//! | kind | name | holds |
//! |-----:|------|-------|
//! | 7 | `engine-manifest` | dimensionality, roles, per-shard row counts |
//! | 15 | `engine-shard` | one shard's [`SdIndex`] — `index.meta` (the roles, nothing else), `data.meta` + `data.coords` (the rows, once, in the shard's stored order) and `data.ids` (the global id of each), then for a 2-D shard of one attractive and one repulsive dimension (a row range of the engine's rows, in the §4 tile order) its pair's envelope tree `pair0/meta` + `pair0/blocks.*`, for any other roles (a cell of the engine's one box order) the chunk boxes `data.boxes`, and last `data.firsts` (each 64-row chunk's smallest id); the shard ordinal sits in the table entry's `reserved` field |
//! | 9 | `mutation-delta` | uncompacted inserted rows (only when non-empty) |
//! | 10 | `mutation-tombstones` | the addressable row domain plus a sorted dead-id list (only when non-empty) |
//! | 11 | `durability` | checkpoint generation and epoch, tying the file to its write-ahead log (see the [`durable`] module) |
//! | 1, 3, 5, 6 | `dataset`, `sd-index`, `top1-index`, `rstar-tree` | retired: a store holds one engine |
//! | 2 | `roles` | retired: the engine manifest carries the roles |
//! | 4 | `topk-index` | retired: the §4 dynamic tree is an in-memory library index, never persisted |
//! | 8 | `engine-shard` | retired: the shard layout that stored, per pair, a point table and the per-point node records beside the blocks |
//! | 12 | `engine-shard` | retired: the shard layout that recorded a pairing strategy, its pairs and each unpaired dimension's extent (and, in its older files, one sorted column per unpaired dimension, aggregating shards' pair indexes, or rows not in box order) |
//! | 13 | `engine-shard` | retired: the shard layout whose box-ordered shards were row ranges, each box-ordered over its own rows under shard-local ids |
//! | 14 | `engine-shard` | retired: the shard layout whose 2-D shards kept their rows in id order under shard-local ids and a second copy of them, with slots and live masks, in the pair's blocks |
//!
//! Every payload is a stream of framed regions (see `sdq_core::codec`):
//! small `[crc32c][len]` *metadata* regions verified eagerly at open, and
//! `[crc32c][count][pad-to-64]` *array* regions whose payload bytes are the
//! exact little-endian in-memory representation of the hot structures
//! (coordinate tables, id columns, chunk boxes, envelope tables).
//! The table itself is covered by the trailing table checksum and padding
//! must be zero, so *any* single flipped byte in the file is detected.
//! Structural validation inside `sdq_core::codec` is the second line of
//! defence: even a checksum collision cannot produce an index that panics
//! at query time.
//!
//! ## One decode, two ways to get the buffer
//!
//! Every reader runs the same decode: the file sits in one pinned,
//! 64-byte-aligned buffer, the header, section table, layout discipline and
//! metadata regions are verified at once, and every array region becomes a
//! view borrowed from that buffer — nothing is copied. The readers differ
//! in where the buffer comes from and in when the deferred work runs:
//!
//! * [`Snapshot::open_mapped`] borrows an `mmap` of the file and verifies
//!   array checksums **lazily on first touch** (see
//!   [`sdq_core::SectionIntegrity`]): open cost is O(metadata), the first
//!   query pays one checksum pass over only the regions it touches (then
//!   the engine's ids-in-range check, once), and
//!   resident memory scales with touched pages rather than file size.
//!   [`MappedSnapshot::verify_all`] settles every checksum on demand.
//! * [`Snapshot::load`] / [`Snapshot::from_bytes`] and
//!   [`DurableEngine::open`] read the file once into an owned aligned
//!   buffer (never a live mapping: a store rewrites its own files) and
//!   verify **before returning**: every region checksum, finite
//!   coordinates, each chunk's first id its smallest, and the engine-wide
//!   row-id census (every id of the engine's rows once across its shards).
//!   What comes back
//!   behaves like a built
//!   index
//!   (`is_mapped() == false`, no per-query integrity work) but pins that
//!   one file-sized buffer until its views are compacted or
//!   copied-on-write away.
//!
//! A file of any other version is refused with
//! [`SdError::SnapshotVersion`].
//!
//! ## Machine-readable reports
//!
//! Every `--json` report the `sdq` CLI prints is one [`json::Json`] value,
//! built member by member and printed by one `Display`: one escaper, one
//! number format (non-finite → `null`, fixed decimals where a report asks),
//! objects in insertion order.
//!
//! ## Example
//!
//! ```
//! use sdq_core::{Dataset, DimRole, SdQuery};
//! use sdq_engine::SdEngine;
//! use sdq_store::Snapshot;
//!
//! let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0]]).unwrap();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive];
//! let engine = SdEngine::build(data, &roles).unwrap(); // one shard
//!
//! let mut snap = Snapshot::new();
//! snap.engine = Some(engine);
//! let bytes = snap.to_bytes_v5().unwrap();
//!
//! let restored = Snapshot::from_bytes(&bytes).unwrap();
//! let q = SdQuery::uniform_weights(vec![1.0, 2.0], &roles);
//! let top = restored.engine.as_ref().unwrap().query(&q, 1).unwrap();
//! assert_eq!(top[0].id.index(), 0);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chaos;
pub mod durable;
pub mod io;
pub mod json;
pub mod scrub;
pub mod wal;

use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use sdq_core::codec::{corrupt, Codec, Reader, Writer, REGION_ALIGN};
use sdq_core::integrity::{crc32c, ensure_all};
use sdq_core::multidim::SdIndex;
use sdq_core::{Dataset, DimRole, SdError, SectionIntegrity};
use sdq_engine::SdEngine;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use durable::{
    DurableEngine, DurableOptions, Health, RecoveryReport, SyncPolicy, WalStatus, RETRY_BUDGET,
};
pub use io::{DiskStorage, Fault, FaultScript, MappedBytes, MemStorage, Storage};
pub use scrub::{scrub_path, RegionFinding, ScrubReport};
pub use sdq_core::CrcState;

/// `b"SDQSNAP\0"` — the first 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SDQSNAP\0";

/// The one format version this build writes and reads: 64-byte-aligned
/// region-framed section payloads whose array regions are the exact
/// in-memory representation, checksummed (CRC-32C) lazily on first touch
/// when opened via [`Snapshot::open_mapped`].
pub const FORMAT_VERSION: u32 = 5;

/// Hard cap on the section count, far above anything legitimate; rejects
/// absurd table sizes from corrupt headers before allocation.
const MAX_SECTIONS: u32 = 1024;

/// Bytes per section-table entry: kind + reserved + offset + len + a zero
/// `u32` (integrity lives in the region headers).
const TABLE_ENTRY_BYTES: usize = 4 + 4 + 8 + 8 + 4;

/// Bytes before the first payload's padding: magic + version + section
/// count + `sections` table entries + table checksum.
const fn header_len(sections: usize) -> u64 {
    (8 + 4 + 4 + TABLE_ENTRY_BYTES * sections + 4) as u64
}

/// What one section of a snapshot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// The sharded engine's manifest (dims, roles, shard row counts).
    EngineManifest = 7,
    /// One engine shard's [`SdIndex`]; the shard ordinal lives in the
    /// table entry's reserved `u32`. Every shard stores its rows once under
    /// global ids; a box-ordered shard is a cell of the engine's one box
    /// order.
    EngineShard = 15,
    /// The engine's delta region: uncompacted inserted rows, as plain
    /// [`Dataset`] codec bytes.
    MutationDelta = 9,
    /// The engine's tombstones: the addressable row domain (`u64`) plus the
    /// dead row ids as a sorted ascending `u32` list.
    MutationTombstones = 10,
    /// Durability metadata: checkpoint generation (`u64`) and checkpoint
    /// epoch (`u64`), linking the snapshot to its WAL.
    Durability = 11,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        match v {
            7 => Some(SectionKind::EngineManifest),
            9 => Some(SectionKind::MutationDelta),
            10 => Some(SectionKind::MutationTombstones),
            11 => Some(SectionKind::Durability),
            15 => Some(SectionKind::EngineShard),
            _ => None,
        }
    }

    /// The name a retired kind number carried when it was written, and why
    /// it is no longer read: a store holds one engine, so the monolithic,
    /// §3, R*-tree and raw-dataset sections are gone, and so are the
    /// standalone roles and §4 tree and four older shard layouts. The numbers
    /// stay reserved; both readers refuse such a file by its name and reason
    /// and `sdq inspect` lists it by name.
    pub fn retired(raw: u32) -> Option<(&'static str, &'static str)> {
        let one_engine = "a store holds one engine";
        match raw {
            1 => Some(("dataset", one_engine)),
            2 => Some(("roles", "the engine manifest carries the roles")),
            3 => Some(("sd-index", one_engine)),
            4 => Some((
                "topk-index",
                "the §4 dynamic tree is an in-memory library index, never persisted",
            )),
            5 => Some(("top1-index", one_engine)),
            6 => Some(("rstar-tree", one_engine)),
            8 => Some((
                "engine-shard",
                "its layout stored a point table and per-point node records beside each pair's blocks",
            )),
            12 => Some((
                "engine-shard",
                "its layout recorded a pairing, its pairs and a range per unpaired dimension, which no query reads",
            )),
            13 => Some((
                "engine-shard",
                "its box-ordered shards were row ranges under shard-local ids, where a shard is now a cell of one box order under global ids",
            )),
            14 => Some((
                "engine-shard",
                "its 2-D shards kept a second copy of their rows in the pair's blocks, under shard-local ids, where a shard now stores its rows once under global ids",
            )),
            _ => None,
        }
    }

    /// Human-readable section name (used in errors and `sdq inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::EngineManifest => "engine-manifest",
            SectionKind::EngineShard => "engine-shard",
            SectionKind::MutationDelta => "mutation-delta",
            SectionKind::MutationTombstones => "mutation-tombstones",
            SectionKind::Durability => "durability",
        }
    }
}

/// The durability section: ties a snapshot to its write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityInfo {
    /// Checkpoint generation; must match the WAL header's generation for
    /// the log to be replayed (a lower WAL generation means its records
    /// are already folded into this snapshot).
    pub generation: u64,
    /// Engine epoch at the checkpoint that wrote this snapshot.
    pub checkpoint_epoch: u64,
}

impl DurabilityInfo {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.generation);
        w.u64(self.checkpoint_epoch);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SdError> {
        let generation = r.u64()?;
        let checkpoint_epoch = r.u64()?;
        if generation == 0 {
            return Err(corrupt("durability generation 0 is invalid"));
        }
        Ok(DurabilityInfo {
            generation,
            checkpoint_epoch,
        })
    }
}

/// The engine manifest: everything needed to validate and reassemble the
/// shard sections into an [`SdEngine`].
struct EngineManifest {
    dims: usize,
    roles: Vec<DimRole>,
    shard_rows: Vec<u64>,
}

impl EngineManifest {
    fn of(engine: &SdEngine) -> Self {
        EngineManifest {
            dims: engine.dims(),
            roles: engine.roles().to_vec(),
            shard_rows: engine
                .shards()
                .iter()
                .map(|s| s.data().len() as u64)
                .collect(),
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.usize(self.dims);
        self.roles.encode(w);
        w.usize(self.shard_rows.len());
        for &r in &self.shard_rows {
            w.u64(r);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SdError> {
        let dims = r.usize()?;
        let roles = Vec::<DimRole>::decode(r)?;
        let count = r.len_prefix(8)?;
        let mut shard_rows = Vec::with_capacity(count);
        for _ in 0..count {
            shard_rows.push(r.u64()?);
        }
        if roles.len() != dims {
            return Err(corrupt(format!(
                "engine manifest names {} roles for {dims} dimensions",
                roles.len()
            )));
        }
        Ok(EngineManifest {
            dims,
            roles,
            shard_rows,
        })
    }
}

/// What a store persists: one engine (which knows its roles) and its
/// durability record. Both slots optional; a snapshot stores whichever are
/// `Some`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The execution engine: S ≥ 1 shards, each its own §5 index over its
    /// rows, plus the uncompacted writes.
    pub engine: Option<SdEngine>,
    /// Durability metadata written by [`DurableEngine`] checkpoints.
    pub durability: Option<DurabilityInfo>,
}

/// Metadata of one stored section, as reported by [`Snapshot::inspect_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// What the section holds; `None` for kinds this build does not know.
    pub kind: Option<SectionKind>,
    /// Raw kind tag as stored.
    pub raw_kind: u32,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Parsed header of a snapshot, without decoding any payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Stored format version (always [`FORMAT_VERSION`]).
    pub version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// The section table.
    pub sections: Vec<SectionInfo>,
}

impl SnapshotInfo {
    /// `true` when the file carries a `durability` section, i.e. it is one
    /// half of a [`DurableEngine`] snapshot + WAL pair.
    pub fn is_wal_backed(&self) -> bool {
        self.sections
            .iter()
            .any(|s| s.kind == Some(SectionKind::Durability))
    }
}

/// One section ready for framing: raw kind tag, the table entry's
/// `reserved` word (the shard ordinal of an `engine-shard`, else 0) and the
/// payload bytes.
type Section = (u32, u32, Vec<u8>);

struct TableEntry {
    raw_kind: u32,
    reserved: u32,
    offset: u64,
    len: u64,
    /// The table entry's trailing `u32`; must be zero.
    crc: u32,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// `true` when no artifact is present.
    pub fn is_empty(&self) -> bool {
        self.engine.is_none() && self.durability.is_none()
    }

    /// Verifies every lazily-checksummed region of the engine's shards.
    /// A no-op on built or loaded snapshots. Called by
    /// [`Snapshot::to_bytes_v5`] so corrupt mapped bytes are never
    /// re-encoded under fresh checksums.
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        self.engine
            .as_ref()
            .map_or(Ok(()), SdEngine::verify_integrity)
    }

    /// Every present artifact as a [`Section`]: hot artifacts as region
    /// streams straight from their [`Codec`] impls, small metadata kinds
    /// wrapped in one eager meta region.
    fn sections(&self) -> Vec<Section> {
        fn regions(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
            let mut w = Writer::new();
            f(&mut w);
            w.into_bytes()
        }
        fn wrapped(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
            regions(|w| w.meta_region(f))
        }
        let mut sections: Vec<Section> = Vec::new();
        let mut push = |kind: SectionKind, reserved: u32, payload: Vec<u8>| {
            sections.push((kind as u32, reserved, payload));
        };
        if let Some(e) = &self.engine {
            push(
                SectionKind::EngineManifest,
                0,
                wrapped(|w| EngineManifest::of(e).encode(w)),
            );
            for (ordinal, shard) in e.shards().iter().enumerate() {
                push(
                    SectionKind::EngineShard,
                    ordinal as u32,
                    regions(|w| shard.encode(w)),
                );
            }
            if !e.delta().is_empty() {
                push(
                    SectionKind::MutationDelta,
                    0,
                    regions(|w| e.delta().encode(w)),
                );
            }
            let tombstones = e.tombstone_ids();
            if !tombstones.is_empty() {
                push(
                    SectionKind::MutationTombstones,
                    0,
                    wrapped(|w| {
                        w.u64(e.total_rows() as u64);
                        w.u32s(&tombstones);
                    }),
                );
            }
        }
        if let Some(d) = &self.durability {
            push(SectionKind::Durability, 0, wrapped(|w| d.encode(w)));
        }
        sections
    }

    /// Lays `sections` out as a container file: header, section table
    /// (per-entry checksum field zero — integrity lives in the per-region
    /// CRC-32C headers), table checksum, then each payload on its own
    /// 64-byte file offset with zero-padded gaps.
    fn frame(sections: &[Section]) -> Vec<u8> {
        let mut table = Writer::new();
        let mut offsets = Vec::with_capacity(sections.len());
        let mut offset = header_len(sections.len()).next_multiple_of(REGION_ALIGN as u64);
        for (kind, reserved, payload) in sections {
            table.u32(*kind);
            table.u32(*reserved);
            table.u64(offset);
            table.u64(payload.len() as u64);
            table.u32(0);
            offsets.push(offset);
            offset = (offset + payload.len() as u64).next_multiple_of(REGION_ALIGN as u64);
        }
        let table = table.into_bytes();

        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&table);
        out.extend_from_slice(&crc32c(&table).to_le_bytes());
        for (off, (_, _, payload)) in offsets.iter().zip(sections) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(payload);
        }
        out
    }

    /// Serialises the snapshot (format v5, the only one); array payloads
    /// are the exact in-memory representation, so [`Snapshot::open_mapped`]
    /// can serve queries straight off the file.
    ///
    /// Fails only when this snapshot holds mapped views whose deferred
    /// checksums turn out bad — corruption must surface, not be laundered
    /// under fresh checksums.
    pub fn to_bytes_v5(&self) -> Result<Vec<u8>, SdError> {
        self.verify_integrity()?;
        Ok(Self::frame(&self.sections()))
    }

    /// Parses and verifies the header and section table. The only place
    /// that looks at the version field: anything but [`FORMAT_VERSION`] is
    /// refused.
    fn parse_header(bytes: &[u8]) -> Result<Vec<TableEntry>, SdError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8).map_err(|_| SdError::SnapshotBadMagic)?;
        if magic != MAGIC {
            return Err(SdError::SnapshotBadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(SdError::SnapshotVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = r.u32()?;
        if count > MAX_SECTIONS {
            return Err(corrupt(format!(
                "section count {count} exceeds the {MAX_SECTIONS} cap"
            )));
        }
        let table_raw = r.take(TABLE_ENTRY_BYTES * count as usize)?;
        let stored_table_crc = r.u32()?;
        if crc32c(table_raw) != stored_table_crc {
            return Err(SdError::SnapshotChecksum {
                section: "section table".to_string(),
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut tr = Reader::new(table_raw);
        for _ in 0..count {
            let raw_kind = tr.u32()?;
            let reserved = tr.u32()?;
            let offset = tr.u64()?;
            let len = tr.u64()?;
            let crc = tr.u32()?;
            entries.push(TableEntry {
                raw_kind,
                reserved,
                offset,
                len,
                crc,
            });
        }
        Ok(entries)
    }

    fn section_slice<'a>(bytes: &'a [u8], entry: &TableEntry) -> Result<&'a [u8], SdError> {
        let start =
            usize::try_from(entry.offset).map_err(|_| corrupt("section offset exceeds usize"))?;
        let len =
            usize::try_from(entry.len).map_err(|_| corrupt("section length exceeds usize"))?;
        let end = start
            .checked_add(len)
            .ok_or_else(|| corrupt("section range overflows"))?;
        if end > bytes.len() {
            return Err(corrupt(format!(
                "section [{start}, {end}) outside the {}-byte file (truncated?)",
                bytes.len()
            )));
        }
        Ok(&bytes[start..end])
    }

    /// Checks that the file ends exactly where the section table says it
    /// does — appended garbage is as suspect as truncation.
    fn check_file_len(bytes: &[u8], entries: &[TableEntry]) -> Result<(), SdError> {
        let expected_len = entries.iter().fold(header_len(entries.len()), |acc, e| {
            acc.max(e.offset.saturating_add(e.len))
        });
        if bytes.len() as u64 != expected_len {
            return Err(corrupt(format!(
                "file is {} bytes but the section table accounts for {expected_len}",
                bytes.len()
            )));
        }
        Ok(())
    }

    /// Restores a snapshot from container bytes: one aligned copy, then the
    /// eager open of [`Snapshot::load`] — magic, format version, every
    /// checksum and every content check pass before this returns (use
    /// [`Snapshot::open_mapped`] to defer them).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SdError> {
        Self::from_aligned(&MappedBytes::copy_from(bytes))
    }

    /// The eager open over an already-acquired buffer: decode in place,
    /// verify everything, return a snapshot that behaves as if built.
    pub(crate) fn from_aligned(buffer: &MappedBytes) -> Result<Self, SdError> {
        Self::decode(buffer, true).map(|(snap, _)| snap)
    }

    /// Reassembles the engine (when present) and restores its mutation
    /// state.
    fn finish_engine(
        snap: &mut Snapshot,
        manifest: Option<EngineManifest>,
        engine_shards: Vec<(u32, SdIndex)>,
        delta: Option<Dataset>,
        tombstones: Option<(u64, Vec<u32>)>,
    ) -> Result<(), SdError> {
        snap.engine = Self::assemble_engine(manifest, engine_shards)?;
        if delta.is_some() || tombstones.is_some() {
            let Some(engine) = snap.engine.as_mut() else {
                return Err(corrupt("mutation section without an engine"));
            };
            let delta = match delta {
                Some(d) => d,
                None => Dataset::from_flat(engine.dims(), Vec::new())
                    .expect("empty dataset is always valid"),
            };
            let domain = (engine.total_rows() + delta.len()) as u64;
            let ids = match tombstones {
                Some((stored_domain, ids)) => {
                    if stored_domain != domain {
                        return Err(corrupt(format!(
                            "tombstone domain {stored_domain} disagrees with the \
                             {domain} addressable rows (base + delta)"
                        )));
                    }
                    ids
                }
                None => Vec::new(),
            };
            engine.restore_mutations(delta, &ids)?;
        }
        Ok(())
    }

    /// The one decode. Parses and verifies the header and section table,
    /// then walks the section payloads in place: every array region becomes
    /// a view borrowed from `buffer` with its checksum deferred. `eager`
    /// decides when the deferred work runs — `false` leaves it to first
    /// touch ([`Snapshot::open_mapped`]); `true` settles all of it before
    /// returning: every region checksum, then each artifact's
    /// [`Codec::verify_decoded`]. Returns the snapshot plus every region
    /// walked, for inspection and [`MappedSnapshot::verify_all`].
    fn decode(
        buffer: &MappedBytes,
        eager: bool,
    ) -> Result<(Snapshot, Vec<Arc<SectionIntegrity>>), SdError> {
        let bytes: &[u8] = buffer;
        let entries = &Self::parse_header(bytes)?;
        Self::check_file_len(bytes, entries)?;
        // Layout discipline before any payload is trusted: entries in
        // ascending offset order, every payload 64-aligned, the entry
        // checksum field zero (integrity lives in the region headers),
        // gaps zero.
        let mut cursor = header_len(entries.len());
        for entry in entries {
            if entry.crc != 0 {
                return Err(corrupt(
                    "table entry carries a section CRC (regions carry their own)",
                ));
            }
            if entry.offset % REGION_ALIGN as u64 != 0 {
                return Err(corrupt(format!(
                    "section at offset {} is not {REGION_ALIGN}-byte aligned",
                    entry.offset
                )));
            }
            if entry.offset < cursor {
                return Err(corrupt("sections overlap or are out of table order"));
            }
            // The gap is inside the file: offsets were bounds-checked by
            // `check_file_len` only as max(end); re-check begin here.
            let (gap_start, gap_end) = (cursor as usize, entry.offset as usize);
            if gap_end > bytes.len() {
                return Err(corrupt("section offset beyond end of file"));
            }
            if bytes[gap_start..gap_end].iter().any(|&b| b != 0) {
                return Err(corrupt("nonzero padding between sections"));
            }
            cursor = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| corrupt("section range overflows"))?;
        }
        let mut snap = Snapshot::new();
        let mut regions: Vec<Arc<SectionIntegrity>> = Vec::new();
        let mut manifest: Option<EngineManifest> = None;
        let mut engine_shards: Vec<(u32, SdIndex)> = Vec::new();
        let mut delta: Option<Dataset> = None;
        let mut tombstones: Option<(u64, Vec<u32>)> = None;
        let mut seen = 0u32;
        for entry in entries {
            let Some(kind) = SectionKind::from_u32(entry.raw_kind) else {
                return Err(match SectionKind::retired(entry.raw_kind) {
                    Some((name, why)) => corrupt(format!(
                        "section kind {} ({name}) was retired: {why}; rebuild it with `sdq build`",
                        entry.raw_kind
                    )),
                    None => corrupt(format!("unknown section kind {}", entry.raw_kind)),
                });
            };
            let payload = Self::section_slice(bytes, entry)?;
            // Every kind but the per-shard one fills a single slot; a
            // second copy must not silently replace the first.
            if kind != SectionKind::EngineShard {
                let bit = 1u32 << kind as u32;
                if seen & bit != 0 {
                    return Err(corrupt(format!("duplicate {} section", kind.name())));
                }
                seen |= bit;
            }
            let prefix = match kind {
                SectionKind::EngineShard => format!("{}{}", kind.name(), entry.reserved),
                _ => kind.name().to_string(),
            };
            // SAFETY: `payload` borrows `buffer`'s memory (64-aligned base
            // + 64-aligned section offset) and `buffer.keep()` pins it for
            // as long as any view lives.
            let mut r = unsafe {
                Reader::new_mapped(
                    payload,
                    buffer.keep(),
                    !buffer.is_mapped(),
                    prefix,
                    entry.offset,
                )
            };
            match kind {
                SectionKind::EngineManifest => {
                    manifest = Some(r.meta_region("meta", EngineManifest::decode)?)
                }
                SectionKind::EngineShard => {
                    engine_shards.push((entry.reserved, SdIndex::decode(&mut r)?))
                }
                SectionKind::MutationDelta => delta = Some(Dataset::decode(&mut r)?),
                SectionKind::MutationTombstones => {
                    tombstones = Some(r.meta_region("meta", Self::decode_tombstones)?)
                }
                SectionKind::Durability => {
                    snap.durability = Some(r.meta_region("meta", DurabilityInfo::decode)?)
                }
            }
            if !r.is_exhausted() {
                return Err(corrupt(format!(
                    "{} trailing bytes in {} section",
                    r.remaining(),
                    kind.name()
                )));
            }
            let walked = r.take_regions();
            // Only the hot artifacts are worth deferring; the delta (which
            // mutations rewrite anyway) is settled at open either way, as
            // the metadata sections are by construction.
            if eager || kind == SectionKind::MutationDelta {
                ensure_all(&walked)?;
            }
            regions.extend(walked);
        }
        if let Some(d) = &mut delta {
            d.verify_decoded()?;
        }
        if eager {
            // Every checksum above has passed; now the checks that read
            // array contents, after which nothing stays lazy.
            for (_, shard) in &mut engine_shards {
                shard.verify_decoded()?;
            }
        }
        Self::finish_engine(&mut snap, manifest, engine_shards, delta, tombstones)?;
        Ok((snap, regions))
    }

    /// Decodes `mutation-tombstones` fields: `u64` domain plus sorted
    /// strictly-ascending `u32` ids (canonical, so bytes stay
    /// deterministic across save→load→save).
    fn decode_tombstones(r: &mut Reader<'_>) -> Result<(u64, Vec<u32>), SdError> {
        let domain = r.u64()?;
        let ids = r.u32s()?;
        for pair in ids.windows(2) {
            if pair[0] >= pair[1] {
                return Err(corrupt(format!(
                    "tombstone ids not strictly ascending ({} then {})",
                    pair[0], pair[1]
                )));
            }
        }
        Ok((domain, ids))
    }

    /// Validates the engine manifest against the decoded shard sections and
    /// reassembles the [`SdEngine`].
    fn assemble_engine(
        manifest: Option<EngineManifest>,
        mut shards: Vec<(u32, SdIndex)>,
    ) -> Result<Option<SdEngine>, SdError> {
        let Some(m) = manifest else {
            if shards.is_empty() {
                return Ok(None);
            }
            return Err(corrupt("engine-shard section without engine-manifest"));
        };
        if shards.len() != m.shard_rows.len() {
            return Err(corrupt(format!(
                "engine manifest names {} shards but {} shard sections are present",
                m.shard_rows.len(),
                shards.len()
            )));
        }
        shards.sort_by_key(|&(ordinal, _)| ordinal);
        for (i, (ordinal, shard)) in shards.iter().enumerate() {
            if *ordinal as usize != i {
                return Err(corrupt(format!(
                    "engine shard ordinals are not 0..{} (found {ordinal} at position {i})",
                    shards.len()
                )));
            }
            if shard.data().len() as u64 != m.shard_rows[i] {
                return Err(corrupt(format!(
                    "engine shard {i} holds {} rows but the manifest says {}",
                    shard.data().len(),
                    m.shard_rows[i]
                )));
            }
        }
        let indexes: Vec<SdIndex> = shards.into_iter().map(|(_, s)| s).collect();
        Ok(Some(SdEngine::from_parts(m.dims, m.roles, indexes)?))
    }

    /// Parses only the header and section table — cheap metadata access for
    /// `sdq inspect`.
    pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SdError> {
        Self::inspect_head(bytes, bytes.len() as u64)
    }

    /// [`Snapshot::inspect_bytes`] over the first bytes of a `file_len`-byte
    /// file (at least its header and section table, if it has them).
    fn inspect_head(head: &[u8], file_len: u64) -> Result<SnapshotInfo, SdError> {
        let entries = Self::parse_header(head)?;
        Ok(SnapshotInfo {
            version: FORMAT_VERSION,
            file_len,
            sections: entries
                .iter()
                .map(|e| SectionInfo {
                    kind: SectionKind::from_u32(e.raw_kind),
                    raw_kind: e.raw_kind,
                    offset: e.offset,
                    len: e.len,
                })
                .collect(),
        })
    }

    /// Reads and restores a snapshot from `path`: the file is read once,
    /// straight into an aligned buffer the restored artifacts then borrow,
    /// and everything is verified before this returns — header, section
    /// table, every region checksum, ids in range, finite values, sorted
    /// columns (see the crate docs for the full list).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SdError> {
        let path = path.as_ref();
        let buffer = MappedBytes::read_file(path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))?;
        Self::from_aligned(&buffer)
    }

    /// Reads only the header/table of the snapshot at `path` — two short
    /// reads (the fixed 16 bytes, then the table they size), however large
    /// the file.
    pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo, SdError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| SdError::SnapshotIo(format!("{}: {e}", path.display()));
        let mut file = std::fs::File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        let mut head = Vec::new();
        file.by_ref().take(16).read_to_end(&mut head).map_err(io)?;
        if let Some(count) = head.get(12..16) {
            let count = u32::from_le_bytes(count.try_into().expect("4 bytes")).min(MAX_SECTIONS);
            file.take(header_len(count as usize) - 16)
                .read_to_end(&mut head)
                .map_err(io)?;
        }
        Self::inspect_head(&head, file_len)
    }

    /// Writes the snapshot to `path` atomically *and durably*: temp file
    /// → `sync_all` → rename → parent-directory fsync, so a crash at any
    /// point leaves either the old file or the complete new one.
    pub fn save_v5(&self, path: impl AsRef<Path>) -> Result<(), SdError> {
        let path = path.as_ref();
        let bytes = self.to_bytes_v5()?;
        io::atomic_write_path(path, &bytes)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))
    }

    /// Opens the snapshot at `path` zero-copy: the file is `mmap`ed and its
    /// array regions are served straight off the mapping — open cost is
    /// O(metadata), the first query pays one CRC-32C pass over only the
    /// regions it touches, and resident memory scales with touched pages.
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<MappedSnapshot, SdError> {
        let path = path.as_ref();
        let bytes = MappedBytes::map_file(path)
            .map_err(|e| SdError::SnapshotIo(format!("{}: {e}", path.display())))?;
        Self::from_mapped(bytes)
    }

    /// [`Snapshot::open_mapped`] over an already-acquired buffer. Works
    /// with an owned [`MappedBytes`] too (its buffer is 64-byte aligned and
    /// kept alive by the views, so borrowing stays sound).
    pub fn from_mapped(buffer: MappedBytes) -> Result<MappedSnapshot, SdError> {
        let (snapshot, sections) = Self::decode(&buffer, false)?;
        Ok(MappedSnapshot {
            snapshot,
            mapped: buffer.is_mapped(),
            sections,
        })
    }
}

/// A snapshot opened by [`Snapshot::open_mapped`]: the decoded artifacts
/// plus the integrity handle of every framed region walked, for inspection
/// ([`MappedSnapshot::regions`]) and full-file verification
/// ([`MappedSnapshot::verify_all`]).
#[derive(Debug)]
pub struct MappedSnapshot {
    /// The decoded snapshot; its hot arrays borrow the underlying buffer.
    pub snapshot: Snapshot,
    mapped: bool,
    sections: Vec<Arc<SectionIntegrity>>,
}

impl MappedSnapshot {
    /// `true` when the buffer is a real `mmap` of the file (as opposed to
    /// an owned in-memory one). Either way the decode borrows the buffer
    /// zero-copy.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Every framed region of the file, in layout order — name, file
    /// offset, length and checksum state (lazy / verified / failed).
    pub fn regions(&self) -> &[Arc<SectionIntegrity>] {
        &self.sections
    }

    /// Forces checksum verification of every region, including ones no
    /// query has touched yet — the checksum half of what
    /// [`Snapshot::load`] settles before it returns; run it before trusting
    /// a file end to end.
    pub fn verify_all(&self) -> Result<(), SdError> {
        ensure_all(&self.sections)
    }
}

/// Renders roles as the `a`/`r` string [`parse_roles`] reads.
pub fn format_roles(roles: &[DimRole]) -> String {
    roles
        .iter()
        .map(|role| match role {
            DimRole::Attractive => 'a',
            DimRole::Repulsive => 'r',
        })
        .collect()
}

/// Parses a roles string like `"ar"` / `"rraa"` (`a` = attractive, `r` =
/// repulsive) — the CLI and test shorthand.
pub fn parse_roles(spec: &str) -> Result<Vec<DimRole>, SdError> {
    spec.chars()
        .map(|c| match c {
            'a' | 'A' => Ok(DimRole::Attractive),
            'r' | 'R' => Ok(DimRole::Repulsive),
            other => Err(SdError::SnapshotCorrupt {
                detail: format!("role character {other:?} (want 'a' or 'r')"),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::SdQuery;

    /// 100 rows: two 64-row chunks, so an engine over them holds up to two
    /// cells.
    fn sample_sd() -> SdIndex {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.7).sin(), x * 0.3, 10.0 - x * 0.2]
            })
            .collect();
        let data = Dataset::from_rows(3, &rows).unwrap();
        let roles = parse_roles("arr").unwrap();
        SdIndex::build(data, &roles).unwrap()
    }

    /// A two-shard engine carrying uncompacted mutations — the
    /// byte-flip/truncation sweeps below therefore cover the mutation
    /// sections.
    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        let sd = sample_sd();
        let mut engine = SdEngine::build_with(
            sd.data().clone(),
            sd.roles(),
            &sdq_engine::EngineOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        engine.insert(&[0.5, 4.5, 9.0]).unwrap();
        engine.insert(&[-0.2, 8.0, 1.0]).unwrap();
        engine.delete(sdq_core::PointId::new(3)).unwrap();
        snap.engine = Some(engine);
        snap
    }

    /// [`sample_snapshot`] plus the durability section: every section kind.
    /// Its engine's roles are `arr`.
    fn durable_snapshot() -> Snapshot {
        let mut snap = sample_snapshot();
        snap.durability = Some(DurabilityInfo {
            generation: 7,
            checkpoint_epoch: 3,
        });
        snap
    }

    #[test]
    fn full_snapshot_roundtrips() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();

        let engine = back.engine.as_ref().unwrap();
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], engine.roles());
        assert_eq!(engine.roles(), snap.engine.as_ref().unwrap().roles());
        assert_eq!(engine.shard_count(), 2);
        // Mutation state survives the round trip: delta rows, tombstones
        // and the answers that depend on both.
        assert_eq!(engine.delta_rows(), 2);
        assert_eq!(engine.tombstone_count(), 1);
        assert_eq!(
            engine.tombstone_ids(),
            snap.engine.as_ref().unwrap().tombstone_ids()
        );
        assert_eq!(
            engine.query(&q, 5).unwrap(),
            snap.engine.as_ref().unwrap().query(&q, 5).unwrap()
        );
        // Deterministic bytes.
        assert_eq!(back.to_bytes_v5().unwrap(), bytes);
    }

    /// The section kinds a container holds, in table order.
    fn kinds_of(bytes: &[u8]) -> Vec<SectionKind> {
        let info = Snapshot::inspect_bytes(bytes).unwrap();
        info.sections.iter().map(|s| s.kind.unwrap()).collect()
    }

    #[test]
    fn clean_engine_matches_monolithic() {
        let sd = sample_sd();
        let mut snap = Snapshot::new();
        snap.engine = Some(
            SdEngine::build_with(
                sd.data().clone(),
                sd.roles(),
                &sdq_engine::EngineOptions {
                    shards: 2,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let bytes = snap.to_bytes_v5().unwrap();
        assert_eq!(
            kinds_of(&bytes),
            [
                SectionKind::EngineManifest,
                SectionKind::EngineShard,
                SectionKind::EngineShard
            ]
        );
        let back = Snapshot::from_bytes(&bytes).unwrap();
        let engine = back.engine.as_ref().unwrap();
        assert!(!engine.has_mutations());
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], sd.roles());
        // A clean engine answers exactly like the monolithic index over the
        // same rows.
        let mono = SdIndex::build(sd.data().clone(), sd.roles()).unwrap();
        assert_eq!(engine.query(&q, 5).unwrap(), mono.query(&q, 5).unwrap());
    }

    #[test]
    fn compacted_snapshot_carries_no_mutation_sections() {
        let mutation = [SectionKind::MutationDelta, SectionKind::MutationTombstones];
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        let kinds = kinds_of(&bytes);
        assert!(mutation.iter().all(|k| kinds.contains(k)));
        let mut back = Snapshot::from_bytes(&bytes).unwrap();
        back.engine.as_mut().unwrap().compact().unwrap();
        let kinds = kinds_of(&back.to_bytes_v5().unwrap());
        assert!(
            !mutation.iter().any(|k| kinds.contains(k)),
            "compaction leaves nothing to write"
        );
    }

    #[test]
    fn durability_section_roundtrips() {
        let snap = durable_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.durability, snap.durability);
        // Deterministic bytes survive the round trip.
        assert_eq!(back.to_bytes_v5().unwrap(), bytes);
        // Every flipped byte of a durable snapshot is still detected.
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&mutated).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = Snapshot::new().to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = sample_snapshot().to_bytes_v5().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SdError::SnapshotBadMagic
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"short").unwrap_err(),
            SdError::SnapshotBadMagic
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample_snapshot().to_bytes_v5().unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SdError::SnapshotVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        ));
    }

    #[test]
    fn every_other_version_is_refused_with_the_typed_error() {
        // The version field is outside the table checksum, so patching it
        // is all it takes to present "an old file": every reader must say
        // so, not report generic corruption.
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        for version in [0u32, 1, 2, 3, 4, 6] {
            let mut patched = bytes.clone();
            patched[8..12].copy_from_slice(&version.to_le_bytes());
            for err in [
                Snapshot::from_bytes(&patched).unwrap_err(),
                Snapshot::from_mapped(MappedBytes::copy_from(&patched)).unwrap_err(),
                Snapshot::inspect_bytes(&patched).unwrap_err(),
            ] {
                assert_eq!(
                    err,
                    SdError::SnapshotVersion {
                        found: version,
                        supported: FORMAT_VERSION
                    }
                );
                assert!(err.to_string().contains("reads only version 5"), "{err}");
            }
        }
    }

    #[test]
    fn appended_garbage_is_detected() {
        // Bytes past the section table's accounted end are as suspect as
        // truncation (found by probing: `dd seek=<past-eof>` extended a
        // snapshot and the old parser silently ignored the tail).
        let mut bytes = sample_snapshot().to_bytes_v5().unwrap();
        bytes.extend_from_slice(b"tail");
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            let err = Snapshot::from_bytes(&mutated)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {pos} went undetected"));
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn save_load_via_file() {
        let dir = std::env::temp_dir().join(format!("sdq-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sdq");
        let snap = sample_snapshot();
        snap.save_v5(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.to_bytes_v5().unwrap(), snap.to_bytes_v5().unwrap());

        let info = Snapshot::inspect(&path).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        // engine manifest + 2 shard sections + delta + tombstones.
        assert_eq!(info.sections.len(), 5);
        assert!(info.sections.iter().all(|s| s.kind.is_some()));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_reads_only_the_header() {
        let dir = std::env::temp_dir().join(format!("sdq-store-inspect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.sdq");
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        let head = header_len(5) as usize;
        // Every prefix — through the fixed 16 bytes, the table, and on into
        // the payloads — gets from the file reader what the in-memory one
        // says; once the header and table are there, nothing past them is
        // needed (or looked at: all that is left of the payloads is junk).
        for cut in (0..head + 8).chain([bytes.len()]) {
            let mut content = bytes[..cut].to_vec();
            content[head.min(cut)..].fill(0xAB);
            std::fs::write(&path, &content).unwrap();
            assert_eq!(
                Snapshot::inspect(&path),
                Snapshot::inspect_bytes(&bytes[..cut]),
                "prefix of {cut} bytes"
            );
            assert_eq!(Snapshot::inspect(&path).is_ok(), cut >= head);
        }
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        assert!(!info.is_wal_backed());
        let durable = durable_snapshot().to_bytes_v5().unwrap();
        assert!(Snapshot::inspect_bytes(&durable).unwrap().is_wal_backed());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            Snapshot::load("/nonexistent/definitely/missing.sdq").unwrap_err(),
            SdError::SnapshotIo(_)
        ));
    }

    #[test]
    fn parse_roles_shorthand() {
        assert_eq!(
            parse_roles("aR").unwrap(),
            vec![DimRole::Attractive, DimRole::Repulsive]
        );
        assert!(parse_roles("ax").is_err());
        for spec in ["", "a", "ra", "arra"] {
            assert_eq!(format_roles(&parse_roles(spec).unwrap()), spec);
        }
    }

    // ── owned vs zero-copy ──────────────────────────────────────────────

    /// Asserts both snapshots' engines answer identically.
    fn queries_match(a: &Snapshot, b: &Snapshot) {
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], &parse_roles("arr").unwrap());
        assert_eq!(
            a.engine.as_ref().unwrap().query(&q, 5).unwrap(),
            b.engine.as_ref().unwrap().query(&q, 5).unwrap()
        );
    }

    #[test]
    fn v5_roundtrips_owned() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        // Owned decode verifies everything eagerly; nothing stays mapped.
        assert!(!back.engine.as_ref().unwrap().shards()[0].is_mapped());
        queries_match(&back, &snap);
        assert_eq!(back.to_bytes_v5().unwrap(), bytes, "nondeterministic");
        // Layout discipline: 64-aligned payloads.
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.sections.len(), 5);
        for s in &info.sections {
            assert_eq!(s.offset % REGION_ALIGN as u64, 0);
        }
    }

    #[test]
    fn v5_roundtrips_zero_copy() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert!(!m.regions().is_empty());
        assert!(m.snapshot.engine.as_ref().unwrap().shards()[0].is_mapped());
        queries_match(&m.snapshot, &snap);
        m.verify_all().unwrap();
        // A mapped snapshot re-encodes to the identical file.
        assert_eq!(m.snapshot.to_bytes_v5().unwrap(), bytes);
    }

    #[test]
    fn v5_crc_state_is_lazy_until_touched() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert!(
            m.regions().iter().any(|r| r.state() == CrcState::Lazy),
            "open should defer array checksums"
        );
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], &parse_roles("arr").unwrap());
        m.snapshot.engine.as_ref().unwrap().query(&q, 5).unwrap();
        assert!(m.regions().iter().any(|r| r.state() == CrcState::Verified));
        m.verify_all().unwrap();
        assert!(m.regions().iter().all(|r| r.state() == CrcState::Verified));
    }

    #[test]
    fn v5_every_flipped_byte_is_detected() {
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            // The eager open verifies before it returns: the flip surfaces
            // at load.
            let err = Snapshot::from_bytes(&mutated)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {pos} went undetected (owned)"));
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected owned error {err:?}"
            );
            // The zero-copy open defers array checksums, but open +
            // verify_all must still catch every flip — typed, never UB.
            let err = match Snapshot::from_mapped(MappedBytes::copy_from(&mutated)) {
                Err(e) => e,
                Ok(m) => match m.verify_all() {
                    Err(e) => e,
                    Ok(()) => panic!("flip at byte {pos} went undetected (mapped)"),
                },
            };
            assert!(
                matches!(
                    err,
                    SdError::SnapshotBadMagic
                        | SdError::SnapshotVersion { .. }
                        | SdError::SnapshotChecksum { .. }
                        | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected mapped error {err:?}"
            );
        }
    }

    #[test]
    fn v5_every_truncation_is_detected() {
        let bytes = sample_snapshot().to_bytes_v5().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..cut]).is_err(),
                "owned: truncation to {cut} bytes went undetected"
            );
            assert!(
                Snapshot::from_mapped(MappedBytes::copy_from(&bytes[..cut])).is_err(),
                "mapped: truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn v5_rejects_misaligned_section() {
        // Shift section 0's payload offset off the 64-byte grid (fixing up
        // the table CRC so only the alignment rule is violated).
        let mut bytes = sample_snapshot().to_bytes_v5().unwrap();
        let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let off_at = 16 + 8;
        let old = u64::from_le_bytes(bytes[off_at..off_at + 8].try_into().unwrap());
        bytes[off_at..off_at + 8].copy_from_slice(&(old + 8).to_le_bytes());
        let table_end = 16 + TABLE_ENTRY_BYTES * n;
        let crc = crc32c(&bytes[16..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        for result in [
            Snapshot::from_bytes(&bytes),
            Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).map(|m| m.snapshot),
        ] {
            match result {
                Err(SdError::SnapshotCorrupt { detail }) => {
                    assert!(detail.contains("aligned"), "wrong detail: {detail}")
                }
                other => panic!("misaligned section accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn mapped_engine_accepts_mutations() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes_v5().unwrap();
        let mut m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        let mut owned = Snapshot::from_bytes(&bytes).unwrap();
        let q = SdQuery::uniform_weights(vec![0.2, 3.0, 7.0], &parse_roles("arr").unwrap());
        for s in [&mut m.snapshot, &mut owned] {
            let e = s.engine.as_mut().unwrap();
            e.insert(&[0.9, 2.0, 3.0]).unwrap();
            assert!(e.delete(sdq_core::PointId::new(1)).unwrap());
        }
        assert_eq!(
            m.snapshot.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
        // The mutated mapped snapshot saves and reloads.
        let rebytes = m.snapshot.to_bytes_v5().unwrap();
        let back = Snapshot::from_bytes(&rebytes).unwrap();
        assert_eq!(
            back.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
        // Compaction folds the mapped base + delta into fresh owned shards
        // (it renumbers ids, so compact the owned mirror too).
        let report = m.snapshot.engine.as_mut().unwrap().compact().unwrap();
        assert!(report.dropped_tombstones > 0 || report.merged_delta_rows > 0);
        owned.engine.as_mut().unwrap().compact().unwrap();
        assert_eq!(
            m.snapshot.engine.as_ref().unwrap().query(&q, 6).unwrap(),
            owned.engine.as_ref().unwrap().query(&q, 6).unwrap()
        );
    }

    #[test]
    fn v5_empty_roundtrip() {
        let bytes = Snapshot::new().to_bytes_v5().unwrap();
        assert!(Snapshot::from_bytes(&bytes).unwrap().is_empty());
        let m = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert!(m.snapshot.is_empty());
        m.verify_all().unwrap();
    }

    #[test]
    fn save_v5_and_open_mapped_via_file() {
        let dir = std::env::temp_dir().join(format!("sdq-store-v5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample-v5.sdq");
        let snap = sample_snapshot();
        snap.save_v5(&path).unwrap();
        let m = Snapshot::open_mapped(&path).unwrap();
        assert!(m.is_mapped(), "a real file should arrive via mmap");
        queries_match(&m.snapshot, &snap);
        m.verify_all().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_report_follows_what_backs_the_views() {
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.7).sin(), (x * 0.3).cos(), x * 1e-3]
            })
            .collect();
        let built = SdEngine::build_with(
            Dataset::from_rows(3, &rows).unwrap(),
            &parse_roles("arr").unwrap(),
            &sdq_engine::EngineOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sdq-store-mem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mem.sdq");
        let snap = Snapshot {
            engine: Some(built.clone()),
            ..Snapshot::default()
        };
        snap.save_v5(&path).unwrap();

        // A loaded engine's tables sit in the heap buffer `load` read the
        // file into: the report must say so — they are the built engine's
        // tables byte for byte; a real mapping's tables are page cache and
        // count nothing.
        let loaded = Snapshot::load(&path).unwrap().engine.unwrap();
        let mapped = Snapshot::open_mapped(&path).unwrap();
        assert!(mapped.is_mapped());
        let mapped = mapped.snapshot.engine.unwrap();
        let ratio = |a: usize, b: usize| a as f64 / b as f64;
        let total = ratio(loaded.memory_bytes(), built.memory_bytes());
        assert!((0.99..=1.0).contains(&total), "loaded/built = {total}");
        assert!(ratio(mapped.memory_bytes(), built.memory_bytes()) < 0.05);
        for (l, b) in loaded.shard_infos().iter().zip(built.shard_infos()) {
            let shard = ratio(l.memory_bytes, b.memory_bytes);
            assert!(
                (0.99..=1.0).contains(&shard),
                "loaded/built shard = {shard}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_format_is_pinned() {
        // With one format and no version ladder, a silent layout change has
        // no other guard. `PAYLOAD_CRC`, the first offset and the length were
        // computed over this fixture (100 rows, two cells) by the commit
        // that made a box-ordered engine's shards cells of one box order
        // under global ids, and held by the one that made every shard store
        // its rows once (section kind 15: `index.meta` holds the roles
        // alone; every shard is its rows, `data.ids`, then `pair0` for a
        // 2-D `ar` shard or `data.boxes` for any other, then `data.firsts`;
        // kinds 2, 4, 8, 12, 13 and 14 retired). (The fixture goes through
        // `sin`/`cos`; a libm that rounds them differently moves the
        // coordinates, not the layout.)
        const PAYLOAD_CRC: u32 = 0x0a42_1078;
        let bytes = durable_snapshot().to_bytes_v5().unwrap();
        assert_eq!(bytes[8..12], 5u32.to_le_bytes());
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        let mut kinds: Vec<u32> = info.sections.iter().map(|s| s.raw_kind).collect();
        kinds.dedup();
        assert_eq!(kinds, [7, 15, 9, 10, 11], "every section kind");
        let first = info.sections[0].offset as usize;
        assert_eq!((first, bytes.len()), (192, 3868));
        assert_eq!(crc32c(&bytes[first..]), PAYLOAD_CRC, "payload bytes moved");
        // Deterministic through both readers.
        let owned = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(owned.to_bytes_v5().unwrap(), bytes);
        let mapped = Snapshot::from_mapped(MappedBytes::copy_from(&bytes)).unwrap();
        assert_eq!(mapped.snapshot.to_bytes_v5().unwrap(), bytes);
    }

    // ── hostile containers ──────────────────────────────────────────────
    //
    // Every file below is laid out by the production `frame`, so its table
    // checksum, offsets and region checksums are all valid: only the one
    // cross-section rule under test is broken.

    /// Both readers must refuse `bytes` as corrupt, naming `needle`.
    fn assert_refused(bytes: &[u8], needle: &str) {
        for result in [
            Snapshot::from_bytes(bytes),
            Snapshot::from_mapped(MappedBytes::copy_from(bytes)).map(|m| m.snapshot),
        ] {
            match result {
                Err(SdError::SnapshotCorrupt { detail }) => {
                    assert!(detail.contains(needle), "wrong detail: {detail}")
                }
                other => panic!("hostile container not refused as corrupt: {other:?}"),
            }
        }
    }

    /// Index of the first `kind` section.
    fn position(sections: &[Section], kind: SectionKind) -> usize {
        sections
            .iter()
            .position(|s| s.0 == kind as u32)
            .unwrap_or_else(|| panic!("fixture holds no {} section", kind.name()))
    }

    /// A section payload of one metadata region.
    fn meta(f: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.meta_region(f);
        w.into_bytes()
    }

    /// Re-signs the section table after a test patched it in place.
    fn resign_table(bytes: &mut [u8]) {
        let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 16 + TABLE_ENTRY_BYTES * n;
        let crc = crc32c(&bytes[16..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn duplicate_singleton_section_is_refused() {
        let sections = durable_snapshot().sections();
        for kind in (1..=15).filter_map(SectionKind::from_u32) {
            if kind == SectionKind::EngineShard {
                continue;
            }
            // The copy goes last: were it accepted, it would win.
            let mut twice = sections.clone();
            twice.push(sections[position(&sections, kind)].clone());
            assert_refused(
                &Snapshot::frame(&twice),
                &format!("duplicate {} section", kind.name()),
            );
        }
    }

    #[test]
    fn shard_without_manifest_is_refused() {
        let mut sections = sample_snapshot().sections();
        sections.remove(position(&sections, SectionKind::EngineManifest));
        assert_refused(&Snapshot::frame(&sections), "without engine-manifest");
    }

    #[test]
    fn shard_ordinals_must_be_zero_to_n() {
        let mut sections = sample_snapshot().sections();
        let first = position(&sections, SectionKind::EngineShard);
        sections[first + 1].1 = 5;
        assert_refused(&Snapshot::frame(&sections), "ordinals are not 0..2");
        // Two shards claiming the same ordinal are no better.
        sections[first + 1].1 = 0;
        assert_refused(&Snapshot::frame(&sections), "ordinals are not 0..2");
    }

    #[test]
    fn manifest_shard_count_must_match_the_shard_sections() {
        let mut sections = sample_snapshot().sections();
        sections.remove(position(&sections, SectionKind::EngineShard));
        assert_refused(
            &Snapshot::frame(&sections),
            "names 2 shards but 1 shard sections",
        );
    }

    #[test]
    fn shard_row_count_must_match_the_manifest() {
        let snap = sample_snapshot();
        let mut sections = snap.sections();
        let mut manifest = EngineManifest::of(snap.engine.as_ref().unwrap());
        assert_eq!(manifest.shard_rows, [64, 36]);
        manifest.shard_rows = vec![63, 37];
        let at = position(&sections, SectionKind::EngineManifest);
        sections[at].2 = meta(|w| manifest.encode(w));
        assert_refused(
            &Snapshot::frame(&sections),
            "shard 0 holds 64 rows but the manifest says 63",
        );
    }

    #[test]
    fn mutation_section_without_an_engine_is_refused() {
        let mut sections = sample_snapshot().sections();
        sections.retain(|s| {
            s.0 != SectionKind::EngineManifest as u32 && s.0 != SectionKind::EngineShard as u32
        });
        assert_refused(
            &Snapshot::frame(&sections),
            "mutation section without an engine",
        );
    }

    #[test]
    fn tombstone_domain_must_equal_base_plus_delta() {
        let mut sections = sample_snapshot().sections();
        let at = position(&sections, SectionKind::MutationTombstones);
        // 100 base rows + 2 delta rows are addressable, not 101.
        sections[at].2 = meta(|w| {
            w.u64(101);
            w.u32s(&[3]);
        });
        assert_refused(
            &Snapshot::frame(&sections),
            "tombstone domain 101 disagrees with the 102",
        );
    }

    #[test]
    fn tombstone_ids_must_be_strictly_ascending() {
        let mut sections = sample_snapshot().sections();
        let at = position(&sections, SectionKind::MutationTombstones);
        for ids in [[5u32, 3], [3, 3]] {
            sections[at].2 = meta(|w| {
                w.u64(102);
                w.u32s(&ids);
            });
            assert_refused(&Snapshot::frame(&sections), "not strictly ascending");
        }
    }

    #[test]
    fn durability_generation_zero_is_refused() {
        let mut sections = durable_snapshot().sections();
        let at = position(&sections, SectionKind::Durability);
        sections[at].2 = meta(|w| {
            w.u64(0);
            w.u64(3);
        });
        assert_refused(&Snapshot::frame(&sections), "durability generation 0");
    }

    #[test]
    fn nonzero_table_entry_crc_is_refused() {
        let mut bytes = Snapshot::frame(&sample_snapshot().sections());
        // Entry 0's trailing u32: kind + reserved + offset + len precede it.
        bytes[16 + 24] = 1;
        resign_table(&mut bytes);
        assert_refused(&bytes, "carries a section CRC");
    }

    #[test]
    fn overlapping_or_out_of_order_sections_are_refused() {
        let framed = Snapshot::frame(&sample_snapshot().sections());
        // Out of table order: entries 0 and 1 trade places. The walk meets
        // the payload it skipped over where only zero padding may be.
        let mut bytes = framed.clone();
        let (e0, e1) = (16, 16 + TABLE_ENTRY_BYTES);
        let (a, b) = bytes[e0..e1 + TABLE_ENTRY_BYTES].split_at_mut(TABLE_ENTRY_BYTES);
        a.swap_with_slice(b);
        resign_table(&mut bytes);
        assert_refused(&bytes, "nonzero padding between sections");
        // Overlap: entry 1 starts where entry 0 does.
        let mut bytes = framed;
        bytes.copy_within(e0 + 8..e0 + 16, e1 + 8);
        resign_table(&mut bytes);
        assert_refused(&bytes, "overlap or are out of table order");
    }

    #[test]
    fn nonzero_padding_between_sections_is_refused() {
        let sections = sample_snapshot().sections();
        let mut bytes = Snapshot::frame(&sections);
        // The gap between the header and the first payload …
        let gap = header_len(sections.len()) as usize;
        assert_ne!(gap % REGION_ALIGN, 0, "fixture leaves no gap");
        bytes[gap] = 1;
        assert_refused(&bytes, "nonzero padding between sections");
        // … and a gap between two payloads.
        bytes[gap] = 0;
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        let end = info
            .sections
            .iter()
            .map(|s| (s.offset + s.len) as usize)
            .find(|end| end % REGION_ALIGN != 0)
            .expect("fixture leaves no gap");
        bytes[end] = 1;
        assert_refused(&bytes, "nonzero padding between sections");
    }

    #[test]
    fn unknown_section_kind_is_refused() {
        let mut sections = sample_snapshot().sections();
        sections[0].0 = 99;
        let bytes = Snapshot::frame(&sections);
        assert_refused(&bytes, "unknown section kind 99");
        // The header-only reader lists it without judging it.
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        assert_eq!(
            (info.sections[0].kind, info.sections[0].raw_kind),
            (None, 99)
        );
    }

    /// A production-framed file whose first section is relabelled as retired
    /// kind `raw`: both readers must refuse it by `name` and the kind's own
    /// reason, `why`, before decoding a byte of it, while the header-only
    /// reader still lists the table.
    fn assert_retired_kind_refused(raw: u32, name: &str, why: &str) {
        assert_eq!(SectionKind::retired(raw), Some((name, why)));
        let mut bytes = Snapshot::frame(&sample_snapshot().sections());
        bytes[16..20].copy_from_slice(&raw.to_le_bytes());
        resign_table(&mut bytes);
        assert_refused(
            &bytes,
            &format!("section kind {raw} ({name}) was retired: {why}; rebuild it"),
        );
        let info = Snapshot::inspect_bytes(&bytes).unwrap();
        assert_eq!(
            (info.sections[0].kind, info.sections[0].raw_kind),
            (None, raw)
        );
    }

    #[test]
    fn retired_dataset_section_is_refused_by_name() {
        assert_retired_kind_refused(1, "dataset", "a store holds one engine");
    }

    #[test]
    fn retired_sd_index_section_is_refused_by_name() {
        assert_retired_kind_refused(3, "sd-index", "a store holds one engine");
    }

    #[test]
    fn retired_top1_index_section_is_refused_by_name() {
        assert_retired_kind_refused(5, "top1-index", "a store holds one engine");
    }

    #[test]
    fn retired_rstar_tree_section_is_refused_by_name() {
        assert_retired_kind_refused(6, "rstar-tree", "a store holds one engine");
    }

    #[test]
    fn retired_roles_topk_and_old_shard_sections_are_refused_by_name() {
        assert_retired_kind_refused(2, "roles", "the engine manifest carries the roles");
        assert_retired_kind_refused(
            4,
            "topk-index",
            "the §4 dynamic tree is an in-memory library index, never persisted",
        );
        assert_retired_kind_refused(
            8,
            "engine-shard",
            "its layout stored a point table and per-point node records beside each pair's blocks",
        );
        assert_retired_kind_refused(
            12,
            "engine-shard",
            "its layout recorded a pairing, its pairs and a range per unpaired dimension, \
             which no query reads",
        );
        assert_retired_kind_refused(
            13,
            "engine-shard",
            "its box-ordered shards were row ranges under shard-local ids, where a shard is \
             now a cell of one box order under global ids",
        );
        assert_retired_kind_refused(
            14,
            "engine-shard",
            "its 2-D shards kept a second copy of their rows in the pair's blocks, under \
             shard-local ids, where a shard now stores its rows once under global ids",
        );
    }
}
