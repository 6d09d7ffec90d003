//! The mutation write-ahead log: an append-only record stream that makes
//! engine writes durable before they are applied.
//!
//! ## File format (version 1)
//!
//! ```text
//! header (36 bytes, written atomically via temp-file + rename):
//! offset  size  field
//! ------  ----  -----
//!      0     8  magic  b"SDQWAL\0\0"
//!      8     4  wal format version (u32 LE)
//!     12     4  dims (u32 LE) — arity of every insert payload
//!     16     8  generation (u64 LE) — must match the paired snapshot's
//!               durability generation
//!     24     8  base rows (u64 LE) — the engine's addressable row count
//!               (base + delta) when this log was started
//!     32     4  CRC-32C of bytes [8, 32)
//!
//! records, back to back:
//!     [len u32 LE][crc32c u32 LE of payload][payload]
//!     payload: op u8 (1 = insert, 2 = insert-rows, 3 = delete) + body
//! ```
//!
//! Every record carries its own CRC-32C (Castagnoli — the same
//! `sdq_core::integrity::crc32c` the snapshot regions use), so torn tails
//! and corruption are detected record by record. A log framed with any
//! other checksum — one written before the store settled on CRC-32C —
//! fails the header check and is refused by both readers, never
//! "recovered". Two readers exist:
//!
//! * [`read_strict`] — every byte must verify; any defect is a typed
//!   [`SdError`]. Used by `sdq inspect` and the corruption test sweeps.
//! * [`recover`] — crash recovery. A *torn tail* (a record cut short by
//!   the crash, or an undecodable final record) ends the log: everything
//!   before it replays, the tail is reported for physical truncation. A
//!   defective record that is *followed by a valid one* cannot be a torn
//!   tail — that is mid-log corruption and stays a typed error, because
//!   silently dropping acknowledged records would break the durability
//!   contract.

use sdq_core::codec::{corrupt, Reader, Writer};
use sdq_core::integrity::crc32c;
use sdq_core::SdError;

/// `b"SDQWAL\0\0"` — the first 8 bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"SDQWAL\0\0";

/// The newest WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

/// Fixed header size: magic + version + dims + generation + base rows +
/// header CRC.
pub const WAL_HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 8 + 4;

/// Per-record framing overhead: length prefix + payload CRC.
pub const RECORD_PREFIX_BYTES: usize = 4 + 4;

/// Sanity cap on one record's payload — rejects absurd length prefixes
/// from corrupt frames before any allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

const OP_INSERT: u8 = 1;
const OP_INSERT_ROWS: u8 = 2;
const OP_DELETE: u8 = 3;

/// The WAL file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Arity of every insert payload.
    pub dims: u32,
    /// Checkpoint generation; pairs the log with one snapshot.
    pub generation: u64,
    /// The engine's addressable rows (base + delta) when the log started.
    pub base_rows: u64,
}

impl WalHeader {
    /// Serialises the header (fixed [`WAL_HEADER_BYTES`] length).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WAL_HEADER_BYTES);
        out.extend_from_slice(&WAL_MAGIC);
        out.extend_from_slice(&WAL_VERSION.to_le_bytes());
        out.extend_from_slice(&self.dims.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.base_rows.to_le_bytes());
        let crc = crc32c(&out[8..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and fully verifies the header at the start of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self, SdError> {
        if bytes.len() < WAL_HEADER_BYTES {
            return Err(corrupt(format!(
                "write-ahead log is {} bytes, shorter than the {WAL_HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != WAL_MAGIC {
            return Err(corrupt("write-ahead log has wrong magic"));
        }
        let stored_crc = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes"));
        if crc32c(&bytes[8..32]) != stored_crc {
            return Err(SdError::SnapshotChecksum {
                section: "wal header".to_string(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(corrupt(format!(
                "write-ahead log format v{version} (this build reads v{WAL_VERSION})"
            )));
        }
        let dims = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if dims == 0 {
            return Err(corrupt("write-ahead log header names 0 dimensions"));
        }
        let generation = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let base_rows = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        Ok(WalHeader {
            dims,
            generation,
            base_rows,
        })
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One inserted row (`dims` coordinates).
    Insert(Vec<f64>),
    /// One inserted batch (each row `dims` coordinates).
    InsertRows(Vec<Vec<f64>>),
    /// One tombstoned global row id.
    Delete(u32),
}

impl WalRecord {
    /// Frames the record: `[len][crc][payload]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::Insert(row) => {
                w.u8(OP_INSERT);
                w.f64s(row);
            }
            WalRecord::InsertRows(rows) => {
                w.u8(OP_INSERT_ROWS);
                w.usize(rows.len());
                let flat: Vec<f64> = rows.iter().flatten().copied().collect();
                w.f64s(&flat);
            }
            WalRecord::Delete(id) => {
                w.u8(OP_DELETE);
                w.u32(*id);
            }
        }
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(RECORD_PREFIX_BYTES + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32c(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode_payload(payload: &[u8], dims: u32, idx: usize) -> Result<Self, SdError> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let rec = match op {
            OP_INSERT => {
                let row = r.f64s()?;
                if row.len() != dims as usize {
                    return Err(corrupt(format!(
                        "wal record {idx}: insert carries {} coordinates for {dims} dims",
                        row.len()
                    )));
                }
                WalRecord::Insert(row)
            }
            OP_INSERT_ROWS => {
                let count = r.usize()?;
                let flat = r.f64s()?;
                if count == 0 || flat.len() != count * dims as usize {
                    return Err(corrupt(format!(
                        "wal record {idx}: insert-rows claims {count} rows × {dims} dims \
                         but carries {} coordinates",
                        flat.len()
                    )));
                }
                WalRecord::InsertRows(
                    flat.chunks_exact(dims as usize)
                        .map(<[f64]>::to_vec)
                        .collect(),
                )
            }
            OP_DELETE => WalRecord::Delete(r.u32()?),
            other => {
                return Err(corrupt(format!("wal record {idx}: unknown op {other}")));
            }
        };
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "wal record {idx}: trailing bytes after payload"
            )));
        }
        Ok(rec)
    }

    /// Rows this record acknowledges (1 per insert row, 0 for deletes) —
    /// observability only.
    pub fn row_delta(&self) -> u64 {
        match self {
            WalRecord::Insert(_) => 1,
            WalRecord::InsertRows(rows) => rows.len() as u64,
            WalRecord::Delete(_) => 0,
        }
    }
}

/// Why a record failed to parse — drives the torn-tail/corruption split.
enum ScanErr {
    /// The file ends inside the record (or the frame is unsized); no
    /// extent to look past.
    Torn(String),
    /// The record's extent is intact but its CRC does not match.
    BadCrc(usize),
    /// The record's extent and CRC are intact but the payload is invalid.
    BadPayload(SdError),
}

impl ScanErr {
    fn into_error(self) -> SdError {
        match self {
            ScanErr::Torn(detail) => corrupt(detail),
            ScanErr::BadCrc(idx) => SdError::SnapshotChecksum {
                section: format!("wal record {idx}"),
            },
            ScanErr::BadPayload(err) => err,
        }
    }
}

/// Parses the record starting at `offset`. `Ok(None)` = clean end of log.
fn parse_one(
    bytes: &[u8],
    offset: usize,
    dims: u32,
    idx: usize,
) -> Result<Option<(WalRecord, usize)>, ScanErr> {
    if offset == bytes.len() {
        return Ok(None);
    }
    let remaining = bytes.len() - offset;
    if remaining < RECORD_PREFIX_BYTES {
        return Err(ScanErr::Torn(format!(
            "wal record {idx}: {remaining}-byte tail is shorter than the record frame"
        )));
    }
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(ScanErr::Torn(format!(
            "wal record {idx}: frame claims {len} payload bytes"
        )));
    }
    let len = len as usize;
    if remaining - RECORD_PREFIX_BYTES < len {
        return Err(ScanErr::Torn(format!(
            "wal record {idx}: frame claims {len} payload bytes but only {} remain",
            remaining - RECORD_PREFIX_BYTES
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
    let payload = &bytes[offset + RECORD_PREFIX_BYTES..offset + RECORD_PREFIX_BYTES + len];
    if crc32c(payload) != stored_crc {
        return Err(ScanErr::BadCrc(idx));
    }
    let rec = WalRecord::decode_payload(payload, dims, idx).map_err(ScanErr::BadPayload)?;
    Ok(Some((rec, offset + RECORD_PREFIX_BYTES + len)))
}

/// A fully verified WAL.
#[derive(Debug, Clone)]
pub struct WalContents {
    /// The verified header.
    pub header: WalHeader,
    /// Every record, in append order.
    pub records: Vec<WalRecord>,
}

/// Reads and verifies the whole log; any defect — torn tail included — is
/// a typed [`SdError`].
pub fn read_strict(bytes: &[u8]) -> Result<WalContents, SdError> {
    let header = WalHeader::decode(bytes)?;
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_BYTES;
    loop {
        match parse_one(bytes, offset, header.dims, records.len()) {
            Ok(None) => return Ok(WalContents { header, records }),
            Ok(Some((rec, next))) => {
                records.push(rec);
                offset = next;
            }
            Err(e) => return Err(e.into_error()),
        }
    }
}

/// What [`recover`] salvaged.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// The verified header.
    pub header: WalHeader,
    /// Every record before the torn tail, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid region (header + intact records); the
    /// caller truncates the physical file to this.
    pub valid_len: u64,
    /// Bytes past `valid_len` — the torn tail being dropped (0 = clean).
    pub truncated_bytes: u64,
}

/// Crash recovery: replays up to the torn tail, which is reported for
/// truncation. Mid-log corruption (a bad record with a valid record after
/// it) and header corruption stay typed errors — see the module docs.
pub fn recover(bytes: &[u8]) -> Result<WalRecovery, SdError> {
    let header = WalHeader::decode(bytes)?;
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_BYTES;
    loop {
        match parse_one(bytes, offset, header.dims, records.len()) {
            Ok(None) => {
                return Ok(WalRecovery {
                    header,
                    records,
                    valid_len: offset as u64,
                    truncated_bytes: 0,
                })
            }
            Ok(Some((rec, next))) => {
                records.push(rec);
                offset = next;
            }
            Err(e) => {
                if let ScanErr::BadCrc(_) | ScanErr::BadPayload(_) = &e {
                    // The extent is intact; if an intact record follows,
                    // this is mid-log corruption, not a torn tail.
                    let len =
                        u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
                            as usize;
                    let after = offset + RECORD_PREFIX_BYTES + len;
                    if matches!(
                        parse_one(bytes, after, header.dims, records.len() + 1),
                        Ok(Some(_))
                    ) {
                        return Err(e.into_error());
                    }
                }
                return Ok(WalRecovery {
                    header,
                    records,
                    valid_len: offset as u64,
                    truncated_bytes: (bytes.len() - offset) as u64,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_wal() -> Vec<u8> {
        let mut bytes = WalHeader {
            dims: 3,
            generation: 2,
            base_rows: 30,
        }
        .encode();
        bytes.extend(WalRecord::Insert(vec![1.0, 2.0, 3.0]).encode());
        bytes
            .extend(WalRecord::InsertRows(vec![vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]).encode());
        bytes.extend(WalRecord::Delete(17).encode());
        bytes
    }

    #[test]
    fn strict_read_roundtrips() {
        let bytes = sample_wal();
        let wal = read_strict(&bytes).unwrap();
        assert_eq!(
            wal.header,
            WalHeader {
                dims: 3,
                generation: 2,
                base_rows: 30
            }
        );
        assert_eq!(wal.records.len(), 3);
        assert_eq!(wal.records[0], WalRecord::Insert(vec![1.0, 2.0, 3.0]));
        assert_eq!(wal.records[2], WalRecord::Delete(17));
        assert_eq!(wal.records.iter().map(WalRecord::row_delta).sum::<u64>(), 3);
    }

    #[test]
    fn empty_log_is_valid() {
        let bytes = WalHeader {
            dims: 2,
            generation: 1,
            base_rows: 0,
        }
        .encode();
        let wal = read_strict(&bytes).unwrap();
        assert!(wal.records.is_empty());
        let rec = recover(&bytes).unwrap();
        assert_eq!(rec.valid_len, WAL_HEADER_BYTES as u64);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn every_flipped_byte_is_a_typed_strict_error() {
        let bytes = sample_wal();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            let err = read_strict(&mutated)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {pos} went undetected"));
            assert!(
                matches!(
                    err,
                    SdError::SnapshotChecksum { .. } | SdError::SnapshotCorrupt { .. }
                ),
                "flip at byte {pos}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_mid_record_is_a_typed_strict_error() {
        let bytes = sample_wal();
        let header_end = WAL_HEADER_BYTES;
        // Record boundaries are the only valid cut points.
        let mut boundaries = vec![header_end];
        let mut offset = header_end;
        while offset < bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += RECORD_PREFIX_BYTES + len;
            boundaries.push(offset);
        }
        for cut in 0..bytes.len() {
            let result = read_strict(&bytes[..cut]);
            if boundaries.contains(&cut) {
                assert!(result.is_ok(), "cut at boundary {cut} must parse");
            } else {
                assert!(result.is_err(), "cut at {cut} went undetected");
            }
        }
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let mut bytes = sample_wal();
        let full_len = bytes.len();
        bytes.truncate(full_len - 3); // tear the final record
        let rec = recover(&bytes).unwrap();
        assert_eq!(rec.records.len(), 2, "the intact records replay");
        assert_eq!(
            rec.truncated_bytes as usize,
            bytes.len() - rec.valid_len as usize
        );
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn recover_truncates_garbage_tail() {
        let mut bytes = sample_wal();
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&[0xAB; 23]);
        let rec = recover(&bytes).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.valid_len, valid);
        assert_eq!(rec.truncated_bytes, 23);
        // Strict reading of the same bytes is a typed error.
        assert!(read_strict(&bytes).is_err());
    }

    #[test]
    fn recover_rejects_mid_log_corruption() {
        let mut bytes = sample_wal();
        // Flip one payload byte of the *first* record: valid records
        // follow, so this cannot be a torn tail.
        let pos = WAL_HEADER_BYTES + RECORD_PREFIX_BYTES + 2;
        bytes[pos] ^= 0xFF;
        let err = recover(&bytes).unwrap_err();
        assert!(
            matches!(err, SdError::SnapshotChecksum { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn recover_truncates_final_record_corruption() {
        // A flipped byte in the very last record is indistinguishable from
        // a torn tail — recovery drops it rather than failing.
        let mut bytes = sample_wal();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        let rec = recover(&bytes).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut bytes = sample_wal();
        bytes[0] = b'X';
        assert!(matches!(
            read_strict(&bytes).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
        let mut bytes = WalHeader {
            dims: 2,
            generation: 1,
            base_rows: 0,
        }
        .encode();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        // Version is covered by the header CRC, so a bare field edit is a
        // checksum error; a consistently re-signed header is a version
        // error.
        assert!(read_strict(&bytes).is_err());
        let crc = crc32c(&bytes[8..32]);
        bytes[32..36].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_strict(&bytes).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
    }
}
