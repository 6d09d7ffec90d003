//! Lazily-verified section checksums for mapped snapshots.
//!
//! A mapped open does not checksum the whole file: each region of a section
//! carries a CRC-32C that is verified **on first touch** — the first query
//! (or mutation) that would read a region pays one sequential pass over its
//! bytes, and every later access is a single atomic load. CRC-32C
//! (Castagnoli) is the workspace's one checksum — snapshot regions, the
//! section table and the write-ahead log all use [`crc32c`] — because it
//! has a hardware instruction on x86-64 (SSE 4.2), keeping first-touch
//! verification near memory bandwidth; a slice-by-8 software fallback
//! produces bit-identical values elsewhere.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::types::SdError;
use crate::view::ViewKeep;

/// CRC-32C verification state of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcState {
    /// Not yet touched; will be verified on first access.
    Lazy,
    /// Verified (either eagerly at decode or on first touch).
    Verified,
    /// Verification failed; every access reports the typed error.
    Failed,
}

impl CrcState {
    /// Stable lowercase label for CLI/JSON output.
    pub fn label(self) -> &'static str {
        match self {
            CrcState::Lazy => "lazy",
            CrcState::Verified => "verified",
            CrcState::Failed => "failed",
        }
    }
}

const STATE_LAZY: u8 = 0;
const STATE_VERIFIED: u8 = 1;
const STATE_FAILED: u8 = 2;

/// A checksummed byte region of an open snapshot, verified on first touch.
///
/// Query and mutation entry points hold `Arc`s to the regions they read and
/// call [`SectionIntegrity::ensure`] before trusting the bytes. The steady
/// state is one relaxed atomic load per region per query.
pub struct SectionIntegrity {
    name: String,
    file_offset: u64,
    len: u64,
    expected: u32,
    ptr: *const u8,
    state: AtomicU8,
    _keep: Option<ViewKeep>,
}

// The region is immutable mapped (or frozen owned) memory kept alive by
// `_keep`; verification is idempotent, so concurrent `ensure` calls race
// benignly toward the same state.
unsafe impl Send for SectionIntegrity {}
unsafe impl Sync for SectionIntegrity {}

impl SectionIntegrity {
    /// A lazily-verified region of mapped storage.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for `len` immutable bytes for as long as `keep`
    /// is alive.
    pub unsafe fn new_lazy(
        name: String,
        file_offset: u64,
        ptr: *const u8,
        len: usize,
        expected: u32,
        keep: ViewKeep,
    ) -> Arc<Self> {
        Arc::new(SectionIntegrity {
            name,
            file_offset,
            len: len as u64,
            expected,
            ptr,
            state: AtomicU8::new(STATE_LAZY),
            _keep: Some(keep),
        })
    }

    /// A region that was verified as it was read (metadata regions are);
    /// kept so inspection tooling sees a uniform region table.
    pub fn new_verified(name: String, file_offset: u64, len: u64, expected: u32) -> Arc<Self> {
        Arc::new(SectionIntegrity {
            name,
            file_offset,
            len,
            expected,
            ptr: std::ptr::null(),
            state: AtomicU8::new(STATE_VERIFIED),
            _keep: None,
        })
    }

    /// Region name, e.g. `shard2/pair0/blocks.xs`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Byte offset of the region's data inside the snapshot file.
    pub fn file_offset(&self) -> u64 {
        self.file_offset
    }

    /// Length of the checksummed data in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Expected CRC-32C of the region.
    pub fn expected_crc(&self) -> u32 {
        self.expected
    }

    /// Current verification state.
    pub fn state(&self) -> CrcState {
        match self.state.load(Ordering::Acquire) {
            STATE_VERIFIED => CrcState::Verified,
            STATE_FAILED => CrcState::Failed,
            _ => CrcState::Lazy,
        }
    }

    /// Verifies the region on first call; later calls are one atomic load.
    pub fn ensure(&self) -> Result<(), SdError> {
        match self.state.load(Ordering::Acquire) {
            STATE_VERIFIED => return Ok(()),
            STATE_FAILED => return self.fail(),
            _ => {}
        }
        // Safety: `ptr`/`len` valid per `new_lazy`'s contract (a verified-
        // at-decode region never reaches here).
        let data = unsafe { std::slice::from_raw_parts(self.ptr, self.len as usize) };
        let t0 = std::time::Instant::now();
        let ok = crc32c(data) == self.expected;
        // First-touch verification is a lifecycle event; regions have no
        // engine handle, so it lands in the process-global registry.
        let tel = crate::telemetry::Telemetry::global();
        tel.verify.record(t0.elapsed());
        tel.journal.push(crate::telemetry::EventKind::LazyVerify {
            bytes: self.len,
            ok,
            crc: self.expected,
        });
        self.state.store(
            if ok { STATE_VERIFIED } else { STATE_FAILED },
            Ordering::Release,
        );
        if ok {
            Ok(())
        } else {
            self.fail()
        }
    }

    fn fail(&self) -> Result<(), SdError> {
        Err(SdError::SnapshotChecksum {
            section: self.name.clone(),
        })
    }
}

impl std::fmt::Debug for SectionIntegrity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectionIntegrity")
            .field("name", &self.name)
            .field("file_offset", &self.file_offset)
            .field("len", &self.len)
            .field("state", &self.state().label())
            .finish()
    }
}

/// Ensures every region in a set, failing on the first bad checksum.
pub fn ensure_all(regions: &[Arc<SectionIntegrity>]) -> Result<(), SdError> {
    for r in regions {
        r.ensure()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli), reflected, init/xorout 0xFFFF_FFFF.
// ---------------------------------------------------------------------------

const POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32C of `data` (hardware-accelerated on SSE 4.2, software elsewhere).
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // Safety: feature presence just checked.
            return unsafe { crc32c_hw(data) };
        }
    }
    crc32c_sw(data)
}

fn crc32c_sw(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc: u64 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_answer() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c_sw(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_sw(b""), 0);
    }

    #[test]
    fn hw_and_sw_agree() {
        let data: Vec<u8> = (0..4099u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 4099] {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
    }

    /// Reference bit-at-a-time implementation for differential testing.
    fn crc32c_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn matches_reference_on_all_lengths() {
        // Lengths 0..64 cover every remainder-vs-chunks split.
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=data.len() {
            let want = crc32c_reference(&data[..len]);
            assert_eq!(crc32c_sw(&data[..len]), want, "software, len {len}");
            assert_eq!(crc32c(&data[..len]), want, "dispatched, len {len}");
        }
    }

    #[test]
    fn lazy_region_verifies_once_then_caches() {
        let backing: Arc<Vec<u8>> = Arc::new((0..1000u32).map(|i| i as u8).collect());
        let crc = crc32c(&backing);
        let keep: ViewKeep = backing.clone();
        let region = unsafe {
            SectionIntegrity::new_lazy("test/region".into(), 64, backing.as_ptr(), 1000, crc, keep)
        };
        assert_eq!(region.state(), CrcState::Lazy);
        region.ensure().unwrap();
        assert_eq!(region.state(), CrcState::Verified);
        region.ensure().unwrap();
    }

    #[test]
    fn corrupt_region_fails_with_typed_error() {
        let backing: Arc<Vec<u8>> = Arc::new(vec![1, 2, 3, 4]);
        let keep: ViewKeep = backing.clone();
        let region = unsafe {
            SectionIntegrity::new_lazy(
                "bad/region".into(),
                0,
                backing.as_ptr(),
                4,
                0xDEAD_BEEF,
                keep,
            )
        };
        let err = region.ensure().unwrap_err();
        assert!(
            matches!(err, SdError::SnapshotChecksum { ref section } if section == "bad/region")
        );
        assert_eq!(region.state(), CrcState::Failed);
        // The failure is sticky.
        assert!(region.ensure().is_err());
    }

    #[test]
    fn verified_region_reports_verified() {
        let region = SectionIntegrity::new_verified("eager".into(), 128, 16, 7);
        assert_eq!(region.state(), CrcState::Verified);
        region.ensure().unwrap();
    }
}
