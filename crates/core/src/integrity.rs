//! Lazily-verified section checksums for mapped snapshots.
//!
//! A mapped open does not checksum the whole file: each region of a section
//! carries a CRC-32C that is verified **on first touch** — the first query
//! (or mutation) that would read a region pays one sequential pass over its
//! bytes, and every later access is a single atomic load. CRC-32C
//! (Castagnoli) is the workspace's one checksum — snapshot regions, the
//! section table and the write-ahead log all use [`crc32c`] — because it
//! has a hardware instruction on x86-64 (SSE 4.2); a slice-by-8 software
//! arm produces bit-identical values where the instruction is missing or
//! the kernels are pinned to scalar (`SDQ_FORCE_SCALAR`).
//!
//! ## Three streams
//!
//! The `crc32` instruction takes 3 cycles to produce its result but can
//! start one per cycle, so a single chain of them — each step waiting on the
//! last — runs at a third of what the core can do. The hardware arm
//! therefore cuts the input into blocks of three adjacent thirds, runs an
//! independent chain over each third side by side, and joins them: a chain
//! from register `r` over `A‖B` ends where `shift_|B|(chain from r over A)`
//! XOR `chain from 0 over B` ends, where `shift_L` — appending `L` zero
//! bytes — is linear over GF(2). Each `shift_L` is four 256-entry tables
//! built at compile time (Adler's construction), so a join is eight table
//! reads.
//!
//! Blocks are 3 × 8 KiB while that much input remains: the two joins cost
//! a few nanoseconds against the ≈ 1.3 µs the block takes, and 24 KiB of
//! input in flight stays inside L1. Then 3 × 256 B blocks take what is left
//! down to 768 B, where a join still costs a fraction of the single chain it
//! replaces. The last < 768 B — so every input that short, such as a WAL
//! record — runs the single chain. On a 2-core x86-64 VM (Xeon, AVX-512
//! class) the single chain measured 6.3–7.0 GB/s and the three streams
//! 17–20 GB/s over a 16 MiB buffer, so the 8.5 MB of regions of a 100k-row
//! 4-D four-shard store are ≈ 0.45 ms of checksum instead of ≈ 1.3 ms.

#![deny(unsafe_op_in_unsafe_fn)]

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

// SAFETY: `ptr` is the only field that is not `Send` on its own. It points
// at immutable mapped (or frozen owned) bytes that `_keep` — itself `Send`
// and `Sync` — keeps alive wherever the region goes, and nothing ever
// writes through it.
unsafe impl Send for SectionIntegrity {}
// SAFETY: shared access reads `ptr`'s bytes, which never change, and moves
// `state` only by atomic loads and stores; verification is idempotent, so
// concurrent `ensure` calls race benignly toward the same state.
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
        // SAFETY: `ptr`/`len` valid per `new_lazy`'s contract (a verified-
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

/// Bytes per stream of the long three-stream block (3 × 8 KiB).
const LONG: usize = 8192;
/// Bytes per stream of the short three-stream block (3 × 256 B).
const SHORT: usize = 256;

/// "Append `len` zero bytes" as a linear map on the CRC register, one
/// 256-entry table per register byte: `T[j][b]` is the register that
/// `b << 8j` becomes after `len` zero bytes, and by linearity over GF(2)
/// the image of any register is the XOR of its four bytes' entries.
type ZerosOperator = [[u32; 256]; 4];

/// The image of `v` under a 32 × 32 GF(2) matrix given by its columns
/// (`m[i]` is the image of bit `i`).
const fn gf2_apply(m: &[u32; 32], mut v: u32) -> u32 {
    let (mut out, mut i) = (0, 0);
    while v != 0 {
        if v & 1 != 0 {
            out ^= m[i];
        }
        v >>= 1;
        i += 1;
    }
    out
}

/// The matrix of `a` after `b`.
const fn gf2_compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0; 32];
    let mut i = 0;
    while i < 32 {
        out[i] = gf2_apply(a, b[i]);
        i += 1;
    }
    out
}

/// Builds the [`ZerosOperator`] for `len` zero bytes (Adler's construction):
/// the one-zero-byte matrix raised to the `len`th power by squaring, then
/// tabulated per register byte.
const fn zeros_operator(len: usize) -> ZerosOperator {
    // One zero byte: eight register shifts, each folding the polynomial in
    // when a one falls off the end.
    let mut byte = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut crc = 1u32 << i;
        let mut b = 0;
        while b < 8 {
            crc = (crc >> 1) ^ (POLY & 0u32.wrapping_sub(crc & 1));
            b += 1;
        }
        byte[i] = crc;
        i += 1;
    }
    let mut op = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        op[i] = 1 << i;
        i += 1;
    }
    let mut n = len;
    while n > 0 {
        if n & 1 != 0 {
            op = gf2_compose(&byte, &op);
        }
        byte = gf2_compose(&byte, &byte);
        n >>= 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            tables[j][b] = gf2_apply(&op, (b as u32) << (8 * j));
            b += 1;
        }
        j += 1;
    }
    tables
}

static ZEROS_LONG: ZerosOperator = zeros_operator(LONG);
static ZEROS_SHORT: ZerosOperator = zeros_operator(SHORT);

/// The register `crc` becomes after the zero bytes `op` stands for.
#[inline]
fn shift(op: &ZerosOperator, crc: u32) -> u32 {
    op[0][(crc & 0xFF) as usize]
        ^ op[1][((crc >> 8) & 0xFF) as usize]
        ^ op[2][((crc >> 16) & 0xFF) as usize]
        ^ op[3][(crc >> 24) as usize]
}

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

/// CRC-32C of `data`: the SSE 4.2 instruction in three streams where the
/// host has it and the kernels are not pinned to [`Isa::Scalar`] (by
/// `SDQ_FORCE_SCALAR` or [`force_scalar`](crate::kernels::force_scalar)),
/// the slice-by-8 tables otherwise. Both arms give the same value.
///
/// [`Isa::Scalar`]: crate::kernels::Isa::Scalar
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        use crate::kernels::{active, Isa};
        if active() != Isa::Scalar && std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `crc32c_hw` needs SSE 4.2, whose presence was just
            // checked.
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

/// The hardware arm: three independent `crc32` chains over the adjacent
/// thirds of each 3 × [`LONG`], then each 3 × [`SHORT`] block, joined by
/// the zero-byte operators; the last `< 3 × SHORT` bytes (and so any input
/// that short) take the single chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_hw(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32;
    let mut rest = data;
    while let Some((block, tail)) = rest.split_at_checked(3 * LONG) {
        crc = three_streams::<LONG>(crc, block, &ZEROS_LONG);
        rest = tail;
    }
    while let Some((block, tail)) = rest.split_at_checked(3 * SHORT) {
        crc = three_streams::<SHORT>(crc, block, &ZEROS_SHORT);
        rest = tail;
    }
    let mut words = rest.chunks_exact(8);
    let mut crc = u64::from(crc);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The little-endian `u64` of an 8-byte chunk.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"))
}

/// One `3 × L`-byte block: the register `crc` carried through the first
/// third, the other two thirds from a zero register — three chains the
/// core runs side by side, since each `crc32` waits only on its own chain —
/// then `shift(shift(c0) ^ c1) ^ c2`, which is the register one chain over
/// the whole block would have reached.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[inline]
fn three_streams<const L: usize>(crc: u32, block: &[u8], op: &ZerosOperator) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let (a, bc) = block.split_at(L);
    let (b, c) = bc.split_at(L);
    let thirds = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8));
    let (mut c0, mut c1, mut c2) = (u64::from(crc), 0u64, 0u64);
    for ((x, y), z) in thirds {
        c0 = _mm_crc32_u64(c0, word(x));
        c1 = _mm_crc32_u64(c1, word(y));
        c2 = _mm_crc32_u64(c2, word(z));
    }
    shift(op, shift(op, c0 as u32) ^ c1 as u32) ^ c2 as u32
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

    /// Reference bit-at-a-time register update for differential testing:
    /// the register `crc` becomes after `bytes`, no inversions.
    fn reference_register(mut crc: u32, bytes: &[u8]) -> u32 {
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
        crc
    }

    /// Reference bit-at-a-time CRC-32C.
    fn crc32c_reference(bytes: &[u8]) -> u32 {
        !reference_register(!0, bytes)
    }

    /// The hardware arm when this host has it.
    fn hw(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE 4.2 presence just checked.
            return Some(unsafe { crc32c_hw(bytes) });
        }
        let _ = bytes;
        None
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
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

    /// Every cut of the three-stream arm — no block, a short block ± 1, a
    /// long block ± 1, a long then a short block then a tail, and a long
    /// run of long blocks — from every start offset within a word.
    #[test]
    fn three_streams_slice_by_8_and_reference_agree() {
        let mut lens: Vec<usize> = (0..=64).collect();
        for block in [3 * SHORT, 3 * LONG] {
            lens.extend([block - 1, block, block + 1]);
        }
        lens.extend([3 * LONG + 3 * SHORT + 7, (1 << 20) + 5]);
        let data = pattern((1 << 20) + 5 + 8);
        for len in lens {
            for off in 0..8 {
                let bytes = &data[off..off + len];
                let want = crc32c_reference(bytes);
                assert_eq!(crc32c_sw(bytes), want, "slice-by-8, len {len} at {off}");
                if let Some(got) = hw(bytes) {
                    assert_eq!(got, want, "three streams, len {len} at {off}");
                }
                assert_eq!(crc32c(bytes), want, "dispatched, len {len} at {off}");
            }
        }
    }

    /// `T[j][b]` is the register `b << 8j` turns into over `len` zero bytes.
    #[test]
    fn zeros_operators_match_the_reference() {
        for (len, op) in [(SHORT, &ZEROS_SHORT), (LONG, &ZEROS_LONG)] {
            let zeros = vec![0u8; len];
            for (j, table) in op.iter().enumerate() {
                for (b, &entry) in table.iter().enumerate() {
                    let reg = (b as u32) << (8 * j);
                    assert_eq!(
                        entry,
                        reference_register(reg, &zeros),
                        "len {len} T[{j}][{b}]"
                    );
                }
            }
        }
    }

    #[test]
    fn a_flip_in_any_third_of_a_long_block_is_caught() {
        let data = pattern(3 * LONG);
        let clean = crc32c(&data);
        for at in [5, LONG + 1234, 3 * LONG - 1] {
            let mut flipped = data.clone();
            flipped[at] ^= 0x10;
            let want = crc32c_reference(&flipped);
            assert_ne!(want, clean, "byte {at}");
            assert_eq!(crc32c(&flipped), want, "dispatched, byte {at}");
            if let Some(got) = hw(&flipped) {
                assert_eq!(got, want, "three streams, byte {at}");
            }
        }
    }

    #[test]
    fn lazy_region_verifies_once_then_caches() {
        let backing: Arc<Vec<u8>> = Arc::new((0..1000u32).map(|i| i as u8).collect());
        let crc = crc32c(&backing);
        let keep: ViewKeep = backing.clone();
        // SAFETY: `keep` holds `backing`, so its 1000 bytes outlive the region.
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
        // SAFETY: `keep` holds `backing`, so its 4 bytes outlive the region.
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
