//! Serde-free binary codecs for every queryable artifact.
//!
//! The persistence subsystem (`sdq-store`) serialises datasets and indexes
//! into compact little-endian buffers through the [`Codec`] trait defined
//! here. The trait lives in `sdq-core` because faithful round-trips need the
//! `pub(crate)` internals of [`SdIndex`].
//!
//! There is one encoding. Small structural fields go into framed
//! *metadata regions* (`[crc32c u32][len u64][bytes]`, verified as they are
//! read); the hot arrays (coordinate tables, an index's id column and
//! chunk first ids, a walked pair's envelope tables, a box-ordered index's
//! chunk boxes) go into framed *array regions* (`[crc32c u32]
//! [count u64][zero pad to 64][raw little-endian elements]`) whose payload
//! is the exact in-memory representation. `sdq-store` stores these bytes
//! verbatim as snapshot section payloads.
//!
//! There is one decode, too. [`Reader::new_mapped`] walks a payload that
//! sits in a pinned, 64-byte-aligned buffer — a file mapping, or the one
//! heap buffer a file was read into — and every array region becomes a
//! [`ColumnarView`] borrowed from it, its checksum deferred to a
//! [`SectionIntegrity`] handle; nothing is copied. What differs between
//! callers is only when the deferred work runs:
//!
//! * a lazy open (`Snapshot::open_mapped`) leaves it to first touch — each
//!   query entry ensures the regions it reads;
//! * an eager open ([`decode_from_slice`], `Snapshot::load` / `from_bytes`,
//!   `DurableEngine::open`) verifies every region checksum and then runs
//!   [`Codec::verify_decoded`] — the content checks only an eager open
//!   makes (finite coordinates, each chunk's first id its smallest) —
//!   before it returns, and drops the lazy sets so later queries pay
//!   nothing.
//!
//! An index's row ids name rows of its engine's id space — a shard is one
//! cell of an engine's rows — so the engine checks them, not the decode:
//! every id once at an eager open and in compaction
//! ([`multidim::id_census`](crate::multidim::id_census)), every id in range
//! before a mapped engine's first answer.
//!
//! Decoding is **panic-free by contract**: every length is bounds-checked
//! against the remaining buffer before allocation, every index is validated
//! against its target table, and every structural inconsistency surfaces as
//! [`SdError::SnapshotCorrupt`] — never as a panic or out-of-bounds access
//! at query time. The region checksums are the first line of defence; the
//! validation here is the second.
//!
//! ## Round-tripping a dataset
//!
//! ```
//! use sdq_core::codec::{decode_from_slice, encode_to_vec};
//! use sdq_core::Dataset;
//!
//! let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0]]).unwrap();
//! let bytes = encode_to_vec(&data);
//! let back: Dataset = decode_from_slice(&bytes).unwrap();
//! assert_eq!(back, data);
//! ```
//!
//! ## Round-tripping an index
//!
//! ```
//! use sdq_core::codec::{decode_from_slice, encode_to_vec};
//! use sdq_core::multidim::SdIndex;
//! use sdq_core::{Dataset, DimRole, SdQuery};
//!
//! let data = Dataset::from_rows(2, &[vec![0.0, 1.0], vec![2.0, 5.0], vec![4.0, 3.0]]).unwrap();
//! let roles = [DimRole::Attractive, DimRole::Repulsive];
//! let index = SdIndex::build(data, &roles).unwrap();
//! let back: SdIndex = decode_from_slice(&encode_to_vec(&index)).unwrap();
//! let q = SdQuery::uniform_weights(vec![1.0, 1.0], &roles);
//! assert_eq!(back.query(&q, 2).unwrap(), index.query(&q, 2).unwrap());
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::Arc;

use crate::geometry::Angle;
use crate::integrity::{crc32c, ensure_all, SectionIntegrity};
use crate::multidim::{check_firsts, walked_pair, Layout, SdIndex, CHUNK_ROWS};
use crate::topk::blocks::BlockSet;
use crate::types::{Dataset, SdError, MAX_MAGNITUDE};
use crate::view::{AlignedBytes, ColumnarView, Pod, ViewKeep};
use crate::DimRole;

/// Shorthand used throughout this module.
pub type Result<T> = std::result::Result<T, SdError>;

/// Builds a [`SdError::SnapshotCorrupt`].
pub fn corrupt(detail: impl Into<String>) -> SdError {
    SdError::SnapshotCorrupt {
        detail: detail.into(),
    }
}

// ─── byte-level writer / reader ─────────────────────────────────────────────

/// Alignment of array regions (and of section payloads inside the snapshot
/// container): a cache line, so every mapped array starts on one.
pub const REGION_ALIGN: usize = 64;

/// Append-only little-endian byte sink.
///
/// Besides plain scalars the writer emits framed *regions*: `[crc32c u32]
/// [len u64]` headers followed by payload bytes, with array payloads
/// zero-padded to a [`REGION_ALIGN`] boundary so their file image is the
/// exact in-memory representation, reinterpretable in place after `mmap`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Writes a framed metadata region: scalars written by `f` get a
    /// `[crc32c][len]` header so corruption is detected without trusting
    /// any structural field. Regions must not nest.
    pub fn meta_region(&mut self, f: impl FnOnce(&mut Writer)) {
        let header_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 12]);
        let data_at = self.buf.len();
        f(self);
        let len = (self.buf.len() - data_at) as u64;
        let crc = crc32c(&self.buf[data_at..]);
        self.buf[header_at..header_at + 4].copy_from_slice(&crc.to_le_bytes());
        self.buf[header_at + 4..header_at + 12].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes a framed, 64-byte-aligned array region: `[crc32c][count]`,
    /// zero padding to the next [`REGION_ALIGN`] boundary, then the raw
    /// little-endian element bytes (the exact in-memory representation).
    pub fn pod_array<T: Pod>(&mut self, vs: &[T]) {
        // SAFETY: `Pod` guarantees no padding bytes and no invalid bit
        // patterns, so the `size_of_val(vs)` bytes at `vs`'s start are
        // initialized, and the byte slice borrows `vs` for its lifetime.
        let bytes: &[u8] = unsafe {
            std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
        };
        let crc = crc32c(bytes);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        let pad = self.buf.len().next_multiple_of(REGION_ALIGN) - self.buf.len();
        self.buf.resize(self.buf.len() + pad, 0);
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one strict `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bulk-appends a length-prefixed `f64` slice (wire-identical to
    /// `Vec<f64>::encode`, but reserves once and skips per-element calls).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Bulk-appends a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Walks the framed regions written by [`Writer::meta_region`] /
/// [`Writer::pod_array`]. Metadata regions are checksum-verified eagerly
/// (they are small and drive all further parsing); array regions become
/// [`ColumnarView`]s borrowed from the buffer, their checksums deferred to
/// the [`SectionIntegrity`] handles the reader collects — which is why a
/// payload with array regions needs [`Reader::new_mapped`]'s keepalive.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What pins `buf`, and whether that is heap memory (as opposed to a
    /// file mapping). `None` for scalar-only readers.
    keep: Option<(ViewKeep, bool)>,
    file_offset: u64,
    prefix: String,
    regions: Vec<Arc<SectionIntegrity>>,
}

impl std::fmt::Debug for Reader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("len", &self.buf.len())
            .field("pos", &self.pos)
            .field("pinned", &self.keep.is_some())
            .finish()
    }
}

impl<'a> Reader<'a> {
    /// Starts reading scalars and metadata regions at the beginning of
    /// `buf`. Array regions need a pinned buffer: see
    /// [`Reader::new_mapped`].
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            keep: None,
            file_offset: 0,
            prefix: String::new(),
            regions: Vec::new(),
        }
    }

    /// A reader over one region-framed payload (a snapshot section) whose
    /// array regions become views borrowed from `buf`. Regions are named
    /// under `prefix` and report absolute file positions, `file_offset` being
    /// the position of `buf[0]` in the snapshot file; `heap` says whether
    /// `keep` owns a heap buffer (so views count towards memory reports) or
    /// a file mapping.
    ///
    /// # Safety
    ///
    /// `buf` must point into memory owned (and kept immutable and alive)
    /// by `keep`, and its start must be [`REGION_ALIGN`]-aligned.
    pub unsafe fn new_mapped(
        buf: &'a [u8],
        keep: ViewKeep,
        heap: bool,
        prefix: impl Into<String>,
        file_offset: u64,
    ) -> Self {
        Reader {
            keep: Some((keep, heap)),
            file_offset,
            prefix: prefix.into(),
            ..Reader::new(buf)
        }
    }

    /// All regions walked so far (for inspection tooling).
    pub fn take_regions(&mut self) -> Vec<Arc<SectionIntegrity>> {
        std::mem::take(&mut self.regions)
    }

    /// Pushes a naming segment for subsequent regions; returns the restore
    /// token for [`Reader::pop_prefix`].
    pub fn push_prefix(&mut self, segment: &str) -> usize {
        let token = self.prefix.len();
        if !self.prefix.is_empty() {
            self.prefix.push('/');
        }
        self.prefix.push_str(segment);
        token
    }

    /// Restores the naming prefix saved by [`Reader::push_prefix`].
    pub fn pop_prefix(&mut self, token: usize) {
        self.prefix.truncate(token);
    }

    fn region_name(&self, label: &str) -> String {
        if self.prefix.is_empty() {
            label.to_string()
        } else {
            format!("{}/{label}", self.prefix)
        }
    }

    /// Reads a framed metadata region written by [`Writer::meta_region`]:
    /// verifies the checksum eagerly, then hands `f` a sub-reader that must
    /// consume the region exactly.
    pub fn meta_region<T>(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut Reader<'_>) -> Result<T>,
    ) -> Result<T> {
        let name = self.region_name(label);
        let crc = self.u32()?;
        let len = self.len_prefix(1)?;
        let off = self.file_offset + self.pos as u64;
        let data = self.take(len)?;
        if crc32c(data) != crc {
            return Err(SdError::SnapshotChecksum { section: name });
        }
        self.regions.push(SectionIntegrity::new_verified(
            name.clone(),
            off,
            len as u64,
            crc,
        ));
        let mut sub = Reader::new(data);
        let v = f(&mut sub)?;
        if !sub.is_exhausted() {
            return Err(corrupt(format!(
                "{} trailing bytes in region {name}",
                sub.remaining()
            )));
        }
        Ok(v)
    }

    /// Reads a framed aligned array region written by [`Writer::pod_array`]:
    /// borrows the bytes in place and defers checksum verification to the
    /// returned [`SectionIntegrity`] handle (also collected for
    /// [`Reader::take_regions`]).
    pub fn pod_array<T: Pod>(
        &mut self,
        label: &str,
    ) -> Result<(ColumnarView<T>, Arc<SectionIntegrity>)> {
        let name = self.region_name(label);
        let crc = self.u32()?;
        let count = self.usize()?;
        // Padding is relative to the payload start, which the container
        // places on a REGION_ALIGN boundary in the file (and the
        // pointer-alignment check below enforces it end to end).
        let pad = self.pos.next_multiple_of(REGION_ALIGN) - self.pos;
        for &b in self.take(pad)? {
            if b != 0 {
                return Err(corrupt(format!("nonzero padding before region {name}")));
            }
        }
        let size = std::mem::size_of::<T>();
        let len_bytes = count
            .checked_mul(size)
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| {
                corrupt(format!(
                    "region {name}: {count} elements inconsistent with {} remaining bytes",
                    self.remaining()
                ))
            })?;
        let off = self.file_offset + self.pos as u64;
        let data = self.take(len_bytes)?;
        #[cfg(target_endian = "big")]
        {
            let _ = (data, off, crc);
            return Err(corrupt(
                "array regions are raw little-endian; unsupported on big-endian targets",
            ));
        }
        #[cfg(target_endian = "little")]
        {
            let Some((keep, heap)) = &self.keep else {
                return Err(corrupt(format!(
                    "array region {name} in a buffer nothing pins (decode through \
                     `decode_from_slice`)"
                )));
            };
            if !(data.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
                return Err(corrupt(format!("misaligned mapped region {name}")));
            }
            // SAFETY: `data` is `count` elements' worth of bytes in
            // `keep`-owned immutable memory (the `new_mapped` contract),
            // and its alignment for `T` was just checked.
            let view = unsafe {
                ColumnarView::mapped(data.as_ptr().cast::<T>(), count, keep.clone(), *heap)
            };
            // SAFETY: the same `len_bytes` bytes, which `keep` keeps
            // immutable and alive as long as the handle holds it.
            let integrity = unsafe {
                SectionIntegrity::new_lazy(name, off, data.as_ptr(), len_bytes, crc, keep.clone())
            };
            self.regions.push(integrity.clone());
            Ok((view, integrity))
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the buffer is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "unexpected end of buffer: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` stored as `u64`, rejecting values over `usize::MAX`.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds usize")))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a strict `0`/`1` bool byte.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads a collection length and guards it against the remaining buffer
    /// (`len * min_elem_bytes` must still fit), so corrupt lengths cannot
    /// trigger huge allocations.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let len = self.usize()?;
        let need = len.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(len),
            _ => Err(corrupt(format!(
                "length prefix {len} inconsistent with {} remaining bytes",
                self.remaining()
            ))),
        }
    }

    /// Bulk-reads a length-prefixed `f64` vector (wire-identical to
    /// `Vec<f64>::decode`, but one bounds check for the whole payload).
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let len = self.len_prefix(8)?;
        let raw = self.take(len * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Bulk-reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>> {
        let len = self.len_prefix(4)?;
        let raw = self.take(len * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

// ─── the trait ──────────────────────────────────────────────────────────────

/// A type with a versionless little-endian binary form.
///
/// Container versioning (magic, format version, checksums) is the snapshot
/// layer's job (`sdq-store`); `Codec` handles only the structural bytes.
pub trait Codec: Sized {
    /// Minimum encoded size in bytes of one value, used to sanity-check
    /// length prefixes before allocating.
    const MIN_ENCODED_BYTES: usize = 1;

    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value, validating structure. Array regions are borrowed
    /// with their checksums still pending and their contents unread.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// The eager half of a decode: verifies every checksum this value still
    /// defers, runs the checks that read array contents (ids in range,
    /// finite values, sort order) and drops the lazy integrity sets, so the
    /// value behaves like one built in memory. Regions a value keeps no
    /// handle to (a bare [`Dataset`]'s coordinates) are the caller's to
    /// verify first — [`decode_from_slice`] and the snapshot layer ensure
    /// every region the reader walked. Types without array regions have
    /// nothing to do.
    fn verify_decoded(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a byte slice, requiring full consumption and
/// verifying everything before returning: the bytes are copied once into an
/// aligned buffer the value's views then borrow, every region checksum is
/// ensured and [`Codec::verify_decoded`] has passed.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T> {
    let buffer = Arc::new(AlignedBytes::copy_from(bytes));
    // SAFETY: `buffer` owns the 64-byte-aligned, never-again-written bytes
    // and is the keepalive every view holds.
    let mut r = unsafe { Reader::new_mapped(buffer.as_slice(), buffer.clone(), true, "", 0) };
    let mut v = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(corrupt(format!(
            "{} trailing bytes after value",
            r.remaining()
        )));
    }
    ensure_all(&r.regions)?;
    v.verify_decoded()?;
    Ok(v)
}

// ─── primitive impls ────────────────────────────────────────────────────────

impl Codec for u32 {
    const MIN_ENCODED_BYTES: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u32()
    }
}

impl Codec for u64 {
    const MIN_ENCODED_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u64()
    }
}

impl Codec for usize {
    const MIN_ENCODED_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.usize(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.usize()
    }
}

impl Codec for f64 {
    const MIN_ENCODED_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.f64()
    }
}

impl Codec for bool {
    const MIN_ENCODED_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.bool()
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_ENCODED_BYTES: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.len_prefix(T::MIN_ENCODED_BYTES)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    fn verify_decoded(&mut self) -> Result<()> {
        self.iter_mut().try_for_each(T::verify_decoded)
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_ENCODED_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(corrupt(format!("invalid Option tag {t:#04x}"))),
        }
    }
    fn verify_decoded(&mut self) -> Result<()> {
        self.as_mut().map_or(Ok(()), T::verify_decoded)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_ENCODED_BYTES: usize = A::MIN_ENCODED_BYTES + B::MIN_ENCODED_BYTES;
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn verify_decoded(&mut self) -> Result<()> {
        self.0.verify_decoded()?;
        self.1.verify_decoded()
    }
}

// ─── shared validation helpers ──────────────────────────────────────────────

fn ensure(cond: bool, detail: impl FnOnce() -> String) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(corrupt(detail()))
    }
}

fn finite_f64(v: f64, what: &str) -> Result<f64> {
    ensure(v.is_finite(), || format!("non-finite {what}: {v}"))?;
    Ok(v)
}

/// Bytes of table one branch-free pass of a content check covers before it
/// tests its violation flag.
pub(crate) const CHECK_CHUNK_BYTES: usize = 4096;

/// The index of the first element of `vs` that is `bad`. Each chunk of
/// [`CHECK_CHUNK_BYTES`] is one pass that ORs `bad` over every element — no
/// early exit, so a simple predicate vectorises — and only a chunk that
/// trips is walked again to name its first offender.
pub(crate) fn first_bad<T>(vs: &[T], bad: impl Fn(&T) -> bool) -> Option<usize> {
    let per = (CHECK_CHUNK_BYTES / std::mem::size_of::<T>()).max(1);
    vs.chunks(per).enumerate().find_map(|(c, chunk)| {
        let tripped = chunk.iter().fold(false, |acc, v| acc | bad(v));
        tripped.then(|| c * per + chunk.iter().position(&bad).expect("the chunk tripped"))
    })
}

/// Every coordinate in `vs` is finite and within ±[`MAX_MAGNITUDE`], as
/// ingest requires ([`crate::check_coordinate`]).
fn finite_slice(vs: &[f64], what: &str) -> Result<()> {
    match first_bad(vs, |v| !(0.0..=MAX_MAGNITUDE).contains(&v.abs())) {
        Some(i) => {
            let v = finite_f64(vs[i], what)?;
            Err(corrupt(format!("{what} beyond ±2^500: {v:e}")))
        }
        None => Ok(()),
    }
}

// ─── domain type impls ──────────────────────────────────────────────────────

impl Codec for Dataset {
    const MIN_ENCODED_BYTES: usize = 16;
    fn encode(&self, w: &mut Writer) {
        w.meta_region(|w| w.usize(self.dims()));
        w.pod_array(self.flat());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let dims = r.meta_region("data.meta", |m| m.usize())?;
        let (coords, _integrity) = r.pod_array::<f64>("data.coords")?;
        Dataset::from_view_trusted(dims, coords)
            .map_err(|e| corrupt(format!("dataset rejected: {e}")))
    }
    fn verify_decoded(&mut self) -> Result<()> {
        finite_slice(self.flat(), "coordinate")
    }
}

impl Codec for DimRole {
    const MIN_ENCODED_BYTES: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            DimRole::Attractive => 0,
            DimRole::Repulsive => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(DimRole::Attractive),
            1 => Ok(DimRole::Repulsive),
            t => Err(corrupt(format!("invalid DimRole tag {t:#04x}"))),
        }
    }
}

impl Codec for Angle {
    const MIN_ENCODED_BYTES: usize = 16;
    fn encode(&self, w: &mut Writer) {
        w.f64(self.cos);
        w.f64(self.sin);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let cos = finite_f64(r.f64()?, "angle cos")?;
        let sin = finite_f64(r.f64()?, "angle sin")?;
        ensure(
            (0.0..=1.0).contains(&cos) && (0.0..=1.0).contains(&sin),
            || format!("angle ({cos}, {sin}) outside the first quadrant"),
        )?;
        ensure((cos * cos + sin * sin - 1.0).abs() < 1e-9, || {
            format!("angle ({cos}, {sin}) not on the unit circle")
        })?;
        Ok(Angle { cos, sin })
    }
}

/// Section layout: one metadata region holding the roles alone
/// (`index.meta`), the dataset's regions (`data.meta`, `data.coords`: the
/// rows by position), the id of every position (`data.ids`, `u32`), then
/// what [`walked_pair`] reads off the roles — a walked pair's §4 envelope
/// tree (`meta` + `blocks.*`, block `b` the rows at positions `[32b, 32b +
/// 32)`) under a `pair0` prefix, or for any other roles the chunk boxes
/// (`data.boxes`, `f32`, per dimension the lows then the highs of every
/// chunk) — and last each chunk's smallest id (`data.firsts`, `u32`).
/// Nothing else is stored, and no other layout decodes: the snapshot layer
/// refuses a shard of an older layout by its section kind before a byte of
/// it is read.
impl Codec for SdIndex {
    fn encode(&self, w: &mut Writer) {
        w.meta_region(|m| self.roles.encode(m));
        self.data.as_ref().encode(w);
        w.pod_array(&self.ids);
        match &self.layout {
            Layout::Pair(blocks) => blocks.encode(w),
            Layout::Boxes(boxes) => w.pod_array(boxes),
        }
        w.pod_array(&self.firsts);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let roles = r.meta_region("index.meta", Vec::<DimRole>::decode)?;
        let mark = r.regions.len();
        let data = Dataset::decode(r)?;
        let (dims, n) = (data.dims(), data.len());
        ensure(roles.len() == dims, || {
            format!("{} roles for {dims} dimensions", roles.len())
        })?;
        let chunks = n.div_ceil(CHUNK_ROWS);
        let (ids, _) = r.pod_array::<u32>("data.ids")?;
        ensure(ids.len() == n, || {
            format!("{} row ids for {n} rows", ids.len())
        })?;
        let layout = match walked_pair(&roles) {
            Some(_) => {
                let token = r.push_prefix("pair0");
                let blocks = BlockSet::decode(r, n);
                r.pop_prefix(token);
                Layout::Pair(blocks?)
            }
            None => {
                let (boxes, _) = r.pod_array::<f32>("data.boxes")?;
                let want = 2 * dims * chunks;
                ensure(boxes.len() == want, || {
                    format!("box order: {} box bounds, expected {want}", boxes.len())
                })?;
                Layout::Boxes(boxes)
            }
        };
        let (firsts, _) = r.pod_array::<u32>("data.firsts")?;
        ensure(firsts.len() == chunks, || {
            format!("{} chunk first ids for {chunks} chunks", firsts.len())
        })?;
        // Every region past `index.meta` is one a query reads: coordinates
        // to score rows; ids and first ids to name and skip them; boxes, or
        // the pair's envelope tree, to bound them.
        let query_integrity = r.regions[mark..].to_vec();
        Ok(SdIndex {
            data: Arc::new(data),
            ids,
            firsts,
            roles,
            layout,
            query_integrity,
        })
    }

    fn verify_decoded(&mut self) -> Result<()> {
        // Region checksums, then everything whose contents only an eager
        // open reads. The ids name rows of an engine's id space, which its
        // census checks (`id_census`).
        self.verify_integrity()?;
        finite_slice(self.data.flat(), "coordinate")?;
        check_firsts(&self.ids, &self.firsts).map_err(corrupt)?;
        self.query_integrity = Vec::new();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdQuery;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.5);
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_read_is_typed_error() {
        let mut r = Reader::new(&[1, 2, 3]);
        let err = r.u64().unwrap_err();
        assert!(matches!(err, SdError::SnapshotCorrupt { .. }));
    }

    #[test]
    fn bad_bool_and_tags_are_corrupt() {
        assert!(matches!(
            Reader::new(&[9]).bool().unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
        assert!(matches!(
            decode_from_slice::<Option<u32>>(&[7, 0, 0, 0, 0]).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
        assert!(matches!(
            decode_from_slice::<DimRole>(&[4]).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let err = decode_from_slice::<Vec<f64>>(&bytes).unwrap_err();
        assert!(matches!(err, SdError::SnapshotCorrupt { .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&42u32);
        bytes.push(0);
        assert!(matches!(
            decode_from_slice::<u32>(&bytes).unwrap_err(),
            SdError::SnapshotCorrupt { .. }
        ));
    }

    #[test]
    fn dataset_roundtrips_and_rejects_nan_payload() {
        let data = Dataset::from_rows(3, &[vec![1.0, 2.0, 3.0], vec![-4.0, 0.0, 9.5]]).unwrap();
        let bytes = encode_to_vec(&data);
        let back: Dataset = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, data);

        // Corrupt one coordinate into NaN: typed error, not a panic.
        let mut w = Writer::new();
        w.meta_region(|w| w.usize(1));
        w.pod_array(&[f64::NAN]);
        let err = decode_from_slice::<Dataset>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, SdError::SnapshotCorrupt { .. }));
    }

    /// Three chunks and a partial fourth of `f64`s.
    fn chunked_values() -> Vec<f64> {
        let per = CHECK_CHUNK_BYTES / 8;
        (0..3 * per + 77).map(|i| i as f64 * 0.5 - 100.0).collect()
    }

    /// Offender positions: the first, a middle and the last chunk, and two
    /// in different chunks at once.
    fn offender_sets(len: usize) -> [Vec<usize>; 5] {
        let per = CHECK_CHUNK_BYTES / 8;
        [
            vec![0],
            vec![per + 5],
            vec![len - 1],
            vec![2 * per + 3, per + 9],
            vec![per - 1, per],
        ]
    }

    #[test]
    fn finite_slice_names_the_first_offender_in_any_chunk() {
        let reference = |vs: &[f64]| -> Result<()> {
            for &v in vs {
                finite_f64(v, "coordinate")?;
                ensure(v.abs() <= MAX_MAGNITUDE, || {
                    format!("coordinate beyond ±2^500: {v:e}")
                })?;
            }
            Ok(())
        };
        let clean = chunked_values();
        assert!(finite_slice(&clean, "coordinate").is_ok());
        for at in offender_sets(clean.len()) {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308] {
                let mut vs = clean.clone();
                for (j, &i) in at.iter().enumerate() {
                    vs[i] = if j == 0 { bad } else { -bad };
                }
                let got = finite_slice(&vs, "coordinate").map_err(|e| e.to_string());
                assert!(got.is_err(), "{at:?}");
                assert_eq!(got, reference(&vs).map_err(|e| e.to_string()), "{at:?}");
            }
        }
    }

    #[test]
    fn first_bad_counts_chunks_in_elements_of_any_size() {
        for len in [0usize, 1, 1023, 1024, 1025, 5000] {
            let vs: Vec<u32> = (0..len as u32).collect();
            for target in [0, len / 2, len.saturating_sub(1)] {
                let want = (target < len).then_some(target);
                assert_eq!(first_bad(&vs, |&v| v as usize == target), want);
                assert_eq!(first_bad(&vs, |&v| v as usize >= target), want);
            }
            assert_eq!(first_bad(&vs, |_| false), None);
        }
    }

    #[test]
    fn topk_flipped_slot_index_is_corrupt_not_panic() {
        // A stored §4 index: six points (one duplicated) as a 2-D `ar`
        // shard, so the file holds one pair's block tables and their slots.
        let rows = [
            [0.0, 1.0],
            [2.0, 5.0],
            [4.0, 3.0],
            [4.0, 3.0],
            [-1.5, 0.25],
            [7.0, -2.0],
        ];
        let data = Dataset::from_rows(2, &rows.map(|r| r.to_vec())).unwrap();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let bytes = encode_to_vec(&SdIndex::build(data, &roles).unwrap());
        let q = SdQuery::new(vec![1.0, 1.0], vec![1.0, 1.0]).unwrap();
        // Flip every byte position one at a time; decoding must never panic
        // and any success must still answer without panicking.
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x40;
            if let Ok(idx) = decode_from_slice::<SdIndex>(&mutated) {
                let _ = idx.query(&q, 3);
            }
        }
    }

    #[test]
    fn sd_index_roundtrips_exactly() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let x = i as f64 * 0.37;
                vec![x.sin(), x.cos() * 3.0, x * 0.1, 5.0 - x]
            })
            .collect();
        let data = Dataset::from_rows(4, &rows).unwrap();
        let roles = vec![
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let index = SdIndex::build(data, &roles).unwrap();
        let bytes = encode_to_vec(&index);
        let back: SdIndex = decode_from_slice(&bytes).unwrap();
        let q = SdQuery::new(vec![0.1, 1.0, 2.0, 0.3], vec![1.0, 0.5, 2.0, 0.8]).unwrap();
        assert_eq!(back.query(&q, 7).unwrap(), index.query(&q, 7).unwrap());
        assert_eq!(encode_to_vec(&back), bytes);
        // `index.meta` holds the four roles and nothing else: a `u64` count
        // and a byte each, after the region's `[crc32c][len]`.
        assert_eq!(u64::from_le_bytes(bytes[4..12].try_into().unwrap()), 12);
        assert_eq!(back.row_ids(), index.row_ids());
    }

    #[test]
    fn sd_index_fuzzed_decode_never_panics() {
        let data = Dataset::from_rows(2, &[vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
        let roles = vec![DimRole::Attractive, DimRole::Repulsive];
        let index = SdIndex::build(data, &roles).unwrap();
        let bytes = encode_to_vec(&index);
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] = mutated[pos].wrapping_add(1);
            let _ = decode_from_slice::<SdIndex>(&mutated);
        }
        for cut in 0..bytes.len() {
            let _ = decode_from_slice::<SdIndex>(&bytes[..cut]);
        }
    }
}
