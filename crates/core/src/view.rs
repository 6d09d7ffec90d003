//! Columnar storage views: owned vectors or borrowed memory-mapped slices.
//!
//! The snapshot format v5 lays hot arrays out in their exact in-memory
//! representation (little-endian, 64-byte-aligned), so an open snapshot can
//! serve queries straight off the file. [`ColumnarView`] is the access layer
//! that makes this transparent to the index code: it is either an `Owned`
//! `Vec<T>` (built in memory, or the target of copy-on-first-write) or a
//! `Mapped` borrowed slice whose backing storage — an `mmap` region
//! (`open_mapped`) or the one aligned heap buffer a `load` read the file
//! into — is kept alive by a reference-counted keepalive handle.
//!
//! Reads go through `Deref<Target = [T]>`, so every consumer (aggregation,
//! block frontier, kernels, masked paths) runs unchanged on either variant.
//! Writes go through [`ColumnarView::make_mut`] (or `DerefMut`), which
//! copies a mapped view into owned memory on first write — the
//! copy-on-first-write contract that keeps mapped engines mutable.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::fmt;
use std::io::{self, Read};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::codec::REGION_ALIGN;

/// Keepalive handle for borrowed views: whatever owns the mapped bytes.
pub type ViewKeep = Arc<dyn Any + Send + Sync>;

/// An immutable heap buffer whose bytes start on a [`REGION_ALIGN`]
/// boundary — what a snapshot is read (or copied) into so its array regions
/// can be borrowed in place. Filled once, by appending into reserved
/// capacity: no zero-fill pass, no second copy.
#[derive(Debug)]
pub struct AlignedBytes {
    buf: Vec<u8>,
    start: usize,
}

impl AlignedBytes {
    /// Reserves room for `len` aligned bytes and lets `fill` append exactly
    /// that many to the vector it is handed (which already holds the few
    /// padding bytes that put the next one on the boundary).
    fn fill(len: usize, fill: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> io::Result<Self> {
        let mut buf: Vec<u8> = Vec::new();
        buf.try_reserve_exact(len.saturating_add(REGION_ALIGN))
            .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))?;
        let start = buf.as_ptr().align_offset(REGION_ALIGN);
        assert!(start < REGION_ALIGN, "byte pointers always align");
        buf.resize(start, 0);
        fill(&mut buf)?;
        if buf.len() - start != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("expected {len} bytes, got {}", buf.len() - start),
            ));
        }
        // Borrowed views rely on this; appending within the reserved
        // capacity never moves the allocation.
        assert!(
            (buf[start..].as_ptr() as usize).is_multiple_of(REGION_ALIGN),
            "aligned buffer moved while being filled"
        );
        Ok(AlignedBytes { buf, start })
    }

    /// An aligned copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> Self {
        Self::fill(bytes.len(), |buf| {
            buf.extend_from_slice(bytes);
            Ok(())
        })
        .expect("copying a slice cannot fail")
    }

    /// Reads exactly `len` bytes from `reader` straight into aligned
    /// storage. A source that ends early is an
    /// [`io::ErrorKind::UnexpectedEof`] error; bytes past `len` are left
    /// unread.
    pub fn read_from(reader: impl Read, len: usize) -> io::Result<Self> {
        Self::fill(len, |buf| {
            reader.take(len as u64).read_to_end(buf)?;
            Ok(())
        })
    }

    /// The bytes; the slice start is [`REGION_ALIGN`]-aligned.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// Element types whose in-memory representation is plain old data: any bit
/// pattern of the right width is a valid value, so a properly aligned byte
/// region can be reinterpreted as a slice of them.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding bytes, no niches or
/// invalid bit patterns, and an alignment of at most 64 (the v5 section
/// alignment). Layout is pinned by compile-time assertions at each impl and
/// by the `layout` tests below.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: one byte, alignment 1; every bit pattern is a value.
unsafe impl Pod for u8 {}
// SAFETY: no padding, alignment 4; every bit pattern is a value.
unsafe impl Pod for u32 {}
// SAFETY: no padding, alignment 8; every bit pattern is a value.
unsafe impl Pod for u64 {}
// SAFETY: no padding, alignment 4; every bit pattern is a value.
unsafe impl Pod for f32 {}
// SAFETY: no padding, alignment 8; every bit pattern is a value (NaNs
// included — the codec rejects them, not the type).
unsafe impl Pod for f64 {}
// Homogeneous f64 pairs are used for interleaved point tables and x-range
// tables.
// SAFETY: two f64 fields of the same size and alignment leave no padding
// (size 16, alignment 8, pinned below), and both fields are `Pod`. Element
// order is pinned by the `pair_layout_matches_declaration` test.
unsafe impl Pod for (f64, f64) {}

const _: () = assert!(std::mem::size_of::<(f64, f64)>() == 16);
const _: () = assert!(std::mem::align_of::<(f64, f64)>() == 8);

/// A columnar array that is either owned heap memory or a borrowed view
/// into mapped storage. Dereferences to `&[T]` either way.
pub enum ColumnarView<T: Pod> {
    /// A plain decoded vector (the classic path, and the target of
    /// copy-on-first-write).
    Owned(Vec<T>),
    /// A borrowed slice of mapped storage. `keep` owns the backing bytes;
    /// `heap` says whether they are a heap buffer (counted by
    /// [`ColumnarView::heap_bytes`]) or pages of a file mapping (not).
    Mapped {
        ptr: *const T,
        len: usize,
        keep: ViewKeep,
        heap: bool,
    },
}

// SAFETY: an owned view is a `Vec<T>` of `Send` elements; a mapped view is
// a pointer into storage that stays immutable and alive while its `Send +
// Sync` keepalive does (the `mapped` contract), so moving it to another
// thread moves only a read-only borrow and a handle that keeps it valid.
unsafe impl<T: Pod> Send for ColumnarView<T> {}
// SAFETY: `&ColumnarView` hands out only `&[T]` over that immutable storage
// (writes need `&mut` and copy first), and `T: Sync`, so shared reads from
// several threads cannot race.
unsafe impl<T: Pod> Sync for ColumnarView<T> {}

impl<T: Pod> ColumnarView<T> {
    /// Wraps an owned vector.
    #[inline]
    pub fn owned(v: Vec<T>) -> Self {
        ColumnarView::Owned(v)
    }

    /// Borrows `len` elements of mapped storage starting at `ptr`. `heap`
    /// is `true` when `keep` owns a heap buffer rather than a file mapping.
    ///
    /// # Safety
    ///
    /// `ptr` must be aligned for `T` and valid for `len` elements, and the
    /// memory must stay immutable and alive for as long as `keep` is.
    #[inline]
    pub unsafe fn mapped(ptr: *const T, len: usize, keep: ViewKeep, heap: bool) -> Self {
        debug_assert!((ptr as usize).is_multiple_of(std::mem::align_of::<T>()));
        ColumnarView::Mapped {
            ptr,
            len,
            keep,
            heap,
        }
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            ColumnarView::Owned(v) => v.as_slice(),
            ColumnarView::Mapped { ptr, len, .. } => {
                // SAFETY: the `mapped` constructor's contract: `ptr` is
                // aligned and valid for `len` elements of immutable memory
                // that `keep`, held by this view, keeps alive.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// `true` when the view borrows mapped storage.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self, ColumnarView::Mapped { .. })
    }

    /// Copy-on-first-write: returns the owned vector, copying a mapped view
    /// into heap memory the first time it is written.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let ColumnarView::Mapped { .. } = self {
            *self = ColumnarView::Owned(self.as_slice().to_vec());
        }
        match self {
            ColumnarView::Owned(v) => v,
            ColumnarView::Mapped { .. } => unreachable!(),
        }
    }

    /// Heap bytes this view accounts for: an owned vector's capacity, a
    /// borrowed slice of a heap buffer (a loaded snapshot pins that buffer
    /// for as long as any view into it lives), or 0 over a file mapping —
    /// those bytes are page cache, not heap.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnarView::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            ColumnarView::Mapped {
                len, heap: true, ..
            } => len * std::mem::size_of::<T>(),
            ColumnarView::Mapped { heap: false, .. } => 0,
        }
    }
}

impl<T: Pod> Deref for ColumnarView<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> DerefMut for ColumnarView<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.make_mut().as_mut_slice()
    }
}

impl<T: Pod> Clone for ColumnarView<T> {
    fn clone(&self) -> Self {
        match self {
            ColumnarView::Owned(v) => ColumnarView::Owned(v.clone()),
            ColumnarView::Mapped {
                ptr,
                len,
                keep,
                heap,
            } => ColumnarView::Mapped {
                ptr: *ptr,
                len: *len,
                keep: Arc::clone(keep),
                heap: *heap,
            },
        }
    }
}

impl<T: Pod> Default for ColumnarView<T> {
    fn default() -> Self {
        ColumnarView::Owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for ColumnarView<T> {
    fn from(v: Vec<T>) -> Self {
        ColumnarView::Owned(v)
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for ColumnarView<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnarView")
            .field("mapped", &self.is_mapped())
            .field("len", &self.as_slice().len())
            .finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for ColumnarView<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_layout_matches_declaration() {
        // The v5 format reinterprets raw bytes as (f64, f64) pairs; pin the
        // element order so a layout change cannot silently swap x and y.
        let p: (f64, f64) = (1.0, 2.0);
        // SAFETY: `(f64, f64)` is 16 bytes without padding (asserted at its
        // `Pod` impl), and every bit pattern is a valid `[u8; 16]`.
        let bytes: [u8; 16] = unsafe { std::mem::transmute(p) };
        assert_eq!(f64::from_le_bytes(bytes[..8].try_into().unwrap()), 1.0);
        assert_eq!(f64::from_le_bytes(bytes[8..].try_into().unwrap()), 2.0);
    }

    #[test]
    fn owned_roundtrip_and_mutation() {
        let mut v = ColumnarView::owned(vec![1u32, 2, 3]);
        assert!(!v.is_mapped());
        assert_eq!(&v[..], &[1, 2, 3]);
        v.make_mut().push(4);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn mapped_view_reads_and_copies_on_write() {
        let backing: Arc<Vec<u32>> = Arc::new(vec![10, 20, 30]);
        let keep: ViewKeep = backing.clone();
        // SAFETY: `keep` owns the aligned vector of three elements, which
        // no one mutates while it is shared.
        let mut view = unsafe { ColumnarView::mapped(backing.as_ptr(), 3, keep, false) };
        assert!(view.is_mapped());
        assert_eq!(&view[..], &[10, 20, 30]);
        assert_eq!(view.heap_bytes(), 0);

        let cloned = view.clone();
        assert!(cloned.is_mapped());

        view.make_mut()[0] = 99;
        assert!(!view.is_mapped(), "write must detach from the mapping");
        assert_eq!(&view[..], &[99, 20, 30]);
        // The clone still sees the original mapped bytes.
        assert_eq!(&cloned[..], &[10, 20, 30]);
    }

    #[test]
    fn deref_mut_is_copy_on_write() {
        let backing: Arc<Vec<f64>> = Arc::new(vec![1.5, 2.5]);
        let keep: ViewKeep = backing.clone();
        // SAFETY: `keep` owns the aligned vector of two elements, which no
        // one mutates while it is shared.
        let mut view = unsafe { ColumnarView::mapped(backing.as_ptr(), 2, keep, false) };
        view[1] = 9.0;
        assert!(!view.is_mapped());
        assert_eq!(&view[..], &[1.5, 9.0]);
    }

    #[test]
    fn equality_compares_contents_across_variants() {
        let backing: Arc<Vec<u64>> = Arc::new(vec![7, 8]);
        let keep: ViewKeep = backing.clone();
        // SAFETY: `keep` owns the aligned vector of two elements, which no
        // one mutates while it is shared.
        let mapped = unsafe { ColumnarView::mapped(backing.as_ptr(), 2, keep, false) };
        let owned = ColumnarView::owned(vec![7u64, 8]);
        assert_eq!(mapped, owned);
    }

    #[test]
    fn aligned_bytes_copy_and_read_edge_cases() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let src: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for buf in [
                AlignedBytes::copy_from(&src),
                AlignedBytes::read_from(&src[..], len).unwrap(),
            ] {
                assert_eq!(buf.as_slice(), &src[..], "len {len}");
                assert_eq!(buf.as_slice().as_ptr() as usize % REGION_ALIGN, 0);
            }
        }
        // A source shorter than promised (a file that shrank after its
        // length was taken) is an error, never a short or over-long slice.
        let err = AlignedBytes::read_from(&[1u8, 2, 3][..], 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A longer one is cut at the promised length.
        let buf = AlignedBytes::read_from(&[7u8; 100][..], 10).unwrap();
        assert_eq!(buf.as_slice(), &[7u8; 10]);
    }

    #[test]
    fn heap_bytes_follow_the_backing() {
        // The same three u64s: owned, borrowed from a heap buffer (a loaded
        // snapshot), borrowed from file pages (a mapped one).
        let backing: Arc<Vec<u64>> = Arc::new(vec![1, 2, 3]);
        // SAFETY: each view's keepalive owns the aligned vector of three
        // elements, which no one mutates while it is shared.
        let view = |heap| unsafe {
            ColumnarView::mapped(backing.as_ptr(), 3, backing.clone() as ViewKeep, heap)
        };
        assert_eq!(ColumnarView::owned(vec![1u64, 2, 3]).heap_bytes(), 24);
        assert_eq!(view(true).heap_bytes(), 24);
        assert_eq!(view(false).heap_bytes(), 0);
        assert_eq!(view(true).clone().heap_bytes(), 24, "clones keep the flag");
        // Copy-on-write moves the bytes into an owned vector either way.
        let mut written = view(false);
        written.make_mut();
        assert_eq!(written.heap_bytes(), 24);
    }
}
