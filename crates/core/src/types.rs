//! Shared plain-data types: point identifiers, datasets, scored results,
//! error taxonomy and a total-order wrapper for finite floats.

use std::cmp::Ordering;
use std::fmt;

use crate::view::ColumnarView;

/// Stable identifier of a point inside a [`Dataset`].
///
/// Indexes are `u32` — a dataset holds at most `u32::MAX` points, which
/// comfortably covers the paper's 10-million-point experiments while keeping
/// index nodes compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointId(u32);

impl PointId {
    /// Creates an id from a raw dataset row index.
    #[inline]
    pub fn new(index: u32) -> Self {
        PointId(index)
    }

    /// The raw row index inside the owning dataset.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The largest magnitude a coordinate, a query coordinate or a weight may
/// have: 2^500. One score term is `w·|p − q| ≤ 2^500 · 2^501 = 2^1001`, so a
/// score of fewer than 2^23 terms (dimensions) stays below `f64::MAX`
/// (≈ 2^1024): no score overflows to ±∞, and none becomes NaN as the sum of
/// an attractive −∞ and a repulsive +∞. Larger values are refused at ingest
/// ([`SdError::CoordinateOutOfRange`], [`SdError::InvalidWeight`]).
pub const MAX_MAGNITUDE: f64 = f64::from_bits((1023 + 500) << 52);

/// Checks one coordinate of row `row` (a query's is row 0) at ingest: it
/// must be finite and within ±[`MAX_MAGNITUDE`].
pub fn check_coordinate(row: usize, dim: usize, value: f64) -> Result<(), SdError> {
    if !value.is_finite() {
        Err(SdError::NonFiniteCoordinate { row, dim, value })
    } else if value.abs() > MAX_MAGNITUDE {
        Err(SdError::CoordinateOutOfRange { row, dim, value })
    } else {
        Ok(())
    }
}

/// Errors produced by index construction and querying.
#[derive(Debug, Clone, PartialEq)]
pub enum SdError {
    /// A coordinate was NaN or infinite. All index structures rely on total
    /// order over coordinates, so non-finite values are rejected at ingest.
    NonFiniteCoordinate { row: usize, dim: usize, value: f64 },
    /// A finite coordinate beyond ±[`MAX_MAGNITUDE`]: a score over it could
    /// overflow.
    CoordinateOutOfRange { row: usize, dim: usize, value: f64 },
    /// Row length did not match the dataset dimensionality.
    DimensionMismatch { expected: usize, got: usize },
    /// The operation requires a non-empty dataset.
    EmptyDataset,
    /// `k` must be at least 1.
    ZeroK,
    /// More points than `u32::MAX`.
    TooManyPoints(usize),
    /// A weight was negative, NaN, infinite or above [`MAX_MAGNITUDE`].
    InvalidWeight { dim: usize, value: f64 },
    /// Both weights of a 2-D query were zero, leaving the projection angle
    /// undefined.
    DegenerateWeights,
    /// The requested projection angle falls outside the indexed range.
    AngleOutOfRange {
        requested_deg: f64,
        min_deg: f64,
        max_deg: f64,
    },
    /// Query-time role vector disagreed with the build-time roles.
    RoleMismatch,
    /// A row id beyond the addressable rows (base + delta region) of an
    /// engine — deleting or restoring a row that does not exist.
    UnknownRow { row: usize, rows: usize },
    /// An invalid branching factor (must be ≥ 2).
    InvalidBranching(usize),
    /// No indexed angles were supplied.
    NoAngles,
    /// A snapshot file or stream could not be read or written.
    SnapshotIo(String),
    /// The file does not start with the snapshot magic — not a snapshot.
    SnapshotBadMagic,
    /// The snapshot's format version is not the one version this build
    /// reads (older and newer files are refused alike).
    SnapshotVersion { found: u32, supported: u32 },
    /// A section's checksum does not match its payload: bit rot or a
    /// truncated/tampered file.
    SnapshotChecksum { section: String },
    /// Structurally invalid bytes inside a section (truncation, bad tag,
    /// inconsistent lengths, out-of-range index, …).
    SnapshotCorrupt { detail: String },
    /// A query deadline expired before the query finished. The scratch
    /// still holds the previous answer; its profile, the work done so far.
    DeadlineExceeded {
        /// Wall time spent before the deadline check fired, µs.
        elapsed_micros: u64,
        /// The budget the caller granted, µs.
        budget_micros: u64,
    },
    /// The query's cancel token was triggered by another thread.
    Cancelled,
    /// The durable engine is degraded: reads are served, writes are
    /// refused until `DurableEngine::try_recover` (the `sdq-store` crate,
    /// `crates/store/src/durable.rs`) re-checkpoints to fresh files.
    EngineDegraded { reason: String },
    /// The durable engine is poisoned: in-memory state may disagree with
    /// the log, so both reads and writes are refused. Reopen from disk.
    EnginePoisoned { reason: String },
}

impl fmt::Display for SdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdError::NonFiniteCoordinate { row, dim, value } => {
                write!(f, "non-finite coordinate {value} at row {row}, dim {dim}")
            }
            SdError::CoordinateOutOfRange { row, dim, value } => write!(
                f,
                "coordinate {value:e} at row {row}, dim {dim} is beyond ±2^500"
            ),
            SdError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SdError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            SdError::ZeroK => write!(f, "k must be at least 1"),
            SdError::TooManyPoints(n) => write!(f, "dataset has {n} points, max is u32::MAX"),
            SdError::InvalidWeight { dim, value } => {
                write!(f, "invalid weight {value} for dimension {dim}")
            }
            SdError::DegenerateWeights => {
                write!(f, "both α and β are zero; projection angle undefined")
            }
            SdError::AngleOutOfRange {
                requested_deg,
                min_deg,
                max_deg,
            } => write!(
                f,
                "projection angle {requested_deg}° outside indexed range [{min_deg}°, {max_deg}°]"
            ),
            SdError::RoleMismatch => write!(f, "query roles differ from index build roles"),
            SdError::UnknownRow { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows addressable)")
            }
            SdError::InvalidBranching(b) => write!(f, "branching factor {b} invalid (must be ≥ 2)"),
            SdError::NoAngles => write!(f, "at least one indexed angle is required"),
            SdError::SnapshotIo(e) => write!(f, "snapshot I/O error: {e}"),
            SdError::SnapshotBadMagic => write!(f, "not a snapshot file (bad magic)"),
            SdError::SnapshotVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads only version {supported})"
            ),
            SdError::SnapshotChecksum { section } => {
                write!(f, "snapshot checksum mismatch in section {section}")
            }
            SdError::SnapshotCorrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
            SdError::DeadlineExceeded {
                elapsed_micros,
                budget_micros,
            } => write!(
                f,
                "deadline exceeded: {elapsed_micros} µs elapsed of a {budget_micros} µs budget"
            ),
            SdError::Cancelled => write!(f, "query cancelled"),
            SdError::EngineDegraded { reason } => {
                write!(f, "engine degraded (read-only until recovery): {reason}")
            }
            SdError::EnginePoisoned { reason } => write!(f, "engine poisoned: {reason}"),
        }
    }
}

impl std::error::Error for SdError {}

/// A query answer: a point id together with its exact SD-score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPoint {
    /// Which point.
    pub id: PointId,
    /// Its exact SD-score against the query.
    pub score: f64,
}

impl ScoredPoint {
    /// Creates a scored point.
    #[inline]
    pub fn new(id: PointId, score: f64) -> Self {
        ScoredPoint { id, score }
    }
}

/// Total-order wrapper over `f64` for use as a sort/heap key.
///
/// Construction is only allowed from finite values (datasets reject NaN/∞ at
/// ingest), so `Ord` is implemented via `partial_cmp().unwrap()`-equivalent
/// logic without a NaN branch in release builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Wraps a value, asserting finiteness in debug builds.
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "OrdF64 must not hold NaN");
        OrdF64(v)
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order for non-NaN floats; -0.0 vs 0.0 ties are fine for keys.
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// An immutable, row-major collection of `m`-dimensional points.
///
/// The dataset is the single source of truth for coordinates; all index
/// structures refer back to it through [`PointId`]s. Coordinates are
/// validated to be finite once at ingest so every downstream comparison can
/// assume total order.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dims: usize,
    coords: ColumnarView<f64>,
}

impl Dataset {
    /// Builds a dataset from a flat row-major buffer.
    ///
    /// `coords.len()` must be a multiple of `dims` and every value finite.
    pub fn from_flat(dims: usize, coords: Vec<f64>) -> Result<Self, SdError> {
        if dims == 0 {
            return Err(SdError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if !coords.len().is_multiple_of(dims) {
            return Err(SdError::DimensionMismatch {
                expected: dims,
                got: coords.len() % dims,
            });
        }
        let n = coords.len() / dims;
        if n > u32::MAX as usize {
            return Err(SdError::TooManyPoints(n));
        }
        for (i, &v) in coords.iter().enumerate() {
            check_coordinate(i / dims, i % dims, v)?;
        }
        Ok(Dataset {
            dims,
            coords: ColumnarView::owned(coords),
        })
    }

    /// Wraps an (owned or mapped) coordinate view, checking only structure
    /// (arity, addressability) — not finiteness. Used by the snapshot
    /// decode, where payload integrity is covered by a region checksum (lazy
    /// on a mapped open) and finiteness by `Codec::verify_decoded` (eager
    /// opens only).
    pub(crate) fn from_view_trusted(
        dims: usize,
        coords: ColumnarView<f64>,
    ) -> Result<Self, SdError> {
        if dims == 0 {
            return Err(SdError::DimensionMismatch {
                expected: 1,
                got: 0,
            });
        }
        if !coords.len().is_multiple_of(dims) {
            return Err(SdError::DimensionMismatch {
                expected: dims,
                got: coords.len() % dims,
            });
        }
        let n = coords.len() / dims;
        if n > u32::MAX as usize {
            return Err(SdError::TooManyPoints(n));
        }
        Ok(Dataset { dims, coords })
    }

    /// `true` when the coordinate buffer borrows mapped storage.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        self.coords.is_mapped()
    }

    /// Builds a dataset from per-point rows.
    pub fn from_rows(dims: usize, rows: &[Vec<f64>]) -> Result<Self, SdError> {
        let mut coords = Vec::with_capacity(rows.len() * dims);
        for row in rows {
            if row.len() != dims {
                return Err(SdError::DimensionMismatch {
                    expected: dims,
                    got: row.len(),
                });
            }
            coords.extend_from_slice(row);
        }
        Self::from_flat(dims, coords)
    }

    /// Number of dimensions per point.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// `true` when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Borrow the coordinates of one point.
    #[inline]
    pub fn point(&self, id: PointId) -> &[f64] {
        let i = id.index() * self.dims;
        &self.coords[i..i + self.dims]
    }

    /// Coordinate of one point in one dimension.
    #[inline]
    pub fn coord(&self, id: PointId, dim: usize) -> f64 {
        self.coords[id.index() * self.dims + dim]
    }

    /// Iterate over `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f64])> {
        self.coords
            .chunks_exact(self.dims)
            .enumerate()
            .map(|(i, c)| (PointId(i as u32), c))
    }

    /// All ids in row order.
    pub fn ids(&self) -> impl Iterator<Item = PointId> + '_ {
        (0..self.len() as u32).map(PointId)
    }

    /// The flat row-major coordinate buffer.
    #[inline]
    pub fn flat(&self) -> &[f64] {
        self.coords.as_slice()
    }

    /// Appends a row, returning its id. Validates arity and finiteness.
    /// On a mapped dataset this copies the coordinates into owned memory
    /// first (copy-on-first-write).
    pub fn push_row(&mut self, row: &[f64]) -> Result<PointId, SdError> {
        if row.len() != self.dims {
            return Err(SdError::DimensionMismatch {
                expected: self.dims,
                got: row.len(),
            });
        }
        let id = self.len();
        if id + 1 > u32::MAX as usize {
            return Err(SdError::TooManyPoints(id + 1));
        }
        for (dim, &v) in row.iter().enumerate() {
            check_coordinate(id, dim, v)?;
        }
        self.coords.make_mut().extend_from_slice(row);
        Ok(PointId::new(id as u32))
    }

    /// Extracts one dimension as a column vector.
    pub fn column(&self, dim: usize) -> Vec<f64> {
        assert!(dim < self.dims, "dimension {dim} out of range");
        self.coords
            .iter()
            .skip(dim)
            .step_by(self.dims)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_from_rows_roundtrip() {
        let d = Dataset::from_rows(3, &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dims(), 3);
        assert_eq!(d.point(PointId::new(1)), &[4.0, 5.0, 6.0]);
        assert_eq!(d.coord(PointId::new(0), 2), 3.0);
    }

    #[test]
    fn dataset_rejects_nan() {
        let err = Dataset::from_rows(2, &[vec![1.0, f64::NAN]]).unwrap_err();
        assert!(matches!(
            err,
            SdError::NonFiniteCoordinate { row: 0, dim: 1, .. }
        ));
    }

    #[test]
    fn dataset_rejects_coordinates_beyond_the_bound() {
        assert!(Dataset::from_rows(1, &[vec![MAX_MAGNITUDE], vec![-MAX_MAGNITUDE]]).is_ok());
        let err = Dataset::from_rows(2, &[vec![0.0, 0.0], vec![1.0, -1e308]]).unwrap_err();
        assert!(matches!(
            err,
            SdError::CoordinateOutOfRange { row: 1, dim: 1, .. }
        ));
        let mut d = Dataset::from_rows(1, &[vec![0.0]]).unwrap();
        let err = d.push_row(&[MAX_MAGNITUDE * 2.0]).unwrap_err();
        assert!(matches!(err, SdError::CoordinateOutOfRange { row: 1, .. }));
    }

    #[test]
    fn dataset_rejects_infinity() {
        let err = Dataset::from_flat(1, vec![f64::INFINITY]).unwrap_err();
        assert!(matches!(err, SdError::NonFiniteCoordinate { .. }));
    }

    #[test]
    fn dataset_rejects_ragged_rows() {
        let err = Dataset::from_rows(2, &[vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            SdError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn dataset_rejects_misaligned_flat() {
        let err = Dataset::from_flat(2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, SdError::DimensionMismatch { .. }));
    }

    #[test]
    fn dataset_rejects_zero_dims() {
        let err = Dataset::from_flat(0, vec![]).unwrap_err();
        assert!(matches!(err, SdError::DimensionMismatch { .. }));
    }

    #[test]
    fn column_extraction() {
        let d =
            Dataset::from_rows(2, &[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]).unwrap();
        assert_eq!(d.column(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.column(1), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = vec![OrdF64(3.0), OrdF64(-1.0), OrdF64(2.5)];
        v.sort();
        assert_eq!(v, vec![OrdF64(-1.0), OrdF64(2.5), OrdF64(3.0)]);
    }

    #[test]
    fn empty_dataset_iterates_nothing() {
        let d = Dataset::from_flat(4, vec![]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(PointId::new(7).to_string(), "p7");
        let e = SdError::ZeroK.to_string();
        assert!(e.contains("k must be"));
    }
}
