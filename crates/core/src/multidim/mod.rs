//! The SD-Query over any number of dimensions: one layout, one query path,
//! exact.
//!
//! Every index stores its rows once, in box order ([`boxes`]): a recursive
//! median split over all its dimensions into leaves of 64 rows, each leaf
//! one chunk, with the global id of each position (`ids`) and the smallest
//! id of each chunk (`firsts`), under the split's tree stored every 4th
//! level — outward-rounded `f32` boxes of its nodes, and each chunk's box
//! coded in `u8` inside its group's. The roles change what a box bounds,
//! never how the rows are laid out: a 2-D index of one attractive and one
//! repulsive dimension is laid out like any other.
//!
//! Every query is one **box scan** of the index's rows ([`answer_parts`]):
//! a walk of the tree that bounds only the nodes and chunks it reaches. It
//! descends best first across every part until the best chunks are scored
//! to raise the query's floor, then sweeps what still reaches it, skipping
//! every node and chunk whose bound is under the floor — or equal to it,
//! when all of its ids are above the floor's worst one. An engine's parts
//! are the cells of one such box order ([`cells`], [`SdIndex::build_cell`]),
//! their ids global. No index records a pairing: nothing reads one. The
//! paper's own §4 walk and §5 aggregation — the bulk-loaded pair index, its
//! certified walk, the pairing step and pair streams under a TA threshold —
//! are `sdq-paper`'s; `boxes.rs` has the tables that retired them from this
//! path.
//!
//! Every score a query keeps goes into its one [`QueryFloor`], passed
//! `&mut`, under the row's global id, and one drain of it is the answer
//! ([`QueryScratch::answer_with`]). The floor keeps the **canonical** top k
//! (score descending, ties by row ascending): a row is left unscored only
//! when it is strictly below `k` kept scores, or tied with them under a
//! larger id, so the walk's order can never change an answer, only its cost
//! — and sharded execution (the `sdq-engine` crate) is bit-identical to the
//! monolithic path. The allocating [`SdIndex::query`] is a thin wrapper over
//! [`SdIndex::query_with`].
//!
//! A position names a row of the stored order; the id column
//! ([`SdIndex::row_ids`]) is read only where an id is needed — the floor
//! offer, the tombstones and a chunk's first id — and by whoever reads the
//! rows by id ([`SdIndex::rows_by_id`]).

mod boxes;
pub mod plan;

use std::collections::BinaryHeap;
use std::sync::Arc;

pub use plan::QueryPlan;

use crate::deadline::Deadline;
use crate::integrity::SectionIntegrity;
use crate::kernels::{self, LANES};
use crate::mask::RowMask;
use crate::profile::QueryProfile;
use crate::scratch::QueryScratch;
use crate::threshold::QueryFloor;
use crate::types::{Dataset, ScoredPoint, SdError};
use crate::view::ColumnarView;
use crate::{DimRole, SdQuery};

pub use boxes::Cell;
pub(crate) use boxes::{check_firsts, BoxTree, CHUNK_ROWS};
use boxes::{BoxQuery, Child, FANOUT, FLAT};

/// The multi-dimensional SD-Query index: its roles, its rows in box order
/// with their ids and chunk first ids, and the box tree over them, which
/// one box scan answers (module docs).
///
/// Dimension *roles* are fixed at build time; weights and `k` are free at
/// query time. Queries never mutate the index,
/// so one `SdIndex` can be shared immutably across any number of threads.
#[derive(Debug, Clone)]
pub struct SdIndex {
    /// The indexed rows, by position, in box order.
    pub(crate) data: Arc<Dataset>,
    /// The global id of each position.
    pub(crate) ids: ColumnarView<u32>,
    /// The smallest id of each [`CHUNK_ROWS`] positions: what lets the scan
    /// skip a chunk whose bound only *ties* the floor, and what breaks ties
    /// between equal bounds in the scan's order.
    pub(crate) firsts: ColumnarView<u32>,
    pub(crate) roles: Vec<DimRole>,
    /// The stored levels of the box order's split tree, and every chunk's
    /// box as codes inside its group's (see [`boxes`]).
    pub(crate) tree: BoxTree,
    /// Lazily verified CRC regions of this index when it was decoded lazily
    /// (`open_mapped`): every region a query reads. Empty for built or
    /// eagerly loaded indexes.
    pub(crate) query_integrity: Vec<Arc<SectionIntegrity>>,
}

impl SdIndex {
    /// The index of every row of `data`, under ids `0..n`.
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        let data: Arc<Dataset> = data.into();
        check_build(&data, roles)?;
        Ok(Self::build_over(
            &data,
            roles,
            &Cell::of(0..data.len() as u32),
        ))
    }

    /// Builds the index of one cell of `data` ([`cells`]): the rows the
    /// cell names, under their ids in `data`. The cells of a box order,
    /// built in order, hold exactly the rows, ids, chunk codes and first ids
    /// of [`SdIndex::build`] over all of `data` — and, for a cell of at most
    /// a 16th of the split, whole groups of its box tree — which is how an
    /// engine's shards split one box order.
    pub fn build_cell(data: &Dataset, roles: &[DimRole], cell: &Cell) -> Result<Self, SdError> {
        check_build(data, roles)?;
        Ok(Self::build_over(data, roles, cell))
    }

    /// The rows `cell` names in box order, with their ids, first ids and
    /// box tree.
    fn build_over(data: &Dataset, roles: &[DimRole], cell: &Cell) -> Self {
        let ids = boxes::finish_split(data, cell);
        let rows = gather(data, &ids);
        let firsts = boxes::chunk_firsts(&ids);
        let tree = BoxTree::build(&rows, data.dims(), &firsts, cell);
        let rows = Dataset::from_view_trusted(data.dims(), ColumnarView::owned(rows))
            .expect("the shape of a valid dataset");
        SdIndex {
            data: Arc::new(rows),
            firsts: ColumnarView::owned(firsts),
            ids: ColumnarView::owned(ids),
            roles: roles.to_vec(),
            tree,
            query_integrity: Vec::new(),
        }
    }

    /// `true` while this index still defers region checksums to first touch
    /// (an `open_mapped` decode); an index that was built, or loaded and
    /// verified eagerly, answers `false`.
    pub fn is_mapped(&self) -> bool {
        !self.query_integrity.is_empty()
    }

    /// Verifies (once) every lazily checksummed region of this index. Every
    /// query entry calls this, and so must whoever re-encodes a mapped
    /// index, so corruption cannot be laundered into a fresh file under
    /// fresh checksums. Free for owned indexes and after the first call —
    /// verified regions are an atomic load; failures are sticky.
    ///
    /// Nothing here reads an id as an offset: the ids name rows of an id
    /// space the index does not know (its engine's, for a cell), so
    /// whoever knows it checks them — the engine, at eager open, before a
    /// mapped engine's first answer and in compaction ([`id_census`]), and
    /// [`SdIndex::rows_by_id`] for the index alone.
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        crate::integrity::ensure_all(&self.query_integrity)
    }

    /// The indexed rows by position, in the stored order: row `p` of this
    /// dataset is row `row_ids()[p]` of the dataset the index was built
    /// over. Use [`SdIndex::rows_by_id`] to read them by id.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The row id of every position of [`SdIndex::data`].
    pub fn row_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The indexed rows in id order — the dataset the index was built over,
    /// or, for a cell of an engine ([`SdIndex::build_cell`]), its rows by
    /// ascending id — as a copy. Verifies the index first
    /// ([`SdIndex::verify_integrity`]), as a query does, and that no id
    /// names two rows: what a mapped file holds is read only once its
    /// checksums and its ids pass, so a rebuild from these rows cannot
    /// launder a bad file.
    pub fn rows_by_id(&self) -> Result<Dataset, SdError> {
        self.verify_integrity()?;
        let ids = &self.ids;
        let mut by_id: Vec<u32> = (0..ids.len() as u32).collect();
        by_id.sort_unstable_by_key(|&p| ids[p as usize]);
        if let Some(w) = by_id
            .windows(2)
            .find(|w| ids[w[0] as usize] == ids[w[1] as usize])
        {
            return Err(SdError::SnapshotCorrupt {
                detail: format!(
                    "positions {} and {}: row id {} repeated",
                    w[0], w[1], ids[w[0] as usize]
                ),
            });
        }
        let (dims, flat) = (self.data.dims(), self.data.flat());
        let mut rows = Vec::with_capacity(flat.len());
        for &p in &by_id {
            rows.extend_from_slice(&flat[p as usize * dims..][..dims]);
        }
        Ok(Dataset::from_view_trusted(dims, ColumnarView::owned(rows))
            .expect("the shape of a valid dataset"))
    }

    /// Build-time dimension roles.
    pub fn roles(&self) -> &[DimRole] {
        &self.roles
    }

    /// Approximate heap footprint of the index structures (excluding the
    /// shared rows): the id column, the chunk first ids and the box tree.
    pub fn memory_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.firsts.heap_bytes() + self.tree.memory_bytes()
    }

    /// `(nodes, stored levels, bytes)` of the box tree — the bytes of the
    /// node boxes, their first ids and the chunk codes.
    pub fn tree_stats(&self) -> (usize, usize, usize) {
        let (nodes, levels) = self.tree.shape();
        (nodes, levels, self.tree.table_bytes())
    }

    /// How `query` runs against this index: one box scan over its chunks
    /// under its stored nodes, whatever the roles and the weights.
    /// Observability only (`sdq inspect` and `sdq query --explain`, in
    /// `crates/store/src/bin/sdq.rs`, plumb it out).
    pub fn plan(&self, query: &SdQuery) -> Result<QueryPlan, SdError> {
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        let (nodes, levels, bytes) = self.tree_stats();
        Ok(QueryPlan::Scan {
            chunks: self.data.len().div_ceil(CHUNK_ROWS),
            levels,
            nodes,
            bytes,
        })
    }

    /// Answers the SD-Query: the `min(k, n)` highest SD-scores under the
    /// build-time roles and the query's runtime weights.
    ///
    /// Allocates fresh scratch state per call; steady-state callers should
    /// prefer [`SdIndex::query_with`].
    pub fn query(&self, query: &SdQuery, k: usize) -> Result<Vec<ScoredPoint>, SdError> {
        let mut scratch = QueryScratch::new();
        Ok(self.query_with(query, k, &mut scratch)?.to_vec())
    }

    /// [`SdIndex::query`] with caller-owned scratch buffers: a warmed
    /// scratch makes the steady-state query path allocation-free. Returns
    /// a slice borrowed from the scratch, bit-identical to what `query`
    /// returns for the same arguments; the answer is canonical (score
    /// descending, ties by row id ascending).
    ///
    /// The one driver, [`answer_parts`], with this index as the query's one
    /// part, run through the scratch's one answer step
    /// ([`QueryScratch::answer_with`]).
    pub fn query_with<'s>(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        scratch.profile.reset();
        let part = ShardPart {
            index: self,
            mask: None,
        };
        scratch.answer_with(k.min(self.data.len()), |scratch, floor| {
            answer_parts([part], query, scratch, floor)
        })
    }

    /// What every query entry validates before touching the index, `k`
    /// aside.
    fn check_query(&self, query: &SdQuery) -> Result<(), SdError> {
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        self.verify_integrity()
    }
}

/// What every build validates: roles for every dimension, and ids that fit
/// a `u32`.
fn check_build(data: &Dataset, roles: &[DimRole]) -> Result<(), SdError> {
    if roles.len() != data.dims() {
        return Err(SdError::DimensionMismatch {
            expected: data.dims(),
            got: roles.len(),
        });
    }
    if data.len() > u32::MAX as usize {
        return Err(SdError::TooManyPoints(data.len()));
    }
    Ok(())
}

/// The rows of `data` that `ids` names, in that order, row-major.
fn gather(data: &Dataset, ids: &[u32]) -> Vec<f64> {
    let (dims, flat) = (data.dims(), data.flat());
    let mut rows = Vec::with_capacity(ids.len() * dims);
    for &id in ids {
        rows.extend_from_slice(&flat[id as usize * dims..][..dims]);
    }
    rows
}

/// The most shards `rows` rows make with none empty: one a 64-row chunk,
/// and at least one.
pub fn shard_limit(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS).max(1)
}

/// Cuts `data`'s rows into `count` cells, clamped to [`shard_limit`] (so
/// none is empty) and at least one — the shards an engine builds, each with
/// [`SdIndex::build_cell`]: the subtrees of one box order ([`boxes`]), the
/// top `⌈log₂ count⌉` levels of the median split of all the rows, run here.
pub fn cells(data: &Dataset, count: usize) -> Vec<Cell> {
    boxes::split(data, count.clamp(1, shard_limit(data.len())))
}

/// Checks that `indexes` — an engine's shards — name every id of `0..rows`
/// at most once between them, and none outside it: one pass over an
/// `rows`-bit set, naming the first index and position at fault. With the
/// shards' rows summing to `rows`, as an engine's do, every id is then
/// named once.
pub fn id_census<'a>(
    indexes: impl IntoIterator<Item = &'a SdIndex>,
    rows: usize,
) -> Result<(), SdError> {
    let mut met = vec![0u64; rows.div_ceil(64)];
    for (i, index) in indexes.into_iter().enumerate() {
        for (pos, &id) in index.ids.iter().enumerate() {
            let in_range = (id as usize) < rows;
            let fresh = in_range && {
                let (word, bit) = (&mut met[id as usize / 64], 1u64 << (id % 64));
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            };
            if !fresh {
                let what = if in_range { "repeated" } else { "out of range" };
                return Err(SdError::SnapshotCorrupt {
                    detail: format!("shard {i} position {pos}: row id {id} {what} for {rows} rows"),
                });
            }
        }
    }
    Ok(())
}

/// What a mapped engine checks of its shards before its first answer,
/// where [`id_census`] would cost as much as the rest of that query: every
/// id of `indexes` below `rows`. An id named twice is left to the census of
/// an eager open or a compaction.
pub fn ids_in_range<'a>(
    indexes: impl IntoIterator<Item = &'a SdIndex>,
    rows: usize,
) -> Result<(), SdError> {
    let limit = u32::try_from(rows).unwrap_or(u32::MAX);
    for (i, index) in indexes.into_iter().enumerate() {
        if let Some(pos) = crate::codec::first_bad(&index.ids, |&id| id >= limit) {
            return Err(SdError::SnapshotCorrupt {
                detail: format!(
                    "shard {i} position {pos}: row id {} out of range for {rows} rows",
                    index.ids[pos]
                ),
            });
        }
    }
    Ok(())
}

/// One part of a query ([`answer_parts`]) — in an engine, one shard: its
/// index, whose id column holds the rows' global ids, and the tombstones.
#[derive(Debug, Clone, Copy)]
pub struct ShardPart<'a> {
    /// The shard's index.
    pub index: &'a SdIndex,
    /// The dead rows, by global id: `None` when there are none, which
    /// spares the scan an id lookup a row.
    pub mask: Option<&'a RowMask>,
}

impl ShardPart<'_> {
    /// The tombstone bits of the `count` positions from `start`: one id
    /// lookup a lane.
    #[inline]
    pub(crate) fn dead_word(&self, start: usize, count: usize) -> u32 {
        let Some(mask) = self.mask else {
            return 0;
        };
        self.index.ids[start..start + count]
            .iter()
            .enumerate()
            .fold(0, |w, (l, &id)| w | u32::from(mask.get(id as usize)) << l)
    }
}

/// The one driver of a query: answers `query` over `parts` — the one index
/// of [`SdIndex::query_with`], or every shard of an engine — into `floor`,
/// the query's one answer heap, out of one `scratch`, all on the calling
/// thread. Every part must share the roles of the first (an engine's do).
///
/// Every query, whatever its roles and weights, is one box scan of every
/// part (`scan_parts`): the best chunks across every part first, then the
/// sweep of what still reaches the floor they raised.
///
/// Every scorer offers each row it keeps to `floor` under its global id,
/// the index's `ids[pos]`, and prunes against it, tombstoned rows (`mask`)
/// dropped before they reach it; scores already there (an engine's delta
/// rows) end the parts sooner. Once it returns, the floor holds the parts'
/// share of the canonical top k. The parts' counters are added to
/// `scratch.profile`, which the caller resets once per query — also when a
/// deadline or cancellation (`scratch.deadline`, consulted before every
/// scanned piece of rows) ended the query — and
/// `scratch.part_floor_updates` holds each part's share of this call's
/// `floor_updates`, in part order. Every buffer goes back to the scratch
/// either way, so a warmed scratch answers without allocating.
pub fn answer_parts<'a, I>(
    parts: I,
    query: &'a SdQuery,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError>
where
    I: IntoIterator<Item = ShardPart<'a>>,
    I::IntoIter: Clone,
{
    scratch.part_floor_updates.clear();
    let parts = parts.into_iter();
    for part in parts.clone() {
        part.index.check_query(query)?;
    }
    let Some(first) = parts.clone().next() else {
        return Ok(());
    };
    let t0 = scratch.profile.timing.then(std::time::Instant::now);
    // The role-signed weights every scorer of the query scores rows with.
    scratch.fbuf.clear();
    let signed = first.index.roles.iter().zip(&query.weights);
    scratch.fbuf.extend(signed.map(|(r, &w)| r.sign() * w));
    let ran = scan_parts(parts, &first.index.roles, query, scratch, floor);
    if let Some(t0) = t0 {
        scratch.profile.aggregate_nanos += t0.elapsed().as_nanos() as u64;
    }
    ran
}

/// Chunks the descent scores, best bound first across every part, before
/// the sweep: the floor they raise is what the sweep skips subtrees
/// against.
const LEAD_CHUNKS: usize = 16;

#[cfg(test)]
thread_local! {
    /// The lead a test runs the scan under in place of [`LEAD_CHUNKS`].
    static LEAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Chunks the descent scores: [`LEAD_CHUNKS`], or what a test set.
#[inline]
fn lead_chunks() -> usize {
    #[cfg(test)]
    if let Some(lead) = LEAD_OVERRIDE.with(std::cell::Cell::get) {
        return lead;
    }
    LEAD_CHUNKS
}

/// The scan road of [`answer_parts`]: one walk of every part's box tree
/// ([`boxes`]), as one.
///
/// First the **descent** ([`Scan::descend`]): the top stored nodes of every
/// part — its groups — go into one heap, best bound first, ties by
/// smallest global id; the best is taken again and again until
/// [`LEAD_CHUNKS`] chunks are scored, and then every chunk still tied with
/// the last of them (all of them at all-zero weights), raising the floor.
/// A node taken is split: one of at most [`FLAT`] chunks — every group of
/// an index of up to 262 144 rows a cell — by bounding all its chunks in one
/// pass ([`BoxTree::run_bounds`]), a larger one through its 16 children.
/// Once that many chunk bounds are known, nothing bounded under the least
/// of them is pushed: it cannot join the lead. Then the **sweep**
/// ([`Scan::sweep`]): every group that still reaches the floor, down to
/// its nodes of at most [`FLAT`] chunks that do, each one *span* of chunk
/// bounds — the descent's, or taken now — and then, over those spans in
/// row order, the chunks bounded at least halfway from the floor to the
/// best chunk bound, then every other that still [`reaches`] the floor, the
/// descent's own passed by. A node or chunk whose bound is strictly under
/// the floor holds no row above it, so strictly below `k` kept scores; one
/// whose bound equals the floor is skipped when its smallest id is above
/// the floor's worst one: a row that ties the k-th score enters only under
/// a smaller id. Afterwards every
/// live row of every part has been offered to the floor or is strictly
/// below it, or tied with it under a larger id than any it keeps.
///
/// The parts of an engine are the cells of one box order, a cell of an
/// engine of up to 16 shards whole groups of the one-part tree (the
/// engine crate's docs), so the descent and the sweep over them meet the
/// nodes and chunks one part over the same rows meets, in the same order,
/// and the scan counts what it counts (`parts_scanned` aside).
///
/// Why this shape. On the 6-D anti-correlated shape (100k rows, k 64) the
/// groups hardly prune — four in five still reach the floor after the lead
/// — so what a query pays there is the chunk bounds it takes, and each is
/// taken once: bounding a group's chunks in one pass costs less than
/// walking its 16-way nodes to them, and a sweep that walked the nodes a
/// second time (best group first, each depth first in row order) ran the
/// repo benchmark's `agg_6d` 10.6–13.7 % slower than the flat scan, where
/// this shape runs it 3.5 % slower (`boxes.rs` has the table). Two passes, the upper one first, score fewer chunks
/// than one (the flat scan's finding). A lead of 32 or 64 chunks ran that
/// shape 1.06–1.17× slower than 16: its chunks sit anywhere in the rows.
///
/// Counters: `parts_scanned` one a part with rows, `boxes_bounded` every
/// node and chunk bounded (the descent's and the sweep's), `chunks_scored`
/// the chunks scored and `chunks_skipped` the rest, and per scored piece of
/// up to [`LANES`] rows `rows_fetched` and `scan_rows` its rows,
/// `tombstones_skipped` the dead among them, `points_gathered` the rest and
/// `kernel_batches` one. Under [`QueryProfile::timing`] the descent and the
/// sweep add their wall time to `lead_nanos` and `sweep_nanos`. The
/// deadline is consulted once per piece; an abort leaves the floor holding
/// what was offered so far.
fn scan_parts<'a>(
    parts: impl Iterator<Item = ShardPart<'a>> + Clone,
    roles: &[DimRole],
    query: &SdQuery,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError> {
    let QueryScratch {
        fbuf: sw,
        scores,
        scan: bufs,
        profile,
        deadline,
        part_floor_updates,
        ..
    } = scratch;
    let (mut chunks, mut entries) = (0, 0);
    for part in parts.clone() {
        let n = part.index.data.len();
        if n > 0 {
            profile.parts_scanned += 1;
            profile.isa = kernels::active().name();
        }
        chunks += n.div_ceil(CHUNK_ROWS);
        entries += part.index.tree.entries();
    }
    bufs.reset(entries, chunks);
    scores.resize(LANES, 0.0);
    part_floor_updates.extend(parts.clone().map(|_| 0));
    let ScanBufs {
        heap,
        lead,
        bounds,
        spans,
        #[cfg(test)]
        scanned,
    } = bufs;
    #[cfg(test)]
    scanned.clear();
    let mut clock = Clock::new(profile.timing);
    let mut scan = Scan {
        at: BoxQuery {
            roles,
            q: &query.point,
            w: &query.weights,
        },
        sw,
        scores,
        prof: profile,
        deadline,
        floor,
        updates: part_floor_updates,
        bounds,
        spans,
        filled: 0,
        #[cfg(test)]
        scanned,
    };
    let scored_before = scan.prof.chunks_scored;
    let top = scan.descend(parts.clone(), heap, lead)?;
    clock.lap(&mut scan.prof.lead_nanos);
    lead.sort_unstable();
    scan.sweep(parts, lead, top)?;
    clock.lap(&mut scan.prof.sweep_nanos);
    scan.prof.chunks_skipped += chunks as u64 - (scan.prof.chunks_scored - scored_before);
    Ok(())
}

/// Wall time between laps, read only under [`QueryProfile::timing`].
struct Clock(Option<std::time::Instant>);

impl Clock {
    fn new(timing: bool) -> Self {
        Clock(timing.then(std::time::Instant::now))
    }

    /// Adds the time since the last lap to `nanos`.
    fn lap(&mut self, nanos: &mut u64) {
        if let Some(t0) = &mut self.0 {
            let now = std::time::Instant::now();
            *nanos += (now - *t0).as_nanos() as u64;
            *t0 = now;
        }
    }
}

/// A run of chunks whose bounds a scan took in one pass: chunks
/// `start..end` of part `part`, their bounds in the scan's bound buffer from
/// `at`: the chunks of a node of at most [`FLAT`] chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Span {
    part: u32,
    start: u32,
    end: u32,
    at: u32,
}

/// Whether a node or chunk whose rows score at most `bound` and carry
/// global ids from `first` on can still change what `floor` holds: its
/// bound is above the floor's bar, or equal to it and some id of it could
/// win a tie — the floor is not full yet, or `first` is below its worst id.
#[inline]
fn reaches(bound: f64, first: u32, floor: &QueryFloor<'_>) -> bool {
    let bar = floor.bar();
    bound > bar || (bound == bar && floor.worst().is_none_or(|(_, id)| first < id))
}

/// A node or chunk of part `part` the descent has bounded and not yet
/// taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    bound: f64,
    first: u32,
    part: u32,
    item: Child,
}

/// The descent's heap: each pending entry's place in `pending` under its
/// order, `(bound, !first, place)` packed in a `u128` — the highest bound
/// first, then the smallest id (no bound is NaN past [`reaches`], and no
/// two entries share an id).
#[derive(Default)]
pub(crate) struct Frontier {
    heap: BinaryHeap<u128>,
    pending: Vec<Pending>,
    /// The best chunk bounds met so far, as many as the lead takes, the
    /// least on top (order-preserving keys): once there are that many,
    /// nothing bounded under the least of them can join the lead, and is
    /// left out of the heap — the sweep finds it if it reaches the floor.
    /// A node of up to 256 chunks offers all of them at once; without this
    /// the 6-D anti-correlated shape (100k rows, k 64) ran 1.07× slower at
    /// p50 and 1.10× at p95, the 4-D one 0.98× (6 and 4 rounds of 256
    /// queries, one pinned CPU).
    best: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl Frontier {
    fn push(&mut self, entry: Pending) {
        let order = u128::from(crate::threshold::encode(entry.bound)) << 64
            | u128::from(!entry.first) << 32
            | self.pending.len() as u128;
        self.pending.push(entry);
        self.heap.push(order);
    }

    fn pop(&mut self) -> Option<Pending> {
        let order = self.heap.pop()?;
        Some(self.pending[order as u32 as usize])
    }

    fn peek(&self) -> Option<&Pending> {
        let &order = self.heap.peek()?;
        Some(&self.pending[order as u32 as usize])
    }
}

/// What one box scan works with, across all its parts: the query its boxes
/// are bounded under, the point and role-signed weights it scores with, the
/// kernel's per-lane output, the query's profile, deadline and floor, each
/// part's share of the floor's updates, and the chunk bounds taken so far
/// (`bounds`, in runs `spans` names).
struct Scan<'s, 'f> {
    at: BoxQuery<'s>,
    sw: &'s [f64],
    scores: &'s mut [f64],
    prof: &'s mut QueryProfile,
    deadline: &'s Deadline,
    floor: &'s mut QueryFloor<'f>,
    updates: &'s mut [u64],
    bounds: &'s mut [f64],
    spans: &'s mut Vec<Span>,
    /// Bounds taken so far: where the next span's go.
    filled: u32,
    /// The chunks the query scored, in visiting order, as `part`-local
    /// indexes: what the tests recount its counters over.
    #[cfg(test)]
    scanned: &'s mut Vec<usize>,
}

impl Scan<'_, '_> {
    /// The descent (see [`scan_parts`]): scores chunks best first from the
    /// top stored nodes of every part until the lead is full, and returns
    /// the best bound of any chunk it met. A node of at most [`FLAT`]
    /// chunks is taken by bounding its chunks in one pass ([`Scan::span`]),
    /// any other through its children.
    fn descend<'a>(
        &mut self,
        parts: impl Iterator<Item = ShardPart<'a>> + Clone,
        heap: &mut Frontier,
        lead: &mut Vec<(u32, u32)>,
    ) -> Result<f64, SdError> {
        let want = lead_chunks();
        let mut top = f64::NEG_INFINITY;
        if want == 0 {
            return Ok(top);
        }
        for (i, part) in parts.clone().enumerate() {
            let tree = &part.index.tree;
            self.prof.boxes_bounded += tree.groups.len() as u64;
            for top in tree.tops() {
                let bound = tree.node_bound(&top, &self.at);
                let first = tree.firsts[top.index as usize];
                self.push(heap, want, i, (bound, first), Child::Node(top));
            }
        }
        let mut kids = [boxes::Node::default(); FANOUT];
        let mut bounds = [0.0; FANOUT];
        // Once the lead is full, the entries tied with its last chunk's
        // bound join it too (all of them, at all-zero weights).
        let mut tie = f64::INFINITY;
        while lead.len() < want || heap.peek().is_some_and(|next| next.bound >= tie) {
            let Some(best) = heap.pop() else {
                break;
            };
            if !reaches(best.bound, best.first, self.floor) {
                break;
            }
            let i = best.part as usize;
            let part = parts.clone().nth(i).expect("a pending entry's part");
            let node = match best.item {
                Child::Node(node) => node,
                Child::Chunk(c) => {
                    self.chunk(&part, i, c as usize)?;
                    lead.push((best.part, c));
                    top = top.max(best.bound);
                    if lead.len() == want {
                        tie = best.bound;
                    }
                    continue;
                }
            };
            let tree = &part.index.tree;
            if node.len as usize <= FLAT {
                let span = self.span(i, tree, &node);
                let firsts = &part.index.firsts[span.start as usize..span.end as usize];
                for (c, &first) in (span.start..).zip(firsts) {
                    let bound = self.bounds[(span.at + c - span.start) as usize];
                    self.push(heap, want, i, (bound, first), Child::Chunk(c));
                }
                continue;
            }
            tree.children(&node, &mut kids);
            tree.child_bounds(&node, &kids, &self.at, &mut bounds);
            self.prof.boxes_bounded += FANOUT as u64;
            for (&kid, &bound) in kids.iter().zip(&bounds) {
                let first = tree.firsts[kid.index as usize];
                self.push(heap, want, i, (bound, first), Child::Node(kid));
            }
        }
        Ok(top)
    }

    /// Pushes a bounded node or chunk of part `i` when it reaches the floor
    /// and can still join a lead of `want` chunks (see [`Frontier::best`]).
    #[inline]
    fn push(
        &mut self,
        heap: &mut Frontier,
        want: usize,
        i: usize,
        (bound, first): (f64, u32),
        item: Child,
    ) {
        if reaches(bound, first, self.floor) {
            let key = crate::threshold::encode(bound);
            let full = heap.best.len() >= want;
            if full && heap.best.peek().is_some_and(|least| key < least.0) {
                return;
            }
            if let Child::Chunk(_) = item {
                if full {
                    heap.best.pop();
                }
                heap.best.push(std::cmp::Reverse(key));
            }
            let part = i as u32;
            heap.push(Pending {
                bound,
                first,
                part,
                item,
            });
        }
    }

    /// Bounds the chunks under `node` of part `i`'s `tree`, a node of at
    /// most [`FLAT`] chunks, in one pass ([`BoxTree::run_bounds`]) into
    /// the bound buffer, and returns their span.
    fn span(&mut self, i: usize, tree: &BoxTree, node: &boxes::Node) -> Span {
        let at = self.filled;
        self.filled += node.len;
        let span = Span {
            part: i as u32,
            start: node.p,
            end: node.p + node.len,
            at,
        };
        let run = &mut self.bounds[at as usize..][..node.len as usize];
        tree.run_bounds(node.group as usize, node.p as usize, &self.at, run);
        self.prof.boxes_bounded += u64::from(node.len);
        self.spans.push(span);
        span
    }

    /// The sweep (see [`scan_parts`]): bounds every node of every part that
    /// reaches the floor down to nodes of at most [`FLAT`] chunks, and the
    /// chunks of each of those the descent did not bound ([`Scan::span`]).
    /// Then, in row order, it
    /// scores the chunks of every span bounded at least halfway from the
    /// floor to `top`, the best bound of any chunk, and then every other
    /// that still reaches the floor, bar those the descent scored (`lead`,
    /// `(part, chunk)` ascending).
    fn sweep<'a>(
        &mut self,
        parts: impl Iterator<Item = ShardPart<'a>> + Clone,
        lead: &[(u32, u32)],
        top: f64,
    ) -> Result<(), SdError> {
        // The descent's spans, sorted, then the spans to scan, in row order.
        self.spans.sort_unstable();
        let taken = self.spans.len();
        for (i, part) in parts.clone().enumerate() {
            let tree = &part.index.tree;
            for top in tree.tops() {
                self.prof.boxes_bounded += 1;
                let bound = tree.node_bound(&top, &self.at);
                if reaches(bound, tree.firsts[top.index as usize], self.floor) {
                    self.cover(i, tree, &top, taken);
                }
            }
        }
        let scan = taken..self.spans.len();
        for &(i, c) in lead {
            // The descent's chunks are passed by: no pass takes a NaN.
            let spans = &self.spans[scan.clone()];
            let at = spans.partition_point(|s| (s.part, s.start) <= (i, c));
            if let Some(span) = at.checked_sub(1).map(|at| spans[at]) {
                if span.part == i && c < span.end {
                    self.bounds[(span.at + c - span.start) as usize] = f64::NAN;
                }
            }
        }
        let bar = self.floor.bar();
        let half = bar + (top - bar) / 2.0;
        for upper in [true, false] {
            for s in scan.clone() {
                let span = self.spans[s];
                let i = span.part as usize;
                let part = parts.clone().nth(i).expect("a span's part");
                // The floor only rises when a chunk is scored: a bound under
                // its last reading is out without asking it again.
                let mut bar = self.floor.bar();
                for c in span.start as usize..span.end as usize {
                    let at = span.at as usize + c - span.start as usize;
                    let b = self.bounds[at];
                    // A NaN half (no full floor yet, or an infinite best
                    // bound) leaves every chunk to the second pass.
                    if upper && b.partial_cmp(&half).is_none_or(|o| o.is_lt()) {
                        continue;
                    }
                    if b >= bar && reaches(b, part.index.firsts[c], self.floor) {
                        self.chunk(&part, i, c)?;
                        bar = self.floor.bar();
                    }
                    if upper {
                        self.bounds[at] = f64::NAN;
                    }
                }
            }
        }
        Ok(())
    }

    /// Adds the spans under `node` of part `i`'s `tree`, which reaches the
    /// floor, to the spans to scan: the node's own, when it holds at most
    /// [`FLAT`] chunks — the descent's, when it bounded them (among the
    /// first `taken` spans, sorted), else bounded now; or those under every
    /// child that reaches the floor, in turn.
    fn cover(&mut self, i: usize, tree: &BoxTree, node: &boxes::Node, taken: usize) {
        if node.len as usize <= FLAT {
            let key = (i as u32, node.p);
            let spans = &self.spans[..taken];
            match spans.binary_search_by(|s| (s.part, s.start).cmp(&key)) {
                Ok(at) => self.spans.push(spans[at]),
                Err(_) => {
                    self.span(i, tree, node);
                }
            }
            return;
        }
        let mut kids = [boxes::Node::default(); FANOUT];
        let mut bounds = [0.0; FANOUT];
        tree.children(node, &mut kids);
        tree.child_bounds(node, &kids, &self.at, &mut bounds);
        self.prof.boxes_bounded += FANOUT as u64;
        for (kid, &bound) in kids.iter().zip(&bounds) {
            if reaches(bound, tree.firsts[kid.index as usize], self.floor) {
                self.cover(i, tree, kid, taken);
            }
        }
    }

    /// Scores chunk `c` of part `i` [`LANES`] rows at a time, offers its
    /// rows that reach the floor under their global ids — adding what that
    /// did to the floor to the part's updates — and tallies its counters
    /// (see [`scan_parts`]).
    fn chunk(&mut self, part: &ShardPart<'_>, i: usize, c: usize) -> Result<(), SdError> {
        #[cfg(test)]
        self.scanned.push(c);
        self.prof.chunks_scored += 1;
        let (data, ids) = (&*part.index.data, &part.index.ids);
        let dims = data.dims();
        let (lo, hi) = (c * CHUNK_ROWS, ((c + 1) * CHUNK_ROWS).min(data.len()));
        for start in (lo..hi).step_by(LANES) {
            self.deadline.check()?;
            let count = LANES.min(hi - start);
            let dead = part.dead_word(start, count);
            let live = (u32::MAX >> (LANES - count)) & !dead;
            let run = &data.flat()[start * dims..(start + count) * dims];
            let q = self.at.q;
            let mut reach = score_piece(self.scores, run, live, (q, self.sw), self.floor.bar());
            let dead = u64::from(dead.count_ones());
            let prof = &mut *self.prof;
            prof.kernel_batches += 1;
            prof.scan_rows += count as u64;
            prof.rows_fetched += count as u64;
            prof.tombstones_skipped += dead;
            prof.points_gathered += count as u64 - dead;
            while reach != 0 {
                let l = reach.trailing_zeros() as usize;
                reach &= reach - 1;
                let rose = self.floor.offer(self.scores[l], ids[start + l]);
                prof.points_scored += 1;
                prof.floor_updates += u64::from(rose);
                self.updates[i] += u64::from(rose);
            }
        }
        Ok(())
    }
}

/// Scores `run` — up to [`LANES`] consecutive rows of a stored row table,
/// inside one chunk — on the full query, the point `q` and the
/// role-signed weights `sw`, compared to `floor` in the same pass
/// ([`kernels::score_rows`]), and returns the rows of `live` at or above
/// it. A dead row costs a wasted lane, never a visit to the floor. The one
/// scorer of a stored row.
///
/// Kept out of line: inlined, the same kernel source has come out ≈ 25 %
/// apart in speed depending on the loop around it.
#[inline(never)]
pub(crate) fn score_piece(
    scores: &mut [f64],
    run: &[f64],
    live: u32,
    (q, sw): (&[f64], &[f64]),
    floor: f64,
) -> u32 {
    if live == 0 {
        return 0;
    }
    let dims = q.len();
    let count = run.len() / dims;
    kernels::score_rows(&mut scores[..count], run, dims, q, sw, floor) & live
}

/// The scan's per-query buffers, kept in the [`QueryScratch`]: the
/// descent's heap, the chunks it scored, and the chunk bounds taken so far
/// with their spans.
#[derive(Default)]
pub(crate) struct ScanBufs {
    heap: Frontier,
    lead: Vec<(u32, u32)>,
    /// Room for every chunk's bound.
    bounds: Vec<f64>,
    spans: Vec<Span>,
    /// The chunks the last query scored, in visiting order, as part-local
    /// indexes: what the tests recount its counters over.
    #[cfg(test)]
    scanned: Vec<usize>,
}

impl ScanBufs {
    /// Empties them and makes room for `entries` pending nodes and chunks —
    /// every one of the query's `parts` holds, the most the heap can meet —
    /// `chunks` bounds and the spans (a node's at most twice), when a query
    /// begins, so a scratch that has served the same
    /// parts once never grows them mid-scan.
    fn reset(&mut self, entries: usize, chunks: usize) {
        let Frontier {
            heap,
            pending,
            best,
        } = &mut self.heap;
        heap.clear();
        heap.reserve(entries);
        pending.clear();
        pending.reserve(entries);
        best.clear();
        best.reserve(LEAD_CHUNKS + 1);
        self.lead.clear();
        self.lead.reserve(LEAD_CHUNKS.min(entries));
        self.bounds.resize(chunks, 0.0);
        self.spans.clear();
        self.spans.reserve(2 * entries);
    }
}

#[cfg(test)]
mod tests;
