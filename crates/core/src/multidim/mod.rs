//! The SD-Query over any number of dimensions: one query path per query
//! kind, both exact.
//!
//! Every index stores its rows once, in its own stored order, with the
//! global id of each position (`ids`) and the smallest id of each 64-row
//! chunk (`firsts`). How it orders them, and what it keeps above them, is
//! read off its roles alone ([`walked_pair`]):
//!
//! * a 2-D index of one attractive and one repulsive dimension keeps its
//!   rows in the §4 tile order under the pair's envelope tree, and a query
//!   over it with not both weights zero ([`SdIndex::single_pair`]) is the
//!   paper's §4 answer: one certified best-first walk over that tree,
//!   scoring each popped block of 32 rows straight off the rows (see
//!   [`crate::topk`]);
//! * every other index keeps its rows in box order ([`boxes`]), a recursive
//!   median split into leaves of 64 rows, each leaf one chunk with an
//!   outward-rounded `f32` bounding box.
//!
//! Every other query — any other roles, or both weights of the one pair
//! zero — is one **box scan** of the index's rows ([`answer_parts`]). The
//! scan bounds every chunk from its box, scores the best ones across every
//! part first to raise the query's floor, then sweeps the rest in row
//! order, skipping every chunk whose bound is under the floor — or equal to
//! it, when all of its ids are above the floor's worst one. An engine's
//! parts are the cells of one such box order, or a walked pair's row ranges
//! ([`cells`], [`SdIndex::build_cell`]), their ids global. No index records
//! a pairing: nothing reads one. The paper's own §5 aggregation — the
//! pairing step, and pair streams under a TA threshold — is `sdq-paper`'s,
//! composed from this crate's public pieces ([`Pair2DStream`] over one 2-D
//! index per pair); `boxes.rs` has the table that retired it from this
//! path.
//!
//! Either way, every score a query keeps goes into its one [`QueryFloor`],
//! passed `&mut`, under the row's global id, and one drain of it is the
//! answer ([`QueryScratch::answer_with`]). The floor keeps the **canonical**
//! top k (score descending, ties by row ascending): a row is left unscored
//! only when it is strictly below `k` kept scores, or tied with them under
//! a larger id, so planning can never change an answer, only its cost — and
//! sharded execution (the `sdq-engine` crate) is bit-identical to the
//! monolithic path. The allocating [`SdIndex::query`] is a thin wrapper
//! over [`SdIndex::query_with`].
//!
//! A walked pair's index is scanned only when both its weights are zero: as
//! its 64-row chunks, each bounded by `0`. A position names a row of the
//! stored order; the id column ([`SdIndex::row_ids`]) is read only where
//! an id is needed — the floor offer, the tombstones and a chunk's first id
//! — and by whoever reads the rows by id ([`SdIndex::rows_by_id`]).

mod boxes;
pub mod plan;

use std::sync::Arc;

pub use plan::{PairAction, PairPlan, QueryPlan};

use crate::deadline::Deadline;
use crate::geometry::Angle;
use crate::integrity::SectionIntegrity;
use crate::kernels::{self, inflate, LANES};
use crate::mask::RowMask;
use crate::profile::QueryProfile;
use crate::scratch::QueryScratch;
use crate::threshold::QueryFloor;
use crate::topk::arbitrary;
use crate::topk::blocks::{tile, BlockFrontier, BlockSet};
use crate::topk::stream::FrontierEval;
use crate::topk::{check_axes, default_angles, normalize_angles};
use crate::types::{Dataset, ScoredPoint, SdError};
use crate::view::ColumnarView;
use crate::{DimRole, PointId, SdQuery};

pub use boxes::Cell;
pub(crate) use boxes::{check_firsts, CHUNK_ROWS};

/// Tuning knobs for [`SdIndex::build_with`].
#[derive(Debug, Clone)]
pub struct SdIndexOptions {
    /// Indexed projection angles of a walked pair's §4 index (§4.2).
    pub angles: Vec<Angle>,
}

impl Default for SdIndexOptions {
    fn default() -> Self {
        SdIndexOptions {
            angles: default_angles(),
        }
    }
}

/// The one layout rule, read off the roles alone: `Some((repulsive,
/// attractive))` for a 2-D index of one attractive and one repulsive
/// dimension — its rows are stored in the §4 tile order under the pair's
/// envelope tree, which the direct 2-D walk reads — and `None` for any
/// other roles, whose rows are stored in box order for the box scan. Build,
/// decode, [`cells`], [`SdIndex::single_pair`] and [`SdIndex::plan`] all
/// decide by it.
pub fn walked_pair(roles: &[DimRole]) -> Option<(usize, usize)> {
    match roles {
        [DimRole::Repulsive, DimRole::Attractive] => Some((0, 1)),
        [DimRole::Attractive, DimRole::Repulsive] => Some((1, 0)),
        _ => None,
    }
}

/// What an [`SdIndex`] keeps above its rows ([`walked_pair`] decides
/// which).
#[derive(Debug, Clone)]
pub(crate) enum Layout {
    /// A walked pair: the §4 envelope tree over the projection `(x =
    /// attractive, y = repulsive)` of the rows, block `b` its positions
    /// `[32b, 32b + 32)`.
    Pair(BlockSet),
    /// Anything else: the chunk boxes of the box order, per dimension SoA
    /// (see [`boxes`]).
    Boxes(ColumnarView<f32>),
}

/// The multi-dimensional SD-Query index: its roles, its rows with their
/// ids and chunk first ids, and either a walked pair's bulk-loaded §4
/// envelope tree, which the direct 2-D walk answers, or the rows' chunk
/// boxes, which one box scan answers (module docs).
///
/// Dimension *roles* are fixed at build time (they determine the layout);
/// weights and `k` are free at query time. Queries never mutate the index,
/// so one `SdIndex` can be shared immutably across any number of threads.
#[derive(Debug, Clone)]
pub struct SdIndex {
    /// The indexed rows, by position: in box order, or a walked pair's tile
    /// order.
    pub(crate) data: Arc<Dataset>,
    /// The global id of each position.
    pub(crate) ids: ColumnarView<u32>,
    /// The smallest id of each [`CHUNK_ROWS`] positions: what lets the scan
    /// skip a chunk whose bound only *ties* the floor, and what breaks ties
    /// between equal bounds in the scan's order.
    pub(crate) firsts: ColumnarView<u32>,
    pub(crate) roles: Vec<DimRole>,
    pub(crate) layout: Layout,
    /// Lazily verified CRC regions of this index when it was decoded lazily
    /// (`open_mapped`): every region a query reads. Empty for built or
    /// eagerly loaded indexes.
    pub(crate) query_integrity: Vec<Arc<SectionIntegrity>>,
}

impl SdIndex {
    /// Builds with default options (three angles).
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with(data, roles, &SdIndexOptions::default())
    }

    /// Builds with explicit options: the index of every row of `data`,
    /// under ids `0..n`.
    pub fn build_with(
        data: impl Into<Arc<Dataset>>,
        roles: &[DimRole],
        options: &SdIndexOptions,
    ) -> Result<Self, SdError> {
        let data: Arc<Dataset> = data.into();
        let angles = check_build(&data, roles, &options.angles)?;
        let all = Cell::of(0..data.len() as u32);
        Ok(Self::build_over(&data, roles, &angles, &all))
    }

    /// Builds the index of one cell of `data` ([`cells`]): the rows the
    /// cell names, under their ids in `data`, a walked pair's over the
    /// default angles. The cells of a box order, built in order, hold
    /// exactly the rows, ids, chunk boxes and first ids of
    /// [`SdIndex::build_with`] over all of `data`, which is how an engine's
    /// shards split one box order; a walked pair's cell is a row range,
    /// tiled on its own.
    pub fn build_cell(data: &Dataset, roles: &[DimRole], cell: &Cell) -> Result<Self, SdError> {
        let angles = check_build(data, roles, &default_angles())?;
        Ok(Self::build_over(data, roles, &angles, cell))
    }

    /// The rows `cell` names in their stored order under `roles`, with their
    /// ids, first ids and what the layout keeps above them.
    fn build_over(data: &Dataset, roles: &[DimRole], angles: &[Angle], cell: &Cell) -> Self {
        let pair = walked_pair(roles);
        let ids: Vec<u32> = match pair {
            // The tile order of the pair's projection (x = attractive, y =
            // repulsive) of the cell's rows.
            Some((rep, att)) => {
                let pts: Vec<(f64, f64)> = cell
                    .ids
                    .iter()
                    .map(|&id| {
                        let row = data.point(PointId::new(id));
                        (row[att], row[rep])
                    })
                    .collect();
                tile(&pts).iter().map(|&s| cell.ids[s as usize]).collect()
            }
            None => boxes::finish_split(data, cell),
        };
        let rows = gather(data, &ids);
        let layout = match pair {
            Some((rep, att)) => {
                let stored: Vec<(f64, f64)> =
                    rows.chunks_exact(2).map(|r| (r[att], r[rep])).collect();
                Layout::Pair(BlockSet::build(&stored, angles))
            }
            None => Layout::Boxes(ColumnarView::owned(boxes::chunk_boxes(&rows, data.dims()))),
        };
        let rows = Dataset::from_view_trusted(data.dims(), ColumnarView::owned(rows))
            .expect("the shape of a valid dataset");
        SdIndex {
            data: Arc::new(rows),
            firsts: ColumnarView::owned(boxes::chunk_firsts(&ids)),
            ids: ColumnarView::owned(ids),
            roles: roles.to_vec(),
            layout,
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

    /// A walked pair's §4 block set; `None` for an index in box order.
    pub(crate) fn pair_blocks(&self) -> Option<&BlockSet> {
        match &self.layout {
            Layout::Pair(blocks) => Some(blocks),
            Layout::Boxes(_) => None,
        }
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
    /// shared rows): the id column, the chunk first ids, and a walked
    /// pair's envelope tree or the chunk boxes.
    pub fn memory_bytes(&self) -> usize {
        let above = match &self.layout {
            Layout::Pair(blocks) => blocks.memory_bytes(),
            Layout::Boxes(boxes) => boxes.heap_bytes(),
        };
        self.ids.heap_bytes() + self.firsts.heap_bytes() + above
    }

    /// `(blocks, resident bytes)` of the stored §4 envelope tree (none for
    /// an index in box order).
    pub fn block_stats(&self) -> (usize, usize) {
        self.pair_blocks()
            .map_or((0, 0), |b| (b.n_blocks(), b.memory_bytes()))
    }

    /// How `query` runs against this index: the direct 2-D walk — exactly
    /// when [`SdIndex::single_pair`] is `Some`, which is when
    /// [`SdIndex::query_with`] and the engine, at any shard count, walk —
    /// with the rule its pair runs under and the weight angle it read, or
    /// the box scan over this index's chunks. Observability only (`sdq
    /// inspect` and `sdq query --explain`, in `crates/store/src/bin/sdq.rs`,
    /// plumb it out) — the hot path applies the same rule
    /// ([`plan::plan_pair`]) inline without allocating.
    pub fn plan(&self, query: &SdQuery) -> Result<QueryPlan, SdError> {
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        let Some(pair) = self.single_pair(query) else {
            return Ok(QueryPlan::Scan {
                chunks: self.data.len().div_ceil(CHUNK_ROWS),
            });
        };
        let indexed = pair.eval().is_ok_and(|e| e.indexed());
        Ok(QueryPlan::Direct(PairPlan {
            repulsive: pair.repulsive,
            attractive: pair.attractive,
            action: plan::plan_pair(pair.alpha, pair.beta, indexed),
            theta: Angle::from_weights(pair.alpha, pair.beta).ok(),
        }))
    }

    /// The one predicate behind the direct 2-D walk: `Some` when this index
    /// is a walked pair's ([`walked_pair`]) and the query does not weigh
    /// both of its dimensions zero (one zero weight is a walk at 0° or
    /// 90°). Every index of an engine shares its roles, so any shard
    /// answers for all of them. `None` for a query of another
    /// dimensionality than this index's.
    pub fn single_pair(&self, query: &SdQuery) -> Option<SinglePair<'_>> {
        let blocks = self.pair_blocks()?;
        let (repulsive, attractive) = walked_pair(&self.roles)?;
        if query.dims() != self.data.dims() {
            return None;
        }
        let alpha = query.weights[repulsive];
        let beta = query.weights[attractive];
        if alpha == 0.0 && beta == 0.0 {
            return None; // projection angle undefined; the scan handles it
        }
        Some(SinglePair {
            blocks,
            repulsive,
            attractive,
            alpha,
            beta,
            qx: query.point[attractive],
            qy: query.point[repulsive],
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

/// What every build validates: roles for every dimension, ids that fit a
/// `u32`, and indexed angles that span 0° to 90°; returns the angles.
fn check_build(data: &Dataset, roles: &[DimRole], angles: &[Angle]) -> Result<Vec<Angle>, SdError> {
    if roles.len() != data.dims() {
        return Err(SdError::DimensionMismatch {
            expected: data.dims(),
            got: roles.len(),
        });
    }
    if data.len() > u32::MAX as usize {
        return Err(SdError::TooManyPoints(data.len()));
    }
    let angles = normalize_angles(angles)?;
    check_axes(&angles)?;
    Ok(angles)
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

/// The most shards `rows` rows under `roles` make with none empty: one a
/// row for a walked pair's row ranges, one a 64-row chunk for the cells of
/// a box order, and at least one.
pub fn shard_limit(roles: &[DimRole], rows: usize) -> usize {
    match walked_pair(roles) {
        Some(_) => rows.max(1),
        None => rows.div_ceil(CHUNK_ROWS).max(1),
    }
}

/// Cuts `data`'s rows into `count` cells under `roles`, clamped to
/// [`shard_limit`] (so none is empty) and at least one — the shards an
/// engine builds, each with [`SdIndex::build_cell`]. A walked pair's cells
/// are contiguous row ranges, balanced within one row; any other roles'
/// are the subtrees of one box order ([`boxes`]): the top `⌈log₂ count⌉`
/// levels of the median split of all the rows, run here.
pub fn cells(data: &Dataset, roles: &[DimRole], count: usize) -> Vec<Cell> {
    let n = data.len();
    let count = count.clamp(1, shard_limit(roles, n));
    match walked_pair(roles) {
        Some(_) => (0..count)
            .map(|i| Cell::of((i * n / count) as u32..((i + 1) * n / count) as u32))
            .collect(),
        None => boxes::split(data, count),
    }
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

/// A query that is one non-degenerate pair over a walked pair's index —
/// the only query the direct 2-D walk answers, and so only obtained from
/// [`SdIndex::single_pair`].
#[derive(Debug, Clone, Copy)]
pub struct SinglePair<'a> {
    /// The pair's §4 index.
    blocks: &'a BlockSet,
    /// The repulsive dimension (the pair's `y`).
    repulsive: usize,
    /// The attractive dimension (the pair's `x`).
    attractive: usize,
    /// Weight of the repulsive dimension (the pair's `y`).
    alpha: f64,
    /// Weight of the attractive dimension (the pair's `x`).
    beta: f64,
    qx: f64,
    qy: f64,
}

impl SinglePair<'_> {
    /// How a frontier over the pair's block set evaluates the query; an
    /// error for a weight angle outside the indexed range.
    pub(crate) fn eval(&self) -> Result<FrontierEval, SdError> {
        self.eval_over(self.blocks)
    }

    /// [`SinglePair::eval`] over `blocks`, another part's block set of the
    /// same pair.
    pub(crate) fn eval_over(&self, blocks: &BlockSet) -> Result<FrontierEval, SdError> {
        let theta = Angle::from_weights(self.alpha, self.beta)?;
        FrontierEval::at(blocks.angles(), &theta, self.qx, self.qy)
    }

    /// `r = ‖(α, β)‖`: a frontier bound, in normalised θ_q units, times `r`
    /// is a bound on the pair's score.
    pub(crate) fn r(&self) -> f64 {
        self.alpha.hypot(self.beta)
    }
}

/// One part of a query ([`answer_parts`]) — in an engine, one shard: its
/// index, whose id column holds the rows' global ids, and the tombstones.
#[derive(Debug, Clone, Copy)]
pub struct ShardPart<'a> {
    /// The shard's index.
    pub index: &'a SdIndex,
    /// The dead rows, by global id: `None` when there are none, which
    /// spares the scan and the walk an id lookup a row.
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
/// A query that is one non-degenerate pair ([`SdIndex::single_pair`]) is the
/// paper's §4 answer: one certified best-first walk over the pair's block
/// sets of every part at once — the frontier whose head bound is highest is
/// popped first, which walks the parts as one index under a virtual root.
/// Anything else is one box scan of every part (`scan_parts`): the best
/// chunks across every part first, then every part's sweeps, each against
/// the floor everything before it left.
///
/// Every scorer offers each row it keeps to `floor` under its global id,
/// the index's `ids[pos]`, and prunes against it, tombstoned rows (`mask`)
/// dropped before they reach it; scores already there (an engine's delta
/// rows) end the parts sooner. Once it returns, the floor holds the parts'
/// share of the canonical top k. The parts' counters are added to
/// `scratch.profile`, which the caller resets once per query — also when a
/// deadline or cancellation (`scratch.deadline`, consulted before every pop
/// of the walk and every scanned piece of rows) ended the query — and
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
    let ran = match first.index.single_pair(query) {
        Some(pair) => arbitrary::query_blocks_with(parts, &pair, query, scratch, floor),
        None => scan_parts(parts, &first.index.roles, query, scratch, floor),
    };
    if let Some(t0) = t0 {
        scratch.profile.aggregate_nanos += t0.elapsed().as_nanos() as u64;
    }
    ran
}

/// Chunks the query's lead scores best bound first, across all parts,
/// before any part is swept: the floor they raise is what the sweeps skip
/// chunks against.
const LEAD_CHUNKS: usize = 16;

/// The scan road of [`answer_parts`]: one box scan of every part, as one.
///
/// Every chunk's bound first ([`bound_part`], the kernel's dimension order,
/// zero weights skipped). Then the query's lead — the [`LEAD_CHUNKS`] best
/// bounds that reach the floor across every part, and every chunk tied with
/// the last of them, ties by smallest global id — scored best first, to
/// raise the floor; then two sweeps in row order over every other chunk of
/// every part, the first over the chunks bounded at least halfway from the
/// floor to the best bound, the second over the rest, each chunk scored
/// when it still reaches the floor at its turn ([`reaches`]). A chunk whose
/// bound is strictly under the floor is skipped unread: every row of it
/// scores at most the bound, so strictly below `k` kept scores. One whose
/// bound equals the floor is skipped when its smallest id is above the
/// floor's worst one: a row that ties the k-th score enters only under a
/// smaller id. (An all-zero-weight query bounds every chunk at `0`: its
/// lead takes every chunk by smallest id, and once the floor holds `k` rows
/// each chunk whose ids all lie above the worst of them is skipped.)
/// Afterwards every live row of every part has been offered to the floor
/// or is strictly below it, or tied with it under a larger id than any it
/// keeps.
///
/// The parts of an engine are the cells of one box order (the engine
/// crate's docs), so one lead and the sweeps in part order visit the chunks
/// a one-part scan of the same rows visits, in the same order, and count
/// what it counts (`parts_scanned` aside).
///
/// Why this order. Rows scored on CI's 6-D hostile probe (100k
/// anti-correlated rows, 4 row-range shards, k = 64), where every chunk
/// best first across every part scores 70 672: each part's lead then its
/// own row-order sweep, 80 848; every part's lead before one row-order
/// sweep, 74 384; these two sweeps, 70 736. Best first throughout costs a
/// heap pop a chunk and visits rows out of order: on the repo benchmark (6
/// s runs, 3–4 seeds each, 2-core VM) it ran `cold_open_4d` ≈ 1.3× and
/// `agg_6d` ≈ 1.2× slower than one sweep, and sorting the sweep into bands
/// of bound cost `agg_6d` ≈ 8 %; the two plain sweeps ran within one
/// sweep's run-to-run spread.
///
/// Counters: `parts_scanned` one a part with rows, `chunks_scored` and
/// `chunks_skipped` the chunks, and per scored piece of up to [`LANES`]
/// rows `rows_fetched` and `scan_rows` its rows, `tombstones_skipped` the
/// dead among them, `points_gathered` the rest and `kernel_batches` one.
/// Under [`QueryProfile::timing`] the bound pass, the lead (its pick and
/// its scoring) and the sweeps add their wall time to `bound_nanos`,
/// `lead_nanos` and `sweep_nanos`. The deadline is consulted once per
/// piece; an abort leaves the floor holding what was offered so far.
fn scan_parts<'a>(
    parts: impl Iterator<Item = ShardPart<'a>> + Clone,
    roles: &[DimRole],
    query: &SdQuery,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError> {
    let chunks = parts.clone().map(|part| part_chunks(&part)).sum();
    let QueryScratch {
        fbuf: sw,
        scores,
        chunks: bufs,
        profile,
        deadline,
        part_floor_updates,
        ..
    } = scratch;
    bufs.reserve(chunks);
    let ChunkBufs {
        bounds,
        lead,
        starts,
        ..
    } = bufs;
    scores.resize(LANES, 0.0);
    part_floor_updates.extend(parts.clone().map(|_| 0));
    let mut clock = Clock::new(profile.timing);
    for part in parts.clone() {
        starts.push(bounds.len());
        bound_part(&part, roles, query, bounds, profile);
    }
    clock.lap(&mut profile.bound_nanos);
    let mut st = Scoring {
        q: &query.point,
        sw,
        scores,
        prof: profile,
        deadline,
        #[cfg(test)]
        scanned: &mut bufs.scanned,
    };
    #[cfg(test)]
    st.scanned.clear();
    let scored_before = st.prof.chunks_scored;

    // The lead: one pass over every bound, keyed so the natural order of
    // the pairs is the visiting order (best bound first, ties by smallest
    // global id; a chunk is named by its index into `bounds`). Only the
    // chunks that reach the floor and can still make the lead are kept:
    // each time the run fills, it is cut back to the lead so far, whose last
    // bound becomes the bar. Nothing is offered to the floor during the
    // pass, so [`reaches`] reads the floor once, and a chunk's first id only
    // when it decides.
    let (floor_bar, worst) = (floor.bar(), floor.worst());
    let (mut bar, mut full) = (floor_bar, 4 * LEAD_CHUNKS);
    for (i, shard) in parts.clone().enumerate() {
        let from = starts[i];
        for (c, &b) in bounds[from..from + part_chunks(&shard)].iter().enumerate() {
            let first = shard.index.firsts[c];
            if b < bar || b == floor_bar && worst.is_some_and(|(_, id)| first >= id) {
                continue;
            }
            let key = u64::from(first) << 32 | (from + c) as u64;
            lead.push((!crate::threshold::encode(b), key));
            if lead.len() >= full {
                bar = bounds[cut_lead(lead) as u32 as usize];
                // Ties with the bar all stay: a run of them grows the room,
                // so they are cut back only as often as their count doubles.
                full = full.max(2 * lead.len());
            }
        }
    }
    cut_lead(lead);
    lead.sort_unstable();
    // The best chunk that reaches the floor leads: the first sweep stops
    // halfway from the floor to its bound.
    let top = lead
        .first()
        .map_or(f64::NEG_INFINITY, |e| bounds[e.1 as u32 as usize]);
    for &(_, key) in lead.iter() {
        let g = key as u32 as usize;
        let i = starts.partition_point(|&start| start <= g) - 1;
        let part = parts.clone().nth(i).expect("a chunk's part");
        let c = g - starts[i];
        if reaches(bounds[g], part.index.firsts[c], floor) {
            st.chunk(&part, c, floor, &mut part_floor_updates[i])?;
        }
        // Scored or beaten: the sweep passes it by (no bound is NaN).
        bounds[g] = f64::NAN;
    }
    clock.lap(&mut st.prof.lead_nanos);

    // The sweeps: every chunk that still reaches the floor, in row order —
    // first those bounded at least halfway from the floor to the best
    // bound, then every other.
    let bar = floor.bar();
    let half = bar + (top - bar) / 2.0;
    for upper in [true, false] {
        for (i, part) in parts.clone().enumerate() {
            let from = starts[i];
            let bounds = &mut bounds[from..from + part_chunks(&part)];
            // The floor only rises when a chunk is scored: a bound under
            // its last reading is out without asking it again.
            let mut bar = floor.bar();
            for (c, bound) in bounds.iter_mut().enumerate() {
                let b = *bound;
                // A NaN half (no full floor yet, or an infinite best bound)
                // leaves every chunk to the second sweep.
                if upper && b.partial_cmp(&half).is_none_or(|o| o.is_lt()) {
                    continue;
                }
                if b >= bar && reaches(b, part.index.firsts[c], floor) {
                    st.chunk(&part, c, floor, &mut part_floor_updates[i])?;
                    bar = floor.bar();
                }
                if upper {
                    *bound = f64::NAN;
                }
            }
        }
    }
    clock.lap(&mut st.prof.sweep_nanos);
    st.prof.chunks_skipped += chunks as u64 - (st.prof.chunks_scored - scored_before);
    Ok(())
}

/// Cuts `lead` back to the query's lead among its entries — the
/// [`LEAD_CHUNKS`] smallest, and every one tied with the last of them on
/// the bound (they join the lead in id order) — in any order, and returns
/// that last entry's chunk: no bound under its can make the lead any more.
/// A lead that fits is left as it is, and names no chunk (`u64::MAX`).
fn cut_lead(lead: &mut Vec<(u64, u64)>) -> u64 {
    if lead.len() <= LEAD_CHUNKS {
        return u64::MAX;
    }
    let (_, &mut (bar, chunk), rest) = lead.select_nth_unstable(LEAD_CHUNKS - 1);
    let mut end = LEAD_CHUNKS;
    for j in 0..rest.len() {
        if rest[j].0 == bar {
            rest.swap(j, end - LEAD_CHUNKS);
            end += 1;
        }
    }
    lead.truncate(end);
    chunk
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

/// Chunks of `part`: [`CHUNK_ROWS`] rows each, the last one short.
fn part_chunks(part: &ShardPart<'_>) -> usize {
    part.index.data.len().div_ceil(CHUNK_ROWS)
}

/// Appends the score bound of every chunk of `part` to `bounds`: from its
/// box ([`boxes::chunk_bounds`]), or — for a walked pair's rows — `0`: such
/// an index is scanned only when both its weights are zero
/// ([`SdIndex::single_pair`]), and `0` is then every row's exact score.
/// Counts the part's scan (`parts_scanned`) unless it has no row.
fn bound_part(
    part: &ShardPart<'_>,
    roles: &[DimRole],
    query: &SdQuery,
    bounds: &mut Vec<f64>,
    prof: &mut QueryProfile,
) {
    let n = part.index.data.len();
    if n == 0 {
        return;
    }
    prof.parts_scanned += 1;
    prof.isa = kernels::active().name();
    match &part.index.layout {
        Layout::Boxes(boxes) => {
            boxes::chunk_bounds(boxes, roles, &query.point, &query.weights, bounds)
        }
        Layout::Pair(_) => {
            debug_assert!(query.weights.iter().all(|&w| w == 0.0));
            bounds.resize(bounds.len() + n.div_ceil(CHUNK_ROWS), 0.0);
        }
    }
}

/// Whether a chunk whose rows score at most `bound` and carry global ids
/// from `first` on can still change what `floor` holds: its bound is above
/// the floor's bar, or equal to it and some id of the chunk could win a
/// tie — the floor is not full yet, or `first` is below its worst id.
#[inline]
fn reaches(bound: f64, first: u32, floor: &QueryFloor<'_>) -> bool {
    let bar = floor.bar();
    bound > bar || (bound == bar && floor.worst().is_none_or(|(_, id)| first < id))
}

/// What the box scan scores with, across all its parts: the query point
/// and role-signed weights, the kernel's per-lane output, the query's
/// profile and deadline.
struct Scoring<'a> {
    q: &'a [f64],
    sw: &'a [f64],
    scores: &'a mut [f64],
    prof: &'a mut QueryProfile,
    deadline: &'a Deadline,
    /// The chunks the query scored, in visiting order, as `part`-local
    /// indexes: what the tests recount its counters over.
    #[cfg(test)]
    scanned: &'a mut Vec<usize>,
}

impl Scoring<'_> {
    /// Scores chunk `c` of `part` [`LANES`] rows at a time, offers its rows
    /// that reach the floor under their global ids — adding what that did
    /// to the floor to `updates` — and tallies its counters (see
    /// [`scan_parts`]).
    fn chunk(
        &mut self,
        part: &ShardPart<'_>,
        c: usize,
        floor: &mut QueryFloor<'_>,
        updates: &mut u64,
    ) -> Result<(), SdError> {
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
            let mut reach = score_piece(self.scores, run, live, (self.q, self.sw), floor.bar());
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
                let rose = floor.offer(self.scores[l], ids[start + l]);
                prof.points_scored += 1;
                prof.floor_updates += u64::from(rose);
                *updates += u64::from(rose);
            }
        }
        Ok(())
    }
}

/// Scores `run` — up to [`LANES`] consecutive rows of a stored row table,
/// inside one chunk or block — on the full query, the point `q` and the
/// role-signed weights `sw`, compared to `floor` in the same pass
/// ([`kernels::score_rows`]), and returns the rows of `live` at or above
/// it. A dead row costs a wasted lane, never a visit to the floor. The one
/// scorer of a stored row: the box scan's chunks and the walk's blocks.
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

/// The scan's per-query buffers, kept in the [`QueryScratch`]: one bound
/// per chunk of every part of the query, the query's lead, and where each
/// part's bounds start.
#[derive(Default)]
pub(crate) struct ChunkBufs {
    bounds: Vec<f64>,
    lead: Vec<(u64, u64)>,
    starts: Vec<usize>,
    /// The chunks the last query scored, in visiting order, as part-local
    /// indexes: what the tests recount its counters over.
    #[cfg(test)]
    scanned: Vec<usize>,
}

impl ChunkBufs {
    /// Makes room for `chunks` of each: reserved when a query begins, so a
    /// scratch that has served the same parts once never grows them
    /// mid-scan.
    fn reserve(&mut self, chunks: usize) {
        self.bounds.clear();
        self.bounds.reserve(chunks);
        self.lead.clear();
        self.lead.reserve(chunks);
        self.starts.clear();
    }
}

/// A 2-D subproblem stream over one pair's §4 index: the piece of the
/// paper's §5 aggregation this crate keeps public, so the reproduction in
/// `sdq-paper` can run that aggregation over one 2-D index per pair
/// ([`Pair2DStream::new`]).
///
/// Emissions arrive in *frontier* order, not sorted subscore order — a
/// threshold aggregation only requires an admissible **bound** on unemitted
/// rows, so the stream runs on the pool-free uncertified [`BlockFrontier`],
/// whose one heap is ordered by θ_q score bounds ([`FrontierEval`]: for
/// non-indexed θ_q the Claim 6 bracket in closed form, per envelope). Whole
/// blocks surface (and are prunable against a floor) at once;
/// [`Pair2DStream::next_unit`] kernel-scores a popped block's rows on the
/// pair and filters them against the floor before emission.
pub struct Pair2DStream<'a> {
    frontier: BlockFrontier<'a>,
    index: &'a SdIndex,
    /// The pair's query point and role-signed weights, in the index's
    /// dimension order.
    q: [f64; 2],
    sw: [f64; 2],
    r: f64,
}

impl<'a> Pair2DStream<'a> {
    /// The stream of `index` — a single-pair (2-D) index — under `query`,
    /// a query over its two dimensions with not both weights zero; its
    /// frontier heap is a fresh one. `None` for any other index or query.
    pub fn new(index: &'a SdIndex, query: &SdQuery) -> Result<Option<Self>, SdError> {
        let Some(pair) = index.single_pair(query) else {
            return Ok(None);
        };
        let rows = (index.data.flat(), &index.ids[..]);
        let signed = |d: usize| index.roles[d].sign() * query.weights[d];
        Ok(Some(Pair2DStream {
            frontier: BlockFrontier::with_scratch(
                pair.blocks,
                rows,
                pair.eval()?,
                Default::default(),
            ),
            index,
            q: [query.point[0], query.point[1]],
            sw: [signed(0), signed(1)],
            r: pair.r(),
        }))
    }

    /// Fetches this stream's next *emission unit* into `out`: the row id of
    /// every row of its next surviving leaf block (up to [`LANES`] at once),
    /// after block-level floor pruning. With `prune = Some((f, others))` —
    /// `f` the current k-th-score floor and `others` what the rest of the
    /// score can add at most — any block whose raw subscore bound `b`
    /// satisfies `f > inflate(b + others)` is certifiably outside the top-k
    /// (every point in it scores at most `b + others`) and is discarded
    /// before a single point is scored, and so is every lane with `f >
    /// inflate(subscore + others)`.
    ///
    /// Returns `false` once the stream is drained (nothing appended).
    /// `prof` receives the fetch's execution counters (frontier walk
    /// statistics, per-lane mask drops).
    pub fn next_unit(
        &mut self,
        prune: Option<(f64, f64)>,
        out: &mut Vec<u32>,
        prof: &mut QueryProfile,
    ) -> bool {
        let r = self.r;
        // One whole block per round; envelope-level pruning first.
        let picked = self.frontier.next_block(|b| match prune {
            Some((f, others)) => f > inflate(r * b + others),
            None => false,
        });
        let c = self.frontier.take_counters();
        prof.nodes_visited += c.nodes_visited;
        prof.envelope_nodes_rejected += c.envelope_rejected;
        prof.blocks_floor_pruned += c.blocks_floor_pruned;
        prof.blocks_popped += c.blocks_popped;
        let Some(block) = picked else {
            return false;
        };
        let start = block as usize * LANES;
        let count = LANES.min(self.index.data.len() - start);
        let mut live = u32::MAX >> (LANES - count);
        if let Some((f, others)) = prune {
            // Per-lane floor filter on the pair subscores: a lane with `f >
            // inflate(subscore + others)` can hold no top-k row no matter
            // what the rest contributes, and dies here.
            let mut scores = [0.0f64; LANES];
            let run = &self.index.data.flat()[2 * start..2 * (start + count)];
            kernels::score_rows(
                &mut scores[..count],
                run,
                2,
                &self.q,
                &self.sw,
                f64::NEG_INFINITY,
            );
            let keep = kernels::lane_filter(&scores[..count], live, others, f);
            prof.lanes_masked += u64::from((live & !keep).count_ones());
            live = keep;
        }
        while live != 0 {
            let l = live.trailing_zeros() as usize;
            live &= live - 1;
            out.push(self.index.ids[start + l]);
        }
        true
    }

    /// Admissible upper bound on the raw pair subscore of every row not yet
    /// surfaced; `None` once drained (at which point it has surfaced every
    /// row of the index, bar the lanes its floor filter dropped).
    #[inline]
    pub fn bound(&self) -> Option<f64> {
        self.frontier.bound().map(|b| self.r * b)
    }
}

#[cfg(test)]
mod tests;
