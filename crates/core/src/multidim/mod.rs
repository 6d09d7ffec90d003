//! The SD-Query over any number of dimensions: one query path per query
//! kind, both exact.
//!
//! How an index stores its rows is read off its roles alone
//! ([`walked_pair`]). A 2-D index of one attractive and one repulsive
//! dimension keeps its rows in id order beside the pair's §4 block set, and
//! a query over it with not both weights zero ([`SdIndex::single_pair`]) is
//! the paper's §4 answer: one certified best-first walk over that block set
//! (see [`crate::topk`]). Every other query — any other roles, or both
//! weights of the one pair zero — is one **box scan** of the index's rows
//! ([`answer_parts`]): every other index keeps its rows in box order
//! ([`boxes`]), a recursive median split into leaves of 64 rows, each leaf
//! one chunk with an outward-rounded `f32` bounding box and its smallest
//! row id. The scan bounds every chunk from its box, scores each part's
//! best ones first to raise the query's floor, then sweeps the rest in row
//! order, skipping every chunk whose bound is under the floor — or equal
//! to it, when all of its ids are above the floor's worst one. Such an index
//! stores no pair block set, and records no pairing: nothing reads either.
//! The paper's own §5 aggregation — the pairing step, and pair streams under
//! a TA threshold — is `sdq-paper`'s, composed from this crate's public
//! pieces ([`Pair2DStream`] over one 2-D index per pair); `boxes.rs` has the
//! table that retired it from this path.
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
//! 64-row chunks in id order, each bounded by `0`. A position names a row of
//! the stored order; the id column
//! ([`SdIndex::row_ids`]) is read only where an id is needed — the floor
//! offer (`offset + ids[pos]`) and the tombstones — and by whoever reads
//! the rows by id ([`SdIndex::rows_by_id`]).

mod boxes;
pub mod plan;

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

pub use plan::{PairAction, PairPlan, QueryPlan};

use crate::deadline::Deadline;
use crate::geometry::Angle;
use crate::integrity::SectionIntegrity;
use crate::kernels::{self, inflate, LANES};
use crate::mask::MaskView;
use crate::profile::QueryProfile;
use crate::scratch::QueryScratch;
use crate::threshold::QueryFloor;
use crate::topk::arbitrary::{self, BlockPart};
use crate::topk::blocks::{BlockFrontier, BlockSet};
use crate::topk::stream::FrontierEval;
use crate::topk::{check_axes, default_angles, normalize_angles};
use crate::types::{Dataset, ScoredPoint, SdError};
use crate::view::ColumnarView;
use crate::{DimRole, SdQuery};

pub(crate) use boxes::{BoxOrder, CHUNK_ROWS};

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
/// dimension — its rows stay in id order beside the pair's §4 block set,
/// which the direct 2-D walk reads — and `None` for any other roles, whose
/// rows are stored in box order for the box scan. Build, decode,
/// [`SdIndex::single_pair`] and [`SdIndex::plan`] all decide by it.
pub fn walked_pair(roles: &[DimRole]) -> Option<(usize, usize)> {
    match roles {
        [DimRole::Repulsive, DimRole::Attractive] => Some((0, 1)),
        [DimRole::Attractive, DimRole::Repulsive] => Some((1, 0)),
        _ => None,
    }
}

/// What an [`SdIndex`] keeps beside its rows ([`walked_pair`] decides
/// which).
#[derive(Debug, Clone)]
pub(crate) enum Layout {
    /// A walked pair: the §4 index over the projection `(x = attractive,
    /// y = repulsive)` of the rows, which stay in id order; its point slots
    /// are row ids.
    Pair(BlockSet),
    /// Anything else: the box order of the rows (ids, chunk boxes and
    /// first ids; see [`boxes`]).
    Boxes(BoxOrder),
}

/// The multi-dimensional SD-Query index: its roles, its rows, and either a
/// walked pair's bulk-loaded §4 index, which the direct 2-D walk answers,
/// or the rows' box order, which one box scan answers (module docs).
///
/// Dimension *roles* are fixed at build time (they determine the layout);
/// weights and `k` are free at query time. Queries never mutate the index,
/// so one `SdIndex` can be shared immutably across any number of threads.
#[derive(Debug, Clone)]
pub struct SdIndex {
    /// The indexed rows, by position: in box order for [`Layout::Boxes`],
    /// in id order for [`Layout::Pair`].
    pub(crate) data: Arc<Dataset>,
    pub(crate) roles: Vec<DimRole>,
    pub(crate) layout: Layout,
    /// Lazily verified CRC regions of this index when it was decoded lazily
    /// (`open_mapped`): the dataset coordinate table and the box order or
    /// the pair's block tables. Empty for built or eagerly loaded indexes.
    pub(crate) query_integrity: Vec<Arc<SectionIntegrity>>,
    /// Once-shot content validation of a decode (block-table census, slot
    /// ids in range) — run after the CRCs pass: on the first
    /// query of a lazy open, before an eager one returns. `Some(detail)` is
    /// a sticky corruption verdict.
    pub(crate) mapped_check: Arc<OnceLock<Option<String>>>,
}

impl SdIndex {
    /// Builds with default options (three angles).
    pub fn build(data: impl Into<Arc<Dataset>>, roles: &[DimRole]) -> Result<Self, SdError> {
        Self::build_with(data, roles, &SdIndexOptions::default())
    }

    /// Builds with explicit options.
    pub fn build_with(
        data: impl Into<Arc<Dataset>>,
        roles: &[DimRole],
        options: &SdIndexOptions,
    ) -> Result<Self, SdError> {
        let data: Arc<Dataset> = data.into();
        if roles.len() != data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: data.dims(),
                got: roles.len(),
            });
        }
        if data.len() > u32::MAX as usize {
            return Err(SdError::TooManyPoints(data.len()));
        }
        let angles = normalize_angles(&options.angles)?;
        check_axes(&angles)?;
        // A walked pair's rows keep their id order, and its §4 index is
        // bulk-loaded over the projection (x = attractive, y = repulsive),
        // which is scratch — the index keeps its own SoA copy. Any other
        // index is answered by the box scan alone: its rows go in box order.
        let (data, layout) = match walked_pair(roles) {
            Some((rep, att)) => {
                let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[att], c[rep])).collect();
                let blocks = BlockSet::build(&pts, 0..data.len() as u32, &angles);
                (data, Layout::Pair(blocks))
            }
            None => {
                let (moved, order) = BoxOrder::build(&data);
                (Arc::new(moved), Layout::Boxes(order))
            }
        };
        Ok(SdIndex {
            data,
            roles: roles.to_vec(),
            layout,
            query_integrity: Vec::new(),
            mapped_check: Arc::new(OnceLock::new()),
        })
    }

    /// `true` while this index still defers region checksums to first touch
    /// (an `open_mapped` decode); an index that was built, or loaded and
    /// verified eagerly, answers `false`.
    pub fn is_mapped(&self) -> bool {
        !self.query_integrity.is_empty()
    }

    /// Verifies (once) every lazily checksummed region of this index, then
    /// the deferred content checks. Every query entry calls this, and so
    /// must whoever re-encodes a mapped index, so corruption cannot be
    /// laundered into a fresh file under fresh checksums. Free for owned
    /// indexes and after the first call — verified regions are an atomic
    /// load; failures are sticky.
    pub fn verify_integrity(&self) -> Result<(), SdError> {
        if self.query_integrity.is_empty() {
            return Ok(());
        }
        crate::integrity::ensure_all(&self.query_integrity)?;
        let failure = self.mapped_check.get_or_init(|| self.check_ids().err());
        match failure {
            None => Ok(()),
            Some(detail) => Err(SdError::SnapshotCorrupt {
                detail: detail.clone(),
            }),
        }
    }

    /// The content checks of a decode that keep a forged-but-checksummed
    /// file from indexing out of bounds: a walked pair's block-table census,
    /// and every row id below the row count. (That the ids name every row
    /// once — [`BoxOrder::census`] — is checked where a repeat would be
    /// written into a fresh file or trusted for good: an eager decode and
    /// [`SdIndex::rows_by_id`]. Here, on a mapped index's first query, it
    /// would cost as much as the rest of that query's checks together.)
    fn check_ids(&self) -> Result<(), String> {
        let n = self.data.len();
        match &self.layout {
            Layout::Boxes(order) => {
                let limit = u32::try_from(n).unwrap_or(u32::MAX);
                match crate::codec::first_bad(&order.ids, |&id| id >= limit) {
                    Some(pos) => Err(format!(
                        "position {pos}: row id {} out of range for {n} rows",
                        order.ids[pos]
                    )),
                    None => Ok(()),
                }
            }
            Layout::Pair(blocks) => blocks
                .validate_structure(n)
                .map_err(|e| format!("pair 0: {e}")),
        }
    }

    /// The box order of the rows; `None` for a walked pair's index.
    pub(crate) fn order(&self) -> Option<&BoxOrder> {
        match &self.layout {
            Layout::Boxes(order) => Some(order),
            Layout::Pair(_) => None,
        }
    }

    /// A walked pair's §4 block set; `None` for an index in box order.
    pub(crate) fn pair_blocks(&self) -> Option<&BlockSet> {
        match &self.layout {
            Layout::Pair(blocks) => Some(blocks),
            Layout::Boxes(_) => None,
        }
    }

    /// The indexed rows by position: in box order when
    /// [`SdIndex::row_ids`] is `Some`, so row `p` of this dataset is row
    /// `row_ids()[p]` of the dataset the index was built over. Use
    /// [`SdIndex::rows_by_id`] to read them by id.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The row id of every position of [`SdIndex::data`] when the rows are
    /// in box order; `None` when position and id agree (a walked pair's
    /// index).
    pub fn row_ids(&self) -> Option<&[u32]> {
        self.order().map(|o| &o.ids[..])
    }

    /// The indexed rows in id order — the dataset the index was built over.
    /// Borrowed when the rows are stored in that order, a copy when they
    /// are in box order. Verifies the index first
    /// ([`SdIndex::verify_integrity`]), as a query does, and that its id
    /// column names every row exactly once: what a mapped file holds is read
    /// only once its checksums and its id census pass, so a rebuild from
    /// these rows (compaction) cannot launder a bad file.
    pub fn rows_by_id(&self) -> Result<Cow<'_, Dataset>, SdError> {
        self.verify_integrity()?;
        let Some(order) = self.order() else {
            return Ok(Cow::Borrowed(&self.data));
        };
        order
            .census(self.data.len())
            .map_err(|detail| SdError::SnapshotCorrupt { detail })?;
        let (dims, flat) = (self.data.dims(), self.data.flat());
        let mut by_id = vec![0.0; flat.len()];
        for (row, &id) in flat.chunks_exact(dims).zip(order.ids.iter()) {
            let at = id as usize * dims;
            by_id[at..at + dims].copy_from_slice(row);
        }
        let by_id = Dataset::from_view_trusted(dims, ColumnarView::owned(by_id))
            .expect("the shape of a valid dataset");
        Ok(Cow::Owned(by_id))
    }

    /// Build-time dimension roles.
    pub fn roles(&self) -> &[DimRole] {
        &self.roles
    }

    /// Approximate heap footprint of the index structures (excluding the
    /// shared dataset): a walked pair's block tables, or the box order.
    pub fn memory_bytes(&self) -> usize {
        match &self.layout {
            Layout::Pair(blocks) => blocks.memory_bytes(),
            Layout::Boxes(order) => order.memory_bytes(),
        }
    }

    /// `(blocks, resident bytes)` of the stored §4 index (none for an index
    /// in box order).
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
        let indexed = pair_eval(pair.blocks, pair.alpha, pair.beta, pair.qx, pair.qy)
            .is_ok_and(|e| e.indexed());
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
            offset: 0,
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

    /// The build options of this index — what a compaction-time rebuild
    /// passes to [`SdIndex::build_with`] to reproduce the same physical
    /// layout: a walked pair's indexed angles (the default grid for an
    /// index in box order, which holds none).
    pub fn rebuild_options(&self) -> SdIndexOptions {
        SdIndexOptions {
            angles: self
                .pair_blocks()
                .map_or_else(default_angles, |b| b.angles().to_vec()),
        }
    }
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

/// One part of a query ([`answer_parts`]) — in an engine, one shard: its
/// index, the global id of its row 0, and its tombstones viewed at its
/// local rows.
#[derive(Debug, Clone, Copy)]
pub struct ShardPart<'a> {
    /// The shard's index.
    pub index: &'a SdIndex,
    /// Global id of the shard's first row: a row's score enters the query's
    /// floor under `offset + row`.
    pub offset: u32,
    /// The shard's dead rows: `None` when it has none, which spares the
    /// scan and the walk a mask read a row (the engine passes `None` for a
    /// shard without a dead row).
    pub mask: Option<MaskView<'a>>,
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
/// Anything else is one box scan of every part (`scan_parts`): every
/// part's best chunks first, then every part's sweeps, each against the
/// floor everything before it left.
///
/// Every scorer offers each row it keeps to `floor` under its global id,
/// `offset + row`, and prunes against it, tombstoned rows (`mask`) dropped
/// before they reach it; scores already there (an engine's delta rows) end
/// the parts sooner. Once it returns, the floor holds the parts' share of
/// the canonical top k. The parts' counters are added to `scratch.profile`,
/// which the caller resets once per query — also when a deadline or
/// cancellation (`scratch.deadline`, consulted before every pop of the walk
/// and every scanned piece of rows) ended the query — and
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
    let ran = match first.index.single_pair(query) {
        Some(pair) => arbitrary::query_blocks_with(
            parts.map(|part| BlockPart {
                blocks: part
                    .index
                    .pair_blocks()
                    .expect("every part shares the roles"),
                offset: part.offset,
                mask: part.mask,
            }),
            pair.qx,
            pair.qy,
            pair.alpha,
            pair.beta,
            scratch,
            floor,
        ),
        None => scan_parts(parts, &first.index.roles, query, scratch, floor),
    };
    if let Some(t0) = t0 {
        scratch.profile.aggregate_nanos += t0.elapsed().as_nanos() as u64;
    }
    ran
}

/// Chunks each part scores best bound first, before any part is swept:
/// the floor they raise is what the sweeps skip chunks against.
const LEAD_CHUNKS: usize = 16;

/// The scan road of [`answer_parts`]: one box scan of every part, as one.
///
/// Every chunk's bound first ([`bound_part`], the kernel's dimension order,
/// zero weights skipped). Then every part's lead — its [`LEAD_CHUNKS`] best
/// bounds that reach the floor, and every chunk tied with the last of
/// them, ties by smallest id — scored best first, to raise the floor; then
/// two sweeps in row order over every other chunk of every part, the first
/// over the chunks bounded at least halfway from the floor to the best
/// bound, the second over the rest, each chunk scored when it still
/// reaches the floor at its turn ([`reaches`]). A chunk whose bound is
/// strictly under the floor is skipped unread: every row of it scores at
/// most the bound, so strictly below `k` kept scores. One whose bound
/// equals the floor is skipped when its smallest id is above the floor's
/// worst one: a row that ties the k-th score enters only under a smaller
/// id. (An all-zero-weight query bounds every chunk at `0`: its leads take
/// the chunks by smallest id, and once the floor holds `k` rows each chunk
/// whose ids all lie above the worst of them is skipped.) Afterwards every
/// live row of every part has been offered to the floor or is strictly
/// below it, or tied with it under a larger id than any it keeps.
///
/// Why this order. Rows scored on CI's 6-D hostile probe (100k
/// anti-correlated rows, 4 shards, k = 64), where every chunk best first
/// across every part scores 70 672: each part's lead then its own
/// row-order sweep, 80 848; every part's lead before one row-order sweep,
/// 74 384; these two sweeps, 70 736. Best first throughout costs a heap pop
/// a chunk and visits rows out of order: on the repo benchmark (6 s runs,
/// 3–4 seeds each, 2-core VM) it ran `cold_open_4d` ≈ 1.3× and `agg_6d`
/// ≈ 1.2× slower than one sweep, and sorting the sweep into bands of bound
/// cost `agg_6d` ≈ 8 %; the two plain sweeps ran within one sweep's
/// run-to-run spread.
///
/// Counters: `parts_scanned` one a part with rows, `chunks_scored` and
/// `chunks_skipped` the chunks, and per scored piece of up to [`LANES`]
/// rows `rows_fetched` and `scan_rows` its rows, `tombstones_skipped` the
/// dead among them, `points_gathered` the rest and `kernel_batches` one.
/// The deadline is consulted once per piece; an abort leaves the floor
/// holding what was offered so far.
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
    let ChunkBufs { bounds, lead, .. } = bufs;
    scores.resize(LANES, 0.0);
    sw.clear();
    sw.extend(roles.iter().zip(&query.weights).map(|(r, &w)| r.sign() * w));
    part_floor_updates.extend(parts.clone().map(|_| 0));
    for part in parts.clone() {
        bound_part(&part, roles, query, bounds, profile);
    }
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

    // Every part's lead, best bound first, ties by smallest id: keyed so
    // the natural order of the pairs is the visiting order. The best bound
    // of all sets where the first sweep stops.
    let (mut from, mut top) = (0, f64::NEG_INFINITY);
    for (i, shard) in parts.clone().enumerate() {
        let part = PartScan::new(&shard);
        let bounds = &mut bounds[from..from + part_chunks(&shard)];
        from += bounds.len();
        lead.clear();
        for (c, &b) in bounds.iter().enumerate() {
            if reaches(b, part.first(c), floor) {
                top = top.max(b);
                let key = u64::from(part.first(c)) << 32 | c as u64;
                lead.push((!crate::threshold::encode(b), key));
            }
        }
        let leading = LEAD_CHUNKS.min(lead.len());
        if leading < lead.len() {
            lead.select_nth_unstable(leading);
            // Every chunk tied with the last one in joins the lead: ties go
            // by smallest id, so the lead takes them in the order they can
            // win.
            let cut = lead[..leading].iter().map(|e| e.0).max();
            let mut end = leading;
            for j in leading..lead.len() {
                if Some(lead[j].0) == cut {
                    lead.swap(j, end);
                    end += 1;
                }
            }
            lead.truncate(end);
        }
        lead.sort_unstable();
        for &(_, key) in lead.iter() {
            let c = key as u32 as usize;
            if reaches(bounds[c], part.first(c), floor) {
                st.chunk(&part, c, floor, &mut part_floor_updates[i])?;
            }
            // Scored or beaten: the sweep passes it by (no bound is NaN).
            bounds[c] = f64::NAN;
        }
    }

    // The sweeps: every chunk that still reaches the floor, in row order —
    // first those bounded at least halfway from the floor to the best
    // bound, then every other.
    let bar = floor.bar();
    let half = bar + (top - bar) / 2.0;
    for upper in [true, false] {
        let mut from = 0;
        for (i, shard) in parts.clone().enumerate() {
            let part = PartScan::new(&shard);
            let bounds = &mut bounds[from..from + part_chunks(&shard)];
            from += bounds.len();
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
                if b >= bar && reaches(b, part.first(c), floor) {
                    st.chunk(&part, c, floor, &mut part_floor_updates[i])?;
                    bar = floor.bar();
                }
                if upper {
                    *bound = f64::NAN;
                }
            }
        }
    }
    st.prof.chunks_skipped += chunks as u64 - (st.prof.chunks_scored - scored_before);
    Ok(())
}

/// Chunks of `part`: [`CHUNK_ROWS`] rows each, the last one short.
fn part_chunks(part: &ShardPart<'_>) -> usize {
    part.index.data.len().div_ceil(CHUNK_ROWS)
}

/// Appends the score bound of every chunk of `part` to `bounds`: from its
/// box ([`boxes::chunk_bounds`]), or — for a walked pair's rows, in id
/// order — `0`: such an index is scanned only when both its weights are
/// zero ([`SdIndex::single_pair`]), and `0` is then every row's exact
/// score. Counts the part's scan (`parts_scanned`) unless it has no row.
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
    match part.index.order() {
        Some(order) => boxes::chunk_bounds(order, roles, &query.point, &query.weights, bounds),
        None => {
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

/// How a frontier over `blocks` evaluates the pair query `(α, β, (qx, qy))`;
/// an error for both-zero weights (the planner never consults the
/// evaluation for them) and for a weight angle outside the indexed range.
fn pair_eval(
    blocks: &BlockSet,
    alpha: f64,
    beta: f64,
    qx: f64,
    qy: f64,
) -> Result<FrontierEval, SdError> {
    let theta = Angle::from_weights(alpha, beta)?;
    FrontierEval::at(blocks.angles(), &theta, qx, qy)
}

/// One part of a box scan: the shard's rows and how to name them.
///
/// A row is handled by its *position* in the shard's stored order: the
/// scored pieces read positions, and only the floor and the tombstones read
/// the row's id, through the index's id column ([`PartScan::id`]).
struct PartScan<'a> {
    shard: ShardPart<'a>,
    data: &'a Dataset,
    /// The shard's box order; `None` when positions are ids.
    order: Option<&'a BoxOrder>,
    /// The shard's tombstones (an engine passes none for a shard with no
    /// dead row).
    mask: Option<MaskView<'a>>,
}

impl<'a> PartScan<'a> {
    fn new(shard: &ShardPart<'a>) -> Self {
        let data = &*shard.index.data;
        PartScan {
            shard: *shard,
            data,
            order: shard.index.order(),
            mask: shard.mask,
        }
    }

    /// The shard-local row id of position `pos`.
    #[inline]
    fn id(&self, pos: usize) -> u32 {
        self.order.map_or(pos as u32, |o| o.ids[pos])
    }

    /// The smallest global id of chunk `c`: rows in id order start a chunk
    /// with it.
    #[inline]
    fn first(&self, c: usize) -> u32 {
        let local = self.order.map_or((c * CHUNK_ROWS) as u32, |o| o.firsts[c]);
        self.shard.offset + local
    }

    /// The tombstone bits of the `count` positions from `start`: one mask
    /// word in id order, one id lookup a lane in box order.
    #[inline]
    fn dead_word(&self, start: usize, count: usize) -> u32 {
        let Some(mask) = self.mask else {
            return 0;
        };
        let lanes = u32::MAX >> (LANES - count);
        match self.order {
            None => mask.dead_word32(start as u32) & lanes,
            Some(o) => o.ids[start..start + count]
                .iter()
                .enumerate()
                .fold(0, |w, (l, &id)| w | u32::from(mask.is_dead(id)) << l),
        }
    }
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
        part: &PartScan<'_>,
        c: usize,
        floor: &mut QueryFloor<'_>,
        updates: &mut u64,
    ) -> Result<(), SdError> {
        #[cfg(test)]
        self.scanned.push(c);
        self.prof.chunks_scored += 1;
        let n = part.data.len();
        let (lo, hi) = (c * CHUNK_ROWS, ((c + 1) * CHUNK_ROWS).min(n));
        for start in (lo..hi).step_by(LANES) {
            self.deadline.check()?;
            let count = LANES.min(hi - start);
            let dead = part.dead_word(start, count);
            let mut reach = self.piece(part.data, start, count, dead, floor.bar());
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
                let id = part.shard.offset + part.id(start + l);
                let rose = floor.offer(self.scores[l], id);
                prof.points_scored += 1;
                prof.floor_updates += u64::from(rose);
                *updates += u64::from(rose);
            }
        }
        Ok(())
    }

    /// Scores the up to [`LANES`] consecutive positions of `data` from
    /// `start`, inside one chunk, on the full query straight off the
    /// row-major table, compared to `floor` in the same pass
    /// ([`kernels::score_rows`]), and returns the live rows at or above it.
    /// A dead row costs a wasted lane, never a visit to the floor.
    ///
    /// Kept out of line: inlined, the same kernel source has come out
    /// ≈ 25 % apart in speed depending on the loop around it.
    #[inline(never)]
    fn piece(&mut self, data: &Dataset, start: usize, count: usize, dead: u32, floor: f64) -> u32 {
        let live = (u32::MAX >> (LANES - count)) & !dead;
        if live == 0 {
            return 0;
        }
        let dims = data.dims();
        let run = &data.flat()[start * dims..(start + count) * dims];
        kernels::score_rows(&mut self.scores[..count], run, dims, self.q, self.sw, floor) & live
    }
}

/// The scan's per-query buffers, kept in the [`QueryScratch`]: one bound
/// per chunk of every part of the query, and one part's lead at a time.
#[derive(Default)]
pub(crate) struct ChunkBufs {
    bounds: Vec<f64>,
    lead: Vec<(u64, u64)>,
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
/// [`Pair2DStream::next_unit`] kernel-scores a popped block's lanes on the
/// pair and filters them against the floor before emission.
pub struct Pair2DStream<'a> {
    frontier: BlockFrontier<'a>,
    blocks: &'a BlockSet,
    alpha: f64,
    beta: f64,
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
        let blocks = pair.blocks;
        let eval = pair_eval(blocks, pair.alpha, pair.beta, pair.qx, pair.qy)?;
        Ok(Some(Pair2DStream {
            frontier: BlockFrontier::with_scratch(blocks, eval, Default::default()),
            blocks,
            alpha: pair.alpha,
            beta: pair.beta,
            r: pair.alpha.hypot(pair.beta),
        }))
    }

    /// Fetches this stream's next *emission unit* into `out`: the row id of
    /// every live row of its next surviving SoA leaf block (up to [`LANES`]
    /// at once), after block-level floor pruning. With `prune = Some((f,
    /// others))` — `f` the current k-th-score floor and `others` what the
    /// rest of the score can add at most — any block whose raw subscore
    /// bound `b` satisfies `f > inflate(b + others)` is certifiably outside
    /// the top-k (every point in it scores at most `b + others`) and is
    /// discarded before a single point is scored, and so is every lane with
    /// `f > inflate(subscore + others)`.
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
        let (blocks, r) = (self.blocks, self.r);
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
        let mut live = blocks.live(block);
        let slots = blocks.slots(block);
        if let Some((f, others)) = prune {
            // Per-lane floor filter on the cheap SoA pair subscores: a lane
            // with `f > inflate(subscore + others)` can hold no top-k row no
            // matter what the rest contributes, and dies here.
            let mut scores = [0.0f64; LANES];
            let eval = self.frontier.eval();
            kernels::score_block_2d(
                &mut scores,
                blocks.xs(block),
                blocks.ys(block),
                eval.qx,
                eval.qy,
                self.alpha,
                self.beta,
            );
            let keep = kernels::lane_filter(&scores, live, others, f);
            prof.lanes_masked += u64::from((live & !keep).count_ones());
            live = keep;
        }
        while live != 0 {
            let l = live.trailing_zeros() as usize;
            live &= live - 1;
            out.push(slots[l]);
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
