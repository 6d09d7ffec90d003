//! The §5 extension to arbitrary dimensions: pairing, pair streams and
//! TA-style threshold aggregation.
//!
//! The SD-score (Eqn. 3) is re-expressed as Eqn. 10: `min(|D|, |S|)`
//! repulsive↔attractive 2-D subproblems — each served by a stored §4 index
//! (see [`crate::topk`]) — plus the leftover dimensions. Every pair
//! subproblem yields points in non-increasing subscore order together with
//! an admissible bound; the aggregation loop fetches the per-subproblem
//! tops, scores fetched points exactly on the *full* query, and stops once
//! the k-th best exact score reaches the threshold `τ = Σ` (per-stream
//! bounds) — the TA stopping rule, guaranteed optimal, but with two
//! dimensions per subproblem, which is the source of the paper's
//! scalability edge over classic TA (§6.2).
//!
//! A leftover (unpaired) dimension gets no stream. The paper serves it with
//! a 1-D sorted list, but a 1-D stream surfaces one row a round beside a
//! pair's 32-row block, so its bound barely moves before the query ends.
//! Instead the index keeps each unpaired dimension's extent `[lo, hi]` over
//! its rows and adds one constant to `τ` and to every pair stream's
//! pruning bar: `w·max(|hi − q|, |q − lo|)` for a repulsive dimension,
//! `−w·dist(q, [lo, hi])` for an attractive one ([`SdIndex`]'s
//! `extent_bound`). The 1-D sorted lists live on only in the adapted-TA
//! baseline (the `sdq-baselines` crate), which runs its own plain TA loop.
//!
//! ## Execution model
//!
//! Every stream is a [`Pair2DStream`], so the `bound()`/`next_unit()` calls
//! in the aggregation inner loop are direct (inlinable) calls — no vtable
//! and no dispatch in the hot path.
//!
//! A query runs one way: [`answer_parts`], the one driver, over the parts of
//! the query — the one index of [`SdIndex::query_with`], or every shard of
//! an engine — out of one [`QueryScratch`]. A query that is one
//! non-degenerate pair ([`SdIndex::single_pair`]) is the certified §4 walk
//! over the pair's indexes of every part at once. Anything else is the §5
//! aggregation: one execution per part, each given one slice of
//! `SLICE_ROUNDS` rounds, then each still open run to completion in part
//! order. The executions share the scratch's per-round buffers, its
//! deadline, its frontier heaps and one seen-set over the query's global
//! ids; each keeps only its streams, its fetch budget and its counters.
//! Every execution and the walk offer each score they keep, under the row's
//! global id, to the query's one [`QueryFloor`], passed `&mut`: the
//! engine's, or a fresh one of `query_with`'s own. That floor is the
//! query's answer heap: one drain of it, once every scorer is done, is the
//! answer. The allocating [`SdIndex::query`] is a thin wrapper over
//! `query_with`.
//!
//! Every pair is served by its own §4 frontier, by the rule in [`plan`]:
//! certified at an indexed angle (0° and 90°, a zero weight, always are),
//! Claim 6 bracketed otherwise, dropped when both weights are zero. An
//! execution that has fetched more than
//! [`plan::scan_budget`] rows without certifying — or whose threshold gap
//! projects that it will ([`plan::scan_checkpoint`]), or whose sibling
//! execution of the same query already did, or whose query started lost
//! ([`QueryFloor::verdict`]; a query with no pair to stream always
//! does) — stops consulting its streams and finishes
//! with one sequential kernel scan of the rows it has not seen.
//! Every strategy is exact: a row is left unscored only when it is strictly
//! below `k` scores the floor holds, so the floor ends holding the
//! **canonical** top k (score descending, ties by row ascending), and
//! planning can never change an answer, only its cost; this is also what
//! makes sharded execution (the `sdq-engine` crate) bit-identical to the
//! monolithic path.
//!
//! An aggregation terminates as soon as the query's [`QueryFloor`] — the
//! k-th best exact score found by any of its scorers so far — certifiably
//! beats the admissible bound on everything unfetched, or a stream has
//! drained; see [`answer_parts`].

pub mod pairing;
pub mod plan;

use std::sync::{Arc, OnceLock};

pub use pairing::{pair_dimensions, DimPair, PairingStrategy};
pub use plan::{PairAction, PairPlan, QueryPlan};

use crate::deadline::Deadline;
use crate::geometry::Angle;
use crate::integrity::SectionIntegrity;
use crate::kernels::{self, inflate, LANES};
use crate::mask::MaskView;
use crate::profile::QueryProfile;
use crate::scratch::{QueryScratch, StampSet};
use crate::threshold::{QueryFloor, Verdict};
use crate::topk::arbitrary::{self, BlockPart};
use crate::topk::blocks::{BlockFrontier, BlockSet};
use crate::topk::stream::FrontierEval;
use crate::topk::{check_axes, default_angles, normalize_angles};
use crate::types::{Dataset, ScoredPoint, SdError};
use crate::{DimRole, SdQuery};

/// Tuning knobs for [`SdIndex::build_with`].
#[derive(Debug, Clone)]
pub struct SdIndexOptions {
    /// How repulsive and attractive dimensions are matched (§5 / future
    /// work).
    pub pairing: PairingStrategy,
    /// Indexed projection angles of the per-pair §4 indexes (§4.2).
    pub angles: Vec<Angle>,
}

impl Default for SdIndexOptions {
    fn default() -> Self {
        SdIndexOptions {
            pairing: PairingStrategy::Arbitrary,
            angles: default_angles(),
        }
    }
}

/// The multi-dimensional SD-Query index (§5): one bulk-loaded §4 index per
/// pair plus the extent of every unpaired dimension, aggregated under a
/// TA-style threshold at query time.
///
/// Dimension *roles* are fixed at build time (they determine the pairing
/// and the physical indexes); weights and `k` are free at query time.
/// Queries never mutate the index, so one `SdIndex` can be shared
/// immutably across any number of threads.
#[derive(Debug, Clone)]
pub struct SdIndex {
    pub(crate) data: Arc<Dataset>,
    pub(crate) roles: Vec<DimRole>,
    /// The strategy that chose `pairs`, recorded so a rebuild (compaction)
    /// pairs the same way.
    pub(crate) pairing: PairingStrategy,
    pub(crate) pairs: Vec<DimPair>,
    pub(crate) unpaired: Vec<usize>,
    /// One §4 index per pair over the projection `(x = attractive, y =
    /// repulsive)` of `data`; its point slots are dataset rows.
    pub(crate) pair_blocks: Vec<BlockSet>,
    /// `(lo, hi)` of each unpaired dimension over this index's rows, in
    /// `unpaired` order (`(0, 0)` when there are no rows).
    pub(crate) extents: Vec<(f64, f64)>,
    /// Lazily verified CRC regions of this index when it was decoded lazily
    /// (`open_mapped`): the dataset coordinate table and every pair's block
    /// tables (and an older file's sorted columns). Empty for built or
    /// eagerly loaded indexes.
    pub(crate) query_integrity: Vec<Arc<SectionIntegrity>>,
    /// Once-shot content validation of a decode (block-table census, slot
    /// ids in range) — run after the CRCs pass: on the first
    /// query of a lazy open, before an eager one returns. `Some(detail)` is
    /// a sticky corruption verdict.
    pub(crate) mapped_check: Arc<OnceLock<Option<String>>>,
}

impl SdIndex {
    /// Builds with default options (arbitrary pairing, five angles).
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
        let (pairs, unpaired) = pair_dimensions(&data, roles, options.pairing);

        // Per pair: project (x = attractive, y = repulsive) out of the rows
        // and bulk-load. The projection is scratch — the index keeps its own
        // SoA copy and nothing else.
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(data.len());
        let mut pair_blocks = Vec::with_capacity(pairs.len());
        for p in &pairs {
            pts.clear();
            pts.extend(data.iter().map(|(_, c)| (c[p.attractive], c[p.repulsive])));
            pair_blocks.push(BlockSet::build(&pts, 0..data.len() as u32, &angles));
        }
        let extents = unpaired.iter().map(|&d| extent(&data.column(d))).collect();
        Ok(SdIndex {
            data,
            roles: roles.to_vec(),
            pairing: options.pairing,
            pairs,
            unpaired,
            pair_blocks,
            extents,
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
    /// file from indexing out of bounds: every pair's block-table census.
    fn check_ids(&self) -> Result<(), String> {
        let n = self.data.len();
        for (pi, blocks) in self.pair_blocks.iter().enumerate() {
            blocks
                .validate_structure(n)
                .map_err(|e| format!("pair {pi}: {e}"))?;
        }
        Ok(())
    }

    /// The indexed dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Build-time dimension roles.
    pub fn roles(&self) -> &[DimRole] {
        &self.roles
    }

    /// The 2-D subproblem pairs.
    pub fn pairs(&self) -> &[DimPair] {
        &self.pairs
    }

    /// Dimensions left over after pairing, bounded by their extents.
    pub fn unpaired(&self) -> &[usize] {
        &self.unpaired
    }

    /// Approximate heap footprint of the index structures (excluding the
    /// shared dataset).
    pub fn memory_bytes(&self) -> usize {
        self.pair_blocks
            .iter()
            .map(BlockSet::memory_bytes)
            .sum::<usize>()
            + std::mem::size_of_val(&self.extents[..])
    }

    /// What the unpaired dimensions can add to the score of any row of this
    /// index under `query`: each dimension's subscore at the row of its
    /// extent that serves it best — `w·max(|hi − q|, |q − lo|)` for a
    /// repulsive one, `−w·dist(q, [lo, hi])` for an attractive one. Each
    /// term is computed as the kernels compute a row's (one subtraction,
    /// one product), and rounding is monotone, so it is never below any
    /// row's term; `0` with nothing unpaired.
    fn extent_bound(&self, query: &SdQuery) -> f64 {
        let mut bound = 0.0;
        for (&d, &(lo, hi)) in self.unpaired.iter().zip(&self.extents) {
            let (q, w) = (query.point[d], query.weights[d]);
            bound += match self.roles[d] {
                DimRole::Repulsive => w * (hi - q).abs().max((q - lo).abs()),
                DimRole::Attractive => -(w * (lo - q).max(q - hi).max(0.0)),
            };
        }
        bound
    }

    /// `(blocks, resident bytes)` of the per-pair §4 indexes, summed.
    pub fn block_stats(&self) -> (usize, usize) {
        self.pair_blocks.iter().fold((0, 0), |(blocks, bytes), b| {
            (blocks + b.n_blocks(), bytes + b.memory_bytes())
        })
    }

    /// The planner's rule applied to `query` against this index: which
    /// strategy every pair runs under, the weight angle it read, and whether
    /// the whole query is the direct 2-D walk — exactly when
    /// [`SdIndex::single_pair`] is `Some`, which is when
    /// [`SdIndex::query_with`] and the engine, at any shard count, walk.
    /// Observability only (`sdq inspect` and `sdq query --explain`, in
    /// `crates/store/src/bin/sdq.rs`, plumb it out) — the hot path applies
    /// the same rule ([`plan::plan_pair`]) inline without allocating.
    pub fn plan(&self, query: &SdQuery) -> Result<QueryPlan, SdError> {
        if query.dims() != self.data.dims() {
            return Err(SdError::DimensionMismatch {
                expected: self.data.dims(),
                got: query.dims(),
            });
        }
        let pairs = self
            .pairs
            .iter()
            .zip(&self.pair_blocks)
            .map(|(pair, blocks)| {
                let alpha = query.weights[pair.repulsive];
                let beta = query.weights[pair.attractive];
                let (qx, qy) = (query.point[pair.attractive], query.point[pair.repulsive]);
                let indexed = pair_eval(blocks, alpha, beta, qx, qy).is_ok_and(|e| e.indexed());
                PairPlan {
                    repulsive: pair.repulsive,
                    attractive: pair.attractive,
                    action: plan::plan_pair(alpha, beta, indexed),
                    theta: Angle::from_weights(alpha, beta).ok(),
                }
            })
            .collect();
        let unpaired_extents = self
            .unpaired
            .iter()
            .filter(|&&d| query.weights[d] != 0.0)
            .count();
        Ok(QueryPlan {
            direct: self.single_pair(query).is_some(),
            pairs,
            unpaired_extents,
            scan_budget: plan::scan_budget(self.data.len()),
        })
    }

    /// The one predicate behind the direct 2-D walk: `Some` when the whole
    /// query is one non-degenerate pair over this index — one pair, no
    /// unpaired dimension, not both of its weights zero (one zero weight is
    /// a walk at 0° or 90°). Every index of an engine shares its roles, so
    /// any shard answers for all of them. `None` for a query of another
    /// dimensionality than this index's.
    pub fn single_pair(&self, query: &SdQuery) -> Option<SinglePair> {
        if self.pairs.len() != 1 || !self.unpaired.is_empty() || query.dims() != self.data.dims() {
            return None;
        }
        let p = self.pairs[0];
        let alpha = query.weights[p.repulsive];
        let beta = query.weights[p.attractive];
        if alpha == 0.0 && beta == 0.0 {
            return None; // projection angle undefined; aggregation handles it
        }
        Some(SinglePair {
            alpha,
            beta,
            qx: query.point[p.attractive],
            qy: query.point[p.repulsive],
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
    /// part, scoring into a fresh [`QueryFloor`] of the scratch's, drained
    /// into the answer.
    pub fn query_with<'s>(
        &self,
        query: &SdQuery,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<&'s [ScoredPoint], SdError> {
        if k == 0 {
            return Err(SdError::ZeroK);
        }
        let mut heap = std::mem::take(&mut scratch.floor);
        let mut floor = QueryFloor::new(&mut heap, k.min(self.data.len()));
        let part = ShardPart {
            index: self,
            offset: 0,
            mask: None,
        };
        let ran = answer_parts([part], query, scratch, &mut floor);
        if ran.is_ok() {
            scratch.profile.floor_value = floor.value();
            floor.drain_into(&mut scratch.answers);
            scratch.profile.emitted = scratch.answers.len() as u64;
        }
        scratch.floor = heap;
        ran.map(|()| &scratch.answers[..])
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
    /// layout: the recorded pairing strategy and the pairs' indexed angles
    /// (the default grid when there is no pair to read them from).
    pub fn rebuild_options(&self) -> SdIndexOptions {
        SdIndexOptions {
            pairing: self.pairing,
            angles: self
                .pair_blocks
                .first()
                .map_or_else(default_angles, |b| b.angles().to_vec()),
        }
    }

    /// Assembles the pair streams for one query into the scratch's recycled
    /// buffer, one planner decision per pair. Zero-weight pairs contribute
    /// neither bounds nor useful candidates and are dropped outright, so a
    /// query whose pair weights are all zero has no stream at all — and its
    /// execution scans from the start (see [`aggregate_rounds`]).
    fn assemble_streams<'i>(
        &'i self,
        query: &SdQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Vec<Pair2DStream<'i>>, SdError> {
        let mut streams = scratch.stream_buf();
        streams.reserve(self.pairs.len());
        for (pair, blocks) in self.pairs.iter().zip(&self.pair_blocks) {
            let alpha = query.weights[pair.repulsive];
            let beta = query.weights[pair.attractive];
            let qx = query.point[pair.attractive];
            let qy = query.point[pair.repulsive];
            // The pair's weight angle is resolved against its indexed angles
            // once: the planner reads whether it is indexed, the stream
            // walks under the same evaluation.
            let eval = pair_eval(blocks, alpha, beta, qx, qy);
            let indexed = eval.as_ref().is_ok_and(FrontierEval::indexed);
            if plan::plan_pair(alpha, beta, indexed) == PairAction::Degenerate {
                continue; // contributes exactly 0 to every score
            }
            match eval {
                Ok(eval) => streams.push(Pair2DStream::with_scratch(
                    blocks, eval, alpha, beta, scratch,
                )),
                Err(e) => {
                    // Hand every buffer back before propagating.
                    for s in streams.drain(..) {
                        s.recycle(scratch);
                    }
                    scratch.put_streams(streams);
                    return Err(e);
                }
            }
        }
        Ok(streams)
    }
}

/// `(lo, hi)` of a column's values; `(0, 0)` for an empty column.
fn extent(values: &[f64]) -> (f64, f64) {
    match values.split_first() {
        Some((&first, rest)) => rest
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
        None => (0.0, 0.0),
    }
}

/// A query that is one non-degenerate pair over an index with one pair and
/// nothing unpaired — the only query the direct 2-D walk answers, and so
/// only obtained from [`SdIndex::single_pair`].
#[derive(Debug, Clone, Copy)]
pub struct SinglePair {
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
    /// The shard's dead rows, if any.
    pub mask: Option<MaskView<'a>>,
}

/// Rounds of the aggregation's first pass: enough that each slice makes
/// real bound progress, small enough that the query's floor forms while
/// every part is still early in its descent.
const SLICE_ROUNDS: usize = 8;

/// The one driver of a query: answers `query` over `parts` — the one index
/// of [`SdIndex::query_with`], or every shard of an engine — into `floor`,
/// the query's one answer heap, out of one `scratch`, all on the calling
/// thread. Every part must share the roles of the first (an engine's do).
///
/// A query that is one non-degenerate pair ([`SdIndex::single_pair`]) is the
/// paper's §4 answer: one certified best-first walk over the pair's block
/// sets of every part at once — the frontier whose head bound is highest is
/// popped first, which walks the parts as one index under a virtual root
/// (`rounds` stays 0). Anything else is the §5 aggregation: one execution
/// per part, each given one slice of `SLICE_ROUNDS` (8) rounds, so a floor
/// forms from every part's best rows, then each one still open run to
/// completion in part order. So the first execution that finds its streams
/// lost and takes the scan exit does so while its siblings have spent one
/// slice each, and its verdict on `floor` sends them straight to their own
/// scans at their next round head (`scan_inherited`) — unless the floor
/// certifies them first.
///
/// Every scorer offers each row it keeps to `floor` under its global id,
/// `offset + row`, and prunes against it, tombstoned rows (`mask`) dropped
/// before they reach it; scores already there (an engine's delta rows, an
/// audit's lead shards) end the parts sooner. Once it returns, the floor
/// holds the parts' share of the canonical top k. `scratch.profile` is
/// reset here and ends holding the parts' counters, summed — also when a
/// deadline or cancellation (`scratch.deadline`, consulted before every pop
/// of the walk, every round head and every scanned chunk) ended the query —
/// and `scratch.part_floor_updates` each part's share of `floor_updates`,
/// in part order. Every buffer goes back to the scratch either way, so a
/// warmed scratch answers without allocating.
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
    scratch.profile.reset();
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
                blocks: &part.index.pair_blocks[0],
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
        None => aggregate(parts, query, scratch, floor),
    };
    if let Some(t0) = t0 {
        scratch.profile.aggregate_nanos += t0.elapsed().as_nanos() as u64;
    }
    ran
}

/// The aggregation road of [`answer_parts`]: begins one execution per part
/// into the scratch's recycled run list, opens the query's seen-set over
/// every part's global ids, steps the executions in two passes, and
/// finishes every one it began — completed or tripped.
fn aggregate<'a>(
    mut parts: impl Iterator<Item = ShardPart<'a>>,
    query: &'a SdQuery,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Result<(), SdError> {
    let mut runs = scratch.run_buf();
    let mut ids = 0;
    let mut ran = parts.try_for_each(|part| {
        ids = ids.max(part.offset as usize + part.index.data.len());
        runs.push(ShardExecution::begin(part, query, scratch)?);
        Ok(())
    });
    if ran.is_ok() {
        scratch.seen.begin(ids);
        ran = [SLICE_ROUNDS, usize::MAX]
            .into_iter()
            .try_for_each(|rounds| {
                runs.iter_mut()
                    .try_for_each(|run| run.step(rounds, scratch, floor).map(drop))
            });
    }
    let updates = runs.iter().map(|run| run.profile.floor_updates);
    scratch.part_floor_updates.extend(updates);
    // Last begun first: the next query's parts then take back the heaps and
    // stream lists these took, part for part.
    for run in runs.drain(..).rev() {
        run.finish(scratch);
    }
    scratch.put_runs(runs);
    ran
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

/// The scoring stage behind every row the aggregation looks at, whichever
/// way the row arrived: a round's fetched batch ([`score_rows_batched`]) is
/// tombstone-masked, gathered into [`LANES`]-wide SoA lanes and scored on
/// the full query by the lane kernels; the scan exit ([`scan_unseen`])
/// scores every run of consecutive rows where it lies, floor compare
/// included, and only then drops the rows the streams already surfaced and
/// the tombstoned ones. Either way the scores that pass the floor compare
/// are offered to the query's [`QueryFloor`] under their global ids
/// ([`BatchScorer::admit`]).
///
/// Lanes strictly below the floor's bar — the k-th best score this query
/// has found anywhere, once there are that many — are dropped by the
/// batched survivor compare before touching any heap: they can never
/// displace `k` known scores (ties survive, preserving canonical tie
/// resolution).
struct BatchScorer<'a, 'h> {
    data: &'a Dataset,
    roles: &'a [DimRole],
    query: &'a SdQuery,
    mask: Option<MaskView<'a>>,
    /// Global id of the shard's row 0.
    offset: u32,
    floor: &'a mut QueryFloor<'h>,
    gather: &'a mut Vec<f64>,
    scores: &'a mut Vec<f64>,
    prof: &'a mut QueryProfile,
    lane_rows: [u32; LANES],
    cnt: usize,
}

impl BatchScorer<'_, '_> {
    /// Takes one distinct (not yet seen) row: drops it if tombstoned,
    /// otherwise gathers it into the next free lane, scoring the batch
    /// when it fills.
    #[inline]
    fn offer(&mut self, row: u32) {
        // Tombstoned rows are dropped here, before the floor: a dead row's
        // score in it could prune live rows, or answer.
        if self.mask.is_some_and(|m| m.is_dead(row)) {
            self.prof.tombstones_skipped += 1;
            return;
        }
        self.prof.points_gathered += 1;
        let dims = self.data.dims();
        let base = row as usize * dims;
        let coords = &self.data.flat()[base..base + dims];
        for (d, &c) in coords.iter().enumerate() {
            self.gather[d * LANES + self.cnt] = c;
        }
        self.lane_rows[self.cnt] = row;
        self.cnt += 1;
        if self.cnt == LANES {
            self.flush();
        }
    }

    /// Scores the gathered lanes (a no-op when none are pending).
    fn flush(&mut self) {
        let cnt = std::mem::take(&mut self.cnt);
        if cnt > 0 {
            // Stale lanes beyond `cnt` hold the previous gather's (finite)
            // coordinates; the live mask drops them.
            self.score_lanes(u32::MAX >> (LANES - cnt));
        }
    }

    /// Kernel-scores the gathered lanes named by `live` on the full query,
    /// then takes every survivor of the floor compare through
    /// [`BatchScorer::admit`].
    fn score_lanes(&mut self, live: u32) {
        self.prof.kernel_batches += 1;
        self.prof.isa = kernels::active().name();
        let bar = self.floor.bar();
        let mut surv = score_survivors(self.roles, self.query, self.gather, self.scores, live, bar);
        while surv != 0 {
            let l = surv.trailing_zeros() as usize;
            surv &= surv - 1;
            self.admit(self.lane_rows[l], self.scores[l]);
        }
    }

    /// The one per-row step behind every kept score: into the floor, under
    /// the row's global id.
    #[inline]
    fn admit(&mut self, row: u32, score: f64) {
        self.prof.points_scored += 1;
        self.prof.floor_updates += u64::from(self.floor.offer(score, self.offset + row));
    }
}

/// Kernel-scores the gathered lanes on the full query into `scores` and
/// returns which of the `live` ones reach `floor`.
///
/// This and [`UnseenScan::chunk`] are the kernel half of the scoring stage,
/// kept out of line: inlined, the same source has come out ≈ 25 % apart in
/// speed depending on the loop around it.
#[inline(never)]
fn score_survivors(
    roles: &[DimRole],
    query: &SdQuery,
    gather: &[f64],
    scores: &mut [f64],
    live: u32,
    floor: f64,
) -> u32 {
    kernels::score_zero(scores);
    for (d, col) in gather.chunks_exact(LANES).enumerate() {
        let sw = roles[d].sign() * query.weights[d];
        kernels::score_add_dim(scores, col, query.point[d], sw);
    }
    kernels::survivors(scores, live, floor)
}

/// Scores one round's fetched rows: duplicates die on the query's
/// seen-set (over global ids), the rest go through the [`BatchScorer`].
fn score_rows_batched(scorer: &mut BatchScorer<'_, '_>, seen: &mut StampSet, batch: &[u32]) {
    for &row in batch {
        if seen.insert(scorer.offset + row) {
            scorer.offer(row);
        } else {
            scorer.prof.seen_hits += 1;
        }
    }
    scorer.flush();
}

/// The read-only state of one [`scan_unseen`] pass — everything about the
/// scan but the scorer it feeds.
struct UnseenScan<'a> {
    data: &'a Dataset,
    /// The query's seen-set, over global ids: row `r` is `offset + r` in it.
    seen: &'a StampSet,
    offset: usize,
    mask: Option<MaskView<'a>>,
    /// The query point and the role-signed weights, one per dimension.
    q: &'a [f64],
    sw: &'a [f64],
}

impl UnseenScan<'_> {
    /// One chunk — the up to [`LANES`] consecutive rows from `start`:
    /// scores the whole run on the full query into `scores[..count]`
    /// straight off the row-major table, compares it to `floor` in the same
    /// pass, and returns the lanes that reach it and are live (not yet
    /// seen, not tombstoned). The seen-set and the tombstones are read only
    /// for a chunk with a lane at the floor (on a lost 6-D query, ≈ 0.4 %
    /// of the rows reach it); a row already scored or dead costs a wasted
    /// lane, never a visit to the floor.
    #[inline(never)]
    fn chunk(&self, start: usize, floor: f64, scores: &mut [f64]) -> u32 {
        let dims = self.data.dims();
        let count = LANES.min(self.data.len() - start);
        let flat = self.data.flat();
        // The chunk three ahead, a line at a time (past the end: a no-op).
        let ahead = flat.as_ptr().wrapping_add((start + 3 * LANES) * dims);
        for line in (0..LANES * dims).step_by(8) {
            kernels::prefetch(ahead.wrapping_add(line));
        }
        let run = &flat[start * dims..(start + count) * dims];
        let reach = kernels::score_rows(&mut scores[..count], run, dims, self.q, self.sw, floor);
        if reach == 0 {
            return 0;
        }
        let live = reach & self.seen.unseen_word(self.offset + start, count);
        // Tombstoned rows stop here, before the floor.
        self.mask
            .map_or(live, |m| live & !m.dead_word32(start as u32))
    }
}

/// The cost-bounded exit of the aggregation (see [`plan::scan_budget`] and
/// [`plan::ScanProbe`] for its two triggers): scores every row of the
/// shard, in row order, [`LANES`] consecutive rows at a time
/// ([`UnseenScan::chunk`]), and takes the survivors the streams had not
/// surfaced yet through the same [`BatchScorer::admit`] the fetched batches
/// end in. Afterwards every live row of the shard has been offered to the
/// floor or is strictly below it.
///
/// Every chunk is scored, so `kernel_batches` grows by the shard's chunk
/// count. The rest of the tallies are what a row-by-row pass over the
/// unseen rows would count, read off the execution instead: every row in
/// the seen-set was counted once, gathered or tombstone-skipped, when it
/// was fetched, so the unseen rows are the shard's rows less those two
/// counters, and the unseen dead rows are the shard's dead rows less the
/// skipped ones.
///
/// The streams are not consulted again, so their bound staging `sw` is free
/// to hold the role-signed weights for the pass. The seen-set is only read:
/// the pass meets every row once and ends the execution. The deadline is
/// consulted once per chunk; an abort leaves the partial state behind
/// exactly like an abort between rounds.
fn scan_unseen(
    scorer: &mut BatchScorer<'_, '_>,
    seen: &StampSet,
    sw: &mut Vec<f64>,
    deadline: &Deadline,
) -> Result<(), SdError> {
    scorer.prof.scan_fallbacks += 1;
    let (roles, query) = (scorer.roles, scorer.query);
    sw.clear();
    sw.extend(roles.iter().zip(&query.weights).map(|(r, w)| r.sign() * w));
    let scan = UnseenScan {
        data: scorer.data,
        seen,
        offset: scorer.offset as usize,
        mask: scorer.mask,
        q: &query.point,
        sw,
    };
    let n = scan.data.len();
    for start in (0..n).step_by(LANES) {
        deadline.check()?;
        let mut surv = scan.chunk(start, scorer.floor.bar(), scorer.scores);
        while surv != 0 {
            let l = surv.trailing_zeros() as usize;
            surv &= surv - 1;
            scorer.admit((start + l) as u32, scorer.scores[l]);
        }
    }
    let prof = &mut *scorer.prof;
    let scanned = n as u64 - (prof.points_gathered + prof.tombstones_skipped);
    let dead = scan.mask.map_or(0, |m| m.dead_among(n)) as u64 - prof.tombstones_skipped;
    prof.scan_rows += scanned;
    prof.rows_fetched += scanned;
    prof.tombstones_skipped += dead;
    prof.points_gathered += scanned - dead;
    prof.kernel_batches += n.div_ceil(LANES) as u64;
    prof.isa = kernels::active().name();
    Ok(())
}

/// The §5 aggregation loop. Runs up to `rounds` iterations over the state of
/// one [`ShardExecution`] — its only caller is `ShardExecution::step`;
/// returns `true` once the execution is complete: every live row of its
/// shard that can be in the query's top k is in the query's floor.
///
/// Exact and **canonical**: the execution ends at a round head where a
/// stream has drained (every row has been fetched) or where the query's
/// [`QueryFloor`] — the k-th best exact score its scorers, this execution,
/// its siblings and the engine's delta scan, have found so far — is
/// strictly above the (FP-inflated) threshold `τ` (the execution's extent
/// bound plus every stream's bound), so every row left unscored is strictly
/// below `k` kept scores and can be in no answer, however ties fall; the
/// floor's `(score, id)` order resolves the ties it keeps.
///
/// One iteration fetches one *emission unit* per pair stream — a whole SoA
/// leaf block — and scores the round's union through the batched kernels
/// ([`score_rows_batched`]). Every stream additionally receives a
/// per-stream floor-pruning threshold (`k`-th-score floor minus the other
/// streams' bounds), so whole blocks certifiably outside the top-k are
/// rejected before any of their points is scored. The extent bound (the
/// unpaired dimensions' constant) is one more term of `τ` and of every
/// stream's "other bounds".
///
/// The execution's `scan_budget` bounds what the loop may spend on fetching: an iteration
/// that finds the query neither certified nor floor-terminated after more
/// than `scan_budget` rows have been fetched stops consulting the streams
/// and finishes with [`scan_unseen`] — one sequential kernel pass over the
/// rows not seen yet — inside this call, whatever `rounds` says (see
/// [`plan::scan_budget`] for the exchange rate behind the constant). So
/// does an iteration in which the execution's `ScanProbe` reads off the
/// threshold gap that the budget is going to be spent (see
/// [`plan::scan_checkpoint`]), and one that finds the query's floor marked
/// lost — by a sibling execution that took the exit first, or by the engine
/// before round one ([`QueryFloor::verdict`], read after the drain and floor
/// checks); every trigger reaches the one call, which marks the floor lost
/// in turn.
/// An execution with no stream — a query whose pair weights are all zero,
/// or an index with no pair — starts lost on its own and scans at its
/// first round head, counted as `scan_predicted`, unless the floor already
/// beats its `τ`, the extent bound alone.
///
/// The scratch's deadline is consulted once per iteration — block-pop
/// granularity, one inlined branch when unset — and once per [`LANES`]
/// scanned rows, and aborts the aggregation with the typed deadline/cancel
/// error. The round's buffers are the scratch's, shared by every execution
/// of the query; what survives between steps is the execution's.
fn aggregate_rounds(
    exec: &mut ShardExecution<'_>,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
    mut rounds: usize,
) -> Result<bool, SdError> {
    let ShardExecution {
        part,
        query,
        streams,
        extent_bound,
        profile: prof,
        scan_budget,
        probe,
        done: _,
    } = exec;
    let QueryScratch {
        seen,
        rows: batch,
        gather,
        scores,
        fbuf,
        deadline,
        ..
    } = scratch;
    let (data, query, extent_bound, scan_budget) =
        (&*part.index.data, *query, *extent_bound, *scan_budget);
    // Fixed-size after the first call: no steady-state allocation.
    gather.resize(data.dims() * LANES, 0.0);
    scores.resize(LANES, 0.0);
    let mut scorer = BatchScorer {
        data,
        roles: &part.index.roles,
        query,
        mask: part.mask,
        offset: part.offset,
        floor,
        gather,
        scores,
        prof,
        lane_rows: [0; LANES],
        cnt: 0,
    };
    while rounds > 0 {
        rounds -= 1;
        scorer.prof.rounds += 1;
        deadline.check()?;

        // Threshold over rows unseen by *every* stream; per-stream bounds
        // staged for the block-pruning thresholds below. A drained stream
        // has surfaced every row of the shard, so every live one is scored.
        let mut tau = extent_bound;
        fbuf.clear();
        for s in streams.iter() {
            let Some(b) = s.bound() else {
                return Ok(true);
            };
            fbuf.push(b);
            tau += b;
        }

        // k-th-score floor: once k exact scores of the query are known —
        // here, in a sibling shard or in the delta — and τ certifies every
        // unfetched row is strictly below them, this shard has nothing left
        // to add.
        let f = scorer.floor.bar();
        if f > inflate(tau) {
            return Ok(true);
        }

        // Fetch budget spent and the query still open — or a sibling
        // execution of the same query already found its streams lost, or
        // the query started lost (the shards partition one dataset; the
        // drain and floor checks above still let an execution that is
        // certified end without scanning) — or the gap's own slope says the
        // budget will be spent (a floor is known and there is a budget to
        // run out of): every
        // further fetch is a random access worth many sequential rows, so
        // finish with one pass over what is left instead, and tell the
        // siblings.
        let fetched = scorer.prof.rows_fetched;
        let spent = fetched > scan_budget as u64;
        let verdict = if streams.is_empty() {
            // No stream (no pair with a non-zero weight): nothing to fetch
            // and no bound to certify with, whatever the budget.
            Verdict::StartedLost
        } else if spent {
            Verdict::Open
        } else {
            scorer.floor.verdict()
        };
        let projected = !spent
            && verdict == Verdict::Open
            && f > f64::NEG_INFINITY
            && probe.lost(fetched, inflate(tau) - f, scan_budget);
        if spent || verdict != Verdict::Open || projected {
            scorer.floor.mark_lost();
            scorer.prof.scan_projected += u64::from(projected);
            scorer.prof.scan_inherited += u64::from(verdict == Verdict::Lost);
            scorer.prof.scan_predicted += u64::from(verdict == Verdict::StartedLost);
            scan_unseen(&mut scorer, seen, fbuf, deadline)?;
            return Ok(true);
        }

        // One emission unit per stream per iteration (§5's "top point is
        // fetched for each of the subproblems", at block granularity).
        // Every stream prunes against
        // `f − (extent bound + Σ other bounds)`: a block bounded below that
        // can hold no top-k row no matter what the rest contributes.
        let mut progressed = false;
        batch.clear();
        for (i, s) in streams.iter_mut().enumerate() {
            let prune = if f > f64::NEG_INFINITY {
                let mut others = extent_bound;
                for (j, &b) in fbuf.iter().enumerate() {
                    if j != i {
                        others += b;
                    }
                }
                Some((f, others))
            } else {
                None
            };
            progressed |= s.next_unit(prune, batch, scorer.prof);
        }
        scorer.prof.rows_fetched += batch.len() as u64;
        score_rows_batched(&mut scorer, seen, batch);
        if !progressed {
            return Ok(true); // every stream drained: everything fetched
        }
    }
    Ok(false)
}

/// One part's §5 aggregation in flight inside [`answer_parts`], which
/// begins it ([`ShardExecution::begin`]), steps it in slices between its
/// siblings' ([`ShardExecution::step`]) and finishes it
/// ([`ShardExecution::finish`]). It holds only what must survive between
/// its steps — its streams, fetch budget, probe and counters — and keeps no
/// answer: every score it keeps is in the query's [`QueryFloor`]. The round
/// buffers, the seen-set and the deadline are the query's scratch's.
pub(crate) struct ShardExecution<'i> {
    part: ShardPart<'i>,
    query: &'i SdQuery,
    streams: Vec<Pair2DStream<'i>>,
    /// What the dimensions no stream covers add to any row's score at most:
    /// the index's unpaired extents.
    extent_bound: f64,
    /// This execution's own counters: its fetch budget, probe and scan exit
    /// read them, and [`ShardExecution::finish`] adds them to the scratch's.
    profile: QueryProfile,
    /// Rows this execution may fetch before it finishes by scanning.
    scan_budget: usize,
    /// The projection that sends it there earlier when the budget is a
    /// lost cause.
    probe: plan::ScanProbe,
    done: bool,
}

impl<'i> ShardExecution<'i> {
    /// The pair streams of `part`'s index, assembled into a recycled stream
    /// list of `scratch`, plus the constant extent bound on the dimensions
    /// they leave out, run against the index's rows under `part.mask`; the
    /// execution switches to the kernel scan once it has fetched more than
    /// [`plan::scan_budget`] rows, or projects that it will.
    ///
    /// With a tombstone mask, masked rows are dropped *at scoring time* —
    /// before they can enter the query's floor — so the answer is the
    /// canonical top-k of the **live** rows only, exactly as if the dead
    /// rows had never been indexed. Stream bounds keep covering dead rows
    /// (admissible for the live subset; compaction restores tightness).
    pub(crate) fn begin(
        part: ShardPart<'i>,
        query: &'i SdQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Self, SdError> {
        let index = part.index;
        let n = index.data.len();
        let streams = if n == 0 {
            scratch.stream_buf()
        } else {
            index.assemble_streams(query, scratch)?
        };
        let scan_budget = plan::scan_budget(n);
        Ok(ShardExecution {
            part,
            query,
            streams,
            extent_bound: index.extent_bound(query),
            profile: QueryProfile::default(),
            scan_budget,
            probe: plan::ScanProbe::new(scan_budget),
            done: n == 0,
        })
    }

    /// Runs up to `rounds` aggregation iterations (one fetch per stream
    /// each) out of `scratch`'s buffers, against the query's seen-set there.
    /// Every exact score the step keeps goes into `floor` — the query's one
    /// floor, which every other execution of the query and the engine's
    /// delta scan also score into — and the step prunes against it and
    /// terminates as soon as it certifiably beats the admissible bound `τ`
    /// on every unfetched row, or a stream drains. Returns `Ok(true)` once
    /// complete; a deadline or cancellation in `scratch` aborts with the
    /// typed error.
    ///
    /// A step is not bounded by `rounds` alone: the iteration that finds
    /// the fetch budget ([`plan::scan_budget`]) spent, projects that it
    /// will be, or finds `floor` marked lost by a sibling or from the start
    /// ([`QueryFloor::verdict`]) runs the kernel scan over every row not
    /// seen yet to completion — one sequential pass over the shard,
    /// deadline-checked every [`LANES`] rows — and completes the execution
    /// inside this call, marking `floor` lost for the siblings after it.
    pub(crate) fn step(
        &mut self,
        rounds: usize,
        scratch: &mut QueryScratch,
        floor: &mut QueryFloor<'_>,
    ) -> Result<bool, SdError> {
        if !self.done {
            self.done = aggregate_rounds(self, scratch, floor, rounds)?;
        }
        Ok(self.done)
    }

    /// Hands the execution's streams back to `scratch` and adds its
    /// counters to `scratch.profile` — whether it completed or a step
    /// returned an error (deadline, cancellation).
    pub(crate) fn finish(mut self, scratch: &mut QueryScratch) {
        for s in self.streams.drain(..) {
            s.recycle(scratch);
        }
        scratch.put_streams(self.streams);
        scratch.profile.merge(&self.profile);
    }
}

/// A 2-D subproblem stream over one pair's §4 index.
///
/// Emissions arrive in *frontier* order, not sorted subscore order — the
/// aggregation loop only requires an admissible **bound** on unemitted rows,
/// so the stream runs on the pool-free uncertified [`BlockFrontier`], whose
/// one heap is ordered by θ_q score bounds ([`FrontierEval`]: for
/// non-indexed θ_q the Claim 6 bracket in closed form, per envelope), and
/// which walks the index once where a dual-stream bracket would walk it
/// twice. Whole blocks surface (and are prunable against the k-th-score
/// floor) at once; [`Pair2DStream::next_unit`] kernel-scores a popped
/// block's lanes on the pair and filters them against the floor before
/// emission.
pub struct Pair2DStream<'a> {
    frontier: BlockFrontier<'a>,
    blocks: &'a BlockSet,
    alpha: f64,
    beta: f64,
    r: f64,
}

impl<'a> Pair2DStream<'a> {
    /// Builds the stream over `blocks` for the pair query `eval` was
    /// resolved for (non-degenerate weights `alpha`, `beta`), borrowing
    /// recycled buffers from `scratch`.
    pub(crate) fn with_scratch(
        blocks: &'a BlockSet,
        eval: FrontierEval,
        alpha: f64,
        beta: f64,
        scratch: &mut QueryScratch,
    ) -> Self {
        Pair2DStream {
            frontier: BlockFrontier::with_scratch(blocks, eval, scratch.take_heap()),
            blocks,
            alpha,
            beta,
            r: alpha.hypot(beta),
        }
    }

    /// Hands the owned buffers back to the scratch.
    fn recycle(self, scratch: &mut QueryScratch) {
        scratch.put_heap(self.frontier.into_scratch());
    }

    /// Fetches this stream's next *emission unit* into `out`: every live
    /// row of its next surviving SoA leaf block (up to [`LANES`] at once),
    /// after block-level floor pruning. With `prune = Some((f, others))` —
    /// `f` the current k-th-score floor and `others` the extent bound plus
    /// every *other* stream's admissible bound — any block whose raw
    /// subscore bound `b` satisfies `f > inflate(b + others)` is certifiably
    /// outside the top-k (every point in it scores at most `b + others`) and
    /// is discarded before a single point is scored.
    ///
    /// Returns `false` once the stream is drained (nothing appended).
    /// `prof` receives the fetch's execution counters (frontier walk
    /// statistics, per-lane mask drops).
    fn next_unit(
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
            // matter what the other streams contribute, and dies here —
            // before it is ever gathered or scored on the full query.
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
    /// row of the index).
    #[inline]
    fn bound(&self) -> Option<f64> {
        self.frontier.bound().map(|b| self.r * b)
    }
}

#[cfg(test)]
mod tests;
