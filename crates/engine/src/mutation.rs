//! The live-mutation subsystem: delta region, tombstones and epoch-based
//! compaction for [`SdEngine`].
//!
//! ```text
//!              insert                    delete
//!                │                          │
//!                ▼                          ▼
//!        ┌──────────────┐          ┌────────────────┐
//!        │ delta region │          │ tombstone mask │   (base ∪ delta ids)
//!        │ (append-only │          │ (bit per row;  │
//!        │  rows, exact │          │  checked before│
//!        │  row scan)   │          │  the floor)    │
//!        └──────┬───────┘          └───────┬────────┘
//!               └──────────┬───────────────┘
//!                          ▼  SdEngine::compact (epoch += 1)
//!            ┌───────────────────────────────┐
//!            │ the live rows in id order,    │  one path: what build_with
//!            │ then the live delta rows, cut │  does — the cells of one box
//!            │ into shards again and rebuilt │  order (or a walked pair's
//!            │ side by side on every CPU;    │  row ranges), every shard
//!            │ all tombstones dropped        │  rebuilt
//!            └───────────────────────────────┘
//! ```
//!
//! ## Exactness
//!
//! Mutated-engine answers are **bit-identical** to a from-scratch rebuild
//! over the same logical dataset (live base rows in id order, then live
//! delta rows in insertion order):
//!
//! * delta rows are scored *exactly* by the delta scan
//!   ([`sdq_core::delta`]) — the same row kernel the box scan runs, over
//!   the row-major delta rows themselves, with no second copy of them — and
//!   offered to the query's one answer heap under their global ids, like
//!   every shard's rows;
//! * tombstoned rows are dropped before they can enter the query's floor
//!   ([`sdq_core::mask`]), so they influence nothing;
//! * global ids are assigned in logical-row order (base, then delta), so
//!   the canonical tie-break — score descending, id ascending — resolves
//!   ties in exactly the order a fresh rebuild over the logical dataset
//!   would (the live-id renumbering is monotone).
//!
//! Early termination survives mutations: the delta scan feeds every live
//! exact score that reaches it into the query's floor before the indexed
//! shard executions run, so a strong freshly-inserted candidate prunes the
//! tree walks exactly like a strong candidate found by a sibling shard.
//!
//! ## Epochs
//!
//! Every compaction that has work to do bumps the engine epoch and
//! rebuilds every shard: a shard of a box order is a cell of one split of
//! all the rows, and a deleted or inserted row can move every cell's
//! bounds, so no shard is clean while another is dirty. (The traffic agrees:
//! deletes spread over the ids dirty nearly every shard between two
//! compactions.) The build is [`SdEngine::build_with`]'s, over the live
//! rows. Epochs are per-process observability counters: they are not
//! persisted in snapshots (a restored engine restarts at epoch 0).
//!
//! ## Example
//!
//! ```
//! use sdq_core::{Dataset, DimRole, PointId, SdQuery};
//! use sdq_engine::{EngineOptions, SdEngine};
//!
//! let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let roles = vec![DimRole::Attractive, DimRole::Repulsive];
//! let data = Dataset::from_rows(2, &rows).unwrap();
//! let mut engine = SdEngine::build_with(
//!     data,
//!     &roles,
//!     &EngineOptions { shards: 4, ..EngineOptions::default() },
//! )
//! .unwrap();
//!
//! // Writes: new rows land in the delta region, deletes set tombstones.
//! let id = engine.insert(&[3.0, 100.0]).unwrap();
//! assert_eq!(id.index(), 32); // ids continue after the base rows
//! engine.delete(PointId::new(5)).unwrap();
//! assert_eq!(engine.len(), 32); // 32 base − 1 dead + 1 delta
//!
//! // Queries see the mutations immediately and exactly.
//! let q = SdQuery::uniform_weights(vec![3.0, 0.0], &roles);
//! let top = engine.query(&q, 1).unwrap();
//! assert_eq!(top[0].id, id); // the fresh row wins (repulsive y = 100)
//!
//! // Compaction folds the delta back and drops the tombstones.
//! let report = engine.compact().unwrap();
//! assert_eq!(report.merged_delta_rows, 1);
//! assert_eq!(report.dropped_tombstones, 1);
//! assert!(!engine.has_mutations());
//! assert_eq!(engine.len(), 32);
//! ```

use sdq_core::codec::corrupt;
use sdq_core::mask::RowMask;
use sdq_core::multidim::shard_limit;
use sdq_core::telemetry::EventKind;
use sdq_core::{Dataset, PointId, SdError};

use crate::{build_layout, SdEngine};

/// Mutation-pressure thresholds (percent) that journal a
/// [`EventKind::DeltaThreshold`]/[`EventKind::TombstoneThreshold`] event
/// the first time each is crossed between compactions.
const MUTATION_LEVELS: [u8; 5] = [1, 5, 10, 25, 50];

/// How many of the [`MUTATION_LEVELS`] `pct` has already met.
fn levels_crossed(pct: u64) -> u8 {
    MUTATION_LEVELS.iter().filter(|&&l| pct >= l as u64).count() as u8
}

/// The engine's write-side state: the append-only delta region, the
/// tombstone mask over the whole (base + delta) id space, and the epoch
/// counters compaction maintains.
#[derive(Debug, Clone)]
pub(crate) struct MutationState {
    /// Rows inserted since the last compaction; global id = base rows +
    /// delta index. Row-major, which is how the delta scan reads it and how
    /// snapshots persist it.
    pub(crate) delta: Dataset,
    /// Dead rows over base ∪ delta ids.
    pub(crate) tombstones: RowMask,
    /// Engine compaction epoch; bumped once per [`SdEngine::compact_with`]
    /// that had work to do.
    pub(crate) epoch: u64,
    /// Lifetime rows inserted through this engine, compactions and
    /// [`SdEngine::restore_mutations`] included (restored delta rows count:
    /// they are inserts that happened logically before the snapshot).
    pub(crate) inserted_total: u64,
    /// Lifetime rows deleted (first-time tombstones only), preserved across
    /// compactions and restores like `inserted_total`.
    pub(crate) deleted_total: u64,
    /// [`MUTATION_LEVELS`] already journaled for delta growth this
    /// compaction cycle (an index into the level table).
    pub(crate) delta_level: u8,
    /// [`MUTATION_LEVELS`] already journaled for tombstone growth.
    pub(crate) tomb_level: u8,
}

impl MutationState {
    pub(crate) fn new(dims: usize, base_rows: usize) -> Self {
        MutationState {
            delta: empty_delta(dims),
            tombstones: RowMask::new(base_rows),
            epoch: 0,
            inserted_total: 0,
            deleted_total: 0,
            delta_level: 0,
            tomb_level: 0,
        }
    }

    pub(crate) fn is_clean(&self) -> bool {
        self.delta.is_empty() && !self.tombstones.any()
    }
}

fn empty_delta(dims: usize) -> Dataset {
    Dataset::from_flat(dims.max(1), Vec::new()).expect("empty dataset is always valid")
}

/// Tuning knobs for [`SdEngine::compact_with`].
#[derive(Debug, Clone, Default)]
pub struct CompactionOptions {
    /// Shard count after the compaction; `None` keeps the current count.
    /// Requesting a different count compacts a clean engine too.
    pub shards: Option<usize>,
}

/// What one [`SdEngine::compact_with`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Shards whose index was rebuilt this epoch.
    pub rebuilt_shards: usize,
    /// Tombstones physically dropped (base + delta).
    pub dropped_tombstones: usize,
    /// Live delta rows folded into the indexed shards.
    pub merged_delta_rows: usize,
    /// The engine epoch after the call.
    pub epoch: u64,
    /// Live rows after the call (every row is live post-compaction).
    pub live_rows: usize,
    /// Rows physically rewritten into rebuilt shards (0 for a no-op).
    pub rows_moved: usize,
    /// Wall time of the whole compaction, in microseconds.
    pub duration_micros: u64,
}

/// Engine-level mutation counters, as reported by
/// [`SdEngine::mutation_stats`]; per-shard dead-row counts and epochs live
/// in [`ShardInfo`](crate::ShardInfo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationStats {
    /// Rows in the delta region, dead ones included.
    pub delta_rows: usize,
    /// Tombstoned delta rows.
    pub delta_dead: usize,
    /// Tombstoned base (indexed) rows.
    pub base_dead: usize,
    /// Current engine compaction epoch.
    pub epoch: u64,
    /// Lifetime rows inserted through this engine. Cumulative: compaction
    /// folds the delta away and [`SdEngine::restore_mutations`] swaps the
    /// live state, but neither resets this count (a restore *adds* the
    /// restored delta rows — inserts that logically preceded the snapshot).
    pub inserted_total: u64,
    /// Lifetime first-time deletes, cumulative like `inserted_total` (a
    /// restore adds the restored tombstones).
    pub deleted_total: u64,
}

impl SdEngine {
    /// Appends one row to the delta region, returning its stable global id
    /// (ids continue after the base rows; a later compaction renumbers ids
    /// densely, exactly like a from-scratch rebuild would).
    ///
    /// The row is validated (arity, finiteness) and visible to the very
    /// next query — exactly scored by the delta-scan subproblem and merged
    /// with the indexed shard results.
    pub fn insert(&mut self, row: &[f64]) -> Result<PointId, SdError> {
        let t0 = std::time::Instant::now();
        let total = self.total_rows();
        if total >= u32::MAX as usize {
            return Err(SdError::TooManyPoints(total + 1));
        }
        self.muts.delta.push_row(row)?;
        self.muts.tombstones.grow(total + 1);
        self.muts.inserted_total += 1;
        self.note_delta_growth();
        self.metrics.telemetry().mutation.record(t0.elapsed());
        Ok(PointId::new(total as u32))
    }

    /// [`SdEngine::insert`] for a batch; returns the assigned ids in order.
    /// Fails atomically per row: earlier rows of the batch stay inserted.
    pub fn insert_rows(&mut self, rows: &[Vec<f64>]) -> Result<Vec<PointId>, SdError> {
        rows.iter().map(|r| self.insert(r)).collect()
    }

    /// Tombstones a row (base or delta). Returns `true` when the row was
    /// newly deleted, `false` when it was already dead; unknown ids error.
    /// The structures keep the row until the next compaction, but no query
    /// can observe it.
    pub fn delete(&mut self, id: PointId) -> Result<bool, SdError> {
        let t0 = std::time::Instant::now();
        let total = self.total_rows();
        if id.index() >= total {
            return Err(SdError::UnknownRow {
                row: id.index(),
                rows: total,
            });
        }
        let newly = self.muts.tombstones.set(id.index());
        if newly {
            self.muts.deleted_total += 1;
            self.note_tombstone_growth();
        }
        self.metrics.telemetry().mutation.record(t0.elapsed());
        Ok(newly)
    }

    /// Journals each delta-region threshold ([`MUTATION_LEVELS`], percent
    /// of base rows) the first time it is crossed since compaction.
    fn note_delta_growth(&mut self) {
        if self.rows == 0 {
            return;
        }
        let pct = self.muts.delta.len() as u64 * 100 / self.rows as u64;
        while (self.muts.delta_level as usize) < MUTATION_LEVELS.len()
            && pct >= MUTATION_LEVELS[self.muts.delta_level as usize] as u64
        {
            let percent = MUTATION_LEVELS[self.muts.delta_level as usize];
            self.metrics
                .telemetry()
                .journal
                .push(EventKind::DeltaThreshold {
                    delta_rows: self.muts.delta.len() as u64,
                    base_rows: self.rows as u64,
                    percent,
                });
            self.muts.delta_level += 1;
        }
    }

    /// Journals each tombstone threshold (percent of addressable rows)
    /// the first time it is crossed since compaction.
    fn note_tombstone_growth(&mut self) {
        let total = self.total_rows();
        if total == 0 {
            return;
        }
        let pct = self.muts.tombstones.set_count() as u64 * 100 / total as u64;
        while (self.muts.tomb_level as usize) < MUTATION_LEVELS.len()
            && pct >= MUTATION_LEVELS[self.muts.tomb_level as usize] as u64
        {
            let percent = MUTATION_LEVELS[self.muts.tomb_level as usize];
            self.metrics
                .telemetry()
                .journal
                .push(EventKind::TombstoneThreshold {
                    tombstones: self.muts.tombstones.set_count() as u64,
                    total_rows: total as u64,
                    percent,
                });
            self.muts.tomb_level += 1;
        }
    }

    /// `true` when `id` is addressable and not tombstoned.
    pub fn is_live(&self, id: PointId) -> bool {
        id.index() < self.total_rows() && !self.muts.tombstones.get(id.index())
    }

    /// Addressable rows: base rows plus delta rows, dead ones included.
    pub fn total_rows(&self) -> usize {
        self.rows + self.muts.delta.len()
    }

    /// Rows in the delta region (dead ones included).
    pub fn delta_rows(&self) -> usize {
        self.muts.delta.len()
    }

    /// Tombstoned rows (base + delta).
    pub fn tombstone_count(&self) -> usize {
        self.muts.tombstones.set_count()
    }

    /// `true` when the engine carries any uncompacted writes — a non-empty
    /// delta region or at least one tombstone.
    pub fn has_mutations(&self) -> bool {
        !self.muts.is_clean()
    }

    /// The engine compaction epoch (how many compactions have run).
    pub fn epoch(&self) -> u64 {
        self.muts.epoch
    }

    /// The delta-region rows (the persistence layer serialises these).
    pub fn delta(&self) -> &Dataset {
        &self.muts.delta
    }

    /// The tombstoned global ids, ascending — the canonical serialisation
    /// order, so snapshot bytes stay deterministic.
    pub fn tombstone_ids(&self) -> Vec<u32> {
        self.muts.tombstones.ones().collect()
    }

    /// Engine-level mutation counters (per-shard detail is in
    /// [`SdEngine::shard_infos`](crate::SdEngine::shard_infos)).
    pub fn mutation_stats(&self) -> MutationStats {
        let delta_dead = self
            .muts
            .tombstones
            .count_range(self.rows, self.total_rows());
        MutationStats {
            delta_rows: self.muts.delta.len(),
            delta_dead,
            base_dead: self.muts.tombstones.set_count() - delta_dead,
            epoch: self.muts.epoch,
            inserted_total: self.muts.inserted_total,
            deleted_total: self.muts.deleted_total,
        }
    }

    /// Restores mutation state from persisted parts (the snapshot-load
    /// path): the delta rows and the sorted tombstoned ids. Validates
    /// dimensionality and every id against the combined id space.
    ///
    /// The cumulative [`MutationStats::inserted_total`] /
    /// [`MutationStats::deleted_total`] counters are **not** reset: the
    /// restored delta rows and tombstones are added to them (they are
    /// mutations that logically happened before the snapshot), on top of
    /// whatever this engine instance had already counted.
    pub fn restore_mutations(&mut self, delta: Dataset, tombstones: &[u32]) -> Result<(), SdError> {
        if delta.dims() != self.dims {
            return Err(SdError::DimensionMismatch {
                expected: self.dims,
                got: delta.dims(),
            });
        }
        let total = self.rows + delta.len();
        if total > u32::MAX as usize {
            return Err(SdError::TooManyPoints(total));
        }
        let mut mask = RowMask::new(total);
        for &id in tombstones {
            if (id as usize) >= total {
                return Err(SdError::UnknownRow {
                    row: id as usize,
                    rows: total,
                });
            }
            if !mask.set(id as usize) {
                return Err(corrupt(format!("duplicate tombstone id {id}")));
            }
        }
        self.muts.inserted_total += delta.len() as u64;
        self.muts.deleted_total += tombstones.len() as u64;
        self.muts.delta = delta;
        self.muts.tombstones = mask;
        // Restored pressure is not a *crossing*: seed the level trackers
        // silently so only future growth journals threshold events.
        self.muts.delta_level = if self.rows == 0 {
            MUTATION_LEVELS.len() as u8
        } else {
            levels_crossed(self.muts.delta.len() as u64 * 100 / self.rows as u64)
        };
        let total = self.total_rows();
        self.muts.tomb_level = if total == 0 {
            MUTATION_LEVELS.len() as u8
        } else {
            levels_crossed(self.muts.tombstones.set_count() as u64 * 100 / total as u64)
        };
        Ok(())
    }

    /// Compacts with default options; see [`SdEngine::compact_with`].
    pub fn compact(&mut self) -> Result<CompactionReport, SdError> {
        self.compact_with(&CompactionOptions::default())
    }

    /// Folds the delta region into the indexed shards and physically drops
    /// every tombstoned row: the live rows — the base rows in id order, then
    /// the live delta rows in insertion order — are cut into shards again
    /// and every shard is rebuilt, as [`SdEngine::build_with`] builds them
    /// (concurrently, on up to the host's available parallelism,
    /// [`resolve_threads`](crate::resolve_threads)`(0)`, the result identical
    /// to building them one after another).
    ///
    /// Ids are renumbered densely in that logical-row order — the order a
    /// from-scratch rebuild over the final logical dataset assigns — so
    /// post-compaction answers, and the shards themselves, are bit-identical
    /// to that rebuild, ids included. A clean engine asked for its own shard
    /// count returns an unchanged no-op report. Fails, changing nothing, when
    /// a mapped shard's checksums or ids do ([`SdEngine::verify_integrity`],
    /// [`id_census`](sdq_core::multidim::id_census)): its rows are not
    /// carried into a new shard.
    pub fn compact_with(
        &mut self,
        options: &CompactionOptions,
    ) -> Result<CompactionReport, SdError> {
        let t0 = std::time::Instant::now();
        let s = self.shards.len();
        // The requested count as the rebuild clamps it: no shard is empty.
        let target_shards = options
            .shards
            .unwrap_or(s)
            .clamp(1, shard_limit(&self.roles, self.len()))
            .min(self.len());
        if !self.has_mutations() && target_shards == s {
            self.metrics.record_compaction(0);
            self.metrics.telemetry().compaction.record(t0.elapsed());
            return Ok(CompactionReport {
                rebuilt_shards: 0,
                dropped_tombstones: 0,
                merged_delta_rows: 0,
                epoch: self.muts.epoch,
                live_rows: self.len(),
                rows_moved: 0,
                duration_micros: t0.elapsed().as_micros() as u64,
            });
        }
        self.metrics
            .telemetry()
            .journal
            .push(EventKind::CompactionStart {
                epoch: self.muts.epoch,
            });
        let dims = self.dims;
        let dropped = self.muts.tombstones.set_count();
        let merged = self.muts.delta.len()
            - self
                .muts
                .tombstones
                .count_range(self.rows, self.total_rows());
        let live = Dataset::from_flat(dims, self.live_rows()?)?;
        let live_total = live.len();
        self.shards = build_layout(&live, &self.roles, target_shards)?;
        self.rows = live_total;
        let epoch_next = self.muts.epoch + 1;
        let (inserted_total, deleted_total) = (self.muts.inserted_total, self.muts.deleted_total);
        self.muts = MutationState::new(dims, live_total);
        self.muts.epoch = epoch_next;
        self.muts.inserted_total = inserted_total;
        self.muts.deleted_total = deleted_total;
        self.metrics.record_compaction(self.shards.len() as u64);
        let report = CompactionReport {
            rebuilt_shards: self.shards.len(),
            dropped_tombstones: dropped,
            merged_delta_rows: merged,
            epoch: epoch_next,
            live_rows: live_total,
            rows_moved: live_total,
            duration_micros: t0.elapsed().as_micros() as u64,
        };
        self.journal_compaction_finish(&report);
        Ok(report)
    }

    /// Journals the epoch transition and finish record of one effective
    /// compaction, and folds its wall time into the compaction histogram.
    fn journal_compaction_finish(&self, report: &CompactionReport) {
        let tel = self.metrics.telemetry();
        tel.journal.push(EventKind::EpochTransition {
            from: report.epoch.saturating_sub(1),
            to: report.epoch,
        });
        tel.journal.push(EventKind::CompactionFinish {
            epoch: report.epoch,
            rebuilt_shards: report.rebuilt_shards as u64,
            merged_delta_rows: report.merged_delta_rows as u64,
            dropped_tombstones: report.dropped_tombstones as u64,
            rows_moved: report.rows_moved as u64,
            duration_micros: report.duration_micros,
        });
        tel.compaction
            .record_nanos(report.duration_micros.saturating_mul(1_000));
    }

    /// The live rows, row-major, in logical order: the base rows by global
    /// id, then the delta rows, less the tombstoned ones. Fails when a
    /// mapped shard's checksums or ids do: the ids must name every base row
    /// once ([`id_census`](sdq_core::multidim::id_census)) before any row is
    /// placed by them.
    pub(crate) fn live_rows(&self) -> Result<Vec<f64>, SdError> {
        self.verify_integrity()?;
        sdq_core::multidim::id_census(&self.shards, self.rows)?;
        let dims = self.dims;
        let mut flat = vec![0.0; self.rows * dims];
        for shard in &self.shards {
            let rows = shard.data().flat().chunks_exact(dims);
            for (row, &id) in rows.zip(shard.row_ids()) {
                flat[id as usize * dims..][..dims].copy_from_slice(row);
            }
        }
        flat.extend_from_slice(self.muts.delta.flat());
        let mut kept = 0;
        for id in 0..self.total_rows() {
            if !self.muts.tombstones.get(id) {
                flat.copy_within(id * dims..(id + 1) * dims, kept * dims);
                kept += 1;
            }
        }
        flat.truncate(kept * dims);
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineOptions;
    use sdq_core::QueryScratch;
    use sdq_core::{DimRole, SdQuery};

    fn sample_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    ((i * 13) % 29) as f64,
                    ((i * 7) % 17) as f64,
                    i as f64 * 0.1,
                ]
            })
            .collect()
    }

    /// `n` rows under roles `arr`, in `shards` cells (at most one a 64-row
    /// chunk).
    fn sample_engine(n: usize, shards: usize) -> SdEngine {
        let roles = vec![DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive];
        SdEngine::build_with(
            Dataset::from_rows(3, &sample_rows(n)).unwrap(),
            &roles,
            &EngineOptions {
                shards,
                ..EngineOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn insert_assigns_sequential_global_ids() {
        let mut e = sample_engine(10, 2);
        assert_eq!(e.insert(&[1.0, 2.0, 3.0]).unwrap().index(), 10);
        assert_eq!(e.insert(&[4.0, 5.0, 6.0]).unwrap().index(), 11);
        assert_eq!(e.delta_rows(), 2);
        assert_eq!(e.total_rows(), 12);
        assert_eq!(e.len(), 12);
        assert!(e.has_mutations());
        // Arity and finiteness are validated.
        assert!(e.insert(&[1.0]).is_err());
        assert!(e.insert(&[1.0, f64::NAN, 0.0]).is_err());
        assert!(matches!(
            e.insert(&[1.0, 1e300, 0.0]),
            Err(SdError::CoordinateOutOfRange { dim: 1, .. })
        ));
        assert_eq!(e.delta_rows(), 2, "failed inserts leave no residue");
    }

    #[test]
    fn delete_tombstones_and_validates() {
        let mut e = sample_engine(6, 2);
        assert!(e.delete(PointId::new(3)).unwrap());
        assert!(!e.delete(PointId::new(3)).unwrap(), "already dead");
        assert!(matches!(
            e.delete(PointId::new(6)),
            Err(SdError::UnknownRow { row: 6, rows: 6 })
        ));
        assert_eq!(e.tombstone_count(), 1);
        assert_eq!(e.len(), 5);
        assert!(!e.is_live(PointId::new(3)));
        assert!(e.is_live(PointId::new(2)));
        // Delta rows can be deleted too.
        let id = e.insert(&[0.0, 0.0, 0.0]).unwrap();
        assert!(e.delete(id).unwrap());
        let stats = e.mutation_stats();
        assert_eq!(stats.delta_rows, 1);
        assert_eq!(stats.delta_dead, 1);
        assert_eq!(stats.base_dead, 1);
    }

    #[test]
    fn compact_is_noop_on_clean_engine() {
        let mut e = sample_engine(200, 3);
        let r = e.compact().unwrap();
        assert_eq!(r.rebuilt_shards, 0);
        assert_eq!(r.epoch, 0);
        assert_eq!(e.epoch(), 0);
    }

    #[test]
    fn a_shard_count_clamped_to_the_rows_is_still_a_noop() {
        // 200 rows are four chunks and hold four cells at most: asking a
        // clean four-shard engine for 1000 asks for what it has.
        let mut e = sample_engine(200, 10);
        assert_eq!(e.shard_count(), 4);
        let r = e
            .compact_with(&CompactionOptions { shards: Some(1000) })
            .unwrap();
        assert_eq!((r.rebuilt_shards, r.epoch), (0, 0));
        assert_eq!((e.epoch(), e.shard_count()), (0, 4));
    }

    /// One delete is enough to rebuild every shard: a deleted id names no
    /// shard, and the live rows are cut into cells again.
    #[test]
    fn compact_rebuilds_every_shard() {
        let mut e = sample_engine(300, 3);
        e.delete(PointId::new(0)).unwrap();
        let r = e.compact().unwrap();
        assert_eq!(r.rebuilt_shards, 3);
        assert_eq!(
            (r.dropped_tombstones, r.live_rows, r.rows_moved),
            (1, 299, 299)
        );
        assert_eq!(e.epoch(), 1);
        let infos = e.shard_infos();
        assert!(infos.iter().all(|i| i.epoch == 1 && i.dead_rows == 0));
        assert_eq!(infos.iter().map(|i| i.rows).sum::<usize>(), 299);
        assert!(!e.has_mutations());
    }

    #[test]
    fn compact_folds_delta_rows_into_the_cells() {
        let mut e = sample_engine(300, 3);
        e.insert(&[1.0, 2.0, 3.0]).unwrap();
        e.insert(&[4.0, 5.0, 6.0]).unwrap();
        let r = e.compact().unwrap();
        assert_eq!((r.merged_delta_rows, r.rebuilt_shards), (2, 3));
        assert_eq!(e.shard_infos().iter().map(|i| i.rows).sum::<usize>(), 302);
        assert_eq!(e.len(), 302);
        assert_eq!(e.delta_rows(), 0);
    }

    /// Every compaction re-splits the logical rows, so a delta larger than
    /// the base lands across all the cells: whole chunks of one split, none
    /// empty, none holding most of the rows.
    #[test]
    fn heavy_delta_triggers_rebalance() {
        let mut e = sample_engine(300, 3);
        for i in 0..400 {
            e.insert(&[i as f64, 0.0, 1.0]).unwrap();
        }
        let r = e.compact().unwrap();
        assert_eq!((r.rebuilt_shards, r.merged_delta_rows), (3, 400));
        assert_eq!(e.len(), 700);
        let infos = e.shard_infos();
        assert!(infos.iter().all(|i| i.epoch == 1));
        let rows: Vec<usize> = infos.iter().map(|i| i.rows).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[..2].iter().all(|&r| r > 0 && r % 64 == 0), "{rows:?}");
        assert!(rows[2] > 0, "{rows:?}");
        assert!(rows.iter().all(|&r| r <= 700 / 2), "balanced: {rows:?}");
    }

    /// Deleting every id of an old shard leaves no shard empty: the live
    /// rows are cut into cells again.
    #[test]
    fn draining_a_shard_triggers_rebalance() {
        let mut e = sample_engine(300, 3);
        let drained: Vec<u32> = e.shards()[0].row_ids().to_vec();
        for &id in &drained {
            e.delete(PointId::new(id)).unwrap();
        }
        let before = e.shard_infos();
        assert_eq!(before[0].dead_rows, before[0].rows, "shard 0 is drained");
        let r = e.compact().unwrap();
        assert_eq!((r.rebuilt_shards, r.dropped_tombstones), (3, drained.len()));
        assert_eq!(e.len(), 300 - drained.len());
        let rows: Vec<usize> = e.shard_infos().iter().map(|i| i.rows).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|&r| r > 0), "{rows:?}");
    }

    #[test]
    fn compact_everything_dead_yields_empty_engine() {
        let mut e = sample_engine(4, 2);
        for id in 0..4u32 {
            e.delete(PointId::new(id)).unwrap();
        }
        let r = e.compact().unwrap();
        assert_eq!(r.live_rows, 0);
        assert!(e.is_empty());
        assert_eq!(e.shard_count(), 0);
        assert_eq!(e.epoch(), 1);
        // The empty engine accepts inserts and compacts into real shards.
        e.insert(&[1.0, 2.0, 3.0]).unwrap();
        let q = SdQuery::uniform_weights(vec![0.0, 0.0, 0.0], e.roles());
        assert_eq!(e.query(&q, 1).unwrap().len(), 1);
        let r = e.compact().unwrap();
        assert_eq!(r.merged_delta_rows, 1);
        assert_eq!(e.shard_count(), 1);
        assert_eq!(e.epoch(), 2);
    }

    #[test]
    fn mutated_queries_match_fresh_rebuild() {
        let n = 400;
        let mut e = sample_engine(n, 4);
        let mut scratch = QueryScratch::new();
        e.delete(PointId::new(7)).unwrap();
        e.delete(PointId::new(399)).unwrap();
        let mut inserted = vec![vec![100.0, 3.0, 5.0], vec![2.0, 50.0, 0.5]];
        for row in &inserted {
            e.insert(row).unwrap();
        }
        inserted.push(vec![9.0, 9.0, 9.0]);
        let id = e.insert(&inserted[2]).unwrap();
        e.delete(id).unwrap();

        // The logical dataset: live base rows in order, then live delta.
        let all: Vec<Vec<f64>> = sample_rows(n).into_iter().chain(inserted).collect();
        let live_ids: Vec<u32> = (0..e.total_rows() as u32)
            .filter(|&i| e.is_live(PointId::new(i)))
            .collect();
        let logical: Vec<Vec<f64>> = live_ids.iter().map(|&i| all[i as usize].clone()).collect();
        let fresh = SdEngine::build_with(
            Dataset::from_rows(3, &logical).unwrap(),
            e.roles(),
            &EngineOptions {
                shards: 4,
                ..EngineOptions::default()
            },
        )
        .unwrap();

        let q = SdQuery::new(vec![10.0, 2.0, 1.0], vec![1.0, 2.0, 0.5]).unwrap();
        for k in [1, 3, 10, 50] {
            let want = fresh.query(&q, k).unwrap();
            let got = e.query_with(&q, k, &mut scratch).unwrap();
            assert_eq!(got.len(), want.len(), "k = {k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id.raw(), live_ids[w.id.index()], "k = {k}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "k = {k}");
            }
        }

        // After compaction the ids renumber densely: literally identical.
        e.compact().unwrap();
        for k in [1, 3, 10, 50] {
            assert_eq!(
                e.query_with(&q, k, &mut scratch).unwrap(),
                fresh.query(&q, k).unwrap().as_slice(),
                "post-compact k = {k}"
            );
        }
    }

    /// A cell's dead rows are counted over its ids: they sum to the dead
    /// base rows, wherever the deletes fell.
    #[test]
    fn shard_dead_counters_track_deletes() {
        let mut e = sample_engine(300, 3);
        for id in [0, 10, 11, 11, 299] {
            e.delete(PointId::new(id)).unwrap(); // a repeat counts once
        }
        let id = e.insert(&[0.0, 0.0, 0.0]).unwrap();
        e.delete(id).unwrap(); // a delta row: no shard's
        let dead: usize = e.shard_infos().iter().map(|i| i.dead_rows).sum();
        assert_eq!(dead, 4);
        e.compact().unwrap();
        assert!(e.shard_infos().iter().all(|i| i.dead_rows == 0));
    }

    #[test]
    fn restore_mutations_validates() {
        let mut e = sample_engine(10, 2);
        let delta = Dataset::from_rows(3, &[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(e.restore_mutations(delta.clone(), &[0, 10]).is_ok());
        assert_eq!(e.tombstone_count(), 2);
        assert_eq!(e.delta_rows(), 1);
        // The shard's dead rows read the restored mask (id 0 is its row;
        // id 10 is the delta row).
        assert_eq!(e.shard_infos()[0].dead_rows, 1);
        // Out-of-range id (10 base + 1 delta = 11 addressable).
        assert!(matches!(
            e.restore_mutations(delta.clone(), &[11]),
            Err(SdError::UnknownRow { row: 11, rows: 11 })
        ));
        // Duplicate id.
        assert!(e.restore_mutations(delta.clone(), &[3, 3]).is_err());
        // Wrong dimensionality.
        let bad = Dataset::from_rows(2, &[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            e.restore_mutations(bad, &[]),
            Err(SdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn explicit_reshard_via_compact_options() {
        let mut e = sample_engine(400, 2);
        e.delete(PointId::new(0)).unwrap();
        let r = e
            .compact_with(&CompactionOptions { shards: Some(4) })
            .unwrap();
        assert_eq!(r.rebuilt_shards, 4);
        assert_eq!(e.shard_count(), 4);
        assert_eq!(e.len(), 399);
    }
}
