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
//!            │ per-shard rebuild, the dirty  │  only dirty shards rebuild;
//!            │ shards side by side on every  │  rebalance when a shard's
//!            │ CPU; delta rows fold into the │  live-row count drifts past
//!            │ tail shard; all tombstones    │  rebalance_factor × ideal
//!            │ dropped                       │
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
//! Every compaction bumps the engine epoch; each shard records the epoch
//! at which it was last rebuilt (`0` = initial build). Clean shards are
//! not rebuilt — compaction cost is proportional to the *dirty* shards —
//! and because each shard swap is independent, a serving deployment that
//! wraps shards in per-shard locks only ever blocks one shard's readers at
//! a time while the rest keep serving. Epochs are per-process
//! observability counters: they are not persisted in snapshots (a restored
//! engine restarts at epoch 0).
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
use sdq_core::telemetry::EventKind;
use sdq_core::{Dataset, PointId, SdError};

use crate::{build_shards, SdEngine};

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
    /// Per-shard dead-row counts, maintained by `delete` so the per-query
    /// mask routing is O(1) per shard instead of a bitmap popcount sweep.
    pub(crate) shard_dead: Vec<usize>,
    /// Per-shard: the engine epoch at which the shard was last rebuilt
    /// (`0` = initial build).
    pub(crate) shard_epochs: Vec<u64>,
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
    pub(crate) fn new(dims: usize, base_rows: usize, shards: usize) -> Self {
        MutationState {
            delta: empty_delta(dims),
            tombstones: RowMask::new(base_rows),
            shard_dead: vec![0; shards],
            shard_epochs: vec![0; shards],
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
#[derive(Debug, Clone)]
pub struct CompactionOptions {
    /// A shard whose post-merge live-row count exceeds `rebalance_factor ×`
    /// the ideal (live rows ÷ shard count) — or falls below the ideal ÷
    /// `rebalance_factor` — triggers a full even repartition instead of the
    /// default in-place per-shard rebuild. Must be ≥ 1.
    pub rebalance_factor: f64,
    /// Shard count after a rebalance; `None` keeps the current count.
    /// Requesting a different count forces a rebalance.
    pub shards: Option<usize>,
}

impl Default for CompactionOptions {
    fn default() -> Self {
        CompactionOptions {
            rebalance_factor: 1.5,
            shards: None,
        }
    }
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
    /// `true` when the shard layout was repartitioned evenly.
    pub rebalanced: bool,
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
            if id.index() < self.rows {
                let shard = self
                    .offsets
                    .partition_point(|&o| (o as usize) <= id.index())
                    - 1;
                self.muts.shard_dead[shard] += 1;
            }
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
        self.muts.shard_dead = self
            .offsets
            .iter()
            .zip(&self.shards)
            .map(|(&off, shard)| mask.count_range(off as usize, off as usize + shard.data().len()))
            .collect();
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
    /// every tombstoned row, rebuilding only the dirty shards — clean
    /// shards are left untouched (their epoch keeps its value), so cost is
    /// proportional to the dirty shards. The dirty shards are built
    /// concurrently, on up to the host's available parallelism
    /// ([`resolve_threads`](crate::resolve_threads)`(0)`), and the result
    /// is identical to rebuilding them one after another. Live delta rows
    /// fold into the tail shard (they sit at the tail of the global id
    /// order, so contiguity is preserved); when that drifts any shard's
    /// live-row count past `rebalance_factor ×` the ideal share, the whole
    /// engine repartitions evenly instead.
    ///
    /// Ids are renumbered densely in logical-row order — the same order a
    /// from-scratch rebuild over the final logical dataset assigns — so
    /// post-compaction answers are bit-identical to that rebuild, ids
    /// included. A clean engine returns an unchanged no-op report.
    pub fn compact_with(
        &mut self,
        options: &CompactionOptions,
    ) -> Result<CompactionReport, SdError> {
        let t0 = std::time::Instant::now();
        let s = self.shards.len();
        // The requested count as the rebuild clamps it: no shard is empty.
        let target_shards = options.shards.unwrap_or(s).max(1).min(self.len());
        if !self.has_mutations() && target_shards == s {
            self.metrics.record_compaction(0);
            self.metrics.telemetry().compaction.record(t0.elapsed());
            return Ok(CompactionReport {
                rebuilt_shards: 0,
                dropped_tombstones: 0,
                merged_delta_rows: 0,
                rebalanced: false,
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

        // Live rows per shard, and the live delta rows (local indices).
        let live_per_shard: Vec<usize> = self
            .shards
            .iter()
            .zip(&self.muts.shard_dead)
            .map(|(shard, &dead)| shard.data().len() - dead)
            .collect();
        let delta_live: Vec<u32> = (0..self.muts.delta.len() as u32)
            .filter(|&r| !self.muts.tombstones.get(self.rows + r as usize))
            .collect();
        let merged = delta_live.len();
        let live_total: usize = live_per_shard.iter().sum::<usize>() + merged;
        let epoch_next = self.muts.epoch + 1;

        // Everything dead: collapse to the empty engine (what a fresh
        // build over the empty logical dataset produces).
        if live_total == 0 {
            self.shards.clear();
            self.offsets.clear();
            self.rows = 0;
            let (inserted_total, deleted_total) =
                (self.muts.inserted_total, self.muts.deleted_total);
            self.muts = MutationState::new(dims, 0, 0);
            self.muts.epoch = epoch_next;
            self.muts.inserted_total = inserted_total;
            self.muts.deleted_total = deleted_total;
            self.metrics.record_compaction(0);
            let report = CompactionReport {
                rebuilt_shards: 0,
                dropped_tombstones: dropped,
                merged_delta_rows: 0,
                rebalanced: true,
                epoch: epoch_next,
                live_rows: 0,
                rows_moved: 0,
                duration_micros: t0.elapsed().as_micros() as u64,
            };
            self.journal_compaction_finish(&report);
            return Ok(report);
        }

        // Post-merge live counts (delta folds into the tail shard).
        let mut post = live_per_shard.clone();
        match post.last_mut() {
            Some(last) => *last += merged,
            None => post.push(merged),
        }
        let factor = options.rebalance_factor.max(1.0);
        let ideal = live_total as f64 / target_shards as f64;
        let rebalanced = s == 0
            || target_shards != s
            || post
                .iter()
                .any(|&c| c == 0 || c as f64 > factor * ideal || (c as f64) * factor < ideal);

        let report = if rebalanced {
            // Assemble the whole logical coordinate stream, repartition
            // evenly like `build_with`, rebuild every shard.
            let mut flat = Vec::with_capacity(live_total * dims);
            self.extend_with_live_rows(&mut flat, 0..s, &delta_live)?;
            let cut = |i: usize| i * live_total / target_shards;
            self.shards =
                build_shards(dims, &self.roles, &self.index_options, target_shards, |i| {
                    Ok(flat[cut(i) * dims..cut(i + 1) * dims].to_vec())
                })?;
            self.offsets = (0..target_shards).map(|i| cut(i) as u32).collect();
            self.muts.shard_epochs = vec![epoch_next; target_shards];
            CompactionReport {
                rebuilt_shards: target_shards,
                dropped_tombstones: dropped,
                merged_delta_rows: merged,
                rebalanced: true,
                epoch: epoch_next,
                live_rows: live_total,
                rows_moved: live_total,
                duration_micros: 0, // stamped below, after the epilogue
            }
        } else {
            // In-place path: rebuild only the shards with dead rows, plus
            // the tail shard when it absorbs delta rows. Replacements are
            // built first and committed together, so a (theoretical) build
            // failure leaves the engine untouched.
            let takes_delta = |i: usize| i == s - 1 && merged > 0;
            let dirty: Vec<usize> = (0..s)
                .filter(|&i| live_per_shard[i] != self.shards[i].data().len() || takes_delta(i))
                .collect();
            let replacements =
                build_shards(dims, &self.roles, &self.index_options, dirty.len(), |j| {
                    let i = dirty[j];
                    let mut flat = Vec::with_capacity(post[i] * dims);
                    self.extend_with_live_rows(
                        &mut flat,
                        i..i + 1,
                        if takes_delta(i) { &delta_live } else { &[] },
                    )?;
                    Ok(flat)
                })?;
            let rebuilt = replacements.len();
            let moved: usize = replacements.iter().map(|index| index.data().len()).sum();
            for (&i, index) in dirty.iter().zip(replacements) {
                self.shards[i] = index;
                self.muts.shard_epochs[i] = epoch_next;
            }
            let mut off = 0u32;
            for (shard, slot) in self.shards.iter().zip(self.offsets.iter_mut()) {
                *slot = off;
                off += shard.data().len() as u32;
            }
            CompactionReport {
                rebuilt_shards: rebuilt,
                dropped_tombstones: dropped,
                merged_delta_rows: merged,
                rebalanced: false,
                epoch: epoch_next,
                live_rows: live_total,
                rows_moved: moved,
                duration_micros: 0, // stamped below, after the epilogue
            }
        };

        self.rows = live_total;
        self.muts.delta = empty_delta(dims);
        self.muts.tombstones = RowMask::new(live_total);
        self.muts.shard_dead = vec![0; self.shards.len()];
        self.muts.epoch = epoch_next;
        self.muts.delta_level = 0;
        self.muts.tomb_level = 0;
        debug_assert_eq!(self.muts.shard_epochs.len(), self.shards.len());
        self.metrics.record_compaction(report.rebuilt_shards as u64);
        let report = CompactionReport {
            duration_micros: t0.elapsed().as_micros() as u64,
            ..report
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
            rebalanced: report.rebalanced,
        });
        tel.compaction
            .record_nanos(report.duration_micros.saturating_mul(1_000));
    }

    /// Appends the live coordinates of the given shard range (in logical
    /// order: each shard's rows by id, whatever order it stores them in),
    /// then the given live delta rows, to `flat`. Fails when a mapped
    /// shard's deferred checks do ([`SdIndex::rows_by_id`]): its rows are
    /// not carried into a new shard.
    fn extend_with_live_rows(
        &self,
        flat: &mut Vec<f64>,
        shard_range: std::ops::Range<usize>,
        delta_live: &[u32],
    ) -> Result<(), SdError> {
        for i in shard_range {
            let off = self.offsets[i] as usize;
            for (id, coords) in self.shards[i].rows_by_id()?.iter() {
                if !self.muts.tombstones.get(off + id.index()) {
                    flat.extend_from_slice(coords);
                }
            }
        }
        for &r in delta_live {
            flat.extend_from_slice(self.muts.delta.point(PointId::new(r)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineOptions;
    use sdq_core::QueryScratch;
    use sdq_core::{DimRole, SdQuery};

    fn sample_engine(n: usize, shards: usize) -> SdEngine {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    ((i * 13) % 29) as f64,
                    ((i * 7) % 17) as f64,
                    i as f64 * 0.1,
                ]
            })
            .collect();
        let roles = vec![DimRole::Attractive, DimRole::Repulsive, DimRole::Repulsive];
        SdEngine::build_with(
            Dataset::from_rows(3, &rows).unwrap(),
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
        let mut e = sample_engine(20, 3);
        let r = e.compact().unwrap();
        assert_eq!(r.rebuilt_shards, 0);
        assert_eq!(r.epoch, 0);
        assert_eq!(e.epoch(), 0);
    }

    #[test]
    fn a_shard_count_clamped_to_the_rows_is_still_a_noop() {
        // Ten rows hold ten shards at most: asking a clean ten-shard engine
        // for 1000 asks for what it has.
        let mut e = sample_engine(10, 10);
        let r = e
            .compact_with(&CompactionOptions {
                shards: Some(1000),
                ..CompactionOptions::default()
            })
            .unwrap();
        assert_eq!((r.rebuilt_shards, r.rebalanced, r.epoch), (0, false, 0));
        assert_eq!((e.epoch(), e.shard_count()), (0, 10));
    }

    #[test]
    fn compact_rebuilds_only_dirty_shards() {
        let mut e = sample_engine(30, 3); // shards of 10
        e.delete(PointId::new(0)).unwrap(); // dirties shard 0 only
        let r = e.compact().unwrap();
        assert_eq!(r.rebuilt_shards, 1);
        assert!(!r.rebalanced);
        assert_eq!(r.dropped_tombstones, 1);
        assert_eq!(r.live_rows, 29);
        assert_eq!(e.epoch(), 1);
        let infos = e.shard_infos();
        assert_eq!(infos[0].epoch, 1);
        assert_eq!(infos[1].epoch, 0, "clean shard untouched");
        assert_eq!(infos[2].epoch, 0);
        assert_eq!(infos[0].rows, 9);
        // Offsets re-derive contiguously.
        assert_eq!(infos[1].offset, 9);
        assert_eq!(infos[2].offset, 19);
        assert!(!e.has_mutations());
    }

    #[test]
    fn compact_merges_delta_into_tail_shard() {
        let mut e = sample_engine(30, 3);
        e.insert(&[1.0, 2.0, 3.0]).unwrap();
        e.insert(&[4.0, 5.0, 6.0]).unwrap();
        let r = e.compact().unwrap();
        assert_eq!(r.merged_delta_rows, 2);
        assert_eq!(r.rebuilt_shards, 1);
        assert!(!r.rebalanced);
        let infos = e.shard_infos();
        assert_eq!(infos[2].rows, 12);
        assert_eq!(infos[2].epoch, 1);
        assert_eq!(e.len(), 32);
        assert_eq!(e.delta_rows(), 0);
    }

    #[test]
    fn heavy_delta_triggers_rebalance() {
        let mut e = sample_engine(30, 3);
        for i in 0..40 {
            e.insert(&[i as f64, 0.0, 1.0]).unwrap();
        }
        // Tail shard would hold 50 of 70 rows: way past 1.5 × ideal.
        let r = e.compact().unwrap();
        assert!(r.rebalanced);
        assert_eq!(r.rebuilt_shards, 3);
        let infos = e.shard_infos();
        assert_eq!(infos.len(), 3);
        for info in &infos {
            assert!((23..=24).contains(&info.rows), "balanced: {}", info.rows);
            assert_eq!(info.epoch, 1);
        }
    }

    #[test]
    fn draining_a_shard_triggers_rebalance() {
        let mut e = sample_engine(30, 3);
        for id in 0..10u32 {
            e.delete(PointId::new(id)).unwrap(); // empty out shard 0
        }
        let r = e.compact().unwrap();
        assert!(r.rebalanced);
        assert_eq!(e.len(), 20);
        assert!(e.shard_infos().iter().all(|i| i.rows > 0));
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
        let mut e = sample_engine(40, 4);
        let mut scratch = QueryScratch::new();
        e.delete(PointId::new(7)).unwrap();
        e.delete(PointId::new(39)).unwrap();
        e.insert(&[100.0, 3.0, 5.0]).unwrap();
        e.insert(&[2.0, 50.0, 0.5]).unwrap();
        let id = e.insert(&[9.0, 9.0, 9.0]).unwrap();
        e.delete(id).unwrap();

        // The logical dataset: live base rows in order, then live delta.
        let mut logical: Vec<Vec<f64>> = Vec::new();
        let mut live_ids: Vec<u32> = Vec::new();
        for i in 0..e.total_rows() as u32 {
            let id = PointId::new(i);
            if e.is_live(id) {
                live_ids.push(i);
                let coords = if (i as usize) < 40 {
                    let shard = (i as usize) / 10;
                    e.shards()[shard]
                        .rows_by_id()
                        .unwrap()
                        .point(PointId::new(i - (shard as u32 * 10)))
                        .to_vec()
                } else {
                    e.delta().point(PointId::new(i - 40)).to_vec()
                };
                logical.push(coords);
            }
        }
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

    #[test]
    fn shard_dead_counters_track_deletes() {
        let mut e = sample_engine(30, 3); // shards of 10
        e.delete(PointId::new(0)).unwrap();
        e.delete(PointId::new(10)).unwrap();
        e.delete(PointId::new(11)).unwrap();
        e.delete(PointId::new(11)).unwrap(); // repeat: no double count
        let id = e.insert(&[0.0, 0.0, 0.0]).unwrap();
        e.delete(id).unwrap(); // delta dead: no shard counter
        let infos = e.shard_infos();
        assert_eq!(
            infos.iter().map(|i| i.dead_rows).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
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
        // Per-shard counters rebuild from the restored mask (id 0 → shard
        // 0; id 10 is the delta row).
        assert_eq!(
            e.shard_infos()
                .iter()
                .map(|i| i.dead_rows)
                .collect::<Vec<_>>(),
            vec![1, 0]
        );
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
        let mut e = sample_engine(40, 2);
        e.delete(PointId::new(0)).unwrap();
        let r = e
            .compact_with(&CompactionOptions {
                shards: Some(4),
                ..CompactionOptions::default()
            })
            .unwrap();
        assert!(r.rebalanced);
        assert_eq!(e.shard_count(), 4);
        assert_eq!(e.len(), 39);
    }
}
