//! Per-query execution profiles: plain counters behind every hot path.
//!
//! The paper's central claims are *pruning* claims — the §4/§5 machinery
//! wins because most envelope nodes, leaf blocks and points are never
//! scored — and [`QueryProfile`] is how that is observed. Every query
//! entry point increments a fixed set of `u64` counters as it runs: the
//! box scan's nodes and chunks, the scoring kernels, the delta scan, the
//! tombstone mask and the drain of the query's answer heap — and, for the
//! paper's own §4 walks and §5 streams (`sdq-paper`), the frontier and its
//! block-level floor pruning.
//!
//! The counters live inside [`QueryScratch`](crate::QueryScratch) — one
//! profile a query, whatever answers it: the index, the engine (its delta
//! scan and every shard add to the same one) or a baseline. The query's
//! entry point resets it once, so it is recycled with the scratch and the
//! steady-state **zero-allocation** guarantee holds.
//! They are cheap enough to stay always-on: plain increments on state the
//! hot loops already own. Only wall-clock timestamping has a cost worth
//! gating — set [`QueryProfile::timing`] to collect per-stage nanosecond
//! timings.
//!
//! ## Worked example
//!
//! ```
//! use sdq_core::{Dataset, DimRole, QueryScratch, SdQuery};
//! use sdq_core::multidim::SdIndex;
//!
//! let rows: Vec<Vec<f64>> = (0..640)
//!     .map(|i| vec![(i % 31) as f64, (i % 17) as f64, (i % 7) as f64, i as f64 * 0.01])
//!     .collect();
//! let roles = vec![
//!     DimRole::Attractive,
//!     DimRole::Repulsive,
//!     DimRole::Repulsive,
//!     DimRole::Attractive,
//! ];
//! let index = SdIndex::build(Dataset::from_rows(4, &rows).unwrap(), &roles).unwrap();
//!
//! let mut scratch = QueryScratch::new();
//! scratch.profile.timing = true; // opt into per-stage nanos
//! let query = SdQuery::uniform_weights(vec![3.0, 1.0, 2.0, 0.5], &roles);
//! let top = index.query_with(&query, 8, &mut scratch).unwrap();
//! assert_eq!(top.len(), 8);
//!
//! let p = &scratch.profile;
//! assert_eq!(p.emitted, 8);
//! // Internal consistency: nothing is scored that was not gathered first,
//! // and nothing is gathered that was not fetched first.
//! assert!(p.points_scored <= p.points_gathered);
//! assert!(p.points_gathered <= p.rows_fetched);
//! // The pruning funnel is monotone non-increasing after the first stage.
//! let funnel = p.funnel(rows.len() as u64);
//! for w in funnel.windows(2).skip(1) {
//!     assert!(w[0].1 >= w[1].1, "{} < {}", w[0].0, w[1].0);
//! }
//! assert!(p.aggregate_nanos > 0, "timing was enabled");
//! ```

use crate::kernels::LANES;

/// Execution counters for one query.
///
/// All counters are plain `u64`s incremented inline on the hot paths —
/// always on. `floor_value` is the final k-th-score floor; `isa` names the
/// kernel backend that scored the batches. The `*_nanos` stage
/// timings are collected only while [`QueryProfile::timing`] is set, and
/// only on the query's own profile (they are **not** summed by
/// [`QueryProfile::merge`]).
///
/// **On the box scan** (every engine or index query) the counters
/// read: `parts_scanned` — the parts scanned; `boxes_bounded` — the nodes
/// and chunks of their box trees whose bound the scan computed;
/// `chunks_scored` and `chunks_skipped` — their chunks scored, and the
/// rest; `rows_fetched` and `scan_rows` — the
/// rows of the scored chunks (plus every delta row in `rows_fetched`);
/// `tombstones_skipped` — the dead among them; `points_gathered` — the
/// rest; `kernel_batches` — one per scored piece of up to [`LANES`] rows;
/// `points_scored` and `floor_updates` — the rows that reached the floor,
/// and what they did to it. No frontier or stream runs: the frontier
/// counters, `lanes_masked`, `rounds` and `seen_hits` stay 0 — they count
/// the paper's §4 walks and §5 aggregation (`sdq-paper`) and the TA
/// baseline, which run loops of their own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryProfile {
    /// Envelope nodes expanded by a block frontier (`sdq-paper`'s), each
    /// counted once:
    /// an entry sits in one heap under the best of its projection types,
    /// not in one heap per type.
    pub nodes_visited: u64,
    /// Envelope-tree nodes rejected against the k-th-score floor — every
    /// block and point underneath discarded unseen.
    pub envelope_nodes_rejected: u64,
    /// SoA leaf blocks surfaced by a block frontier (each holds up to
    /// [`LANES`] points).
    pub blocks_popped: u64,
    /// Leaf blocks rejected whole against the floor at pop time (a block
    /// is popped at most once, so this is a count of distinct blocks). Low
    /// when walks end on τ with nothing left under the floor to drain — read
    /// it beside `rows_fetched`, not on its own.
    pub blocks_floor_pruned: u64,
    /// Lanes of surfaced blocks dropped by the per-lane pair-subscore
    /// filter before gathering.
    pub lanes_masked: u64,
    /// Rows the adapted-TA baseline (`sdq-baselines`' `TaIndex`) pulled off
    /// its per-dimension sorted lists. No index or engine query sets it.
    pub onedim_rows_pulled: u64,
    /// Candidate rows handed to the scoring stage: the box scan's
    /// [`scan_rows`](QueryProfile::scan_rows) and every delta row (the live
    /// ones are [`delta_rows_scanned`](QueryProfile::delta_rows_scanned),
    /// the dead ones count in `tombstones_skipped`); on a §4 walk
    /// (`sdq-paper`'s), the rows of every popped block; in a stream loop (`sdq-paper`'s
    /// §5 aggregation, the TA baseline) every fetched row, duplicates
    /// included.
    pub rows_fetched: u64,
    /// Parts (an engine's shards, or the one index) the box scan ran over.
    pub parts_scanned: u64,
    /// Rows of the chunks the box scan scored, tombstoned ones included.
    /// Counted into `rows_fetched`.
    pub scan_rows: u64,
    /// Nodes and chunks of the parts' box trees whose score bound the box
    /// scan computed, its descent's and its sweep's: a chunk once, a node
    /// on the top stored level once each (the sweep bounds them again).
    pub boxes_bounded: u64,
    /// Chunks the box scan scored: their bound reached the floor at their
    /// turn.
    pub chunks_scored: u64,
    /// Chunks of the scanned parts the box scan did not score — the
    /// chunks less `chunks_scored`: their bound, or a node's above them,
    /// was under the floor, or tied it with every id above the floor's
    /// worst.
    pub chunks_skipped: u64,
    /// Distinct live rows gathered into SoA lanes for full scoring.
    pub points_gathered: u64,
    /// Rows whose exact full SD-score was computed and kept (survived the
    /// batched survivor compare against the higher of the local and the
    /// shared k-th-score floor).
    pub points_scored: u64,
    /// Kernel batch invocations, each scoring up to [`LANES`] rows: every
    /// piece of [`LANES`] consecutive rows the box scan scores (tombstoned rows included), and every delta
    /// piece with a live row.
    pub kernel_batches: u64,
    /// Kernel backend that scored the batches (`"avx2"`, `"sse2"`,
    /// `"scalar"`; empty until a batch runs).
    pub isa: &'static str,
    /// Live delta-region rows scored by the delta scan — every live delta
    /// row.
    pub delta_rows_scanned: u64,
    /// Delta chunks of [`LANES`] rows that were scored and dropped whole:
    /// no live row in them reached the delta's running k-th score.
    pub delta_blocks_pruned: u64,
    /// Rows dropped by the tombstone mask (indexed and delta).
    pub tombstones_skipped: u64,
    /// Rows a stream loop dropped as already scored this query (`sdq-paper`'s
    /// §5 aggregation; the box scan meets every row once).
    pub seen_hits: u64,
    /// Updates to the k-th-score floor (insertions and improvements).
    pub floor_updates: u64,
    /// Final k-th-score floor (`-inf` until `k` scores are known).
    pub floor_value: f64,
    /// Rounds of a stream loop (one fetch per stream each: `sdq-paper`'s §5
    /// aggregation, the TA baseline); 0 on the box scan.
    pub rounds: u64,
    /// Rows the engine drained from the query's answer heap (its
    /// [`QueryFloor`](crate::QueryFloor)) into the answer; `0` on the
    /// monolithic path.
    pub merge_rounds: u64,
    /// Rows emitted into the final answer.
    pub emitted: u64,
    /// Collect per-stage wall-clock timings. Off by default: counters are
    /// free, timestamps are not.
    pub timing: bool,
    /// Nanoseconds in the delta scan (engine path, dirty only).
    pub delta_scan_nanos: u64,
    /// Nanoseconds in the driver ([`answer_parts`]), summed over its calls
    /// of one query: the box scan of every part.
    ///
    /// [`answer_parts`]: crate::multidim::answer_parts
    pub aggregate_nanos: u64,
    /// Nanoseconds in the final drain of the query's answer heap
    /// ([`QueryScratch::answer_with`](crate::QueryScratch::answer_with)).
    pub merge_nanos: u64,
    /// Of `aggregate_nanos`, the box scan's descent: the best nodes and
    /// chunks across every part, taken until the lead is scored.
    pub lead_nanos: u64,
    /// Of `aggregate_nanos`, the box scan's sweep: the nodes still reaching
    /// the floor, their chunks scored in row order.
    pub sweep_nanos: u64,
}

impl Default for QueryProfile {
    fn default() -> Self {
        QueryProfile {
            nodes_visited: 0,
            envelope_nodes_rejected: 0,
            blocks_popped: 0,
            blocks_floor_pruned: 0,
            lanes_masked: 0,
            onedim_rows_pulled: 0,
            rows_fetched: 0,
            parts_scanned: 0,
            scan_rows: 0,
            boxes_bounded: 0,
            chunks_scored: 0,
            chunks_skipped: 0,
            points_gathered: 0,
            points_scored: 0,
            kernel_batches: 0,
            isa: "",
            delta_rows_scanned: 0,
            delta_blocks_pruned: 0,
            tombstones_skipped: 0,
            seen_hits: 0,
            floor_updates: 0,
            floor_value: f64::NEG_INFINITY,
            rounds: 0,
            merge_rounds: 0,
            emitted: 0,
            timing: false,
            delta_scan_nanos: 0,
            aggregate_nanos: 0,
            merge_nanos: 0,
            lead_nanos: 0,
            sweep_nanos: 0,
        }
    }
}

impl QueryProfile {
    /// A zeroed profile with timing disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes every counter and timing, preserving the [`timing`] toggle.
    /// Called at the start of each query served from the owning scratch.
    ///
    /// [`timing`]: QueryProfile::timing
    pub fn reset(&mut self) {
        *self = QueryProfile {
            timing: self.timing,
            ..QueryProfile::default()
        };
    }

    /// Accumulates another profile's counters into this one (many queries'
    /// into one total). Counters add;
    /// `floor_value` takes the max (floors only rise); stage timings are
    /// deliberately **not** summed — they belong to the query's profile
    /// alone.
    pub fn merge(&mut self, other: &QueryProfile) {
        self.nodes_visited += other.nodes_visited;
        self.envelope_nodes_rejected += other.envelope_nodes_rejected;
        self.blocks_popped += other.blocks_popped;
        self.blocks_floor_pruned += other.blocks_floor_pruned;
        self.lanes_masked += other.lanes_masked;
        self.onedim_rows_pulled += other.onedim_rows_pulled;
        self.rows_fetched += other.rows_fetched;
        self.parts_scanned += other.parts_scanned;
        self.scan_rows += other.scan_rows;
        self.boxes_bounded += other.boxes_bounded;
        self.chunks_scored += other.chunks_scored;
        self.chunks_skipped += other.chunks_skipped;
        self.points_gathered += other.points_gathered;
        self.points_scored += other.points_scored;
        self.kernel_batches += other.kernel_batches;
        if self.isa.is_empty() {
            self.isa = other.isa;
        }
        self.delta_rows_scanned += other.delta_rows_scanned;
        self.delta_blocks_pruned += other.delta_blocks_pruned;
        self.tombstones_skipped += other.tombstones_skipped;
        self.seen_hits += other.seen_hits;
        self.floor_updates += other.floor_updates;
        if other.floor_value > self.floor_value {
            self.floor_value = other.floor_value;
        }
        self.rounds += other.rounds;
        self.merge_rounds += other.merge_rounds;
        self.emitted += other.emitted;
    }

    /// Every counter by name, in report order: the list `sdq`'s
    /// `--profile-json` and its slow-query events print. Each name is its
    /// field's, written once; the destructure names every field, so a new
    /// one does not compile until it is listed or set aside after the `;`.
    pub fn counters(&self) -> [(&'static str, u64); 23] {
        macro_rules! named {
            ($p:expr; $($counter:ident),*; $($other:ident),*) => {{
                let QueryProfile { $($counter,)* $($other: _,)* } = $p;
                [$((stringify!($counter), $counter)),*]
            }};
        }
        named! {
            *self;
            nodes_visited, envelope_nodes_rejected, blocks_popped, blocks_floor_pruned,
            lanes_masked, onedim_rows_pulled, rows_fetched, parts_scanned, scan_rows,
            boxes_bounded, chunks_scored, chunks_skipped, points_gathered, points_scored,
            kernel_batches, delta_rows_scanned, delta_blocks_pruned, tombstones_skipped,
            seen_hits, floor_updates, rounds, merge_rounds, emitted;
            isa, floor_value, timing, delta_scan_nanos, aggregate_nanos, merge_nanos,
            lead_nanos, sweep_nanos
        }
    }

    /// The pruning funnel: how many points were still in play after each
    /// pruning stage, labelled, monotone non-increasing from the second
    /// stage on (the first stage is the dataset size supplied by the
    /// caller; on multi-pair queries the envelope stage counts each
    /// pair's coverage separately, so it is bounded by `pairs × n`, not
    /// `n`).
    ///
    /// Stages after the first are derived from the counters:
    /// block-granularity stages count [`LANES`] points per block (the
    /// admissible upper bound on what survived), and rows that reach the
    /// scoring stage by another road (1-D streams, the live rows of the
    /// delta scan, the box scan's `scan_rows`) pass undiminished through
    /// the stages that cannot prune them. The lane-mask stage is the fetched
    /// rows less the tombstoned ones: the lanes the pair filter and the
    /// tombstone mask both let through to scoring.
    pub fn funnel(&self, points_in_dataset: u64) -> [(&'static str, u64); 6] {
        let lanes = LANES as u64;
        let pass_through = self.onedim_rows_pulled + self.delta_rows_scanned + self.scan_rows;
        let survived_envelope =
            (self.blocks_popped + self.blocks_floor_pruned) * lanes + pass_through;
        let survived_block_floor = self.blocks_popped * lanes + pass_through;
        [
            ("points in dataset", points_in_dataset),
            ("survived envelope tree", survived_envelope),
            ("survived block floor", survived_block_floor),
            (
                "survived lane mask",
                self.rows_fetched.saturating_sub(self.tombstones_skipped),
            ),
            ("fully scored", self.points_scored),
            ("emitted", self.emitted),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_preserves_timing_toggle() {
        let mut p = QueryProfile::new();
        p.timing = true;
        p.rounds = 7;
        p.chunks_scored = 3;
        p.chunks_skipped = 2;
        p.floor_value = 3.5;
        p.aggregate_nanos = 99;
        p.reset();
        assert!(p.timing);
        assert_eq!((p.rounds, p.chunks_scored, p.chunks_skipped), (0, 0, 0));
        assert_eq!(p.aggregate_nanos, 0);
        assert_eq!(p.floor_value, f64::NEG_INFINITY);
    }

    #[test]
    fn merge_adds_counters_maxes_floor_skips_timing() {
        let mut a = QueryProfile {
            blocks_popped: 3,
            chunks_scored: 1,
            chunks_skipped: 4,
            floor_value: 1.0,
            aggregate_nanos: 10,
            ..QueryProfile::default()
        };
        let b = QueryProfile {
            blocks_popped: 4,
            chunks_scored: 2,
            chunks_skipped: 4,
            floor_value: 2.0,
            isa: "avx2",
            aggregate_nanos: 50,
            ..QueryProfile::default()
        };
        a.merge(&b);
        assert_eq!(
            (a.blocks_popped, a.chunks_scored, a.chunks_skipped),
            (7, 3, 8)
        );
        assert_eq!(a.floor_value, 2.0);
        assert_eq!(a.isa, "avx2");
        assert_eq!(a.aggregate_nanos, 10, "timings are driver-owned");
    }

    #[test]
    fn counters_name_each_field_once_in_order() {
        let p = QueryProfile {
            nodes_visited: 1,
            rows_fetched: 7,
            emitted: 23,
            floor_value: 2.0,
            aggregate_nanos: 99,
            ..QueryProfile::default()
        };
        let c = p.counters();
        assert_eq!(c[0], ("nodes_visited", 1));
        assert_eq!(c[6], ("rows_fetched", 7));
        assert_eq!(c[22], ("emitted", 23));
        let mut names: Vec<&str> = c.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23, "a name is listed twice");
        assert_eq!(
            c.iter().map(|(_, v)| v).sum::<u64>(),
            31,
            "timings are not counters"
        );
    }

    #[test]
    fn funnel_is_monotone_on_consistent_counters() {
        let p = QueryProfile {
            blocks_popped: 10,
            blocks_floor_pruned: 5,
            lanes_masked: 40,
            rows_fetched: 280,
            points_gathered: 270,
            points_scored: 100,
            emitted: 16,
            ..QueryProfile::default()
        };
        let f = p.funnel(100_000);
        for w in f.windows(2) {
            assert!(w[0].1 >= w[1].1, "{} < {}", w[0].0, w[1].0);
        }
    }
}
