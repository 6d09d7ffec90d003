//! The per-pair query planner: a small cost model that routes every 2-D
//! subproblem of the §5 decomposition to one of four physical strategies —
//! and the fetch budget that bounds what any mix of them may cost.
//!
//! The paper hardcodes the execution of a pair: walk its §4 tree (certified
//! when the weight angle is indexed, Claim-6 bracketed otherwise). That is
//! the right call at scale, but it is not *always* the right call: a tiny
//! shard pays more for four frontier heaps and per-node bound evaluation
//! than a plain sorted-column scan would cost, and a pair with one zero
//! weight degenerates to an exact 1-D problem where a single sorted stream
//! certifies immediately. The planner picks per pair, per query:
//!
//! * [`PairAction::Frontier`] — one best-first [`PairFrontier`] at the
//!   indexed angle θ_q (the §4 fast path),
//! * [`PairAction::Bracketed`] — the same frontier with the Claim 6
//!   `dual_bound` LP per node (θ_q not indexed),
//! * [`PairAction::OneDim`] — the pair served by its sorted columns as 1-D
//!   threshold-aggregation streams (exactly the adapted-TA decomposition,
//!   which the full plan degenerates to when every pair picks it),
//! * [`PairAction::Degenerate`] — both weights zero: the pair contributes
//!   exactly `0` to every score and is dropped from the stream set.
//!
//! A fifth strategy is not chosen per pair but reached by the execution
//! itself: **the scan exit**. Threshold aggregation degrades towards a full
//! scan as streams multiply and the data turns anti-correlated, and it
//! degrades expensively — a row fetched through a stream is a random access
//! (frontier pop, lane filter, gather), a row met by a sequential pass over
//! the row-major coordinate table is a few kernel operations. Measured on
//! the repo benchmark's `agg_6d` (100k × 6-D anti-correlated, k = 64,
//! 4 shards, 44 % of the rows fetched per query without the exit): 71–88 ns
//! per fetched row averaged over a whole descent, about 46 ns over its
//! first n/8 fetches (before the blocks thin out), against 5.5–6 ns per
//! scanned row — a fetch costs 8–16 scanned rows. An aggregation over `n`
//! rows that has fetched more than [`scan_budget`]`(n) = n / 8` of them and
//! is still neither certified nor floor-terminated therefore stops fetching
//! and finishes with one kernel scan over the rows it has not seen
//! (`aggregate_rounds` in the parent module owns the exit;
//! `threshold_aggregate_with`, which the TA baseline rides, never takes
//! it). Fetching n/8 rows already costs what scanning all n does, so the
//! exit bounds a query at about twice a pure scan, and the query that would
//! have certified one fetch past the budget — the worst case — pays about
//! twice what it would have; one that would have fetched 44 % of the table
//! pays a third. The constant is not a tuning knob — it is `n / 8` for
//! every index — and the sweep says where it sits (three 10-second runs of
//! the unmodified benchmark per value, medians of p50 / p95): on the
//! 100k × 4-D uniform anchor (k = 16, 4 shards, `mixed_rw_4d`'s queries)
//! 238 / 343 µs at n/8, 237 / 338 µs at n/16 and 492 / 608 µs at n/32,
//! where friendly queries pay for scans they did not need; on `agg_6d`
//! 1130 / 1304 µs, 869 / 962 µs and 751 / 810 µs. n/16 would serve both
//! benchmark points; n/8 keeps a margin for the queries between them — the
//! anchor's hardest fetch 8.8 % of the rows, and not one of its 1024 shard
//! executions switches at n/8.
//!
//! **Every strategy is exact**, and since the aggregation emits the
//! canonical answer (score descending, id ascending — see
//! [`rank_cmp`](crate::score::rank_cmp)), the planner's choice can never
//! change a query result, only its cost. The proptests in
//! `tests/engine_equivalence.rs` pin this across random shard sizes, which
//! exercise every branch of the model.
//!
//! Cost estimates are in *candidate-handling units* (≈ one heap operation
//! plus one score evaluation) and are deliberately coarse — they only have
//! to rank strategies, not predict wall time.
//!
//! [`PairFrontier`]: crate::topk::stream::PairFrontier

use std::fmt;

/// How one repulsive↔attractive pair is physically executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairAction {
    /// Best-first frontier over the pair's §4 tree at an indexed angle.
    Frontier,
    /// Frontier with the Claim 6 per-node `dual_bound` LP (angle between
    /// two indexed angles).
    Bracketed,
    /// Two (or one, if a weight is zero) sorted-column 1-D streams.
    OneDim,
    /// Both weights zero: contributes nothing; no stream is assembled.
    Degenerate,
}

impl PairAction {
    /// Short human-readable name (used by `sdq inspect`).
    pub fn name(self) -> &'static str {
        match self {
            PairAction::Frontier => "frontier",
            PairAction::Bracketed => "bracketed-frontier",
            PairAction::OneDim => "1d-streams",
            PairAction::Degenerate => "degenerate",
        }
    }
}

/// The planner's decision for one pair, with its cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairPlan {
    /// Repulsive dimension (the tree's `y`).
    pub repulsive: usize,
    /// Attractive dimension (the tree's `x`).
    pub attractive: usize,
    /// Chosen physical strategy.
    pub action: PairAction,
    /// Estimated cost in candidate-handling units.
    pub est_cost: f64,
}

/// The full plan of one query against one [`SdIndex`](super::SdIndex).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// `true` when the whole query is a single pair with no leftover
    /// dimensions: it bypasses the aggregation loop entirely and runs one
    /// certified frontier search over the pair's tree (the Claim 6
    /// bracketed path when θ_q is not indexed).
    pub direct: bool,
    /// Per-pair decisions, in pair order.
    pub pairs: Vec<PairPlan>,
    /// Number of unpaired 1-D streams with non-zero weight.
    pub unpaired_streams: usize,
    /// Rows the aggregation may fetch before it finishes with a kernel scan
    /// ([`scan_budget`] of the index's row count). Not consulted by a
    /// `direct` plan, which does not aggregate.
    pub scan_budget: usize,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.direct {
            let p = &self.pairs[0];
            return write!(
                f,
                "direct 2-D {} over pair (d{} repulsive, d{} attractive)",
                p.action.name(),
                p.repulsive,
                p.attractive
            );
        }
        write!(f, "aggregate[")?;
        for (i, p) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "(d{},d{})→{} ~{:.0}",
                p.repulsive,
                p.attractive,
                p.action.name(),
                p.est_cost
            )?;
        }
        write!(
            f,
            "] + {} unpaired 1-D; kernel scan past {} rows fetched",
            self.unpaired_streams, self.scan_budget
        )
    }
}

/// Rows one aggregation over `n` rows may fetch through its streams before
/// it stops fetching and finishes with a sequential kernel scan of the rows
/// it has not seen: `n / 8`. A fetch costs 8–16 scanned rows, so by then
/// the fetches have cost about what scanning everything does: the exit
/// bounds any query at roughly twice a pure scan, costs the query that
/// would have certified just past the budget about 2×, and never touches
/// one that certifies early. The module docs (strategy five) hold the
/// measurements and the n/8–n/16–n/32 sweep.
#[inline]
pub fn scan_budget(n: usize) -> usize {
    n / 8
}

/// Fetches the aggregation typically needs per subproblem before the
/// threshold certifies: `k` answers plus a constant overfetch.
#[inline]
fn fetch_estimate(k: usize) -> f64 {
    (k + 8) as f64
}

/// Cost of serving one pair through its tree frontier: each fetch expands
/// ~`b·log_b(n)` node entries; the Claim 6 LP per node roughly doubles the
/// evaluation cost when θ_q is not indexed.
#[inline]
fn tree_cost(n: usize, k: usize, branching: usize, indexed: bool) -> f64 {
    let nf = (n.max(2)) as f64;
    let b = (branching.max(2)) as f64;
    let lp_factor = if indexed { 1.0 } else { 2.2 };
    fetch_estimate(k) * b * nf.log(b) * lp_factor
}

/// The strategy the *direct* single-pair path executes: always the
/// certified tree frontier — indexed when available, Claim 6 bracketed
/// otherwise. (When the whole query is one pair there is no aggregation to
/// feed 1-D streams into, so the OneDim/Degenerate branches of
/// [`plan_pair`] never apply; `sdq inspect` must report what actually
/// runs.)
pub fn plan_direct(n: usize, k: usize, branching: usize, indexed: bool) -> (PairAction, f64) {
    let action = if indexed {
        PairAction::Frontier
    } else {
        PairAction::Bracketed
    };
    (action, tree_cost(n, k, branching, indexed))
}

/// Chooses the strategy for one pair. `n` is the number of points *this*
/// index covers (the shard size under the engine — smaller shards shift the
/// balance towards [`PairAction::OneDim`]), `indexed` whether θ_q is an
/// indexed angle of the pair's tree.
pub fn plan_pair(
    n: usize,
    k: usize,
    branching: usize,
    alpha: f64,
    beta: f64,
    indexed: bool,
) -> (PairAction, f64) {
    if alpha == 0.0 && beta == 0.0 {
        return (PairAction::Degenerate, 0.0);
    }
    if alpha == 0.0 || beta == 0.0 {
        // One live weight: a single sorted stream emits in exact subscore
        // order with an exact bound — certifies after ~k fetches.
        return (PairAction::OneDim, fetch_estimate(k));
    }
    let nf = (n.max(2)) as f64;
    let cost_tree = tree_cost(n, k, branching, indexed);
    // 1-D streams: O(1) per fetch, but the two column bounds are loose for
    // a genuinely 2-D subscore — overfetch grows like √(n·k), capped at a
    // full scan.
    let cost_onedim = 2.0 * nf.min(fetch_estimate(k) + 4.0 * (nf * k as f64).sqrt());
    if cost_onedim < cost_tree {
        (PairAction::OneDim, cost_onedim)
    } else if indexed {
        (PairAction::Frontier, cost_tree)
    } else {
        (PairAction::Bracketed, cost_tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_weights_degenerate() {
        assert_eq!(
            plan_pair(1000, 8, 8, 0.0, 0.0, false).0,
            PairAction::Degenerate
        );
        assert_eq!(plan_pair(1000, 8, 8, 1.0, 0.0, true).0, PairAction::OneDim);
        assert_eq!(plan_pair(1000, 8, 8, 0.0, 2.0, false).0, PairAction::OneDim);
    }

    #[test]
    fn large_n_prefers_trees_small_n_prefers_columns() {
        let (large_idx, _) = plan_pair(100_000, 16, 8, 1.0, 1.0, true);
        assert_eq!(large_idx, PairAction::Frontier);
        let (large_brk, _) = plan_pair(100_000, 16, 8, 1.0, 0.7, false);
        assert_eq!(large_brk, PairAction::Bracketed);
        let (tiny, _) = plan_pair(24, 8, 8, 1.0, 1.0, false);
        assert_eq!(tiny, PairAction::OneDim);
    }

    #[test]
    fn costs_rank_sanely() {
        // The bracketed estimate always exceeds the indexed one.
        let (_, c_idx) = plan_pair(50_000, 16, 8, 1.0, 1.0, true);
        let (_, c_brk) = plan_pair(50_000, 16, 8, 1.0, 1.0, false);
        assert!(c_brk > c_idx);
    }
}
