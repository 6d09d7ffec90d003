//! The query planner: which of the two query paths a query takes, and the
//! one rule the §4 walk runs its pair under.
//!
//! A query that is one non-degenerate pair over a single-pair index
//! ([`SdIndex::single_pair`](super::SdIndex::single_pair)) walks that
//! pair's §4 index ([`QueryPlan::Direct`]); anything else is one box scan
//! of every part ([`QueryPlan::Scan`]; `boxes.rs` has why the §5 pair
//! streams no longer run here). The walk executes its pair one way — the
//! paper's §4 frontier, certified when the weight angle is indexed and
//! Claim-6 bracketed otherwise — and [`plan_pair`] is that rule, read off
//! the pair's weights alone:
//!
//! * [`PairAction::Degenerate`] — both weights zero: the pair contributes
//!   exactly `0` to every score; such a query is not a walk but a scan;
//! * [`PairAction::Frontier`] — θ_q is an indexed angle: one best-first
//!   block frontier at it (the §4 fast path). A zero weight is θ_q = 0° or
//!   90°, and every index holds both: `SdIndex::build_with` refuses an
//!   angle set without them, and a decode refuses one as corrupt;
//! * [`PairAction::Bracketed`] — otherwise: the same frontier, each envelope
//!   bounded from its two bracketing tables by the closed form of Claim 6.
//!
//! Neither the shard's size nor `k` enters the rule, so every shard of an
//! engine plans a query alike. **Every path is exact**, and since each
//! leaves the canonical answer (score descending, id ascending — see
//! [`rank_cmp`](crate::score::rank_cmp)) in the query's floor, the plan can
//! never change a query result, only its cost.

use std::fmt;

use crate::geometry::Angle;

/// How one repulsive↔attractive pair is physically executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairAction {
    /// Best-first frontier over the pair's §4 index at an indexed angle.
    Frontier,
    /// The same frontier under the Claim 6 bracket, in closed form per
    /// envelope (angle between two indexed angles).
    Bracketed,
    /// Both weights zero: contributes nothing (a query over it is a scan,
    /// and the paper's §5 aggregation drops its stream).
    Degenerate,
}

impl PairAction {
    /// Short human-readable name (used by `sdq inspect`).
    pub fn name(self) -> &'static str {
        match self {
            PairAction::Frontier => "frontier",
            PairAction::Bracketed => "bracketed-frontier",
            PairAction::Degenerate => "degenerate",
        }
    }
}

/// The planner's decision for one pair, with the angle it read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairPlan {
    /// Repulsive dimension (the tree's `y`).
    pub repulsive: usize,
    /// Attractive dimension (the tree's `x`).
    pub attractive: usize,
    /// Chosen physical strategy.
    pub action: PairAction,
    /// The query's weight angle θ_q for this pair; `None` when both
    /// weights are zero.
    pub theta: Option<Angle>,
}

impl PairPlan {
    /// θ_q as `sdq` prints it (`90.0°`), or `-` for a degenerate pair.
    pub fn theta_label(&self) -> String {
        self.theta
            .map_or_else(|| "-".to_string(), |t| format!("{:.1}°", t.degrees()))
    }
}

/// How one query runs against one [`SdIndex`](super::SdIndex).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// The whole query is one non-degenerate pair with no leftover
    /// dimensions ([`SdIndex::single_pair`](super::SdIndex::single_pair)):
    /// one certified frontier walk over the pair's §4 index — under an
    /// engine, over the pair's indexes of every shard at once, so every
    /// shard's plan says it.
    Direct(PairPlan),
    /// Anything else: one box scan of the index, a walk of its box tree
    /// that bounds the nodes and chunks it reaches and scores only the
    /// chunks that can still change the floor (a walked pair's chunks, at
    /// all-zero weights, one level bounded at `0`).
    Scan {
        /// Chunks under the tree.
        chunks: usize,
        /// Stored levels of the tree (0 for a walked pair's index).
        levels: usize,
        /// Stored nodes on them.
        nodes: usize,
        /// Bytes of the node boxes, their first ids and the chunk codes.
        bytes: usize,
    },
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryPlan::Direct(p) => write!(
                f,
                "direct 2-D {} over pair (d{} repulsive, d{} attractive)",
                p.action.name(),
                p.repulsive,
                p.attractive
            ),
            QueryPlan::Scan {
                chunks,
                levels,
                nodes,
                bytes,
            } => write!(
                f,
                "box scan over {chunks} chunk(s) under {nodes} node(s) on {levels} stored \
                 level(s), {bytes} B of node boxes and codes"
            ),
        }
    }
}

/// The rule for one pair with repulsive weight `alpha` and attractive weight
/// `beta`; `indexed` is whether θ_q is an indexed angle of the pair's §4
/// index. The one decision [`SdIndex::plan`](super::SdIndex::plan) reports
/// and the walk runs. Indexed or bracketed walk the same frontier: the
/// bracket is two multiplies and an add per table read.
pub fn plan_pair(alpha: f64, beta: f64, indexed: bool) -> PairAction {
    if alpha == 0.0 && beta == 0.0 {
        PairAction::Degenerate
    } else if indexed {
        PairAction::Frontier
    } else {
        PairAction::Bracketed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_has_three_cases() {
        assert_eq!(plan_pair(0.0, 0.0, false), PairAction::Degenerate);
        assert_eq!(plan_pair(0.0, 0.0, true), PairAction::Degenerate);
        // One zero weight is θ_q = 0° or 90°, which every index holds.
        assert_eq!(plan_pair(1.0, 0.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(0.0, 2.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(1.0, 1.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(1.0, 0.7, false), PairAction::Bracketed);
    }
}
