//! What a query plan says: every query, whatever its roles and weights, is
//! one box scan of every part ([`QueryPlan::Scan`]; `boxes.rs` has why
//! neither the paper's §4 walk nor its §5 pair streams run here any more).
//! Neither the shard's size nor `k` enters it, and the scan is exact, so a
//! plan can never change a query result, only report its cost.

use std::fmt;

/// How one query runs against one [`SdIndex`](super::SdIndex).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// One box scan of the index, a walk of its box tree that bounds the
    /// nodes and chunks it reaches and scores only the chunks that can
    /// still change the floor.
    Scan {
        /// Chunks under the tree.
        chunks: usize,
        /// Stored levels of the tree.
        levels: usize,
        /// Stored nodes on them.
        nodes: usize,
        /// Bytes of the node boxes, their first ids and the chunk codes.
        bytes: usize,
    },
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let QueryPlan::Scan {
            chunks,
            levels,
            nodes,
            bytes,
        } = self;
        write!(
            f,
            "box scan over {chunks} chunk(s) under {nodes} node(s) on {levels} stored \
             level(s), {bytes} B of node boxes and codes"
        )
    }
}
