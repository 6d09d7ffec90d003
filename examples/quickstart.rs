//! Quickstart: build an SD-Index over a small 2-D dataset and run one
//! query mixing an attractive and a repulsive dimension.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sdq::core::multidim::SdIndex;
use sdq::{Dataset, DimRole, SdQuery};

fn main() {
    // Ten points: dimension 0 is a feature we want *similar* to the query
    // (attractive), dimension 1 one we want *far* from it (repulsive).
    let data = Dataset::from_rows(
        2,
        &[
            vec![0.10, 0.95],
            vec![0.12, 0.20],
            vec![0.48, 0.85],
            vec![0.50, 0.05],
            vec![0.55, 0.50],
            vec![0.70, 0.99],
            vec![0.72, 0.01],
            vec![0.90, 0.40],
            vec![0.91, 0.93],
            vec![0.95, 0.60],
        ],
    )
    .expect("finite coordinates");
    let roles = vec![DimRole::Attractive, DimRole::Repulsive];

    let index = SdIndex::build(data, &roles).expect("index builds");
    // One attractive and one repulsive dimension, in box order like any
    // other roles: the rows under their box tree.
    let (nodes, levels, bytes) = index.tree_stats();
    println!("built SD-Index: {nodes} node(s) on {levels} stored level(s), {bytes} B of boxes");

    // Query at (0.5, 0.5): similar in dim 0, distant in dim 1; α = β = 1.
    let query = SdQuery::new(vec![0.5, 0.5], vec![1.0, 1.0]).expect("valid query");
    let top3 = index.query(&query, 3).expect("query succeeds");

    println!("top-3 for q = (0.5, 0.5):");
    let rows = index.rows_by_id().expect("a built index reads");
    for sp in &top3 {
        let p = rows.point(sp.id);
        println!(
            "  {}  at ({:.2}, {:.2})  SD-score = {:+.3}",
            sp.id, p[0], p[1], sp.score
        );
    }
    // The winners sit near x = 0.5 with y far from 0.5.
    assert!(top3[0].score >= top3[1].score);
}
