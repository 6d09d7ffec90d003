//! Fig. 8i: memory footprint of the paper's §4 dynamic tree
//! ([`TopKIndex`], `sdq-paper`) vs its branching factor `b`: the point
//! table plus every node's child list, x-range and per-angle bound tuples,
//! nothing else. Fewer, larger nodes shrink the per-angle bound storage.
//! The block form an engine stores per pair has a fixed fanout and takes no
//! `b`, so it is not in this figure.

use sdq_paper::topk::TopKIndex;

use crate::harness::{Config, Report};
use sdq_data::{generate, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let n = if cfg.full { 1_000_000 } else { 200_000 };
    let mut report = Report::new(
        "fig8_branching",
        &format!("Fig. 8i: 2-D top-k index memory (MiB) vs branching factor, n = {n}"),
        &["branching", "MiB", "nodes"],
    );
    let data = generate(Distribution::Uniform, n, 2, cfg.seed);
    let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
    for b in [2usize, 4, 8, 16, 32, 50] {
        let index = TopKIndex::build_with(&pts, &sdq_paper::section6_angles(), b).unwrap();
        report.row(vec![
            b.to_string(),
            format!("{:.2}", index.memory_bytes() as f64 / (1024.0 * 1024.0)),
            index.num_nodes().to_string(),
        ]);
    }
    report.finish(cfg);
}
