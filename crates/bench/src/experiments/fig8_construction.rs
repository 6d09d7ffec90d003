//! Fig. 8j: index construction time vs dataset size (2-D): SD-top1,
//! SD-topk, BRS (STR bulk load) and PE (per-dimension sorts).

use sdq_baselines::{BrsIndex, PeIndex};
use sdq_core::DimRole;
use sdq_paper::top1::Top1Index;
use sdq_paper::topk::TopKIndex;

use crate::harness::{time_once, Config, Report};
use sdq_data::{generate, Distribution};

const DEFAULT: [usize; 4] = [20_000, 50_000, 100_000, 200_000];
const FULL: [usize; 5] = [200_000, 400_000, 600_000, 800_000, 1_000_000];

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let mut report = Report::new(
        "fig8_construction",
        "Fig. 8j: 2-D index construction time (ms) vs dataset size",
        &["n", "SD-top1", "SD-topk", "BRS", "PE"],
    );
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    for &n in cfg.sizes(&DEFAULT, &FULL) {
        let data = generate(Distribution::Uniform, n, 2, cfg.seed);
        let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
        let (_, t_top1) = time_once(|| Top1Index::build(&pts, 1.0, 1.0, 1).unwrap());
        let (_, t_topk) = time_once(|| TopKIndex::build(&pts).unwrap());
        let (_, t_brs) = time_once(|| BrsIndex::build(&data, &roles).unwrap());
        let (_, t_pe) = time_once(|| PeIndex::build(data.clone(), &roles).unwrap());
        report.row(vec![
            n.to_string(),
            Report::ms(t_top1),
            Report::ms(t_topk),
            Report::ms(t_brs),
            Report::ms(t_pe),
        ]);
    }
    report.finish(cfg);
}
