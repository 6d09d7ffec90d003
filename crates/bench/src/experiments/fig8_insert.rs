//! Fig. 8b: insertion cost vs dataset size for SD-Index top-1, SD-Index
//! top-k, BRS and PE (2-D). Reported as total milliseconds for a batch of
//! 1000 random insertions into a prebuilt index of size n.

use rand::{Rng, SeedableRng};
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
        "fig8_insert",
        "Fig. 8b: total ms for 1000 insertions into a prebuilt 2-D index",
        &["n", "SD-top1", "SD-topk", "BRS", "PE"],
    );
    let batch = 1000usize;
    for &n in cfg.sizes(&DEFAULT, &FULL) {
        let data = generate(Distribution::Uniform, n, 2, cfg.seed);
        let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x1AB);
        let new_pts: Vec<(f64, f64)> = (0..batch)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();

        let mut top1 = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
        let (_, t_top1) = time_once(|| {
            for &(x, y) in &new_pts {
                top1.insert(x, y).unwrap();
            }
        });

        let mut topk = TopKIndex::build(&pts).unwrap();
        let (_, t_topk) = time_once(|| {
            for &(x, y) in &new_pts {
                topk.insert(x, y).unwrap();
            }
        });

        let mut brs = BrsIndex::build(&data, &roles).unwrap();
        let (_, t_brs) = time_once(|| {
            for &(x, y) in &new_pts {
                brs.insert(&[x, y]);
            }
        });

        let mut pe = PeIndex::build(data, &roles).unwrap();
        let (_, t_pe) = time_once(|| {
            for &(x, y) in &new_pts {
                pe.insert(&[x, y]).unwrap();
            }
        });

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
