//! Fig. 8e: 2-D top-1 index query time vs dataset size across the three
//! distributions, against sequential scan. The top-1 structure fixes
//! `k = α = β = 1` at build time (§3).

use sdq_paper::top1::Top1Index;

use crate::harness::{time_once, time_queries, Config, Report};
use sdq_data::{generate, uniform_queries_unit_weights, Distribution};

const DEFAULT: [usize; 3] = [100_000, 500_000, 1_000_000];
const FULL: [usize; 4] = [1_000_000, 2_000_000, 5_000_000, 10_000_000];

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let mut report = Report::new(
        "fig8_top1",
        "Fig. 8e: avg 2-D top-1 query ms (k = α = β = 1)",
        &[
            "n",
            "SeqScan(uni)",
            "top1(uni)",
            "top1(corr)",
            "top1(anti)",
            "regions(uni)",
        ],
    );
    for &n in cfg.sizes(&DEFAULT, &FULL) {
        let queries = uniform_queries_unit_weights(cfg.queries, 2, cfg.seed ^ 0x701);
        let mut cells: Vec<String> = vec![n.to_string()];
        let mut regions_uni = 0usize;
        for (i, dist) in Distribution::ALL.iter().enumerate() {
            let data = generate(*dist, n, 2, cfg.seed);
            let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
            let (index, _) = time_once(|| Top1Index::build(&pts, 1.0, 1.0, 1).unwrap());
            if i == 0 {
                regions_uni = index.num_regions();
                // Scan baseline measured once, on the uniform panel.
                let scan_ms = time_queries(&queries, |q| {
                    let (qx, qy) = (q.point[0], q.point[1]);
                    let best = pts
                        .iter()
                        .enumerate()
                        .map(|(i, &(x, y))| (i, (y - qy).abs() - (x - qx).abs()))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                        .map(|(i, s)| {
                            sdq_core::ScoredPoint::new(sdq_core::PointId::new(i as u32), s)
                        });
                    best.into_iter().collect()
                });
                cells.push(Report::ms(scan_ms));
            }
            let ms = time_queries(&queries, |q| index.query(q.point[0], q.point[1]));
            cells.push(Report::ms(ms));
        }
        cells.push(regions_uni.to_string());
        report.row(cells);
    }
    report.finish(cfg);
}
