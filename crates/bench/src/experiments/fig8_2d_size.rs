//! Fig. 8c–d: 2-D querying time vs dataset size (the per-subproblem gap
//! behind the multi-dimensional wins), uniform and correlated panels.

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

const DEFAULT: [usize; 3] = [100_000, 500_000, 1_000_000];
const FULL: [usize; 4] = [1_000_000, 2_000_000, 5_000_000, 10_000_000];

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let k = 5;
    for dist in [Distribution::Uniform, Distribution::Correlated] {
        let mut report = Report::new(
            &format!("fig8_2d_size_{}", dist.label()),
            &format!("Fig. 8c–d ({}): avg 2-D query ms, k = 5", dist.label()),
            &["n", "SeqScan", "SD-Index", "TA", "BRS"],
        );
        for &n in cfg.sizes(&DEFAULT, &FULL) {
            let data = generate(dist, n, 2, cfg.seed);
            let queries = uniform_queries(cfg.queries, 2, cfg.seed ^ 0x2D);
            let roles = roles_mixed(2, 1);
            let m = build_all(data, &roles, false);
            report.row(vec![
                n.to_string(),
                Report::ms(time_queries(&queries, |q| m.scan.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.sd.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.ta.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.brs.query(q, k).unwrap())),
            ]);
        }
        report.finish(cfg);
    }
}
