//! Fig. 8f–g: 2-D querying time vs `k` on a large dataset, uniform and
//! correlated panels.

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let n = if cfg.full { 10_000_000 } else { 1_000_000 };
    for dist in [Distribution::Uniform, Distribution::Correlated] {
        let mut report = Report::new(
            &format!("fig8_2d_k_{}", dist.label()),
            &format!(
                "Fig. 8f–g ({}): avg 2-D query ms vs k, n = {n}",
                dist.label()
            ),
            &["k", "SeqScan", "SD-Index", "TA", "BRS"],
        );
        let data = generate(dist, n, 2, cfg.seed);
        let queries = uniform_queries(cfg.queries, 2, cfg.seed ^ 0x2D4B);
        let roles = roles_mixed(2, 1);
        let m = build_all(data, &roles, false);
        for k in [5usize, 25, 50, 75, 100] {
            report.row(vec![
                k.to_string(),
                Report::ms(time_queries(&queries, |q| m.scan.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.sd.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.ta.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.brs.query(q, k).unwrap())),
            ]);
        }
        report.finish(cfg);
    }
}
