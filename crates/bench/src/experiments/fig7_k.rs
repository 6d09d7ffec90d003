//! Fig. 7g–h: querying time vs `k` (5–100) on 6-dimensional data, uniform
//! and correlated panels (the paper omits anti-correlated as similar).

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let dims = 6;
    let n = if cfg.full { 1_000_000 } else { 100_000 };
    for dist in [Distribution::Uniform, Distribution::Correlated] {
        let mut report = Report::new(
            &format!("fig7_k_{}", dist.label()),
            &format!("Fig. 7 (k, {}): avg query ms, 6-D, n = {n}", dist.label()),
            &["k", "SeqScan", "SD-Index", "TA", "BRS"],
        );
        let data = generate(dist, n, dims, cfg.seed);
        let queries = uniform_queries(cfg.queries, dims, cfg.seed ^ 0x7E57);
        let roles = roles_mixed(dims, 3);
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
