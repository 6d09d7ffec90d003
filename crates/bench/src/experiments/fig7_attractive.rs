//! Fig. 7i–j: querying time vs the number of attractive dimensions
//! (0–3 of 6 total). With zero attractive (or repulsive) dimensions no
//! 2-D pairs form and SD-Index degenerates to the adapted TA — the paper's
//! boundary observation.

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let dims = 6;
    let n = if cfg.full { 1_000_000 } else { 50_000 };
    let k = 5;
    for dist in [Distribution::Uniform, Distribution::Correlated] {
        let mut report = Report::new(
            &format!("fig7_attractive_{}", dist.label()),
            &format!(
                "Fig. 7 (attractive dims, {}): avg query ms, 6-D, n = {n}, k = 5",
                dist.label()
            ),
            &["attractive", "pairs", "SeqScan", "SD-Index", "TA", "BRS"],
        );
        let data = generate(dist, n, dims, cfg.seed);
        let queries = uniform_queries(cfg.queries, dims, cfg.seed ^ 0xA77);
        for attractive in 0..=3usize {
            let roles = roles_mixed(dims, attractive);
            let m = build_all(data.clone(), &roles, false);
            report.row(vec![
                attractive.to_string(),
                m.sd.pairs().len().to_string(),
                Report::ms(time_queries(&queries, |q| m.scan.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.sd.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.ta.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.brs.query(q, k).unwrap())),
            ]);
        }
        report.finish(cfg);
    }
}
