//! Fig. 7d–f: querying time vs dimensionality (2–8), one panel per
//! distribution. PE is excluded from here on, as in the paper ("due to the
//! significantly weaker performance of PE … we exclude the technique").

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let n = if cfg.full { 1_000_000 } else { 50_000 };
    let k = 5;
    for dist in Distribution::ALL {
        let mut report = Report::new(
            &format!("fig7_dims_{}", dist.label()),
            &format!(
                "Fig. 7 (dims, {}): avg query ms, n = {n}, k = 5",
                dist.label()
            ),
            &["dims", "SeqScan", "SD-Index", "TA", "BRS"],
        );
        for dims in [2usize, 4, 6, 8] {
            let data = generate(dist, n, dims, cfg.seed);
            let queries = uniform_queries(cfg.queries, dims, cfg.seed ^ 0xD135);
            let roles = roles_mixed(dims, dims / 2);
            let m = build_all(data, &roles, false);
            report.row(vec![
                dims.to_string(),
                Report::ms(time_queries(&queries, |q| m.scan.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.sd.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.ta.query(q, k).unwrap())),
                Report::ms(time_queries(&queries, |q| m.brs.query(q, k).unwrap())),
            ]);
        }
        report.finish(cfg);
    }
}
