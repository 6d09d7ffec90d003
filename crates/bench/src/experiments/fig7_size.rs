//! Fig. 7a–c: querying time vs dataset size on 6-dimensional data (three
//! repulsive + three attractive dimensions), one panel per distribution.
//! Methods: sequential scan, SD-Index, TA, BRS, PE. k = 5.

use crate::experiments::{build_all, roles_mixed};
use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

const DEFAULT: [usize; 4] = [20_000, 50_000, 100_000, 200_000];
const FULL: [usize; 5] = [200_000, 400_000, 600_000, 800_000, 1_000_000];

/// Runs the experiment and prints one table per distribution.
pub fn run(cfg: &Config) {
    let dims = 6;
    let k = 5;
    for dist in Distribution::ALL {
        let mut report = Report::new(
            &format!("fig7_size_{}", dist.label()),
            &format!("Fig. 7 (size, {}): avg query ms, 6-D, k = 5", dist.label()),
            &["n", "SeqScan", "SD-Index", "TA", "BRS", "PE"],
        );
        for &n in cfg.sizes(&DEFAULT, &FULL) {
            let data = generate(dist, n, dims, cfg.seed);
            let queries = uniform_queries(cfg.queries, dims, cfg.seed ^ 0xA11CE);
            let roles = roles_mixed(dims, 3);
            let m = build_all(data, &roles, true);
            let scan = time_queries(&queries, |q| m.scan.query(q, k).unwrap());
            let sd = time_queries(&queries, |q| m.sd.query(q, k).unwrap());
            let ta = time_queries(&queries, |q| m.ta.query(q, k).unwrap());
            let brs = time_queries(&queries, |q| m.brs.query(q, k).unwrap());
            let pe = time_queries(&queries, |q| m.pe.as_ref().unwrap().query(q, k).unwrap());
            report.row(vec![
                n.to_string(),
                Report::ms(scan),
                Report::ms(sd),
                Report::ms(ta),
                Report::ms(brs),
                Report::ms(pe),
            ]);
        }
        report.finish(cfg);
    }
}
