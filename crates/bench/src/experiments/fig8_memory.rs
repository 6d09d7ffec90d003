//! Fig. 8h: memory footprint vs dataset size on 6-dimensional data.
//! `SD-topk` is the full §5 index (three bulk-loaded per-pair §4 indexes); `SD-top1` builds
//! one §3 region index per pair and reports only the region storage, per
//! distribution — correlated/anti-correlated data dominate more points in
//! rotated space, hence the much smaller top-1 footprints.

use sdq_core::multidim::SdIndex;
use sdq_paper::top1::Top1Index;

use crate::experiments::roles_mixed;
use crate::harness::{Config, Report};
use sdq_data::{generate, Distribution};

const DEFAULT: [usize; 4] = [20_000, 50_000, 100_000, 200_000];
const FULL: [usize; 5] = [200_000, 400_000, 600_000, 800_000, 1_000_000];

fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let dims = 6;
    let roles = roles_mixed(dims, 3);
    let mut report = Report::new(
        "fig8_memory",
        "Fig. 8h: index memory (MiB) vs dataset size, 6-D",
        &["n", "SD-topk(uni)", "top1(uni)", "top1(corr)", "top1(anti)"],
    );
    for &n in cfg.sizes(&DEFAULT, &FULL) {
        let mut cells = vec![n.to_string()];
        for (i, dist) in Distribution::ALL.iter().enumerate() {
            let data = generate(*dist, n, dims, cfg.seed);
            if i == 0 {
                let sd = SdIndex::build(data.clone(), &roles).unwrap();
                cells.push(mib(sd.memory_bytes()));
            }
            // One §3 structure per pair; the paper's top-1 index stores
            // only the regions.
            let mut top1_bytes = 0usize;
            for p in 0..3usize {
                let (att, rep) = (p, 3 + p);
                let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[att], c[rep])).collect();
                let t1 = Top1Index::build(&pts, 1.0, 1.0, 1).unwrap();
                top1_bytes += t1.memory_bytes(false);
            }
            cells.push(mib(top1_bytes));
        }
        report.row(cells);
    }
    report.finish(cfg);
}
