//! Fig. 8a: growth of the query cost of the paper's §4 dynamic tree
//! ([`TopKIndex`], `sdq-paper`) with point updates. An equal number of
//! random deletions and insertions keeps the index size constant (an
//! x-value of 1000 means 1000 + 1000 = 2000 updates); query time is
//! measured after each batch, every row on the same per-point tree (row 0
//! is the freshly bulk-loaded one, a rebuild policy may rebalance it later).
//! An engine takes updates through its delta, tombstones and compaction
//! instead, which this figure does not measure.

use rand::{Rng, SeedableRng};
use sdq_core::PointId;
use sdq_paper::topk::TopKIndex;

use crate::harness::{time_queries, Config, Report};
use sdq_data::{generate, uniform_queries, Distribution};

/// Runs the experiment.
pub fn run(cfg: &Config) {
    let n = if cfg.full { 1_000_000 } else { 100_000 };
    let k = 5;
    let batches: &[usize] = &[0, 250, 500, 750, 1000];
    for dist in [Distribution::Uniform, Distribution::Correlated] {
        let mut report = Report::new(
            &format!("fig8_updates_{}", dist.label()),
            &format!(
                "Fig. 8a ({}): avg 2-D top-k query ms after deletions+insertions, n = {n}",
                dist.label()
            ),
            &["updates", "SD-Index*"],
        );
        let data = generate(dist, n, 2, cfg.seed);
        let pts: Vec<(f64, f64)> = data.iter().map(|(_, c)| (c[0], c[1])).collect();
        let mut index = TopKIndex::build(&pts).unwrap();
        let queries = uniform_queries(cfg.queries, 2, cfg.seed ^ 0x0bde);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xF00D);
        let mut live: Vec<u32> = (0..n as u32).collect();
        let mut done = 0usize;
        for &target in batches {
            while done < target {
                let pos = rng.gen_range(0..live.len());
                let victim = live.swap_remove(pos);
                assert!(index.delete(PointId::new(victim)));
                let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                let id = index.insert(p.0, p.1).unwrap();
                live.push(id.raw());
                done += 1;
            }
            let ms = time_queries(&queries, |q| {
                index
                    .query(q.point[0], q.point[1], q.weights[1], q.weights[0], k)
                    .unwrap()
            });
            report.row(vec![target.to_string(), Report::ms(ms)]);
        }
        report.finish(cfg);
    }
}
