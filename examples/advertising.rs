//! The online-advertising scenario from the paper's introduction and §5:
//! an advertiser looks for publishers with a *hit rate similar to a top
//! publisher's* but a *price as different (cheaper) as possible*, plus
//! audience coverage similar to a target.
//!
//! Dimensions: price (repulsive), hit rate (attractive), coverage
//! (attractive) — the §5 worked example pairs price with hit rate and
//! leaves coverage as a 1-D subproblem.
//!
//! ```sh
//! cargo run --example advertising
//! ```

use rand::{Rng, SeedableRng};
use sdq::core::multidim::SdIndex;
use sdq::{Dataset, DimRole, SdQuery};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    // Synthetic marketplace: price roughly tracks hit rate (top publishers
    // charge more), with noise that hides a few bargains.
    let n = 5_000;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let hit_rate: f64 = rng.gen_range(0.0..1.0);
        let price = (0.8 * hit_rate + rng.gen_range(-0.15..0.15f64)).clamp(0.01, 1.0);
        let coverage: f64 = rng.gen_range(0.0..1.0);
        rows.push(vec![price, hit_rate, coverage]);
    }
    // A premium reference publisher the advertiser wants to imitate.
    let reference = vec![0.92, 0.90, 0.75];
    rows.push(reference.clone());
    let data = Dataset::from_rows(3, &rows).expect("finite coordinates");

    let roles = vec![DimRole::Repulsive, DimRole::Attractive, DimRole::Attractive];
    let index = SdIndex::build(data, &roles).expect("index builds");
    println!(
        "publisher index: pair(s) {:?}, 1-D subproblem dim(s) {:?}",
        index.pairs(),
        index.unpaired()
    );

    // "Hit rate and coverage like the reference, price far from its 0.92."
    let query = SdQuery::new(reference, vec![1.0, 2.0, 0.5]).expect("valid query");
    let top = index.query(&query, 5).expect("query succeeds");

    println!("\nbargain publishers (hit rate ≈ 0.90, price far from 0.92):");
    println!(
        "  {:>10} {:>8} {:>9} {:>10} {:>9}",
        "id", "price", "hit rate", "coverage", "score"
    );
    // Answers name rows by id; the index may store them in another order.
    let rows = index.rows_by_id().expect("a built index reads");
    for sp in &top {
        let p = rows.point(sp.id);
        println!(
            "  {:>10} {:>8.2} {:>9.2} {:>10.2} {:>9.3}",
            sp.id.to_string(),
            p[0],
            p[1],
            p[2],
            sp.score
        );
        // Every answer should be much cheaper than the reference while
        // keeping a similar hit rate.
        assert!(
            p[0] < 0.7,
            "answers must be much cheaper than the 0.92 reference"
        );
        assert!((p[1] - 0.90).abs() < 0.2, "answers must keep the hit rate");
    }
}
