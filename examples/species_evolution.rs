//! Figure 1 of the paper, executed: a zoological database where each point
//! is a species with a phylogeny coordinate (attractive — we want similar
//! lineages) and a habitat coordinate (repulsive — we want different
//! regions). For q1 the paper's expected top-1 answer is p1; for q2 it is
//! p3.
//!
//! ```sh
//! cargo run --example species_evolution
//! ```

use sdq::paper::top1::Top1Index;

fn main() {
    // (phylogeny, habitat) — laid out to match Figure 1's narrative.
    let species = [
        ("p1", (1.0, 9.0)), // same phylogeny as q1, vastly different habitat
        ("p2", (6.0, 8.0)),
        ("p3", (8.0, 9.0)), // closest lineage to q2 among distant habitats
        ("p4", (2.0, 2.0)),
        ("p5", (7.0, 3.0)),
    ];
    let points: Vec<(f64, f64)> = species.iter().map(|s| s.1).collect();

    // k = α = β = 1 known up front: the §3 top-1 region index applies.
    let index = Top1Index::build(&points, 1.0, 1.0, 1).expect("index builds");
    println!(
        "top-1 region index over {} species: {} regions",
        index.len(),
        index.num_regions()
    );

    let queries = [("q1", (1.0, 2.0)), ("q2", (8.0, 3.0))];
    let expected = ["p1", "p3"];
    for ((qname, (qx, qy)), want) in queries.iter().zip(expected) {
        let best = index.query(*qx, *qy)[0];
        let name = species[best.id.index()].0;
        println!(
            "{qname} at (phylogeny {qx}, habitat {qy}) → best match {name} \
             (SD-score {:.1})",
            best.score
        );
        assert_eq!(name, want, "Figure 1's narrative must hold");
    }
    println!("\nFigure 1 reproduced: q1 → p1, q2 → p3.");
}
