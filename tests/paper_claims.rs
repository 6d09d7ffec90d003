//! The paper's formal claims (§2–§4) as executable integration checks,
//! exercised over randomized inputs at the public-API level.

use rand::{Rng, SeedableRng};
use sdq::core::geometry::Angle;
use sdq::paper::envelope::{provider_at, upper_envelope, Tent};
use sdq::paper::geometry::{
    claim1_negative_region, lower_at, projection_for, score_via_projection, upper_at,
    ProjectionType,
};
use sdq::paper::topk::TopKIndex;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x51AC)
}

/// Claim 1: a point whose projections sandwich the query on its axis has a
/// non-positive SD-score.
#[test]
fn claim1_sandwich_implies_nonpositive() {
    let mut rng = rng();
    let mut exercised = 0;
    for _ in 0..20_000 {
        let a = Angle::from_weights(rng.gen_range(0.01..2.0), rng.gen_range(0.0..2.0)).unwrap();
        let (px, py, qx, qy) = (
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
        );
        if claim1_negative_region(&a, px, py, qx, qy) {
            exercised += 1;
            assert!(a.normalized_score(px, py, qx, qy) <= 1e-12);
        }
    }
    assert!(exercised > 1000, "the Claim 1 cone must be hit often");
}

/// Claims 2 + 3: the score computed through the Eqn. 6 projection equals
/// the direct score for every configuration.
#[test]
fn claims2_3_projection_identity() {
    let mut rng = rng();
    for _ in 0..20_000 {
        let a = Angle::from_weights(rng.gen_range(0.0..2.0), rng.gen_range(0.001..2.0)).unwrap();
        let (px, py, qx, qy) = (
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
        );
        let via = score_via_projection(&a, px, py, qx, qy);
        let direct = a.normalized_score(px, py, qx, qy);
        assert!((via - direct).abs() < 1e-9);
    }
}

/// Eqn. 6: the chosen projection always points from the point towards the
/// query's side.
#[test]
fn eqn6_projection_sides() {
    let mut rng = rng();
    for _ in 0..5000 {
        let (px, py, qx, qy) = (
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
            rng.gen_range(-5.0..5.0),
        );
        let proj = projection_for(px, py, qx, qy);
        // Left projections only when the point is right of (or on) the axis.
        assert_eq!(proj.is_left(), px >= qx);
        // Lower projections only for points at or above the query.
        assert_eq!(proj.is_lower(), py >= qy);
        let _ = ProjectionType::ALL;
    }
}

/// Claim 4: the true top-k is always contained in the union of the k
/// highest lower projections and the k lowest upper projections.
#[test]
fn claim4_candidate_containment() {
    let mut rng = rng();
    for _ in 0..300 {
        let n = rng.gen_range(1..80);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let a = Angle::from_weights(rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0)).unwrap();
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let k = rng.gen_range(1..6).min(n);

        // Candidate set per Claim 4.
        let mut by_lower: Vec<usize> = (0..n).collect();
        by_lower.sort_by(|&i, &j| {
            lower_at(&a, pts[j].0, pts[j].1, qx)
                .partial_cmp(&lower_at(&a, pts[i].0, pts[i].1, qx))
                .unwrap()
        });
        let mut by_upper: Vec<usize> = (0..n).collect();
        by_upper.sort_by(|&i, &j| {
            upper_at(&a, pts[i].0, pts[i].1, qx)
                .partial_cmp(&upper_at(&a, pts[j].0, pts[j].1, qx))
                .unwrap()
        });
        let mut candidates: Vec<usize> = by_lower[..k].to_vec();
        candidates.extend_from_slice(&by_upper[..k]);

        // True top-k scores.
        let mut scores: Vec<(usize, f64)> = (0..n)
            .map(|i| (i, a.normalized_score(pts[i].0, pts[i].1, qx, qy)))
            .collect();
        scores.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap());
        let kth = scores[k - 1].1;
        for &(i, s) in scores.iter().take(k) {
            // Every top-k member must be reachable through the candidates
            // (modulo exact ties at the k-th score).
            if s > kth + 1e-12 || candidates.contains(&i) {
                continue;
            }
            let tied = scores
                .iter()
                .take(k)
                .filter(|&&(_, t)| (t - s).abs() < 1e-12)
                .count();
            assert!(tied > 0, "top-k member {i} missing from Claim 4 candidates");
        }
    }
}

/// Claim 5: each point provides the highest lower projection in at most
/// one contiguous region of the envelope.
#[test]
fn claim5_contiguous_regions() {
    let mut rng = rng();
    for _ in 0..200 {
        let n = rng.gen_range(1..100);
        let tents: Vec<Tent> = (0..n)
            .map(|_| Tent::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let a = Angle::from_weights(rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0)).unwrap();
        let regions = upper_envelope(&a, &tents, None);
        let providers: Vec<u32> = regions.iter().map(|r| r.provider).collect();
        let mut seen = std::collections::HashSet::new();
        for w in providers.windows(2) {
            assert_ne!(w[0], w[1], "adjacent duplicate regions");
        }
        for p in &providers {
            assert!(
                seen.insert(*p),
                "provider {p} appears in two disjoint regions"
            );
        }
        // Boundaries strictly increase.
        for w in regions.windows(2) {
            assert!(w[0].x_start < w[1].x_start);
        }
        let _ = provider_at(&regions, 0.0);
    }
}

/// Claim 6 (via its public consequence): bracketed arbitrary-angle queries
/// through the §4 index return exactly the oracle answer.
#[test]
fn claim6_bracketing_is_exact() {
    let mut rng = rng();
    let pts: Vec<(f64, f64)> = (0..400)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    // Sparse angle grid → wide brackets → Claim 6 does real work.
    let angles = [
        Angle::from_degrees(0.0).unwrap(),
        Angle::from_degrees(90.0).unwrap(),
    ];
    let index = TopKIndex::build_with(&pts, &angles, 8).unwrap();
    for _ in 0..200 {
        let (alpha, beta): (f64, f64) = (rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0));
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let k = rng.gen_range(1..8);
        let got = index.query(qx, qy, alpha, beta, k).unwrap();
        let mut want: Vec<f64> = pts
            .iter()
            .map(|&(x, y)| alpha * (y - qy).abs() - beta * (x - qx).abs())
            .collect();
        want.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (g, w) in got.iter().zip(&want) {
            assert!((g.score - w).abs() < 1e-9);
        }
    }
}

/// §4.2 observation 2 (single crossing): two points' score orderings flip
/// at most once as θ sweeps 0° → 90°.
#[test]
fn single_crossing_property() {
    let mut rng = rng();
    for _ in 0..2000 {
        let (p1, p2, q): ((f64, f64), (f64, f64), (f64, f64)) = (
            (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
            (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
        );
        let mut flips = 0;
        let mut last_sign: Option<bool> = None;
        for step in 0..=180 {
            let a = Angle::from_degrees(step as f64 / 2.0).unwrap();
            let d =
                a.normalized_score(p1.0, p1.1, q.0, q.1) - a.normalized_score(p2.0, p2.1, q.0, q.1);
            if d.abs() < 1e-12 {
                continue;
            }
            let sign = d > 0.0;
            if let Some(prev) = last_sign {
                if prev != sign {
                    flips += 1;
                }
            }
            last_sign = Some(sign);
        }
        assert!(flips <= 1, "orderings must flip at most once (got {flips})");
    }
}
