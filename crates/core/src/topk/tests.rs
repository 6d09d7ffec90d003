//! Admissibility of the closed-form frontier bound the §4 walks score
//! envelopes by.

use super::stream::{FrontierEval, StreamKind};
use super::*;
use crate::geometry::Angle;
use rand::{Rng, SeedableRng};

fn rand_pts(rng: &mut impl Rng, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

/// The envelope of `pts` at every angle of `angles`, as one table row.
fn envelope(angles: &[Angle], pts: &[(f64, f64)]) -> Vec<AngleBounds> {
    angles
        .iter()
        .map(|a| {
            let mut b = AngleBounds::EMPTY;
            for &(x, y) in pts {
                b.extend_point(a.u(x, y), a.v(x, y));
            }
            b
        })
        .collect()
}

/// The score of `p` at `a` as projection type `kind` reads it: the true
/// score of the points in `kind`'s quadrant, a lower value elsewhere.
fn type_score(a: &Angle, kind: StreamKind, (x, y): (f64, f64), qx: f64, qy: f64) -> f64 {
    let (dx, dy) = (a.sin * (x - qx), a.cos * (y - qy));
    match kind {
        StreamKind::Llp => dy - dx,
        StreamKind::Rlp => dy + dx,
        StreamKind::Lup => -dy - dx,
        StreamKind::Rup => -dy + dx,
    }
}

#[test]
fn bracket_bound_is_admissible() {
    // For random brackets θ_l ≤ θ_q ≤ θ_u — θ_q at either end included —
    // and random envelopes, the closed form covers every point's θ_q score
    // type by type, and the side maxima cover the true score.
    let mut rng = rand::rngs::StdRng::seed_from_u64(112);
    for round in 0..2000 {
        let dl = rng.gen_range(0.0..80.0);
        let du = rng.gen_range(dl + 0.02..90.0);
        let dq = match round % 8 {
            0 => dl,
            1 => du,
            _ => rng.gen_range(dl..=du),
        };
        let angles = [dl, du].map(|d| Angle::from_degrees(d).unwrap());
        let tq = Angle::from_degrees(dq).unwrap();
        let n = rng.gen_range(1..12);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let (qx, qy) = (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
        let table = envelope(&angles, &pts);
        let eval = FrontierEval::at(&angles, &tq, qx, qy).unwrap();
        assert_eq!(eval.indexed(), round % 8 < 2, "θq={dq} in [{dl}, {du}]");
        let bound = |kind| eval.score(&table, 0, kind);
        for &p in &pts {
            for kind in StreamKind::ALL {
                let s = type_score(&tq, kind, p, qx, qy);
                assert!(
                    bound(kind) >= s - 1e-12 * (1.0 + s.abs()),
                    "{kind:?} bound {} below {s} (θl={dl}, θu={du}, θq={dq})",
                    bound(kind)
                );
            }
            let side = if p.0 >= qx {
                bound(StreamKind::Llp).max(bound(StreamKind::Lup))
            } else {
                bound(StreamKind::Rlp).max(bound(StreamKind::Rup))
            };
            let s = tq.normalized_score(p.0, p.1, qx, qy);
            assert!(
                side >= s - 1e-12 * (1.0 + s.abs()),
                "side bound {side} below {s}"
            );
        }
    }
}

#[test]
fn indexed_angle_reads_the_stored_key_plus_the_query_term() {
    // λ = (1, 0) mixes nothing in: at an indexed angle the bound is
    // `key_to_score` — the stored key and the type's query term — bit for bit.
    let key_to_score = |b: &AngleBounds, kind, a: &Angle, qx: f64, qy: f64| match kind {
        StreamKind::Llp => b.max_u + (a.sin * qx - a.cos * qy),
        StreamKind::Rlp => b.max_v + (-(a.sin * qx) - a.cos * qy),
        StreamKind::Lup => (a.cos * qy + a.sin * qx) - b.min_v,
        StreamKind::Rup => (a.cos * qy - a.sin * qx) - b.min_u,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(113);
    let angles = default_angles();
    for _ in 0..200 {
        let pts = rand_pts(&mut rng, 7);
        let table = envelope(&angles, &pts);
        let (qx, qy) = (rng.gen_range(-1.0..2.0), rng.gen_range(-1.0..2.0));
        for (i, a) in angles.iter().enumerate() {
            let eval = FrontierEval::at(&angles, a, qx, qy).unwrap();
            assert!(eval.indexed());
            for kind in StreamKind::ALL {
                assert_eq!(
                    eval.score(&table, 0, kind).to_bits(),
                    key_to_score(&table[i], kind, a, qx, qy).to_bits(),
                    "{kind:?} at angle {i}"
                );
            }
        }
    }
}
