//! Oracle-equivalence and invariant tests for the §4 top-k index.

use super::*;
use rand::{Rng, SeedableRng};
use sdq_core::score::rank_cmp;

fn oracle(
    pts: &[(f64, f64)],
    alive: &[bool],
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
    k: usize,
) -> Vec<ScoredPoint> {
    let mut all: Vec<ScoredPoint> = pts
        .iter()
        .enumerate()
        .filter(|(i, _)| alive[*i])
        .map(|(i, &(x, y))| {
            ScoredPoint::new(
                PointId::new(i as u32),
                sd_score_2d(x, y, qx, qy, alpha, beta),
            )
        })
        .collect();
    all.sort_by(rank_cmp);
    all.truncate(k);
    all
}

fn assert_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len(), "length: got {got:?}\nwant {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.score - w.score).abs() < 1e-9,
            "score mismatch:\n got {got:?}\nwant {want:?}"
        );
    }
}

fn rand_pts(rng: &mut impl Rng, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect()
}

#[test]
fn indexed_angle_direct_matches_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100);
    for _ in 0..25 {
        let n = rng.gen_range(1..120);
        let pts = rand_pts(&mut rng, n);
        let idx = TopKIndex::build(&pts).unwrap();
        let alive = vec![true; n];
        // 45° is indexed: α = β exercises the direct path.
        for _ in 0..15 {
            let (qx, qy) = (rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
            let k = rng.gen_range(1..12);
            let got = idx.query(qx, qy, 1.0, 1.0, k).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, 1.0, 1.0, k));
        }
    }
}

#[test]
fn all_default_angles_direct() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(101);
    let pts = rand_pts(&mut rng, 80);
    let idx = TopKIndex::build(&pts).unwrap();
    let alive = vec![true; 80];
    for a in crate::section6_angles() {
        let (alpha, beta) = (a.cos, a.sin);
        if alpha == 0.0 && beta == 0.0 {
            continue;
        }
        for _ in 0..10 {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let got = idx.query(qx, qy, alpha, beta, 5).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, 5));
        }
    }
}

#[test]
fn arbitrary_weights_match_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(102);
    for _ in 0..25 {
        let n = rng.gen_range(1..100);
        let pts = rand_pts(&mut rng, n);
        let idx = TopKIndex::build(&pts).unwrap();
        let alive = vec![true; n];
        for _ in 0..15 {
            let alpha: f64 = rng.gen_range(0.0..1.0);
            let beta: f64 = rng.gen_range(0.0..1.0);
            if alpha == 0.0 && beta == 0.0 {
                continue;
            }
            let (qx, qy) = (rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
            let k = rng.gen_range(1..10);
            let got = idx.query(qx, qy, alpha, beta, k).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, k));
        }
    }
}

#[test]
fn branching_factors_all_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(103);
    let pts = rand_pts(&mut rng, 150);
    let alive = vec![true; 150];
    for b in [2, 3, 4, 8, 16, 64] {
        let idx = TopKIndex::build_with(&pts, &crate::section6_angles(), b).unwrap();
        idx.check_invariants();
        for _ in 0..10 {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (alpha, beta) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
            let got = idx.query(qx, qy, alpha, beta, 7).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, 7));
        }
    }
}

#[test]
fn fewer_angles_still_exact() {
    // Even with only the two mandatory endpoints indexed, bracketing must
    // stay exact (it may just read more candidates).
    let mut rng = rand::rngs::StdRng::seed_from_u64(104);
    let pts = rand_pts(&mut rng, 90);
    let alive = vec![true; 90];
    let angles = [
        Angle::from_degrees(0.0).unwrap(),
        Angle::from_degrees(90.0).unwrap(),
    ];
    let idx = TopKIndex::build_with(&pts, &angles, 8).unwrap();
    for _ in 0..40 {
        let (alpha, beta): (f64, f64) = (rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0));
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let got = idx.query(qx, qy, alpha, beta, 5).unwrap();
        assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, 5));
    }
}

#[test]
fn angle_out_of_range_is_error() {
    let pts = [(0.0, 0.0), (1.0, 1.0)];
    let angles = [
        Angle::from_degrees(30.0).unwrap(),
        Angle::from_degrees(60.0).unwrap(),
    ];
    let idx = TopKIndex::build_with(&pts, &angles, 4).unwrap();
    // θ = 0 (pure repulsion) is outside [30°, 60°].
    let err = idx.query(0.5, 0.5, 1.0, 0.0, 1).unwrap_err();
    assert!(matches!(err, SdError::AngleOutOfRange { .. }));
    // Inside the range works.
    assert!(idx.query(0.5, 0.5, 1.0, 1.0, 1).is_ok());
}

#[test]
fn build_validation() {
    assert!(matches!(
        TopKIndex::build_with(&[], &crate::section6_angles(), 1),
        Err(SdError::InvalidBranching(1))
    ));
    assert!(matches!(
        TopKIndex::build_with(&[], &[], 4),
        Err(SdError::NoAngles)
    ));
    assert!(TopKIndex::build(&[(f64::NAN, 0.0)]).is_err());
    let idx = TopKIndex::build(&[(0.0, 0.0)]).unwrap();
    assert!(matches!(
        idx.query(0.0, 0.0, 1.0, 1.0, 0),
        Err(SdError::ZeroK)
    ));
    assert!(idx.query(f64::NAN, 0.0, 1.0, 1.0, 1).is_err());
    assert!(idx.query(0.0, 0.0, 0.0, 0.0, 1).is_err());
}

#[test]
fn empty_and_tiny_datasets() {
    let idx = TopKIndex::build(&[]).unwrap();
    assert!(idx.is_empty());
    assert!(idx.query(0.0, 0.0, 1.0, 1.0, 3).unwrap().is_empty());

    let idx = TopKIndex::build(&[(0.5, 0.5)]).unwrap();
    let res = idx.query(0.0, 0.0, 1.0, 1.0, 3).unwrap();
    assert_eq!(res.len(), 1);
    assert_eq!(res[0].id.index(), 0);
}

#[test]
fn k_exceeds_n_returns_all_ranked() {
    let pts = [(0.0, 0.9), (0.5, 0.1), (0.9, 0.4)];
    let idx = TopKIndex::build(&pts).unwrap();
    let res = idx.query(0.1, 0.1, 1.0, 1.0, 10).unwrap();
    assert_eq!(res.len(), 3);
    assert!(res[0].score >= res[1].score && res[1].score >= res[2].score);
}

#[test]
fn duplicate_points_kept() {
    let pts = [(0.2, 0.8); 4];
    let idx = TopKIndex::build(&pts).unwrap();
    let res = idx.query(0.2, 0.0, 1.0, 1.0, 4).unwrap();
    assert_eq!(res.len(), 4);
    for r in &res {
        assert!((r.score - 0.8).abs() < 1e-12);
    }
}

#[test]
fn insert_matches_oracle_and_invariants() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(105);
    let mut pts = rand_pts(&mut rng, 10);
    let mut idx = TopKIndex::build(&pts).unwrap();
    for step in 0..120 {
        let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        pts.push(p);
        idx.insert(p.0, p.1).unwrap();
        if step % 10 == 0 {
            idx.check_invariants();
        }
        let alive = vec![true; pts.len()];
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let (alpha, beta) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
        let got = idx.query(qx, qy, alpha, beta, 5).unwrap();
        assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, 5));
    }
}

#[test]
fn delete_matches_oracle_and_invariants() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(106);
    let pts = rand_pts(&mut rng, 80);
    let mut idx = TopKIndex::build(&pts).unwrap();
    let mut alive = vec![true; pts.len()];
    let mut order: Vec<usize> = (0..pts.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (step, &victim) in order.iter().enumerate() {
        assert!(idx.delete(PointId::new(victim as u32)));
        assert!(!idx.delete(PointId::new(victim as u32)));
        alive[victim] = false;
        if step % 10 == 0 {
            idx.check_invariants();
        }
        if alive.iter().any(|&a| a) {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let got = idx.query(qx, qy, 1.0, 0.7, 4).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, 1.0, 0.7, 4));
        }
    }
    assert!(idx.is_empty());
    assert!(idx.query(0.5, 0.5, 1.0, 1.0, 3).unwrap().is_empty());
}

#[test]
fn interleaved_updates_stay_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(107);
    let mut pts = rand_pts(&mut rng, 40);
    let mut idx = TopKIndex::build(&pts).unwrap();
    let mut alive = vec![true; pts.len()];
    for step in 0..200 {
        if step % 3 == 0 {
            let live: Vec<usize> = alive
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(i, _)| i)
                .collect();
            if !live.is_empty() {
                let victim = live[rng.gen_range(0..live.len())];
                idx.delete(PointId::new(victim as u32));
                alive[victim] = false;
            }
        } else {
            let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            idx.insert(p.0, p.1).unwrap();
            pts.push(p);
            alive.push(true);
        }
        if step % 25 == 0 {
            idx.check_invariants();
        }
        if alive.iter().any(|&a| a) {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (alpha, beta): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.01..1.0));
            let got = idx.query(qx, qy, alpha, beta, 6).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, 6));
        }
    }
}

#[test]
fn rebuild_triggers_and_preserves_answers() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(108);
    let mut idx = TopKIndex::new(&crate::section6_angles(), 2).unwrap();
    idx.set_rebuild_threshold(0.05);
    let mut pts: Vec<(f64, f64)> = Vec::new();
    // Adversarial ascending inserts would degenerate an unbalanced tree.
    for i in 0..300 {
        let p = (i as f64 / 300.0, rng.gen_range(0.0..1.0));
        pts.push(p);
        idx.insert(p.0, p.1).unwrap();
    }
    idx.check_invariants();
    let alive = vec![true; pts.len()];
    for _ in 0..20 {
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let got = idx.query(qx, qy, 1.0, 1.0, 5).unwrap();
        assert_equiv(&got, &oracle(&pts, &alive, qx, qy, 1.0, 1.0, 5));
    }
}

#[test]
fn memory_shrinks_with_branching() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(109);
    let pts = rand_pts(&mut rng, 4000);
    let small = TopKIndex::build_with(&pts, &crate::section6_angles(), 2).unwrap();
    let large = TopKIndex::build_with(&pts, &crate::section6_angles(), 32).unwrap();
    assert!(
        small.memory_bytes() > large.memory_bytes(),
        "higher branching must shrink the tree (Fig. 8i)"
    );
    assert!(small.num_nodes() > large.num_nodes());
}

#[test]
fn bulk_load_fills_its_leaves() {
    // The module docs' storage bound is n/(b−1) nodes; a bulk load that
    // splits every level evenly instead leaves 2-point leaves for unlucky
    // n and swings 3× around it (0.41 / 0.17 / 0.53 / 0.31 / 0.17 nodes
    // per point over these five sizes at b = 8).
    let angles = [Angle::from_degrees(45.0).unwrap()];
    for n in [10_000usize, 25_000, 50_000, 100_000, 200_000] {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i * 7919 % n) as f64, (i % 97) as f64))
            .collect();
        for b in [2usize, 8, 32] {
            let idx = TopKIndex::build_with(&pts, &angles, b).unwrap();
            idx.check_invariants();
            let want = n as f64 / (b - 1) as f64;
            let got = idx.num_nodes() as f64;
            assert!(
                (got - want).abs() <= 0.1 * want,
                "n = {n}, b = {b}: {got} nodes against n/(b-1) = {want:.0}"
            );
        }
    }
}

#[test]
fn angle_query_stream_is_certified_descending() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(110);
    let pts = rand_pts(&mut rng, 60);
    let idx = TopKIndex::build(&pts).unwrap();
    for angle_i in 0..idx.angles().len() {
        let mut aq = AngleQuery::new(&idx, angle_i, 0.4, 0.6);
        let mut last = f64::INFINITY;
        let mut count = 0;
        while let Some((_, s)) = aq.next() {
            assert!(s <= last + 1e-9, "stream must be non-increasing");
            last = s;
            count += 1;
        }
        assert_eq!(count, 60, "stream must enumerate every point exactly once");
    }
}

#[test]
fn pure_attraction_and_repulsion_queries() {
    let pts = [(0.0, 5.0), (3.0, -2.0), (7.0, 1.0)];
    let idx = TopKIndex::build(&pts).unwrap();
    // β = 0: farthest y wins.
    let r = idx.query(0.0, -3.0, 1.0, 0.0, 1).unwrap();
    assert_eq!(r[0].id.index(), 0);
    // α = 0: nearest x wins.
    let r = idx.query(6.5, 0.0, 0.0, 1.0, 1).unwrap();
    assert_eq!(r[0].id.index(), 2);
}

#[test]
fn alg4_faithful_path_matches_oracle() {
    // The preserved Alg. 4 implementation must agree with the default
    // dual-bracket path and the oracle (it is only slower, never wrong).
    let mut rng = rand::rngs::StdRng::seed_from_u64(111);
    let pts = rand_pts(&mut rng, 120);
    let idx = TopKIndex::build(&pts).unwrap();
    let alive = vec![true; 120];
    for _ in 0..40 {
        let (alpha, beta): (f64, f64) = (rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0));
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let k = rng.gen_range(1..8);
        let theta = Angle::from_weights(alpha, beta).unwrap();
        if FrontierEval::at(idx.angles(), &theta, qx, qy)
            .unwrap()
            .indexed()
        {
            continue;
        }
        // A `k` past every point answers every point, however absurd.
        for k in [k, 1 << 40, usize::MAX] {
            let got = arbitrary::query_alg4(&idx, qx, qy, alpha, beta, k, &theta).unwrap();
            assert_equiv(&got, &oracle(&pts, &alive, qx, qy, alpha, beta, k));
        }
    }
}

#[test]
fn a_bracket_under_a_hundredth_of_a_degree_is_widened() {
    // The λ's divide by sin(θ_u − θ_l): two indexed angles 1e-6° apart make
    // a bracket the closed form is not trusted at, so θ_q between them is
    // bracketed by the next indexed neighbour instead — and still answered
    // exactly.
    let deg = |d: f64| Angle::from_degrees(d).unwrap();
    let angles = normalize_angles(&[deg(30.0), deg(30.000001), deg(60.0), deg(0.0)]).unwrap();
    assert_eq!(angles.len(), 4, "1e-6° apart is two angles to the builder");
    let between = deg(30.0000005);
    let eval = FrontierEval::at(&angles, &between, 0.5, 0.5).unwrap();
    assert_eq!((eval.lo_i, eval.hi_i), (0, 2), "widened downwards");
    let eval = FrontierEval::at(&angles[1..], &between, 0.5, 0.5).unwrap();
    assert_eq!(
        (eval.lo_i, eval.hi_i),
        (0, 2),
        "no lower neighbour: upwards"
    );
    let eval = FrontierEval::at(&angles, &deg(45.0), 0.5, 0.5).unwrap();
    assert_eq!((eval.lo_i, eval.hi_i), (2, 3), "a wide bracket stays");

    let mut rng = rand::rngs::StdRng::seed_from_u64(114);
    let pts = rand_pts(&mut rng, 500);
    let idx = TopKIndex::build_with(&pts, &angles, 8).unwrap();
    let alive = vec![true; pts.len()];
    let (alpha, beta) = (between.cos, between.sin);
    for _ in 0..20 {
        let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let got = idx.query(qx, qy, alpha, beta, 10).unwrap();
        let want = oracle(&pts, &alive, qx, qy, alpha, beta, 10);
        assert_eq!(got, want);
    }
}

// ─── the closed-form frontier bound every §4 walk scores envelopes by ───────

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
