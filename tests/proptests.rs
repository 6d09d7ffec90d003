//! Property-based tests (proptest): oracle equivalence and structural
//! invariants under arbitrary finite inputs — not just the nice uniform
//! clouds of the example workloads.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use sdq::baselines::{BrsIndex, PeIndex, SeqScan, TaIndex};
use sdq::core::multidim::SdIndex;
use sdq::paper::top1::Top1Index;
use sdq::paper::topk::TopKIndex;
use sdq::rstar::RStarTree;
use sdq::{Dataset, DimRole, PointId, ScoredPoint, SdQuery};

fn coord() -> impl Strategy<Value = f64> {
    // Mix of magnitudes, exact duplicates and negatives.
    prop_oneof![
        4 => -100.0..100.0f64,
        1 => Just(0.0),
        1 => Just(1.0),
        1 => Just(-1.0),
        1 => -1e6..1e6f64,
    ]
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![4 => 0.0..10.0f64, 1 => Just(0.0), 1 => Just(1.0)]
}

fn check_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        let scale = 1.0 + g.score.abs().max(w.score.abs());
        prop_assert!(
            (g.score - w.score).abs() < 1e-7 * scale,
            "scores diverge: {:?} vs {:?}",
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top1_index_equals_oracle(
        pts in vec((coord(), coord()), 1..60),
        queries in vec((coord(), coord()), 1..8),
        alpha in weight(),
        beta in weight(),
        k in 1usize..6,
    ) {
        prop_assume!(alpha > 0.0 || beta > 0.0);
        let index = Top1Index::build(&pts, alpha, beta, k).unwrap();
        for (qx, qy) in queries {
            let mut want: Vec<ScoredPoint> = pts.iter().enumerate().map(|(i, &(x, y))| {
                ScoredPoint::new(
                    PointId::new(i as u32),
                    alpha * (y - qy).abs() - beta * (x - qx).abs(),
                )
            }).collect();
            want.sort_by(sdq::core::score::rank_cmp);
            want.truncate(k);
            check_equiv(&index.query(qx, qy), &want)?;
        }
    }

    #[test]
    fn topk_index_equals_oracle(
        pts in vec((coord(), coord()), 1..60),
        qx in coord(), qy in coord(),
        alpha in weight(), beta in weight(),
        k in 1usize..8,
    ) {
        prop_assume!(alpha > 0.0 || beta > 0.0);
        let index = TopKIndex::build(&pts).unwrap();
        let got = index.query(qx, qy, alpha, beta, k).unwrap();
        let mut want: Vec<ScoredPoint> = pts.iter().enumerate().map(|(i, &(x, y))| {
            ScoredPoint::new(
                PointId::new(i as u32),
                alpha * (y - qy).abs() - beta * (x - qx).abs(),
            )
        }).collect();
        want.sort_by(sdq::core::score::rank_cmp);
        want.truncate(k);
        check_equiv(&got, &want)?;
    }

    #[test]
    fn multidim_and_baselines_equal_oracle(
        rows in vec(vec(coord(), 3), 1..50),
        q in vec(coord(), 3),
        w in vec(weight(), 3),
        rep_mask in 0usize..8,
        k in 1usize..6,
    ) {
        let roles: Vec<DimRole> = (0..3).map(|d| {
            if rep_mask & (1 << d) != 0 { DimRole::Repulsive } else { DimRole::Attractive }
        }).collect();
        let data = Arc::new(Dataset::from_rows(3, &rows).unwrap());
        let query = SdQuery::new(q, w).unwrap();
        let oracle = SeqScan::new(data.clone(), &roles).unwrap();
        let want = oracle.query(&query, k).unwrap();
        check_equiv(&SdIndex::build(data.clone(), &roles).unwrap().query(&query, k).unwrap(), &want)?;
        check_equiv(&TaIndex::build(data.clone(), &roles).unwrap().query(&query, k).unwrap(), &want)?;
        check_equiv(&BrsIndex::build(&data, &roles).unwrap().query(&query, k).unwrap(), &want)?;
        check_equiv(&PeIndex::build(data.clone(), &roles).unwrap().query(&query, k).unwrap(), &want)?;
    }

    #[test]
    fn top1_updates_equal_rebuild(
        initial in vec((coord(), coord()), 1..25),
        inserts in vec((coord(), coord()), 0..15),
        delete_seed in 0u64..1000,
        qx in coord(), qy in coord(),
    ) {
        let mut index = Top1Index::build(&initial, 1.0, 1.0, 1).unwrap();
        let mut shadow: Vec<(f64, f64)> = initial.clone();
        let mut alive: Vec<bool> = vec![true; shadow.len()];
        for (i, &(x, y)) in inserts.iter().enumerate() {
            index.insert(x, y).unwrap();
            shadow.push((x, y));
            alive.push(true);
            // Deterministic pseudo-random interleaved delete.
            if (delete_seed + i as u64).is_multiple_of(3) {
                let victim = ((delete_seed as usize + i * 7) % shadow.len()) as u32;
                if alive[victim as usize] && alive.iter().filter(|&&a| a).count() > 1 {
                    index.delete(PointId::new(victim));
                    alive[victim as usize] = false;
                }
            }
        }
        let mut want: Vec<ScoredPoint> = shadow.iter().enumerate()
            .filter(|(i, _)| alive[*i])
            .map(|(i, &(x, y))| ScoredPoint::new(
                PointId::new(i as u32),
                (y - qy).abs() - (x - qx).abs(),
            )).collect();
        want.sort_by(sdq::core::score::rank_cmp);
        want.truncate(1);
        check_equiv(&index.query(qx, qy), &want)?;
    }

    #[test]
    fn rstar_range_equals_bruteforce(
        pts in vec(vec(coord(), 3), 0..80),
        lo in vec(coord(), 3),
        extent in vec(0.0..200.0f64, 3),
    ) {
        let flat: Vec<f64> = pts.iter().flatten().copied().collect();
        let tree = RStarTree::bulk_load(3, &flat, 6);
        tree.check_invariants();
        let hi: Vec<f64> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        let mut got = tree.range_query(&lo, &hi);
        got.sort_unstable();
        let want: Vec<u32> = pts.iter().enumerate().filter(|(_, p)| {
            p.iter().zip(&lo).zip(&hi).all(|((v, l), h)| l <= v && v <= h)
        }).map(|(i, _)| i as u32).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn envelope_is_pointwise_max(
        pts in vec((coord(), coord()), 1..40),
        alpha in 0.01f64..10.0,
        beta in weight(),
        probes in vec(coord(), 1..12),
    ) {
        use sdq::paper::envelope::{provider_at, upper_envelope, Tent};
        use sdq::core::geometry::Angle;
        use sdq::paper::geometry::lower_at;
        let angle = Angle::from_weights(alpha, beta).unwrap();
        let tents: Vec<Tent> = pts.iter().map(|&(x, y)| Tent::new(x, y)).collect();
        let regions = upper_envelope(&angle, &tents, None);
        for ax in probes {
            let p = provider_at(&regions, ax) as usize;
            let got = lower_at(&angle, tents[p].x, tents[p].y, ax);
            let want = tents.iter()
                .map(|t| lower_at(&angle, t.x, t.y, ax))
                .fold(f64::NEG_INFINITY, f64::max);
            let scale = 1.0 + want.abs();
            prop_assert!((got - want).abs() < 1e-9 * scale);
        }
    }
}
