//! Long randomized update workloads: interleaved inserts/deletes on every
//! updatable structure, continuously cross-checked against a shadow oracle
//! and structural invariant checks.

use rand::{Rng, SeedableRng};
use sdq::baselines::BrsIndex;
use sdq::core::score::rank_cmp;
use sdq::paper::top1::Top1Index;
use sdq::paper::topk::TopKIndex;
use sdq::rstar::RStarTree;
use sdq::{DimRole, PointId, ScoredPoint, SdQuery};

struct Shadow {
    pts: Vec<(f64, f64)>,
    alive: Vec<bool>,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            pts: Vec::new(),
            alive: Vec::new(),
        }
    }
    fn insert(&mut self, p: (f64, f64)) -> u32 {
        self.pts.push(p);
        self.alive.push(true);
        (self.pts.len() - 1) as u32
    }
    fn live(&self) -> Vec<u32> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
            .collect()
    }
    fn top_k(&self, qx: f64, qy: f64, alpha: f64, beta: f64, k: usize) -> Vec<ScoredPoint> {
        let mut all: Vec<ScoredPoint> = self
            .pts
            .iter()
            .enumerate()
            .filter(|(i, _)| self.alive[*i])
            .map(|(i, &(x, y))| {
                ScoredPoint::new(
                    PointId::new(i as u32),
                    alpha * (y - qy).abs() - beta * (x - qx).abs(),
                )
            })
            .collect();
        all.sort_by(rank_cmp);
        all.truncate(k);
        all
    }
}

fn assert_equiv(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.score - w.score).abs() < 1e-9,
            "got {got:?}\nwant {want:?}"
        );
    }
}

#[test]
fn topk_index_survives_2000_updates() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
    let mut index = TopKIndex::build(&[]).unwrap();
    index.set_rebuild_threshold(0.15);
    let mut shadow = Shadow::new();
    for step in 0..2000 {
        let roll: f64 = rng.gen();
        let live = shadow.live();
        if roll < 0.6 || live.len() < 2 {
            let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let id = index.insert(p.0, p.1).unwrap();
            assert_eq!(id.raw(), shadow.insert(p));
        } else {
            let victim = live[rng.gen_range(0..live.len())];
            assert!(index.delete(PointId::new(victim)));
            shadow.alive[victim as usize] = false;
        }
        if step % 100 == 0 {
            index.check_invariants();
        }
        if step % 10 == 0 && !shadow.live().is_empty() {
            let (qx, qy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (alpha, beta): (f64, f64) = (rng.gen_range(0.01..1.0), rng.gen_range(0.0..1.0));
            let got = index.query(qx, qy, alpha, beta, 5).unwrap();
            assert_equiv(&got, &shadow.top_k(qx, qy, alpha, beta, 5));
        }
    }
}

#[test]
fn top1_index_survives_1000_updates() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF2);
    let mut index = Top1Index::new(0.9, 0.4, 1).unwrap();
    let mut shadow = Shadow::new();
    for step in 0..1000 {
        let roll: f64 = rng.gen();
        let live = shadow.live();
        if roll < 0.55 || live.len() < 2 {
            let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            index.insert(p.0, p.1).unwrap();
            shadow.insert(p);
        } else {
            let victim = live[rng.gen_range(0..live.len())];
            assert!(index.delete(PointId::new(victim)));
            shadow.alive[victim as usize] = false;
        }
        if step % 5 == 0 && !shadow.live().is_empty() {
            let (qx, qy) = (rng.gen_range(-0.5..1.5), rng.gen_range(-0.5..1.5));
            assert_equiv(&index.query(qx, qy), &shadow.top_k(qx, qy, 0.9, 0.4, 1));
        }
    }
}

#[test]
fn brs_survives_1000_updates() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF3);
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let mut index = BrsIndex::new(2, &roles).unwrap();
    let mut shadow = Shadow::new();
    for step in 0..1000 {
        let roll: f64 = rng.gen();
        let live = shadow.live();
        if roll < 0.6 || live.len() < 2 {
            let p = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            index.insert(&[p.0, p.1]);
            shadow.insert(p);
        } else {
            let victim = live[rng.gen_range(0..live.len())];
            assert!(index.delete(PointId::new(victim)));
            shadow.alive[victim as usize] = false;
        }
        if step % 20 == 0 && !shadow.live().is_empty() {
            let q = SdQuery::new(
                vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)],
                vec![0.7, 1.0],
            )
            .unwrap();
            let got = index.query(&q, 3).unwrap();
            // Shadow uses (x-attractive β = 0.7, y-repulsive α = 1.0).
            assert_equiv(&got, &shadow.top_k(q.point[0], q.point[1], 1.0, 0.7, 3));
        }
    }
}

#[test]
fn rstar_survives_3000_updates_with_invariants() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF4);
    let mut tree = RStarTree::new(3, 5);
    let mut alive: Vec<bool> = Vec::new();
    let mut coords: Vec<[f64; 3]> = Vec::new();
    for step in 0..3000 {
        let live: Vec<u32> = alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
            .collect();
        if rng.gen_bool(0.6) || live.len() < 2 {
            let p = [rng.gen(), rng.gen(), rng.gen()];
            tree.insert(&p);
            coords.push(p);
            alive.push(true);
        } else {
            let victim = live[rng.gen_range(0..live.len())];
            assert!(tree.delete(victim));
            alive[victim as usize] = false;
        }
        if step % 250 == 0 {
            tree.check_invariants();
        }
    }
    tree.check_invariants();
    // Final exhaustive range check.
    let lo = [0.25, 0.0, 0.4];
    let hi = [0.8, 0.9, 0.95];
    let mut got = tree.range_query(&lo, &hi);
    got.sort_unstable();
    let want: Vec<u32> = coords
        .iter()
        .enumerate()
        .filter(|(i, p)| alive[*i] && (0..3).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(got, want);
}
