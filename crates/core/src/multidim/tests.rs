//! Oracle-equivalence tests for the multi-dimensional SD-Index.

use std::collections::BinaryHeap;

use super::*;
use crate::mask::RowMask;
use crate::score::{rank_cmp, sd_score};
use crate::threshold::FloorEntry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn oracle(data: &Dataset, roles: &[DimRole], query: &SdQuery, k: usize) -> Vec<ScoredPoint> {
    let mut all: Vec<ScoredPoint> = data
        .iter()
        .map(|(id, c)| ScoredPoint::new(id, sd_score(c, &query.point, roles, &query.weights)))
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

fn rand_dataset(rng: &mut impl Rng, n: usize, dims: usize) -> Dataset {
    let coords: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
    Dataset::from_flat(dims, coords).unwrap()
}

fn rand_roles(rng: &mut impl Rng, dims: usize) -> Vec<DimRole> {
    (0..dims)
        .map(|_| {
            if rng.gen_bool(0.5) {
                DimRole::Repulsive
            } else {
                DimRole::Attractive
            }
        })
        .collect()
}

fn rand_query(rng: &mut impl Rng, dims: usize) -> SdQuery {
    SdQuery::new(
        (0..dims).map(|_| rng.gen_range(-0.2..1.2)).collect(),
        (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect(),
    )
    .unwrap()
}

#[test]
fn lib_doc_example() {
    let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0], vec![7.0, 8.5]]).unwrap();
    let roles = vec![DimRole::Attractive, DimRole::Repulsive];
    let index = SdIndex::build(data, &roles).unwrap();
    let query = SdQuery::uniform_weights(vec![1.0, 2.0], &roles);
    let top = index.query(&query, 1).unwrap();
    assert_eq!(top[0].id.index(), 0);
}

#[test]
fn matches_oracle_across_dims_roles_weights() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(200);
    for _ in 0..40 {
        let dims = rng.gen_range(1..8);
        let n = rng.gen_range(1..150);
        let data = rand_dataset(&mut rng, n, dims);
        let roles = rand_roles(&mut rng, dims);
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        for _ in 0..8 {
            let q = rand_query(&mut rng, dims);
            let k = rng.gen_range(1..12);
            let got = index.query(&q, k).unwrap();
            assert_equiv(&got, &oracle(&data, &roles, &q, k));
        }
    }
}

#[test]
fn six_dims_three_three_paper_config() {
    // The paper's main benchmark configuration: 6 dims, 3 repulsive +
    // 3 attractive.
    let mut rng = rand::rngs::StdRng::seed_from_u64(201);
    let roles = vec![
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
    ];
    let data = rand_dataset(&mut rng, 400, 6);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    // The rows go in box order under a tree of the 7 chunks' groups.
    assert_eq!(index.tree_stats().0, 7);
    for _ in 0..25 {
        let q = rand_query(&mut rng, 6);
        let got = index.query(&q, 5).unwrap();
        assert_equiv(&got, &oracle(&data, &roles, &q, 5));
    }
}

#[test]
fn all_attractive_degenerates_to_ta() {
    // 0 repulsive dims: no 2-D subproblems; the index must still be exact
    // (this is the Fig. 7i boundary case).
    let mut rng = rand::rngs::StdRng::seed_from_u64(202);
    let roles = vec![DimRole::Attractive; 4];
    let data = rand_dataset(&mut rng, 200, 4);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    for _ in 0..15 {
        let q = rand_query(&mut rng, 4);
        assert_equiv(&index.query(&q, 7).unwrap(), &oracle(&data, &roles, &q, 7));
    }
}

#[test]
fn all_repulsive_degenerates_to_ta() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(203);
    let roles = vec![DimRole::Repulsive; 3];
    let data = rand_dataset(&mut rng, 200, 3);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    for _ in 0..15 {
        let q = rand_query(&mut rng, 3);
        assert_equiv(&index.query(&q, 4).unwrap(), &oracle(&data, &roles, &q, 4));
    }
}

#[test]
fn single_dimension_queries() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(204);
    for role in [DimRole::Attractive, DimRole::Repulsive] {
        let data = rand_dataset(&mut rng, 100, 1);
        let index = SdIndex::build(data.clone(), &[role]).unwrap();
        for _ in 0..10 {
            let q = rand_query(&mut rng, 1);
            assert_equiv(&index.query(&q, 3).unwrap(), &oracle(&data, &[role], &q, 3));
        }
    }
}

#[test]
fn zero_weights_on_some_dims() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(206);
    let data = rand_dataset(&mut rng, 120, 4);
    let roles = vec![
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    // Zero out the weights of the first pair entirely (degenerate 2-D
    // subproblem).
    let q = SdQuery::new(vec![0.5; 4], vec![0.0, 0.0, 1.0, 0.7]).unwrap();
    assert_equiv(&index.query(&q, 5).unwrap(), &oracle(&data, &roles, &q, 5));
    for k in [1, 5, 40] {
        for zero in 0..4 {
            let mut weights = vec![1.0, 0.6, 1.0, 0.7];
            weights[zero] = 0.0;
            let q = SdQuery::new(vec![0.4, 0.6, 0.5, 0.5], weights).unwrap();
            assert_equiv(&index.query(&q, k).unwrap(), &oracle(&data, &roles, &q, k));
        }
    }
    // One zero weight on a single pair: the scan bounds the other
    // dimension alone, as it would any query.
    let pair_roles = [DimRole::Repulsive, DimRole::Attractive];
    let pair_data = rand_dataset(&mut rng, 120, 2);
    let pair = SdIndex::build(pair_data.clone(), &pair_roles).unwrap();
    for zero in 0..2 {
        let mut weights = vec![1.0, 0.6];
        weights[zero] = 0.0;
        let q = SdQuery::new(vec![0.4, 0.6], weights).unwrap();
        for k in [1, 5, 40] {
            assert_equiv(
                &pair.query(&q, k).unwrap(),
                &oracle(&pair_data, &pair_roles, &q, k),
            );
        }
        assert!(matches!(
            pair.plan(&q).unwrap(),
            QueryPlan::Scan { chunks: 2, .. }
        ));
    }
    assert_eq!(
        index.plan(&q).unwrap(),
        QueryPlan::Scan {
            chunks: 2,
            levels: 1,
            nodes: 2,
            // Two groups of one chunk: two node boxes, their first ids,
            // two chunks' codes.
            bytes: 2 * (2 * 4 * 4) + 2 * 4 + 2 * 4 * 2,
        }
    );
    // All-zero weights: every score is 0; any k points are valid — check
    // count and zero scores only.
    let q = SdQuery::new(vec![0.5; 4], vec![0.0; 4]).unwrap();
    let got = index.query(&q, 5).unwrap();
    assert_eq!(got.len(), 5);
    assert!(got.iter().all(|s| s.score == 0.0));
}

#[test]
fn validation_errors() {
    let data = Dataset::from_rows(2, &[vec![0.0, 0.0]]).unwrap();
    let roles = vec![DimRole::Attractive, DimRole::Repulsive];
    assert!(SdIndex::build(data.clone(), &[DimRole::Attractive]).is_err());
    let index = SdIndex::build(data, &roles).unwrap();
    let q = SdQuery::new(vec![0.0], vec![1.0]).unwrap();
    assert!(matches!(
        index.query(&q, 1),
        Err(SdError::DimensionMismatch { .. })
    ));
    let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
    assert!(matches!(index.query(&q, 0), Err(SdError::ZeroK)));
}

#[test]
fn empty_dataset_returns_empty() {
    let data = Dataset::from_flat(3, vec![]).unwrap();
    let roles = vec![DimRole::Repulsive, DimRole::Attractive, DimRole::Repulsive];
    let index = SdIndex::build(data, &roles).unwrap();
    let q = SdQuery::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
    assert!(index.query(&q, 5).unwrap().is_empty());
}

#[test]
fn k_exceeding_n() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(207);
    let data = rand_dataset(&mut rng, 7, 3);
    let roles = rand_roles(&mut rng, 3);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = rand_query(&mut rng, 3);
    let got = index.query(&q, 50).unwrap();
    assert_eq!(got.len(), 7);
    assert_equiv(&got, &oracle(&data, &roles, &q, 50));
}

#[test]
fn memory_accounting() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(209);
    let data = rand_dataset(&mut rng, 500, 4);
    let roles = vec![
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data, &roles).unwrap();
    // Ids and first ids of eight chunks, and their tree: under 16 chunks
    // each is a group of its own, a node box and first id each, its codes,
    // and the groups with where each starts.
    let tree = 8 * (4 * 2 * 4 + 4) + 8 * 2 * 4 + 8 * 4 + 9 * 8;
    let order = 4 * 500 + 4 * 8 + tree;
    assert_eq!(index.memory_bytes(), order);
    // A 2-D index of one pair holds the same kind of tree, nothing more.
    let pair = SdIndex::build(rand_dataset(&mut rng, 500, 2), &roles[..2]).unwrap();
    let tree = 8 * (4 * 2 * 2 + 4) + 8 * 2 * 2 + 8 * 4 + 9 * 8;
    assert_eq!(pair.memory_bytes(), 4 * 500 + 4 * 8 + tree);
}

#[test]
fn paper_publisher_example() {
    // §5's worked example: D = {Price}, S = {HitRate, Coverage};
    // Price pairs with HitRate, Coverage stays a 1-D subproblem.
    // Columns: 0 = Price (rep), 1 = HitRate (att), 2 = Coverage (att).
    let data = Dataset::from_rows(
        3,
        &[
            vec![100.0, 40.0, 60.0], // A
            vec![40.0, 35.0, 80.0],  // B
            vec![45.0, 42.0, 68.0],  // C
            vec![90.0, 20.0, 85.0],  // D
        ],
    )
    .unwrap();
    let roles = vec![DimRole::Repulsive, DimRole::Attractive, DimRole::Attractive];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    // A pair and a 1-D subproblem, as any roles: one box scan.
    assert!(matches!(
        index.plan(&SdQuery::uniform_weights(vec![0.0; 3], &roles)),
        Ok(QueryPlan::Scan { .. })
    ));
    let q = SdQuery::new(vec![50.0, 38.0, 75.0], vec![1.0, 1.0, 1.0]).unwrap();
    let got = index.query(&q, 2).unwrap();
    assert_equiv(&got, &oracle(&data, &roles, &q, 2));
}

// ─── the box scan ───────────────────────────────────────────────────────────

fn assert_bit_identical(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len(), "length: got {got:?}\nwant {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "id: got {got:?}\nwant {want:?}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "score bits");
    }
}

/// Rows on a noisy simplex: the coordinates of a row sum to ≈ 1, so a row
/// good on one dimension is bad on the others — hostile to every
/// threshold algorithm.
fn anti_correlated(rng: &mut impl Rng, n: usize, dims: usize) -> Dataset {
    let mut coords = Vec::with_capacity(n * dims);
    for _ in 0..n {
        let raw: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.01..1.0)).collect();
        let sum: f64 = raw.iter().sum();
        coords.extend(raw.iter().map(|v| v / sum));
    }
    Dataset::from_flat(dims, coords).unwrap()
}

fn six_d_roles() -> Vec<DimRole> {
    vec![
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
    ]
}

/// The ids a pre-filled floor's entries carry: no row of a test index has
/// one, and at a tied score every row ranks before them.
const ELSEWHERE: u32 = u32::MAX / 2;

/// `index` as the one shard of a query, under `mask`.
fn part<'a>(index: &'a SdIndex, mask: Option<&'a RowMask>) -> ShardPart<'a> {
    ShardPart { index, mask }
}

/// The rows `floor` ends holding, drained in canonical order, without the
/// entries another part of the query put there ([`floor_at`]).
fn drained(floor: &mut QueryFloor<'_>) -> Vec<ScoredPoint> {
    let mut got = Vec::new();
    floor.drain_into(&mut got);
    got.retain(|sp| sp.id.raw() < ELSEWHERE);
    got
}

/// `index`'s answer to `q` over the rows `mask` leaves live, scoring into
/// `floor`, as an engine shard gives it: the one driver over one part,
/// its profile reset first, as [`SdIndex::query_with`] resets it.
fn answer(
    index: &SdIndex,
    q: &SdQuery,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
    mask: Option<&RowMask>,
) -> Vec<ScoredPoint> {
    scratch.profile.reset();
    answer_parts([part(index, mask)], q, scratch, floor).unwrap();
    drained(floor)
}

/// A floor of `cap` scores already full at `bar`, as `cap` rows of another
/// part of the query scoring `bar` each would leave it.
fn floor_at(heap: &mut BinaryHeap<FloorEntry>, cap: usize, bar: f64) -> QueryFloor<'_> {
    let mut floor = QueryFloor::new(heap, cap);
    for i in 0..cap {
        floor.offer(bar, ELSEWHERE + i as u32);
    }
    floor
}

/// How the chunks of one box scan ended ([`assert_scan_scored`]).
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    scored: u64,
    /// Skipped with a bound strictly under the answer's k-th score.
    below: u64,
    /// Skipped with a bound equal to it, every id above its worst.
    tied: u64,
}

/// What the box scan of one part over `index` must have scored, recounted
/// from the chunks it visited (`scratch.scan.scanned`) against `want`,
/// the part's final floor (`(score, id)` of its worst entry, when full): no
/// chunk twice; every chunk that can change that floor — the tightest bound
/// the tree holds for it above its score, or equal with its first id below
/// its id — visited (the floor
/// never stood higher, so none can have been skipped); and the counters
/// over the visited chunks, dead rows (`dead`, by id) included. Returns how
/// the chunks ended.
fn assert_scan_scored(
    index: &SdIndex,
    q: &SdQuery,
    scratch: &QueryScratch,
    worst: Option<(f64, u32)>,
    dead: &dyn Fn(u32) -> bool,
) -> Outcomes {
    let tree = &index.tree;
    let n = index.data.len();
    let p = &scratch.profile;
    let at = boxes::BoxQuery {
        roles: &index.roles,
        q: &q.point,
        w: &q.weights,
    };
    let bounds = tree.every_chunk_bound(&at);
    let mut visited = vec![false; bounds.len()];
    for &c in &scratch.scan.scanned {
        assert!(!std::mem::replace(&mut visited[c], true), "chunk {c} twice");
    }
    let mut out = Outcomes::default();
    for (c, &bound) in bounds.iter().enumerate() {
        let first = index.firsts[c];
        let reaches = worst.is_none_or(|(s, id)| bound > s || (bound == s && first < id));
        assert!(
            visited[c] || !reaches,
            "chunk {c} ({bound}, first {first}) unscored under {worst:?}"
        );
        match (visited[c], worst) {
            (true, _) => out.scored += 1,
            (false, Some((s, _))) if bound == s => out.tied += 1,
            (false, _) => out.below += 1,
        }
    }
    let rows = (0..n).filter(|&pos| visited[pos / CHUNK_ROWS]);
    let scanned = rows.clone().count() as u64;
    let dead_rows = rows.filter(|&pos| dead(index.ids[pos])).count() as u64;
    assert_eq!(p.parts_scanned, 1);
    assert_eq!(
        (p.chunks_scored, p.chunks_skipped),
        (out.scored, out.below + out.tied)
    );
    assert_eq!(
        (p.scan_rows, p.rows_fetched),
        (scanned, scanned),
        "the scan's rows"
    );
    assert_eq!(p.tombstones_skipped, dead_rows);
    assert_eq!(p.points_gathered, scanned - dead_rows);
    let pieces = (0..bounds.len())
        .filter(|&c| visited[c])
        .map(|c| ((c + 1) * CHUNK_ROWS).min(n) - c * CHUNK_ROWS)
        .map(|rows| rows.div_ceil(LANES) as u64);
    assert_eq!(p.kernel_batches, pieces.sum::<u64>());
    assert_eq!((p.rounds, p.seen_hits, p.blocks_popped), (0, 0, 0));
    out
}

#[test]
fn executions_answer_the_oracle_under_a_pre_filled_floor() {
    // A box scan, 4-D and 2-D, scoring into a floor another part of the
    // query filled below the k-th answer, leaves the oracle's top k in it,
    // and none of that part's entries.
    let mut rng = rand::rngs::StdRng::seed_from_u64(309);
    let k = 16;
    for dims in [4, 2] {
        let data = rand_dataset(&mut rng, 5_000, dims);
        let roles = [
            DimRole::Attractive,
            DimRole::Repulsive,
            DimRole::Repulsive,
            DimRole::Attractive,
        ];
        let roles = &roles[..dims];
        let index = SdIndex::build(data.clone(), roles).unwrap();
        let mut scratch = QueryScratch::new();
        for _ in 0..4 {
            let q = rand_query(&mut rng, dims);
            let want = oracle(&data, roles, &q, 2 * k);
            let mut heap = BinaryHeap::new();
            let mut floor = floor_at(&mut heap, k, want[2 * k - 1].score);
            let got = answer(&index, &q, &mut scratch, &mut floor, None);
            assert_bit_identical(&got, &want[..k]);
        }
    }
}

/// A 2-D index of one pair refuses a query of another dimensionality, in
/// its plan and its answer alike, and scans one of its own.
#[test]
fn a_pair_index_refuses_a_query_of_another_dimensionality() {
    let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0], vec![7.0, 8.5]]).unwrap();
    let index = SdIndex::build(data, &[DimRole::Attractive, DimRole::Repulsive]).unwrap();
    for dims in [1, 3] {
        let q = SdQuery::new(vec![1.0; dims], vec![1.0; dims]).unwrap();
        let wrong = SdError::DimensionMismatch {
            expected: 2,
            got: dims,
        };
        assert_eq!(index.plan(&q), Err(wrong.clone()), "{dims}-D query");
        assert_eq!(index.query(&q, 1), Err(wrong), "{dims}-D query");
    }
    let q = SdQuery::new(vec![1.0; 2], vec![1.0; 2]).unwrap();
    assert!(matches!(
        index.plan(&q),
        Ok(QueryPlan::Scan { chunks: 1, .. })
    ));
    assert_eq!(index.query(&q, 1).unwrap()[0].id.index(), 0);
}

#[test]
fn scan_exit_handles_tombstones_large_k_and_zero_weights() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(301);
    let n = 400;
    let data = anti_correlated(&mut rng, n, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let mut dead = RowMask::new(n);
    for row in (0..n).step_by(7) {
        dead.set(row);
    }
    let is_dead = |id: u32| dead.get(id as usize);
    let live_oracle = |q: &SdQuery, k: usize| -> Vec<ScoredPoint> {
        let mut all = oracle(&data, &roles, q, n);
        all.retain(|sp| !dead.get(sp.id.index()));
        all.truncate(k);
        all
    };
    let mut scratch = QueryScratch::new();
    let q = SdQuery::new(vec![0.3; 6], vec![1.0; 6]).unwrap();
    // k below, at and above the live row count (343 of 400).
    let mut heap = BinaryHeap::new();
    for k in [8, 343, 344, n + 3] {
        let mut floor = QueryFloor::new(&mut heap, k.min(343));
        let mask = Some(&dead);
        scratch.profile.reset();
        answer_parts([part(&index, mask)], &q, &mut scratch, &mut floor).unwrap();
        let worst = floor.worst();
        let got = drained(&mut floor);
        assert_bit_identical(&got, &live_oracle(&q, k));
        assert_scan_scored(&index, &q, &scratch, worst, &is_dead);
        assert!(
            scratch.profile.tombstones_skipped > 0,
            "the scan met dead rows"
        );
    }
    // All-zero weights: every chunk is bounded at 0 and every live row
    // scores 0, so the canonical answer is the first k live rows. The scan
    // takes the chunks by smallest id; once the floor holds five, a chunk
    // whose ids all lie above its worst ties it and is skipped (the median
    // split scatters small ids over most chunks of so few rows).
    let zero = SdQuery::new(vec![0.3; 6], vec![0.0; 6]).unwrap();
    let mut floor = QueryFloor::new(&mut heap, 5);
    let mask = Some(&dead);
    scratch.profile.reset();
    answer_parts([part(&index, mask)], &zero, &mut scratch, &mut floor).unwrap();
    let worst = floor.worst();
    let got = drained(&mut floor);
    let ids: Vec<usize> = got.iter().map(|sp| sp.id.index()).collect();
    assert_eq!(ids, [1, 2, 3, 4, 5]);
    assert!(got.iter().all(|sp| sp.score == 0.0));
    let out = assert_scan_scored(&index, &zero, &scratch, worst, &is_dead);
    assert_eq!(out.below, 0, "{out:?}");
    assert!(out.tied > 0, "{out:?}");
}

/// The tie-aware skip at one chunk size: 256 copies of one row in 2-D
/// `[a, a]` (no pair: a scan) are four chunks whose bound equals every
/// row's score. Ties go by id, so the answer is ids 0..k, and once the
/// floor holds them every chunk whose ids all lie above its worst is
/// skipped unread.
#[test]
fn a_chunk_tied_with_the_floor_is_skipped_above_its_worst_id() {
    let rows = vec![vec![0.25, -0.5]; 256];
    let data = Dataset::from_rows(2, &rows).unwrap();
    let roles = [DimRole::Attractive, DimRole::Attractive];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.0, 0.0], vec![1.0, 2.0]).unwrap();
    let mut scratch = QueryScratch::new();
    for k in [1, 16, 64, 65, 200] {
        let want = oracle(&data, &roles, &q, k);
        let got = index.query_with(&q, k, &mut scratch).unwrap();
        assert_bit_identical(got, &want);
        let p = scratch.profile;
        // The chunks that hold ids below k, and no other.
        let holding = index
            .firsts
            .iter()
            .filter(|&&first| (first as usize) < k)
            .count() as u64;
        assert_eq!(
            (p.chunks_scored, p.chunks_skipped),
            (holding, 4 - holding),
            "k = {k}"
        );
    }
    // Under a floor already full at that score with smaller ids, nothing
    // of a part whose ids all lie above them is read.
    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, 4);
    for id in 0..4 {
        floor.offer(-1.25, id);
    }
    let shifted = Dataset::from_rows(2, &vec![vec![0.25, -0.5]; 260]).unwrap();
    let above = SdIndex::build_cell(&shifted, &roles, &Cell::of(4..260)).unwrap();
    let far = part(&above, None);
    scratch.profile.reset();
    answer_parts([far], &q, &mut scratch, &mut floor).unwrap();
    let p = scratch.profile;
    assert_eq!((p.chunks_scored, p.chunks_skipped, p.scan_rows), (0, 4, 0));
}

#[test]
fn scan_drops_seen_and_dead_rows_that_reach_the_floor() {
    // 99 rows — one full chunk and a 35-row one — in 4-D, scored
    // `y1 − x0 + y3 − x2` from the origin. Six stars (x = 0, y ≥ 10) lead;
    // one of them and four more rows at 4.5, just above three live rows at
    // 3.4 to 3.6, are dead. The floor is filled at the answer's 8th score,
    // so the scan's kernel passes every star and every dead row, and only
    // the tombstones keep the dead ones out. Both chunks reach the floor,
    // so the lead scores them; the sweeps after it meet the stars' chunks
    // again, bounds still above the floor, and must pass the rows the lead
    // has seen by — a star offered twice would sit in the floor twice.
    // (Rows are named by id; the index keeps them in box order, and the
    // recount goes through its id column.)
    let n = 99;
    let stars = [0, 31, 32, 50, 63, 97];
    let dead_star = 50;
    let dead_rows = [64, 95, 96, 98];
    let near = [65, 80, 94];
    let mut rng = rand::rngs::StdRng::seed_from_u64(308);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let (x0, x2) = (rng.gen_range(1.0..2.0), rng.gen_range(1.0..2.0));
            vec![x0, rng.gen_range(0.0..1.0), x2, rng.gen_range(0.0..1.0)]
        })
        .collect();
    for (i, &r) in stars.iter().enumerate() {
        let y = 10.0 + i as f64;
        rows[r] = if i % 2 == 0 {
            vec![0.0, y, 0.0, 0.0]
        } else {
            vec![0.0, 0.0, 0.0, y]
        };
    }
    for &r in &dead_rows {
        rows[r] = vec![0.5, 5.0, 0.0, 0.0];
    }
    for (i, &r) in near.iter().enumerate() {
        rows[r] = vec![0.6, 4.0 + 0.1 * i as f64, 0.0, 0.0];
    }
    let data = Dataset::from_rows(4, &rows).unwrap();
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.0; 4], vec![1.0; 4]).unwrap();
    let k = 8;
    let mut dead = RowMask::new(n);
    for &r in dead_rows.iter().chain([&dead_star]) {
        dead.set(r);
    }
    let mut want = oracle(&data, &roles, &q, n);
    want.retain(|sp| !dead.get(sp.id.index()));
    want.truncate(k);
    let mut heap = BinaryHeap::new();
    let mut floor = floor_at(&mut heap, k, want[k - 1].score);
    let mut scratch = QueryScratch::new();
    let mask = Some(&dead);
    scratch.profile.reset();
    answer_parts([part(&index, mask)], &q, &mut scratch, &mut floor).unwrap();
    let worst = floor.worst();
    assert_bit_identical(&drained(&mut floor), &want);
    let out = assert_scan_scored(&index, &q, &scratch, worst, &|id| dead.get(id as usize));
    assert!(out.scored > 0);
    let p = scratch.profile;
    assert!(p.tombstones_skipped >= dead_rows.len() as u64, "{p:?}");
    // Every chunk in the lead, each read once ([`assert_scan_scored`]).
    assert_eq!(index.data.len().div_ceil(CHUNK_ROWS), 2);
    const { assert!(LEAD_CHUNKS >= 2) };
    // Scored: the five live stars and the three near rows, each once; no
    // dead one.
    assert_eq!(p.points_scored, 8);
}

/// After the lead has seen every row, the sweeps score nothing. The rows
/// of the old two-pair probe — every row scores 10 but row 0, whose
/// `x0 = 100` sinks it to −90 — at `k = n`, so the floor fills only with
/// the last row: every chunk reaches it to the end. At [`LEAD_CHUNKS`]
/// chunks the lead takes them all and the sweeps, which meet every chunk
/// again, read none; with more chunks the sweeps read exactly the ones the
/// lead left. Either way each row is offered once.
#[test]
fn scan_after_every_row_was_seen_scores_nothing() {
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let q = SdQuery::new(vec![0.0; 4], vec![1.0; 4]).unwrap();
    let mut scratch = QueryScratch::new();
    for n in [LEAD_CHUNKS * CHUNK_ROWS, (LEAD_CHUNKS + 2) * CHUNK_ROWS + 5] {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|r| match r {
                0 => vec![100.0, 10.0, 0.0, 0.0],
                r if r % 2 == 0 => vec![0.0, 10.0, 0.0, 0.0],
                _ => vec![0.0, 0.0, 0.0, 10.0],
            })
            .collect();
        let data = Dataset::from_rows(4, &rows).unwrap();
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        let chunks = n.div_ceil(CHUNK_ROWS);
        let got = index.query_with(&q, n, &mut scratch).unwrap();
        assert_bit_identical(got, &oracle(&data, &roles, &q, n));
        let p = scratch.profile;
        assert_eq!((p.chunks_scored, p.chunks_skipped), (chunks as u64, 0));
        assert_eq!((p.scan_rows, p.points_scored), (n as u64, n as u64));
        let scanned = &scratch.scan.scanned;
        assert_eq!(scanned.len(), chunks, "no chunk read twice");
        // The lead's chunks come first; the sweeps read only the rest.
        let mut swept = scanned[LEAD_CHUNKS..].to_vec();
        swept.sort_unstable();
        swept.dedup();
        assert_eq!(swept.len(), chunks - LEAD_CHUNKS, "n = {n}");
    }
}

/// Every aggregation now starts where a query that started lost once did:
/// in the scan, at its first step, with no stream fetched first — no round,
/// no block popped, every row it reads read by the scan. And under a floor
/// above every row (`k` rows elsewhere beat them all) it ends there with
/// nothing read: every chunk is bounded under it.
#[test]
fn a_query_that_started_lost_scans_at_its_first_round_head() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(308);
    let n = 16_000;
    let data = anti_correlated(&mut rng, n, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.2; 6], vec![1.0, 0.8, 0.6, 0.9, 0.7, 1.0]).unwrap();
    let k = 16;
    let want = oracle(&data, &roles, &q, k);
    let mut scratch = QueryScratch::new();

    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, k);
    scratch.profile.reset();
    answer_parts([part(&index, None)], &q, &mut scratch, &mut floor).unwrap();
    let worst = floor.worst();
    assert_bit_identical(&drained(&mut floor), &want);
    let p = scratch.profile;
    assert_eq!((p.rounds, p.blocks_popped, p.nodes_visited), (0, 0, 0));
    assert_eq!(p.rows_fetched, p.scan_rows, "nothing came through a stream");
    assert!(0 < p.scan_rows && p.scan_rows < n as u64, "{p:?}");
    assert_scan_scored(&index, &q, &scratch, worst, &|_| false);

    let chunks = n.div_ceil(CHUNK_ROWS) as u64;
    let mut floor = floor_at(&mut heap, k, want[0].score + 1.0);
    let got = answer(&index, &q, &mut scratch, &mut floor, None);
    assert!(got.is_empty());
    let p = scratch.profile;
    assert_eq!((p.chunks_scored, p.chunks_skipped), (0, chunks));
    assert_eq!((p.scan_rows, p.rows_fetched, p.points_scored), (0, 0, 0));
}

/// What a part inherits from a sibling is the floor, and nothing else. A
/// part scanned under the floor a sibling shard leaves — the k-th best
/// score of the two shards together, so that fewer than `k` of the answers
/// are this part's — answers exactly its share of the top k, reads every
/// chunk that can still change that floor and no chunk more than it reads
/// alone: the chunks the sibling's floor certifies are simply skipped.
#[test]
fn a_certified_execution_ignores_the_inherited_verdict() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(307);
    let data = rand_dataset(&mut rng, 25_000, 4);
    let sibling = rand_dataset(&mut rng, 25_000, 4);
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let mut scratch = QueryScratch::new();
    let mut heap = BinaryHeap::new();
    let (mut short, mut spared) = (0, 0);
    for _ in 0..8 {
        let q = SdQuery::new(
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let k = 16;
        let own = oracle(&data, &roles, &q, k);
        let mut both: Vec<f64> = own.iter().map(|sp| sp.score).collect();
        both.extend(oracle(&sibling, &roles, &q, k).iter().map(|sp| sp.score));
        both.sort_by(|a, b| b.total_cmp(a));

        let mut floor = QueryFloor::new(&mut heap, k);
        scratch.profile.reset();
        answer_parts([part(&index, None)], &q, &mut scratch, &mut floor).unwrap();
        let worst = floor.worst();
        assert_bit_identical(&drained(&mut floor), &own);
        assert_scan_scored(&index, &q, &scratch, worst, &|_| false);
        let alone = scratch.profile;

        let mut want = own.clone();
        want.retain(|sp| sp.score >= both[k - 1]);
        let mut floor = floor_at(&mut heap, k, both[k - 1]);
        scratch.profile.reset();
        answer_parts([part(&index, None)], &q, &mut scratch, &mut floor).unwrap();
        let worst = floor.worst();
        assert_bit_identical(&drained(&mut floor), &want);
        assert_scan_scored(&index, &q, &scratch, worst, &|_| false);
        let inherited = scratch.profile;
        assert!(
            inherited.chunks_scored <= alone.chunks_scored,
            "{inherited:?}\n{alone:?}"
        );
        short += usize::from(want.len() < k);
        spared += alone.chunks_scored - inherited.chunks_scored;
    }
    assert!(short > 0, "no sibling held most of the top k");
    assert!(spared > 0, "the sibling's floor certified no chunk");
}

/// The false-positive pin of the scan, on the anchor's shape — uniform 4-D,
/// k = 16, one 25 000-row shard: friendly queries stay cheap. Each reads
/// under an eighth of its rows, answers like the oracle, and repeats its
/// profile counter for counter.
#[test]
fn probe_leaves_friendly_queries_alone() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(305);
    let n = 25_000;
    let data = rand_dataset(&mut rng, n, 4);
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let mut scratch = QueryScratch::new();
    for _ in 0..32 {
        let q = SdQuery::new(
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let got = index.query_with(&q, 16, &mut scratch).unwrap().to_vec();
        assert_bit_identical(&got, &oracle(&data, &roles, &q, 16));
        let first = scratch.profile;
        assert!(first.scan_rows < n as u64 / 8, "{first:?}");
        index.query_with(&q, 16, &mut scratch).unwrap();
        assert_eq!(scratch.profile, first);
    }
}

// ─── every way a chunk leaves the one scan, forced in turn ──────────────────

/// One dataset of the sweep below, by kind: uniform, anti-correlated, a
/// handful of distinct rows repeated, one constant column, ±0 coordinates.
fn sweep_dataset(rng: &mut impl Rng, kind: usize, n: usize, dims: usize) -> Dataset {
    match kind {
        0 => rand_dataset(rng, n, dims),
        1 => anti_correlated(rng, n, dims),
        2 => {
            let distinct = rand_dataset(rng, (n / 8).max(1), dims);
            let coords = distinct.flat().iter().copied().cycle().take(n * dims);
            Dataset::from_flat(dims, coords.collect()).unwrap()
        }
        3 => {
            let mut coords: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(0.0..1.0)).collect();
            for row in coords.chunks_exact_mut(dims) {
                row[0] = 0.5;
            }
            Dataset::from_flat(dims, coords).unwrap()
        }
        _ => {
            let coords = (0..n * dims)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            Dataset::from_flat(dims, coords).unwrap()
        }
    }
}

/// Every way a chunk leaves the box scan — scored, skipped under the floor,
/// skipped at a tie above the floor's worst id — over uniform, hostile,
/// repeated, constant and ±0 rows, zero weights, tombstones, `k` from 1 to
/// past `n`, and a floor another part of the query pre-filled or not: the
/// answer is the oracle's bit for bit, and the counters recount exactly.
#[test]
fn every_exit_forced_at_the_one_constructor() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(303);
    let mut scratch = QueryScratch::new();
    let mut total = Outcomes::default();
    for case in 0..60 {
        let n = rng.gen_range(1..=600);
        let dims = rng.gen_range(2..=6);
        let data = sweep_dataset(&mut rng, case % 5, n, dims);
        let mut roles = rand_roles(&mut rng, dims);
        if roles.len() == 2 && roles[0] != roles[1] {
            roles[1] = roles[0]; // a single pair walks; this sweep scans
        }
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        let weights: Vec<f64> = (0..dims)
            .map(|_| match (case % 7, rng.gen_range(0..4)) {
                (0, _) | (_, 0) => 0.0,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        let point = (0..dims)
            .map(|_| {
                if case % 5 == 4 {
                    -0.0
                } else {
                    rng.gen_range(-0.2..1.2)
                }
            })
            .collect();
        let q = SdQuery::new(point, weights).unwrap();
        let dead = if case % 2 == 1 {
            rand_dead(&mut rng, n)
        } else {
            RowMask::new(n)
        };
        let mask = (case % 2 == 1).then_some(&dead);
        let mut live = oracle(&data, &roles, &q, n);
        live.retain(|sp| !dead.get(sp.id.index()));
        for k in [1, n.saturating_sub(1).max(1), n, n + 3] {
            let want = &live[..k.min(live.len())];
            for prefilled in [false, true] {
                let mut heap = BinaryHeap::new();
                let mut floor = match want.last() {
                    Some(last) if prefilled => floor_at(&mut heap, want.len(), last.score),
                    _ => QueryFloor::new(&mut heap, want.len()),
                };
                scratch.profile.reset();
                answer_parts([part(&index, mask)], &q, &mut scratch, &mut floor).unwrap();
                let worst = floor.worst();
                assert_bit_identical(&drained(&mut floor), want);
                let out =
                    assert_scan_scored(&index, &q, &scratch, worst, &|id| dead.get(id as usize));
                total.scored += out.scored;
                total.below += out.below;
                total.tied += out.tied;
            }
        }
    }
    assert!(
        total.scored > 0 && total.below > 0 && total.tied > 0,
        "every way out of the scan must occur: {total:?}"
    );
}

// ─── the leaf layout is a bulk-load choice, not a contract ──────────────────

/// A mask with each row dead at probability 1/8.
fn rand_dead(rng: &mut impl Rng, n: usize) -> RowMask {
    let mut dead = RowMask::new(n);
    for row in 0..n {
        if rng.gen_range(0..8) == 0 {
            dead.set(row);
        }
    }
    dead
}

/// `index` with its rows stored in a random permutation, and so dealt into
/// chunks by it — no split, no order at all — under the box tree the build
/// makes over whatever rows it is handed: every box a true min/max over
/// its rows. A file written by a build that ordered its rows some other way
/// is one of these.
fn dealt_at_random(index: &SdIndex, rng: &mut impl Rng) -> SdIndex {
    let (n, dims) = (index.data.len(), index.data.dims());
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let rows = gather(&index.data, &order);
    let ids: Vec<u32> = order.iter().map(|&p| index.ids[p as usize]).collect();
    let firsts = boxes::chunk_firsts(&ids);
    let mut dealt = index.clone();
    dealt.tree = BoxTree::build(&rows, dims, &firsts, &Cell::of(0..n as u32));
    dealt.data = Arc::new(Dataset::from_flat(dims, rows).unwrap());
    dealt.firsts = ColumnarView::owned(firsts);
    dealt.ids = ColumnarView::owned(ids);
    dealt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every bound is a true min/max over the chunk's rows, so the answer
    // cannot depend on which rows share a chunk: box-ordered and dealt at
    // random agree bit for bit — at two dimensions as at any other, dead
    // rows or not.
    #[test]
    fn any_order_is_an_index(
        seed in 0u64..1 << 48,
        n in 1usize..1200,
        dims in prop_oneof![Just(2usize), Just(4), Just(5)],
        kind in 0usize..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = sweep_dataset(&mut rng, kind, n, dims);
        let roles: Vec<DimRole> = match dims {
            2 => vec![DimRole::Attractive, DimRole::Repulsive],
            _ => rand_roles(&mut rng, dims),
        };
        let tiled = SdIndex::build(data.clone(), &roles).unwrap();
        let dealt = dealt_at_random(&tiled, &mut rng);
        prop_assert!(dealt.tree.check_firsts(&dealt.firsts).is_ok());
        let dead = rand_dead(&mut rng, n);
        let mut scratch = QueryScratch::new();
        for _ in 0..4 {
            let q = rand_query(&mut rng, dims);
            let all = oracle(&data, &roles, &q, n);
            for masked in [false, true] {
                let mask = masked.then_some(&dead);
                let mut want = all.clone();
                want.retain(|sp| !(masked && dead.get(sp.id.index())));
                for k in [1, 16, n] {
                    let want = &want[..k.min(want.len())];
                    for index in [&tiled, &dealt] {
                        let mut heap = BinaryHeap::new();
                        let mut floor = QueryFloor::new(&mut heap, want.len());
                        let got = answer(index, &q, &mut scratch, &mut floor, mask);
                        assert_bit_identical(&got, want);
                    }
                }
            }
        }
    }
}

/// The roles pick no layout: every index — a 2-D one of one attractive and
/// one repulsive dimension too — keeps its rows in box order under their
/// box tree, an id a row and a first id a chunk, built and decoded alike;
/// and the same rows under other roles are stored in the same order.
#[test]
fn the_roles_alone_pick_the_layout() {
    use crate::codec::{decode_from_slice, encode_to_vec};
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    for spec in ["a", "r", "ar", "ra", "aa", "rr", "arr", "rar", "arra"] {
        let roles: Vec<DimRole> = spec
            .chars()
            .map(|c| match c {
                'r' => DimRole::Repulsive,
                _ => DimRole::Attractive,
            })
            .collect();
        let data = rand_dataset(&mut rng, 150, roles.len());
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        let flipped: Vec<DimRole> = roles
            .iter()
            .map(|r| match r {
                DimRole::Attractive => DimRole::Repulsive,
                DimRole::Repulsive => DimRole::Attractive,
            })
            .collect();
        let other = SdIndex::build(data, &flipped).unwrap();
        assert_eq!(other.row_ids(), index.row_ids(), "{spec}");
        let back: SdIndex = decode_from_slice(&encode_to_vec(&index)).unwrap();
        for index in [&index, &back] {
            assert_eq!(index.tree.groups, [1, 1, 1], "{spec}");
            assert!(index.tree.check_firsts(&index.firsts).is_ok(), "{spec}");
            let mut ids = index.row_ids().to_vec();
            ids.sort_unstable();
            assert!(ids.into_iter().eq(0..150), "{spec}");
            assert_eq!(index.firsts.len(), 3, "{spec}");
        }
    }
}

/// The cells of one split, each built alone, are the box order of all the
/// rows cut at chunk boundaries: concatenated in cell order, their rows,
/// ids, chunk codes and first ids are `SdIndex::build`'s, and so are their
/// trees' groups and stored nodes — at any cell count up to 16, over
/// scattered rows, exact duplicates and short last chunks.
#[test]
fn cells_concatenate_to_the_whole_box_order() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCE1);
    for (n, dims) in [(1, 3), (64, 2), (65, 4), (700, 6), (4_097, 3), (3_000, 1)] {
        let mut data = rand_dataset(&mut rng, n, dims);
        if n == 700 {
            // Every row one of five: ties go by id in every cut.
            let flat: Vec<f64> = (0..n)
                .flat_map(|i| data.point(crate::PointId::new((i % 5) as u32)).to_vec())
                .collect();
            data = Dataset::from_flat(dims, flat).unwrap();
        }
        let roles = vec![DimRole::Attractive; dims];
        let whole = SdIndex::build(data.clone(), &roles).unwrap();
        let tree_of = |index: &SdIndex| index.tree.clone();
        let want = tree_of(&whole);
        for count in [1, 2, 3, 4, 5, 8] {
            let cells = cells(&data, count);
            assert_eq!(cells.len(), count.min(n.div_ceil(CHUNK_ROWS)), "n {n}");
            let built: Vec<SdIndex> = cells
                .iter()
                .map(|cell| SdIndex::build_cell(&data, &roles, cell))
                .collect::<Result<_, _>>()
                .unwrap();
            let ctx = format!("n {n} dims {dims} cells {count}");
            let flat: Vec<f64> = built.iter().flat_map(|i| i.data.flat().to_vec()).collect();
            assert_eq!(flat, whole.data.flat(), "{ctx}: rows");
            let ids: Vec<u32> = built.iter().flat_map(|i| i.ids.to_vec()).collect();
            assert_eq!(ids, &whole.ids[..], "{ctx}: ids");
            let firsts: Vec<u32> = built.iter().flat_map(|i| i.firsts.to_vec()).collect();
            assert_eq!(firsts, &whole.firsts[..], "{ctx}: firsts");
            // The trees: every cell's groups, node boxes and node first ids
            // in order are the whole's (a cell of up to 16 is whole groups),
            // and so are its chunk codes per dimension, every cell's lows
            // then highs.
            let trees: Vec<BoxTree> = built.iter().map(tree_of).collect();
            let groups: Vec<u32> = trees.iter().flat_map(|t| t.groups.clone()).collect();
            assert_eq!(groups, want.groups, "{ctx}: groups");
            let boxes: Vec<f32> = trees.iter().flat_map(|t| t.boxes.to_vec()).collect();
            assert_eq!(boxes, &want.boxes[..], "{ctx}: node boxes");
            let firsts: Vec<u32> = trees.iter().flat_map(|t| t.firsts.to_vec()).collect();
            assert_eq!(firsts, &want.firsts[..], "{ctx}: node first ids");
            let (all, mut at) = (whole.firsts.len(), 0);
            for (index, tree) in built.iter().zip(&trees) {
                let c = index.firsts.len();
                assert!(index.data.len() % CHUNK_ROWS == 0 || at + c == all, "{ctx}");
                for d in 0..2 * dims {
                    assert_eq!(
                        &tree.codes[d * c..(d + 1) * c],
                        &want.codes[d * all + at..d * all + at + c],
                        "{ctx}: codes"
                    );
                }
                at += c;
            }
            assert_eq!(at, all, "{ctx}");
            // The ids name every row once across the cells.
            assert!(id_census(&built, n).is_ok(), "{ctx}");
        }
    }
}

/// A group of more than [`FLAT`] chunks is the one node a walk splits
/// rather than bounding its chunks: its 16 children are stored, bounded as
/// the descent and the sweep meet them, and every run of chunk bounds the
/// query takes is one child's. One index of 300 000 2-D rows (more than
/// 16 · 256 chunks) is 16 groups of 293 chunks under 272 stored nodes; one
/// of 100 000 stores its 16 groups' top nodes alone.
#[test]
fn a_group_over_flat_chunks_descends_through_its_stored_children() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1A7);
    let roles = [DimRole::Attractive, DimRole::Repulsive];
    let small = SdIndex::build(rand_dataset(&mut rng, 100_000, 2), &roles).unwrap();
    assert_eq!(small.tree_stats().0, 16);
    assert_eq!(small.tree_stats().1, 1);
    let n = 300_000;
    let data = rand_dataset(&mut rng, n, 2);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    assert_eq!(index.tree.groups, [293; 16]);
    let (nodes, levels, _) = index.tree_stats();
    assert_eq!((nodes, levels), (16 + 256, 2));
    assert!(index.tree.check_firsts(&index.firsts).is_ok());
    let mapped = mapped_copy(&index);
    let mut scratch = QueryScratch::new();
    for _ in 0..4 {
        let q = rand_query(&mut rng, 2);
        let want = oracle(&data, &roles, &q, 16);
        for index in [&index, &mapped] {
            let got = index.query_with(&q, 16, &mut scratch).unwrap().to_vec();
            assert_bit_identical(&got, &want);
            let spans = &scratch.scan.spans;
            assert!(!spans.is_empty());
            assert!(spans.iter().all(|s| s.end - s.start <= 19), "{spans:?}");
            // The groups, twice, and at least one group's children.
            assert!(scratch.profile.boxes_bounded >= 2 * 16 + 16);
        }
    }
}

/// The engine-wide checks of the shards' ids: a repeat and an id past
/// the rows are named with their shard and position by the census; the
/// range check a mapped engine runs first names only the second.
#[test]
fn the_id_census_spans_every_cell() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCE2);
    let data = rand_dataset(&mut rng, 300, 3);
    let roles = vec![DimRole::Repulsive; 3];
    let mut built: Vec<SdIndex> = cells(&data, 3)
        .iter()
        .map(|cell| SdIndex::build_cell(&data, &roles, cell).unwrap())
        .collect();
    assert!(id_census(&built, 300).is_ok() && ids_in_range(&built, 300).is_ok());
    // One row short of the id space: the last id is out of range.
    assert!(id_census(&built, 299).is_err() && ids_in_range(&built, 299).is_err());
    let repeat = built[0].ids[5];
    let mut ids = built[2].ids.to_vec();
    ids[7] = repeat;
    built[2].ids = ColumnarView::owned(ids.clone());
    let detail = |e: SdError| match e {
        SdError::SnapshotCorrupt { detail } => detail,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        detail(id_census(&built, 300).unwrap_err()),
        format!("shard 2 position 7: row id {repeat} repeated for 300 rows")
    );
    assert!(ids_in_range(&built, 300).is_ok(), "a repeat is in range");
    // A cell alone sees a repeat within its own ids.
    assert!(built[2].rows_by_id().is_ok());
    ids[8] = ids[7];
    built[2].ids = ColumnarView::owned(ids);
    assert!(detail(built[2].rows_by_id().unwrap_err()).contains("repeated"));
}

/// `index` decoded from its bytes the way an `open_mapped` leaves it: every
/// array region a view of one aligned buffer, its checksum deferred to the
/// first query.
fn mapped_copy(index: &SdIndex) -> SdIndex {
    use crate::codec::{encode_to_vec, Codec, Reader};
    let bytes = std::sync::Arc::new(crate::view::AlignedBytes::copy_from(&encode_to_vec(index)));
    // SAFETY: `bytes` owns the 64-byte-aligned, never-again-written buffer
    // and is the keepalive every view holds.
    let mut reader = unsafe { Reader::new_mapped(bytes.as_slice(), bytes.clone(), true, "", 0) };
    let mapped = SdIndex::decode(&mut reader).unwrap();
    assert!(mapped.is_mapped());
    mapped
}

/// The paper's Claims 4–6 as a test of the walk: the order a box scan
/// visits the tree in can change what it costs, never what it answers. The
/// lead is forced to no chunk (the sweep does everything), one chunk,
/// [`LEAD_CHUNKS`] and every chunk (best first to the end), and under each
/// the answer is the sequential scan's bit for bit, built and mapped — on
/// ties, `±0`, duplicate rows, `k ≥ n` and all-zero weights.
#[test]
fn the_walk_order_never_changes_an_answer() {
    struct Lead(Option<usize>);
    impl Drop for Lead {
        fn drop(&mut self) {
            LEAD_OVERRIDE.with(|l| l.set(self.0));
        }
    }
    let _restore = Lead(LEAD_OVERRIDE.with(std::cell::Cell::get));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0D5);
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let n: usize = 3_000;
    // Coordinates on a grid of five values, `±0` among them: many ties.
    let grid = [-0.0, 0.0, 0.25, 0.5, 1.0];
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..4).map(|_| grid[rng.gen_range(0..grid.len())]).collect())
        .collect();
    // And a block of exact duplicates, the first row 400 times over.
    for i in 1000..1400 {
        rows[i] = rows[0].clone();
    }
    let data = Dataset::from_rows(4, &rows).unwrap();
    let built = SdIndex::build(data.clone(), &roles).unwrap();
    let mapped = mapped_copy(&built);
    let chunks = n.div_ceil(CHUNK_ROWS);
    let queries = [
        SdQuery::new(vec![0.5; 4], vec![1.0; 4]).unwrap(),
        SdQuery::new(vec![-0.0, 0.0, -0.0, 0.0], vec![1.0, 2.0, 0.5, 1.0]).unwrap(),
        SdQuery::new(vec![0.25; 4], vec![0.0, 1.0, 0.0, 3.0]).unwrap(),
        SdQuery::new(vec![0.3; 4], vec![0.0; 4]).unwrap(),
        rand_query(&mut rng, 4),
    ];
    let mut scratch = QueryScratch::new();
    for lead in [0, 1, LEAD_CHUNKS, usize::MAX] {
        LEAD_OVERRIDE.with(|l| l.set(Some(lead)));
        for q in &queries {
            for k in [1, 16, 64, 700, n, n + 5] {
                let want = oracle(&data, &roles, q, k);
                for (mode, index) in [("built", &built), ("mapped", &mapped)] {
                    let got = index.query_with(q, k, &mut scratch).unwrap();
                    assert_bit_identical(got, &want);
                    let p = scratch.profile;
                    assert_eq!(
                        p.chunks_scored + p.chunks_skipped,
                        chunks as u64,
                        "{mode}, lead {lead}, k {k}, {q:?}"
                    );
                }
            }
        }
    }
}
