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
    assert_eq!(index.pairs().len(), 3);
    assert!(index.unpaired().is_empty());
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
    assert!(index.pairs().is_empty());
    assert_eq!(index.unpaired().len(), 4);
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
    assert!(index.pairs().is_empty());
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
fn correlation_aware_pairing_stays_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(205);
    let data = rand_dataset(&mut rng, 300, 6);
    let roles = rand_roles(&mut rng, 6);
    let opts = SdIndexOptions {
        pairing: PairingStrategy::CorrelationAware,
        ..Default::default()
    };
    let index = SdIndex::build_with(data.clone(), &roles, &opts).unwrap();
    for _ in 0..15 {
        let q = rand_query(&mut rng, 6);
        assert_equiv(&index.query(&q, 6).unwrap(), &oracle(&data, &roles, &q, 6));
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
    // One zero weight per role: θ_q = 90° (repulsive weight zero) or 0°
    // (attractive), both indexed, so the pair walks its own frontier.
    for (zero, deg) in [(0, 90.0), (1, 0.0)] {
        let mut weights = vec![1.0, 0.6, 1.0, 0.7];
        weights[zero] = 0.0;
        let q = SdQuery::new(vec![0.4, 0.6, 0.5, 0.5], weights).unwrap();
        for k in [1, 5, 40] {
            assert_equiv(&index.query(&q, k).unwrap(), &oracle(&data, &roles, &q, k));
        }
        let plan = index.plan(&q).unwrap();
        let pair = plan
            .pairs
            .iter()
            .find(|p| p.repulsive == zero || p.attractive == zero)
            .unwrap();
        assert_eq!(pair.action, PairAction::Frontier, "d{zero} zero");
        let theta = pair.theta.expect("one weight is live").degrees();
        assert!((theta - deg).abs() < 1e-9, "d{zero} zero: θ_q {theta}°");
    }
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
    // Every index holds both axes: an angle set short of 0° or of 90° is
    // refused at build time, naming the missing axis.
    let deg = |d: f64| Angle::from_degrees(d).unwrap();
    for (angles, missing) in [
        (vec![deg(10.0), deg(45.0), deg(90.0)], 0.0),
        (vec![deg(0.0), deg(45.0), deg(80.0)], 90.0),
        (vec![deg(45.0)], 0.0),
    ] {
        let options = SdIndexOptions {
            angles,
            ..SdIndexOptions::default()
        };
        match SdIndex::build_with(data.clone(), &roles, &options) {
            Err(SdError::AngleOutOfRange { requested_deg, .. }) => {
                assert_eq!(requested_deg, missing)
            }
            other => panic!("a set without {missing}° built: {other:?}"),
        }
    }
    let axes = SdIndexOptions {
        angles: vec![deg(90.0), deg(0.0)],
        ..SdIndexOptions::default()
    };
    assert!(SdIndex::build_with(data.clone(), &roles, &axes).is_ok());
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
    assert!(index.memory_bytes() > 0);
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
    assert_eq!(index.pairs().len(), 1);
    assert_eq!(
        index.pairs()[0],
        DimPair {
            repulsive: 0,
            attractive: 1
        }
    );
    assert_eq!(index.unpaired(), &[2]);
    let q = SdQuery::new(vec![50.0, 38.0, 75.0], vec![1.0, 1.0, 1.0]).unwrap();
    let got = index.query(&q, 2).unwrap();
    assert_equiv(&got, &oracle(&data, &roles, &q, 2));
}

// ─── the scan exit (plan::scan_budget) ──────────────────────────────────────

fn assert_bit_identical(got: &[ScoredPoint], want: &[ScoredPoint]) {
    assert_eq!(got.len(), want.len(), "length: got {got:?}\nwant {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "id: got {got:?}\nwant {want:?}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "score bits");
    }
}

/// Rows on a noisy simplex: the coordinates of a row sum to ≈ 1, so a row
/// good on one dimension is bad on the others — hostile to every
/// threshold algorithm, which is what makes the aggregation outrun its
/// fetch budget.
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

/// `index` as the one shard of a query, at offset 0, under `mask`.
fn part<'a>(index: &'a SdIndex, mask: Option<MaskView<'a>>) -> ShardPart<'a> {
    ShardPart {
        index,
        offset: 0,
        mask,
    }
}

/// The rows `floor` ends holding, drained in canonical order, without the
/// entries another part of the query put there ([`floor_at`]).
fn drained(floor: &mut QueryFloor<'_>) -> Vec<ScoredPoint> {
    let mut got = Vec::new();
    floor.drain_into(&mut got);
    got.retain(|sp| sp.id.raw() < ELSEWHERE);
    got
}

/// `index`'s execution of `q` under `mask`, begun out of `scratch` as the
/// query's one part (its seen-set opened over the index's rows).
fn begin<'a>(
    index: &'a SdIndex,
    mask: Option<MaskView<'a>>,
    q: &'a SdQuery,
    scratch: &mut QueryScratch,
) -> ShardExecution<'a> {
    scratch.seen.begin(index.data.len());
    ShardExecution::begin(part(index, mask), q, scratch).unwrap()
}

/// Hands `exec`'s buffers back to `scratch`, sets `scratch.profile` to its
/// counters and drains `floor` into the answer, filling the profile's
/// query-final facts as [`SdIndex::query_with`] does.
fn finish(
    exec: ShardExecution<'_>,
    floor: &mut QueryFloor<'_>,
    scratch: &mut QueryScratch,
) -> Vec<ScoredPoint> {
    scratch.profile.reset();
    exec.finish(scratch);
    scratch.profile.floor_value = floor.value();
    let got = drained(floor);
    scratch.profile.emitted = got.len() as u64;
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
    mask: Option<MaskView<'_>>,
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

/// What the scan exit of a completed execution over `index` (one part, no
/// tombstones) must have scored, recounted from the chunks it visited
/// (`scratch.chunks.scanned`) and the seen-set the streams left: each chunk
/// at most once; every chunk whose bound reaches the answer's k-th score
/// (the floor never stood higher, so none of those can have been skipped);
/// and, over the visited chunks, exactly the rows the streams had not
/// surfaced — so every row is scored once at most, through a stream or by
/// the scan, and no row of a reaching chunk is left out.
fn assert_scan_scored(
    index: &SdIndex,
    q: &SdQuery,
    scratch: &QueryScratch,
    p: &QueryProfile,
    want: &[ScoredPoint],
) {
    let order = index
        .order
        .as_ref()
        .expect("an aggregating index is in box order");
    let n = index.data.len();
    let mut bounds = Vec::new();
    boxes::chunk_bounds(order, &index.roles, &q.point, &q.weights, &mut bounds);
    let scanned = &scratch.chunks.scanned;
    let mut visited = vec![false; bounds.len()];
    for &c in scanned {
        assert!(!std::mem::replace(&mut visited[c], true), "chunk {c} twice");
    }
    let kth = want.last().expect("an answer").score;
    for (c, &bound) in bounds.iter().enumerate() {
        assert!(
            visited[c] || bound < kth,
            "chunk {c} reaches {kth} unscored"
        );
    }
    let unseen = |pos: &usize| scratch.seen.unseen_word(*pos, 1) == 1;
    let streamed = (0..n).filter(|pos| !unseen(pos)).count() as u64;
    let by_scan = (0..n)
        .filter(|&pos| visited[pos / CHUNK_ROWS] && unseen(&pos))
        .count() as u64;
    assert_eq!(p.tombstones_skipped, 0, "no tombstones here");
    assert_eq!(p.scan_rows, by_scan, "the scan's rows");
    assert_eq!(
        p.points_gathered,
        streamed + by_scan,
        "every row scored at most once"
    );
}

/// Steps `exec` one round at a time to completion under `floor`, returning
/// `rows_fetched` after every round.
fn fetch_trajectory(
    exec: &mut ShardExecution<'_>,
    scratch: &mut QueryScratch,
    floor: &mut QueryFloor<'_>,
) -> Vec<u64> {
    let mut fetched = Vec::new();
    while !exec.step(1, scratch, floor).unwrap() {
        fetched.push(exec.profile.rows_fetched);
    }
    fetched
}

#[test]
fn scan_switches_strictly_past_the_budget() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(300);
    let data = anti_correlated(&mut rng, 2_000, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.2; 6], vec![1.0, 0.8, 0.6, 0.9, 0.7, 1.0]).unwrap();
    let k = 16;
    let want = oracle(&data, &roles, &q, k);
    let mut scratch = QueryScratch::new();

    // The pure threshold aggregation: which round had fetched how much.
    let mut exec = begin(&index, None, &q, &mut scratch);
    exec.scan_budget = usize::MAX;
    exec.probe = plan::ScanProbe::new(usize::MAX);
    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, k);
    let fetched = fetch_trajectory(&mut exec, &mut scratch, &mut floor);
    assert_eq!(exec.profile.scan_fallbacks, 0);
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
    let i = fetched.len() / 2; // rounds 1..=i+1 ran, the query still open
    assert!(fetched[i] > fetched[i - 1], "round fetched nothing");

    for (budget, scan_round) in [(fetched[i], i + 3), (fetched[i] - 1, i + 2)] {
        let mut exec = begin(&index, None, &q, &mut scratch);
        exec.scan_budget = budget as usize;
        exec.probe = plan::ScanProbe::new(usize::MAX); // the budget alone decides
        let mut heap = BinaryHeap::new();
        let mut floor = QueryFloor::new(&mut heap, k);
        for round in 1..scan_round {
            assert!(!exec.step(1, &mut scratch, &mut floor).unwrap());
            assert_eq!(
                exec.profile.scan_fallbacks, 0,
                "budget {budget}: scanned in round {round}, at {} rows",
                exec.profile.rows_fetched
            );
        }
        // `rows_fetched == budget` fetched once more; one row past it scans,
        // and the scan completes inside that step.
        assert!(exec.step(1, &mut scratch, &mut floor).unwrap());
        let p = exec.profile;
        assert_eq!(p.scan_fallbacks, 1, "budget {budget}");
        assert!(p.scan_rows > 0 && p.scan_rows < 2_000);
        assert_eq!(
            p.points_gathered + p.seen_hits + p.tombstones_skipped,
            p.rows_fetched
        );
        assert_scan_scored(&index, &q, &scratch, &p, &want);
        assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
    }
}

#[test]
fn projected_scan_waits_for_its_second_checkpoint() {
    // The mirror of the test above for the other trigger: under the
    // index's own budget, with the probe live, nothing scans before the
    // second checkpoint, and the round that trips completes the scan.
    let mut rng = rand::rngs::StdRng::seed_from_u64(304);
    let n = 16_000;
    let data = anti_correlated(&mut rng, n, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.2; 6], vec![1.0, 0.8, 0.6, 0.9, 0.7, 1.0]).unwrap();
    let k = 16;
    let want = oracle(&data, &roles, &q, k);
    let mut scratch = QueryScratch::new();
    let budget = plan::scan_budget(n) as u64;
    let span = plan::scan_checkpoint(budget as usize) as u64;

    // Probe held off: the rows each round starts with, up to the spent
    // budget. Round 1 starts with none and no floor; round 2 has both.
    let mut exec = begin(&index, None, &q, &mut scratch);
    exec.probe = plan::ScanProbe::new(usize::MAX);
    let mut starts_with = vec![0];
    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, k);
    starts_with.extend(fetch_trajectory(&mut exec, &mut scratch, &mut floor));
    let p = exec.profile;
    assert_eq!(
        (p.scan_fallbacks, p.scan_projected),
        (1, 0),
        "spent, not projected"
    );
    assert!(p.rows_fetched - p.scan_rows > budget);
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
    // Checkpoints, as 0-based rounds: the first round with `span` rows in,
    // then the first with `span` more than that.
    let first = starts_with.iter().position(|&r| r >= span).unwrap();
    let second = (starts_with.iter())
        .position(|&r| r >= starts_with[first] + span)
        .unwrap();
    assert!(0 < first && first < second && starts_with[second] < budget / 2);

    let mut exec = begin(&index, None, &q, &mut scratch);
    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, k);
    let mut round = 0;
    while !exec.step(1, &mut scratch, &mut floor).unwrap() {
        assert_eq!(exec.profile.scan_fallbacks, 0);
        round += 1;
    }
    let p = exec.profile;
    assert!(round >= second, "scanned in round {round}, before {second}");
    assert_eq!((p.scan_fallbacks, p.scan_projected), (1, 1));
    let through_streams = p.rows_fetched - p.scan_rows;
    assert_eq!(
        through_streams, starts_with[round],
        "left at a round's start"
    );
    assert!(through_streams <= budget, "left with budget to spare");
    assert_scan_scored(&index, &q, &scratch, &p, &want);
    assert_eq!(
        p.points_gathered + p.seen_hits + p.tombstones_skipped,
        p.rows_fetched
    );
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
}

#[test]
fn inherited_verdict_scans_at_the_next_round_head() {
    // The third trigger: an execution whose floor a sibling marked lost
    // scans at its next round head, whatever its own budget and probe say —
    // from the first head when it begins on a lost floor, or from the head
    // after the verdict lands — and marks nothing it did not find.
    let mut rng = rand::rngs::StdRng::seed_from_u64(306);
    let n = 16_000;
    let data = anti_correlated(&mut rng, n, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.2; 6], vec![1.0, 0.8, 0.6, 0.9, 0.7, 1.0]).unwrap();
    let k = 16;
    let want = oracle(&data, &roles, &q, k);
    let mut scratch = QueryScratch::new();

    let mut heap = BinaryHeap::new();
    for rounds_before in [0, 1, 3] {
        let mut floor = QueryFloor::new(&mut heap, k);
        let mut exec = begin(&index, None, &q, &mut scratch);
        if rounds_before > 0 {
            assert!(!exec.step(rounds_before, &mut scratch, &mut floor).unwrap());
        }
        let streamed = exec.profile.rows_fetched;
        floor.mark_lost();
        assert!(exec.step(1, &mut scratch, &mut floor).unwrap());
        let p = exec.profile;
        assert_eq!(
            p.rounds,
            rounds_before as u64 + 1,
            "scanned at the next head"
        );
        assert_eq!(
            (p.scan_fallbacks, p.scan_projected, p.scan_inherited),
            (1, 0, 1)
        );
        assert_eq!(p.rows_fetched - p.scan_rows, streamed, "no round ran");
        assert_scan_scored(&index, &q, &scratch, &p, &want);
        assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
    }

    // An unbounded budget and a silent probe inherit the verdict all the
    // same: no execution is exempt from it.
    let mut floor = QueryFloor::new(&mut heap, k);
    floor.mark_lost();
    let mut exec = begin(&index, None, &q, &mut scratch);
    exec.scan_budget = usize::MAX;
    exec.probe = plan::ScanProbe::new(usize::MAX);
    assert!(exec.step(usize::MAX, &mut scratch, &mut floor).unwrap());
    let p = exec.profile;
    assert_eq!((p.rounds, p.scan_fallbacks, p.scan_inherited), (1, 1, 1));
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);

    // The execution that reaches the verdict itself publishes it.
    let mut floor = QueryFloor::new(&mut heap, k);
    let got = answer(&index, &q, &mut scratch, &mut floor, None);
    assert_bit_identical(&got, &want);
    let p = scratch.profile;
    assert_eq!((p.scan_fallbacks, p.scan_inherited), (1, 0));
    assert_eq!(floor.verdict(), Verdict::Lost);
}

#[test]
fn a_query_that_started_lost_scans_at_its_first_round_head() {
    // The fourth trigger: a floor marked lost before the execution begins
    // sends it to the scan at its first round head, without a fetch, and
    // counts the scan as predicted, not inherited — also after the
    // execution's own exit marks the floor in turn. With a floor that
    // already certifies the execution, it ends there unscanned instead.
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
    floor.start_lost();
    let got = answer(&index, &q, &mut scratch, &mut floor, None);
    assert_bit_identical(&got, &want);
    let p = scratch.profile;
    assert_eq!(p.rounds, 1, "scanned at the first head");
    assert_eq!(
        (
            p.scan_fallbacks,
            p.scan_projected,
            p.scan_inherited,
            p.scan_predicted
        ),
        (1, 0, 0, 1)
    );
    assert_eq!(p.rows_fetched, p.scan_rows, "nothing came through a stream");
    assert_scan_scored(&index, &q, &scratch, &p, &want);
    assert_eq!(floor.verdict(), Verdict::StartedLost);

    // A floor above every row (k rows elsewhere beat them all): certified
    // at the first head, nothing scanned.
    let mut floor = floor_at(&mut heap, k, want[0].score + 1.0);
    floor.start_lost();
    let got = answer(&index, &q, &mut scratch, &mut floor, None);
    assert!(got.is_empty());
    let p = scratch.profile;
    assert_eq!((p.rounds, p.scan_fallbacks, p.rows_fetched), (1, 0, 0));
}

#[test]
fn a_certified_execution_ignores_the_inherited_verdict() {
    // The verdict is read after the drain and floor checks: an execution
    // certified at the head where it first sees the flag ends there,
    // unscanned, exactly as it would have without the flag — on its own,
    // and beside a sibling shard whose rows hold most of the top k, and
    // whose k-th score the floor holds, so that fewer than k of the answers
    // are this shard's.
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
    let mut short = 0;
    for _ in 0..8 {
        let q = SdQuery::new(
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let k = 16;
        let own = oracle(&data, &roles, &q, k);
        // The k-th best score of the two shards together: a floor a sibling
        // execution of this query could leave.
        let mut both: Vec<f64> = own.iter().map(|sp| sp.score).collect();
        both.extend(oracle(&sibling, &roles, &q, k).iter().map(|sp| sp.score));
        both.sort_by(|a, b| b.total_cmp(a));
        for floor in [f64::NEG_INFINITY, both[k - 1]] {
            let mut want = own.clone();
            want.retain(|sp| sp.score >= floor);
            let mut heap = BinaryHeap::new();
            // The reference: the rounds this execution needs without a
            // verdict.
            let mut shared = floor_at(&mut heap, k, floor);
            let mut exec = begin(&index, None, &q, &mut scratch);
            assert!(exec.step(usize::MAX, &mut scratch, &mut shared).unwrap());
            let alone = exec.profile;
            assert_eq!(alone.scan_fallbacks, 0, "a friendly query certifies");
            assert_eq!(shared.verdict(), Verdict::Open);
            assert_bit_identical(&finish(exec, &mut shared, &mut scratch), &want);

            // The same execution, told at its last head that a sibling is
            // lost.
            let mut shared = floor_at(&mut heap, k, floor);
            let mut exec = begin(&index, None, &q, &mut scratch);
            let before = alone.rounds as usize - 1;
            if before > 0 {
                assert!(!exec.step(before, &mut scratch, &mut shared).unwrap());
            }
            shared.mark_lost();
            assert!(exec.step(usize::MAX, &mut scratch, &mut shared).unwrap());
            assert_eq!(exec.profile, alone, "the verdict changed the execution");
            assert_bit_identical(&finish(exec, &mut shared, &mut scratch), &want);
            short += usize::from(want.len() < k);
        }
    }
    assert!(short > 0, "no sibling held most of the top k");
}

#[test]
fn executions_answer_the_oracle_under_a_pre_filled_floor() {
    // A stepped aggregation (4-D) and a walk (2-D), each scoring into a
    // floor another part of the query filled below the k-th answer, leave
    // the oracle's top k in it, and none of that part's entries.
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
            assert_eq!(index.single_pair(&q).is_some(), dims == 2);
            let want = oracle(&data, roles, &q, 2 * k);
            let mut heap = BinaryHeap::new();
            let mut floor = floor_at(&mut heap, k, want[2 * k - 1].score);
            let got = answer(&index, &q, &mut scratch, &mut floor, None);
            assert_bit_identical(&got, &want[..k]);
        }
    }
}

#[test]
fn single_pair_refuses_a_query_of_another_dimensionality() {
    let data = Dataset::from_rows(2, &[vec![1.0, 9.0], vec![1.1, 2.0], vec![7.0, 8.5]]).unwrap();
    let index = SdIndex::build(data, &[DimRole::Attractive, DimRole::Repulsive]).unwrap();
    for dims in [1, 3] {
        let q = SdQuery::new(vec![1.0; dims], vec![1.0; dims]).unwrap();
        assert!(index.single_pair(&q).is_none(), "{dims}-D query");
    }
    let q = SdQuery::new(vec![1.0; 2], vec![1.0; 2]).unwrap();
    assert!(index.single_pair(&q).is_some());
}

#[test]
fn probe_leaves_friendly_queries_alone() {
    // The false-positive pin: on the anchor's shape — uniform 4-D, k = 16,
    // one 25 000-row shard — no execution leaves for the scan, and the
    // probe changes nothing about the ones that certify.
    let mut rng = rand::rngs::StdRng::seed_from_u64(305);
    let data = rand_dataset(&mut rng, 25_000, 4);
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Attractive,
    ];
    let index = SdIndex::build(data, &roles).unwrap();
    let mut scratch = QueryScratch::new();
    for _ in 0..32 {
        let q = SdQuery::new(
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let mut exec = begin(&index, None, &q, &mut scratch);
        exec.probe = plan::ScanProbe::new(usize::MAX);
        let mut heap = BinaryHeap::new();
        let mut floor = QueryFloor::new(&mut heap, 16);
        assert!(exec.step(usize::MAX, &mut scratch, &mut floor).unwrap());
        finish(exec, &mut floor, &mut scratch);
        let off = scratch.profile;
        index.query_with(&q, 16, &mut scratch).unwrap();
        assert_eq!(scratch.profile.scan_fallbacks, 0);
        assert_eq!(scratch.profile, off);
    }
}

#[test]
fn scan_after_every_row_was_seen_scores_nothing() {
    // Two pairs over 64 rows, so each pair's index holds two blocks: the 32
    // rows of larger repulsive value, then the rest. Pair (x0, y1) is large
    // on the even rows, pair (x2, y3) on the odd ones, so the first round
    // surfaces every row while neither stream has drained. Every row
    // scores 10 but row 0, whose x0 = 100 sinks it to −90: with k = 64 the
    // floor is −90, below τ = 0 (both second blocks sit at their pair's
    // origin), so the aggregation is still open with nothing left to
    // discover.
    let n = 64;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|r| match r {
            0 => vec![100.0, 10.0, 0.0, 0.0],
            r if r % 2 == 0 => vec![0.0, 10.0, 0.0, 0.0],
            _ => vec![0.0, 0.0, 0.0, 10.0],
        })
        .collect();
    let data = Dataset::from_rows(4, &rows).unwrap();
    let roles = vec![
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Attractive,
        DimRole::Repulsive,
    ];
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let q = SdQuery::new(vec![0.0; 4], vec![1.0; 4]).unwrap();
    let want = oracle(&data, &roles, &q, n);
    let mut scratch = QueryScratch::new();

    let mut exec = begin(&index, None, &q, &mut scratch);
    let mut heap = BinaryHeap::new();
    let mut floor = QueryFloor::new(&mut heap, n);
    assert!(!exec.step(1, &mut scratch, &mut floor).unwrap());
    assert_eq!(exec.profile.rows_fetched, n as u64);
    assert_eq!(exec.profile.points_gathered, n as u64, "all rows seen");
    let scored = exec.profile.points_scored;
    // The next round head finds the budget (n / 8 rows) spent and scans.
    assert!(exec.step(1, &mut scratch, &mut floor).unwrap());
    let p = exec.profile;
    assert_eq!((p.scan_fallbacks, p.scan_rows), (1, 0));
    assert_eq!(p.points_scored, scored, "the scan scored nothing");
    assert_eq!((p.rows_fetched, p.points_gathered), (n as u64, n as u64));
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
}

#[test]
fn scan_exit_handles_tombstones_large_k_and_zero_weights() {
    use crate::mask::RowMask;
    let mut rng = rand::rngs::StdRng::seed_from_u64(301);
    let n = 400;
    let data = anti_correlated(&mut rng, n, 6);
    let roles = six_d_roles();
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    let mut dead = RowMask::new(n);
    for row in (0..n).step_by(7) {
        dead.set(row);
    }
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
        let mask = Some(MaskView::new(&dead, 0));
        let got = answer(&index, &q, &mut scratch, &mut floor, mask);
        assert_bit_identical(&got, &live_oracle(&q, k));
        let p = scratch.profile;
        assert_eq!(p.scan_fallbacks, 1, "k = {k}");
        assert!(p.tombstones_skipped > 0, "the scan met dead rows");
        assert_eq!(
            p.points_gathered + p.seen_hits + p.tombstones_skipped,
            p.rows_fetched
        );
    }
    // All-zero weights: no stream survives, so the execution starts lost
    // and scans at its first round head; every live row scores 0 and the
    // canonical answer is the first k live rows.
    let zero = SdQuery::new(vec![0.3; 6], vec![0.0; 6]).unwrap();
    let mut floor = QueryFloor::new(&mut heap, 5);
    let mask = Some(MaskView::new(&dead, 0));
    let got = answer(&index, &zero, &mut scratch, &mut floor, mask);
    let p = scratch.profile;
    assert_eq!(p.rounds, 1);
    assert_eq!((p.scan_predicted, p.scan_fallbacks), (1, 1));
    assert_eq!((p.scan_rows, p.rows_fetched), (n as u64, n as u64));
    let ids: Vec<usize> = got.iter().map(|sp| sp.id.index()).collect();
    assert_eq!(ids, [1, 2, 3, 4, 5]);
    assert!(got.iter().all(|sp| sp.score == 0.0));
}

#[test]
fn scan_drops_seen_and_dead_rows_that_reach_the_floor() {
    // 99 rows — three full chunks and a three-row one — in 4-D, scored
    // `y1 − x0 + y3 − x2` from the origin by the pairs (x0, y1) and
    // (x2, y3). Each pair's index cuts its rows by the pair's repulsive
    // value into blocks of 32, 32, 32 and the top three, so one round
    // surfaces the top three of each pair: the six stars (x = 0, y ≥ 10),
    // at lanes 0 and 31 of the first two chunks, inside the second and
    // inside the short one, alternating between the pairs; the one inside
    // the second chunk is dead, so the streams have skipped a tombstone
    // already. Four more dead rows (score 4.5) sit at lanes 0 and 31 of the
    // third chunk and in the short one; three live rows just below them
    // (3.4 to 3.6) complete the top 8, and the floor is filled at the 8th
    // score. So the scan's kernel passes every star and every dead row, and
    // only the seen-set and the tombstones keep them out. (Lanes and chunks
    // are named in id order; the index keeps its rows in box order, so the
    // checks below go from ids to positions, which the seen-set and the
    // chunks are over.)
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
    let ids = index.row_ids().expect("box order").to_vec();
    let pos_of = |id: usize| ids.iter().position(|&i| i as usize == id).unwrap();
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
    let mask = Some(MaskView::new(&dead, 0));
    let mut exec = begin(&index, mask, &q, &mut scratch);
    assert!(!exec.step(1, &mut scratch, &mut floor).unwrap());
    let unseen: Vec<usize> = (0..n)
        .filter(|&p| scratch.seen.unseen_word(p, 1) == 1)
        .collect();
    assert_eq!(unseen.len(), n - stars.len(), "the streams hold the stars");
    assert!(stars.iter().all(|&r| !unseen.contains(&pos_of(r))));
    // The scan visits the chunks whose box reaches the floor: those of the
    // stars and the dead rows (4.5 and up) among them.
    let order = index.order.as_ref().unwrap();
    let mut bounds = Vec::new();
    boxes::chunk_bounds(order, &roles, &q.point, &q.weights, &mut bounds);
    let visited = |p: usize| bounds[p / CHUNK_ROWS] >= want[k - 1].score;
    assert!(stars.iter().chain(&dead_rows).all(|&r| visited(pos_of(r))));
    let unseen: Vec<usize> = unseen.into_iter().filter(|&p| visited(p)).collect();
    let before = exec.profile;
    assert_eq!(before.tombstones_skipped, 1, "the dead star");

    // The next round head finds the budget spent and scans.
    exec.scan_budget = 0;
    assert!(exec.step(1, &mut scratch, &mut floor).unwrap());
    let p = exec.profile;
    assert_eq!(p.scan_fallbacks, 1);
    // The floor stood at the answer's k-th score throughout: exactly the
    // reaching chunks were scored, each once.
    let mut scanned = scratch.chunks.scanned.clone();
    scanned.sort_unstable();
    let reaching: Vec<usize> = (0..bounds.len())
        .filter(|&c| bounds[c] >= want[k - 1].score)
        .collect();
    assert_eq!(scanned, reaching);
    // Every counter the scan adds, recounted row by row.
    let unseen_dead = unseen
        .iter()
        .filter(|&&p| dead.get(ids[p] as usize))
        .count() as u64;
    let unseen = unseen.len() as u64;
    assert_eq!(p.scan_rows - before.scan_rows, unseen);
    assert_eq!(p.rows_fetched - before.rows_fetched, unseen);
    assert_eq!(
        p.tombstones_skipped - before.tombstones_skipped,
        unseen_dead
    );
    assert_eq!(
        p.points_gathered - before.points_gathered,
        unseen - unseen_dead
    );
    assert_eq!(p.points_scored - before.points_scored, near.len() as u64);
    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want);
}

// ─── every exit of the one execution path, forced in turn ───────────────────

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

#[test]
fn every_exit_forced_at_the_one_constructor() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(303);
    let mut scratch = QueryScratch::new();
    // How the budget-0 runs ended: by scanning, or certified before the
    // budget was ever consulted with a row fetched.
    let (mut scanned, mut certified_first) = (0, 0);
    // How the runs under the index's own budget with the probe live ended:
    // on the projection, on the spent budget, or certified.
    let (mut projected, mut spent, mut certified) = (0, 0, 0);
    // Runs told after their first round that a sibling is lost: scanned on
    // that verdict, or certified (or spent) before it could count.
    let (mut inherited, mut inherited_certified) = (0, 0);
    for case in 0..60 {
        let n = rng.gen_range(1..=600);
        let dims = rng.gen_range(2..=6);
        let data = sweep_dataset(&mut rng, case % 5, n, dims);
        let roles = rand_roles(&mut rng, dims);
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
        let mask = (case % 2 == 1).then(|| MaskView::new(&dead, 0));
        let mut live = oracle(&data, &roles, &q, n);
        live.retain(|sp| !dead.get(sp.id.index()));

        for k in [1, n.saturating_sub(1).max(1), n, n + 3] {
            let want = &live[..k.min(live.len())];
            let mut pure_rounds = 0;
            let natural = plan::scan_budget(n);
            // `lost_after`: the rounds run before the query's floor is
            // marked lost, as a sibling's verdict would mark it (`None`:
            // never).
            for (budget, probe_live, lost_after) in [
                (usize::MAX, false, None),
                (natural, false, None),
                (0, false, None),
                (natural, true, None),
                (natural, false, Some(0)),
                (natural, false, Some(1)),
            ] {
                let mut stepped: Option<QueryProfile> = None;
                for step in [1, 8, usize::MAX] {
                    let mut exec = begin(&index, mask, &q, &mut scratch);
                    exec.scan_budget = budget;
                    if !probe_live {
                        exec.probe = plan::ScanProbe::new(usize::MAX);
                    }
                    let mut heap = BinaryHeap::new();
                    let mut floor = QueryFloor::new(&mut heap, want.len());
                    let mut done = false;
                    if let Some(rounds) = lost_after {
                        done = rounds > 0 && exec.step(rounds, &mut scratch, &mut floor).unwrap();
                        floor.mark_lost();
                    }
                    while !done {
                        done = exec.step(step, &mut scratch, &mut floor).unwrap();
                    }
                    assert_bit_identical(&finish(exec, &mut floor, &mut scratch), want);
                    let p = scratch.profile;
                    let at = format!(
                        "case {case} n {n} dims {dims} k {k} budget {budget} \
                         probe {probe_live} lost after {lost_after:?} step {step}"
                    );
                    assert_eq!(
                        p.points_gathered + p.seen_hits + p.tombstones_skipped,
                        p.rows_fetched,
                        "{at}"
                    );
                    // Slicing the loop differently changes no counter.
                    assert_eq!(*stepped.get_or_insert(p), p, "{at}");
                }
                let p = stepped.expect("three runs");
                assert!(
                    p.scan_fallbacks <= 1
                        && p.scan_projected + p.scan_inherited <= p.scan_fallbacks
                );
                if lost_after.is_none() {
                    assert_eq!(p.scan_inherited, 0, "no verdict, none inherited");
                }
                // No stream (no pair, or every pair's weights zero — the
                // unpaired dimensions only bound): every run scans at its
                // first round head, whatever the budget or the floor says —
                // unless there is no live row to answer with.
                let streams = index
                    .pairs
                    .iter()
                    .any(|p| q.weights[p.repulsive] != 0.0 || q.weights[p.attractive] != 0.0);
                if !streams {
                    let scans = u64::from(!want.is_empty());
                    assert_eq!(
                        (p.rounds, p.scan_predicted, p.scan_fallbacks),
                        (1, scans, scans),
                        "case {case} k {k} budget {budget} lost after {lost_after:?}"
                    );
                    continue;
                }
                match lost_after {
                    // Marked lost before the first head: nothing streams.
                    Some(0) => {
                        assert_eq!((p.rounds, p.scan_inherited), (1, 1));
                        assert_eq!(p.rows_fetched, p.scan_rows);
                        continue;
                    }
                    // After one round: the second head scans unless the
                    // first round ended the query (as for the empty budget
                    // below), or it spent the budget itself.
                    Some(_) => {
                        match pure_rounds {
                            1 => assert_eq!(p.scan_fallbacks, 0),
                            r if r > 2 => assert_eq!(p.scan_fallbacks, 1),
                            _ => {}
                        }
                        inherited += p.scan_inherited;
                        inherited_certified += 1 - p.scan_inherited;
                        continue;
                    }
                    None => {}
                }
                if probe_live {
                    projected += p.scan_projected;
                    spent += p.scan_fallbacks - p.scan_projected;
                    certified += 1 - p.scan_fallbacks;
                    continue;
                }
                assert_eq!(p.scan_projected, 0, "the probe was held off");
                match budget {
                    usize::MAX => {
                        assert_eq!((p.scan_fallbacks, p.scan_rows), (0, 0));
                        pure_rounds = p.rounds;
                    }
                    // Round 1 fetches on an empty budget; round 2 certifies
                    // or scans. The pure run says which: it was over within
                    // one round, or still open after two.
                    0 if pure_rounds == 1 => assert_eq!(p.scan_fallbacks, 0),
                    0 if pure_rounds > 2 => assert_eq!(p.scan_fallbacks, 1),
                    _ => {}
                }
                if budget == 0 {
                    scanned += p.scan_fallbacks;
                    certified_first += 1 - p.scan_fallbacks;
                }
            }
        }
    }
    assert!(
        scanned >= 120 && certified_first > 0,
        "an empty budget must mostly scan, and sometimes not get to: \
         {scanned} scans, {certified_first} certified"
    );
    assert!(
        projected > 0 && spent > 0 && certified > 0,
        "both triggers and plain certification must each occur: \
         {projected} projected, {spent} spent, {certified} certified"
    );
    assert!(
        inherited > 0 && inherited_certified > 0,
        "a verdict after round one must send some runs to the scan and \
         find others done: {inherited} inherited, {inherited_certified} not"
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

/// `index` with every pair's rows dealt into blocks by a random permutation
/// — no tiles, no strips, no order at all; a file written by a build that
/// ordered its blocks some other way is one of these.
fn dealt_at_random(index: &SdIndex, rng: &mut impl Rng) -> SdIndex {
    let n = index.data.len();
    let mut dealt = index.clone();
    for (p, blocks) in index.pairs.iter().zip(&mut dealt.pair_blocks) {
        let pts: Vec<(f64, f64)> = index
            .data
            .iter()
            .map(|(_, c)| (c[p.attractive], c[p.repulsive]))
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        *blocks = BlockSet::from_order(&pts, &order, blocks.angles());
    }
    dealt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every bound is a true min/max over the block's points, so the answer
    // cannot depend on which points share a block: tiled, dealt at random
    // and scanned agree bit for bit — the direct 2-D walk (two dimensions)
    // and the §5 aggregation, dead rows or not.
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
        let dead = rand_dead(&mut rng, n);
        let mut scratch = QueryScratch::new();
        for _ in 0..4 {
            let q = rand_query(&mut rng, dims);
            let all = oracle(&data, &roles, &q, n);
            for masked in [false, true] {
                let mask = masked.then(|| MaskView::new(&dead, 0));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The certifying block-stream path at a size where it is the path: the
    // small-n sweeps above mostly end in the scan exit, so here the budget
    // is lifted and every query must certify off its streams — duplicate
    // rows, a constant column and ±0 ties included.
    #[test]
    fn certifying_streams_match_the_scan_at_size(
        seed in 0u64..1 << 48,
        n in 4096usize..=8192,
        dims in prop_oneof![Just(2usize), Just(4), Just(6)],
        kind in 0usize..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = sweep_dataset(&mut rng, kind, n, dims);
        let roles: Vec<DimRole> = (0..dims)
            .map(|d| if d % 2 == 0 { DimRole::Attractive } else { DimRole::Repulsive })
            .collect();
        let index = SdIndex::build(data.clone(), &roles).unwrap();
        prop_assert_eq!(index.pairs().len(), dims / 2);
        let dead = rand_dead(&mut rng, n);
        let mut scratch = QueryScratch::new();
        let mut blocks_popped = 0;
        for i in 0..3 {
            let q = rand_query(&mut rng, dims);
            let mask = (i == 2).then(|| MaskView::new(&dead, 0));
            let mut want = oracle(&data, &roles, &q, n);
            want.retain(|sp| !(mask.is_some() && dead.get(sp.id.index())));
            for k in [1, 16, 100] {
                let mut exec = begin(&index, mask, &q, &mut scratch);
                exec.scan_budget = usize::MAX;
                exec.probe = plan::ScanProbe::new(usize::MAX);
                let mut heap = BinaryHeap::new();
                let mut floor = QueryFloor::new(&mut heap, k);
                while !exec.step(usize::MAX, &mut scratch, &mut floor).unwrap() {}
                assert_bit_identical(&finish(exec, &mut floor, &mut scratch), &want[..k]);
                let p = scratch.profile;
                prop_assert_eq!((p.scan_fallbacks, p.scan_rows), (0, 0));
                blocks_popped += p.blocks_popped;
            }
        }
        prop_assert!(blocks_popped > 0, "no block stream ran");
    }
}

/// Every unpaired dimension keeps its extent over the index's rows, and a
/// decode names a forged extent — non-finite, or `lo > hi` — by its
/// dimension, whichever one it sits in; a forged extent that is still an
/// interval decodes.
#[test]
fn decode_names_the_forged_extent_of_any_unpaired_dimension() {
    use crate::codec::{decode_from_slice, encode_to_vec};
    let mut rng = rand::rngs::StdRng::seed_from_u64(28);
    let roles = [
        DimRole::Attractive,
        DimRole::Repulsive,
        DimRole::Repulsive,
        DimRole::Repulsive,
    ];
    let data = rand_dataset(&mut rng, 500, 4);
    let index = SdIndex::build(data.clone(), &roles).unwrap();
    assert_eq!(index.unpaired(), &[2, 3]);
    for (&d, &extent) in index.unpaired().iter().zip(&index.extents) {
        let column = data.column(d);
        let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(extent, (lo, hi), "dimension {d}");
    }
    let bytes = encode_to_vec(&index);
    // `index.meta` leads the encoding, `[crc32c][len][bytes]`, and ends in
    // the two extents (32 bytes) and the rows a chunk of the box order (a
    // `u32`).
    let len = u64::from_le_bytes(bytes[4..12].try_into().unwrap()) as usize;
    let meta_end = 12 + len;
    let forge = |at: usize, lo: f64, hi: f64| {
        let mut forged = bytes.clone();
        let slot = meta_end - 36 + 16 * at;
        forged[slot..slot + 8].copy_from_slice(&lo.to_le_bytes());
        forged[slot + 8..slot + 16].copy_from_slice(&hi.to_le_bytes());
        let crc = crate::integrity::crc32c(&forged[12..meta_end]);
        forged[..4].copy_from_slice(&crc.to_le_bytes());
        decode_from_slice::<SdIndex>(&forged)
    };
    for (at, d) in [(0, 2), (1, 3)] {
        for (lo, hi) in [
            (0.75, 0.25),
            (f64::NAN, 1.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.5),
        ] {
            let detail = format!("unpaired dimension {d}: extent [{lo}, {hi}]");
            match forge(at, lo, hi) {
                Err(SdError::SnapshotCorrupt { detail: got }) => assert_eq!(got, detail),
                other => panic!("extent {at} forged to [{lo}, {hi}]: {other:?}"),
            }
        }
        let back = forge(at, -1.0, 2.0).expect("an interval decodes");
        assert_eq!(back.extents[at], (-1.0, 2.0));
    }
}
