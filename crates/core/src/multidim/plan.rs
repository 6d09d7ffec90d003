//! The per-pair query planner: one rule that serves every 2-D subproblem of
//! the §5 decomposition from its own §4 frontier — and the fetch budget that
//! bounds what any mix of streams may cost.
//!
//! The paper executes a pair one way: walk its §4 index, certified when the
//! weight angle is indexed and Claim-6 bracketed otherwise. [`plan_pair`]
//! is that rule, read off the pair's weights alone:
//!
//! * [`PairAction::Degenerate`] — both weights zero: the pair contributes
//!   exactly `0` to every score and is dropped from the stream set;
//! * [`PairAction::Frontier`] — θ_q is an indexed angle: one best-first
//!   block frontier at it (the §4 fast path). A zero weight is θ_q = 0° or
//!   90°, and every index holds both: `SdIndex::build_with` refuses an
//!   angle set without them, and a decode refuses one as corrupt;
//! * [`PairAction::Bracketed`] — otherwise: the same frontier, each envelope
//!   bounded from its two bracketing tables by the closed form of Claim 6.
//!
//! Neither the shard's size nor `k` enters the rule, so every shard of an
//! engine plans a query alike, and the direct 2-D walk runs what the rule
//! names for its one pair.
//!
//! **Measured and removed: a pair served by two sorted columns.** A
//! hand-set cost model used to send a pair to two 1-D sorted-column streams
//! when one weight was zero or the shard was tiny, over columns built and
//! sorted inside the first query that asked for them. Sized with the
//! frontier wherever the model picked the columns (4 shards, one worker,
//! `taskset -c 0`, 2-core VM, 256 uniform queries per cell, best of 5, four
//! runs alternating the two; every answer digest identical), engine p50 in
//! µs:
//!
//! | cell (rows, dims, roles, k) | columns | frontier only |
//! |---|---|---|
//! | 100k 4-D `arra` k16, repulsive weight of pair (d1,d0) zero | 24–44 | 55–80 |
//! | same, attractive weight zero | 30–51 | 69–98 |
//! | same, no zero weight (control: same plan on both) | 63–88 | 59–93 |
//! | 100k 6-D anti `aaaarr` k64, one zero weight | 286–413 | 294–334 |
//! | 100k 6-D uniform `aaarrr` k16, one zero weight | 239–359 | 245–361 |
//! | 5k 4-D (1 250-row shards) k16, one zero weight | 15–21 | 15–25 |
//! | 800 rows 4-D (200-row shards) k16: the size arm | 7.7–10.3 | 6.9–11.9 |
//! | 3.2k 6-D anti (800-row shards) k64: the size arm | 28–34 | 27–44 |
//!
//! The 4-D cells with a zero weight lose their special-case speed, ≈ 0.45×
//! of a full-weight query → ≈ 1.0×: at 0° or 90° a tiled block's bound is
//! its 512-row x-slab or its y-tile, not an exact sorted order. Every other
//! cell is within run-to-run spread, both size-arm cells included. The
//! columns' first query paid for their build — 47–66 ms on the 4-D engine,
//! 46–64 on the 6-D anti one, 65–90 on the 6-D uniform one, against
//! 0.25–1.05 ms through the frontier — and grew `memory_bytes` by 48 B/row
//! (5.30 → 10.10 MB on the 4-D engine). No benchmark workload issues a zero
//! weight, and none has a shard small enough for the size arm (under ≈ 260
//! rows at k = 16, ≈ 900 at k = 64).
//!
//! **Measured and removed: a 1-D stream per unpaired dimension.** A
//! dimension left over after pairing is not streamed: the index keeps its
//! extent `[lo, hi]` and adds one constant to `τ` and to every pair
//! stream's pruning bar (see the parent module), and an execution with no
//! pair stream scans. The paper's 1-D sorted list surfaced one row a round
//! beside a pair's 32-row block, so its bound barely moved before the query
//! ended. Against the columns (100k rows, one worker, 256 uniform queries,
//! 2-core VM; every answer identical): on six shapes with a pair, rows
//! fetched moved −5 % to +3 % and p50 held or fell (`agg_6d` 421–429 →
//! 421–424 µs); on `aa` and `rrr`, which pair nothing, the scan beat the
//! streams 1.04–3.2×; `agg_6d`'s index went 77.03 → 53.03 B/row and its
//! build 75 → 44 ms. CHANGES.md has the table.
//!
//! A fourth path is not chosen per pair but reached by the execution
//! itself: **the scan exit**. Threshold aggregation degrades towards a full
//! scan as streams multiply and the data turns anti-correlated, and it
//! degrades expensively — a row fetched through a stream is a random access
//! (frontier pop, lane filter, gather), a row met by a sequential pass over
//! the row-major coordinate table is a few kernel operations. Measured on
//! the repo benchmark's `agg_6d` (100k × 6-D anti-correlated, k = 64,
//! 4 shards, 44 % of the rows fetched per query without the exit): 71–88 ns
//! per fetched row averaged over a whole descent, about 46 ns over its
//! first n/8 fetches (before the blocks thin out), against 5.5–6 ns per
//! scanned row — a fetch costs 8–16 scanned rows. Re-read with the fused
//! row kernel below (same data, 256 queries × 3, one worker, timed around
//! the stream phase and the scan): 44–55 ns per row fetched through the
//! streams against 2.0–2.3 ns per scanned row, so a fetch now costs ≈ 23
//! scanned rows (≈ 15 on the kernel before it). An aggregation over `n`
//! rows that has fetched more than [`scan_budget`]`(n) = n / 8` of them and
//! is still neither certified nor floor-terminated therefore stops fetching
//! and finishes with one kernel scan over the rows it has not seen
//! (`aggregate_rounds` in the parent module owns the exit; the TA
//! baseline in `sdq-baselines` runs a loop of its own, which has none).
//! The constant is not a tuning knob — it is `n / 8` for every index —
//! and the sweep says where it sits (three 10-second runs of the unmodified
//! benchmark per value, medians of p50 / p95, taken when the scan still
//! cost 7 ns a row): on the 100k × 4-D uniform anchor (k = 16, 4 shards,
//! `mixed_rw_4d`'s queries) 238 / 343 µs at n/8, 237 / 338 µs at n/16 and
//! 492 / 608 µs at n/32, where friendly queries pay for scans they did not
//! need; on `agg_6d` 1130 / 1304 µs, 869 / 962 µs and 751 / 810 µs. n/16
//! would serve both benchmark points; n/8 keeps a margin for the queries
//! between them — the anchor's hardest fetch 8.8 % of the rows, and not one
//! of its 1024 shard executions switches at n/8. (Read when a leaf block was
//! an x-strip. Over the tiled blocks of
//! [`topk::blocks`](crate::topk::blocks) the anchor's hardest execution
//! fetches 3.7 % of its shard's rows — 915 of 25 000 — so the margin that
//! was 1.4× is 3.4×, and n/8 stands with room to spare.)
//!
//! **The exit has two triggers.** The spent budget is the backstop; the
//! other is a projection, per execution, that the budget *will* be spent
//! ([`scan_checkpoint`], `ScanProbe`). On `agg_6d` the budget alone left
//! every shard execution of every query fetching its whole n/8 through the
//! streams, certifying nothing, and scanning anyway: 38 % of each query
//! was a stream phase that decided nothing. The execution knows
//! long before: the quantity whose sign ends a threshold aggregation, the
//! gap `inflate(τ) − floor`, reads (median of 1024 shard executions, 25 000
//! rows each, budget 3 125) 0.565 at 390 rows fetched, 0.398 at 780, 0.340
//! at 1 170, 0.305 at 1 560, 0.262 at 2 340 and 0.232 with the budget
//! spent — a power law that never gets there, and the secant through the
//! readings at 780 and 1 170 already meets zero at ≈ 3 460. The anchor's
//! executions read 0.148 at 195 rows, 0.066 at 390, 0.028 at 780, certify
//! at 920 (median; 1 500 the slowest of 1024), and the secant through 390
//! and 780 says ≈ 1 070 — over x-strip blocks; over tiled ones they read
//! 0.070 at 195 rows and 0.048 at 390, certify at 554 (median; 915 the
//! slowest of 1024), and 20 of the 1024 are still open at 780 rows, the
//! first reading that can condemn. So every `budget / 8` fetched rows an open
//! execution reads its gap, draws the secant through the previous reading,
//! and leaves for the same scan the spent budget leads to when the gap did
//! not shrink or the secant meets zero past the budget; the earliest exit
//! is the second reading, a quarter of the budget in. Where the gap is
//! convex in the rows fetched — τ falls fastest and the floor rises fastest
//! at the start — the latest secant under-estimates the fetches still
//! needed, so it can only condemn executions the budget would have caught.
//! Where it is not, the span of the secant is what protects the friendly
//! query, and the cadence experiment is why the span is `budget / 8` and
//! no less. Under the sharded engine an execution then ran in 8-round
//! slices throughout (now: one slice, then to completion — see the shared
//! verdict below) and its floor was mostly its siblings', published between
//! slices: inside a slice the gap closed at the pace of τ alone, at a slice
//! boundary it dropped by a step. (Now every execution scores into the
//! query's one floor, so its siblings' scores are there as they are found.) Readings at budget/16 and doubling (195, 390, 780,
//! 1 560 rows at 25 000-row shards) put the first secant inside the first
//! slice — 3–4 rounds — and it read that plateau as the trend on 2, 2, 4,
//! 2 and 0 of 1024 anchor executions (five seeds), each a needless scan,
//! every one at the second reading; a reading every budget/16 rows, tried
//! when the change was sized, did the same on ≈ 2 % of executions. Doubling
//! from budget/8 (390, 780, 1 560) misjudged none of 5 120 but left
//! `agg_6d` fetching 7.1k rows a query through streams with 9 % of its
//! executions still running the budget out; a reading every budget/8 rows
//! misjudged none of 8 192 (eight seeds), fetches 5.8k, and every scan of
//! `agg_6d` is a projected one — and none of 8 192 again (eight seeds) over
//! the tiled blocks, where an anchor execution is mostly over before its
//! second reading falls due. The probe is three words and one compare
//! per round until a reading is due.
//!
//! What a lost cause costs now: the stream phase up to the exit plus one
//! scan, and the scan scores each 32-row chunk straight off the row-major
//! table and compares it to the floor in the same pass
//! ([`score_rows`](crate::kernels::score_rows): eight rows a step, the
//! accumulators never stored between dimensions), reading the seen-set
//! and the tombstones only for a chunk with a row at the floor. That is
//! 2.0–2.3 ns per scanned row on `agg_6d`'s shards (100 000 × 6-D, k = 64,
//! 4 shards, 256 queries × 3 on a 2-core VM), against 2.9–3.2 ns for the
//! four-row kernel behind a seen-set word, a tombstone word and a separate
//! floor compare per chunk, and ≈ 5.6 ns for the transpose through the
//! gather buffer before that. Neither `scan_budget` nor the probe's
//! cadence moved with it: a cheaper scan argues for leaving the streams
//! sooner, but both constants were read off one shard size at one worker,
//! and they are to be re-fitted together with the slice schedule once a
//! sweep over shard sizes and workers has chosen the shard size. What they
//! leave on the table: `agg_6d` reads 278–303 µs p50 against 198–207 µs
//! for the same tree with an empty budget (seeds 1–3, 8 s runs), so the
//! stream phase before the verdict is now 26–32 % of its p50. (Read before
//! the shared verdict, on the four-row kernel: 740–758 µs
//! p50 against 501–541 µs for the same binary with an empty budget, which
//! scans from the second round on — 1.45× a pure scan, where the budget
//! alone cost 1.6× of a scan twice as slow — and the query that would have
//! certified just past the budget still pays about twice what it would
//! have.) The empty budget is not the better default: it is the n/32 end of
//! the sweep above, where every friendly query pays for a scan. Small
//! shards leave early by the same rule and for a different reason: at
//! 5 000 rows a reading falls due every round and a half, the secant spans
//! one step of the floor, and three executions in four of a uniform 4-D
//! query take the scan — which there costs less than the handful of rounds
//! it replaces (the benchmark's `--smoke` sizes, 1 250-row shards: 4-D p50
//! 64–107 → 48–65 µs over three alternating pairs).
//!
//! **The verdict is reached once per query.** The shards of an engine
//! partition one dataset answering one query, so the first execution that
//! takes the exit — spent or projected — answers for its siblings: it marks
//! the query's [`QueryFloor`](crate::QueryFloor) lost, and every
//! sibling still open reads the mark at its next round head and scans
//! (`scan_inherited`, the third trigger). The read comes after the drain
//! and floor checks, so a sibling the floor already certifies ends unscanned;
//! the TA entry, whose unbounded budget never reads it, and the
//! single-pair walk never see it. The engine's driver gives every execution
//! one 8-round slice, so the merged floor forms as it did, and then runs
//! each open one to completion in shard order: the first verdict lands
//! while the others have spent one slice each. On `agg_6d` (seed 1, traced run, one worker) that halves the
//! stream phase — `rounds_per_q` 106.3 → 54.3, `blocks_popped_per_q` 204.6
//! → 100.6, `engine.aggregate_ns_per_q` 779k → 460k — while
//! `rows_fetched_per_q` rises 90.5k → 95.2k, the scans taking over rows the
//! streams used to fetch; p50 427 → 350 µs over ten alternating pairs. The
//! anchor's executions rarely outlive the first slice: its lap-0 counters
//! move by under 0.5 % (`rounds_per_q` 50.80 → 50.87). Two schedules were
//! not taken (prototypes on a 2-core VM): sharing the verdict under the
//! old lockstep slices read ≈ 0.95× on `agg_6d`, because all four shards
//! reached their own verdicts in the same pass; running the first execution
//! alone from round one read 0.70×, but cost the anchor 8–15 % of its p50,
//! shard 0 losing its siblings' floor. Over small shards the verdict
//! spreads a scan that was already the likely end: at 5 000 rows a
//! uniform 4-D query now scans in 29 of 256 executions (5 before), 25 of
//! them inherited, and fetches 12 % fewer rows through its streams.
//!
//! **A lost shape starts lost.** Found out once per query, a lost query still
//! paid the stream phase up to that verdict, and every query of the same
//! shape paid it again: with the fused row kernel `agg_6d` read 278–303 µs
//! p50 against 198–207 µs for the same tree with an empty budget (seeds 1–3,
//! 8 s runs), 26–32 % of the p50 spent re-learning the previous query's
//! verdict. So the engine keeps one (`sdq-engine`'s `history` module): per
//! query *shape* — the zero-weight pattern and ⌈log₂ k⌉, the two things
//! that change which streams run and how high the floor sits — whether its
//! recent stream-first queries scanned. A shape whose last `STREAK` = 3
//! stream-first queries all did starts its next query lost: the engine
//! marks the query's [`QueryFloor`](crate::QueryFloor) before round
//! one ([`start_lost`](crate::QueryFloor::start_lost)), and every
//! execution scans at its first round head, after the drain and floor checks,
//! without a fetch (`scan_predicted`, the fourth trigger). Every
//! `RECHECK` = 16th query of such a shape runs stream-first again, so a shape
//! that turned friendly is found out within 16 queries. The verdict stays a
//! cost hint: a scan is exact whenever it runs, so history moves cost, never
//! an answer, and `explain` names the shape's state. On `agg_6d` (10 s runs
//! of the unmodified benchmark, alternating order, seeds 301–310, one
//! worker, 2-core VM) p50 went 315.9 → 239.4 µs (0.76×, 10 of 10 pairs;
//! parent quartiles 293 / 336); a traced run reads `rounds_per_q` 53.3 →
//! 7.9, `blocks_popped_per_q` 98.7 → 7.9, `rows_fetched_per_q` 94.6k →
//! 99.6k, `floor_updates_per_q` 391 → 546 and `aggregate_ns_per_q` 360k →
//! 270k. The empty budget re-read on this tree (which then scans from its
//! second round, history or not) gives 230–245 µs p50, so a lost shape now
//! costs within 1.03× of a pure scan. Its p95 does not follow (343 → 353,
//! within noise): one query in 16 of a lost shape re-checks, more than the
//! 5 % a p95 leaves out, so the p95 of a lost shape *is* a re-check — a
//! stream phase on block tables the scans have pushed out of cache.
//!
//! So the re-check is an *audit*: every shard but the last starts lost and
//! scans, then the last runs stream-first against the floor their scans
//! left (the verdict set back to open), and only its verdict is
//! recorded (`sdq-engine`'s `history` holds why that verdict is sound).
//! One shard's stream phase where a re-check paid four: on `agg_6d` (8 s
//! runs of the unmodified benchmark, 16 pairs — 10 parent first, seeds
//! 351–360, and 6 change first, 361–366 — one worker, as the benchmark's
//! engine runs `threads: 1`, 2-core VM) p95 went 416.1 → 337.0 µs (0.81×,
//! 16 of 16 pairs; parent quartiles 404 / 428) while p50 read 279.0 → 288.5 with the change second and 287.5 → 282.3
//! with it first, the run order's bias either way. Lap 0 of a traced run
//! (seed 1) reads `blocks_popped_per_q` 9.90 → 6.22, `rounds_per_q` 8.95 →
//! 7.11 and `rows_fetched_per_q` 99.28k → 99.37k: the lead shards scan
//! every row where a re-check's certifying shards fetched only their
//! streams' rows. With re-checks off entirely (`RECHECK` = 255, a scratch
//! build; seeds 381–384, alternating with the audit) p95 read 277–350 µs
//! (one noisy run 402) against the audit's 328–348, so the audit takes
//! most of what the re-check cost. A one-shard engine has no sibling floor
//! to audit against, and its re-check stays a stream-first query.
//!
//! Why 3 and 16, over 512 queries per shape (one engine, 4 shards; started
//! lost / of them needless — the query would have certified — / stream
//! phases still paid by queries that scanned):
//!
//! | N, M | anti 100k 6-D, k = 64 (477 scan) | uniform 100k 6-D `aaarrr`, k = 16 (193 scan) |
//! |---|---|---|
//! | 1, 16 | 478 / 34 / 33 | 440 / 279 / 32 |
//! | 2, 16 | 476 / 34 / 35 | 363 / 233 / 63 |
//! | 3, 8 | 439 / 33 / 71 | 121 / 76 / 148 |
//! | **3, 16** | 474 / 34 / 37 | 243 / 161 / 111 |
//! | 3, 32 | 490 / 34 / 21 | 357 / 229 / 65 |
//! | 4, 16 | 472 / 34 / 39 | 108 / 73 / 158 |
//!
//! On a shape that keeps losing, N barely matters and M sets the stream
//! phases still paid (N + 512/M); on a shape that loses one query in three,
//! a longer streak and a shorter re-check both cut the needless scans. A
//! needless scan is cheap at these shard sizes — a uniform 6-D query that
//! certifies costs more than a scan does (p50 283–291 µs against 202–205
//! once the shape starts lost) — so every shape measured gets cheaper or
//! stays put (mean per-query best of three passes, 256 queries, the tree
//! before the history → this one, two alternating rounds): anti 6-D 354 / 335 → 249 / 246 µs,
//! correlated 6-D 322 / 325 → 256 / 246, uniform 6-D `aaarrr` 275 / 277 →
//! 237 / 234, uniform 4-D at 4 500-row shards 36.1 / 36.5 → 35.0 / 35.1,
//! uniform 4-D k = 256 315 / 313 → 311 / 317, anti-correlated 4-D 152 / 152
//! → 151 / 152 (66 of 768 queries scan, never three in a row), and the
//! anchor 74 / 71 → 72 / 74 (none scan). (3, 16) is the middle of that
//! trade; it was also the prototype's.
//!
//! Tried and not taken, the other way to decide before round one: **a
//! scored sample**. Per shard, 8 chunks × 32 rows (1 024 rows) scored with
//! `score_rows`; from the per-stream subscore quantiles at the budget's
//! depth, predict whether τ falls to the estimated floor. It condemned
//! 158–163 of ≈ 237 lost `agg_6d` queries and 0–1 of ≈ 20 friendly ones,
//! and none of 256 anchor queries — but 10 of 256 at 256 sampled rows. It
//! cost 18–29 µs a query, mostly five `select_nth_unstable` passes over
//! 1 024 values, which moved the anchor's mean 89 → 98 µs; end to end on
//! `agg_6d` it read 0.82–0.86× p50 with p95 6–10 % worse. The history costs
//! a hash and two relaxed loads per friendly query, condemns from the
//! fourth query of a shape on, and never touches a shape that does not
//! scan. Nor does a started-lost execution skip assembling its streams:
//! that is 1.7–1.8 µs of a 125 µs execution (1.4 %, a 25 000-row `agg_6d`
//! shard, 256 queries × 3), under the spread of any pair, and the streams'
//! bound is what lets a round head certify an execution under its
//! siblings' floor.
//!
//! **Every strategy is exact**, and since every strategy leaves the
//! canonical answer (score descending, id ascending — see
//! [`rank_cmp`](crate::score::rank_cmp)) in the query's floor, the
//! planner's choice can never
//! change a query result, only its cost. The proptests in
//! `tests/engine_equivalence.rs` pin this across random shard sizes and
//! zero weights, which exercise every branch of the rule.

use std::fmt;

use crate::geometry::Angle;

/// How one repulsive↔attractive pair is physically executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairAction {
    /// Best-first frontier over the pair's §4 index at an indexed angle.
    Frontier,
    /// The same frontier under the Claim 6 bracket, in closed form per
    /// envelope (angle between two indexed angles).
    Bracketed,
    /// Both weights zero: contributes nothing; no stream is assembled.
    Degenerate,
}

impl PairAction {
    /// Short human-readable name (used by `sdq inspect`).
    pub fn name(self) -> &'static str {
        match self {
            PairAction::Frontier => "frontier",
            PairAction::Bracketed => "bracketed-frontier",
            PairAction::Degenerate => "degenerate",
        }
    }
}

/// The planner's decision for one pair, with the angle it read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairPlan {
    /// Repulsive dimension (the tree's `y`).
    pub repulsive: usize,
    /// Attractive dimension (the tree's `x`).
    pub attractive: usize,
    /// Chosen physical strategy.
    pub action: PairAction,
    /// The query's weight angle θ_q for this pair; `None` when both
    /// weights are zero.
    pub theta: Option<Angle>,
}

impl PairPlan {
    /// θ_q as `sdq` prints it (`90.0°`), or `-` for a degenerate pair.
    pub fn theta_label(&self) -> String {
        self.theta
            .map_or_else(|| "-".to_string(), |t| format!("{:.1}°", t.degrees()))
    }
}

/// The full plan of one query against one [`SdIndex`](super::SdIndex).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// `true` when the whole query is one non-degenerate pair with no
    /// leftover dimensions ([`SdIndex::single_pair`](super::SdIndex::single_pair)):
    /// it bypasses the aggregation loop entirely and runs one certified
    /// frontier walk over the pair's §4 index — under an engine, over the
    /// pair's indexes of every shard at once, so every shard's plan says it
    /// (the Claim 6 bracketed path when θ_q is not indexed).
    pub direct: bool,
    /// Per-pair decisions, in pair order.
    pub pairs: Vec<PairPlan>,
    /// Number of unpaired dimensions with a non-zero weight: each adds its
    /// extent's bound to the aggregation's threshold, and none streams.
    pub unpaired_extents: usize,
    /// Rows the aggregation may fetch before it finishes with a kernel scan
    /// ([`scan_budget`] of the index's row count) — sooner when its
    /// threshold gap projects that it will ([`scan_checkpoint`]). Not
    /// consulted by a `direct` plan, which does not aggregate.
    pub scan_budget: usize,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.direct {
            let p = &self.pairs[0];
            return write!(
                f,
                "direct 2-D {} over pair (d{} repulsive, d{} attractive)",
                p.action.name(),
                p.repulsive,
                p.attractive
            );
        }
        write!(f, "aggregate[")?;
        for (i, p) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "(d{},d{})→{} θ_q {}",
                p.repulsive,
                p.attractive,
                p.action.name(),
                p.theta_label()
            )?;
        }
        write!(
            f,
            "] + {} unpaired extent bound(s); kernel scan past {} rows fetched",
            self.unpaired_extents, self.scan_budget
        )
    }
}

/// Rows one aggregation over `n` rows may fetch through its streams before
/// it stops fetching and finishes with a sequential kernel scan of the rows
/// it has not seen: `n / 8`. A fetch costs 8–16 scanned rows (≈ 23 since
/// the fused row kernel; see the module docs for why the constant stays),
/// so by then
/// the fetches have cost at least what scanning everything does: the exit
/// costs the query that would have certified just past the budget about
/// 2×, and never touches one that certifies early. It is the backstop of
/// the exit's other trigger ([`scan_checkpoint`]), which sends an execution
/// the same way as soon as its own threshold gap projects that the budget
/// will be spent. The module docs (the scan exit) hold the measurements and
/// the n/8–n/16–n/32 sweep.
#[inline]
pub fn scan_budget(n: usize) -> usize {
    n / 8
}

/// Fetched rows between two readings of the scan exit's projection
/// ([`scan_budget`]'s second trigger): `budget / 8`, so an execution takes
/// its first reading with an eighth of its budget spent, can leave from
/// the second on, and takes seven at most. The module docs (the scan exit)
/// say why a secant must not span less.
#[inline]
pub fn scan_checkpoint(budget: usize) -> usize {
    (budget / 8).max(1)
}

/// The second trigger of the scan exit: a per-execution projection of where
/// the threshold gap `inflate(τ) − floor` — the quantity whose sign ends a
/// threshold aggregation — will reach zero, read off the gap's own secant.
///
/// A checkpoint falls at the first round with [`scan_checkpoint`]`(budget)`
/// more rows fetched than at the previous one. Each checkpoint after the
/// first draws the secant through the one before it; the execution is lost
/// — it would reach the budget uncertified and scan anyway — when the gap
/// did not shrink over that stretch, or when the secant meets zero past the
/// budget. The cadence is a fraction of the budget and nothing else is
/// chosen; the module docs (the scan exit) hold the trajectories it was
/// read from and the cadences that were rejected.
///
/// Three words, carried by the execution across its steps, so slicing a
/// query into steps differently changes no decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct ScanProbe {
    /// Rows fetched at the last checkpoint.
    rows: u64,
    /// The gap there; `+∞` until a first checkpoint is recorded.
    gap: f64,
    /// Rows fetched at which the next checkpoint is due.
    next: u64,
}

impl ScanProbe {
    /// The probe of one execution under `budget`.
    pub(super) fn new(budget: usize) -> Self {
        ScanProbe {
            rows: 0,
            gap: f64::INFINITY,
            next: scan_checkpoint(budget) as u64,
        }
    }

    /// Consulted once per round of an execution that is still open, with
    /// the rows fetched so far and the current gap: `true` when this round
    /// is a checkpoint and the secant through the previous one says the
    /// streams cannot certify within `budget` fetched rows. A non-finite
    /// gap (no k-th-score floor yet) is no reading: the checkpoint stays due.
    pub(super) fn lost(&mut self, rows: u64, gap: f64, budget: usize) -> bool {
        if rows < self.next || !gap.is_finite() {
            return false;
        }
        let (stretch, shrunk) = (rows - self.rows, self.gap - gap);
        *self = ScanProbe {
            rows,
            gap,
            next: rows + scan_checkpoint(budget) as u64,
        };
        // A first checkpoint has `shrunk == +∞`: it projects certification
        // at `rows` itself, inside any budget the caller still has.
        shrunk <= 0.0 || rows as f64 + gap * stretch as f64 / shrunk > budget as f64
    }
}

/// The rule for one pair with repulsive weight `alpha` and attractive weight
/// `beta`; `indexed` is whether θ_q is an indexed angle of the pair's §4
/// index. The one decision [`SdIndex::plan`](super::SdIndex::plan) reports
/// and the executor runs. Indexed or bracketed walk the same frontier: the
/// bracket is two multiplies and an add per table read, and on the 100k ×
/// 4-D anchor engine (4 shards, k = 16, 512 queries) weights 1° off an
/// indexed angle answer at 1.02× the p50 of weights on it — 81.0 against
/// 79.4 µs, the same 91 blocks popped per query.
pub fn plan_pair(alpha: f64, beta: f64, indexed: bool) -> PairAction {
    if alpha == 0.0 && beta == 0.0 {
        PairAction::Degenerate
    } else if indexed {
        PairAction::Frontier
    } else {
        PairAction::Bracketed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_has_three_cases() {
        assert_eq!(plan_pair(0.0, 0.0, false), PairAction::Degenerate);
        assert_eq!(plan_pair(0.0, 0.0, true), PairAction::Degenerate);
        // One zero weight is θ_q = 0° or 90°, which every index holds.
        assert_eq!(plan_pair(1.0, 0.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(0.0, 2.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(1.0, 1.0, true), PairAction::Frontier);
        assert_eq!(plan_pair(1.0, 0.7, false), PairAction::Bracketed);
    }

    /// Feeds `probe` one reading per round — `per_round` more rows each,
    /// the gap `gap(rows)` — until it trips or `until` rows are fetched;
    /// returns the rows at which it tripped.
    fn trip_point(
        probe: &mut ScanProbe,
        budget: usize,
        per_round: u64,
        until: u64,
        gap: impl Fn(u64) -> f64,
    ) -> Option<u64> {
        (0..=until)
            .step_by(per_round as usize)
            .find(|&rows| probe.lost(rows, gap(rows), budget))
    }

    #[test]
    fn probe_never_trips_on_a_gap_closing_inside_the_budget() {
        // The 4-D anchor's shape (budget 3 125): 0.111 at 315 rows, 0.057
        // at 551, 0.030 at 735, certified near 1 000 — here a parabola
        // through zero at 1 000, and a straight line to the budget's edge.
        let budget = scan_budget(25_000);
        for per_round in [7, 12, 64] {
            let parabola = |rows: u64| 0.25 * (1.0 - rows as f64 / 1_000.0).powi(2);
            let mut probe = ScanProbe::new(budget);
            assert_eq!(
                trip_point(&mut probe, budget, per_round, 1_000, parabola),
                None
            );
            let line = |rows: u64| 1.0 - rows as f64 / 3_100.0;
            let mut probe = ScanProbe::new(budget);
            assert_eq!(trip_point(&mut probe, budget, per_round, 3_100, line), None);
        }
    }

    #[test]
    fn probe_trips_on_flat_and_rising_gaps_at_the_second_checkpoint() {
        let budget = scan_budget(25_000);
        let span = scan_checkpoint(budget) as u64;
        assert_eq!(span, 390);
        for per_round in [7u64, 50, 64] {
            // First checkpoint: the first round at or past `span` rows; the
            // second, the first round `span` rows past that one.
            let first = span.div_ceil(per_round) * per_round;
            let second = first + span.div_ceil(per_round) * per_round;
            let flat = |_| 0.5;
            let rising = |rows: u64| 0.5 + rows as f64 * 1e-6;
            for gap in [&flat as &dyn Fn(u64) -> f64, &rising] {
                let mut probe = ScanProbe::new(budget);
                assert_eq!(
                    trip_point(&mut probe, budget, per_round, budget as u64, gap),
                    Some(second),
                    "{per_round} rows a round"
                );
            }
            // `agg_6d`'s shape: 0.833 at 264 rows, 0.663 at 528, 0.642 at
            // 792, 0.548 at 1 056 — a power law that never gets there, and
            // whose secant says so with half the budget still unspent.
            let slow = |rows: u64| 0.833 * (rows.max(264) as f64 / 264.0).powf(-0.3);
            let mut probe = ScanProbe::new(budget);
            let tripped = trip_point(&mut probe, budget, per_round, budget as u64, slow)
                .expect("a power law trips");
            assert!(
                second < tripped && tripped <= budget as u64 / 2,
                "{per_round} rows a round: tripped at {tripped}"
            );
        }
    }

    #[test]
    fn probe_takes_no_reading_without_a_floor() {
        let budget = scan_budget(25_000);
        // No k-th score until 1 000 rows are in: the gap is +∞ (or NaN, with
        // an infinite τ) and no checkpoint is recorded, however overdue.
        let mut probe = ScanProbe::new(budget);
        let fresh = probe;
        for rows in (0..1_000).step_by(50) {
            assert!(!probe.lost(rows, f64::INFINITY, budget));
            assert!(!probe.lost(rows, f64::NAN, budget));
        }
        assert_eq!(probe, fresh);
        // The first finite reading only records, flat as the gap is …
        assert!(!probe.lost(1_000, 0.5, budget));
        assert!(!probe.lost(1_050, 0.5, budget));
        assert!(!probe.lost(1_350, 0.5, budget));
        // … and the one a whole span later draws the first secant.
        assert!(probe.lost(1_400, 0.5, budget));
    }

    #[test]
    fn probe_under_an_unbounded_budget_never_trips() {
        let mut probe = ScanProbe::new(usize::MAX);
        let tripped = trip_point(&mut probe, usize::MAX, 1_000, 50_000_000, |_| 0.5);
        assert_eq!(tripped, None);
    }
}
