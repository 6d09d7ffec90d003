//! Box order: how an [`SdIndex`](super::SdIndex) that is not one walked
//! pair lays out its rows so the box scan can skip whole chunks of them.
//!
//! The rows are put in *recursive median split* order over all dimensions
//! (the bulk-load idiom of a k-d tree): a run of rows is cut at a median
//! into two runs of whole leaves, each cut again, in the next dimension,
//! until a run is one leaf of [`CHUNK_ROWS`] rows. (Cutting the widest
//! dimension instead skips within two points as many rows on the 6-D
//! benchmark shape, and costs a pass over the rows a cut.) Ties break by row
//! id, so the order is a pure function of the rows; within a leaf the rows
//! stay where the last cut left them (no order the scan relies on). Every
//! [`CHUNK_ROWS`] consecutive positions are then one
//! leaf, and its bounding box — one `(lo, hi)` per dimension, rounded
//! outward to `f32` — bounds the score of every row in it
//! ([`chunk_bounds`]). On scattered rows a chunk's box is a small cell, not
//! the whole space, so a query whose floor is known skips most chunks
//! unscored.
//!
//! The index keeps, beside the moved rows:
//! * `ids` — the row id of each position (what the query floor, the
//!   tombstones and anyone reading rows by id go through);
//! * `boxes` — the chunk boxes, per dimension SoA: dimension `d`'s lows are
//!   `boxes[2d·c..(2d+1)·c]` and its highs the next `c` entries, for `c`
//!   chunks;
//! * `firsts` — each chunk's smallest row id (4 B a chunk): what lets the
//!   scan skip a chunk whose bound only *ties* the floor ([`QueryFloor::worst`](crate::QueryFloor::worst)),
//!   and what breaks ties between equal bounds in the scan's order.
//!
//! An index without a box order (a walked pair's, which the direct 2-D
//! walk answers — a scan only when both its weights are zero) keeps its
//! rows in id order and is scanned as [`CHUNK_ROWS`]-row chunks in that
//! order, each bounded by `0`, every row's exact score then.
//!
//! ## Box first
//!
//! Every query that is not a single pair is one box scan of these chunks
//! (`scan_parts` in the parent module); the engine used to run the paper's
//! §5 pair streams first and leave for this scan when they lost. Measured
//! before that was dropped (a scratch build that forced either start, data
//! seed 7, 256 uniform queries, 5 warmed laps, one pinned CPU of a 2-core
//! VM; p50 µs at 4 row-range shards, 1 shard in brackets):
//!
//! | shape | as shipped then | box first | streams first | BRS |
//! |---|---|---|---|---|
//! | 100k 4-D uniform `arra`, k 16 | 165–221 (134–174) | 39.2–39.7 (35.0–37.2) | 184 (156) | 49–62 |
//! | 100k 6-D anti `aaaarr`, k 64 | 186 (138) | 171 (109) | 503 (705) | 996 |
//! | 100k 6-D correlated `aaaarr`, k 64 | 170 (128) | 172 (120) | 409 (374) | 903 |
//! | 100k 8-D uniform `aararrar`, k 16 | 201 (121) | 198 (122) | 714 (763) | 1 382 |
//!
//! Streams first won on no shape: on the 4-D anchor they fetched fewer rows
//! (2.2k against 2.6k a query) but the per-block frontier walk cost more
//! than the kernel's extra rows. With the scan the only road, an
//! aggregating shard stores no pair block set (≈ 48 of its ≈ 53 B a row),
//! and the repo benchmark, 10 alternating pairs of 15 s runs, read
//! (parent median → this layout's, pairs won):
//!
//! | workload | `query_p50_us` | `query_p95_us` | `mem_bytes_per_row` |
//! |---|---|---|---|
//! | `cold_open_4d` | 70.09 → 21.85 (10/10) | 104.0 → 26.5 (10/10) | 52.94 → 4.69 |
//! | `mixed_rw_4d` | 79.86 → 27.80 (10/10) | 119.4 → 35.3 (10/10) | 52.94 → 4.69 |
//! | `agg_6d` | 100.2 → 90.9 (10/10) | 176.5 → 144.4 (10/10) | 53.19 → 4.94 |
//! | `direct_2d` (a walk) | 7.34 → 7.37 (5/10) | 10.88 → 11.02 (5/10) | 24.26 → 24.26 |
//!
//! ## Cells
//!
//! An engine splits one box order into shards ([`cells`]): the top
//! `⌈log₂ s⌉` levels of the median split of all its rows run once, over
//! every row, with key columns of the cut dimensions only; the subtrees at
//! that depth go to the `s` cells in order, and each cell's build finishes
//! its own split ([`BoxOrder::build_cell`]) with key columns of its rows
//! only. Concatenated in cell order, the cells are the one-shard order —
//! rows, ids, boxes, first ids — and each cell's ids are the engine's. The
//! scan bounds every cell's chunks and picks one lead across them, so `s`
//! cells visit the chunks one index over the same rows visits, in its
//! order. Measured against row-range shards, each box-ordered over its own
//! rows and led on its own (a scratch program: data seed 7, 256 uniform
//! queries, best of four warmed laps a query, one pinned CPU of a 2-core
//! VM, three alternating rounds; the host's speed drifted 1.6× between
//! rounds, so the p50s are the rounds' medians and the ratio the median of
//! the rounds' 4 ÷ 1 ratios):
//!
//! | shape | rows scored a query, 4 / 1 shards | p50 µs, 4 / 1 shards | 4 ÷ 1 |
//! |---|---|---|---|
//! | 100k 4-D uniform `arra`, k 16, row ranges | 2 539 / 871 | 40.6 / 43.3 | 0.94 |
//! | … cells | 871 / 871 | 27.9 / 27.5 | 1.04 |
//! | 100k 6-D anti `aaaarr`, k 64, row ranges | 20 348 / 12 123 | 141.3 / 106.2 | 1.33 |
//! | … cells | 12 123 / 12 123 | 86.3 / 81.3 | 1.05 |
//! | 100k 6-D correlated `aaaarr`, k 64, row ranges | 18 208 / 11 998 | 131.3 / 108.2 | 1.21 |
//! | … cells | 11 998 / 11 998 | 91.5 / 89.7 | 1.01 |
//! | 100k 8-D uniform `aararrar`, k 16, row ranges | 18 202 / 11 544 | 142.1 / 108.8 | 1.30 |
//! | … cells | 11 544 / 11 544 | 78.3 / 57.8 | 1.06 |
//!
//! (The one-shard p50 fell too: the lead is now picked in one filtered pass
//! over the bounds, where each part pushed every reaching chunk and
//! selected among them.)

use crate::threshold::encode as order_key;
use crate::types::Dataset;
use crate::view::ColumnarView;
use crate::DimRole;

/// Rows per leaf of the median split, and so per chunk box. A measured
/// constant, not a knob: 32-row boxes skip more rows but their table costs
/// twice the bytes (CHANGES.md has the sweep). Files record it as the
/// marker of the box order, and a decode refuses any other value.
pub(crate) const CHUNK_ROWS: usize = 64;

/// The box order of one index's rows: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BoxOrder {
    /// Row id of each position.
    pub(crate) ids: ColumnarView<u32>,
    /// Per-dimension chunk boxes, rounded outward (module docs).
    pub(crate) boxes: ColumnarView<f32>,
    /// The smallest row id of each chunk.
    pub(crate) firsts: ColumnarView<u32>,
}

impl BoxOrder {
    /// Puts `data`'s rows in box order: returns the moved rows and the
    /// order (ids and chunk boxes) over them. The one-cell case of
    /// [`BoxOrder::build_cell`].
    pub(crate) fn build(data: &Dataset) -> (Dataset, BoxOrder) {
        let n = data.len();
        Self::build_cell(
            data,
            &Cell {
                ids: (0..n as u32).collect(),
                runs: vec![(0, n, 0)],
            },
        )
    }

    /// Finishes `cell`'s share of the median split of `data` ([`cells`]):
    /// returns the cell's rows, moved into box order, and the order over
    /// them, under the ids of `data`. Its rows, ids, chunk boxes and first
    /// ids are exactly those positions of the split of all of `data`.
    pub(crate) fn build_cell(data: &Dataset, cell: &Cell) -> (Dataset, BoxOrder) {
        let dims = data.dims();
        let (moved, ids) = finish_split(data, cell, CHUNK_ROWS);
        let chunks = ids.len().div_ceil(CHUNK_ROWS);
        let mut boxes = vec![0f32; 2 * dims * chunks];
        let (mut lo, mut hi) = (vec![0.0; dims], vec![0.0; dims]);
        for (c, rows) in moved.chunks(CHUNK_ROWS * dims).enumerate() {
            lo.fill(f64::INFINITY);
            hi.fill(f64::NEG_INFINITY);
            for row in rows.chunks_exact(dims) {
                // Coordinates are finite: plain compares, no NaN handling.
                for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                    *lo = if v < *lo { v } else { *lo };
                    *hi = if v > *hi { v } else { *hi };
                }
            }
            for d in 0..dims {
                boxes[2 * d * chunks + c] = f32_down(lo[d]);
                boxes[(2 * d + 1) * chunks + c] = f32_up(hi[d]);
            }
        }
        let moved = Dataset::from_view_trusted(dims, ColumnarView::owned(moved))
            .expect("the shape of a valid dataset");
        let order = BoxOrder {
            firsts: ColumnarView::owned(chunk_firsts(&ids)),
            ids: ColumnarView::owned(ids),
            boxes: ColumnarView::owned(boxes),
        };
        (moved, order)
    }

    /// Number of chunks.
    pub(crate) fn chunks(&self) -> usize {
        self.ids.len().div_ceil(CHUNK_ROWS)
    }

    /// Marks this order's ids in `met`, one bit an id of an id space of
    /// `rows` ids — an engine's, which its cells share — naming the first
    /// position whose id is out of range or already met.
    pub(crate) fn census(&self, met: &mut [u64], rows: usize) -> Result<(), String> {
        for (pos, &id) in self.ids.iter().enumerate() {
            let in_range = (id as usize) < rows;
            let fresh = in_range && {
                let (word, bit) = (&mut met[id as usize / 64], 1u64 << (id % 64));
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            };
            if !fresh {
                let what = if in_range { "repeated" } else { "out of range" };
                return Err(format!(
                    "position {pos}: row id {id} {what} for {rows} rows"
                ));
            }
        }
        Ok(())
    }

    /// Checks that each chunk's first id is the smallest of its ids (a
    /// decode has checked there is one a chunk).
    pub(crate) fn check_firsts(&self) -> Result<(), String> {
        for (c, (ids, &first)) in self
            .ids
            .chunks(CHUNK_ROWS)
            .zip(self.firsts.iter())
            .enumerate()
        {
            if ids.iter().min() != Some(&first) {
                return Err(format!("chunk {c}: first id {first} is not its smallest"));
            }
        }
        Ok(())
    }

    /// Heap bytes of the id column, the box table and the first ids.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.boxes.heap_bytes() + self.firsts.heap_bytes()
    }
}

/// The smallest id of every [`CHUNK_ROWS`] consecutive ids.
pub(crate) fn chunk_firsts(ids: &[u32]) -> Vec<u32> {
    ids.chunks(CHUNK_ROWS)
        .map(|chunk| chunk.iter().copied().min().unwrap_or(0))
        .collect()
}

/// A run of positions still to cut, `(start, end, depth)`: its cut goes
/// through dimension `depth % dims`.
type Run = (usize, usize, usize);

/// One shard's share of an engine-wide box order: a run of whole leaves of
/// the median split of all the engine's rows, and the runs of it still to
/// cut ([`cells`]). [`SdIndex::build_cell`](super::SdIndex::build_cell)
/// finishes the split of its rows.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's ids, in the order the split's top levels left them.
    ids: Vec<u32>,
    runs: Vec<Run>,
}

/// The most cells `rows` rows make: one a chunk, so that each holds whole
/// leaves (at least one).
pub(crate) fn max_cells(rows: usize) -> usize {
    rows.div_ceil(CHUNK_ROWS).max(1)
}

/// Cuts `data`'s rows into `count` cells (at most one a chunk) by the
/// top `⌈log₂ count⌉` levels of their recursive median split (module docs):
/// the levels every cell shares, run here over all the rows, with key
/// columns of the cut dimensions only. The split's subtrees at that depth
/// (or leaves above it) go to the cells in order, `⌊m/count⌋` or one more
/// each for `m` subtrees — at least `min(leaves, 2^levels)` of them, so no
/// cell is empty. Each cell's build then finishes its own subtrees
/// ([`SdIndex::build_cell`](super::SdIndex::build_cell)), and the cells'
/// rows, ids, boxes and first ids, in cell order, are those of the split of
/// all the rows.
pub fn cells(data: &Dataset, count: usize) -> Vec<Cell> {
    let (dims, n) = (data.dims(), data.len());
    let count = count.clamp(1, max_cells(n));
    let levels = count.next_power_of_two().trailing_zeros() as usize;
    let keys = key_columns(data, 0..n as u32, levels.min(dims));
    let mut order: Vec<u64> = (0..n as u64).collect();
    let mut subtrees = Vec::new();
    cut(
        &mut order,
        &keys,
        dims,
        vec![(0, n, 0)],
        levels,
        CHUNK_ROWS,
        &mut subtrees,
    );
    subtrees.sort_unstable();
    let m = subtrees.len();
    (0..count)
        .map(|j| {
            let group = &subtrees[j * m / count..(j + 1) * m / count];
            let (start, end) = (group[0].0, group[group.len() - 1].1);
            Cell {
                ids: order[start..end].iter().map(|&e| e as u32).collect(),
                runs: group
                    .iter()
                    .map(|&(s, e, depth)| (s - start, e - start, depth))
                    .collect(),
            }
        })
        .collect()
}

/// Finishes the median split of `cell` into leaves of `leaf` rows (module
/// docs): the cell's rows in that order and the id of each. A run of more
/// than one leaf is cut after `⌈leaves / 2⌉` whole leaves, so every leaf
/// but the last is full; the cuts cycle through the dimensions, one a level.
///
/// Only ids move while cutting: each is packed under its row's key in the
/// level's dimension, and one selection cuts the run. The key is the top 32
/// bits of the value's order-preserving key — values that close (a relative
/// 2^-20) count as a tie, and a tie goes by id — so both sides of every cut
/// are a function of the rows alone, and so is the order within a leaf (the
/// selections are deterministic). A cell packs each id's *rank* among its
/// ids instead of the id: rank order is id order, so every selection
/// compares, and so moves, exactly as in the split of all the rows, while
/// the key columns cover the cell's rows only. The rows are moved once, at
/// the end.
fn finish_split(data: &Dataset, cell: &Cell, leaf: usize) -> (Vec<f64>, Vec<u32>) {
    let (dims, flat) = (data.dims(), data.flat());
    let m = cell.ids.len();
    // The cell's ids ascending, and each one's rank among them: one bit an
    // id of `data`, then a count of the bits below each word.
    let mut words = vec![0u64; data.len().div_ceil(64)];
    for &id in &cell.ids {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    let mut ascending = Vec::with_capacity(m);
    let mut below = Vec::with_capacity(words.len());
    for (w, &word) in words.iter().enumerate() {
        below.push(ascending.len() as u32);
        let mut bits = word;
        while bits != 0 {
            ascending.push(w as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    let rank = |id: u32| {
        let (w, bit) = (id as usize / 64, id % 64);
        below[w] + (words[w] & ((1u64 << bit) - 1)).count_ones()
    };
    let mut order: Vec<u64> = cell.ids.iter().map(|&id| u64::from(rank(id))).collect();
    let keys = key_columns(data, ascending.iter().copied(), dims);
    cut(
        &mut order,
        &keys,
        dims,
        cell.runs.clone(),
        usize::MAX,
        leaf,
        &mut Vec::new(),
    );
    let ids: Vec<u32> = order
        .iter()
        .map(|&e| ascending[e as u32 as usize])
        .collect();
    let mut rows = Vec::with_capacity(m * dims);
    for &id in &ids {
        let at = id as usize * dims;
        rows.extend_from_slice(&flat[at..at + dims]);
    }
    (rows, ids)
}

/// The split keys of the rows `ids` names, for the first `columns`
/// dimensions: column `d` holds, at `r`, the key of row `ids[r]` in
/// dimension `d`. The cuts read them at random, and a column of `u32` keys
/// stays in cache where the rows would not.
fn key_columns(
    data: &Dataset,
    ids: impl ExactSizeIterator<Item = u32>,
    columns: usize,
) -> Vec<u32> {
    let (dims, flat, m) = (data.dims(), data.flat(), ids.len());
    let mut keys = vec![0u32; columns * m];
    for (r, id) in ids.enumerate() {
        let row = &flat[id as usize * dims..][..columns];
        for (d, &v) in row.iter().enumerate() {
            keys[d * m + r] = (order_key(v) >> 32) as u32;
        }
    }
    keys
}

/// Cuts `runs` of `order` — entries whose low 32 bits index the key
/// columns `keys` — into leaves of `leaf` rows, each cut at its depth's
/// dimension; a run that is one leaf, or reaches depth `until`, is left
/// whole and pushed to `left`.
fn cut(
    order: &mut [u64],
    keys: &[u32],
    dims: usize,
    mut runs: Vec<Run>,
    until: usize,
    leaf: usize,
    left: &mut Vec<Run>,
) {
    let m = order.len();
    while let Some((start, end, depth)) = runs.pop() {
        let run = &mut order[start..end];
        let len = run.len();
        if len <= leaf || depth >= until {
            left.push((start, end, depth));
            continue;
        }
        let column = &keys[(depth % dims) * m..(depth % dims + 1) * m];
        for e in run.iter_mut() {
            let at = *e as u32;
            *e = u64::from(column[at as usize]) << 32 | u64::from(at);
        }
        let cut = len.div_ceil(leaf).div_ceil(2) * leaf;
        run.select_nth_unstable(cut);
        runs.push((start + cut, end, depth + 1));
        runs.push((start, start + cut, depth + 1));
    }
}

/// The largest `f32` at or below `v` (`-∞` below `f32`'s range).
pub(crate) fn f32_down(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) > v {
        f.next_down()
    } else {
        f
    }
}

/// The smallest `f32` at or above `v` (`+∞` above `f32`'s range).
pub(crate) fn f32_up(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) < v {
        f.next_up()
    } else {
        f
    }
}

/// The most one dimension can add to the score of a row whose coordinate
/// lies in `[lo, hi]`, under query coordinate `q` and weight `w > 0`:
/// `w·max(|hi − q|, |q − lo|)` for a repulsive dimension, `−w·dist(q, [lo,
/// hi])` for an attractive one. Each term is computed as the kernels compute
/// a row's — one subtraction, one product — and rounding is monotone, so it
/// is never below the term of any row in the box, whatever the rounding.
/// A zero weight must be left out by the caller: the kernels' term is then
/// `±0`, and an infinite box would make `0·∞`.
#[inline]
pub(crate) fn box_term(role: DimRole, lo: f64, hi: f64, q: f64, w: f64) -> f64 {
    match role {
        DimRole::Repulsive => w * (hi - q).abs().max((q - lo).abs()),
        DimRole::Attractive => -(w * (lo - q).max(q - hi).max(0.0)),
    }
}

/// Every chunk's score bound under `(roles, q, weights)`, appended to
/// `bounds` (one entry per chunk of `order`): the sum from `0.0` of [`box_term`] over the
/// dimensions with a non-zero weight, in dimension order — the order and
/// the association in which [`kernels::score_rows`](crate::kernels::score_rows)
/// sums a row's terms, and a row's term of a zero-weight dimension is `±0`.
/// Each partial sum is at least the row's, since addition rounds monotonely
/// in each argument, so no row of a chunk scores above its bound.
pub(crate) fn chunk_bounds(
    order: &BoxOrder,
    roles: &[DimRole],
    q: &[f64],
    weights: &[f64],
    bounds: &mut Vec<f64>,
) {
    let chunks = order.chunks();
    let from = bounds.len();
    bounds.resize(from + chunks, 0.0);
    let bounds = &mut bounds[from..];
    for (d, (&role, (&q, &w))) in roles.iter().zip(q.iter().zip(weights)).enumerate() {
        if w == 0.0 {
            continue;
        }
        let lows = &order.boxes[2 * d * chunks..(2 * d + 1) * chunks];
        let highs = &order.boxes[(2 * d + 1) * chunks..(2 * d + 2) * chunks];
        for ((b, &lo), &hi) in bounds.iter_mut().zip(lows).zip(highs) {
            *b += box_term(role, f64::from(lo), f64::from(hi), q, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::types::MAX_MAGNITUDE;
    use proptest::prelude::*;

    fn dataset(dims: usize, rows: &[f64]) -> Dataset {
        Dataset::from_flat(dims, rows.to_vec()).unwrap()
    }

    /// Every id once, every leaf but the last full, rows moved with their
    /// ids, boxes around their chunks — and the same order twice.
    #[test]
    fn order_is_a_permutation_with_covering_boxes() {
        for n in [0usize, 1, 63, 64, 65, 200, 1000, 4097] {
            let dims = 3;
            let rows: Vec<f64> = (0..n * dims)
                .map(|i| ((i * 7919) % 1013) as f64 * 0.37 - 100.0)
                .collect();
            let data = dataset(dims, &rows);
            let (moved, order) = BoxOrder::build(&data);
            assert_eq!(order.ids.len(), n);
            let mut ids = order.ids.to_vec();
            ids.sort_unstable();
            assert!(ids.iter().copied().eq(0..n as u32), "a permutation");
            for (pos, &id) in order.ids.iter().enumerate() {
                let at = pos * dims;
                assert_eq!(
                    &moved.flat()[at..at + dims],
                    data.point(crate::PointId::new(id))
                );
            }
            let chunks = order.chunks();
            for (c, rows) in moved.flat().chunks(CHUNK_ROWS * dims).enumerate() {
                for (l, row) in rows.chunks(dims).enumerate() {
                    for (d, &v) in row.iter().enumerate() {
                        let lo = f64::from(order.boxes[2 * d * chunks + c]);
                        let hi = f64::from(order.boxes[(2 * d + 1) * chunks + c]);
                        assert!(lo <= v && v <= hi, "chunk {c} row {l} dim {d}");
                    }
                }
            }
            let (again, order2) = BoxOrder::build(&data);
            assert_eq!(again.flat(), moved.flat());
            assert_eq!(&order2.ids[..], &order.ids[..]);
        }
    }

    /// On scattered rows a chunk is a cell: its mean box spans a small part
    /// of each dimension (insertion order spans nearly all of it).
    #[test]
    fn chunks_are_cells() {
        let n = 20_000;
        let rows: Vec<f64> = (0..n * 4)
            .map(|i| ((i as u64 * 2_654_435_761) % 1_000_003) as f64 / 1_000_003.0)
            .collect();
        let (_, order) = BoxOrder::build(&dataset(4, &rows));
        let chunks = order.chunks();
        let mut volume = 0.0;
        for c in 0..chunks {
            volume += (0..4)
                .map(|d| order.boxes[(2 * d + 1) * chunks + c] - order.boxes[2 * d * chunks + c])
                .product::<f32>();
        }
        let mean = volume / chunks as f32;
        assert!(mean < 0.01, "mean chunk volume {mean}");
    }

    #[test]
    fn outward_rounding_brackets_every_value() {
        let huge = MAX_MAGNITUDE;
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            -1.0 / 3.0,
            5e-324,
            -5e-324,
            1e39,
            -1e39,
            huge,
            -huge,
        ] {
            let (lo, hi) = (f64::from(f32_down(v)), f64::from(f32_up(v)));
            assert!(lo <= v && v <= hi, "{v}: [{lo}, {hi}]");
        }
        assert_eq!(f32_up(huge), f32::INFINITY);
        assert_eq!(f32_down(-huge), f32::NEG_INFINITY);
        assert_eq!(f32_down(huge), f32::MAX);
        assert_eq!(f32_up(-huge), -f32::MAX);
    }

    /// Coordinates from every corner of the legal range: ±0, ±2^500 (boxes
    /// at ±∞), tiny and ordinary values, and repeats of one row.
    fn coordinate() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(MAX_MAGNITUDE),
            Just(-MAX_MAGNITUDE),
            Just(5e-324),
            -1e3..1e3f64,
            -1e40..1e40f64,
        ]
    }

    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(MAX_MAGNITUDE), 0.0..10.0f64, Just(1e-300)]
    }

    // No row of a chunk scores above the chunk's bound, under every kernel
    // arm, whatever the coordinates, the weights and the roles.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn chunk_bound_is_at_least_every_row_score(
            dims in 1usize..7,
            seed_rows in proptest::collection::vec(coordinate(), 1..400),
            dup in 0u8..2,
            q_seed in proptest::collection::vec(coordinate(), 7),
            w_seed in proptest::collection::vec(weight(), 7),
            role_bits in 0u8..=255,
        ) {
            let n = seed_rows.len() / dims;
            prop_assume!(n > 0);
            let mut rows = seed_rows[..n * dims].to_vec();
            if dup == 1 {
                // Every row a copy of the first: one box of zero width.
                let first = rows[..dims].to_vec();
                for row in rows.chunks_mut(dims) {
                    row.copy_from_slice(&first);
                }
            }
            let data = dataset(dims, &rows);
            let roles: Vec<DimRole> = (0..dims)
                .map(|d| if role_bits >> d & 1 == 1 { DimRole::Repulsive } else { DimRole::Attractive })
                .collect();
            let (q, w) = (&q_seed[..dims], &w_seed[..dims]);
            let sw: Vec<f64> = roles.iter().zip(w).map(|(r, w)| r.sign() * w).collect();
            let (moved, order) = BoxOrder::build(&data);
            let mut bounds = Vec::new();
            chunk_bounds(&order, &roles, q, w, &mut bounds);
            let mut over = None;
            kernels::tests::with_each_isa(|| {
                let mut scores = [0.0; kernels::LANES];
                for (piece, run) in moved.flat().chunks(kernels::LANES * dims).enumerate() {
                    let count = run.len() / dims;
                    kernels::score_rows(&mut scores[..count], run, dims, q, &sw, f64::NEG_INFINITY);
                    for (l, &s) in scores[..count].iter().enumerate() {
                        let pos = piece * kernels::LANES + l;
                        let bound = bounds[pos / CHUNK_ROWS];
                        if s > bound && over.is_none() {
                            over = Some((pos, s, bound, kernels::active().name()));
                        }
                    }
                }
            });
            prop_assert!(over.is_none(), "a row scores over its chunk's bound: {over:?}");
        }
    }
}
