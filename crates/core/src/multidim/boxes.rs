//! Box order: how every [`SdIndex`](super::SdIndex), whatever its roles,
//! lays out its rows, and the tree over them the box scan walks so it can
//! skip whole subtrees of rows; and the 64-row chunks every index is
//! scanned by.
//!
//! The rows are put in *recursive median split* order over all dimensions
//! (the bulk-load idiom of a k-d tree): a run of rows is cut at a median
//! into two runs of whole leaves, each cut again, in the next dimension,
//! until a run is one leaf of [`CHUNK_ROWS`] rows. A run of `L` leaves is
//! cut after `⌈L/2⌉`, so the shape of the split is a function of the chunk
//! count alone. (Cutting the widest dimension instead skips within two
//! points as many rows on the 6-D benchmark shape, and costs a pass over
//! the rows a cut.) Ties break by row id, so the order is a pure function
//! of the rows; within a leaf the rows stay where the last cut left them
//! (no order the scan relies on). Every [`CHUNK_ROWS`] consecutive
//! positions are then one leaf — a chunk.
//!
//! Every index keeps beside its rows:
//! * `ids` — the row id of each position (what the query floor, the
//!   tombstones and anyone reading rows by id go through);
//! * `firsts` — each chunk's smallest row id (4 B a chunk): what lets the
//!   scan skip a chunk whose bound only *ties* the floor ([`QueryFloor::worst`](crate::QueryFloor::worst)),
//!   and what breaks ties between equal bounds in the scan's order.
//!
//! ## The box tree
//!
//! Every index keeps the split's tree above them ([`BoxTree`]),
//! stored every 4th level: the nodes at global depths 4, 8, … of the split
//! of *all* the engine's rows, so a stored node has up to 16 children — its
//! descendants four cuts below it that hold a chunk: a chunk, or the node
//! above two chunks or more. Each stored node keeps an outward-rounded
//! `f32` box (one `(lo, hi)` a dimension) and its smallest id. A box bounds
//! the score of every row in it ([`box_bound`]).
//!
//! The top stored level of a cell is its subtrees at the first depth of 4,
//! 8, … at or below the cell's own; each is a *group*, and a file records
//! the tree's shape as the chunk count of each group, in order. Below a
//! group's top node, the nodes on one level hold `⌊L/16^l⌋` chunks or one
//! more, so where a node sits in the tables is arithmetic on its place in
//! the split ([`BoxTree::children`]): nothing is derived at open but the
//! groups' starts. A query reads a node's children only when it holds
//! more than 256 chunks ([`FLAT`]) — a group of a cell of over 262 144
//! rows — so a group of at most that many stores its top node alone, and a
//! larger one the levels down to nodes of at most 256 chunks. Per 100k 4-D
//! rows (1 563 chunks): 16 nodes on one level, 0.6 KB of node boxes and
//! first ids, and 12.5 KB of codes, where the chunks' `f32` boxes took 50
//! KB (the 256 level-1 nodes it stored until no query read them were
//! another 9.2 KB, ≈ 0.09 B a row).
//!
//! Each chunk's box is stored as two `u8` codes a dimension inside the box
//! of its *group*, decoded outward ([`decode`]): `plo + lo·step` and `phi −
//! (255 − hi)·step`, `step` 1/255 of the group's width. The build codes each
//! chunk's outward `f32` box tightly and checks every code through that one
//! decode; codes 0 and 255 decode to the group's own sides exactly, which is
//! the fallback when no tighter code holds — a group box at ±∞ or of zero
//! width. Coding inside the group rather than inside the nearest stored
//! node costs a chunk's box at most 1/255 of its group's width a side, and
//! lets a scan bound all the chunks of a group, or of any node, in one
//! pass, a dimension at a time, with one step a dimension
//! ([`BoxTree::run_bounds`], which AVX2 runs four lanes a step). Coded
//! inside the nearest stored node, a pass took one short run a node and a
//! dimension, and on the `agg_6d` shape (100k 6-D anti-correlated rows,
//! k 64) those runs cost more than the rows the tree spared. The looser
//! boxes cost that shape 2.3 % more chunks scored (199.7 against 195.3 a
//! query with the chunks' own `f32` boxes, 512 queries).
//!
//! The scan (`scan_parts` in the parent module) walks this tree over every
//! part of a query at once: best first from the top stored level of every
//! part until [`LEAD_CHUNKS`](super::LEAD_CHUNKS) chunks are scored (the
//! *lead*, raising the floor) — a node of at most 256 chunks taken by
//! bounding its chunks in one pass, a larger one through its children —
//! then the sweep: every node that still reaches the floor, down to nodes
//! of at most 256 chunks, each such node's chunks bounded once (the
//! descent's bounds kept), and its chunks scored in row order, the upper
//! half first. Neither bounds a group it never reaches, so on scattered
//! rows a query's cost follows the rows it can use, not the rows there
//! are.
//!
//! Measured against the flat scan it replaced — every chunk of every part
//! bounded from its `f32` box, a lead cut out of the bounds, two row-order
//! sweeps — on scratch builds of both (data seed 7, 4 cells, 256 uniform
//! queries run in turn, eight rounds, the best of four untimed rounds a
//! query, one pinned CPU of a 2-core VM; medians of three alternating
//! runs):
//!
//! | shape | flat scan p50 / p95 µs | tree p50 / p95 µs | boxes bounded, tree | chunks scored, flat → tree |
//! |---|---|---|---|---|
//! | 100k 4-D uniform `arra`, k 16 | 16.7 / 20.3 | 10.6 / 15.8 | 275 | 13.6 → 14.1 |
//! | 1M 4-D uniform `arra`, k 16 | 128.4 / 157.6 | 19.3 / 32.9 | 317 | 17.2 → 18.1 |
//! | 100k 6-D anti `aaaarr`, k 64 | 57.3 / 82.5 | 61.8 / 91.9 | 1 255 | 189.5 → 193.8 |
//!
//! So the tree wins where its boxes prune and loses a little where they do
//! not: on 6-D anti-correlated rows four groups in five still reach the
//! floor after the lead, so the scan bounds about as many chunks as the
//! flat scan did, each from codes (7 ns a chunk against the `f32` boxes'
//! 5–6), and scores the 2.3 % more chunks the looser boxes let through.
//! Walks that took a group's 16 children before its chunks bounded fewer
//! boxes (918 against 1 595 on CI's 4-D anchor) and ran `agg_6d` 9.0 %
//! (children first), 10.6 % (descent by children, sweep by groups) and
//! 13.7 % (descent and sweep by children, best group first; 5 pairs each
//! for these two) slower than the flat scan, where this one runs it 3.5 %
//! slower. The repo benchmark,
//! 10 interleaved pairs of 6 s runs (parent median (IQR) → this tree's,
//! pairs won):
//!
//! | workload | `query_p50_us` | `query_p95_us` | `mem_bytes_per_row` |
//! |---|---|---|---|
//! | `cold_open_4d` | 16.32 (0.97) → 9.81 (10/10) | 19.31 (1.19) → 14.69 (10/10) | 4.688 → 4.413 |
//! | `mixed_rw_4d` | 18.68 (0.86) → 12.86 (10/10) | 22.45 (1.22) → 18.58 (10/10) | 4.688 → 4.413 |
//! | `agg_6d` | 58.93 (3.61) → 61.00 (3/10) | 95.16 (9.94) → 99.32 (2/10) | 4.938 → 4.519 |
//! | `direct_2d` (a walk) | 7.36 (0.57) → 7.37 (5/10) | 11.00 (0.60) → 11.03 (5/10) | 8.195 → 8.195 |
//!
//! A 2-D index of one attractive and one repulsive dimension was the last
//! one stored otherwise: its rows in the §4 tile order under the pair's
//! envelope tree, answered by the certified §4 walk (now `sdq-paper`'s
//! `BlockIndex`). Stored in box order like the rest, on the same benchmark
//! (a scratch build of the parent with every roles box-ordered, 6
//! interleaved pairs of 10–30 s runs, parent → box order, pairs won):
//!
//! | workload | `query_p50_us` | `query_p95_us` | `mem_bytes_per_row` |
//! |---|---|---|---|
//! | `direct_2d`, 4 cells | 7.04–7.34 → 5.86–6.32 (6/6) | 10.5–11.0 → 8.4–9.1 | 8.19 → 4.28 |
//!
//! ## Box first
//!
//! Every query is one box scan of these chunks (`scan_parts` in the parent
//! module); the engine used to run the paper's §5 pair streams first and leave for this scan when they lost. Measured
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
//! An engine splits one box order into shards ([`split`]): the top
//! `⌈log₂ s⌉` levels of the median split of all its rows run once, over
//! every row, with key columns of the cut dimensions only; the subtrees at
//! that depth go to the `s` cells in order, and each cell's build finishes
//! its own split ([`finish_split`]) with key columns of its rows only.
//! Concatenated in cell order, the cells are the one-shard order — rows,
//! ids, codes, first ids — and each cell's ids are the engine's. A cell of
//! an engine of up to 16 shards is a union of whole depth-4 subtrees, so
//! its groups are the one-shard index's, its stored nodes theirs: the scan
//! walks `s` such cells as the one index over the same rows, bounding and
//! scoring exactly what it does, in its order. Measured against row-range
//! shards, each box-ordered over its own rows and led on its own (a scratch
//! program: data seed 7, 256 uniform queries, best of four warmed laps a
//! query, one pinned CPU of a 2-core VM, three alternating rounds; the
//! host's speed drifted 1.6× between rounds, so the p50s are the rounds'
//! medians and the ratio the median of the rounds' 4 ÷ 1 ratios):
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
//! (Those cells were scanned by bounding every chunk of every cell, then
//! one lead picked across all the bounds and two row-order sweeps: the flat
//! scan the tree replaced.)

use crate::threshold::encode as order_key;
use crate::types::Dataset;
use crate::view::ColumnarView;
use crate::DimRole;

/// Rows per leaf of the median split, and so per chunk box. A measured
/// constant, not a knob: 32-row boxes skip more rows but their table costs
/// twice the bytes (CHANGES.md has the sweep). Files record it as the
/// marker of the box order, and a decode refuses any other value.
pub(crate) const CHUNK_ROWS: usize = 64;

/// Cuts of the split from one stored level to the next: a stored node's
/// children are its descendants this many cuts below it.
const STRIDE: u32 = 4;

/// The children a stored node has, when it has any: every node a walk
/// splits holds more than [`FLAT`] chunks, and each of its descendants
/// [`STRIDE`] cuts below it holds 16 or more.
pub(crate) const FANOUT: usize = 1 << STRIDE;

/// The most chunks under a node whose chunks a walk bounds in one pass
/// rather than through its children: every group of an index of up to
/// 262 144 rows (16 groups of 256 chunks). No walk reads the children of
/// such a node, so none is stored ([`level_nodes`]).
pub(crate) const FLAT: usize = FANOUT * FANOUT;

/// The chunk boxes of `rows` (row-major, `dims` coordinates a row), each
/// rounded outward: chunk `c`'s `(lo, hi)` in dimension `d` at `2(c·dims +
/// d)`. What the build codes into the tree (module docs); no index keeps
/// them.
pub(crate) fn chunk_boxes(rows: &[f64], dims: usize) -> Vec<f32> {
    let chunks = rows.len().div_ceil(CHUNK_ROWS * dims);
    let mut boxes = vec![0f32; 2 * dims * chunks];
    let (mut lo, mut hi) = (vec![0.0; dims], vec![0.0; dims]);
    for (rows, out) in rows
        .chunks(CHUNK_ROWS * dims)
        .zip(boxes.chunks_exact_mut(2 * dims))
    {
        lo.fill(f64::INFINITY);
        hi.fill(f64::NEG_INFINITY);
        for row in rows.chunks_exact(dims) {
            // Coordinates are finite: plain compares, no NaN handling.
            for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                *lo = if v < *lo { v } else { *lo };
                *hi = if v > *hi { v } else { *hi };
            }
        }
        for (d, side) in out.chunks_exact_mut(2).enumerate() {
            side[0] = f32_down(lo[d]);
            side[1] = f32_up(hi[d]);
        }
    }
    boxes
}

/// The smallest id of every [`CHUNK_ROWS`] consecutive ids.
pub(crate) fn chunk_firsts(ids: &[u32]) -> Vec<u32> {
    ids.chunks(CHUNK_ROWS)
        .map(|chunk| chunk.iter().copied().min().unwrap_or(0))
        .collect()
}

/// Checks that each chunk's first id is the smallest of its ids (a decode
/// has checked there is one a chunk).
pub(crate) fn check_firsts(ids: &[u32], firsts: &[u32]) -> Result<(), String> {
    for (c, (ids, &first)) in ids.chunks(CHUNK_ROWS).zip(firsts).enumerate() {
        if ids.iter().min() != Some(&first) {
            return Err(format!("chunk {c}: first id {first} is not its smallest"));
        }
    }
    Ok(())
}

/// The run of chunks `cuts` levels of the split below a run of `len`
/// chunks from `p`, `j` naming the turns from the top (a set bit is the
/// right side): `(p, len)` of its chunks. A run is cut after `⌈len / 2⌉`
/// chunks; a run of one chunk, cut again, keeps it on the left and leaves
/// the right empty.
#[inline]
fn descend(mut p: u32, mut len: u32, j: u32, cuts: u32) -> (u32, u32) {
    for b in (0..cuts).rev() {
        let left = len.div_ceil(2);
        if j >> b & 1 == 1 {
            p += left;
            len -= left;
        } else {
            len = left;
        }
    }
    (p, len)
}

/// The stored nodes on `level` of a group of `len` chunks: the group's top
/// node on level 0, and below it all `16^level` nodes of a level whose
/// parents hold more than [`FLAT`] chunks — `len > 16^(level + 1)` — and
/// none otherwise: a node of at most `FLAT` chunks is bounded by its chunks,
/// never through its children. The split keeps every run within one chunk
/// of its siblings, so each node of a stored level holds `⌊len / 16^level⌋`
/// chunks or one more, 16 or more.
fn level_nodes(len: u32, level: u32) -> u64 {
    if level == 0 {
        return 1;
    }
    match 1u64.checked_shl(STRIDE * (level + 1)) {
        Some(parents) if u64::from(len) > parents => 1 << (STRIDE * level),
        _ => 0,
    }
}

/// Stored nodes on the levels above `level` of a group of `len` chunks.
fn level_start(len: u32, level: u32) -> u64 {
    (0..level).map(|l| level_nodes(len, l)).sum()
}

/// Stored levels of a group of `len` chunks, and its nodes on them.
fn group_shape(len: u32) -> (u32, u64) {
    let counts = (0..).map(|l| level_nodes(len, l)).take_while(|&n| n > 0);
    counts.fold((0, 0), |(levels, nodes), n| (levels + 1, nodes + n))
}

/// A stored node met by a walk: its group, its level below the group's top
/// node, its place `m` among the `16^level` nodes of that level, its chunks
/// `[p, p + len)` of the index and its place in the node tables.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Node {
    pub(crate) group: u32,
    level: u32,
    m: u32,
    pub(crate) p: u32,
    pub(crate) len: u32,
    pub(crate) index: u32,
}

/// What a walk's heap holds: a chunk, or a stored node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Child {
    /// A chunk, by its index in the index's chunks.
    Chunk(u32),
    /// A stored node.
    Node(Node),
}

/// What a box's score bound is taken under: the roles and the query's
/// point and weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoxQuery<'a> {
    pub(crate) roles: &'a [DimRole],
    pub(crate) q: &'a [f64],
    pub(crate) w: &'a [f64],
}

/// The stored levels of the median split over one index's chunks (module
/// docs): the nodes at every 4th global depth, each an outward `f32` box
/// and its smallest id, and each chunk's box as `u8` codes inside the box
/// of its group — the node on the top stored level above it.
#[derive(Debug, Clone)]
pub(crate) struct BoxTree {
    /// The chunks under each group — a node on the index's top stored
    /// level — in order: all a file records of the tree's shape.
    pub(crate) groups: Vec<u32>,
    /// Where each group's chunks and nodes start, and past the last: read
    /// off `groups`.
    starts: Vec<(u32, u32)>,
    /// The node boxes — each group's nodes level by level, in split order
    /// within a level — rounded outward, one block a level of a group
    /// ([`BoxTree::block`]): of `n` nodes from node `s`, the `r`-th node's
    /// low in dimension `d` at `2·dims·s + 2d·n + r` and its high `n`
    /// further, so a node's children that are nodes are read a dimension at
    /// a time. (A group's top node is a block of one.)
    pub(crate) boxes: ColumnarView<f32>,
    /// Each node's smallest id: what breaks ties in the descent's order and
    /// lets a walk skip a node that only ties the floor.
    pub(crate) firsts: ColumnarView<u32>,
    /// Each chunk's box as codes inside its group's ([`decode`]), per
    /// dimension SoA: of `n` chunks, dimension `d`'s low codes at `2d·n`
    /// and its high codes the next `n` — so the chunks under one node, one
    /// run of positions, are read a dimension at a time.
    pub(crate) codes: ColumnarView<u8>,
}

impl BoxTree {
    /// The tree of an index whose rows the split of `cell` left in `rows`
    /// (row-major, `dims` a row), with `firsts` each chunk's smallest id:
    /// every node's box the union of its children's, every code the
    /// tightest inside its group's box whose decoded box still holds its
    /// chunk's `f32` box ([`encode`]).
    pub(crate) fn build(rows: &[f64], dims: usize, firsts: &[u32], cell: &Cell) -> Self {
        let groups = groups(&cell.runs);
        let starts = starts(&groups).expect("a tree of whole chunks");
        let nodes = starts.last().map_or(0, |s| s.1 as usize);
        let mut build = Build {
            dims,
            chunk_boxes: chunk_boxes(rows, dims),
            chunk_firsts: firsts,
            boxes: vec![0f32; 2 * dims * nodes],
            firsts: vec![0u32; nodes],
            codes: vec![0u8; 2 * dims * firsts.len()],
        };
        let mut tree = BoxTree {
            groups,
            starts,
            boxes: ColumnarView::owned(Vec::new()),
            firsts: ColumnarView::owned(Vec::new()),
            codes: ColumnarView::owned(Vec::new()),
        };
        for top in tree.tops() {
            build.node(&tree, top);
            build.codes(&top);
        }
        tree.boxes = ColumnarView::owned(build.boxes);
        tree.firsts = ColumnarView::owned(build.firsts);
        tree.codes = ColumnarView::owned(build.codes);
        tree
    }

    /// The tree over `groups` of `chunks` chunks in `dims` dimensions, with
    /// its node tables and codes as a file holds them; refuses tables that
    /// do not fit the shape, which a decode then reports as corrupt.
    pub(crate) fn from_parts(
        groups: Vec<u32>,
        chunks: usize,
        dims: usize,
        (boxes, firsts, codes): (ColumnarView<f32>, ColumnarView<u32>, ColumnarView<u8>),
    ) -> Result<Self, String> {
        if let Some(g) = groups.iter().position(|&len| len == 0) {
            return Err(format!("box tree: group {g} holds no chunk"));
        }
        let starts = starts(&groups).ok_or("box tree: more than 2^32 chunks or nodes")?;
        let (held, nodes) = starts
            .last()
            .map_or((0, 0), |&(c, n)| (c as usize, n as usize));
        let want = [
            ("chunks under its groups", held, chunks),
            ("node box bounds", boxes.len(), 2 * dims * nodes),
            ("node first ids", firsts.len(), nodes),
            ("chunk codes", codes.len(), 2 * dims * chunks),
        ];
        if let Some((what, got, want)) = want.into_iter().find(|w| w.1 != w.2) {
            return Err(format!("box tree: {got} {what}, expected {want}"));
        }
        Ok(BoxTree {
            groups,
            starts,
            boxes,
            firsts,
            codes,
        })
    }

    /// Checks that each node's first id is the smallest of its children's,
    /// or of its chunks' for a node of at most [`FLAT`] chunks
    /// (`chunk_firsts` each chunk's).
    pub(crate) fn check_firsts(&self, chunk_firsts: &[u32]) -> Result<(), String> {
        let mut stack: Vec<Node> = self.tops().collect();
        let mut kids = [Node::default(); FANOUT];
        while let Some(node) = stack.pop() {
            let least = if node.len as usize <= FLAT {
                let (p, len) = (node.p as usize, node.len as usize);
                chunk_firsts[p..p + len].iter().copied().min()
            } else {
                self.children(&node, &mut kids);
                stack.extend(kids);
                kids.iter().map(|kid| self.firsts[kid.index as usize]).min()
            };
            let first = self.firsts[node.index as usize];
            if least != Some(first) {
                return Err(format!(
                    "box tree node {}: first id {first} is not its smallest",
                    node.index
                ));
            }
        }
        Ok(())
    }

    /// Nodes, and stored levels — the most any group has.
    pub(crate) fn shape(&self) -> (usize, usize) {
        let levels = self.groups.iter().map(|&len| group_shape(len).0);
        let nodes = self.starts.last().map_or(0, |s| s.1 as usize);
        (nodes, levels.max().unwrap_or(0) as usize)
    }

    /// Bytes of the node boxes, their first ids and the chunk codes.
    pub(crate) fn table_bytes(&self) -> usize {
        self.boxes.heap_bytes() + self.firsts.heap_bytes() + self.codes.heap_bytes()
    }

    /// Heap bytes: the tables, and the shape.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.table_bytes()
            + self.groups.capacity() * std::mem::size_of::<u32>()
            + self.starts.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Entries a walk can meet: every node and every chunk once.
    pub(crate) fn entries(&self) -> usize {
        self.starts.last().map_or(0, |&(c, n)| (c + n) as usize)
    }

    /// The top node of every group, in order.
    pub(crate) fn tops(&self) -> impl Iterator<Item = Node> + '_ {
        self.groups
            .iter()
            .zip(&self.starts)
            .enumerate()
            .map(|(g, (&len, &(p, index)))| Node {
                group: g as u32,
                level: 0,
                m: 0,
                p,
                len,
                index,
            })
    }

    /// The children of `node`, a node of more than [`FLAT`] chunks, into
    /// `kids`, in split order: its descendants [`STRIDE`] cuts below it,
    /// each a stored node of 16 chunks or more.
    #[inline]
    pub(crate) fn children(&self, node: &Node, kids: &mut [Node; FANOUT]) {
        debug_assert!(node.len as usize > FLAT, "a flat node has no children");
        // The node's runs `STRIDE` cuts down, cut a level at a time in
        // place: after level `l`, run `i` of `2^(l+1)` is the `i`-th.
        let mut runs = [(0u32, 0u32); FANOUT];
        runs[0] = (node.p, node.len);
        for level in 0..STRIDE {
            for i in (0..1usize << level).rev() {
                let (p, len) = runs[i];
                let left = len.div_ceil(2);
                runs[2 * i] = (p, left);
                runs[2 * i + 1] = (p + left, len - left);
            }
        }
        let g = node.group as usize;
        let level = node.level + 1;
        // Below the top, a group's nodes number under 2^32: they index a table.
        let base = self.starts[g].1 + level_start(self.groups[g], level) as u32;
        for (j, (&(p, len), kid)) in runs.iter().zip(kids).enumerate() {
            let m = node.m * FANOUT as u32 + j as u32;
            *kid = Node {
                group: node.group,
                level,
                m,
                p,
                len,
                index: base + m,
            };
        }
    }

    /// The nodes on `level` of group `g`: where the first sits in the node
    /// tables, and how many there are. Their boxes are one block, per
    /// dimension the nodes' lows, then their highs.
    #[inline]
    fn block(&self, g: usize, level: u32) -> (usize, usize) {
        let len = self.groups[g];
        let start = u64::from(self.starts[g].1) + level_start(len, level);
        (start as usize, level_nodes(len, level) as usize)
    }

    /// The score bound of stored node `node`, from its box ([`box_bound`]).
    #[inline]
    pub(crate) fn node_bound(&self, node: &Node, at: &BoxQuery<'_>) -> f64 {
        let dims = at.roles.len();
        let (start, count) = self.block(node.group as usize, node.level);
        let r = node.index as usize - start;
        let sides = &self.boxes[2 * dims * start..][..2 * dims * count];
        box_bound(at, |d| {
            let lo = 2 * d * count + r;
            (f64::from(sides[lo]), f64::from(sides[lo + count]))
        })
    }

    /// The score bound of each of `kids`, the children of `node`
    /// ([`BoxTree::children`]), into `bounds`, from their boxes — per child
    /// the sum [`box_bound`] takes, in its order, so each is its
    /// [`BoxTree::node_bound`]. A dimension at a time, for every child at
    /// once: the children are one block of the node tables.
    pub(crate) fn child_bounds(
        &self,
        node: &Node,
        kids: &[Node; FANOUT],
        at: &BoxQuery<'_>,
        bounds: &mut [f64; FANOUT],
    ) {
        let dims = at.roles.len();
        let (start, count) = self.block(node.group as usize, node.level + 1);
        let block = &self.boxes[2 * dims * start..][..2 * dims * count];
        bounds.fill(0.0);
        for (d, (&role, (&q, &w))) in at.roles.iter().zip(at.q.iter().zip(at.w)).enumerate() {
            if w == 0.0 {
                continue;
            }
            let (lows, highs) = (&block[2 * d * count..], &block[(2 * d + 1) * count..]);
            for (b, kid) in bounds.iter_mut().zip(kids) {
                let r = kid.index as usize - start;
                *b += box_term(role, f64::from(lows[r]), f64::from(highs[r]), q, w);
            }
        }
    }

    /// The bounds of the `bounds.len()` chunks from `p` of group `g`, in
    /// order, decoded inside the group's box: a dimension at a time, one
    /// run of codes each. AVX2 runs it four lanes a step: without that arm
    /// the repo benchmark's `agg_6d` p50 read 68.08 µs against 61.00
    /// (`cold_open_4d` 10.73 against 9.81; 10 pairs each).
    #[inline]
    pub(crate) fn run_bounds(&self, g: usize, p: usize, at: &BoxQuery<'_>, bounds: &mut [f64]) {
        match crate::kernels::active() {
            #[cfg(target_arch = "x86_64")]
            crate::kernels::Isa::Avx2 => {
                // SAFETY: `active()` reports `Avx2` only after runtime
                // detection of the feature.
                unsafe { self.run_bounds_avx2(g, p, at, bounds) }
            }
            _ => self.run_bounds_in(g, p, at, bounds),
        }
    }

    /// [`BoxTree::run_bounds`] compiled for AVX2: the same operations, in
    /// the same order, four lanes a step.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_bounds_avx2(&self, g: usize, p: usize, at: &BoxQuery<'_>, bounds: &mut [f64]) {
        self.run_bounds_in(g, p, at, bounds)
    }

    /// The body of [`BoxTree::run_bounds`].
    #[inline(always)]
    fn run_bounds_in(&self, g: usize, p: usize, at: &BoxQuery<'_>, bounds: &mut [f64]) {
        let (dims, n) = (at.roles.len(), bounds.len());
        let chunks = self.codes.len() / (2 * dims);
        let (codes, boxes): (&[u8], &[f32]) = (&self.codes, &self.boxes);
        let parent = &boxes[2 * dims * self.starts[g].1 as usize..][..2 * dims];
        bounds.fill(0.0);
        for (d, (&role, (&q, &w))) in at.roles.iter().zip(at.q.iter().zip(at.w)).enumerate() {
            if w == 0.0 {
                continue;
            }
            let parent = (f64::from(parent[2 * d]), f64::from(parent[2 * d + 1]));
            let step = code_step(parent.0, parent.1);
            let los = &codes[2 * d * chunks + p..][..n];
            let his = &codes[(2 * d + 1) * chunks + p..][..n];
            for (b, (&lo, &hi)) in bounds.iter_mut().zip(los.iter().zip(his)) {
                let (lo, hi) = decode(parent, step, (lo, hi));
                *b += box_term(role, lo, hi, q, w);
            }
        }
    }
}

/// Where each of `groups`' chunks and nodes start, and past the last;
/// `None` past `u32`.
fn starts(groups: &[u32]) -> Option<Vec<(u32, u32)>> {
    let mut at = (0u32, 0u32);
    let mut starts = Vec::with_capacity(groups.len() + 1);
    for &len in groups {
        starts.push(at);
        let nodes = u32::try_from(group_shape(len).1).ok()?;
        at = (at.0.checked_add(len)?, at.1.checked_add(nodes)?);
    }
    starts.push(at);
    Some(starts)
}

/// The groups of a cell whose rows the split left in `runs` (module docs):
/// the nodes of each run at the first stored depth at or below every run's
/// — depth 4 for a cell of an engine of up to 16 shards — in order, as
/// their chunk counts. A run of one chunk, above that depth, is a group of
/// one.
fn groups(runs: &[Run]) -> Vec<u32> {
    let deepest = runs.iter().map(|r| r.2 as u32).max().unwrap_or(0);
    let top = STRIDE * deepest.div_ceil(STRIDE).max(1);
    let mut groups = Vec::new();
    for &(start, end, depth) in runs {
        let len = (end - start).div_ceil(CHUNK_ROWS) as u32;
        if len <= 1 {
            groups.extend((len == 1).then_some(1));
            continue;
        }
        // Every run of more than one chunk stops at the same depth.
        let cuts = top - depth as u32;
        let nodes = (0..1u32 << cuts).map(|j| descend(0, len, j, cuts).1);
        groups.extend(nodes.filter(|&len| len > 0));
    }
    groups
}

/// The tables a tree's build fills ([`BoxTree::build`]).
struct Build<'a> {
    dims: usize,
    chunk_boxes: Vec<f32>,
    chunk_firsts: &'a [u32],
    boxes: Vec<f32>,
    firsts: Vec<u32>,
    codes: Vec<u8>,
}

impl Build<'_> {
    /// Fills `node`'s box and first id: from its chunks when it holds at
    /// most [`FLAT`] of them, else from its children, its children's first.
    fn node(&mut self, tree: &BoxTree, node: Node) {
        let w = 2 * self.dims;
        let mut sides: Vec<f32> = [f32::INFINITY, f32::NEG_INFINITY].repeat(self.dims);
        let mut first = u32::MAX;
        if node.len as usize <= FLAT {
            for c in node.p as usize..(node.p + node.len) as usize {
                let from = &self.chunk_boxes[w * c..][..w];
                for (side, v) in sides.chunks_exact_mut(2).zip(from.chunks_exact(2)) {
                    side[0] = side[0].min(v[0]);
                    side[1] = side[1].max(v[1]);
                }
                first = first.min(self.chunk_firsts[c]);
            }
        } else {
            let mut kids = [Node::default(); FANOUT];
            tree.children(&node, &mut kids);
            for child in kids {
                self.node(tree, child);
                let at = self.sides(tree, &child);
                for (side, (lo, hi)) in sides.chunks_exact_mut(2).zip(at) {
                    side[0] = side[0].min(self.boxes[lo]);
                    side[1] = side[1].max(self.boxes[hi]);
                }
                first = first.min(self.firsts[child.index as usize]);
            }
        }
        for (side, (lo, hi)) in sides.chunks_exact(2).zip(self.sides(tree, &node)) {
            (self.boxes[lo], self.boxes[hi]) = (side[0], side[1]);
        }
        self.firsts[node.index as usize] = first;
    }

    /// Where `node`'s `(lo, hi)` of each dimension sits in the node boxes
    /// (its block's, [`BoxTree::block`]).
    fn sides(&self, tree: &BoxTree, node: &Node) -> impl Iterator<Item = (usize, usize)> {
        let (start, count) = tree.block(node.group as usize, node.level);
        let at = 2 * self.dims * start + node.index as usize - start;
        (0..self.dims).map(move |d| (at + 2 * d * count, at + (2 * d + 1) * count))
    }

    /// Codes every chunk under `top`, a group's node, inside its box.
    fn codes(&mut self, top: &Node) {
        let (w, chunks) = (2 * self.dims, self.chunk_firsts.len());
        let sides = &self.boxes[w * top.index as usize..][..w];
        for c in top.p as usize..(top.p + top.len) as usize {
            let chunk = &self.chunk_boxes[w * c..][..w];
            for d in 0..self.dims {
                let parent = (f64::from(sides[2 * d]), f64::from(sides[2 * d + 1]));
                let within = (f64::from(chunk[2 * d]), f64::from(chunk[2 * d + 1]));
                let (lo, hi) = encode(parent, within);
                self.codes[2 * d * chunks + c] = lo;
                self.codes[(2 * d + 1) * chunks + c] = hi;
            }
        }
    }
}

/// The step between codes inside `[plo, phi]`: 1/255 of its width, held
/// finite, so code 0 decodes to `plo` and code 255 to `phi` exactly, ±∞
/// ends and zero widths included.
#[inline]
fn code_step(plo: f64, phi: f64) -> f64 {
    // `min` takes the number over a NaN (`∞ − ∞`).
    ((phi - plo) * (1.0 / 255.0)).min(f64::MAX)
}

/// The box codes `(lo, hi)` stand for inside `[plo, phi]`, whose
/// [`code_step`] is `step`: `plo + lo·step` and `phi − (255 − hi)·step`.
/// The one decode — the build checks every code through it ([`encode`]),
/// and the walk bounds every chunk through it.
#[inline]
pub(crate) fn decode((plo, phi): (f64, f64), step: f64, (lo, hi): (u8, u8)) -> (f64, f64) {
    (plo + f64::from(lo) * step, phi - f64::from(255 - hi) * step)
}

/// The codes of `[lo, hi]` inside `[plo, phi]`, which holds it: the
/// largest low code and the smallest high code whose [`decode`]d box still
/// holds `[lo, hi]` — each found from its closest guess, stepped until it
/// holds and the next one would not, the decoded value rising with the
/// code. Codes 0 and 255 decode to `plo` and `phi` exactly, so some pair
/// always holds it: the fallback when a group box is infinite or has no
/// width.
pub(crate) fn encode((plo, phi): (f64, f64), (lo, hi): (f64, f64)) -> (u8, u8) {
    let step = code_step(plo, phi);
    let holds_lo = |c: u8| decode((plo, phi), step, (c, 255)).0 <= lo;
    let holds_hi = |c: u8| decode((plo, phi), step, (0, c)).1 >= hi;
    // A guess in range: a NaN one (an infinite or empty box) casts to 0.
    let guess = |at: f64| (at / step).clamp(0.0, 255.0) as u8;
    let mut a = guess(lo - plo);
    while a > 0 && !holds_lo(a) {
        a -= 1;
    }
    while a < 255 && holds_lo(a + 1) {
        a += 1;
    }
    let mut e = 255 - guess(phi - hi);
    while e < 255 && !holds_hi(e) {
        e += 1;
    }
    while e > 0 && holds_hi(e - 1) {
        e -= 1;
    }
    (a, e)
}

/// A run of positions still to cut, `(start, end, depth)`: its cut goes
/// through dimension `depth % dims`.
type Run = (usize, usize, usize);

/// One shard's share of an engine's rows ([`cells`](super::cells)): a run
/// of whole leaves of the median split of all the rows, and the runs of it
/// still to cut.
/// [`SdIndex::build_cell`](super::SdIndex::build_cell) builds its rows.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's ids, in the order the split's top levels left them.
    pub(super) ids: Vec<u32>,
    runs: Vec<Run>,
}

impl Cell {
    /// The cell of `ids`, none of them cut yet.
    pub(super) fn of(ids: impl IntoIterator<Item = u32>) -> Self {
        let ids: Vec<u32> = ids.into_iter().collect();
        let runs = vec![(0, ids.len(), 0)];
        Cell { ids, runs }
    }
}

/// Cuts `data`'s rows into `count` cells (`1 ≤ count`, at most one a chunk) by the
/// top `⌈log₂ count⌉` levels of their recursive median split (module docs):
/// the levels every cell shares, run here over all the rows, with key
/// columns of the cut dimensions only. The split's subtrees at that depth
/// (or leaves above it) go to the cells in order, `⌊m/count⌋` or one more
/// each for `m` subtrees — at least `min(leaves, 2^levels)` of them, so no
/// cell is empty. Each cell's build then finishes its own subtrees
/// ([`SdIndex::build_cell`](super::SdIndex::build_cell)), and the cells'
/// rows, ids, codes and first ids, in cell order, are those of the split
/// of all the rows, and so are their stored nodes.
pub(crate) fn split(data: &Dataset, count: usize) -> Vec<Cell> {
    let (dims, n) = (data.dims(), data.len());
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

/// Finishes the median split of `cell` into leaves of [`CHUNK_ROWS`] rows
/// (module docs): the id of each of the cell's rows in that order. A run of
/// more than one leaf is cut after `⌈leaves / 2⌉` whole leaves, so every
/// leaf but the last is full; the cuts cycle through the dimensions, one a
/// level.
///
/// Only ids move while cutting: each is packed under its row's key in the
/// level's dimension, and one selection cuts the run. The key is the top 32
/// bits of the value's order-preserving key — values that close (a relative
/// 2^-20) count as a tie, and a tie goes by id — so both sides of every cut
/// are a function of the rows alone, and so is the order within a leaf (the
/// selections are deterministic). A cell packs each id's *rank* among its
/// ids instead of the id: rank order is id order, so every selection
/// compares, and so moves, exactly as in the split of all the rows, while
/// the key columns cover the cell's rows only. The caller moves the rows,
/// once.
pub(crate) fn finish_split(data: &Dataset, cell: &Cell) -> Vec<u32> {
    let dims = data.dims();
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
    let runs = cell.runs.clone();
    cut(&mut order, &keys, dims, runs, usize::MAX, &mut Vec::new());
    order
        .iter()
        .map(|&e| ascending[e as u32 as usize])
        .collect()
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

/// Cuts `runs` of the positions `order` holds — entries whose low 32 bits
/// index the key columns `keys`, one key a position a column — into leaves
/// of [`CHUNK_ROWS`] rows, each cut at its depth's dimension; a run that is
/// one leaf, or reaches depth `until`, is left whole and pushed to `left`.
fn cut(
    order: &mut [u64],
    keys: &[u32],
    dims: usize,
    mut runs: Vec<Run>,
    until: usize,
    left: &mut Vec<Run>,
) {
    let rows = order.len();
    while let Some((start, end, depth)) = runs.pop() {
        let run = &mut order[start..end];
        let len = run.len();
        if len <= CHUNK_ROWS || depth >= until {
            left.push((start, end, depth));
            continue;
        }
        let column = &keys[(depth % dims) * rows..(depth % dims + 1) * rows];
        for e in run.iter_mut() {
            let at = *e as u32;
            *e = u64::from(column[at as usize]) << 32 | u64::from(at);
        }
        let cut = len.div_ceil(CHUNK_ROWS).div_ceil(2) * CHUNK_ROWS;
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
    // No operand is NaN (a box holds finite rows, a query is finite), so a
    // plain compare picks the larger: one instruction, where `f64::max`
    // adds a NaN check.
    let max = |a: f64, b: f64| if a > b { a } else { b };
    match role {
        DimRole::Repulsive => w * max((hi - q).abs(), (q - lo).abs()),
        DimRole::Attractive => -(w * max(max(lo - q, q - hi), 0.0)),
    }
}

/// The score bound of a box, `side(d)` its `(lo, hi)` in dimension `d`,
/// under `at`: the sum from `0.0` of [`box_term`] over the dimensions with a
/// non-zero weight, in dimension order — the order and the association in
/// which [`kernels::score_rows`](crate::kernels::score_rows) sums a row's
/// terms, and a row's term of a zero-weight dimension is `±0`. Each partial
/// sum is at least the row's, since addition rounds monotonely in each
/// argument, so no row in the box scores above it.
/// [`BoxTree::child_bounds`] takes the same sum.
#[inline]
pub(crate) fn box_bound(at: &BoxQuery<'_>, side: impl Fn(usize) -> (f64, f64)) -> f64 {
    let mut bound = 0.0;
    for (d, (&role, (&q, &w))) in at.roles.iter().zip(at.q.iter().zip(at.w)).enumerate() {
        if w != 0.0 {
            let (lo, hi) = side(d);
            bound += box_term(role, lo, hi, q, w);
        }
    }
    bound
}

#[cfg(test)]
impl BoxTree {
    /// The tightest bound the tree holds for each chunk under `at`, in
    /// order: its own, decoded, or a stored node's above it, whichever is
    /// lower — what a walk may skip it by.
    pub(crate) fn every_chunk_bound(&self, at: &BoxQuery<'_>) -> Vec<f64> {
        let lower = |a: f64, b: f64| if a < b { a } else { b };
        let chunks = self.starts.last().map_or(0, |s| s.0 as usize);
        let mut out = vec![f64::NAN; chunks];
        let mut stack: Vec<(Node, f64)> = self
            .tops()
            .map(|top| (top, self.node_bound(&top, at)))
            .collect();
        let (mut kids, mut bounds) = ([Node::default(); FANOUT], [0.0; FANOUT]);
        while let Some((node, above)) = stack.pop() {
            if node.len as usize <= FLAT {
                let run = &mut out[node.p as usize..][..node.len as usize];
                self.run_bounds(node.group as usize, node.p as usize, at, run);
                run.iter_mut().for_each(|b| *b = lower(*b, above));
                continue;
            }
            self.children(&node, &mut kids);
            self.child_bounds(&node, &kids, at, &mut bounds);
            for (&kid, &bound) in kids.iter().zip(&bounds) {
                stack.push((kid, lower(bound, above)));
            }
        }
        out
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

    /// What an index in box order holds of `data`: its rows moved into box
    /// order, the id of each and the chunk boxes its tree codes.
    fn box_order(data: &Dataset) -> (Vec<f64>, Vec<u32>, Vec<f32>) {
        let ids = finish_split(data, &Cell::of(0..data.len() as u32));
        let rows = super::super::gather(data, &ids);
        let boxes = chunk_boxes(&rows, data.dims());
        (rows, ids, boxes)
    }

    /// The box tree of `rows` in box order, `ids` their ids.
    fn tree_of(rows: &[f64], dims: usize, ids: &[u32]) -> BoxTree {
        BoxTree::build(
            rows,
            dims,
            &chunk_firsts(ids),
            &Cell::of(0..ids.len() as u32),
        )
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
            let (moved, ids, boxes) = box_order(&data);
            assert_eq!(ids.len(), n);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..n as u32), "a permutation");
            for (pos, &id) in ids.iter().enumerate() {
                let at = pos * dims;
                assert_eq!(&moved[at..at + dims], data.point(crate::PointId::new(id)));
            }
            let chunks = n.div_ceil(CHUNK_ROWS);
            assert_eq!(boxes.len(), 2 * dims * chunks);
            for (c, rows) in moved.chunks(CHUNK_ROWS * dims).enumerate() {
                for (l, row) in rows.chunks(dims).enumerate() {
                    for (d, &v) in row.iter().enumerate() {
                        let lo = f64::from(boxes[2 * (c * dims + d)]);
                        let hi = f64::from(boxes[2 * (c * dims + d) + 1]);
                        assert!(lo <= v && v <= hi, "chunk {c} row {l} dim {d}");
                    }
                }
            }
            let (again, ids2, _) = box_order(&data);
            assert_eq!(again, moved);
            assert_eq!(ids2, ids);
        }
    }

    /// On scattered rows a chunk is a cell: its mean box spans a small part
    /// of each dimension (insertion order spans nearly all of it).
    #[test]
    fn chunks_are_cells() {
        let n: usize = 20_000;
        let rows: Vec<f64> = (0..n * 4)
            .map(|i| ((i as u64 * 2_654_435_761) % 1_000_003) as f64 / 1_000_003.0)
            .collect();
        let (_, _, boxes) = box_order(&dataset(4, &rows));
        let chunks = n.div_ceil(CHUNK_ROWS);
        let mut volume = 0.0;
        for c in 0..chunks {
            volume += (0..4)
                .map(|d| boxes[2 * (c * 4 + d) + 1] - boxes[2 * (c * 4 + d)])
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

    /// Each code pair decodes to a box that holds the `f32` box it
    /// replaces and lies inside its group's — ordinary, zero-width, `±0`
    /// and infinite group boxes, chunks at either end of them — and codes 0
    /// and 255 decode to the group's own sides.
    #[test]
    fn decoded_codes_bracket_the_box_they_replace() {
        let inf = f64::INFINITY;
        let mut cases = vec![
            ((0.0, 1.0), (0.25, 0.5)),
            ((0.0, 1.0), (0.0, 1.0)),
            ((0.0, 1.0), (1.0, 1.0)),
            ((-0.0, 0.0), (0.0, -0.0)),
            ((3.5, 3.5), (3.5, 3.5)),
            ((-inf, inf), (-1.0, 2.0)),
            ((-inf, 1.0), (-inf, 0.5)),
            ((-2.0, inf), (-1.0, inf)),
            ((f64::from(f32::MAX), inf), (inf, inf)),
            ((-1e30, 1e30), (-1e-30, 1e-30)),
            ((1.0, f64::from(1.0f32.next_up())), (1.0, 1.0)),
        ];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2_000 {
            let (a, b) = (next() * 200.0 - 100.0, next() * 200.0 - 100.0);
            let (plo, phi) = (a.min(b), a.max(b));
            let (x, y) = (plo + next() * (phi - plo), plo + next() * (phi - plo));
            cases.push(((plo, phi), (x.min(y), x.max(y))));
        }
        for ((plo, phi), (lo, hi)) in cases {
            // The sides as a build has them: `f32`, rounded outward.
            let parent = (f64::from(f32_down(plo)), f64::from(f32_up(phi)));
            let within = (f64::from(f32_down(lo)), f64::from(f32_up(hi)));
            let step = code_step(parent.0, parent.1);
            let codes = encode(parent, within);
            let (dlo, dhi) = decode(parent, step, codes);
            let ctx = format!("{within:?} in {parent:?}: codes {codes:?} → ({dlo}, {dhi})");
            assert!(dlo <= within.0 && within.1 <= dhi, "{ctx}");
            assert!(parent.0 <= dlo && dhi <= parent.1, "{ctx}");
            assert_eq!(decode(parent, step, (0, 255)), parent, "{ctx}");
        }
    }

    // No row of a stored node or a chunk scores above its bound — a node's
    // from its `f32` box, a chunk's decoded from its codes — under every
    // kernel arm, whatever the coordinates, the weights and the roles.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn chunk_bound_is_at_least_every_row_score(
            dims in 1usize..7,
            seed_rows in proptest::collection::vec(coordinate(), 1..4200),
            dup in 0u8..2,
            q_seed in proptest::collection::vec(coordinate(), 7),
            w_seed in proptest::collection::vec(weight(), 7),
            role_bits in 0u8..=255,
        ) {
            let n = seed_rows.len() / dims;
            prop_assume!(n > 0);
            let mut rows = seed_rows[..n * dims].to_vec();
            if dup == 1 {
                // Every row a copy of the first: boxes of zero width.
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
            let (moved, ids, _) = box_order(&data);
            let tree = tree_of(&moved, dims, &ids);
            let at = BoxQuery { roles: &roles, q, w };
            // Every box the tree bounds, with the chunks under it: each
            // stored node (from its box, and as its parent's child), and
            // each chunk (decoded, with the others of its flat node).
            let mut checks: Vec<(std::ops::Range<usize>, f64, &str)> = Vec::new();
            let mut stack: Vec<Node> = tree.tops().collect();
            let (mut kids, mut bounds) = ([Node::default(); FANOUT], [0.0; FANOUT]);
            while let Some(node) = stack.pop() {
                let (p, len) = (node.p as usize, node.len as usize);
                checks.push((p..p + len, tree.node_bound(&node, &at), "node"));
                if len <= FLAT {
                    let mut run = vec![0.0; len];
                    tree.run_bounds(node.group as usize, p, &at, &mut run);
                    checks.extend(run.iter().enumerate().map(|(c, &b)| (p + c..p + c + 1, b, "chunk")));
                    continue;
                }
                tree.children(&node, &mut kids);
                tree.child_bounds(&node, &kids, &at, &mut bounds);
                for (&kid, &bound) in kids.iter().zip(&bounds) {
                    let own = tree.node_bound(&kid, &at);
                    prop_assert!(own == bound || own.is_nan() && bound.is_nan());
                    stack.push(kid);
                }
            }
            prop_assert_eq!(checks.iter().filter(|c| c.2 == "chunk").count(), n.div_ceil(CHUNK_ROWS));
            let mut over = None;
            kernels::tests::with_each_isa(|| {
                let mut scores = vec![0.0; n];
                let mut lane = [0.0; kernels::LANES];
                for (piece, run) in moved.chunks(kernels::LANES * dims).enumerate() {
                    let count = run.len() / dims;
                    kernels::score_rows(&mut lane[..count], run, dims, q, &sw, f64::NEG_INFINITY);
                    scores[piece * kernels::LANES..][..count].copy_from_slice(&lane[..count]);
                }
                for (chunks, bound, what) in &checks {
                    let rows = chunks.start * CHUNK_ROWS..(chunks.end * CHUNK_ROWS).min(n);
                    for pos in rows {
                        if scores[pos] > *bound && over.is_none() {
                            over = Some((*what, pos, scores[pos], *bound, kernels::active().name()));
                        }
                    }
                }
            });
            prop_assert!(over.is_none(), "a row scores over its box's bound: {over:?}");
        }
    }
}
