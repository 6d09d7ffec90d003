//! # sdq-rstar
//!
//! An in-memory R*-tree over multidimensional points — the substrate
//! required by the BRS baseline of the SD-Query paper (§6.1 adapts
//! "Branch-and-bound Processing of Ranked Queries", Tao et al., to main
//! memory over an R*-tree).
//!
//! Implemented from scratch after Beckmann, Kriegel, Schneider & Seeger
//! (SIGMOD 1990):
//!
//! * **ChooseSubtree** — minimum overlap enlargement at the leaf level,
//!   minimum area enlargement above,
//! * **OverflowTreatment** — forced reinsertion of the 30 % of entries
//!   farthest from the node centre, once per level per insertion ("close
//!   reinsert" ordering), then the R* topological split (axis by minimum
//!   margin sum, distribution by minimum overlap),
//! * **CondenseTree deletion** with orphan reinsertion,
//! * **STR bulk loading** (sort-tile-recursive) for fast construction,
//! * **range**, **kNN** and generic **best-first ranked search** — the
//!   latter is the BRS engine: callers supply an upper bound over MBRs and
//!   an exact score for points, and results stream out in certified
//!   descending order.

#![deny(clippy::undocumented_unsafe_blocks)]

mod rect;

pub use rect::Rect;

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Total-order wrapper for finite floats (keys/priorities).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// An entry of a tree node: a subtree or a data point.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Child(u32),
    Point(u32),
}

#[derive(Debug, Clone)]
struct Node {
    level: u32,
    rect: Rect,
    entries: Vec<Entry>,
}

/// An R*-tree over points with `f64` coordinates.
///
/// Point ids are insertion slots (stable across deletions; slots are
/// tombstoned, never reused).
#[derive(Debug, Clone)]
pub struct RStarTree {
    dims: usize,
    max_entries: usize,
    min_entries: usize,
    coords: Vec<f64>,
    alive: Vec<bool>,
    n_alive: usize,
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: Option<u32>,
}

/// Fraction of entries force-reinserted on first overflow per level.
const REINSERT_FRACTION: f64 = 0.3;

impl RStarTree {
    /// Creates an empty tree. `max_entries ≥ 4`; `min_entries` is 40 % of
    /// the maximum (the R* recommendation).
    pub fn new(dims: usize, max_entries: usize) -> Self {
        assert!(dims >= 1, "dims must be ≥ 1");
        assert!(max_entries >= 4, "max_entries must be ≥ 4");
        RStarTree {
            dims,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(1),
            coords: Vec::new(),
            alive: Vec::new(),
            n_alive: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
        }
    }

    /// Bulk loads with sort-tile-recursive packing: `O(n log n)` and much
    /// faster than repeated insertion.
    pub fn bulk_load(dims: usize, flat: &[f64], max_entries: usize) -> Self {
        assert_eq!(
            flat.len() % dims,
            0,
            "flat length must be a multiple of dims"
        );
        let mut tree = Self::new(dims, max_entries);
        tree.coords = flat.to_vec();
        let n = flat.len() / dims;
        tree.alive = vec![true; n];
        tree.n_alive = n;
        if n == 0 {
            return tree;
        }
        // Leaf level.
        let ids: Vec<u32> = (0..n as u32).collect();
        let groups = tree.str_partition(ids, 0, |t, id, d| t.coords_of(id)[d]);
        let groups = tree.fixup_groups(groups);
        let mut level_nodes: Vec<u32> = groups
            .into_iter()
            .map(|g| {
                let entries: Vec<Entry> = g.into_iter().map(Entry::Point).collect();
                tree.alloc(0, entries)
            })
            .collect();
        // Upper levels.
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let groups = tree.str_partition(level_nodes, 0, |t, id, d| {
                t.nodes[id as usize].rect.center(d)
            });
            let groups = tree.fixup_groups(groups);
            level_nodes = groups
                .into_iter()
                .map(|g| {
                    let entries: Vec<Entry> = g.into_iter().map(Entry::Child).collect();
                    tree.alloc(level, entries)
                })
                .collect();
            level += 1;
        }
        tree.root = Some(level_nodes[0]);
        tree
    }

    /// Repairs STR output so every group (except a lone root group) meets
    /// the minimum fill: underfull groups merge into a neighbour, and a
    /// neighbour pushed past capacity is split evenly (both halves stay
    /// ≥ min because min ≤ 40 % of max).
    fn fixup_groups(&self, mut groups: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        let (cap, min) = (self.max_entries, self.min_entries);
        let mut i = 0;
        while i < groups.len() {
            if groups[i].len() < min && groups.len() > 1 {
                let donor = if i > 0 { i - 1 } else { i + 1 };
                let moved = groups.remove(i);
                let d = if donor > i { donor - 1 } else { donor };
                groups[d].extend(moved);
                if groups[d].len() > cap {
                    let g = groups.remove(d);
                    let half = g.len() / 2;
                    groups.insert(d, g[half..].to_vec());
                    groups.insert(d, g[..half].to_vec());
                }
            } else {
                i += 1;
            }
        }
        groups
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.n_alive
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.n_alive == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Height of the tree (0 when empty; 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.root
            .map(|r| self.nodes[r as usize].level as usize + 1)
            .unwrap_or(0)
    }

    /// Coordinates of a live point.
    pub fn point(&self, id: u32) -> Option<&[f64]> {
        let i = id as usize;
        if i < self.alive.len() && self.alive[i] {
            Some(&self.coords[i * self.dims..(i + 1) * self.dims])
        } else {
            None
        }
    }

    #[inline]
    fn coords_of(&self, id: u32) -> &[f64] {
        let i = id as usize * self.dims;
        &self.coords[i..i + self.dims]
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.coords.len() * 8
            + self.alive.len()
            + self
                .nodes
                .iter()
                .map(|n| {
                    std::mem::size_of::<Node>()
                        + n.entries.len() * std::mem::size_of::<Entry>()
                        + n.rect.dims() * 16
                })
                .sum::<usize>()
    }

    // ── insertion ────────────────────────────────────────────────────────

    /// Inserts a point and returns its id.
    pub fn insert(&mut self, point: &[f64]) -> u32 {
        assert_eq!(point.len(), self.dims, "point arity mismatch");
        let id = self.alive.len() as u32;
        self.coords.extend_from_slice(point);
        self.alive.push(true);
        self.n_alive += 1;
        self.insert_entries(vec![(Entry::Point(id), 0)]);
        id
    }

    /// Queue-driven insertion: forced reinsertions append to the queue
    /// instead of recursing, which keeps root growth and parent bookkeeping
    /// simple and correct.
    fn insert_entries(&mut self, mut queue: Vec<(Entry, u32)>) {
        let mut reinserted = vec![false; self.height() + 2];
        while let Some((entry, target_level)) = queue.pop() {
            match self.root {
                None => {
                    debug_assert_eq!(target_level, 0);
                    let root = self.alloc(0, vec![entry]);
                    self.root = Some(root);
                }
                Some(root) => {
                    if self.nodes[root as usize].level < target_level {
                        // Tree shrank below an orphan's level (delete path):
                        // graft by raising the root.
                        let new_root = self.alloc(target_level, vec![Entry::Child(root), entry]);
                        self.root = Some(new_root);
                        continue;
                    }
                    if reinserted.len() < self.height() + 2 {
                        reinserted.resize(self.height() + 2, false);
                    }
                    if let Some(sibling) =
                        self.insert_rec(root, entry, target_level, &mut reinserted, &mut queue)
                    {
                        let level = self.nodes[root as usize].level + 1;
                        let new_root =
                            self.alloc(level, vec![Entry::Child(root), Entry::Child(sibling)]);
                        self.root = Some(new_root);
                    }
                }
            }
        }
    }

    fn entry_rect(&self, entry: Entry) -> Rect {
        match entry {
            Entry::Point(p) => Rect::point(self.coords_of(p)),
            Entry::Child(c) => self.nodes[c as usize].rect.clone(),
        }
    }

    fn insert_rec(
        &mut self,
        node_id: u32,
        entry: Entry,
        target_level: u32,
        reinserted: &mut [bool],
        queue: &mut Vec<(Entry, u32)>,
    ) -> Option<u32> {
        let erect = self.entry_rect(entry);
        let level = self.nodes[node_id as usize].level;
        if level == target_level {
            let node = &mut self.nodes[node_id as usize];
            node.entries.push(entry);
            node.rect.union_with(&erect);
        } else {
            let child = self.choose_subtree(node_id, &erect);
            let split = self.insert_rec(child, entry, target_level, reinserted, queue);
            let child_rect = self.nodes[child as usize].rect.clone();
            {
                let node = &mut self.nodes[node_id as usize];
                node.rect.union_with(&child_rect);
            }
            if let Some(sib) = split {
                let sib_rect = self.nodes[sib as usize].rect.clone();
                let node = &mut self.nodes[node_id as usize];
                node.entries.push(Entry::Child(sib));
                node.rect.union_with(&sib_rect);
            }
        }
        if self.nodes[node_id as usize].entries.len() > self.max_entries {
            return self.overflow(node_id, reinserted, queue);
        }
        None
    }

    /// R* OverflowTreatment: forced reinsert on the first overflow of each
    /// level per insertion, split otherwise.
    fn overflow(
        &mut self,
        node_id: u32,
        reinserted: &mut [bool],
        queue: &mut Vec<(Entry, u32)>,
    ) -> Option<u32> {
        let level = self.nodes[node_id as usize].level as usize;
        if self.root != Some(node_id) && !reinserted[level] {
            reinserted[level] = true;
            self.force_reinsert(node_id, queue);
            None
        } else {
            Some(self.split(node_id))
        }
    }

    /// Removes the 30 % of entries farthest from the node centre and queues
    /// them for reinsertion, closest first ("close reinsert").
    fn force_reinsert(&mut self, node_id: u32, queue: &mut Vec<(Entry, u32)>) {
        let level = self.nodes[node_id as usize].level;
        let node_rect = self.nodes[node_id as usize].rect.clone();
        let mut scored: Vec<(f64, Entry)> = self.nodes[node_id as usize]
            .entries
            .iter()
            .map(|&e| (self.entry_rect(e).center_dist2(&node_rect), e))
            .collect();
        scored.sort_by_key(|e| Reverse(Key(e.0)));
        let p = ((scored.len() as f64 * REINSERT_FRACTION).floor() as usize).max(1);
        // The queue is a stack: push farthest first so the closest pops
        // (and reinserts) first.
        for &(_, e) in scored.iter().take(p) {
            queue.push((e, level));
        }
        let keep: Vec<Entry> = scored.iter().skip(p).map(|&(_, e)| e).collect();
        self.nodes[node_id as usize].entries = keep;
        self.recompute_rect(node_id);
    }

    /// R* ChooseSubtree.
    fn choose_subtree(&self, node_id: u32, erect: &Rect) -> u32 {
        let node = &self.nodes[node_id as usize];
        let children: Vec<u32> = node
            .entries
            .iter()
            .map(|e| match *e {
                Entry::Child(c) => c,
                Entry::Point(_) => unreachable!("points live only at the target level"),
            })
            .collect();
        let leaf_children = node.level == 1;
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &c in &children {
            let crect = &self.nodes[c as usize].rect;
            let mut grown = crect.clone();
            grown.union_with(erect);
            let area_enl = grown.area() - crect.area();
            let key = if leaf_children {
                // Overlap enlargement against the sibling MBRs.
                let mut before = 0.0;
                let mut after = 0.0;
                for &o in &children {
                    if o == c {
                        continue;
                    }
                    let orect = &self.nodes[o as usize].rect;
                    before += crect.overlap(orect);
                    after += grown.overlap(orect);
                }
                (after - before, area_enl, crect.area())
            } else {
                (area_enl, crect.area(), 0.0)
            };
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        best
    }

    /// R* topological split; returns the new sibling node id.
    fn split(&mut self, node_id: u32) -> u32 {
        let level = self.nodes[node_id as usize].level;
        let entries = std::mem::take(&mut self.nodes[node_id as usize].entries);
        let rects: Vec<Rect> = entries.iter().map(|&e| self.entry_rect(e)).collect();
        let m = self.min_entries;
        let total = entries.len();

        // Axis choice: minimise the margin sum over all distributions of
        // both sorts (by lower and by upper coordinate).
        let mut best_margin = f64::INFINITY;
        let mut best_orders: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for axis in 0..self.dims {
            let mut by_lo: Vec<usize> = (0..total).collect();
            by_lo.sort_by(|&a, &b| {
                Key(rects[a].lo()[axis])
                    .cmp(&Key(rects[b].lo()[axis]))
                    .then(Key(rects[a].hi()[axis]).cmp(&Key(rects[b].hi()[axis])))
            });
            let mut by_hi: Vec<usize> = (0..total).collect();
            by_hi.sort_by(|&a, &b| {
                Key(rects[a].hi()[axis])
                    .cmp(&Key(rects[b].hi()[axis]))
                    .then(Key(rects[a].lo()[axis]).cmp(&Key(rects[b].lo()[axis])))
            });
            let mut margin_sum = 0.0;
            for order in [&by_lo, &by_hi] {
                let (prefix, suffix) = self.sweep_rects(order, &rects);
                for split in m..=(total - m) {
                    margin_sum += prefix[split - 1].margin() + suffix[split].margin();
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_orders = (by_lo, by_hi);
            }
        }

        // Distribution choice on the winning axis: min overlap, tie min
        // total area.
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        let mut best_split = m;
        let mut best_order: &Vec<usize> = &best_orders.0;
        for order in [&best_orders.0, &best_orders.1] {
            let (prefix, suffix) = self.sweep_rects(order, &rects);
            for split in m..=(total - m) {
                let (r1, r2) = (&prefix[split - 1], &suffix[split]);
                let key = (r1.overlap(r2), r1.area() + r2.area());
                if key < best_key {
                    best_key = key;
                    best_split = split;
                    best_order = order;
                }
            }
        }

        let group1: Vec<Entry> = best_order[..best_split]
            .iter()
            .map(|&i| entries[i])
            .collect();
        let group2: Vec<Entry> = best_order[best_split..]
            .iter()
            .map(|&i| entries[i])
            .collect();
        self.nodes[node_id as usize].entries = group1;
        self.recompute_rect(node_id);
        self.alloc(level, group2)
    }

    /// Prefix/suffix MBR sweeps for split evaluation.
    fn sweep_rects(&self, order: &[usize], rects: &[Rect]) -> (Vec<Rect>, Vec<Rect>) {
        let total = order.len();
        let mut prefix = Vec::with_capacity(total);
        let mut acc = Rect::empty(self.dims);
        for &i in order {
            acc.union_with(&rects[i]);
            prefix.push(acc.clone());
        }
        let mut suffix = vec![Rect::empty(self.dims); total + 1];
        let mut acc = Rect::empty(self.dims);
        for (pos, &i) in order.iter().enumerate().rev() {
            acc.union_with(&rects[i]);
            suffix[pos] = acc.clone();
        }
        (prefix, suffix)
    }

    fn alloc(&mut self, level: u32, entries: Vec<Entry>) -> u32 {
        let rect = self.rect_of_entries(&entries);
        let node = Node {
            level,
            rect,
            entries,
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn rect_of_entries(&self, entries: &[Entry]) -> Rect {
        let mut rect = Rect::empty(self.dims);
        for &e in entries {
            rect.union_with(&self.entry_rect(e));
        }
        rect
    }

    fn recompute_rect(&mut self, node_id: u32) {
        let entries = std::mem::take(&mut self.nodes[node_id as usize].entries);
        let rect = self.rect_of_entries(&entries);
        let node = &mut self.nodes[node_id as usize];
        node.entries = entries;
        node.rect = rect;
    }

    // ── deletion ─────────────────────────────────────────────────────────

    /// Deletes a point by id; `true` on success. Underflowing nodes are
    /// dissolved and their entries reinserted (CondenseTree).
    pub fn delete(&mut self, id: u32) -> bool {
        let i = id as usize;
        if i >= self.alive.len() || !self.alive[i] {
            return false;
        }
        let Some(root) = self.root else { return false };
        let target = self.coords_of(id).to_vec();
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        if !self.delete_rec(root, &target, id, &mut orphans) {
            debug_assert!(false, "live point missing from R*-tree");
            return false;
        }
        self.alive[i] = false;
        self.n_alive -= 1;
        // Collapse the root chain before and after orphan reinsertion.
        self.shrink_root();
        if !orphans.is_empty() {
            self.insert_entries(orphans);
        }
        self.shrink_root();
        true
    }

    fn shrink_root(&mut self) {
        while let Some(r) = self.root {
            let node = &self.nodes[r as usize];
            if node.entries.is_empty() {
                self.free.push(r);
                self.root = None;
            } else if node.level > 0 && node.entries.len() == 1 {
                let Entry::Child(c) = node.entries[0] else {
                    unreachable!()
                };
                self.free.push(r);
                self.root = Some(c);
            } else {
                break;
            }
        }
    }

    fn delete_rec(
        &mut self,
        node_id: u32,
        target: &[f64],
        id: u32,
        orphans: &mut Vec<(Entry, u32)>,
    ) -> bool {
        if self.nodes[node_id as usize].level == 0 {
            let pos = self.nodes[node_id as usize]
                .entries
                .iter()
                .position(|&e| e == Entry::Point(id));
            if let Some(pos) = pos {
                self.nodes[node_id as usize].entries.remove(pos);
                self.recompute_rect(node_id);
                return true;
            }
            return false;
        }
        let candidates: Vec<(usize, u32)> = self.nodes[node_id as usize]
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| match e {
                Entry::Child(c) if self.nodes[c as usize].rect.contains_point(target) => {
                    Some((i, c))
                }
                _ => None,
            })
            .collect();
        for (pos, child) in candidates {
            if self.delete_rec(child, target, id, orphans) {
                if self.nodes[child as usize].entries.len() < self.min_entries {
                    // Dissolve the underflowing child; queue its entries for
                    // reinsertion at their level.
                    let level = self.nodes[child as usize].level;
                    let entries = std::mem::take(&mut self.nodes[child as usize].entries);
                    for e in entries {
                        orphans.push((e, level));
                    }
                    self.nodes[node_id as usize].entries.remove(pos);
                    self.free.push(child);
                }
                self.recompute_rect(node_id);
                return true;
            }
        }
        false
    }

    // ── queries ──────────────────────────────────────────────────────────

    /// Ids of all live points inside `[lo, hi]` (inclusive).
    pub fn range_query(&self, lo: &[f64], hi: &[f64]) -> Vec<u32> {
        let query = Rect::new(lo, hi);
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_rec(root, &query, &mut out);
        }
        out
    }

    fn range_rec(&self, node_id: u32, query: &Rect, out: &mut Vec<u32>) {
        let node = &self.nodes[node_id as usize];
        if !node.rect.intersects(query) {
            return;
        }
        for &e in &node.entries {
            match e {
                Entry::Point(p) => {
                    if query.contains_point(self.coords_of(p)) {
                        out.push(p);
                    }
                }
                Entry::Child(c) => self.range_rec(c, query, out),
            }
        }
    }

    /// Generic best-first ranked search — the BRS engine.
    ///
    /// `node_bound` must upper-bound `point_score` over every point inside
    /// the rect. Returns up to `k` highest-scoring points in descending
    /// order, ties by id ascending; exact as long as the bound is
    /// admissible. A node pops before a point of equal key, so a point is
    /// emitted only once no unexpanded node can still hold a tied point
    /// with a smaller id.
    pub fn search_best_first(
        &self,
        k: usize,
        mut node_bound: impl FnMut(&Rect) -> f64,
        mut point_score: impl FnMut(&[f64]) -> f64,
    ) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(k.min(self.n_alive));
        let Some(root) = self.root else { return out };
        // `(key, is_node, id)`: node ids and row ids share one namespace,
        // so the id only orders points among themselves.
        let mut heap: BinaryHeap<(Key, bool, Reverse<u32>)> = BinaryHeap::new();
        heap.push((
            Key(node_bound(&self.nodes[root as usize].rect)),
            true,
            Reverse(root),
        ));
        while let Some((Key(score), is_node, Reverse(id))) = heap.pop() {
            if !is_node {
                out.push((id, score));
                if out.len() == k {
                    break;
                }
                continue;
            }
            for &e in &self.nodes[id as usize].entries {
                match e {
                    Entry::Point(p) => {
                        heap.push((Key(point_score(self.coords_of(p))), false, Reverse(p)));
                    }
                    Entry::Child(c) => {
                        heap.push((
                            Key(node_bound(&self.nodes[c as usize].rect)),
                            true,
                            Reverse(c),
                        ));
                    }
                }
            }
        }
        out
    }

    /// `k` nearest neighbours of `q` by Euclidean distance, closest first,
    /// as `(id, distance²)`.
    pub fn knn(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        let res = self.search_best_first(
            k,
            |rect| -rect.min_dist2(q),
            |p| -p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>(),
        );
        res.into_iter().map(|(id, s)| (id, -s)).collect()
    }

    // ── STR bulk-load partitioning ───────────────────────────────────────

    /// Sort-tile-recursive grouping of `ids` into runs of at most
    /// `max_entries`, recursing over dimensions; `coord` projects an id to
    /// its sort key in a given dimension.
    fn str_partition(
        &self,
        mut ids: Vec<u32>,
        dim: usize,
        coord: impl Fn(&Self, u32, usize) -> f64 + Copy,
    ) -> Vec<Vec<u32>> {
        let cap = self.max_entries;
        if ids.len() <= cap {
            return vec![ids];
        }
        ids.sort_by_key(|&a| Key(coord(self, a, dim)));
        if dim + 1 == self.dims {
            return ids.chunks(cap).map(<[u32]>::to_vec).collect();
        }
        let total_groups = ids.len().div_ceil(cap);
        let slabs = ((total_groups as f64)
            .powf(1.0 / (self.dims - dim) as f64)
            .ceil() as usize)
            .max(1);
        let slab_size = ids.len().div_ceil(slabs);
        ids.chunks(slab_size)
            .flat_map(|slab| self.str_partition(slab.to_vec(), dim + 1, coord))
            .collect()
    }

    // ── invariants ───────────────────────────────────────────────────────

    /// Exhaustively verifies structural invariants (tests / debugging).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.alive.len()];
        if let Some(root) = self.root {
            assert!(
                !self.nodes[root as usize].entries.is_empty(),
                "non-empty tree must have a non-empty root"
            );
            self.check_node(root, true, &mut seen);
        }
        for (i, &a) in self.alive.iter().enumerate() {
            assert_eq!(a, seen[i], "point {i}: alive={a}, in-tree={}", seen[i]);
        }
    }

    fn check_node(&self, node_id: u32, is_root: bool, seen: &mut [bool]) {
        let node = &self.nodes[node_id as usize];
        if !is_root {
            assert!(
                node.entries.len() >= self.min_entries,
                "underflow: {} < {}",
                node.entries.len(),
                self.min_entries
            );
        }
        assert!(node.entries.len() <= self.max_entries, "overflow");
        let mut rect = Rect::empty(self.dims);
        for &e in &node.entries {
            match e {
                Entry::Point(p) => {
                    assert_eq!(node.level, 0, "points only at leaves");
                    assert!(self.alive[p as usize], "dead point in tree");
                    assert!(!seen[p as usize], "point {p} duplicated");
                    seen[p as usize] = true;
                    rect.extend_point(self.coords_of(p));
                }
                Entry::Child(c) => {
                    assert_eq!(
                        self.nodes[c as usize].level + 1,
                        node.level,
                        "level discontinuity"
                    );
                    self.check_node(c, false, seen);
                    rect.union_with(&self.nodes[c as usize].rect);
                }
            }
        }
        assert!(node.rect.contains_rect(&rect), "MBR not conservative");
    }
}

#[cfg(test)]
mod tests;
