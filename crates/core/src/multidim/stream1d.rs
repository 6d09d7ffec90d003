//! 1-D subproblem streams of §5: bidirectional searches over sorted
//! per-dimension containers.
//!
//! A *repulsive* dimension is consumed from both ends of the sorted column
//! (farthest value first); an *attractive* dimension from a binary-searched
//! start position outwards (nearest value first). Both emit `(row,
//! subscore)` pairs in non-increasing subscore order and expose an
//! admissible bound on every unemitted row — exactly the per-subproblem
//! contract the threshold aggregation of §5 requires. They power the
//! adapted-TA baseline of §6.1, where *every* dimension is a 1-D
//! subproblem; an `SdIndex` bounds its unpaired dimensions by their extents
//! instead (see the parent module).

/// A dimension's values sorted ascending, each tagged with its row id, as
/// two parallel columns.
#[derive(Debug, Clone)]
pub struct SortedColumn {
    values: Vec<f64>,
    rows: Vec<u32>,
}

impl SortedColumn {
    /// Builds the sorted container from a column of values (row order).
    pub fn new(values: &[f64]) -> Self {
        let mut entries: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        entries.sort_by(|a, b| {
            crate::types::OrdF64(a.0)
                .cmp(&crate::types::OrdF64(b.0))
                .then(a.1.cmp(&b.1))
        });
        SortedColumn {
            values: entries.iter().map(|e| e.0).collect(),
            rows: entries.iter().map(|e| e.1).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + std::mem::size_of_val(&self.rows[..])
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    #[inline]
    fn row(&self, i: usize) -> u32 {
        self.rows[i]
    }
}

/// Farthest-first stream over one repulsive dimension: subscore
/// `+w·|v − q|`, non-increasing.
#[derive(Debug)]
pub struct RepulsiveStream<'a> {
    col: &'a SortedColumn,
    q: f64,
    w: f64,
    lo: usize,
    /// One past the last unconsumed index; empty when `lo == hi`.
    hi: usize,
}

impl<'a> RepulsiveStream<'a> {
    /// Starts the bidirectional scan with pointers at both ends.
    pub fn new(col: &'a SortedColumn, q: f64, weight: f64) -> Self {
        RepulsiveStream {
            col,
            q,
            w: weight,
            lo: 0,
            hi: col.len(),
        }
    }

    /// Admissible upper bound on the subscore of every row not yet
    /// emitted; `None` once the stream is drained (at which point every row
    /// of the column has been emitted).
    pub fn bound(&self) -> Option<f64> {
        if self.lo >= self.hi {
            return None;
        }
        let dl = self.w * (self.col.value(self.lo) - self.q).abs();
        let dh = self.w * (self.col.value(self.hi - 1) - self.q).abs();
        Some(dl.max(dh))
    }

    /// The next `(row, subscore)` in subscore order. (Deliberately named
    /// like `Iterator::next`; an `Iterator` impl would hide the `bound()`
    /// coupling callers rely on.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u32, f64)> {
        if self.lo >= self.hi {
            return None;
        }
        let dl = self.w * (self.col.value(self.lo) - self.q).abs();
        let dh = self.w * (self.col.value(self.hi - 1) - self.q).abs();
        if dl >= dh {
            let row = self.col.row(self.lo);
            self.lo += 1;
            Some((row, dl))
        } else {
            let row = self.col.row(self.hi - 1);
            self.hi -= 1;
            Some((row, dh))
        }
    }
}

/// Nearest-first stream over one attractive dimension: subscore
/// `−w·|v − q|`, non-increasing.
#[derive(Debug)]
pub struct AttractiveStream<'a> {
    col: &'a SortedColumn,
    q: f64,
    w: f64,
    /// Next candidate to the left (None when the left side is spent).
    left: Option<usize>,
    /// Next candidate to the right (== len when spent).
    right: usize,
}

impl<'a> AttractiveStream<'a> {
    /// Binary-searches the start position around `q` and expands outwards.
    pub fn new(col: &'a SortedColumn, q: f64, weight: f64) -> Self {
        let right = col.values.partition_point(|&v| v < q);
        let left = right.checked_sub(1);
        AttractiveStream {
            col,
            q,
            w: weight,
            left,
            right,
        }
    }

    /// See [`RepulsiveStream::bound`].
    pub fn bound(&self) -> Option<f64> {
        let dl = self
            .left
            .map(|i| self.w * (self.q - self.col.value(i)).abs());
        let dr = (self.right < self.col.len())
            .then(|| self.w * (self.col.value(self.right) - self.q).abs());
        match (dl, dr) {
            (Some(a), Some(b)) => Some(-a.min(b)),
            (Some(a), None) => Some(-a),
            (None, Some(b)) => Some(-b),
            (None, None) => None,
        }
    }

    /// See [`RepulsiveStream::next`].
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u32, f64)> {
        let dl = self
            .left
            .map(|i| self.w * (self.q - self.col.value(i)).abs());
        let dr = (self.right < self.col.len())
            .then(|| self.w * (self.col.value(self.right) - self.q).abs());
        match (dl, dr) {
            (Some(a), Some(b)) if a <= b => {
                let i = self.left.unwrap();
                let row = self.col.row(i);
                self.left = i.checked_sub(1);
                Some((row, -a))
            }
            (Some(a), None) => {
                let i = self.left.unwrap();
                let row = self.col.row(i);
                self.left = i.checked_sub(1);
                Some((row, -a))
            }
            (_, Some(b)) => {
                let row = self.col.row(self.right);
                self.right += 1;
                Some((row, -b))
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[f64]) -> SortedColumn {
        SortedColumn::new(values)
    }

    /// Everything a stream (of either type) still has to emit, in order.
    fn drain(next: impl FnMut() -> Option<(u32, f64)>) -> Vec<(u32, f64)> {
        std::iter::from_fn(next).collect()
    }

    #[test]
    fn repulsive_emits_farthest_first() {
        let c = col(&[10.0, 0.0, 5.0, 7.0]);
        let mut s = RepulsiveStream::new(&c, 6.0, 1.0);
        let seq = drain(|| s.next());
        let scores: Vec<f64> = seq.iter().map(|x| x.1).collect();
        assert_eq!(scores, vec![6.0, 4.0, 1.0, 1.0]);
        // Row ids: value 0.0 is row 1, value 10.0 is row 0.
        assert_eq!(seq[0].0, 1);
        assert_eq!(seq[1].0, 0);
    }

    #[test]
    fn attractive_emits_nearest_first() {
        let c = col(&[10.0, 0.0, 5.0, 7.0]);
        let mut s = AttractiveStream::new(&c, 6.0, 2.0);
        let seq = drain(|| s.next());
        let scores: Vec<f64> = seq.iter().map(|x| x.1).collect();
        assert_eq!(scores, vec![-2.0, -2.0, -8.0, -12.0]);
    }

    #[test]
    fn streams_enumerate_all_rows_once() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..100).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let c = col(&values);
        for q in [-6.0, 0.0, 2.3, 9.0] {
            let mut rep = RepulsiveStream::new(&c, q, 0.7);
            let rows: Vec<u32> = drain(|| rep.next()).iter().map(|x| x.0).collect();
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 100);

            let mut att = AttractiveStream::new(&c, q, 0.7);
            let rows: Vec<u32> = drain(|| att.next()).iter().map(|x| x.0).collect();
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 100);
        }
    }

    #[test]
    fn streams_are_nonincreasing_with_valid_bounds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let values: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
        let c = col(&values);
        let q = 0.42;
        let mut rep = RepulsiveStream::new(&c, q, 1.3);
        let mut att = AttractiveStream::new(&c, q, 0.9);
        // One `(bound before the pull, pull)` step of either stream type.
        fn check(mut step: impl FnMut() -> (Option<f64>, Option<(u32, f64)>)) {
            let mut last = f64::INFINITY;
            loop {
                match step() {
                    (b, Some((_, sc))) => {
                        assert!(sc <= last + 1e-12);
                        assert!(b.unwrap() >= sc - 1e-12, "bound must cover next emission");
                        last = sc;
                    }
                    (b, None) => {
                        assert!(b.is_none());
                        break;
                    }
                }
            }
        }
        check(|| (rep.bound(), rep.next()));
        check(|| (att.bound(), att.next()));
    }

    #[test]
    fn empty_column() {
        let c = col(&[]);
        let mut rep = RepulsiveStream::new(&c, 0.0, 1.0);
        assert!(rep.bound().is_none());
        assert!(rep.next().is_none());
        let mut att = AttractiveStream::new(&c, 0.0, 1.0);
        assert!(att.bound().is_none());
        assert!(att.next().is_none());
    }

    #[test]
    fn zero_weight_is_constant_stream() {
        let c = col(&[1.0, 2.0, 3.0]);
        let mut rep = RepulsiveStream::new(&c, 0.0, 0.0);
        assert_eq!(rep.bound(), Some(0.0));
        let all = drain(|| rep.next());
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn query_outside_range() {
        let c = col(&[1.0, 2.0, 3.0]);
        // q far left: attractive starts at the leftmost value.
        let mut att = AttractiveStream::new(&c, -10.0, 1.0);
        assert_eq!(att.next().unwrap().1, -11.0);
        // q far right.
        let mut att = AttractiveStream::new(&c, 10.0, 1.0);
        assert_eq!(att.next().unwrap().1, -7.0);
    }
}
