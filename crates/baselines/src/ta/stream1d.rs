//! The adapted TA's per-dimension sorted lists and the bidirectional
//! searches over them.
//!
//! A *repulsive* dimension is consumed from both ends of its sorted column
//! (farthest value first); an *attractive* dimension from a binary-searched
//! start position outwards (nearest value first). Either way the stream
//! emits `(row, subscore)` pairs in non-increasing subscore order, and its
//! bound — the subscore of the row it emits next — covers every row it has
//! not emitted yet.

use sdq_core::{DimRole, OrdF64};

/// A dimension's values sorted ascending, each tagged with its row id, as
/// two parallel columns.
#[derive(Debug, Clone)]
pub(super) struct SortedColumn {
    values: Vec<f64>,
    rows: Vec<u32>,
}

impl SortedColumn {
    /// Builds the sorted container from a column of values (row order).
    pub(super) fn new(values: &[f64]) -> Self {
        let mut entries: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        entries.sort_by(|a, b| OrdF64(a.0).cmp(&OrdF64(b.0)).then(a.1.cmp(&b.1)));
        SortedColumn {
            values: entries.iter().map(|e| e.0).collect(),
            rows: entries.iter().map(|e| e.1).collect(),
        }
    }

    /// Approximate heap footprint in bytes.
    pub(super) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + std::mem::size_of_val(&self.rows[..])
    }
}

/// One dimension's TA stream: subscore `+w·|v − q|` farthest first on a
/// repulsive column, `−w·|v − q|` nearest first on an attractive one.
#[derive(Debug)]
pub(super) struct ColumnStream<'a> {
    col: &'a SortedColumn,
    q: f64,
    /// The role-signed weight: `w` on a repulsive column, `−w` on an
    /// attractive one.
    sw: f64,
    repulsive: bool,
    /// Repulsive: the rows not emitted yet are `lo..hi`. Attractive: the
    /// rows emitted so far are `lo..hi`, grown outwards from `q`.
    lo: usize,
    hi: usize,
}

impl<'a> ColumnStream<'a> {
    /// Starts the stream: at both ends of the column for a repulsive
    /// dimension, at the binary-searched position of `q` for an attractive
    /// one.
    pub(super) fn new(col: &'a SortedColumn, role: DimRole, q: f64, weight: f64) -> Self {
        let cursor = if role == DimRole::Repulsive {
            (0, col.values.len())
        } else {
            let start = col.values.partition_point(|&v| v < q);
            (start, start)
        };
        Self::resume(col, role, q, weight, cursor)
    }

    /// The stream [`ColumnStream::new`] started, at the `cursor` an earlier
    /// view of it left ([`ColumnStream::cursor`]): a loop that keeps only
    /// its streams' cursors rebuilds each stream from one, for free.
    #[inline]
    pub(super) fn resume(
        col: &'a SortedColumn,
        role: DimRole,
        q: f64,
        weight: f64,
        (lo, hi): (usize, usize),
    ) -> Self {
        let repulsive = role == DimRole::Repulsive;
        ColumnStream {
            col,
            q,
            sw: if repulsive { weight } else { -weight },
            repulsive,
            lo,
            hi,
        }
    }

    /// The column index and subscore of the row emitted next: the better of
    /// the two candidates, the left one on a tie. `None` once drained.
    #[inline]
    fn peek(&self) -> Option<(usize, f64)> {
        let (left, right) = if self.repulsive {
            let live = self.lo < self.hi;
            (live.then_some(self.lo), live.then(|| self.hi - 1))
        } else {
            let right = (self.hi < self.col.values.len()).then_some(self.hi);
            (self.lo.checked_sub(1), right)
        };
        let sub = |i: usize| (i, self.sw * (self.col.values[i] - self.q).abs());
        match (left.map(sub), right.map(sub)) {
            (Some(l), Some(r)) => Some(if l.1 >= r.1 { l } else { r }),
            (l, r) => l.or(r),
        }
    }

    /// Where the stream stands: what [`ColumnStream::resume`] continues
    /// from.
    #[inline]
    pub(super) fn cursor(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Admissible upper bound on the subscore of every row not yet
    /// emitted; `None` once the stream is drained (at which point every row
    /// of the column has been emitted).
    #[inline]
    pub(super) fn bound(&self) -> Option<f64> {
        self.peek().map(|(_, s)| s)
    }

    /// The next `(row, subscore)` in subscore order. (Deliberately named
    /// like `Iterator::next`; an `Iterator` impl would hide the `bound()`
    /// coupling callers rely on.)
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub(super) fn next(&mut self) -> Option<(u32, f64)> {
        let (i, s) = self.peek()?;
        if self.repulsive {
            if i == self.lo {
                self.lo += 1;
            } else {
                self.hi -= 1;
            }
        } else if i < self.lo {
            self.lo -= 1;
        } else {
            self.hi += 1;
        }
        Some((self.col.rows[i], s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[f64]) -> SortedColumn {
        SortedColumn::new(values)
    }

    fn repulsive(c: &SortedColumn, q: f64, w: f64) -> ColumnStream<'_> {
        ColumnStream::new(c, DimRole::Repulsive, q, w)
    }

    fn attractive(c: &SortedColumn, q: f64, w: f64) -> ColumnStream<'_> {
        ColumnStream::new(c, DimRole::Attractive, q, w)
    }

    /// Everything a stream still has to emit, in order.
    fn drain(s: &mut ColumnStream<'_>) -> Vec<(u32, f64)> {
        std::iter::from_fn(|| s.next()).collect()
    }

    #[test]
    fn repulsive_emits_farthest_first() {
        let c = col(&[10.0, 0.0, 5.0, 7.0]);
        let seq = drain(&mut repulsive(&c, 6.0, 1.0));
        let scores: Vec<f64> = seq.iter().map(|x| x.1).collect();
        assert_eq!(scores, vec![6.0, 4.0, 1.0, 1.0]);
        // Row ids: value 0.0 is row 1, value 10.0 is row 0.
        assert_eq!(seq[0].0, 1);
        assert_eq!(seq[1].0, 0);
    }

    #[test]
    fn attractive_emits_nearest_first() {
        let c = col(&[10.0, 0.0, 5.0, 7.0]);
        let seq = drain(&mut attractive(&c, 6.0, 2.0));
        let scores: Vec<f64> = seq.iter().map(|x| x.1).collect();
        assert_eq!(scores, vec![-2.0, -2.0, -8.0, -12.0]);
        // The tie at distance 1 goes to the left candidate (5.0, row 2).
        assert_eq!(seq[0].0, 2);
    }

    #[test]
    fn streams_enumerate_all_rows_once() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..100).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let c = col(&values);
        for q in [-6.0, 0.0, 2.3, 9.0] {
            for mut s in [repulsive(&c, q, 0.7), attractive(&c, q, 0.7)] {
                let mut rows: Vec<u32> = drain(&mut s).iter().map(|x| x.0).collect();
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(rows.len(), 100);
            }
        }
    }

    #[test]
    fn streams_are_nonincreasing_with_valid_bounds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let values: Vec<f64> = (0..200).map(|_| rng.gen_range(0.0..1.0)).collect();
        let c = col(&values);
        let q = 0.42;
        for mut s in [repulsive(&c, q, 1.3), attractive(&c, q, 0.9)] {
            let mut last = f64::INFINITY;
            loop {
                match (s.bound(), s.next()) {
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
    }

    #[test]
    fn empty_column() {
        let c = col(&[]);
        for mut s in [repulsive(&c, 0.0, 1.0), attractive(&c, 0.0, 1.0)] {
            assert!(s.bound().is_none());
            assert!(s.next().is_none());
        }
    }

    #[test]
    fn zero_weight_is_constant_stream() {
        let c = col(&[1.0, 2.0, 3.0]);
        let mut rep = repulsive(&c, 0.0, 0.0);
        assert_eq!(rep.bound(), Some(0.0));
        let all = drain(&mut rep);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn query_outside_range() {
        let c = col(&[1.0, 2.0, 3.0]);
        // q far left: attractive starts at the leftmost value.
        assert_eq!(attractive(&c, -10.0, 1.0).next().unwrap().1, -11.0);
        // q far right.
        assert_eq!(attractive(&c, 10.0, 1.0).next().unwrap().1, -7.0);
    }
}
