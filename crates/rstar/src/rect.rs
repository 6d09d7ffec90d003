//! Axis-aligned bounding rectangles over a dynamic number of dimensions.

/// An axis-aligned box `[lo, hi]` (inclusive on both ends), the MBR unit of
/// the R*-tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// A rect spanning the single point `p`.
    pub fn point(p: &[f64]) -> Self {
        Rect {
            lo: p.into(),
            hi: p.into(),
        }
    }

    /// A rect from explicit bounds; `lo[i] ≤ hi[i]` must hold.
    pub fn new(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(hi).all(|(a, b)| a <= b), "inverted rect");
        Rect {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// The "empty" rect that unions as the identity.
    pub fn empty(dims: usize) -> Self {
        Rect {
            lo: vec![f64::INFINITY; dims].into(),
            hi: vec![f64::NEG_INFINITY; dims].into(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Grows to cover `other`.
    pub fn union_with(&mut self, other: &Rect) {
        for (a, &b) in self.lo.iter_mut().zip(other.lo.iter()) {
            *a = a.min(b);
        }
        for (a, &b) in self.hi.iter_mut().zip(other.hi.iter()) {
            *a = a.max(b);
        }
    }

    /// Grows to cover the point `p`.
    pub fn extend_point(&mut self, p: &[f64]) {
        for (a, &x) in self.lo.iter_mut().zip(p) {
            *a = a.min(x);
        }
        for (a, &x) in self.hi.iter_mut().zip(p) {
            *a = a.max(x);
        }
    }

    /// Hyper-volume (product of side lengths).
    pub fn area(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| (h - l).max(0.0))
            .product()
    }

    /// Half-perimeter (sum of side lengths) — the R* margin measure.
    pub fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| (h - l).max(0.0))
            .sum()
    }

    /// Volume of the intersection with `other`.
    pub fn overlap(&self, other: &Rect) -> f64 {
        let mut v = 1.0;
        for i in 0..self.lo.len() {
            let side = self.hi[i].min(other.hi[i]) - self.lo[i].max(other.lo[i]);
            if side <= 0.0 {
                return 0.0;
            }
            v *= side;
        }
        v
    }

    /// Area increase needed to absorb `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        let mut grown = self.clone();
        grown.union_with(other);
        grown.area() - self.area()
    }

    /// `true` when `p` lies inside (inclusive).
    pub fn contains_point(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(p)
            .all(|((l, h), x)| l <= x && x <= h)
    }

    /// `true` when `other` lies fully inside (inclusive).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.iter().zip(other.lo.iter()).all(|(a, b)| a <= b)
            && self.hi.iter().zip(other.hi.iter()).all(|(a, b)| a >= b)
    }

    /// `true` when the boxes intersect (inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.iter().zip(other.hi.iter()).all(|(a, b)| a <= b)
            && self.hi.iter().zip(other.lo.iter()).all(|(a, b)| a >= b)
    }

    /// Centre coordinate along `dim`.
    #[inline]
    pub fn center(&self, dim: usize) -> f64 {
        (self.lo[dim] + self.hi[dim]) / 2.0
    }

    /// Squared Euclidean distance from `p` to the closest rect point
    /// (0 when inside) — the kNN `mindist`.
    pub fn min_dist2(&self, p: &[f64]) -> f64 {
        let mut d2 = 0.0;
        for ((&lo, &hi), &x) in self.lo.iter().zip(self.hi.iter()).zip(p) {
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2
    }

    /// Per-dimension distance from `p[dim]` to the interval (0 when inside).
    #[inline]
    pub fn min_dist_dim(&self, dim: usize, x: f64) -> f64 {
        if x < self.lo[dim] {
            self.lo[dim] - x
        } else if x > self.hi[dim] {
            x - self.hi[dim]
        } else {
            0.0
        }
    }

    /// Per-dimension farthest distance from `p[dim]` to the interval.
    #[inline]
    pub fn max_dist_dim(&self, dim: usize, x: f64) -> f64 {
        (x - self.lo[dim]).abs().max((x - self.hi[dim]).abs())
    }

    /// Squared distance between centres (forced-reinsert ordering).
    pub fn center_dist2(&self, other: &Rect) -> f64 {
        (0..self.lo.len())
            .map(|i| {
                let d = self.center(i) - other.center(i);
                d * d
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_geometry() {
        let r = Rect::point(&[1.0, 2.0]);
        assert_eq!(r.area(), 0.0);
        assert_eq!(r.margin(), 0.0);
        assert!(r.contains_point(&[1.0, 2.0]));
        assert!(!r.contains_point(&[1.0, 2.1]));
    }

    #[test]
    fn union_and_area() {
        let mut r = Rect::point(&[0.0, 0.0]);
        r.extend_point(&[2.0, 3.0]);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
        let mut e = Rect::empty(2);
        e.union_with(&r);
        assert_eq!(e, r);
    }

    #[test]
    fn overlap_cases() {
        let a = Rect::new(&[0.0, 0.0], &[2.0, 2.0]);
        let b = Rect::new(&[1.0, 1.0], &[3.0, 3.0]);
        assert_eq!(a.overlap(&b), 1.0);
        let c = Rect::new(&[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(a.overlap(&c), 0.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Touching boxes intersect with zero overlap.
        let d = Rect::new(&[2.0, 0.0], &[3.0, 2.0]);
        assert!(a.intersects(&d));
        assert_eq!(a.overlap(&d), 0.0);
    }

    #[test]
    fn enlargement() {
        let a = Rect::new(&[0.0, 0.0], &[1.0, 1.0]);
        let b = Rect::point(&[2.0, 0.5]);
        assert_eq!(a.enlargement(&b), 1.0);
        assert_eq!(a.enlargement(&Rect::point(&[0.5, 0.5])), 0.0);
    }

    #[test]
    fn containment_and_distance() {
        let a = Rect::new(&[0.0, 0.0], &[4.0, 4.0]);
        assert!(a.contains_rect(&Rect::new(&[1.0, 1.0], &[2.0, 2.0])));
        assert!(!a.contains_rect(&Rect::new(&[1.0, 1.0], &[5.0, 2.0])));
        assert_eq!(a.min_dist2(&[2.0, 2.0]), 0.0);
        assert_eq!(a.min_dist2(&[6.0, 4.0]), 4.0);
        assert_eq!(a.min_dist_dim(0, -3.0), 3.0);
        assert_eq!(a.max_dist_dim(0, -3.0), 7.0);
        assert_eq!(a.max_dist_dim(0, 1.0), 3.0);
    }

    #[test]
    fn empty_rect_identities() {
        let e = Rect::empty(3);
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
        assert!(!e.contains_point(&[0.0, 0.0, 0.0]));
    }
}
