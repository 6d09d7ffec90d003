//! Row liveness masking: the tombstone side of the live-mutation subsystem.
//!
//! A [`RowMask`] is a plain bitmap over a row-id domain — bit set means the
//! row is *dead* (tombstoned). Deletion in the engine never touches the
//! immutable index structures: the row stays in every tree and sorted
//! column, and queries drop it **before** it can enter the query's floor,
//! the answer heap. That placement matters for exactness: a dead row's
//! score in the floor could prune *live* rows incorrectly, or answer, so
//! the mask is consulted at scoring time. Bounds (`τ`) keep covering dead rows — an upper bound over a
//! superset is still admissible for the live subset, it only prunes
//! slightly less until the next compaction drops the tombstones for real.
//!
//! The box scan reads the engine-global mask at a row's global
//! id, which every shard's id column holds. A [`MaskView`] adapts it to the
//! delta region's local rows (global id = base rows + delta row), which is
//! the form the delta scan consumes.

/// A bitmap of tombstoned (dead) rows over a contiguous id domain.
///
/// The domain only ever grows (inserts extend it); compaction replaces the
/// whole mask. `set`/`get` are O(1); range counts popcount whole words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowMask {
    bits: Vec<u64>,
    domain: usize,
    set: usize,
}

impl RowMask {
    /// An all-live mask over `domain` rows.
    pub fn new(domain: usize) -> Self {
        RowMask {
            bits: vec![0; domain.div_ceil(64)],
            domain,
            set: 0,
        }
    }

    /// Number of addressable rows.
    #[inline]
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Extends the domain to `domain` rows (new rows are live). Shrinking
    /// is a no-op — compaction builds a fresh mask instead.
    pub fn grow(&mut self, domain: usize) {
        if domain > self.domain {
            self.domain = domain;
            self.bits.resize(domain.div_ceil(64), 0);
        }
    }

    /// Marks `row` dead; returns `true` when the bit was newly set.
    ///
    /// # Panics
    /// When `row` is outside the domain (callers validate ids first).
    pub fn set(&mut self, row: usize) -> bool {
        assert!(
            row < self.domain,
            "row {row} outside mask domain {}",
            self.domain
        );
        let (word, bit) = (row / 64, 1u64 << (row % 64));
        let newly = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        self.set += usize::from(newly);
        newly
    }

    /// `true` when `row` is dead. Rows outside the domain are live.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        self.bits
            .get(row / 64)
            .is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// Number of dead rows.
    #[inline]
    pub fn set_count(&self) -> usize {
        self.set
    }

    /// `true` when at least one row is dead.
    #[inline]
    pub fn any(&self) -> bool {
        self.set > 0
    }

    /// Number of dead rows in `[start, end)`.
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.domain);
        if start >= end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let lo_mask = !0u64 << (start % 64);
        let hi_mask = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            return (self.bits[first] & lo_mask & hi_mask).count_ones() as usize;
        }
        let mut n = (self.bits[first] & lo_mask).count_ones() as usize;
        for w in &self.bits[first + 1..last] {
            n += w.count_ones() as usize;
        }
        n + (self.bits[last] & hi_mask).count_ones() as usize
    }

    /// The dead bits of rows `[start, start + 32)` as one word (bit `l` =
    /// row `start + l`; rows outside the domain report live) — the
    /// branchless block-mask form the SoA scan kernels AND against their
    /// live-lane masks.
    #[inline]
    pub fn dead_word32(&self, start: usize) -> u32 {
        let w = start / 64;
        let off = start % 64;
        let lo = self.bits.get(w).copied().unwrap_or(0) >> off;
        let hi = if off == 0 {
            0
        } else {
            self.bits.get(w + 1).copied().unwrap_or(0) << (64 - off)
        };
        (lo | hi) as u32
    }

    /// The dead row ids, ascending — the canonical serialisation order.
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let base = w as u32 * 64;
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| base + b)
        })
    }
}

/// A shard-local lens over an engine-global [`RowMask`]: local row `r`
/// resolves to global row `offset + r`.
#[derive(Debug, Clone, Copy)]
pub struct MaskView<'a> {
    mask: &'a RowMask,
    offset: u32,
}

impl<'a> MaskView<'a> {
    /// Views `mask` with local ids shifted by `offset`.
    pub fn new(mask: &'a RowMask, offset: u32) -> Self {
        MaskView { mask, offset }
    }

    /// `true` when local row `row` is tombstoned.
    #[inline]
    pub fn is_dead(&self, row: u32) -> bool {
        self.mask.get(self.offset as usize + row as usize)
    }

    /// The dead bits of local rows `[local_start, local_start + 32)` as one
    /// word; see [`RowMask::dead_word32`].
    #[inline]
    pub fn dead_word32(&self, local_start: u32) -> u32 {
        self.mask
            .dead_word32(self.offset as usize + local_start as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = RowMask::new(200);
        assert_eq!(m.domain(), 200);
        assert!(!m.any());
        assert!(m.set(0));
        assert!(m.set(63));
        assert!(m.set(64));
        assert!(m.set(199));
        assert!(!m.set(63), "second set reports already-dead");
        assert_eq!(m.set_count(), 4);
        assert!(m.get(64));
        assert!(!m.get(65));
        assert!(!m.get(100_000), "outside the domain is live");
    }

    #[test]
    fn range_counts_match_naive() {
        let mut m = RowMask::new(300);
        for r in [0usize, 1, 7, 63, 64, 65, 127, 128, 200, 299] {
            m.set(r);
        }
        for (a, b) in [
            (0, 300),
            (0, 1),
            (1, 64),
            (63, 65),
            (64, 128),
            (120, 260),
            (299, 300),
            (10, 10),
            (250, 900),
        ] {
            let naive = (a..b.min(300)).filter(|&r| m.get(r)).count();
            assert_eq!(m.count_range(a, b), naive, "range [{a}, {b})");
        }
    }

    #[test]
    fn ones_ascending() {
        let mut m = RowMask::new(130);
        for r in [129usize, 3, 64, 70] {
            m.set(r);
        }
        let ids: Vec<u32> = m.ones().collect();
        assert_eq!(ids, vec![3, 64, 70, 129]);
    }

    #[test]
    fn grow_preserves_bits() {
        let mut m = RowMask::new(10);
        m.set(9);
        m.grow(5); // shrink request: no-op
        assert_eq!(m.domain(), 10);
        m.grow(500);
        assert_eq!(m.domain(), 500);
        assert!(m.get(9));
        assert!(m.set(499));
        assert_eq!(m.set_count(), 2);
    }

    #[test]
    fn dead_word_matches_per_bit_reads() {
        let mut m = RowMask::new(200);
        for r in [0usize, 5, 31, 32, 63, 64, 65, 96, 127, 130, 199] {
            m.set(r);
        }
        for start in [0usize, 1, 17, 31, 32, 33, 63, 64, 65, 100, 180, 190, 500] {
            let word = m.dead_word32(start);
            for l in 0..32 {
                assert_eq!(
                    word & (1 << l) != 0,
                    m.get(start + l),
                    "start {start}, lane {l}"
                );
            }
        }
        // Views shift by their offset.
        let v = MaskView::new(&m, 64);
        assert_eq!(v.dead_word32(0), m.dead_word32(64));
        assert_eq!(v.dead_word32(7), m.dead_word32(71));
    }

    #[test]
    fn view_shifts_offsets() {
        let mut m = RowMask::new(100);
        m.set(40);
        m.set(41);
        m.set(99);
        let v = MaskView::new(&m, 40);
        assert!(v.is_dead(0));
        assert!(v.is_dead(1));
        assert!(!v.is_dead(2));
        assert!(v.is_dead(59));
    }
}
