//! Order statistics and the benchmark's own seeded generator.

use std::time::Instant;

/// SplitMix64: every input of a run (data seed, query seed, mutation
/// script) is drawn from one of these, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nanoseconds since `t`, as the float every sample is kept in.
pub fn nanos_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Linear-interpolation quantile (`p` in `[0, 1]`) of an ascending slice;
/// `0.0` for an empty one.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `samples` and returns the quantile.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, p)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or `0.0` when the denominator is zero (a counter ratio on
/// a workload that never reaches that layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }
}
