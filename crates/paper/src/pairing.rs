//! Dimension pairing for the §5 decomposition.
//!
//! `min(|D|, |S|)` repulsive↔attractive pairs become 2-D subproblems served
//! by the §4 index ([`PairedIndex`](crate::PairedIndex) builds one per
//! pair); leftovers become 1-D subproblems. The paper pairs
//! arbitrarily and calls a smarter mapping future work — we provide both
//! the arbitrary mapping and a correlation-aware greedy matching (paired
//! dimensions whose values are strongly correlated produce tighter 2-D
//! score distributions and hence earlier threshold termination).

use sdq_core::{Dataset, DimRole, OrdF64, PointId};

/// One 2-D subproblem: a repulsive dimension mapped to an attractive one
/// (the bijection `f : M → N` of Eqn. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimPair {
    /// Dimension index in `D` (repulsive; becomes the tree's `y`).
    pub repulsive: usize,
    /// Dimension index in `S` (attractive; becomes the tree's `x`).
    pub attractive: usize,
}

/// How repulsive and attractive dimensions are matched into pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairingStrategy {
    /// Pair in dimension order — the paper's default ("the mapping … is
    /// currently performed in an arbitrary manner").
    #[default]
    Arbitrary,
    /// Greedy matching by descending |Pearson correlation| (the paper's
    /// future-work direction, implemented here).
    CorrelationAware,
}

/// Splits `roles` into pairs plus unpaired leftover dimensions.
pub fn pair_dimensions(
    data: &Dataset,
    roles: &[DimRole],
    strategy: PairingStrategy,
) -> (Vec<DimPair>, Vec<usize>) {
    let rep: Vec<usize> = roles
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == DimRole::Repulsive)
        .map(|(i, _)| i)
        .collect();
    let att: Vec<usize> = roles
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == DimRole::Attractive)
        .map(|(i, _)| i)
        .collect();
    let n_pairs = rep.len().min(att.len());

    let pairs: Vec<DimPair> = match strategy {
        PairingStrategy::Arbitrary => (0..n_pairs)
            .map(|i| DimPair {
                repulsive: rep[i],
                attractive: att[i],
            })
            .collect(),
        PairingStrategy::CorrelationAware => greedy_by_correlation(data, &rep, &att, n_pairs),
    };

    let mut used = vec![false; roles.len()];
    for p in &pairs {
        used[p.repulsive] = true;
        used[p.attractive] = true;
    }
    let unpaired = (0..roles.len()).filter(|&d| !used[d]).collect();
    (pairs, unpaired)
}

/// Greedy maximum-|correlation| matching over the complete bipartite graph
/// of repulsive × attractive dimensions.
fn greedy_by_correlation(
    data: &Dataset,
    rep: &[usize],
    att: &[usize],
    n_pairs: usize,
) -> Vec<DimPair> {
    // Sample rows to keep correlation estimation cheap on huge datasets.
    const MAX_SAMPLE: usize = 10_000;
    let n = data.len();
    let stride = n.div_ceil(MAX_SAMPLE).max(1);

    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(rep.len() * att.len());
    for &r in rep {
        for &a in att {
            let c = sampled_correlation(data, r, a, stride).abs();
            edges.push((c, r, a));
        }
    }
    edges.sort_by_key(|e| std::cmp::Reverse(OrdF64(e.0)));

    let mut rep_used: Vec<usize> = Vec::new();
    let mut att_used: Vec<usize> = Vec::new();
    let mut pairs = Vec::with_capacity(n_pairs);
    for (_, r, a) in edges {
        if pairs.len() == n_pairs {
            break;
        }
        if rep_used.contains(&r) || att_used.contains(&a) {
            continue;
        }
        rep_used.push(r);
        att_used.push(a);
        pairs.push(DimPair {
            repulsive: r,
            attractive: a,
        });
    }
    pairs
}

/// Pearson correlation of two dimensions over every `stride`-th row.
fn sampled_correlation(data: &Dataset, d1: usize, d2: usize, stride: usize) -> f64 {
    let mut n = 0usize;
    let (mut s1, mut s2, mut s11, mut s22, mut s12) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut row = 0usize;
    while row < data.len() {
        let id = PointId::new(row as u32);
        let (a, b) = (data.coord(id, d1), data.coord(id, d2));
        s1 += a;
        s2 += b;
        s11 += a * a;
        s22 += b * b;
        s12 += a * b;
        n += 1;
        row += stride;
    }
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let cov = s12 - s1 * s2 / nf;
    let var1 = s11 - s1 * s1 / nf;
    let var2 = s22 - s2 * s2 / nf;
    if var1 <= 0.0 || var2 <= 0.0 {
        return 0.0;
    }
    cov / (var1 * var2).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roles(spec: &str) -> Vec<DimRole> {
        spec.chars()
            .map(|c| {
                if c == 'r' {
                    DimRole::Repulsive
                } else {
                    DimRole::Attractive
                }
            })
            .collect()
    }

    #[test]
    fn arbitrary_pairing_zips_in_order() {
        let data = Dataset::from_flat(5, vec![0.0; 5]).unwrap();
        let (pairs, rest) = pair_dimensions(&data, &roles("rarar"), PairingStrategy::Arbitrary);
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            pairs[0],
            DimPair {
                repulsive: 0,
                attractive: 1
            }
        );
        assert_eq!(
            pairs[1],
            DimPair {
                repulsive: 2,
                attractive: 3
            }
        );
        assert_eq!(rest, vec![4]);
    }

    #[test]
    fn all_same_role_means_no_pairs() {
        let data = Dataset::from_flat(3, vec![0.0; 3]).unwrap();
        let (pairs, rest) = pair_dimensions(&data, &roles("rrr"), PairingStrategy::Arbitrary);
        assert!(pairs.is_empty());
        assert_eq!(rest, vec![0, 1, 2]);
        let (pairs, rest) = pair_dimensions(&data, &roles("aaa"), PairingStrategy::Arbitrary);
        assert!(pairs.is_empty());
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn balanced_roles_leave_nothing_unpaired() {
        let data = Dataset::from_flat(6, vec![0.0; 6]).unwrap();
        let (pairs, rest) = pair_dimensions(&data, &roles("rrraaa"), PairingStrategy::Arbitrary);
        assert_eq!(pairs.len(), 3);
        assert!(rest.is_empty());
    }

    #[test]
    fn correlation_aware_prefers_correlated_pairs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        // dim0 (rep) strongly correlates with dim3 (att);
        // dim1 (rep) with dim2 (att).
        let mut rows = Vec::new();
        for _ in 0..500 {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![
                a,
                b,
                b + rng.gen_range(-0.01..0.01),
                a + rng.gen_range(-0.01..0.01),
            ]);
        }
        let data = Dataset::from_rows(4, &rows).unwrap();
        let (pairs, rest) =
            pair_dimensions(&data, &roles("rraa"), PairingStrategy::CorrelationAware);
        assert!(rest.is_empty());
        assert!(pairs.contains(&DimPair {
            repulsive: 0,
            attractive: 3
        }));
        assert!(pairs.contains(&DimPair {
            repulsive: 1,
            attractive: 2
        }));
    }

    #[test]
    fn correlation_aware_pairs_min_count_even_with_flat_columns() {
        // Zero-variance columns give zero correlation but must still pair.
        let data = Dataset::from_flat(4, vec![1.0; 16]).unwrap();
        let (pairs, rest) =
            pair_dimensions(&data, &roles("rraa"), PairingStrategy::CorrelationAware);
        assert_eq!(pairs.len(), 2);
        assert!(rest.is_empty());
    }

    #[test]
    fn correlation_math() {
        let data = Dataset::from_rows(
            2,
            &[
                vec![1.0, 2.0],
                vec![2.0, 4.0],
                vec![3.0, 6.0],
                vec![4.0, 8.0],
            ],
        )
        .unwrap();
        let c = sampled_correlation(&data, 0, 1, 1);
        assert!((c - 1.0).abs() < 1e-12);
    }
}
