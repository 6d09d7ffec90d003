//! Vectorized block-scoring kernels with runtime ISA dispatch.
//!
//! Every hot loop in the workspace ultimately evaluates the same shape of
//! arithmetic: *for a batch of points, accumulate `Σ_d sw_d·|p_d − q_d|`*
//! (the SD-score with pre-signed weights, Eqn. 3). This module owns that
//! arithmetic once — over fixed-width structure-of-arrays *lanes*
//! ([`LANES`] points per block), and over runs of consecutive rows of the
//! row-major coordinate table ([`score_rows`]) — with three interchangeable
//! backends:
//!
//! * a chunk-oriented **scalar** loop (the portable reference, and the
//!   `SDQ_FORCE_SCALAR` escape hatch),
//! * an **SSE2** path (baseline on `x86_64`),
//! * an **AVX2** path selected by runtime feature detection.
//!
//! ## Bit-identity contract
//!
//! All three backends produce **bit-identical** results: kernels vectorize
//! *across points* — each lane accumulates one point's score in dimension
//! order, exactly the order [`sd_score`](crate::score::sd_score) uses — and
//! every backend performs the same IEEE-754 operations (`sub`, `abs` as a
//! sign-bit mask, `mul`, `add`; never FMA, whose single rounding would
//! diverge from the scalar path). Score ties therefore resolve identically
//! whether a query ran vectorized or forced-scalar, which is what keeps the
//! engine's canonical-answer guarantee independent of the host CPU.
//!
//! ## Worked example
//!
//! ```
//! use sdq_core::kernels::{self, LANES};
//! use sdq_core::{sd_score, DimRole};
//!
//! // Two dimensions, SoA layout: one coordinate column per dimension.
//! let xs: Vec<f64> = (0..LANES).map(|l| l as f64).collect();
//! let ys: Vec<f64> = (0..LANES).map(|l| (l * 7 % 5) as f64).collect();
//! let roles = [DimRole::Attractive, DimRole::Repulsive];
//! let (q, w) = ([1.5, 2.0], [0.7, 1.3]);
//! // Pre-signed weights: attractive dims subtract, repulsive dims add.
//! let sw = [roles[0].sign() * w[0], roles[1].sign() * w[1]];
//!
//! let mut scores = [0.0; LANES];
//! kernels::score_zero(&mut scores);
//! kernels::score_add_dim(&mut scores, &xs, q[0], sw[0]);
//! kernels::score_add_dim(&mut scores, &ys, q[1], sw[1]);
//!
//! for l in 0..LANES {
//!     let scalar = sd_score(&[xs[l], ys[l]], &q, &roles, &w);
//!     assert_eq!(scores[l].to_bits(), scalar.to_bits()); // bit-identical
//! }
//! ```

use std::sync::atomic::{AtomicU8, Ordering};

/// Points per block: the fixed lane width of every SoA block in the
/// workspace (tree leaf blocks, delta-region blocks, gather batches).
///
/// 32 doubles = 256 bytes per dimension column = 4 cache lines, and 8 AVX2
/// vectors — wide enough to amortise per-block bookkeeping, small enough
/// that per-block min/max micro-envelopes still prune usefully.
pub const LANES: usize = 32;

/// A cache-aligned lane group: one dimension column of one block.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct LaneBlock(pub [f64; LANES]);

impl Default for LaneBlock {
    fn default() -> Self {
        LaneBlock([0.0; LANES])
    }
}

// Safety: `#[repr(C, align(64))]` over `[f64; LANES]` — no padding (size is
// a multiple of the alignment), and any bit pattern is a valid f64 array.
unsafe impl crate::view::Pod for LaneBlock {}

/// The instruction-set level the kernels dispatch to.
///
/// Dispatch is per kernel: the lane accumulators have AVX2 and SSE2 arms;
/// [`score_rows`], [`survivors`] and [`lane_filter`] have AVX2 arms and
/// otherwise run the scalar loops (which the compiler autovectorizes at the
/// x86-64 SSE2 baseline where it can). Every arm is bit-identical, so the
/// level a report prints (`QueryProfile::isa`, hence `sdq query
/// --profile-json`'s `isa` key; the benchmark's `isa=` header) is a
/// performance label, never a results label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable chunked-scalar loops (also the `SDQ_FORCE_SCALAR` path).
    Scalar,
    /// 2-lane `std::arch` SSE2 (baseline on `x86_64`).
    Sse2,
    /// 4-lane `std::arch` AVX2 (runtime-detected).
    Avx2,
}

impl Isa {
    /// Lower-case name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }
}

const ISA_UNSET: u8 = u8::MAX;

static ACTIVE: AtomicU8 = AtomicU8::new(ISA_UNSET);

fn detect() -> Isa {
    // The escape hatch: any non-empty value other than "0" forces the
    // scalar reference path (useful for debugging and the CI job that
    // keeps both dispatch paths green).
    if std::env::var("SDQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Sse2 // x86_64 baseline
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Scalar
    }
}

/// The ISA level every kernel currently dispatches to (detected once, then
/// cached; see [`force_scalar`] for the programmatic override).
#[inline]
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => Isa::Scalar,
        1 => Isa::Sse2,
        2 => Isa::Avx2,
        _ => {
            let isa = detect();
            ACTIVE.store(isa as u8, Ordering::Relaxed);
            isa
        }
    }
}

/// Forces (`true`) or lifts (`false`) the scalar fallback at runtime — the
/// programmatic twin of `SDQ_FORCE_SCALAR`, used by the bit-identity tests
/// to run both dispatch paths inside one process. Lifting re-runs
/// detection (which still honours the environment variable).
pub fn force_scalar(on: bool) {
    if on {
        ACTIVE.store(Isa::Scalar as u8, Ordering::Relaxed);
    } else {
        ACTIVE.store(ISA_UNSET, Ordering::Relaxed);
    }
}

// ─── accumulation kernels ───────────────────────────────────────────────────

/// Clears a score accumulator. Scores must start from `+0.0` — exactly like
/// the scalar `sd_score` — so that signed-zero terms round identically.
#[inline]
pub fn score_zero(acc: &mut [f64]) {
    acc.fill(0.0);
}

/// Accumulates one dimension into per-lane scores:
/// `acc[l] += sw · |col[l] − q|`.
///
/// Calling this once per dimension, in dimension order, over a zeroed
/// accumulator reproduces [`sd_score`](crate::score::sd_score) bit-for-bit
/// in every lane (`sw` is the role-signed weight `sign·w`, whose product
/// with the absolute difference rounds identically to the scalar
/// `sign * w * |p − q|`).
#[inline]
pub fn score_add_dim(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    debug_assert_eq!(acc.len(), col.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { score_add_dim_avx2(acc, col, q, sw) },
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { score_add_dim_sse2(acc, col, q, sw) },
        _ => score_add_dim_scalar(acc, col, q, sw),
    }
}

fn score_add_dim_scalar(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    for (a, &c) in acc.iter_mut().zip(col) {
        *a += sw * (c - q).abs();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_add_dim_avx2(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    use std::arch::x86_64::*;
    let qv = _mm256_set1_pd(q);
    let wv = _mm256_set1_pd(sw);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let n = acc.len();
    let mut i = 0;
    while i + 4 <= n {
        let c = _mm256_loadu_pd(col.as_ptr().add(i));
        let a = _mm256_loadu_pd(acc.as_ptr().add(i));
        let t = _mm256_and_pd(_mm256_sub_pd(c, qv), abs_mask);
        // mul then add (no FMA): identical rounding to the scalar path.
        let r = _mm256_add_pd(a, _mm256_mul_pd(wv, t));
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), r);
        i += 4;
    }
    score_add_dim_scalar(&mut acc[i..], &col[i..], q, sw);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn score_add_dim_sse2(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    use std::arch::x86_64::*;
    let qv = _mm_set1_pd(q);
    let wv = _mm_set1_pd(sw);
    let abs_mask = _mm_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let n = acc.len();
    let mut i = 0;
    while i + 2 <= n {
        let c = _mm_loadu_pd(col.as_ptr().add(i));
        let a = _mm_loadu_pd(acc.as_ptr().add(i));
        let t = _mm_and_pd(_mm_sub_pd(c, qv), abs_mask);
        let r = _mm_add_pd(a, _mm_mul_pd(wv, t));
        _mm_storeu_pd(acc.as_mut_ptr().add(i), r);
        i += 2;
    }
    score_add_dim_scalar(&mut acc[i..], &col[i..], q, sw);
}

/// Scores one 2-D SoA block at raw weights: per lane,
/// `out[l] = (−β)·|x[l] − qx| + α·|y[l] − qy|` — bit-identical to
/// [`sd_score_2d`](crate::score::sd_score_2d) (IEEE addition of the negated
/// term commutes with the scalar subtraction).
#[inline]
pub fn score_block_2d(
    out: &mut [f64],
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    alpha: f64,
    beta: f64,
) {
    score_zero(out);
    score_add_dim(out, xs, qx, -beta);
    score_add_dim(out, ys, qy, alpha);
}

// ─── row-major runs ─────────────────────────────────────────────────────────

/// Scores a run of consecutive rows straight off the row-major coordinate
/// table: `run` holds `scores.len()` rows of `dims` coordinates each, and
/// `scores[r] = Σ_d sw[d]·|run[r·dims + d] − q[d]|`, accumulated from `+0.0`
/// in dimension order — [`sd_score`](crate::score::sd_score) bit-for-bit
/// when `sw` holds the role-signed weights (see [`score_add_dim`]).
///
/// This is [`score_zero`] + one [`score_add_dim`] per dimension for rows
/// that are already adjacent in memory: no gather buffer is written and
/// the accumulator never leaves its register between dimensions. The AVX2
/// arm takes four rows at a time and transposes them four dimensions at a
/// time in registers; the scalar arm is the per-row loop that defines the
/// score, and also serves the last `scores.len() % 4` rows of the AVX2 arm.
///
/// # Panics
///
/// When `dims == 0`, `q` or `sw` is not `dims` long, or `run` is not
/// `scores.len() · dims` long.
#[inline]
pub fn score_rows(scores: &mut [f64], run: &[f64], dims: usize, q: &[f64], sw: &[f64]) {
    assert!(dims > 0 && q.len() == dims && sw.len() == dims);
    assert_eq!(run.len(), scores.len() * dims);
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` reports `Avx2` only after runtime detection of
        // the feature, and the two assertions above are the shape the arm
        // requires of its arguments.
        Isa::Avx2 => unsafe { score_rows_avx2(scores, run, dims, q, sw) },
        _ => score_rows_scalar(scores, run, dims, q, sw),
    }
}

fn score_rows_scalar(scores: &mut [f64], run: &[f64], dims: usize, q: &[f64], sw: &[f64]) {
    for (score, row) in scores.iter_mut().zip(run.chunks_exact(dims)) {
        let mut acc = 0.0;
        for d in 0..dims {
            acc += sw[d] * (row[d] - q[d]).abs();
        }
        *score = acc;
    }
}

/// # Safety
///
/// The host must support AVX2 (callers dispatch on [`active`]), and the
/// arguments must have the shape [`score_rows`] asserts: `q.len() == dims`,
/// `sw.len() == dims` and `run.len() == scores.len() * dims` — every load
/// below is at `row·dims + d` with `row < scores.len()` and `d < dims`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_rows_avx2(scores: &mut [f64], run: &[f64], dims: usize, q: &[f64], sw: &[f64]) {
    use std::arch::x86_64::*;
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    // acc + sw[d]·|col − q[d]|: mul then add (no FMA), as the scalar arm.
    let step = |acc: __m256d, col: __m256d, d: usize| -> __m256d {
        let t = _mm256_and_pd(
            _mm256_sub_pd(col, _mm256_set1_pd(*q.get_unchecked(d))),
            abs_mask,
        );
        _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(*sw.get_unchecked(d)), t))
    };
    let count = scores.len();
    let mut r = 0;
    while r + 4 <= count {
        let base = run.as_ptr().add(r * dims);
        let (r0, r1, r2, r3) = (base, base.add(dims), base.add(2 * dims), base.add(3 * dims));
        let mut acc = _mm256_setzero_pd();
        let mut d = 0;
        while d + 4 <= dims {
            // Four rows × four dimensions, transposed in registers: the
            // `c*` vectors hold one dimension of the four rows each.
            let (v0, v1) = (_mm256_loadu_pd(r0.add(d)), _mm256_loadu_pd(r1.add(d)));
            let (v2, v3) = (_mm256_loadu_pd(r2.add(d)), _mm256_loadu_pd(r3.add(d)));
            let (t0, t1) = (_mm256_unpacklo_pd(v0, v1), _mm256_unpackhi_pd(v0, v1));
            let (t2, t3) = (_mm256_unpacklo_pd(v2, v3), _mm256_unpackhi_pd(v2, v3));
            acc = step(acc, _mm256_permute2f128_pd::<0x20>(t0, t2), d);
            acc = step(acc, _mm256_permute2f128_pd::<0x20>(t1, t3), d + 1);
            acc = step(acc, _mm256_permute2f128_pd::<0x31>(t0, t2), d + 2);
            acc = step(acc, _mm256_permute2f128_pd::<0x31>(t1, t3), d + 3);
            d += 4;
        }
        while d < dims {
            // Tail dimensions: one coordinate from each of the four rows.
            let col = _mm256_set_pd(*r3.add(d), *r2.add(d), *r1.add(d), *r0.add(d));
            acc = step(acc, col, d);
            d += 1;
        }
        _mm256_storeu_pd(scores.as_mut_ptr().add(r), acc);
        r += 4;
    }
    score_rows_scalar(&mut scores[r..], &run[r * dims..], dims, q, sw);
}

// ─── survivor selection ─────────────────────────────────────────────────────

/// Batched k-th-floor compare: returns the bitmask of lanes that are alive
/// in `live` **and** whose score is `≥ floor` — the candidates that could
/// still matter to a top-k whose current k-th best is `floor` (ties kept;
/// strict losers can never displace k known scores). Lanes `≥ scores.len()`
/// are reported dead.
#[inline]
pub fn survivors(scores: &[f64], live: u32, floor: f64) -> u32 {
    debug_assert!(scores.len() <= 32);
    let mask = match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { ge_mask_avx2(scores, floor) },
        _ => ge_mask_scalar(scores, floor),
    };
    mask & live
}

fn ge_mask_scalar(scores: &[f64], floor: f64) -> u32 {
    let mut m = 0u32;
    for (l, &s) in scores.iter().enumerate() {
        m |= u32::from(s >= floor) << l;
    }
    m
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ge_mask_avx2(scores: &[f64], floor: f64) -> u32 {
    use std::arch::x86_64::*;
    let fv = _mm256_set1_pd(floor);
    let n = scores.len();
    let mut m = 0u32;
    let mut i = 0;
    while i + 4 <= n {
        let s = _mm256_loadu_pd(scores.as_ptr().add(i));
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(s, fv);
        m |= (_mm256_movemask_pd(ge) as u32) << i;
        i += 4;
    }
    if i < n {
        m |= ge_mask_scalar(&scores[i..], floor) << i;
    }
    m
}

// ─── floor lane filter ──────────────────────────────────────────────────────

/// Relative slack added to thresholds so floating-point rounding between
/// the rotated-key bounds and direct scoring can never cause a premature
/// emission or a wrong prune.
const EPS_REL: f64 = 1e-12;

/// `threshold` widened by the relative slack every bound compare in the
/// workspace applies: `t + EPS_REL·(1 + |t|)`. The one definition — the
/// certified loops of `topk` and `multidim` call it per compare, and it is
/// the scalar arm of [`lane_filter`] lane for lane.
#[inline]
pub fn inflate(threshold: f64) -> f64 {
    threshold + EPS_REL * (1.0 + threshold.abs())
}

/// Batched per-lane floor filter of the §5 aggregation: returns the bitmask
/// of lanes that are alive in `live` **and** satisfy
/// `floor <= inflate(scores[l] + others)` — the lanes of a popped block
/// whose pair subscore, plus everything the *other* streams can still
/// contribute, may yet reach the k-th-score floor. A lane outside the mask
/// can hold no top-k row and is dropped before it is gathered or scored.
/// Lanes `≥ scores.len()` are reported dead.
///
/// Every arm evaluates [`inflate`] with the same IEEE operations in the
/// same order (add, sign-mask abs, add 1, mul `EPS_REL`, add; never FMA)
/// and an ordered `<=`, so a NaN sum is dropped on every arm and the mask
/// is bit-identical across ISAs.
#[inline]
pub fn lane_filter(scores: &[f64], live: u32, others: f64, floor: f64) -> u32 {
    debug_assert!(scores.len() <= 32);
    let mask = match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` reports `Avx2` only after runtime detection of
        // the feature; the arm reads `scores` strictly inside its bounds
        // (four lanes at a time while `i + 4 <= len`).
        Isa::Avx2 => unsafe { lane_filter_avx2(scores, others, floor) },
        _ => lane_filter_scalar(scores, others, floor),
    };
    mask & live
}

fn lane_filter_scalar(scores: &[f64], others: f64, floor: f64) -> u32 {
    let mut m = 0u32;
    for (l, &s) in scores.iter().enumerate() {
        m |= u32::from(floor <= inflate(s + others)) << l;
    }
    m
}

/// # Safety
///
/// The host must support AVX2 (callers dispatch on [`active`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_filter_avx2(scores: &[f64], others: f64, floor: f64) -> u32 {
    use std::arch::x86_64::*;
    let ov = _mm256_set1_pd(others);
    let fv = _mm256_set1_pd(floor);
    let one = _mm256_set1_pd(1.0);
    let eps = _mm256_set1_pd(EPS_REL);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let n = scores.len();
    let mut m = 0u32;
    let mut i = 0;
    while i + 4 <= n {
        let t = _mm256_add_pd(_mm256_loadu_pd(scores.as_ptr().add(i)), ov);
        // inflate(t), operation for operation (mul then add, no FMA).
        let slack = _mm256_mul_pd(eps, _mm256_add_pd(one, _mm256_and_pd(t, abs_mask)));
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(fv, _mm256_add_pd(t, slack));
        m |= (_mm256_movemask_pd(le) as u32) << i;
        i += 4;
    }
    if i < n {
        m |= lane_filter_scalar(&scores[i..], others, floor) << i;
    }
    m
}

// ─── prefetch ───────────────────────────────────────────────────────────────

/// Hints the cache hierarchy to load the line holding `*p` (all levels).
/// Purely a performance hint: it reads nothing architecturally, so any
/// pointer value is acceptable — callers index with
/// `as_ptr().wrapping_add(i)` and need no bounds proof. A no-op off x86-64.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHh never faults and has no architectural effect — an
    // unmapped, unaligned or dangling address is simply ignored — and SSE
    // is part of the x86-64 baseline, so the instruction always exists.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

// ─── envelope bounds ────────────────────────────────────────────────────────

/// Admissible upper bound on the SD-score of every point inside a per-block
/// per-dimension `[min, max]` micro-envelope, at query `q` with pre-signed
/// weights `sw` (accumulated in dimension order, like the scores).
///
/// Admissibility is bit-safe: every per-dimension term is the same chain of
/// IEEE operations the scoring kernel performs on a coordinate inside the
/// envelope, and IEEE `sub`/`abs`/`mul`-by-constant/`add` are all monotone,
/// so the floating-point bound dominates every floating-point score in the
/// block. Blocks whose bound falls strictly below a k-th-score floor are
/// rejected before any point is scored.
#[inline]
pub fn envelope_bound(min: &[f64], max: &[f64], q: &[f64], sw: &[f64]) -> f64 {
    debug_assert!(min.len() == max.len() && min.len() == q.len() && min.len() == sw.len());
    let mut acc = 0.0f64;
    for d in 0..q.len() {
        let (lo, hi, qd, w) = (min[d], max[d], q[d], sw[d]);
        if w >= 0.0 {
            // Repulsive: farthest endpoint maximises the contribution.
            acc += w * (lo - qd).abs().max((hi - qd).abs());
        } else {
            // Attractive (negative weight): the closest point of the
            // interval minimises the distance, maximising the contribution.
            let near = if qd < lo {
                lo - qd
            } else if qd > hi {
                qd - hi
            } else {
                0.0
            };
            acc += w * near;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{sd_score, DimRole};
    use rand::{Rng, SeedableRng};

    /// `ACTIVE` is process-global: the tests that store to it take turns, or
    /// the one that asserts on its value reads another's store.
    static ISA_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_each_isa(mut f: impl FnMut()) {
        let _turn = ISA_TURN.lock().unwrap_or_else(|e| e.into_inner());
        // Scalar first, then whatever the host detects (AVX2 or SSE2).
        force_scalar(true);
        f();
        force_scalar(false);
        f();
        #[cfg(target_arch = "x86_64")]
        {
            ACTIVE.store(Isa::Sse2 as u8, Ordering::Relaxed);
            f();
            force_scalar(false);
        }
    }

    #[test]
    fn score_matches_scalar_bitwise_all_isas() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for dims in 1..=6 {
            let roles: Vec<DimRole> = (0..dims)
                .map(|d| {
                    if d % 2 == 0 {
                        DimRole::Repulsive
                    } else {
                        DimRole::Attractive
                    }
                })
                .collect();
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1e6..1e6)).collect();
            let w: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..10.0)).collect();
            let sw: Vec<f64> = roles.iter().zip(&w).map(|(r, &w)| r.sign() * w).collect();
            let cols: Vec<Vec<f64>> = (0..dims)
                .map(|_| (0..LANES).map(|_| rng.gen_range(-1e6..1e6)).collect())
                .collect();
            with_each_isa(|| {
                let mut out = [0.0f64; LANES];
                score_zero(&mut out);
                for d in 0..dims {
                    score_add_dim(&mut out, &cols[d], q[d], sw[d]);
                }
                for l in 0..LANES {
                    let p: Vec<f64> = (0..dims).map(|d| cols[d][l]).collect();
                    let want = sd_score(&p, &q, &roles, &w);
                    assert_eq!(out[l].to_bits(), want.to_bits(), "lane {l}, dims {dims}");
                }
            });
        }
    }

    #[test]
    fn signed_zero_terms_match_scalar() {
        // Attractive dims at zero distance produce −0.0 terms; the kernel
        // must accumulate them exactly like the scalar `0.0 + (−0.0)`.
        let roles = [DimRole::Attractive, DimRole::Attractive];
        let q = [1.0, 2.0];
        let w = [3.0, 4.0];
        let sw = [-3.0, -4.0];
        let xs = [1.0f64; LANES];
        let ys = [2.0f64; LANES];
        with_each_isa(|| {
            let mut out = [0.0f64; LANES];
            score_zero(&mut out);
            score_add_dim(&mut out, &xs, q[0], sw[0]);
            score_add_dim(&mut out, &ys, q[1], sw[1]);
            let want = sd_score(&[1.0, 2.0], &q, &roles, &w);
            for &o in &out {
                assert_eq!(o.to_bits(), want.to_bits());
            }
        });
    }

    #[test]
    fn score_rows_matches_sd_score_bitwise_all_isas() {
        // Every `dims % 4` and `count % 4` (the AVX2 arm's block and tail
        // paths), mixed roles, zero weights, and coordinates / query points
        // from the edges of the format as well as its middle.
        const EDGES: [f64; 9] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -2.2e-308,
            1e308,
            -1e308,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut draw = |edge_one_in: u32| {
            if rng.gen_range(0..edge_one_in) == 0 {
                EDGES[rng.gen_range(0..EDGES.len())]
            } else {
                rng.gen_range(-1e3..1e3)
            }
        };
        for dims in 1..=9 {
            for count in 1..=LANES {
                let roles: Vec<DimRole> = (0..dims)
                    .map(|d| {
                        if (d + count) % 3 == 0 {
                            DimRole::Repulsive
                        } else {
                            DimRole::Attractive
                        }
                    })
                    .collect();
                // Weights are finite and non-negative (`f64::min` drops a NaN).
                let w: Vec<f64> = (0..dims).map(|_| draw(4).abs().min(10.0)).collect();
                let sw: Vec<f64> = roles.iter().zip(&w).map(|(r, &w)| r.sign() * w).collect();
                let q: Vec<f64> = (0..dims).map(|_| draw(5)).collect();
                let run: Vec<f64> = (0..count * dims).map(|_| draw(5)).collect();
                with_each_isa(|| {
                    let mut out = vec![f64::NAN; count];
                    score_rows(&mut out, &run, dims, &q, &sw);
                    for (r, row) in run.chunks_exact(dims).enumerate() {
                        let want = sd_score(row, &q, &roles, &w);
                        // A NaN score (∞ − ∞, ∞ · 0) is NaN on every arm;
                        // its sign bit is whichever operand the add
                        // propagated, an order compilers choose freely.
                        assert!(
                            out[r].to_bits() == want.to_bits()
                                || (out[r].is_nan() && want.is_nan()),
                            "row {r} of {count}, dims {dims}: {} vs {want} on {:?}",
                            out[r],
                            active()
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn survivors_respects_live_and_floor() {
        let mut scores = [0.0f64; LANES];
        for (l, s) in scores.iter_mut().enumerate() {
            *s = l as f64;
        }
        with_each_isa(|| {
            let all = survivors(&scores, u32::MAX, 16.0);
            assert_eq!(all, u32::MAX << 16, "lanes 16.. survive a floor of 16");
            let live = 0b1010_1010_1010_1010_1010_1010_1010_1010u32;
            assert_eq!(survivors(&scores, live, 16.0), live & (u32::MAX << 16));
            assert_eq!(survivors(&scores, u32::MAX, -1.0), u32::MAX);
            assert_eq!(survivors(&scores, u32::MAX, 1e9), 0);
            // Short block: tail lanes report dead.
            assert_eq!(survivors(&scores[..5], u32::MAX, -1.0), 0b1_1111);
        });
    }

    #[test]
    fn lane_filter_is_the_per_lane_inflate_compare() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..200 {
            let scores: Vec<f64> = (0..LANES).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let others = rng.gen_range(-3.0..3.0);
            // A floor landing exactly on one lane's inflated sum: kept.
            let floor = inflate(scores[rng.gen_range(0..LANES)] + others);
            let live: u32 = rng.gen();
            let mut want = 0u32;
            for (l, &s) in scores.iter().enumerate() {
                want |= u32::from(floor <= inflate(s + others)) << l;
            }
            with_each_isa(|| {
                assert_eq!(lane_filter(&scores, live, others, floor), want & live);
                assert_eq!(
                    lane_filter(&scores[..7], u32::MAX, others, floor),
                    want & 0x7f
                );
            });
        }
    }

    #[test]
    fn envelope_bound_dominates_every_interior_score() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let dims = rng.gen_range(1..5);
            let roles: Vec<DimRole> = (0..dims)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        DimRole::Repulsive
                    } else {
                        DimRole::Attractive
                    }
                })
                .collect();
            let q: Vec<f64> = (0..dims).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let w: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..3.0)).collect();
            let sw: Vec<f64> = roles.iter().zip(&w).map(|(r, &w)| r.sign() * w).collect();
            let min: Vec<f64> = (0..dims).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let max: Vec<f64> = min.iter().map(|&m| m + rng.gen_range(0.0..5.0)).collect();
            let bound = envelope_bound(&min, &max, &q, &sw);
            for _ in 0..32 {
                let p: Vec<f64> = (0..dims).map(|d| rng.gen_range(min[d]..=max[d])).collect();
                let s = sd_score(&p, &q, &roles, &w);
                assert!(s <= bound, "score {s} above envelope bound {bound}");
            }
        }
    }

    #[test]
    fn isa_reports_a_name_and_force_scalar_toggles() {
        let _turn = ISA_TURN.lock().unwrap_or_else(|e| e.into_inner());
        force_scalar(true);
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(active().name(), "scalar");
        force_scalar(false);
        let isa = active();
        assert!(matches!(isa, Isa::Scalar | Isa::Sse2 | Isa::Avx2));
        assert!(!isa.name().is_empty());
    }
}
