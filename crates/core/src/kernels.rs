//! Vectorized block-scoring kernels with runtime ISA dispatch.
//!
//! Every hot loop in the workspace ultimately evaluates the same shape of
//! arithmetic: *for a batch of points, accumulate `Σ_d sw_d·|p_d − q_d|`*
//! (the SD-score with pre-signed weights, Eqn. 3). This module owns that
//! arithmetic once — over fixed-width structure-of-arrays *lanes*
//! ([`LANES`] points per block), and over runs of consecutive rows of the
//! row-major coordinate table ([`score_rows`], which also compares every
//! score to the k-th-score floor in the same pass) — with three
//! interchangeable backends:
//!
//! * a chunk-oriented **scalar** loop (the portable reference, and the
//!   `SDQ_FORCE_SCALAR` escape hatch),
//! * an **SSE2** path (baseline on `x86_64`),
//! * an **AVX2** path selected by runtime feature detection.
//!
//! Each ISA arm is a safe `#[target_feature]` function: its arithmetic is
//! ordinary code, and only its pointer loads and stores sit in `unsafe`
//! blocks, each beside the slice bound that keeps it in range. The one
//! `unsafe` left at a call site is the dispatch itself, sound because
//! [`active`] names an ISA only once the host is known to have it.
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

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Points per block: the fixed lane width of every leaf block of the §4
/// index, of every gather batch and of every run of rows [`score_rows`]
/// scores (the box scan, the walk, the delta scan).
///
/// 32 doubles = 256 bytes per dimension = 4 cache lines, and 8 AVX2
/// vectors — wide enough to amortise per-block bookkeeping, small enough
/// that per-block envelopes still prune usefully.
pub const LANES: usize = 32;

/// The instruction-set level the kernels dispatch to.
///
/// Dispatch is per kernel: the lane accumulators have AVX2 and SSE2 arms;
/// [`score_rows`] (eight rows a step, scored and floor-compared in
/// registers), [`survivors`] and [`lane_filter`] have AVX2 arms and
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
        // SAFETY: `active()` reports `Avx2` only after runtime detection of
        // the feature.
        Isa::Avx2 => unsafe { score_add_dim_avx2(acc, col, q, sw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
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
fn score_add_dim_avx2(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    use std::arch::x86_64::*;
    let qv = _mm256_set1_pd(q);
    let wv = _mm256_set1_pd(sw);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut accs = acc.chunks_exact_mut(4);
    let mut cols = col.chunks_exact(4);
    for (a4, c4) in accs.by_ref().zip(cols.by_ref()) {
        // SAFETY: `a4` and `c4` are four-element chunks.
        let (a, c) = unsafe { (_mm256_loadu_pd(a4.as_ptr()), _mm256_loadu_pd(c4.as_ptr())) };
        let t = _mm256_and_pd(_mm256_sub_pd(c, qv), abs_mask);
        // mul then add (no FMA): identical rounding to the scalar path.
        let r = _mm256_add_pd(a, _mm256_mul_pd(wv, t));
        // SAFETY: `a4` is a four-element chunk.
        unsafe { _mm256_storeu_pd(a4.as_mut_ptr(), r) };
    }
    score_add_dim_scalar(accs.into_remainder(), cols.remainder(), q, sw);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn score_add_dim_sse2(acc: &mut [f64], col: &[f64], q: f64, sw: f64) {
    use std::arch::x86_64::*;
    let qv = _mm_set1_pd(q);
    let wv = _mm_set1_pd(sw);
    let abs_mask = _mm_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut accs = acc.chunks_exact_mut(2);
    let mut cols = col.chunks_exact(2);
    for (a2, c2) in accs.by_ref().zip(cols.by_ref()) {
        // SAFETY: `a2` and `c2` are two-element chunks.
        let (a, c) = unsafe { (_mm_loadu_pd(a2.as_ptr()), _mm_loadu_pd(c2.as_ptr())) };
        let t = _mm_and_pd(_mm_sub_pd(c, qv), abs_mask);
        let r = _mm_add_pd(a, _mm_mul_pd(wv, t));
        // SAFETY: `a2` is a two-element chunk.
        unsafe { _mm_storeu_pd(a2.as_mut_ptr(), r) };
    }
    score_add_dim_scalar(accs.into_remainder(), cols.remainder(), q, sw);
}

// ─── row-major runs ─────────────────────────────────────────────────────────

/// Scores a run of up to 32 consecutive rows straight off the row-major
/// coordinate table and compares every score to `floor` in the same pass:
/// `run` holds `scores.len()` rows of `dims` coordinates each,
/// `scores[r] = Σ_d sw[d]·|run[r·dims + d] − q[d]|`, accumulated from `+0.0`
/// in dimension order — [`sd_score`](crate::score::sd_score) bit-for-bit
/// when `sw` holds the role-signed weights (see [`score_add_dim`]) — and
/// bit `r` of the returned mask is `scores[r] >= floor` (ties kept, a NaN
/// score never set): [`survivors`] over an all-live run, without reading
/// the scores back.
///
/// This is [`score_zero`] + one [`score_add_dim`] per dimension for rows
/// that are already adjacent in memory: no gather buffer is written and
/// the accumulator never leaves its register between dimensions. The AVX2
/// arm takes eight rows a step as two four-row accumulators, builds each
/// pair of dimension columns from two 128-bit pair loads and an unpack,
/// and compares each accumulator to the floor before it stores it (one
/// body per width from 2 to 8 dimensions, one for the rest); the scalar arm
/// is the per-row loop that defines the score followed by the `>=` mask,
/// and also serves the last `scores.len() % 8` rows of the AVX2 arm.
///
/// # Panics
///
/// When `dims == 0`, `q` or `sw` is not `dims` long, `run` is not
/// `scores.len() · dims` long, or `scores` is longer than 32.
#[inline]
pub fn score_rows(
    scores: &mut [f64],
    run: &[f64],
    dims: usize,
    q: &[f64],
    sw: &[f64],
    floor: f64,
) -> u32 {
    assert!(dims > 0 && q.len() == dims && sw.len() == dims && scores.len() <= 32);
    assert_eq!(run.len(), scores.len() * dims);
    match active() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // Widths 2 to 8 get a body each, whose pair loop unrolls and
            // keeps the pairs of `q` and `sw` in registers across steps; any
            // other width runs the body that reads it at run time.
            type Arm = unsafe fn(&mut [f64], &[f64], &[f64], &[f64], f64) -> u32;
            let arm: Arm = match dims {
                2 => score_rows_avx2::<2>,
                3 => score_rows_avx2::<3>,
                4 => score_rows_avx2::<4>,
                5 => score_rows_avx2::<5>,
                6 => score_rows_avx2::<6>,
                7 => score_rows_avx2::<7>,
                8 => score_rows_avx2::<8>,
                _ => score_rows_avx2::<0>,
            };
            // SAFETY: `active()` reports `Avx2` only after runtime detection
            // of the feature.
            unsafe { arm(scores, run, q, sw, floor) }
        }
        _ => {
            score_rows_scalar(scores, run, q, sw);
            ge_mask_scalar(scores, floor)
        }
    }
}

fn score_rows_scalar(scores: &mut [f64], run: &[f64], q: &[f64], sw: &[f64]) {
    for (score, row) in scores.iter_mut().zip(run.chunks_exact(q.len())) {
        let mut acc = 0.0;
        for d in 0..q.len() {
            acc += sw[d] * (row[d] - q[d]).abs();
        }
        *score = acc;
    }
}

/// The AVX2 arm of [`score_rows`]: eight rows a step, rows 0–3 and 4–7 in
/// two accumulators of one lane per row. Each pair of dimensions of a
/// four-row group is two 128-bit loads — rows 0 and 2, rows 1 and 3 — whose
/// terms `sw·|p − q|` are taken lane for lane against the pair's `q` and
/// `sw` and then unpacked, low and high, into the pair's two columns; an
/// odd last dimension is gathered lane by lane. `D` is the row width, or 0
/// to read it off `q`. Every load and store is bounded by the eight-row
/// chunk it reads or writes, whatever the arguments.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn score_rows_avx2<const D: usize>(
    scores: &mut [f64],
    run: &[f64],
    q: &[f64],
    sw: &[f64],
    floor: f64,
) -> u32 {
    use std::arch::x86_64::*;
    let dims = if D == 0 { q.len() } else { D };
    let (q, sw, whole) = (&q[..dims], &sw[..dims], scores.len() / 8 * 8);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let fv = _mm256_set1_pd(floor);
    // sw·|p − q| lane for lane: mul then add (no FMA), as the scalar arm.
    let term = |p, q, sw| _mm256_mul_pd(sw, _mm256_and_pd(_mm256_sub_pd(p, q), abs_mask));
    // The two values of a pair, twice: `[x, y, x, y]`.
    let pair = |xy: &[f64]| _mm256_setr_pd(xy[0], xy[1], xy[0], xy[1]);
    let mut mask = 0u32;
    let mut outs = scores.chunks_exact_mut(8);
    for (i, out) in outs.by_ref().enumerate() {
        let eight = &run[8 * i * dims..8 * (i + 1) * dims];
        let mut acc = [_mm256_setzero_pd(); 2];
        let pairs = q.chunks_exact(2).zip(sw.chunks_exact(2));
        for (d, (qd, swd)) in (0..dims).step_by(2).zip(pairs) {
            let (qv, wv) = (pair(qd), pair(swd));
            for (g, acc) in acc.iter_mut().enumerate() {
                let r0 = eight[4 * g * dims + d..].as_ptr();
                // SAFETY: `d + 1 < dims` and `eight` holds eight rows of
                // `dims`, so the two-element loads at `d` of rows `4g` to
                // `4g + 3` (`r0` plus 0 to 3 rows) all lie inside `eight`.
                let (a, b) = unsafe {
                    (
                        _mm256_loadu2_m128d(r0.add(2 * dims), r0),
                        _mm256_loadu2_m128d(r0.add(3 * dims), r0.add(dims)),
                    )
                };
                let (ta, tb) = (term(a, qv, wv), term(b, qv, wv));
                *acc = _mm256_add_pd(*acc, _mm256_unpacklo_pd(ta, tb));
                *acc = _mm256_add_pd(*acc, _mm256_unpackhi_pd(ta, tb));
            }
        }
        if dims % 2 == 1 {
            let d = dims - 1;
            let (qv, wv) = (_mm256_set1_pd(q[d]), _mm256_set1_pd(sw[d]));
            let at = |r: usize| eight[r * dims + d];
            let (lo, hi) = (
                _mm256_set_pd(at(3), at(2), at(1), at(0)),
                _mm256_set_pd(at(7), at(6), at(5), at(4)),
            );
            acc[0] = _mm256_add_pd(acc[0], term(lo, qv, wv));
            acc[1] = _mm256_add_pd(acc[1], term(hi, qv, wv));
        }
        // SAFETY: `out` is an eight-element chunk.
        unsafe {
            _mm256_storeu_pd(out.as_mut_ptr(), acc[0]);
            _mm256_storeu_pd(out[4..].as_mut_ptr(), acc[1]);
        }
        let ge_lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(acc[0], fv)) as u32;
        let ge_hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(acc[1], fv)) as u32;
        mask |= (ge_lo | ge_hi << 4) << (8 * i);
    }
    let tail = outs.into_remainder();
    if tail.is_empty() {
        return mask;
    }
    score_rows_scalar(tail, &run[whole * dims..], q, sw);
    mask | ge_mask_scalar(tail, floor) << whole
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
        // SAFETY: `active()` reports `Avx2` only after runtime detection of
        // the feature.
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
fn ge_mask_avx2(scores: &[f64], floor: f64) -> u32 {
    use std::arch::x86_64::*;
    let fv = _mm256_set1_pd(floor);
    let mut m = 0u32;
    let mut quads = scores.chunks_exact(4);
    for (i, s4) in quads.by_ref().enumerate() {
        // SAFETY: `s4` is a four-element chunk.
        let s = unsafe { _mm256_loadu_pd(s4.as_ptr()) };
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(s, fv);
        m |= (_mm256_movemask_pd(ge) as u32) << (4 * i);
    }
    let tail = quads.remainder();
    if !tail.is_empty() {
        m |= ge_mask_scalar(tail, floor) << (scores.len() - tail.len());
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

/// Batched per-lane floor filter of a pair stream ([`Pair2DStream`](crate::multidim::Pair2DStream),
/// which the paper's §5 aggregation in `sdq-paper` runs): returns the bitmask
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
        // the feature.
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_filter_avx2(scores: &[f64], others: f64, floor: f64) -> u32 {
    use std::arch::x86_64::*;
    let ov = _mm256_set1_pd(others);
    let fv = _mm256_set1_pd(floor);
    let one = _mm256_set1_pd(1.0);
    let eps = _mm256_set1_pd(EPS_REL);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut m = 0u32;
    let mut quads = scores.chunks_exact(4);
    for (i, s4) in quads.by_ref().enumerate() {
        // SAFETY: `s4` is a four-element chunk.
        let t = _mm256_add_pd(unsafe { _mm256_loadu_pd(s4.as_ptr()) }, ov);
        // inflate(t), operation for operation (mul then add, no FMA).
        let slack = _mm256_mul_pd(eps, _mm256_add_pd(one, _mm256_and_pd(t, abs_mask)));
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(fv, _mm256_add_pd(t, slack));
        m |= (_mm256_movemask_pd(le) as u32) << (4 * i);
    }
    let tail = quads.remainder();
    if !tail.is_empty() {
        m |= lane_filter_scalar(tail, others, floor) << (scores.len() - tail.len());
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::score::{sd_score, DimRole};
    use rand::{Rng, SeedableRng};

    /// `ACTIVE` is process-global: the tests that store to it take turns, or
    /// the one that asserts on its value reads another's store.
    static ISA_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` under every kernel arm the host has, one test at a time.
    pub(crate) fn with_each_isa(mut f: impl FnMut()) {
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
        // Every `dims % 2` and `count % 8` (the AVX2 arm's pair loads, odd
        // last dimension, eight-row steps and scalar tail), mixed roles,
        // zero weights, and coordinates / query points from the edges of the
        // format as well as its middle. Every fifth row is the query point
        // (a score of zero where the query is finite) and every seventh has
        // a NaN coordinate (a NaN score). The mask is checked against floors
        // at ±∞, ±0, NaN and exactly one row's score (a tie, kept).
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
        let (mut zeros, mut nans, mut ties) = (0, 0, 0);
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
                let mut run: Vec<f64> = (0..count * dims).map(|_| draw(5)).collect();
                for (r, row) in run.chunks_exact_mut(dims).enumerate() {
                    if r % 5 == 2 {
                        row.copy_from_slice(&q);
                    } else if r % 7 == 5 {
                        row[0] = f64::NAN;
                    }
                }
                let want: Vec<f64> = (run.chunks_exact(dims))
                    .map(|row| sd_score(row, &q, &roles, &w))
                    .collect();
                zeros += want.iter().filter(|s| **s == 0.0).count();
                nans += want.iter().filter(|s| s.is_nan()).count();
                let tie = want[(dims + count) % count];
                for floor in [tie, f64::NEG_INFINITY, f64::INFINITY, 0.0, -0.0, f64::NAN] {
                    with_each_isa(|| {
                        let mut out = vec![f64::NAN; count];
                        let mask = score_rows(&mut out, &run, dims, &q, &sw, floor);
                        let isa = active();
                        assert_eq!(u64::from(mask) >> count, 0, "lanes past {count} on {isa:?}");
                        for (r, &want) in want.iter().enumerate() {
                            // A NaN score (∞ − ∞, ∞ · 0) is NaN on every
                            // arm; its sign bit is whichever operand the
                            // add propagated, an order compilers choose
                            // freely.
                            assert!(
                                out[r].to_bits() == want.to_bits()
                                    || (out[r].is_nan() && want.is_nan()),
                                "row {r} of {count}, dims {dims}: {} vs {want} on {isa:?}",
                                out[r],
                            );
                            let kept = mask >> r & 1 == 1;
                            assert_eq!(
                                kept,
                                want >= floor,
                                "row {r} of {count}, dims {dims}: score {want}, floor {floor} \
                                 on {isa:?}"
                            );
                            assert!(!(kept && want.is_nan()), "a NaN row survived");
                        }
                    });
                }
                ties += usize::from(!tie.is_nan());
            }
        }
        assert!(
            zeros > 0 && nans > 0 && ties > 0,
            "{zeros} / {nans} / {ties}"
        );
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
