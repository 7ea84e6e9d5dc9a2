//! AVX2 reductions, 8 x f32 per vector: the f32 `dot` and `sq_euclidean`
//! and the exact int8 `i8_dot` and `i8_sq_euclidean`.
//!
//! Every function is bit-identical to its [`super::scalar`] twin (ordering
//! rules in the [`super`] module docs). The f32 reductions keep one
//! 256-bit accumulator per call, so each lane remains an independent
//! ascending chain — the canonical 8-lane tree — and they multiply and add
//! in separate instructions, never FMA.
//!
//! All functions are `unsafe` because they require the `avx2` CPU
//! feature; this module is compiled only when the build enables it, and
//! the safe entries in [`super`] are the only callers.

use core::arch::x86_64::*;

/// Canonical 8-lane-tree dot product (one ymm accumulator = the tree).
///
/// # Safety
/// Requires `avx2`; `a.len() == b.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 8;
    let mut acc = _mm256_setzero_ps();
    for ci in 0..chunks {
        let av = _mm256_loadu_ps(a.as_ptr().add(ci * 8));
        let bv = _mm256_loadu_ps(b.as_ptr().add(ci * 8));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (j, (&x, &y)) in a[chunks * 8..].iter().zip(&b[chunks * 8..]).enumerate() {
        lanes[j] += x * y;
    }
    lanes.iter().fold(0.0, |s, &v| s + v)
}

/// Canonical 8-lane-tree squared Euclidean distance.
///
/// # Safety
/// Requires `avx2`; `a.len() == b.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 8;
    let mut acc = _mm256_setzero_ps();
    for ci in 0..chunks {
        let av = _mm256_loadu_ps(a.as_ptr().add(ci * 8));
        let bv = _mm256_loadu_ps(b.as_ptr().add(ci * 8));
        let t = _mm256_sub_ps(av, bv);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(t, t));
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (j, (&x, &y)) in a[chunks * 8..].iter().zip(&b[chunks * 8..]).enumerate() {
        let t = x - y;
        lanes[j] += t * t;
    }
    lanes.iter().fold(0.0, |s, &v| s + v)
}

/// Sums the eight `i32` lanes of `v` into a scalar.
///
/// # Safety
/// Requires `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// Exact int8 dot product: 16 elements per step via sign-extension to
/// i16 and `madd` (adjacent-pair i32 sums — exact, since each product is
/// at most `127² = 16129`). Integer addition is associative, so the lane
/// layout is free and the result is bit-identical to [`super::scalar`]
/// by construction (see the scalar kernel's determinism note).
///
/// # Safety
/// Requires `avx2`; `a.len() == b.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn i8_dot(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
        i += 16;
    }
    let mut sum = hsum_epi32(acc);
    while i < n {
        sum += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        i += 1;
    }
    sum
}

/// Exact int8 squared Euclidean distance: differences fit i16 (range
/// ±254), `madd(diff, diff)` pairs are at most `2 * 254² = 129032` —
/// exact in i32. Bit-identical to [`super::scalar`] by construction.
///
/// # Safety
/// Requires `avx2`; `a.len() == b.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn i8_sq_euclidean(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i).cast()));
        let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i).cast()));
        let t = _mm256_sub_epi16(av, bv);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(t, t));
        i += 16;
    }
    let mut sum = hsum_epi32(acc);
    while i < n {
        let t = *a.get_unchecked(i) as i32 - *b.get_unchecked(i) as i32;
        sum += t * t;
        i += 1;
    }
    sum
}
