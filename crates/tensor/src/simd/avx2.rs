//! AVX2 reductions, 8 x f32 per vector: the f32 `dot` and `sq_euclidean`,
//! their block scorers `dot8` and `sq_euclidean8`, and the exact int8
//! `i8_dot` and `i8_sq_euclidean`.
//!
//! Every function is bit-identical to its [`super::scalar`] twin (ordering
//! rules in the [`super`] module docs). The f32 reductions keep one
//! 256-bit accumulator per (row, query) pair, so each lane remains an
//! independent ascending chain — the canonical 8-lane tree — and they
//! multiply and add in separate instructions, never FMA.
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

/// Block scorer over [`dot`]'s tree: `out[r] = dot(row r, query)`.
///
/// # Safety
/// Requires `avx2`; `out` holds a multiple of 8 rows, and `rows` holds
/// that many rows as wide as `query`.
#[target_feature(enable = "avx2")]
pub unsafe fn dot8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    block_rows::<false>(rows, query, out)
}

/// Block scorer over [`sq_euclidean`]'s tree.
///
/// # Safety
/// As [`dot8`].
#[target_feature(enable = "avx2")]
pub unsafe fn sq_euclidean8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    block_rows::<true>(rows, query, out)
}

/// Scores `rows` 8 at a time with one ymm accumulator per row, each query
/// chunk loaded once for the 8 rows. A tail of `rem` elements is loaded
/// under a mask, so lanes `rem..8` add `+0.0`, which leaves them as they
/// are: a lane's partial starts at `+0.0` and so is never `-0.0`. The 8
/// trees then fold together ([`fold8`]) straight into the output.
///
/// # Safety
/// As [`dot8`].
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn block_rows<const SQ_DIST: bool>(rows: &[f32], query: &[f32], out: &mut [f32]) {
    let (n, d) = (out.len(), query.len());
    debug_assert!(n.is_multiple_of(8) && rows.len() == n * d);
    let term = |rv: __m256, qv: __m256| {
        if SQ_DIST {
            let t = _mm256_sub_ps(rv, qv);
            _mm256_mul_ps(t, t)
        } else {
            _mm256_mul_ps(rv, qv)
        }
    };
    let chunks = d / 8;
    let rem = d - chunks * 8;
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), lane);
    for b in 0..n / 8 {
        let r = rows.as_ptr().add(b * 8 * d);
        let mut acc = [_mm256_setzero_ps(); 8];
        for ci in 0..chunks {
            let qv = _mm256_loadu_ps(query.as_ptr().add(ci * 8));
            for (p, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, term(_mm256_loadu_ps(r.add(p * d + ci * 8)), qv));
            }
        }
        if rem > 0 {
            let qv = _mm256_maskload_ps(query.as_ptr().add(chunks * 8), mask);
            for (p, a) in acc.iter_mut().enumerate() {
                let rv = _mm256_maskload_ps(r.add(p * d + chunks * 8), mask);
                *a = _mm256_add_ps(*a, term(rv, qv));
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(b * 8), fold8(acc));
    }
}

/// Folds 8 trees at once: lane `p` of the result is `0.0 + a[p][0] + … +
/// a[p][7]`, left to right.
///
/// # Safety
/// Requires `avx2`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fold8(a: [__m256; 8]) -> __m256 {
    // Transpose: `t[j]` holds lane `j` of rows 0..8.
    let [a0, a1, a2, a3, a4, a5, a6, a7] = a;
    let (l01, h01) = (_mm256_unpacklo_ps(a0, a1), _mm256_unpackhi_ps(a0, a1));
    let (l23, h23) = (_mm256_unpacklo_ps(a2, a3), _mm256_unpackhi_ps(a2, a3));
    let (l45, h45) = (_mm256_unpacklo_ps(a4, a5), _mm256_unpackhi_ps(a4, a5));
    let (l67, h67) = (_mm256_unpacklo_ps(a6, a7), _mm256_unpackhi_ps(a6, a7));
    let c0 = _mm256_shuffle_ps::<0x44>(l01, l23);
    let c1 = _mm256_shuffle_ps::<0xEE>(l01, l23);
    let c2 = _mm256_shuffle_ps::<0x44>(h01, h23);
    let c3 = _mm256_shuffle_ps::<0xEE>(h01, h23);
    let c4 = _mm256_shuffle_ps::<0x44>(l45, l67);
    let c5 = _mm256_shuffle_ps::<0xEE>(l45, l67);
    let c6 = _mm256_shuffle_ps::<0x44>(h45, h67);
    let c7 = _mm256_shuffle_ps::<0xEE>(h45, h67);
    let t = [
        _mm256_permute2f128_ps::<0x20>(c0, c4),
        _mm256_permute2f128_ps::<0x20>(c1, c5),
        _mm256_permute2f128_ps::<0x20>(c2, c6),
        _mm256_permute2f128_ps::<0x20>(c3, c7),
        _mm256_permute2f128_ps::<0x31>(c0, c4),
        _mm256_permute2f128_ps::<0x31>(c1, c5),
        _mm256_permute2f128_ps::<0x31>(c2, c6),
        _mm256_permute2f128_ps::<0x31>(c3, c7),
    ];
    let mut sum = _mm256_setzero_ps();
    for tj in t {
        sum = _mm256_add_ps(sum, tj);
    }
    sum
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
