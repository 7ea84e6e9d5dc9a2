//! The AVX-512F GEMM tile, 16 x f32 per vector.
//!
//! The tile holds each full 16-column output row in one zmm register
//! (8 accumulators for the whole `MR x NR` tile), accumulated in ascending
//! `k` with separate multiply and add — bit-identical to the portable
//! [`super::scalar::tile8x16`].
//!
//! The function is `unsafe` because it requires the `avx512f` CPU feature;
//! this module is compiled only when the build enables it, and the safe
//! entry in [`super`] is the only caller.

use core::arch::x86_64::*;

use crate::kernel::{MR, NR};

/// Full `MR x NR` register tile, output-stationary with one zmm per row.
///
/// # Safety
/// Requires `avx512f`. Caller guarantees the tile contract:
/// `ap.len() == kc * MR`, `bp.len() == kc * NR`, and `c` covers rows
/// `row0..row0 + MR` with `NR` columns at `j0` under stride `ldc`.
#[target_feature(enable = "avx512f")]
pub unsafe fn tile8x16(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    j0: usize,
    ldc: usize,
    first: bool,
) {
    debug_assert_eq!(ap.len() % MR, 0);
    let kc = ap.len() / MR;
    debug_assert_eq!(bp.len(), kc * NR);
    debug_assert!((row0 + MR - 1) * ldc + j0 + NR <= c.len());
    let mut acc = [_mm512_setzero_ps(); MR];
    if !first {
        for (ii, a) in acc.iter_mut().enumerate() {
            *a = _mm512_loadu_ps(c.as_ptr().add((row0 + ii) * ldc + j0));
        }
    }
    for p in 0..kc {
        let b = _mm512_loadu_ps(bp.as_ptr().add(p * NR));
        for (ii, a) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.get_unchecked(p * MR + ii));
            // mul + add, never FMA: two roundings, like the portable tile.
            *a = _mm512_add_ps(*a, _mm512_mul_ps(av, b));
        }
    }
    for (ii, a) in acc.iter().enumerate() {
        _mm512_storeu_ps(c.as_mut_ptr().add((row0 + ii) * ldc + j0), *a);
    }
}
