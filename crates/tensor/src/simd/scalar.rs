//! Portable kernels — the canonical bit patterns a hand-written body must
//! reproduce (ordering rules in the [`super`] module docs), and the only
//! body of every op without one.
//!
//! LLVM vectorizes every function here at the width the build targets:
//! the host's under the workspace's `-C target-cpu=native`, the x86-64
//! baseline without those rustflags, with the same bits either way. The
//! reductions are written as the 8-lane interleaved tree directly: the
//! lanes are independent accumulator chains, which both defines the
//! canonical order and lets the autovectorizer keep pace.

use super::LANES;
use crate::kernel::{MR, NR};

/// Full `MR x NR` register tile: pairs one packed A column (`MR` values)
/// with one packed B row (`NR` values) per reduction step; the `MR x NR`
/// accumulator array stays in vector registers. On the first reduction
/// block accumulators start at `0.0` (the naive kernels' exact starting
/// point); later blocks resume from the stored partial sums.
pub fn tile8x16(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    j0: usize,
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (ii, lane) in acc.iter_mut().enumerate() {
            lane.copy_from_slice(&c[(row0 + ii) * ldc + j0..][..NR]);
        }
    }
    for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (ii, lane) in acc.iter_mut().enumerate() {
            let a = a_col[ii];
            for (o, &b) in lane.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
    for (ii, lane) in acc.iter().enumerate() {
        c[(row0 + ii) * ldc + j0..][..NR].copy_from_slice(lane);
    }
}

/// Canonical 8-lane-tree dot product: lane `j` sums `a[i] * b[i]` for
/// `i ≡ j (mod 8)` ascending, the tail folds into lanes `0..rem`, then the
/// partials collapse left to right.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for ci in 0..chunks {
        let av = &a[ci * LANES..][..LANES];
        let bv = &b[ci * LANES..][..LANES];
        for j in 0..LANES {
            lanes[j] += av[j] * bv[j];
        }
    }
    for (j, (&x, &y)) in a[chunks * LANES..]
        .iter()
        .zip(&b[chunks * LANES..])
        .enumerate()
    {
        lanes[j] += x * y;
    }
    lanes.iter().fold(0.0, |s, &v| s + v)
}

/// Canonical 8-lane-tree squared Euclidean distance (same tree as [`dot`]
/// over `(a[i] - b[i])²` terms).
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for ci in 0..chunks {
        let av = &a[ci * LANES..][..LANES];
        let bv = &b[ci * LANES..][..LANES];
        for j in 0..LANES {
            let t = av[j] - bv[j];
            lanes[j] += t * t;
        }
    }
    for (j, (&x, &y)) in a[chunks * LANES..]
        .iter()
        .zip(&b[chunks * LANES..])
        .enumerate()
    {
        let t = x - y;
        lanes[j] += t * t;
    }
    lanes.iter().fold(0.0, |s, &v| s + v)
}

/// [`dot`] of every row of `rows` (row-major, as wide as `query`) with
/// `query`, into `out[r]`: the reference the block bodies must match, one
/// pair at a time.
pub fn dot8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    each_row(rows, query, out, dot);
}

/// [`sq_euclidean`] of every row of `rows` with `query`, into `out[r]`,
/// one pair at a time.
pub fn sq_euclidean8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    each_row(rows, query, out, sq_euclidean);
}

/// `out[r] = reduce(row r, query)`.
fn each_row(rows: &[f32], query: &[f32], out: &mut [f32], reduce: fn(&[f32], &[f32]) -> f32) {
    let d = query.len();
    for (r, v) in out.iter_mut().enumerate() {
        *v = reduce(&rows[r * d..][..d], query);
    }
}

/// Exact int8 dot product with a single `i32` accumulator.
///
/// Integer addition is associative, so — unlike the f32 reductions above —
/// no lane tree is needed: *any* accumulation order produces the same
/// bits, which is what makes the quantized inference path structurally
/// bit-identical across builds and thread counts. Callers keep
/// `a.len() <= 130_000` so `len * 127²` cannot overflow `i32`.
pub fn i8_dot(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Exact int8 squared Euclidean distance with a single `i32` accumulator
/// (same overflow contract and order-independence as [`i8_dot`]).
pub fn i8_sq_euclidean(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        let t = x as i32 - y as i32;
        acc += t * t;
    }
    acc
}

/// `y[i] += a * x[i]` — multiply then add, two roundings per element.
pub fn axpy(y: &mut [f32], x: &[f32], a: f32) {
    debug_assert_eq!(y.len(), x.len());
    for (o, &v) in y.iter_mut().zip(x) {
        *o += a * v;
    }
}

/// `y[i] += x[i]`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v;
    }
}

/// `x[i] *= c`.
pub fn scale(x: &mut [f32], c: f32) {
    for v in x {
        *v *= c;
    }
}

/// `dst[i] = src[i] * c`.
pub fn scale_into(dst: &mut [f32], src: &[f32], c: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = v * c;
    }
}

/// `x[i] /= d`.
pub fn div_scalar(x: &mut [f32], d: f32) {
    for v in x {
        *v /= d;
    }
}
