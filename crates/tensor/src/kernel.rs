//! Cache-blocked, register-tiled GEMM kernels.
//!
//! All three matrix products of the workspace (`A·B`, `Aᵀ·B`, `A·Bᵀ`)
//! funnel through one tiled kernel: the right-hand operand is packed into
//! `NR`-wide column panels (k-major, zero-padded at the edge), the left
//! operand is packed per `MR`-row micro-panel into a small stack buffer,
//! and an `MR x NR` register micro-tile accumulates over `chunks_exact`
//! iterations of the packed panels — explicit accumulator arrays that LLVM
//! keeps in vector registers.
//!
//! ## Determinism (DESIGN.md §9 / §10)
//!
//! Tiling `i`/`j` freely is safe: every output element still owns exactly
//! one accumulator. The reduction dimension is blocked in **ascending**
//! `KC`-sized steps, and within a block the micro-kernel walks `k`
//! ascending, so each output element sees the exact addition sequence of
//! the naive serial kernel: `0 + t_0 + t_1 + … + t_{k-1}`. The first block
//! starts its accumulator at `0.0` (matching the naive kernels bit-for-bit,
//! including signed-zero corner cases) and later blocks resume from the
//! stored partial — a lossless f32 round-trip. Because no output element's
//! accumulation order depends on tile shape or chunk boundaries, results
//! are bit-identical at every thread count, and the tiled kernels compose
//! with [`edsr_par::par_for_rows`] exactly like the naive ones did.
//!
//! Zero-padded pack lanes only feed accumulator lanes that are never
//! stored, so padding cannot perturb (or be perturbed by) real data —
//! `0 * NaN` in a *live* lane still propagates, preserving the divergence
//! guard's visibility into non-finite activations.
//!
//! The [`naive`] module retains the original loop kernels verbatim as the
//! bit-exact reference (property tests) and as the small-size fast path.
//!
//! ## ISA dispatch (DESIGN.md §15)
//!
//! The full `MR x NR` register tile is fetched from the [`crate::simd`]
//! dispatch table (scalar / AVX2 / AVX-512, selected at startup or pinned
//! with `EDSR_ISA`). Every ISA's tile preserves the per-element ascending
//! `k` order with separate multiply and add, so the bit-identity contract
//! above holds across ISAs too, not just per ISA level. Edge tiles (partial
//! rows/columns) stay scalar: same addition sequence, negligible time.

use crate::simd;
use std::cell::Cell;
use std::ops::Range;

/// Rows per register micro-tile.
pub const MR: usize = 8;
/// Columns per register micro-tile (one 64-byte cache line of `f32`).
pub const NR: usize = 16;
/// Reduction-dimension block length: the `MR x KC` left panel (~8 KiB)
/// and the `NR x KC` right panel slice (~16 KiB) stay L1-resident while a
/// micro-tile accumulates.
pub const KC: usize = 256;

/// Below this many multiply-accumulates the packing overhead of the tiled
/// path outweighs its cache wins, so the naive kernels run instead. Purely
/// a performance knob: both paths produce bit-identical values.
const MIN_TILED_FLOPS: usize = 8 * 1024;

thread_local! {
    /// Recycled panel-pack buffer: taken at kernel entry, returned on exit,
    /// so steady-state products perform zero heap allocations. Thread-local
    /// (rather than caller-passed) so nested pool-inline calls on worker
    /// threads get their own buffer.
    static PACK_BUF: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with a zero-initialized-on-growth pack buffer of at least
/// `len` floats, recycling the allocation across calls on this thread.
fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_BUF.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let out = f(&mut buf[..len]);
        cell.set(buf);
        out
    })
}

/// How the logical left operand (out-rows `R` by reduction `D`) maps onto
/// its backing slice.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// Element `(r, d)` lives at `a[r * D + d]` (matmul, matmul_transpose).
    RowMajor(&'a [f32]),
    /// Element `(r, d)` lives at `a[d * R + r]`: the operand is traversed
    /// transposed without materializing it (transpose_matmul).
    Transposed(&'a [f32]),
}

/// How the logical right operand (reduction `D` by out-cols `C`) maps onto
/// its backing slice.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// Element `(d, c)` lives at `b[d * C + c]` (matmul, transpose_matmul).
    RowMajor(&'a [f32]),
    /// Element `(d, c)` lives at `b[c * D + d]` (matmul_transpose).
    Transposed(&'a [f32]),
}

/// Packs the right operand into `ceil(C / NR)` column panels. Panel `jp`
/// occupies `bp[jp * D * NR ..][.. D * NR]`, k-major (`bp[p * NR + jj]`),
/// zero-padded in the last panel so the micro-kernel never branches on the
/// column edge.
fn pack_rhs(rhs: Rhs, bp: &mut [f32], d: usize, c: usize) {
    let panels = c.div_ceil(NR);
    debug_assert!(bp.len() >= panels * d * NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr_eff = NR.min(c - j0);
        let panel = &mut bp[jp * d * NR..][..d * NR];
        match rhs {
            Rhs::RowMajor(b) => {
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                    let src = &b[p * c + j0..][..nr_eff];
                    dst[..nr_eff].copy_from_slice(src);
                    dst[nr_eff..].fill(0.0);
                }
            }
            Rhs::Transposed(b) => {
                for jj in 0..NR {
                    if jj < nr_eff {
                        for (p, &v) in b[(j0 + jj) * d..][..d].iter().enumerate() {
                            panel[p * NR + jj] = v;
                        }
                    } else {
                        for p in 0..d {
                            panel[p * NR + jj] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Packs the `mr_eff`-row left micro-panel for reduction block
/// `d0 .. d0 + dc` into `ap` (layout `ap[dd * MR + ii]`), zero-padding
/// rows past `mr_eff` so the full-tile kernel can run unconditionally.
#[allow(clippy::too_many_arguments)] // flat tile coordinates, hot path
fn pack_lhs(
    lhs: Lhs,
    ap: &mut [f32],
    r0: usize,
    mr_eff: usize,
    d0: usize,
    dc: usize,
    r: usize,
    d: usize,
) {
    match lhs {
        Lhs::RowMajor(a) => {
            for ii in 0..MR {
                if ii < mr_eff {
                    for (dd, &v) in a[(r0 + ii) * d + d0..][..dc].iter().enumerate() {
                        ap[dd * MR + ii] = v;
                    }
                } else {
                    for dd in 0..dc {
                        ap[dd * MR + ii] = 0.0;
                    }
                }
            }
        }
        Lhs::Transposed(a) => {
            for dd in 0..dc {
                let dst = &mut ap[dd * MR..][..MR];
                dst[..mr_eff].copy_from_slice(&a[(d0 + dd) * r + r0..][..mr_eff]);
                dst[mr_eff..].fill(0.0);
            }
        }
    }
}

/// Edge tile (partial rows and/or columns): same packed panels, same
/// per-element ascending-`k` addition sequence, scalar loop. Only live
/// elements are loaded and stored.
#[allow(clippy::too_many_arguments)] // flat tile coordinates, hot path
fn edge_tile(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    mr_eff: usize,
    j0: usize,
    nr_eff: usize,
    ldc: usize,
    dc: usize,
    first: bool,
) {
    for ii in 0..mr_eff {
        for jj in 0..nr_eff {
            let mut v = if first {
                0.0
            } else {
                c[(row0 + ii) * ldc + j0 + jj]
            };
            for dd in 0..dc {
                v += ap[dd * MR + ii] * bp[dd * NR + jj];
            }
            c[(row0 + ii) * ldc + j0 + jj] = v;
        }
    }
}

/// Computes one contiguous out-row chunk (`rows`, writing into the
/// chunk-local slice `chunk`) of the `R x C` product with reduction length
/// `d_total`, reading the pre-packed right operand `bp`.
#[allow(clippy::too_many_arguments)] // flat product coordinates, hot path
fn tiled_chunk(
    kern: &'static simd::Kernel,
    lhs: Lhs,
    bp: &[f32],
    chunk: &mut [f32],
    rows: Range<usize>,
    d_total: usize,
    c_total: usize,
    r_total: usize,
) {
    let mut ap = [0.0f32; MR * KC];
    let c_panels = c_total.div_ceil(NR);
    let mut d0 = 0;
    while d0 < d_total {
        let dc = KC.min(d_total - d0);
        let first = d0 == 0;
        let ap_used = dc * MR;
        let mut r0 = rows.start;
        while r0 < rows.end {
            let mr_eff = MR.min(rows.end - r0);
            pack_lhs(
                lhs,
                &mut ap[..ap_used],
                r0,
                mr_eff,
                d0,
                dc,
                r_total,
                d_total,
            );
            let row0 = r0 - rows.start;
            for jp in 0..c_panels {
                let j0 = jp * NR;
                let bp_block = &bp[jp * d_total * NR + d0 * NR..][..dc * NR];
                if mr_eff == MR && j0 + NR <= c_total {
                    (kern.tile8x16)(&ap[..ap_used], bp_block, chunk, row0, j0, c_total, first);
                } else {
                    let nr_eff = NR.min(c_total - j0);
                    edge_tile(
                        &ap[..ap_used],
                        bp_block,
                        chunk,
                        row0,
                        mr_eff,
                        j0,
                        nr_eff,
                        c_total,
                        dc,
                        first,
                    );
                }
            }
            r0 += MR;
        }
        d0 += KC;
    }
}

/// Packs the right operand, then runs the tiled chunk kernel over the
/// output rows; `edsr-par` splits them by the product's multiply-adds.
fn tiled_product(
    kern: &'static simd::Kernel,
    lhs: Lhs,
    rhs: Rhs,
    out: &mut [f32],
    r: usize,
    d: usize,
    c: usize,
) {
    debug_assert_eq!(out.len(), r * c);
    let panels = c.div_ceil(NR);
    with_pack_buf(panels * d * NR, |bp| {
        pack_rhs(rhs, bp, d, c);
        let bp: &[f32] = bp;
        let run = |rows: Range<usize>, chunk: &mut [f32]| {
            tiled_chunk(kern, lhs, bp, chunk, rows, d, c, r)
        };
        edsr_par::par_for_rows(out, r, r * d * c, run);
    });
}

/// `out += a (n x k) · b (k x m)`. `out` must be zeroed on entry (the
/// [`crate::Matrix`] wrappers guarantee this); results are then bit-identical
/// to [`naive::matmul`] at every thread count.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    if n * k * m < MIN_TILED_FLOPS {
        naive::matmul(a, b, out, n, k, m);
    } else {
        matmul_tiled(a, b, out, n, k, m);
    }
}

/// Tiled `a · b` without the small-size fallback (tests and benches force
/// this path to compare it against the naive reference).
pub fn matmul_tiled(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    matmul_tiled_with(simd::active(), a, b, out, n, k, m);
}

/// Tiled `a · b` through an explicit dispatch vtable (benches and the ISA
/// bit-identity proptests compare kernels side by side in one process).
pub fn matmul_tiled_with(
    kern: &'static simd::Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    tiled_product(kern, Lhs::RowMajor(a), Rhs::RowMajor(b), out, n, k, m);
}

/// `out += aᵀ (k x n)ᵀ… — i.e. `a` is `n x k`, `b` is `n x m`, and the
/// `k x m` product `aᵀ · b` accumulates into zeroed `out`.
pub fn transpose_matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    if n * k * m < MIN_TILED_FLOPS {
        naive::transpose_matmul(a, b, out, n, k, m);
    } else {
        transpose_matmul_tiled(a, b, out, n, k, m);
    }
}

/// Tiled `aᵀ · b` without the small-size fallback.
pub fn transpose_matmul_tiled(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    transpose_matmul_tiled_with(simd::active(), a, b, out, n, k, m);
}

/// Tiled `aᵀ · b` through an explicit dispatch vtable.
#[allow(clippy::too_many_arguments)] // flat product coordinates
pub fn transpose_matmul_tiled_with(
    kern: &'static simd::Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    tiled_product(kern, Lhs::Transposed(a), Rhs::RowMajor(b), out, k, n, m);
}

/// `a` is `n x k`, `b` is `m x k`; the `n x m` product `a · bᵀ`
/// accumulates into zeroed `out`.
pub fn matmul_transpose(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    if n * k * m < MIN_TILED_FLOPS {
        naive::matmul_transpose(a, b, out, n, k, m);
    } else {
        matmul_transpose_tiled(a, b, out, n, k, m);
    }
}

/// Tiled `a · bᵀ` without the small-size fallback.
pub fn matmul_transpose_tiled(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    matmul_transpose_tiled_with(simd::active(), a, b, out, n, k, m);
}

/// Tiled `a · bᵀ` through an explicit dispatch vtable.
#[allow(clippy::too_many_arguments)] // flat product coordinates
pub fn matmul_transpose_tiled_with(
    kern: &'static simd::Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    tiled_product(kern, Lhs::RowMajor(a), Rhs::Transposed(b), out, n, k, m);
}

/// Cache-blocked transpose: walks `TB x TB` tiles so both the row-major
/// read and the column-major write stay within a few cache lines per tile.
pub fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r_end = (r0 + TB).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c_end = (c0 + TB).min(cols);
            for r in r0..r_end {
                for c in c0..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 += TB;
        }
        r0 += TB;
    }
}

/// The original loop kernels, retained verbatim as the bit-exact reference
/// for the tiled implementations (property-tested) and as the small-size
/// fast path. Deliberately no `a == 0.0` skip: the skip turned `0 * NaN` /
/// `0 * inf` into `0`, masking non-finite activations from the divergence
/// guard, and the branch blocked auto-vectorization of the inner loop.
pub mod naive {
    use std::ops::Range;

    /// Reference `ikj` product: `out += a · b` for the given out-row range
    /// (`out_chunk` is the chunk-local slice).
    pub fn matmul_chunk(
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        out_chunk: &mut [f32],
    ) {
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out_chunk[local * m..(local + 1) * m];
            for (p, &av) in a_row.iter().enumerate() {
                let b_row = &b[p * m..(p + 1) * m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Reference `out += a · b` over all rows (serial).
    pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        matmul_chunk(a, b, k, m, 0..n, out);
    }

    /// Reference `aᵀ · b`: accumulation over samples `i` runs in ascending
    /// order for each output row `p`.
    pub fn transpose_matmul_chunk(
        a: &[f32],
        b: &[f32],
        n: usize,
        k: usize,
        m: usize,
        p_rows: Range<usize>,
        out_chunk: &mut [f32],
    ) {
        for (local, p) in p_rows.enumerate() {
            let out_row = &mut out_chunk[local * m..(local + 1) * m];
            for i in 0..n {
                let av = a[i * k + p];
                let b_row = &b[i * m..(i + 1) * m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Reference `out += aᵀ · b` over all rows (serial).
    pub fn transpose_matmul(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        transpose_matmul_chunk(a, b, n, k, m, 0..k, out);
    }

    /// Reference dot-product form of `a · bᵀ`.
    pub fn matmul_transpose_chunk(
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        rows: Range<usize>,
        out_chunk: &mut [f32],
    ) {
        for (local, i) in rows.enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..m {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out_chunk[local * m + j] = acc;
            }
        }
    }

    /// Reference `out = a · bᵀ` over all rows (serial; `out` zeroed).
    pub fn matmul_transpose(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
        matmul_transpose_chunk(a, b, k, m, 0..n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::Matrix;

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: element {i} differs: {x} vs {y}"
            );
        }
    }

    /// Tiled kernels match the naive reference bit-for-bit on shapes that
    /// exercise every edge case (sub-tile, exact-tile, cross-KC).
    #[test]
    fn tiled_bit_identical_to_naive_across_edges() {
        let mut rng = seeded(77);
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (2 * MR - 1, 2 * KC + 5, 3 * NR - 2),
            (17, 300, 33),
        ] {
            let a = Matrix::randn(n, k, 1.0, &mut rng);
            let b = Matrix::randn(k, m, 1.0, &mut rng);
            let mut naive_out = vec![0.0; n * m];
            let mut tiled_out = vec![0.0; n * m];
            naive::matmul(a.data(), b.data(), &mut naive_out, n, k, m);
            matmul_tiled(a.data(), b.data(), &mut tiled_out, n, k, m);
            assert_bits_eq(&naive_out, &tiled_out, &format!("matmul {n}x{k}x{m}"));

            let a2 = Matrix::randn(n, k, 1.0, &mut rng);
            let b2 = Matrix::randn(n, m, 1.0, &mut rng);
            let mut naive_out = vec![0.0; k * m];
            let mut tiled_out = vec![0.0; k * m];
            naive::transpose_matmul(a2.data(), b2.data(), &mut naive_out, n, k, m);
            transpose_matmul_tiled(a2.data(), b2.data(), &mut tiled_out, n, k, m);
            assert_bits_eq(
                &naive_out,
                &tiled_out,
                &format!("transpose_matmul {n}x{k}x{m}"),
            );

            let a3 = Matrix::randn(n, k, 1.0, &mut rng);
            let b3 = Matrix::randn(m, k, 1.0, &mut rng);
            let mut naive_out = vec![0.0; n * m];
            let mut tiled_out = vec![0.0; n * m];
            naive::matmul_transpose(a3.data(), b3.data(), &mut naive_out, n, k, m);
            matmul_transpose_tiled(a3.data(), b3.data(), &mut tiled_out, n, k, m);
            assert_bits_eq(
                &naive_out,
                &tiled_out,
                &format!("matmul_transpose {n}x{k}x{m}"),
            );
        }
    }

    /// NaN in a packed (live) lane must propagate — padding must not.
    #[test]
    fn tiled_propagates_nan_in_live_lanes_only() {
        let n = MR + 1; // forces a padded row edge
        let k = 3;
        let m = NR + 1; // forces a padded column edge
        let mut a = Matrix::filled(n, k, 1.0);
        let b = Matrix::filled(k, m, 2.0);
        a.set(0, 0, f32::NAN);
        let mut out = vec![0.0; n * m];
        matmul_tiled(a.data(), b.data(), &mut out, n, k, m);
        // Row 0 is poisoned; every other element is finite.
        for (j, v) in out.iter().enumerate().take(m) {
            assert!(v.is_nan(), "row 0 col {j} should be NaN");
        }
        for i in 1..n {
            for j in 0..m {
                assert!(out[i * m + j].is_finite(), "({i},{j}) contaminated");
            }
        }
    }

    #[test]
    fn blocked_transpose_matches_reference() {
        let mut rng = seeded(78);
        for &(r, c) in &[(1usize, 1usize), (5, 9), (32, 32), (33, 65), (100, 3)] {
            let m = Matrix::randn(r, c, 1.0, &mut rng);
            let mut dst = vec![0.0; r * c];
            transpose(m.data(), &mut dst, r, c);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(dst[j * r + i].to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }
}

/// Property tests for the determinism contract (DESIGN.md §9/§10): every
/// tiled product is bit-identical to the retained naive reference across
/// random shapes — including non-multiple-of-tile edges — and across
/// {1, 2, 7} pool threads. `*_tiled` entry points are used directly so the
/// small-size naive fallback cannot mask a divergence. The thread sweeps
/// run each drawn shape and then the same shape with its split
/// (output-row) dimension grown until the product carries three
/// `edsr_par::CUT`s, so two threads split it in two, seven in three, and
/// every parallel run of the grown shape provably reaches the pool.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::seeded;
    use crate::Matrix;
    use proptest::prelude::*;

    /// Row/column sizes: small shapes plus exact and off-by-one tile edges.
    fn dim() -> impl Strategy<Value = usize> {
        let edges = [MR, MR + 1, 2 * MR - 1, NR, NR + 1, 2 * NR + 3];
        (0usize..10 + edges.len()).prop_map(move |i| if i < 10 { i + 1 } else { edges[i - 10] })
    }

    /// Inner (k) sizes: small shapes plus the KC k-block boundary.
    fn kdim() -> impl Strategy<Value = usize> {
        let edges = [KC - 1, KC, KC + 3];
        (0usize..10 + edges.len()).prop_map(move |i| if i < 10 { i + 1 } else { edges[i - 10] })
    }

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// `edge` plus enough output rows of `per_row` multiply-adds each to
    /// carry three `edsr_par::CUT`s.
    fn rows_past_the_cut(edge: usize, per_row: usize) -> usize {
        edge + (3 * edsr_par::CUT).div_ceil(per_row)
    }

    /// Runs `f` at `threads` and reports whether it reached the pool (or
    /// could not: one thread, or a pool without workers).
    fn pool_ran(threads: usize, f: impl FnOnce()) -> bool {
        let before = edsr_par::handoffs();
        edsr_par::with_threads(threads, f);
        threads == 1 || edsr_par::pool_workers() == 0 || edsr_par::handoffs() > before
    }

    /// Shapes for the per-ISA identity property: one-below / exact /
    /// one-above each tile edge (MR = 8, NR = 16) plus a multi-tile size.
    fn isa_dim() -> impl Strategy<Value = usize> {
        let shapes = [1usize, 7, 8, 9, 15, 16, 17, 48];
        (0usize..shapes.len()).prop_map(move |i| shapes[i])
    }

    proptest! {
        // Each case also runs a product grown past three cuts (~0.8 s in a
        // debug build), so fewer cases than the block below.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn tiled_matmul_bit_identical_across_shapes_and_threads(
            n in dim(), k in kdim(), m in dim(), seed in 0u64..=u64::MAX,
        ) {
            for (n, grown) in [(n, false), (rows_past_the_cut(n, k * m), true)] {
                let mut rng = seeded(seed);
                let a = Matrix::randn(n, k, 1.0, &mut rng);
                let b = Matrix::randn(k, m, 1.0, &mut rng);
                let mut want = vec![0.0f32; n * m];
                naive::matmul(a.data(), b.data(), &mut want, n, k, m);
                for threads in [1usize, 2, 7] {
                    let mut got = vec![0.0f32; n * m];
                    let ran = pool_ran(threads, || {
                        matmul_tiled(a.data(), b.data(), &mut got, n, k, m);
                    });
                    prop_assert!(
                        ran || !grown,
                        "matmul {}x{}x{} skipped the pool at {} threads", n, k, m, threads,
                    );
                    prop_assert!(
                        bits_eq(&want, &got),
                        "matmul {}x{}x{} diverged at {} threads", n, k, m, threads,
                    );
                }
            }
        }

        #[test]
        fn tiled_transpose_matmul_bit_identical_across_shapes_and_threads(
            n in kdim(), k in dim(), m in dim(), seed in 0u64..=u64::MAX,
        ) {
            // `aᵀ·b` has k output rows of n·m multiply-adds each.
            for (k, grown) in [(k, false), (rows_past_the_cut(k, n * m), true)] {
                let mut rng = seeded(seed);
                let a = Matrix::randn(n, k, 1.0, &mut rng);
                let b = Matrix::randn(n, m, 1.0, &mut rng);
                let mut want = vec![0.0f32; k * m];
                naive::transpose_matmul(a.data(), b.data(), &mut want, n, k, m);
                for threads in [1usize, 2, 7] {
                    let mut got = vec![0.0f32; k * m];
                    let ran = pool_ran(threads, || {
                        transpose_matmul_tiled(a.data(), b.data(), &mut got, n, k, m);
                    });
                    prop_assert!(
                        ran || !grown,
                        "transpose_matmul {}x{}x{} skipped the pool at {} threads", n, k, m, threads,
                    );
                    prop_assert!(
                        bits_eq(&want, &got),
                        "transpose_matmul {}x{}x{} diverged at {} threads", n, k, m, threads,
                    );
                }
            }
        }

        #[test]
        fn tiled_matmul_transpose_bit_identical_across_shapes_and_threads(
            n in dim(), k in kdim(), m in dim(), seed in 0u64..=u64::MAX,
        ) {
            for (n, grown) in [(n, false), (rows_past_the_cut(n, k * m), true)] {
                let mut rng = seeded(seed);
                let a = Matrix::randn(n, k, 1.0, &mut rng);
                let b = Matrix::randn(m, k, 1.0, &mut rng);
                let mut want = vec![0.0f32; n * m];
                naive::matmul_transpose(a.data(), b.data(), &mut want, n, k, m);
                for threads in [1usize, 2, 7] {
                    let mut got = vec![0.0f32; n * m];
                    let ran = pool_ran(threads, || {
                        matmul_transpose_tiled(a.data(), b.data(), &mut got, n, k, m);
                    });
                    prop_assert!(
                        ran || !grown,
                        "matmul_transpose {}x{}x{} skipped the pool at {} threads", n, k, m, threads,
                    );
                    prop_assert!(
                        bits_eq(&want, &got),
                        "matmul_transpose {}x{}x{} diverged at {} threads", n, k, m, threads,
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every supported SIMD ISA level produces bit-identical products
        /// to the scalar micro-kernel (DESIGN.md §15): the output-stationary
        /// tile gives each lane one output element with the same ascending-k
        /// mul+add chain at every width. Shapes cover the MR=8 / NR=16 tile
        /// edges (one-below, exact, one-above) plus a multi-tile size.
        #[test]
        fn every_isa_bit_identical_to_scalar_kernel(
            n in isa_dim(), k in isa_dim(), m in isa_dim(), seed in 0u64..=u64::MAX,
        ) {
            let scalar = simd::Kernel::for_isa(simd::Isa::Scalar)
                .expect("scalar kernel is always supported");
            let mut rng = seeded(seed);
            let a = Matrix::randn(n, k, 1.0, &mut rng);
            let b = Matrix::randn(k, m, 1.0, &mut rng);
            let bt = {
                let mut t = vec![0.0f32; k * m];
                transpose(b.data(), &mut t, k, m);
                t // `b` as an m x k matrix, so a·btᵀ == a·b
            };
            let mut want_ab = vec![0.0f32; n * m];
            matmul_tiled_with(scalar, a.data(), b.data(), &mut want_ab, n, k, m);
            let mut want_atb = vec![0.0f32; k * k];
            transpose_matmul_tiled_with(scalar, a.data(), a.data(), &mut want_atb, n, k, k);
            let mut want_abt = vec![0.0f32; n * m];
            matmul_transpose_tiled_with(scalar, a.data(), &bt, &mut want_abt, n, k, m);
            for isa in [simd::Isa::Avx2, simd::Isa::Avx512] {
                let Some(kern) = simd::Kernel::for_isa(isa) else {
                    eprintln!(
                        "SKIPPING ISA bit-identity case for {}: not supported on this host",
                        isa.name()
                    );
                    continue;
                };
                for threads in [1usize, 2, 7] {
                    let mut got = vec![0.0f32; n * m];
                    edsr_par::with_threads(threads, || {
                        matmul_tiled_with(kern, a.data(), b.data(), &mut got, n, k, m);
                    });
                    prop_assert!(
                        bits_eq(&want_ab, &got),
                        "matmul {}x{}x{} diverged from scalar on {} at {} threads",
                        n, k, m, isa.name(), threads,
                    );
                    let mut got = vec![0.0f32; k * k];
                    edsr_par::with_threads(threads, || {
                        transpose_matmul_tiled_with(kern, a.data(), a.data(), &mut got, n, k, k);
                    });
                    prop_assert!(
                        bits_eq(&want_atb, &got),
                        "transpose_matmul {}x{}x{} diverged from scalar on {} at {} threads",
                        n, k, k, isa.name(), threads,
                    );
                    let mut got = vec![0.0f32; n * m];
                    edsr_par::with_threads(threads, || {
                        matmul_transpose_tiled_with(kern, a.data(), &bt, &mut got, n, k, m);
                    });
                    prop_assert!(
                        bits_eq(&want_abt, &got),
                        "matmul_transpose {}x{}x{} diverged from scalar on {} at {} threads",
                        n, k, m, isa.name(), threads,
                    );
                }
            }
        }

        /// The int8 reductions are exact i32 accumulations, so every ISA
        /// (and any thread count) must agree with a plain sequential
        /// reference sum to the bit (DESIGN.md §17). Lengths straddle the
        /// AVX2 16-element step boundary to exercise the scalar tail.
        #[test]
        fn i8_reductions_exact_on_every_isa(
            len in 0usize..=200,
            seed in 0u64..=u64::MAX,
        ) {
            let mut rng = seeded(seed);
            let a: Vec<i8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8 as i8).collect();
            let b: Vec<i8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8 as i8).collect();
            let mut want_dot = 0i64;
            let mut want_sq = 0i64;
            for (&x, &y) in a.iter().zip(&b) {
                want_dot += x as i64 * y as i64;
                let t = x as i64 - y as i64;
                want_sq += t * t;
            }
            for isa in [simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512] {
                let Some(kern) = simd::Kernel::for_isa(isa) else {
                    eprintln!(
                        "SKIPPING i8 bit-identity case for {}: not supported on this host",
                        isa.name()
                    );
                    continue;
                };
                for threads in [1usize, 2, 7] {
                    let mut got_dot = 0i32;
                    let mut got_sq = 0i32;
                    edsr_par::with_threads(threads, || {
                        got_dot = (kern.i8_dot)(&a, &b);
                        got_sq = (kern.i8_sq_euclidean)(&a, &b);
                    });
                    prop_assert_eq!(
                        got_dot as i64, want_dot,
                        "i8_dot len {} diverged on {} at {} threads", len, isa.name(), threads,
                    );
                    prop_assert_eq!(
                        got_sq as i64, want_sq,
                        "i8_sq_euclidean len {} diverged on {} at {} threads",
                        len, isa.name(), threads,
                    );
                }
            }
        }

        #[test]
        fn blocked_transpose_bit_identical_across_shapes(
            r in 1usize..=70, c in 1usize..=70, seed in 0u64..=u64::MAX,
        ) {
            let mut rng = seeded(seed);
            let m = Matrix::randn(r, c, 1.0, &mut rng);
            let mut dst = vec![0.0f32; r * c];
            transpose(m.data(), &mut dst, r, c);
            for i in 0..r {
                for j in 0..c {
                    prop_assert_eq!(dst[j * r + i].to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }
}
