//! SIMD micro-kernels: one body per op, chosen at compile time.
//!
//! The hot loops of the workspace — the 8x16 GEMM register tile in
//! [`crate::kernel`], the kNN squared-distance/dot reductions, the exact
//! int8 reductions of quantized serving, the PCA covariance row
//! accumulation, and the elementwise tape ops (axpy, scale, row-normalize
//! division) — each have exactly one body in a given build, picked by
//! `#[cfg(target_feature = …)]` (DESIGN.md §15):
//!
//! - [`scalar`]: the portable bodies. They *define* the canonical result:
//!   a hand-written body must reproduce their bits. The workspace builds
//!   with `-C target-cpu=native` (`.cargo/config.toml`), so LLVM
//!   vectorizes them at the host's vector width.
//! - `avx512`: the 8x16 tile with one zmm register per output row,
//!   compiled in when the build enables `avx512f`.
//! - `avx2`: the f32 and int8 reductions, compiled in when the build
//!   enables `avx2`.
//!
//! Every other op, and every op of a build without those features, runs
//! the portable body. Only the hand-written bodies that beat their
//! portable twin on an end-to-end workload are kept.
//!
//! ## Bit-identity rules
//!
//! Every hand-written body produces bits identical to its portable twin,
//! and rustc never reassociates float operations or contracts them into
//! FMA, so the portable bodies give the same bits at any vector width.
//! Results therefore do not depend on the build's target features:
//!
//! - **GEMM tile**: output-stationary. Each SIMD lane owns one output
//!   element and accumulates in ascending `k` order inside the same KC=256
//!   k-blocks as the portable tile, using separate multiply and add
//!   instructions (never fused FMA — the portable tile rounds twice per
//!   step, and a fused contraction would diverge from it).
//! - **Reductions** (`dot`, `sq_euclidean`): a strict sequential sum cannot
//!   be vectorized without reordering, so the canonical order is defined
//!   *once* as an 8-lane interleaved tree — lane `j` accumulates elements
//!   `i ≡ j (mod 8)` in ascending order, tail elements fold into lanes
//!   `0..rem`, and the eight partials collapse left-to-right. The portable
//!   body writes this tree out; the AVX2 body holds it in one ymm register.
//!   The block scorers (`dot8`, `sq_euclidean8`) keep one such tree per
//!   (query, row) pair.
//! - **Elementwise** (`axpy`, `add_assign`, `scale`, `scale_into`,
//!   `div_scalar`): one output per element, no cross-lane interaction;
//!   any vector width is bit-identical by construction.
//! - **Int8 reductions** (`i8_dot`, `i8_sq_euclidean`): exact `i32`
//!   accumulation (DESIGN.md §17). Integer addition is associative, so
//!   unlike the f32 reductions no canonical lane tree is needed — any
//!   accumulation order yields identical bits. Callers keep lengths
//!   ≤ 130 000 so `len * 127²` (and `len * 254²` for distances) stays
//!   below `i32::MAX`.
//!
//! The hand-written bodies are `unsafe` `#[target_feature]` functions.
//! They are compiled only when the build enables their feature for the
//! whole binary, which then cannot run on a CPU without it, so the safe
//! entries below may call them.

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512;
pub mod scalar;

pub use scalar::{add_assign, axpy, div_scalar, scale, scale_into};

/// Canonical reduction lane count. Reductions accumulate an 8-lane
/// interleaved partial-sum tree regardless of register width.
pub const LANES: usize = 8;

/// Reference rows a block scorer ([`dot8`], [`sq_euclidean8`]) scores per
/// pass.
pub const BLOCK: usize = 8;

/// An x86 instruction-set level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// No x86 SIMD level: portable bodies only.
    Scalar,
    /// AVX2, 8 x f32 per vector (the hand-written reductions).
    Avx2,
    /// AVX-512F, 16 x f32 per vector (the hand-written tile; `avx512f`
    /// implies `avx2`, so the AVX2 reductions too).
    Avx512,
}

impl Isa {
    /// Stable lowercase name (used in bench JSON headers).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// The fastest level the running CPU supports, whatever the build
/// compiled in (compare [`active_isa`]).
pub fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// The level whose hand-written bodies this build compiled in: `avx512`
/// when it enables `avx512f`, `avx2` when it enables `avx2`, else
/// `scalar`. A build that drops `.cargo/config.toml`'s rustflags reads
/// `scalar` here on any CPU.
pub fn active_isa() -> Isa {
    if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
        Isa::Avx512
    } else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Full `MR x NR` GEMM register tile over packed panels (`ap`: k-major
/// MR-wide, `bp`: k-major NR-wide, `kc` steps each); accumulates into
/// `c[(row0 + i) * ldc + j0 + j]`, starting from zero when `first`.
#[inline]
pub(crate) fn tile8x16(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    row0: usize,
    j0: usize,
    ldc: usize,
    first: bool,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        use crate::kernel::{MR, NR};
        assert!(bp.len() >= ap.len() / MR * NR && (row0 + MR - 1) * ldc + j0 + NR <= c.len());
        // SAFETY: compiled only when the build enables avx512f; the assert
        // covers every `bp` load and every `c` load and store.
        unsafe { avx512::tile8x16(ap, bp, c, row0, j0, ldc, first) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        scalar::tile8x16(ap, bp, c, row0, j0, ldc, first)
    }
}

/// 8-lane-tree dot product (`a.len() == b.len()`).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        assert_eq!(a.len(), b.len());
        // SAFETY: compiled only when the build enables avx2; equal lengths.
        unsafe { avx2::dot(a, b) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::dot(a, b)
    }
}

/// 8-lane-tree squared Euclidean distance (`a.len() == b.len()`).
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        assert_eq!(a.len(), b.len());
        // SAFETY: compiled only when the build enables avx2; equal lengths.
        unsafe { avx2::sq_euclidean(a, b) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::sq_euclidean(a, b)
    }
}

/// Block scorer: [`dot`] of every row of `rows` (row-major, as wide as
/// `query`) with `query`, into `out[r]`, bit for bit. The AVX2 body scores
/// each block of [`BLOCK`] rows side by side, one 8-lane tree per row, so
/// the eight folds of a block overlap.
///
/// # Panics
/// Panics unless `out` holds a whole number of blocks and `rows` holds
/// that many rows, each as wide as `query`.
#[inline]
pub fn dot8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    check_block(rows, query, out);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        // SAFETY: compiled only when the build enables avx2; the check
        // covers every load and store.
        unsafe { avx2::dot8(rows, query, out) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::dot8(rows, query, out)
    }
}

/// Block scorer: [`sq_euclidean`] of every row of `rows` with `query`,
/// bit for bit (see [`dot8`]).
///
/// # Panics
/// As [`dot8`].
#[inline]
pub fn sq_euclidean8(rows: &[f32], query: &[f32], out: &mut [f32]) {
    check_block(rows, query, out);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        // SAFETY: compiled only when the build enables avx2; the check
        // covers every load and store.
        unsafe { avx2::sq_euclidean8(rows, query, out) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::sq_euclidean8(rows, query, out)
    }
}

/// The block scorers' shape contract.
fn check_block(rows: &[f32], query: &[f32], out: &[f32]) {
    assert!(
        out.len().is_multiple_of(BLOCK) && rows.len() == out.len() * query.len(),
        "block scorer: {} values for {} rows of {}",
        rows.len(),
        out.len(),
        query.len()
    );
}

/// Exact int8 dot product with an `i32` accumulator (`a.len() ==
/// b.len()`, length ≤ 130 000).
#[inline]
pub fn i8_dot(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        assert_eq!(a.len(), b.len());
        // SAFETY: compiled only when the build enables avx2; equal lengths.
        unsafe { avx2::i8_dot(a, b) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::i8_dot(a, b)
    }
}

/// Exact int8 squared Euclidean distance with an `i32` accumulator
/// (`a.len() == b.len()`, length ≤ 130 000).
#[inline]
pub fn i8_sq_euclidean(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        assert_eq!(a.len(), b.len());
        // SAFETY: compiled only when the build enables avx2; equal lengths.
        unsafe { avx2::i8_sq_euclidean(a, b) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        scalar::i8_sq_euclidean(a, b)
    }
}
