//! Dense row-major `f32` matrix.
//!
//! [`Matrix`] is the single numeric container of the workspace: datasets,
//! minibatches, representations, weights and gradients are all matrices.
//! The matrix products dispatch to the cache-blocked, register-tiled
//! kernels of [`crate::kernel`] (in-tree, per the repository's
//! no-external-substrate rule); tiny products use the retained naive
//! loops. Large products are data-parallel over *output rows* via
//! `edsr-par`: every output element keeps the exact serial accumulation
//! order, so results are bit-identical at every thread count (the
//! determinism contract of DESIGN.md §9, kernel details in §10).

use std::fmt;

use rand::rngs::StdRng;

use crate::kernel;
use crate::rng::gaussian;

/// A dense, row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` at all times.
///
/// ```
/// use edsr_tensor::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.trace(), 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a matrix with entries drawn i.i.d. from `N(0, std^2)`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = gaussian(rng) * std;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `src` of `other` into row `dst` of `self`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn copy_row_from(&mut self, dst: usize, other: &Matrix, src: usize) {
        assert_eq!(self.cols, other.cols, "copy_row_from: column mismatch");
        // `self` and `other` cannot alias (`&mut self` + `&other`), so the
        // source row can be borrowed directly — no temporary copy.
        self.row_mut(dst)
            .copy_from_slice(&other.data[src * other.cols..(src + 1) * other.cols]);
    }

    /// Builds a new matrix from the selected rows (in the given order).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.copy_row_from(dst, self, src);
        }
        out
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    /// Panics if column counts differ or `parts` is empty.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack: need at least one matrix");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Writes `f` applied to every element of `self` into `out` (same
    /// shape), without allocating.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32) {
        assert_eq!(self.shape(), out.shape(), "map_into: shape mismatch");
        for (o, &v) in out.data.iter_mut().zip(&self.data) {
            *o = f(v);
        }
    }

    /// Writes the elementwise combination of `self` and `other` into `out`
    /// (all same shape), without allocating.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_map_into: shape mismatch");
        assert_eq!(
            self.shape(),
            out.shape(),
            "zip_map_into: out shape mismatch"
        );
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// Elementwise combination of two same-shape matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other` (elementwise).
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other` (elementwise).
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn mul_elem(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self * c` (scalar multiply).
    pub fn scale(&self, c: f32) -> Matrix {
        self.map(|v| v * c)
    }

    /// In-place `self += other` ([`crate::simd`]).
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        crate::simd::add_assign(&mut self.data, &other.data);
    }

    /// In-place `self += c * other` (axpy, [`crate::simd`]).
    pub fn add_scaled(&mut self, other: &Matrix, c: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        crate::simd::axpy(&mut self.data, &other.data, c);
    }

    /// In-place `self *= c` ([`crate::simd`]).
    pub fn scale_inplace(&mut self, c: f32) {
        crate::simd::scale(&mut self.data, c);
    }

    /// Writes `self * c` into same-shape `out` without allocating
    /// ([`crate::simd`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn scale_into(&self, out: &mut Matrix, c: f32) {
        assert_eq!(self.shape(), out.shape(), "scale_into: shape mismatch");
        crate::simd::scale_into(&mut out.data, &self.data, c);
    }

    /// Sets all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix product `self (r x k) * other (k x c)`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self * other` written into a caller-provided matrix (reused from a
    /// scratch arena on hot paths; the previous contents are overwritten).
    ///
    /// # Panics
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (n, m), "matmul_into: out shape mismatch");
        out.fill_zero();
        kernel::matmul(&self.data, &other.data, &mut out.data, n, k, m);
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ * other` written into a caller-provided matrix.
    ///
    /// # Panics
    /// Panics if row counts disagree or `out` has the wrong shape.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul: row mismatch {} vs {}",
            self.rows, other.rows
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (k, m), "transpose_matmul_into: out shape");
        out.fill_zero();
        kernel::transpose_matmul(&self.data, &other.data, &mut out.data, n, k, m);
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_transpose_into(other, &mut out);
        out
    }

    /// `self * otherᵀ` written into a caller-provided matrix.
    ///
    /// # Panics
    /// Panics if column counts disagree or `out` has the wrong shape.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose: col mismatch {} vs {}",
            self.cols, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (n, m), "matmul_transpose_into: out shape");
        out.fill_zero();
        kernel::matmul_transpose(&self.data, &other.data, &mut out.data, n, k, m);
    }

    /// Transposed copy (cache-blocked).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into a caller-provided `cols x rows` matrix.
    ///
    /// # Panics
    /// Panics if `out` has the wrong shape.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: out shape mismatch"
        );
        kernel::transpose(&self.data, &mut out.data, self.rows, self.cols);
    }

    /// Adds a `1 x cols` row vector to every row, written into a
    /// caller-provided matrix in a single pass (no intermediate
    /// full-matrix copy).
    ///
    /// # Panics
    /// Panics unless `bias` is `1 x self.cols` and `out` matches `self`.
    pub fn add_row_broadcast_into(&self, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(bias.rows, 1, "add_row_broadcast: bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "add_row_broadcast: width mismatch");
        assert_eq!(
            out.shape(),
            self.shape(),
            "add_row_broadcast_into: out shape mismatch"
        );
        for (out_row, src_row) in out
            .data
            .chunks_exact_mut(self.cols.max(1))
            .zip(self.data.chunks_exact(self.cols.max(1)))
        {
            for ((o, &v), &b) in out_row.iter_mut().zip(src_row).zip(&bias.data) {
                *o = v + b;
            }
        }
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Column means as a `1 x cols` row vector.
    pub fn col_means(&self) -> Matrix {
        let mut out = self.col_sums();
        if self.rows > 0 {
            out.scale_inplace(1.0 / self.rows as f32);
        }
        out
    }

    /// Euclidean (L2) norm of each row, as a `rows x 1` column vector.
    pub fn row_norms(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f32 {
        assert_eq!(self.rows, self.cols, "trace: matrix must be square");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Maximum absolute elementwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn m2x3() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 7.5);
        assert_eq!(m.get(1, 0), 7.5);
        m.add_at(1, 0, 0.5);
        assert_eq!(m.get(1, 0), 8.0);
    }

    #[test]
    fn row_access() {
        let m = m2x3();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn select_rows_reorders() {
        let m = m2x3();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = m2x3();
        let b = Matrix::filled(1, 3, 9.0);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(2), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = m2x3();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Matrix::randn(5, 3, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(6, 3, 1.0, &mut rng);
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let m = m2x3();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_sub_mul_scale() {
        let a = m2x3();
        let b = Matrix::filled(2, 3, 2.0);
        assert_eq!(a.add(&b).get(0, 0), 3.0);
        assert_eq!(a.sub(&b).get(1, 2), 4.0);
        assert_eq!(a.mul_elem(&b).get(1, 0), 8.0);
        assert_eq!(a.scale(0.5).get(0, 1), 1.0);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.add_scaled(&b, 2.0);
        assert!(a.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn broadcast_row_add() {
        let a = m2x3();
        let bias = Matrix::row_vector(&[10.0, 20.0, 30.0]);
        let mut out = Matrix::zeros(2, 3);
        a.add_row_broadcast_into(&bias, &mut out);
        assert_eq!(out.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(out.row(1), &[14.0, 25.0, 36.0]);
    }

    #[test]
    fn reductions() {
        let m = m2x3();
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.col_sums().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.col_means().data(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn row_norms_known() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 2.0]);
        let n = m.row_norms();
        assert!((n.data()[0] - 5.0).abs() < 1e-6);
        assert!((n.data()[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = Matrix::randn(100, 100, 1.0, &mut rng);
        let mean = m.mean();
        let var = m.map(|v| v * v).mean() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m.set(0, 0, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn trace_square_only() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 9.0, 9.0, 2.0]);
        assert_eq!(m.trace(), 3.0);
    }

    #[test]
    #[should_panic(expected = "vstack")]
    fn vstack_column_mismatch_panics() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        let _ = Matrix::vstack(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn broadcast_width_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let bias = Matrix::row_vector(&[1.0, 2.0]);
        a.add_row_broadcast_into(&bias, &mut Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_inner_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_vector_shape() {
        let v = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(v.shape(), (1, 3));
    }

    #[test]
    fn into_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn max_abs_diff_zero_for_identical() {
        let m = m2x3();
        assert_eq!(m.max_abs_diff(&m.clone()), 0.0);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = m2x3();
        m.fill_zero();
        assert_eq!(m.sum(), 0.0);
    }

    /// Regression: the old `ikj` kernel skipped `a == 0.0` terms, so a NaN
    /// in `B` multiplied by a zero in `A` silently vanished and the
    /// divergence guard never saw it. NaN must poison the affected output.
    #[test]
    fn matmul_propagates_nan_through_zero_operand() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());

        let at = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert!(at.transpose_matmul(&b).get(0, 0).is_nan());

        let bt = Matrix::from_vec(1, 2, vec![f32::NAN, 2.0]);
        assert!(a.matmul_transpose(&bt).get(0, 0).is_nan());
    }

    /// Determinism contract (DESIGN.md §9): all three products are
    /// bit-identical at every thread count. Each product carries 6.5M
    /// multiply-adds, past three `edsr_par::CUT`s, so two threads split it
    /// in two and seven in three, and all of them go through the pool.
    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let (r, k, m) = (257, 161, 157);
        assert!(r * k * m >= 3 * edsr_par::CUT);
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::randn(r, k, 1.0, &mut rng);
        let b = Matrix::randn(k, m, 1.0, &mut rng);
        let c = Matrix::randn(r, m, 1.0, &mut rng);
        let bt = Matrix::randn(m, k, 1.0, &mut rng);
        let serial = edsr_par::with_threads(1, || {
            (
                a.matmul(&b),
                a.transpose_matmul(&c),
                a.matmul_transpose(&bt),
            )
        });
        for threads in [2, 7] {
            let before = edsr_par::handoffs();
            let par = edsr_par::with_threads(threads, || {
                (
                    a.matmul(&b),
                    a.transpose_matmul(&c),
                    a.matmul_transpose(&bt),
                )
            });
            assert!(
                edsr_par::pool_workers() == 0 || edsr_par::handoffs() == before + 3,
                "a product at {threads} threads never reached the pool"
            );
            for (s, p) in [
                (&serial.0, &par.0),
                (&serial.1, &par.1),
                (&serial.2, &par.2),
            ] {
                assert!(
                    s.data()
                        .iter()
                        .zip(p.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "product differs at {threads} threads"
                );
            }
        }
    }
}
