//! Dense floating-point matrices for weights and synaptic integration.

use rand::Rng;

use crate::words::simd;

/// A row-major dense `rows × cols` matrix of `f32` values.
///
/// Used for the multi-bit weight matrices of the MLP/projection layers
/// (`D × D`-shaped in the paper), for membrane-potential accumulators, and
/// for the integer-valued attention scores `S` before they are thresholded
/// back into spikes.
///
/// ```
/// use bishop_spiketensor::DenseMatrix;
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let data = rows.iter().flatten().copied().collect();
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f` at every `(row, col)`.
    pub fn from_fn<F>(rows: usize, cols: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> f32,
    {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Fills a matrix with samples drawn uniformly from `[-scale, scale]`.
    /// Deterministic given the RNG state; used for synthetic weights.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-scale..=scale))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Writes element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to element `(row, col)`.
    #[inline]
    pub fn add_assign(&mut self, row: usize, col: usize, value: f32) {
        let v = self.get(row, col);
        self.set(row, col, v + value);
    }

    /// Mutable borrow of row `row` as a slice (the accumulation target of
    /// the select-accumulate kernels).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Flat view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying data in row-major order (the
    /// target of kernels that fill a reused plane in place).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Standard matrix product `self · other`.
    ///
    /// Every output element is `Σₖ self[i,k]·other[k,j]` accumulated from
    /// `0.0` over ascending `k`, zero `self[i,k]` skipped, each product
    /// rounded before its add — the fixed order of the active SIMD tier's
    /// `scaled_accumulate` kernel, so the result is the same bits on every
    /// tier.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let kernels = simd::active();
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            kernels.scaled_accumulate(out.row_mut(i), &other.data, self.row(i));
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise sum with another matrix of identical dimensions.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "add dimension mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scale(&self, factor: f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean absolute value of all elements.
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().map(|v| v.abs()).sum::<f32>() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute elementwise difference with another matrix.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "max_abs_diff dimension mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Size in bytes when stored with `bits_per_element` bits per weight
    /// (the paper models multi-bit weights, typically 8-bit).
    pub fn storage_bytes(&self, bits_per_element: usize) -> usize {
        (self.rows * self.cols * bits_per_element).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_matmul_is_noop() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_and_scale() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn norms_and_sums() {
        let a = DenseMatrix::from_rows(&[vec![3.0, -4.0]]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean_abs(), 3.5);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn max_abs_diff_detects_largest_gap() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[vec![1.5, -1.0]]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn storage_bytes_uses_bit_width() {
        let a = DenseMatrix::zeros(16, 16);
        assert_eq!(a.storage_bytes(8), 256);
        assert_eq!(a.storage_bytes(4), 128);
        assert_eq!(a.storage_bytes(1), 32);
    }

    #[test]
    fn random_uniform_is_within_scale_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseMatrix::random_uniform(8, 8, 0.5, &mut rng);
        assert!(a.as_slice().iter().all(|v| v.abs() <= 0.5));
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = DenseMatrix::random_uniform(8, 8, 0.5, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_view_is_contiguous() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
    }
}
