//! Minimal dense row-major matrix used by the MLP implementation.

use serde::{Deserialize, Serialize};

use crate::error::AnnError;

/// A dense `rows × cols` matrix of `f64` stored row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from row-major data; the data length must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, AnnError> {
        if data.len() != rows * cols {
            return Err(AnnError::LengthMismatch {
                what: "matrix data",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Sets an element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        *self.get_mut(r, c) = v;
    }

    /// A view of one row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The row-major elements.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major elements, mutably (the trainer's fused update walks
    /// weight and velocity rows in lockstep).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, AnnError> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * x` written into a caller-supplied
    /// buffer — the allocation-free core of [`Matrix::matvec`].
    ///
    /// Rows are taken four at a time so four independent dot products are
    /// in flight, but each row keeps its own sequential sum from `0.0` in
    /// column order: every output is bit-identical to the one-row-at-a-time
    /// loop (the batched forward pass and the trainer rely on that).
    #[inline]
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), AnnError> {
        if x.len() != self.cols {
            return Err(AnnError::DimensionMismatch { expected: self.cols, actual: x.len() });
        }
        if out.len() != self.rows {
            return Err(AnnError::DimensionMismatch { expected: self.rows, actual: out.len() });
        }
        let cols = self.cols;
        if cols == 0 {
            out.fill(0.0);
            return Ok(());
        }
        let mut rows = self.data.chunks_exact(4 * cols);
        let mut outs = out.chunks_exact_mut(4);
        for (o, quad) in (&mut outs).zip(&mut rows) {
            let (w01, w23) = quad.split_at(2 * cols);
            let (w0, w1) = w01.split_at(cols);
            let (w2, w3) = w23.split_at(cols);
            let mut acc = [0.0; 4];
            for ((((xc, a), b), c), d) in x.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                acc[0] += a * xc;
                acc[1] += b * xc;
                acc[2] += c * xc;
                acc[3] += d * xc;
            }
            o.copy_from_slice(&acc);
        }
        for (o, row) in outs.into_remainder().iter_mut().zip(rows.remainder().chunks_exact(cols)) {
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *o = acc;
        }
        Ok(())
    }

    /// Row-batched product: treats `inputs` as a row-major `n × cols` block
    /// and writes `self * inputs[i]` into the `i`-th row of `out`
    /// (`n × rows`, row-major). One GEMM-shaped loop, no per-sample
    /// allocation; each output row is bit-identical to [`Matrix::matvec`] on
    /// the matching input row.
    pub fn matvec_rows_into(
        &self,
        inputs: &[f64],
        n: usize,
        out: &mut [f64],
    ) -> Result<(), AnnError> {
        if inputs.len() != n * self.cols {
            return Err(AnnError::LengthMismatch {
                what: "batched matvec inputs",
                expected: n * self.cols,
                actual: inputs.len(),
            });
        }
        if out.len() != n * self.rows {
            return Err(AnnError::LengthMismatch {
                what: "batched matvec outputs",
                expected: n * self.rows,
                actual: out.len(),
            });
        }
        for (x, o) in inputs.chunks_exact(self.cols).zip(out.chunks_exact_mut(self.rows)) {
            self.matvec_into(x, o)?;
        }
        Ok(())
    }

    /// Transposed matrix-vector product `selfᵀ * x` (used to backpropagate
    /// deltas without materialising the transpose).
    #[allow(clippy::needless_range_loop)] // indexing several buffers by one row index
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>, AnnError> {
        if x.len() != self.rows {
            return Err(AnnError::DimensionMismatch { expected: self.rows, actual: x.len() });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let xr = x[r];
            for (o, w) in out.iter_mut().zip(row) {
                *o += w * xr;
            }
        }
        Ok(out)
    }

    /// In-place `self += alpha * other`, requiring identical shapes.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<(), AnnError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(AnnError::LengthMismatch {
                what: "matrix shapes in axpy",
                expected: self.rows * self.cols,
                actual: other.rows * other.cols,
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scaling by a constant.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Rank-1 update: `self += alpha * col ⊗ row` where `col` has `rows`
    /// entries and `row` has `cols` entries. This is the outer-product form
    /// of the backpropagation weight gradient.
    #[allow(clippy::needless_range_loop)] // indexing several buffers by one row index
    pub fn rank1_update(&mut self, alpha: f64, col: &[f64], row: &[f64]) -> Result<(), AnnError> {
        if col.len() != self.rows {
            return Err(AnnError::DimensionMismatch { expected: self.rows, actual: col.len() });
        }
        if row.len() != self.cols {
            return Err(AnnError::DimensionMismatch { expected: self.cols, actual: row.len() });
        }
        for r in 0..self.rows {
            let a = alpha * col[r];
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, x) in dst.iter_mut().zip(row) {
                *d += a * x;
            }
        }
        Ok(())
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Reusable ping/pong activation buffers for batched forward passes.
///
/// A batched pass through an L-layer network needs two row-major blocks that
/// alternate as layer input and output; keeping them in a caller-owned
/// scratch lets repeated batch predictions run without touching the
/// allocator once the high-water mark is reached.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    ping: Vec<f64>,
    pong: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Both buffers, each resized to at least `len` elements (contents
    /// unspecified). Split out so callers can ping/pong between them.
    pub fn buffers(&mut self, len: usize) -> (&mut Vec<f64>, &mut Vec<f64>) {
        if self.ping.len() < len {
            self.ping.resize(len, 0.0);
        }
        if self.pong.len() < len {
            self.pong.resize(len, 0.0);
        }
        (&mut self.ping, &mut self.pong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);

        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());

        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(f.get(1, 1), 11.0);
    }

    #[test]
    fn matvec_products() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
        assert!(m.matvec(&[1.0]).is_err());

        let yt = m.matvec_transposed(&[1.0, 1.0]).unwrap();
        assert_eq!(yt, vec![5.0, 7.0, 9.0]);
        assert!(m.matvec_transposed(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn axpy_scale_rank1() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.get(1, 1), 8.0);
        a.scale(0.5);
        assert_eq!(a.get(1, 1), 4.0);
        assert!(a.axpy(1.0, &Matrix::zeros(3, 3)).is_err());

        let mut m = Matrix::zeros(2, 3);
        m.rank1_update(1.0, &[1.0, 2.0], &[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), -2.0);
        assert!(m.rank1_update(1.0, &[1.0], &[1.0, 0.0, -1.0]).is_err());
        assert!(m.rank1_update(1.0, &[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn finiteness_and_norm() {
        let mut m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!(m.is_finite());
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }

    proptest! {
        #[test]
        fn matvec_is_linear(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..1000,
            alpha in -3.0f64..3.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // m(alpha*x + y) == alpha*m(x) + m(y)
            let lhs_input: Vec<f64> = x.iter().zip(&y).map(|(a, b)| alpha * a + b).collect();
            let lhs = m.matvec(&lhs_input).unwrap();
            let mx = m.matvec(&x).unwrap();
            let my = m.matvec(&y).unwrap();
            for i in 0..rows {
                prop_assert!((lhs[i] - (alpha * mx[i] + my[i])).abs() < 1e-9);
            }
        }

        // Interleaving four rows must not change any row's sum: each output
        // is bit-identical to a plain sequential dot product from 0.0.
        #[test]
        fn matvec_into_is_bitwise_the_row_by_row_loop(
            rows in 1usize..12,
            cols in 1usize..12,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0));
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut out = vec![f64::NAN; rows];
            m.matvec_into(&x, &mut out).unwrap();
            for (r, o) in out.iter().enumerate() {
                let mut acc = 0.0;
                for (c, xc) in x.iter().enumerate() {
                    acc += m.get(r, c) * xc;
                }
                prop_assert_eq!(o.to_bits(), acc.to_bits());
            }
        }

        #[test]
        fn transpose_product_consistent_with_explicit_transpose(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
            let x: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let yt = m.matvec_transposed(&x).unwrap();
            // explicit transpose
            let t = Matrix::from_fn(cols, rows, |r, c| m.get(c, r));
            let expected = t.matvec(&x).unwrap();
            for i in 0..cols {
                prop_assert!((yt[i] - expected[i]).abs() < 1e-9);
            }
        }
    }
}
