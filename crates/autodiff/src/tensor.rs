//! Dense row-major `f64` tensors.
//!
//! The training engine only ever needs rank-2 tensors: matrices, row
//! vectors (`1 × d`) and scalars (`1 × 1`).  Keeping the representation this
//! small makes the tape ops easy to audit, which matters more than raw
//! throughput at the laptop scale this reproduction targets.

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` entries.
    pub data: Vec<f64>,
}

impl Tensor {
    /// Create a tensor from raw parts.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// A `1 × d` row vector.
    pub fn row(data: Vec<f64>) -> Self {
        let cols = data.len();
        Tensor::new(1, cols, data)
    }

    /// A `1 × 1` scalar tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor::new(1, 1, vec![v])
    }

    /// An all-zeros tensor of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor::new(rows, cols, vec![0.0; rows * cols])
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether this is a `1 × 1` scalar.
    #[inline]
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The single value of a scalar tensor.
    #[inline]
    pub fn scalar_value(&self) -> f64 {
        debug_assert!(
            self.is_scalar(),
            "expected scalar, got {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Shapes are equal.
    #[inline]
    pub fn same_shape(&self, other: &Tensor) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                let brow = other.row_slice(k);
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.at_mut(c, r) = self.at(r, c);
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Tensor {
        Tensor::new(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Elementwise binary combination with a same-shaped tensor.
    pub fn zip<F: Fn(f64, f64) -> f64>(&self, other: &Tensor, f: F) -> Tensor {
        assert!(self.same_shape(other), "shape mismatch in zip");
        Tensor::new(
            self.rows,
            self.cols,
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        )
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at(0, 2), 3.0);
        assert_eq!(t.at(1, 0), 4.0);
        assert_eq!(t.row_slice(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_scalar());
        assert!(Tensor::scalar(2.5).is_scalar());
        assert_eq!(Tensor::scalar(2.5).scalar_value(), 2.5);
    }

    #[test]
    #[should_panic]
    fn mismatched_data_length_panics() {
        Tensor::new(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let back = a.transpose().transpose();
        assert_eq!(a, back);
    }

    #[test]
    fn map_zip_sum() {
        let a = Tensor::row(vec![1.0, -2.0, 3.0]);
        let b = Tensor::row(vec![0.5, 0.5, 0.5]);
        assert_eq!(a.map(|v| v * 2.0).data, vec![2.0, -4.0, 6.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data, vec![1.5, -1.5, 3.5]);
        assert_eq!(a.sum(), 2.0);
    }
}
