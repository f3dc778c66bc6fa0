//! The core [`Tensor`] type: contiguous, row-major `f32` storage.

use crate::shape::Shape;
use std::fmt;

/// A contiguous, row-major `f32` n-dimensional array.
///
/// All fairDMS models, embeddings and clustering kernels operate on this
/// type. Storage is always owned and contiguous; views are deliberately not
/// supported (see the crate docs for the rationale).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from existing data. Panics when `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A rank-1 tensor holding `0.0, 1.0, …, (n-1).0`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: (0..n).map(|i| i as f32).collect(),
            shape: Shape::new(&[n]),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimension extents.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Row `r` of a rank-2 tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape()[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape()[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// A copy of the tensor with a new shape of identical element count.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.clone().into_shape(dims)
    }

    /// Reinterprets the tensor with a new shape of identical element count,
    /// in its own storage: nothing is copied.
    pub fn into_shape(self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {:?} to {:?} changes element count",
            self.shape,
            shape
        );
        Tensor {
            data: self.data,
            shape,
        }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose() requires a rank-2 tensor");
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    /// Size of one "row" when the tensor is viewed as `[n, rest…]`:
    /// the product of all dimensions after the first.
    pub fn row_size(&self) -> usize {
        assert!(self.rank() >= 1, "row_size requires rank ≥ 1");
        self.shape()[1..].iter().product::<usize>().max(1)
    }

    /// Gathers rows (leading-dimension slices) by index into a new tensor.
    /// Works for any rank ≥ 1; the output keeps the trailing dimensions.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut data = Vec::new();
        self.gather_rows_into(indices, &mut data);
        let mut dims = self.shape().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(data, &dims)
    }

    /// Appends the selected rows onto `out`; the caller shapes it
    /// afterwards.
    fn gather_rows_into(&self, indices: &[usize], out: &mut Vec<f32>) {
        assert!(self.rank() >= 1, "gather_rows_into requires rank ≥ 1");
        let n = self.shape()[0];
        let rs = self.row_size();
        out.reserve(indices.len() * rs);
        for &i in indices {
            assert!(
                i < n,
                "gather_rows_into: index {i} out of bounds for {n} rows"
            );
            out.extend_from_slice(&self.data[i * rs..(i + 1) * rs]);
        }
    }

    /// Scatters the rows of `src` into `self` at the given row indices
    /// (`self[indices[j]] = src[j]`), in place — the write half of a
    /// gather/compute/scatter round trip over a row subset. Row widths
    /// must match; indices out of range panic.
    pub fn scatter_rows_from(&mut self, indices: &[usize], src: &Tensor) {
        assert!(self.rank() >= 1, "scatter_rows_from requires rank ≥ 1");
        let rs = self.row_size();
        assert_eq!(
            src.row_size(),
            rs,
            "scatter_rows_from: row width mismatch ({} vs {rs})",
            src.row_size()
        );
        assert_eq!(
            src.shape()[0],
            indices.len(),
            "scatter_rows_from: {} source rows for {} indices",
            src.shape()[0],
            indices.len()
        );
        let n = self.shape()[0];
        for (j, &i) in indices.iter().enumerate() {
            assert!(
                i < n,
                "scatter_rows_from: index {i} out of bounds for {n} rows"
            );
            self.data[i * rs..(i + 1) * rs].copy_from_slice(&src.data[j * rs..(j + 1) * rs]);
        }
    }

    /// Contiguous row range `[start, end)` as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "slice_rows requires rank ≥ 1");
        let n = self.shape()[0];
        assert!(
            start <= end && end <= n,
            "slice_rows: bad range {start}..{end} of {n}"
        );
        let rs = self.row_size();
        let mut dims = self.shape().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * rs..end * rs].to_vec(), &dims)
    }

    /// Concatenates rank-2 tensors along rows (dim 0). All inputs must share
    /// the same column count.
    pub fn vstack(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack of zero tensors");
        let cols = parts[0].shape()[1];
        let mut rows = 0usize;
        for p in parts {
            assert_eq!(p.rank(), 2, "vstack requires rank-2 tensors");
            assert_eq!(p.shape()[1], cols, "vstack column mismatch");
            rows += p.shape()[0];
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// In-place elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise scaling by a constant.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Adds a rank-1 bias of length `cols` to every row of a rank-2 tensor.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires rank-2");
        let cols = self.shape()[1];
        assert_eq!(bias.numel(), cols, "bias length must equal column count");
        for row in self.data.chunks_mut(cols) {
            for (x, b) in row.iter_mut().zip(bias.data()) {
                *x += b;
            }
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (NaN-ignoring; `-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, |m, x| if x > m { x } else { m })
    }

    /// Minimum element (NaN-ignoring; `+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .fold(f32::INFINITY, |m, x| if x < m { x } else { m })
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &x) in self.data.iter().enumerate() {
            if x > best_v {
                best_v = x;
                best = i;
            }
        }
        best
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Column sums of a rank-2 tensor, returned as a rank-1 tensor.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires rank-2");
        let cols = self.shape()[1];
        let mut out = vec![0.0f32; cols];
        for row in self.data.chunks(cols) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

/// A copy of a borrowed tensor: what a by-value entry point (such as a
/// network's inference pass) takes from a caller that keeps its input.
impl From<&Tensor> for Tensor {
    fn from(t: &Tensor) -> Tensor {
        t.clone()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, …; {} elems])",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros(&[2, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
        assert_eq!(Tensor::arange(3).data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = t.transpose().transpose();
        assert_eq!(t, tt);
        assert_eq!(t.transpose().shape(), &[3, 2]);
        assert_eq!(t.transpose().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn elementwise_ops_match_reference() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn reductions_are_correct() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.variance() - 3.25).abs() < 1e-6);
        assert_eq!(t.sum_rows().data(), &[4.0, -2.0]);
    }

    #[test]
    fn row_broadcast_adds_bias_to_each_row() {
        let mut t = Tensor::zeros(&[2, 3]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        t.add_row_broadcast(&bias);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let s = Tensor::vstack(&[&a, &b]);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_size() {
        Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    fn gather_rows_selects_leading_slices() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2, 2]);
        assert_eq!(&g.data()[0..4], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(&g.data()[4..8], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&g.data()[8..12], &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn slice_rows_matches_gather() {
        let t = Tensor::from_vec((0..20).map(|x| x as f32).collect(), &[5, 4]);
        let s = t.slice_rows(1, 4);
        let g = t.gather_rows(&[1, 2, 3]);
        assert_eq!(s, g);
        assert_eq!(t.slice_rows(2, 2).shape(), &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_rejects_bad_index() {
        Tensor::zeros(&[2, 2]).gather_rows(&[2]);
    }

    #[test]
    fn gather_rows_into_appends_and_matches_gather_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let mut buf = vec![99.0f32]; // pre-existing content is preserved
        t.gather_rows_into(&[3, 1], &mut buf);
        assert_eq!(buf[0], 99.0);
        assert_eq!(&buf[1..], t.gather_rows(&[3, 1]).data());
        // Reuse without realloc churn: clear + regather into the same buffer.
        buf.clear();
        t.gather_rows_into(&[0], &mut buf);
        assert_eq!(buf, t.row(0));
    }

    #[test]
    fn scatter_rows_from_inverts_gather() {
        let src = Tensor::from_vec((0..20).map(|x| x as f32).collect(), &[5, 4]);
        let idx = [4usize, 0, 2];
        let gathered = src.gather_rows(&idx);
        let mut out = Tensor::zeros(&[5, 4]);
        out.scatter_rows_from(&idx, &gathered);
        for &i in &idx {
            assert_eq!(out.row(i), src.row(i));
        }
        assert!(out.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn scatter_rows_rejects_width_mismatch() {
        Tensor::zeros(&[2, 3]).scatter_rows_from(&[0], &Tensor::zeros(&[1, 2]));
    }
}
