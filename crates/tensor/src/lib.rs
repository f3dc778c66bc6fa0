//! # fairdms-tensor
//!
//! A small, self-contained tensor library underpinning the fairDMS
//! reproduction. It provides row-major, contiguous `f32` n-dimensional
//! arrays together with the handful of kernels that dominate the cost of
//! training the paper's models (BraggNN, CookieNetAE, the embedding
//! networks):
//!
//! * elementwise arithmetic (scalar and tensor-tensor, in-place variants),
//! * reductions (sum / mean / max / argmax / variance, per-axis rows),
//! * a blocked, panel-packed, register-tiled GEMM engine ([`gemm`]): the
//!   dense products the layers, K-means and the read index run, with fused
//!   bias and distance epilogues, and the convolution's register tile,
//! * seeded random initialization (uniform, Xavier/He normal).
//!
//! Parallelism follows the HPC guides bundled with this repository: hot
//! kernels use [rayon] parallel iterators over independent output row
//! panels, which guarantees data-race freedom while scaling across cores —
//! and the engine fixes each row's accumulation order so results are
//! bit-identical at any thread count (see [`gemm`]).
//!
//! The library intentionally supports only contiguous row-major storage:
//! every consumer in this workspace works on freshly materialized tensors,
//! and contiguity keeps the kernels simple, cache-friendly and easy to verify
//! against naive references in property tests.
//!
//! ## Example
//!
//! ```
//! use fairdms_tensor::{gemm, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = gemm::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod shape;
mod tensor;

pub mod gemm;
pub mod hash;
pub mod ops;
pub mod rng;

pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by the crate's approximate comparisons.
pub const DEFAULT_TOL: f32 = 1e-5;

/// Returns `true` when `a` and `b` differ by at most `tol` in every element.
///
/// Panics if the shapes differ: comparing tensors of different shapes is a
/// logic error, not a numeric mismatch.
pub fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    assert_eq!(a.shape(), b.shape(), "allclose: shape mismatch");
    a.data()
        .iter()
        .zip(b.data())
        .all(|(x, y)| (x - y).abs() <= tol)
}

/// Returns `true` when every element pair satisfies
/// `|x − y| ≤ atol + rtol·max(|x|, |y|)`.
///
/// This is the right comparison for two *valid but differently ordered*
/// floating-point computations of the same quantity — e.g. the blocked
/// GEMM engine against the naive reference loop, whose k-sums are
/// reassociated relative to each other. An absolute tolerance silently
/// tightens as magnitudes grow (a 1e-4 bound is ~1 ulp at 1000.0 but ~10³
/// ulps at 0.1); the relative form scales with the values compared.
///
/// Panics if the shapes differ, like [`allclose`].
pub fn allclose_rel(a: &Tensor, b: &Tensor, rtol: f32, atol: f32) -> bool {
    assert_eq!(a.shape(), b.shape(), "allclose_rel: shape mismatch");
    a.data()
        .iter()
        .zip(b.data())
        .all(|(&x, &y)| (x - y).abs() <= atol + rtol * x.abs().max(y.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_detects_equal_and_unequal() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0 + 1e-7], &[2]);
        let c = Tensor::from_vec(vec![1.0, 3.0], &[2]);
        assert!(allclose(&a, &b, 1e-5));
        assert!(!allclose(&a, &c, 1e-5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn allclose_panics_on_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = allclose(&a, &b, 1e-5);
    }

    #[test]
    fn allclose_rel_scales_with_magnitude() {
        // 1e-3 apart at magnitude 1e4 is within rtol 1e-5 but far outside
        // atol 1e-5 — the absolute compare would reject it.
        let a = Tensor::from_vec(vec![10_000.0], &[1]);
        let b = Tensor::from_vec(vec![10_000.001], &[1]);
        assert!(allclose_rel(&a, &b, 1e-5, 1e-6));
        assert!(!allclose(&a, &b, 1e-5));
        // Near zero the atol term governs.
        let c = Tensor::from_vec(vec![0.0], &[1]);
        let d = Tensor::from_vec(vec![5e-7], &[1]);
        assert!(allclose_rel(&c, &d, 1e-5, 1e-6));
        assert!(!allclose_rel(
            &c,
            &Tensor::from_vec(vec![1e-3], &[1]),
            1e-5,
            1e-6
        ));
    }
}
