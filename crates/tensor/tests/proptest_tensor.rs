//! Property-based tests for the tensor kernels: the blocked GEMM engine
//! must agree with the naive reference **to relative tolerance** (blocked
//! accumulation reassociates the k-sum, so bit equality with the `ikj` loop
//! is not the contract — determinism is, see `tests/determinism.rs`), and
//! shape manipulations must be lossless.

use fairdms_tensor::{allclose, allclose_rel, gemm, ops, rng::TensorRng, Tensor};
use proptest::prelude::*;

/// `A × Bᵀ` (`B` stored `[n, k]`) through the fused-bias product, bias zero.
fn transb(a: &Tensor, b: &Tensor) -> Tensor {
    gemm::matmul_transb_bias(a, b, &Tensor::zeros(&[b.shape()[0]]))
}

/// `Aᵀ × B` (`A` stored `[k, m]`) accumulated into zeros.
fn transa(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(&[a.shape()[1], b.shape()[1]]);
    gemm::matmul_transa_acc(a, b, c.data_mut());
    c
}

/// Relative/absolute tolerances for blocked-vs-naive agreement. Small dims
/// accumulate few terms; the bound is generous against [-2,2] inputs.
const RTOL: f32 = 1e-4;
const ATOL: f32 = 1e-5;

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 1usize..24, 1usize..24)
}

/// Shapes engineered to straddle the engine's tile boundaries: degenerate
/// `1` edges, the register-tile sizes MR=4/NR=16 and their off-by-ones
/// (8 and its neighbours: half a panel, and the earlier 8-wide tile's
/// edges), the MC=32 row-panel edge, two panels and one over, and depths
/// crossing the KC=256 block boundary (paired with tiny m·n so the cases
/// stay fast).
fn awkward_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        Just(3usize),
        Just(4usize),
        Just(5usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(31usize),
        Just(32usize),
        Just(33usize),
    ]
}

fn awkward_depth() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(255usize),
        Just(256usize),
        Just(257usize),
        Just(300usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_agrees_with_naive((m, k, n) in small_dims(), seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let fast = gemm::matmul(&a, &b);
        let slow = ops::matmul_naive(&a, &b);
        prop_assert!(allclose_rel(&fast, &slow, RTOL, ATOL));
    }

    #[test]
    fn transb_equals_explicit_transpose((m, k, n) in small_dims(), seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[n, k], -2.0, 2.0);
        prop_assert!(allclose_rel(
            &transb(&a, &b),
            &gemm::matmul(&a, &b.transpose()),
            RTOL,
            ATOL
        ));
    }

    #[test]
    fn transa_equals_explicit_transpose((m, k, n) in small_dims(), seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[k, m], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        prop_assert!(allclose_rel(
            &transa(&a, &b),
            &gemm::matmul(&a.transpose(), &b),
            RTOL,
            ATOL
        ));
    }

    #[test]
    fn awkward_shapes_agree_across_all_entry_points(
        m in awkward_dim(),
        k in awkward_depth(),
        n in awkward_dim(),
        seed in 0u64..1_000,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let reference = ops::matmul_naive(&a, &b);

        // matmul
        prop_assert!(allclose_rel(&gemm::matmul(&a, &b), &reference, RTOL, ATOL));
        // The fused-bias product on Bᵀ reaches the same product through
        // the transposed packing path.
        let bt = b.transpose();
        prop_assert!(allclose_rel(&transb(&a, &bt), &reference, RTOL, ATOL));
        // matmul_transa_acc on Aᵀ reaches it through the pre-transpose path.
        let at = a.transpose();
        prop_assert!(allclose_rel(&transa(&at, &b), &reference, RTOL, ATOL));
    }

    #[test]
    fn reshape_preserves_data(rows in 1usize..16, cols in 1usize..16, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let t = rng.uniform(&[rows, cols], -1.0, 1.0);
        let r = t.reshape(&[cols, rows]).reshape(&[rows * cols]).reshape(&[rows, cols]);
        prop_assert_eq!(t, r);
    }

    #[test]
    fn transpose_roundtrip(rows in 1usize..16, cols in 1usize..16, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let t = rng.uniform(&[rows, cols], -1.0, 1.0);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn add_commutes_and_sub_inverts(n in 1usize..64, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[n], -5.0, 5.0);
        let b = rng.uniform(&[n], -5.0, 5.0);
        prop_assert!(allclose(&a.add(&b), &b.add(&a), 1e-6));
        prop_assert!(allclose(&a.add(&b).sub(&b), &a, 1e-4));
    }

    #[test]
    fn scale_distributes_over_sum(n in 1usize..64, alpha in -3.0f32..3.0, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[n], -5.0, 5.0);
        let lhs = a.scale(alpha).sum();
        let rhs = alpha * a.sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn sq_dist_is_symmetric_and_nonnegative(n in 1usize..64, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[n], -5.0, 5.0);
        let b = rng.uniform(&[n], -5.0, 5.0);
        let d1 = ops::sq_dist(a.data(), b.data());
        let d2 = ops::sq_dist(b.data(), a.data());
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-4 * (1.0 + d1));
    }

    #[test]
    fn vstack_preserves_rows(r1 in 1usize..8, r2 in 1usize..8, cols in 1usize..8, seed in 0u64..1_000) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[r1, cols], -1.0, 1.0);
        let b = rng.uniform(&[r2, cols], -1.0, 1.0);
        let s = Tensor::vstack(&[&a, &b]);
        prop_assert_eq!(s.shape(), &[r1 + r2, cols]);
        for i in 0..r1 {
            prop_assert_eq!(s.row(i), a.row(i));
        }
        for i in 0..r2 {
            prop_assert_eq!(s.row(r1 + i), b.row(i));
        }
    }
}
