//! Reference kernels and the dispatch rule's constants.
//!
//! GEMM dominates the training cost of every dense layer in this
//! repository and the inference cost of every embedding-cache miss; every
//! dense product runs through the blocked, panel-packed, register-tiled
//! engine in [`crate::gemm`], and convolutions run the engine's shifted
//! register tile ([`crate::gemm::shifted_tile`]) over their operands in
//! place. What lives here is the scalar side: the pre-engine row loop,
//! kept as [`matmul_naive`] — the reference that tests and the kernel CI
//! bench compare against — and the per-pair distance [`sq_dist`] with the
//! row norms [`row_sq_norms`] the engine's fused distance epilogue reads.
//!
//! Every parallel-iterator site in the workspace states its work in
//! multiply–add equivalents and opens a region only from [`PAR_MIN_WORK`]
//! (the dispatch rule, DESIGN.md §9).

use crate::Tensor;

/// The dispatch rule's one constant: the least work, in multiply–add
/// equivalents (`m·k·n` for a GEMM), from which a call site opens a
/// parallel region. A site whose inner step is not a multiply–add scales
/// its count by that step's cost ([`POWF_WORK`], [`HASH_WORK`], …), so
/// every site compares against this and nothing else. One core retires
/// 10–25 multiply–adds per nanosecond, which puts the line at 0.7–1.5 ms of
/// sequential work — ten times a region (`rayon/empty_region` in
/// `results/BENCH_kernels.json`). Work, not output size: a
/// `[144×8192]·[8192×8]` product has 1,152 outputs and 9.4 M
/// multiply–adds, a `[144×8]·[8×256]` one 36,864 outputs and 0.3 M.
pub const PAR_MIN_WORK: usize = 1 << 24;

/// One `powf` in multiply–add equivalents (~10 ns of scalar libm).
pub const POWF_WORK: usize = 128;

/// Hashing one `f32` of a row in multiply–add equivalents
/// ([`crate::hash::hash_row`]: a quarter of one of a chunk's four
/// independent 64×64→128 multiplies). ~0.25 ns from cache, but a batch
/// near the gate is megabytes and streams from memory at 0.5–0.75 ns.
pub const HASH_WORK: usize = 8;

/// One term of a scalar [`sq_dist`] in multiply–add equivalents: its sum
/// is one serially dependent `f32` chain, ~1 ns a term where the blocked
/// kernels retire 10–25.
pub const SQ_DIST_WORK: usize = 16;

/// Squared Euclidean distance between two flat vectors.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared L2 norm of every `d`-wide row of a flattened `[n, d]` matrix —
/// the cached half of the `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b` expansion that
/// [`crate::gemm::sq_dist_into`] fuses into the GEMM epilogue. Each norm is a plain
/// ascending-index sum, so the value is deterministic and independent of
/// which batch the row was normed in.
pub fn row_sq_norms(data: &[f32], d: usize) -> Vec<f32> {
    if d == 0 {
        return Vec::new();
    }
    debug_assert_eq!(data.len() % d, 0, "row_sq_norms: ragged matrix");
    data.chunks_exact(d)
        .map(|row| row.iter().map(|&v| v * v).sum())
        .collect()
}

/// The pre-engine reference GEMM: the sequential `ikj` row loop that used
/// to be the production `matmul`, kept as the baseline the blocked engine
/// is tested and benched against.
///
/// Agreement with the blocked engine is a **relative-tolerance** contract,
/// not bit equality: blocked accumulation reassociates the k-sum (per-tile
/// partial sums flushed per depth block), and floating-point addition is
/// not associative. Determinism — same inputs, same bits, any thread
/// count — is the engine's contract; *agreement* with this loop is only
/// approximate by design (DESIGN.md §9).
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    let a_data = a.data();
    let b_data = b.data();
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        let a_row = &a_data[i * k..(i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b_data[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_transa_acc, matmul_transb_bias};
    use crate::{allclose, allclose_rel, rng::TensorRng};

    #[test]
    fn matmul_matches_naive_reference() {
        // Relative tolerance, not bit equality: the blocked engine
        // reassociates the k-sum relative to the naive loop.
        let mut rng = TensorRng::seeded(7);
        let a = rng.uniform(&[13, 9], -1.0, 1.0);
        let b = rng.uniform(&[9, 11], -1.0, 1.0);
        assert!(allclose_rel(
            &matmul(&a, &b),
            &matmul_naive(&a, &b),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = TensorRng::seeded(11);
        let a = rng.uniform(&[6, 5], -1.0, 1.0);
        let b = rng.uniform(&[7, 5], -1.0, 1.0);
        assert!(allclose_rel(
            &matmul_transb_bias(&a, &b, &Tensor::zeros(&[7])),
            &matmul(&a, &b.transpose()),
            1e-5,
            1e-6
        ));
        let c = rng.uniform(&[5, 6], -1.0, 1.0);
        let d = rng.uniform(&[5, 7], -1.0, 1.0);
        let mut transa = Tensor::zeros(&[6, 7]);
        matmul_transa_acc(&c, &d, transa.data_mut());
        assert!(allclose_rel(
            &transa,
            &matmul(&c.transpose(), &d),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let mut rng = TensorRng::seeded(3);
        let a = rng.uniform(&[8, 8], -2.0, 2.0);
        assert!(allclose(&matmul(&a, &Tensor::eye(8)), &a, 1e-5));
        assert!(allclose(&matmul(&Tensor::eye(8), &a), &a, 1e-5));
    }

    #[test]
    fn row_sq_norms_match_self_distance_to_zero() {
        let mut rng = TensorRng::seeded(19);
        let x = rng.uniform(&[7, 12], -2.0, 2.0);
        let norms = row_sq_norms(x.data(), 12);
        assert_eq!(norms.len(), 7);
        let zero = vec![0.0f32; 12];
        for (i, &n) in norms.iter().enumerate() {
            assert_eq!(n, sq_dist(x.row(i), &zero), "row {i}");
        }
        assert!(row_sq_norms(&[], 4).is_empty());
        assert!(row_sq_norms(&[], 0).is_empty());
    }

    #[test]
    fn sq_dist_is_zero_on_self() {
        let v = [0.5f32, -1.5, 2.5];
        assert_eq!(sq_dist(&v, &v), 0.0);
        assert!((sq_dist(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_inner_dims() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn large_matmul_uses_parallel_path_and_matches() {
        // 256³ = 16 M multiply–adds reaches PAR_MIN_WORK, exercising the
        // rayon branch on a pool two or more wide.
        let mut rng = TensorRng::seeded(42);
        let a = rng.uniform(&[256, 256], -1.0, 1.0);
        let b = rng.uniform(&[256, 256], -1.0, 1.0);
        assert!(allclose_rel(
            &matmul(&a, &b),
            &matmul_naive(&a, &b),
            1e-4,
            1e-5
        ));
    }
}
