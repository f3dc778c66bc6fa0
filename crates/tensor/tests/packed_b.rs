//! A product against a [`PackedB`] is the per-call product of the operand
//! it was packed from, to the bit: same block loop, same macro-kernel, same
//! accumulation order, only the pack step skipped. Every comparison here is
//! on `to_bits`, across every tile edge, both packing entry points, both
//! epilogues a packed operand serves, and — above the work gate — workers
//! that share the one packed copy.

use fairdms_tensor::gemm::{self, PackedB, MC};
use fairdms_tensor::ops::{self, PAR_MIN_WORK};
use fairdms_tensor::{rng::TensorRng, Tensor};
use proptest::prelude::*;

/// Rows of A around `MR` = 4 and `MC` = 32, and past `2·MC`, from where
/// a product may split.
fn rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(3usize),
        Just(4usize),
        Just(5usize),
        Just(16usize),
        Just(31usize),
        Just(32usize),
        Just(33usize),
        Just(70usize),
    ]
}

/// Depths around `KC` = 256, up to three depth blocks.
fn depth() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(16usize),
        Just(255usize),
        Just(256usize),
        Just(257usize),
        Just(513usize),
    ]
}

/// Columns around `NR` = 16 (one and two panels, and half of one: 7, 8
/// and 9 were the edges of the earlier 8-wide panel) and `NC` = 256, up to
/// three column blocks.
fn cols() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(33usize),
        Just(64usize),
        Just(255usize),
        Just(256usize),
        Just(257usize),
        Just(520usize),
    ]
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// [`gemm::sq_dist_into`] against the `[n, k]` rows `b`, into a dirty
/// buffer: the output is overwritten, not accumulated into.
fn sq_dists(m: usize, k: usize, a: &Tensor, b: &Tensor, an: &[f32], bn: &[f32]) -> Vec<u32> {
    let n = b.shape()[0];
    let mut out = vec![f32::NAN; m * n];
    gemm::sq_dist_into(m, k, n, a.data(), b.data(), an, bn, &mut out);
    bits(&out)
}

/// [`gemm::sq_dist_packed_into`] into a dirty buffer.
fn sq_dists_packed(m: usize, a: &Tensor, b: &PackedB, an: &[f32], bn: &[f32]) -> Vec<u32> {
    let mut out = vec![f32::NAN; m * b.n()];
    gemm::sq_dist_packed_into(m, a.data(), b, an, bn, &mut out);
    bits(&out)
}

/// Runs `f` on a rayon pool of the given width.
fn on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_products_equal_per_call_products_to_the_bit(
        m in rows(), k in depth(), n in cols(), seed in 0u64..1_000,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let bt = rng.uniform(&[n, k], -2.0, 2.0);
        let bias = rng.uniform(&[n], -1.0, 1.0);
        let a_norms = ops::row_sq_norms(a.data(), k);
        let b_norms = ops::row_sq_norms(bt.data(), k);

        // The tensor and the slice entry points pack the same panels.
        let packed = PackedB::pack_transposed(&bt);
        prop_assert_eq!(&packed, &PackedB::from_rows(k, bt.data()));
        prop_assert_eq!((packed.k(), packed.n()), (k, n));

        prop_assert_eq!(
            bits(gemm::matmul_transb_bias(&a, &bt, &bias).data()),
            bits(gemm::matmul_packed_bias(&a, &packed, &bias).data())
        );
        prop_assert_eq!(
            sq_dists(m, k, &a, &bt, &a_norms, &b_norms),
            sq_dists_packed(m, &a, &packed, &a_norms, &b_norms)
        );
    }

    #[test]
    fn rows_pushed_one_at_a_time_pack_like_all_of_them_at_once(
        k in depth(), n in cols(), seed in 0u64..1_000,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let rows = rng.uniform(&[n, k], -2.0, 2.0);
        // From empty, and on top of a block packed in one go.
        for start in [0, n / 2] {
            let mut grown = PackedB::from_rows(k, &rows.data()[..start * k]);
            for r in start..n {
                grown.push_row(rows.row(r));
            }
            prop_assert_eq!(&grown, &PackedB::pack_transposed(&rows), "from {}", start);
        }
    }
}

#[test]
fn a_zero_deep_or_empty_operand_packs_to_nothing() {
    let a = Tensor::zeros(&[3, 0]);
    let empty = PackedB::pack_transposed(&Tensor::zeros(&[2, 0]));
    let bias = Tensor::from_vec(vec![1.5, -2.5], &[2]);
    let y = gemm::matmul_packed_bias(&a, &empty, &bias);
    assert_eq!(
        y,
        gemm::matmul_transb_bias(&a, &Tensor::zeros(&[2, 0]), &bias)
    );
    let none = PackedB::from_rows(5, &[]);
    assert_eq!((none.k(), none.n()), (5, 0));
    let x = Tensor::zeros(&[4, 5]);
    assert_eq!(
        gemm::matmul_packed_bias(&x, &none, &Tensor::zeros(&[0])).shape(),
        &[4, 0]
    );
}

#[test]
fn workers_above_the_gate_share_one_packed_operand() {
    // Above the gate a three-wide pool splits the rows, and every worker
    // reads the one packed copy instead of packing its own.
    const M: usize = 300;
    const K: usize = 301;
    const N: usize = 190;
    const { assert!(M * K * N >= PAR_MIN_WORK && M >= 2 * MC) };
    let mut rng = TensorRng::seeded(31);
    let a = rng.uniform(&[M, K], -2.0, 2.0);
    let bt = rng.uniform(&[N, K], -2.0, 2.0);
    let bias = rng.uniform(&[N], -1.0, 1.0);
    let (an, bn) = (
        ops::row_sq_norms(a.data(), K),
        ops::row_sq_norms(bt.data(), K),
    );
    let packed = PackedB::pack_transposed(&bt);
    let per_call = on_pool(1, || {
        (
            bits(gemm::matmul_transb_bias(&a, &bt, &bias).data()),
            sq_dists(M, K, &a, &bt, &an, &bn),
        )
    });
    for threads in [1usize, 3] {
        let (biased, dists, regions) = on_pool(threads, || {
            let before = rayon::regions_opened();
            let biased = bits(gemm::matmul_packed_bias(&a, &packed, &bias).data());
            let dists = sq_dists_packed(M, &a, &packed, &an, &bn);
            (biased, dists, rayon::regions_opened() - before)
        });
        assert_eq!(regions, if threads > 1 { 2 } else { 0 }, "@ {threads}");
        assert_eq!(per_call.0, biased, "bias @ {threads}");
        assert_eq!(per_call.1, dists, "sq_dist @ {threads}");
    }
}
