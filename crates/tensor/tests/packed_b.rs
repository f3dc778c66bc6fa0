//! A product against a [`PackedB`] is the per-call product of the operand
//! it was packed from, to the bit: same block loop, same macro-kernel, same
//! accumulation order, only the pack step skipped. Every comparison here is
//! on `to_bits`, across every tile edge, both source layouts, all three
//! epilogues and all three dispatch policies.

use fairdms_tensor::gemm::{self, PackedB, Threading};
use fairdms_tensor::{ops, rng::TensorRng, Tensor};
use proptest::prelude::*;

const POLICIES: [Threading; 3] = [Threading::Auto, Threading::Sequential, Threading::Parallel];

/// Rows of A around `MR` = 4 and `MC` = 32, and past `2·MC`, from where
/// `Auto` may split.
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

/// Columns around `NR` = 8 and `NC` = 256, up to three column blocks.
fn cols() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_products_equal_per_call_products_to_the_bit(
        m in rows(), k in depth(), n in cols(), seed in 0u64..1_000,
    ) {
        let mut rng = TensorRng::seeded(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let bt = b.transpose();
        let bias = rng.uniform(&[n], -1.0, 1.0);
        let a_norms = ops::row_sq_norms(a.data(), k);
        let b_norms = ops::row_sq_norms(bt.data(), k);

        // Both layouts pack into the same panels.
        let packed = PackedB::pack(&b);
        prop_assert_eq!(&packed, &PackedB::pack_transposed(&bt));
        prop_assert_eq!(&packed, &PackedB::from_rows(k, bt.data()));
        prop_assert_eq!((packed.k(), packed.n()), (k, n));

        let plain = bits(gemm::matmul(&a, &b).data());
        prop_assert_eq!(&plain, &bits(gemm::matmul_transb(&a, &bt).data()));
        let biased = bits(gemm::matmul_transb_bias(&a, &bt, &bias).data());
        let dists = bits(gemm::sq_dist_matrix(&a, &bt, &a_norms, &b_norms).data());
        for policy in POLICIES {
            prop_assert_eq!(
                &plain,
                &bits(gemm::matmul_packed(&a, &packed, policy).data()),
                "plain {:?}", policy
            );
            prop_assert_eq!(
                &biased,
                &bits(gemm::matmul_packed_bias(&a, &packed, &bias, policy).data()),
                "bias {:?}", policy
            );
            // Dirty scratch: the output is overwritten, not accumulated into.
            let mut out = vec![f32::NAN; m * n];
            gemm::sq_dist_packed_into(m, a.data(), &packed, &a_norms, &b_norms, &mut out, policy);
            prop_assert_eq!(&dists, &bits(&out), "sq_dist {:?}", policy);
        }
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
    let y = gemm::matmul_packed_bias(&a, &empty, &bias, Threading::Auto);
    assert_eq!(
        y,
        gemm::matmul_transb_bias(&a, &Tensor::zeros(&[2, 0]), &bias)
    );
    let none = PackedB::from_rows(5, &[]);
    assert_eq!((none.k(), none.n()), (5, 0));
    let x = Tensor::zeros(&[4, 5]);
    assert_eq!(
        gemm::matmul_packed(&x, &none, Threading::Auto).shape(),
        &[4, 0]
    );
}
