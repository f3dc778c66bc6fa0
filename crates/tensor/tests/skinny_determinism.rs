//! Dispatch determinism on skinny shapes.
//!
//! `determinism.rs` pins the engine's bit-identity contract on roughly
//! square products. The shapes here are the degenerate corners of the
//! dispatch instead — eight rows against eight thousand, depth eight,
//! one column panel — where the row split hands a worker a single
//! register tile, where the depth loop runs 32 blocks inside one
//! parallel region, and where `Auto`'s work gate (not its output size)
//! decides. Every assertion is `assert_eq!` on raw `f32` buffers.

use fairdms_tensor::gemm::{self, Threading};
use fairdms_tensor::rng::TensorRng;

/// `(m, k, n)` of `[m×k]·[k×n]`: the shapes conv2's forward, `∂W` and
/// `∂cols` products had in a row-major lowering, and the one its `∂T`
/// product had beside `col2im`. No layer runs them now; they are the
/// dispatch's degenerate corners.
const SKINNY: [(usize, usize, usize); 4] = [
    (8192, 144, 8),
    (8, 8192, 144),
    (8192, 8, 144),
    (144, 8, 8192),
];

const POLICIES: [Threading; 3] = [Threading::Auto, Threading::Sequential, Threading::Parallel];

/// Runs `f` on a rayon pool of the given width.
fn on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn skinny_products_are_bit_identical_across_dispatch_and_width() {
    for (i, &(m, k, n)) in SKINNY.iter().enumerate() {
        let mut rng = TensorRng::seeded(900 + i as u64);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let (at, bt) = (a.transpose(), b.transpose());
        let reference = gemm::matmul_with(&a, &b, Threading::Sequential);
        for threads in [1usize, 2, 3] {
            for policy in POLICIES {
                let at_width = format!("{m}x{k}x{n} {policy:?} @ {threads}");
                let (plain, transb, transa) = on_pool(threads, || {
                    (
                        gemm::matmul_with(&a, &b, policy),
                        gemm::matmul_transb_with(&a, &bt, policy),
                        gemm::matmul_transa_with(&at, &b, policy),
                    )
                });
                assert_eq!(reference.data(), plain.data(), "matmul {at_width}");
                assert_eq!(reference.data(), transb.data(), "transb {at_width}");
                assert_eq!(reference.data(), transa.data(), "transa {at_width}");
            }
        }
    }
}

#[test]
fn accumulating_entry_points_add_the_same_bits_onto_a_seeded_output() {
    // `matmul_acc` into a seeded C == seed + (product into zeros), as one
    // final add per element for a single depth block — the convolution's
    // bias seeding relies on exactly this.
    let (m, k, n) = (8, 144, 256);
    let mut rng = TensorRng::seeded(950);
    let a = rng.uniform(&[m, k], -2.0, 2.0);
    let b = rng.uniform(&[k, n], -2.0, 2.0);
    let seed = rng.uniform(&[m, n], -1.0, 1.0);
    let product = gemm::matmul_with(&a, &b, Threading::Sequential);
    let expect: Vec<f32> = seed
        .data()
        .iter()
        .zip(product.data())
        .map(|(s, p)| s + p)
        .collect();
    for policy in POLICIES {
        let mut c = seed.data().to_vec();
        gemm::matmul_acc(m, k, n, a.data(), b.data(), &mut c, policy);
        assert_eq!(c, expect, "matmul_acc {policy:?}");
        let mut c = seed.data().to_vec();
        gemm::matmul_transb_acc(m, k, n, a.data(), b.transpose().data(), &mut c, policy);
        assert_eq!(c, expect, "matmul_transb_acc {policy:?}");
    }
}
