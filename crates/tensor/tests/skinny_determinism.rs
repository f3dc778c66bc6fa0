//! Dispatch determinism on skinny shapes.
//!
//! `determinism.rs` pins the engine's bit-identity contract on roughly
//! square products. The shapes here are the degenerate corners of the
//! dispatch instead, each just above the work gate so a pool two or more
//! wide splits it: sixty-four rows eight thousand deep (at width 16 each
//! worker gets a single register tile and runs 32 depth blocks inside the
//! one parallel region), depth eight, and one column panel. Every
//! assertion is `assert_eq!` on raw `f32` buffers.

use fairdms_tensor::gemm::{self, MC, MR, NR};
use fairdms_tensor::ops::PAR_MIN_WORK;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Whether an `[m×k]·[k×n]` product splits on a pool two or more wide.
const fn splits((m, k, n): (usize, usize, usize)) -> bool {
    m * k * n >= PAR_MIN_WORK && m >= 2 * MC
}

/// One register tile per worker at width 16, 32 depth blocks.
const TILE_PER_WORKER: (usize, usize, usize) = (64, 8192, 40);
/// Depth eight.
const SHALLOW: (usize, usize, usize) = (264, 8, 8000);
/// One column panel.
const ONE_PANEL: (usize, usize, usize) = (8200, 260, 8);

const CORNERS: [(usize, usize, usize); 3] = [TILE_PER_WORKER, SHALLOW, ONE_PANEL];

const _: () = assert!(splits(TILE_PER_WORKER) && TILE_PER_WORKER.0.div_ceil(16) == MR);
const _: () = assert!(splits(SHALLOW) && SHALLOW.1 == 8);
const _: () = assert!(splits(ONE_PANEL) && ONE_PANEL.2 <= NR);

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
    for (i, &(m, k, n)) in CORNERS.iter().enumerate() {
        let mut rng = TensorRng::seeded(900 + i as u64);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let (at, bt) = (a.transpose(), b.transpose());
        let zero_bias = Tensor::zeros(&[n]);
        let reference = on_pool(1, || gemm::matmul(&a, &b));
        for threads in [1usize, 2, 3, 16] {
            let at_width = format!("{m}x{k}x{n} @ {threads}");
            let (plain, transb, transa) = on_pool(threads, || {
                let mut transa = vec![0.0f32; m * n];
                gemm::matmul_transa_acc(&at, &b, &mut transa);
                (
                    gemm::matmul(&a, &b),
                    gemm::matmul_transb_bias(&a, &bt, &zero_bias),
                    transa,
                )
            });
            assert_eq!(reference.data(), plain.data(), "matmul {at_width}");
            assert_eq!(reference.data(), transb.data(), "transb {at_width}");
            assert_eq!(reference.data(), &transa[..], "transa {at_width}");
        }
    }
}

#[test]
fn accumulating_entry_points_add_the_same_bits_onto_a_seeded_output() {
    // `matmul_acc` into a seeded C == seed + (product into zeros), as one
    // final add per element for a single depth block; `matmul_transa_acc`
    // on the transposed A adds the same bits.
    let (m, k, n) = (8, 144, 256);
    let mut rng = TensorRng::seeded(950);
    let a = rng.uniform(&[m, k], -2.0, 2.0);
    let b = rng.uniform(&[k, n], -2.0, 2.0);
    let seed = rng.uniform(&[m, n], -1.0, 1.0);
    let product = gemm::matmul(&a, &b);
    let expect: Vec<f32> = seed
        .data()
        .iter()
        .zip(product.data())
        .map(|(s, p)| s + p)
        .collect();
    let mut c = seed.data().to_vec();
    gemm::matmul_acc(m, k, n, a.data(), b.data(), &mut c);
    assert_eq!(c, expect, "matmul_acc");
    let mut c = seed.data().to_vec();
    gemm::matmul_transa_acc(&a.transpose(), &b, &mut c);
    assert_eq!(c, expect, "matmul_transa_acc");
}
