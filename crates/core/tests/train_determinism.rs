//! Training determinism across pool widths.
//!
//! `crates/tensor/tests/determinism.rs` pins the GEMM engine's contract —
//! same inputs, same bits, any thread count. This suite extends it one
//! layer up: a network *trained* under rayon pools of width 1, 2 and 3
//! must serialize to byte-identical checkpoints. That holds because the
//! convolution fans out over fixed-size sample blocks and sums the
//! blocks' `∂W`/`∂b` partials in block order, so neither the split nor
//! the reduction depends on how many workers there are — and it is what
//! lets a tenant's model be reproduced on a machine of another size.

use fairdms_core::models::ArchSpec;
use fairdms_nn::checkpoint;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, Trainer};
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Runs `f` on a rayon pool of the given width.
fn on_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Three optimizer steps (96 samples, batch 32) plus the per-epoch
/// validation pass. At this size BraggNN's second convolution fans out in
/// its backward pass and everything else stays on the calling thread —
/// the mix a deployed update runs; `Conv2d`'s own
/// `fan_out_is_bit_identical_across_pool_widths` covers a layer with
/// every pass split.
fn train_three_steps(arch: ArchSpec, x: &Tensor, y: &Tensor) -> Vec<u8> {
    let mut net = arch.build(7);
    let mut opt = Adam::new(1e-3);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let val = (x.slice_rows(0, 13), y.slice_rows(0, 13));
    Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, x, y, &val.0, &val.1);
    checkpoint::save(&net)
}

fn assert_width_independent(arch: ArchSpec, x: &Tensor, y: &Tensor) {
    let reference = on_pool(1, || train_three_steps(arch, x, y));
    assert_ne!(
        reference,
        checkpoint::save(&arch.build(7)),
        "training must move the weights"
    );
    for threads in [2usize, 3] {
        let got = on_pool(threads, || train_three_steps(arch, x, y));
        assert!(
            got == reference,
            "{} checkpoint differs at {threads} threads",
            arch.name()
        );
    }
}

#[test]
fn braggnn_checkpoints_are_byte_identical_across_pool_widths() {
    let mut rng = TensorRng::seeded(11);
    let x = rng.uniform(&[96, 1, 16, 16], 0.0, 1.0);
    let y = rng.uniform(&[96, 2], 0.2, 0.8);
    assert_width_independent(ArchSpec::BraggNN { patch: 16 }, &x, &y);
}

#[test]
fn cookienetae_checkpoints_are_byte_identical_across_pool_widths() {
    let mut rng = TensorRng::seeded(12);
    let x = rng.uniform(&[96, 1, 16, 16], 0.0, 4.0);
    let y = rng.uniform(&[96, 1, 16, 16], 0.0, 1.0);
    assert_width_independent(ArchSpec::CookieNetAE { size: 16 }, &x, &y);
}
