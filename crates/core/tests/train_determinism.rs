//! Training determinism across pool widths.
//!
//! `crates/tensor/tests/determinism.rs` pins the GEMM engine's contract —
//! same inputs, same bits, any thread count. This suite extends it one
//! layer up: a network *trained* under rayon pools of width 1, 2 and 3
//! must serialize to byte-identical checkpoints. That holds because a
//! training step splits its batch into two fixed shards (`⌈n/2⌉` and
//! `⌊n/2⌋` rows, whatever the width), runs shard 1 on a replica whose
//! dropout draws a stream of its own, and adds the replica's gradients to
//! the network's in shard order — on one core shard 1 runs after shard 0,
//! on two or more on the fit's helper thread, and nothing else differs.
//! The validation curves must match to the bit as well: with a helper,
//! each validation batch's last `⌊n/2⌋` rows are scored on the replica.
//! That is what lets a tenant's model be reproduced on a machine of
//! another size.

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

/// `epochs` passes over `x` at batch 32 (three steps an epoch at 96
/// samples; a 32- and a ragged 19-row step at 51), each followed by the
/// validation pass over the first 13 rows. Every step splits, and at these
/// sizes every BraggNN step clears the gate, so on two or more cores shard
/// 1 and half of each validation batch run on the helper thread. Returns
/// the checkpoint and the validation curve's bits.
fn train(arch: ArchSpec, x: &Tensor, y: &Tensor, epochs: usize) -> (Vec<u8>, Vec<u32>) {
    let mut net = arch.build(7);
    let mut opt = Adam::new(1e-3);
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let val = (x.slice_rows(0, 13), y.slice_rows(0, 13));
    let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, x, y, &val.0, &val.1);
    let val_curve = report.val_curve().iter().map(|v| v.to_bits()).collect();
    (checkpoint::save(&net), val_curve)
}

fn assert_width_independent(arch: ArchSpec, x: &Tensor, y: &Tensor, epochs: usize) {
    let (reference, reference_val) = on_pool(1, || train(arch, x, y, epochs));
    assert_ne!(
        reference,
        checkpoint::save(&arch.build(7)),
        "training must move the weights"
    );
    assert_eq!(reference_val.len(), epochs);
    for threads in [2usize, 3] {
        let (got, val) = on_pool(threads, || train(arch, x, y, epochs));
        assert!(
            got == reference,
            "{} checkpoint differs at {threads} threads",
            arch.name()
        );
        assert_eq!(
            val,
            reference_val,
            "{} validation curve differs at {threads} threads",
            arch.name()
        );
    }
}

#[test]
fn braggnn_checkpoints_are_byte_identical_across_pool_widths() {
    let mut rng = TensorRng::seeded(11);
    let x = rng.uniform(&[96, 1, 16, 16], 0.0, 1.0);
    let y = rng.uniform(&[96, 2], 0.2, 0.8);
    assert_width_independent(ArchSpec::BraggNN { patch: 16 }, &x, &y, 1);
}

/// One `UpdateModel` fit's shape in `benches/e2e`: 64 frames split into
/// 51 training and 13 validation rows, batch 32, with BraggNN's dropout
/// live — two epochs, so the replica's resync and its second stream of
/// masks are exercised too.
#[test]
fn braggnn_update_fit_with_a_ragged_batch_is_byte_identical_across_pool_widths() {
    let mut rng = TensorRng::seeded(13);
    let x = rng.uniform(&[51, 1, 16, 16], 0.0, 1.0);
    let y = rng.uniform(&[51, 2], 0.2, 0.8);
    assert_width_independent(ArchSpec::BraggNN { patch: 16 }, &x, &y, 2);
}

#[test]
fn cookienetae_checkpoints_are_byte_identical_across_pool_widths() {
    let mut rng = TensorRng::seeded(12);
    let x = rng.uniform(&[96, 1, 16, 16], 0.0, 4.0);
    let y = rng.uniform(&[96, 1, 16, 16], 0.0, 1.0);
    assert_width_independent(ArchSpec::CookieNetAE { size: 16 }, &x, &y, 1);
}
