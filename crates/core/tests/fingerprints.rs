//! Cross-commit fingerprints of fixed-seed training results.
//!
//! Each row trains a smoke-size network from a fixed seed on fixed-seed
//! data and hashes (FNV-1a) the `to_bits` of what it produced: the
//! checkpoint's weights and the validation curve. The expected hashes were
//! computed by an earlier commit and are checked in, so a kernel or layer
//! change that claims to keep every result bit for bit is held to it here
//! across commits, not only against an oracle of the same build. A row
//! never changes to make a change pass; a change that means to move these
//! bits says so and re-records the table (the failure message prints it).

use fairdms_core::models::ArchSpec;
use fairdms_nn::checkpoint;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, Trainer};
use fairdms_nn::Sequential;
use fairdms_tensor::rng::TensorRng;

/// FNV-1a, 64-bit, over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fits `net` for `epochs` at batch 32 on `n_train` + `n_val` fixed-seed
/// frames and hashes the checkpoint and the validation curve's bits.
fn fit_hash(
    net: &mut Sequential,
    input: &[usize],
    target: &[usize],
    (n_train, n_val): (usize, usize),
    epochs: usize,
    data_seed: u64,
) -> u64 {
    let mut rng = TensorRng::seeded(data_seed);
    let shape = |n: usize, rest: &[usize]| [&[n], rest].concat();
    let x = rng.uniform(&shape(n_train, input), 0.0, 1.0);
    let y = rng.uniform(&shape(n_train, target), 0.2, 0.8);
    let vx = rng.uniform(&shape(n_val, input), 0.0, 1.0);
    let vy = rng.uniform(&shape(n_val, target), 0.2, 0.8);
    let trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: 32,
        ..TrainConfig::default()
    });
    let report = trainer.fit(net, &mut Adam::new(5e-4), &Mse, &x, &y, &vx, &vy);
    let curve = report.val_curve();
    let curve = curve.iter().flat_map(|v| v.to_bits().to_le_bytes());
    fnv1a(checkpoint::save(net).into_iter().chain(curve))
}

/// The table: one `(row, hash)` per fixed-seed result.
fn fingerprints() -> Vec<(&'static str, u64)> {
    let bragg = |patch: usize| ArchSpec::BraggNN { patch };
    let image = |side: usize| [1, side, side];
    // The update fit `benches/e2e` runs (52 training and 12 validation
    // frames, 8 epochs), then a fine-tune of its result on the next scan.
    let mut update = bragg(16).build(3);
    let update_hash = fit_hash(&mut update, &image(16), &[2], (52, 12), 8, 1);
    let finetune_hash = fit_hash(&mut update, &image(16), &[2], (52, 12), 4, 2);
    let mut cookie = ArchSpec::CookieNetAE { size: 16 }.build(5);
    let cookie_hash = fit_hash(&mut cookie, &image(16), &image(16), (40, 8), 4, 3);
    let mut bragg15 = bragg(15).build(7);
    let bragg15_hash = fit_hash(&mut bragg15, &image(15), &[2], (40, 8), 4, 4);
    vec![
        ("braggnn16_update_fit", update_hash),
        ("braggnn16_finetune", finetune_hash),
        ("cookienetae16_fit", cookie_hash),
        ("braggnn15_fit", bragg15_hash),
    ]
}

/// The hashes recorded at the commit before convolutions read their
/// operands in place.
const EXPECTED: [(&str, u64); 4] = [
    ("braggnn16_update_fit", 0x59ce_bc47_bde9_c77d),
    ("braggnn16_finetune", 0x1c73_b1ff_b440_08d5),
    ("cookienetae16_fit", 0x3189_c984_2675_1744),
    ("braggnn15_fit", 0xf371_733f_1f65_c639),
];

#[test]
fn training_results_match_their_recorded_fingerprints() {
    let actual = fingerprints();
    let table: String = actual
        .iter()
        .map(|(row, hash)| format!("    (\"{row}\", 0x{hash:016x}),\n"))
        .collect();
    let expected: Vec<(&str, u64)> = EXPECTED.to_vec();
    assert!(
        actual == expected,
        "fingerprints moved; the actual table is:\n{table}"
    );
}

/// A fingerprint is a function of the run, not of the process: the same
/// row twice gives the same hash.
#[test]
fn a_fingerprint_is_reproducible_within_a_build() {
    let run = || {
        let mut net = ArchSpec::BraggNN { patch: 16 }.build(3);
        fit_hash(&mut net, &[1, 16, 16], &[2], (20, 4), 2, 9)
    };
    assert_eq!(run(), run());
}
