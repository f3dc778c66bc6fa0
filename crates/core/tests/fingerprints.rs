//! Cross-commit fingerprints of fixed-seed training results.
//!
//! Each row trains a smoke-size network from a fixed seed on fixed-seed
//! data and hashes (FNV-1a) the `to_bits` of what it produced: the
//! checkpoint's weights and the validation curve, a network's inference on
//! its validation rows, or an embedder's embeddings (its weights are its
//! own, so a fit is fingerprinted by what it serves). The expected hashes were
//! computed by an earlier commit and are checked in, so a kernel or layer
//! change that claims to keep every result bit for bit is held to it here
//! across commits, not only against an oracle of the same build. A row
//! never changes to make a change pass; a change that means to move these
//! bits says so and re-records the table (the failure message prints it).

use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::models::ArchSpec;
use fairdms_core::{AutoencoderEmbedder, ByolEmbedder, Embedder};
use fairdms_nn::checkpoint;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, TrainControl, Trainer};
use fairdms_nn::Sequential;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// FNV-1a, 64-bit, over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the bits of `values`.
fn bits_hash(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// `n_train` training and `n_val` validation fixed-seed frames:
/// `[x, y, val_x, val_y]`.
fn frames(
    input: &[usize],
    target: &[usize],
    (n_train, n_val): (usize, usize),
    data_seed: u64,
) -> [Tensor; 4] {
    let mut rng = TensorRng::seeded(data_seed);
    let shape = |n: usize, rest: &[usize]| [&[n], rest].concat();
    let x = rng.uniform(&shape(n_train, input), 0.0, 1.0);
    let y = rng.uniform(&shape(n_train, target), 0.2, 0.8);
    let vx = rng.uniform(&shape(n_val, input), 0.0, 1.0);
    let vy = rng.uniform(&shape(n_val, target), 0.2, 0.8);
    [x, y, vx, vy]
}

/// Fits `net` for `epochs` at batch 32 on `n_train` + `n_val` fixed-seed
/// frames and hashes the checkpoint and the validation curve's bits.
fn fit_hash(
    net: &mut Sequential,
    input: &[usize],
    target: &[usize],
    split: (usize, usize),
    epochs: usize,
    data_seed: u64,
) -> u64 {
    let [x, y, vx, vy] = frames(input, target, split, data_seed);
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

/// Fits `embedder` for `epochs` at batch 16 on `images`, then hashes what
/// it embeds `images` to.
fn embed_fit_hash(embedder: &mut dyn Embedder, images: &Tensor, epochs: usize, seed: u64) -> u64 {
    let cfg = EmbedTrainConfig {
        epochs,
        batch_size: 16,
        seed,
        ..EmbedTrainConfig::default()
    };
    assert!(embedder.fit_controlled(images, &cfg, &TrainControl::new()));
    bits_hash(embedder.embed(images).data())
}

/// The table: one `(row, hash)` per fixed-seed result.
fn fingerprints() -> Vec<(&'static str, u64)> {
    let bragg = |patch: usize| ArchSpec::BraggNN { patch };
    let image = |side: usize| [1, side, side];
    // The update fit `benches/e2e` runs (52 training and 12 validation
    // frames, 8 epochs), then a fine-tune of its result on the next scan.
    let mut update = bragg(16).build(3);
    let update_hash = fit_hash(&mut update, &image(16), &[2], (52, 12), 8, 1);
    // The update fit's net scoring its validation rows, as a step's
    // validation does.
    let [.., val_x, _] = frames(&image(16), &[2], (52, 12), 1);
    let update_infer_hash = bits_hash(update.infer(&val_x).data());
    let finetune_hash = fit_hash(&mut update, &image(16), &[2], (52, 12), 4, 2);
    let mut cookie = ArchSpec::CookieNetAE { size: 16 }.build(5);
    let cookie_hash = fit_hash(&mut cookie, &image(16), &image(16), (40, 8), 4, 3);
    let mut bragg15 = bragg(15).build(7);
    let bragg15_hash = fit_hash(&mut bragg15, &image(15), &[2], (40, 8), 4, 4);
    // Embedders over 16×16 images: the autoencoder's fit, a refit of a
    // clone of it on other images (its decoder and its thawed encoder), and
    // its serving pass over a batch wider than the fit's; BYOL's fit and a
    // second fit from it, which reads the EMA target the first one left.
    let mut rng = TensorRng::seeded(6);
    let (images, others) = (
        rng.uniform(&[48, 256], 0.0, 1.0),
        rng.uniform(&[40, 256], 0.0, 1.0),
    );
    let probe = rng.uniform(&[70, 256], 0.0, 1.0);
    let mut autoencoder = AutoencoderEmbedder::new(256, 32, 8, 11);
    let autoencoder_hash = embed_fit_hash(&mut autoencoder, &images, 3, 4);
    let mut refit = autoencoder.clone();
    let refit_hash = embed_fit_hash(&mut refit, &others, 2, 5);
    let serve_hash = bits_hash(autoencoder.embed(&probe).data());
    let mut byol = ByolEmbedder::new(16, 32, 8, 13);
    let byol_hash = embed_fit_hash(&mut byol, &images, 3, 7);
    let byol_hash = byol_hash ^ embed_fit_hash(&mut byol, &images, 1, 8).rotate_left(1);
    vec![
        ("braggnn16_update_fit", update_hash),
        ("braggnn16_finetune", finetune_hash),
        ("cookienetae16_fit", cookie_hash),
        ("braggnn15_fit", bragg15_hash),
        ("braggnn16_update_infer", update_infer_hash),
        ("autoencoder_fit", autoencoder_hash),
        ("autoencoder_refit_clone", refit_hash),
        ("autoencoder_embed", serve_hash),
        ("byol_fit", byol_hash),
    ]
}

/// The hashes recorded at the commit before convolutions read their
/// operands in place (the first four rows) and at the commit before layers
/// took their tensors by value (the rest).
const EXPECTED: [(&str, u64); 9] = [
    ("braggnn16_update_fit", 0x59ce_bc47_bde9_c77d),
    ("braggnn16_finetune", 0x1c73_b1ff_b440_08d5),
    ("cookienetae16_fit", 0x3189_c984_2675_1744),
    ("braggnn15_fit", 0xf371_733f_1f65_c639),
    ("braggnn16_update_infer", 0x9b22_76e2_ad06_6d4b),
    ("autoencoder_fit", 0x5b75_436a_aef3_e42e),
    ("autoencoder_refit_clone", 0xc594_c5a9_facd_de12),
    ("autoencoder_embed", 0x1dae_6b88_c12d_6996),
    ("byol_fit", 0xb2db_3d18_60a0_8704),
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
