//! Cross-commit fingerprints of fixed-seed training and read results.
//!
//! Each training row trains a smoke-size network from a fixed seed on
//! fixed-seed data and hashes (FNV-1a) the `to_bits` of what it produced:
//! the checkpoint's weights and the validation curve, a network's inference
//! on its validation rows, or an embedder's embeddings (its weights are its
//! own, so a fit is fingerprinted by what it serves). The read rows hash
//! what a fixed-seed fairDS plane answers to a fixed probe batch, and what
//! the zoo's ranking answers over seeded random zoos. The expected hashes were
//! computed by an earlier commit and are checked in, so a kernel or layer
//! change that claims to keep every result bit for bit is held to it here
//! across commits, not only against an oracle of the same build. A row
//! never changes to make a change pass; a change that means to move these
//! bits says so and re-records the table (the failure message prints it).

use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::{ModelManager, ModelZoo, ZooEntry};
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
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

/// FNV-1a over the bits of `values`.
fn bits_hash_f64(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// A k = 4 autoencoder plane over 8×8 frames (`train_system`, then
/// `ingest_labeled`) answering one probe batch: the hashes of its
/// `dataset_pdf`, `certainty`, `embed_cached` and `pseudo_label` (the
/// labels, then the reuse stats). The probe holds copies of ingested
/// frames, the same frames slightly perturbed, and fresh ones, so the
/// embed cache both hits and misses and `pseudo_label` both reuses and
/// computes.
fn plane_hashes() -> [(&'static str, u64); 4] {
    let mut rng = TensorRng::seeded(21);
    let history = rng.uniform(&[48, 64], 0.0, 1.0);
    let ingested = rng.uniform(&[32, 64], 0.0, 1.0);
    let labels = rng.uniform(&[32, 2], 0.2, 0.8);
    let mut probe = ingested.data()[..8 * 64].to_vec();
    let noise = rng.uniform(&[8, 64], -0.01, 0.01);
    let nudged = ingested.data()[8 * 64..16 * 64].iter().zip(noise.data());
    probe.extend(nudged.map(|(x, e)| x + e));
    probe.extend(rng.uniform(&[16, 64], 0.0, 1.0).data());
    let probe = Tensor::from_vec(probe, &[32, 64]);

    let cfg = FairDsConfig {
        k: Some(4),
        seed: 22,
        ..FairDsConfig::default()
    };
    let embedder = AutoencoderEmbedder::new(64, 32, 8, 23);
    let mut ds = FairDS::in_memory(Box::new(embedder), cfg);
    let embed_cfg = EmbedTrainConfig {
        epochs: 3,
        batch_size: 16,
        seed: 24,
        ..EmbedTrainConfig::default()
    };
    assert_eq!(ds.train_system(&history, &embed_cfg), 4);
    ds.ingest_labeled(&ingested, &labels, 0);
    let snap = ds.snapshot().expect("a trained plane publishes");

    let embed_hash = bits_hash(snap.embed_cached(&probe).data());
    let pdf_hash = bits_hash_f64(&snap.dataset_pdf(&probe));
    let certainty_hash = bits_hash_f64(&[snap.certainty(&probe)]);
    let fallback = |row: &[f32]| vec![row.iter().sum::<f32>(), row[0] - row[63]];
    let (pseudo, stats) = snap.pseudo_label(&probe, 0.05, fallback);
    assert!(stats.reused > 0 && stats.computed > 0, "{stats:?}");
    let stats = [stats.reused as f32, stats.computed as f32];
    let pseudo_hash = bits_hash(pseudo.data()) ^ bits_hash(&stats).rotate_left(1);
    [
        ("k4_plane_embed_cached", embed_hash),
        ("k4_plane_dataset_pdf", pdf_hash),
        ("k4_plane_certainty", certainty_hash),
        ("k4_plane_pseudo_label", pseudo_hash),
    ]
}

/// A k = 8 workflow over 16×16 frames with the served embedder's shape
/// (256 → 512 → 8): a 1,024-frame bootstrap and a 1,024-frame ingest of
/// other frames (embeds above the engine's split gate), one
/// `RapidTrainer::update_model` (label, fit a BraggNN from scratch,
/// register, ingest), then a `retrain_system` over the store and a fresh
/// batch. Hashes the update's checkpoint and
/// validation curve — BraggNN's `Dense(64→32)` and `Dense(32→2)` — and the
/// embeddings and clusters the retrain wrote back into the store, K-means'
/// distances to eight centroids.
fn workflow_hashes() -> [(&'static str, u64); 2] {
    let mut rng = TensorRng::seeded(31);
    let history = rng.uniform(&[1_024, 256], 0.0, 1.0);
    let ingested = rng.uniform(&[1_024, 256], 0.0, 1.0);
    let labels = rng.uniform(&[1_024, 2], 0.2, 0.8);
    let scan = rng.uniform(&[64, 256], 0.0, 1.0);
    let fresh = rng.uniform(&[64, 256], 0.0, 1.0);

    let fairds = FairDS::in_memory(
        Box::new(AutoencoderEmbedder::new(256, 512, 8, 32)),
        FairDsConfig {
            k: Some(8),
            seed: 33,
            ..FairDsConfig::default()
        },
    );
    let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: 16 }, 16);
    cfg.train.epochs = 4;
    cfg.train.batch_size = 16;
    cfg.seed = 34;
    let mut trainer = RapidTrainer::new(fairds, ModelManager::default(), cfg);
    let embed_cfg = EmbedTrainConfig {
        epochs: 1,
        batch_size: 64,
        seed: 35,
        ..EmbedTrainConfig::default()
    };
    assert_eq!(trainer.fairds.train_system(&history, &embed_cfg), 8);
    trainer.fairds.ingest_labeled(&ingested, &labels, 0);

    let fallback = |row: &[f32]| vec![row[0], row[255]];
    let (net, report) = trainer.update_model(&scan, fallback, 1);
    let curve = report.train_report.val_curve();
    let curve = curve.iter().flat_map(|v| v.to_bits().to_le_bytes());
    let update_hash = fnv1a(checkpoint::save(&net).into_iter().chain(curve));

    assert_eq!(trainer.fairds.retrain_system(&fresh, &embed_cfg), 8);
    let store = trainer.fairds.store();
    let mut written = Vec::new();
    for id in store.ids() {
        let doc = store.get(id).expect("a listed document");
        let embedding = doc.get_f32s("embedding").expect("an embedding");
        written.extend(embedding.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        let cluster = doc.get_i64("cluster").expect("a cluster");
        written.extend(cluster.to_le_bytes());
    }
    [
        ("rapid_update_checkpoint", update_hash),
        ("retrain_written_back", fnv1a(written)),
    ]
}

/// `rank_top_k` over 300 seeded random zoos, hashing the ids and score
/// bits at k = 1, k = 3 and the full ranking. Each zoo registers some of
/// its PDFs more than once (ties the stable sort orders by id), every
/// fifth one also holds an entry of another length (skipped), and every
/// third query is one of the zoo's own PDFs (a zero divergence).
fn ranking_hash() -> u64 {
    let mut bytes = Vec::new();
    for z in 0..300u64 {
        let mut rng = TensorRng::seeded(1_000 + z);
        let d = 2 + (z % 11) as usize;
        let distinct = 1 + rng.next_index(24);
        let mut zoo = ModelZoo::new();
        let mut pdfs = Vec::with_capacity(distinct);
        for _ in 0..distinct {
            let pdf: Vec<f64> = rng
                .uniform(&[d], 0.01, 1.0)
                .data()
                .iter()
                .map(|&v| f64::from(v))
                .collect();
            for _ in 0..=rng.next_index(3) {
                zoo.add(ZooEntry {
                    name: format!("m{}", zoo.len()),
                    arch: ArchSpec::BraggNN { patch: 15 },
                    checkpoint: Vec::new(),
                    train_pdf: pdf.clone(),
                    scan: zoo.len(),
                });
            }
            pdfs.push(pdf);
        }
        if z % 5 == 0 {
            zoo.add(ZooEntry {
                name: "other-length".to_string(),
                arch: ArchSpec::BraggNN { patch: 15 },
                checkpoint: Vec::new(),
                train_pdf: vec![0.5; d + 1],
                scan: zoo.len(),
            });
        }
        let query = if z % 3 == 0 {
            pdfs[rng.next_index(distinct)].clone()
        } else {
            rng.uniform(&[d], 0.01, 1.0)
                .data()
                .iter()
                .map(|&v| f64::from(v))
                .collect()
        };
        let snap = zoo.snapshot();
        for k in [1, 3, usize::MAX] {
            let ranked = snap.rank_top_k(&query, k).expect("a compatible zoo").ranked;
            for (id, score) in ranked {
                bytes.extend((id as u64).to_le_bytes());
                bytes.extend(score.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a(bytes)
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
    let mut rows = vec![
        ("braggnn16_update_fit", update_hash),
        ("braggnn16_finetune", finetune_hash),
        ("cookienetae16_fit", cookie_hash),
        ("braggnn15_fit", bragg15_hash),
        ("braggnn16_update_infer", update_infer_hash),
        ("autoencoder_fit", autoencoder_hash),
        ("autoencoder_refit_clone", refit_hash),
        ("autoencoder_embed", serve_hash),
        ("byol_fit", byol_hash),
    ];
    rows.extend(plane_hashes());
    rows.push(("zoo_rank_top_k", ranking_hash()));
    rows.extend(workflow_hashes());
    rows
}

/// The hashes recorded at the commit before convolutions read their
/// operands in place (the first four rows), at the commit before layers
/// took their tensors by value (the next five), at `ea0e2a7` (the
/// read plane and ranking rows, added by a change that touched neither
/// path) and at `d51cee9` (the workflow rows, recorded before the GEMM
/// register tile widened from 8 to 16 columns).
const EXPECTED: [(&str, u64); 16] = [
    ("braggnn16_update_fit", 0x59ce_bc47_bde9_c77d),
    ("braggnn16_finetune", 0x1c73_b1ff_b440_08d5),
    ("cookienetae16_fit", 0x3189_c984_2675_1744),
    ("braggnn15_fit", 0xf371_733f_1f65_c639),
    ("braggnn16_update_infer", 0x9b22_76e2_ad06_6d4b),
    ("autoencoder_fit", 0x5b75_436a_aef3_e42e),
    ("autoencoder_refit_clone", 0xc594_c5a9_facd_de12),
    ("autoencoder_embed", 0x1dae_6b88_c12d_6996),
    ("byol_fit", 0xb2db_3d18_60a0_8704),
    ("k4_plane_embed_cached", 0x8c5b_160c_0817_e0b0),
    ("k4_plane_dataset_pdf", 0x2a12_629e_6177_88e9),
    ("k4_plane_certainty", 0xab39_6932_2a2d_b750),
    ("k4_plane_pseudo_label", 0xbb0c_1046_3570_17db),
    ("zoo_rank_top_k", 0x4ac1_a374_de7f_d801),
    ("rapid_update_checkpoint", 0xe19e_7f53_afa6_e7c8),
    ("retrain_written_back", 0x7b1b_6e6f_aea2_a330),
];

/// Panics, printing the actual table, unless `actual` is the recorded one.
fn assert_recorded(actual: &[(&str, u64)], pool: &str) {
    let table: String = actual
        .iter()
        .map(|(row, hash)| format!("    (\"{row}\", 0x{hash:016x}),\n"))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(EXPECTED)
        .filter(|(a, e)| **a != *e)
        .map(|((row, _), _)| *row)
        .collect();
    assert!(
        actual.len() == EXPECTED.len() && moved.is_empty(),
        "fingerprints moved on {pool}: {moved:?}; the actual table is:\n{table}"
    );
}

#[test]
fn training_results_match_their_recorded_fingerprints() {
    assert_recorded(&fingerprints(), "the default pool");
}

/// The table does not depend on the pool width. A product above the
/// engine's split gate (the workflow rows' 1,024-frame embeds) hands each
/// worker whole register tiles of rows, and a fit above the trainer's gate
/// runs its shards on a helper: a one-wide pool runs both on the calling
/// thread, a three-wide one splits 1,024 rows into 344 + 344 + 336.
#[test]
fn the_table_holds_on_pools_of_width_one_and_three() {
    for width in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("a pool");
        assert_recorded(&pool.install(fingerprints), &format!("a {width}-wide pool"));
    }
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
