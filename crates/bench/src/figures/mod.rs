//! One regenerator per paper figure. See the per-module docs for which
//! panel each function reproduces and where the scale substitutions are.

pub mod extras;
pub mod fig02;
pub mod fig06_08;
pub mod fig09;
pub mod fig10_12;
pub mod fig13_14;
pub mod fig15;
pub mod fig16;
pub mod scalability;

use crate::Scale;
use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_datasets::bragg::{to_training_tensors, BraggPatch, BraggSimulator, DriftModel};
use fairdms_nn::layers::Sequential;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, TrainReport, Trainer};
use fairdms_tensor::Tensor;

/// Patch edge length used throughout the Bragg experiments (paper: 15).
pub const BRAGG_SIDE: usize = 15;

/// Runs a named figure (or `all`).
pub fn run(name: &str, scale: Scale) -> Result<(), String> {
    match name {
        "fig2" => fig02::run(scale),
        "fig6" => fig06_08::run_tomo(scale),
        "fig7" => fig06_08::run_cookiebox(scale),
        "fig8" => fig06_08::run_bragg(scale),
        "fig9" => fig09::run(scale),
        "fig10" => fig10_12::run_braggnn(scale),
        "fig11" => fig10_12::run_cookienetae(scale),
        "fig12" => fig10_12::run_distribution_bars(scale),
        "fig13" => fig13_14::run_cookienetae(scale),
        "fig14" => fig13_14::run_braggnn(scale),
        "fig15" => fig15::run(scale),
        "fig16" => fig16::run(scale),
        "elbow" => extras::run_elbow(scale),
        "ablations" => extras::run_ablations(scale),
        "scalability" => scalability::run(scale),
        "all" => {
            for fig in [
                "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16", "elbow", "ablations", "scalability",
            ] {
                println!("\n######## {fig} ########\n");
                run(fig, scale)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unknown figure '{other}' (expected fig2, fig6..fig16, elbow, ablations, scalability, all)"
        )),
    }
}

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/// Flattens Bragg patches into the `[N, side²]` matrix embedders consume,
/// alongside the `[N, 2]` normalized-center labels.
pub fn bragg_flat(patches: &[BraggPatch]) -> (Tensor, Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    let side = x4.shape()[2];
    (x4.reshape(&[n, side * side]), y)
}

/// A fairDS over a BYOL embedder for Bragg patches — the configuration
/// the paper converged on (§IV) — trained on the given historical patches.
pub fn bragg_fairds(historical: &[BraggPatch], k: usize, seed: u64, embed_epochs: usize) -> FairDS {
    let cfg = FairDsConfig {
        k: Some(k),
        seed,
        ..FairDsConfig::default()
    };
    bragg_fairds_with(historical, cfg, embed_epochs)
}

/// [`bragg_fairds`] with a caller-supplied configuration (used by the
/// Fig 16 harness, which calibrates the certainty monitor's fuzzifier).
pub fn bragg_fairds_with(
    historical: &[BraggPatch],
    cfg: FairDsConfig,
    embed_epochs: usize,
) -> FairDS {
    let seed = cfg.seed;
    let embedder = ByolEmbedder::new(BRAGG_SIDE, 64, 16, seed);
    let mut ds = FairDS::in_memory(Box::new(embedder), cfg);
    let (x, y) = bragg_flat(historical);
    let ecfg = EmbedTrainConfig {
        epochs: embed_epochs,
        batch_size: 64,
        lr: 2e-3,
        seed,
        ..EmbedTrainConfig::default()
    };
    ds.train_system(&x, &ecfg);
    ds.ingest_labeled(&x, &y, 0);
    ds
}

/// The standard historical Bragg corpus: scans 0..`n_scans` under a stable
/// configuration.
pub fn bragg_history(n_scans: usize, per_scan: usize, seed: u64) -> Vec<BraggPatch> {
    let sim = BraggSimulator::new(DriftModel::none(), seed);
    sim.series(n_scans, per_scan)
        .into_iter()
        .flat_map(|(_, p)| p)
        .collect()
}

/// Trains `net` under `Adam(lr)` + MSE for `epochs` at `batch_size`,
/// validating on the first `max(n/5, 1)` rows and training on the rest —
/// the one supervised fit every figure runs.
pub fn fit_holdout(
    net: &mut Sequential,
    x: &Tensor,
    y: &Tensor,
    lr: f32,
    epochs: usize,
    batch_size: usize,
) -> TrainReport {
    let n = x.shape()[0];
    let n_val = (n / 5).max(1);
    let cfg = TrainConfig {
        epochs,
        batch_size,
        ..TrainConfig::default()
    };
    Trainer::new(cfg).fit(
        net,
        &mut Adam::new(lr),
        &Mse,
        &x.slice_rows(n_val, n),
        &y.slice_rows(n_val, n),
        &x.slice_rows(0, n_val),
        &y.slice_rows(0, n_val),
    )
}

/// Converts scale to the embedding-training epoch budget.
pub fn embed_epochs(scale: Scale) -> usize {
    scale.pick(2, 8, 16)
}
