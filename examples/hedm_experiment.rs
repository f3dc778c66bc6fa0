//! An end-to-end HEDM experiment in the style of the paper's Fig 1 loop:
//! scans stream in, a BraggNN serves inference, MC-dropout uncertainty and
//! prediction error are monitored per scan, and when degradation is
//! detected (sample deformation), fairDMS updates the model — reusing
//! labels from the data store and fine-tuning a Zoo model instead of
//! re-running the conventional pipeline.
//!
//! ```text
//! cargo run --release --example hedm_experiment
//! ```

use fairdms_bench::uncertainty::{self, mean_row_distance};
use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig, TrainStrategy};
use fairdms_datasets::bragg::{to_training_tensors, BraggSimulator, DriftModel};
use fairdms_datasets::voigt::{fit_peak, FitConfig};

const SIDE: usize = 15;
const PER_SCAN: usize = 150;
const N_SCANS: usize = 14;
const DEFORM_START: usize = 7;

fn flat(
    patches: &[fairdms_datasets::BraggPatch],
) -> (fairdms_tensor::Tensor, fairdms_tensor::Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn main() {
    let sim = BraggSimulator::new(
        DriftModel {
            deform_start: DEFORM_START,
            deform_rate: 0.07,
            config_change: usize::MAX,
        },
        42,
    );

    // --- Phase 0: commissioning. Train system plane + initial model. ---
    let commissioning: Vec<_> = (0..3).flat_map(|s| sim.scan(s, PER_SCAN)).collect();
    let (cx, cy) = flat(&commissioning);
    let embedder = ByolEmbedder::new(SIDE, 64, 16, 42);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(15),
            ..FairDsConfig::default()
        },
    );
    fairds.train_system(
        &cx,
        &EmbedTrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    fairds.ingest_labeled(&cx, &cy, 0);

    let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    cfg.train.epochs = 25;
    let mut trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), cfg);

    let pdf0 = trainer
        .fairds
        .snapshot()
        .expect("trained above")
        .dataset_pdf(&cx);
    let (mut model, report, _, _) = trainer.fit_strategy(&cx, &cy, &pdf0, TrainStrategy::Scratch);
    trainer.zoo.add_model(
        "braggnn-commissioning",
        ArchSpec::BraggNN { patch: SIDE },
        &model,
        pdf0,
        0,
    );
    println!(
        "commissioning model trained: val loss {:.5} ({} epochs)\n",
        report.final_val_loss(),
        report.curve.len()
    );
    println!(
        "{:>4}  {:>9}  {:>11}  action",
        "scan", "error_px", "uncertainty"
    );

    // --- Phase 1: the experiment loop. ---
    let px = (SIDE - 1) as f32;
    let error_budget = 0.35f32; // px — the beamline's tolerance
    let mut updates = 0usize;
    for scan in 3..N_SCANS {
        let patches = sim.scan(scan, PER_SCAN);
        let (x, y_true) = flat(&patches);
        let n = x.shape()[0];
        let x4 = x.reshape(&[n, 1, SIDE, SIDE]);

        // Inference + monitoring (error needs ground truth; at a real
        // beamline the proxy is the MC-dropout uncertainty, also shown).
        let pred = model.infer(&x4);
        let err = mean_row_distance(&pred, &y_true, px);
        let unc = uncertainty::predict(&mut model, &x4, 12).mean_uncertainty();

        if err > error_budget {
            let (new_model, rep) = trainer.update_model(
                &x,
                |pixels| {
                    let fit = fit_peak(pixels, SIDE, &FitConfig::QUICK);
                    let (fx, fy) = fit.center();
                    vec![fx / px, fy / px]
                },
                scan,
            );
            model = new_model;
            updates += 1;
            println!(
                "{scan:>4}  {err:>9.3}  {unc:>11.5}  UPDATE: {} | reuse {}/{} | {:.2}s total",
                match rep.foundation {
                    Some(id) => format!("fine-tune #{id}"),
                    None => "scratch".into(),
                },
                rep.label_stats.reused,
                rep.label_stats.reused + rep.label_stats.computed,
                rep.end_to_end_secs(),
            );
        } else {
            println!("{scan:>4}  {err:>9.3}  {unc:>11.5}  serve");
        }
    }
    println!(
        "\nexperiment done: {updates} model updates, zoo size {}, store size {}",
        trainer.zoo.len(),
        trainer.fairds.store().len()
    );
}
