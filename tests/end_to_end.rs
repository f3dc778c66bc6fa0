//! End-to-end integration: the full fairDMS pipeline over synthetic HEDM
//! data — system-plane training, ingestion, pseudo-labeling, zoo
//! recommendation, fine-tuning, and the degradation monitor — crossing
//! every workspace crate.

use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig, TrainStrategy};
use fairdms_datasets::bragg::{to_training_tensors, BraggPatch, BraggSimulator, DriftModel};
use fairdms_tensor::Tensor;

const SIDE: usize = 15;

fn flat(patches: &[BraggPatch]) -> (Tensor, Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn quick_embed() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 4,
        batch_size: 64,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    }
}

fn build_trainer(seed: u64) -> (RapidTrainer, BraggSimulator) {
    let sim = BraggSimulator::new(DriftModel::none(), seed);
    let history: Vec<BraggPatch> = (0..2).flat_map(|s| sim.scan(s, 120)).collect();
    let (hx, hy) = flat(&history);
    let mut fairds = FairDS::in_memory(
        Box::new(ByolEmbedder::new(SIDE, 64, 16, seed)),
        FairDsConfig {
            k: Some(10),
            seed,
            ..FairDsConfig::default()
        },
    );
    fairds.train_system(&hx, &quick_embed());
    fairds.ingest_labeled(&hx, &hy, 0);
    let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    cfg.train.epochs = 6;
    cfg.seed = seed;
    (RapidTrainer::new(fairds, ModelManager::new(0.9), cfg), sim)
}

#[test]
fn full_pipeline_update_reuses_labels_and_registers_models() {
    let (mut trainer, sim) = build_trainer(100);
    let (x1, _) = flat(&sim.scan(5, 80));
    let (_, r1) = trainer.update_model(&x1, |_| vec![0.5, 0.5], 5);
    // History is in-distribution: nearly all labels should be reused.
    assert!(
        r1.label_stats.reuse_fraction() > 0.7,
        "reuse fraction {}",
        r1.label_stats.reuse_fraction()
    );
    assert!(r1.foundation.is_none(), "first update has an empty zoo");
    assert_eq!(trainer.zoo.len(), 1);

    let (x2, _) = flat(&sim.scan(6, 80));
    let (_, r2) = trainer.update_model(&x2, |_| vec![0.5, 0.5], 6);
    assert_eq!(r2.foundation, Some(0), "second update fine-tunes");
    assert!(r2.divergence.unwrap() < 0.5, "same distribution ⇒ low JSD");
    assert_eq!(trainer.zoo.len(), 2);
    // The store grew by both updates' ingestions.
    assert_eq!(trainer.fairds.store().len(), 240 + 80 + 80);
}

#[test]
fn fine_tune_starts_better_than_scratch_on_similar_data() {
    let (mut trainer, sim) = build_trainer(200);
    // Train a decent foundation and register it.
    let system = trainer.fairds.snapshot().unwrap();
    let (x0, y0) = flat(&sim.scan(3, 160));
    let pdf0 = system.dataset_pdf(&x0);
    let saved = trainer.config().train.clone();
    trainer.config_mut().train.epochs = 20;
    let (net, _, _, _) = trainer.fit_strategy(&x0, &y0, &pdf0, TrainStrategy::Scratch);
    trainer.config_mut().train = saved;
    trainer.zoo.add_model(
        "foundation",
        ArchSpec::BraggNN { patch: SIDE },
        &net,
        pdf0,
        3,
    );

    let (x1, y1) = flat(&sim.scan(4, 120));
    let pdf1 = system.dataset_pdf(&x1);
    let (_, ft, found, _) = trainer.fit_strategy(&x1, &y1, &pdf1, TrainStrategy::FineTuneBest);
    let (_, sc, _, _) = trainer.fit_strategy(&x1, &y1, &pdf1, TrainStrategy::Scratch);
    assert_eq!(found, Some(0));
    assert!(
        ft.curve[0].val_loss < sc.curve[0].val_loss,
        "fine-tune epoch-0 loss {} should beat scratch {}",
        ft.curve[0].val_loss,
        sc.curve[0].val_loss
    );
}

#[test]
fn drifted_scan_lowers_certainty_monotonically() {
    let (trainer, _) = build_trainer(300);
    let drift_sim = BraggSimulator::new(
        DriftModel {
            deform_start: 0,
            deform_rate: 0.12,
            config_change: usize::MAX,
        },
        300,
    );
    let (x_near, _) = flat(&drift_sim.scan(1, 80));
    let (x_far, _) = flat(&drift_sim.scan(20, 80));
    let system = trainer.fairds.snapshot().unwrap();
    let c_near = system.certainty(&x_near);
    let c_far = system.certainty(&x_far);
    assert!(
        c_far <= c_near + 1e-9,
        "certainty should not increase with drift: near {c_near}, far {c_far}"
    );
}

#[test]
fn pdf_matched_lookup_returns_requested_count() {
    let (trainer, sim) = build_trainer(400);
    let (x, _) = flat(&sim.scan(7, 60));
    let system = trainer.fairds.snapshot().unwrap();
    let pdf = system.dataset_pdf(&x);
    let docs = system.lookup_matching(&pdf, 100);
    assert_eq!(docs.len(), 100);
    // All returned documents carry pixels, embedding, cluster, and label.
    for d in &docs {
        assert!(d.get_f32s("pixels").is_some());
        assert!(d.get_f32s("embedding").is_some());
        assert!(d.get_i64("cluster").is_some());
        assert!(d.get_f32s("label").is_some());
    }
}
