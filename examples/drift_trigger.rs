//! The Fig 16 mechanism as a runnable scenario: fuzzy-clustering certainty
//! monitors the embedding+clustering stack across an experiment series;
//! when certainty drops below 80 %, the system plane retrains itself and
//! certainty recovers.
//!
//! ```text
//! cargo run --release --example drift_trigger
//! ```

use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_datasets::bragg::{to_training_tensors, BraggSimulator, DriftModel};

const SIDE: usize = 15;
const PER_DATASET: usize = 120;

fn flat(
    patches: &[fairdms_datasets::BraggPatch],
) -> (fairdms_tensor::Tensor, fairdms_tensor::Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn main() {
    let deform_start = 8usize;
    let sim = BraggSimulator::new(
        DriftModel {
            deform_start,
            deform_rate: 0.10,
            config_change: usize::MAX,
        },
        5,
    );
    let embed_cfg = EmbedTrainConfig {
        epochs: 8,
        batch_size: 64,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    };

    // System plane trained on the first five datasets (as in §III-I).
    let warmup: Vec<_> = (0..5).flat_map(|d| sim.scan(d, PER_DATASET)).collect();
    let (wx, wy) = flat(&warmup);
    let mut fairds = FairDS::in_memory(
        Box::new(ByolEmbedder::new(SIDE, 64, 16, 5)),
        FairDsConfig {
            k: Some(15),
            certainty_threshold: 0.8,
            ..FairDsConfig::default()
        },
    );
    fairds.train_system(&wx, &embed_cfg);
    fairds.ingest_labeled(&wx, &wy, 0);

    println!("deformation begins at dataset {deform_start}; trigger threshold 80%\n");
    println!("{:>7}  {:>10}  action", "dataset", "certainty");
    for d in 5..16 {
        let (x, y) = flat(&sim.scan(d, PER_DATASET));
        let certainty = fairds.snapshot().expect("trained").certainty(&x);
        if fairds.needs_system_update(&x) {
            fairds.retrain_system(&x, &embed_cfg);
            fairds.ingest_labeled(&x, &y, d);
            let after = fairds.snapshot().expect("retrained").certainty(&x);
            println!(
                "{d:>7}  {:>9.1}%  TRIGGER → retrain embedding+clustering → certainty {:.1}%",
                certainty * 100.0,
                after * 100.0
            );
        } else {
            fairds.ingest_labeled(&x, &y, d);
            println!("{d:>7}  {:>9.1}%  ok", certainty * 100.0);
        }
    }
    println!(
        "\nstore now holds {} samples across the experiment",
        fairds.store().len()
    );
}
