//! A tour of the fairMS model Zoo: register models trained under an
//! evolving experiment, inspect the JSD ranking for a new dataset, and see
//! the distance-threshold policy flip between fine-tune and scratch.
//!
//! ```text
//! cargo run --release --example model_zoo_tour
//! ```

use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::{ModelDecision, ModelManager, ModelZoo};
use fairdms_core::models::ArchSpec;
use fairdms_datasets::bragg::{to_training_tensors, BraggSimulator, DriftModel};

const SIDE: usize = 15;

fn main() {
    let arch = ArchSpec::BraggNN { patch: SIDE };

    // fairDS over a drifting experiment with a configuration change.
    let sim = BraggSimulator::new(DriftModel::paper_like(usize::MAX - 1, 4), 11);
    let history = sim.scan(0, 300);
    let (h4, hy) = to_training_tensors(&history);
    let n = h4.shape()[0];
    let hx = h4.reshape(&[n, SIDE * SIDE]);
    let mut fairds = FairDS::in_memory(
        Box::new(ByolEmbedder::new(SIDE, 64, 16, 11)),
        FairDsConfig {
            k: Some(15),
            ..FairDsConfig::default()
        },
    );
    fairds.train_system(
        &hx,
        &EmbedTrainConfig {
            epochs: 8,
            batch_size: 64,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    fairds.ingest_labeled(&hx, &hy, 0);
    let system = fairds.snapshot().expect("trained above");

    // Register one (untrained, for speed) model per scan with its true
    // data PDF — the index is what this example demonstrates.
    let mut zoo = ModelZoo::new();
    for scan in 0..8usize {
        let patches = sim.scan(scan, 200);
        let (x4, _) = to_training_tensors(&patches);
        let m = x4.shape()[0];
        let pdf = system.dataset_pdf(&x4.reshape(&[m, SIDE * SIDE]));
        let net = arch.build(scan as u64);
        zoo.add_model(&format!("braggnn-scan{scan}"), arch, &net, pdf, scan);
    }
    println!(
        "zoo holds {} models (scans 0..8; config change at scan 4)\n",
        zoo.len()
    );

    // Rank the zoo for a new dataset from the second phase.
    let query = sim.scan(6, 200);
    let (q4, _) = to_training_tensors(&query);
    let m = q4.shape()[0];
    let q_pdf = system.dataset_pdf(&q4.reshape(&[m, SIDE * SIDE]));
    let zoo = zoo.snapshot();
    let manager = ModelManager::new(0.5);
    let rec = zoo.rank(&q_pdf).expect("zoo is non-empty");
    println!("JSD ranking for a scan-6 dataset (phase 2):");
    for (id, d) in &rec.ranked {
        let e = zoo.get(*id).unwrap();
        println!("  {:<18} scan {}  jsd {:.4}", e.name, e.scan, d);
    }
    println!(
        "\nbest = {}, median = {}, worst = {}",
        zoo.get(rec.best().unwrap().0).unwrap().name,
        zoo.get(rec.median().unwrap().0).unwrap().name,
        zoo.get(rec.worst().unwrap().0).unwrap().name
    );

    match manager.decide(&zoo, &q_pdf) {
        ModelDecision::FineTune { zoo_id, divergence } => println!(
            "decision: fine-tune '{}' (jsd {divergence:.4} ≤ threshold {})\n",
            zoo.get(zoo_id).unwrap().name,
            manager.distance_threshold()
        ),
        ModelDecision::TrainFromScratch => {
            println!("decision: train from scratch (nothing within threshold)\n")
        }
    }
}
