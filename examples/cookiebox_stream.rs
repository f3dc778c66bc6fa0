//! CookieBox streaming scenario: train CookieNetAE on simulated
//! time-of-flight histograms, watch the fairDS certainty monitor as the
//! photon line drifts, and compare storage backends for the training
//! reads (the Fig 6–8 stack at example scale).
//!
//! ```text
//! cargo run --release --example cookiebox_stream
//! ```

use fairdms_bench::netsim::paper_backends;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::models::ArchSpec;
use fairdms_datasets::cookiebox::{to_training_tensors, CookieBoxSimulator};
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, Trainer};

const SIZE: usize = 32;

fn main() {
    let sim = CookieBoxSimulator::new(SIZE, 3);

    // ------------------------------------------------------------------
    // 1. Train CookieNetAE on the first acquisitions.
    // ------------------------------------------------------------------
    let imgs = sim.scan(0, 96);
    let (x, y) = to_training_tensors(&imgs);
    let n = x.shape()[0];
    let mut net = ArchSpec::CookieNetAE { size: SIZE }.build(3);
    let mut opt = Adam::new(2e-3);
    let report = Trainer::new(TrainConfig {
        epochs: 12,
        batch_size: 16,
        ..TrainConfig::default()
    })
    .fit(
        &mut net,
        &mut opt,
        &Mse,
        &x.slice_rows(16, n),
        &y.slice_rows(16, n),
        &x.slice_rows(0, 16),
        &y.slice_rows(0, 16),
    );
    println!(
        "CookieNetAE trained: val loss {:.6} after {} epochs\n",
        report.final_val_loss(),
        report.curve.len()
    );

    // ------------------------------------------------------------------
    // 2. fairDS drift monitoring across the stream.
    // ------------------------------------------------------------------
    let embedder = AutoencoderEmbedder::new(SIZE * SIZE, 64, 16, 3);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(8),
            ..FairDsConfig::default()
        },
    );
    let x_flat = x.reshape(&[n, SIZE * SIZE]);
    fairds.train_system(
        &x_flat,
        &EmbedTrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    println!("{:>5}  {:>10}  status", "scan", "certainty");
    for scan in (0..100).step_by(20) {
        let stream = sim.scan(scan, 32);
        let (sx, _) = to_training_tensors(&stream);
        let m = sx.shape()[0];
        let c = fairds.certainty(&sx.reshape(&[m, SIZE * SIZE]));
        println!(
            "{scan:>5}  {:>9.1}%  {}",
            c * 100.0,
            if fairds.needs_system_update(&sx.reshape(&[m, SIZE * SIZE])) {
                "UPDATE system plane"
            } else {
                "ok"
            }
        );
    }

    // ------------------------------------------------------------------
    // 3. Storage backends: what a training epoch pays per sample.
    // ------------------------------------------------------------------
    println!(
        "\nstorage backends ({} samples of {SIZE}x{SIZE} CookieBox data):",
        32
    );
    for store in paper_backends() {
        let ids: Vec<_> = sim
            .scan(0, 32)
            .iter()
            .map(|img| store.put(&img.to_document()))
            .collect();
        let mut total = 0.0;
        for &id in &ids {
            let (_, t) = store.fetch(id).unwrap();
            total += t.total_secs();
        }
        println!(
            "  {:>7}: mean fetch {:>9.1}us, payload {:>7} B",
            store.label(),
            total / ids.len() as f64 * 1e6,
            store.mean_payload_bytes()
        );
    }
}
