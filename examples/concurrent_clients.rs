//! The split user plane under load: many clients querying PDFs and model
//! recommendations — and ingesting — while models train.
//!
//! Before the read/write split, every request — including pure reads —
//! serialized through the single server actor, so one `UpdateModel`
//! training run stalled every concurrent reader behind it. And before the
//! *write-plane* split, mutations still did: an ingest submitted while a
//! model fine-tuned waited out the whole epoch loop. This example makes
//! both decouplings visible: it starts a background loop of rapid model
//! updates (each training for a noticeable stretch on the background
//! executor), points a fleet of read-only clients *plus an ingest client*
//! at the service, and prints the latencies observed *while training is
//! in flight* next to how long each training run took.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{to_training_tensors, BraggSimulator, DriftModel};
use fairdms_service::{DmsApi, DmsServerConfig, MultiDms, TenantSpec};
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: usize = 15;

fn flat(patches: &[fairdms_datasets::bragg::BraggPatch]) -> (Tensor, Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn main() {
    println!("== concurrent clients vs. a retraining system plane ==\n");

    // --- Stand the service up and prime it. ------------------------------
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 64, 16, 3);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(10),
            seed: 3,
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 12;
    tcfg.train.batch_size = 32;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let spec = TenantSpec {
        id: 0,
        config: DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    };
    let dms = MultiDms::builder(1)
        .tenant(spec, trainer, Box::new(|_| vec![0.5, 0.5]))
        .spawn();
    let client = dms.client(0).expect("tenant 0").clone();

    let sim = BraggSimulator::new(DriftModel::none(), 3);
    let history: Vec<_> = sim
        .series(3, 120)
        .into_iter()
        .flat_map(|(_, p)| p)
        .collect();
    let (hx, hy) = flat(&history);
    let k = client
        .train_system(
            hx.clone(),
            EmbedTrainConfig {
                epochs: 3,
                batch_size: 64,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        )
        .expect("train_system");
    client.ingest(hx, hy, 0).expect("ingest");
    println!(
        "system plane trained (k = {k}), {} samples in the store\n",
        history.len()
    );

    // --- Background system plane: rapid model updates in a loop. ---------
    let stop = Arc::new(AtomicBool::new(false));
    let training_busy = Arc::new(AtomicBool::new(false));
    let updater = {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let busy = Arc::clone(&training_busy);
        std::thread::spawn(move || {
            let mut durations = Vec::new();
            let mut scan = 10;
            while !stop.load(Ordering::Acquire) {
                let (ux, _) =
                    flat(&BraggSimulator::new(DriftModel::none(), scan as u64).scan(scan, 80));
                busy.store(true, Ordering::Release);
                let t0 = Instant::now();
                let report = client.update_model(ux, scan).map(|(_, r)| r);
                busy.store(false, Ordering::Release);
                if let Ok(r) = report {
                    durations.push((t0.elapsed(), r.registered_id));
                }
                scan += 1;
            }
            durations
        })
    };

    // --- The ingest client: mutations must not queue behind training. ----
    let ingester = {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        let busy = Arc::clone(&training_busy);
        std::thread::spawn(move || {
            let mut during_training = Vec::new();
            let mut scan = 1000;
            while !stop.load(Ordering::Acquire) {
                let (ix, iy) = flat(&BraggSimulator::new(DriftModel::none(), 90).scan(0, 8));
                let was_busy = busy.load(Ordering::Acquire);
                let t0 = Instant::now();
                client.ingest(ix, iy, scan).expect("ingest");
                if was_busy && busy.load(Ordering::Acquire) {
                    during_training.push(t0.elapsed());
                }
                scan += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            during_training
        })
    };

    // --- The read fleet. ---------------------------------------------------
    let n_clients = 8;
    println!(
        "running {n_clients} read-only clients + 1 ingest client while the trainer loops...\n"
    );
    let readers: Vec<_> = (0..n_clients)
        .map(|t| {
            let client = client.clone();
            let busy = Arc::clone(&training_busy);
            std::thread::spawn(move || {
                let (probe, _) = flat(&BraggSimulator::new(DriftModel::none(), 50 + t).scan(0, 16));
                let mut during_training = Vec::new();
                let mut while_idle = Vec::new();
                for _ in 0..30 {
                    let was_busy = busy.load(Ordering::Acquire);
                    let t0 = Instant::now();
                    let pdf = client.dataset_pdf(probe.clone()).expect("pdf");
                    // Partial ranking: clients that only fine-tune the
                    // best match never pay for sorting the whole zoo.
                    let rec = client
                        .recommend_top_k(pdf.clone(), 3)
                        .expect("recommend_top_k");
                    let docs = client.lookup(pdf, 8).expect("lookup");
                    let elapsed = t0.elapsed();
                    assert_eq!(docs.len(), 8);
                    assert!(rec.ranked.len() <= 3); // frozen zoo snapshot
                    if was_busy && busy.load(Ordering::Acquire) {
                        during_training.push(elapsed);
                    } else {
                        while_idle.push(elapsed);
                    }
                    // Think time: a round trip is tens of microseconds, so
                    // without it the fleet is done before the ~100 ms
                    // update it is meant to overlap has begun.
                    std::thread::sleep(Duration::from_millis(2));
                }
                (during_training, while_idle)
            })
        })
        .collect();

    let mut during: Vec<Duration> = Vec::new();
    let mut idle: Vec<Duration> = Vec::new();
    for r in readers {
        let (d, i) = r.join().expect("reader");
        during.extend(d);
        idle.extend(i);
    }
    stop.store(true, Ordering::Release);
    let updates = updater.join().expect("updater");
    let mut ingests_during = ingester.join().expect("ingester");

    // --- Report. -----------------------------------------------------------
    let pct = |lat: &mut Vec<Duration>, q: usize| -> Duration {
        if lat.is_empty() {
            return Duration::ZERO;
        }
        lat.sort_unstable();
        lat[(lat.len() * q / 100).min(lat.len() - 1)]
    };
    println!(
        "model updates completed in the background: {}",
        updates.len()
    );
    for (d, id) in &updates {
        println!("  update -> zoo id {id} (trained in the background for {d:.2?})");
    }
    let (d50, d99) = (pct(&mut during, 50), pct(&mut during, 99));
    let (i50, i99) = (pct(&mut idle, 50), pct(&mut idle, 99));
    println!("\nread round-trips (pdf + recommend + lookup):");
    println!(
        "  while training in flight: {:>4} ops, p50 {d50:.2?}, p99 {d99:.2?}",
        during.len()
    );
    println!(
        "  while actor idle:         {:>4} ops, p50 {i50:.2?}, p99 {i99:.2?}",
        idle.len()
    );
    let (g50, g99) = (pct(&mut ingests_during, 50), pct(&mut ingests_during, 99));
    println!(
        "\ningest round-trips while training in flight: {:>4} ops, p50 {g50:.2?}, p99 {g99:.2?}",
        ingests_during.len()
    );
    println!("\nneither reads nor ingest queued behind training: compare the p99s");
    println!("above with the update durations — a write plane that trained on the");
    println!("actor would have charged a full epoch loop to unlucky writers.");

    let m = client.metrics().expect("metrics");
    println!("\ntotal calls served: {}", m.total_calls());
    println!(
        "training jobs: {} started, {} completed, {} superseded",
        m.training_jobs_started, m.training_jobs_completed, m.training_jobs_superseded
    );
    if let (Some(q), Some(r)) = (m.queue_op("ingest"), m.op("ingest")) {
        println!(
            "ingest attribution: queue-wait mean {:.2?} vs run mean {:.2?}",
            q.mean(),
            r.mean()
        );
    }

    drop(client);
    dms.shutdown();
    println!("server drained and shut down cleanly");
}
