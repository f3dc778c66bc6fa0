//! Criterion benches for the fairDMS service operations: embedding
//! forward, dataset-PDF computation, pseudo-label lookups, zoo
//! recommendation — and the concurrent read plane (read-op p50/p99 under
//! 1/4/16 closed-loop clients, idle vs. with a background training run).

use criterion::{criterion_group, criterion_main, Criterion};
use fairdms_bench::figures::{bragg_fairds, bragg_flat, bragg_history, BRAGG_SIDE};
use fairdms_core::embedding::{ByolEmbedder, EmbedTrainConfig, Embedder};
use fairdms_core::fairms::{ModelManager, ModelZoo, ZooEntry};
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::{BraggSimulator, DriftModel};
use fairdms_nn::checkpoint;
use fairdms_service::server::{DmsServer, DmsServerConfig};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_embedding_forward(c: &mut Criterion) {
    let history = bragg_history(1, 128, 0);
    let (x, _) = bragg_flat(&history);
    let mut embedder = ByolEmbedder::new(BRAGG_SIDE, 64, 16, 0);
    embedder.fit(
        &x,
        &EmbedTrainConfig {
            epochs: 2,
            batch_size: 32,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    c.bench_function("byol_embed_128_patches", |b| b.iter(|| embedder.embed(&x)));
}

fn bench_fairds_ops(c: &mut Criterion) {
    let history = bragg_history(2, 200, 1);
    let fairds = bragg_fairds(&history, 15, 1, 2);
    let query = BraggSimulator::new(DriftModel::none(), 99).scan(0, 64);
    let (qx, _) = bragg_flat(&query);
    c.bench_function("fairds_dataset_pdf_64", |b| {
        b.iter(|| fairds.dataset_pdf(&qx))
    });
    c.bench_function("fairds_pseudo_label_64", |b| {
        b.iter(|| fairds.pseudo_label(&qx, 0.6, |_| vec![0.5, 0.5]))
    });
    c.bench_function("fairds_certainty_64", |b| b.iter(|| fairds.certainty(&qx)));
}

fn bench_zoo_recommend(c: &mut Criterion) {
    let arch = ArchSpec::BraggNN { patch: 15 };
    let mut zoo = ModelZoo::new();
    let mut rng = TensorRng::seeded(2);
    for i in 0..50 {
        let pdf: Vec<f64> = (0..15)
            .map(|_| rng.next_uniform(0.01, 1.0) as f64)
            .collect();
        let net = arch.build(i);
        zoo.add(ZooEntry {
            name: format!("m{i}"),
            arch,
            checkpoint: checkpoint::save(&net),
            train_pdf: pdf,
            scan: i as usize,
        });
    }
    let input: Vec<f64> = (0..15)
        .map(|_| rng.next_uniform(0.01, 1.0) as f64)
        .collect();
    let mgr = ModelManager::default();
    c.bench_function("zoo_rank_50_models_k15", |b| {
        b.iter(|| mgr.rank(&zoo, &input))
    });
    c.bench_function("zoo_instantiate_braggnn", |b| {
        b.iter(|| zoo.instantiate(7, 0))
    });
}

/// Closed-loop latency of the read plane under concurrency.
///
/// For each client count in {1, 4, 16}, every client thread issues
/// `DatasetPdf` + `LookupMatching` round-trips back-to-back and records
/// per-op latencies; the run is repeated with a background `UpdateModel`
/// training loop hammering the actor. Before the user-plane split, every
/// one of these reads would have queued behind the training run (the
/// reported `update_model` duration bounds that stall); with the split
/// they are served from snapshots on the calling thread.
fn bench_concurrent_read_plane(_c: &mut Criterion) {
    let history = bragg_history(2, 160, 7);
    let (hx, hy) = bragg_flat(&history);
    let embedder = ByolEmbedder::new(BRAGG_SIDE, 64, 16, 7);
    let fairds = fairdms_core::fairds::FairDS::in_memory(
        Box::new(embedder),
        fairdms_core::fairds::FairDsConfig {
            k: Some(15),
            ..Default::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: BRAGG_SIDE }, BRAGG_SIDE);
    tcfg.train.epochs = 12;
    tcfg.train.batch_size = 32;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let (client, handle) = DmsServer::spawn(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    client
        .train_system(
            hx.clone(),
            EmbedTrainConfig {
                epochs: 2,
                batch_size: 32,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        )
        .expect("train");
    client.ingest(hx, hy, 0).expect("ingest");

    let probe: Tensor = {
        let q = BraggSimulator::new(DriftModel::none(), 11).scan(0, 8);
        bragg_flat(&q).0
    };
    let reads_per_client = 40usize;

    // Reference stall: how long one UpdateModel trains end to end (the
    // latency a serialized request could have paid in the single-actor
    // design; with the training executor it runs in the background).
    let update_secs = {
        let q = BraggSimulator::new(DriftModel::none(), 13).scan(1, 64);
        let (ux, _) = bragg_flat(&q);
        let t0 = Instant::now();
        client.update_model(ux, 1).expect("update");
        t0.elapsed()
    };
    println!("service_concurrent: update_model trains for {update_secs:>10.2?} (old-design worst-case stall for serialized requests)");

    for &clients in &[1usize, 4, 16] {
        for training in [false, true] {
            let stop = Arc::new(AtomicBool::new(false));
            let trainer_thread = training.then(|| {
                let client = client.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scan = 100;
                    while !stop.load(Ordering::Acquire) {
                        let q = BraggSimulator::new(DriftModel::none(), scan as u64).scan(scan, 48);
                        let (ux, _) = bragg_flat(&q);
                        let _ = client.update_model(ux, scan);
                        scan += 1;
                    }
                })
            });

            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let client = client.clone();
                    let probe = probe.clone();
                    std::thread::spawn(move || {
                        let mut lat = Vec::with_capacity(reads_per_client * 2);
                        for _ in 0..reads_per_client {
                            let t0 = Instant::now();
                            let pdf = client.dataset_pdf(probe.clone()).expect("pdf");
                            lat.push(t0.elapsed());
                            let t1 = Instant::now();
                            let _ = client.lookup(pdf, 8).expect("lookup");
                            lat.push(t1.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            let mut lat: Vec<Duration> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("reader"))
                .collect();
            stop.store(true, Ordering::Release);
            if let Some(t) = trainer_thread {
                t.join().expect("trainer");
            }
            lat.sort_unstable();
            let p50 = lat[lat.len() / 2];
            let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
            println!(
                "service_concurrent_reads/clients={clients:<2}/training={training:<5} p50 {p50:>10.2?}  p99 {p99:>10.2?}  ({} ops)",
                lat.len()
            );
        }
    }

    drop(client);
    handle.shutdown();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_embedding_forward, bench_fairds_ops, bench_zoo_recommend,
        bench_concurrent_read_plane
}
criterion_main!(benches);
