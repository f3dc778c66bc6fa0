//! Criterion benches for the extension subsystems: mini-batch vs full
//! k-means, clustering quality metrics, snapshot persistence, LR-schedule
//! evaluation, and the request/reply overhead of the service layer.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fairdms_clustering::{
    davies_bouldin, fit_minibatch, silhouette, KMeans, KMeansConfig, MiniBatchConfig,
};
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datastore::{Collection, Document, RawCodec};
use fairdms_nn::schedule::LrSchedule;
use fairdms_service::server::{DmsServer, DmsServerConfig};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::Arc;

fn mixture(n: usize, k: usize, dim: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seeded(seed);
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = (i % k) as f32;
        for j in 0..dim {
            data.push(c * ((j + 1) as f32).sin() + rng.next_normal_with(0.0, 0.3));
        }
    }
    Tensor::from_vec(data, &[n, dim])
}

fn bench_clustering_trainers(c: &mut Criterion) {
    let data = mixture(10_000, 15, 16, 0);
    c.bench_function("kmeans_lloyd_10k_k15_d16", |b| {
        b.iter(|| KMeans::fit(&data, &KMeansConfig::new(15)))
    });
    c.bench_function("kmeans_minibatch_10k_k15_d16", |b| {
        b.iter(|| {
            fit_minibatch(
                &data,
                &MiniBatchConfig {
                    k: 15,
                    batch_size: 512,
                    steps: 100,
                    seed: 1,
                },
            )
        })
    });
}

fn bench_cluster_metrics(c: &mut Criterion) {
    let data = mixture(1_000, 5, 8, 2);
    let model = KMeans::fit(&data, &KMeansConfig::new(5));
    let assignments = model.predict(&data);
    c.bench_function("silhouette_1k_k5", |b| {
        b.iter(|| silhouette(&data, &assignments, 5))
    });
    c.bench_function("davies_bouldin_1k_k5", |b| {
        b.iter(|| davies_bouldin(&data, &model))
    });
}

fn bench_snapshot(c: &mut Criterion) {
    let coll = Collection::new("bench", Arc::new(RawCodec));
    coll.create_index("cluster");
    let mut rng = TensorRng::seeded(3);
    for i in 0..5_000i64 {
        let pixels: Vec<f32> = (0..225).map(|_| rng.next_uniform(0.0, 1.0)).collect();
        coll.insert(
            &Document::new()
                .with("cluster", i % 15)
                .with("pixels", pixels),
        );
    }
    c.bench_function("snapshot_5k_docs", |b| b.iter(|| coll.snapshot()));
    let snap = coll.snapshot();
    c.bench_function("restore_5k_docs_with_index", |b| {
        b.iter_batched(
            || snap.clone(),
            |s| Collection::restore(Arc::new(RawCodec), &s).unwrap(),
            BatchSize::LargeInput,
        )
    });
}

fn bench_schedules(c: &mut Criterion) {
    let schedules = [
        LrSchedule::Constant,
        LrSchedule::Step {
            every: 10,
            gamma: 0.5,
        },
        LrSchedule::Cosine {
            total_epochs: 100,
            min_frac: 0.1,
        },
        LrSchedule::WarmupCosine {
            warmup: 5,
            total_epochs: 100,
            min_frac: 0.0,
        },
    ];
    c.bench_function("lr_schedule_eval_400", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for s in &schedules {
                for e in 0..100 {
                    acc += s.lr_at(e, 1e-3);
                }
            }
            acc
        })
    });
}

fn bench_service_roundtrip(c: &mut Criterion) {
    const SIDE: usize = 8;
    let mut rng = TensorRng::seeded(4);
    let x = rng.uniform(&[64, SIDE * SIDE], 0.0, 1.0);
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 4);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(4),
            ..FairDsConfig::default()
        },
    );
    let trainer = RapidTrainer::new(
        fairds,
        ModelManager::default(),
        RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE),
    );
    let (client, _handle) = DmsServer::spawn(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    client
        .train_system(
            x.clone(),
            EmbedTrainConfig {
                epochs: 2,
                batch_size: 32,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        )
        .unwrap();
    // Request/reply overhead + one embed+assign pass per call.
    c.bench_function("service_dataset_pdf_64", |b| {
        b.iter(|| client.dataset_pdf(x.clone()).unwrap())
    });
    c.bench_function("service_metrics_snapshot", |b| {
        b.iter(|| client.metrics().unwrap())
    });
    drop(client);
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
    targets = bench_clustering_trainers, bench_cluster_metrics, bench_snapshot,
        bench_schedules, bench_service_roundtrip
}
criterion_main!(benches);
