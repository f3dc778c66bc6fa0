//! Scalability study (paper §IV future work: "further study the
//! scalability of fairDMS").
//!
//! Four axes the paper's discussion raises but does not measure:
//!
//! 1. **Store lookup vs corpus size** — the indexed two-level search is the
//!    reason fairDS labeling stays sub-minute while the corpus grows; this
//!    sweep shows indexed `find_by` staying flat while the unindexed scan
//!    (decode-everything) grows linearly.
//! 2. **Clustering trainer vs corpus size** — full Lloyd iterations against
//!    mini-batch K-means (Sculley 2010), the streaming path APS-U data
//!    rates would force, with the WSS penalty the speedup costs.
//! 3. **Labeling throughput vs cores** — the measured pseudo-Voigt fit
//!    cost under rayon pools of increasing size, the single-node
//!    counterpart of the paper's Voigt-80/Voigt-1440 extrapolation.
//! 4. **Service throughput vs concurrent clients** — the actor-style
//!    fairDMS server under closed-loop PDF/lookup load.

use crate::table::{secs, Table};
use crate::Scale;
use fairdms_clustering::{fit_minibatch, KMeans, KMeansConfig, MiniBatchConfig};
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::voigt::{label_batch, FitConfig};
use fairdms_datastore::{Collection, Document, RawCodec};
use fairdms_service::server::{DmsServer, DmsServerConfig};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use std::sync::Arc;
use std::time::Instant;

use super::{bragg_flat, bragg_history, BRAGG_SIDE};

/// Store lookup latency: indexed vs full-scan, growing corpus.
fn store_lookup_scaling(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![1_000, 4_000],
        Scale::Default => vec![2_000, 10_000, 40_000],
        Scale::Full => vec![10_000, 50_000, 200_000],
    };
    let mut table = Table::new(
        "Scalability: cluster lookup latency vs corpus size (indexed vs scan)",
        &["n_docs", "indexed_lookup", "full_scan", "scan/indexed"],
    );
    let mut rng = TensorRng::seeded(42);
    for &n in &sizes {
        let coll = Collection::new("scale", Arc::new(RawCodec));
        coll.create_index("cluster");
        for i in 0..n {
            coll.insert(
                &Document::new()
                    .with("cluster", (i % 15) as i64)
                    .with("embedding", {
                        (0..16)
                            .map(|_| rng.next_uniform(0.0, 1.0))
                            .collect::<Vec<f32>>()
                    }),
            );
        }
        let reps = 20;
        let t0 = Instant::now();
        for r in 0..reps {
            let ids = coll.find_by("cluster", (r % 15) as i64);
            assert!(!ids.is_empty());
        }
        let indexed = t0.elapsed().as_secs_f64() / reps as f64;
        let scan_reps = 3;
        let t0 = Instant::now();
        for r in 0..scan_reps {
            let target = (r % 15) as i64;
            let ids = coll.scan(|d| d.get_i64("cluster") == Some(target));
            assert!(!ids.is_empty());
        }
        let scanned = t0.elapsed().as_secs_f64() / scan_reps as f64;
        table.row(vec![
            n.to_string(),
            secs(indexed),
            secs(scanned),
            format!("{:.0}x", scanned / indexed.max(1e-12)),
        ]);
    }
    table
}

/// Full Lloyd vs mini-batch K-means on growing embedding corpora.
fn clustering_scaling(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![2_000, 8_000],
        Scale::Default => vec![5_000, 20_000, 80_000],
        Scale::Full => vec![20_000, 100_000, 400_000],
    };
    let dim = 16;
    let k = 15;
    let mut table = Table::new(
        "Scalability: full Lloyd vs mini-batch k-means (k=15, d=16)",
        &["n", "lloyd_fit", "minibatch_fit", "speedup", "wss_ratio"],
    );
    for &n in &sizes {
        // Mixture of k Gaussians so WSS has structure to find.
        let mut rng = TensorRng::seeded(n as u64);
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = (i % k) as f32;
            for j in 0..dim {
                data.push(c * ((j + 1) as f32).sin() + rng.next_normal_with(0.0, 0.3));
            }
        }
        let data = fairdms_tensor::Tensor::from_vec(data, &[n, dim]);

        let t0 = Instant::now();
        let full = KMeans::fit(&data, &KMeansConfig::new(k));
        let lloyd_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mini = fit_minibatch(
            &data,
            &MiniBatchConfig {
                k,
                batch_size: 512,
                steps: 120,
                seed: 7,
            },
        );
        let mini_secs = t0.elapsed().as_secs_f64();

        table.row(vec![
            n.to_string(),
            secs(lloyd_secs),
            secs(mini_secs),
            format!("{:.1}x", lloyd_secs / mini_secs.max(1e-12)),
            format!(
                "{:.3}",
                mini.inertia() as f64 / full.inertia().max(1e-12) as f64
            ),
        ]);
    }
    table
}

/// Pseudo-Voigt labeling throughput under rayon pools of increasing size.
fn labeling_scaling(scale: Scale) -> Table {
    let n_peaks = scale.pick(200, 800, 3000);
    let history = bragg_history(1, n_peaks, 99);
    let patches: Vec<Vec<f32>> = history.iter().map(|p| p.pixels.clone()).collect();
    let threads = [1usize, 2, 4, 8];
    let mut table = Table::new(
        "Scalability: pseudo-Voigt labeling throughput vs worker threads",
        &["threads", "total_time", "peaks_per_sec", "efficiency"],
    );
    let mut t1 = f64::NAN;
    for &t in &threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("failed to build rayon pool");
        let start = Instant::now();
        let fits = pool.install(|| label_batch(&patches, BRAGG_SIDE, &FitConfig::QUICK));
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(fits.len(), patches.len());
        if t == 1 {
            t1 = elapsed;
        }
        let speedup = t1 / elapsed;
        table.row(vec![
            t.to_string(),
            secs(elapsed),
            format!("{:.0}", patches.len() as f64 / elapsed),
            format!("{:.2}", speedup / t as f64),
        ]);
    }
    table
}

/// Closed-loop service throughput under concurrent clients.
fn service_scaling(scale: Scale) -> Table {
    let per_scan = scale.pick(60, 200, 400);
    let history = bragg_history(2, per_scan, 11);
    let (hx, hy) = bragg_flat(&history);

    let embedder =
        fairdms_core::embedding::AutoencoderEmbedder::new(BRAGG_SIDE * BRAGG_SIDE, 64, 16, 11);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(15),
            seed: 11,
            ..FairDsConfig::default()
        },
    );
    let tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: BRAGG_SIDE }, BRAGG_SIDE);
    let trainer = RapidTrainer::new(fairds, ModelManager::default(), tcfg);
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
                batch_size: 64,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        )
        .expect("train_system");
    client.ingest(hx, hy, 0).expect("ingest");

    let probe_patches = bragg_history(1, 32, 12);
    let (probe, _) = bragg_flat(&probe_patches);

    let mut table = Table::new(
        "Scalability: fairDMS service throughput vs concurrent clients (PDF+lookup closed loop)",
        &["clients", "requests", "wall_time", "req_per_sec"],
    );
    for &n_clients in &[1usize, 2, 4, 8] {
        let per_client = scale.pick(5, 15, 40);
        let start = Instant::now();
        let mut joins = Vec::new();
        for _ in 0..n_clients {
            let c = client.clone();
            let x = probe.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..per_client {
                    let pdf = c.dataset_pdf(x.clone()).expect("pdf");
                    c.lookup(pdf, 8).expect("lookup");
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
        let wall = start.elapsed().as_secs_f64();
        let reqs = (n_clients * per_client * 2) as f64;
        table.row(vec![
            n_clients.to_string(),
            format!("{reqs:.0}"),
            secs(wall),
            format!("{:.0}", reqs / wall),
        ]);
    }
    drop(client);
    handle.shutdown();
    table
}

/// Runs the scalability suite.
pub fn run(scale: Scale) -> Result<(), String> {
    store_lookup_scaling(scale).emit("scalability_store_lookup");
    clustering_scaling(scale).emit("scalability_clustering");
    labeling_scaling(scale).emit("scalability_labeling");
    service_scaling(scale).emit("scalability_service");
    Ok(())
}
