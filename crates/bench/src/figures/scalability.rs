//! Scalability study (paper §IV future work: "further study the
//! scalability of fairDMS").
//!
//! Three axes the paper's discussion raises but does not measure:
//!
//! 1. **Clustering trainer vs corpus size** — full Lloyd iterations against
//!    mini-batch K-means (Sculley 2010), the streaming path APS-U data
//!    rates would force, with the WSS penalty the speedup costs.
//! 2. **Labeling throughput vs cores** — the measured pseudo-Voigt fit
//!    cost under rayon pools of increasing size, the single-node
//!    counterpart of the paper's Voigt-80/Voigt-1440 extrapolation.
//! 3. **Service throughput vs concurrent clients** — the fairDMS service
//!    behind its TCP listener (`crate::load`) under closed-loop
//!    PDF/lookup load, one connection per client.
//!
//! Store size is the fourth axis, and `benches/scale_store.rs` covers it:
//! routed vs brute nearest-neighbour reads over the read index from 10³ to
//! 10⁵ documents, gated in CI.

use crate::load::{self, Experiment, Outcome, Plan, Tenant};
use crate::table::{secs, Table};
use crate::Scale;
use fairdms_clustering::{fit_minibatch, KMeans, KMeansConfig, MiniBatchConfig};
use fairdms_datasets::voigt::{label_batch, FitConfig};
use fairdms_service::net::NetServerConfig;
use fairdms_service::{DmsApi, Request};
use fairdms_tensor::rng::TensorRng;
use std::time::Instant;

use super::{bragg_history, BRAGG_SIDE};

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

/// Closed-loop service throughput under concurrent clients, through the
/// TCP front door: each client is one connection alternating a
/// `DatasetPdf` over a 32-frame probe and a `LookupMatching` of 8
/// documents, one blocking call at a time.
fn service_scaling(scale: Scale) -> Table {
    let tenant = Tenant {
        id: 0,
        experiment: Experiment::Bragg,
        seed: 11,
    };
    let dep = load::spawn(&[tenant], 1, NetServerConfig::default());
    let (probe, _) = tenant.experiment.frames(tenant.seed, 1, 32);
    let client = dep.multi.client(tenant.id).expect("spawned");
    let probe_pdf = client.dataset_pdf(probe.clone()).expect("pdf");

    let mut table = Table::new(
        "Scalability: fairDMS service throughput vs concurrent clients (PDF+lookup closed loop)",
        &["clients", "requests", "wall_time", "req_per_sec"],
    );
    for &n_clients in &[1usize, 2, 4, 8] {
        let per_client = scale.pick(5, 15, 40);
        let plans: Vec<Plan> = (0..n_clients)
            .map(|_| Plan {
                tenant: tenant.id,
                warmup: Vec::new(),
                requests: (0..per_client)
                    .flat_map(|_| {
                        let (images, pdf) = (probe.clone(), probe_pdf.clone());
                        [
                            Request::DatasetPdf { images },
                            Request::LookupMatching { pdf, count: 8 },
                        ]
                    })
                    .collect(),
                window: 1,
                call: true,
            })
            .collect();
        let run = load::drive(dep.addr, &plans);
        assert_eq!(run.count(Outcome::Ok), run.requests(), "closed loop");
        table.row(vec![
            n_clients.to_string(),
            run.requests().to_string(),
            secs(run.wall().as_secs_f64()),
            format!("{:.0}", run.throughput()),
        ]);
    }
    dep.shutdown();
    table
}

/// Runs the scalability suite.
pub fn run(scale: Scale) -> Result<(), String> {
    clustering_scaling(scale).emit("scalability_clustering");
    labeling_scaling(scale).emit("scalability_labeling");
    service_scaling(scale).emit("scalability_service");
    Ok(())
}
