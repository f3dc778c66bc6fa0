//! Deploying fairDMS as a concurrent service.
//!
//! The paper frames fairDMS as a *service platform* (Figs 3–5): experiment
//! clients hit the user plane (label queries, model recommendations, model
//! updates) while the system plane maintains the embedding/clustering
//! models in the background. This example stands up a one-tenant
//! [`fairdms_service::MultiDms`], drives it from several concurrent
//! clients, forces a drift event that fires the certainty-triggered
//! system-plane retrain, and prints the server's request metrics.
//!
//! Run with: `cargo run --release --example service_deployment`

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_datasets::bragg::{to_training_tensors, BraggSimulator, DriftModel};
use fairdms_datasets::voigt::{fit_peak, FitConfig};
use fairdms_service::{DmsApi, DmsServerConfig, MultiDms, TenantSpec};
use fairdms_tensor::Tensor;

const SIDE: usize = 15;

fn flat(patches: &[fairdms_datasets::bragg::BraggPatch]) -> (Tensor, Tensor) {
    let (x4, y) = to_training_tensors(patches);
    let n = x4.shape()[0];
    (x4.reshape(&[n, SIDE * SIDE]), y)
}

fn main() {
    println!("== fairDMS service deployment ==\n");

    // --- Assemble the service state: fairDS + Zoo + policy. -------------
    // The system plane is trained and *calibrated* before deployment:
    // absolute fuzzy certainty depends on K and the embedding geometry, so
    // the trigger threshold is set at the midpoint between measured
    // in-distribution and drifted-baseline certainty instead of a fixed
    // constant.
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 64, 16, 7);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(10),
            seed: 7,
            ..FairDsConfig::default()
        },
    );
    let sim = BraggSimulator::new(DriftModel::none(), 7);
    let history: Vec<_> = sim
        .series(3, 150)
        .into_iter()
        .flat_map(|(_, p)| p)
        .collect();
    let (hx, hy) = flat(&history);
    let k = fairds.train_system(
        &hx,
        &EmbedTrainConfig {
            epochs: 4,
            batch_size: 64,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    let calib_drift_sim = BraggSimulator::new(
        DriftModel {
            deform_start: 0,
            deform_rate: 0.5,
            config_change: usize::MAX,
        },
        12345,
    );
    let (calib_in, _) = flat(&sim.scan_shot(0, 9, 80));
    let (calib_out, _) = flat(&calib_drift_sim.scan(20, 80));
    let system = fairds.snapshot().expect("trained above");
    let c_in = system.certainty(&calib_in);
    let c_out = system.certainty(&calib_out);
    let threshold = (c_in + c_out) / 2.0;
    fairds.set_certainty_threshold(threshold);
    println!(
        "calibrated trigger: in-dist certainty {c_in:.2}, drifted {c_out:.2} -> threshold {threshold:.2}\n"
    );

    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 10;
    tcfg.train.batch_size = 32;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);

    // The server-side fallback labeler is the conventional pseudo-Voigt fit.
    let px = (SIDE - 1) as f32;
    let labeler = Box::new(move |pixels: &[f32]| {
        let fit = fit_peak(pixels, SIDE, &FitConfig::QUICK);
        let (cx, cy) = fit.center();
        vec![cx / px, cy / px]
    });

    let spec = TenantSpec {
        id: 0,
        config: DmsServerConfig {
            auto_retrain: true,
            // Only *mutating* requests are monitored since the user-plane
            // split (reads are served from snapshots off the actor), so
            // the cooldown counts ingests/updates, not PDF queries.
            retrain_cooldown: 2,
            retrain_embed_cfg: EmbedTrainConfig {
                epochs: 3,
                batch_size: 64,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
            ..DmsServerConfig::default()
        },
    };
    let dms = MultiDms::builder(1).tenant(spec, trainer, labeler).spawn();
    let client = dms.client(0).expect("tenant 0").clone();

    // --- Prime the store through the service. ----------------------------
    client.ingest(hx, hy, 0).expect("historical ingest");
    println!(
        "system plane trained: k = {k}, store primed with {} samples\n",
        history.len()
    );

    // --- Concurrent user-plane clients. ----------------------------------
    println!("running 4 concurrent clients (PDF + pseudo-label + lookup)...");
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let c = client.clone();
        workers.push(std::thread::spawn(move || {
            let sim = BraggSimulator::new(DriftModel::none(), 100 + t);
            for round in 0..3 {
                let (x, _) = flat(&sim.scan(round, 40));
                let pdf = c.dataset_pdf(x.clone()).expect("pdf");
                let (_labels, stats) = c.pseudo_label(x, f32::NAN).expect("labels");
                let docs = c.lookup(pdf, 16).expect("lookup");
                assert_eq!(docs.len(), 16);
                println!(
                    "  client {t} round {round}: reused {}/{} labels",
                    stats.reused,
                    stats.reused + stats.computed
                );
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    // --- A full model update through the service. ------------------------
    println!("\nrequesting a rapid model update...");
    let (x_new, _) = flat(&sim.scan(5, 120));
    let (ckpt, report) = client.update_model(x_new, 5).expect("update");
    println!(
        "  labeled in {:.3}s ({} reused / {} computed), trained in {:.2}s over {} epochs",
        report.label_secs,
        report.label_stats.reused,
        report.label_stats.computed,
        report.train_secs,
        report.epochs
    );
    println!(
        "  checkpoint: {} bytes, registered as zoo id {}",
        ckpt.len(),
        report.registered_id
    );

    // --- Drift: the certainty monitor fires a system-plane retrain. ------
    println!("\ningesting drifted data (deformed sample)...");
    let drift_sim = BraggSimulator::new(
        DriftModel {
            deform_start: 0,
            deform_rate: 0.5,
            config_change: usize::MAX,
        },
        999,
    );
    let (dx, dy) = flat(&drift_sim.scan(20, 120));
    let (_, retrained) = client.ingest(dx.clone(), dy, 20).expect("drift ingest");
    println!("  certainty trigger fired: {retrained}");
    if retrained {
        // The retrain runs on the background training executor; wait for
        // it to install so the probe below really is post-update.
        while client.metrics().expect("metrics").system_retrains == 0 {
            std::thread::yield_now();
        }
    }
    let certainty = client.certainty(dx).expect("certainty");
    println!("  post-update certainty on the drifted batch: {certainty:.2}");

    // --- Metrics. ---------------------------------------------------------
    let m = client.metrics().expect("metrics");
    println!("\n== server metrics ==");
    println!(
        "{:<14} {:>6} {:>6} {:>12} {:>12}",
        "op", "calls", "errs", "mean", "p99"
    );
    for (name, snap) in &m.ops {
        if snap.count == 0 {
            continue;
        }
        println!(
            "{:<14} {:>6} {:>6} {:>12?} {:>12?}",
            name,
            snap.count,
            snap.errors,
            snap.mean(),
            snap.quantile(0.99)
        );
    }
    println!("system-plane retrains: {}", m.system_retrains);
    println!(
        "training jobs: {} started, {} completed, {} superseded",
        m.training_jobs_started, m.training_jobs_completed, m.training_jobs_superseded
    );
    println!(
        "embed cache: {} hits / {} misses (hit ratio {:.1}%), {} evictions, {} stale-generation",
        m.embed_cache.hits,
        m.embed_cache.misses,
        100.0 * m.embed_cache_hit_ratio(),
        m.embed_cache.evictions,
        m.embed_cache.stale_generation
    );
    println!(
        "read index: {} probes, {} balls pruned, {} candidates scanned",
        m.read_index_probes, m.read_index_balls_pruned, m.read_index_candidates_scanned
    );

    drop(client);
    dms.shutdown();
    println!("\nserver drained and shut down cleanly");
}
