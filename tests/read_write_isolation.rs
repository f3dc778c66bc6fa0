//! Read/write isolation of the split user plane (DESIGN.md §6).
//!
//! Two properties the refactor exists to provide:
//!
//! 1. **Reads do not queue behind training.** `DatasetPdf`,
//!    `LookupMatching`, and `Recommend` complete while a slow
//!    `UpdateModel` run holds the actor thread.
//! 2. **Snapshot turnover is atomic.** After a certainty-triggered
//!    retrain, readers observe the *new* published snapshot (version
//!    advanced, consistent K), and concurrent readers never observe a
//!    torn view mid-publication.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::server::{DmsClient, DmsServerConfig};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SIDE: usize = 8;

fn blob_images(per_mode: usize, n_modes: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seeded(seed);
    let centers = [(2.0f32, 2.0f32), (5.0, 5.0), (2.0, 5.0), (5.0, 2.0)];
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for m in 0..n_modes {
        let (cy, cx) = centers[m % centers.len()];
        for _ in 0..per_mode {
            for y in 0..SIDE {
                for x in 0..SIDE {
                    let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    data.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                }
            }
            labels.push(cx / SIDE as f32);
            labels.push(cy / SIDE as f32);
        }
    }
    (
        Tensor::from_vec(data, &[per_mode * n_modes, SIDE * SIDE]),
        Tensor::from_vec(labels, &[per_mode * n_modes, 2]),
    )
}

fn embed_cfg() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 5,
        batch_size: 16,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    }
}

fn spawn_server(
    seed: u64,
    k: usize,
    auto_retrain: bool,
    train_epochs: usize,
) -> (DmsClient, MultiDms) {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(k),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = train_epochs;
    tcfg.train.batch_size = 16;
    tcfg.seed = seed;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let cfg = DmsServerConfig {
        auto_retrain,
        retrain_embed_cfg: embed_cfg(),
        ..DmsServerConfig::default()
    };
    let dms = MultiDms::builder(1)
        .tenant(
            TenantSpec { id: 0, config: cfg },
            trainer,
            Box::new(|_| vec![0.5, 0.5]),
        )
        .spawn();
    (dms.client(0).expect("tenant 0").clone(), dms)
}

#[test]
fn reads_complete_while_update_model_is_in_flight() {
    // Long training budget so UpdateModel occupies the actor for a while.
    let (client, handle) = spawn_server(0, 2, false, 40);
    let (x, y) = blob_images(30, 2, 1);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    let update_done = Arc::new(AtomicBool::new(false));
    let updater = {
        let client = client.clone();
        let done = Arc::clone(&update_done);
        let (x_new, _) = blob_images(40, 2, 2);
        thread::spawn(move || {
            let started = Instant::now();
            client.update_model(x_new, 1).unwrap();
            let took = started.elapsed();
            done.store(true, Ordering::Release);
            took
        })
    };

    // Hammer the read plane while the update occupies the actor. Every
    // read that *starts and finishes* before the update completes proves
    // it never queued behind the actor.
    let (probe, _) = blob_images(5, 2, 3);
    let mut reads_during_update = 0usize;
    let mut slowest_read = Duration::ZERO;
    while !update_done.load(Ordering::Acquire) {
        let t0 = Instant::now();
        let pdf = client.dataset_pdf(probe.clone()).unwrap();
        let docs = client.lookup(pdf.clone(), 4).unwrap();
        let rec = client.recommend(pdf).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(docs.len(), 4);
        if !update_done.load(Ordering::Acquire) {
            // The whole round-trip ran while the actor was busy training.
            reads_during_update += 1;
            slowest_read = slowest_read.max(elapsed);
        }
        // Publish-before-acknowledge: the new model may become visible
        // moments before the updater thread processes its ack, but never
        // more than the one model this update produces.
        assert!(rec.ranked.len() <= 1, "impossible zoo contents {rec:?}");
        // Metrics snapshots bypass every queue: they must also respond
        // while the actor is busy.
        let m = client.metrics().unwrap();
        assert!(m.op("pdf").is_some());
    }
    let update_took = updater.join().unwrap();

    assert!(
        reads_during_update >= 3,
        "expected several read round-trips during a {update_took:?} update, got {reads_during_update}"
    );
    assert!(
        slowest_read < update_took,
        "a read ({slowest_read:?}) should never wait out the whole update ({update_took:?})"
    );

    // After the update is acknowledged the new zoo entry is published.
    let (probe2, _) = blob_images(5, 2, 4);
    let pdf = client.dataset_pdf(probe2).unwrap();
    let rec = client.recommend(pdf).unwrap();
    assert_eq!(rec.ranked.len(), 1, "acknowledged model must be visible");

    drop(client);
    handle.shutdown();
}

#[test]
fn certainty_triggered_retrain_publishes_a_fresh_untorn_snapshot() {
    // k >= 3 so the fuzzy-certainty monitor can actually fire.
    let (client, handle) = spawn_server(10, 3, true, 2);
    let (x, y) = blob_images(30, 3, 11);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let v0 = client
        .current_view()
        .system
        .as_ref()
        .expect("trained")
        .version();

    // Readers hammer the snapshot while the drifted ingest retrains.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let (probe, _) = blob_images(4, 3, 100 + t);
                let mut observed_ks = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Acquire) {
                    let pdf = client.dataset_pdf(probe.clone()).unwrap();
                    // A torn view would produce a PDF whose length matches
                    // no published clustering. K is fixed at 3 in this
                    // fixture, before and after the retrain, so every
                    // answer must be exactly that long.
                    let view = client.current_view();
                    let k_now = view.system.as_ref().unwrap().k();
                    assert_eq!(pdf.len(), k_now, "pdf of impossible length");
                    observed_ks.insert(pdf.len());
                    let c = client.certainty(probe.clone()).unwrap();
                    assert!((0.0..=1.0).contains(&c));
                }
                observed_ks
            })
        })
        .collect();

    // Drifted data: certainty collapses, the monitor fires, and the
    // retrain job lands on the background training executor. The ack
    // carries the *trigger*; installation follows asynchronously after
    // the version fence.
    let noise = TensorRng::seeded(12).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let (_, retrained) = client.ingest(noise, labels, 1).unwrap();
    assert!(retrained, "drifted ingest should trigger the system plane");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let sys = client.current_view().system.clone().expect("still trained");
        if sys.version() > v0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "triggered retrain never published a fresh snapshot (version stuck at {})",
            sys.version()
        );
        thread::yield_now();
    }

    stop.store(true, Ordering::Release);
    for r in readers {
        let ks = r.join().unwrap();
        assert!(
            ks.iter().all(|&k| k == 3),
            "readers observed PDFs inconsistent with every published K: {ks:?}"
        );
    }

    let m = client.metrics().unwrap();
    assert_eq!(m.system_retrains, 1);

    drop(client);
    handle.shutdown();
}
