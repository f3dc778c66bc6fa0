//! Write-plane liveness under the background training executor
//! (DESIGN.md §7).
//!
//! Two properties the write-plane split exists to provide:
//!
//! 1. **Ingest does not queue behind training.** With a deliberately slow
//!    multi-epoch `UpdateModel` job in flight, concurrent ingest (and
//!    read) requests complete with bounded latency — the mutation actor
//!    only ran the O(ms) bookends of the job.
//! 2. **A newer trigger supersedes the running job.** A second
//!    `UpdateModel` cancels the first at an epoch boundary; the stale job
//!    publishes nothing and its client observes
//!    [`ServiceError::Superseded`], while the superseding job's model is
//!    the only one registered.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::server::{DmsClient, DmsServer, DmsServerConfig, ServerHandle};
use fairdms_service::{DmsApi, ServiceError};
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

/// A server whose `UpdateModel` jobs train for `train_epochs` full epochs
/// (no early stopping), so a job reliably occupies the training executor
/// for a stretch.
fn spawn_server(seed: u64, train_epochs: usize) -> (DmsClient, ServerHandle) {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = train_epochs;
    tcfg.train.batch_size = 16;
    tcfg.train.patience = 0; // run the full budget
    tcfg.seed = seed;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let cfg = DmsServerConfig {
        auto_retrain: false,
        training_pool_size: 1,
        ..DmsServerConfig::default()
    };
    DmsServer::spawn(trainer, Box::new(|_| vec![0.5, 0.5]), cfg)
}

#[test]
fn ingest_and_reads_stay_live_while_a_model_trains() {
    let (client, handle) = spawn_server(0, 40);
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
            let result = client.update_model(x_new, 1);
            let took = started.elapsed();
            done.store(true, Ordering::Release);
            (result, took)
        })
    };

    // Mutate *and* read while the fine-tune occupies the executor. Every
    // round that starts and finishes before the update completes proves
    // the write plane never serialized behind the epoch loop.
    let (probe, probe_y) = blob_images(4, 2, 3);
    let mut writes_during_update = 0usize;
    let mut slowest_write = Duration::ZERO;
    let mut scan = 100;
    while !update_done.load(Ordering::Acquire) {
        let t0 = Instant::now();
        let (count, _) = client.ingest(probe.clone(), probe_y.clone(), scan).unwrap();
        let pdf = client.dataset_pdf(probe.clone()).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(count, 8);
        assert_eq!(pdf.len(), 2);
        if !update_done.load(Ordering::Acquire) {
            writes_during_update += 1;
            slowest_write = slowest_write.max(elapsed);
        }
        scan += 1;
    }
    let (update_result, update_took) = updater.join().unwrap();
    let (_, report) = update_result.expect("un-superseded update must publish");

    assert!(
        writes_during_update >= 3,
        "expected several ingest round-trips during a {update_took:?} update, got {writes_during_update}"
    );
    assert!(
        slowest_write < update_took,
        "an ingest ({slowest_write:?}) should never wait out the whole update ({update_took:?})"
    );

    // The acknowledged model is live, and the executor counters add up.
    let rec = client
        .recommend(client.dataset_pdf(probe).unwrap())
        .unwrap();
    assert_eq!(rec.ranked.len(), 1);
    assert_eq!(rec.ranked[0].0, report.registered_id);
    let m = client.metrics().unwrap();
    assert_eq!(m.training_jobs_started, 1);
    assert_eq!(m.training_jobs_completed, 1);
    assert_eq!(m.training_jobs_superseded, 0);
    // The metrics split can now attribute latency: ingest ran fast (run
    // time) even if it briefly queued, and update_model's run time spans
    // its whole background job.
    let ingest_run = m.op("ingest").unwrap();
    assert!(ingest_run.count >= writes_during_update as u64);
    assert_eq!(
        m.queue_op("ingest").unwrap().count,
        ingest_run.count,
        "every dequeued request records one queue wait"
    );
    assert!(
        m.op("update_model").unwrap().mean() >= m.op("ingest").unwrap().mean(),
        "a multi-epoch training job cannot run faster than an ingest"
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn newer_update_supersedes_the_running_job_at_an_epoch_boundary() {
    const EPOCHS: usize = 60;
    let (client, handle) = spawn_server(10, EPOCHS);
    let (x, y) = blob_images(30, 2, 11);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    // Job A: a full-budget fine-tune; records when its reply arrived.
    let first = {
        let client = client.clone();
        let (xa, _) = blob_images(40, 2, 12);
        thread::spawn(move || {
            let result = client.update_model(xa, 1);
            (result, Instant::now())
        })
    };
    // Wait until A is actually on the executor before superseding it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.metrics().unwrap().training_jobs_started < 1 {
        assert!(Instant::now() < deadline, "job A never started");
        thread::yield_now();
    }

    // Job B supersedes A: A is cancelled at its next epoch boundary and
    // must not publish; B trains the same budget and registers normally.
    let (xb, _) = blob_images(40, 2, 13);
    let b_submitted = Instant::now();
    let (_, report_b) = client.update_model(xb.clone(), 2).expect("job B publishes");

    let (result_a, a_replied) = first.join().unwrap();
    let err_a = result_a.expect_err("superseded job must not publish");
    assert_eq!(err_a, ServiceError::Superseded);

    // Epoch-boundary cancellation, not run-to-stale-completion: A's
    // Superseded reply must arrive within a few epochs of B's trigger.
    // Had A run out its remaining budget (~EPOCHS epochs of the same
    // workload B just timed), the gap would be close to B's whole
    // training time.
    let per_epoch = report_b.train_secs / report_b.epochs.max(1) as f64;
    let a_gap = a_replied
        .saturating_duration_since(b_submitted)
        .as_secs_f64();
    assert!(
        a_gap < per_epoch * (EPOCHS as f64 / 4.0) + 1.0,
        "A answered {a_gap:.2}s after being superseded; at ~{per_epoch:.3}s/epoch that is \
         not an epoch-boundary cancellation of its {EPOCHS}-epoch budget"
    );
    assert_eq!(report_b.epochs, EPOCHS, "B runs its configured budget");

    // Only B's model exists: the stale job registered nothing.
    let rec = client.recommend(client.dataset_pdf(xb).unwrap()).unwrap();
    assert_eq!(rec.ranked.len(), 1, "exactly one (the superseding) model");
    assert_eq!(rec.ranked[0].0, report_b.registered_id);

    let m = client.metrics().unwrap();
    assert_eq!(m.training_jobs_started, 2);
    assert_eq!(m.training_jobs_completed, 1);
    assert_eq!(m.training_jobs_superseded, 1);
    // The superseded request still recorded: one update_model error (A),
    // one success (B).
    let um = m.op("update_model").unwrap();
    assert_eq!(um.count, 2);
    assert_eq!(um.errors, 1);

    drop(client);
    handle.shutdown();
}

#[test]
fn train_system_supersedes_the_running_update() {
    // Far more epochs than the update can run before the re-bootstrap is
    // dequeued: the job is still training when its plane is replaced.
    let (client, handle) = spawn_server(20, 400);
    let (x, y) = blob_images(30, 2, 21);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    let update = {
        let client = client.clone();
        let (xa, _) = blob_images(40, 2, 22);
        thread::spawn(move || client.update_model(xa, 1))
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.metrics().unwrap().training_jobs_started < 1 {
        assert!(Instant::now() < deadline, "the update never started");
        thread::yield_now();
    }

    // A manual re-bootstrap replaces the plane the update trains from: the
    // update is cancelled now rather than fence-rejected 400 epochs later.
    let (other, _) = blob_images(30, 2, 23);
    client.train_system(other, embed_cfg()).unwrap();
    let err = update
        .join()
        .unwrap()
        .expect_err("stale update must not publish");
    assert_eq!(err, ServiceError::Superseded);

    let view = client.current_view();
    assert_eq!(
        view.zoo.len(),
        0,
        "the superseded update registered nothing"
    );
    assert_eq!(view.system.as_ref().unwrap().version(), 1);
    let m = client.metrics().unwrap();
    assert_eq!(m.training_jobs_started, 1);
    assert_eq!(m.training_jobs_completed, 0);
    assert_eq!(m.training_jobs_superseded, 1, "counted once, at the cancel");
    assert_eq!(m.system_retrains, 0, "a bootstrap is not a retrain");

    drop(client);
    handle.shutdown();
}
