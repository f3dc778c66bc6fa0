//! Integration tests for the fairDMS service layer: lifecycle, validation,
//! concurrent clients, the certainty-triggered system plane, and metrics.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::server::{DmsClient, DmsServerConfig, FallbackLabeler};
use fairdms_service::{
    DmsApi, MultiDms, NetServerConfig, PipelinedClient, ServiceError, TenantSpec,
};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::thread;

const SIDE: usize = 8;

/// A one-tenant deployment (tenant 0) and that tenant's in-process client.
fn spawn_one(
    trainer: RapidTrainer,
    labeler: FallbackLabeler,
    config: DmsServerConfig,
) -> (DmsClient, MultiDms) {
    let dms = MultiDms::builder(1)
        .tenant(TenantSpec { id: 0, config }, trainer, labeler)
        .spawn();
    (dms.client(0).expect("tenant 0").clone(), dms)
}

/// Gaussian blob images at `n_modes` fixed centers plus center labels.
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

fn spawn_server_k(seed: u64, auto_retrain: bool, k: usize) -> (DmsClient, MultiDms) {
    let ds_cfg = FairDsConfig {
        k: Some(k),
        // Calibrated for this fixture the way deployments calibrate
        // (see examples/service_deployment.rs): measured certainty is
        // 1.0 on in-distribution blobs, ~0.50 on unseen uniform noise,
        // and ~0.63 on noise after the triggered retrain absorbs it, so
        // the threshold sits between trigger and absorbed.
        certainty_threshold: 0.55,
        ..FairDsConfig::default()
    };
    spawn_server_over(seed, auto_retrain, ds_cfg)
}

fn trainer_over(seed: u64, ds_cfg: FairDsConfig) -> RapidTrainer {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let fairds = FairDS::in_memory(Box::new(embedder), ds_cfg);
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 4;
    tcfg.train.batch_size = 16;
    tcfg.seed = seed;
    RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg)
}

fn spawn_server_over(seed: u64, auto_retrain: bool, ds_cfg: FairDsConfig) -> (DmsClient, MultiDms) {
    let cfg = DmsServerConfig {
        auto_retrain,
        retrain_embed_cfg: embed_cfg(),
        ..DmsServerConfig::default()
    };
    spawn_one(
        trainer_over(seed, ds_cfg),
        Box::new(|_| vec![0.5, 0.5]),
        cfg,
    )
}

fn spawn_server(seed: u64, auto_retrain: bool) -> (DmsClient, MultiDms) {
    spawn_server_k(seed, auto_retrain, 2)
}

/// Polls `cond` until it holds or a generous deadline passes. Background
/// training jobs complete asynchronously; tests asserting on their
/// *installed* effects wait for the installation instead of assuming the
/// triggering ack already carries it.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        thread::yield_now();
    }
}

#[test]
fn lifecycle_train_ingest_pdf_lookup() {
    let (client, handle) = spawn_server(0, false);
    let (x, y) = blob_images(20, 2, 1);

    let k = client.train_system(x.clone(), embed_cfg()).unwrap();
    assert_eq!(k, 2);
    let (count, retrained) = client.ingest(x.clone(), y, 0).unwrap();
    assert_eq!(count, 40);
    assert!(!retrained);

    let pdf = client.dataset_pdf(x).unwrap();
    assert_eq!(pdf.len(), 2);
    assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let docs = client.lookup(pdf, 10).unwrap();
    assert_eq!(docs.len(), 10);
    assert!(docs.iter().all(|d| d.get_f32s("label").is_some()));

    drop(client);
    handle.shutdown();
}

/// The embedding-reuse cache behind a server is the one the trainer's
/// `FairDsConfig::embed_cache` sized (DESIGN.md §8): spawning neither swaps a
/// disabled cache for a default-sized one nor grows a small one.
#[test]
fn the_trainers_embed_cache_sizing_survives_spawn() {
    let spawn_with = |capacity: usize| {
        let ds_cfg = FairDsConfig {
            k: Some(2),
            embed_cache: EmbedCacheConfig { capacity },
            ..FairDsConfig::default()
        };
        spawn_server_over(70, false, ds_cfg)
    };
    let (x, _) = blob_images(8, 2, 71); // one 16-frame batch

    // Capacity 0 stays uncached however often the batch repeats.
    let (client, handle) = spawn_with(0);
    client.train_system(x.clone(), embed_cfg()).expect("train");
    for _ in 0..3 {
        client.dataset_pdf(x.clone()).expect("pdf");
    }
    let stats = client.metrics().expect("metrics").embed_cache;
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.misses, 0, "a disabled cache is not even probed");
    handle.shutdown();

    // Two entries cannot hold sixteen frames.
    let (client, handle) = spawn_with(2);
    client.train_system(x.clone(), embed_cfg()).expect("train");
    client.dataset_pdf(x).expect("pdf");
    let stats = client.metrics().expect("metrics").embed_cache;
    assert!(
        stats.evictions > 0,
        "a two-entry cache must evict: {stats:?}"
    );
    handle.shutdown();
}

#[test]
fn requests_before_training_are_rejected() {
    let (client, handle) = spawn_server(2, false);
    let (x, y) = blob_images(4, 1, 3);
    assert_eq!(
        client.ingest(x.clone(), y, 0).unwrap_err(),
        ServiceError::NotReady
    );
    assert_eq!(
        client.dataset_pdf(x.clone()).unwrap_err(),
        ServiceError::NotReady
    );
    assert_eq!(client.certainty(x).unwrap_err(), ServiceError::NotReady);
    assert_eq!(
        client.lookup(vec![0.5, 0.5], 1).unwrap_err(),
        ServiceError::NotReady
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn shape_validation_rejects_garbage() {
    let (client, handle) = spawn_server(4, false);
    let (x, y) = blob_images(10, 2, 5);
    client.train_system(x.clone(), embed_cfg()).unwrap();

    // Empty images.
    let empty = Tensor::from_vec(vec![], &[0, SIDE * SIDE]);
    assert!(matches!(
        client.dataset_pdf(empty).unwrap_err(),
        ServiceError::Invalid(_)
    ));
    // Mismatched label rows.
    let bad_y = Tensor::from_vec(vec![0.0; 2], &[1, 2]);
    assert!(matches!(
        client.ingest(x.clone(), bad_y, 0).unwrap_err(),
        ServiceError::Invalid(_)
    ));
    // PDF of the wrong length.
    client.ingest(x, y, 0).unwrap();
    assert!(matches!(
        client.lookup(vec![1.0], 1).unwrap_err(),
        ServiceError::Invalid(_)
    ));
    drop(client);
    handle.shutdown();
}

/// `EmbedTrainConfig` is input too: six numbers anyone can put in a
/// well-formed `TrainSystem`. Each row below once unwound the actor in the
/// optimizer's or the loss's assertion (or held it for as long as
/// `usize::MAX` epochs take), the request answered `Unavailable` and the
/// tenant was poisoned for good. Each must answer `Invalid` before anything
/// is superseded or published: the update in flight beside them completes,
/// the plane stays the one good `TrainSystem`'s, and the tenant goes on
/// training, ingesting and reading.
#[test]
fn a_hostile_embed_config_is_invalid_and_supersedes_nothing() {
    // A long fit, so the update is still on the executor while the rows go by.
    let mut trainer = trainer_over(20, FairDsConfig::default());
    trainer.config_mut().train.epochs = 300;
    trainer.config_mut().train.patience = 0;
    let (client, handle) = spawn_one(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    let (x, y) = blob_images(10, 2, 21);
    let good = embed_cfg();
    client.train_system(x.clone(), good.clone()).unwrap();
    client.ingest(x.clone(), y.clone(), 0).unwrap();
    let version = || client.current_view().system.as_ref().unwrap().version();
    let made = version();

    let update = {
        let (client, x) = (client.clone(), x.clone());
        thread::spawn(move || client.update_model(x, 1))
    };
    wait_until("the update to reach the executor", || {
        client.metrics().unwrap().training_jobs_started == 1
    });

    let max = fairdms_service::MAX_EMBED_EPOCHS;
    let rows: Vec<(&str, EmbedTrainConfig)> = vec![
        (
            "lr NaN",
            EmbedTrainConfig {
                lr: f32::NAN,
                ..good.clone()
            },
        ),
        (
            "lr 0",
            EmbedTrainConfig {
                lr: 0.0,
                ..good.clone()
            },
        ),
        (
            "lr < 0",
            EmbedTrainConfig {
                lr: -1e-3,
                ..good.clone()
            },
        ),
        (
            "lr inf",
            EmbedTrainConfig {
                lr: f32::INFINITY,
                ..good.clone()
            },
        ),
        (
            "temperature 0",
            EmbedTrainConfig {
                temperature: 0.0,
                ..good.clone()
            },
        ),
        (
            "temperature < 0",
            EmbedTrainConfig {
                temperature: -0.5,
                ..good.clone()
            },
        ),
        (
            "temperature NaN",
            EmbedTrainConfig {
                temperature: f32::NAN,
                ..good.clone()
            },
        ),
        (
            "tau < 0",
            EmbedTrainConfig {
                tau: -0.1,
                ..good.clone()
            },
        ),
        (
            "tau > 1",
            EmbedTrainConfig {
                tau: 1.1,
                ..good.clone()
            },
        ),
        (
            "tau NaN",
            EmbedTrainConfig {
                tau: f32::NAN,
                ..good.clone()
            },
        ),
        (
            "batch_size 0",
            EmbedTrainConfig {
                batch_size: 0,
                ..good.clone()
            },
        ),
        (
            "epochs over the cap",
            EmbedTrainConfig {
                epochs: max + 1,
                ..good.clone()
            },
        ),
        (
            "epochs usize::MAX",
            EmbedTrainConfig {
                epochs: usize::MAX,
                ..good.clone()
            },
        ),
    ];
    for (what, cfg) in rows {
        let err = client.train_system(x.clone(), cfg).unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(_)), "{what}: {err:?}");
    }
    assert_eq!(version(), made, "a rejected bootstrap publishes nothing");
    update
        .join()
        .unwrap()
        .expect("a rejected bootstrap cancels nobody's update");
    assert_eq!(client.metrics().unwrap().training_jobs_superseded, 0);

    // The tenant serves on, and the bounds themselves are admitted.
    assert_eq!(client.ingest(x.clone(), y, 2).unwrap().0, 20);
    assert!(client.dataset_pdf(x.clone()).is_ok());
    let edge = EmbedTrainConfig {
        tau: 1.0,
        batch_size: 1,
        epochs: 0,
        ..good
    };
    client.train_system(x, edge).unwrap();
    assert_eq!(version(), made + 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn update_model_round_trips_a_checkpoint() {
    let (client, handle) = spawn_server(6, false);
    let (x, y) = blob_images(25, 2, 7);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let (x_new, _) = blob_images(15, 2, 8);
    let (ckpt, report) = client.update_model(x_new.clone(), 1).unwrap();
    assert!(!ckpt.is_empty());
    assert!(
        report.foundation.is_none(),
        "first update trains from scratch"
    );
    assert!(report.label_stats.reused > 0, "labels should be reused");

    // The published model is fetchable and ranks for similar data.
    let (fetched, pdf) = client.fetch(report.registered_id).unwrap();
    assert_eq!(fetched, ckpt);
    let rec = client.recommend(pdf).unwrap();
    assert!(rec.fine_tunable);
    assert_eq!(rec.ranked[0].0, report.registered_id);

    // A second update fine-tunes.
    let (x_next, _) = blob_images(15, 2, 9);
    let (_, report2) = client.update_model(x_next, 2).unwrap();
    assert_eq!(report2.foundation, Some(report.registered_id));

    drop(client);
    handle.shutdown();
}

#[test]
fn a_two_frame_update_trains_on_one_sample_batches() {
    // Two frames split into one training and one validation row: every
    // batch of the fit holds one sample, which runs whole, unsharded.
    let (client, handle) = spawn_server(6, false);
    let (x, y) = blob_images(25, 2, 7);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let (x_new, _) = blob_images(1, 2, 12);
    let (ckpt, report) = client.update_model(x_new, 1).unwrap();
    assert!(!ckpt.is_empty());
    assert_eq!(report.train_report.curve.len(), 4, "every epoch ran");
    assert!(report.train_report.final_val_loss().is_finite());

    drop(client);
    handle.shutdown();
}

#[test]
fn publish_and_fetch_external_models() {
    let (client, handle) = spawn_server(10, false);
    let arch = ArchSpec::BraggNN { patch: SIDE };
    let net = arch.build(11);
    let ckpt = fairdms_nn::checkpoint::save(&net);
    let id = client
        .publish("external", ckpt.clone(), vec![0.7, 0.3], 5)
        .unwrap();
    let (fetched, pdf) = client.fetch(id).unwrap();
    assert_eq!(fetched, ckpt);
    assert_eq!(pdf, vec![0.7, 0.3]);
    assert_eq!(
        client.fetch(id + 1).unwrap_err(),
        ServiceError::UnknownModel(id + 1)
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn a_forged_checkpoint_is_never_a_foundation_and_costs_nobody_else_anything() {
    // Checkpoint bytes are input. These sixteen sit behind the right magic
    // and version and claim 2³²−1 tensors: opened with the count trusted,
    // they abort the process in the allocator.
    let mut forged = b"FDMSCKPT".to_vec();
    forged.extend_from_slice(&1u32.to_le_bytes());
    forged.extend_from_slice(&u32::MAX.to_le_bytes());

    let mut builder = MultiDms::builder(1);
    for tenant in [1, 2] {
        let ds_cfg = FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        };
        let spec = TenantSpec {
            config: DmsServerConfig {
                auto_retrain: false,
                ..DmsServerConfig::default()
            },
            ..TenantSpec::new(tenant)
        };
        let trainer = trainer_over(40 + u64::from(tenant), ds_cfg);
        builder = builder.tenant(spec, trainer, Box::new(|_| vec![0.5, 0.5]));
    }
    let multi = builder.spawn();
    let net = multi
        .serve_tcp(("127.0.0.1", 0), NetServerConfig::default())
        .expect("bind");
    let one = PipelinedClient::connect_tcp_tenant(net.local_addr().unwrap(), 1).unwrap();
    let two = one.for_tenant(2);
    let (x, y) = blob_images(25, 2, 43);
    for api in [&one, &two] {
        api.train_system(x.clone(), embed_cfg()).unwrap();
        api.ingest(x.clone(), y.clone(), 0).unwrap();
    }

    // Published under the very PDF the update will ask with, so it ranks
    // first: the zoo stores what it is given and the bytes come back as
    // they went in.
    let (x_new, _) = blob_images(15, 2, 44);
    let pdf = one.dataset_pdf(x_new.clone()).unwrap();
    let forged_id = one
        .publish("forged", forged.clone(), pdf.clone(), 9)
        .unwrap();
    assert_eq!(one.recommend(pdf.clone()).unwrap().ranked[0].0, forged_id);

    // The update opens it, finds no checkpoint, and trains from scratch.
    let (ckpt, report) = one.update_model(x_new.clone(), 1).unwrap();
    assert!(report.foundation.is_none(), "{:?}", report.foundation);
    assert!(!ckpt.is_empty());
    assert_eq!(one.fetch(forged_id).unwrap(), (forged, pdf.clone()));
    assert_eq!(one.fetch(report.registered_id).unwrap().0, ckpt);

    // The connection, the tenant and its neighbour all keep serving.
    assert_eq!(one.dataset_pdf(x_new.clone()).unwrap(), pdf);
    assert_eq!(two.dataset_pdf(x_new.clone()).unwrap().len(), 2);
    let (_, neighbour) = two.update_model(x_new, 1).unwrap();
    assert!(neighbour.foundation.is_none(), "tenant 2's zoo was empty");

    drop((one, two));
    net.shutdown();
    multi.shutdown();
}

#[test]
fn concurrent_clients_share_one_consistent_state() {
    let (client, handle) = spawn_server(12, false);
    let (x, y) = blob_images(20, 2, 13);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    let mut workers = Vec::new();
    for t in 0..8u64 {
        let c = client.clone();
        workers.push(thread::spawn(move || {
            let (xt, yt) = blob_images(5, 2, 100 + t);
            for i in 0..5 {
                let pdf = c.dataset_pdf(xt.clone()).unwrap();
                assert_eq!(pdf.len(), 2);
                let docs = c.lookup(pdf, 4).unwrap();
                assert_eq!(docs.len(), 4);
                c.ingest(xt.clone(), yt.clone(), (t * 10 + i) as usize)
                    .unwrap();
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    // 40 primed + 8 threads × 5 rounds × 10 samples.
    let (x_probe, _) = blob_images(3, 2, 99);
    let c = client.certainty(x_probe).unwrap();
    assert!((0.0..=1.0).contains(&c));

    let m = client.metrics().unwrap();
    assert_eq!(m.op("ingest").unwrap().count, 41);
    assert_eq!(m.op("pdf").unwrap().count, 40);
    assert_eq!(m.op("lookup").unwrap().count, 40);
    assert_eq!(m.op("ingest").unwrap().errors, 0);
    // Every request was admitted: any queue-full blocks were healthy
    // backpressure, never rejections.
    assert_eq!(m.rejected, 0);

    drop(client);
    handle.shutdown();
}

#[test]
fn backpressure_waits_are_not_counted_as_rejections() {
    // A one-slot queue plus a slow first request forces later admissions
    // to hit `Full` and block; those must land in `backpressure_waits`
    // while `rejected` stays reserved for actual admission failures.
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 60);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    let trainer = RapidTrainer::new(fairds, ModelManager::default(), tcfg);
    let (client, handle) = spawn_one(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            queue_capacity: 1,
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    // Saturate the write plane: the actor is busy training while many
    // publishes contend for the single queue slot.
    let (x, _) = blob_images(20, 2, 61);
    let mut workers = Vec::new();
    let trainer_client = client.clone();
    let tx = x.clone();
    workers.push(thread::spawn(move || {
        trainer_client.train_system(tx, embed_cfg()).unwrap();
    }));
    let net = ArchSpec::BraggNN { patch: SIDE }.build(62);
    let ckpt = fairdms_nn::checkpoint::save(&net);
    for i in 0..8u64 {
        let c = client.clone();
        let ckpt = ckpt.clone();
        workers.push(thread::spawn(move || {
            c.publish(&format!("m{i}"), ckpt, vec![0.5, 0.5], i as usize)
                .unwrap();
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let m = client.metrics().unwrap();
    assert!(
        m.backpressure_waits > 0,
        "a one-slot queue under 9 concurrent writers must block at least once"
    );
    assert_eq!(
        m.rejected, 0,
        "blocked-but-served requests must not read as rejections"
    );
    // Shutting down and calling afterwards is a true rejection.
    drop(handle);
    assert_eq!(
        client.recommend(vec![0.5, 0.5]).unwrap_err(),
        ServiceError::Unavailable
    );
    assert_eq!(client.metrics().unwrap().rejected, 1);
}

#[test]
fn drift_triggers_system_plane_retrain() {
    // k must be >= 3: a 2-way fuzzy membership always has max >= 0.5, so
    // with k=2 the certainty monitor can never fire.
    let (client, handle) = spawn_server_k(14, true, 3);
    let (x, y) = blob_images(30, 3, 15);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    let (_, retrained) = client.ingest(x, y, 0).unwrap();
    assert!(!retrained, "in-distribution ingest must not trigger");

    // Far-out-of-distribution batch: certainty collapses, monitor fires.
    let noise = TensorRng::seeded(16).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let (_, retrained) = client.ingest(noise.clone(), labels, 1).unwrap();
    assert!(retrained, "drifted ingest should trigger the system plane");

    // The retrain runs on the background training executor; wait for it
    // to install before asserting on the refreshed models.
    wait_until("the triggered retrain to install", || {
        client.metrics().unwrap().system_retrains == 1
    });
    let m = client.metrics().unwrap();
    assert_eq!(m.system_retrains, 1);
    assert_eq!(m.training_jobs_completed, 1);

    // The refreshed models were fitted on blob+noise data, so the same
    // noise distribution no longer re-fires the trigger.
    let noise2 = TensorRng::seeded(17).uniform(&[30, SIDE * SIDE], -1.0, 1.0);
    let labels2 = Tensor::from_vec(vec![0.5; 60], &[30, 2]);
    let c = client.certainty(noise2.clone()).unwrap();
    assert!((0.0..=1.0).contains(&c));
    let (_, retrained_again) = client.ingest(noise2, labels2, 2).unwrap();
    assert!(
        !retrained_again,
        "retrained system should absorb the same distribution (certainty {c})"
    );

    drop(client);
    handle.shutdown();
}

#[test]
fn update_whose_own_batch_triggers_retrain_still_publishes() {
    // Regression: with the async executor, submitting the triggered
    // retrain as a background job would deterministically fence-reject
    // the very update that triggered it (the retrain installs first and
    // bumps the plane version). The monitor must run inline for update
    // requests, so the update trains against the refreshed plane and
    // publishes normally.
    let (client, handle) = spawn_server_k(14, true, 3);
    let (x, y) = blob_images(30, 3, 15);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let noise = TensorRng::seeded(16).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let (_, report) = client
        .update_model(noise, 1)
        .expect("self-triggered update must not be superseded");
    let m = client.metrics().unwrap();
    assert_eq!(m.system_retrains, 1, "the update's batch fired the monitor");
    assert_eq!(m.training_jobs_superseded, 0);
    assert_eq!(m.training_jobs_started, 2, "one retrain + one update");
    assert_eq!(m.training_jobs_completed, 2);
    assert!(client.fetch(report.registered_id).is_ok());
    drop(client);
    handle.shutdown();
}

#[test]
fn sustained_drift_does_not_starve_the_retrain() {
    // Regression: an ingest-triggered retrain used to be superseded by
    // the next drifted batch, so a drift stream faster than one refit
    // cancelled every retrain before it could install. New triggers are
    // skipped while a retrain is in flight; the running one installs.
    let (client, handle) = spawn_server_k(14, true, 3);
    let (x, y) = blob_images(30, 3, 15);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let noise1 = TensorRng::seeded(16).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let (_, retrained1) = client.ingest(noise1, labels.clone(), 1).unwrap();
    assert!(retrained1, "first drifted batch triggers");
    // Immediately drift again: either the retrain is still in flight
    // (trigger skipped) or it already installed and absorbed the noise
    // distribution (no trigger). Both must leave the first retrain
    // un-superseded.
    let noise2 = TensorRng::seeded(17).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let (_, retrained2) = client.ingest(noise2, labels, 2).unwrap();
    assert!(!retrained2, "in-flight retrain must not be re-triggered");

    wait_until("the first retrain to install", || {
        client.metrics().unwrap().system_retrains == 1
    });
    let m = client.metrics().unwrap();
    assert_eq!(m.training_jobs_started, 1);
    assert_eq!(m.training_jobs_superseded, 0, "no retrain was cancelled");
    assert_eq!(m.training_jobs_completed, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn training_job_panic_poisons_the_service_loudly() {
    use fairdms_core::embedding::{EmbedTrainConfig as ECfg, Embedder};
    use fairdms_nn::trainer::TrainControl;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    // An embedder that trains normally once (the bootstrap) and panics on
    // any refit — simulating a bug inside a background training job. The
    // fit counter is shared across `clone_embedder` copies, so the
    // retrain job's private clone still observes the bootstrap.
    struct FaultyEmbedder {
        inner: AutoencoderEmbedder,
        fits: Arc<AtomicUsize>,
    }
    impl Embedder for FaultyEmbedder {
        fn name(&self) -> &'static str {
            "faulty"
        }
        fn embed_dim(&self) -> usize {
            self.inner.embed_dim()
        }
        fn input_dim(&self) -> usize {
            self.inner.input_dim()
        }
        fn fit_controlled(&mut self, images: &Tensor, cfg: &ECfg, ctl: &TrainControl) -> bool {
            if self.fits.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 1 {
                panic!("embedder exploded mid-refit");
            }
            self.inner.fit_controlled(images, cfg, ctl)
        }
        fn embed(&self, images: &Tensor) -> Tensor {
            self.inner.embed(images)
        }
        fn clone_embedder(&self) -> Box<dyn Embedder> {
            Box::new(FaultyEmbedder {
                inner: self.inner.clone(),
                fits: Arc::clone(&self.fits),
            })
        }
    }

    let embedder = FaultyEmbedder {
        inner: AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 70),
        fits: Arc::new(AtomicUsize::new(0)),
    };
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(3),
            certainty_threshold: 0.55,
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let (client, handle) = spawn_one(
        trainer,
        Box::new(|_| vec![0.5, 0.5]),
        DmsServerConfig {
            auto_retrain: true,
            retrain_embed_cfg: embed_cfg(),
            ..DmsServerConfig::default()
        },
    );
    let (x, y) = blob_images(30, 3, 71);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    // Drift triggers a background retrain whose embedder fit panics.
    let noise = TensorRng::seeded(72).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let (_, retrained) = client.ingest(noise, labels, 1).unwrap();
    assert!(retrained, "drifted ingest should trigger the retrain");

    // The panic must surface as a poisoned, stopped service — never a
    // silently shrunk pool or a phantom forever-in-flight retrain.
    wait_until("the panicking job to poison the service", || {
        client.dataset_pdf(x.clone()) == Err(ServiceError::Unavailable)
    });
    assert_eq!(client.metrics().unwrap().system_retrains, 0);
    drop(client);
    handle.shutdown(); // joins the stopped actor without hanging
}

#[test]
fn dropping_the_handle_makes_live_clients_unavailable() {
    // Regression test for the shutdown deadlock: the handle must be able
    // to join the worker even while client clones are still alive.
    let (client, handle) = spawn_server(22, false);
    let (x, _) = blob_images(6, 2, 23);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    drop(handle); // joins the worker; `client` is still alive
    assert_eq!(
        client.dataset_pdf(x).unwrap_err(),
        ServiceError::Unavailable
    );
}

#[test]
fn server_survives_client_clones_dropping_midstream() {
    let (client, handle) = spawn_server(18, false);
    let (x, _) = blob_images(10, 2, 19);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    for _ in 0..4 {
        let c2 = client.clone();
        let xx = x.clone();
        thread::spawn(move || {
            let _ = c2.dataset_pdf(xx);
            // c2 dropped here while other clones continue.
        })
        .join()
        .unwrap();
    }
    assert!(client.dataset_pdf(x).is_ok());
    drop(client);
    handle.shutdown();
}

#[test]
fn metrics_histograms_cover_all_calls() {
    let (client, handle) = spawn_server(20, false);
    let (x, _) = blob_images(8, 2, 21);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    for _ in 0..10 {
        client.dataset_pdf(x.clone()).unwrap();
    }
    let m = client.metrics().unwrap();
    let pdf = m.op("pdf").unwrap();
    assert_eq!(pdf.count, 10);
    assert_eq!(pdf.histogram.iter().sum::<u64>(), 10);
    assert!(pdf.mean().as_nanos() > 0);
    assert!(pdf.quantile(0.5) <= pdf.quantile(1.0));
    assert!(m.total_calls() >= 11);
    drop(client);
    handle.shutdown();
}

#[test]
fn garbage_pdf_is_invalid_not_a_poisoned_service() {
    // Zero-mass / negative / non-finite PDFs used to unwind inside
    // `jsd`'s input assertions in the read handler.
    let (client, handle) = spawn_server(44, false);
    let net = ArchSpec::BraggNN { patch: SIDE }.build(45);
    client
        .publish("m", fairdms_nn::checkpoint::save(&net), vec![0.5, 0.5], 0)
        .unwrap();
    for bad in [vec![0.0, 0.0], vec![-0.5, 1.5], vec![f64::NAN, 1.0], vec![]] {
        assert!(
            matches!(
                client.recommend(bad.clone()).unwrap_err(),
                ServiceError::Invalid(_)
            ),
            "pdf {bad:?} must be rejected, not panic a worker"
        );
    }
    assert!(matches!(
        client.recommend_top_k(vec![0.5, 0.5], 0).unwrap_err(),
        ServiceError::Invalid(_)
    ));
    // Still alive.
    let rec = client.recommend(vec![0.5, 0.5]).unwrap();
    assert_eq!(rec.ranked.len(), 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn garbage_publish_pdf_is_invalid_not_a_dead_actor() {
    // Regression: a zero-mass/negative/NaN PDF used to slip past the
    // is_empty() check into `ModelZoo::add`, whose registration-time
    // normalization panics — unwinding (and poisoning) the write actor.
    let (client, handle) = spawn_server(64, false);
    let net = ArchSpec::BraggNN { patch: SIDE }.build(65);
    let ckpt = fairdms_nn::checkpoint::save(&net);
    for bad in [vec![0.0, 0.0], vec![-0.5, 1.5], vec![f64::NAN, 1.0], vec![]] {
        assert!(
            matches!(
                client
                    .publish("bad", ckpt.clone(), bad.clone(), 0)
                    .unwrap_err(),
                ServiceError::Invalid(_)
            ),
            "pdf {bad:?} must be rejected, not panic the actor"
        );
    }
    // The write plane survived.
    let id = client.publish("good", ckpt, vec![0.5, 0.5], 0).unwrap();
    assert_eq!(id, 0);
    drop(client);
    handle.shutdown();
}

#[test]
fn top_k_recommend_agrees_with_the_full_ranking() {
    let (client, handle) = spawn_server(46, false);
    let mut rng = TensorRng::seeded(47);
    for i in 0..24 {
        let pdf: Vec<f64> = (0..2).map(|_| rng.next_uniform(0.05, 1.0) as f64).collect();
        let net = ArchSpec::BraggNN { patch: SIDE }.build(i);
        client
            .publish(
                &format!("m{i}"),
                fairdms_nn::checkpoint::save(&net),
                pdf,
                i as usize,
            )
            .unwrap();
    }
    let query = vec![0.6, 0.4];
    let full = client.recommend(query.clone()).unwrap();
    assert_eq!(full.ranked.len(), 24);
    for k in [1usize, 5, 24, 50] {
        let top = client.recommend_top_k(query.clone(), k).unwrap();
        assert_eq!(top.ranked.len(), k.min(24));
        assert_eq!(top.fine_tunable, full.fine_tunable);
        for (a, b) in top.ranked.iter().zip(&full.ranked) {
            assert!((a.1 - b.1).abs() < 1e-12, "top-{k} prefix must match");
        }
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn republication_reuses_zoo_entry_allocations() {
    use std::sync::Arc;
    let (client, handle) = spawn_server(48, false);
    let (x, y) = blob_images(20, 2, 49);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();
    let net = ArchSpec::BraggNN { patch: SIDE }.build(50);
    client
        .publish(
            "seed",
            fairdms_nn::checkpoint::save(&net),
            vec![0.5, 0.5],
            0,
        )
        .unwrap();
    let view1 = client.current_view();
    assert_eq!(view1.zoo.len(), 1);

    // UpdateModel mutates the zoo (registers a new entry) and republishes:
    // the unchanged entry must be the same allocation, not a copy.
    let (x_new, _) = blob_images(10, 2, 51);
    client.update_model(x_new, 1).unwrap();
    let view2 = client.current_view();
    assert_eq!(view2.zoo.len(), 2);
    assert!(
        Arc::ptr_eq(&view1.zoo.entries()[0], &view2.zoo.entries()[0]),
        "republication after UpdateModel must structurally share unchanged entries"
    );

    // TrainSystem republishes without touching the zoo at all: the whole
    // cached zoo snapshot (hence every entry) is reused.
    client.train_system(x, embed_cfg()).unwrap();
    let view3 = client.current_view();
    for i in 0..view2.zoo.len() {
        assert!(
            Arc::ptr_eq(&view2.zoo.entries()[i], &view3.zoo.entries()[i]),
            "non-zoo republication must copy zero checkpoint bytes (entry {i})"
        );
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn rebootstrap_leaves_no_document_under_the_replaced_plane() {
    let (client, handle) = spawn_server(60, false);
    let (x, y) = blob_images(30, 2, 61);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y.clone(), 0).unwrap();

    // A second TrainSystem, on another batch and seed, replaces the
    // embedder and the clustering under the 60 stored documents.
    let (other, _) = blob_images(20, 2, 62);
    let reseeded = EmbedTrainConfig {
        seed: 7,
        ..embed_cfg()
    };
    client.train_system(other, reseeded).unwrap();

    let snap = client.current_view().system.clone().unwrap();
    assert_eq!(snap.version(), 1);
    assert_eq!(snap.store().len(), 60);
    for id in snap.store().ids() {
        let doc = snap.store().get(id).unwrap();
        let pixels = doc.get_f32s("pixels").unwrap().to_vec();
        let x1 = Tensor::from_vec(pixels, &[1, SIDE * SIDE]);
        assert_eq!(
            doc.get_f32s("embedding").unwrap(),
            snap.embedder().embed(&x1).row(0),
            "document {id:?} is embedded under the replaced embedder"
        );
        let cluster = snap.assign(&x1)[0] as i64;
        assert_eq!(doc.get_i64("cluster"), Some(cluster), "document {id:?}");
    }
    // Every stored frame is its own nearest stored neighbour, so labeling
    // the stored frames at the default threshold reuses every label.
    for (i, hit) in snap.nearest_labeled(&x).into_iter().enumerate() {
        let (dist, _) = hit.expect("every cluster holds its own rows");
        assert_eq!(dist, 0.0, "frame {i}");
    }
    let (labels, stats) = client.pseudo_label(x, f32::NAN).unwrap();
    assert_eq!((stats.reused, stats.computed), (60, 0));
    assert_eq!(labels.data(), y.data());

    // A bootstrap is neither a retrain nor a training job.
    let m = client.metrics().unwrap();
    let jobs = m.training_jobs_started + m.training_jobs_completed + m.training_jobs_superseded;
    assert_eq!((m.system_retrains, jobs), (0, 0));
    assert_eq!(m.retrain_docs_copied + m.retrain_docs_delta_embedded, 0);
    drop(client);
    handle.shutdown();
}

#[test]
fn ingest_triggered_retrain_republishes_sharing_zoo_entries() {
    use std::sync::Arc;
    // IngestLabeled republishes only when the certainty monitor fires; the
    // retrain changes the system plane, not the zoo, so the published zoo
    // entries must be the same allocations as before.
    // Same seeds as `drift_triggers_system_plane_retrain`, whose fixture
    // is calibrated so the noise batch actually fires the monitor.
    let (client, handle) = spawn_server_k(14, true, 3);
    let (x, y) = blob_images(30, 3, 15);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    let net = ArchSpec::BraggNN { patch: SIDE }.build(54);
    client
        .publish(
            "pre-drift",
            fairdms_nn::checkpoint::save(&net),
            vec![0.4, 0.3, 0.3],
            0,
        )
        .unwrap();
    client.ingest(x, y, 0).unwrap();
    let view1 = client.current_view();

    let noise = TensorRng::seeded(16).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let (_, retrained) = client.ingest(noise, labels, 1).unwrap();
    assert!(retrained, "drifted ingest should trigger the system plane");

    // The retrain installs asynchronously; wait for the version to move.
    let v1 = view1.system.as_ref().unwrap().version();
    wait_until("the retrained snapshot to publish", || {
        client
            .current_view()
            .system
            .as_ref()
            .is_some_and(|s| s.version() > v1)
    });
    let view2 = client.current_view();
    assert!(
        Arc::ptr_eq(&view1.zoo.entries()[0], &view2.zoo.entries()[0]),
        "retrain republication must reuse the untouched zoo entry"
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn worker_panic_surfaces_as_unavailable_not_a_hang() {
    // Failure injection: a fallback labeler that panics kills the worker
    // thread mid-request. The in-flight client must observe Unavailable
    // (its one-shot reply sender is dropped during unwind), and so must
    // every later call — never a hang.
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 30);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 2;
    let trainer = RapidTrainer::new(fairds, ModelManager::default(), tcfg);
    let (client, handle) = spawn_one(
        trainer,
        Box::new(|_| panic!("labeler exploded")),
        DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
    );
    let (x, _) = blob_images(10, 2, 31);
    client.train_system(x.clone(), embed_cfg()).unwrap();

    // Empty store ⇒ every sample needs the fallback ⇒ the labeler panics.
    let err = client.pseudo_label(x.clone(), 0.5).unwrap_err();
    assert_eq!(err, ServiceError::Unavailable);
    // The server is gone; subsequent calls fail fast.
    assert_eq!(
        client.dataset_pdf(x).unwrap_err(),
        ServiceError::Unavailable
    );
    drop(client);
    handle.shutdown(); // joins the dead worker without hanging
}
