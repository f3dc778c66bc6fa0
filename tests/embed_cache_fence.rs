//! Generation fencing of the data-reuse plane (DESIGN.md §8).
//!
//! The dangerous failure mode of an embedding memo table is serving an
//! embedding computed by a *replaced* embedder: cluster assignments,
//! PDFs and pseudo-labels would silently mix two incompatible geometric
//! spaces. These tests pin the fence from both ends:
//!
//! * core level — a retrain publication must atomically invalidate every
//!   pre-publication entry (new snapshot reads are bit-identical to the
//!   new embedder, never the old one), while *old* snapshots still held
//!   by readers keep answering with their own frozen models;
//! * service level — a completed `UpdateModel`-triggered (and an
//!   ingest-triggered) system retrain must flip the read plane onto the
//!   new generation before any post-publication read can observe a
//!   cached pre-publication embedding.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::server::{DmsClient, DmsServerConfig, FallbackLabeler};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;

const SIDE: usize = 8;
const DIM: usize = SIDE * SIDE;

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
        Tensor::from_vec(data, &[per_mode * n_modes, DIM]),
        Tensor::from_vec(labels, &[per_mode * n_modes, 2]),
    )
}

fn embed_cfg() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 4,
        batch_size: 16,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    }
}

#[test]
fn retrain_publication_fences_cached_embeddings() {
    let (x, y) = blob_images(20, 2, 40);
    let embedder = AutoencoderEmbedder::new(DIM, 32, 8, 41);
    let mut ds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    ds.train_system(&x, &embed_cfg());
    ds.ingest_labeled(&x, &y, 0);
    let snap_a = ds.snapshot().expect("trained");

    // Warm the cache with generation-A embeddings of the stored batch
    // *and* of a transient batch that is neither stored nor part of the
    // upcoming retrain (so the O(copy) install's bulk warm cannot replace
    // its entries — they stay resident under generation A).
    let z_a = snap_a.embed_cached(&x);
    assert_eq!(z_a, snap_a.embedder().embed(&x), "gen-A cached == direct");
    let (x_extra, _) = blob_images(6, 2, 43);
    let z_extra_a = snap_a.embed_cached(&x_extra);
    let warmed = snap_a.embed_cache().stats();
    assert!(warmed.misses > 0, "warm pass must have installed entries");

    // Retrain: new embedder, new snapshot, same shared cache. The O(copy)
    // install bulk-warms the new generation with the rows the training
    // job embedded (the captured store + the fresh trigger batch).
    let (fresh, _) = blob_images(10, 2, 42);
    ds.retrain_system(&fresh, &embed_cfg());
    let snap_b = ds.snapshot().expect("retrained");
    assert!(snap_b.version() > snap_a.version());

    // The poisoning scenario, warmed flavor: the stored batch's entries
    // were *replaced* by the install's warm pass — reads through the new
    // snapshot must serve the new embedder's output, bit-for-bit.
    let z_b = snap_b.embed_cached(&x);
    assert_eq!(
        z_b,
        snap_b.embedder().embed(&x),
        "post-publication reads must never serve pre-publication cache entries"
    );
    assert_ne!(
        z_a, z_b,
        "sanity: the retrain actually changed the embedding space"
    );
    // The poisoning scenario, resident flavor: the transient batch still
    // sits in the table under generation A. The fence must find those
    // keys, refuse them, and recompute under the new embedder.
    let stale_before = snap_b.embed_cache().stats().stale_generation;
    let z_extra_b = snap_b.embed_cached(&x_extra);
    assert_eq!(
        z_extra_b,
        snap_b.embedder().embed(&x_extra),
        "resident gen-A entries must be refused, not served"
    );
    assert!(
        snap_b.embed_cache().stats().stale_generation > stale_before,
        "the generation fence should have intercepted the resident stale entries"
    );
    assert_ne!(z_extra_a, z_extra_b, "sanity: geometry changed");

    // A reader still holding the old snapshot keeps its frozen geometry:
    // recomputation under generation A matches what it saw before the
    // retrain, even though its inserts are now rejected.
    let z_a_again = snap_a.embed_cached(&x);
    assert_eq!(z_a_again, z_a, "old snapshots stay frozen after the fence");
}

/// Trigger calibration mirrors `service_integration.rs`: measured
/// certainty is ~1.0 on in-distribution blobs and ~0.50 on unseen uniform
/// noise, so 0.55 sits between "drifted" and "absorbed".
const TRIGGER_THRESHOLD: f64 = 0.55;

#[test]
fn update_model_triggered_retrain_never_serves_stale_embeddings() {
    let (x, y) = blob_images(30, 3, 50);
    let noise = TensorRng::seeded(52).uniform(&[60, DIM], -1.0, 1.0);
    let embedder = AutoencoderEmbedder::new(DIM, 32, 8, 51);
    let mut fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(3),
            seed: 51,
            embed_cache: EmbedCacheConfig { capacity: 1024 },
            ..FairDsConfig::default()
        },
    );
    // Train and *calibrate* before deployment, exactly as
    // examples/service_deployment.rs does: the trigger threshold is the
    // midpoint between measured in-distribution and drifted certainty.
    fairds.train_system(&x, &embed_cfg());
    let system = fairds.snapshot().expect("trained above");
    let c_in = system.certainty(&x);
    let c_out = system.certainty(&noise);
    assert!(c_out < c_in, "noise must read as drift ({c_out} vs {c_in})");
    fairds.set_certainty_threshold((c_in + c_out) / 2.0);
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 3;
    tcfg.train.batch_size = 16;
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
    client.ingest(x.clone(), y, 0).expect("prime");

    // Warm the read plane's cache with the historical batch, plus a
    // transient batch that is neither stored nor the retrain trigger —
    // its entries stay resident under generation 0 across the install's
    // bulk warm, so they exercise the fence's refuse-and-recompute path.
    let pdf_before = client.dataset_pdf(x.clone()).expect("pdf");
    let (x_extra, _) = blob_images(8, 3, 53);
    let _ = client.dataset_pdf(x_extra.clone()).expect("pdf");
    let sys_before = client.current_view().system.clone().expect("trained");
    let hits_baseline = client.metrics().expect("metrics").embed_cache;

    // Confirm the warm path actually hits before the publication.
    let _ = client.dataset_pdf(x.clone()).expect("pdf");
    let warmed = client.metrics().expect("metrics").embed_cache;
    assert!(
        warmed.hits > hits_baseline.hits,
        "repeated query must hit the cache pre-retrain ({hits_baseline:?} -> {warmed:?})"
    );

    // Drifted `UpdateModel`: the certainty monitor fires and completes an
    // *inline* retrain before the update is prepared — a new generation
    // is published under the same shared cache.
    client.update_model(noise, 1).expect("update");
    let retrains = client.metrics().expect("metrics").system_retrains;
    assert!(retrains >= 1, "drifted update must trigger the retrain");

    // Post-publication reads of the *warmed* batch: must be computed by
    // the new embedder, never assembled from pre-publication entries.
    // (The O(copy) install warmed these exact rows into the new
    // generation, so this also checks the warm path shipped the right
    // values.)
    let sys_after = client.current_view().system.clone().expect("retrained");
    assert!(sys_after.version() > sys_before.version());
    let z_cached = sys_after.embed_cached(&x);
    assert_eq!(
        z_cached,
        sys_after.embedder().embed(&x),
        "read plane served a pre-publication cached embedding after UpdateModel"
    );
    // The transient batch's gen-0 entries are still resident: the fence
    // must refuse them and recompute under the new embedder.
    let stale_before = client.metrics().expect("metrics").embed_cache;
    assert_eq!(
        sys_after.embed_cached(&x_extra),
        sys_after.embedder().embed(&x_extra),
        "resident gen-0 entries must be refused, not served"
    );
    let stats = client.metrics().expect("metrics").embed_cache;
    assert!(
        stats.stale_generation > stale_before.stale_generation,
        "the fence should have intercepted resident gen-0 entries ({stats:?})"
    );
    // The install was O(copy): captured docs shipped as copies, and the
    // installs (ingest-triggered or update-inline) never re-embedded them.
    let snap_metrics = client.metrics().expect("metrics");
    assert!(
        snap_metrics.retrain_docs_copied > 0,
        "retrain install must write captured docs back by copy"
    );

    // PDFs over the old and new planes are both valid distributions; the
    // *old* snapshot still answers with its own (frozen) geometry.
    let pdf_after = client.dataset_pdf(x.clone()).expect("pdf");
    assert_eq!(pdf_after.len(), sys_after.k());
    assert!((pdf_after.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let pdf_old_snap = sys_before.dataset_pdf(&x);
    assert_eq!(pdf_old_snap, pdf_before, "old snapshot stays frozen");

    drop(client);
    handle.shutdown();
}

#[test]
fn ingest_triggered_async_retrain_fences_too() {
    let (x, y) = blob_images(30, 3, 60);
    let embedder = AutoencoderEmbedder::new(DIM, 32, 8, 61);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(3),
            seed: 61,
            certainty_threshold: TRIGGER_THRESHOLD,
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
    client.train_system(x.clone(), embed_cfg()).expect("train");
    client.ingest(x.clone(), y.clone(), 0).expect("prime");
    let _ = client.dataset_pdf(x.clone()).expect("warm");
    let v0 = client
        .current_view()
        .system
        .as_ref()
        .expect("sys")
        .version();

    // Drifted ingest: the retrain runs on the background executor; wait
    // for the fenced installation.
    let noise = TensorRng::seeded(62).uniform(&[60, DIM], -1.0, 1.0);
    let noise_labels = Tensor::zeros(&[60, 2]);
    let (_, retrained) = client.ingest(noise, noise_labels, 1).expect("drift");
    assert!(retrained, "drifted ingest must trigger");
    // `system_retrains` ticks before the new view is published, so wait
    // for the publication itself.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let sys = loop {
        let sys = client.current_view().system.clone().expect("sys");
        if sys.version() > v0 {
            break sys;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the background retrain never published a new generation"
        );
        std::thread::yield_now();
    };
    assert_eq!(
        sys.embed_cached(&x),
        sys.embedder().embed(&x),
        "async retrain publication must fence the cache atomically"
    );

    // The async install ran O(copy): the captured store shipped back as
    // copies, and the noise batch — ingested *after* `prepare_retrain`
    // captured the store, i.e. mid-flight — was delta-embedded. Either
    // way, every stored doc must carry the new embedder's embedding.
    let m = client.metrics().expect("metrics");
    assert!(
        m.retrain_docs_copied > 0,
        "async install must copy captured docs ({m:?})"
    );
    assert!(
        m.retrain_docs_delta_embedded > 0,
        "mid-flight ingested docs must be delta-embedded at install"
    );
    let store = sys.store();
    for id in store.ids() {
        let doc = store.get(id).expect("doc");
        let pixels = doc.get_f32s("pixels").expect("pixels").to_vec();
        let row = Tensor::from_vec(pixels, &[1, DIM]);
        assert_eq!(
            doc.get_f32s("embedding").expect("embedding"),
            sys.embedder().embed(&row).row(0),
            "stored embeddings must be consistent with the installed plane"
        );
    }

    drop(client);
    handle.shutdown();
}
