//! The O(copy) retrain-install contract (ROADMAP open item 2).
//!
//! `RetrainJob::train` embeds the entire captured store when it fits the
//! clustering; `FairDS::install_retrained` must *reuse* that matrix — a
//! pure write-back by `DocId` — instead of re-running the embedder over
//! the store on the mutation actor. These tests instrument the embedder
//! itself and count forward passes across every live copy (builder,
//! snapshot, training job), pinning:
//!
//! * **zero** forward passes at install time for docs captured by
//!   `prepare_retrain`, regardless of whether the reuse cache is enabled;
//! * **exactly one** delta batch for docs ingested mid-flight;
//! * a warm post-install cache: the first read burst over the captured
//!   frames is served without touching the embedder.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig, Embedder};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SIDE: usize = 8;
const DIM: usize = SIDE * SIDE;

/// Wraps a real embedder and counts `embed` traffic. Clones share the
/// counters, so the totals cover the builder's copy, every published
/// snapshot's copy, and the training job's copy alike.
#[derive(Clone)]
struct CountingEmbedder {
    inner: Box<dyn Embedder>,
    batches: Arc<AtomicUsize>,
    rows: Arc<AtomicUsize>,
}

impl Embedder for CountingEmbedder {
    fn embed_dim(&self) -> usize {
        self.inner.embed_dim()
    }
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        self.inner.fit_controlled(images, cfg, ctl)
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.rows.fetch_add(images.shape()[0], Ordering::SeqCst);
        self.inner.embed(images)
    }
}

struct Counters {
    batches: Arc<AtomicUsize>,
    rows: Arc<AtomicUsize>,
}

impl Counters {
    fn reset(&self) {
        self.batches.store(0, Ordering::SeqCst);
        self.rows.store(0, Ordering::SeqCst);
    }
    fn read(&self) -> (usize, usize) {
        (
            self.batches.load(Ordering::SeqCst),
            self.rows.load(Ordering::SeqCst),
        )
    }
}

fn counting_fairds(cache: EmbedCacheConfig, seed: u64) -> (FairDS, Counters) {
    let counters = Counters {
        batches: Arc::new(AtomicUsize::new(0)),
        rows: Arc::new(AtomicUsize::new(0)),
    };
    let embedder = CountingEmbedder {
        inner: Box::new(AutoencoderEmbedder::new(DIM, 32, 8, seed)),
        batches: Arc::clone(&counters.batches),
        rows: Arc::clone(&counters.rows),
    };
    let ds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            embed_cache: cache,
            ..FairDsConfig::default()
        },
    );
    (ds, counters)
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
fn install_copies_captured_docs_and_delta_embeds_only_mid_flight_ones() {
    let (mut ds, counters) = counting_fairds(EmbedCacheConfig::default(), 1);
    let (x, y) = blob_images(15, 2, 2);
    ds.train_system(&x, &embed_cfg());
    ds.ingest_labeled(&x, &y, 0);

    let (fresh, _) = blob_images(5, 2, 3);
    let job = ds.prepare_retrain(&fresh);
    assert_eq!(job.captured_docs(), 30);
    let trained = job
        .train(&embed_cfg(), &TrainControl::new())
        .expect("uncancelled");

    // Mid-flight ingest while the job "trains in the background".
    let (mid, mid_y) = blob_images(4, 2, 4);
    ds.ingest_labeled(&mid, &mid_y, 1);

    counters.reset();
    let install = ds.install_retrained(trained);
    let (batches, rows) = counters.read();
    assert_eq!(install.copied, 30);
    assert_eq!(install.delta_embedded, 8);
    assert_eq!(
        batches, 1,
        "install must issue exactly one delta embed batch"
    );
    assert_eq!(
        rows, 8,
        "install must embed only the mid-flight docs, never the captured store"
    );
}

#[test]
fn install_with_no_mid_flight_docs_touches_the_embedder_zero_times() {
    let (mut ds, counters) = counting_fairds(EmbedCacheConfig::default(), 10);
    let (x, y) = blob_images(12, 2, 11);
    ds.train_system(&x, &embed_cfg());
    ds.ingest_labeled(&x, &y, 0);

    let (fresh, _) = blob_images(4, 2, 12);
    let trained = ds
        .prepare_retrain(&fresh)
        .train(&embed_cfg(), &TrainControl::new())
        .expect("uncancelled");

    counters.reset();
    let install = ds.install_retrained(trained);
    let (batches, rows) = counters.read();
    assert_eq!(install.copied, 24);
    assert_eq!(install.delta_embedded, 0);
    assert_eq!(
        (batches, rows),
        (0, 0),
        "a quiescent install is a pure copy: zero forward passes"
    );

    // The install bulk-warmed the new generation with the shipped rows:
    // the first post-retrain read burst over the captured frames is
    // served entirely from the memo table.
    let snap = ds.snapshot().expect("retrained");
    counters.reset();
    let z = snap.embed_cached(&x);
    assert_eq!(
        counters.read(),
        (0, 0),
        "warmed generation must serve the captured frames without a forward pass"
    );
    // And the served values are the real thing.
    assert_eq!(z, snap.embedder().embed(&x));
}

#[test]
fn zero_forward_pass_install_does_not_depend_on_the_reuse_cache() {
    // The O(copy) contract is a property of the shipped write-back, not
    // of cache warming: with memoization disabled entirely, captured docs
    // still install as copies and only the mid-flight delta pays.
    let (mut ds, counters) = counting_fairds(EmbedCacheConfig { capacity: 0 }, 20);
    let (x, y) = blob_images(10, 2, 21);
    ds.train_system(&x, &embed_cfg());
    ds.ingest_labeled(&x, &y, 0);

    let (fresh, _) = blob_images(4, 2, 22);
    let trained = ds
        .prepare_retrain(&fresh)
        .train(&embed_cfg(), &TrainControl::new())
        .expect("uncancelled");
    let (mid, mid_y) = blob_images(3, 2, 23);
    ds.ingest_labeled(&mid, &mid_y, 1);

    counters.reset();
    let install = ds.install_retrained(trained);
    let (batches, rows) = counters.read();
    assert_eq!(install.copied, 20);
    assert_eq!(install.delta_embedded, 6);
    assert_eq!((batches, rows), (1, 6), "cacheless install still O(copy)");

    // Stored docs all carry embeddings consistent with the new plane.
    let snap = ds.snapshot().expect("retrained");
    for id in ds.store().ids() {
        let doc = ds.store().get(id).expect("doc");
        let pixels = doc.get_f32s("pixels").expect("pixels").to_vec();
        let row = Tensor::from_vec(pixels, &[1, DIM]);
        assert_eq!(
            doc.get_f32s("embedding").expect("embedding"),
            snap.embedder().embed(&row).row(0)
        );
    }
}
