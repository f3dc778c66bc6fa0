//! The dispatch rule at run time (DESIGN.md §9): a request-sized read opens
//! no parallel region, a batch that clears `ops::PAR_MIN_WORK` does, and
//! the answer is the same to the bit either side of the gate.
//!
//! The rayon shim counts the regions the calling thread has spawned workers
//! for (`rayon::regions_opened`, a shim-only diagnostic); every read below
//! runs inside a three-wide `ThreadPool::install`, so an ungated site would
//! spawn no matter how many cores the test host has.

use fairdms_clustering::{fuzzy, KMeans, KMeansConfig};
mod common;

use common::PassthroughEmbedder;
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::{FairDS, FairDsConfig, SystemSnapshot};
use fairdms_tensor::ops::{PAR_MIN_WORK, POWF_WORK};
use fairdms_tensor::{rng::TensorRng, Tensor};
use rayon::{regions_opened, ThreadPoolBuilder};

const DIM: usize = 8;
const K: usize = 8;
const ROWS_PER_CLUSTER: usize = 600;

/// `n` rows cycling over `K` well-separated blobs (blob `i % K` for row
/// `i`), so any batch of two or more rows touches two or more clusters.
fn blobs(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seeded(seed);
    let mut data = Vec::with_capacity(n * DIM);
    for i in 0..n {
        for j in 0..DIM {
            let center = if j == i % K { 10.0 } else { 0.0 };
            data.push(center + rng.next_normal_with(0.0, 0.5));
        }
    }
    Tensor::from_vec(data, &[n, DIM])
}

/// A trained fairDS whose every cluster is large enough to be
/// ball-partitioned under the default read-index layout.
fn partitioned_snapshot() -> std::sync::Arc<SystemSnapshot> {
    let mut ds = FairDS::in_memory(
        Box::new(PassthroughEmbedder { width: DIM }),
        FairDsConfig {
            k: Some(K),
            ..FairDsConfig::default()
        },
    );
    let history = blobs(K * ROWS_PER_CLUSTER, 1);
    ds.train_system(&history, &EmbedTrainConfig::default());
    assert!(ROWS_PER_CLUSTER >= ds.config().read_index.min_cluster_rows);
    let labels = Tensor::from_vec(vec![0.5; history.shape()[0] * 2], &[history.shape()[0], 2]);
    ds.ingest_labeled(&history, &labels, 0);
    ds.snapshot().expect("trained")
}

/// Every user-plane read of the snapshot on one batch.
fn read_everything(snap: &SystemSnapshot, batch: &Tensor) -> Vec<f64> {
    let pdf = snap.dataset_pdf(batch);
    snap.certainty(batch);
    snap.pseudo_label(batch, f32::INFINITY, |_| vec![0.0, 0.0]);
    snap.nearest_labeled(batch);
    snap.lookup_matching(&pdf, batch.shape()[0]);
    pdf
}

#[test]
fn request_sized_reads_open_no_region_and_large_batches_do() {
    let wide = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let narrow = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let snap = partitioned_snapshot();

    wide.install(|| {
        // The first read builds the index (store-sized, may fan out).
        snap.nearest_labeled(&blobs(2, 2));
        for n in [16, 64] {
            let batch = blobs(n, 3 + n as u64);
            let pruned = snap.read_index_counters().balls_pruned();
            let before = regions_opened();
            let pdf = read_everything(&snap, &batch);
            assert_eq!(
                regions_opened() - before,
                0,
                "a {n}-frame read opened a parallel region"
            );
            assert!(
                pdf.iter().filter(|&&p| p > 0.0).count() >= 2,
                "batch stayed in one cluster: {pdf:?}"
            );
            assert!(
                snap.read_index_counters().balls_pruned() > pruned,
                "the routed clusters are not ball-partitioned"
            );
        }
    });

    // A batch whose search (a few microseconds a query) and whose
    // membership matrix both clear the gate.
    let n = 4096;
    assert!(n * K * (DIM + K * POWF_WORK) >= PAR_MIN_WORK);
    let big = blobs(n, 9);
    let kmeans = KMeans::fit(&big, &KMeansConfig::new(K));
    // Distance bits and the winner's stored pixels (its own embedding,
    // under the identity embedder).
    let nearest = |snap: &SystemSnapshot| -> Vec<Option<(u32, Vec<u32>)>> {
        let bits = |px: &[f32]| px.iter().map(|v| v.to_bits()).collect();
        snap.nearest_labeled(&big)
            .into_iter()
            .map(|hit| hit.map(|(d, doc)| (d.to_bits(), bits(doc.get_f32s("pixels").unwrap()))))
            .collect()
    };

    let before = regions_opened();
    let (near_1, u_1) = narrow.install(|| {
        (
            nearest(&snap),
            fuzzy::memberships(&big, &kmeans, fuzzy::DEFAULT_FUZZIFIER),
        )
    });
    assert_eq!(regions_opened(), before, "a one-wide pool spawns nothing");
    let (near_3, u_3, opened) = wide.install(|| {
        let before = regions_opened();
        let near = nearest(&snap);
        let searched = regions_opened() - before;
        let u = fuzzy::memberships(&big, &kmeans, fuzzy::DEFAULT_FUZZIFIER);
        (near, u, (searched, regions_opened() - before - searched))
    });
    assert!(opened.0 > 0, "a {n}-query search stayed on one thread");
    assert!(
        opened.1 > 0,
        "a {n}-row membership matrix stayed on one thread"
    );
    assert!(near_1.iter().all(Option::is_some));
    assert_eq!(near_1, near_3, "routed search differs across the gate");
    let bits = |u: &Tensor| u.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&u_1), bits(&u_3), "memberships differ across the gate");
}
