//! What a routed search *does*, as counts, on a fixed store: probes, balls
//! pruned by the triangle bound, rows that reach the exact pass. The
//! search keeps each query's probe-ball distances instead of evaluating
//! that ball a second time as a survivor, and borrows every buffer from a
//! per-thread scratch; neither may change which balls are pruned or which
//! rows are scanned. The numbers below were read off the implementation
//! that evaluated probe balls twice, on this store and these requests.

mod common;

use common::PassthroughEmbedder;
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_datastore::Document;
use fairdms_tensor::{rng::TensorRng, Tensor};

const DIM: usize = 8;
const K: usize = 4;
const ROWS_PER_CLUSTER: usize = 700;

/// `n` rows cycling over `K` separated blobs, each made of `DIM` tight
/// knots: a cluster's balls follow the knots, so a query prunes most of
/// them and keeps the few near its own.
fn blobs(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seeded(seed);
    let mut data = Vec::with_capacity(n * DIM);
    for i in 0..n {
        let knot = (i / K) % DIM;
        for j in 0..DIM {
            let center = if j == i % K { 10.0 } else { 0.0 };
            let offset = if j == knot { 2.0 } else { 0.0 };
            data.push(center + offset + rng.next_normal_with(0.0, 0.4));
        }
    }
    Tensor::from_vec(data, &[n, DIM])
}

#[test]
fn a_fixed_request_sequence_prunes_and_scans_what_it_always_did() {
    let mut ds = FairDS::in_memory(
        Box::new(PassthroughEmbedder { width: DIM }),
        FairDsConfig {
            k: Some(K),
            ..FairDsConfig::default()
        },
    );
    let history = blobs(K * ROWS_PER_CLUSTER, 1);
    ds.train_system(&history, &EmbedTrainConfig::default());
    let n = history.shape()[0];
    ds.ingest_labeled(&history, &Tensor::from_vec(vec![0.5; n * 2], &[n, 2]), 0);
    let snap = ds.snapshot().expect("trained");
    // Unlabeled rows beside the labeled ones: a label-donating search must
    // step over them, a plain nearest-row search must not.
    let extra = blobs(400, 2);
    for (row, cluster) in snap.assign(&extra).into_iter().enumerate() {
        let doc = Document::new()
            .with("cluster", cluster as i64)
            .with("embedding", extra.row(row).to_vec());
        ds.store().insert(&doc);
    }

    let counters = snap.read_index_counters();
    let mut seen = Vec::new();
    for (n, seed) in [(1, 10), (16, 11), (16, 12), (64, 13)] {
        let batch = blobs(n, seed);
        snap.nearest_labeled(&batch);
        snap.pseudo_label(&batch, f32::INFINITY, |_| vec![0.0, 0.0]);
        seen.push((
            counters.probes(),
            counters.balls_pruned(),
            counters.candidates_scanned(),
        ));
    }
    assert_eq!(
        seen,
        [
            (2, 20, 14),
            (34, 282, 235),
            (66, 522, 436),
            (194, 1617, 1258)
        ],
        "(probes, balls pruned, rows scanned) after each request pair"
    );
}
