//! Cross-crate durability test: a fairDMS deployment survives a "restart".
//!
//! Session 1 trains the system plane, ingests labeled history, trains and
//! registers a model. The store and Zoo are snapshotted to disk. Session 2
//! restores both and must answer lookups and recommendations identically —
//! the property that makes the MongoDB stand-in honest about the paper's
//! deployment (a beamline's corpus and model Zoo outlive one acquisition
//! session).

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelZoo;
use fairdms_core::models::ArchSpec;
use fairdms_datastore::{Collection, RawCodec};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::Arc;

const SIDE: usize = 8;

fn blob_images(per_mode: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seeded(seed);
    let centers = [(2.0f32, 2.0f32), (5.0, 5.0)];
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for (cy, cx) in centers {
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
        Tensor::from_vec(data, &[per_mode * 2, SIDE * SIDE]),
        Tensor::from_vec(labels, &[per_mode * 2, 2]),
    )
}

#[test]
fn beamline_session_survives_restart() {
    let dir = std::env::temp_dir().join("fairdms-restart-test");
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("corpus.fdms");
    let zoo_path = dir.join("zoo.fdms");

    let arch = ArchSpec::BraggNN { patch: SIDE };
    let (x, y) = blob_images(25, 1);
    let probe = {
        let (px, _) = blob_images(6, 2);
        px
    };

    // ---------------- Session 1: build state, persist. ----------------
    let (pdf_before, lookup_before, rank_before, model_out_before) = {
        let store = Arc::new(Collection::new("corpus", Arc::new(RawCodec)));
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 3);
        let mut fairds = FairDS::new(
            Box::new(embedder),
            Arc::clone(&store),
            FairDsConfig {
                k: Some(2),
                seed: 3,
                ..FairDsConfig::default()
            },
        );
        fairds.train_system(
            &x,
            &EmbedTrainConfig {
                epochs: 5,
                batch_size: 16,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        );
        fairds.ingest_labeled(&x, &y, 0);

        let mut zoo = ModelZoo::new();
        let pdf = fairds.snapshot().unwrap().dataset_pdf(&probe);
        let net = arch.build(9);
        let out = net.infer(probe.reshape(&[probe.shape()[0], 1, SIDE, SIDE]));
        zoo.add_model("session1-model", arch, &net, pdf.clone(), 0);

        // Persist the corpus and the zoo.
        store.save_to(&store_path).unwrap();
        let zoo_coll = Collection::new("zoo", Arc::new(RawCodec));
        zoo.save_to_collection(&zoo_coll);
        zoo_coll.save_to(&zoo_path).unwrap();

        let lookup: Vec<u64> = store.scan(|d| d.get_i64("cluster") == Some(0));
        let rank = zoo.snapshot().rank(&pdf).unwrap().ranked;
        (pdf, lookup, rank, out)
    };
    // Session 1 state fully dropped here.

    // ---------------- Session 2: restore, verify. ----------------------
    let store = Arc::new(
        Collection::load_from(Arc::new(RawCodec), &store_path)
            .unwrap()
            .unwrap(),
    );
    assert_eq!(store.len(), 50);
    assert_eq!(
        store.scan(|d| d.get_i64("cluster") == Some(0)),
        lookup_before
    );

    let zoo_coll = Collection::load_from(Arc::new(RawCodec), &zoo_path)
        .unwrap()
        .unwrap();
    let zoo = ModelZoo::load_from_collection(&zoo_coll).snapshot();
    assert_eq!(zoo.len(), 1);
    assert_eq!(zoo.get(0).unwrap().name, "session1-model");

    // The restored checkpoint computes bit-identical outputs.
    let net = zoo.instantiate(0, 42).unwrap();
    let out = net.infer(probe.reshape(&[probe.shape()[0], 1, SIDE, SIDE]));
    assert_eq!(out, model_out_before);

    // The PDFs are stored as f64: the ranking comes back bit for bit.
    let rank = zoo.rank(&pdf_before).unwrap().ranked;
    assert_eq!(rank, rank_before);

    // The restored store keeps serving the data service: a fresh fairDS
    // can retrain its system plane from the persisted corpus alone.
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 4);
    let mut fairds = FairDS::new(
        Box::new(embedder),
        Arc::clone(&store),
        FairDsConfig {
            k: Some(2),
            seed: 4,
            ..FairDsConfig::default()
        },
    );
    fairds.retrain_system(
        &probe,
        &EmbedTrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    let (labels, stats) = fairds
        .snapshot()
        .unwrap()
        .pseudo_label(&probe, 1.0, |_| vec![9.0, 9.0]);
    assert_eq!(labels.shape(), &[12, 2]);
    assert!(
        stats.reused > 0,
        "restored corpus must serve label reuse: {stats:?}"
    );

    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&zoo_path).ok();
}
