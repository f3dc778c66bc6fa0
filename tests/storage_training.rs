//! Integration: training reads go through the real storage stack —
//! samples stored under each codec, fetched back by id and decoded into
//! training pixels. All three backends must deliver bit-identical data for
//! raw/blosc (lossless) and f32-identical data for pickle (f64 promotion is
//! exact for f32 values).

use fairdms_bench::netsim::{paper_backends, RemoteStore};
use fairdms_datasets::bragg::{BraggPatch, BraggSimulator, DriftModel};
use fairdms_datastore::DocId;
use std::sync::Arc;

fn patches(n: usize) -> Vec<BraggPatch> {
    BraggSimulator::new(DriftModel::none(), 9).scan(0, n)
}

#[test]
fn all_backends_roundtrip_identical_training_data() {
    let data = patches(64);
    for store in paper_backends() {
        let ids: Vec<DocId> = data.iter().map(|p| store.put(&p.to_document())).collect();
        // Every backend returns exactly the generated pixels, in order.
        for (&id, want) in ids.iter().zip(&data) {
            let (doc, _) = store.fetch(id).expect("sample exists");
            assert_eq!(
                doc.get_f32s("pixels"),
                Some(&want.pixels[..]),
                "{}",
                store.label()
            );
        }
    }
}

#[test]
fn payload_ordering_matches_the_paper() {
    // Pickle > raw(NFS) > blosc for smooth scientific images.
    let data = patches(32);
    let mut sizes = std::collections::HashMap::new();
    for store in paper_backends() {
        for p in &data {
            store.put(&p.to_document());
        }
        sizes.insert(store.label(), store.mean_payload_bytes());
    }
    assert!(sizes["Pickle"] > sizes["NFS"], "{sizes:?}");
    assert!(sizes["Blosc"] < sizes["NFS"], "{sizes:?}");
}

#[test]
fn indexed_store_supports_concurrent_training_reads_and_updates() {
    // Writers append new scans while readers stream batches: the mixed
    // workload the paper's Data Store requirements (iv)+(v) describe.
    let store = Arc::new(RemoteStore::mongo_blosc());
    let initial = patches(64);
    let ids: Vec<DocId> = initial
        .iter()
        .map(|p| store.put(&p.to_document()))
        .collect();

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            let extra = BraggSimulator::new(DriftModel::none(), 77).scan(1, 64);
            for p in &extra {
                store.put(&p.to_document());
            }
        })
    };
    // Concurrent reads of the initial ids must all succeed.
    let reader = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for &id in &ids {
                let (doc, timing) = store.fetch(id).expect("fetch during writes");
                assert_eq!(doc.get_f32s("pixels").unwrap().len(), 15 * 15);
                assert!(timing.total_secs() > 0.0);
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    assert_eq!(store.len(), 128);
    let second_scan = store.collection().scan(|d| d.get_i64("scan") == Some(1));
    assert_eq!(second_scan.len(), 64);
}
