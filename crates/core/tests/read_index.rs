//! Property and concurrency tests for the two-level IVF read index
//! (DESIGN.md §12).
//!
//! The index's one non-negotiable contract: **routing must be invisible**.
//! For any store — dense, empty, degenerate clusters, tie-heavy duplicate
//! embeddings — the routed + ball-pruned + GEMM-batched read path must
//! return *bit-identical* results (distance bits AND winner document) to
//! the brute per-cluster scan. Not "close": identical, because
//! pseudo-labeling sits on knife-edge threshold comparisons.

mod common;

use common::PassthroughEmbedder;
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::{FairDS, FairDsConfig, ReadIndexConfig, SystemSnapshot};
use fairdms_datastore::Document;
use fairdms_tensor::{ops::sq_dist, rng::TensorRng, Tensor};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DIM: usize = 6;

/// Tie-heavy embedding rows: coordinates quantized to a handful of
/// values, so exact duplicates and exact distance ties are common.
fn quantized_row(rng: &mut TensorRng, spread: f32) -> Vec<f32> {
    (0..DIM)
        .map(|_| (rng.next_index(5) as f32 - 2.0) * spread)
        .collect()
}

const TINY_BALLS: ReadIndexConfig = ReadIndexConfig {
    ball_target: 4,
    min_cluster_rows: 4,
};

/// A fairDS over the identity embedder with an aggressive read-index
/// layout (tiny balls, sub-partitioning from 4 rows up) so even small
/// generated stores exercise routing, pruning, and the GEMM batch path.
fn routed_fairds(k: usize, seed: u64) -> FairDS {
    let mut ds = FairDS::in_memory(
        Box::new(PassthroughEmbedder { width: DIM }),
        FairDsConfig {
            k: Some(k),
            seed,
            read_index: TINY_BALLS,
            ..FairDsConfig::default()
        },
    );
    // Train pool: spread-out quantized rows; identity embedding means
    // k-means fits directly on these.
    let mut rng = TensorRng::seeded(seed ^ 0xBEEF);
    let mut pool = Vec::new();
    for _ in 0..32 {
        pool.extend(quantized_row(&mut rng, 1.0));
    }
    ds.train_system(
        &Tensor::from_vec(pool, &[32, DIM]),
        &EmbedTrainConfig::default(),
    );
    ds
}

/// Inserts `rows` documents directly: embedding + cluster (+ label for
/// labeled rows). Cluster ids are arbitrary in `0..k` — both read paths
/// consult the same stored field, and skewed/empty clusters are exactly
/// the degenerate shapes the property must cover.
fn fill_store(ds: &FairDS, rows: &[(Vec<f32>, usize, bool)]) {
    for (emb, cluster, labeled) in rows {
        let mut doc = Document::new()
            .with("pixels", emb.clone())
            .with("embedding", emb.clone())
            .with("cluster", *cluster as i64);
        if *labeled {
            doc.set("label", vec![emb[0], emb[1]]);
        }
        ds.store().insert(&doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Routed + pruned nearest == brute-force nearest: distance bits and
    /// winner id, across random stores (including empty, singleton and
    /// all-unlabeled clusters) and tie-heavy embeddings.
    #[test]
    fn routed_read_is_bit_identical_to_brute_scan(
        k in 2usize..5,
        seed in 0u64..1000,
        specs in proptest::collection::vec((0usize..8, any::<bool>()), 0..120),
        n_queries in 1usize..12,
        spread in 1usize..3,
    ) {
        let mut ds = routed_fairds(k, seed);
        let mut rng = TensorRng::seeded(seed.wrapping_mul(31) + 7);
        let rows: Vec<(Vec<f32>, usize, bool)> = specs
            .iter()
            .map(|&(c, labeled)| (quantized_row(&mut rng, spread as f32), c % k, labeled))
            .collect();
        fill_store(&ds, &rows);

        let routed = ds.snapshot().expect("trained");
        ds.configure_read_index(ReadIndexConfig {
            min_cluster_rows: usize::MAX,
            ..ReadIndexConfig::default()
        });
        let brute = ds.snapshot().expect("trained");

        let mut qdata = Vec::with_capacity(n_queries * DIM);
        for _ in 0..n_queries {
            qdata.extend(quantized_row(&mut rng, spread as f32));
        }
        let queries = Tensor::from_vec(qdata, &[n_queries, DIM]);

        // nearest_labeled: distance bits and winner doc must agree.
        let r = routed.nearest_labeled(&queries);
        let b = brute.nearest_labeled(&queries);
        prop_assert_eq!(r.len(), b.len());
        for (i, (rh, bh)) in r.iter().zip(&b).enumerate() {
            match (rh, bh) {
                (None, None) => {}
                (Some((rd, rdoc)), Some((bd, bdoc))) => {
                    prop_assert_eq!(
                        rd.to_bits(), bd.to_bits(),
                        "query {}: routed dist {} != brute dist {}", i, rd, bd
                    );
                    prop_assert_eq!(
                        rdoc.get_f32s("embedding"), bdoc.get_f32s("embedding"),
                        "query {}: different winner document", i
                    );
                }
                _ => prop_assert!(false, "query {}: hit/miss disagreement", i),
            }
        }

        // pseudo_label (the labeled-only path): label matrix and reuse
        // stats must be bit-identical too.
        let fallback = |row: &[f32]| vec![row[0] + 100.0, row[1] + 100.0];
        let (rl, rs) = routed.pseudo_label(&queries, f32::INFINITY, fallback);
        let (bl, bs) = brute.pseudo_label(&queries, f32::INFINITY, fallback);
        prop_assert_eq!(rl, bl);
        prop_assert_eq!(rs, bs);
    }
}

/// `n` quantized rows as an `[n, DIM]` tensor.
fn quantized_rows(rng: &mut TensorRng, n: usize, spread: f32) -> Tensor {
    let mut data = Vec::with_capacity(n * DIM);
    for _ in 0..n {
        data.extend(quantized_row(rng, spread));
    }
    Tensor::from_vec(data, &[n, DIM])
}

/// Three views of one store: `live` has been answering reads since before
/// the mutations (its index advanced through the change log), `fresh` has
/// never read (its first read is a full build), `brute` is the unrouted
/// oracle. All three must agree on every distance bit, winner document and
/// pseudo-label, and their PDF-matched draws must not depend on the layout.
fn views_agree(
    live: &SystemSnapshot,
    fresh: &SystemSnapshot,
    brute: &SystemSnapshot,
    queries: &Tensor,
) -> Result<(), String> {
    let reference = brute.nearest_labeled(queries);
    let fallback = |row: &[f32]| vec![row[0] + 100.0, row[1] + 100.0];
    let reference_labels = brute.pseudo_label(queries, f32::INFINITY, fallback);
    for (name, view) in [("delta-maintained", live), ("freshly built", fresh)] {
        let hits = view.nearest_labeled(queries);
        for (i, (got, want)) in hits.iter().zip(&reference).enumerate() {
            let same = match (got, want) {
                (None, None) => true,
                (Some((gd, gdoc)), Some((wd, wdoc))) => {
                    gd.to_bits() == wd.to_bits() && gdoc == wdoc
                }
                _ => false,
            };
            if !same {
                return Err(format!(
                    "query {i}: {name} index served {got:?}, brute scan {want:?}"
                ));
            }
        }
        if view.pseudo_label(queries, f32::INFINITY, fallback) != reference_labels {
            return Err(format!("{name} index pseudo-labels differ from brute"));
        }
    }
    // PDF-matched draws come from the same index, and must not see its
    // layout: `fresh` and `brute` were issued for this read, so both are at
    // draw 0 and the same calls must return the same documents.
    let k = live.k();
    let uniform = vec![1.0 / k as f64; k];
    for count in [1, 7, 20] {
        let (got, want) = (
            fresh.lookup_matching(&uniform, count),
            brute.lookup_matching(&uniform, count),
        );
        if got != want {
            return Err(format!(
                "lookup of {count}: partitioned index drew {got:?}, unpartitioned {want:?}"
            ));
        }
    }
    // The delta-grown view serves the requested count, and from a one-hot
    // PDF only documents of that cluster (every document here carries a
    // current-width embedding, so a cluster has drawable rows when a stored
    // document names it; one pass over the documents says which do).
    let store = live.store();
    let mut has_rows = vec![false; k];
    for doc in store.ids().into_iter().filter_map(|id| store.get(id)) {
        let c = doc
            .get_i64("cluster")
            .expect("every document has a cluster");
        has_rows[c as usize] = true;
    }
    for c in 0..k {
        let mut one_hot = vec![0.0; k];
        one_hot[c] = 1.0;
        let docs = live.lookup_matching(&one_hot, 9);
        let want = if store.is_empty() { 0 } else { 9 };
        if docs.len() != want {
            return Err(format!("cluster {c}: served {} of {want}", docs.len()));
        }
        if has_rows[c] && docs.iter().any(|d| d.get_i64("cluster") != Some(c as i64)) {
            return Err(format!("cluster {c}: drew outside the cluster: {docs:?}"));
        }
    }
    Ok(())
}

/// Runs `ops` — `(kind, size, salt)` triples decoded below — against one
/// fairDS while one snapshot lives through all of them, checking
/// [`views_agree`] at every read. Every document is distinguishable (a
/// serial number in its label or `uid`), so equal winner documents mean
/// equal winner ids even among duplicate embeddings.
fn run_interleaving(k: usize, seed: u64, ops: &[(usize, usize, u64)]) -> Result<(), String> {
    let mut ds = routed_fairds(k, seed);
    let live = ds.snapshot().expect("trained");
    let mut rng = TensorRng::seeded(seed ^ 0x5EED);
    let mut serial = 0.0f32;
    for (step, &(kind, size, salt)) in ops.iter().enumerate() {
        let ids = ds.store().ids();
        let pick = |n: usize| -> Vec<u64> {
            (0..n.min(ids.len()))
                .map(|i| ids[(salt as usize).wrapping_add(i * 7) % ids.len()])
                .collect()
        };
        match kind {
            // The write path proper: kmeans-routed, labeled, one batch.
            0..=2 => {
                let x = quantized_rows(&mut rng, size, 1.0);
                let labels: Vec<f32> = (0..size * 2).map(|i| serial + (i / 2) as f32).collect();
                serial += size as f32;
                ds.ingest_labeled(&x, &Tensor::from_vec(labels, &[size, 2]), step);
            }
            // Direct inserts under arbitrary clusters, half unlabeled: what
            // a later reindex moves to the cluster kmeans assigns.
            3 => {
                for i in 0..size.min(12) {
                    let emb = quantized_row(&mut rng, 1.0);
                    let mut doc = Document::new()
                        .with("pixels", emb.clone())
                        .with("embedding", emb)
                        .with("cluster", ((salt as usize + i) % k) as i64)
                        .with("uid", serial as i64);
                    if i % 2 == 0 {
                        doc.set("label", vec![serial, serial]);
                    }
                    serial += 1.0;
                    ds.store().insert(&doc);
                }
            }
            4 => pick(size.min(9)).into_iter().for_each(|id| {
                ds.store().delete(id);
            }),
            5 => {
                ds.reindex_ids(&pick(size));
            }
            _ => {
                ds.configure_read_index(TINY_BALLS);
                let fresh = ds.snapshot().expect("trained");
                ds.configure_read_index(ReadIndexConfig {
                    min_cluster_rows: usize::MAX,
                    ..TINY_BALLS
                });
                let brute = ds.snapshot().expect("trained");
                let queries = quantized_rows(&mut rng, 1 + size % 9, 1.0);
                views_agree(&live, &fresh, &brute, &queries)
                    .map_err(|e| format!("step {step}: {e}"))?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental == from-scratch == brute, across random interleavings
    /// of ingests, direct inserts, deletes, reindexes and reads. With
    /// 4-row balls the stores here cross `min_cluster_rows`, split balls
    /// on append and rebuild clusters on every delete and cluster move.
    #[test]
    fn delta_maintained_index_matches_full_build_and_brute(
        k in 2usize..5,
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..8, 1usize..40, any::<u64>()), 4..28),
    ) {
        let mut ops = ops;
        ops.push((7, 8, 0));
        if let Err(e) = run_interleaving(k, seed, &ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The same three-way agreement when more mutations land between two reads
/// than the store's change log holds: the long-lived snapshot must notice
/// and rebuild, not advance from a log with a hole in it.
#[test]
fn change_log_overrun_between_reads_falls_back_to_a_full_build() {
    let ops = [
        (0, 30, 1),
        (7, 8, 2),
        (0, 4200, 3),
        (4, 9, 4),
        (7, 8, 5),
        (0, 20, 6),
        (5, 30, 7),
        (7, 8, 8),
    ];
    run_interleaving(3, 11, &ops).unwrap();
}

/// The routed path must actually route on a store big enough to ball-split
/// — and record its pruning work in the shared counters.
#[test]
fn routed_path_prunes_and_counts_on_a_dense_store() {
    let ds = {
        let ds = routed_fairds(3, 5);
        let mut rng = TensorRng::seeded(99);
        let rows: Vec<(Vec<f32>, usize, bool)> = (0..600)
            .map(|i| (quantized_row(&mut rng, 2.0), i % 3, true))
            .collect();
        fill_store(&ds, &rows);
        ds
    };
    let snap = ds.snapshot().unwrap();
    let mut rng = TensorRng::seeded(100);
    let mut qdata = Vec::new();
    for _ in 0..40 {
        qdata.extend(quantized_row(&mut rng, 2.0));
    }
    let queries = Tensor::from_vec(qdata, &[40, DIM]);
    let hits = snap.nearest_labeled(&queries);
    assert!(hits.iter().all(|h| h.is_some()), "dense store always hits");
    let counters = ds.read_index_counters();
    assert_eq!(counters.probes(), 40, "every query is a probe");
    assert!(
        counters.balls_pruned() > 0,
        "600 rows in ~4-row balls must prune something"
    );
    assert!(
        counters.candidates_scanned() > 0 && counters.candidates_scanned() < 40 * 600,
        "refine must scan some candidates but far fewer than brute ({})",
        counters.candidates_scanned()
    );
}

/// Index rebuild under concurrent mutation and snapshot publication never
/// serves a torn index. With the identity embedder a document's stored
/// embedding never changes bits (even across retrains), so every hit the
/// readers get must satisfy `dist == ‖q − doc.embedding‖` *exactly* — a
/// torn index (ids/embeddings/labels out of step, or rows from different
/// revisions interleaved) would break that equality or panic on
/// mismatched lengths.
#[test]
fn concurrent_rebuild_never_serves_a_torn_index() {
    let mut ds = routed_fairds(3, 17);
    let mut rng = TensorRng::seeded(1234);
    let rows: Vec<(Vec<f32>, usize, bool)> = (0..300)
        .map(|i| (quantized_row(&mut rng, 1.0), i % 3, true))
        .collect();
    fill_store(&ds, &rows);
    let snap = ds.snapshot().unwrap();
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for t in 0..4u64 {
        let snap = Arc::clone(&snap);
        let done = Arc::clone(&done);
        let mut qrng = TensorRng::seeded(5000 + t);
        let mut qdata = Vec::new();
        for _ in 0..8 {
            qdata.extend(quantized_row(&mut qrng, 1.0));
        }
        let queries = Tensor::from_vec(qdata, &[8, DIM]);
        readers.push(std::thread::spawn(move || {
            let mut served = 0usize;
            // At least one pass, however fast the writer storm ends.
            loop {
                let hits = snap.nearest_labeled(&queries);
                assert_eq!(hits.len(), 8);
                for (i, hit) in hits.iter().enumerate() {
                    let Some((dist, doc)) = hit else { continue };
                    assert!(dist.is_finite() && *dist >= 0.0);
                    let emb = doc
                        .get_f32s("embedding")
                        .expect("served doc must carry an embedding");
                    assert_eq!(emb.len(), DIM, "torn row width");
                    let expect = sq_dist(queries.row(i), emb).sqrt();
                    assert_eq!(
                        dist.to_bits(),
                        expect.to_bits(),
                        "distance does not match the served document: torn index"
                    );
                    served += 1;
                }
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            served
        }));
    }

    // Mutation + publication storm: interleaved ingests, deletes, and a
    // full retrain (snapshot publication + store-wide reindex) while the
    // readers hammer the old snapshot's rebuilding index.
    let mut wrng = TensorRng::seeded(777);
    for round in 0..6 {
        let mut batch = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..20 {
            let row = quantized_row(&mut wrng, 1.0);
            labels.push(row[0]);
            labels.push(row[1]);
            batch.extend(row);
        }
        let x = Tensor::from_vec(batch, &[20, DIM]);
        let y = Tensor::from_vec(labels, &[20, 2]);
        ds.ingest_labeled(&x, &y, round);
        for &id in ds.store().ids().iter().step_by(17).take(5) {
            ds.store().delete(id);
        }
        if round == 3 {
            ds.retrain_system(&x, &EmbedTrainConfig::default());
        }
    }
    done.store(true, Ordering::Release);
    let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers must have served real hits");
}

/// The tie rule, pinned on one layout: two labeled rows at bit-identical
/// exact distance from the query sit in different balls, and the lower id
/// is in the ball the search evaluates second (the query's probe ball is
/// the other one, whose center is nearer). Both views must serve the lower
/// id, as the brute scan's ascending-id strict-`<` pass does.
#[test]
fn an_exact_tie_across_balls_goes_to_the_lower_id() {
    let mut ds = routed_fairds(1, 3);
    // Lower ids: a group around (0, 3.4, …) holding the tie row (0, 3, …).
    // Higher ids: a group around (3.2, 0, …) holding the tie row (3, 0, …).
    // Every other row is farther than 3 from the origin.
    let axis = |a: usize, v: f32, off: f32| {
        let mut row = vec![0.0; DIM];
        row[a] = v;
        row[2] = off;
        row
    };
    let mut rows = vec![(axis(1, 3.0, 0.0), 0, true)];
    rows.extend((1..5).map(|i| (axis(1, 3.25, 0.25 * i as f32), 0, true)));
    rows.push((axis(0, 3.0, 0.0), 0, true));
    rows.extend((1..5).map(|i| (axis(0, 3.125, 0.125 * i as f32), 0, true)));
    fill_store(&ds, &rows);
    let routed = ds.snapshot().expect("trained");
    ds.configure_read_index(ReadIndexConfig {
        min_cluster_rows: usize::MAX,
        ..ReadIndexConfig::default()
    });
    let brute = ds.snapshot().expect("trained");
    let query = Tensor::zeros(&[1, DIM]);
    let fallback = |row: &[f32]| vec![row[0] + 100.0, row[1] + 100.0];
    for (name, view) in [("routed", &routed), ("brute", &brute)] {
        let hits = view.nearest_labeled(&query);
        let (dist, doc) = hits[0].as_ref().expect("a labeled store hits");
        assert_eq!(*dist, 3.0, "{name}");
        assert_eq!(doc.get_f32s("label"), Some(&[0.0, 3.0][..]), "{name}");
        let (labels, _) = view.pseudo_label(&query, f32::INFINITY, fallback);
        assert_eq!(labels.data(), &[0.0, 3.0], "{name}");
    }
}
