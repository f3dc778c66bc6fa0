//! Property tests for the data-reuse plane (DESIGN.md §8).
//!
//! The cache's one non-negotiable contract: **memoization must be
//! invisible**. For any batch — all-fresh, all-repeated, or any
//! interleaving, in any probe order, across any shared cache state left
//! behind by earlier batches — [`SystemSnapshot::embed_cached`] must be
//! *bit-identical* to running the frozen embedder directly. Not "close":
//! identical, because downstream cluster assignment sits on knife-edge
//! distance comparisons and a ULP of drift could flip a PDF bin.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig, SystemSnapshot};
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SIDE: usize = 6;
const DIM: usize = SIDE * SIDE;
const POOL: usize = 48;

/// A deterministic pool of distinct frames test batches draw from (with
/// repetition — the whole point of the memo table).
fn frame_pool() -> &'static Tensor {
    static POOL_T: OnceLock<Tensor> = OnceLock::new();
    POOL_T.get_or_init(|| {
        let mut rng = TensorRng::seeded(11);
        let mut data = Vec::with_capacity(POOL * DIM);
        for _ in 0..POOL {
            let cy = rng.next_uniform(1.0, 4.5);
            let cx = rng.next_uniform(1.0, 4.5);
            for y in 0..SIDE {
                for x in 0..SIDE {
                    let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    data.push(6.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                }
            }
        }
        Tensor::from_vec(data, &[POOL, DIM])
    })
}

/// One trained snapshot shared by every case. Sharing is deliberate:
/// successive cases inherit whatever hit/miss/eviction state earlier
/// cases left in the cache, so the property is checked against arbitrary
/// cache states, not just a cold one. The small capacity forces constant
/// eviction churn on top.
fn snapshot() -> Arc<SystemSnapshot> {
    static SNAP: OnceLock<Arc<SystemSnapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| {
        let embedder = AutoencoderEmbedder::new(DIM, 16, 4, 3);
        let mut ds = FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: Some(3),
                seed: 3,
                embed_cache: EmbedCacheConfig {
                    capacity: 24, // < POOL: eviction pressure on every case
                },
                ..FairDsConfig::default()
            },
        );
        ds.train_system(
            frame_pool(),
            &EmbedTrainConfig {
                epochs: 3,
                batch_size: 16,
                lr: 2e-3,
                ..EmbedTrainConfig::default()
            },
        );
        ds.snapshot().expect("trained")
    }))
}

/// A batch mixing pool frames (by index, repeated at will) with fresh
/// never-seen noise frames.
fn batch_of(picks: &[usize], fresh: usize, fresh_seed: u64) -> Tensor {
    let pool = frame_pool();
    let mut rows = Vec::with_capacity((picks.len() + fresh) * DIM);
    for &p in picks {
        rows.extend_from_slice(pool.row(p % POOL));
    }
    let mut rng = TensorRng::seeded(fresh_seed);
    for _ in 0..fresh {
        for _ in 0..DIM {
            rows.push(rng.next_uniform(-1.0, 1.0));
        }
    }
    Tensor::from_vec(rows, &[picks.len() + fresh, DIM])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_and_uncached_embeddings_are_bit_identical(
        picks in proptest::collection::vec(0usize..POOL, 0..40),
        fresh in 0usize..8,
        fresh_seed in 0u64..10_000,
    ) {
        prop_assume!(!picks.is_empty() || fresh > 0);
        let snap = snapshot();
        let x = batch_of(&picks, fresh, fresh_seed);
        let cached = snap.embed_cached(&x);
        let direct = snap.embedder().embed(&x);
        // Bit-identical, not approximately equal: Tensor's PartialEq
        // compares exact f32 values.
        prop_assert_eq!(cached, direct);
    }

    #[test]
    fn repeated_cached_calls_are_stable(
        picks in proptest::collection::vec(0usize..POOL, 1..24),
    ) {
        // The second call serves (some rows) from the table; the answer
        // must not move.
        let snap = snapshot();
        let x = batch_of(&picks, 0, 0);
        let first = snap.embed_cached(&x);
        let second = snap.embed_cached(&x);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn derived_reads_agree_with_uncached_models(
        picks in proptest::collection::vec(0usize..POOL, 1..24),
        fresh in 0usize..4,
        fresh_seed in 0u64..10_000,
    ) {
        // The user-visible quantities sitting on top of embed_cached
        // (cluster PDF, certainty) must match what the frozen models give
        // on the uncached embedding — exactly, since the inputs are
        // bit-identical.
        let snap = snapshot();
        let x = batch_of(&picks, fresh, fresh_seed);
        let pdf = snap.dataset_pdf(&x);
        let pdf_again = snap.dataset_pdf(&x);
        prop_assert_eq!(&pdf, &pdf_again);
        let c1 = snap.certainty(&x);
        let c2 = snap.certainty(&x);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(pdf.len(), snap.k());
    }
}

#[test]
fn cache_sees_real_traffic_from_the_shared_cases() {
    // Not a tautology guard so much as a meta-check: the properties above
    // only mean something if the cached path actually *hit*. Run a
    // repeated batch twice and confirm hits accumulated.
    let snap = snapshot();
    let x = batch_of(&[0, 1, 2, 3, 0, 1], 0, 0);
    let before = snap.embed_cache().stats();
    let _ = snap.embed_cached(&x);
    let _ = snap.embed_cached(&x);
    let after = snap.embed_cache().stats();
    assert!(
        after.hits > before.hits,
        "repeated batch must produce cache hits ({before:?} -> {after:?})"
    );
}
