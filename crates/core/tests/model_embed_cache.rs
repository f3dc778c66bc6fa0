//! Model checks for [`fairdms_core::reuse::EmbedCache`]'s generation
//! fence — the protocol that keeps a retrain from ever serving
//! pre-publication embeddings (DESIGN.md §11).
//!
//! Run with `cargo test -p fairdms-core --features check --test model_embed_cache`.
#![cfg(feature = "check")]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fairdms_check::atomic::AtomicU64;
use fairdms_check::{FailureKind, Model};
use fairdms_core::reuse::{EmbedCache, EmbedCacheConfig};

const H1: u64 = 0x1234_5678_9abc_def0;
const H2: u64 = 0x9999_0000_1111_2222;

/// The flagship fence scenario: a straggler inserter still holding the
/// old generation races the fence advance, a gen-1 re-inserter, and two
/// probers. No interleaving may serve a gen-0 embedding to a gen-1
/// probe — stale entries must degrade to misses, never to wrong values.
fn fence_vs_straggler_scenario() {
    let cache = Arc::new(EmbedCache::new(EmbedCacheConfig { capacity: 4 }));
    let row1 = [1.0f32, 2.0];
    let row2 = [3.0f32, 4.0];
    // Straggler: a superseded snapshot that computed embeddings under
    // generation 0 and installs them late, around the fence advance.
    let straggler = {
        let cache = Arc::clone(&cache);
        fairdms_check::thread::spawn(move || {
            cache.insert(0, H1, &[1.0, 2.0], &[10.0]);
            cache.insert(0, H2, &[3.0, 4.0], &[11.0]);
        })
    };
    // Concurrent prober, already on generation 1.
    let prober = {
        let cache = Arc::clone(&cache);
        fairdms_check::thread::spawn(move || {
            let mut dst = [0.0f32];
            if cache.get_into(1, H1, &[1.0, 2.0], &mut dst) {
                assert_eq!(dst[0], 20.0, "gen-1 probe served a gen-0 embedding");
            }
        })
    };
    cache.advance_generation(1);
    cache.insert(1, H1, &row1, &[20.0]);
    let mut dst = [0.0f32];
    if cache.get_into(1, H1, &row1, &mut dst) {
        assert_eq!(dst[0], 20.0, "gen-1 probe served a gen-0 embedding");
    }
    if cache.get_into(1, H2, &row2, &mut dst) {
        panic!("gen-1 probe hit an entry only ever inserted under gen 0");
    }
    straggler.join().expect("straggler panicked");
    prober.join().expect("prober panicked");
    // `fetch_max` fence: the straggler can never move the fence back.
    assert_eq!(cache.generation(), 1);
}

#[test]
fn embed_cache_fence_vs_straggler_exhaustive() {
    let report = Model::with_preemption_bound(4).check_exhaustive(fence_vs_straggler_scenario);
    report.assert_pass("EmbedCache fence-advance vs straggler insert/probe");
    report.assert_min_interleavings(1_000, "EmbedCache fence-advance vs straggler insert/probe");
    assert!(report.exhausted, "schedule space not exhausted");
}

/// Racing advances: `advance_generation` is `fetch_max`, so whichever
/// order the publications land in, the fence ends at the maximum and
/// never moves backwards.
#[test]
fn embed_cache_racing_advances_are_monotonic() {
    let report = Model::default().check_exhaustive(|| {
        let cache = Arc::new(EmbedCache::new(EmbedCacheConfig { capacity: 4 }));
        let slow_publisher = {
            let cache = Arc::clone(&cache);
            fairdms_check::thread::spawn(move || {
                cache.advance_generation(1);
            })
        };
        cache.advance_generation(2);
        slow_publisher.join().expect("publisher panicked");
        assert_eq!(
            cache.generation(),
            2,
            "a slow publisher moved the fence backwards"
        );
    });
    report.assert_pass("EmbedCache racing advances");
}

/// Seeded random sweep over a deeper straggler workload than the
/// exhaustive model can afford.
#[test]
fn embed_cache_random_sweep() {
    let report = Model::default().check_random(0xfa1d_0002, 400, || {
        let cache = Arc::new(EmbedCache::new(EmbedCacheConfig {
            capacity: 2, // force evictions into the mix
        }));
        let straggler = {
            let cache = Arc::clone(&cache);
            fairdms_check::thread::spawn(move || {
                for (i, h) in [H1, H2, H1 ^ 1].into_iter().enumerate() {
                    cache.insert(0, h, &[i as f32], &[10.0 + i as f32]);
                }
            })
        };
        cache.advance_generation(1);
        for (i, h) in [H1, H2].into_iter().enumerate() {
            cache.insert(1, h, &[i as f32], &[20.0 + i as f32]);
        }
        let mut dst = [0.0f32];
        for (i, h) in [H1, H2].into_iter().enumerate() {
            if cache.get_into(1, h, &[i as f32], &mut dst) {
                assert_eq!(dst[0], 20.0 + i as f32, "stale embedding served");
            }
        }
        straggler.join().expect("straggler panicked");
        assert_eq!(cache.generation(), 1);
    });
    report.assert_pass("EmbedCache random sweep");
}

// ---------------------------------------------------------------------------
// Mutation: the fence advance downgraded from `fetch_max` to load+store
// ---------------------------------------------------------------------------

/// `advance_generation` with the atomic `fetch_max` deliberately
/// replaced by the obvious-but-wrong check-then-store. Two racing
/// publishers can now both pass the check and land their stores in the
/// wrong order, moving the fence *backwards* — resurrecting stale
/// entries. The model must find the lost-update schedule.
struct BrokenFence {
    generation: AtomicU64,
}

impl BrokenFence {
    fn new() -> Self {
        BrokenFence {
            generation: AtomicU64::new(0),
        }
    }

    fn advance(&self, generation: u64) {
        // BUG (deliberate): check-then-store is not atomic. The real
        // cache uses `fetch_max(generation, AcqRel)` here.
        if generation > self.generation.load(Ordering::Acquire) {
            self.generation.store(generation, Ordering::Release);
        }
    }
}

fn broken_fence_scenario() {
    let fence = Arc::new(BrokenFence::new());
    let slow_publisher = {
        let fence = Arc::clone(&fence);
        fairdms_check::thread::spawn(move || {
            fence.advance(1);
        })
    };
    fence.advance(2);
    slow_publisher.join().expect("publisher panicked");
    assert_eq!(
        fence.generation.load(Ordering::Acquire),
        2,
        "fence moved backwards: stale generations would match again"
    );
}

/// Checked-in replay trace reproducing the broken-fence lost update
/// (regression: must keep failing without a search). Regenerate with
/// `broken_fence_is_caught` if a scheduler change shifts yield points.
const BROKEN_FENCE_TRACE: &str = "0,0,1,1,0,1,0,0";

#[test]
fn broken_fence_is_caught() {
    let model = Model::default();
    let report = model.check_exhaustive(broken_fence_scenario);
    let failure = report
        .failure
        .expect("the model missed the seeded fetch_max -> load+store bug");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
    assert!(
        failure.message.contains("fence moved backwards"),
        "unexpected diagnosis: {}",
        failure.message
    );

    let replay = model.replay(&failure.trace.to_string(), broken_fence_scenario);
    let replayed = replay
        .failure
        .expect("trace did not reproduce the lost update");
    assert_eq!(replayed.kind, FailureKind::Panic);
}

/// The checked-in trace (no search) still reproduces the lost update.
#[test]
fn broken_fence_checked_in_trace_replays() {
    let replay = Model::default().replay(BROKEN_FENCE_TRACE, broken_fence_scenario);
    let failure = replay
        .failure
        .expect("checked-in trace no longer reproduces the broken-fence lost update");
    assert_eq!(failure.kind, FailureKind::Panic, "{}", failure.message);
}
