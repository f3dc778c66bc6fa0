//! Write-plane occupancy bench: ingest latency while a model trains, and
//! actor occupancy during a retrain install.
//!
//! Guards the write-plane split's core claims (DESIGN.md §7):
//!
//! 1. **Ingest-during-training.** With the background training executor,
//!    a multi-epoch `UpdateModel` fine-tune does not stall ingest. The
//!    bench measures ingest round-trips issued *while the update is in
//!    flight* and **asserts** two absolute bounds that a re-coupling of
//!    training to the mutation actor breaks: several ingests complete
//!    during one update, and the worst of them takes less than half the
//!    update's wall time (an ingest queued behind the epoch loop would
//!    take about all of it).
//!
//! 2. **O(copy) retrain install.** `FairDS::install_retrained` occupies
//!    the mutation actor for O(store × copy) + O(mid-flight delta), not
//!    the old O(store × forward-pass). The captured-store size is swept
//!    over 10³ and 10⁴ documents behind the e2e deployment's embedder
//!    (256→512→16); for each size the bench times the copy-path install
//!    against the **recompute baseline** (a full-store re-embed with the
//!    reuse cache disabled — the forward pass and write-back the
//!    pre-split install ran on the actor, without even the cache's miss
//!    tax) and **asserts** [`INSTALL_GATE`] at 10⁴. The smaller size is
//!    recorded ungated: below ~10³ documents the two paths sit within
//!    1.3× of each other and a gate there passed and failed at one commit
//!    (DESIGN.md §7, "Considered: delete the O(copy) install").
//!
//! Both parts record p50/p99 series into `results/BENCH_write_plane.json`
//! via `fairdms_bench::report`. CI runs this bench at smoke scale (see
//! `.github/workflows/ci.yml`).

use criterion::{criterion_group, criterion_main, Criterion};
use fairdms_bench::report::BenchReport;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::models::ArchSpec;
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_core::ModelManager;
use fairdms_flows::jobs::DEFAULT_TENANT;
use fairdms_nn::trainer::TrainControl;
use fairdms_service::server::DmsServerConfig;
use fairdms_service::{DmsApi, MultiDms, TenantSpec};
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: usize = 8;

fn blob_images(n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seeded(seed);
    let centers = [(2.0f32, 2.0f32), (5.0, 5.0)];
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let (cy, cx) = centers[i % centers.len()];
        for y in 0..SIDE {
            for x in 0..SIDE {
                let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                data.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
            }
        }
        labels.push(cx / SIDE as f32);
        labels.push(cy / SIDE as f32);
    }
    (
        Tensor::from_vec(data, &[n, SIDE * SIDE]),
        Tensor::from_vec(labels, &[n, 2]),
    )
}

fn embed_cfg() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 4,
        batch_size: 32,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    }
}

/// One tenant on a one-worker training pool — the in-process deployment,
/// no listener.
fn spawn(seed: u64) -> MultiDms {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    let fairds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = 30; // a deliberately slow multi-epoch fine-tune
    tcfg.train.batch_size = 16;
    tcfg.train.patience = 0;
    tcfg.seed = seed;
    let trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
    let spec = TenantSpec {
        config: DmsServerConfig {
            auto_retrain: false,
            ..DmsServerConfig::default()
        },
        ..TenantSpec::new(DEFAULT_TENANT)
    };
    MultiDms::builder(1)
        .tenant(spec, trainer, Box::new(|_| vec![0.5, 0.5]))
        .spawn()
}

/// Primes a deployment, kicks off a slow update, hammers ingest until the
/// update completes, and returns the during-update ingest latencies and
/// the update's wall time.
fn ingest_during_update() -> (Vec<Duration>, Duration) {
    let dep = spawn(7);
    let client = dep.client(DEFAULT_TENANT).expect("spawned").clone();
    let (x, y) = blob_images(60, 8);
    client.train_system(x.clone(), embed_cfg()).expect("train");
    client.ingest(x, y, 0).expect("prime");

    let done = Arc::new(AtomicBool::new(false));
    let updater = {
        let client = client.clone();
        let done = Arc::clone(&done);
        let (ux, _) = blob_images(80, 9);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            client.update_model(ux, 1).expect("update");
            let took = t0.elapsed();
            done.store(true, Ordering::Release);
            took
        })
    };
    // Make sure the update is actually training before measuring.
    while client.metrics().expect("metrics").training_jobs_started < 1 {
        std::thread::yield_now();
    }

    let (probe, probe_y) = blob_images(8, 10);
    let mut ingests = Vec::new();
    let mut scan = 100;
    // An ingest counts when it was *submitted* while the update was in
    // flight: were training coupled to the actor, the interesting sample
    // is the one that queued behind the epoch loop and finished after it.
    while !done.load(Ordering::Acquire) {
        let t0 = Instant::now();
        client
            .ingest(probe.clone(), probe_y.clone(), scan)
            .expect("ingest");
        ingests.push(t0.elapsed());
        scan += 1;
    }
    let update_took = updater.join().expect("updater");
    drop(client);
    dep.shutdown();
    (ingests, update_took)
}

fn pct(lat: &mut [Duration], q: usize) -> Duration {
    if lat.is_empty() {
        return Duration::ZERO;
    }
    lat.sort_unstable();
    lat[(lat.len() * q / 100).min(lat.len() - 1)]
}

fn bench_ingest_during_training(report: &mut BenchReport) {
    let (mut ingests, update_took) = ingest_during_update();

    report.add_series("ingest_during_update/executor", &ingests);
    report.add_metric("update_wall_s/executor", update_took.as_secs_f64());

    let n = ingests.len();
    let (p50, p99) = (pct(&mut ingests, 50), pct(&mut ingests, 99));
    println!(
        "write_plane/training executor  update {update_took:>8.2?}  ingests-during-update {n:>3}  p50 {p50:>10.2?}  p99 {p99:>10.2?}"
    );

    // Loud regression guards: the actor only runs the O(ms) bookends of
    // an update, so ingest never waits for an epoch. Were the epoch loop
    // back on the actor, the first ingest submitted mid-training would
    // wait it out and be the only one to complete.
    assert!(
        n >= 3,
        "several ingests must complete during one update, got {n}"
    );
    assert!(
        p99 < update_took / 2,
        "ingest p99 ({p99:?}) must not wait out the training run ({update_took:?})"
    );
}

// -------------------------------------------------------------------
// Part 2: actor occupancy during a retrain install
// -------------------------------------------------------------------

/// Frame width for the install sweep. Wider than the liveness part's
/// 8×8 patches: the install contract is about *production* store sizes,
/// where a full-store forward pass dwarfs a full-store document copy.
const INSTALL_SIDE: usize = 16;
const INSTALL_DIM: usize = INSTALL_SIDE * INSTALL_SIDE;
/// Hidden width of the install sweep's embedder — the e2e deployment's.
const INSTALL_HIDDEN: usize = 512;
const INSTALL_ITERS: usize = 10;
/// Captured-store sizes swept; the last one is gated.
const INSTALL_SIZES: [usize; 2] = [1_000, 10_000];
/// Least p50 speedup of the copy path over the recompute baseline at the
/// largest swept size. Five runs on the 2-vCPU box read 3.0–5.0× there
/// (1.7–3.9× at the smaller size), so 2× holds run to run and still fails
/// a path that has fallen to parity.
const INSTALL_GATE: f64 = 2.0;
/// Docs ingested mid-flight (between `prepare_retrain` and install) per
/// iteration — the delta the copy path must freshly embed.
const MID_FLIGHT: usize = 8;

fn install_frames(n: usize, seed: u64) -> (Tensor, Tensor) {
    let data = TensorRng::seeded(seed).uniform(&[n, INSTALL_DIM], 0.0, 1.0);
    (data, Tensor::zeros(&[n, 2]))
}

fn install_fairds(cache: EmbedCacheConfig, store_size: usize, seed: u64) -> FairDS {
    let embedder = AutoencoderEmbedder::new(INSTALL_DIM, INSTALL_HIDDEN, 16, seed);
    let mut ds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(4),
            embed_cache: cache,
            ..FairDsConfig::default()
        },
    );
    let (x, y) = install_frames(store_size, seed ^ 0x5EED);
    let cfg = EmbedTrainConfig {
        epochs: 2,
        batch_size: 64,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    };
    ds.train_system(&x, &cfg);
    ds.ingest_labeled(&x, &y, 0);
    ds
}

/// One timed iteration of the O(copy) path: prepare + background-half
/// train off-timer, `MID_FLIGHT` docs ingested mid-flight, then the
/// actor-side `install_retrained` on-timer. The mid-flight docs are
/// removed again afterwards so every iteration (and the series label)
/// measures the same captured-store size.
fn time_copy_install(ds: &mut FairDS, iter: u64) -> Duration {
    let retrain_cfg = EmbedTrainConfig {
        epochs: 1,
        batch_size: 64,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    };
    let (fresh, _) = install_frames(MID_FLIGHT, 0xF00 + iter);
    let trained = ds
        .prepare_retrain(&fresh)
        .train(&retrain_cfg, &TrainControl::new())
        .expect("uncancelled");
    let (mid, mid_y) = install_frames(MID_FLIGHT, 0xA11 + iter);
    let mid_ids = ds.ingest_labeled(&mid, &mid_y, 1 + iter as usize);
    let t0 = Instant::now();
    let install = ds.install_retrained(trained);
    let took = t0.elapsed();
    assert_eq!(
        install.delta_embedded, MID_FLIGHT,
        "delta must stay bounded"
    );
    for id in mid_ids {
        ds.store().delete(id);
    }
    took
}

fn bench_retrain_install_occupancy(report: &mut BenchReport) {
    for store_size in INSTALL_SIZES {
        // O(copy) path: the job's shipped embeddings write back by DocId.
        let mut copy_lat = Vec::with_capacity(INSTALL_ITERS);
        {
            let mut ds = install_fairds(EmbedCacheConfig::default(), store_size, 7);
            for i in 0..INSTALL_ITERS as u64 {
                copy_lat.push(time_copy_install(&mut ds, i));
            }
        }
        // Recompute baseline: what the pre-split install ran on the actor
        // — a full-store forward pass + write-back. Measured as a full
        // `reindex()` with the reuse cache disabled, over the same store
        // shape and the same mid-flight ingest cadence.
        let mut recompute_lat = Vec::with_capacity(INSTALL_ITERS);
        {
            let disabled = EmbedCacheConfig { capacity: 0 };
            let mut ds = install_fairds(disabled, store_size, 7);
            for i in 0..INSTALL_ITERS as u64 {
                let (mid, mid_y) = install_frames(MID_FLIGHT, 0xA11 + i);
                let mid_ids = ds.ingest_labeled(&mid, &mid_y, 1 + i as usize);
                let t0 = Instant::now();
                ds.reindex();
                recompute_lat.push(t0.elapsed());
                for id in mid_ids {
                    ds.store().delete(id);
                }
            }
        }

        let copy = report
            .add_series(
                &format!("retrain_install/copy/store{store_size}"),
                &copy_lat,
            )
            .clone();
        let recompute = report
            .add_series(
                &format!("retrain_install/recompute/store{store_size}"),
                &recompute_lat,
            )
            .clone();
        let speedup = recompute.p50.as_secs_f64() / copy.p50.as_secs_f64().max(1e-9);
        report.add_metric(&format!("install_speedup_p50/store{store_size}"), speedup);
        println!(
            "write_plane/install store={store_size:<4} copy p50 {:>10.2?} p99 {:>10.2?}  \
             recompute p50 {:>10.2?} p99 {:>10.2?}  ({speedup:.1}x)",
            copy.p50, copy.p99, recompute.p50, recompute.p99
        );
        // Loud regression guard: a re-coupled install (full forward pass
        // back on the actor) cannot beat the recompute baseline — it *is*
        // the recompute baseline, plus the copy.
        if store_size == INSTALL_SIZES[INSTALL_SIZES.len() - 1] {
            assert!(
                speedup >= INSTALL_GATE,
                "O(copy) install (p50 {:?}) must beat the full-recompute baseline (p50 {:?}) \
                 {INSTALL_GATE}x at store size {store_size}, got {speedup:.2}x",
                copy.p50,
                recompute.p50
            );
        }
    }
}

fn bench_write_plane(_c: &mut Criterion) {
    let mut report = BenchReport::new();
    bench_ingest_during_training(&mut report);
    bench_retrain_install_occupancy(&mut report);
    report.write("write_plane");
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_write_plane
}
criterion_main!(benches);
