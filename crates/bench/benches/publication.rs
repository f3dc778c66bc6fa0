//! Publication-cost and recommend-vs-zoo-size benches.
//!
//! Guards the two complexity claims of the structurally-shared Zoo
//! (DESIGN.md §6):
//!
//! 1. **Publication is O(changed state).** Freezing a `ZooSnapshot` after
//!    a mutation clones entry *pointers*, never checkpoint bytes, so the
//!    per-publication cost must not scale with resident Zoo bytes. The
//!    bench registers models into zoos of different resident sizes and
//!    times each publish→snapshot step — and *asserts* the structural
//!    sharing (`Arc::ptr_eq`) so a regression to deep copies fails the
//!    run loudly rather than just skewing a number.
//! 2. **`top_k` recommends beat the full sort on big zoos.** On a
//!    ≥256-entry zoo the pruned partial ranking must not lose to ranking
//!    and sorting every entry.
//!
//! CI runs this bench at smoke scale (see `.github/workflows/ci.yml`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairdms_core::fairms::{ModelZoo, ZooEntry};
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_core::{FairDsConfig, ModelManager};
use fairdms_service::server::{DmsServer, DmsServerConfig};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PDF_BINS: usize = 15;
/// Synthetic checkpoint payload: big enough (256 KiB) that accidental
/// deep copies of resident entries dominate any timing.
const CHECKPOINT_BYTES: usize = 256 * 1024;

fn synthetic_entry(i: usize, bins: usize) -> ZooEntry {
    let mut rng = TensorRng::seeded(i as u64);
    ZooEntry {
        name: format!("m{i}"),
        arch: ArchSpec::BraggNN { patch: 15 },
        checkpoint: vec![(i % 251) as u8; CHECKPOINT_BYTES],
        train_pdf: (0..bins)
            .map(|_| rng.next_uniform(0.01, 1.0) as f64)
            .collect(),
        scan: i,
    }
}

fn zoo_of(n: usize, bins: usize) -> ModelZoo {
    let mut zoo = ModelZoo::new();
    for i in 0..n {
        zoo.add(synthetic_entry(i, bins));
    }
    zoo
}

fn p50(lat: &mut [Duration]) -> Duration {
    lat.sort_unstable();
    lat[lat.len() / 2]
}

/// Core-level publication cost: time `add` + `snapshot` at different
/// resident sizes. With structural sharing the per-publication cost is
/// pointer work, independent of how many checkpoint megabytes are
/// resident.
fn bench_publication_cost(_c: &mut Criterion) {
    let publications = 32usize;
    let mut means = Vec::new();
    let mut report = fairdms_bench::report::BenchReport::new();
    for &resident in &[16usize, 256] {
        let mut zoo = zoo_of(resident, PDF_BINS);
        let mut prev = zoo.snapshot();
        let mut lat = Vec::with_capacity(publications);
        for p in 0..publications {
            let entry = synthetic_entry(resident + p, PDF_BINS);
            let t0 = Instant::now();
            zoo.add(entry);
            let snap = zoo.snapshot();
            lat.push(t0.elapsed());
            // Loud structural guard: every pre-existing entry must be the
            // same allocation as in the previous publication.
            for i in 0..prev.len() {
                assert!(
                    Arc::ptr_eq(&prev.entries()[i], &snap.entries()[i]),
                    "publication deep-copied resident entry {i} (zoo size {})",
                    snap.len()
                );
            }
            prev = snap;
        }
        // What a deep-copy publication of this zoo would cost, measured:
        // the O(total-state) baseline structural sharing replaces.
        let t0 = Instant::now();
        let deep: Vec<ZooEntry> = prev.entries().iter().map(|e| (**e).clone()).collect();
        let deep_cost = t0.elapsed();
        black_box(deep.len());
        report.add_series(&format!("publication/resident_{resident}"), &lat);
        report.add_metric(
            &format!("deep_copy_baseline_s/resident_{resident}"),
            deep_cost.as_secs_f64(),
        );
        let mean: Duration = lat.iter().sum::<Duration>() / lat.len() as u32;
        println!(
            "publication/resident={resident:<5} mean {mean:>10.2?}  p50 {:>10.2?}  deep-copy baseline {deep_cost:>10.2?}  ({publications} publications, {} KiB checkpoints)",
            p50(&mut lat),
            CHECKPOINT_BYTES / 1024
        );
        means.push((mean, deep_cost));
    }
    for (resident, (mean, deep)) in [16usize, 256].into_iter().zip(&means) {
        assert!(
            *mean < *deep,
            "structural sharing must beat a deep copy at {resident} resident entries"
        );
    }
    println!(
        "publication cost growth 16→256 resident entries: {:.2}x (pointer work; a deep copy grows ~16x in *bytes*)",
        means[1].0.as_secs_f64() / means[0].0.as_secs_f64().max(1e-12)
    );
    report.add_metric(
        "cost_growth_16_to_256",
        means[1].0.as_secs_f64() / means[0].0.as_secs_f64().max(1e-12),
    );
    report.write("publication");
}

/// Service-level publication: `PublishModel` round-trip p50 through the
/// actor, small vs large resident zoo.
fn bench_service_publish(_c: &mut Criterion) {
    for &resident in &[16usize, 256] {
        let embedder = fairdms_core::AutoencoderEmbedder::new(64, 16, 8, 0);
        let fairds = fairdms_core::FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: Some(PDF_BINS),
                ..FairDsConfig::default()
            },
        );
        let tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: 15 }, 15);
        let mut trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg);
        for i in 0..resident {
            trainer.zoo.add(synthetic_entry(i, PDF_BINS));
        }
        let (client, handle) = DmsServer::spawn(
            trainer,
            Box::new(|_| vec![0.5, 0.5]),
            DmsServerConfig {
                auto_retrain: false,
                ..DmsServerConfig::default()
            },
        );
        let mut lat = Vec::new();
        for p in 0..24usize {
            let entry = synthetic_entry(resident + p, PDF_BINS);
            let t0 = Instant::now();
            client
                .publish(&entry.name, entry.checkpoint, entry.train_pdf, entry.scan)
                .expect("publish");
            lat.push(t0.elapsed());
        }
        println!(
            "service_publish/resident={resident:<5} p50 {:>10.2?}  ({} publishes)",
            p50(&mut lat),
            lat.len()
        );
        drop(client);
        handle.shutdown();
    }
}

/// Full-sort vs `top_k` recommend on zoos the acceptance criterion cares
/// about (≥256 entries).
fn bench_recommend_vs_zoo_size(c: &mut Criterion) {
    for &n in &[256usize, 1024] {
        let zoo = zoo_of(n, PDF_BINS);
        let snap = zoo.snapshot();
        let mut rng = TensorRng::seeded(0xBEEF);
        let query: Vec<f64> = (0..PDF_BINS)
            .map(|_| rng.next_uniform(0.01, 1.0) as f64)
            .collect();
        // Sanity before timing: the pruned path must agree with the full
        // ranking's prefix.
        let full = snap.rank(&query).expect("rank");
        let top = snap.rank_top_k(&query, 5).expect("rank_top_k");
        for (a, b) in top.ranked.iter().zip(&full.ranked) {
            assert!(
                (a.1 - b.1).abs() < 1e-12,
                "top_k diverged from the full ranking"
            );
        }
        c.bench_function(&format!("recommend_full_sort_{n}"), |b| {
            b.iter(|| black_box(snap.rank(black_box(&query))))
        });
        c.bench_function(&format!("recommend_top5_{n}"), |b| {
            b.iter(|| black_box(snap.rank_top_k(black_box(&query), 5)))
        });

        // Closed-loop p50 comparison (the acceptance-criterion quantity).
        let reps = 400usize;
        let mut full_lat = Vec::with_capacity(reps);
        let mut top_lat = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(snap.rank(&query));
            full_lat.push(t0.elapsed());
            let t1 = Instant::now();
            black_box(snap.rank_top_k(&query, 5));
            top_lat.push(t1.elapsed());
        }
        println!(
            "recommend/zoo={n:<5} full-sort p50 {:>10.2?}  top5 p50 {:>10.2?}",
            p50(&mut full_lat),
            p50(&mut top_lat)
        );
    }
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
    targets = bench_publication_cost, bench_service_publish, bench_recommend_vs_zoo_size
}
criterion_main!(benches);
