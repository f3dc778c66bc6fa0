//! Publication-cost bench: the structurally-shared Zoo's complexity claim
//! (DESIGN.md §6).
//!
//! **Publication is O(changed state).** Freezing a `ZooSnapshot` after a
//! mutation clones entry *pointers*, never checkpoint bytes, so the
//! per-publication cost must not scale with resident Zoo bytes. The bench
//! registers models into zoos of different resident sizes and times each
//! publish→snapshot step — and *asserts* the structural sharing
//! (`Arc::ptr_eq`) and that each publication beats a measured deep copy,
//! so a regression to deep copies fails the run loudly rather than just
//! skewing a number.
//!
//! CI runs this bench at smoke scale (see `.github/workflows/ci.yml`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairdms_core::fairms::{ModelZoo, ZooEntry};
use fairdms_core::models::ArchSpec;
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
        let s = report.add_series(&format!("publication/resident_{resident}"), &lat);
        let (mean, p50) = (s.mean, s.p50);
        report.add_metric(
            &format!("deep_copy_baseline_s/resident_{resident}"),
            deep_cost.as_secs_f64(),
        );
        println!(
            "publication/resident={resident:<5} mean {mean:>10.2?}  p50 {p50:>10.2?}  deep-copy baseline {deep_cost:>10.2?}  ({publications} publications, {} KiB checkpoints)",
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

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_publication_cost
}
criterion_main!(benches);
