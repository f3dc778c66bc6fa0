//! Data-reuse plane bench: repeated-frame vs adversarial all-miss reads.
//!
//! Guards the two performance claims of the embedding memo table
//! (DESIGN.md §8), each stated as what it protects, in absolute time:
//!
//! 1. **Warm repeated frames skip the forward pass.** `DatasetPdf` and
//!    `Certainty` over a batch the cache has seen cost hash + probe +
//!    copy + the clustering step, and nothing that scales with the
//!    encoder: the warm p50 of each must stay under [`WARM_PDF_BOUND`] /
//!    [`WARM_CERT_BOUND`] for the 128-frame batch.
//! 2. **The adversarial all-miss path pays a fixed tax.** A stream of
//!    never-repeating frames (every probe misses, every insert evicts)
//!    costs hashing + probing + installing per row on top of the uncached
//!    forward pass: the per-row difference `all_miss − uncached` (median
//!    of interleaved pairs) must stay under [`MISS_TAX_BOUND`].
//!
//! Both used to be ratios over the all-miss forward pass — "warm ≥ 3×
//! below all-miss", "all-miss < 30% over uncached" — and a ratio moves
//! when its denominator does. It moved once when the blocked GEMM engine
//! cut the forward pass ~5× (the ≥10× floor became ≥3×, the <10% bound
//! <30%: same absolute tax, smaller denominator), and a frozen embedder
//! multiplying against pre-packed weights shrinks that denominator again
//! (certainty's warm ratio sat at 3.86× before it). The warm path and the
//! tax did not get slower either time, so the gates now name them
//! directly; the two ratios are still recorded, ungated, for the
//! trajectory.
//!
//! Results are also written machine-readably to
//! `results/BENCH_embed_cache.json` (p50/p99/mean per series plus
//! the two assertion margins), so the perf trajectory is tracked across
//! PRs instead of living only in CI logs.
//!
//! CI runs this bench at smoke scale (see `.github/workflows/ci.yml`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairdms_bench::report::BenchReport;
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig, SystemSnapshot};
use fairdms_core::reuse::EmbedCacheConfig;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's Bragg patch size: 15×15 frames through a 256-wide encoder
/// — big enough that a skipped forward pass is a real saving, small
/// enough for CI smoke scale.
const SIDE: usize = 15;
const DIM: usize = SIDE * SIDE;
const HIDDEN: usize = 256;
const EMBED: usize = 16;
const BATCH: usize = 128;
const ITERS: usize = 60;

/// Gate 1: the warm p50 of one 128-frame request. Recorded at 116 µs
/// (`dataset_pdf`) and 238 µs (`certainty`, which adds the fuzzy
/// memberships) on the 2-vCPU CI box; the bounds leave ~2.5× for a busy
/// neighbour and are still a third of what one forward pass costs.
const WARM_PDF_BOUND: Duration = Duration::from_micros(300);
const WARM_CERT_BOUND: Duration = Duration::from_micros(600);

/// Gate 2: the cache's tax on a row it cannot help — hash, probe, insert,
/// evict. Recorded at 0.8–1.3 µs a row; a tax that grew with the row's
/// embedding cost, or a second forward pass hiding in the miss path, is
/// tens of µs a row.
const MISS_TAX_BOUND: Duration = Duration::from_micros(3);

fn frames(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seeded(seed);
    let mut data = Vec::with_capacity(n * DIM);
    for _ in 0..n {
        let cy = rng.next_uniform(3.0, 11.0);
        let cx = rng.next_uniform(3.0, 11.0);
        for y in 0..SIDE {
            for x in 0..SIDE {
                let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                data.push(10.0 * (-r2 / 4.0).exp() + rng.next_normal_with(0.0, 0.05));
            }
        }
    }
    Tensor::from_vec(data, &[n, DIM])
}

fn trained_fairds(capacity: usize) -> FairDS {
    let embedder = AutoencoderEmbedder::new(DIM, HIDDEN, EMBED, 7);
    let mut ds = FairDS::in_memory(
        Box::new(embedder),
        FairDsConfig {
            k: Some(10),
            seed: 7,
            embed_cache: EmbedCacheConfig { capacity },
            ..FairDsConfig::default()
        },
    );
    ds.train_system(
        &frames(256, 1),
        &EmbedTrainConfig {
            epochs: 3,
            batch_size: 64,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        },
    );
    ds
}

/// Measures `op` once per iteration, returning per-iteration latencies.
fn measure(iters: usize, mut op: impl FnMut(usize)) -> Vec<Duration> {
    let mut lat = Vec::with_capacity(iters);
    for i in 0..iters {
        let t0 = Instant::now();
        op(i);
        lat.push(t0.elapsed());
    }
    lat
}

/// The measured series: repeated-frame (cached, one batch every
/// iteration), all-miss (cached, a fresh batch per iteration), and the
/// pre-PR uncached baseline on the *same* fresh batches.
struct WorkloadResult {
    warm_pdf: Vec<Duration>,
    warm_cert: Vec<Duration>,
    miss_pdf: Vec<Duration>,
    miss_cert: Vec<Duration>,
    uncached_pdf: Vec<Duration>,
    uncached_cert: Vec<Duration>,
}

/// Runs the workload against two identically-trained snapshots — one
/// with the cache disabled (the pre-PR baseline), one enabled. The
/// all-miss comparison is **interleaved and paired**: each fresh batch
/// is timed uncached-then-cached back to back, so scheduler jitter and
/// frequency scaling hit both series alike instead of skewing the
/// per-pair difference CI gates on. (Both orders touch the same dense
/// math on the same bytes; the cached run still misses on every row
/// because that snapshot has never seen the batch.)
fn run_workload(uncached: &Arc<SystemSnapshot>, cached: &Arc<SystemSnapshot>) -> WorkloadResult {
    let repeated = frames(BATCH, 2);
    // Warm the repeated batch once (the first touch pays the misses).
    black_box(cached.dataset_pdf(&repeated));
    black_box(cached.certainty(&repeated));
    let warm_pdf = measure(ITERS, |_| {
        black_box(cached.dataset_pdf(&repeated));
    });
    let warm_cert = measure(ITERS, |_| {
        black_box(cached.certainty(&repeated));
    });
    // Adversarial: every batch is new content — every probe misses.
    let fresh_pdf: Vec<Tensor> = (0..ITERS)
        .map(|i| frames(BATCH, 10_000 + i as u64))
        .collect();
    let mut uncached_pdf = Vec::with_capacity(ITERS);
    let miss_pdf = measure(ITERS, |i| {
        let t0 = Instant::now();
        black_box(uncached.dataset_pdf(&fresh_pdf[i]));
        uncached_pdf.push(t0.elapsed());
        // `measure` times from here: the cached leg of the pair.
        black_box(cached.dataset_pdf(&fresh_pdf[i]));
    });
    // measure() timed both legs; subtract the uncached leg it recorded.
    let miss_pdf: Vec<Duration> = miss_pdf
        .iter()
        .zip(&uncached_pdf)
        .map(|(&both, &unc)| both.saturating_sub(unc))
        .collect();
    let fresh_cert: Vec<Tensor> = (0..ITERS)
        .map(|i| frames(BATCH, 20_000 + i as u64))
        .collect();
    let mut uncached_cert = Vec::with_capacity(ITERS);
    let miss_cert = measure(ITERS, |i| {
        let t0 = Instant::now();
        black_box(uncached.certainty(&fresh_cert[i]));
        uncached_cert.push(t0.elapsed());
        black_box(cached.certainty(&fresh_cert[i]));
    });
    let miss_cert: Vec<Duration> = miss_cert
        .iter()
        .zip(&uncached_cert)
        .map(|(&both, &unc)| both.saturating_sub(unc))
        .collect();
    WorkloadResult {
        warm_pdf,
        warm_cert,
        miss_pdf,
        miss_cert,
        uncached_pdf,
        uncached_cert,
    }
}

fn bench_embed_cache(_c: &mut Criterion) {
    // Two identically-trained planes (training is deterministic given
    // seeds): the uncached one *is* the pre-PR baseline.
    let ds_uncached = trained_fairds(0);
    let ds_cached = trained_fairds(4096);
    let baseline_snap = ds_uncached.snapshot().expect("trained");
    let snap = ds_cached.snapshot().expect("trained");
    {
        // The pairing is only valid if the two planes really are clones.
        let probe = frames(4, 999);
        assert_eq!(
            baseline_snap.embedder().embed(&probe),
            snap.embedder().embed(&probe),
            "deterministic training must yield identical embedders"
        );
    }

    let cached = run_workload(&baseline_snap, &snap);
    let stats = snap.embed_cache().stats();
    assert!(
        stats.hits > (ITERS * BATCH) as u64,
        "warm series must actually hit the cache (stats: {stats:?})"
    );

    let mut report = BenchReport::new();
    // One median per series, computed once by the report and reused for
    // the assertions below — the JSON record and the CI gate can never
    // disagree about what was measured.
    let mut summarize = |name: &str, lat: &[Duration]| -> Duration {
        let s = report.add_series(name, lat);
        println!(
            "{name:<28} p50 {:>10.2?}  p99 {:>10.2?}  ({:.0} ops/s)",
            s.p50, s.p99, s.inv_mean_latency
        );
        s.p50
    };
    summarize("dataset_pdf/uncached", &cached.uncached_pdf);
    let p50_miss_pdf = summarize("dataset_pdf/all_miss", &cached.miss_pdf);
    let p50_warm_pdf = summarize("dataset_pdf/warm", &cached.warm_pdf);
    summarize("certainty/uncached", &cached.uncached_cert);
    let p50_miss_cert = summarize("certainty/all_miss", &cached.miss_cert);
    let p50_warm_cert = summarize("certainty/warm", &cached.warm_cert);

    // Recorded, not gated: both ratios divide by the forward pass.
    let pdf_speedup = p50_miss_pdf.as_secs_f64() / p50_warm_pdf.as_secs_f64();
    let cert_speedup = p50_miss_cert.as_secs_f64() / p50_warm_cert.as_secs_f64();
    // Median over the *pairs*: each fresh batch was timed through both
    // paths back to back, so per-pair arithmetic cancels whatever the
    // machine was doing at that moment.
    let paired_median =
        |cached_lat: &[Duration], uncached_lat: &[Duration], f: fn(f64, f64) -> f64| {
            let mut per_pair: Vec<f64> = cached_lat
                .iter()
                .zip(uncached_lat)
                .map(|(c, u)| f(c.as_secs_f64(), u.as_secs_f64()))
                .collect();
            per_pair.sort_unstable_by(|a, b| a.total_cmp(b));
            per_pair[per_pair.len() / 2]
        };
    let overhead = |c: f64, u: f64| c / u.max(1e-12) - 1.0;
    let pdf_overhead = paired_median(&cached.miss_pdf, &cached.uncached_pdf, overhead);
    let cert_overhead = paired_median(&cached.miss_cert, &cached.uncached_cert, overhead);
    // Gate 2's figure: seconds of tax per missed row.
    let tax_per_row = |c: f64, u: f64| (c - u) / BATCH as f64;
    let pdf_tax = paired_median(&cached.miss_pdf, &cached.uncached_pdf, tax_per_row);
    let cert_tax = paired_median(&cached.miss_cert, &cached.uncached_cert, tax_per_row);

    println!(
        "\nwarm p50: dataset_pdf {p50_warm_pdf:.1?} (bound {WARM_PDF_BOUND:.0?}), \
         certainty {p50_warm_cert:.1?} (bound {WARM_CERT_BOUND:.0?})"
    );
    println!(
        "all-miss tax per row: dataset_pdf {:.2} µs, certainty {:.2} µs (bound {MISS_TAX_BOUND:.0?})",
        pdf_tax * 1e6,
        cert_tax * 1e6
    );
    println!(
        "ungated ratios: warm speedup {pdf_speedup:.1}x / {cert_speedup:.1}x, \
         all-miss overhead {:.1}% / {:.1}%",
        pdf_overhead * 100.0,
        cert_overhead * 100.0
    );
    report.add_metric("all_miss_tax_per_row_s_dataset_pdf", pdf_tax);
    report.add_metric("all_miss_tax_per_row_s_certainty", cert_tax);
    report.add_metric("warm_speedup_dataset_pdf", pdf_speedup);
    report.add_metric("warm_speedup_certainty", cert_speedup);
    report.add_metric("all_miss_overhead_dataset_pdf", pdf_overhead);
    report.add_metric("all_miss_overhead_certainty", cert_overhead);
    report.add_metric("hit_ratio", stats.hit_ratio());
    report.add_metric("evictions", stats.evictions as f64);
    let path = report.write("embed_cache");
    println!("wrote {}", path.display());

    assert!(
        p50_warm_pdf <= WARM_PDF_BOUND && p50_warm_cert <= WARM_CERT_BOUND,
        "a warm {BATCH}-frame read must not pay for the encoder \
         (dataset_pdf {p50_warm_pdf:.1?} > {WARM_PDF_BOUND:.0?} or \
         certainty {p50_warm_cert:.1?} > {WARM_CERT_BOUND:.0?})"
    );
    let bound = MISS_TAX_BOUND.as_secs_f64();
    assert!(
        pdf_tax <= bound && cert_tax <= bound,
        "the all-miss path must cost a fixed tax per row over the uncached \
         baseline (dataset_pdf {:.2} µs, certainty {:.2} µs, bound {MISS_TAX_BOUND:.0?})",
        pdf_tax * 1e6,
        cert_tax * 1e6
    );
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
    targets = bench_embed_cache
}
criterion_main!(benches);
