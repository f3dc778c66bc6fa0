//! Read-index scaling bench: routed IVF reads vs the brute cluster scan.
//!
//! Guards the performance claim of the two-level read index (DESIGN.md
//! §12): `nearest_labeled` served through ball routing + GEMM-batched
//! refinement must pull away from the brute per-cluster scan as the store
//! grows, while returning **bit-identical** results. The sweep covers
//! 10³ → 10⁵ documents in CI (10⁶ when `SCALE_STORE_FULL=1`, release
//! builds only — the insert alone takes minutes in debug), timing the two
//! paths **interleaved and paired** on the same single-row queries so
//! scheduler jitter hits both series alike.
//!
//! Every size is measured on two stores: one **built** in one pass (the
//! first read decodes and partitions the whole store) and one **grown**
//! from half that size by 64-document ingests with a routed read after
//! each, so that half its rows reached the index as deltas from the
//! store's change log. The first read after each ingest is the
//! `refresh_after_ingest_64` series: what a write costs the next reader.
//!
//! CI gates: bit-equality on both stores at every size; at the top swept
//! size routed p50 ≥3× below brute p50 on both stores; and the refresh
//! p50 at the top size at most [`REFRESH_GROWTH_BOUND`]× the refresh p50
//! at the smallest, a hundredth of its documents (the refresh is O(batch);
//! one that re-read the store would grow a hundredfold). Results land
//! machine-readably in `results/BENCH_scale_store.json` — per-size
//! p50/p99 for both paths, the speedup factors, the refresh series, and
//! the fraction of candidate rows the pruning actually eliminated.
//!
//! A last experiment times the **request-sized** reads — `certainty`,
//! `dataset_pdf` and `nearest_labeled` on a cached 16-frame batch of
//! patch-wide frames against a 10⁴-document store — and gates
//! `certainty_16` p50 at ≤ 3× `dataset_pdf_16` p50. The two differ by a
//! 16×8 membership matrix (~10 µs); a parallel region opened for it
//! costs 100–400 µs, which is what the gate is there to catch
//! (`benches/e2e`'s probes of the same pair read 5.6× before
//! `fuzzy::memberships` was work-gated, DESIGN.md §9).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairdms_bench::report::BenchReport;
use fairdms_core::embedding::{EmbedTrainConfig, Embedder};
use fairdms_core::fairds::{FairDS, FairDsConfig, ReadIndexConfig, SystemSnapshot};
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Embedding width. Identity embedder: the bench measures the *read
/// path* — index routing, pruning, and the refine scan — not a neural
/// forward pass, so frames are their own embeddings.
const DIM: usize = 16;
const K: usize = 15;
const QUERIES: usize = 48;
/// Rows per batched read — the read plane's designed workload
/// (`pseudo_label` / `nearest_labeled` serve whole frame batches, routed
/// as one GEMM-batched group per cluster). The CI gate runs here; the
/// single-row series is reported for the latency story but not gated,
/// since a lone read is dominated by per-call fixed costs (embed-cache
/// probe, snapshot hop) that both paths pay identically.
const BATCH: usize = 256;
const BATCH_ITERS: usize = 40;
/// Documents per ingest while a store is grown through deltas — the
/// `scan_update` loop's `UpdateModel` batch.
const REFRESH_BATCH: usize = 64;
/// How much dearer a refresh may be at the largest swept size than at the
/// smallest. Not 1: the 10³ store's clusters are below `min_cluster_rows`,
/// so its refresh appends to fifteen small blocks, while each row of a
/// partitioned store also finds its ball (a scan of the cluster's ball
/// centers), copies that ball once (the previous index still shares it)
/// and pays its share of a ball re-split per 64 rows — a per-row constant
/// measured 4–9× higher (the 10³ median rests on eight refreshes), that
/// grows another 1.5× from 10⁴ to 10⁵. A refresh that re-read the store
/// would cost a hundred times more at the top.
const REFRESH_GROWTH_BOUND: f64 = 15.0;

#[derive(Clone)]
struct PassthroughEmbedder;

impl Embedder for PassthroughEmbedder {
    fn embed_dim(&self) -> usize {
        DIM
    }
    fn input_dim(&self) -> usize {
        DIM
    }
    fn fit_controlled(&mut self, _: &Tensor, _: &EmbedTrainConfig, _: &TrainControl) -> bool {
        true
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        images.clone()
    }
}

/// Sub-blobs per coarse cluster: instrument streams repeat near-identical
/// frames (the paper's premise), so embeddings clump at two scales — the
/// coarse quantizer's clusters and tight modes within them. Isotropic
/// gaussians would be the metric-index worst case, not the workload.
const SUBS: usize = 40;

/// `n` rows drawn around `K` coarse blobs, each a mixture of [`SUBS`]
/// tight modes.
fn blob_rows(n: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seeded(seed);
    // Shared geometry across calls: the blob layout is a function of the
    // generator's seed stream, so every call re-derives the same centers
    // before drawing its own rows.
    let mut geo = TensorRng::seeded(0xB10B);
    let centers: Vec<f32> = (0..K * DIM).map(|_| geo.next_uniform(-5.0, 5.0)).collect();
    let subcenters: Vec<f32> = (0..K * SUBS * DIM)
        .map(|i| centers[(i / (SUBS * DIM)) * DIM + i % DIM] + geo.next_normal_with(0.0, 1.0))
        .collect();
    let mut data = Vec::with_capacity(n * DIM);
    for _ in 0..n {
        let s = rng.next_index(K * SUBS);
        for d in 0..DIM {
            data.push(subcenters[s * DIM + d] + rng.next_normal_with(0.0, 0.15));
        }
    }
    Tensor::from_vec(data, &[n, DIM])
}

/// Ingests `rows` labeled documents through the normal write path (embed
/// → route → store), so stored cluster assignments are the coarse
/// quantizer's own. Labels continue from the store's current size.
fn ingest(ds: &mut FairDS, rows: usize, seed: u64) {
    let have = ds.store().len();
    let x = blob_rows(rows, seed.wrapping_add(have as u64));
    let labels: Vec<f32> = (0..rows * 2).map(|i| (have + i) as f32).collect();
    ds.ingest_labeled(&x, &Tensor::from_vec(labels, &[rows, 2]), have);
}

/// A fairDS with `n` labeled documents, ingested in a few large chunks.
fn populated_fairds(n: usize, seed: u64) -> FairDS {
    let mut ds = FairDS::in_memory(
        Box::new(PassthroughEmbedder),
        FairDsConfig {
            k: Some(K),
            seed,
            ..FairDsConfig::default()
        },
    );
    ds.train_system(&blob_rows(2048, seed ^ 0xA5), &EmbedTrainConfig::default());
    while ds.store().len() < n {
        let chunk = (n - ds.store().len()).min(25_000);
        ingest(&mut ds, chunk, seed);
    }
    ds
}

/// The routed and the brute view of one store.
fn views(ds: &mut FairDS) -> (Arc<SystemSnapshot>, Arc<SystemSnapshot>) {
    ds.configure_read_index(ReadIndexConfig::default());
    let routed = ds.snapshot().expect("trained");
    ds.configure_read_index(ReadIndexConfig {
        min_cluster_rows: usize::MAX,
        ..ReadIndexConfig::default()
    });
    (routed, ds.snapshot().expect("trained"))
}

/// Checks `routed` == `brute` to the bit on their store and times the two
/// paths interleaved; series and metrics are recorded under `tag`. Returns
/// the batched speedup (brute p50 / routed p50).
fn measure(
    report: &mut BenchReport,
    routed: &SystemSnapshot,
    brute: &SystemSnapshot,
    tag: &str,
) -> f64 {
    let n = routed.store().len();
    let queries = blob_rows(QUERIES, 9_000 + n as u64);
    let rows: Vec<Tensor> = (0..QUERIES)
        .map(|i| Tensor::from_vec(queries.row(i).to_vec(), &[1, DIM]))
        .collect();

    // Correctness first: routing must be invisible. (Also warms both
    // snapshots' index + embed caches so the timed loop measures
    // steady-state reads, not the one-off index build.)
    let rh = routed.nearest_labeled(&queries);
    let bh = brute.nearest_labeled(&queries);
    assert_eq!(rh.len(), bh.len());
    for (i, (r, b)) in rh.iter().zip(&bh).enumerate() {
        let (rd, rdoc) = r.as_ref().expect("dense labeled store always hits");
        let (bd, bdoc) = b.as_ref().expect("dense labeled store always hits");
        assert_eq!(
            rd.to_bits(),
            bd.to_bits(),
            "query {i} at {tag}: routed distance diverged from brute"
        );
        assert_eq!(
            rdoc, bdoc,
            "query {i} at {tag}: routed winner diverged from brute"
        );
    }

    // Paired single-row reads, brute leg then routed leg, counters
    // diffed around the routed legs only (the two views share them, and
    // the brute view's scans count too).
    let counters = routed.read_index_counters();
    let read = || {
        [
            counters.probes(),
            counters.candidates_scanned(),
            counters.balls_pruned(),
        ]
    };
    let [mut probes, mut scanned, mut pruned] = [0u64; 3];
    let mut brute_lat = Vec::with_capacity(QUERIES);
    let mut routed_lat = Vec::with_capacity(QUERIES);
    for q in &rows {
        let t0 = Instant::now();
        black_box(brute.nearest_labeled(q));
        brute_lat.push(t0.elapsed());
        let before = read();
        let t1 = Instant::now();
        black_box(routed.nearest_labeled(q));
        routed_lat.push(t1.elapsed());
        let after = read();
        probes += after[0] - before[0];
        scanned += after[1] - before[1];
        pruned += after[2] - before[2];
    }
    // Brute work for the same probes is ~rows-per-cluster each; the
    // scanned fraction is what pruning + margin refinement left over.
    let brute_rows = probes as f64 * (n as f64 / K as f64);
    let scanned_fraction = scanned as f64 / brute_rows.max(1.0);

    // The gated series: whole-batch reads, brute leg then routed leg.
    let batch = blob_rows(BATCH, 77_000 + n as u64);
    let mut brute_batch = Vec::with_capacity(BATCH_ITERS);
    let mut routed_batch = Vec::with_capacity(BATCH_ITERS);
    for _ in 0..BATCH_ITERS {
        let t0 = Instant::now();
        black_box(brute.nearest_labeled(&batch));
        brute_batch.push(t0.elapsed());
        let t1 = Instant::now();
        black_box(routed.nearest_labeled(&batch));
        routed_batch.push(t1.elapsed());
    }

    let bs = report.add_series(&format!("nearest_labeled/one/brute/{tag}"), &brute_lat);
    let (bp50, bthr) = (bs.p50, bs.inv_mean_latency);
    let rs = report.add_series(&format!("nearest_labeled/one/routed/{tag}"), &routed_lat);
    let one_speedup = bp50.as_secs_f64() / rs.p50.as_secs_f64().max(1e-12);
    let (rp50, rthr) = (rs.p50, rs.inv_mean_latency);
    let bbs = report.add_series(&format!("nearest_labeled/batch/brute/{tag}"), &brute_batch);
    let (bbp50, bbthr) = (bbs.p50, bbs.inv_mean_latency);
    let rbs = report.add_series(
        &format!("nearest_labeled/batch/routed/{tag}"),
        &routed_batch,
    );
    let speedup = bbp50.as_secs_f64() / rbs.p50.as_secs_f64().max(1e-12);
    println!(
        "{tag:>13}  one: brute p50 {bp50:>9.2?} ({bthr:>6.0}/s) routed p50 {rp50:>9.2?} \
         ({rthr:>6.0}/s) {one_speedup:>4.1}x | batch{BATCH}: brute p50 {bbp50:>9.2?} \
         ({bbthr:>5.0}/s) routed p50 {:>9.2?} ({:>5.0}/s) {speedup:>4.1}x | \
         scanned {:.2}% of brute rows, {pruned} balls pruned",
        rbs.p50,
        rbs.inv_mean_latency,
        scanned_fraction * 100.0,
    );
    report.add_metric(&format!("speedup_single_{tag}"), one_speedup);
    report.add_metric(&format!("speedup_batch_{tag}"), speedup);
    report.add_metric(&format!("scanned_fraction_{tag}"), scanned_fraction);
    report.add_metric(&format!("pruned_fraction_{tag}"), 1.0 - scanned_fraction);
    report.add_metric(&format!("balls_pruned_{tag}"), pruned as f64);
    speedup
}

/// Views of a store of `n` documents whose second half arrived in
/// [`REFRESH_BATCH`]-document ingests, each followed by one read of the
/// routed view — the read that brings its index up to date, timed. The
/// brute view has not read yet.
fn grown_views(n: usize, seed: u64) -> (Arc<SystemSnapshot>, Arc<SystemSnapshot>, Vec<Duration>) {
    let mut ds = populated_fairds(n / 2, seed);
    let (routed, brute) = views(&mut ds);
    let query = blob_rows(1, 5_000 + n as u64);
    black_box(routed.nearest_labeled(&query));
    let decoded = ds.read_index_counters().rows_decoded();
    let mut refresh = Vec::new();
    while ds.store().len() < n {
        let batch = REFRESH_BATCH.min(n - ds.store().len());
        ingest(&mut ds, batch, seed ^ 0x64);
        let t = Instant::now();
        black_box(routed.nearest_labeled(&query));
        refresh.push(t.elapsed());
    }
    assert_eq!(
        ds.read_index_counters().rows_decoded() - decoded,
        (n - n / 2) as u64,
        "the routed index must have grown through deltas, not rebuilds"
    );
    (routed, brute, refresh)
}

/// Frame width of the request-sized experiment: the paper's 15×15 Bragg
/// patch, so hashing and probing a cached frame weigh what they do in a
/// deployment.
const FRAME: usize = 225;
/// Cluster count of the request-sized experiment: the `benches/e2e`
/// deployment's, so the series line up with its `core.fairds.*` probes.
const REQUEST_K: usize = 8;
const REQUEST_FRAMES: usize = 16;
const REQUEST_ITERS: usize = 400;

/// Embeds a frame as its first [`DIM`] pixels (the rest is payload the
/// embed cache hashes and compares).
#[derive(Clone)]
struct CropEmbedder;

impl Embedder for CropEmbedder {
    fn embed_dim(&self) -> usize {
        DIM
    }
    fn input_dim(&self) -> usize {
        FRAME
    }
    fn fit_controlled(&mut self, _: &Tensor, _: &EmbedTrainConfig, _: &TrainControl) -> bool {
        true
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        let n = images.shape()[0];
        let data = (0..n).flat_map(|i| images.row(i)[..DIM].to_vec()).collect();
        Tensor::from_vec(data, &[n, DIM])
    }
}

/// [`blob_rows`] widened to [`FRAME`] pixels.
fn blob_frames(n: usize, seed: u64) -> Tensor {
    let rows = blob_rows(n, seed);
    let mut data = Vec::with_capacity(n * FRAME);
    for i in 0..n {
        data.extend_from_slice(rows.row(i));
        data.extend((DIM..FRAME).map(|p| (p + i) as f32));
    }
    Tensor::from_vec(data, &[n, FRAME])
}

/// Times the three request-sized reads on one cached batch, interleaved,
/// and gates `certainty_16` against `dataset_pdf_16`.
fn bench_request_sized_reads(report: &mut BenchReport) {
    let n = 10_000;
    let mut ds = FairDS::in_memory(
        Box::new(CropEmbedder),
        FairDsConfig {
            k: Some(REQUEST_K),
            seed: 42,
            ..FairDsConfig::default()
        },
    );
    ds.train_system(&blob_frames(2048, 42 ^ 0xA5), &EmbedTrainConfig::default());
    let labels = Tensor::from_vec(vec![0.5; n * 2], &[n, 2]);
    ds.ingest_labeled(&blob_frames(n, 43), &labels, 0);
    let snap = ds.snapshot().expect("trained");
    let batch = blob_frames(REQUEST_FRAMES, 44);
    // The first pass fills the embed cache and builds the read index.
    black_box((snap.certainty(&batch), snap.nearest_labeled(&batch)));

    let mut lat = [const { Vec::new() }; 3];
    for _ in 0..REQUEST_ITERS {
        let t = Instant::now();
        black_box(snap.certainty(&batch));
        lat[0].push(t.elapsed());
        let t = Instant::now();
        black_box(snap.dataset_pdf(&batch));
        lat[1].push(t.elapsed());
        let t = Instant::now();
        black_box(snap.nearest_labeled(&batch));
        lat[2].push(t.elapsed());
    }
    let names = ["certainty_16", "dataset_pdf_16", "nearest_labeled_16"];
    let p50: Vec<f64> = names
        .iter()
        .zip(&lat)
        .map(|(name, lat)| {
            let s = report.add_series(name, lat);
            println!(
                "{name:>18}  p50 {:>9.2?}  p99 {:>9.2?}  (cached batch, {n}-doc store)",
                s.p50, s.p99
            );
            s.p50.as_secs_f64()
        })
        .collect();
    let ratio = p50[0] / p50[1].max(1e-12);
    report.add_metric("certainty_16_over_dataset_pdf_16", ratio);
    assert!(
        ratio <= 3.0,
        "certainty on 16 cached frames must stay within 3x dataset_pdf \
         ({:.1} us vs {:.1} us, {ratio:.1}x): a parallel region on a request-sized read?",
        p50[0] * 1e6,
        p50[1] * 1e6
    );
}

fn bench_scale_store(_c: &mut Criterion) {
    let mut sizes: Vec<usize> = vec![1_000, 10_000, 100_000];
    if std::env::var("SCALE_STORE_FULL").is_ok_and(|v| v == "1") {
        sizes.push(1_000_000);
    }
    let (bottom, top) = (sizes[0], *sizes.last().expect("non-empty sweep"));

    let mut report = BenchReport::new();
    let mut top_speedups = (0.0f64, 0.0f64);
    let mut refresh_p50 = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let (routed, brute) = views(&mut populated_fairds(n, 42));
        let built = measure(&mut report, &routed, &brute, &format!("{n}"));
        let (routed, brute, refresh) = grown_views(n, 42);
        let grown = measure(&mut report, &routed, &brute, &format!("{n}_grown"));
        let rs = report.add_series(
            &format!("refresh_after_ingest_{REFRESH_BATCH}/{n}"),
            &refresh,
        );
        println!(
            "{:>13}  refresh after a {REFRESH_BATCH}-doc ingest: p50 {:>9.2?} p99 {:>9.2?} \
             ({} refreshes)",
            format!("{n}_grown"),
            rs.p50,
            rs.p99,
            refresh.len()
        );
        refresh_p50.push(rs.p50.as_secs_f64());
        if n == top {
            top_speedups = (built, grown);
        }
    }

    let (small, large) = (refresh_p50[0], refresh_p50[refresh_p50.len() - 1]);
    report.add_metric("refresh_growth_top_vs_bottom", large / small);
    bench_request_sized_reads(&mut report);
    let path = report.write("scale_store");
    println!("wrote {}", path.display());

    // The CI gates. At the largest swept store, batched routed reads must
    // be at least 3x below the brute scan at the median, whether the store
    // was built in one pass or grown through deltas.
    for (how, speedup) in [("built", top_speedups.0), ("grown", top_speedups.1)] {
        assert!(
            speedup >= 3.0,
            "batched routed reads must be >=3x faster than brute at n={top} ({how}; \
             measured {speedup:.1}x)"
        );
    }
    // And bringing the index up to date after an ingest must not grow with
    // the store.
    assert!(
        large <= REFRESH_GROWTH_BOUND * small,
        "refresh after a {REFRESH_BATCH}-doc ingest must not grow with the store: \
         {:.0} us at n={top} vs {:.0} us at n={bottom}",
        large * 1e6,
        small * 1e6
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
    targets = bench_scale_store
}
criterion_main!(benches);
