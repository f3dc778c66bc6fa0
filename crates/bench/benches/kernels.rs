//! Kernel-engine bench: GEMM, convolution forward/backward and the
//! BraggNN training step.
//!
//! It is the kernel engine's CI gate: it writes
//! `results/BENCH_kernels.json` (p50/p99 + GFLOP/s per size, plus the
//! speedup metrics) through [`fairdms_bench::report::BenchReport`]
//! and asserts the perf floors the engine must hold, each measured on
//! interleaved pairs so machine jitter hits both sides alike (the same
//! pairing discipline as the embed-cache smoke):
//!
//! * blocked GEMM ≥2× the naive `ikj` reference at 256×256 and no
//!   regression at 64×64;
//! * on eight skinny shapes, a product at the default pool width never
//!   more than 10% slower than the same product on a one-wide pool, where
//!   nothing splits — the dispatch may decline to fan out, it may not pay
//!   for a region it cannot win back. Four shapes are below the parallel
//!   gate (both sides run one path); the other four are above it, so the
//!   default width does split them;
//! * the embedder's first layer at request size (16×256 · 512×256ᵀ +
//!   bias) against a [`PackedB`] ≥1.5× the same product packing per call:
//!   a frozen forward pass that quietly went back to packing reads 1×;
//! * BraggNN's second convolution, forward + backward, ≥3× a direct
//!   seven-loop convolution on the same batch;
//! * that convolution's backward pass (with `∂X`) ≤1.9× its forward pass:
//!   the input gradient is one shifted product of depth `OC·K²` per
//!   sample, and a `col2im` route read 2.24×;
//! * one `UpdateModel` fit (BraggNN, 52 + 12 frames, 8 epochs, batch 32)
//!   at the default pool width ≥1.2× the same fit on a one-wide pool, on a
//!   machine with two or more cores: the step's second shard must run on
//!   the fit's helper thread, and that must pay.
//!
//! Ungated, it records what a layer spends around its register tiles:
//! BraggNN's two convolutions at an update shard's 16 rows, forward and
//! backward, each timed against the layer's own register-tile calls run
//! bare on its last sample's laid-out operands ([`Conv2d::bare_tiles`];
//! `conv/{layer}_{fwd,bwd}_vs_tiles_batch16`, the median of interleaved
//! pairs' ratios): what is above 1× is layout, packing and stores.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairdms_bench::report::BenchReport;
use fairdms_core::models::ArchSpec;
use fairdms_nn::layers::{Conv2d, Layer};
use fairdms_nn::loss::{Loss, Mse};
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, Trainer};
use fairdms_tensor::gemm::{self, PackedB};
use fairdms_tensor::{ops, rng::TensorRng, Tensor};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Times `blocked` and `naive` on the same inputs, back to back within
/// each iteration, so frequency scaling and scheduler noise cancel in
/// the per-pair ratio the CI floor is computed from.
fn measure_pair(
    iters: usize,
    mut blocked: impl FnMut(),
    mut naive: impl FnMut(),
) -> (Vec<Duration>, Vec<Duration>) {
    let mut lat_b = Vec::with_capacity(iters);
    let mut lat_n = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        blocked();
        lat_b.push(t0.elapsed());
        let t0 = Instant::now();
        naive();
        lat_n.push(t0.elapsed());
    }
    (lat_b, lat_n)
}

/// Median of per-pair `naive/blocked` latency ratios: the speedup figure
/// the CI floor gates on.
fn paired_speedup(blocked: &[Duration], naive: &[Duration]) -> f64 {
    let mut ratios: Vec<f64> = naive
        .iter()
        .zip(blocked)
        .map(|(n, b)| n.as_secs_f64() / b.as_secs_f64().max(1e-12))
        .collect();
    ratios.sort_unstable_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

/// `(m, k, n)` of skinny products of the shape a 16→8-channel 3×3
/// convolution over 32 16×16 images lowered to before the per-sample
/// lowering: forward, `∂W` and `∂cols` of a row-major lowering, and the
/// `[C·K², OC]·[OC, pixels]` product a `col2im` route ran. No layer runs
/// these shapes any more; they stay as the dispatch's degenerate corners,
/// inputs to the default-width-vs-one-wide gate.
const SKINNY: [(usize, usize, usize); 4] = [
    (8192, 144, 8),
    (8, 8192, 144),
    (8192, 8, 144),
    (144, 8, 8192),
];

/// Skinny products above the parallel gate: the shapes of [`SKINNY`] with
/// `m ≥ 2·MC` at 64 images instead of 32, and a product at the gate's
/// smallest `m`, 64 rows, 2,048 deep — the default width splits each, and
/// the floor asks that the split pay.
const SKINNY_SPLIT: [(usize, usize, usize); 4] = [
    (16384, 144, 8),
    (16384, 8, 144),
    (144, 8, 16384),
    (64, 2048, 144),
];

/// Whether the GEMM engine splits a product of this shape on a pool two or
/// more wide (`gemm`'s dispatch gate).
const fn above_gate((m, k, n): (usize, usize, usize)) -> bool {
    m * k * n >= ops::PAR_MIN_WORK && m >= 2 * gemm::MC
}

/// Direct seven-loop 3×3-style convolution, forward and backward, over
/// flat NCHW buffers: the reference the layer is floored against.
/// Returns `(y, dw, db, dx)` for the upstream gradient `dy`.
#[allow(clippy::too_many_arguments)]
fn conv_direct_fwd_bwd(
    x: &[f32],
    w: &[f32],
    b: &[f32],
    dy: &[f32],
    (n, c, h, wid): (usize, usize, usize, usize),
    oc: usize,
    k: usize,
    pad: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = (h + 2 * pad + 1 - k, wid + 2 * pad + 1 - k);
    let mut y = vec![0.0f32; n * oc * oh * ow];
    let (mut dw, mut db, mut dx) = (vec![0.0f32; w.len()], vec![0.0f32; oc], vec![0.0; x.len()]);
    for ni in 0..n {
        for co in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = ((ni * oc + co) * oh + oy) * ow + ox;
                    let g = dy[o];
                    let mut acc = b[co];
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox + kx;
                                if ix < pad || ix >= wid + pad {
                                    continue;
                                }
                                let xi = ((ni * c + ci) * h + iy - pad) * wid + ix - pad;
                                let wi = ((co * c + ci) * k + ky) * k + kx;
                                acc += x[xi] * w[wi];
                                dw[wi] += g * x[xi];
                                dx[xi] += g * w[wi];
                            }
                        }
                    }
                    y[o] = acc;
                    db[co] += g;
                }
            }
        }
    }
    (y, dw, db, dx)
}

/// Minor page faults of this process so far: field 10 of `/proc/self/stat`,
/// `None` where there is no such file (anywhere but Linux).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesized command name (which may hold
    // spaces) start at field 3, the state: field 10 is the eighth of them.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// One `UpdateModel` fit as `benches/e2e` runs it (BraggNN, 64 frames
/// split 52 + 12 as `workflow::seeded_split` splits them, 8 epochs, batch
/// 32), from the same foundation each call.
fn update_fit(rng: &mut TensorRng) -> impl Fn() + Sync {
    let x = rng.uniform(&[52, 1, 16, 16], 0.0, 1.0);
    let y = rng.uniform(&[52, 2], 0.2, 0.8);
    let (vx, vy) = (
        rng.uniform(&[12, 1, 16, 16], 0.0, 1.0),
        rng.uniform(&[12, 2], 0.2, 0.8),
    );
    let foundation = ArchSpec::BraggNN { patch: 16 }.build(3);
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 32,
        ..TrainConfig::default()
    });
    move || {
        let mut net = foundation.clone();
        let mut opt = Adam::new(5e-4);
        black_box(trainer.fit(&mut net, &mut opt, &Mse, &x, &y, &vx, &vy));
    }
}

/// The argument on which this binary runs one update fit and prints its
/// minor page faults instead of benching: what a fit faults depends on how
/// far the process's heap has grown (this bench's large products grow it
/// past trimming), so the count is taken in a fresh process of its own.
const FIT_FAULTS: &str = "--fit-faults";

/// The minor page faults of a fit after a first one, in a fresh process:
/// each is the allocator handing memory back to the kernel and taking it
/// again.
fn fit_faults() -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg(FIT_FAULTS)
        .output()
        .ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

fn bench_gemm(c: &mut Criterion) {
    if std::env::args().any(|a| a == FIT_FAULTS) {
        let fit = update_fit(&mut TensorRng::seeded(2));
        fit();
        let before = minor_faults();
        fit();
        if let (Some(before), Some(after)) = (before, minor_faults()) {
            println!("{}", after - before);
        }
        std::process::exit(0);
    }

    let mut group = c.benchmark_group("gemm");
    for &n in &[64usize, 256] {
        let mut rng = TensorRng::seeded(0);
        let a = rng.uniform(&[n, n], -1.0, 1.0);
        let b = rng.uniform(&[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| gemm::matmul(&a, &b))
        });
    }
    group.finish();

    // Report + CI floor, independent of criterion's own statistics so the
    // JSON record and the gate can never disagree about what was measured.
    let mut report = BenchReport::new();
    let summarize = |report: &mut BenchReport, name: &str, lat: &[Duration], flops: f64| {
        let s = report.add_series(name, lat);
        let gflops = flops / s.p50.as_secs_f64() / 1e9;
        println!(
            "{name:<22} p50 {:>10.2?}  p99 {:>10.2?}  {gflops:>7.2} GFLOP/s",
            s.p50, s.p99
        );
        if flops > 0.0 {
            report.add_metric(&format!("{name}_gflops"), gflops);
        }
    };

    let mut speedups = Vec::new();
    for &(n, iters) in &[(64usize, 400usize), (256, 40)] {
        let mut rng = TensorRng::seeded(0);
        let a = rng.uniform(&[n, n], -1.0, 1.0);
        let b = rng.uniform(&[n, n], -1.0, 1.0);
        // Warm both paths (thread pool spin-up, packing scratch).
        black_box(gemm::matmul(&a, &b));
        black_box(ops::matmul_naive(&a, &b));
        let (lat_blocked, lat_naive) = measure_pair(
            iters,
            || {
                black_box(gemm::matmul(&a, &b));
            },
            || {
                black_box(ops::matmul_naive(&a, &b));
            },
        );
        let flops = 2.0 * (n as f64).powi(3);
        summarize(
            &mut report,
            &format!("gemm/blocked_{n}"),
            &lat_blocked,
            flops,
        );
        summarize(&mut report, &format!("gemm/naive_{n}"), &lat_naive, flops);
        let speedup = paired_speedup(&lat_blocked, &lat_naive);
        println!("gemm {n}x{n}: blocked {speedup:.2}x naive (paired median)");
        report.add_metric(&format!("speedup_vs_naive_{n}"), speedup);
        speedups.push((n, speedup));
    }
    // 512 is blocked-only: the naive loop at ~30 ms/iter would dominate
    // bench wall time without informing either floor.
    {
        let n = 512usize;
        let mut rng = TensorRng::seeded(0);
        let a = rng.uniform(&[n, n], -1.0, 1.0);
        let b = rng.uniform(&[n, n], -1.0, 1.0);
        black_box(gemm::matmul(&a, &b));
        let mut lat = Vec::with_capacity(15);
        for _ in 0..15 {
            let t0 = Instant::now();
            black_box(gemm::matmul(&a, &b));
            lat.push(t0.elapsed());
        }
        summarize(
            &mut report,
            &format!("gemm/blocked_{n}"),
            &lat,
            2.0 * (n as f64).powi(3),
        );
    }

    // The skinny shapes, each at the default pool width (`_auto`) and on a
    // one-wide pool (`_seq`), on interleaved pairs. GFLOP/s is recorded per
    // width; the gate is their ratio.
    let one_wide = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut auto_vs_seq = Vec::new();
    const { assert!(above_gate(SKINNY_SPLIT[0])) };
    const { assert!(above_gate(SKINNY_SPLIT[1])) };
    const { assert!(above_gate(SKINNY_SPLIT[2])) };
    const { assert!(above_gate(SKINNY_SPLIT[3])) };
    for &(m, k, n) in SKINNY.iter().chain(&SKINNY_SPLIT) {
        let mut rng = TensorRng::seeded(0);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let run = || {
            black_box(gemm::matmul(&a, &b));
        };
        run();
        one_wide.install(run);
        let (lat_auto, lat_seq) = measure_pair(40, run, || one_wide.install(run));
        let flops = 2.0 * (m * k * n) as f64;
        let name = format!("gemm/skinny_{m}x{k}x{n}");
        summarize(&mut report, &format!("{name}_auto"), &lat_auto, flops);
        summarize(&mut report, &format!("{name}_seq"), &lat_seq, flops);
        let ratio = paired_speedup(&lat_auto, &lat_seq);
        report.add_metric(&format!("{name}_auto_vs_seq"), ratio);
        auto_vs_seq.push(((m, k, n), ratio));
    }

    // A constant right-hand operand packed once against the same product
    // packing it per call: the embedder's first layer at request size,
    // where the 256×512 weight is most of the bytes touched, and the read
    // index's query-group-against-one-ball distance block, where the
    // strided transposed pack is as much work as the product.
    let packed_embed = {
        let (m, k, n) = (16, 256, 512);
        let mut rng = TensorRng::seeded(0);
        let x = rng.uniform(&[m, k], -1.0, 1.0);
        let w = rng.uniform(&[n, k], -1.0, 1.0);
        let bias = rng.uniform(&[n], -1.0, 1.0);
        let panels = PackedB::pack_transposed(&w);
        let packed = || gemm::matmul_packed_bias(&x, &panels, &bias);
        let per_call = || gemm::matmul_transb_bias(&x, &w, &bias);
        assert_eq!(packed(), per_call(), "the two sides are one product");
        let (lat_packed, lat_per_call) = measure_pair(
            400,
            || {
                black_box(packed());
            },
            || {
                black_box(per_call());
            },
        );
        let flops = 2.0 * (m * k * n) as f64;
        summarize(
            &mut report,
            "gemm/embed_16x256x512_packed",
            &lat_packed,
            flops,
        );
        summarize(
            &mut report,
            "gemm/embed_16x256x512_per_call",
            &lat_per_call,
            flops,
        );
        let speedup = paired_speedup(&lat_packed, &lat_per_call);
        println!("embed 16x256x512: packed {speedup:.2}x per-call (paired median)");
        report.add_metric("embed_packed_vs_per_call", speedup);
        speedup
    };
    {
        let (m, k, n) = (2, 16, 64);
        let mut rng = TensorRng::seeded(0);
        let q = rng.uniform(&[m, k], -1.0, 1.0);
        let rows = rng.uniform(&[n, k], -1.0, 1.0);
        let (qn, rn) = (
            ops::row_sq_norms(q.data(), k),
            ops::row_sq_norms(rows.data(), k),
        );
        let panels = PackedB::pack_transposed(&rows);
        let (mut out_packed, mut out_per_call) = (vec![0.0; m * n], vec![0.0; m * n]);
        let (lat_packed, lat_per_call) = measure_pair(
            2000,
            || {
                let out = &mut out_packed;
                gemm::sq_dist_packed_into(m, q.data(), &panels, &qn, &rn, out);
                black_box(out);
            },
            || {
                let (a, b, out) = (q.data(), rows.data(), &mut out_per_call);
                gemm::sq_dist_into(m, k, n, a, b, &qn, &rn, out);
                black_box(out);
            },
        );
        assert_eq!(out_packed, out_per_call, "the two sides are one product");
        let flops = 2.0 * (m * k * n) as f64;
        summarize(&mut report, "gemm/index_2x16x64_packed", &lat_packed, flops);
        summarize(
            &mut report,
            "gemm/index_2x16x64_per_call",
            &lat_per_call,
            flops,
        );
        let speedup = paired_speedup(&lat_packed, &lat_per_call);
        println!("index 2x16x64 sq_dist: packed {speedup:.2}x per-call (paired median)");
        report.add_metric("index_packed_vs_per_call", speedup);
    }

    // What one parallel region costs on this machine: the number
    // `ops::PAR_MIN_WORK` is sized against.
    let mut lanes = vec![0u8; rayon::current_num_threads().max(2)];
    let lat: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            lanes.par_iter_mut().for_each(|v| *v = v.wrapping_add(1));
            t0.elapsed()
        })
        .collect();
    summarize(&mut report, "rayon/empty_region", &lat, 0.0);

    // BraggNN's two convolutions at the deployed 16×16 patch, batch 32,
    // forward and backward apart, so a step-time change can be traced to
    // its layer; and CookieNetAE's strided encoder convolution on the same
    // images, the one layer whose input gradient splits into stride phases.
    let mut rng = TensorRng::seeded(1);
    let conv_flops =
        |cin: usize, cout: usize, pixels: usize| 2.0 * (32 * cout * cin * 9 * pixels) as f64;
    let mut conv2_bwd_vs_fwd = 0.0;
    for (name, cin, cout, stride) in [
        ("conv1_1to16", 1usize, 16usize, 1usize),
        ("conv2_16to8", 16, 8, 1),
        ("cookie_8to16_s2", 8, 16, 2),
    ] {
        let mut conv = Conv2d::new(cin, cout, 3, stride, 1, &mut rng);
        let out = 16 / stride;
        let x = rng.uniform(&[32, cin, 16, 16], -1.0, 1.0);
        let dy = rng.uniform(&[32, cout, out, out], -1.0, 1.0);
        black_box(conv.forward(x.clone()));
        black_box(conv.backward(dy.clone()));
        let (mut lat_fwd, mut lat_bwd) = (Vec::new(), Vec::new());
        for _ in 0..40 {
            // The layers take their tensors: the copies are made untimed.
            let (x, dy) = (x.clone(), dy.clone());
            let t0 = Instant::now();
            black_box(conv.forward(x));
            lat_fwd.push(t0.elapsed());
            let t0 = Instant::now();
            black_box(conv.backward(dy));
            lat_bwd.push(t0.elapsed());
        }
        let flops = conv_flops(cin, cout, out * out);
        summarize(
            &mut report,
            &format!("conv/{name}_fwd_batch32"),
            &lat_fwd,
            flops,
        );
        summarize(
            &mut report,
            &format!("conv/{name}_bwd_batch32"),
            &lat_bwd,
            2.0 * flops,
        );
        // The pairs are interleaved: the median backward-over-forward ratio.
        let ratio = paired_speedup(&lat_fwd, &lat_bwd);
        println!("conv/{name}: backward {ratio:.2}x forward (paired median)");
        report.add_metric(&format!("conv/{name}_bwd_vs_fwd"), ratio);
        if name == "conv2_16to8" {
            conv2_bwd_vs_fwd = ratio;
        }
    }

    // BraggNN's convolutions at an update shard's 16 rows against bare
    // loops of their tile calls, interleaved: forward, then the backward
    // pass the training step runs (parameters only for conv1, the first
    // layer; with `∂X` for conv2).
    for (name, cin, cout, dx) in [("conv1_1to16", 1, 16, false), ("conv2_16to8", 16, 8, true)] {
        let mut conv = Conv2d::new(cin, cout, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[16, cin, 16, 16], -1.0, 1.0);
        let dy = rng.uniform(&[16, cout, 16, 16], -1.0, 1.0);
        // The layer's outputs are dropped untimed, as a network hands them on.
        let backward = |conv: &mut Conv2d, dy: Tensor| match dx {
            true => Some(conv.backward(dy)),
            false => {
                conv.backward_params(dy);
                None
            }
        };
        black_box(conv.forward(x.clone()));
        black_box(backward(&mut conv, dy.clone()));
        let mut lat = [(); 4].map(|_| Vec::with_capacity(300));
        for _ in 0..300 {
            let (x, dy) = (x.clone(), dy.clone());
            let t0 = Instant::now();
            let y = black_box(conv.forward(x));
            lat[0].push(t0.elapsed());
            drop(y);
            let t0 = Instant::now();
            conv.bare_tiles(false);
            lat[1].push(t0.elapsed());
            let t0 = Instant::now();
            let dx_out = backward(&mut conv, dy);
            lat[2].push(t0.elapsed());
            drop(black_box(dx_out));
            let t0 = Instant::now();
            conv.bare_tiles(true);
            lat[3].push(t0.elapsed());
        }
        for (i, pass) in ["fwd", "bwd"].into_iter().enumerate() {
            let (layer, tiles) = (&lat[2 * i], &lat[2 * i + 1]);
            summarize(
                &mut report,
                &format!("conv/{name}_{pass}_batch16"),
                layer,
                0.0,
            );
            summarize(
                &mut report,
                &format!("conv/{name}_{pass}_tiles_batch16"),
                tiles,
                0.0,
            );
            let ratio = paired_speedup(tiles, layer);
            println!("conv/{name} {pass}: layer {ratio:.2}x its bare tiles (paired median)");
            report.add_metric(&format!("conv/{name}_{pass}_vs_tiles_batch16"), ratio);
        }
    }

    // The second convolution against the direct seven-loop one: forward +
    // full backward on the same batch, interleaved. (The series keeps its
    // `lowered` name so records stay comparable across commits.)
    let conv_speedup = {
        let mut conv = Conv2d::new(16, 8, 3, 1, 1, &mut rng);
        let x = rng.uniform(&[32, 16, 16, 16], -1.0, 1.0);
        let dy = rng.uniform(&[32, 8, 16, 16], -1.0, 1.0);
        let (w, b) = {
            let p = conv.params();
            (p[0].value.clone(), p[1].value.clone())
        };
        let lowered = |conv: &mut Conv2d| {
            let y = conv.forward(x.clone());
            (y, conv.backward(dy.clone()))
        };
        let direct = || {
            conv_direct_fwd_bwd(
                x.data(),
                w.data(),
                b.data(),
                dy.data(),
                (32, 16, 16, 16),
                8,
                3,
                1,
            )
        };
        // The two must be computing the same thing for the ratio to mean
        // anything.
        let ((y, dx), (y_ref, _, _, dx_ref)) = (lowered(&mut conv), direct());
        assert!(fairdms_tensor::allclose(
            &y,
            &Tensor::from_vec(y_ref, y.shape()),
            1e-3
        ));
        assert!(fairdms_tensor::allclose(
            &dx,
            &Tensor::from_vec(dx_ref, dx.shape()),
            1e-3
        ));
        let (lat_lowered, lat_direct) = measure_pair(
            10,
            || {
                black_box(lowered(&mut conv));
            },
            || {
                black_box(direct());
            },
        );
        let flops = 3.0 * conv_flops(16, 8, 256);
        summarize(
            &mut report,
            "conv/conv2_lowered_fwd_bwd",
            &lat_lowered,
            flops,
        );
        summarize(&mut report, "conv/conv2_direct_fwd_bwd", &lat_direct, flops);
        let speedup = paired_speedup(&lat_lowered, &lat_direct);
        println!("conv2 fwd+bwd: lowered {speedup:.2}x direct (paired median)");
        report.add_metric("conv_speedup_vs_direct", speedup);
        speedup
    };

    // BraggNN training step at the deployed patch size: forward, loss
    // gradient, parameter gradients — what `Trainer` runs per shard — over
    // 32 rows and over 16, the shard an update step runs, recorded so kernel
    // and layer changes show up in model-step terms too. The network takes
    // its rows, so each step's copy is made untimed.
    for rows in [32usize, 16] {
        let mut net = ArchSpec::BraggNN { patch: 16 }.build(0);
        let x = rng.uniform(&[rows, 1, 16, 16], 0.0, 1.0);
        let y = rng.uniform(&[rows, 2], 0.0, 1.0);
        let step = |net: &mut fairdms_nn::Sequential, x: Tensor| {
            let pred = net.forward(x);
            net.backward_params(Mse.backward(&pred, &y));
        };
        step(&mut net, x.clone()); // warm (first step sizes the recycled buffers)
        let mut lat = Vec::with_capacity(40);
        for _ in 0..40 {
            let x = x.clone();
            let t0 = Instant::now();
            step(&mut net, x);
            lat.push(t0.elapsed());
        }
        summarize(
            &mut report,
            &format!("braggnn/fwd_bwd_batch{rows}"),
            &lat,
            0.0,
        );
    }

    // The update fit on a one-wide pool and at the default width.
    let fit_speedup = {
        let fit = &update_fit(&mut rng);
        fit();
        one_wide.install(fit);
        let (lat_default, lat_one) = measure_pair(20, fit, || one_wide.install(fit));
        summarize(&mut report, "braggnn/fit8_update", &lat_default, 0.0);
        summarize(&mut report, "braggnn/fit8_update_one_wide", &lat_one, 0.0);
        let speedup = paired_speedup(&lat_default, &lat_one);
        println!(
            "BraggNN 8-epoch update fit: default width {speedup:.2}x one-wide (paired median)"
        );
        if let Some(faults) = fit_faults() {
            println!("BraggNN 8-epoch update fit: {faults} minor page faults (fresh process)");
            report.add_metric("fit8_minor_faults", faults as f64);
        }
        report.add_metric("fit8_default_vs_one_wide", speedup);
        speedup
    };

    let path = report.write("kernels");
    println!("wrote {}", path.display());

    // CI floors. 256×256 is the engine's home turf (panels resident, the
    // parallel path active): it must beat the naive reference ≥2×. At
    // 64×64 blocking buys less but must never cost — "no regression"
    // with a 5% jitter allowance (measured headroom is ~1.5×).
    let s64 = speedups.iter().find(|(n, _)| *n == 64).expect("64 ran").1;
    let s256 = speedups.iter().find(|(n, _)| *n == 256).expect("256 ran").1;
    assert!(
        s256 >= 2.0,
        "blocked GEMM must be ≥2x the naive reference at 256x256, got {s256:.2}x"
    );
    assert!(
        s64 >= 0.95,
        "blocked GEMM must not regress at 64x64, got {s64:.2}x vs naive"
    );
    // The default width may stay on one thread for a skinny shape; what it
    // may not do is open a region that costs more than it returns.
    for ((m, k, n), ratio) in auto_vs_seq {
        assert!(
            ratio >= 1.0 / 1.1,
            "the default width is {:.0}% slower than a one-wide pool on {m}x{k}x{n}",
            (1.0 / ratio - 1.0) * 100.0
        );
    }
    // A frozen layer multiplies against its panels; this is what a fall
    // back to per-call packing behind `Layer::freeze` would read as 1×.
    assert!(
        packed_embed >= 1.5,
        "the packed embed product must be ≥1.5x the per-call one, got {packed_embed:.2}x"
    );
    assert!(
        conv_speedup >= 3.0,
        "lowered conv2 fwd+bwd must be ≥3x the direct convolution, got {conv_speedup:.2}x"
    );
    // The input gradient is one adjoint product a sample; a `col2im` route
    // with its depth-`OC` product reads above this.
    assert!(
        conv2_bwd_vs_fwd <= 1.9,
        "conv2's backward pass must be ≤1.9x its forward pass, got {conv2_bwd_vs_fwd:.2}x"
    );
    // A second core must shorten a fit: shard 1 on the helper thread.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            fit_speedup >= 1.2,
            "an update fit at the default width must be ≥1.2x the one-wide fit, got {fit_speedup:.2}x"
        );
    } else {
        println!("fit8_default_vs_one_wide floor skipped: {cores} core(s) available");
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_gemm
}
criterion_main!(benches);
