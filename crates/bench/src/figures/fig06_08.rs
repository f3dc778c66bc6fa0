//! **Figs 6–8** — storage-system impact on training: per-epoch time vs
//! batch size (left panels) and I/O time per iteration vs worker count
//! (right panels) for Blosc-in-MongoDB, Pickle-in-MongoDB and direct NFS
//! reads, over the Tomography (Fig 6), CookieBox (Fig 7) and BraggPeaks
//! (Fig 8) datasets.
//!
//! Method (substitution documented in DESIGN.md): per-sample decode CPU is
//! *measured* on this machine against real codecs; the 100 GbE wire is
//! modeled per backend; per-batch compute is *measured* against the real
//! model of each dataset; and the prefetching-loader pipeline composes
//! them through the causally exact discrete-event simulator.

use crate::calibrate::{profile_backend, profile_compute, ComputeProfile, FetchProfile};
use crate::netsim::paper_backends;
use crate::pipesim::{simulate, PipelineParams};
use crate::table::{f2, secs, Table};
use crate::Scale;
use fairdms_core::models::ArchSpec;
use fairdms_datasets::{BraggSimulator, CookieBoxSimulator, DriftModel, TomoSimulator};
use fairdms_datastore::Document;
use fairdms_nn::layers::{Activation, Conv2d, Sequential};
use fairdms_tensor::rng::TensorRng;

/// The paper's training compute ran on an NVIDIA V100; this repo measures
/// compute on CPU cores. The measured per-batch cost is divided by this
/// documented substitution factor (a V100 runs these small convnets about
/// an order of magnitude faster than a multicore CPU), which restores the
/// paper's compute-to-I/O balance — without it, CPU compute masks every
/// storage effect the figures exist to show. See DESIGN.md §4.
const V100_SUBSTITUTE_SPEEDUP: f64 = 25.0;

/// Fixed per-iteration framework overhead of the paper's training stack
/// (Python dataloader collation, optimizer bookkeeping, CUDA kernel
/// launches — ~10 ms/iteration is typical for PyTorch). This cost does
/// *not* shrink on a V100 — it is precisely what larger batches amortize,
/// and the reason the paper's left panels slope downward. Our measured
/// Rust per-iteration overhead is microseconds, so it is replaced by this
/// documented constant rather than scaled. See DESIGN.md §4.
const FRAMEWORK_ITER_OVERHEAD_SECS: f64 = 0.012;

/// The paper's fixed worker count for the batch-size sweep.
const SWEEP_WORKERS: usize = 50;
/// The paper's fixed batch size for the worker sweep.
const SWEEP_BATCH: usize = 512;

struct DatasetSpec {
    name: &'static str,
    samples: Vec<Document>,
    compute: ComputeProfile,
    batch_sizes: Vec<usize>,
    workers: Vec<usize>,
    epoch_samples: usize,
}

fn sweep(spec: DatasetSpec, csv_prefix: &str) {
    // Measure every backend against the same samples.
    let backends = paper_backends();
    let profiles: Vec<FetchProfile> = backends
        .iter()
        .map(|b| profile_backend(b, &spec.samples))
        .collect();

    let mut meta = Table::new(
        &format!("{}: measured per-sample fetch costs", spec.name),
        &["backend", "payload_B", "decode_cpu", "wire(model)", "total"],
    );
    for p in &profiles {
        meta.row(vec![
            p.label.to_string(),
            p.mean_payload.to_string(),
            secs(p.mean_cpu_secs),
            secs(p.mean_wire_secs),
            secs(p.mean_service_secs()),
        ]);
    }
    meta.emit(&format!("{csv_prefix}_costs"));

    // Left panel: epoch time vs batch size at 50 workers.
    let mut left = Table::new(
        &format!(
            "{}(a): epoch time [s] vs batch size ({} workers, {} samples/epoch)",
            spec.name, SWEEP_WORKERS, spec.epoch_samples
        ),
        &{
            let mut h = vec!["batch"];
            h.extend(profiles.iter().map(|p| p.label));
            h
        },
    );
    for &bs in &spec.batch_sizes {
        let mut row = vec![bs.to_string()];
        for p in &profiles {
            let r = simulate(&PipelineParams {
                n_samples: spec.epoch_samples,
                batch_size: bs,
                workers: SWEEP_WORKERS,
                prefetch_batches: 2,
                fetch_secs: p.service_secs.clone(),
                compute_secs_per_batch: spec.compute.per_sample_secs * bs as f64
                    / V100_SUBSTITUTE_SPEEDUP
                    + FRAMEWORK_ITER_OVERHEAD_SECS,
            });
            row.push(f2(r.epoch_secs));
        }
        left.row(row);
    }
    left.emit(&format!("{csv_prefix}_epoch_vs_batch"));

    // Right panel: I/O time per iteration vs workers at batch 512.
    let mut right = Table::new(
        &format!(
            "{}(b): I/O time per iteration [ms] vs #workers (batch {})",
            spec.name, SWEEP_BATCH
        ),
        &{
            let mut h = vec!["workers"];
            h.extend(profiles.iter().map(|p| p.label));
            h
        },
    );
    for &w in &spec.workers {
        let mut row = vec![w.to_string()];
        for p in &profiles {
            let r = simulate(&PipelineParams {
                n_samples: spec.epoch_samples,
                batch_size: SWEEP_BATCH,
                workers: w,
                prefetch_batches: 2,
                fetch_secs: p.service_secs.clone(),
                compute_secs_per_batch: spec.compute.per_sample_secs * SWEEP_BATCH as f64
                    / V100_SUBSTITUTE_SPEEDUP
                    + FRAMEWORK_ITER_OVERHEAD_SECS,
            });
            row.push(format!("{:.3}", r.mean_io_wait_secs * 1e3));
        }
        right.row(row);
    }
    right.emit(&format!("{csv_prefix}_io_vs_workers"));
}

fn batch_axis(scale: Scale, include_32: bool) -> Vec<usize> {
    let mut axis = if include_32 {
        vec![32, 64, 128, 256, 512, 1024]
    } else {
        vec![64, 128, 256, 512, 1024]
    };
    if scale == Scale::Smoke {
        axis.truncate(2);
    }
    axis
}

fn worker_axis(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 10],
        _ => vec![1, 2, 10, 30, 50, 100],
    }
}

/// **Fig 6** — Tomography workload (large frames; the paper's 2048² u16
/// samples, reduced per DESIGN.md §4).
pub fn run_tomo(scale: Scale) -> Result<(), String> {
    let size = scale.pick(64, 256, 1024);
    let n = scale.pick(6, 24, 48);
    let sim = TomoSimulator::new(size, 0);
    let samples: Vec<Document> = sim.frames(n).iter().map(|f| f.to_document()).collect();

    // The tomography model in the paper is TomoGAN (a denoiser); a small
    // conv denoiser at the same input size provides the measured compute.
    let mut rng = TensorRng::seeded(0);
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
        Box::new(Activation::relu()),
        Box::new(Conv2d::new(4, 1, 3, 1, 1, &mut rng)),
    ]);
    let compute = profile_compute(&mut net, &[1, 1, size, size], true);

    sweep(
        DatasetSpec {
            name: "Fig 6 Tomography",
            samples,
            compute,
            batch_sizes: batch_axis(scale, false),
            workers: worker_axis(scale),
            epoch_samples: scale.pick(256, 2048, 4096),
        },
        "fig06_tomo",
    );
    Ok(())
}

/// **Fig 7** — CookieBox workload (128×128 histograms).
pub fn run_cookiebox(scale: Scale) -> Result<(), String> {
    let size = scale.pick(32, 128, 128);
    let n = scale.pick(8, 48, 128);
    let sim = CookieBoxSimulator::new(size, 1);
    let samples: Vec<Document> = sim.scan(0, n).iter().map(|i| i.to_document()).collect();

    let model_size = scale.pick(32, 64, 128);
    let mut net = ArchSpec::CookieNetAE { size: model_size }.build(2);
    let compute = profile_compute(&mut net, &[1, 1, model_size, model_size], true);

    sweep(
        DatasetSpec {
            name: "Fig 7 CookieBox",
            samples,
            compute,
            batch_sizes: batch_axis(scale, true),
            workers: worker_axis(scale),
            epoch_samples: scale.pick(256, 2048, 8192),
        },
        "fig07_cookiebox",
    );
    Ok(())
}

/// **Fig 8** — BraggPeaks workload (tiny 15×15 patches; latency-bound, the
/// panel where NFS clearly beats both MongoDB configurations).
pub fn run_bragg(scale: Scale) -> Result<(), String> {
    let n = scale.pick(64, 512, 2048);
    let sim = BraggSimulator::new(DriftModel::none(), 2);
    let samples: Vec<Document> = sim.scan(0, n).iter().map(|p| p.to_document()).collect();

    let mut net = ArchSpec::BraggNN { patch: 15 }.build(3);
    let compute = profile_compute(&mut net, &[1, 1, 15, 15], false);

    sweep(
        DatasetSpec {
            name: "Fig 8 BraggPeaks",
            samples,
            compute,
            batch_sizes: batch_axis(scale, true),
            workers: worker_axis(scale),
            epoch_samples: scale.pick(512, 8192, 32768),
        },
        "fig08_bragg",
    );
    Ok(())
}
