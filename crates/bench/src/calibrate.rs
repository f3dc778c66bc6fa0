//! Measured cost calibration for the pipeline simulator.
//!
//! The Figs 6–8 regenerators need two per-configuration numbers that must
//! be *measured*, not assumed: the storage fetch service time per sample
//! (real decode CPU + modeled wire), and the training compute time per
//! batch on this machine. This module measures both.

use crate::netsim::RemoteStore;
use fairdms_datastore::Document;
use fairdms_nn::layers::Sequential;
use fairdms_nn::loss::{Loss, Mse};
use fairdms_tensor::Tensor;
use std::time::Instant;

/// Measured fetch-cost profile of one storage backend.
#[derive(Clone, Debug)]
pub struct FetchProfile {
    /// Backend label ("Blosc" / "Pickle" / "NFS").
    pub label: &'static str,
    /// Per-sample total service times (wire + decode), seconds.
    pub service_secs: Vec<f64>,
    /// Mean decode CPU seconds.
    pub mean_cpu_secs: f64,
    /// Mean modeled wire seconds.
    pub mean_wire_secs: f64,
    /// Mean stored payload bytes.
    pub mean_payload: usize,
}

impl FetchProfile {
    /// Mean total service time.
    pub fn mean_service_secs(&self) -> f64 {
        if self.service_secs.is_empty() {
            0.0
        } else {
            self.service_secs.iter().sum::<f64>() / self.service_secs.len() as f64
        }
    }
}

/// Stores `samples` into `store` and measures the fetch service time of
/// every sample (after one warm-up pass so allocator effects settle).
pub fn profile_backend(store: &RemoteStore, samples: &[Document]) -> FetchProfile {
    assert!(!samples.is_empty(), "need samples to profile");
    let ids: Vec<_> = samples.iter().map(|s| store.put(s)).collect();
    // Warm-up pass.
    for &id in ids.iter().take(8.min(ids.len())) {
        let _ = store.fetch(id);
    }
    let mut service = Vec::with_capacity(ids.len());
    let mut cpu = 0.0f64;
    let mut wire = 0.0f64;
    for &id in &ids {
        let (_, t) = store.fetch(id).expect("stored sample must fetch");
        service.push(t.total_secs());
        cpu += t.cpu_secs;
        wire += t.wire_secs;
    }
    let n = ids.len() as f64;
    FetchProfile {
        label: store.label(),
        service_secs: service,
        mean_cpu_secs: cpu / n,
        mean_wire_secs: wire / n,
        mean_payload: store.mean_payload_bytes(),
    }
}

/// Measured training-compute profile of a model on this machine.
#[derive(Clone, Copy, Debug)]
pub struct ComputeProfile {
    /// Seconds of forward+backward+step per sample.
    pub per_sample_secs: f64,
    /// Fixed per-iteration overhead seconds (batch assembly, optimizer
    /// bookkeeping) — what larger batches amortize.
    pub per_iter_overhead_secs: f64,
}

impl ComputeProfile {
    /// Compute seconds for a batch of `batch` samples.
    pub fn batch_secs(&self, batch: usize) -> f64 {
        self.per_iter_overhead_secs + self.per_sample_secs * batch as f64
    }
}

/// Measures forward+backward cost of `net` at two batch sizes and solves
/// for the linear cost model `iter = overhead + per_sample × batch`.
pub fn profile_compute(
    net: &mut Sequential,
    input_shape: &[usize],
    out_like: bool,
) -> ComputeProfile {
    let measure = |net: &mut Sequential, batch: usize, shape: &[usize]| -> f64 {
        let mut dims = shape.to_vec();
        dims[0] = batch;
        let x = Tensor::zeros(&dims);
        // Warm-up.
        let y0 = net.forward(&x);
        let target = Tensor::zeros(y0.shape());
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            let y = net.forward(&x);
            let g = Mse.backward(&y, &target);
            net.backward(g);
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let small = 4usize;
    let large = 16usize;
    let t_small = measure(net, small, input_shape);
    let t_large = measure(net, large, input_shape);
    let per_sample = ((t_large - t_small) / (large - small) as f64).max(1e-9);
    let overhead = (t_small - per_sample * small as f64).max(1e-6);
    let _ = out_like;
    ComputeProfile {
        per_sample_secs: per_sample,
        per_iter_overhead_secs: overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_nn::layers::{Activation, Dense};
    use fairdms_tensor::rng::TensorRng;

    fn sample(n: usize) -> Document {
        let img: Vec<f32> = (0..n).map(|i| 10.0 + i as f32 * 1e-3).collect();
        Document::new().with("img", img)
    }

    #[test]
    fn backend_profile_reports_positive_costs() {
        let store = RemoteStore::mongo_pickle();
        let samples: Vec<Document> = (0..16).map(|_| sample(1024)).collect();
        let p = profile_backend(&store, &samples);
        assert_eq!(p.service_secs.len(), 16);
        assert!(p.mean_service_secs() > 0.0);
        assert!(p.mean_wire_secs > 0.0);
        assert!(p.mean_payload > 1024);
    }

    #[test]
    fn pickle_fetches_cost_more_than_raw() {
        // The deterministic half of the pickle-vs-raw story: pickle
        // inflates the payload, so the modeled wire time (a pure function
        // of payload bytes) must be strictly larger. The decode-CPU side
        // is measured wall time and inverts in the noise of unoptimized
        // builds, so it is intentionally not asserted here — the release
        // figure regenerators (`figures -- fig6`, its `decode_cpu` column) report it.
        let samples: Vec<Document> = (0..12).map(|_| sample(16 * 1024)).collect();
        let pickle = profile_backend(&RemoteStore::mongo_pickle(), &samples);
        let nfs = profile_backend(&RemoteStore::nfs_raw(), &samples);
        assert!(
            pickle.mean_payload > nfs.mean_payload,
            "pickle payload {} !> raw payload {}",
            pickle.mean_payload,
            nfs.mean_payload
        );
        assert!(
            pickle.mean_wire_secs > nfs.mean_wire_secs,
            "pickle wire {} !> raw wire {}",
            pickle.mean_wire_secs,
            nfs.mean_wire_secs
        );
        assert!(pickle.mean_cpu_secs > 0.0 && nfs.mean_cpu_secs > 0.0);
    }

    #[test]
    fn compute_profile_is_positive_and_monotone() {
        let mut rng = TensorRng::seeded(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(64, 128, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(128, 8, &mut rng)),
        ]);
        let p = profile_compute(&mut net, &[1, 64], false);
        assert!(p.per_sample_secs > 0.0);
        assert!(p.per_iter_overhead_secs > 0.0);
        assert!(p.batch_secs(64) > p.batch_secs(8));
    }
}
