//! Discrete-event simulation of the prefetching training pipeline.
//!
//! The paper's Figs 6–8 were measured on a testbed (remote MongoDB / NFS
//! behind 100 GbE, V100 compute) this repository cannot reproduce directly.
//! Per the substitution rule in DESIGN.md, the *per-operation* costs are
//! measured for real on this machine (codec decode CPU) or modeled
//! explicitly (wire latency/bandwidth, compute time per batch), and this
//! module composes them through the pipeline the paper's PyTorch loader
//! runs (§III-D): `W` fetch workers pull samples, grouped into batches of
//! `B`, under a bounded prefetch window, while the trainer consumes
//! batches in order.
//!
//! The simulator is causally exact for that pipeline: a worker may start a
//! sample of batch `b` only after batch `b − prefetch` finished computing
//! (buffer back-pressure), a batch is ready when its last sample lands, and
//! the trainer is a single serial server.

/// Input parameters of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineParams {
    /// Samples in the epoch.
    pub n_samples: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Concurrent fetch workers (the paper's "# workers" axis).
    pub workers: usize,
    /// Prefetch window in batches (torch `prefetch_factor`).
    pub prefetch_batches: usize,
    /// Per-sample fetch service time in seconds (wire + decode). One entry
    /// per sample in epoch order; shorter vectors are cycled.
    pub fetch_secs: Vec<f64>,
    /// Compute time for a full batch of `batch_size` samples, in seconds.
    pub compute_secs_per_batch: f64,
}

/// Simulation output for one epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochReport {
    /// Wall-clock span of the epoch (fetch start → last compute end).
    pub epoch_secs: f64,
    /// Mean stall observed by the trainer before each batch.
    pub mean_io_wait_secs: f64,
    /// Maximum per-batch stall.
    pub max_io_wait_secs: f64,
    /// Total fetch work (Σ service times) — a lower bound on
    /// `workers × epoch_secs`.
    pub total_fetch_secs: f64,
    /// Total compute work.
    pub total_compute_secs: f64,
    /// Number of batches executed.
    pub batches: usize,
}

/// Runs the discrete-event simulation.
pub fn simulate(params: &PipelineParams) -> EpochReport {
    assert!(params.batch_size > 0, "batch size must be positive");
    assert!(params.workers > 0, "need at least one worker");
    assert!(!params.fetch_secs.is_empty(), "need fetch service times");
    assert!(
        params.fetch_secs.iter().all(|&t| t >= 0.0),
        "negative fetch time"
    );
    assert!(
        params.compute_secs_per_batch >= 0.0,
        "negative compute time"
    );

    let n = params.n_samples;
    let bs = params.batch_size;
    let n_batches = n.div_ceil(bs);
    if n_batches == 0 {
        return EpochReport::default();
    }
    let prefetch = params.prefetch_batches.max(1);

    // Worker pool: next-free-time per worker.
    let mut worker_free = vec![0.0f64; params.workers];
    // Compute completion times per batch (filled as we go).
    let mut compute_done = vec![0.0f64; n_batches];
    let mut last_compute_end = 0.0f64;
    let mut io_waits = Vec::with_capacity(n_batches);
    let mut total_fetch = 0.0f64;

    let mut sample_cursor = 0usize;
    for b in 0..n_batches {
        // Back-pressure: fetching of batch b may only begin after batch
        // b − prefetch finished computing (its buffer slot freed).
        let gate = if b >= prefetch {
            compute_done[b - prefetch]
        } else {
            0.0
        };

        let batch_samples = if b == n_batches - 1 { n - b * bs } else { bs };
        let mut ready = 0.0f64;
        for _ in 0..batch_samples {
            let service = params.fetch_secs[sample_cursor % params.fetch_secs.len()];
            sample_cursor += 1;
            total_fetch += service;
            // Earliest-free worker takes the sample.
            let w = (0..params.workers)
                .min_by(|&a, &bb| worker_free[a].total_cmp(&worker_free[bb]))
                .unwrap();
            let start = worker_free[w].max(gate);
            let done = start + service;
            worker_free[w] = done;
            ready = ready.max(done);
        }

        // Trainer consumes in order; scale compute for a short final batch.
        let compute = params.compute_secs_per_batch * batch_samples as f64 / bs as f64;
        let start = ready.max(last_compute_end);
        io_waits.push((start - last_compute_end).max(0.0));
        last_compute_end = start + compute;
        compute_done[b] = last_compute_end;
    }

    let mean_io_wait = io_waits.iter().sum::<f64>() / io_waits.len() as f64;
    let max_io_wait = io_waits.iter().cloned().fold(0.0f64, f64::max);
    EpochReport {
        epoch_secs: last_compute_end,
        mean_io_wait_secs: mean_io_wait,
        max_io_wait_secs: max_io_wait,
        total_fetch_secs: total_fetch,
        total_compute_secs: params.compute_secs_per_batch * n as f64 / bs as f64,
        batches: n_batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform fetch time for all samples.
    fn uniform_params(
        n_samples: usize,
        batch_size: usize,
        workers: usize,
        fetch_secs: f64,
        compute_secs_per_batch: f64,
    ) -> PipelineParams {
        PipelineParams {
            n_samples,
            batch_size,
            workers,
            prefetch_batches: 2,
            fetch_secs: vec![fetch_secs],
            compute_secs_per_batch,
        }
    }

    impl EpochReport {
        /// Fraction of the epoch the trainer spent stalled on I/O.
        fn io_stall_fraction(&self) -> f64 {
            if self.epoch_secs <= 0.0 {
                return 0.0;
            }
            (self.mean_io_wait_secs * self.batches as f64) / self.epoch_secs
        }
    }

    #[test]
    fn compute_bound_epoch_approaches_total_compute() {
        // Fetch is essentially free: epoch time ≈ total compute.
        let p = uniform_params(1000, 10, 4, 1e-6, 0.01);
        let r = simulate(&p);
        assert_eq!(r.batches, 100);
        assert!(r.epoch_secs >= r.total_compute_secs);
        assert!(
            r.epoch_secs < r.total_compute_secs * 1.02,
            "epoch {} vs compute {}",
            r.epoch_secs,
            r.total_compute_secs
        );
        assert!(r.mean_io_wait_secs < 1e-4);
    }

    #[test]
    fn io_bound_epoch_is_limited_by_worker_throughput() {
        // Compute is free: epoch ≈ total_fetch / workers.
        let p = uniform_params(400, 10, 4, 0.01, 0.0);
        let r = simulate(&p);
        let bound = r.total_fetch_secs / 4.0;
        assert!(r.epoch_secs >= bound * 0.99);
        assert!(
            r.epoch_secs < bound * 1.3,
            "epoch {} vs bound {bound}",
            r.epoch_secs
        );
        assert!(r.io_stall_fraction() > 0.5);
    }

    #[test]
    fn more_workers_never_slow_the_epoch() {
        let mut prev = f64::INFINITY;
        for workers in [1usize, 2, 4, 8, 16] {
            let p = uniform_params(256, 8, workers, 0.004, 0.002);
            let r = simulate(&p);
            assert!(
                r.epoch_secs <= prev * 1.001,
                "workers={workers}: {} > {prev}",
                r.epoch_secs
            );
            prev = r.epoch_secs;
        }
    }

    #[test]
    fn epoch_time_lower_bounds_hold() {
        let p = PipelineParams {
            n_samples: 123,
            batch_size: 7,
            workers: 3,
            prefetch_batches: 2,
            fetch_secs: vec![0.002, 0.004, 0.001],
            compute_secs_per_batch: 0.003,
        };
        let r = simulate(&p);
        assert!(r.epoch_secs >= r.total_compute_secs * 0.999);
        assert!(r.epoch_secs >= r.total_fetch_secs / 3.0 * 0.999);
        assert!(r.max_io_wait_secs >= r.mean_io_wait_secs);
    }

    #[test]
    fn larger_batches_reduce_per_epoch_overhead_when_io_bound() {
        // With per-sample latency fixed, bigger batches amortize the
        // synchronous first-batch stall — the Fig 6a/7a trend.
        let run = |bs: usize| {
            let p = PipelineParams {
                n_samples: 512,
                batch_size: bs,
                workers: 8,
                prefetch_batches: 2,
                fetch_secs: vec![0.003],
                compute_secs_per_batch: 0.001 * bs as f64,
            };
            simulate(&p).epoch_secs
        };
        // Same total compute; IO overlap improves modestly with batch size.
        assert!(run(64) <= run(8) * 1.05);
    }

    #[test]
    fn prefetch_window_bounds_lookahead() {
        // prefetch=1 forces near-serial fetch/compute; a large window
        // overlaps fully. The bounded window must never be faster.
        let base = PipelineParams {
            n_samples: 200,
            batch_size: 10,
            workers: 4,
            prefetch_batches: 1,
            fetch_secs: vec![0.004],
            compute_secs_per_batch: 0.004,
        };
        let tight = simulate(&base);
        let mut wide_p = base.clone();
        wide_p.prefetch_batches = 16;
        let wide = simulate(&wide_p);
        assert!(wide.epoch_secs <= tight.epoch_secs + 1e-9);
    }

    #[test]
    fn empty_epoch_is_zero() {
        let p = uniform_params(0, 8, 2, 0.001, 0.001);
        let r = simulate(&p);
        assert_eq!(r.batches, 0);
        assert_eq!(r.epoch_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut p = uniform_params(8, 2, 1, 0.001, 0.0);
        p.workers = 0;
        simulate(&p);
    }
}
