//! Monte-Carlo dropout uncertainty and model-degradation monitoring: the
//! paper's Fig 2 (and the HEDM example's monitor).
//!
//! Running a dropout-regularized network `T` times through its training
//! pass ([`Sequential::forward`], which draws a fresh dropout mask on every
//! call) approximates sampling from the posterior predictive distribution
//! (Gal & Ghahramani). The paper uses the resulting spread as its
//! model-degradation signal: when new data drifts away from the training
//! distribution, predictive uncertainty widens before error is measurable.

use fairdms_nn::layers::Sequential;
use fairdms_tensor::Tensor;

/// Mean and spread of `T` stochastic forward passes.
#[derive(Clone, Debug)]
pub struct McEstimate {
    /// Elementwise mean prediction.
    pub mean: Tensor,
    /// Elementwise standard deviation across the `T` samples.
    pub std: Tensor,
    /// Number of stochastic passes used.
    pub samples: usize,
}

impl McEstimate {
    /// Mean standard deviation across all outputs — the scalar uncertainty
    /// index plotted on the right axis of the paper's Fig 2.
    pub fn mean_uncertainty(&self) -> f32 {
        self.std.mean()
    }
}

/// Runs `samples` stochastic training passes and aggregates mean and
/// standard deviation.
///
/// The network must contain at least one
/// [`Dropout`](fairdms_nn::layers::Dropout) layer for the estimate to carry
/// information; with none, `std` is exactly zero.
pub fn predict(net: &mut Sequential, x: &Tensor, samples: usize) -> McEstimate {
    assert!(samples >= 2, "MC dropout needs at least 2 samples");
    let mut sum: Option<Tensor> = None;
    let mut sum_sq: Option<Tensor> = None;
    for _ in 0..samples {
        let y = net.forward(x);
        match (&mut sum, &mut sum_sq) {
            (Some(s), Some(q)) => {
                s.add_assign(&y);
                q.add_assign(&y.mul(&y));
            }
            _ => {
                sum_sq = Some(y.mul(&y));
                sum = Some(y);
            }
        }
    }
    let n = samples as f32;
    let mean = sum.unwrap().scale(1.0 / n);
    let var = sum_sq
        .unwrap()
        .scale(1.0 / n)
        .sub(&mean.mul(&mean))
        // Clamp tiny negatives from float cancellation.
        .map(|v| v.max(0.0));
    McEstimate {
        mean,
        std: var.map(f32::sqrt),
        samples,
    }
}

/// Error + uncertainty of one dataset in a series.
#[derive(Clone, Copy, Debug)]
pub struct DegradationPoint {
    /// Scan (dataset) index.
    pub scan: usize,
    /// Mean prediction error (task metric, e.g. center distance in px).
    pub error: f32,
    /// Mean MC-dropout predictive standard deviation.
    pub uncertainty: f32,
}

/// Mean Euclidean distance between predicted and true rows — the
/// "prediction error (px)" metric when rows are (cx, cy) in pixels.
pub fn mean_row_distance(pred: &Tensor, truth: &Tensor, scale: f32) -> f32 {
    assert_eq!(pred.shape(), truth.shape(), "shape mismatch");
    let (n, d) = (pred.shape()[0], pred.shape()[1]);
    if n == 0 {
        return 0.0;
    }
    let mut acc = 0.0f32;
    for i in 0..n {
        let mut s = 0.0f32;
        for k in 0..d {
            let diff = (pred.at(&[i, k]) - truth.at(&[i, k])) * scale;
            s += diff * diff;
        }
        acc += s.sqrt();
    }
    acc / n as f32
}

/// Evaluates a model across a scan series, producing the Fig 2 curves:
/// per-scan prediction error and MC-dropout uncertainty.
///
/// `scale` converts normalized predictions back to task units (e.g. the
/// patch size in pixels); `mc_samples` is the number of stochastic passes.
pub fn degradation_series(
    net: &mut Sequential,
    series: &[(usize, Tensor, Tensor)],
    scale: f32,
    mc_samples: usize,
) -> Vec<DegradationPoint> {
    series
        .iter()
        .map(|(scan, x, y)| {
            let pred = net.infer(x);
            let error = mean_row_distance(&pred, y, scale);
            let est = predict(net, x, mc_samples);
            DegradationPoint {
                scan: *scan,
                error,
                uncertainty: est.mean_uncertainty(),
            }
        })
        .collect()
}

/// First scan index at which the error exceeds `baseline × factor`, where
/// `baseline` is the mean error over the first `warmup` points — a simple
/// degradation detector for the workflow tests.
pub fn detect_degradation(
    points: &[DegradationPoint],
    warmup: usize,
    factor: f32,
) -> Option<usize> {
    if points.len() <= warmup || warmup == 0 {
        return None;
    }
    let baseline: f32 = points[..warmup].iter().map(|p| p.error).sum::<f32>() / warmup as f32;
    points[warmup..]
        .iter()
        .find(|p| p.error > baseline * factor)
        .map(|p| p.scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_nn::layers::{Activation, Dense, Dropout};
    use fairdms_tensor::rng::TensorRng;

    #[test]
    fn mean_row_distance_matches_hand_computation() {
        let pred = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]);
        let truth = Tensor::from_vec(vec![3.0, 4.0, 1.0, 1.0], &[2, 2]);
        // Distances 5 and 0, mean 2.5; scale doubles it.
        assert!((mean_row_distance(&pred, &truth, 1.0) - 2.5).abs() < 1e-6);
        assert!((mean_row_distance(&pred, &truth, 2.0) - 5.0).abs() < 1e-6);
    }

    fn toy_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dropout::new(0.3, seed)),
            Box::new(Dense::new(16, 2, &mut rng)),
        ])
    }

    #[test]
    fn series_reports_one_point_per_scan() {
        let mut net = toy_net(0);
        let mut rng = TensorRng::seeded(1);
        let series: Vec<(usize, Tensor, Tensor)> = (0..4)
            .map(|s| {
                (
                    s * 2,
                    rng.uniform(&[6, 4], -1.0, 1.0),
                    rng.uniform(&[6, 2], -1.0, 1.0),
                )
            })
            .collect();
        let points = degradation_series(&mut net, &series, 1.0, 8);
        assert_eq!(points.len(), 4);
        assert_eq!(points[2].scan, 4);
        assert!(points
            .iter()
            .all(|p| p.error >= 0.0 && p.uncertainty >= 0.0));
        // Dropout present ⇒ nonzero uncertainty.
        assert!(points.iter().any(|p| p.uncertainty > 0.0));
    }

    #[test]
    fn detector_fires_on_error_growth() {
        let points: Vec<DegradationPoint> = [0.1f32, 0.11, 0.09, 0.1, 0.12, 0.35, 0.4]
            .iter()
            .enumerate()
            .map(|(i, &e)| DegradationPoint {
                scan: 400 + i,
                error: e,
                uncertainty: 0.0,
            })
            .collect();
        assert_eq!(detect_degradation(&points, 4, 2.0), Some(405));
    }

    fn dropout_net(seed: u64, p: f32) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dropout::new(p, seed + 1)),
            Box::new(Dense::new(16, 1, &mut rng)),
        ])
    }

    #[test]
    fn no_dropout_means_zero_uncertainty() {
        let mut net = dropout_net(0, 0.0);
        let mut rng = TensorRng::seeded(5);
        let x = rng.uniform(&[8, 4], -1.0, 1.0);
        let est = predict(&mut net, &x, 8);
        // Identical passes: only float cancellation residue remains, which
        // the sum-of-squares formula leaves at ~sqrt(eps·|y|²).
        assert!(est.mean_uncertainty() < 1e-3, "{}", est.mean_uncertainty());
    }

    #[test]
    fn dropout_produces_positive_uncertainty() {
        let mut net = dropout_net(1, 0.5);
        let mut rng = TensorRng::seeded(6);
        let x = rng.uniform(&[8, 4], -1.0, 1.0);
        let est = predict(&mut net, &x, 16);
        assert!(est.mean_uncertainty() > 0.0);
        assert_eq!(est.mean.shape(), &[8, 1]);
        assert_eq!(est.std.shape(), &[8, 1]);
    }

    #[test]
    fn higher_dropout_rate_widens_uncertainty() {
        let mut rng = TensorRng::seeded(7);
        let x = rng.uniform(&[16, 4], -1.0, 1.0);
        let mut low = dropout_net(2, 0.1);
        let mut high = dropout_net(2, 0.6);
        let u_low = predict(&mut low, &x, 32).mean_uncertainty();
        let u_high = predict(&mut high, &x, 32).mean_uncertainty();
        assert!(u_high > u_low, "{u_high} !> {u_low}");
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn rejects_single_sample() {
        let mut net = dropout_net(3, 0.2);
        let x = Tensor::zeros(&[1, 4]);
        predict(&mut net, &x, 1);
    }

    #[test]
    fn detector_stays_quiet_on_stable_series() {
        let points: Vec<DegradationPoint> = (0..10)
            .map(|i| DegradationPoint {
                scan: i,
                error: 0.1,
                uncertainty: 0.0,
            })
            .collect();
        assert_eq!(detect_degradation(&points, 4, 2.0), None);
        assert_eq!(detect_degradation(&points[..2], 4, 2.0), None);
    }
}
