//! Monte-Carlo dropout uncertainty quantification (Gal & Ghahramani).
//!
//! Running a dropout-regularized network `T` times with masks *active*
//! approximates sampling from the posterior predictive distribution. The
//! paper uses the resulting spread as its model-degradation signal (Fig 2):
//! when new data drifts away from the training distribution, predictive
//! uncertainty widens before error is measurable.

use crate::layers::{Mode, Sequential};
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

/// Runs `samples` stochastic forward passes in [`Mode::McDropout`] and
/// aggregates mean and standard deviation.
///
/// The network must contain at least one [`crate::layers::Dropout`] layer
/// for the estimate to carry information; with none, `std` is exactly zero.
pub fn predict(net: &mut Sequential, x: &Tensor, samples: usize) -> McEstimate {
    assert!(samples >= 2, "MC dropout needs at least 2 samples");
    let mut sum: Option<Tensor> = None;
    let mut sum_sq: Option<Tensor> = None;
    for _ in 0..samples {
        let y = net.forward(x, Mode::McDropout);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense, Dropout};
    use fairdms_tensor::rng::TensorRng;

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
}
