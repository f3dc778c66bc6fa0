//! Inverted dropout.

use super::Layer;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Inverted dropout: each [`Layer::forward`] draws a fresh mask that keeps
/// an element with probability `1 - p`, scaled by `1 / (1 - p)`, so
/// repeated passes are posterior samples (Gal & Ghahramani; the paper's
/// Fig 2) whose expectation is [`Layer::infer`], the identity. Both passes
/// scale the tensor they were handed in place; the mask lives in an
/// allocation recycled from step to step.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    /// The last training pass's mask; empty when it dropped nothing.
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own seeded
    /// mask generator (explicit seeding keeps MC-dropout runs reproducible).
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: TensorRng::seeded(seed),
            mask: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut x: Tensor) -> Tensor {
        self.mask.clear();
        if self.p == 0.0 {
            return x;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for v in x.data_mut() {
            let m = if self.rng.next_uniform(0.0, 1.0) < keep {
                scale
            } else {
                0.0
            };
            self.mask.push(m);
            *v *= m;
        }
        x
    }

    fn infer(&self, x: Tensor) -> Tensor {
        // Inverted dropout is the identity at inference.
        x
    }

    fn clone_for_shard(&self, shard: u64) -> Box<dyn Layer> {
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.fork(shard),
            mask: Vec::new(),
        })
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        if !self.mask.is_empty() {
            assert_eq!(
                grad_out.numel(),
                self.mask.len(),
                "Dropout: gradient size mismatch"
            );
            for (g, &m) in grad_out.data_mut().iter_mut().zip(&self.mask) {
                *g *= m;
            }
        }
        grad_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_the_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[4, 4]);
        let y = d.infer(x.clone());
        assert_eq!(y, x);
        let g = d.backward(Tensor::ones(&[4, 4]));
        assert_eq!(g, Tensor::ones(&[4, 4]));
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(x);
        // Inverted dropout: E[y] = E[x]; tolerate sampling noise.
        assert!((y.mean() - 1.0).abs() < 0.02, "mean {}", y.mean());
        // Survivors are scaled by 1/keep.
        let survivors: Vec<f32> = y.data().iter().copied().filter(|&v| v != 0.0).collect();
        assert!(survivors.iter().all(|&v| (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[32]);
        let y = d.forward(x);
        let g = d.backward(Tensor::ones(&[32]));
        // The gradient is zero exactly where the output is zero.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
    }

    #[test]
    fn every_forward_draws_a_fresh_mask() {
        let mut d = Dropout::new(0.5, 11);
        let x = Tensor::ones(&[64]);
        let a = d.forward(x.clone());
        let b = d.forward(x);
        assert_ne!(a, b, "MC dropout must resample masks");
    }

    #[test]
    fn a_shard_copy_draws_its_own_masks_and_leaves_the_original_alone() {
        let x = Tensor::ones(&[256]);
        let d = Dropout::new(0.5, 13);
        let mask = |mut layer: Box<dyn Layer>| layer.forward(x.clone());
        let original = mask(Box::new(d.clone()));
        assert_eq!(original, mask(Box::new(d.clone())), "forking drew nothing");
        assert_ne!(mask(d.clone_for_shard(1)), original);
        assert_ne!(mask(d.clone_for_shard(2)), mask(d.clone_for_shard(1)));
        assert_eq!(
            mask(d.clone_for_shard(1)),
            mask(d.clone_for_shard(1)),
            "a shard's stream is a function of the state and the index"
        );
    }

    #[test]
    fn zero_probability_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::ones(&[8]);
        assert_eq!(d.forward(x.clone()), x);
    }
}
