//! Inverted dropout.

use super::Layer;
use fairdms_tensor::{rng::TensorRng, Tensor};

/// Inverted dropout: each [`Layer::forward`] draws a fresh mask that keeps
/// an element with probability `1 - p`, scaled by `1 / (1 - p)`, so
/// repeated passes are posterior samples (Gal & Ghahramani; the paper's
/// Fig 2) whose expectation is [`Layer::infer`], the identity.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    mask: Option<Tensor>,
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
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        if self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..x.numel())
            .map(|_| {
                if self.rng.next_uniform(0.0, 1.0) < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::from_vec(mask_data, x.shape());
        let y = x.mul(&mask);
        self.mask = Some(mask);
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        // Inverted dropout is the identity at inference.
        x.clone()
    }

    fn clone_for_shard(&self, shard: u64) -> Box<dyn Layer> {
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.fork(shard),
            mask: None,
        })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_out.mul(mask),
            None => grad_out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_the_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[4, 4]);
        let y = d.infer(&x);
        assert_eq!(y, x);
        let g = d.backward(&Tensor::ones(&[4, 4]));
        assert_eq!(g, Tensor::ones(&[4, 4]));
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(&x);
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
        let y = d.forward(&x);
        let g = d.backward(&Tensor::ones(&[32]));
        // The gradient is zero exactly where the output is zero.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
    }

    #[test]
    fn every_forward_draws_a_fresh_mask() {
        let mut d = Dropout::new(0.5, 11);
        let x = Tensor::ones(&[64]);
        let a = d.forward(&x);
        let b = d.forward(&x);
        assert_ne!(a, b, "MC dropout must resample masks");
    }

    #[test]
    fn a_shard_copy_draws_its_own_masks_and_leaves_the_original_alone() {
        let x = Tensor::ones(&[256]);
        let d = Dropout::new(0.5, 13);
        let mask = |mut layer: Box<dyn Layer>| layer.forward(&x);
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
        assert_eq!(d.forward(&x), x);
    }
}
