//! Seeded random tensor generation.
//!
//! Every stochastic component in the workspace (weight init, samplers,
//! synthetic instruments) threads an explicit seed through this type so that
//! experiments — and the paper figures regenerated from them — are exactly
//! reproducible run-to-run.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random number generator specialized for tensor initialization.
#[derive(Clone)]
pub struct TensorRng {
    rng: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        TensorRng {
            rng: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// A generator for stream `stream`, seeded from this one's state, that
    /// leaves this one untouched: the same state and stream give the same
    /// generator, different streams independent ones.
    pub fn fork(&self, stream: u64) -> TensorRng {
        let seed = self.rng.clone().next_u64();
        TensorRng::seeded(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn next_uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform range is inverted");
        lo + (hi - lo) * self.rng.gen::<f32>()
    }

    /// A standard-normal sample via the Box–Muller transform.
    fn next_normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1: f32 = 1.0 - self.rng.gen::<f32>();
        let u2: f32 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn next_normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.next_normal()
    }

    /// A uniform integer in `[0, n)`.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_index on empty range");
        self.rng.gen_range(0..n)
    }

    /// A Poisson sample with rate `lambda` (Knuth's algorithm for small
    /// rates, normal approximation above 64 — adequate for photon-count
    /// noise in the instrument simulators).
    pub fn next_poisson(&mut self, lambda: f32) -> u32 {
        assert!(lambda >= 0.0, "negative Poisson rate");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let z = self.next_normal_with(lambda, lambda.sqrt());
            return z.max(0.0).round() as u32;
        }
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0f32;
        loop {
            p *= self.rng.gen::<f32>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// A tensor of uniform samples in `[lo, hi)`.
    pub fn uniform(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.next_uniform(lo, hi)).collect();
        Tensor::from_vec(data, dims)
    }

    /// A tensor of normal samples.
    fn normal(&mut self, dims: &[usize], mean: f32, std: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| self.next_normal_with(mean, std)).collect();
        Tensor::from_vec(data, dims)
    }

    /// Xavier/Glorot-uniform initialization for a `[fan_out, fan_in]` weight.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform(&[fan_out, fan_in], -bound, bound)
    }

    /// He-normal initialization (for ReLU networks) of an arbitrary shape
    /// with the given fan-in.
    pub fn he_normal(&mut self, dims: &[usize], fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        self.normal(dims, 0.0, std)
    }

    /// An in-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Draws an index from a discrete probability distribution. The weights
    /// need not be normalized; all-zero weights fall back to uniform.
    pub fn next_weighted(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "next_weighted on empty weights");
        let total: f32 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return self.next_index(weights.len());
        }
        let mut target = self.next_uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                target -= w;
                if target <= 0.0 {
                    return i;
                }
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generators_are_reproducible() {
        let a = TensorRng::seeded(99).uniform(&[32], 0.0, 1.0);
        let b = TensorRng::seeded(99).uniform(&[32], 0.0, 1.0);
        assert_eq!(a, b);
        let c = TensorRng::seeded(100).uniform(&[32], 0.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::seeded(5);
        let t = rng.normal(&[20_000], 1.5, 0.5);
        assert!((t.mean() - 1.5).abs() < 0.02, "mean {}", t.mean());
        assert!(
            (t.variance().sqrt() - 0.5).abs() < 0.02,
            "std {}",
            t.variance().sqrt()
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seeded(1);
        let t = rng.uniform(&[10_000], -2.0, 3.0);
        assert!(t.min() >= -2.0 && t.max() < 3.0);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = TensorRng::seeded(13);
        let p = rng.permutation(257);
        let mut seen = vec![false; 257];
        for &i in &p {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = TensorRng::seeded(21);
        for &lambda in &[0.5f32, 4.0, 100.0] {
            let n = 5_000;
            let mean: f32 = (0..n).map(|_| rng.next_poisson(lambda) as f32).sum::<f32>() / n as f32;
            assert!(
                (mean - lambda).abs() < 3.0 * (lambda / n as f32).sqrt() + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn weighted_draw_respects_zero_weights() {
        let mut rng = TensorRng::seeded(77);
        for _ in 0..200 {
            let i = rng.next_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn xavier_bound_shrinks_with_fanin() {
        let mut rng = TensorRng::seeded(8);
        let w = rng.xavier(600, 600);
        let bound = (6.0f32 / 1200.0).sqrt();
        assert!(w.max() <= bound && w.min() >= -bound);
    }
}
