//! The paper's two benchmark applications (§III-A) as buildable
//! architecture specs.
//!
//! A model Zoo stores checkpoints as opaque bytes; [`ArchSpec`] is the
//! companion recipe that rebuilds the network those bytes load into.

use fairdms_nn::layers::{Activation, Conv2d, Dense, Dropout, Flatten, Sequential, Upsample2x};
use fairdms_tensor::rng::TensorRng;

/// A buildable model architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchSpec {
    /// BraggNN (Liu et al., IUCrJ 2022): a small CNN regressing the
    /// sub-pixel center of mass of a Bragg-peak patch. Input
    /// `[N, 1, patch, patch]`, output `[N, 2]` (normalized center).
    BraggNN {
        /// Patch edge length (the paper uses 15).
        patch: usize,
    },
    /// CookieNetAE: an encoder–decoder estimating the energy-angle
    /// probability density from a CookieBox histogram image. Input and
    /// output `[N, 1, size, size]`.
    CookieNetAE {
        /// Image edge length; must be divisible by 4.
        size: usize,
    },
}

impl ArchSpec {
    /// Builds a freshly initialized network of this architecture.
    pub fn build(&self, seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        match *self {
            ArchSpec::BraggNN { patch } => {
                assert!(patch >= 7, "patch too small for BraggNN");
                let pooled = patch / 2;
                Sequential::new(vec![
                    Box::new(Conv2d::new(1, 16, 3, 1, 1, &mut rng)),
                    Box::new(Activation::leaky_relu(0.01)),
                    Box::new(Conv2d::new(16, 8, 3, 1, 1, &mut rng)),
                    Box::new(Activation::leaky_relu(0.01)),
                    Box::new(fairdms_nn::layers::MaxPool2d::new(2)),
                    Box::new(Flatten::new()),
                    Box::new(Dense::new(8 * pooled * pooled, 64, &mut rng)),
                    Box::new(Activation::leaky_relu(0.01)),
                    Box::new(Dropout::new(0.2, seed ^ 0xD0)),
                    Box::new(Dense::new(64, 32, &mut rng)),
                    Box::new(Activation::leaky_relu(0.01)),
                    Box::new(Dense::new(32, 2, &mut rng)),
                    Box::new(Activation::sigmoid()), // normalized center ∈ [0,1]²
                ])
            }
            ArchSpec::CookieNetAE { size } => {
                assert!(
                    size % 4 == 0 && size >= 8,
                    "size must be a multiple of 4, ≥ 8"
                );
                Sequential::new(vec![
                    // Encoder: s → s/2 → s/4.
                    Box::new(Conv2d::new(1, 8, 3, 2, 1, &mut rng)),
                    Box::new(Activation::relu()),
                    Box::new(Conv2d::new(8, 16, 3, 2, 1, &mut rng)),
                    Box::new(Activation::relu()),
                    Box::new(Dropout::new(0.1, seed ^ 0xC0)),
                    // Decoder: s/4 → s/2 → s.
                    Box::new(Upsample2x::new()),
                    Box::new(Conv2d::new(16, 8, 3, 1, 1, &mut rng)),
                    Box::new(Activation::relu()),
                    Box::new(Upsample2x::new()),
                    Box::new(Conv2d::new(8, 1, 3, 1, 1, &mut rng)),
                ])
            }
        }
    }

    /// A short stable name (used in zoo entries and reports).
    pub fn name(&self) -> &'static str {
        match self {
            ArchSpec::BraggNN { .. } => "BraggNN",
            ArchSpec::CookieNetAE { .. } => "CookieNetAE",
        }
    }

    /// The architecture's size parameter (patch / image edge length).
    pub fn param(&self) -> usize {
        match *self {
            ArchSpec::BraggNN { patch } => patch,
            ArchSpec::CookieNetAE { size } => size,
        }
    }

    /// Rebuilds a spec from its `(name, param)` parts — the inverse of
    /// [`ArchSpec::name`] + [`ArchSpec::param`], used by zoo persistence.
    pub fn from_parts(name: &str, param: usize) -> Option<ArchSpec> {
        match name {
            "BraggNN" => Some(ArchSpec::BraggNN { patch: param }),
            "CookieNetAE" => Some(ArchSpec::CookieNetAE { size: param }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_nn::loss::{Loss, Mse};
    use fairdms_nn::optim::{Adam, Optimizer};

    #[test]
    fn braggnn_shapes_are_correct() {
        let net = ArchSpec::BraggNN { patch: 15 }.build(0);
        let x = TensorRng::seeded(1).uniform(&[4, 1, 15, 15], 0.0, 1.0);
        let y = net.infer(&x);
        assert_eq!(y.shape(), &[4, 2]);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cookienetae_shapes_are_correct() {
        let net = ArchSpec::CookieNetAE { size: 16 }.build(0);
        let x = TensorRng::seeded(2).uniform(&[2, 1, 16, 16], 0.0, 5.0);
        let y = net.infer(&x);
        assert_eq!(y.shape(), &[2, 1, 16, 16]);
    }

    #[test]
    fn same_seed_builds_identical_networks() {
        let spec = ArchSpec::BraggNN { patch: 15 };
        let a = spec.build(7);
        let b = spec.build(7);
        let pa = a.params();
        let pb = b.params();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn braggnn_learns_to_reduce_loss() {
        // A couple of gradient steps on a tiny synthetic batch must reduce
        // the training loss — a smoke test that the full stack
        // (conv → pool → dense → sigmoid) differentiates correctly.
        let mut net = ArchSpec::BraggNN { patch: 15 }.build(3);
        let mut rng = TensorRng::seeded(4);
        let x = rng.uniform(&[8, 1, 15, 15], 0.0, 1.0);
        let y = rng.uniform(&[8, 2], 0.3, 0.7);
        let mut opt = Adam::new(0.005);
        let first = {
            let pred = net.forward(&x);
            Mse.forward(&pred, &y)
        };
        for _ in 0..30 {
            let pred = net.forward(&x);
            let grad = Mse.backward(&pred, &y);
            net.backward(grad);
            opt.step(net.params_mut());
        }
        let last = {
            let pred = net.infer(&x);
            Mse.forward(&pred, &y)
        };
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn cookienetae_rejects_bad_size() {
        ArchSpec::CookieNetAE { size: 18 }.build(0);
    }
}
