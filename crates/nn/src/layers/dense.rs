//! Fully connected (linear) layer.

use super::Layer;
use crate::param::Param;
use fairdms_tensor::gemm::{self, PackedB};
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::sync::Arc;

/// A fully connected layer: `y = x Wᵀ + b`.
///
/// The weight is stored `[out_features, in_features]` so the forward pass
/// (`gemm::matmul_transb_bias`), the input-gradient pass (`gemm::matmul`)
/// and the weight-gradient pass (`gemm::matmul_transa_acc`) all run on the
/// stored layout without materializing a transpose. The training pass keeps
/// the input it was handed for the weight gradient.
///
/// [`Layer::freeze`] packs the weight into GEMM panels once; from then on
/// every forward pass multiplies against them instead of re-packing the
/// weight per call — the same product, bit for bit. The panels live only
/// while nobody can have changed the weight: handing it out through
/// [`Layer::params_mut`] drops them, so a layer that trains packs per call
/// into the thread's recycled scratch from its first optimizer step on.
#[derive(Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    /// The weight in panels while frozen; clones share them.
    frozen: Option<Arc<PackedB>>,
    in_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        Dense {
            weight: Param::new(rng.xavier(in_features, out_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            frozen: None,
            in_features,
            cached_input: None,
        }
    }

    /// `x Wᵀ + b`.
    fn affine(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Dense: expected {} input features, got {}",
            self.in_features,
            x.shape()[1]
        );
        // Bias is folded into the GEMM epilogue: it is added exactly once per
        // output element as the final depth block flushes, which is the same
        // final-add ordering as a separate broadcast pass — bit-identical,
        // one sweep over the output instead of two.
        match &self.frozen {
            Some(panels) => gemm::matmul_packed_bias(x, panels, &self.bias.value),
            None => gemm::matmul_transb_bias(x, &self.weight.value, &self.bias.value),
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let y = self.affine(&x);
        self.cached_input = Some(x);
        y
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.affine(&x)
    }

    fn freeze(&mut self) {
        self.frozen = Some(Arc::new(PackedB::pack_transposed(&self.weight.value)));
    }

    fn work(&self, input: &[usize]) -> usize {
        input[0] * self.in_features * self.bias.value.numel()
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        // ∂X = ∂Y × W  → [batch, in]
        let dx = gemm::matmul(&grad_out, &self.weight.value);
        self.backward_params(grad_out);
        dx
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // ∂W += ∂Yᵀ × X  → [out, in], added into ∂W in place once per
        // depth block of the batch: for a batch of at most `KC` rows, the
        // same bits as adding a separate product.
        gemm::matmul_transa_acc(&grad_out, x, self.weight.grad.data_mut());
        // ∂b = column sums of ∂Y
        self.bias.grad.add_assign(&grad_out.sum_rows());
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Whoever holds these may write the weight: the panels go first.
        self.frozen = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = TensorRng::seeded(0);
        let mut layer = Dense::new(2, 3, &mut rng);
        layer.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        layer.bias.value = Tensor::from_vec(vec![0.5, -0.5, 0.0], &[3]);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        let y = layer.infer(x);
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = TensorRng::seeded(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        layer.forward(x.clone());
        let g = Tensor::ones(&[2, 2]);
        let gx = layer.backward(g.clone());
        assert_eq!(gx.shape(), &[2, 2]);
        // ∂b = column sums of g = [2, 2]
        assert_eq!(layer.bias.grad.data(), &[2.0, 2.0]);
        // ∂W[i][j] = Σ_batch g[., i] * x[., j] = [1+3, 2+4] per output row.
        assert_eq!(layer.weight.grad.data(), &[4.0, 6.0, 4.0, 6.0]);
        // Second backward accumulates (doubles).
        layer.forward(x);
        layer.backward(g);
        assert_eq!(layer.bias.grad.data(), &[4.0, 4.0]);
    }

    #[test]
    fn a_batch_deeper_than_one_depth_block_accumulates_its_weight_gradient() {
        // 300 rows: ∂W's depth spans two `KC` blocks, each added into ∂W
        // as it is flushed. Wide enough that the products split on a pool
        // wider than one.
        let (rows, inp, out) = (300, 880, 72);
        const { assert!(300 > gemm::KC) };
        let mut rng = TensorRng::seeded(4);
        let layer = Dense::new(inp, out, &mut rng);
        let x = rng.uniform(&[rows, inp], -1.0, 1.0);
        let g = rng.uniform(&[rows, out], -1.0, 1.0);
        let weight_grad = |threads: usize| {
            let mut layer = layer.clone();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                layer.forward(x.clone());
                layer.backward(g.clone());
            });
            let dw = layer.weight.grad;
            let bits: Vec<u32> = dw.data().iter().map(|v| v.to_bits()).collect();
            (dw, bits)
        };
        let (dw, bits) = weight_grad(1);
        let naive = fairdms_tensor::ops::matmul_naive(&g.transpose(), &x);
        assert!(fairdms_tensor::allclose_rel(&dw, &naive, 1e-4, 1e-4));
        assert_eq!(bits, weight_grad(3).1, "∂W depends on the pool width");
    }

    #[test]
    fn frozen_panels_are_shared_by_clones_and_dropped_with_params_mut() {
        let mut rng = TensorRng::seeded(3);
        let mut layer = Dense::new(20, 9, &mut rng);
        let x = rng.uniform(&[5, 20], -1.0, 1.0);
        let unfrozen = layer.infer(x.clone());
        layer.freeze();
        assert_eq!(layer.infer(x), unfrozen);
        let twin = layer.clone();
        let (a, b) = (
            layer.frozen.as_ref().unwrap(),
            twin.frozen.as_ref().unwrap(),
        );
        assert!(Arc::ptr_eq(a, b), "a clone shares the panels");
        layer.params_mut();
        assert!(layer.frozen.is_none(), "handing the weight out thaws");
        assert!(twin.frozen.is_some(), "the clone owns its own weight");
    }

    #[test]
    #[should_panic(expected = "expected 2 input features")]
    fn rejects_wrong_feature_count() {
        let mut rng = TensorRng::seeded(2);
        let layer = Dense::new(2, 2, &mut rng);
        layer.infer(Tensor::zeros(&[1, 3]));
    }
}
