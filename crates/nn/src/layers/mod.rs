//! The [`Layer`] abstraction and the layer implementations.
//!
//! A layer is a differentiable function with internal state: `forward`
//! caches whatever its backward pass needs, `backward` consumes that cache,
//! accumulates parameter gradients and returns the gradient with respect to
//! its input; `infer` computes the output from `&self`, touching no cache.
//! Every pass takes its tensor by value and returns one, so a layer that
//! can work in place (an activation, dropout, a flatten) maps the buffer
//! it was handed and hands it on, and one that keeps its input for the
//! backward pass ([`Dense`]) keeps the tensor it was given. What a layer
//! keeps from step to step it keeps in allocations it recycles, sized
//! afresh by every training pass. Layers compose through [`Sequential`],
//! which moves one buffer through the net.

mod activation;
mod conv;
mod dense;
mod dropout;
mod pool;
mod shape_ops;

pub use activation::Activation;
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::MaxPool2d;
pub use shape_ops::{Flatten, Upsample2x};

use crate::param::Param;
use fairdms_tensor::Tensor;

/// A differentiable network layer.
///
/// Layers are `Send + Sync`: shared references are safe to use across
/// threads because the only `&self` entry point is [`Layer::infer`], which
/// touches no caches. This is what lets a trained network be frozen into an
/// immutable snapshot (see `DESIGN.md` §6) and served concurrently. Layers
/// derive `Clone`, which [`LayerClone`] carries through `Box<dyn Layer>`.
///
/// Every pass takes ownership of its input and returns its output, which
/// may be the input's own storage: a caller that wants to keep a tensor
/// hands in a copy.
pub trait Layer: LayerClone + Send + Sync {
    /// The training pass: the layer output, caching what `backward` needs.
    /// [`Dropout`] draws a fresh mask on every call; every other layer
    /// returns [`Layer::infer`]'s bits. The cache holds this call's rows
    /// only, whatever batch size the last call had.
    fn forward(&mut self, x: Tensor) -> Tensor;

    /// The inference pass: the layer output **without** mutating any cache
    /// — how a network is served (from snapshots, concurrently) and
    /// evaluated. `backward` after `infer` is a caller bug.
    fn infer(&self, x: Tensor) -> Tensor;

    /// Propagates `grad_out` (∂L/∂output) backwards: accumulates parameter
    /// gradients and returns ∂L/∂input. Must be called after a `forward`.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first layer of a network being trained. Accumulates the same
    /// parameter gradients; layers whose `∂L/∂input` costs real work
    /// override it to skip that work.
    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward(grad_out);
    }

    /// A clone of the layer for the copy a training step runs shard
    /// `shard` of its mini-batch on: a layer that draws random numbers
    /// gives the copy a stream of its own, a function of its own state and
    /// `shard`, so no two shards share a draw and none depends on the
    /// thread it runs on.
    fn clone_for_shard(&self, _shard: u64) -> Box<dyn Layer> {
        self.clone_box()
    }

    /// Multiply–adds of one forward pass over an input of shape `input`
    /// (rows first): what the training step's parallel gate counts. Layers
    /// whose pass is a copy or an elementwise map count nothing.
    fn work(&self, _input: &[usize]) -> usize {
        0
    }

    /// Prepares the layer to serve many forward passes with the parameters
    /// it has now: whatever of them can be put in the form the kernels
    /// read, once, is (see [`Dense`]). Outputs do not change by a bit. The
    /// preparation must not outlive the parameters it was made from —
    /// [`Layer::params_mut`] undoes it.
    fn freeze(&mut self) {}

    /// Mutable access to the layer's learnable parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the layer's learnable parameters (may be empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// The clone of a [`Layer`] behind `Box<dyn Layer>`, for every `Layer + Clone`.
pub trait LayerClone {
    /// A deep copy of the layer, boxed.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// The storage a layer that cannot work in place recycles: its training
/// pass writes its output into the `∂Y` its last backward pass was handed,
/// and its backward pass writes `∂X` into the input its last training pass
/// was handed — allocations of exactly those sizes while the batch size
/// stays, so a network trained step after step allocates neither. A clone
/// starts empty: the storage is scratch, not state.
#[derive(Default)]
struct Spare {
    /// Storage for the next output, stale: its user sizes it and writes
    /// every element.
    out: Vec<f32>,
    /// Storage for the next input gradient: zeroed by [`Spare::input_grad`],
    /// left stale by [`Spare::overwritten_grad`].
    grad: Vec<f32>,
}

impl Clone for Spare {
    fn clone(&self) -> Self {
        Spare::default()
    }
}

impl Spare {
    /// `len` zeros for an input gradient.
    fn input_grad(&mut self, len: usize) -> Vec<f32> {
        let mut grad = std::mem::take(&mut self.grad);
        grad.clear();
        grad.resize(len, 0.0);
        grad
    }

    /// `len` floats for an input gradient whose user writes every element:
    /// stale, so not zeroed first.
    fn overwritten_grad(&mut self, len: usize) -> Vec<f32> {
        let mut grad = std::mem::take(&mut self.grad);
        grad.resize(len, 0.0);
        grad
    }
}

/// An ordered container of layers executed front-to-back.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a network from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// An empty network, extendable with [`Sequential::push`].
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the full training pass ([`Layer::forward`]). An owned input
    /// moves through the layers; a borrowed one is copied once, here.
    pub fn forward(&mut self, x: impl Into<Tensor>) -> Tensor {
        let layers = self.layers.iter_mut();
        layers.fold(x.into(), |cur, layer| layer.forward(cur))
    }

    /// Runs the full inference pass ([`Layer::infer`]), safe through
    /// `&self`. An owned input moves through the layers; a borrowed one is
    /// copied once, here.
    pub fn infer(&self, x: impl Into<Tensor>) -> Tensor {
        self.layers.iter().fold(x.into(), |cur, l| l.infer(cur))
    }

    /// Freezes every layer ([`Layer::freeze`]): at the end of a fit whose
    /// network will serve, never between its steps — each optimizer step
    /// throws the packed weights away. Same outputs, bit for bit;
    /// [`Sequential::params_mut`] thaws.
    pub fn freeze(&mut self) {
        self.layers.iter_mut().for_each(|l| l.freeze());
    }

    /// A copy of the network for shard `shard` of a training step
    /// ([`Layer::clone_for_shard`]), with its gradients cleared.
    pub(crate) fn clone_for_shard(&self, shard: u64) -> Sequential {
        let mut copy = Sequential {
            layers: self
                .layers
                .iter()
                .map(|l| l.clone_for_shard(shard))
                .collect(),
        };
        copy.zero_grad();
        copy
    }

    /// Multiply–adds of one forward pass over `x`, summed over the layers'
    /// [`Layer::work`]. Each layer's input shape is found by running `x`
    /// through [`Sequential::infer`], so pass one sample and scale: the
    /// count is linear in the rows.
    pub(crate) fn forward_work(&self, x: Tensor) -> usize {
        let mut work = 0;
        self.layers.iter().fold(x, |cur, layer| {
            work += layer.work(cur.shape());
            layer.infer(cur)
        });
        work
    }

    /// Runs the full backward pass, returning ∂L/∂input.
    pub fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let layers = self.layers.iter_mut().rev();
        layers.fold(grad_out, |grad, layer| layer.backward(grad))
    }

    /// [`Sequential::backward`] without the final `∂L/∂input`: the same
    /// parameter gradients, minus the first layer's input-gradient work.
    /// What a training step wants — nothing consumes the gradient with
    /// respect to the data.
    pub fn backward_params(&mut self, grad_out: Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let grad = rest.iter_mut().rev().fold(grad_out, |g, l| l.backward(g));
        first.backward_params(grad);
    }

    /// All learnable parameters, in layer order (stable across calls, which
    /// is what optimizers key their per-parameter state on).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Shared view of all learnable parameters, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::rng::TensorRng;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = TensorRng::seeded(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let x = rng.uniform(&[5, 3], -1.0, 1.0);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[5, 2]);
        let gx = net.backward(Tensor::ones(&[5, 2]));
        assert_eq!(gx.shape(), &[5, 3]);
        assert_eq!(net.params().len(), 4); // 2 dense layers × (W, b)
    }

    #[test]
    fn backward_params_accumulates_the_same_parameter_gradients() {
        let mut rng = TensorRng::seeded(3);
        let conv_first = Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * 4 * 4, 3, &mut rng)),
        ]);
        // An embedder's encoder: the first layer is `Dense`.
        let dense_first = Sequential::new(vec![
            Box::new(Dense::new(16, 8, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let x = rng.uniform(&[5, 1, 4, 4], -1.0, 1.0);
        let dy = rng.uniform(&[5, 3], -1.0, 1.0);
        for (mut net, x) in [(conv_first, x.clone()), (dense_first, x.reshape(&[5, 16]))] {
            net.forward(&x);
            net.backward(dy.clone());
            let full: Vec<Tensor> = net.params().iter().map(|p| p.grad.clone()).collect();
            net.zero_grad();
            net.forward(&x);
            net.backward_params(dy.clone());
            let params_only: Vec<Tensor> = net.params().iter().map(|p| p.grad.clone()).collect();
            assert_eq!(full, params_only);
        }
        // An empty network has nothing to accumulate.
        Sequential::empty().backward_params(dy.clone());
    }

    fn dense_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![
            Box::new(Dense::new(70, 40, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(40, 9, &mut rng)),
        ])
    }

    #[test]
    fn a_frozen_net_infers_the_same_bits() {
        let mut net = dense_net(4);
        let mut rng = TensorRng::seeded(5);
        for rows in [1, 16, 33] {
            let x = rng.uniform(&[rows, 70], -1.0, 1.0);
            let unfrozen = net.infer(&x);
            let mut frozen = net.clone();
            frozen.freeze();
            assert_eq!(frozen.infer(&x), unfrozen, "{rows} rows");
            assert_eq!(frozen.forward(&x), unfrozen, "{rows} rows");
        }
        net.freeze();
        assert_eq!(net.clone().infer(Tensor::ones(&[2, 70])).shape(), &[2, 9]);
    }

    #[test]
    fn training_a_frozen_net_equals_training_a_never_frozen_twin() {
        use crate::optim::{Optimizer, Sgd};
        let mut rng = TensorRng::seeded(6);
        let x = rng.uniform(&[8, 70], -1.0, 1.0);
        let dy = rng.uniform(&[8, 9], -1.0, 1.0);
        let mut twin = dense_net(7);
        let mut thawed = twin.clone();
        thawed.freeze();
        for net in [&mut twin, &mut thawed] {
            let mut opt = Sgd::new(0.1);
            for _ in 0..2 {
                net.zero_grad();
                net.forward(&x);
                net.backward_params(dy.clone());
                opt.step(net.params_mut());
            }
        }
        // Stale panels would serve the weights from before the steps.
        assert_eq!(thawed.infer(&x), twin.infer(&x));
        assert_ne!(thawed.infer(&x), dense_net(7).infer(&x));
    }

    #[test]
    fn zero_grad_resets_all_parameters() {
        let mut rng = TensorRng::seeded(1);
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, &mut rng))]);
        let x = rng.uniform(&[3, 2], -1.0, 1.0);
        net.forward(&x);
        net.backward(Tensor::ones(&[3, 2]));
        assert!(net.params().iter().any(|p| p.grad.norm_sq() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm_sq() == 0.0));
    }
}
