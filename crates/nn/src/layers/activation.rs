//! Pointwise activation layers.

use super::Layer;
use fairdms_tensor::Tensor;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Relu,
    LeakyRelu(f32),
    Sigmoid,
    Tanh,
}

/// A pointwise activation function, mapped in place.
///
/// Every kind keeps its *output*, whose value alone determines the
/// derivative: a ReLU's output is positive exactly where its input is (for
/// a leaky one too, its slope being non-negative). The training pass copies
/// it into an allocation recycled from step to step; the backward pass
/// scales the gradient in place.
#[derive(Clone)]
pub struct Activation {
    kind: Kind,
    /// The last training pass's output.
    out: Vec<f32>,
}

impl Activation {
    fn of(kind: Kind) -> Self {
        Activation {
            kind,
            out: Vec::new(),
        }
    }

    /// Rectified linear unit.
    pub fn relu() -> Self {
        Self::of(Kind::Relu)
    }

    /// Leaky ReLU with negative-side slope `alpha`.
    pub fn leaky_relu(alpha: f32) -> Self {
        assert!(alpha >= 0.0, "leaky ReLU slope must be non-negative");
        Self::of(Kind::LeakyRelu(alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid() -> Self {
        Self::of(Kind::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh() -> Self {
        Self::of(Kind::Tanh)
    }
}

/// `v = f(v)` over every element of `values`.
fn map(values: &mut [f32], f: impl Fn(f32) -> f32) {
    values.iter_mut().for_each(|v| *v = f(*v));
}

/// `g = f(g, y)` over every gradient element and the output it belongs to.
fn scale(grad: &mut [f32], out: &[f32], f: impl Fn(f32, f32) -> f32) {
    grad.iter_mut().zip(out).for_each(|(g, &y)| *g = f(*g, y));
}

impl Layer for Activation {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let y = self.infer(x);
        self.out.clear();
        self.out.extend_from_slice(y.data());
        y
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        let v = x.data_mut();
        match self.kind {
            Kind::Relu => map(v, |v| v.max(0.0)),
            Kind::LeakyRelu(a) => map(v, |v| if v > 0.0 { v } else { a * v }),
            Kind::Sigmoid => map(v, |v| 1.0 / (1.0 + (-v).exp())),
            Kind::Tanh => map(v, |v| v.tanh()),
        }
        x
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let y = &self.out;
        assert_eq!(
            grad_out.numel(),
            y.len(),
            "Activation::backward called before forward, or on another batch"
        );
        let g = grad_out.data_mut();
        match self.kind {
            Kind::Relu => scale(g, y, |g, y| if y > 0.0 { g } else { 0.0 }),
            Kind::LeakyRelu(a) => scale(g, y, |g, y| if y > 0.0 { g } else { a * g }),
            Kind::Sigmoid => scale(g, y, |g, y| g * y * (1.0 - y)),
            Kind::Tanh => scale(g, y, |g, y| g * (1.0 - y * y)),
        }
        grad_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_negatives_and_masks_gradient() {
        let mut a = Activation::relu();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.forward(x).data(), &[0.0, 0.0, 2.0]);
        let g = a.backward(Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_scaled_negative_slope() {
        let mut a = Activation::leaky_relu(0.1);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]);
        let y = a.forward(x);
        assert!((y.data()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.data()[1], 3.0);
        let g = a.backward(Tensor::ones(&[2]));
        assert!((g.data()[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn sigmoid_midpoint_and_derivative() {
        let mut a = Activation::sigmoid();
        let y = a.forward(Tensor::zeros(&[1]));
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let g = a.backward(Tensor::ones(&[1]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd_with_unit_slope_at_zero() {
        let mut a = Activation::tanh();
        let y = a.forward(Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]));
        assert!((y.data()[0] + y.data()[2]).abs() < 1e-6);
        let g = a.backward(Tensor::ones(&[3]));
        assert!((g.data()[1] - 1.0).abs() < 1e-6);
    }
}
