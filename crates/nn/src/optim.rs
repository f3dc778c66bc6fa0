//! First-order optimizers.
//!
//! Optimizers key their per-parameter state (Adam's moments) on the
//! *position* of each parameter in the list handed to
//! [`Optimizer::step`]. [`crate::Sequential::params_mut`] returns parameters
//! in stable layer order, so the pairing holds for the lifetime of a
//! network/optimizer pair.

use crate::param::Param;
use fairdms_tensor::Tensor;

/// A gradient-based parameter update rule. `Send`, because a fit that
/// splits its steps across two threads carries it into a scope.
pub trait Optimizer: Send {
    /// Applies one update step and clears the gradients.
    fn step(&mut self, params: Vec<&mut Param>);
}

/// Plain stochastic gradient descent.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: Vec<&mut Param>) {
        for p in params {
            for (w, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                *w -= self.lr * g;
            }
            p.zero_grad();
        }
    }
}

/// Adam's first-moment decay β₁ (Kingma & Ba's default).
const BETA1: f32 = 0.9;
/// Adam's second-moment decay β₂.
const BETA2: f32 = 0.999;
/// Adam's denominator guard ε.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) at the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
pub struct Adam {
    lr: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: Vec<&mut Param>) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "optimizer was initialized with a different parameter list"
        );
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        for ((p, m), v) in params.into_iter().zip(&mut self.m).zip(&mut self.v) {
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            let terms = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((w, &g), (mi, vi)) in terms.zip(moments) {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * (m_hat / (v_hat.sqrt() + EPS));
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_param() -> Param {
        // Minimize f(w) = w²; gradient 2w.
        Param::new(Tensor::from_vec(vec![4.0], &[1]))
    }

    fn grad_of(p: &Param) -> Tensor {
        p.value.scale(2.0)
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut p = quad_param();
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            p.grad = grad_of(&p);
            opt.step(vec![&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut p = quad_param();
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            p.grad = grad_of(&p);
            opt.step(vec![&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-2, "w = {}", p.value.data()[0]);
    }

    #[test]
    fn adam_step_is_the_indexed_update_to_the_bit() {
        use fairdms_tensor::rng::TensorRng;
        // The per-element loop the single pass replaced, kept as the
        // reference: the same expression in the same order.
        fn indexed_step(lr: f32, t: u32, p: &mut Param, m: &mut Tensor, v: &mut Tensor) {
            let bc1 = 1.0 - BETA1.powi(t as i32);
            let bc2 = 1.0 - BETA2.powi(t as i32);
            for i in 0..p.value.numel() {
                let g = p.grad.data()[i];
                let mi = BETA1 * m.data()[i] + (1.0 - BETA1) * g;
                let vi = BETA2 * v.data()[i] + (1.0 - BETA2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.value.data_mut()[i] -= lr * (m_hat / (v_hat.sqrt() + EPS));
            }
            p.zero_grad();
        }
        let mut rng = TensorRng::seeded(21);
        let shapes: [&[usize]; 3] = [&[16, 9], &[16], &[3, 5]];
        let mut params: Vec<Param> = shapes
            .iter()
            .map(|s| Param::new(rng.uniform(s, -1.0, 1.0)))
            .collect();
        let mut reference = params.clone();
        let mut moments: Vec<(Tensor, Tensor)> = shapes
            .iter()
            .map(|s| (Tensor::zeros(s), Tensor::zeros(s)))
            .collect();
        let mut opt = Adam::new(3e-3);
        let bits = |ps: &[Param]| -> Vec<u32> {
            ps.iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        for t in 1..=12u32 {
            for (p, r) in params.iter_mut().zip(&mut reference) {
                p.grad = rng.uniform(p.value.shape(), -2.0, 2.0);
                r.grad = p.grad.clone();
            }
            opt.step(params.iter_mut().collect());
            for (r, (m, v)) in reference.iter_mut().zip(&mut moments) {
                indexed_step(3e-3, t, r, m, v);
            }
            assert_eq!(bits(&params), bits(&reference), "step {t}");
        }
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = quad_param();
        p.grad = grad_of(&p);
        let mut opt = Sgd::new(0.1);
        opt.step(vec![&mut p]);
        assert_eq!(p.grad.norm_sq(), 0.0);
    }
}
