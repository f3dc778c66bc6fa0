//! Spatial pooling for `[N, C, H, W]` tensors.

use super::{Layer, Mode};
use fairdms_tensor::Tensor;

/// Max pooling with a square non-overlapping window (stride = window).
///
/// Caches the linear index of each window's winner so the backward pass can
/// route the gradient exclusively to it.
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    argmax: Option<Vec<usize>>,
    in_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// A `window`×`window` max pool with stride equal to the window.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MaxPool2d {
            window,
            argmax: None,
            in_shape: None,
        }
    }

    /// The pooling computation; returns `(output, argmax)` so `forward` can
    /// cache winner indices while `infer` drops them.
    fn compute(&self, x: &Tensor) -> (Tensor, Vec<usize>) {
        let (n, c, h, w) = dims4(x);
        assert!(
            h >= self.window && w >= self.window,
            "pool window {} larger than input {}x{}",
            self.window,
            h,
            w
        );
        let (oh, ow) = (h / self.window, w / self.window);
        let mut out = Vec::with_capacity(n * c * oh * ow);
        let mut argmax = Vec::with_capacity(n * c * oh * ow);
        let xd = x.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..self.window {
                            for kx in 0..self.window {
                                let iy = oy * self.window + ky;
                                let ix = ox * self.window + kx;
                                let idx = base + iy * w + ix;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out.push(best);
                        argmax.push(best_idx);
                    }
                }
            }
        }
        (Tensor::from_vec(out, &[n, c, oh, ow]), argmax)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let (out, argmax) = self.compute(x);
        self.argmax = Some(argmax);
        self.in_shape = Some(x.shape().to_vec());
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.compute(x).0
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        let in_shape = self.in_shape.clone().expect("missing input shape");
        assert_eq!(grad_out.numel(), argmax.len(), "gradient size mismatch");
        let mut dx = Tensor::zeros(&in_shape);
        let dxd = dx.data_mut();
        for (&idx, &g) in argmax.iter().zip(grad_out.data()) {
            dxd[idx] += g;
        }
        dx
    }
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.rank(),
        4,
        "expected [N, C, H, W] tensor, got {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_selects_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.5, 0.0,
            ],
            &[1, 1, 4, 4],
        );
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.5]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax_only() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]);
        let mut pool = MaxPool2d::new(2);
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }
}
