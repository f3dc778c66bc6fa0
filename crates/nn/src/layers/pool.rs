//! Spatial pooling for `[N, C, H, W]` tensors.

use super::Layer;
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
        let win = self.window;
        let (oh, ow) = (h / win, w / win);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        let xd = x.data();
        let outputs = out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
        // Output row `r` of plane `r / oh` pools `win` input rows.
        for (r, (best, best_idx)) in outputs.enumerate() {
            let first = (r / oh * h + r % oh * win) * w;
            for (ox, (b, i)) in best.iter_mut().zip(best_idx.iter_mut()).enumerate() {
                // Each window starts from its own first element, so a window
                // in which nothing compares greater (all −∞, all NaN) keeps
                // that value, and its gradient stays inside it.
                let at = first + ox * win;
                let (mut max, mut arg) = (xd[at], at);
                for row in (at..).step_by(w).take(win) {
                    for (kx, &v) in xd[row..row + win].iter().enumerate() {
                        if v > max {
                            (max, arg) = (v, row + kx);
                        }
                    }
                }
                (*b, *i) = (max, arg);
            }
        }
        (Tensor::from_vec(out, &[n, c, oh, ow]), argmax)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (out, argmax) = self.compute(x);
        self.argmax = Some(argmax);
        self.in_shape = Some(x.shape().to_vec());
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.compute(x).0
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
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.5]);
    }

    /// The per-element loop the row walk replaced, kept as the reference
    /// for inputs with no NaN or −∞.
    fn pool_reference(x: &Tensor, win: usize) -> (Vec<f32>, Vec<usize>) {
        let (n, c, h, w) = dims4(x);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for base in (0..n * c).map(|p| p * h * w) {
            for oy in 0..h / win {
                for ox in 0..w / win {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                    for ky in 0..win {
                        for kx in 0..win {
                            let idx = base + (oy * win + ky) * w + ox * win + kx;
                            if x.data()[idx] > best {
                                (best, best_idx) = (x.data()[idx], idx);
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
        (out, argmax)
    }

    #[test]
    fn row_walk_matches_the_element_loop_with_ties() {
        // Values on a coarse grid, so most windows hold a tie for the max;
        // ragged extents leave rows and columns no window covers.
        let mut rng = fairdms_tensor::rng::TensorRng::seeded(8);
        for win in [2usize, 3] {
            let x = rng
                .uniform(&[3, 2, 7, 11], -1.0, 1.0)
                .map(|v| (v * 2.0).round());
            let (out, argmax) = MaxPool2d::new(win).compute(&x);
            let (want, want_idx) = pool_reference(&x, win);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out.data()), bits(&want), "window {win}");
            assert_eq!(argmax, want_idx, "window {win}");
        }
    }

    #[test]
    fn windows_of_nan_or_negative_infinity_keep_value_and_gradient() {
        // Sample 1's second window is all NaN, its third all −∞: neither
        // may send its gradient to element 0 of the batch.
        let mut data = vec![1.0f32; 2 * 16];
        for i in [18, 19, 22, 23] {
            data[i] = f32::NAN;
        }
        for i in [24, 25, 28, 29] {
            data[i] = f32::NEG_INFINITY;
        }
        let x = Tensor::from_vec(data, &[2, 1, 4, 4]);
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x);
        assert!(y.data()[5].is_nan(), "an all-NaN window is NaN");
        assert_eq!(y.data()[6], f32::NEG_INFINITY);
        let mut g = vec![0.0f32; 8];
        (g[5], g[6]) = (2.0, 3.0);
        let dx = pool.backward(&Tensor::from_vec(g, &[2, 1, 2, 2]));
        let hit: Vec<(usize, f32)> = (0..32)
            .filter(|&i| dx.data()[i] != 0.0)
            .map(|i| (i, dx.data()[i]))
            .collect();
        assert_eq!(
            hit,
            vec![(18, 2.0), (24, 3.0)],
            "each window's first element"
        );
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax_only() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]);
        let mut pool = MaxPool2d::new(2);
        pool.forward(&x);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }
}
