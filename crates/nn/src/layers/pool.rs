//! Spatial pooling for `[N, C, H, W]` tensors.

use super::{Layer, Spare};
use fairdms_tensor::Tensor;

/// Max pooling with a square non-overlapping window (stride = window).
///
/// Keeps the index of each window's winner, in an allocation recycled from
/// step to step, so the backward pass can route the gradient exclusively
/// to it.
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    argmax: Vec<u32>,
    in_shape: Option<Vec<usize>>,
    spare: Spare,
}

impl MaxPool2d {
    /// A `window`×`window` max pool with stride equal to the window.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MaxPool2d {
            window,
            argmax: Vec::new(),
            in_shape: None,
            spare: Spare::default(),
        }
    }
}

/// `win`×`win` max pooling of `x` into `out` (resized), each window's
/// winner's index in `x` written to `argmax`.
fn pool(x: &Tensor, win: usize, mut out: Vec<f32>, argmax: &mut Vec<u32>) -> Tensor {
    let (n, c, h, w) = dims4(x);
    assert!(
        h >= win && w >= win,
        "pool window {win} larger than input {h}x{w}"
    );
    assert!(x.numel() <= u32::MAX as usize, "pool input too large");
    let (oh, ow) = (h / win, w / win);
    out.resize(n * c * oh * ow, 0.0);
    argmax.clear();
    argmax.resize(out.len(), 0);
    // A window's cells, row-major, as offsets from its first: one flat
    // loop for every window, whatever its extent.
    let cells: Vec<usize> = (0..win * win).map(|t| t / win * w + t % win).collect();
    let span = (win - 1) * w + win;
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
            let window = &xd[at..at + span];
            let (mut max, mut arg) = (window[0], 0);
            for &c in &cells {
                if window[c] > max {
                    (max, arg) = (window[c], c);
                }
            }
            (*b, *i) = (max, (at + arg) as u32);
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let out = std::mem::take(&mut self.spare.out);
        let out = pool(&x, self.window, out, &mut self.argmax);
        self.in_shape = Some(x.shape().to_vec());
        self.spare.grad = x.into_vec();
        out
    }

    fn infer(&self, x: Tensor) -> Tensor {
        pool(&x, self.window, Vec::new(), &mut Vec::new())
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .as_deref()
            .expect("MaxPool2d::backward called before forward");
        assert_eq!(
            grad_out.numel(),
            self.argmax.len(),
            "gradient size mismatch"
        );
        let mut dx = self.spare.input_grad(in_shape.iter().product());
        for (&idx, &g) in self.argmax.iter().zip(grad_out.data()) {
            dx[idx as usize] += g;
        }
        let dx = Tensor::from_vec(dx, in_shape);
        self.spare.out = grad_out.into_vec();
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
        let y = pool.forward(x);
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
            let mut argmax = Vec::new();
            let out = pool(&x, win, Vec::new(), &mut argmax);
            let (want, want_idx) = pool_reference(&x, win);
            let argmax: Vec<usize> = argmax.iter().map(|&i| i as usize).collect();
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
        let y = pool.forward(x);
        assert!(y.data()[5].is_nan(), "an all-NaN window is NaN");
        assert_eq!(y.data()[6], f32::NEG_INFINITY);
        let mut g = vec![0.0f32; 8];
        (g[5], g[6]) = (2.0, 3.0);
        let dx = pool.backward(Tensor::from_vec(g, &[2, 1, 2, 2]));
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
        pool.forward(x);
        let dx = pool.backward(Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }
}
