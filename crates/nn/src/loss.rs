//! Loss functions.
//!
//! Each loss exposes the scalar objective and its gradient with respect to
//! the prediction; the trainer feeds the latter straight into
//! [`crate::Sequential::backward`].

use fairdms_tensor::Tensor;

/// A differentiable scalar loss over (prediction, target) pairs.
///
/// `Sync`, because the shards of a training step score their rows on two
/// threads through one shared loss.
pub trait Loss: Sync {
    /// The scalar loss value.
    fn forward(&self, pred: &Tensor, target: &Tensor) -> f32;

    /// The gradient ∂L/∂pred (same shape as `pred`).
    fn backward(&self, pred: &Tensor, target: &Tensor) -> Tensor {
        self.batch_backward(pred, target, pred.shape()[0])
    }

    /// The gradient of the loss over a mini-batch of `batch_rows` rows,
    /// with respect to the rows of it `pred` holds: a training shard's
    /// share, scaled to the batch's mean rather than the shard's, so the
    /// shards' gradients add up to the whole batch's.
    fn batch_backward(&self, pred: &Tensor, target: &Tensor, batch_rows: usize) -> Tensor;
}

/// Mean squared error over all elements.
pub struct Mse;

impl Loss for Mse {
    fn forward(&self, pred: &Tensor, target: &Tensor) -> f32 {
        assert_eq!(pred.shape(), target.shape(), "MSE: shape mismatch");
        let n = pred.numel().max(1) as f32;
        pred.data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| {
                let d = p - t;
                d * d
            })
            .sum::<f32>()
            / n
    }

    fn batch_backward(&self, pred: &Tensor, target: &Tensor, batch_rows: usize) -> Tensor {
        assert_eq!(pred.shape(), target.shape(), "MSE: shape mismatch");
        let per_row = pred.numel() / pred.shape()[0].max(1);
        let scale = 2.0 / (per_row * batch_rows).max(1) as f32;
        pred.zip(target, |p, t| scale * (p - t))
    }
}

/// Normalized-temperature cross-entropy (NT-Xent, SimCLR) over a batch of
/// paired embeddings.
///
/// `z` holds `2B` L2-normalized rows where rows `i` and `i+B` are the two
/// augmented views of sample `i`. Returns the scalar loss and ∂L/∂z.
/// Implemented as a free function (not [`Loss`]) because it consumes a
/// single embedding matrix rather than a (pred, target) pair.
pub fn nt_xent(z: &Tensor, temperature: f32) -> (f32, Tensor) {
    assert_eq!(z.rank(), 2, "nt_xent expects [2B, D]");
    let n = z.shape()[0];
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "nt_xent needs an even batch of ≥ 4 rows"
    );
    let b = n / 2;
    let d = z.shape()[1];
    assert!(temperature > 0.0, "temperature must be positive");

    // Cosine similarities (rows are assumed normalized; normalize defensively).
    let norms: Vec<f32> = (0..n)
        .map(|i| {
            z.row(i)
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
                .max(1e-12)
        })
        .collect();
    let sim = |i: usize, j: usize| -> f32 {
        let (ri, rj) = (z.row(i), z.row(j));
        let dot: f32 = ri.iter().zip(rj).map(|(&a, &b)| a * b).sum();
        dot / (norms[i] * norms[j])
    };

    // Softmax over each row's similarities (excluding self) at temperature τ.
    let mut loss = 0.0f32;
    let mut grad_sim = vec![0.0f32; n * n]; // ∂L/∂sim[i][j]
    for i in 0..n {
        let pos = if i < b { i + b } else { i - b };
        let mut logits = Vec::with_capacity(n - 1);
        for j in 0..n {
            if j != i {
                logits.push((j, sim(i, j) / temperature));
            }
        }
        let max_l = logits
            .iter()
            .map(|(_, l)| *l)
            .fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f32 = logits.iter().map(|(_, l)| (l - max_l).exp()).sum();
        let log_denom = max_l + sum_exp.ln();
        let pos_logit = sim(i, pos) / temperature;
        loss += log_denom - pos_logit;
        // ∂L_i/∂sim(i,j) = (softmax_j - 1[j=pos]) / τ
        for (j, l) in &logits {
            let p = (l - log_denom).exp();
            let indicator = if *j == pos { 1.0 } else { 0.0 };
            grad_sim[i * n + j] = (p - indicator) / temperature;
        }
    }
    loss /= n as f32;

    // Chain rule through the cosine similarity into z.
    let mut grad = Tensor::zeros(z.shape());
    let scale = 1.0 / n as f32;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // sim appears in row i's loss (g_ij) and row j's loss (g_ji).
            let g = (grad_sim[i * n + j] + grad_sim[j * n + i]) * scale;
            if g == 0.0 {
                continue;
            }
            let s_ij = sim(i, j);
            let (ni, nj) = (norms[i], norms[j]);
            for k in 0..d {
                let zi = z.row(i)[k];
                let zj = z.row(j)[k];
                // ∂sim/∂z_i = z_j/(|z_i||z_j|) − sim·z_i/|z_i|²  (and sym.)
                grad.data_mut()[i * d + k] += g * (zj / (ni * nj) - s_ij * zi / (ni * ni));
            }
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairdms_tensor::rng::TensorRng;

    #[test]
    fn mse_zero_on_identical_inputs() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(Mse.forward(&t, &t), 0.0);
        assert_eq!(Mse.backward(&t, &t).norm_sq(), 0.0);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let t = Tensor::from_vec(vec![0.0, 4.0], &[2]);
        assert!((Mse.forward(&p, &t) - 2.5).abs() < 1e-6);
        let g = Mse.backward(&p, &t);
        assert_eq!(g.data(), &[1.0, -2.0]);
    }

    #[test]
    fn shard_gradients_are_the_batch_gradients_rows() {
        let mut rng = TensorRng::seeded(6);
        let p = rng.uniform(&[5, 3], -2.0, 2.0);
        let t = rng.uniform(&[5, 3], -2.0, 2.0);
        let whole = Mse.backward(&p, &t);
        let head = Mse.batch_backward(&p.slice_rows(0, 3), &t.slice_rows(0, 3), 5);
        let tail = Mse.batch_backward(&p.slice_rows(3, 5), &t.slice_rows(3, 5), 5);
        assert_eq!(head, whole.slice_rows(0, 3));
        assert_eq!(tail, whole.slice_rows(3, 5));
    }

    #[test]
    fn losses_agree_with_numerical_gradient() {
        let mut rng = TensorRng::seeded(5);
        let p = rng.uniform(&[6], -2.0, 2.0);
        let t = rng.uniform(&[6], -2.0, 2.0);
        let analytic = Mse.backward(&p, &t);
        for i in 0..p.numel() {
            let mut pp = p.clone();
            pp.data_mut()[i] += 1e-3;
            let mut pm = p.clone();
            pm.data_mut()[i] -= 1e-3;
            let num = (Mse.forward(&pp, &t) - Mse.forward(&pm, &t)) / 2e-3;
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2,
                "numeric {num} vs analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn nt_xent_prefers_aligned_pairs() {
        // Two pairs of identical views: loss should be small. Orthogonal
        // pairs: loss should be larger.
        let aligned = Tensor::from_vec(
            vec![
                1.0, 0.0, //
                0.0, 1.0, //
                1.0, 0.0, //
                0.0, 1.0,
            ],
            &[4, 2],
        );
        let (l_aligned, _) = nt_xent(&aligned, 0.5);
        let misaligned = Tensor::from_vec(
            vec![
                1.0, 0.0, //
                0.0, 1.0, //
                0.0, 1.0, //
                1.0, 0.0,
            ],
            &[4, 2],
        );
        let (l_mis, _) = nt_xent(&misaligned, 0.5);
        assert!(l_aligned < l_mis, "{l_aligned} !< {l_mis}");
    }

    #[test]
    fn nt_xent_gradient_matches_numeric() {
        let mut rng = TensorRng::seeded(9);
        let z = rng.uniform(&[4, 3], -1.0, 1.0);
        let (_, g) = nt_xent(&z, 0.5);
        for i in 0..z.numel() {
            let mut zp = z.clone();
            zp.data_mut()[i] += 1e-3;
            let mut zm = z.clone();
            zm.data_mut()[i] -= 1e-3;
            let (lp, _) = nt_xent(&zp, 0.5);
            let (lm, _) = nt_xent(&zm, 0.5);
            let num = (lp - lm) / 2e-3;
            assert!(
                (num - g.data()[i]).abs() < 2e-2,
                "index {i}: numeric {num} vs analytic {}",
                g.data()[i]
            );
        }
    }
}
