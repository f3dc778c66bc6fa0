//! Mini-batch training loop with validation tracking, early stopping, and
//! convergence-epoch detection.
//!
//! The paper's Figs 13–14 compare *epochs to convergence* for models trained
//! from scratch against fine-tuned models recommended by fairMS, so the
//! trainer records the full validation curve and exposes several
//! convergence measures on the resulting [`TrainReport`].

use crate::layers::{Mode, Sequential};
use crate::loss::Loss;
use crate::optim::Optimizer;
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation handle for a training run.
///
/// A `TrainControl` is a cheaply clonable flag shared between the thread
/// driving [`Trainer::fit_controlled`] and whoever may want to stop it: the
/// trainer polls the flag **between epochs** and, when it is raised, returns
/// the partial [`TrainReport`] (with [`TrainReport::cancelled`] set) instead
/// of running the remaining epochs. Epoch granularity keeps the check out of
/// the per-batch hot loop while still bounding cancellation latency to one
/// epoch — the property background training executors rely on to supersede
/// stale jobs without killing threads.
#[derive(Clone, Debug, Default)]
pub struct TrainControl {
    cancel: Arc<AtomicBool>,
}

impl TrainControl {
    /// A fresh, un-cancelled control.
    pub fn new() -> Self {
        TrainControl::default()
    }

    /// A control wrapping an externally owned flag (lets a generic job
    /// pool's cancel token and the trainer share one atomic).
    pub fn from_flag(cancel: Arc<AtomicBool>) -> Self {
        TrainControl { cancel }
    }

    /// Requests cancellation; the run stops at the next epoch boundary.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }
}

/// Minimum validation-loss improvement that counts as progress towards
/// [`TrainConfig::patience`].
pub const MIN_DELTA: f32 = 1e-5;

/// Training-loop configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (the final batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Epochs without a [`MIN_DELTA`] improvement before early stop
    /// (0 disables early stopping).
    pub patience: usize,
    /// Validation loss below which training stops immediately
    /// (`None` disables).
    pub target_val_loss: Option<f32>,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 32,
            patience: 0,
            target_val_loss: None,
            shuffle_seed: 0,
        }
    }
}

/// Loss statistics for one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStat {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss across the epoch's batches.
    pub train_loss: f32,
    /// Validation loss after the epoch.
    pub val_loss: f32,
}

/// The result of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch losses, in order.
    pub curve: Vec<EpochStat>,
    /// Wall-clock seconds spent in `fit`.
    pub wall_secs: f64,
    /// Whether the run ended via early stopping or target loss rather than
    /// exhausting `epochs`.
    pub stopped_early: bool,
    /// Whether the run was cancelled through a [`TrainControl`] before its
    /// stopping criteria were reached (the curve holds only the epochs that
    /// completed before the cancellation was observed).
    pub cancelled: bool,
}

impl TrainReport {
    /// Validation loss after the final epoch (∞ when no epoch ran).
    pub fn final_val_loss(&self) -> f32 {
        self.curve
            .last()
            .map(|s| s.val_loss)
            .unwrap_or(f32::INFINITY)
    }

    /// Best validation loss seen.
    pub fn best_val_loss(&self) -> f32 {
        self.curve
            .iter()
            .map(|s| s.val_loss)
            .fold(f32::INFINITY, f32::min)
    }

    /// First epoch (1-based count of epochs run) whose validation loss is at
    /// or below `threshold`, or `None` if never reached — the
    /// "epochs to convergence" measure used in the paper's case study.
    pub fn epochs_to_reach(&self, threshold: f32) -> Option<usize> {
        self.curve
            .iter()
            .position(|s| s.val_loss <= threshold)
            .map(|e| e + 1)
    }

    /// Validation-loss series (one value per epoch).
    pub fn val_curve(&self) -> Vec<f32> {
        self.curve.iter().map(|s| s.val_loss).collect()
    }
}

/// Drives mini-batch gradient descent over a [`Sequential`] network.
pub struct Trainer {
    cfg: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: TrainConfig) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be positive");
        Trainer { cfg }
    }

    /// Trains `net` on `(train_x, train_y)` and evaluates on
    /// `(val_x, val_y)` after every epoch. Inputs are `[N, …]` tensors with
    /// matching leading dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        &self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        loss: &dyn Loss,
        train_x: &Tensor,
        train_y: &Tensor,
        val_x: &Tensor,
        val_y: &Tensor,
    ) -> TrainReport {
        self.fit_controlled(
            net,
            opt,
            loss,
            train_x,
            train_y,
            val_x,
            val_y,
            &TrainControl::new(),
        )
    }

    /// [`Trainer::fit`] under cooperative cancellation: `ctl` is polled at
    /// every epoch boundary (including before the first epoch), and a raised
    /// flag ends the run immediately with [`TrainReport::cancelled`] set.
    /// The partial curve and weights trained so far are left intact — the
    /// caller decides whether a cancelled model is worth keeping.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_controlled(
        &self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        loss: &dyn Loss,
        train_x: &Tensor,
        train_y: &Tensor,
        val_x: &Tensor,
        val_y: &Tensor,
        ctl: &TrainControl,
    ) -> TrainReport {
        let n = train_x.shape()[0];
        assert_eq!(n, train_y.shape()[0], "train x/y row mismatch");
        assert_eq!(val_x.shape()[0], val_y.shape()[0], "val x/y row mismatch");
        assert!(n > 0, "empty training set");

        let start = Instant::now();
        let mut rng = TensorRng::seeded(self.cfg.shuffle_seed);
        let mut curve = Vec::with_capacity(self.cfg.epochs);
        let mut best = f32::INFINITY;
        let mut stale = 0usize;
        let mut stopped_early = false;
        let mut cancelled = false;

        // Minibatch gather buffers, recycled across every batch of every
        // epoch: the batch tensors are rebuilt from (and returned to) these
        // vectors each step, so steady-state training performs zero
        // gather-side allocations.
        let mut bx_buf: Vec<f32> = Vec::new();
        let mut by_buf: Vec<f32> = Vec::new();
        for epoch in 0..self.cfg.epochs {
            if ctl.is_cancelled() {
                cancelled = true;
                break;
            }
            let order = rng.permutation(n);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.cfg.batch_size) {
                bx_buf.clear();
                train_x.gather_rows_into(chunk, &mut bx_buf);
                let mut bx_dims = train_x.shape().to_vec();
                bx_dims[0] = chunk.len();
                let bx = Tensor::from_vec(std::mem::take(&mut bx_buf), &bx_dims);

                by_buf.clear();
                train_y.gather_rows_into(chunk, &mut by_buf);
                let mut by_dims = train_y.shape().to_vec();
                by_dims[0] = chunk.len();
                let by = Tensor::from_vec(std::mem::take(&mut by_buf), &by_dims);

                let pred = net.forward(&bx, Mode::Train);
                epoch_loss += loss.forward(&pred, &by) as f64;
                let grad = loss.backward(&pred, &by);
                net.backward_params(&grad);
                opt.step(net.params_mut());
                batches += 1;

                bx_buf = bx.into_vec();
                by_buf = by.into_vec();
            }
            let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
            let val_loss = self.evaluate(net, loss, val_x, val_y);
            curve.push(EpochStat {
                epoch,
                train_loss,
                val_loss,
            });

            if let Some(target) = self.cfg.target_val_loss {
                if val_loss <= target {
                    stopped_early = true;
                    break;
                }
            }
            if self.cfg.patience > 0 {
                if val_loss < best - MIN_DELTA {
                    best = val_loss;
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= self.cfg.patience {
                        stopped_early = true;
                        break;
                    }
                }
            }
        }

        TrainReport {
            curve,
            wall_secs: start.elapsed().as_secs_f64(),
            stopped_early,
            cancelled,
        }
    }

    /// Mean loss over a dataset in eval mode, batched to bound memory. Runs
    /// through [`Sequential::infer`], so scoring a validation set between
    /// epochs leaves the layers' backward caches (and their recycled
    /// allocations) sized for the training batch.
    fn evaluate(&self, net: &Sequential, loss: &dyn Loss, x: &Tensor, y: &Tensor) -> f32 {
        let n = x.shape()[0];
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0f64;
        let mut count = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + self.cfg.batch_size).min(n);
            let bx = x.slice_rows(start, end);
            let by = y.slice_rows(start, end);
            let pred = net.infer(&bx);
            total += loss.forward(&pred, &by) as f64 * (end - start) as f64;
            count += end - start;
            start = end;
        }
        (total / count as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense};
    use crate::loss::Mse;
    use crate::optim::{Adam, Sgd};

    fn toy_problem(n: usize, seed: u64) -> (Tensor, Tensor) {
        // y = 0.5·x0 − x1 + 0.2
        let mut rng = TensorRng::seeded(seed);
        let x = rng.uniform(&[n, 2], -1.0, 1.0);
        let y = Tensor::from_vec(
            x.data()
                .chunks(2)
                .map(|c| 0.5 * c[0] - c[1] + 0.2)
                .collect(),
            &[n, 1],
        );
        (x, y)
    }

    fn linear_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![Box::new(Dense::new(2, 1, &mut rng))])
    }

    #[test]
    fn fit_reduces_validation_loss() {
        let (x, y) = toy_problem(128, 0);
        let mut net = linear_net(1);
        let mut opt = Sgd::new(0.1);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
        assert!(report.curve[0].val_loss > report.final_val_loss());
        assert!(
            report.final_val_loss() < 1e-3,
            "loss {}",
            report.final_val_loss()
        );
    }

    #[test]
    fn target_val_loss_stops_training() {
        let (x, y) = toy_problem(128, 2);
        let mut net = linear_net(3);
        let mut opt = Sgd::new(0.2);
        let cfg = TrainConfig {
            epochs: 500,
            batch_size: 32,
            target_val_loss: Some(0.01),
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
        assert!(report.stopped_early);
        assert!(report.curve.len() < 500);
        assert!(report.final_val_loss() <= 0.01);
        assert_eq!(report.epochs_to_reach(0.01), Some(report.curve.len()));
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let (x, y) = toy_problem(64, 4);
        let mut net = linear_net(5);
        // Tiny learning rate ⇒ negligible progress ⇒ patience triggers.
        let mut opt = Sgd::new(1e-7);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 32,
            patience: 5,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
        assert!(report.stopped_early);
        assert!(report.curve.len() <= 10);
    }

    #[test]
    fn nonlinear_network_learns_xor_like_data() {
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let y = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]);
        let mut rng = TensorRng::seeded(7);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 8, &mut rng)),
            Box::new(Activation::tanh()),
            Box::new(Dense::new(8, 1, &mut rng)),
        ]);
        let mut opt = Adam::new(0.05);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, &x, &y, &x, &y);
        assert!(
            report.final_val_loss() < 0.02,
            "loss {}",
            report.final_val_loss()
        );
    }

    #[test]
    fn report_helpers_are_consistent() {
        let report = TrainReport {
            curve: vec![
                EpochStat {
                    epoch: 0,
                    train_loss: 1.0,
                    val_loss: 0.9,
                },
                EpochStat {
                    epoch: 1,
                    train_loss: 0.5,
                    val_loss: 0.4,
                },
                EpochStat {
                    epoch: 2,
                    train_loss: 0.3,
                    val_loss: 0.45,
                },
            ],
            wall_secs: 0.1,
            stopped_early: false,
            cancelled: false,
        };
        assert_eq!(report.final_val_loss(), 0.45);
        assert_eq!(report.best_val_loss(), 0.4);
        assert_eq!(report.epochs_to_reach(0.5), Some(2));
        assert_eq!(report.epochs_to_reach(0.1), None);
        assert_eq!(report.val_curve(), vec![0.9, 0.4, 0.45]);
    }

    #[test]
    fn pre_cancelled_control_runs_zero_epochs() {
        let (x, y) = toy_problem(32, 10);
        let mut net = linear_net(11);
        let mut opt = Sgd::new(0.1);
        let ctl = TrainControl::new();
        ctl.cancel();
        let report = Trainer::new(TrainConfig::default())
            .fit_controlled(&mut net, &mut opt, &Mse, &x, &y, &x, &y, &ctl);
        assert!(report.cancelled);
        assert!(report.curve.is_empty());
        assert!(!report.stopped_early);
    }

    #[test]
    fn cancellation_lands_on_an_epoch_boundary() {
        // Cancel from another thread mid-run: the trainer must stop with a
        // partial curve (every recorded epoch fully completed) instead of
        // exhausting its 10_000-epoch budget.
        let (x, y) = toy_problem(256, 12);
        let mut net = linear_net(13);
        let mut opt = Sgd::new(1e-4);
        let cfg = TrainConfig {
            epochs: 10_000,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let ctl = TrainControl::new();
        let canceller = {
            let ctl = ctl.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                ctl.cancel();
            })
        };
        let report =
            Trainer::new(cfg).fit_controlled(&mut net, &mut opt, &Mse, &x, &y, &x, &y, &ctl);
        canceller.join().unwrap();
        assert!(report.cancelled, "run must observe the cancellation");
        assert!(
            report.curve.len() < 10_000,
            "cancelled run must not exhaust its epoch budget"
        );
        // Every epoch in the curve is complete (train and val both scored).
        for s in &report.curve {
            assert!(s.train_loss.is_finite() && s.val_loss.is_finite());
        }
    }

    #[test]
    fn uncancelled_control_is_equivalent_to_fit() {
        let (x, y) = toy_problem(64, 14);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let mut net_a = linear_net(15);
        let mut opt_a = Sgd::new(0.1);
        let a = Trainer::new(cfg.clone()).fit(&mut net_a, &mut opt_a, &Mse, &x, &y, &x, &y);
        let mut net_b = linear_net(15);
        let mut opt_b = Sgd::new(0.1);
        let b = Trainer::new(cfg).fit_controlled(
            &mut net_b,
            &mut opt_b,
            &Mse,
            &x,
            &y,
            &x,
            &y,
            &TrainControl::new(),
        );
        assert!(!a.cancelled && !b.cancelled);
        assert_eq!(a.val_curve(), b.val_curve());
    }
}
