//! Mini-batch training loop with validation tracking, early stopping, and
//! convergence-epoch detection.
//!
//! The paper's Figs 13–14 compare *epochs to convergence* for models trained
//! from scratch against fine-tuned models recommended by fairMS, so the
//! trainer records the full validation curve and exposes several
//! convergence measures on the resulting [`TrainReport`].
//!
//! **A step is two fixed shards.** Every mini-batch of two or more samples
//! splits into its first `⌈n/2⌉` and last `⌊n/2⌋` rows, whatever the pool
//! width. Shard 0 runs forward, loss gradient and `backward_params` on the
//! network being trained; shard 1 on a replica cloned at the start of the
//! fit ([`Layer::clone_for_shard`](crate::layers::Layer::clone_for_shard):
//! its dropout draws a stream of its own) and re-synced from the trained
//! network's values after every optimizer step. Each shard's loss gradient
//! is scaled to the batch's mean ([`Loss::batch_backward`]); the replica's
//! parameter gradients are added to the network's after its own, and one
//! optimizer step follows. A one-sample batch runs whole.
//!
//! **Where shard 1 runs does not change a bit.** When a step's work —
//! `STEP_PASSES` = 3 times its forward multiply–adds — clears
//! `ops::PAR_MIN_WORK` on a pool at least two wide, the fit opens one
//! helper thread (a `rayon::scope`, one region) for its whole epoch loop
//! and hands shard 1 to it over a channel each step. Otherwise shard 1 runs
//! on the calling thread after shard 0: the same computation on the same
//! replica. The helper exits when the fit returns — completed, stopped
//! early, cancelled, or panicking, which surfaces as the fit's panic.
//!
//! **A hand-off does not park.** Each receive of one — the helper's wait
//! for work, the caller's wait for a finished shard, in a step and in a
//! validation batch — tries its channel for up to `HANDOFF_SPIN` (80 µs)
//! before it blocks: a parked thread's wake-up costs a round trip about
//! 20 µs on a two-core box, and a fit makes 24 of them (16 steps and 8
//! validations at the update fit's 52 + 12 rows).
//!
//! **Validation splits the same way.** When the fit has opened its helper,
//! each validation batch of two or more rows is scored in two halves: the
//! calling thread runs [`Sequential::infer`] on its first `⌈n/2⌉` rows,
//! the helper on the replica for the rest. The replica holds the trained
//! network's values bit for bit after every resync, and a row's inference
//! does not depend on the batch around it (DESIGN.md §9), so the two
//! halves side by side are the whole batch's prediction and the loss is
//! taken once over them: the same validation losses to the bit. Without a
//! helper a validation batch runs whole on the calling thread.

use crate::layers::Sequential;
use crate::loss::Loss;
use crate::optim::Optimizer;
use fairdms_tensor::ops::PAR_MIN_WORK;
use fairdms_tensor::{rng::TensorRng, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multiply–adds of a training step per multiply–add of its forward pass:
/// the forward pass, the input gradients and the parameter gradients.
const STEP_PASSES: usize = 3;

/// How long a shard hand-off's receive tries its channel before it parks:
/// a parked thread's wake-up costs about 20 µs a round trip on a busy
/// two-core box, a spinning receive well under one. Long enough to cover
/// what the helper waits through between two steps — the caller's step
/// tail (gradient merge, optimizer step and resync; about 55 µs over
/// BraggNN's 36 K parameters on such a box) — short enough that a thread
/// waiting on a whole shard parks after spending a few percent of it.
const HANDOFF_SPIN: Duration = Duration::from_micros(80);

/// Receives from `rx`, trying it for up to [`HANDOFF_SPIN`] before
/// blocking; `Err` once the sender is gone and the channel empty.
fn recv_handoff<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if start.elapsed() < HANDOFF_SPIN => {
                std::hint::spin_loop();
            }
            Err(TryRecvError::Empty) => return rx.recv(),
        }
    }
}

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
        let data = [train_x, train_y, val_x, val_y];
        let per_sample = net.forward_work(train_x.slice_rows(0, 1));
        // Shard 1's copy of the network, when some batch has rows to split.
        let replica = (n >= 2).then(|| Shard::new(net.clone_for_shard(1)));
        let widest = self.cfg.batch_size.min(n);
        let two_wide = widest >= 2 && rayon::current_num_threads() >= 2;
        let mut report = if two_wide && STEP_PASSES * per_sample * widest >= PAR_MIN_WORK {
            rayon::scope(|s| {
                let (work, todo) = mpsc::channel::<Shard>();
                let (finished, done) = mpsc::channel();
                s.spawn(move |_| {
                    while let Ok(mut shard) = recv_handoff(&todo) {
                        shard.run(loss);
                        if finished.send(shard).is_err() {
                            break;
                        }
                    }
                });
                let helper = Helper { work, done };
                let steps = Steps::new(loss, per_sample, Some(&helper), replica);
                self.run_epochs(net, opt, steps, data, ctl)
            })
        } else {
            let steps = Steps::new(loss, per_sample, None, replica);
            self.run_epochs(net, opt, steps, data, ctl)
        };
        report.wall_secs = start.elapsed().as_secs_f64();
        report
    }

    /// The epoch loop of [`Trainer::fit_controlled`], taking its steps
    /// through `steps`.
    fn run_epochs(
        &self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        mut steps: Steps<'_>,
        [train_x, train_y, val_x, val_y]: [&Tensor; 4],
        ctl: &TrainControl,
    ) -> TrainReport {
        let mut rng = TensorRng::seeded(self.cfg.shuffle_seed);
        let mut curve = Vec::with_capacity(self.cfg.epochs);
        let mut best = f32::INFINITY;
        let mut stale = 0usize;
        let mut stopped_early = false;
        let mut cancelled = false;
        for epoch in 0..self.cfg.epochs {
            if ctl.is_cancelled() {
                cancelled = true;
                break;
            }
            let order = rng.permutation(train_x.shape()[0]);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for batch in order.chunks(self.cfg.batch_size) {
                epoch_loss += steps.step(net, opt, train_x, train_y, batch);
                batches += 1;
            }
            let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
            let val_loss = steps.evaluate(net, self.cfg.batch_size, val_x, val_y);
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
            // `fit_controlled` times the whole fit, the helper's spawn too.
            wall_secs: 0.0,
            stopped_early,
            cancelled,
        }
    }
}

/// Shard 1 of a mini-batch or of a validation batch: the replica network it
/// runs on and its rows. Owned, so it can cross to the helper thread and
/// back.
struct Shard {
    net: Sequential,
    /// The rows to run, until the run hands them to the network.
    x: Option<Tensor>,
    y: Tensor,
    /// Rows of the whole mini-batch, the loss gradient's denominator; `None`
    /// for a validation shard, which only predicts.
    batch_rows: Option<usize>,
    /// A training shard's mean loss, once run.
    loss: f32,
    /// A validation shard's prediction, once run.
    pred: Tensor,
}

impl Shard {
    fn new(net: Sequential) -> Self {
        Shard {
            net,
            x: None,
            y: Tensor::zeros(&[0]),
            batch_rows: None,
            loss: 0.0,
            pred: Tensor::zeros(&[0]),
        }
    }

    fn run(&mut self, loss: &dyn Loss) {
        let x = self
            .x
            .take()
            .expect("a shard is run on the rows handed to it");
        match self.batch_rows {
            Some(rows) => self.loss = run_shard(&mut self.net, loss, x, &self.y, rows),
            None => self.pred = self.net.infer(x),
        }
    }
}

/// One shard's part of a step: forward pass, loss gradient scaled to the
/// mean over the batch's `batch_rows` rows, parameter gradients. Returns
/// the shard's own mean loss.
fn run_shard(
    net: &mut Sequential,
    loss: &dyn Loss,
    x: Tensor,
    y: &Tensor,
    batch_rows: usize,
) -> f32 {
    let pred = net.forward(x);
    net.backward_params(loss.batch_backward(&pred, y, batch_rows));
    loss.forward(&pred, y)
}

/// The calling thread's ends of the helper thread's two channels.
struct Helper {
    work: Sender<Shard>,
    done: Receiver<Shard>,
}

/// What a fit keeps from one step to the next: shard 1 and the helper when
/// the fit opened one. Validation runs through it too, so it can use the
/// same helper and replica.
struct Steps<'a> {
    loss: &'a dyn Loss,
    /// Multiply–adds of one sample's forward pass.
    per_sample: usize,
    helper: Option<&'a Helper>,
    /// Shard 1 between steps (`None` for a one-row training set).
    replica: Option<Shard>,
}

impl<'a> Steps<'a> {
    fn new(
        loss: &'a dyn Loss,
        per_sample: usize,
        helper: Option<&'a Helper>,
        replica: Option<Shard>,
    ) -> Self {
        Steps {
            loss,
            per_sample,
            helper,
            replica,
        }
    }

    /// One optimizer step of `net` on the rows `batch` of `(x, y)`: each
    /// shard's gathered rows are handed to its network. Returns the batch's
    /// mean loss.
    fn step(
        &mut self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        x: &Tensor,
        y: &Tensor,
        batch: &[usize],
    ) -> f64 {
        let rows = batch.len();
        let (head, tail) = batch.split_at(rows.div_ceil(2));
        let (own_x, own_y) = (x.gather_rows(head), y.gather_rows(head));
        let split = (!tail.is_empty()).then(|| {
            self.replica
                .take()
                .expect("a fit of two rows or more has a replica")
        });
        let loss_sum = match split {
            None => run_shard(net, self.loss, own_x, &own_y, rows) as f64 * rows as f64,
            Some(mut shard) => {
                shard.x = Some(x.gather_rows(tail));
                shard.y = y.gather_rows(tail);
                shard.batch_rows = Some(rows);
                let wide = STEP_PASSES * self.per_sample * rows >= PAR_MIN_WORK;
                let (own, mut shard) = match self.helper.filter(|_| wide) {
                    Some(helper) => {
                        helper.work.send(shard).expect("the shard helper exited");
                        let own = run_shard(net, self.loss, own_x, &own_y, rows);
                        let theirs = recv_handoff(&helper.done).expect("the shard helper exited");
                        (own, theirs)
                    }
                    None => {
                        let own = run_shard(net, self.loss, own_x, &own_y, rows);
                        shard.run(self.loss);
                        (own, shard)
                    }
                };
                for (mine, theirs) in net.params_mut().into_iter().zip(shard.net.params_mut()) {
                    mine.grad.add_assign(&theirs.grad);
                    theirs.zero_grad();
                }
                let loss_sum =
                    own as f64 * head.len() as f64 + shard.loss as f64 * tail.len() as f64;
                self.replica = Some(shard);
                loss_sum
            }
        };
        opt.step(net.params_mut());
        if let Some(replica) = &mut self.replica {
            for (copy, master) in replica.net.params_mut().into_iter().zip(net.params()) {
                copy.value.data_mut().copy_from_slice(master.value.data());
            }
        }
        loss_sum / rows as f64
    }

    /// Mean loss of `net` over `(x, y)`, in batches of `batch`
    /// rows. Runs through [`Sequential::infer`], so scoring a validation
    /// set between epochs leaves the layers' backward caches (and their
    /// recycled allocations) sized for the training batch.
    fn evaluate(&mut self, net: &Sequential, batch: usize, x: &Tensor, y: &Tensor) -> f32 {
        let n = x.shape()[0];
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0f64;
        for start in (0..n).step_by(batch) {
            let end = (start + batch).min(n);
            let pred = self.predict(net, x, start, end);
            let rows = (end - start) as f64;
            total += self.loss.forward(&pred, &y.slice_rows(start, end)) as f64 * rows;
        }
        (total / n as f64) as f32
    }

    /// `net`'s prediction for rows `start..end` of `x`: the last `⌊n/2⌋`
    /// rows on the helper when the fit has one, the rest here.
    fn predict(&mut self, net: &Sequential, x: &Tensor, start: usize, end: usize) -> Tensor {
        let mid = start + (end - start).div_ceil(2);
        let Some(helper) = self.helper.filter(|_| mid < end) else {
            return net.infer(x.slice_rows(start, end));
        };
        let mut shard = self
            .replica
            .take()
            .expect("a fit with a helper has a replica");
        shard.x = Some(x.slice_rows(mid, end));
        shard.batch_rows = None;
        helper.work.send(shard).expect("the shard helper exited");
        let head = net.infer(x.slice_rows(start, mid));
        let shard = recv_handoff(&helper.done).expect("the shard helper exited");
        let mut dims = head.shape().to_vec();
        dims[0] = end - start;
        let mut rows = head.into_vec();
        rows.extend_from_slice(shard.pred.data());
        self.replica = Some(shard);
        Tensor::from_vec(rows, &dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Conv2d, Dense, Dropout, Flatten};
    use crate::loss::Mse;
    use crate::optim::{Adam, Sgd};
    use std::collections::HashSet;
    use std::thread::ThreadId;

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

    /// Two convolutions, a dense head and live dropout on 16×16 images:
    /// 364,576 multiply–adds a sample forward, so a step of 16 or more
    /// samples clears the gate.
    fn conv_net(seed: u64) -> Sequential {
        let mut rng = TensorRng::seeded(seed);
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 16, 3, 1, 1, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Conv2d::new(16, 8, 3, 1, 1, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(8 * 256, 16, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dropout::new(0.2, seed)),
            Box::new(Dense::new(16, 2, &mut rng)),
        ])
    }

    fn conv_problem(n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seeded(seed);
        (
            rng.uniform(&[n, 1, 16, 16], 0.0, 1.0),
            rng.uniform(&[n, 2], 0.2, 0.8),
        )
    }

    fn on_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// Fits `net` for two epochs at batch 32 on a pool of `threads`;
    /// returns the trained parameters, the validation curve's bits and the
    /// regions the fit opened.
    fn fit_on_pool(
        threads: usize,
        mut net: Sequential,
        [x, y, vx, vy]: [&Tensor; 4],
    ) -> (Vec<Tensor>, Vec<u32>, u64) {
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            ..TrainConfig::default()
        };
        on_pool(threads, || {
            let before = rayon::regions_opened();
            let mut opt = Adam::new(1e-3);
            let report = Trainer::new(cfg).fit(&mut net, &mut opt, &Mse, x, y, vx, vy);
            let regions = rayon::regions_opened() - before;
            (
                net.params().iter().map(|p| p.value.clone()).collect(),
                report.val_curve().iter().map(|v| v.to_bits()).collect(),
                regions,
            )
        })
    }

    /// An identity layer that reports the thread each `infer` runs on.
    #[derive(Clone)]
    struct InferThreads(Sender<ThreadId>);

    /// [`conv_net`] ending in an [`InferThreads`] probe, and the probe's
    /// receiving end.
    fn probed_conv_net(seed: u64) -> (Sequential, Receiver<ThreadId>) {
        let (tx, rx) = mpsc::channel();
        let mut net = conv_net(seed);
        net.push(Box::new(InferThreads(tx)));
        (net, rx)
    }

    /// How many threads the probe saw.
    fn threads_seen(rx: &Receiver<ThreadId>) -> usize {
        rx.try_iter().collect::<HashSet<_>>().len()
    }

    impl crate::layers::Layer for InferThreads {
        fn forward(&mut self, x: Tensor) -> Tensor {
            x
        }

        fn infer(&self, x: Tensor) -> Tensor {
            self.0.send(std::thread::current().id()).unwrap();
            x
        }

        fn backward(&mut self, grad_out: Tensor) -> Tensor {
            grad_out
        }
    }

    /// 51 training rows (a 32- and a 19-row step at batch 32, both above
    /// the gate for [`conv_net`]) and 13 validation rows.
    fn conv_data() -> [Tensor; 4] {
        let ((x, y), (vx, vy)) = (conv_problem(51, 30), conv_problem(13, 31));
        [x, y, vx, vy]
    }

    #[test]
    fn a_fit_above_the_gate_opens_one_region_on_two_cores_and_none_on_one() {
        let [x, y, vx, vy] = conv_data();
        let data = [&x, &y, &vx, &vy];
        // The helper is the one region; the shim counts a scope task's
        // regions as its caller's, so neither shard opened one inside, and
        // neither did the validation half the helper scored.
        let (net, probe) = probed_conv_net(40);
        assert_eq!(fit_on_pool(2, net, data).2, 1);
        assert_eq!(threads_seen(&probe), 2, "validation ran on both threads");
        let (net, probe) = probed_conv_net(40);
        assert_eq!(fit_on_pool(1, net, data).2, 0, "one-wide pool");
        assert_eq!(threads_seen(&probe), 1, "one-wide validation runs whole");
        let ((tx, ty), (tvx, tvy)) = (toy_problem(51, 32), toy_problem(13, 33));
        let toy = fit_on_pool(2, linear_net(41), [&tx, &ty, &tvx, &tvy]);
        assert_eq!(toy.2, 0, "below the gate");
    }

    #[test]
    fn where_shard_one_runs_changes_no_bit() {
        // Live dropout and a ragged 19-row batch; on two and three cores
        // shard 1 and half of each validation batch run on the helper, on
        // one after shard 0.
        let [x, y, vx, vy] = conv_data();
        let data = [&x, &y, &vx, &vy];
        let (inline, inline_val, _) = fit_on_pool(1, conv_net(42), data);
        assert_ne!(inline[0], conv_net(42).params()[0].value, "training moved");
        for threads in [2, 3] {
            let (on_helper, val, _) = fit_on_pool(threads, conv_net(42), data);
            assert!(on_helper == inline, "{threads} threads");
            assert_eq!(val, inline_val, "validation at {threads} threads");
        }
    }

    #[test]
    fn a_one_row_training_set_runs_whole() {
        let (x, y) = toy_problem(1, 43);
        let mut net = linear_net(44);
        let before = net.params()[0].value.clone();
        let report = Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .fit(&mut net, &mut Sgd::new(0.1), &Mse, &x, &y, &x, &y);
        assert!(report.final_val_loss().is_finite());
        assert_ne!(net.params()[0].value, before);
    }

    /// [`Mse`] that fails on a 15-row shard: shard 1 of a 31-row batch.
    struct FailsOnShardOne;

    impl Loss for FailsOnShardOne {
        fn forward(&self, pred: &Tensor, target: &Tensor) -> f32 {
            Mse.forward(pred, target)
        }

        fn batch_backward(&self, pred: &Tensor, target: &Tensor, batch_rows: usize) -> Tensor {
            assert_ne!(pred.shape()[0], 15, "shard 1 diverged");
            Mse.batch_backward(pred, target, batch_rows)
        }
    }

    #[test]
    #[should_panic(expected = "shard 1 diverged")]
    fn a_panic_on_the_helper_is_the_fits_panic() {
        let (x, y) = conv_problem(31, 45);
        on_pool(2, || {
            let before = rayon::regions_opened();
            let cfg = TrainConfig {
                epochs: 1,
                batch_size: 31,
                ..TrainConfig::default()
            };
            let mut net = conv_net(46);
            let mut opt = Sgd::new(0.1);
            let fit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Trainer::new(cfg).fit(&mut net, &mut opt, &FailsOnShardOne, &x, &y, &x, &y)
            }));
            assert_eq!(rayon::regions_opened() - before, 1, "it ran on the helper");
            if let Err(payload) = fit {
                std::panic::resume_unwind(payload);
            }
        });
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
