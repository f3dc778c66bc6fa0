//! The rapid model-training workflow (paper §II-C and Fig 5): fairDS and
//! fairMS composed into the user-plane "update my model" operation, with
//! the timing attribution the paper's case study reports (Fig 15).
//!
//! Given a new (unlabeled) dataset, the workflow
//!
//! 1. computes its cluster PDF via fairDS,
//! 2. obtains labels by nearest-embedding reuse with an expensive-labeler
//!    fallback (labeling time measured),
//! 3. asks fairMS for a foundation model — fine-tuning the recommendation
//!    with a reduced learning rate, or training from scratch when nothing
//!    in the Zoo is within the distance threshold,
//! 4. trains to the configured convergence target (training time and
//!    epochs measured), and
//! 5. registers the updated model back into the Zoo with the dataset PDF
//!    (so the Zoo "can respond with this model in the future").

use crate::fairds::{FairDS, PseudoLabelStats, SystemSnapshot};
use crate::fairms::{ModelManager, ModelZoo, ZooSnapshot};
use crate::models::ArchSpec;
use fairdms_nn::layers::Sequential;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, TrainControl, TrainReport, Trainer};
use fairdms_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Which foundation the trainer starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainStrategy {
    /// Fine-tune the best-ranked zoo model (the fairDMS path).
    FineTuneBest,
    /// Randomly initialized training (paper baseline Retrain).
    Scratch,
}

/// What an update run actually did, with its cost breakdown.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Measured labeling wall time.
    pub label_secs: f64,
    /// Measured training wall time.
    pub train_secs: f64,
    /// Label reuse statistics.
    pub label_stats: PseudoLabelStats,
    /// Zoo id of the fine-tuned foundation (None ⇒ scratch).
    pub foundation: Option<usize>,
    /// JSD between the input dataset and the foundation's training data.
    pub divergence: Option<f64>,
    /// Epochs run.
    pub epochs: usize,
    /// The full training curve.
    pub train_report: TrainReport,
    /// Zoo id the updated model was registered under.
    pub registered_id: usize,
}

impl UpdateReport {
    /// End-to-end time (labeling + training), the Fig 15b quantity.
    pub fn end_to_end_secs(&self) -> f64 {
        self.label_secs + self.train_secs
    }
}

/// Learning-rate multiplier for fine-tuning (the paper fine-tunes "using a
/// much smaller learning rate").
pub const FINETUNE_LR_SCALE: f32 = 0.25;

/// Fraction of an update's dataset held out for validation.
pub const VAL_FRACTION: f32 = 0.2;

/// Workflow configuration.
#[derive(Clone, Debug)]
pub struct RapidTrainerConfig {
    /// Architecture trained by this workflow instance.
    pub arch: ArchSpec,
    /// Image edge length (inputs arrive flattened `[N, side²]`).
    pub side: usize,
    /// Training-loop configuration (epochs cap, batch size, convergence
    /// target…).
    pub train: TrainConfig,
    /// Base learning rate for training from scratch; fine-tuning runs at
    /// [`FINETUNE_LR_SCALE`] of it.
    pub lr: f32,
    /// Embedding-distance threshold for label reuse.
    pub label_threshold: f32,
    /// Seed for splits and fresh initializations.
    pub seed: u64,
}

impl RapidTrainerConfig {
    /// A reasonable default around an architecture.
    pub fn new(arch: ArchSpec, side: usize) -> Self {
        RapidTrainerConfig {
            arch,
            side,
            train: TrainConfig {
                epochs: 60,
                batch_size: 32,
                patience: 8,
                ..TrainConfig::default()
            },
            lr: 2e-3,
            label_threshold: 0.5,
            seed: 0,
        }
    }
}

/// Deterministic train/validation row split of a labeled dataset:
/// `(train_x, train_y, val_x, val_y)`.
fn seeded_split(cfg: &RapidTrainerConfig, x: &Tensor, y: &Tensor) -> [Tensor; 4] {
    let n = x.shape()[0];
    let mut rng = fairdms_tensor::rng::TensorRng::seeded(cfg.seed ^ 0x5417);
    let order = rng.permutation(n);
    let n_val = ((n as f32 * VAL_FRACTION) as usize).clamp(1, n - 1);
    let (val, train) = order.split_at(n_val);
    [
        x.gather_rows(train),
        y.gather_rows(train),
        x.gather_rows(val),
        y.gather_rows(val),
    ]
}

/// The one fit under every training entry point: reshapes the flattened
/// images into the model's `[N, 1, side, side]` and runs the epoch loop
/// with a fresh Adam at `lr`, cancellable at every epoch boundary.
fn fit(
    cfg: &RapidTrainerConfig,
    net: &mut Sequential,
    lr: f32,
    [tx, ty, vx, vy]: [&Tensor; 4],
    ctl: &TrainControl,
) -> TrainReport {
    let model_input = |x: &Tensor| x.reshape(&[x.shape()[0], 1, cfg.side, cfg.side]);
    let mut opt = Adam::new(lr);
    Trainer::new(cfg.train.clone()).fit_controlled(
        net,
        &mut opt,
        &Mse,
        &model_input(tx),
        ty,
        &model_input(vx),
        vy,
        ctl,
    )
}

/// One model-update training job, from preparation to registration.
///
/// Built by [`RapidTrainer::prepare_update`] on the mutation actor (cheap:
/// PDF, decision, foundation resolution), carried to a background
/// executor whose [`UpdateJob::train`] pseudo-labels the frames and runs
/// the multi-epoch fine-tune against *only this owned data* and the
/// system snapshot it was prepared from — no live service state — and
/// finally handed back to the actor for fenced registration via
/// [`RapidTrainer::complete_update`].
pub struct UpdateJob {
    cfg: RapidTrainerConfig,
    /// The published system plane the job was prepared from: its labels
    /// are read through it and its version is the completion fence.
    system: Arc<SystemSnapshot>,
    x_flat: Tensor,
    pdf: Vec<f64>,
    net: Sequential,
    foundation: Option<usize>,
    divergence: Option<f64>,
    lr: f32,
    scan: usize,
    /// The label stage and the fit, once [`UpdateJob::train`] has run.
    trained: Option<Trained>,
}

/// What [`UpdateJob::train`] adds to a prepared job.
struct Trained {
    labels: Tensor,
    label_secs: f64,
    label_stats: PseudoLabelStats,
    train_secs: f64,
    report: TrainReport,
}

impl UpdateJob {
    /// Version of the system plane the job was prepared against (the
    /// staleness fence checked before the result is published).
    pub fn trained_from_version(&self) -> u64 {
        self.system.version()
    }

    /// The heavy half (executor side): pseudo-labels the frames through
    /// the job's system snapshot, `fallback` computing a label for each
    /// frame no stored label is near, then runs the multi-epoch training,
    /// cancellable at every epoch boundary through `ctl`. Returns `None`
    /// when the run was cancelled (a superseded job) — partially-trained
    /// weights are dropped, nothing is registrable.
    pub fn train(
        mut self,
        fallback: impl FnMut(&[f32]) -> Vec<f32>,
        ctl: &TrainControl,
    ) -> Option<Self> {
        // Superseded while queued: the label stage is not worth paying.
        if ctl.is_cancelled() {
            return None;
        }
        let t_label = Instant::now();
        let (labels, label_stats) =
            self.system
                .pseudo_label(&self.x_flat, self.cfg.label_threshold, fallback);
        let label_secs = t_label.elapsed().as_secs_f64();

        let t_train = Instant::now();
        let [tx, ty, vx, vy] = seeded_split(&self.cfg, &self.x_flat, &labels);
        let report = fit(&self.cfg, &mut self.net, self.lr, [&tx, &ty, &vx, &vy], ctl);
        if report.cancelled {
            return None;
        }
        self.trained = Some(Trained {
            labels,
            label_secs,
            label_stats,
            train_secs: t_train.elapsed().as_secs_f64(),
            report,
        });
        Some(self)
    }
}

/// The composed fairDMS workflow.
pub struct RapidTrainer {
    /// The data service.
    pub fairds: FairDS,
    /// The model zoo.
    pub zoo: ModelZoo,
    /// The model manager (recommendation policy).
    pub manager: ModelManager,
    cfg: RapidTrainerConfig,
}

impl RapidTrainer {
    /// Assembles the workflow.
    pub fn new(fairds: FairDS, manager: ModelManager, cfg: RapidTrainerConfig) -> Self {
        RapidTrainer {
            fairds,
            zoo: ModelZoo::new(),
            manager,
            cfg,
        }
    }

    /// The workflow configuration.
    pub fn config(&self) -> &RapidTrainerConfig {
        &self.cfg
    }

    /// Mutable access to the configuration (e.g. to change the epoch
    /// budget between update phases).
    pub fn config_mut(&mut self) -> &mut RapidTrainerConfig {
        &mut self.cfg
    }

    /// The entry of `zoo` that `strategy` fine-tunes for a dataset with
    /// this PDF, as `(zoo id, divergence)`; `None` for scratch or an empty
    /// ranking.
    fn pick_foundation(
        zoo: &ZooSnapshot,
        strategy: TrainStrategy,
        pdf: &[f64],
    ) -> Option<(usize, f64)> {
        match strategy {
            TrainStrategy::Scratch => None,
            TrainStrategy::FineTuneBest => zoo.rank_top_k(pdf, 1)?.best(),
        }
    }

    /// Builds the starting network from a picked zoo entry, or from
    /// scratch — also when the picked entry's bytes do not load: an entry
    /// that cannot be opened is not a foundation. Returns `(net, foundation
    /// id, divergence, lr)`.
    fn foundation_for(
        &self,
        zoo: &ZooSnapshot,
        picked: Option<(usize, f64)>,
    ) -> (Sequential, Option<usize>, Option<f64>, f32) {
        // Distinct mask so scratch weights differ from zoo-load seeds.
        const FRESH_SEED_MASK: u64 = 0xF8E5;
        let loaded = picked.and_then(|(zoo_id, div)| {
            let net = zoo.instantiate(zoo_id, self.cfg.seed)?;
            Some((net, zoo_id, div))
        });
        match loaded {
            Some((net, zoo_id, div)) => (
                net,
                Some(zoo_id),
                Some(div),
                self.cfg.lr * FINETUNE_LR_SCALE,
            ),
            None => (
                self.cfg.arch.build(self.cfg.seed ^ FRESH_SEED_MASK),
                None,
                None,
                self.cfg.lr,
            ),
        }
    }

    /// Trains with an explicit strategy on an already-labeled dataset
    /// (the engine behind the Figs 13–14 learning-curve comparison).
    pub fn fit_strategy(
        &mut self,
        x_flat: &Tensor,
        y: &Tensor,
        pdf: &[f64],
        strategy: TrainStrategy,
    ) -> (Sequential, TrainReport, Option<usize>, Option<f64>) {
        let [tx, ty, vx, vy] = seeded_split(&self.cfg, x_flat, y);
        self.fit_strategy_with_val(&tx, &ty, &vx, &vy, pdf, strategy)
    }

    /// [`RapidTrainer::fit_strategy`] with an explicit validation set.
    ///
    /// The paper's evaluations train on fairDS-retrieved (pseudo-labeled)
    /// data but always measure error against conventionally labeled
    /// validation data (§III-E/F); this entry point lets the caller hold
    /// the two apart instead of splitting one labeled matrix.
    pub fn fit_strategy_with_val(
        &mut self,
        train_x_flat: &Tensor,
        train_y: &Tensor,
        val_x_flat: &Tensor,
        val_y: &Tensor,
        pdf: &[f64],
        strategy: TrainStrategy,
    ) -> (Sequential, TrainReport, Option<usize>, Option<f64>) {
        let zoo = self.zoo.snapshot();
        let (mut net, foundation, divergence, lr) =
            self.foundation_for(&zoo, Self::pick_foundation(&zoo, strategy, pdf));
        let report = fit(
            &self.cfg,
            &mut net,
            lr,
            [train_x_flat, train_y, val_x_flat, val_y],
            &TrainControl::new(),
        );
        (net, report, foundation, divergence)
    }

    /// The full fairDMS update (Fig 5 user plane): pseudo-label, decide,
    /// train, register. `fallback` computes a label for one flattened
    /// image when no stored label is close enough.
    ///
    /// This is the synchronous composition of the three update halves —
    /// [`RapidTrainer::prepare_update`], [`UpdateJob::train`],
    /// [`RapidTrainer::complete_update`] — which a background training
    /// executor runs separately so the heavy middle step never holds the
    /// mutation actor.
    pub fn update_model(
        &mut self,
        x_flat: &Tensor,
        fallback: impl FnMut(&[f32]) -> Vec<f32>,
        scan: usize,
    ) -> (Sequential, UpdateReport) {
        let trained = self
            .prepare_update(x_flat, scan)
            .train(fallback, &TrainControl::new())
            .expect("uncancelled update always completes");
        self.complete_update(trained)
    }

    /// First update half (actor side, O(ms): no label stage, no epoch
    /// loop): computes the dataset PDF, decides the strategy, and resolves
    /// and instantiates the foundation network. All of it is read from the
    /// published system and zoo snapshots, taken once; the job keeps the
    /// system snapshot, which [`UpdateJob::train`] labels through and the
    /// completion fences on.
    pub fn prepare_update(&self, x_flat: &Tensor, scan: usize) -> UpdateJob {
        let system = self
            .fairds
            .snapshot()
            .expect("fairDS system plane must be trained before updates");
        let zoo = self.zoo.snapshot();
        let pdf = system.dataset_pdf(x_flat);

        let (net, foundation, divergence, lr) =
            self.foundation_for(&zoo, self.manager.decide(&zoo, &pdf));
        UpdateJob {
            cfg: self.cfg.clone(),
            system,
            x_flat: x_flat.clone(),
            pdf,
            net,
            foundation,
            divergence,
            lr,
            scan,
            trained: None,
        }
    }

    /// Last update half (actor side, O(ms)): registers the trained model
    /// into the zoo and ingests its (pseudo-)labeled data.
    ///
    /// Version fencing is the caller's: compare
    /// [`UpdateJob::trained_from_version`] against the live plane and
    /// discard stale results instead of completing them.
    pub fn complete_update(&mut self, job: UpdateJob) -> (Sequential, UpdateReport) {
        let trained = job.trained.expect("complete_update before train");
        let scan = job.scan;
        let registered_id = self.zoo.add_model(
            &format!("{}-scan{scan}", self.cfg.arch.name()),
            self.cfg.arch,
            &job.net,
            job.pdf,
            scan,
        );
        self.fairds
            .ingest_labeled(&job.x_flat, &trained.labels, scan);
        let report = UpdateReport {
            label_secs: trained.label_secs,
            train_secs: trained.train_secs,
            label_stats: trained.label_stats,
            foundation: job.foundation,
            divergence: job.divergence,
            epochs: trained.report.curve.len(),
            train_report: trained.report,
            registered_id,
        };
        (job.net, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
    use crate::fairds::FairDsConfig;
    use fairdms_tensor::rng::TensorRng;

    const SIDE: usize = 8;

    /// Blob images + normalized blob-center labels (a miniature BraggNN
    /// task on an 8×8 grid so the workflow tests stay fast).
    fn blob_task(n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seeded(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let cx = rng.next_uniform(2.0, 5.0);
            let cy = rng.next_uniform(2.0, 5.0);
            for y in 0..SIDE {
                for x in 0..SIDE {
                    let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    xs.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                }
            }
            ys.push(cx / (SIDE as f32 - 1.0));
            ys.push(cy / (SIDE as f32 - 1.0));
        }
        (
            Tensor::from_vec(xs, &[n, SIDE * SIDE]),
            Tensor::from_vec(ys, &[n, 2]),
        )
    }

    fn trainer_fixture(seed: u64) -> RapidTrainer {
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
        let fairds = FairDS::in_memory(
            Box::new(embedder),
            FairDsConfig {
                k: Some(3),
                ..FairDsConfig::default()
            },
        );
        let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
        cfg.train.epochs = 8;
        cfg.train.batch_size = 16;
        cfg.seed = seed;
        RapidTrainer::new(fairds, ModelManager::new(0.9), cfg)
    }

    fn prime(trainer: &mut RapidTrainer, seed: u64) -> (Tensor, Tensor) {
        let (x, y) = blob_task(60, seed);
        let embed_cfg = EmbedTrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 2e-3,
            ..EmbedTrainConfig::default()
        };
        trainer.fairds.train_system(&x, &embed_cfg);
        trainer.fairds.ingest_labeled(&x, &y, 0);
        (x, y)
    }

    #[test]
    fn first_update_trains_from_scratch_and_registers() {
        let mut trainer = trainer_fixture(0);
        prime(&mut trainer, 1);
        let (x_new, _) = blob_task(40, 2);
        let (_, report) = trainer.update_model(&x_new, |_| vec![0.5, 0.5], 1);
        assert!(report.foundation.is_none(), "empty zoo ⇒ scratch");
        assert_eq!(trainer.zoo.len(), 1);
        assert!(report.label_secs >= 0.0 && report.train_secs > 0.0);
        assert!(report.end_to_end_secs() >= report.train_secs);
        // Similar data ⇒ most labels reused from the primed store.
        assert!(report.label_stats.reused > report.label_stats.computed);
    }

    #[test]
    fn second_update_fine_tunes_the_registered_model() {
        let mut trainer = trainer_fixture(3);
        prime(&mut trainer, 4);
        let (x1, _) = blob_task(40, 5);
        trainer.update_model(&x1, |_| vec![0.5, 0.5], 1);
        let (x2, _) = blob_task(40, 6);
        let (_, report) = trainer.update_model(&x2, |_| vec![0.5, 0.5], 2);
        assert_eq!(report.foundation, Some(0), "should fine-tune zoo entry 0");
        assert!(report.divergence.unwrap() < 0.9);
        assert_eq!(trainer.zoo.len(), 2);
    }

    #[test]
    fn fine_tuning_converges_faster_than_scratch() {
        let mut trainer = trainer_fixture(7);
        prime(&mut trainer, 8);
        let system = trainer.fairds.snapshot().unwrap();
        // Train a good model on a first batch and register it.
        let (x1, y1) = blob_task(80, 9);
        let pdf1 = system.dataset_pdf(&x1);
        let mut long_cfg = trainer.cfg.train.clone();
        long_cfg.epochs = 25;
        trainer.cfg.train = long_cfg;
        let (net, _, _, _) = trainer.fit_strategy(&x1, &y1, &pdf1, TrainStrategy::Scratch);
        trainer
            .zoo
            .add_model("seeded", trainer.cfg.arch, &net, pdf1, 0);

        // On fresh similar data, fine-tune vs scratch under a tight budget.
        let (x2, y2) = blob_task(60, 10);
        let pdf2 = system.dataset_pdf(&x2);
        trainer.cfg.train.epochs = 6;
        let (_, ft, _, _) = trainer.fit_strategy(&x2, &y2, &pdf2, TrainStrategy::FineTuneBest);
        let (_, scratch, _, _) = trainer.fit_strategy(&x2, &y2, &pdf2, TrainStrategy::Scratch);
        assert!(
            ft.curve[0].val_loss < scratch.curve[0].val_loss,
            "fine-tune should start from a better model: {} vs {}",
            ft.curve[0].val_loss,
            scratch.curve[0].val_loss
        );
        assert!(
            ft.best_val_loss() <= scratch.best_val_loss() * 1.2,
            "fine-tune should stay competitive: {} vs {}",
            ft.best_val_loss(),
            scratch.best_val_loss()
        );
    }

    #[test]
    fn strategies_pick_distinct_zoo_entries() {
        let mut trainer = trainer_fixture(11);
        prime(&mut trainer, 12);
        // Seed the zoo with three models carrying different PDFs.
        for (i, pdf) in [
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
        ]
        .into_iter()
        .enumerate()
        {
            let net = trainer.cfg.arch.build(i as u64);
            trainer
                .zoo
                .add_model(&format!("m{i}"), trainer.cfg.arch, &net, pdf, i);
        }
        let (x, y) = blob_task(30, 13);
        let pdf = vec![0.75, 0.15, 0.10];
        trainer.cfg.train.epochs = 2;
        let (_, _, best, _) = trainer.fit_strategy(&x, &y, &pdf, TrainStrategy::FineTuneBest);
        let (_, _, none, _) = trainer.fit_strategy(&x, &y, &pdf, TrainStrategy::Scratch);
        assert_eq!(best, Some(0));
        assert_eq!(none, None);
    }

    #[test]
    #[should_panic(expected = "system plane must be trained")]
    fn update_requires_trained_fairds() {
        let mut trainer = trainer_fixture(14);
        let (x, _) = blob_task(10, 15);
        trainer.update_model(&x, |_| vec![0.0, 0.0], 0);
    }

    #[test]
    fn explicit_val_set_is_respected() {
        let mut trainer = trainer_fixture(16);
        prime(&mut trainer, 17);
        let (tx, ty) = blob_task(40, 18);
        let (vx, vy) = blob_task(12, 19);
        let pdf = trainer.fairds.snapshot().unwrap().dataset_pdf(&tx);
        trainer.cfg.train.epochs = 3;
        let (_, report, _, _) =
            trainer.fit_strategy_with_val(&tx, &ty, &vx, &vy, &pdf, TrainStrategy::Scratch);
        assert_eq!(report.curve.len(), 3);
        assert!(report.final_val_loss().is_finite());

        // Degenerate validation labels shift the reported loss: proof the
        // explicit val set (and not an internal split) is being scored.
        let bad_vy = Tensor::from_vec(vec![5.0; 24], &[12, 2]);
        let (_, bad_report, _, _) =
            trainer.fit_strategy_with_val(&tx, &ty, &vx, &bad_vy, &pdf, TrainStrategy::Scratch);
        assert!(bad_report.final_val_loss() > report.final_val_loss() * 10.0);
    }

    #[test]
    fn split_update_halves_compose_to_update_model() {
        // prepare → train → complete must be observably the same operation
        // as the one-shot update_model (same foundation decision, same
        // registration, deterministic curve given seeds).
        let mut a = trainer_fixture(30);
        prime(&mut a, 31);
        let mut b = trainer_fixture(30);
        prime(&mut b, 31);
        let (x_new, _) = blob_task(40, 32);

        let (_, direct) = a.update_model(&x_new, |_| vec![0.5, 0.5], 1);

        let job = b.prepare_update(&x_new, 1);
        let trained = job
            .train(|_| vec![0.5, 0.5], &TrainControl::new())
            .expect("uncancelled");
        let (_, split) = b.complete_update(trained);

        assert_eq!(direct.foundation, split.foundation);
        assert_eq!(direct.registered_id, split.registered_id);
        assert_eq!(
            direct.train_report.val_curve(),
            split.train_report.val_curve()
        );
        assert_eq!(a.zoo.len(), b.zoo.len());
    }

    #[test]
    fn cancelled_update_registers_nothing() {
        let mut trainer = trainer_fixture(33);
        prime(&mut trainer, 34);
        let (x_new, _) = blob_task(30, 35);
        let store_docs_before = trainer.fairds.store().len();
        let job = trainer.prepare_update(&x_new, 1);
        let ctl = TrainControl::new();
        ctl.cancel();
        assert!(
            job.train(|_| vec![0.5, 0.5], &ctl).is_none(),
            "cancelled update must yield no registrable result"
        );
        assert_eq!(trainer.zoo.len(), 0, "cancelled model must not register");
        assert_eq!(
            trainer.fairds.store().len(),
            store_docs_before,
            "cancelled update must not ingest its data"
        );
    }

    #[test]
    fn update_plan_records_the_plane_version_it_trained_from() {
        let mut trainer = trainer_fixture(36);
        let (x, _) = prime(&mut trainer, 37);
        let v0 = trainer.fairds.snapshot().unwrap().version();
        let (x_new, _) = blob_task(30, 38);
        let job = trainer.prepare_update(&x_new, 1);
        assert_eq!(job.trained_from_version(), v0);
        // A system retrain between prepare and complete advances the live
        // version past the plan's — the fence a publisher must check.
        trainer.fairds.retrain_system(
            &x,
            &EmbedTrainConfig {
                epochs: 2,
                ..EmbedTrainConfig::default()
            },
        );
        let trained = job
            .train(|_| vec![0.5, 0.5], &TrainControl::new())
            .expect("uncancelled");
        assert!(
            trainer.fairds.snapshot().unwrap().version() > trained.trained_from_version(),
            "fence must detect the mid-flight plane change"
        );
    }

    #[test]
    fn fit_strategy_matches_explicit_split_composition() {
        // fit_strategy is sugar over fit_strategy_with_val with the
        // deterministic seed split; composing manually must agree.
        let mut trainer = trainer_fixture(20);
        prime(&mut trainer, 21);
        let (x, y) = blob_task(50, 22);
        let pdf = trainer.fairds.snapshot().unwrap().dataset_pdf(&x);
        trainer.cfg.train.epochs = 2;
        let (_, a, _, _) = trainer.fit_strategy(&x, &y, &pdf, TrainStrategy::Scratch);
        let (_, b, _, _) = trainer.fit_strategy(&x, &y, &pdf, TrainStrategy::Scratch);
        assert_eq!(a.val_curve(), b.val_curve(), "deterministic given seeds");
    }
}
