//! The write plane's training work as one fenced-job protocol (DESIGN.md
//! §7). A job trains against an **immutable input snapshot** prepared by
//! the actor ([`UpdateJob`], [`RetrainJob`]) — on a background [`JobPool`]
//! under a cancel token polled at every epoch boundary, or inline on the
//! actor — and comes back as a [`Completion`] for the one
//! [`TrainingExec::complete`].

use crate::api::{Reply, ServiceError, ServiceResult};
use crate::metrics::Metrics;
use crate::server::{DmsServerConfig, Msg, PoisonOnPanic, Shared};
use crossbeam_channel::{unbounded, Receiver, Sender};
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::RetrainJob;
use fairdms_core::workflow::{RapidTrainer, UpdateJob};
use fairdms_flows::jobs::{CancelToken, JobPool, TenantId};
use fairdms_nn::checkpoint;
use fairdms_nn::trainer::TrainControl;
use fairdms_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the executor trains. Each lane keeps its own latest job: a newer
/// trigger supersedes the job in flight on the *same* lane only.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Lane {
    /// `UpdateModel` fine-tunes.
    Update,
    /// Certainty-triggered system-plane retrains.
    Retrain,
}

/// The client a job answers when it completes: the reply sender of the
/// originating request, when the actor dequeued it, and the operation it
/// was admitted as — completion records `started.elapsed()` as that op's
/// run time.
pub(crate) struct Waiter {
    pub(crate) reply: Sender<ServiceResult>,
    pub(crate) started: Instant,
    pub(crate) op: usize,
}

impl Waiter {
    /// Records the operation's run time and sends its reply.
    pub(crate) fn answer(self, metrics: &Metrics, result: ServiceResult) {
        let run_time = self.started.elapsed();
        metrics.op_at(self.op).record(run_time, result.is_ok());
        let _ = self.reply.send(result);
    }
}

/// How a training job ended. The trained payloads are boxed: they carry a
/// fine-tuned network, or a retrain's full embedding/pixel matrices (the
/// O(copy) install input), which would otherwise bloat every queued
/// completion message to the largest variant's size.
pub(crate) enum Outcome {
    Update(Box<UpdateJob>),
    /// A fitted system plane. `retrain` is false for a `TrainSystem`
    /// bootstrap, which installs the same way and counts as neither a
    /// system retrain nor a training job.
    System {
        job: Box<RetrainJob>,
        retrain: bool,
    },
    /// Observed its cancel token and wound down (benign).
    Cancelled,
    /// Panicked (a bug in the training loop, or an update's fallback
    /// labeler) — the actor poisons the service loudly, the same contract a
    /// panic on the actor itself has.
    Panicked,
}

/// A finished training job on its way through [`TrainingExec::complete`].
struct Completion {
    /// The job's lane and its cancel token, its identity; `None` for work
    /// the actor ran inline (the monitor's refit, `TrainSystem`).
    slot: Option<(Lane, CancelToken)>,
    /// `None` for retrains: no client waits for one.
    waiter: Option<Waiter>,
    outcome: Outcome,
}

/// Actor-owned training-executor state: the pool, the completion channel
/// and the cancel token of the latest in-flight job per lane. Only
/// [`TrainingExec::supersede`] cancels a token while completions drain
/// (shutdown cancels after the loop), so a job is its lane's latest
/// exactly when its token is uncancelled.
pub(crate) struct TrainingExec {
    /// `Arc` because the pool may be shared by every tenant of a
    /// multi-tenant deployment (DESIGN.md §14); a solo server holds the
    /// only strong reference and still joins the workers at shutdown.
    pool: Arc<JobPool>,
    /// The tenant this actor submits training work as; queue bounds and
    /// round-robin fairness in the shared pool key off it.
    tenant: TenantId,
    done_tx: Sender<Completion>,
    done_rx: Receiver<Completion>,
    wake_tx: Sender<Msg>,
    /// Indexed by [`Lane`].
    in_flight: [Option<CancelToken>; 2],
}

impl TrainingExec {
    pub(crate) fn new(pool: Arc<JobPool>, tenant: TenantId, wake_tx: Sender<Msg>) -> Self {
        let (done_tx, done_rx) = unbounded();
        TrainingExec {
            pool,
            tenant,
            done_tx,
            done_rx,
            wake_tx,
            in_flight: [None, None],
        }
    }

    /// Whether the tenant's training queue can admit one more job.
    /// Race-free as an admission pre-check because this actor is the only
    /// thread that enqueues under its tenant id.
    pub(crate) fn has_queue_capacity(&self) -> bool {
        self.pool.has_capacity(self.tenant)
    }

    /// Cancels the lane's in-flight job (a newer trigger supersedes it)
    /// and counts the supersession.
    pub(crate) fn supersede(&mut self, lane: Lane, metrics: &Metrics) {
        if let Some(prev) = self.in_flight[lane as usize].take() {
            prev.cancel();
            metrics
                .training_jobs_superseded
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Submits prepared training work as the lane's latest job. `work`
    /// runs on the executor under the job's cancel token and answers `None`
    /// when it observed the token; a panic inside it is caught on the
    /// worker and completes as [`Outcome::Panicked`] — a failed outcome,
    /// never a silently vanished job. `waiter` rides outside the unwind
    /// boundary, so the client of a panicked job is still answered.
    pub(crate) fn submit(
        &mut self,
        lane: Lane,
        waiter: Option<Waiter>,
        work: impl FnOnce(&TrainControl) -> Option<Outcome> + Send + 'static,
    ) {
        let token = CancelToken::new();
        self.in_flight[lane as usize] = Some(token.clone());
        let done = self.done_tx.clone();
        let wake = self.wake_tx.clone();
        self.pool
            .try_spawn_for(self.tenant, token, move |token| {
                let ctl = TrainControl::from_flag(token.flag());
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(&ctl)))
                    .map_or(Outcome::Panicked, |o| o.unwrap_or(Outcome::Cancelled));
                let _ = done.send(Completion {
                    slot: Some((lane, token.clone())),
                    waiter,
                    outcome,
                });
                let _ = wake.try_send(Msg::Wake);
            })
            .expect("caller checked has_queue_capacity before preparing the job");
    }

    /// Completes every job that has finished on the executor. Returns
    /// `true` when one of them panicked and the actor must stop.
    pub(crate) fn drain(&mut self, trainer: &mut RapidTrainer, shared: &Arc<Shared>) -> bool {
        while let Ok(done) = self.done_rx.try_recv() {
            if self.complete(trainer, shared, done) {
                return true;
            }
        }
        false
    }

    /// The one completion function, for the two executor lanes, the
    /// monitor's inline retrain and `TrainSystem` alike: retires the job's
    /// lane slot, poisons on a panicked job, answers `Superseded` for a
    /// cancelled or displaced one, fences on the plane version the job
    /// trained from, and only then applies the result (register + ingest,
    /// or install), publishes it, counts it and answers the waiting client,
    /// if any. Returns `true` when the job *panicked* — the actor must
    /// stop, matching the contract of a panic on the actor thread itself.
    fn complete(
        &mut self,
        trainer: &mut RapidTrainer,
        shared: &Arc<Shared>,
        done: Completion,
    ) -> bool {
        // Poison-before-reply-disconnect ordering, as in the request path:
        // declared after `done` so an unwinding completion (zoo/store
        // panic) poisons the service before the client observes
        // `Unavailable`.
        let _poison = PoisonOnPanic(Arc::clone(shared));
        let metrics = &shared.metrics;
        let count = |counter: &AtomicU64, by: usize| {
            counter.fetch_add(by as u64, Ordering::Relaxed);
        };
        // A job is its lane's latest exactly when its token is uncancelled;
        // the latest frees its lane, a displaced one was counted back then.
        let is_latest = match &done.slot {
            Some((_, token)) if token.is_cancelled() => false,
            Some((lane, _)) => {
                self.in_flight[*lane as usize] = None;
                true
            }
            None => true,
        };
        let fatal = matches!(done.outcome, Outcome::Panicked);
        let trained_from = match &done.outcome {
            Outcome::Update(job) => Some(job.trained_from_version()),
            Outcome::System { job, .. } => job.trained_from_version(),
            Outcome::Cancelled | Outcome::Panicked => None,
        };
        let result: ServiceResult = match done.outcome {
            Outcome::Panicked => {
                // The job panicked on the executor (its label stage or its
                // epoch loop). Poison before the reply leaves (same
                // ordering contract as `_poison`).
                shared.poisoned.store(true, Ordering::Release);
                Err(ServiceError::Unavailable)
            }
            // Cancelled jobs produced nothing; displaced jobs were counted
            // at supersession time. Both just drain.
            Outcome::Cancelled => Err(ServiceError::Superseded),
            _ if !is_latest => Err(ServiceError::Superseded),
            // Version fence: the system plane the job trained from (an
            // update's PDF key in particular) was replaced mid-flight — a
            // triggered retrain installed, a manual `TrainSystem` ran. A
            // stale result must not be registered or installed.
            _ if trained_from != trainer.fairds.snapshot().map(|s| s.version()) => {
                count(&metrics.training_jobs_superseded, 1);
                Err(ServiceError::Superseded)
            }
            Outcome::Update(job) => {
                let (net, report) = trainer.complete_update(*job);
                count(&metrics.training_jobs_completed, 1);
                Ok(Reply::Updated {
                    checkpoint: checkpoint::save(&net),
                    report,
                })
            }
            // The install is O(copy): the job's embeddings write back by
            // DocId and only documents it did not capture pay a fresh
            // (delta) embed, so the actor is occupied for O(store × copy),
            // not O(store × forward-pass). Nothing is ingested between an
            // inline retrain's prepare and its install, so its delta is
            // empty; a re-bootstrap captured nothing, so its delta is the
            // store.
            Outcome::System { job, retrain } => {
                let install = trainer.fairds.install_retrained(*job);
                if retrain {
                    count(&metrics.retrain_docs_copied, install.copied);
                    count(&metrics.retrain_docs_delta_embedded, install.delta_embedded);
                    count(&metrics.system_retrains, 1);
                    count(&metrics.training_jobs_completed, 1);
                }
                Ok(Reply::SystemTrained { k: install.k })
            }
        };
        if result.is_ok() {
            // Publish-before-acknowledge: the new zoo entry or system
            // plane goes live before its client hears about it.
            shared.publish(trainer);
        }
        if let Some(waiter) = done.waiter {
            waiter.answer(metrics, result);
        }
        fatal
    }

    /// Runs the certainty monitor on a batch; triggers a system-plane
    /// retrain when it fires. Returns whether a retrain was triggered.
    ///
    /// Scheduling, by caller:
    ///
    /// * **Ingest** (`force_inline: false`): the retrain is *submitted* and
    ///   installs asynchronously after the fence. While one retrain is
    ///   already in flight, new triggers are **skipped rather than
    ///   superseding it** — every retrain refits the whole store, so the
    ///   running job is not stale, and superseding per drifted batch would
    ///   let a sustained drift stream cancel every retrain before it could
    ///   install (starvation). The next monitored batch after installation
    ///   re-evaluates the refreshed plane and re-triggers if drift remains.
    /// * **UpdateModel** (`force_inline: true`): the retrain completes —
    ///   installed and published — inline on the actor before the update is
    ///   prepared: the update's dataset PDF and pseudo-labels must be
    ///   computed under the refreshed plane, submitting it asynchronously
    ///   would deterministically fence-reject the caller's own update, and
    ///   if the update is later superseded readers must still see the
    ///   retrain. Any in-flight ingest-triggered retrain is superseded:
    ///   the inline refit subsumes it.
    ///
    /// Degenerate planes (fewer than 4 samples across store + batch) cannot
    /// be refit and never trigger.
    pub(crate) fn monitor(
        &mut self,
        trainer: &mut RapidTrainer,
        cfg: &DmsServerConfig,
        images: &Tensor,
        shared: &Arc<Shared>,
        force_inline: bool,
    ) -> bool {
        if !cfg.auto_retrain || !trainer.fairds.is_ready() {
            return false;
        }
        // An ingest skips while a retrain runs or the queue is full (DESIGN.md §14).
        let busy = self.in_flight[Lane::Retrain as usize].is_some() || !self.has_queue_capacity();
        if !force_inline && busy {
            return false;
        }
        if !trainer.fairds.needs_system_update(images) {
            return false;
        }
        let rjob = trainer.fairds.prepare_retrain(images);
        if rjob.sample_count() < 4 {
            return false; // nothing to refit on; trigger again when data exists
        }
        shared
            .metrics
            .training_jobs_started
            .fetch_add(1, Ordering::Relaxed);
        if force_inline {
            // The inline refit subsumes whatever was in flight.
            self.supersede(Lane::Retrain, &shared.metrics);
            self.complete_inline(trainer, shared, rjob, &cfg.retrain_embed_cfg, None, true);
        } else {
            let embed_cfg = cfg.retrain_embed_cfg.clone();
            self.submit(Lane::Retrain, None, move |ctl| {
                let job = Box::new(rjob.train(&embed_cfg, ctl)?);
                Some(Outcome::System { job, retrain: true })
            });
        }
        true
    }

    /// Fits a system plane on the actor and completes it like every other
    /// trained job (fence, install, publish, answer `waiter`): nothing can
    /// cancel it and it holds no lane.
    pub(crate) fn complete_inline(
        &mut self,
        trainer: &mut RapidTrainer,
        shared: &Arc<Shared>,
        job: RetrainJob,
        embed_cfg: &EmbedTrainConfig,
        waiter: Option<Waiter>,
        retrain: bool,
    ) {
        let job = job.train(embed_cfg, &TrainControl::new());
        let job = Box::new(job.expect("an uncancelled fit always completes"));
        let outcome = Outcome::System { job, retrain };
        let done = Completion {
            slot: None,
            waiter,
            outcome,
        };
        self.complete(trainer, shared, done);
    }

    /// Shutdown path: cancel whatever is in flight (jobs wind down at
    /// their next epoch boundary) and release the pool, which joins the
    /// workers when this was the last reference. Undrained completions —
    /// and with them the deferred reply senders — drop here, surfacing as
    /// `Unavailable` at their clients.
    pub(crate) fn shutdown(self) {
        for token in self.in_flight.into_iter().flatten() {
            token.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Request;
    use crate::server::ServiceView;
    use crossbeam_channel::bounded;
    use fairdms_core::embedding::AutoencoderEmbedder;
    use fairdms_core::fairds::{FairDS, FairDsConfig};
    use fairdms_core::fairms::ModelManager;
    use fairdms_core::models::ArchSpec;
    use fairdms_core::workflow::RapidTrainerConfig;
    use fairdms_tensor::rng::TensorRng;

    const SIDE: usize = 8;
    const STORED: usize = 24;

    /// No epochs anywhere: a fit is its initial weights.
    fn embed_cfg() -> EmbedTrainConfig {
        EmbedTrainConfig {
            epochs: 0,
            ..EmbedTrainConfig::default()
        }
    }

    fn frames(n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seeded(seed);
        let x = rng.uniform(&[n, SIDE * SIDE], 0.0, 1.0);
        (x, rng.uniform(&[n, 2], 0.0, 1.0))
    }

    /// A trainer on plane version 0 whose store holds `STORED` documents.
    fn trainer() -> RapidTrainer {
        let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 16, 4, 1);
        let ds_cfg = FairDsConfig {
            k: Some(2),
            ..FairDsConfig::default()
        };
        let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
        cfg.train.epochs = 0;
        let fairds = FairDS::in_memory(Box::new(embedder), ds_cfg);
        let mut trainer = RapidTrainer::new(fairds, ModelManager::new(0.9), cfg);
        let (x, y) = frames(STORED, 2);
        trainer.fairds.train_system(&x, &embed_cfg());
        trainer.fairds.ingest_labeled(&x, &y, 0);
        trainer
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ending {
        Current,
        Cancelled,
        Displaced,
        Fenced,
        Panicked,
    }

    /// What one completion is expected to do: the waiting client's reply
    /// (update lane only — nobody waits for a retrain), the counter deltas
    /// `[completed, superseded, system_retrains, docs_copied,
    /// docs_delta_embedded]`, and whether it poisoned the service, moved
    /// the published plane version, or grew the published zoo.
    struct Expect {
        reply: &'static str,
        counters: [u64; 5],
        poisoned: bool,
        version_moved: bool,
        zoo_grew: bool,
    }

    const QUIET: Expect = Expect {
        reply: "Superseded",
        counters: [0; 5],
        poisoned: false,
        version_moved: false,
        zoo_grew: false,
    };

    fn expected(lane: Lane, ending: Ending) -> Expect {
        match (lane, ending) {
            (Lane::Update, Ending::Current) => Expect {
                reply: "Updated",
                counters: [1, 0, 0, 0, 0],
                zoo_grew: true,
                ..QUIET
            },
            (Lane::Retrain, Ending::Current) => Expect {
                counters: [1, 0, 1, STORED as u64, 0],
                version_moved: true,
                ..QUIET
            },
            // Counted when the supersession happened, not at completion.
            (_, Ending::Cancelled | Ending::Displaced) => QUIET,
            (_, Ending::Fenced) => Expect {
                counters: [0, 1, 0, 0, 0],
                ..QUIET
            },
            (_, Ending::Panicked) => Expect {
                reply: "Unavailable",
                poisoned: true,
                ..QUIET
            },
        }
    }

    #[test]
    fn every_ending_of_both_lanes_completes_by_the_one_protocol() {
        use Ending::*;
        let pool = Arc::new(JobPool::new(1, "completion-table"));
        for lane in [Lane::Update, Lane::Retrain] {
            for ending in [Current, Cancelled, Displaced, Fenced, Panicked] {
                let row = format!("{lane:?} × {ending:?}");
                let mut trainer = trainer();
                let shared = Arc::new(Shared::new(
                    &trainer,
                    Box::new(|_| vec![0.5, 0.5]),
                    Arc::new(Metrics::new()),
                ));
                let (wake_tx, _wake_rx) = bounded(1);
                let mut exec = TrainingExec::new(Arc::clone(&pool), 0, wake_tx);

                // The job under test holds its lane; a displaced one's
                // token was cancelled and a newer job's token holds the lane.
                let (own, newer) = (CancelToken::new(), CancelToken::new());
                let displaced = ending == Displaced;
                if displaced {
                    own.cancel();
                }
                exec.in_flight[lane as usize] = Some(if displaced { &newer } else { &own }.clone());
                let (x, _) = frames(12, 3);
                let outcome = match (ending, lane) {
                    (Cancelled, _) => Outcome::Cancelled,
                    (Panicked, _) => Outcome::Panicked,
                    (_, Lane::Update) => Outcome::Update(Box::new(
                        trainer
                            .prepare_update(&x, 1)
                            .train(|_| vec![0.5, 0.5], &TrainControl::new())
                            .expect("uncancelled"),
                    )),
                    (_, Lane::Retrain) => Outcome::System {
                        job: Box::new(
                            trainer
                                .fairds
                                .prepare_retrain(&x)
                                .train(&embed_cfg(), &TrainControl::new())
                                .expect("uncancelled"),
                        ),
                        retrain: true,
                    },
                };
                if ending == Fenced {
                    // The plane moves on under the finished job.
                    trainer.fairds.train_system(&x, &embed_cfg());
                    shared.publish(&trainer);
                }
                let (reply_tx, reply_rx) = bounded(1);
                let waiter = matches!(lane, Lane::Update).then(|| Waiter {
                    reply: reply_tx,
                    started: Instant::now(),
                    op: Request::UpdateModel { images: x, scan: 1 }.op_index(),
                });

                let before = (shared.metrics.snapshot(), shared.load());
                let done = Completion {
                    slot: Some((lane, own)),
                    waiter,
                    outcome,
                };
                let fatal = exec.complete(&mut trainer, &shared, done);
                let after = (shared.metrics.snapshot(), shared.load());

                let want = expected(lane, ending);
                let reply = reply_rx.try_recv().ok().map(|r| match r {
                    Ok(Reply::Updated { report, .. }) => {
                        assert_eq!(report.registered_id, 0, "{row}");
                        "Updated"
                    }
                    Err(ServiceError::Superseded) => "Superseded",
                    Err(ServiceError::Unavailable) => "Unavailable",
                    other => panic!("{row}: unexpected reply {other:?}"),
                });
                let waited = matches!(lane, Lane::Update).then_some(want.reply);
                assert_eq!(reply, waited, "{row}: reply");
                let counters = |m: &crate::metrics::MetricsSnapshot| {
                    [
                        m.training_jobs_completed,
                        m.training_jobs_superseded,
                        m.system_retrains,
                        m.retrain_docs_copied,
                        m.retrain_docs_delta_embedded,
                    ]
                };
                let (was, is) = (counters(&before.0), counters(&after.0));
                let delta: Vec<u64> = is.iter().zip(was).map(|(a, b)| a - b).collect();
                assert_eq!(delta, want.counters, "{row}: counters");
                assert_eq!(fatal, want.poisoned, "{row}: fatal");
                let poisoned = shared.poisoned.load(Ordering::Acquire);
                assert_eq!(poisoned, want.poisoned, "{row}: poison flag");
                let version = |v: &ServiceView| v.system.as_ref().map(|s| s.version());
                let moved = version(&after.1) != version(&before.1);
                assert_eq!(moved, want.version_moved, "{row}: published plane version");
                let grew = after.1.zoo.len() - before.1.zoo.len();
                assert_eq!(grew, usize::from(want.zoo_grew), "{row}: published zoo");
                // Only a displaced job leaves its lane occupied — by the
                // newer job, which is still training.
                let left = exec.in_flight[lane as usize].as_ref();
                let left = left.map(|t| Arc::ptr_eq(&t.flag(), &newer.flag()));
                assert_eq!(left, displaced.then_some(true), "{row}: lane slot");
            }
        }
    }
}
