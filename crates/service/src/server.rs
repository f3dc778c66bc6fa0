//! The fairDMS server: a split user plane *and* a split write plane.
//!
//! The service state is divided along the read/write axis (DESIGN.md §6)
//! and, within the write side, along the cheap/heavy axis (DESIGN.md §7):
//!
//! * **Mutation actor** — an actor-style event loop on one thread owning
//!   the mutable state (the [`RapidTrainer`]: trainable fairDS and live
//!   model Zoo). All mutating requests (`TrainSystem`, `IngestLabeled`,
//!   `UpdateModel`, `PublishModel`) serialize through it over a bounded
//!   channel — no shared mutable state, no lock ordering; the channel *is*
//!   the synchronization. The actor keeps only O(ms) work: ingest, zoo
//!   publication, snapshot swaps, and the *bookends* of training. It never
//!   calls the fallback labeler.
//! * **Training executor** — a background [`JobPool`] owning the heavy
//!   work: `UpdateModel`'s label stage and multi-epoch fine-tune, and
//!   certainty-triggered system retrains, each completed on the actor by
//!   the one fenced-job protocol of `training.rs` (fence on the plane
//!   version, then apply + publish).
//! * **Read plane** — every read-only request (`DatasetPdf`,
//!   `PseudoLabel`, `LookupMatching`, `Recommend`, `FetchModel`,
//!   `Certainty`, `Metrics`) is answered *on the thread that asked* — an
//!   in-process caller's own thread, or a connection's reader thread —
//!   from an immutable [`ServiceView`] snapshot
//!   (frozen embedder + k-means + Zoo index) fetched per request as an
//!   `Arc` clone under a shared read lock — the same `RwLock<Arc<_>>` the
//!   read index publishes through; a `PseudoLabel` calls the tenant's
//!   shared labeler there for the frames no stored label is near. There
//!   is no read queue and no read worker: readers never touch the actor —
//!   and with the training executor, neither does a training run, so ingest
//!   keeps flowing *while* a model fine-tunes, exactly as the paper's
//!   trainer reads MongoDB directly while the service handles updates
//!   (fairDMS §III; the FAIR-HEDM follow-up runs fine-tuning as
//!   asynchronous checkpointed jobs against the registry).
//!
//! Every publication is still publish-before-acknowledge: the actor
//! freezes the post-mutation state into the read plane — one `Arc`
//! pointer store under the view's write lock — before the owning client
//! sees its reply, so a client that hears an ack can immediately read
//! the state the ack describes.

use crate::api::{
    DmsApi, RankedModels, Reply, Request, ServiceError, ServiceResult, MAX_EMBED_EPOCHS,
    MAX_LOOKUP_COUNT,
};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::training::{Lane, Outcome, TrainingExec, Waiter};
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use fairdms_core::embedding::EmbedTrainConfig;
use fairdms_core::fairds::SystemSnapshot;
use fairdms_core::fairms::{ModelManager, ZooSnapshot};
use fairdms_core::workflow::RapidTrainer;
use fairdms_core::ZooEntry;
use fairdms_flows::jobs::{JobPool, TenantId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A label fallback installed server-side (the expensive conventional
/// labeler, e.g. a pseudo-Voigt fit). One per tenant, shared: it is called
/// from any thread at once — by every `PseudoLabel` read, on the reader's
/// thread, and by every `UpdateModel`'s training job, on the executor —
/// and never by the mutation actor.
pub type FallbackLabeler = Box<dyn Fn(&[f32]) -> Vec<f32> + Send + Sync>;

/// Server deployment knobs.
#[derive(Clone, Debug)]
pub struct DmsServerConfig {
    /// Admission queue depth of the mutation actor; `try_send` beyond this
    /// blocks the client (backpressure instead of unbounded memory growth).
    pub queue_capacity: usize,
    /// Whether the certainty monitor may trigger system-plane retraining.
    /// It watches `IngestLabeled` and `UpdateModel` batches, never reads.
    pub auto_retrain: bool,
    /// Embedding hyper-parameters for triggered retrains.
    pub retrain_embed_cfg: EmbedTrainConfig,
    /// Not read by the service: the training pool is shared by every
    /// tenant and sized by the argument of
    /// [`crate::multi::MultiDms::builder`]. Kept because the end-to-end
    /// benchmark's adapter (`benches/e2e/src/sut.rs`) passes its default
    /// there.
    pub training_pool_size: usize,
    /// Maximum training jobs queued (admitted but not yet picked up by an
    /// executor worker) for this deployment's tenant before new training
    /// triggers answer [`ServiceError::Busy`] — bounded, observable
    /// admission instead of unbounded queue growth (DESIGN.md §14). The
    /// gauge is `training_jobs_queued` in the metrics snapshot.
    pub training_queue_capacity: usize,
}

impl Default for DmsServerConfig {
    fn default() -> Self {
        DmsServerConfig {
            queue_capacity: 64,
            auto_retrain: true,
            retrain_embed_cfg: EmbedTrainConfig::default(),
            training_pool_size: 1,
            training_queue_capacity: 64,
        }
    }
}

/// The immutable state one read request is served from.
///
/// No method on this type (or anything it holds) takes `&mut self`;
/// publication replaces the whole view (`Shared::publish`).
pub struct ServiceView {
    /// Fitted fairDS system plane (`None` before `TrainSystem`).
    pub system: Option<Arc<SystemSnapshot>>,
    /// Frozen Zoo index.
    pub zoo: ZooSnapshot,
    /// Recommendation policy frozen alongside the index; its threshold was
    /// validated when the manager was built, so `Recommend` never
    /// re-checks it.
    pub manager: ModelManager,
}

impl ServiceView {
    fn of(trainer: &RapidTrainer) -> Self {
        ServiceView {
            system: trainer.fairds.snapshot(),
            zoo: trainer.zoo.snapshot(),
            manager: trainer.manager,
        }
    }
}

pub(crate) struct Shared {
    /// Replaced only by [`Shared::publish`] (repolint `one-publish`);
    /// read only through [`Shared::load`].
    view: RwLock<Arc<ServiceView>>,
    pub(crate) metrics: Arc<Metrics>,
    /// Set when the actor dies by panic or a read handler panics: the
    /// state can no longer be trusted or maintained, so the whole service
    /// reports `Unavailable` rather than serving reads from it.
    pub(crate) poisoned: AtomicBool,
    /// Set (Release) when the [`ServerHandle`] begins shutdown; reads load
    /// it (Acquire) and answer `Unavailable` from then on, the read-side
    /// counterpart of the actor's disconnected admission channel.
    shut_down: AtomicBool,
    /// The tenant's conventional labeler.
    labeler: FallbackLabeler,
    /// The trainer's `label_threshold`, read at spawn: the threshold a
    /// `PseudoLabel` at NaN uses. The actor never changes it.
    label_threshold: f32,
}

impl Shared {
    pub(crate) fn new(
        trainer: &RapidTrainer,
        labeler: FallbackLabeler,
        metrics: Arc<Metrics>,
    ) -> Self {
        Shared {
            view: RwLock::new(Arc::new(ServiceView::of(trainer))),
            metrics,
            poisoned: AtomicBool::new(false),
            shut_down: AtomicBool::new(false),
            labeler,
            label_threshold: trainer.config().label_threshold,
        }
    }

    /// Freezes the trainer's post-mutation state into the read plane — the
    /// one place a [`ServiceView`] is published. Callers publish *before*
    /// they acknowledge, so a client that hears an ack (e.g. `Updated`)
    /// can immediately read the state the ack describes.
    ///
    /// The view is built before the write guard is taken and the replaced
    /// one is dropped after it is released, so the guard covers one
    /// pointer store and no reader queues behind a view's destructor.
    pub(crate) fn publish(&self, trainer: &RapidTrainer) {
        let fresh = Arc::new(ServiceView::of(trainer));
        let replaced = std::mem::replace(&mut *self.view.write(), fresh);
        drop(replaced);
    }

    /// The current view. The read guard covers only the `Arc` clone and
    /// drops on return, so no publication waits for a read in progress.
    pub(crate) fn load(&self) -> Arc<ServiceView> {
        self.view.read().clone()
    }
}

pub(crate) struct Envelope {
    req: Request,
    reply: Sender<ServiceResult>,
    /// When the client started admission; `dequeue − enqueued` is the
    /// queue-wait metric (includes any backpressure block).
    enqueued: Instant,
}

pub(crate) enum Msg {
    Req(Envelope),
    /// Best-effort nudge from a training worker: a completion is waiting
    /// on the executor's done channel. Carries nothing — the actor drains
    /// completions at every iteration anyway; the wake only matters when
    /// the actor is blocked on an empty request queue.
    Wake,
    Shutdown,
}

/// Clone-able client handle. Every call is synchronous: a read-only
/// request is answered on the calling thread from the published snapshot;
/// a mutating one is enqueued on the actor and blocks on the one-shot
/// reply. The typed helpers come from [`DmsApi`].
#[derive(Clone)]
pub struct DmsClient {
    write_tx: Sender<Msg>,
    shared: Arc<Shared>,
}

/// Join handle owning one tenant's actor: the actor runs until this handle
/// is dropped or [`ServerHandle::shutdown`] is called, which
/// [`crate::multi::MultiDms::shutdown`] does for every tenant. The handle
/// stops admitting reads, then enqueues the shutdown message behind
/// whatever writes are already queued, so those drain before the actor
/// exits, and clients still alive observe [`ServiceError::Unavailable`]
/// from then on. Dropping every [`DmsClient`] clone does *not* stop the
/// actor — the handle keeps the admission channel open so it can always
/// deliver its shutdown signal.
pub(crate) struct ServerHandle {
    actor: Option<JoinHandle<()>>,
    write_tx: Sender<Msg>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Signals shutdown, drains queued requests, and joins the actor.
    pub(crate) fn shutdown(self) {
        drop(self) // Drop does the work; this method exists for intent.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shut_down.store(true, Ordering::Release);
        // The send fails harmlessly when the actor is already gone (panic).
        let _ = self.write_tx.send(Msg::Shutdown);
        if let Some(a) = self.actor.take() {
            let _ = a.join();
        }
    }
}

/// Spawns one tenant's deployment — its actor, snapshot cell and metrics
/// registry — submitting its training work to the shared `pool` under
/// `tenant`, and returns a client plus the join handle. The one
/// constructor behind [`crate::multi::MultiDmsBuilder::spawn`], which sizes
/// the pool and sets the tenant's queue capacity on it first.
///
/// The `trainer` carries the fairDS instance (trained or not), the Zoo,
/// and the recommendation policy; `labeler` is the conventional
/// (expensive) labeling fallback.
pub(crate) fn spawn_tenant(
    trainer: RapidTrainer,
    labeler: FallbackLabeler,
    cfg: DmsServerConfig,
    pool: Arc<JobPool>,
    tenant: TenantId,
) -> (DmsClient, ServerHandle) {
    let (write_tx, write_rx) = bounded::<Msg>(cfg.queue_capacity);
    let metrics = Arc::new(Metrics::new());
    metrics.attach_embed_cache(Arc::clone(trainer.fairds.embed_cache_counters()));
    metrics.attach_read_index(Arc::clone(trainer.fairds.read_index_counters()));
    // Weak: the registry must not keep pool workers alive past the
    // owner's shutdown; the gauge just reads 0 afterwards.
    metrics.attach_training_pool(Arc::downgrade(&pool), tenant);
    let shared = Arc::new(Shared::new(&trainer, labeler, metrics));

    let actor_shared = Arc::clone(&shared);
    let exec = TrainingExec::new(pool, tenant, write_tx.clone());
    let actor = std::thread::Builder::new()
        .name("fairdms-actor".into())
        .spawn(move || actor_loop(trainer, cfg, exec, write_rx, actor_shared))
        .expect("failed to spawn fairdms-actor thread");

    let client = DmsClient {
        write_tx: write_tx.clone(),
        shared: Arc::clone(&shared),
    };
    (
        client,
        ServerHandle {
            actor: Some(actor),
            write_tx,
            shared,
        },
    )
}

/// Admission: the one check of what a request's payload *is*, run by both
/// planes before their handler — reads with the snapshot's embedder width
/// (`None` before `TrainSystem`), writes with the builder's. Shapes, like
/// counts, are input: unchecked, a mismatched batch panics deep inside a
/// forward pass or a row slice, and a panic on the actor poisons the whole
/// service. One bad client batch must cost one `Invalid` reply, not the
/// deployment.
///
/// Errors keep the order each operation answers them in: the images' rank
/// and rows, their width, the operation's fewest rows, `NotReady`, the
/// labels.
/// `stored_label_width` is asked only for a batch that passed all of that.
fn admit(
    req: &Request,
    width: Option<usize>,
    ready: bool,
    stored_label_width: impl FnOnce() -> Option<usize>,
) -> Result<(), ServiceError> {
    let invalid = |msg: String| Err(ServiceError::Invalid(msg));
    let (images, labels) = match req {
        Request::IngestLabeled { images, labels, .. } => (images, Some(labels)),
        Request::TrainSystem { images, .. }
        | Request::DatasetPdf { images }
        | Request::PseudoLabel { images, .. }
        | Request::UpdateModel { images, .. }
        | Request::Certainty { images } => (images, None),
        // Full mass validation, not just non-emptiness: ranking and
        // registration normalize the PDF (`ModelZoo::add`, `jsd`),
        // whose input assertions would otherwise unwind the handler.
        Request::Recommend { pdf, .. } | Request::PublishModel { pdf, .. } => {
            if !fairdms_core::jsd::is_valid_pdf_mass(pdf) {
                return invalid(
                    "pdf must be non-empty, finite, non-negative mass with a positive sum".into(),
                );
            }
            return Ok(());
        }
        Request::LookupMatching { .. } | Request::FetchModel { .. } | Request::Metrics => {
            return Ok(())
        }
    };
    let (rows, cols) = match *images.shape() {
        [rows, cols] if rows > 0 => (rows, cols),
        _ => {
            return invalid(format!(
                "expected non-empty [N, D] images, got shape {:?}",
                images.shape()
            ))
        }
    };
    if let Some(want) = width.filter(|&want| want != cols) {
        return invalid(format!("expected {want} features per image, got {cols}"));
    }
    // The system plane is not fitted on fewer than four rows
    // (`RetrainJob::train` asserts it) and the update's train/validation
    // split needs two; a shorter batch would panic the actor.
    let min_rows = match req {
        Request::TrainSystem { .. } => 4,
        Request::UpdateModel { .. } => 2,
        _ => 1,
    };
    if rows < min_rows {
        return invalid(format!(
            "{} needs at least {min_rows} samples, got {rows}",
            req.op_name()
        ));
    }
    if let Request::TrainSystem { embed_cfg: c, .. } = req {
        // The optimizer, the NT-Xent loss and the BYOL target update assert
        // these ranges, on the actor; an epoch count is how long the actor
        // is held. A NaN fails every comparison below.
        let positive = |v: f32| v.is_finite() && v > 0.0;
        if !positive(c.lr) {
            return invalid(format!("lr {} is not finite and positive", c.lr));
        }
        if !positive(c.temperature) {
            return invalid(format!(
                "temperature {} is not finite and positive",
                c.temperature
            ));
        }
        if !(0.0..=1.0).contains(&c.tau) {
            return invalid(format!("tau {} is outside [0, 1]", c.tau));
        }
        if c.batch_size == 0 {
            return invalid("batch_size must be at least 1".into());
        }
        if c.epochs > MAX_EMBED_EPOCHS {
            return invalid(format!(
                "{} epochs above the {MAX_EMBED_EPOCHS}-epoch limit of one bootstrap",
                c.epochs
            ));
        }
        return Ok(());
    }
    if !ready {
        return Err(ServiceError::NotReady);
    }
    let Some(labels) = labels else { return Ok(()) };
    // One leading row per image, at least one value in each (`[N]` is
    // width 1, as `Tensor::row_size` reads it), and the width the store's
    // labels already have: `pseudo_label` reuses stored labels beside
    // fresh ones in one `[N, L]` matrix.
    if labels.shape().first() != Some(&rows) {
        return invalid(format!(
            "labels of shape {:?} do not have one row per image ({rows})",
            labels.shape()
        ));
    }
    let label_width = labels.numel() / rows;
    if label_width == 0 {
        return invalid(format!(
            "labels of shape {:?} hold no value per row",
            labels.shape()
        ));
    }
    match stored_label_width() {
        Some(stored) if stored != label_width => invalid(format!(
            "labels are {label_width} wide, the store's are {stored}"
        )),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Read plane
// ---------------------------------------------------------------------

/// Serves one read-only request from an immutable view. Never blocks on
/// the actor; every code path here takes `&self` on snapshot state and on
/// the tenant's shared labeler.
fn handle_read(view: &ServiceView, shared: &Shared, req: Request) -> ServiceResult {
    let width = view.system.as_ref().map(|sys| sys.embedder().input_dim());
    admit(&req, width, width.is_some(), || None)?;
    match req {
        Request::DatasetPdf { images } => {
            let sys = view.system.as_ref().ok_or(ServiceError::NotReady)?;
            Ok(Reply::Pdf(sys.dataset_pdf(&images)))
        }
        Request::PseudoLabel { images, threshold } => {
            let sys = view.system.as_ref().ok_or(ServiceError::NotReady)?;
            // NaN is the one "use the default" sentinel; ±∞ are thresholds.
            let threshold = if threshold.is_nan() {
                shared.label_threshold
            } else {
                threshold
            };
            let (labels, stats) = sys.pseudo_label(&images, threshold, &shared.labeler);
            Ok(Reply::Labeled { labels, stats })
        }
        Request::LookupMatching { pdf, count } => {
            let sys = view.system.as_ref().ok_or(ServiceError::NotReady)?;
            if pdf.len() != sys.k() {
                return Err(ServiceError::Invalid(format!(
                    "pdf length {} != k {}",
                    pdf.len(),
                    sys.k()
                )));
            }
            // Bounded where it enters: a loop bound and a reply size.
            if count > MAX_LOOKUP_COUNT {
                return Err(ServiceError::Invalid(format!(
                    "count {count} above the {MAX_LOOKUP_COUNT}-document limit of one lookup"
                )));
            }
            Ok(Reply::Documents(sys.lookup_matching(&pdf, count)))
        }
        Request::Certainty { images } => {
            let sys = view.system.as_ref().ok_or(ServiceError::NotReady)?;
            Ok(Reply::Certainty(sys.certainty(&images)))
        }
        Request::Recommend { pdf, top_k } => {
            if top_k == Some(0) {
                return Err(ServiceError::Invalid("top_k must be at least 1".into()));
            }
            let ranked = view
                .zoo
                .rank_top_k(&pdf, top_k.unwrap_or(usize::MAX))
                .map(|r| r.ranked)
                .unwrap_or_default();
            // One ranking pass decides both fields: the threshold is the
            // manager's, applied to the ascending head.
            let fine_tunable = view
                .manager
                .within_threshold(ranked.first().copied())
                .is_some();
            Ok(Reply::Ranked(RankedModels {
                ranked,
                fine_tunable,
            }))
        }
        Request::FetchModel { zoo_id } => match view.zoo.get(zoo_id) {
            Some(entry) => Ok(Reply::Model {
                checkpoint: entry.checkpoint.clone(),
                pdf: entry.train_pdf.clone(),
            }),
            None => Err(ServiceError::UnknownModel(zoo_id)),
        },
        Request::Metrics => Ok(Reply::Metrics(shared.metrics.snapshot())),
        other => unreachable!(
            "mutating request {:?} routed to the read plane",
            other.op_name()
        ),
    }
}

// ---------------------------------------------------------------------
// Write plane
// ---------------------------------------------------------------------

/// Marks the service poisoned if the actor unwinds (a store or zoo panic),
/// so reads fail fast instead of serving an unmaintained state.
pub(crate) struct PoisonOnPanic(pub(crate) Arc<Shared>);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

fn actor_loop(
    mut trainer: RapidTrainer,
    cfg: DmsServerConfig,
    mut exec: TrainingExec,
    rx: Receiver<Msg>,
    shared: Arc<Shared>,
) {
    while let Ok(msg) = rx.recv() {
        // Completions first: a job that already finished must publish (or
        // be fenced) before any queued request is allowed to supersede it
        // retroactively, and its waiting client unblocks soonest. The
        // drain also runs on `Wake`, the training workers' nudge for an
        // otherwise idle actor.
        if exec.drain(&mut trainer, &shared) {
            // A training job panicked: the same contract as a panic on
            // this thread — the service is poisoned and the write
            // plane stops, loudly.
            break;
        }
        let env = match msg {
            Msg::Req(env) => env,
            Msg::Wake => continue,
            Msg::Shutdown => break,
        };
        // Panic-poisoning order is handled inside `handle_write` and
        // `TrainingExec::complete`: each declares its guard after the reply
        // sender, so the poison flag is set before that sender disconnects.
        handle_write(&mut trainer, &cfg, env, &shared, &mut exec);
    }
    exec.shutdown();
}

/// Handles one mutating request on the actor. Every path either answers
/// the request's [`Waiter`] (run time recorded, reply sent) or hands it to
/// a training job, whose fenced completion answers it.
fn handle_write(
    trainer: &mut RapidTrainer,
    cfg: &DmsServerConfig,
    env: Envelope,
    shared: &Arc<Shared>,
    exec: &mut TrainingExec,
) {
    let (op, started) = (env.req.op_index(), Instant::now());
    let queue_wait = started.saturating_duration_since(env.enqueued);
    shared.metrics.queue_at(op).record(queue_wait, true);
    let Envelope { req, reply, .. } = env;
    let waiter = Waiter { reply, started, op };
    // Declared *after* `waiter`, so during a panic unwind it drops (and
    // sets the poison flag) *before* the reply sender disconnects: by the
    // time the panicking request surfaces as `Unavailable` at its client,
    // no follow-up read can slip through un-poisoned. Disarmed on normal
    // return (`Drop` only acts while panicking).
    let _poison = PoisonOnPanic(Arc::clone(shared));
    debug_assert!(
        !req.is_read_only(),
        "read op {} on the actor",
        req.op_name()
    );
    let (width, ready) = (trainer.fairds.input_dim(), trainer.fairds.is_ready());
    if let Err(e) = admit(&req, Some(width), ready, || trainer.fairds.label_width()) {
        return waiter.answer(&shared.metrics, Err(e));
    }
    let result: ServiceResult = match req {
        Request::TrainSystem { images, embed_cfg } => {
            // A manual (re)bootstrap replaces the plane that any
            // in-flight training job trained from; the version fence
            // would reject both kinds at completion anyway — cancel them
            // now instead of letting them burn executor time (and, on a
            // single-worker pool, block newly submitted jobs) on the way
            // to a deterministic rejection. The update's client answers
            // `Superseded`, exactly as it would have at the fence.
            exec.supersede(Lane::Retrain, &shared.metrics);
            exec.supersede(Lane::Update, &shared.metrics);
            let job = trainer.fairds.prepare_bootstrap(&images);
            return exec.complete_inline(trainer, shared, job, &embed_cfg, Some(waiter), false);
        }
        Request::IngestLabeled {
            images,
            labels,
            scan,
        } => {
            let retrained = exec.monitor(trainer, cfg, &images, shared, false);
            // No republish: a triggered retrain publishes at install, and
            // store writes are visible to readers through the shared
            // collection.
            let ids = trainer.fairds.ingest_labeled(&images, &labels, scan);
            Ok(Reply::Ingested {
                count: ids.len(),
                retrained,
            })
        }
        Request::UpdateModel { images, scan } => {
            if !exec.has_queue_capacity() {
                // Bounded admission (DESIGN.md §14): answer `Busy` before
                // the inline monitor, the O(ms) bookend work, and — most
                // importantly — before superseding: a flood answered
                // `Busy` must not cancel the legitimately in-flight
                // update. The client retries after backoff.
                return waiter.answer(&shared.metrics, Err(ServiceError::Busy));
            }
            // The monitor runs *inline* for updates (see
            // `TrainingExec::monitor`).
            exec.monitor(trainer, cfg, &images, shared, true);
            shared
                .metrics
                .training_jobs_started
                .fetch_add(1, Ordering::Relaxed);
            // The actor does only the O(ms) bookend: PDF + decision +
            // foundation resolution. The label stage and the epoch loop
            // run on the executor; a newer UpdateModel supersedes this one.
            let job = trainer.prepare_update(&images, scan);
            exec.supersede(Lane::Update, &shared.metrics);
            let shared = Arc::clone(shared);
            exec.submit(Lane::Update, Some(waiter), move |ctl| {
                let trained = job.train(&shared.labeler, ctl)?;
                Some(Outcome::Update(Box::new(trained)))
            });
            return;
        }
        Request::PublishModel {
            name,
            checkpoint,
            pdf,
            scan,
        } => {
            // The bytes are not opened here: the zoo stores what was
            // published, and a checkpoint that does not load is simply
            // never a foundation (`ZooSnapshot::instantiate`).
            let arch = trainer.config().arch;
            let zoo_id = trainer.zoo.add(ZooEntry {
                name,
                arch,
                checkpoint,
                train_pdf: pdf,
                scan,
            });
            shared.publish(trainer);
            Ok(Reply::Published { zoo_id })
        }
        other => unreachable!("read request {:?} routed to the actor", other.op_name()),
    };
    waiter.answer(&shared.metrics, result)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

impl DmsClient {
    /// Sends a raw request and waits for the reply: reads are answered on
    /// this thread from the snapshot, mutating requests by the actor.
    /// Returns [`ServiceError::Unavailable`] when the server is gone.
    pub fn call(&self, req: Request) -> ServiceResult {
        if req.is_read_only() {
            return self.serve_read(req);
        }
        self.dispatch(req)?
            .recv()
            .map_err(|_| ServiceError::Unavailable)?
    }

    /// Enqueues a mutating request on the actor and returns the one-shot
    /// reply receiver without waiting for completion — the wire plane's
    /// pipelining primitive (DESIGN.md §13): a connection's reader thread
    /// dispatches decoded requests as fast as they arrive while its reply
    /// sequencer awaits the receivers in admission order. Admission still
    /// applies backpressure: a full actor queue blocks this call until the
    /// request is accepted (counted in `backpressure_waits`), which is
    /// what propagates server overload back onto the socket.
    pub(crate) fn dispatch(&self, req: Request) -> Result<Receiver<ServiceResult>, ServiceError> {
        debug_assert!(!req.is_read_only(), "reads go through serve_read");
        let (reply_tx, reply_rx) = bounded(1);
        let env = Msg::Req(Envelope {
            req,
            reply: reply_tx,
            // Queue wait is measured from here, so a backpressure block in
            // `send` below is (correctly) attributed to the queue.
            enqueued: Instant::now(),
        });
        let metrics = &self.shared.metrics;
        match self.write_tx.try_send(env) {
            Ok(()) => {}
            Err(TrySendError::Full(env)) => {
                // Backpressure: block rather than reject when the queue is
                // merely full; reject only on disconnect. The block is
                // healthy flow control (`backpressure_waits`, counted only
                // once the blocked request is actually admitted); a failed
                // admission counts solely as `rejected`.
                if self.write_tx.send(env).is_err() {
                    metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::Unavailable);
                }
                metrics.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => {
                metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Unavailable);
            }
        }
        Ok(reply_rx)
    }

    /// Serves a read-only request *on the calling thread* against the
    /// current snapshot — the one read route, for in-process callers and
    /// connection reader threads alike (DESIGN.md §6, §13). There is no
    /// queue, so a read records its run time only. A handler that panics
    /// (a user `Embedder::embed` or fallback labeler, say) is caught here:
    /// the deployment is poisoned and *this* request answers
    /// `Unavailable`, but the calling thread — which may be a connection
    /// reader pipelining other tenants' requests — is not unwound.
    pub(crate) fn serve_read(&self, req: Request) -> ServiceResult {
        debug_assert!(req.is_read_only(), "writes go through dispatch");
        let shared = &*self.shared;
        if shared.shut_down.load(Ordering::Acquire) {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Unavailable);
        }
        let op = req.op_index();
        let start = Instant::now();
        let result = if shared.poisoned.load(Ordering::Acquire) {
            Err(ServiceError::Unavailable)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_read(&shared.load(), shared, req)
            }))
            .unwrap_or_else(|_| {
                shared.poisoned.store(true, Ordering::Release);
                Err(ServiceError::Unavailable)
            })
        };
        shared
            .metrics
            .op_at(op)
            .record(start.elapsed(), result.is_ok());
        result
    }

    /// The shared metrics registry. Crate-internal: the wire plane
    /// ([`crate::net`]) attaches its connection/frame counters here when a
    /// listener is spawned over this client.
    pub(crate) fn metrics_registry(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The currently-published read-plane view (None for `system` before
    /// training). Exposed for diagnostics and tests; the snapshot is
    /// immutable, so holding it never blocks the server.
    pub fn current_view(&self) -> Arc<ServiceView> {
        self.shared.load()
    }
}

impl DmsApi for DmsClient {
    fn call(&self, req: Request) -> ServiceResult {
        DmsClient::call(self, req)
    }

    /// Taken directly from the lock-free registry instead of
    /// `call(Request::Metrics)`: an operator's view must keep working
    /// after the deployment is poisoned or shut down, and must not count
    /// itself as a served `metrics` op.
    fn metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        Ok(self.shared.metrics.snapshot())
    }
}
