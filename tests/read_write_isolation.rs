//! Read/write isolation of the split user plane (DESIGN.md §6).
//!
//! Four properties the split exists to provide:
//!
//! 1. **Reads do not queue behind training.** `DatasetPdf`,
//!    `LookupMatching`, and `Recommend` complete while a slow
//!    `UpdateModel` run holds the actor thread.
//! 2. **Snapshot turnover is atomic.** After a certainty-triggered
//!    retrain, readers observe the *new* published snapshot (version
//!    advanced, consistent K), and concurrent readers never observe a
//!    torn view mid-publication.
//! 3. **Publication never waits for a read.** A reader holds the view's
//!    lock only to clone the `Arc`, so a read parked inside its handler
//!    holds up no publication, and a publication storm never shows a
//!    reader a view older than one it has already seen.
//! 4. **No write waits for the fallback labeler.** A `PseudoLabel` is a
//!    read, answered on its caller's thread, and an `UpdateModel` labels
//!    on its training job: a labeler parked in either holds up no write
//!    and no other read.

use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig, Embedder};
use fairdms_core::fairds::{FairDS, FairDsConfig};
use fairdms_core::fairms::ModelManager;
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig};
use fairdms_nn::trainer::TrainControl;
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::server::{DmsClient, DmsServerConfig, FallbackLabeler};
use fairdms_service::DmsApi;
use fairdms_tensor::rng::TensorRng;
use fairdms_tensor::Tensor;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

const SIDE: usize = 8;

fn blob_images(per_mode: usize, n_modes: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seeded(seed);
    let centers = [(2.0f32, 2.0f32), (5.0, 5.0), (2.0, 5.0), (5.0, 2.0)];
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for m in 0..n_modes {
        let (cy, cx) = centers[m % centers.len()];
        for _ in 0..per_mode {
            for y in 0..SIDE {
                for x in 0..SIDE {
                    let r2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    data.push(8.0 * (-r2 / 2.0).exp() + rng.next_normal_with(0.0, 0.1));
                }
            }
            labels.push(cx / SIDE as f32);
            labels.push(cy / SIDE as f32);
        }
    }
    (
        Tensor::from_vec(data, &[per_mode * n_modes, SIDE * SIDE]),
        Tensor::from_vec(labels, &[per_mode * n_modes, 2]),
    )
}

fn embed_cfg() -> EmbedTrainConfig {
    EmbedTrainConfig {
        epochs: 5,
        batch_size: 16,
        lr: 2e-3,
        ..EmbedTrainConfig::default()
    }
}

fn spawn_server(
    seed: u64,
    k: usize,
    auto_retrain: bool,
    train_epochs: usize,
) -> (DmsClient, MultiDms) {
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, seed);
    spawn_over(Box::new(embedder), seed, k, auto_retrain, train_epochs)
}

fn spawn_over(
    embedder: Box<dyn Embedder>,
    seed: u64,
    k: usize,
    auto_retrain: bool,
    train_epochs: usize,
) -> (DmsClient, MultiDms) {
    let trainer = trainer_over(embedder, seed, k, train_epochs);
    deploy(trainer, auto_retrain, Box::new(|_| vec![0.5, 0.5]))
}

fn trainer_over(
    embedder: Box<dyn Embedder>,
    seed: u64,
    k: usize,
    train_epochs: usize,
) -> RapidTrainer {
    let fairds = FairDS::in_memory(
        embedder,
        FairDsConfig {
            k: Some(k),
            ..FairDsConfig::default()
        },
    );
    let mut tcfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
    tcfg.train.epochs = train_epochs;
    tcfg.train.batch_size = 16;
    tcfg.seed = seed;
    RapidTrainer::new(fairds, ModelManager::new(0.9), tcfg)
}

/// A one-tenant deployment (tenant 0) and that tenant's in-process client.
fn deploy(
    trainer: RapidTrainer,
    auto_retrain: bool,
    labeler: FallbackLabeler,
) -> (DmsClient, MultiDms) {
    let cfg = DmsServerConfig {
        auto_retrain,
        retrain_embed_cfg: embed_cfg(),
        ..DmsServerConfig::default()
    };
    let dms = MultiDms::builder(1)
        .tenant(TenantSpec { id: 0, config: cfg }, trainer, labeler)
        .spawn();
    (dms.client(0).expect("tenant 0").clone(), dms)
}

#[test]
fn reads_complete_while_update_model_is_in_flight() {
    // Long training budget so UpdateModel occupies the actor for a while.
    let (client, handle) = spawn_server(0, 2, false, 40);
    let (x, y) = blob_images(30, 2, 1);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y, 0).unwrap();

    let update_done = Arc::new(AtomicBool::new(false));
    let updater = {
        let client = client.clone();
        let done = Arc::clone(&update_done);
        let (x_new, _) = blob_images(40, 2, 2);
        thread::spawn(move || {
            let started = Instant::now();
            client.update_model(x_new, 1).unwrap();
            let took = started.elapsed();
            done.store(true, Ordering::Release);
            took
        })
    };

    // Hammer the read plane while the update occupies the actor. Every
    // read that *starts and finishes* before the update completes proves
    // it never queued behind the actor.
    let (probe, _) = blob_images(5, 2, 3);
    let mut reads_during_update = 0usize;
    let mut slowest_read = Duration::ZERO;
    while !update_done.load(Ordering::Acquire) {
        let t0 = Instant::now();
        let pdf = client.dataset_pdf(probe.clone()).unwrap();
        let docs = client.lookup(pdf.clone(), 4).unwrap();
        let rec = client.recommend(pdf).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(docs.len(), 4);
        if !update_done.load(Ordering::Acquire) {
            // The whole round-trip ran while the actor was busy training.
            reads_during_update += 1;
            slowest_read = slowest_read.max(elapsed);
        }
        // Publish-before-acknowledge: the new model may become visible
        // moments before the updater thread processes its ack, but never
        // more than the one model this update produces.
        assert!(rec.ranked.len() <= 1, "impossible zoo contents {rec:?}");
        // Metrics snapshots bypass every queue: they must also respond
        // while the actor is busy.
        let m = client.metrics().unwrap();
        assert!(m.op("pdf").is_some());
    }
    let update_took = updater.join().unwrap();

    assert!(
        reads_during_update >= 3,
        "expected several read round-trips during a {update_took:?} update, got {reads_during_update}"
    );
    assert!(
        slowest_read < update_took,
        "a read ({slowest_read:?}) should never wait out the whole update ({update_took:?})"
    );

    // After the update is acknowledged the new zoo entry is published.
    let (probe2, _) = blob_images(5, 2, 4);
    let pdf = client.dataset_pdf(probe2).unwrap();
    let rec = client.recommend(pdf).unwrap();
    assert_eq!(rec.ranked.len(), 1, "acknowledged model must be visible");

    drop(client);
    handle.shutdown();
}

#[test]
fn certainty_triggered_retrain_publishes_a_fresh_untorn_snapshot() {
    // k >= 3 so the fuzzy-certainty monitor can actually fire.
    let (client, handle) = spawn_server(10, 3, true, 2);
    let (x, y) = blob_images(30, 3, 11);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x, y, 0).unwrap();

    let v0 = client
        .current_view()
        .system
        .as_ref()
        .expect("trained")
        .version();

    // Readers hammer the snapshot while the drifted ingest retrains.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let (probe, _) = blob_images(4, 3, 100 + t);
                let mut observed_ks = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Acquire) {
                    let pdf = client.dataset_pdf(probe.clone()).unwrap();
                    // A torn view would produce a PDF whose length matches
                    // no published clustering. K is fixed at 3 in this
                    // fixture, before and after the retrain, so every
                    // answer must be exactly that long.
                    let view = client.current_view();
                    let k_now = view.system.as_ref().unwrap().k();
                    assert_eq!(pdf.len(), k_now, "pdf of impossible length");
                    observed_ks.insert(pdf.len());
                    let c = client.certainty(probe.clone()).unwrap();
                    assert!((0.0..=1.0).contains(&c));
                }
                observed_ks
            })
        })
        .collect();

    // Drifted data: certainty collapses, the monitor fires, and the
    // retrain job lands on the background training executor. The ack
    // carries the *trigger*; installation follows asynchronously after
    // the version fence.
    let noise = TensorRng::seeded(12).uniform(&[60, SIDE * SIDE], -1.0, 1.0);
    let labels = Tensor::from_vec(vec![0.5; 120], &[60, 2]);
    let (_, retrained) = client.ingest(noise, labels, 1).unwrap();
    assert!(retrained, "drifted ingest should trigger the system plane");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let sys = client.current_view().system.clone().expect("still trained");
        if sys.version() > v0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "triggered retrain never published a fresh snapshot (version stuck at {})",
            sys.version()
        );
        thread::yield_now();
    }

    stop.store(true, Ordering::Release);
    for r in readers {
        let ks = r.join().unwrap();
        assert!(
            ks.iter().all(|&k| k == 3),
            "readers observed PDFs inconsistent with every published K: {ks:?}"
        );
    }

    let m = client.metrics().unwrap();
    assert_eq!(m.system_retrains, 1);

    drop(client);
    handle.shutdown();
}

/// A pixel value no generated frame carries.
const SENTINEL: f32 = -12345.0;

/// Parks `embed` on a two-party barrier for any batch carrying the
/// sentinel pixel: the first wait tells the test the read is inside its
/// handler, the second lets it finish. The barrier is shared, so it
/// survives the clone a published snapshot makes.
#[derive(Clone)]
struct GatedEmbedder {
    inner: AutoencoderEmbedder,
    gate: Arc<Barrier>,
}

impl Embedder for GatedEmbedder {
    fn embed_dim(&self) -> usize {
        self.inner.embed_dim()
    }
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn fit_controlled(
        &mut self,
        images: &Tensor,
        cfg: &EmbedTrainConfig,
        ctl: &TrainControl,
    ) -> bool {
        self.inner.fit_controlled(images, cfg, ctl)
    }
    fn embed(&self, images: &Tensor) -> Tensor {
        if images.data().contains(&SENTINEL) {
            self.gate.wait();
            self.gate.wait();
        }
        self.inner.embed(images)
    }
}

#[test]
fn a_publication_never_waits_for_an_in_flight_read() {
    let gate = Arc::new(Barrier::new(2));
    let embedder = GatedEmbedder {
        inner: AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 30),
        gate: Arc::clone(&gate),
    };
    let (client, handle) = spawn_over(Box::new(embedder), 30, 2, false, 2);
    let (x, _) = blob_images(20, 2, 31);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    let pdf = client.dataset_pdf(x.clone()).unwrap();
    let before = client.current_view().zoo.len();

    // A read of a fresh frame misses the embed cache and parks in `embed`,
    // inside `handle_read`, on a view it has already taken.
    let mut held = x;
    held.row_mut(0)[0] = SENTINEL;
    let reader = {
        let client = client.clone();
        thread::spawn(move || client.dataset_pdf(held))
    };
    gate.wait();

    // A publication from another clone must complete meanwhile.
    let (done, published) = mpsc::channel();
    let publisher = {
        let client = client.clone();
        thread::spawn(move || done.send(client.publish("parked", vec![7; 8], pdf, 1)))
    };
    let published = published.recv_timeout(Duration::from_secs(30));
    let after = published.is_ok().then(|| client.current_view().zoo.len());
    // Open the gate whatever happened, so the deployment can drain.
    gate.wait();
    publisher.join().unwrap().unwrap();
    assert!(
        matches!(published, Ok(Ok(_))),
        "a publication waited for an in-flight read: {published:?}"
    );
    assert_eq!(after, Some(before + 1), "the publication is not visible");
    assert_eq!(reader.join().unwrap().unwrap().len(), 2);

    drop(client);
    handle.shutdown();
}

#[test]
fn readers_never_see_the_view_go_back_under_a_publication_storm() {
    const PUBLICATIONS: usize = 200;
    let (client, handle) = spawn_server(40, 2, false, 2);
    let (x, _) = blob_images(20, 2, 41);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    let pdf = client.dataset_pdf(x).unwrap();

    const READERS: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    // The publisher starts once every reader has served a round.
    let started = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            let pdf = pdf.clone();
            thread::spawn(move || {
                let mut seen = 0;
                let mut first = true;
                loop {
                    // Stop is read first, so the last round starts after
                    // the last publication.
                    let last = stop.load(Ordering::Acquire);
                    // Every entry has a PDF of this length, so a ranking
                    // lists its whole view: no smaller than a view read
                    // before it, no larger than one read after.
                    let ranked = client.recommend(pdf.clone()).unwrap().ranked.len();
                    let now = client.current_view().zoo.len();
                    assert!(
                        seen <= ranked && ranked <= now,
                        "views out of order: {seen} then a ranking of {ranked} then {now}"
                    );
                    seen = now;
                    if first {
                        first = false;
                        started.wait();
                    }
                    if last {
                        return seen;
                    }
                }
            })
        })
        .collect();

    let publisher = {
        let client = client.clone();
        thread::spawn(move || {
            started.wait();
            (0..PUBLICATIONS)
                .map(|i| {
                    client
                        .publish(&format!("m{i}"), vec![i as u8; 8], pdf.clone(), i)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    };
    let ids = publisher.join().unwrap();
    stop.store(true, Ordering::Release);
    for r in readers {
        let seen = r.join().unwrap();
        assert_eq!(
            seen, PUBLICATIONS,
            "a reader's last view misses publications"
        );
    }

    let view = client.current_view();
    assert_eq!(view.zoo.len(), PUBLICATIONS);
    for id in ids {
        assert!(view.zoo.get(id).is_some(), "publication {id} lost");
    }

    drop(client);
    handle.shutdown();
}

/// The test's side of a gated fallback labeler (see [`gated_labeler`]).
struct LabelerGate {
    open: Arc<(Mutex<bool>, Condvar)>,
    entered: mpsc::Receiver<()>,
}

impl LabelerGate {
    /// Whether some call reached the labeler within `timeout`.
    fn entered_within(&self, timeout: Duration) -> bool {
        self.entered.recv_timeout(timeout).is_ok()
    }

    /// Lets every parked call, and every later one, through.
    fn open(&self) {
        let (open, opened) = &*self.open;
        *open.lock() = true;
        opened.notify_all();
    }
}

/// A labeler that reports every call to the returned gate, then parks
/// until the gate is open.
fn gated_labeler() -> (FallbackLabeler, LabelerGate) {
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let (enter, entered) = mpsc::channel();
    let gate = Arc::clone(&open);
    let labeler: FallbackLabeler = Box::new(move |_| {
        // The gate's side is gone only once its test has ended.
        let _ = enter.send(());
        let (open, opened) = &*gate;
        let mut is_open = open.lock();
        while !*is_open {
            opened.wait(&mut is_open);
        }
        vec![0.5, 0.5]
    });
    (labeler, LabelerGate { open, entered })
}

/// Runs `call` on its own thread: its answer, if it came within
/// `timeout`, and the thread, to join once what it may wait for is
/// released.
fn answered_within<T: Send + 'static>(
    timeout: Duration,
    call: impl FnOnce() -> T + Send + 'static,
) -> (Result<T, mpsc::RecvTimeoutError>, thread::JoinHandle<()>) {
    let (done, answer) = mpsc::channel();
    let caller = thread::spawn(move || {
        // The answer is dropped unread when it came too late.
        let _ = done.send(call());
    });
    (answer.recv_timeout(timeout), caller)
}

#[test]
fn a_pseudo_label_never_waits_for_the_actor() {
    const PATIENCE: Duration = Duration::from_secs(30);
    let (labeler, gate) = gated_labeler();
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 50);
    let trainer = trainer_over(Box::new(embedder), 50, 2, 2);
    let (client, handle) = deploy(trainer, false, labeler);
    let (x, y) = blob_images(20, 2, 51);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y.clone(), 0).unwrap();
    let pdf = client.dataset_pdf(x.clone()).unwrap();

    // Thread A: at threshold 0 no stored label is near enough, so the
    // first frame reaches the labeler and parks there.
    let parked = {
        let client = client.clone();
        let (fresh, _) = blob_images(4, 2, 52);
        thread::spawn(move || client.pseudo_label(fresh, 0.0))
    };
    assert!(
        gate.entered_within(PATIENCE),
        "the labeler was never called"
    );

    // Thread B: a write, a publication and a read of stored frames, each
    // of which reuses its own label and never reaches the labeler.
    let b = client.clone();
    let (answers, caller) = answered_within(PATIENCE, move || {
        let ingested = b.ingest(x.clone(), y, 1);
        let published = b.publish("beside", vec![1; 8], pdf, 1);
        let labeled = b.pseudo_label(x, f32::NAN);
        (ingested, published, labeled)
    });
    // Open the gate whatever happened, so the deployment can drain.
    gate.open();
    caller.join().unwrap();
    let (ingested, published, labeled) = answers.expect("a call waited for the parked labeler");
    assert_eq!(ingested.unwrap().0, 40);
    assert!(published.is_ok());
    let (_, stats) = labeled.unwrap();
    assert_eq!((stats.reused, stats.computed), (40, 0));
    let (_, stats) = parked.join().unwrap().unwrap();
    assert_eq!((stats.reused, stats.computed), (0, 8));

    drop(client);
    handle.shutdown();
}

#[test]
fn an_updates_label_stage_never_holds_the_actor() {
    const PATIENCE: Duration = Duration::from_secs(30);
    let (labeler, gate) = gated_labeler();
    let embedder = AutoencoderEmbedder::new(SIDE * SIDE, 32, 8, 60);
    let mut trainer = trainer_over(Box::new(embedder), 60, 2, 2);
    // No distance is below −1: every frame of an update misses.
    trainer.config_mut().label_threshold = -1.0;
    let (client, handle) = deploy(trainer, false, labeler);
    let (x, y) = blob_images(20, 2, 61);
    client.train_system(x.clone(), embed_cfg()).unwrap();
    client.ingest(x.clone(), y.clone(), 0).unwrap();

    let update = {
        let client = client.clone();
        let (fresh, _) = blob_images(8, 2, 62);
        thread::spawn(move || client.update_model(fresh, 1))
    };
    assert!(
        gate.entered_within(PATIENCE),
        "the labeler was never called"
    );

    let b = client.clone();
    let (ingested, caller) = answered_within(PATIENCE, move || b.ingest(x, y, 2));
    gate.open();
    caller.join().unwrap();
    let ingested = ingested.expect("an ingest waited for an update's labeler");
    assert_eq!(ingested.unwrap().0, 40);
    let (_, report) = update.join().unwrap().unwrap();
    assert_eq!(
        (report.label_stats.reused, report.label_stats.computed),
        (0, 16)
    );

    drop(client);
    handle.shutdown();
}
