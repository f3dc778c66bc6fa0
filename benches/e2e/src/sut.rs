//! The adapter: every call into the product goes through this file, so a
//! change to the product's surface is absorbed here and nowhere else.
//!
//! Every product config is built from its `Default` (or its one `new`);
//! the fields this file overrides are the sizes the workloads are defined
//! by (`k`, seeds, epoch caps) and `auto_retrain` (see [`Deployment`]).
//! Nothing here touches a path the ROADMAP's twin-path collapse retires: no
//! `training_pool_size: 0`, no `inline_reads: false`, no
//! `ReadIndexConfig::enabled: false`, no `ops::matmul_naive`, no
//! `DmsServer::spawn`, nothing from `crates/bench`.

use fairdms_clustering::{KMeans, KMeansConfig};
use fairdms_core::embedding::{AutoencoderEmbedder, EmbedTrainConfig};
use fairdms_core::fairds::{FairDS, FairDsConfig, SystemSnapshot};
use fairdms_core::fairms::{ModelManager, ZooEntry};
use fairdms_core::models::ArchSpec;
use fairdms_core::workflow::{RapidTrainer, RapidTrainerConfig, TrainStrategy};
use fairdms_datasets::bragg::{BraggSimulator, DriftModel};
use fairdms_datasets::cookiebox::CookieBoxSimulator;
use fairdms_datasets::tomo::TomoSimulator;
use fairdms_datastore::{Collection, Document, RawCodec};
use fairdms_flows::jobs::JobPool;
use fairdms_nn::loss::Mse;
use fairdms_nn::optim::Adam;
use fairdms_nn::trainer::{TrainConfig, Trainer};
use fairdms_service::multi::{MultiDms, TenantSpec};
use fairdms_service::net::codec::{decode_reply, decode_request, encode_reply, encode_request};
use fairdms_service::net::{NetServerConfig, NetServerHandle, Pending, PipelinedClient};
use fairdms_service::server::DmsServerConfig;
use fairdms_tensor::gemm::{matmul, matmul_transb_bias};
use fairdms_tensor::hash::row_hashes;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use fairdms_core::workflow::UpdateReport;
pub use fairdms_service::{MetricsSnapshot, RankedModels, Reply, Request, ServiceResult, TenantId};
pub use fairdms_tensor::Tensor;

/// Frame edge: the smallest every simulator supports.
pub const SIDE: usize = 16;
/// Flattened frame width.
pub const PIXELS: usize = SIDE * SIDE;
/// Hidden width of the autoencoder embedder (its first GEMM is
/// `[n, 256] · [512, 256]ᵀ`).
pub const HIDDEN: usize = 512;
/// Embedding width.
pub const EMBED_DIM: usize = 16;
/// Frames per read request.
pub const BATCH: usize = 16;

/// Which experiment's simulator a tenant's frames come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tomo,
    Cookiebox,
    Bragg,
}

/// `n` frames as `[n, 256]` images and `[n, 2]` regression labels, a
/// function of the arguments alone. `scan` sets the physics (the simulators
/// drift with it); `stream` picks an independent sample of that physics, so
/// callers get fresh frames without moving the distribution. Bragg patches
/// carry their peak centres; the other two get ramp targets, which is all
/// the deployment's BraggNN-shaped model needs to train on them.
pub fn frames(kind: Kind, seed: u64, scan: usize, stream: usize, n: usize) -> (Tensor, Tensor) {
    let ramp = || {
        let mut y = Vec::with_capacity(n * 2);
        for i in 0..n {
            let t = (i as f32 + 0.5) / n as f32;
            y.extend([t, 1.0 - t]);
        }
        Tensor::from_vec(y, &[n, 2])
    };
    match kind {
        Kind::Tomo => {
            // The tomo simulator indexes frames and has no scan physics.
            let sim = TomoSimulator::new(SIDE, seed);
            let first = (stream * 64 + scan) * 4096;
            let mut x = Vec::with_capacity(n * PIXELS);
            for i in 0..n {
                x.extend(sim.frame(first + i).to_f32());
            }
            (Tensor::from_vec(x, &[n, PIXELS]), ramp())
        }
        Kind::Cookiebox => {
            let sim = CookieBoxSimulator::new(SIDE, seed);
            let shots: Vec<_> = (0..n)
                .map(|i| sim.acquire(scan, stream * 65_536 + i))
                .collect();
            let (x, _) = fairdms_datasets::cookiebox::to_training_tensors(&shots);
            (x.reshape(&[n, PIXELS]), ramp())
        }
        Kind::Bragg => {
            let mut sim = BraggSimulator::new(DriftModel::paper_like(6, usize::MAX), seed);
            sim.patch_size = SIDE;
            let patches = sim.scan_shot(scan, stream as u64, n);
            let (x, y) = fairdms_datasets::bragg::to_training_tensors(&patches);
            (x.reshape(&[n, PIXELS]), y)
        }
    }
}

/// One tenant of a deployment.
#[derive(Debug, Clone, Copy)]
pub struct TenantPlan {
    pub id: TenantId,
    pub kind: Kind,
    pub seed: u64,
    /// Cluster count of the system plane.
    pub k: usize,
    /// Epochs of the embedder's bootstrap training.
    pub embed_epochs: usize,
    /// Epoch cap of one `UpdateModel`.
    pub update_epochs: usize,
    /// Early-stopping patience of one `UpdateModel` (0 = run to the cap).
    pub update_patience: usize,
}

impl TenantPlan {
    fn trainer(&self) -> RapidTrainer {
        let fairds = FairDS::in_memory(
            Box::new(AutoencoderEmbedder::new(
                PIXELS, HIDDEN, EMBED_DIM, self.seed,
            )),
            FairDsConfig {
                k: Some(self.k),
                seed: self.seed,
                ..FairDsConfig::default()
            },
        );
        let mut cfg = RapidTrainerConfig::new(ArchSpec::BraggNN { patch: SIDE }, SIDE);
        cfg.train.epochs = self.update_epochs;
        cfg.train.patience = self.update_patience;
        cfg.seed = self.seed;
        RapidTrainer::new(fairds, ModelManager::default(), cfg)
    }

    /// The bootstrap `TrainSystem` hyper-parameters.
    pub fn embed_cfg(&self) -> EmbedTrainConfig {
        EmbedTrainConfig {
            epochs: self.embed_epochs,
            seed: self.seed,
            ..EmbedTrainConfig::default()
        }
    }
}

/// A fresh checkpoint of the deployment's architecture, for `PublishModel`.
pub fn fresh_checkpoint(seed: u64) -> Vec<u8> {
    fairdms_nn::checkpoint::save(&ArchSpec::BraggNN { patch: SIDE }.build(seed))
}

/// The system under test: a `MultiDms` behind `serve_tcp` on a loopback
/// port, in this process.
///
/// All configs are the product's defaults except `auto_retrain: false`:
/// with the default fuzzifier every simulator's certainty sits at 0.4–0.65,
/// below the default 0.8 threshold, so the default monitor would refit the
/// whole system plane on every write and no two runs would do the same
/// work. Every service test in the repository makes the same choice.
pub struct Deployment {
    multi: MultiDms,
    net: NetServerHandle,
    addr: SocketAddr,
}

impl Deployment {
    pub fn spawn(plans: &[TenantPlan]) -> Deployment {
        let defaults = DmsServerConfig::default();
        let mut builder = MultiDms::builder(defaults.training_pool_size);
        for plan in plans {
            let mut spec = TenantSpec::new(plan.id);
            spec.config.auto_retrain = false;
            builder = builder.tenant(spec, plan.trainer(), Box::new(|_| vec![0.5, 0.5]));
        }
        let multi = builder.spawn();
        let net = multi
            .serve_tcp(("127.0.0.1", 0), NetServerConfig::default())
            .expect("bind a loopback listener");
        let addr = net.local_addr().expect("a TCP listener has an address");
        Deployment { multi, net, addr }
    }

    /// A new TCP connection addressing `tenant`.
    pub fn connect(&self, tenant: TenantId) -> Conn {
        Conn(PipelinedClient::connect_tcp_tenant(self.addr, tenant).expect("connect to loopback"))
    }

    /// Drains the wire plane, then every tenant and the training pool; all
    /// their threads are joined when this returns.
    pub fn shutdown(self) {
        self.net.shutdown();
        self.multi.shutdown();
    }
}

/// One client connection (or a second tenant's handle onto it).
pub struct Conn(PipelinedClient);

/// A submitted request whose reply has not been collected yet.
pub struct Ticket(Pending);

impl Conn {
    /// Sends `req` and waits for its reply.
    pub fn call(&self, req: &Request) -> ServiceResult {
        self.0.call(req)
    }

    /// Sends `req` without waiting.
    pub fn submit(&self, req: &Request) -> Ticket {
        Ticket(self.0.submit(req))
    }

    /// A handle on the same socket whose frames address `tenant`.
    pub fn for_tenant(&self, tenant: TenantId) -> Conn {
        Conn(self.0.for_tenant(tenant))
    }

    /// The tenant's metrics registry, fetched over the wire.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self.call(&Request::Metrics) {
            Ok(Reply::Metrics(m)) => m,
            other => panic!("Metrics answered {other:?}"),
        }
    }
}

impl Ticket {
    pub fn wait(self) -> ServiceResult {
        self.0.wait()
    }
}

/// `(count, total_ns)` of one op's run-time and queue-wait counters.
pub fn op_counters(m: &MetricsSnapshot, op: &str) -> [(u64, u64); 2] {
    let run = m.op(op).expect("op is in the registry");
    let queue = m.queue_op(op).expect("op is in the registry");
    [(run.count, run.total_ns), (queue.count, queue.total_ns)]
}

/// What set-up does to a tenant, on the wire or in process: the deployment
/// and its twin are provisioned by the same code, so they hold the same
/// system plane and the same history.
pub trait Provision {
    fn train_system(&mut self, images: &Tensor, cfg: EmbedTrainConfig);
    fn ingest(&mut self, images: &Tensor, labels: &Tensor, scan: usize);
}

impl Provision for Conn {
    fn train_system(&mut self, images: &Tensor, cfg: EmbedTrainConfig) {
        let reply = self.call(&Request::TrainSystem {
            images: images.clone(),
            embed_cfg: cfg,
        });
        assert!(
            matches!(reply, Ok(Reply::SystemTrained { .. })),
            "TrainSystem answered {reply:?}"
        );
    }

    fn ingest(&mut self, images: &Tensor, labels: &Tensor, scan: usize) {
        let reply = self.call(&Request::IngestLabeled {
            images: images.clone(),
            labels: labels.clone(),
            scan,
        });
        assert!(
            matches!(reply, Ok(Reply::Ingested { count, .. }) if count == images.shape()[0]),
            "IngestLabeled answered {reply:?}"
        );
    }
}

/// An in-process copy of one tenant, built from the same seed and inputs:
/// the oracle the wire replies are compared with, and the object the layer
/// probes call into without disturbing the deployment's caches.
pub struct Twin {
    trainer: RapidTrainer,
}

impl Provision for Twin {
    fn train_system(&mut self, images: &Tensor, cfg: EmbedTrainConfig) {
        self.trainer.fairds.train_system(images, &cfg);
    }

    fn ingest(&mut self, images: &Tensor, labels: &Tensor, scan: usize) {
        self.trainer.fairds.ingest_labeled(images, labels, scan);
    }
}

impl Twin {
    pub fn new(plan: &TenantPlan) -> Twin {
        Twin {
            trainer: plan.trainer(),
        }
    }

    fn system(&self) -> Arc<SystemSnapshot> {
        self.trainer.fairds.snapshot().expect("twin is provisioned")
    }

    pub fn dataset_pdf(&self, images: &Tensor) -> Vec<f64> {
        self.system().dataset_pdf(images)
    }

    pub fn certainty(&self, images: &Tensor) -> f64 {
        self.system().certainty(images)
    }

    /// Registers a model the deployment holds, so the twin's zoo ranks the
    /// same entries.
    pub fn publish(&mut self, checkpoint: Vec<u8>, pdf: Vec<f64>) {
        let arch = self.trainer.config().arch;
        self.trainer.zoo.add(ZooEntry {
            name: format!("mirror-{}", self.trainer.zoo.len()),
            arch,
            checkpoint,
            train_pdf: pdf,
            scan: 0,
        });
    }
}

/// What the layer probes replay: inputs sampled from the workload.
pub struct ProbeInputs<'a> {
    /// Distinct batches of [`BATCH`] frames no cache has seen.
    pub fresh_batches: &'a [Tensor],
    /// `(images, labels)` of 32 frames per ingest repetition.
    pub ingest_batches: &'a [(Tensor, Tensor)],
    /// `(images, labels)` the size of one `UpdateModel`.
    pub update_frames: &'a (Tensor, Tensor),
    /// Repetitions of a sub-millisecond probe.
    pub reps: usize,
}

/// One probe's samples: metric name, the census op it decomposes (or ""),
/// and each repetition's `(end, duration)`.
pub type ProbeSink<'a> = dyn FnMut(&'static str, &'static str, Vec<(Instant, Duration)>) + 'a;

/// A derived, untimed layer figure.
pub type FigureSink<'a> = dyn FnMut(&'static str, f64) + 'a;

fn time_n(reps: usize, mut f: impl FnMut(usize)) -> Vec<(Instant, Duration)> {
    (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            let d = t.elapsed();
            (t + d, d)
        })
        .collect()
}

/// Timed calls into each layer's public functions, on the twin. Runs after
/// the measured window, on the thread that drove it.
pub fn run_probes(
    twin: &mut Twin,
    inp: &ProbeInputs<'_>,
    probe: &mut ProbeSink<'_>,
    figure: &mut FigureSink<'_>,
) {
    let reps = inp.reps;
    let fresh = |i: usize| &inp.fresh_batches[i % inp.fresh_batches.len()];
    let snap = twin.system();
    let k = snap.k();
    let uniform = vec![1.0 / k as f64; k];

    // --- service.net: the codec, on the request and replies a read moves.
    let req = Request::DatasetPdf {
        images: fresh(0).clone(),
    };
    let req_bytes = encode_request(&req);
    let rep = Reply::Pdf(uniform.clone());
    let rep_bytes = encode_reply(&rep);
    probe(
        "service.net.codec_req_encode_s",
        "pdf",
        time_n(reps, |_| {
            black_box(encode_request(black_box(&req)));
        }),
    );
    probe(
        "service.net.codec_req_decode_s",
        "pdf",
        time_n(reps, |_| {
            black_box(decode_request(black_box(&req_bytes)).expect("decodes"));
        }),
    );
    probe(
        "service.net.codec_reply_encode_s",
        "pdf",
        time_n(reps, |_| {
            black_box(encode_reply(black_box(&rep)));
        }),
    );
    probe(
        "service.net.codec_reply_decode_s",
        "pdf",
        time_n(reps, |_| {
            black_box(decode_reply(black_box(&rep_bytes)).expect("decodes"));
        }),
    );

    // --- nn / tensor under the embed path.
    let embedder = snap.embedder();
    probe(
        "nn.embed_forward_s",
        "pdf",
        time_n(reps, |i| {
            black_box(embedder.embed(fresh(i)));
        }),
    );
    let w = Tensor::full(&[HIDDEN, PIXELS], 0.01);
    let bias = Tensor::zeros(&[HIDDEN]);
    probe(
        "tensor.gemm_embed_s",
        "pdf",
        time_n(reps, |i| {
            black_box(matmul_transb_bias(fresh(i), &w, &bias));
        }),
    );
    // Computed from the shapes, not measured: 2·m·n·k flop; A, B, bias read
    // once and C written once, 4 bytes each.
    figure(
        "tensor.gemm_embed_flop",
        (2 * BATCH * PIXELS * HIDDEN) as f64,
    );
    figure(
        "tensor.gemm_embed_bytes",
        (4 * (BATCH * PIXELS + HIDDEN * PIXELS + HIDDEN + BATCH * HIDDEN)) as f64,
    );
    let sq = Tensor::full(&[256, 256], 0.5);
    let gemm256 = time_n(reps.min(20), |_| {
        black_box(matmul(&sq, &sq));
    });
    let mut secs: Vec<f64> = gemm256.iter().map(|(_, d)| d.as_secs_f64()).collect();
    figure(
        "tensor.gemm_256_gflops",
        2.0 * 256f64.powi(3) / crate::stats::median(&mut secs) / 1e9,
    );
    probe(
        "tensor.row_hashes_s",
        "pdf",
        time_n(reps, |i| {
            black_box(row_hashes(fresh(i)));
        }),
    );

    // --- clustering: routing 16 embeddings. The snapshot keeps its model
    // private, so fit an equal one (same data, K and seed).
    let z_all = embedder.embed(&Tensor::vstack(
        &inp.fresh_batches.iter().collect::<Vec<_>>(),
    ));
    let mut km_cfg = KMeansConfig::new(k.min(z_all.shape()[0]));
    km_cfg.seed = snap.config().seed;
    let km = KMeans::fit(&z_all, &km_cfg);
    let z16 = embedder.embed(fresh(0));
    probe(
        "clustering.kmeans_predict_s",
        "pdf",
        time_n(reps, |_| {
            black_box(km.predict(black_box(&z16)));
        }),
    );

    // --- core.reuse: the cache's two extremes. The miss pass installs the
    // rows the hit pass then finds.
    let n_batches = inp.fresh_batches.len();
    let miss = time_n(n_batches, |i| {
        black_box(snap.embed_cached(fresh(i)));
    });
    let hit = time_n(reps, |i| {
        black_box(snap.embed_cached(fresh(i)));
    });
    let after = snap.embed_cache().stats();
    assert!(
        after.hits >= (reps * BATCH) as u64 || !snap.embed_cache().is_enabled(),
        "the hit pass missed: {after:?}"
    );
    probe("core.reuse.embed_all_miss_s", "pdf", miss);
    probe("core.reuse.embed_all_hit_s", "pdf", hit);

    // --- core.fairds reads (cached rows: these time routing and search,
    // the embed cost is reported above).
    probe(
        "core.fairds.dataset_pdf_s",
        "pdf",
        time_n(reps, |i| {
            black_box(snap.dataset_pdf(fresh(i)));
        }),
    );
    probe(
        "core.fairds.certainty_s",
        "certainty",
        time_n(reps, |i| {
            black_box(snap.certainty(fresh(i)));
        }),
    );
    probe(
        "core.fairds.lookup_matching_s",
        "lookup",
        time_n(reps, |_| {
            black_box(snap.lookup_matching(&uniform, BATCH));
        }),
    );
    drop(snap.nearest_labeled(fresh(0)));
    probe(
        "core.fairds.nearest_labeled_s",
        "pseudo_label",
        time_n(reps, |i| {
            black_box(snap.nearest_labeled(fresh(i)));
        }),
    );

    // --- datastore, on the twin's own collection.
    let store = Arc::clone(twin.trainer.fairds.store());
    let ids = store.ids();
    probe(
        "datastore.get_s",
        "lookup",
        time_n(reps, |i| {
            black_box(store.get(ids[(i * 7919) % ids.len()]));
        }),
    );
    let user_bytes = (PIXELS + EMBED_DIM + 2) * 4 + 2 * 8;
    figure(
        "datastore.bytes_per_user_byte",
        store.stored_bytes() as f64 / (store.len() * user_bytes) as f64,
    );
    let scratch = Collection::new("probe", Arc::new(RawCodec));
    let docs: Vec<Document> = ids
        .iter()
        .take(32)
        .filter_map(|&id| store.get(id))
        .collect();
    probe(
        "datastore.insert_many_s",
        "ingest",
        time_n(reps, |_| {
            black_box(scratch.insert_many(&docs));
        }),
    );

    // --- core.fairds writes: a 32-document ingest, then the first routed
    // read after it, which pays the read index's rebuild.
    let mut ingest = Vec::new();
    let mut rebuild = Vec::new();
    for (i, (x, y)) in inp.ingest_batches.iter().enumerate() {
        let t = Instant::now();
        twin.trainer.fairds.ingest_labeled(x, y, 1_000 + i);
        let d = t.elapsed();
        ingest.push((t + d, d));
        let snap = twin.system();
        let t = Instant::now();
        {
            black_box(snap.nearest_labeled(fresh(i)));
        };
        let d = t.elapsed();
        rebuild.push((t + d, d));
    }
    probe("core.fairds.ingest_labeled_s", "ingest", ingest);
    probe("core.fairds.index_rebuild_s", "pseudo_label", rebuild);

    // --- core.fairms: ranking the mirrored zoo.
    let zoo = twin.trainer.zoo.snapshot();
    figure("core.fairms.zoo_len", zoo.len() as f64);
    probe(
        "core.fairms.rank_top_k_s",
        "recommend",
        time_n(reps, |_| {
            black_box(zoo.rank_top_k(&uniform, 3));
        }),
    );
    probe(
        "core.fairms.rank_full_s",
        "recommend",
        time_n(reps, |_| {
            black_box(zoo.rank(&uniform));
        }),
    );

    // --- flows.jobs: spawn → first instruction, on an idle pool.
    let pool = JobPool::new(1, "e2e-probe");
    let handoff = (0..reps)
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            let t = Instant::now();
            pool.spawn(move |_| {
                let _ = tx.send(Instant::now());
            });
            let started = rx.recv().expect("probe job ran");
            (started, started.saturating_duration_since(t))
        })
        .collect();
    drop(pool);
    probe("flows.jobs.handoff_p50_s", "update_model", handoff);

    // --- nn: one training epoch and one inference batch of the model an
    // update trains.
    let (ux, uy) = inp.update_frames;
    let n = ux.shape()[0];
    let x4 = ux.reshape(&[n, 1, SIDE, SIDE]);
    let arch = twin.trainer.config().arch;
    let mut net = arch.build(1);
    let one_epoch = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: twin.trainer.config().train.batch_size,
        ..TrainConfig::default()
    });
    let val = (x4.slice_rows(0, BATCH), uy.slice_rows(0, BATCH));
    probe(
        "nn.train_epoch_s",
        "update_model",
        time_n(reps.min(10), |_| {
            let mut opt = Adam::new(1e-3);
            {
                black_box(one_epoch.fit(&mut net, &mut opt, &Mse, &x4, uy, &val.0, &val.1));
            };
        }),
    );
    probe(
        "nn.infer_batch_s",
        "update_model",
        time_n(reps, |_| {
            black_box(net.infer(black_box(&val.0)));
        }),
    );

    // --- core.workflow: the paper's comparison, in process on the update
    // frames: label, then train to convergence from random weights (cold)
    // or from the zoo's best match (reuse). Early stopping is on here, and
    // only here: over the wire every update runs a fixed number of epochs
    // so that the end-to-end timings do not depend on how soon a seed's
    // data happens to converge.
    let snap = twin.system();
    let pdf = snap.dataset_pdf(ux);
    let deployed = twin.trainer.config().train.clone();
    let to_convergence = &mut twin.trainer.config_mut().train;
    to_convergence.epochs = 24;
    to_convergence.patience = 3;
    let threshold = twin.trainer.config().label_threshold;
    let mut updated = None;
    let mut timed_update = |strategy: TrainStrategy| -> Vec<(Instant, Duration)> {
        (0..2)
            .map(|_| {
                let t = Instant::now();
                let (labels, _) = snap.pseudo_label(ux, threshold, |_| vec![0.5, 0.5]);
                let (net, report, ..) = twin.trainer.fit_strategy(ux, &labels, &pdf, strategy);
                let d = t.elapsed();
                updated = Some((fairdms_nn::checkpoint::save(&net), report));
                (t + d, d)
            })
            .collect()
    };
    let cold = timed_update(TrainStrategy::Scratch);
    let reuse = timed_update(TrainStrategy::FineTuneBest);
    twin.trainer.config_mut().train = deployed;
    let p50 = |samples: &[(Instant, Duration)]| {
        crate::stats::median(
            &mut samples
                .iter()
                .map(|(_, d)| d.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    figure("core.workflow.reuse_speedup", p50(&cold) / p50(&reuse));
    probe("core.workflow.cold_update_s", "update_model", cold);
    let (checkpoint, train_report) = updated.expect("two cold runs");
    let reply = Reply::Updated {
        checkpoint,
        report: UpdateReport {
            label_secs: 0.0,
            train_secs: train_report.wall_secs,
            label_stats: Default::default(),
            foundation: None,
            divergence: None,
            epochs: train_report.curve.len(),
            train_report,
            registered_id: 0,
        },
    };
    probe(
        "service.net.codec_updated_reply_s",
        "update_model",
        time_n(reps, |_| {
            black_box(decode_reply(&encode_reply(black_box(&reply))).expect("decodes"));
        }),
    );
}
